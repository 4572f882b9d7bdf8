"""Module boundaries of the package: no module reaches into a sibling's
private names, either by importing them or by attribute access, and no
module keeps process-global state (an unbounded cache, or configuration
read from the environment)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vmma"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module: str | None, level: int) -> bool:
    if level:
        return True
    return module is not None and (module == "vmma" or module.startswith("vmma."))


def private_cross_imports(source: str) -> list:
    """Each `from .<module> import _name`, and each `<module>._name` where
    <module> is a name bound to a sibling module, in `source`."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node.module, node.level):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} "
                                 f"import {alias.name}")
                elif node.module is None or node.module == "vmma":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if _sibling(alias.name, 0))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and ast.unparse(node.value) in modules):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_cross_imports(path.read_text()) == []


def _unbounded_lru(node) -> bool:
    if not (isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("lru_cache", "functools.lru_cache")):
        return False
    size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
    return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None


def process_global_state(source: str) -> list:
    """Each unbounded cache (`functools.cache`, `lru_cache(maxsize=None)`)
    and each read of the environment (`os.environ`, `os.getenv`) in
    `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("functools", "os"):
            found += [f"from {node.module} import {alias.name}"
                      for alias in node.names
                      if alias.name in ("cache", "environ", "getenv")]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in (
                "functools.cache", "os.environ", "os.getenv"):
            found.append(ast.unparse(node))
        elif _unbounded_lru(node):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_global_state(path):
    assert process_global_state(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass",
    "import functools\n@functools.lru_cache(None)\ndef f(x): pass",
    "import functools\n@functools.cache\ndef f(x): pass",
    "from functools import cache",
    "import os\nn = os.environ.get('N', '1')",
    "import os\nn = os.getenv('N')",
    "from os import environ",
])
def test_process_global_state_is_detected(source):
    assert process_global_state(source)


def test_bounded_cache_and_os_calls_pass():
    source = ("import functools, os\nfrom functools import lru_cache\n"
              "@lru_cache(maxsize=32)\ndef f(m): pass\n"
              "@functools.lru_cache\ndef g(m): pass\n"
              "cache = {}\nn = os.sysconf('SC_PAGE_SIZE')\n")
    assert process_global_state(source) == []


@pytest.mark.parametrize("source", [
    "from .fields import _noise_rows",
    "from vmma.covariance import _box_cached",
    "from . import fields\nfields._prepare()",
    "from . import fields as f\ndef g():\n    return f._ROW_BLOCK",
    "import vmma.fields\nvmma.fields._lag_table",
])
def test_private_cross_import_is_detected(source):
    assert private_cross_imports(source)


def test_public_and_own_names_pass():
    source = ("from .fields import SchemeParams\nfrom . import fields\n"
              "import numpy as np\n_x = 1\nfields.prepare_hybrid\nnp._NoValue\n"
              "fields.__name__")
    assert private_cross_imports(source) == []


# The one home of each numerical primitive: QUADPACK (scipy.integrate) is
# driven only from quadrature.py, Bessel K (scipy.special.kv) is evaluated
# only in kernels.py.
HOMES = {"scipy.integrate": "quadrature.py", "scipy.special.kv": "kernels.py"}


def primitive_uses(source: str) -> dict:
    """Each import of scipy.integrate and each reference to
    scipy.special.kv in `source`, keyed as in HOMES."""
    tree = ast.parse(source)
    special = {"scipy.special"}
    found = {key: [] for key in HOMES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.integrate"):
                    found["scipy.integrate"].append(f"import {alias.name}")
                elif alias.name == "scipy.special" and alias.asname:
                    special.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [alias.name for alias in node.names]
            if (node.module.startswith("scipy.integrate")
                    or (node.module == "scipy" and "integrate" in names)):
                found["scipy.integrate"].append(f"from {node.module} import ...")
            if node.module == "scipy.special" and "kv" in names:
                found["scipy.special.kv"].append("from scipy.special import kv")
            if node.module == "scipy":
                special.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "special")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "kv" and ast.unparse(node.value) in special:
                found["scipy.special.kv"].append(ast.unparse(node))
            elif ast.unparse(node) == "scipy.integrate":
                found["scipy.integrate"].append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numerical_primitives_have_one_home(path):
    uses = primitive_uses(path.read_text())
    assert {key: found for key, found in uses.items()
            if found and HOMES[key] != path.name} == {}


def test_bessel_k_is_the_one_kv_call_site():
    source = (SRC / "kernels.py").read_text()
    bessel_k = [node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "bessel_k"]
    assert len(bessel_k) == 1
    assert primitive_uses(source)["scipy.special.kv"] == ["_sp.kv"]
    assert [ast.unparse(node) for node in ast.walk(bessel_k[0])
            if isinstance(node, ast.Attribute) and node.attr == "kv"] == ["_sp.kv"]


@pytest.mark.parametrize("source,key", [
    ("import scipy.integrate", "scipy.integrate"),
    ("import scipy.integrate as si", "scipy.integrate"),
    ("from scipy import integrate as _integrate", "scipy.integrate"),
    ("from scipy.integrate import quad", "scipy.integrate"),
    ("import scipy\nscipy.integrate.quad(f, 0, 1)", "scipy.integrate"),
    ("from scipy.special import kv", "scipy.special.kv"),
    ("from scipy import special as _sp\n_sp.kv(0.5, 1.0)", "scipy.special.kv"),
    ("from scipy import special\nspecial.kv(0.5, 1.0)", "scipy.special.kv"),
    ("import scipy.special as sp\nsp.kv(0.5, 1.0)", "scipy.special.kv"),
    ("import scipy.special\nscipy.special.kv(0.5, 1.0)", "scipy.special.kv"),
])
def test_primitive_use_is_detected(source, key):
    assert primitive_uses(source)[key]


def test_other_scipy_uses_pass():
    source = ("from scipy.special import hyp2f1, roots_jacobi\n"
              "from scipy import fft as _fft, special as _sp\n"
              "_sp.kve(0.5, 1.0)\nparams.kv\nfrom scipy import fft\n")
    assert primitive_uses(source) == {key: [] for key in HOMES}


# The one home of argument checks: errors.check_int and errors.check_real.
# An integer-type test anywhere else is a hand-written copy of check_int.
ARGUMENT_CHECK_HOME = "errors.py"
_INTEGER_TYPES = {"numpy": "integer", "numbers": "Integral"}


def integer_type_uses(source: str) -> list:
    """Each reference to numpy.integer or numbers.Integral in `source`,
    under any alias of its module, and each import of either name."""
    tree = ast.parse(source)
    aliases = {module: {module} for module in _INTEGER_TYPES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in aliases:
                    aliases[alias.name].add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in _INTEGER_TYPES:
            found += [f"from {node.module} import {alias.name}"
                      for alias in node.names
                      if alias.name == _INTEGER_TYPES[node.module]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found += [ast.unparse(node) for module, name in _INTEGER_TYPES.items()
                      if node.attr == name
                      and ast.unparse(node.value) in aliases[module]]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_argument_checks_have_one_home(path):
    if path.name != ARGUMENT_CHECK_HOME:
        assert integer_type_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nisinstance(n, (int, np.integer))",
    "import numpy\nnumpy.integer",
    "from numpy import integer",
    "import numbers\nisinstance(n, numbers.Integral)",
    "import numbers as nb\nnb.Integral",
    "from numbers import Integral as I",
])
def test_integer_type_use_is_detected(source):
    assert integer_type_uses(source)


def test_other_numeric_types_pass():
    source = ("import numpy as np\nimport numbers\nnp.int64(3)\nnp.floating\n"
              "numbers.Real\nparams.integer\nfrom numpy import int64\n")
    assert integer_type_uses(source) == []


# One FFT-convolution path: a row rfft is taken only in fields._row_spectrum
# and an irfft only in fields._convolved_block; no module takes a 2-D or
# n-D real transform, which would be a second path beside them.
FFT_HOMES = {"rfft": "_row_spectrum", "irfft": "_convolved_block"}
_REAL_ND = ("rfft2", "irfft2", "rfftn", "irfftn")


def real_fft_calls(source: str) -> list:
    """(name, innermost enclosing function or None) of each call of a real
    FFT in `source`, as `mod.rfft(...)` or a bare `rfft(...)`, and
    (name, "import") of each import of one by name."""
    names = set(FFT_HOMES) | set(_REAL_ND)
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, "import") for alias in node.names
                         if alias.name in names)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_fft_convolution_has_one_path(path):
    calls = real_fft_calls(path.read_text())
    if path.name == "fields.py":
        assert sorted(calls) == sorted(FFT_HOMES.items())
    else:
        assert calls == []


@pytest.mark.parametrize("source", [
    "from scipy import fft as _fft\ndef _simulate(x):\n    return _fft.irfft(x)",
    "from scipy import fft as _fft\ndef _convolved_block(x):\n    return _fft.rfft(x)",
    "import numpy as np\ny = np.fft.rfft(x)",
    "from scipy.fft import irfft",
    "from scipy import fft\ndef conv(a):\n    return fft.rfft2(a)",
    "import numpy as np\ndef _row_spectrum(x):\n    return np.fft.irfftn(x)",
])
def test_stray_real_fft_is_detected(source):
    assert [call for call in real_fft_calls(source)
            if FFT_HOMES.get(call[0]) != call[1]]


def test_complex_fft_and_homes_pass():
    source = ("from scipy import fft as _fft\n"
              "def _row_spectrum(b):\n    return _fft.fft(_fft.rfft(b), axis=0)\n"
              "def _convolved_block(s):\n"
              "    return _fft.irfft(_fft.ifft(s, axis=0))\n"
              "def circulant(z):\n    return _fft.fft2(z), _fft.next_fast_len(9)\n")
    assert sorted(real_fft_calls(source)) == sorted(FFT_HOMES.items())
