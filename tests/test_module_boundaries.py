"""Module boundaries of the package: no module reaches into a sibling's
private names, either by importing them or by attribute access, and no
module keeps process-global state (an unbounded cache, or configuration
read from the environment)."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import vmma

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
    "import vmma.fields\nvmma.fields._lag_octant",
])
def test_private_cross_import_is_detected(source):
    assert private_cross_imports(source)


def test_public_and_own_names_pass():
    source = ("from .fields import SchemeParams\nfrom . import fields\n"
              "import numpy as np\n_x = 1\nfields.prepare_hybrid\nnp._NoValue\n"
              "fields.__name__")
    assert private_cross_imports(source) == []


# No dead private code: each module-level private function, class or
# constant is loaded somewhere in its own module beyond its definition.  A
# private name that only tests use, or nothing, is code the package never
# runs.
def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def unused_privates(source: str) -> list:
    """The module-level private functions, classes and constants of
    `source` that no module-level statement other than their own
    definitions loads."""
    body = ast.parse(source).body
    defined = {}
    for stmt in body:
        for name in _defined_names(stmt):
            if _private(name):
                defined.setdefault(name, []).append(stmt)
    return [name for name, own in defined.items()
            if not any(isinstance(node, ast.Name) and node.id == name
                       and isinstance(node.ctx, ast.Load)
                       for stmt in body if all(stmt is not d for d in own)
                       for node in ast.walk(stmt))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_privates(path.read_text()) == []


@pytest.mark.parametrize("source, names", [
    ("def _f(x):\n    return x", ["_f"]),
    ("class _Plan:\n    pass", ["_Plan"]),
    ("_BLOCK = 64\n_A, (_B, c) = 1, (2, 3)\nc", ["_BLOCK", "_A", "_B"]),
    ("_N: int = 3", ["_N"]),
    # only its own body calls it
    ("def _f(n):\n    return _f(n - 1) if n else 0", ["_f"]),
    # an attribute or a local of the same name is not the module's name
    ("def _g():\n    pass\ndef f(obj):\n    _g = obj._g\n    return obj._g",
     ["_g"]),
])
def test_unused_private_name_is_detected(source, names):
    assert unused_privates(source) == names


def test_used_private_names_pass():
    source = ("import numpy as np\n_X = 1\n_Y = _X + 1\n"
              "def _f():\n    return _Y\n"
              "def g():\n    return _f()\n"
              "class _C:\n    pass\n"
              "PLANS = [_C]\n__all__ = ['g']\npublic = 2\n")
    assert unused_privates(source) == []


# No dead public code: each name of vmma.__all__ is loaded in a package
# module other than __init__.py or in a benchmark module, or a README code
# block shows it.  A public name with none of these uses is kept only on
# purpose, with its reason here.
ROOT = SRC.parents[1]
KEPT_PUBLIC = {
    "conv2_fft": "parked in ROADMAP: the direct reference of the one FFT path",
    "scheme_variance": "the tests' variance oracle (ROADMAP item 15)",
    "ProvidedGridVol": "the one way to pass a realised sigma grid (test_09)",
}


def loaded_names(source: str) -> set:
    """The names `source` loads, as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def unused_publics(names, sources, readme: str) -> list:
    """The entries of `names` that no source in `sources` loads and no
    fenced code block of the markdown `readme` contains as a word.  Dunder
    names (`__version__`) are metadata, not code, and always pass."""
    used = set().union(*map(loaded_names, sources))
    blocks = "".join(re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S))
    used |= set(re.findall(r"\w+", blocks))
    return [name for name in names
            if name not in used and not name.startswith("__")]


def test_every_public_name_has_a_use():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    sources += [path.read_text() for path in sorted(ROOT.glob("perfbench/*.py"))
                if not path.name.startswith("test_")]
    readme = (ROOT / "README.md").read_text()
    assert sorted(unused_publics(vmma.__all__, sources, readme)) == sorted(KEPT_PUBLIC)


def test_unused_public_name_is_detected():
    sources = ["from vmma import f, g, h\ng()\nx = vmma.h\nf = 1\n"]
    assert unused_publics(["f", "g", "h", "__version__"], sources, "") == ["f"]
    # a README code block is a use; inline code or prose is not
    readme = "Call `f` or f.\n```python\nvmma.f(1)\n```\n"
    assert unused_publics(["f", "g"], sources, readme) == []
    assert unused_publics(["f"], sources, readme.replace("vmma.f(1)", "g()")) == ["f"]


# The one home of each numerical primitive: QUADPACK (scipy.integrate) is
# driven only from quadrature.py, Bessel K (scipy.special.kv) is evaluated
# only in kernels.py, and Gauss-Legendre nodes
# (numpy.polynomial.legendre.leggauss), with the cell rules built on them,
# are formed only in quadrature.py.
_LEGGAUSS = "numpy.polynomial.legendre.leggauss"
HOMES = {"scipy.integrate": "quadrature.py", "scipy.special.kv": "kernels.py",
         _LEGGAUSS: "quadrature.py"}


def primitive_uses(source: str) -> dict:
    """Each import of scipy.integrate, each reference to scipy.special.kv
    and each import of or reference to leggauss (any `<x>.leggauss`) in
    `source`, keyed as in HOMES."""
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
            if "leggauss" in names:
                found[_LEGGAUSS].append(f"from {node.module} import leggauss")
            if node.module == "scipy":
                special.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "special")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "kv" and ast.unparse(node.value) in special:
                found["scipy.special.kv"].append(ast.unparse(node))
            elif ast.unparse(node) == "scipy.integrate":
                found["scipy.integrate"].append(ast.unparse(node))
            elif node.attr == "leggauss":
                found[_LEGGAUSS].append(ast.unparse(node))
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
    ("import numpy as np\nnp.polynomial.legendre.leggauss(4)", _LEGGAUSS),
    ("from numpy.polynomial.legendre import leggauss", _LEGGAUSS),
    ("from numpy.polynomial import legendre as L\nL.leggauss(4)", _LEGGAUSS),
    ("import numpy.polynomial.legendre\n"
     "numpy.polynomial.legendre.leggauss(4)", _LEGGAUSS),
])
def test_primitive_use_is_detected(source, key):
    assert primitive_uses(source)[key]


def test_other_scipy_uses_pass():
    source = ("from scipy.special import hyp2f1, roots_jacobi\n"
              "from scipy import fft as _fft, special as _sp\n"
              "_sp.kve(0.5, 1.0)\nparams.kv\nfrom scipy import fft\n"
              "np.polynomial.legendre.legval(0.5, c)\n")
    assert primitive_uses(source) == {key: [] for key in HOMES}


# The one home of argument checks: errors.check_int and errors.check_real,
# and covariance.check_policy for a policy.  An integer-type test anywhere
# else is a hand-written copy of check_int, and an EvaluationPolicy type test
# outside check_policy one of check_policy.
ARGUMENT_CHECK_HOME = "errors.py"
POLICY_CHECK_HOME = ("covariance.py", "check_policy")
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


def policy_type_tests(source: str) -> list:
    """The innermost enclosing function (None at module level) of each
    isinstance(..., EvaluationPolicy) in `source`, the class also as a
    module attribute or inside a tuple of types."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and len(node.args) == 2
              and any(getattr(t, "id", getattr(t, "attr", None)) == "EvaluationPolicy"
                      for t in ast.walk(node.args[1]))):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_argument_checks_have_one_home(path):
    source = path.read_text()
    if path.name != ARGUMENT_CHECK_HOME:
        assert integer_type_uses(source) == []
    module, home = POLICY_CHECK_HOME
    assert policy_type_tests(source) == ([home] if path.name == module else [])


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


@pytest.mark.parametrize("source, scopes", [
    ("isinstance(p, EvaluationPolicy)", [None]),
    ("def f(p):\n    return isinstance(p, covariance.EvaluationPolicy)", ["f"]),
    ("class C:\n    def g(self):\n        isinstance(self.p, (EvaluationPolicy, str))",
     ["g"]),
    ("isinstance(p, EvaluationPolicy_)\nisinstance(p, str)\nEvaluationPolicy()", []),
])
def test_policy_type_test_is_detected(source, scopes):
    assert policy_type_tests(source) == scopes


# One FFT-convolution path and one spectrum builder: each 1-D transform has
# named homes in fields.py.  A row rfft is taken only in _row_spectrum and an
# irfft only in _convolved_block.  A complex fft is the column pass of
# _row_spectrum, of _kernel_spectrum (the one builder of even spectra) and
# the circulant draw's two passes; an ifft is _convolved_block's column
# inverse.  No module takes a 2-D or n-D real transform, which would be a
# second path beside them.
FFT_CALLS = sorted([
    ("rfft", "_row_spectrum"), ("fft", "_row_spectrum"),
    ("fft", "_kernel_spectrum"),
    ("ifft", "_convolved_block"), ("irfft", "_convolved_block"),
    ("fft", "_circulant_draw"), ("fft", "_circulant_draw"),
])
_REAL_ND = ("rfft2", "irfft2", "rfftn", "irfftn")


def fft_calls(source: str, names) -> list:
    """(name, innermost enclosing function or None) of each call in `source`
    of an FFT named in `names`, as `mod.rfft(...)` or a bare `rfft(...)`,
    and (name, "import") of each import of one by name from an FFT module
    (`from scipy.fft import fft`, not `from scipy import fft`)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[-1] in ("fft", "fftpack")):
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


def one_path_fft_calls(source: str) -> list:
    """fft_calls of the 1-D transforms with homes and of the real n-D ones."""
    return fft_calls(source, {name for name, _ in FFT_CALLS} | set(_REAL_ND))


def stray_fft_calls(source: str) -> list:
    """one_path_fft_calls outside the transform's homes."""
    homes = set(FFT_CALLS)
    return [call for call in one_path_fft_calls(source) if call not in homes]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_fft_convolution_has_one_path(path):
    calls = one_path_fft_calls(path.read_text())
    if path.name == "fields.py":
        assert sorted(calls) == FFT_CALLS
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
    assert stray_fft_calls(source)


# A second column-pass builder, or a complex transform beside the homes
@pytest.mark.parametrize("source", [
    "from scipy import fft as _fft\ndef _circulant_search(z):\n"
    "    return _fft.fft(z, axis=0)",
    "from scipy import fft as _fft\ndef _plan_spectrum(rows):\n"
    "    return _fft.fft(rows, axis=0, overwrite_x=True)",
    "from scipy import fft as _fft\ndef _simulate(s):\n    return _fft.ifft(s, axis=0)",
    "import numpy as np\ny = np.fft.fft(x)",
    "from scipy.fft import ifft",
    "from numpy.fft import fft as column_pass",
])
def test_stray_complex_fft_is_detected(source):
    assert stray_fft_calls(source)


def test_complex_fft_and_homes_pass():
    source = ("from scipy import fft as _fft\n"
              "def _row_spectrum(b):\n    return _fft.fft(_fft.rfft(b), axis=0)\n"
              "def _kernel_spectrum(col):\n    return _fft.fft(col, axis=0)\n"
              "def _convolved_block(s):\n"
              "    return _fft.irfft(_fft.ifft(s, axis=0))\n"
              "def _circulant_draw(z):\n"
              "    f = _fft.fft(z, axis=0)\n"
              "    return _fft.fft(f, axis=1), _fft.next_fast_len(9)\n")
    assert sorted(one_path_fft_calls(source)) == FFT_CALLS
    assert stray_fft_calls(source) == []


# One forward 2-D spectrum path: a 2-D spectrum is formed by row
# transforms and one column pass (fields._row_spectrum) and the circulant's
# final transform is two 1-D passes; no module takes a 2-D or n-D complex
# transform, which would hold a whole second spectrum.
_COMPLEX_ND = ("fft2", "ifft2", "fftn", "ifftn")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_complex_nd_fft(path):
    assert fft_calls(path.read_text(), _COMPLEX_ND) == []


@pytest.mark.parametrize("source", [
    "from scipy import fft as _fft\ndef circulant(z):\n    return _fft.fft2(z)",
    "import numpy as np\ny = np.fft.ifftn(x, axes=(0, 1))",
    "from scipy.fft import fftn",
    "from numpy.fft import ifft2 as inverse",
    "from scipy.fft import fft2\nfft2(x)",
])
def test_complex_nd_fft_is_detected(source):
    assert fft_calls(source, _COMPLEX_ND)


def test_complex_1d_and_real_nd_fft_pass():
    source = ("from scipy import fft as _fft\nfrom scipy.fft import fft, ifft\n"
              "_fft.fft(z, axis=0)\n_fft.ifft(z, axis=1)\nfft2_like = 3\n"
              "_fft.rfft2(x)\nself.fftn_count += 1\n")
    assert fft_calls(source, _COMPLEX_ND) == []


def test_module_exports_resolve():
    # A name deleted from a module but left in an __all__ would only fail on
    # a star import; check every module's list and the package's.
    for path in sorted(SRC.glob("*.py")):
        name = "vmma" if path.stem == "__init__" else f"vmma.{path.stem}"
        module = importlib.import_module(name)
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], path.name
    assert len(vmma.__all__) == len(set(vmma.__all__))
    namespace = {}
    exec("from vmma import *", namespace)
    assert set(vmma.__all__) <= namespace.keys()
