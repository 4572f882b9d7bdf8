"""Module boundaries of the package: no module reaches into a sibling's
private names, either by importing them or by attribute access."""

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
