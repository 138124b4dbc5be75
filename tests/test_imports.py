"""Package layout rules checked on the source text."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import duhamelcheb

PACKAGE = pathlib.Path(duhamelcheb.__file__).parent


def private_imports(path: pathlib.Path) -> list[str]:
    """Underscore names that ``path`` imports from another duhamelcheb module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "duhamelcheb":
            continue
        found += [
            f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{module}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_modules_import_no_private_names_from_each_other():
    """A name with a leading underscore stays inside its module: no package
    module may import one from another (``from .collocation import _x``)."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [hit for path in modules for hit in private_imports(path)]
    assert found == []


def test_every_exported_name_resolves():
    """Every name in the ``__all__`` of the package and of each of its
    modules is an attribute of that module, so a deleted name cannot stay
    exported."""
    modules = [duhamelcheb] + [
        importlib.import_module(f"duhamelcheb.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    assert all(hasattr(module, "__all__") for module in modules)
    missing = [f"{module.__name__}.{name}" for module in modules for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_importing_the_package_loads_no_scipy():
    """scipy is imported inside the functions that use it, so a fresh
    ``import duhamelcheb`` loads none of it and stays cheap."""
    code = "import sys, duhamelcheb; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"
