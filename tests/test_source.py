"""Static checks on the package source, read with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trideal"
# __init__.py imports names only to re-export them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, with the line of their import."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if name not in read]
    return unused


def test_finds_an_unused_import():
    source = "import csv\nimport os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["csv (line 1)", "a (line 3)"]


def test_every_module_is_checked():
    assert {"cli.py", "enumeration.py", "model.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
