"""Every name a library or test module imports is used in that module."""

import ast
from pathlib import Path

import mathieulab

TESTS = Path(__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{node.lineno} {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := (alias.asname or alias.name).split(".")[0]) not in used]


def test_no_unused_imports():
    # the package's __init__.py re-exports by design
    library = [path for path in sorted(Path(mathieulab.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    unused = [entry for path in library + sorted(TESTS.glob("*.py"))
              for entry in _unused_imports(path)]
    assert not unused
