"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import mathieulab


def test_no_unused_imports():
    unused = []
    for path in sorted(Path(mathieulab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports by design
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {bound}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (bound := (alias.asname or alias.name).split(".")[0]) not in used]
    assert not unused
