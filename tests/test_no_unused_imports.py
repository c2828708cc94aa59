"""Every name a library or test module imports is used in that module,
every private module-level name of the library is read somewhere in it,
every public module-level function and class is read by the library or the
benchmark (or is allowlisted below with its reason), every name the
benchmark traces exists (bar the stale ones listed below), no library module
imports `dataclasses`, only `Report` defines `as_report`, and the CLI prints
in one place: `cli.main`."""

import ast
import importlib
from pathlib import Path

import mathieulab

TESTS = Path(__file__).parent
LIBRARY = sorted(Path(mathieulab.__file__).parent.glob("*.py"))
BENCH = sorted((TESTS.parent / "bench").glob("*.py"))

# public names that neither the library nor the benchmark reads, and why they stay
READ_ONLY_BY_TESTS = {
    "hankel_determinant": "criterion 10: the non-zero Hankel minors",
}


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
    library = [path for path in LIBRARY if path.name != "__init__.py"]
    unused = [entry for path in library + sorted(TESTS.glob("*.py"))
              for entry in _unused_imports(path)]
    assert not unused


def _private_definitions(tree):
    """The module-level functions, classes and assignment targets named _x."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in LIBRARY}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    unused = [f"{name}:{defined}" for name, tree in trees.items()
              for defined in _private_definitions(tree)
              if defined.startswith("_") and not defined.startswith("__")
              and defined not in read]
    assert not unused


def test_public_names_are_read_outside_tests():
    """A wrapper that only tests call does not come back unnoticed."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in LIBRARY + BENCH]
    read = {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else node.name
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, (ast.Attribute, ast.alias))}
    unread = {node.name for tree in trees[:len(LIBRARY)] for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read}
    assert unread == set(READ_ONLY_BY_TESTS)


# traced names that no longer exist in the library, so their spans read 0; the
# benchmark-upkeep item of ROADMAP.md drops them from bench/, and this list then empties
STALE_TRACED = {
    ("spans.METHODS", "poly.Polynomial.__rmul__"),
    ("spans.METHODS", "poly.Polynomial.substitute"),
    ("spans.METHODS", "poly.Polynomial.exact_divide"),
    ("spans.METHODS", "weyl.WeylElement.compose"),
    ("spans.METHODS", "weyl.WeylElement.apply"),
    ("spans.METHODS", "weyl.WeylElement.power"),
    ("spans.METHODS", "weyl.WeylElement.left_normal_terms"),
    ("run.SPAN_SITES", "weyl.WeylElement.compose"),
    ("run.SPAN_SITES", "weyl.WeylElement.apply"),
    ("run.SPAN_SITES", "ortho.moments"),
}


def _bench_constant(module, name):
    """The literal value of a module-level assignment in bench/<module>.py, read, not run."""
    tree = ast.parse((TESTS.parent / "bench" / f"{module}.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


def _resolves(path):
    """Whether `module.Name.attr` is defined in mathieulab, as the span recorder looks it up."""
    short, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"mathieulab.{short}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        owner = vars(owner).get(attr)
        if owner is None:
            return False
    return True


def test_every_name_the_bench_traces_exists():
    """A deleted module, method or function that the benchmark traces fails here,
    instead of its span reading 0 without notice."""
    traced = ([("spans.MODULES", short) for short in _bench_constant("spans", "MODULES")]
              + [("spans.METHODS", f"{owner}.{attr}")
                 for owner, attrs in _bench_constant("spans", "METHODS").items()
                 for attr in attrs]
              + [("run.SPAN_SITES", site)
                 for site in _bench_constant("run", "SPAN_SITES").values()])
    assert {entry for entry in traced if not _resolves(entry[1])} == STALE_TRACED


def _readers(tree, name):
    """Dotted class/function scopes of `tree` in which the name `name` is read."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and child.id == name:
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_terms_summed_only_by_constructors():
    # every other map hands its (key, coeff) pairs to a constructor, which sums them once
    readers = set().union(*(_readers(ast.parse(path.read_text(), filename=str(path)), "_sum_terms")
                            for path in LIBRARY))
    assert readers == {"Polynomial.__init__"}


def test_packed_key_encoding_stays_in_powers():
    # the powers module docstring: the packed-key encoding and its inverse live there alone
    names = {"_pack", "_unpacker", "_pair_mask", "_below"}
    readers = {path.name for path in LIBRARY
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Name) and node.id in names
               or isinstance(node, ast.Attribute) and node.attr in names
               or isinstance(node, ast.alias) and node.name in names}
    assert readers == {"powers.py"}


def test_library_imports_no_dataclasses():
    """The value types are plain classes: importing them runs no class decorator."""
    hits = [f"{path.name}:{node.lineno}" for path in LIBRARY
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert not hits


def test_only_report_defines_as_report():
    """Every printed result is a `Report`, printed by its one `as_report`."""
    owners = sorted(f"{path.name}:{node.name}" for path in LIBRARY
                    for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef) and item.name == "as_report"
                            for item in node.body))
    assert owners == ["poly.py:Report"]


def test_cli_prints_only_in_main():
    """Handlers return typed `Report`s: `main` calls `as_report` once, and
    nothing else in `cli.py` calls `to_str` or `as_report`."""
    tree = ast.parse((Path(mathieulab.__file__).parent / "cli.py").read_text())

    def printing_calls(node):
        return [call.func.attr for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("to_str", "as_report")]

    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert printing_calls(main) == ["as_report"]
    assert printing_calls(tree) == ["as_report"]
