"""Every `raise VerificationError` in the library has a test that makes it fire.

The table names, per enclosing function and in source order, one test for
each raise site; that test breaks a route the site re-checks and expects the
error.  A new site without an entry, or an entry whose test is gone, fails.
"""

import ast
from pathlib import Path

import mathieulab

TESTS = Path(__file__).parent
LIBRARY = sorted(Path(mathieulab.__file__).parent.glob("*.py"))

FAULT_TESTS = {
    "charp.sufficient_membership": [
        "test_charp.py::test_sufficiency_check_refuses_a_wrong_t_operator"],
    "charp.koszul_solve": ["test_charp.py::test_koszul_check_refuses_a_wrong_quotient"],
    "charp.crucial_lemma_descent": [
        "test_charp.py::test_descent_check_refuses_a_wrong_derivative"],
    "charp.theorem51_pipeline": [
        "test_parsing_cli.py::test_theorem51_decline_exits_2_under_optimize"],
    "charp.example12_refutation": [
        "test_charp.py::test_example12_check_refuses_a_derivative_over_q"],
    "charp.lemma81_nonvanishing": [
        "test_charp.py::test_lemma81_check_refuses_a_wrong_factorial"],
    "cli._cmd_decompose": [
        "test_parsing_cli.py::test_decompose_recompose_check_exits_2_under_optimize"],
    "cli._cmd_ortho": [
        "test_parsing_cli.py::test_ortho_shared_operator_fault_exits_2_under_optimize",
        "test_parsing_cli.py::test_ortho_route_disagreement_exits_2_under_optimize"],
    "harness.mathieu_scan": [
        "test_harness.py::test_violation_recheck_refuses_a_member_reported_as_a_miss"],
    "harness._gvc_crosscheck": [
        "test_harness.py::test_gvc_crosscheck_refuses_a_wrong_operator_value"],
    "imagemap.certify_imD": [
        "test_imagemap.py::test_certify_refuses_a_zero_component_that_is_not_lmap",
        "test_parsing_cli.py::test_verification_failure_exits_2_under_optimize"],
    "ortho.rodrigues": ["test_ortho.py::test_rodrigues_degree_check_fires"],
}


def _raise_sites(path):
    """The dotted enclosing scope of each `raise VerificationError`, in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name)
                    and child.exc.func.id == "VerificationError"):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    return sites


def test_every_verification_site_has_a_fault_test():
    sites = {}
    for path in LIBRARY:
        for scope in _raise_sites(path):
            sites[scope] = sites.get(scope, 0) + 1
    assert sites == {scope: len(tests) for scope, tests in FAULT_TESTS.items()}


def test_every_listed_fault_test_exists():
    defined = {f"{path.name}::{node.name}" for path in TESTS.glob("test_*.py")
               for node in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(node, ast.FunctionDef)}
    missing = [test for tests in FAULT_TESTS.values() for test in tests if test not in defined]
    assert not missing
