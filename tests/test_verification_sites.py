"""Every `raise VerificationError` in the library has a test that makes it fire,
in this process and, through the CLI, under `python -O`.

The table names, per enclosing function and in source order, one row for
each raise site: a test that breaks a route the site re-checks and expects
the error, and a `*_exits_2_under_optimize` test that breaks it in a
`python -O` process and expects a CLI command to exit 2, so no site rests on
an `assert`.  A new site without a row, a listed test that is gone, or an
`-O` test in no row fails.  The corpus enters every library function that
`UNREACHED` does not list, so some CLI command reaches each such site, and
its row must name an `-O` test.
"""

import ast
from pathlib import Path

import mathieulab
from test_cli_corpus import UNREACHED

TESTS = Path(__file__).parent
LIBRARY = sorted(Path(mathieulab.__file__).parent.glob("*.py"))

# site -> one (in-process test, python -O test) row per raise, in source order
FAULT_TESTS = {
    "charp.sufficient_membership": [
        ("test_charp.py::test_sufficiency_check_refuses_a_wrong_t_operator",
         "test_parsing_cli.py::test_theorem51_witness_check_exits_2_under_optimize")],
    "charp.koszul_solve": [
        ("test_charp.py::test_koszul_check_refuses_a_wrong_quotient",
         "test_parsing_cli.py::test_koszul_check_exits_2_under_optimize")],
    "charp.crucial_lemma_descent": [
        ("test_charp.py::test_descent_check_refuses_a_wrong_derivative",
         "test_parsing_cli.py::test_descent_check_exits_2_under_optimize")],
    "charp.theorem51_pipeline": [
        ("test_charp.py::test_theorem51_check_refuses_a_declined_sample",
         "test_parsing_cli.py::test_theorem51_decline_exits_2_under_optimize")],
    "charp.example12_refutation": [
        ("test_charp.py::test_example12_check_refuses_a_derivative_over_q",
         "test_parsing_cli.py::test_example12_check_exits_2_under_optimize")],
    "charp.lemma81_nonvanishing": [
        ("test_charp.py::test_lemma81_check_refuses_a_wrong_factorial",
         "test_parsing_cli.py::test_lemma81_check_exits_2_under_optimize")],
    "cli._cmd_decompose": [
        ("test_parsing_cli.py::test_decompose_recompose_check_exits_2",
         "test_parsing_cli.py::test_decompose_recompose_check_exits_2_under_optimize")],
    "cli._cmd_ortho": [  # the operator route, then Gram-Schmidt, against Rodrigues
        ("test_parsing_cli.py::test_ortho_route_disagreement_exits_2[rodrigues]",
         "test_parsing_cli.py::test_ortho_shared_operator_fault_exits_2_under_optimize"),
        ("test_parsing_cli.py::test_ortho_route_disagreement_exits_2[gram_schmidt]",
         "test_parsing_cli.py::test_ortho_route_disagreement_exits_2_under_optimize"
         "[gram_schmidt]")],
    "harness.mathieu_scan": [
        ("test_harness.py::test_violation_recheck_refuses_a_member_reported_as_a_miss",
         "test_parsing_cli.py::test_scan_violation_recheck_exits_2_under_optimize")],
    "harness._gvc_crosscheck": [
        ("test_harness.py::test_gvc_crosscheck_refuses_a_wrong_operator_value",
         "test_parsing_cli.py::test_gvc_crosscheck_exits_2_under_optimize")],
    "imagemap.certify_imD": [
        ("test_imagemap.py::test_certify_refuses_a_zero_component_that_is_not_lmap",
         "test_parsing_cli.py::test_zero_component_check_exits_2_under_optimize"),
        ("test_imagemap.py::test_certify_refuses_a_witness_that_does_not_verify",
         "test_parsing_cli.py::test_verification_failure_exits_2_under_optimize")],
    "ortho.rodrigues": [
        ("test_ortho.py::test_rodrigues_degree_check_fires",
         "test_parsing_cli.py::test_rodrigues_degree_check_exits_2_under_optimize")],
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


def _defined_tests():
    return {f"{path.name}::{node.name}" for path in TESTS.glob("test_*.py")
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.FunctionDef)}


def test_every_verification_site_has_a_fault_test():
    sites = {}
    for path in LIBRARY:
        for scope in _raise_sites(path):
            sites[scope] = sites.get(scope, 0) + 1
    assert sites == {scope: len(rows) for scope, rows in FAULT_TESTS.items()}


def _function(test):
    """The test function a row names; `name[id]` names one case of it."""
    return test.partition("[")[0]


def test_every_listed_fault_test_exists():
    missing = [test for rows in FAULT_TESTS.values() for row in rows for test in row
               if test is not None and _function(test) not in _defined_tests()]
    assert not missing


def test_every_site_a_cli_command_reaches_has_an_optimize_test():
    missing = [site for site, rows in FAULT_TESTS.items() for _, optimized in rows
               if optimized is None and site.partition(".")[2] not in UNREACHED]
    assert not missing
    listed = {_function(optimized) for rows in FAULT_TESTS.values()
              for _, optimized in rows if optimized is not None}
    assert all(test.endswith("_exits_2_under_optimize") for test in listed)
    assert {test for test in _defined_tests()
            if test.endswith("_exits_2_under_optimize")} <= listed
