"""Acceptance criteria, one test per criterion.

Each criterion runs its ``fueterkit.selfcheck`` suite at acceptance size
(``selftest`` runs the same suites at smaller sizes), asserts that it
passed, and pins the suite's report, so a grid that shrinks fails here.
Every check is exact rational equality of canonical forms or an exact
evaluation at a point with rational radii.  Each test prints one summary
line, so ``pytest tests/test_acceptance.py -s`` doubles as a report.
"""

import pytest

from fueterkit import selfcheck


def _accept(index: int, title: str, result: tuple[bool, str], report: str) -> None:
    ok, detail = result
    assert ok, detail
    assert detail == report, "the acceptance grid changed size"
    print(f"PASS criterion {index} ({title}): {detail}")


def test_criterion_1_reference_examples():
    _accept(1, "reference examples", selfcheck.check_reference_examples(101, 3),
            "18 draws across 6 formulas, frozen constants")


def test_criterion_2_monogenicity_sweep():
    _accept(2, "monogenicity sweep", selfcheck.check_monogenicity_sweep(202, 212),
            "212 map outputs in ker(Dirac), exact")


def test_criterion_3_expansion_oracle():
    _accept(3, "operator expansion oracle", selfcheck.check_expansion_oracle(0, 300),
            "300 exact identities")


def test_criterion_4_operator_identity_suite():
    _accept(4, "operator identity suite", selfcheck.check_operator_identities(0, 36),
            "144 exact identities")


# Criteria 5 and 8 share one suite, which computes each closed form once.
@pytest.fixture(scope="module")
def closed_forms():
    return selfcheck.check_closed_forms(0, 96)


def test_criterion_5_closed_form_equality(closed_forms):
    _accept(5, "closed-form equality", closed_forms, "96 cases, orders [0, 1, 2], 42 nonzero")


def test_criterion_6_fischer():
    _accept(6, "fischer decomposition", selfcheck.check_fischer(606, 50),
            "50 random inputs, exact reconstruction")


def test_criterion_7_pipeline_equivalence():
    _accept(7, "pipeline equivalence", selfcheck.check_pipeline_equivalence(0, 24),
            "24 exact replays through monogenic layers")


def test_criterion_8_vekua_systems(closed_forms):
    _accept(8, "first-order component systems", closed_forms,
            "96 cases, orders [0, 1, 2], 42 nonzero")


def test_criterion_9_classical_map():
    _accept(9, "single-axis map", selfcheck.check_classical_map(0, 6),
            "6 cases plus the hand value -4")


def test_criterion_10_algebra_core():
    _accept(10, "algebra core", selfcheck.check_algebra_core(1010, 250),
            "1250 randomized checks, 60 exact point evaluations")


def test_criterion_11_radial_calculus():
    _accept(11, "radial calculus and kernels", selfcheck.check_radial_calculus(1111, 120),
            "120 randomized rounds, 60 kernel-against-definition checks")
