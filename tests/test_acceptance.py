"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is exact; the two stated time budgets are asserted.
"""

from ktaquin import suites


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num:2d} [{name}]: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {extra}"


def test_criterion_01_star_enumeration_golden():
    result = suites.star_groups_suite()
    _report(1, "fifteen-filling group table", result.ok and result.elapsed < 1.0, f"{result.elapsed:.2f}s")


def test_criterion_02_buch_oracle_agreement(triple_agreement):
    # the sweep is the session fixture in conftest.py, shared with test_suites.py
    result = triple_agreement.result
    _report(2, "set-valued oracle agreement", result.ok and result.elapsed < 300.0, result.render())


def test_criterion_03_direct_sum_identity(triple_agreement):
    # the suite fails when any of its three routes disagrees, so this criterion
    # and criterion 2 fail together; its failure lines give all three values
    result = triple_agreement.result
    _report(3, "direct-sum identity", result.ok, result.render())


def test_criterion_04_augmented_witnesses():
    result = suites.augmented_witnesses_suite()
    _report(4, "marked-filling witnesses", result.ok, result.summary)


def test_criterion_05_rectangular_order_independence():
    result = suites.rect_order_independence_suite()
    _report(5, "rectangular-inner order independence", result.ok, result.render())


def test_criterion_06_dual_equivalence_both_directions():
    forward = suites.strong_equivalence_suite()
    sharp = suites.sharpness_suite()
    _report(
        6,
        "strong equivalence <=> rectangles",
        forward.ok and sharp.ok,
        f"{forward.summary}; {sharp.summary}",
    )


def test_criterion_07_reversibility_and_involution():
    rev = suites.reversibility_suite(seed=2024)
    inv = suites.infusion_involution_suite(seed=4096)
    _report(7, "reversibility and involution", rev.ok and inv.ok, f"{rev.summary}; {inv.summary}")


def test_criterion_08_reverse_rectification_anchor():
    result = suites.rev_rect_anchor_suite()
    _report(8, "southeast anchoring", result.ok, result.summary)


def test_criterion_09_products_golden():
    result = suites.products_suite()
    _report(9, "product displays", result.ok, result.summary)


def test_criterion_10_classical_degeneration():
    result = suites.degeneration_suite()
    _report(10, "classical degeneration", result.ok, result.summary)


def test_criterion_11_sign_invariant():
    # the suite computes its own fixed sweep and fails below its floor of 100
    # nonzero coefficients, so the criterion holds on its own in any test order
    result = suites.sign_invariant_suite()
    _report(11, "sign pattern", result.ok, result.summary)
