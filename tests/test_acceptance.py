"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is exact; the two stated time budgets are asserted.
"""

import time

import pytest

from ktaquin.shapes import (
    AmbientRectangle,
    DirectSumFrame,
    SkewShape,
    contains,
    partitions_in_rectangle,
    partitions_of,
    psize,
    star,
)
from ktaquin.tableaux import enumerate_increasing
from ktaquin.jdt import krect
from ktaquin.coefficients import (
    coeff_D,
    coeff_D_buch,
    coeff_D_via_identity,
)
from ktaquin import suites


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num:2d} [{name}]: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {extra}"


@pytest.fixture(scope="module")
def frame_sweep():
    """Shared sweep for criteria 2 and 3: every triple over every small frame."""
    t0 = time.perf_counter()
    sides = [(k, n) for k in (1, 2) for n in range(k + 1, 5)]
    buch_ok = True
    identity_ok = True
    combos = 0
    for k1, n1 in sides:
        for k2, n2 in sides:
            frame = DirectSumFrame(k1, n1, k2, n2)
            for lam in partitions_in_rectangle(frame.k1, frame.n1 - frame.k1):
                for mu in partitions_in_rectangle(frame.k2, frame.n2 - frame.k2):
                    for nu in partitions_in_rectangle(frame.k, frame.n - frame.k):
                        jdt = coeff_D(lam, mu, nu)
                        buch_ok = buch_ok and jdt == coeff_D_buch(lam, mu, nu)
                        identity_ok = identity_ok and jdt == coeff_D_via_identity(
                            lam, mu, nu, frame
                        )
                        combos += 1
    return {
        "buch_ok": buch_ok,
        "identity_ok": identity_ok,
        "combos": combos,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_01_star_enumeration_golden():
    t0 = time.perf_counter()
    result = suites.star_groups_suite()
    elapsed = time.perf_counter() - t0
    _report(1, "fifteen-filling group table", result.ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_buch_oracle_agreement(frame_sweep):
    ok = frame_sweep["buch_ok"] and frame_sweep["elapsed"] < 300.0
    _report(
        2,
        "set-valued oracle agreement",
        ok,
        f"{frame_sweep['combos']} combos in {frame_sweep['elapsed']:.1f}s",
    )


def test_criterion_03_direct_sum_identity(frame_sweep):
    _report(3, "direct-sum identity", frame_sweep["identity_ok"], f"{frame_sweep['combos']} combos")


def test_criterion_04_augmented_witnesses():
    result = suites.augmented_witnesses_suite()
    _report(4, "marked-filling witnesses", result.ok, result.summary)


def test_criterion_05_rectangular_order_independence():
    checked = 0
    ok = True
    for rect in ((1,), (2,), (2, 2)):
        orders = list(
            enumerate_increasing(SkewShape.straight(rect), range(1, psize(rect) + 2))
        )
        for n in range(psize(rect) + 1, 8):
            for nu in partitions_of(n):
                if not contains(nu, rect):
                    continue
                for t in enumerate_increasing(SkewShape(nu, rect), range(1, 5)):
                    results = {krect(t, order) for order in orders}
                    checked += 1
                    ok = ok and len(results) == 1
    _report(5, "rectangular-inner order independence", ok and checked > 0, f"{checked} fillings")


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
