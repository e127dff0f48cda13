"""Equivalence-lab checks: strong equivalence, origins, sharpness, independence."""

import random

import pytest

from ktaquin.shapes import AmbientRectangle, ShapeFitError, SkewShape, partitions_of
from ktaquin.tableaux import IncreasingTableau, enumerate_increasing, superstandard
from ktaquin.jdt import SlideStep, switch_trace
from ktaquin.equivalence import (
    check_count_independence,
    check_strong_dual_equivalence,
    check_superstandard_independence,
    exhaustive_equivalence,
    is_rectangle,
    nonrect_counterexample,
    random_equivalence_run,
    verify_origin_invariants,
)

T = IncreasingTableau.from_rows


class TestStrongEquivalence:
    def test_divergent_pair(self):
        # the two standard fillings of (2,1) split at the very first switch
        a, b = T([[1, 2], [3]]), T([[1, 3], [2]])
        step = SlideStep("reverse", frozenset({(2, 2)}))
        verdict = check_strong_dual_equivalence(a, b, [step], AmbientRectangle(2, 5))
        assert not verdict.equivalent
        assert verdict.divergence_stage == 1  # right after bullet placement

    def test_identical_tableaux(self):
        a = T([[1, 3], [2, 4]])
        ambient = AmbientRectangle(4, 8)
        assert exhaustive_equivalence(a, a, ambient, 2) is None

    def test_rectangles_random_mixed(self):
        rng = random.Random(404)
        shape = SkewShape.straight((2, 2))
        tableaux = list(enumerate_increasing(shape, range(1, 5)))
        ambient = AmbientRectangle(4, 8)
        for _ in range(100):
            a, b = rng.choice(tableaux), rng.choice(tableaux)
            verdict = random_equivalence_run(a, b, ambient, 4, rng)
            assert verdict.equivalent, (a, b)

    def test_divergence_found_only_after_a_slide(self):
        # every first step keeps this pair in step, so the search must carry
        # on from the slid pair to find the split
        a, b = T([[1, 2, 3], [3]]), T([[1, 2, 3], [4]])
        ambient = AmbientRectangle(4, 9)
        assert exhaustive_equivalence(a, b, ambient, 1) is None
        verdict = exhaustive_equivalence(a, b, ambient, 3)
        assert (verdict.equivalent, verdict.divergence_stage, verdict.stages_compared) == (False, 1, 2)

    def test_random_run_divergence_pinned(self):
        a, b = T([[1, 2, 3], [3]]), T([[1, 2, 3], [4]])
        verdict = random_equivalence_run(a, b, AmbientRectangle(4, 9), 4, random.Random(0))
        assert (verdict.equivalent, verdict.divergence_stage, verdict.stages_compared) == (False, 8, 7)

    def test_shape_mismatch_rejected(self):
        a, b, ambient = T([[1, 2]]), T([[1], [2]]), AmbientRectangle(3, 6)
        with pytest.raises(ShapeFitError):
            check_strong_dual_equivalence(a, b, [], ambient)
        with pytest.raises(ShapeFitError):
            exhaustive_equivalence(a, b, ambient, 1)
        with pytest.raises(ShapeFitError):
            random_equivalence_run(a, b, ambient, 1, random.Random(0))


class TestOriginInvariants:
    def test_empty_sequence_clean(self):
        t = T([[1, 2], [3, 4]])
        trace = switch_trace(t, [], AmbientRectangle(4, 8))
        report = verify_origin_invariants(trace)
        assert report.clean and report.stages_checked == 0

    def test_rectangle_reverse_clean(self):
        t = T([[1, 2, 3], [2, 3, 4]])
        ambient = AmbientRectangle(4, 9)
        steps = [
            SlideStep("reverse", frozenset({(1, 4)})),
            SlideStep("reverse", frozenset({(3, 1), (2, 4)})),
        ]
        report = verify_origin_invariants(switch_trace(t, steps, ambient))
        assert report.clean

    def test_notch_construction_violates(self):
        # a standard filling of a shape with an inside corner: the bullet's two
        # neighbors come from incomparable boxes, detected at placement
        rows = [[1, 2, 3, 4, 5], [6, 7, 8, 9], [10, 11], [12]]
        t = T(rows)
        ambient = AmbientRectangle(5, 11)
        step = SlideStep("reverse", frozenset({(3, 3)}))
        report = verify_origin_invariants(switch_trace(t, [step], ambient))
        assert not report.clean
        assert any(v.kind == "bullet-neighbors" for v in report.violations)


class TestSharpness:
    def test_seed_instance_exact(self):
        c = nonrect_counterexample((2, 1))
        assert c.nu == (3, 3, 2)
        assert c.tableau.cells == ((1, 3, 2), (2, 2, 1), (2, 3, 4), (3, 1, 1), (3, 2, 3))
        assert c.order1 == T([[1, 2], [3]])
        assert c.order2 == T([[1, 3], [2]])
        assert c.results == (T([[1, 2, 4], [3]]), T([[1, 2, 4], [3, 4]]))

    def test_spread_instance_exact(self):
        c = nonrect_counterexample((6, 6, 3, 1))
        assert c.nu == (7, 6, 5, 2, 1)
        assert c.tableau.cells == ((1, 7, 2), (3, 4, 1), (3, 5, 4), (4, 2, 3), (5, 1, 1))
        assert c.results[0] != c.results[1]

    def test_all_small_nonrectangles(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                if is_rectangle(lam):
                    continue
                c = nonrect_counterexample(lam)
                assert c.results[0] != c.results[1]
                assert len(c.nu) <= len(lam) + 1
                assert c.nu[0] <= lam[0] + 1

    def test_rectangle_rejected(self):
        with pytest.raises(ShapeFitError):
            nonrect_counterexample((2, 2))


class TestCountIndependence:
    def test_star_shape_table(self):
        from ktaquin.shapes import star

        report = check_count_independence(star((2,), (2, 1)), {1, 2, 3})
        assert report.total == 15
        assert len(report.groups) == 7
        assert report.uniform_within_alphabet
        counts = {shape: sorted(n for _, n in grp) for shape, grp in report.groups.items()}
        assert counts == {
            (2, 1): [1, 1, 1, 1, 1],
            (2, 1, 1): [1, 1],
            (2, 2): [1],
            (2, 2, 1): [1],
            (3, 1): [2, 2],
            (3, 1, 1): [1],
            (3, 2): [1],
        }

    def test_straight_shape_trivial(self):
        report = check_count_independence(SkewShape.straight((2, 1)), {1, 2, 3})
        assert report.uniform_within_alphabet
        assert all(n == 1 for grp in report.groups.values() for _, n in grp)

    def test_single_box_inner(self):
        report = check_count_independence(SkewShape((2, 2), (1,)), {1, 2, 3})
        assert report.uniform_within_alphabet

    def test_nonrectangular_inner_rejected(self):
        with pytest.raises(ShapeFitError):
            check_count_independence(SkewShape((3, 3, 2), (2, 1)), {1, 2})


class TestSuperstandardIndependence:
    def test_seed_tableau(self):
        t = IncreasingTableau(
            (3, 3, 2), (2, 1), ((1, 3, 2), (2, 2, 1), (2, 3, 4), (3, 1, 1), (3, 2, 3))
        )
        report = check_superstandard_independence(t)
        # results differ across orders, so none may be superstandard
        assert report.consistent
        assert not report.any_superstandard

    def test_contributing_tableau(self):
        # both boxes labeled 1 rectify to the one-box superstandard under all orders
        t = IncreasingTableau((2, 1), (1,), ((1, 2, 1), (2, 1, 1)))
        report = check_superstandard_independence(t)
        assert report.any_superstandard and report.consistent
        assert all(r == superstandard((1,)) for r in report.results)

    def test_straight_input(self):
        t = T([[1, 2], [2, 3]])
        report = check_superstandard_independence(t)
        assert report.consistent and len(set(report.results)) == 1
