"""Equivalence-lab checks: strong equivalence, origins, sharpness, independence."""

import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ktaquin.shapes import (
    AmbientRectangle,
    ShapeFitError,
    SkewShape,
    addable_corners,
    is_rectangle,
    partitions_of,
    removable_corners,
)
from ktaquin.tableaux import IncreasingTableau, enumerate_increasing, superstandard
from ktaquin.jdt import SlideStep, SwitchTrace, extend_trace, switch_trace
from ktaquin import equivalence, suites
from ktaquin.equivalence import (
    EquivalenceVerdict,
    _divergence,
    check_count_independence,
    check_strong_dual_equivalence,
    check_superstandard_independence,
    exhaustive_equivalence,
    nonrect_counterexample,
    random_equivalence_run,
    verify_origin_invariants,
)

from helpers import (
    random_increasing,
    random_skew,
    reference_first_divergence,
    reference_random_run,
    reference_verify_origin_invariants,
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
        # on from the slid pair to find the split; the stage counts the states
        # of the whole sequence, the first step's included
        a, b = T([[1, 2, 3], [3]]), T([[1, 2, 3], [4]])
        ambient = AmbientRectangle(4, 9)
        assert exhaustive_equivalence(a, b, ambient, 1) is None
        verdict = exhaustive_equivalence(a, b, ambient, 3)
        assert (verdict.equivalent, verdict.divergence_stage, verdict.stages_compared) == (False, 4, 5)

    def test_random_run_divergence_pinned(self):
        a, b = T([[1, 2, 3], [3]]), T([[1, 2, 3], [4]])
        verdict = random_equivalence_run(a, b, AmbientRectangle(4, 9), 4, random.Random(0))
        assert (verdict.equivalent, verdict.divergence_stage, verdict.stages_compared) == (False, 8, 9)

    def test_random_run_stops_when_the_shape_fills_the_ambient(self):
        # (2, 2) is the whole 2 x 2 ambient: no inner corner, no outer corner
        a, b = T([[1, 2], [3, 4]]), T([[1, 3], [2, 4]])
        verdict = random_equivalence_run(a, b, AmbientRectangle(2, 4), 3, random.Random(0))
        assert verdict == EquivalenceVerdict(True, None, 0)

    def test_a_trace_that_ends_first_diverges_at_its_length(self):
        # no pair of tableaux has been seen to reach this, so the shorter trace is cut by hand
        a = T([[1, 2], [3]])
        trace = switch_trace(a, [SlideStep("reverse", frozenset({(2, 2)}))], AmbientRectangle(2, 5))
        assert len(trace.states) > 1
        short = SwitchTrace(trace.start, trace.states[:1])
        assert _divergence(trace, short, 0) == EquivalenceVerdict(False, 1, 1)
        assert _divergence(short, trace, 0) == EquivalenceVerdict(False, 1, 1)

    def test_shape_mismatch_rejected(self):
        a, b, ambient = T([[1, 2]]), T([[1], [2]]), AmbientRectangle(3, 6)
        with pytest.raises(ShapeFitError):
            check_strong_dual_equivalence(a, b, [], ambient)
        with pytest.raises(ShapeFitError):
            exhaustive_equivalence(a, b, ambient, 1)
        with pytest.raises(ShapeFitError):
            random_equivalence_run(a, b, ambient, 1, random.Random(0))


@cache
def _pair_universe() -> tuple[tuple[IncreasingTableau, IncreasingTableau, AmbientRectangle], ...]:
    """Every pair of fillings over labels 1..4 of (2,1) and of (3,1), with the suite's ambient."""
    pairs = []
    for lam in ((2, 1), (3, 1)):
        c, d = len(lam), lam[0]
        ambient = AmbientRectangle(c + 2, c + d + 4)
        tableaux = list(enumerate_increasing(SkewShape.straight(lam), range(1, 5)))
        pairs.extend((a, b, ambient) for i, a in enumerate(tableaux) for b in tableaux[i + 1 :])
    return tuple(pairs)


class TestAgainstReferencePairWalks:
    """Walks that extend the pair's traces against sequences replayed in full."""

    def test_exhaustive_equals_the_preorder_replay(self):
        divergent = 0
        for a, b, ambient in _pair_universe():
            verdict = exhaustive_equivalence(a, b, ambient, 3)
            assert verdict == reference_first_divergence(a, b, ambient, 3)
            divergent += verdict is not None
        assert (len(_pair_universe()), divergent) == (146, 107)

    def test_random_runs_equal_the_reference(self):
        divergent = 0
        for seed, (a, b, ambient) in enumerate(_pair_universe()):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            verdict = random_equivalence_run(a, b, ambient, 4, rng)
            assert verdict == reference_random_run(a, b, ambient, 4, ref_rng)
            assert rng.random() == ref_rng.random()  # both drew the same steps
            divergent += not verdict.equivalent
        assert divergent == 41


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


@cache
def _origin_universe() -> tuple[tuple[SwitchTrace, SwitchTrace | None, SlideStep | None, AmbientRectangle], ...]:
    """Every node of the origin-invariants suite's walk, in its order.

    A node is (its trace replayed from the start tableau, its parent's trace,
    its step, the ambient); a root has no parent and no step.  The walk is the
    suite's: rectangles of at most 6 boxes over labels 1..4, reverse steps into
    every nonempty set of outer corners, depth 3.
    """
    nodes = []

    def walk(t, steps, trace, ambient, left):
        if left == 0:
            return
        corners = addable_corners(trace.final_tableau().outer, max_rows=ambient.rows, max_cols=ambient.cols)
        for mask in range(1, 1 << len(corners)):
            step = SlideStep("reverse", frozenset(b for i, b in enumerate(corners) if mask >> i & 1))
            child = switch_trace(t, steps + [step], ambient)
            nodes.append((child, trace, step, ambient))
            walk(t, steps + [step], child, ambient, left - 1)

    for c in range(1, 4):
        for d in range(1, 4):
            if c * d > 6:
                continue
            ambient = AmbientRectangle(c + 2, c + 2 + d + 2)
            for t in enumerate_increasing(SkewShape.straight((d,) * c), range(1, 5)):
                root = switch_trace(t, [], ambient)
                nodes.append((root, None, None, ambient))
                walk(t, [], root, ambient, 3)
    return tuple(nodes)


def _outcome(check, trace):
    try:
        return check(trace)
    except KeyError as exc:
        return KeyError, exc.args


def _corrupted(trace: SwitchTrace, rng: random.Random) -> SwitchTrace:
    """The trace with some origins moved, dropped or added, and some cells out of order."""
    states = []
    for state in trace.states:
        o = state.origins
        if o is not None:
            o = dict(o)
            boxes = sorted(o)
            roll = rng.random()
            if roll < 0.5:  # one box takes another box's origin, or a nearby box
                x = rng.choice(boxes)
                r, c = rng.choice([o[rng.choice(boxes)], (o[x][0] + 1, o[x][1]), (o[x][0], o[x][1] - 1)])
                o[x] = (r, c)
            elif roll < 0.7 and state.bullets:  # keys beside a bullet that are no numeric boxes
                r, c = min(state.bullets)
                o.setdefault((r - 1, c), (r, c + 1))
                o.setdefault((r, c - 1), (r + 1, c))
            elif roll < 0.75:  # a numeric box without an origin
                del o[rng.choice(boxes)]
        if rng.random() < 0.1:  # cells out of order, one repeated
            state = state._replace(cells=state.cells[::-1] + state.cells[:1])
        states.append(state._replace(origins=o))
    return SwitchTrace(trace.start, tuple(states))


class TestAgainstReferenceOriginCheck:
    """Extended traces and the origin check against full replays and the check they replaced."""

    def test_universe_is_the_suites(self):
        assert len(_origin_universe()) == 3896  # the count origin-invariants prints

    def test_extended_traces_equal_full_replays(self):
        for trace, parent, step, ambient in _origin_universe():
            if parent is not None:
                assert extend_trace(parent, [step], ambient) == trace

    def test_reports_equal_the_reference_on_the_universe(self):
        for trace, parent, _, _ in _origin_universe():
            report = verify_origin_invariants(trace)
            assert report == reference_verify_origin_invariants(trace)
            assert report.clean
            known = len(parent.states) if parent is not None else 0
            tail = verify_origin_invariants(trace, known)
            assert tail.clean and tail.stages_checked == len(trace.states) - known

    def test_reports_equal_the_reference_on_corrupted_origins(self):
        rng = random.Random(16)
        kinds = set()
        for trace, _, _, _ in _origin_universe()[::3]:
            bad = _corrupted(trace, rng)
            report = _outcome(verify_origin_invariants, bad)
            assert report == _outcome(reference_verify_origin_invariants, bad)
            if not isinstance(report, tuple):
                kinds.update(v.kind for v in report.violations)
        assert kinds == {"row-order", "column-order", "bullet-neighbors"}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_extended_mixed_traces_equal_full_replays(self, rng):
        t = random_increasing(rng, random_skew(rng, 9), slack=rng.randint(1, 3))
        ambient = AmbientRectangle(len(t.outer) + 2, len(t.outer) + t.outer[0] + 4)
        trace, steps = switch_trace(t, [], ambient), []
        for _ in range(rng.randint(1, 4)):
            outer, inner = trace.final_shape()
            forward = [SlideStep("forward", frozenset({b})) for b in removable_corners(inner)]
            reverse = [
                SlideStep("reverse", frozenset({b}))
                for b in addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols)
            ]
            if not forward + reverse:
                break
            step = rng.choice(forward + reverse)
            steps.append(step)
            trace = extend_trace(trace, [step], ambient)
            assert trace == switch_trace(t, steps, ambient)
            assert verify_origin_invariants(trace) == reference_verify_origin_invariants(trace)


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

    def test_a_faulty_rectification_is_caught(self, monkeypatch):
        # a rectification memo whose key leaves out a filling's last cell: the
        # fillings that differ only there all get the first one's target
        real = equivalence.krect
        memo = {}

        def stale(t, order=None):
            key = (t.outer, t.inner, t.cells[:-1])
            if key not in memo:
                memo[key] = real(t, order)
            return memo[key]

        monkeypatch.setattr(equivalence, "krect", stale)
        from ktaquin.shapes import star

        report = check_count_independence(star((2,), (2, 1)), {1, 2, 3})
        assert report.total == 15 and not report.uniform_within_alphabet
        result = suites.count_independence_suite()
        assert not result.ok
        assert result.details[0] == "(4, 3, 2)/(2, 2): 15 fillings, 6 target shapes"


class TestSuperstandardIndependence:
    def test_seed_tableau(self):
        t = IncreasingTableau(
            (3, 3, 2), (2, 1), ((1, 3, 2), (2, 2, 1), (2, 3, 4), (3, 1, 1), (3, 2, 3))
        )
        report = check_superstandard_independence(t)
        # results differ across orders, so none may be superstandard
        assert report.consistent
        assert not report.any_superstandard

    def test_inner_shape_of_more_than_five_boxes_is_refused(self):
        t = IncreasingTableau((4, 3), (3, 3), ((1, 4, 1),))
        with pytest.raises(ShapeFitError, match="inner shape too large to exhaust rectification orders"):
            check_superstandard_independence(t)

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
