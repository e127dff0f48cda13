"""Slide engine against the worked switch sequences and structural properties."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ktaquin.coefficients import _key, rect_tally
from ktaquin.shapes import (
    AmbientRectangle,
    ShapeFitError,
    SkewShape,
    addable_corners,
    psize,
    removable_corners,
)
from ktaquin.tableaux import IncreasingTableau, enumerate_increasing, superstandard
from ktaquin import jdt
from ktaquin.jdt import (
    InternalInvariantError,
    SlideStep,
    SlideStepError,
    _check_corner_groups,
    _run_switches,
    kinfusion,
    kjdt_slide,
    krect,
    rectification_orders,
    rev_kjdt_slide,
    rev_krect_in_ambient,
    switch_trace,
)

from helpers import (
    random_increasing,
    random_skew,
    reference_kinfusion,
    reference_slide,
    reference_trace,
)

T = IncreasingTableau.make


def tab(outer, inner, entries):
    return T(tuple(outer), tuple(inner), entries)


# The displayed four-state switch sequence: sliding this tableau into both
# inner corners walks the bullets southeast in three switches.
SWSEQ_START = tab(
    (4, 3, 2),
    (2, 1),
    {(1, 3): 1, (1, 4): 2, (2, 2): 2, (2, 3): 3, (3, 1): 2, (3, 2): 3},
)
SWSEQ_RESULT = tab(
    (3, 2, 1),
    (1,),
    {(1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 3, (3, 1): 3},
)

# The sharpness seed: two rectification orders of the inner (2,1) disagree.
SHARP_T = tab(
    (3, 3, 2),
    (2, 1),
    {(1, 3): 2, (2, 2): 1, (2, 3): 4, (3, 1): 1, (3, 2): 3},
)
ORDER_123 = tab((2, 1), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3})
ORDER_132 = tab((2, 1), (), {(1, 1): 1, (1, 2): 3, (2, 1): 2})
SHARP_OUT_A = tab((3, 1), (), {(1, 1): 1, (1, 2): 2, (1, 3): 4, (2, 1): 3})
SHARP_OUT_B = tab((3, 2), (), {(1, 1): 1, (1, 2): 2, (1, 3): 4, (2, 1): 3, (2, 2): 4})


class TestKjdtSlide:
    def test_displayed_switch_sequence(self):
        assert kjdt_slide(SWSEQ_START, {(1, 2), (2, 1)}) == SWSEQ_RESULT

    def test_single_switch(self):
        t = tab((2,), (1,), {(1, 2): 1})
        assert kjdt_slide(t, {(1, 1)}) == tab((1,), (), {(1, 1): 1})

    def test_label_duplication(self):
        t = tab((2, 2), (1,), {(1, 2): 1, (2, 1): 1, (2, 2): 2})
        assert kjdt_slide(t, {(1, 1)}) == tab((2, 1), (), {(1, 1): 1, (1, 2): 2, (2, 1): 2})

    def test_value_set_preserved(self):
        from ktaquin.shapes import removable_corners

        rng = random.Random(7)
        for _ in range(200):
            t = random_increasing(rng, random_skew(rng, 8))
            corners = removable_corners(t.inner)
            if not corners:
                continue
            out = kjdt_slide(t, corners)
            assert out.values == t.values

    def test_errors(self):
        with pytest.raises(ShapeFitError):
            kjdt_slide(SWSEQ_START, set())
        with pytest.raises(ShapeFitError):
            kjdt_slide(SWSEQ_START, {(1, 1)})  # not a corner of the inner shape


class TestRevKjdtSlide:
    def test_single_box(self):
        t = tab((1,), (), {(1, 1): 1})
        out = rev_kjdt_slide(t, {(1, 2)}, AmbientRectangle(1, 3))
        assert out == tab((2,), (1,), {(1, 2): 1})

    def test_round_trip_random(self):
        rng = random.Random(13)
        from ktaquin.shapes import boxes_of, removable_corners

        checked = 0
        for _ in range(400):
            t = random_increasing(rng, random_skew(rng, 9))
            corners = removable_corners(t.inner)
            if not corners:
                continue
            chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
            slid = kjdt_slide(t, chosen)
            vacated = frozenset(set(boxes_of(t.outer)) - set(boxes_of(slid.outer)))
            ambient = AmbientRectangle(len(t.outer) + 1, len(t.outer) + 1 + t.outer[0] + 1)
            back = rev_kjdt_slide(slid, vacated, ambient)
            assert back == t
            checked += 1
        assert checked >= 250


def _region_boxes(t):
    return SkewShape(t.outer, t.inner).boxes()


class TestKinfusion:
    def test_sharpness_first_order(self):
        first, _ = kinfusion(ORDER_123, SHARP_T)
        assert first == SHARP_OUT_A

    def test_sharpness_second_order(self):
        first, _ = kinfusion(ORDER_132, SHARP_T)
        assert first == SHARP_OUT_B

    def test_empty_inner(self):
        t = tab((2, 1), (), {(1, 1): 1, (1, 2): 3, (2, 1): 2})
        empty = superstandard(())
        assert kinfusion(empty, t) == (t, tab((2, 1), (2, 1), {}))

    def test_involution_random(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(400):
            t = random_increasing(rng, random_skew(rng, 9))
            if psize(t.inner) == 0 or psize(t.inner) > 6:
                continue
            order_pool = list(rectification_orders(t.inner))
            a = rng.choice(order_pool)
            c, w = kinfusion(a, t)
            a2, t2 = kinfusion(c, w)
            assert (a2, t2) == (a, t)
            checked += 1
        assert checked >= 150


class TestKrect:
    def test_order_dependence_of_seed(self):
        assert krect(SHARP_T, ORDER_123) == SHARP_OUT_A
        assert krect(SHARP_T, ORDER_132) == SHARP_OUT_B

    def test_straight_fixed_point(self):
        t = tab((3, 1), (), {(1, 1): 1, (1, 2): 2, (1, 3): 4, (2, 1): 3})
        assert krect(t) == t

    def test_default_order_is_superstandard(self):
        assert krect(SHARP_T) == krect(SHARP_T, superstandard((2, 1)))

    def test_rectangular_inner_well_defined_small(self):
        # every order gives one answer once the inner shape is a rectangle
        shape = SkewShape((4, 2, 1), (2,))
        for t in enumerate_increasing(shape, range(1, 4)):
            results = {krect(t, order) for order in rectification_orders((2,))}
            assert len(results) == 1

    def test_group_display_member(self):
        t = tab((4, 2, 1), (2,), {(1, 3): 1, (1, 4): 2, (2, 1): 1, (2, 2): 3, (3, 1): 2})
        assert krect(t) == tab((2, 2), (), {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 3})

    def test_value_set_preserved(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_increasing(rng, random_skew(rng, 8))
            assert krect(t).values == t.values

    def test_order_shape_mismatch(self):
        with pytest.raises(ShapeFitError):
            krect(SHARP_T, superstandard((2,)))


class TestRotationConjugation:
    def _rotate(self, t, ambient, span):
        from ktaquin.shapes import dual_in_rectangle

        cells = tuple(
            (ambient.rows + 1 - r, ambient.cols + 1 - c, span + 1 - v) for r, c, v in t.cells
        )
        return IncreasingTableau(
            dual_in_rectangle(t.inner, ambient), dual_in_rectangle(t.outer, ambient), cells
        )

    def test_reverse_is_rotated_forward(self):
        rng = random.Random(23)
        from ktaquin.shapes import addable_corners

        checked = 0
        for _ in range(300):
            t = random_increasing(rng, random_skew(rng, 8))
            ambient = AmbientRectangle(len(t.outer) + 1, len(t.outer) + 2 + t.outer[0])
            corners = addable_corners(t.outer, max_rows=ambient.rows, max_cols=ambient.cols)
            if not corners:
                continue
            chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
            direct = rev_kjdt_slide(t, chosen, ambient)
            span = t.max_entry
            rotated = self._rotate(t, ambient, span)
            rotated_corners = {
                (ambient.rows + 1 - r, ambient.cols + 1 - c) for r, c in chosen
            }
            via_rotation = self._rotate(kjdt_slide(rotated, rotated_corners), ambient, span)
            assert direct.outer == via_rotation.outer
            assert direct.inner == via_rotation.inner
            assert direct.cells == via_rotation.cells
            checked += 1
        assert checked >= 200


class TestUniformityFromRectangles:
    def test_reverse_traces_uniform(self):
        rng = random.Random(77)
        from ktaquin.shapes import addable_corners

        shape = SkewShape.straight((3, 3))
        ambient = AmbientRectangle(4, 9)
        for t in enumerate_increasing(shape, range(1, 5)):
            current = t
            steps = []
            for _ in range(rng.randint(1, 3)):
                corners = addable_corners(
                    current.outer, max_rows=ambient.rows, max_cols=ambient.cols
                )
                chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
                steps.append(SlideStep("reverse", chosen))
                current = rev_kjdt_slide(current, chosen, ambient)
            trace = switch_trace(t, steps, ambient)
            assert all(trace.uniform_flags)


class TestRectangularWellDefined:
    def test_broad_sweep(self):
        # inner rectangles up to 2x3, shapes up to 8 boxes, entries up to 4
        from ktaquin.shapes import contains, partitions_of, psize

        checked = 0
        for c, d in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
            rect = (d,) * c
            orders = list(
                enumerate_increasing(SkewShape.straight(rect), range(1, c * d + 2))
            )
            for n in range(c * d + 1, 9):
                for nu in partitions_of(n):
                    if not contains(nu, rect):
                        continue
                    for t in enumerate_increasing(SkewShape(nu, rect), range(1, 5)):
                        assert len({krect(t, order) for order in orders}) == 1
                        checked += 1
        assert checked > 1500


class TestRectificationOrders:
    def test_small_inner(self):
        orders = list(rectification_orders((2, 1)))
        assert orders[0] == superstandard((2, 1))
        assert len(orders) == 3  # [1,2/3], [1,3/2], [1,2/2]

    def test_empty(self):
        assert list(rectification_orders(())) == [superstandard(())]


class TestSwitchTrace:
    def test_displayed_four_states(self):
        ambient = AmbientRectangle(3, 7)
        trace = switch_trace(
            SWSEQ_START, [SlideStep("forward", frozenset({(1, 2), (2, 1)}))], ambient
        )
        assert len(trace.states) == 4
        bullets = [state.bullets for state in trace.states]
        assert bullets[0] == frozenset({(1, 2), (2, 1)})
        assert bullets[1] == frozenset({(1, 3), (2, 1)})
        assert bullets[2] == frozenset({(1, 4), (2, 2), (3, 1)})
        assert bullets[3] == frozenset({(1, 4), (2, 3), (3, 2)})
        # the second switch merges labels from two different boxes of origin,
        # so origins stop being well defined from that point on
        assert trace.uniform_flags == (True, True, False, False)
        assert trace.final_tableau() == SWSEQ_RESULT

    def test_rev_slide_divergent_configurations(self):
        # same shape, one reverse slide, different resulting bullet tracks
        ambient = AmbientRectangle(2, 4)
        a = tab((2, 1), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3})
        b = tab((2, 1), (), {(1, 1): 1, (1, 2): 3, (2, 1): 2})
        step = SlideStep("reverse", frozenset({(2, 2)}))
        ta = switch_trace(a, [step], ambient)
        tb = switch_trace(b, [step], ambient)
        assert ta.states[1].configuration() != tb.states[1].configuration()

    def test_invalid_step_reports_index(self):
        ambient = AmbientRectangle(3, 7)
        steps = [
            SlideStep("forward", frozenset({(1, 2), (2, 1)})),
            SlideStep("forward", frozenset({(3, 3)})),
        ]
        with pytest.raises(SlideStepError) as err:
            switch_trace(SWSEQ_START, steps, ambient)
        assert err.value.index == 1


class TestRevKrectInAmbient:
    def test_single_box(self):
        t = tab((1,), (), {(1, 1): 1})
        out, anchor = rev_krect_in_ambient(t, AmbientRectangle(1, 2))
        assert anchor == (1, 1)
        assert out.cells == ((1, 1, 1),)

    def test_two_by_two_in_three(self):
        for entries in ({(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4},
                        {(1, 1): 1, (1, 2): 3, (2, 1): 2, (2, 2): 4}):
            t = tab((2, 2), (), entries)
            out, anchor = rev_krect_in_ambient(t, AmbientRectangle(3, 6))
            assert anchor == (2, 2)
            assert out.outer == (3, 3, 3)
            assert out.inner == (3, 1, 1)

    def test_rectangle_lands_southeast(self):
        t = tab((2, 2), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
        out, anchor = rev_krect_in_ambient(t, AmbientRectangle(2, 5))
        assert anchor == (1, 2)
        assert out.inner == (1, 1)

    def test_non_rectangle_rejected(self):
        t = tab((2, 1), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3})
        with pytest.raises(ShapeFitError):
            rev_krect_in_ambient(t, AmbientRectangle(3, 6))


class TestKernelInvariants:
    """The kernel refuses every state the theory forbids, in either direction."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_adjacent_bullets(self, reverse):
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            _run_switches({(1, 3): 1}, {(1, 1), (1, 2)}, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_adjacent_equal_labels(self, reverse):
        with pytest.raises(InternalInvariantError, match="adjacent equal labels"):
            _run_switches({(1, 2): 1, (1, 3): 1}, {(1, 1)}, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_by_two_block(self, reverse):
        with pytest.raises(InternalInvariantError, match="2x2 block"):
            _run_switches({(1, 2): 1, (2, 1): 1}, {(1, 1), (2, 2)}, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_three_ribbon_boxes_in_a_row(self, reverse):
        with pytest.raises(InternalInvariantError, match="two boxes in a row or column"):
            _run_switches({(1, 2): 1}, {(1, 1), (1, 3)}, reverse)

    def test_three_ribbon_boxes_in_a_column(self):
        with pytest.raises(InternalInvariantError, match="two boxes in a row or column"):
            _run_switches({(2, 1): 1}, {(1, 1), (3, 1)}, False)

    def test_legal_duplication_passes(self):
        # one bullet, two neighbours of the same label: a short ribbon of three
        entries = {(1, 2): 1, (2, 1): 1, (2, 2): 2}
        bullets = _run_switches(entries, {(1, 1)}, False)
        assert entries == {(1, 1): 1, (1, 2): 2, (2, 1): 2}
        assert bullets == {(2, 2)}

    def test_labels_touching_no_bullet_are_skipped(self):
        stages = []
        entries = {(1, 2): 1, (1, 3): 5, (2, 1): 3, (3, 1): 4}
        _run_switches(entries, {(1, 1)}, False, lambda label, *_: stages.append(label))
        assert stages == [None, 1, 5]


class TestOrderCheck:
    """An order is checked once before any filling slides; the kernel still guards each slide."""

    # skew tableau of inner shape (2,), and orders of that shape that no
    # IncreasingTableau would accept
    T = tab((3, 1), (2,), {(1, 3): 1, (2, 1): 2})
    NOT_CORNERS = SimpleNamespace(outer=(2,), inner=(), cells=((1, 1, 2), (1, 2, 1)))
    ADJACENT = SimpleNamespace(outer=(2,), inner=(), cells=((1, 1, 1), (1, 2, 1)))

    def test_check_walks_the_inner_shapes(self):
        groups = [frozenset({(2, 1), (1, 2)}), frozenset({(1, 1)})]
        assert _check_corner_groups((2, 1), groups) == ()
        with pytest.raises(ShapeFitError, match="nonempty"):
            _check_corner_groups((2, 1), [frozenset()])
        with pytest.raises(ShapeFitError, match=r"\[\(1, 1\)\] are not inner corners of \(2, 1\)"):
            _check_corner_groups((2, 1), [frozenset({(1, 1)})])

    def test_krect_rejects_a_group_that_is_not_a_corner_set(self):
        with pytest.raises(ShapeFitError, match="not inner corners of"):
            krect(self.T, self.NOT_CORNERS)

    def test_kinfusion_rejects_a_group_that_is_not_a_corner_set(self):
        with pytest.raises(ShapeFitError, match="not inner corners of"):
            kinfusion(self.NOT_CORNERS, self.T)

    def test_krect_kernel_refuses_adjacent_bullets(self, monkeypatch):
        # the order check would refuse this group first; without it the
        # kernel's own test on the placed bullets must still fire
        monkeypatch.setattr(jdt, "_check_corner_groups", lambda inner, groups: ())
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            krect(self.T, self.ADJACENT)

    def test_kinfusion_kernel_refuses_adjacent_bullets(self, monkeypatch):
        monkeypatch.setattr(jdt, "_check_corner_groups", lambda inner, groups: ())
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            kinfusion(self.ADJACENT, self.T)

    def test_adjacent_group_is_refused_by_the_check(self):
        with pytest.raises(ShapeFitError):
            krect(self.T, self.ADJACENT)


def _random_tableau(rng):
    return random_increasing(rng, random_skew(rng, 9), slack=rng.randint(1, 3))


def _subset(rng, boxes):
    return frozenset(rng.sample(boxes, rng.randint(1, len(boxes))))


def _ambient(t):
    return AmbientRectangle(len(t.outer) + 2, len(t.outer) + t.outer[0] + 4)


class TestAgainstReferenceKernel:
    """The local rule against the component-search switch it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_slides(self, rng):
        t = _random_tableau(rng)
        if t.inner:
            corners = _subset(rng, removable_corners(t.inner))
            assert kjdt_slide(t, corners) == reference_slide(t, corners)
        ambient = _ambient(t)
        corners = _subset(rng, addable_corners(t.outer, max_rows=ambient.rows, max_cols=ambient.cols))
        assert rev_kjdt_slide(t, corners, ambient) == reference_slide(t, corners, "reverse")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_kinfusion(self, rng):
        t = _random_tableau(rng)
        order = random_increasing(rng, SkewShape.straight(t.inner), slack=rng.randint(1, 2))
        assert kinfusion(order, t) == reference_kinfusion(order, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_switch_trace(self, rng):
        t = _random_tableau(rng)
        ambient = _ambient(t)
        steps, current = [], t
        for _ in range(rng.randint(1, 3)):
            inner_corners = removable_corners(current.inner)
            outer_corners = addable_corners(current.outer, max_rows=ambient.rows, max_cols=ambient.cols)
            if inner_corners and (not outer_corners or rng.random() < 0.5):
                step = SlideStep("forward", _subset(rng, inner_corners))
            elif outer_corners:
                step = SlideStep("reverse", _subset(rng, outer_corners))
            else:
                break
            steps.append(step)
            current = reference_slide(current, step.corners, step.direction)
        trace = switch_trace(t, steps, ambient)
        states, flags, origins = reference_trace(t, steps)
        assert [
            (s.outer, s.inner, s.cells, s.bullets, s.stage, s.direction) for s in trace.states
        ] == states
        assert list(trace.uniform_flags) == flags
        assert list(trace.origins) == origins
        assert trace.final_tableau() == current

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_rect_tally_histogram(self, rng):
        shape = random_skew(rng, 6)
        size = psize(shape.outer) - psize(shape.inner)
        alphabet = frozenset(range(1, rng.randint(1, size) + 1))
        order = superstandard(shape.inner)
        expected = Counter(
            _key(reference_kinfusion(order, t)[0])
            for t in enumerate_increasing(shape, alphabet, surjective=True)
        )
        assert rect_tally(shape.outer, shape.inner, alphabet) == dict(expected)
