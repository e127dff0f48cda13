"""Slide engine against the worked switch sequences and structural properties."""

import dataclasses
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ktaquin.coefficients import rect_tally
from ktaquin.shapes import (
    AmbientRectangle,
    ShapeFitError,
    SkewShape,
    addable_corners,
    psize,
    removable_corners,
)
from ktaquin.tableaux import IncreasingTableau, TableauError, enumerate_increasing, superstandard
from ktaquin import jdt
from ktaquin.jdt import (
    InternalInvariantError,
    SlideStep,
    SlideStepError,
    SwitchState,
    SwitchTrace,
    _check_corners,
    _check_ribbons,
    _run_switches,
    _slide,
    _switch_class,
    extend_trace,
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
    reference_check_ribbons,
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

    @pytest.mark.parametrize(
        "corner, ambient",
        [((2, 2), AmbientRectangle(2, 4)), ((1, 2), AmbientRectangle(2, 3))],
        ids=["not-addable", "outside-ambient"],
    )
    def test_illegal_corner_raises_on_both_checked_paths(self, corner, ambient):
        t = tab((1,), (), {(1, 1): 1})
        message = f"[{corner}] are not outer corners of (1,) in the ambient"
        with pytest.raises(ShapeFitError) as err:
            rev_kjdt_slide(t, {corner}, ambient)
        assert str(err.value) == message
        with pytest.raises(SlideStepError) as err:
            switch_trace(t, [SlideStep("reverse", frozenset({corner}))], ambient)
        assert str(err.value) == f"step 0: {message}"

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

    def test_mismatched_shapes_are_refused(self):
        b = tab((2, 1), (2,), {(2, 1): 1})
        with pytest.raises(ShapeFitError) as err:
            kinfusion(superstandard((1,)), b)
        assert str(err.value) == "inner shape of second tableau (2,) must equal outer of first (1,)"

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
            span = max(t.values, default=0)
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
            assert all(state.origins is not None for state in trace.states)


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
                if rect in ((1,), (2,), (2, 2)) and n <= 7:
                    continue  # acceptance criterion 5 checks these 1451 fillings
                for nu in partitions_of(n):
                    if not contains(nu, rect):
                        continue
                    for t in enumerate_increasing(SkewShape(nu, rect), range(1, 5)):
                        assert len({krect(t, order) for order in orders}) == 1
                        checked += 1
        assert checked == 1646


class TestRectificationOrders:
    def test_small_inner(self):
        orders = list(rectification_orders((2, 1)))
        assert orders[0] == superstandard((2, 1))
        assert len(orders) == 3  # [1,2/3], [1,3/2], [1,2/2]

    def test_empty(self):
        assert list(rectification_orders(())) == [superstandard(())]


class TestSlideStep:
    def test_bad_direction_is_refused(self):
        with pytest.raises(ValueError, match="direction must be forward or reverse, got 'sideways'"):
            SlideStep("sideways", {(1, 1)})

    def test_empty_corners_are_refused(self):
        with pytest.raises(ValueError, match="corner set must be nonempty"):
            SlideStep("forward", ())


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
        assert [state.origins is not None for state in trace.states] == [True, True, False, False]
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

    @pytest.mark.parametrize("label", [True, "2"], ids=["bool", "str"])
    def test_hand_built_trace_is_checked_at_the_door(self, label):
        state = SwitchState((1,), (), ((1, 1, label),), frozenset(), None, "forward", None)
        trace = SwitchTrace(tab((1,), (), {(1, 1): 1}), (state,))
        with pytest.raises(TableauError) as err:
            trace.final_tableau()
        assert str(err.value) == f"entry at (1, 1) must be a positive integer, got {label!r}"

    def test_hand_built_trace_is_checked_before_it_is_extended(self):
        # the kernel would compare the str label with an int and raise a bare TypeError
        state = SwitchState((2,), (1,), ((1, 2, "2"),), frozenset(), None, "forward", None)
        trace = SwitchTrace(tab((2,), (1,), {(1, 2): 2}), (state,))
        step = SlideStep("forward", frozenset({(1, 1)}))
        with pytest.raises(TableauError) as err:
            extend_trace(trace, [step], AmbientRectangle(2, 4))
        assert str(err.value) == "entry at (1, 2) must be a positive integer, got '2'"

    STEPS = [SlideStep("forward", frozenset({(1, 2), (2, 1)})), SlideStep("forward", frozenset({(1, 1)}))]

    def test_a_kernel_made_trace_resumes_without_a_build(self, monkeypatch):
        ambient = AmbientRectangle(3, 7)
        whole = switch_trace(SWSEQ_START, self.STEPS, ambient)
        first = switch_trace(SWSEQ_START, self.STEPS[:1], ambient)

        def unreachable(self):
            raise AssertionError("a kernel-made trace was rebuilt through the public constructor")

        monkeypatch.setattr(SwitchTrace, "final_tableau", unreachable)
        assert extend_trace(first, self.STEPS[1:], ambient) == whole

    def test_a_kernel_made_trace_builds_its_final_tableau_as_a_kernel_output(self, monkeypatch):
        trace = switch_trace(SWSEQ_START, self.STEPS[:1], AmbientRectangle(3, 7))
        expected = kjdt_slide(SWSEQ_START, self.STEPS[0].corners)
        checked = []
        real_check = IncreasingTableau._check

        def check(self, entries):
            checked.append(dict(entries))
            real_check(self, entries)

        def unreachable(self):
            raise AssertionError("a kernel-made trace was rebuilt through the public constructor")

        monkeypatch.setattr(IncreasingTableau, "__post_init__", unreachable)
        monkeypatch.setattr(IncreasingTableau, "_check", check)
        assert trace.final_tableau() == expected
        # the theorem's check still runs, once, on the last state's entries
        assert checked == [expected.entries]

    @pytest.mark.parametrize("copy", ["by hand", "replace"])
    def test_a_copy_of_a_kernel_made_trace_goes_through_the_door(self, copy):
        ambient = AmbientRectangle(3, 7)
        trace = switch_trace(SWSEQ_START, self.STEPS[:1], ambient)
        last = trace.states[-1]
        bad = last._replace(cells=tuple((r, c, "2" if (r, c) == last.cells[0][:2] else v) for r, c, v in last.cells))
        states = trace.states[:-1] + (bad,)
        if copy == "by hand":
            forged = SwitchTrace(trace.start, states)
        else:
            forged = dataclasses.replace(trace, states=states)
        with pytest.raises(TableauError, match="must be a positive integer, got '2'"):
            extend_trace(forged, self.STEPS[1:], ambient)
        with pytest.raises(TableauError, match="must be a positive integer, got '2'"):
            forged.final_tableau()
        # the same trace, unforged and copied, still extends
        assert extend_trace(dataclasses.replace(trace), self.STEPS[1:], ambient) == switch_trace(
            SWSEQ_START, self.STEPS, ambient
        )


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
        with pytest.raises(ShapeFitError, match=r"^input shape \(2, 1\) is not a rectangle$"):
            rev_krect_in_ambient(t, AmbientRectangle(3, 6))

    def test_skew_rejected(self):
        t = tab((2,), (1,), {(1, 2): 1})
        with pytest.raises(ShapeFitError, match="input must be a straight tableau"):
            rev_krect_in_ambient(t, AmbientRectangle(2, 4))

    def test_equals_the_slide_by_slide_chain(self):
        """Every filling over 1..6 of every c x d rectangle, c, d <= 3, with 0-2 spare rows and columns."""
        for c in range(1, 4):
            for d in range(1, 4):
                fillings = list(enumerate_increasing(SkewShape.straight((d,) * c), range(1, 7)))
                assert fillings
                for rows in range(c, c + 3):
                    for cols in range(d, d + 3):
                        ambient = AmbientRectangle(rows, rows + cols)
                        for t in fillings:
                            current = t
                            while corners := addable_corners(current.outer, max_rows=rows, max_cols=cols):
                                current = rev_kjdt_slide(current, corners, ambient)
                            # the northwest box of the block the filling landed on
                            anchor = min(r for r, _, _ in current.cells), min(col for _, col, _ in current.cells)
                            assert rev_krect_in_ambient(t, ambient) == (current, anchor)


class TestBuildsPerCall:
    """Each public slide call builds one validated tableau per output."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = IncreasingTableau._check

        def counted(self, entries):
            calls.append(self)
            return check(self, entries)

        monkeypatch.setattr(IncreasingTableau, "_check", counted)
        return calls

    def test_reverse_rectification_builds_once(self, checks):
        t = tab((2, 2), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
        checks.clear()
        out, _ = rev_krect_in_ambient(t, AmbientRectangle(4, 8))
        assert checks == [out]

    def test_kinfusion_builds_twice(self, checks):
        checks.clear()
        pair = kinfusion(ORDER_123, SHARP_T)
        assert checks == list(pair)


class TestKernelOutputConstructor:
    """The kernel's constructor skips normalisation and type checks; every theorem check still runs."""

    build = staticmethod(IncreasingTableau._from_kernel)

    def test_builds_what_the_public_constructor_builds(self):
        entries = {(2, 1): 3, (1, 2): 2, (1, 3): 4}
        assert self.build((3, 1), (1,), dict(entries)) == T((3, 1), (1,), entries)

    @pytest.mark.parametrize(
        "outer, inner, entries",
        [
            ((2,), (), {(1, 1): 2, (1, 2): 1}),
            ((2, 2), (), {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 3}),
            ((2,), (), {(1, 1): 1, (2, 1): 2}),
            ((2,), (1,), {(1, 1): 1, (1, 2): 2}),
            ((2,), (), {(1, 1): 1}),
        ],
        ids=["row-decrease", "column-tie", "off-region", "inside-inner", "region-not-filled"],
    )
    def test_refuses_a_bad_filling(self, outer, inner, entries):
        with pytest.raises(TableauError):
            self.build(outer, inner, entries)

    def test_refuses_inner_outside_outer(self):
        with pytest.raises(ShapeFitError):
            self.build((1,), (2,), {})


class TestKernelInvariants:
    """The kernel refuses every state the theory forbids, in either direction."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_adjacent_bullets(self, reverse):
        # every slide checks its bullets apart before the stage loop, which does not
        entries = {(1, 3): 1}
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            _slide(entries, (2,), (3,), {(1, 1), (1, 2)}, reverse)
        assert entries == {(1, 3): 1}

    def test_a_switched_class_is_checked_apart(self, monkeypatch):
        # a switch never makes two bullets adjacent; were it to, the class would be refused
        monkeypatch.setattr(jdt, "_run_switches", lambda entries, bullets, reverse: {(1, 1), (1, 2)})
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            _switch_class({(1, 2): 1}, frozenset({(1, 1)}))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_adjacent_equal_labels(self, reverse):
        with pytest.raises(InternalInvariantError, match="adjacent equal labels"):
            _run_switches({(1, 2): 1, (1, 3): 1}, {(1, 1)}, reverse)
        # a stage of two pairs, with no block or ribbon, whose freed (1, 2) is next to a 1
        with pytest.raises(InternalInvariantError, match=r"adjacent equal labels at \(1, 2\), \(1, 3\)"):
            _run_switches({(1, 2): 1, (3, 2): 1, (1, 3): 1}, {(1, 1), (3, 1)}, reverse)

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
    """Each corner group is checked when it is reached; the kernel still guards each slide."""

    # skew tableau of inner shape (2,), and orders of that shape that no
    # IncreasingTableau would accept
    T = tab((3, 1), (2,), {(1, 3): 1, (2, 1): 2})
    NOT_CORNERS = SimpleNamespace(outer=(2,), inner=(), cells=((1, 1, 2), (1, 2, 1)))
    ADJACENT = SimpleNamespace(outer=(2,), inner=(), cells=((1, 1, 1), (1, 2, 1)))

    def test_check_walks_the_inner_shapes(self):
        # the groups of an order of (2, 1), each checked against the inner shape it meets
        _check_corners((2, 1), (3, 2), frozenset({(2, 1), (1, 2)}), False)
        _check_corners((1,), (3, 2), frozenset({(1, 1)}), False)
        with pytest.raises(ShapeFitError, match="nonempty"):
            _check_corners((2, 1), (3, 2), frozenset(), False)
        with pytest.raises(ShapeFitError, match=r"\[\(1, 1\)\] are not inner corners of \(2, 1\)"):
            _check_corners((2, 1), (3, 2), frozenset({(1, 1)}), False)

    def test_check_of_outer_corners_in_the_ambient(self):
        ambient = AmbientRectangle(2, 5)
        _check_corners((1,), (2, 1), frozenset({(1, 3), (2, 2)}), True, ambient)
        with pytest.raises(ShapeFitError, match="nonempty"):
            _check_corners((1,), (2, 1), frozenset(), True, ambient)
        with pytest.raises(ShapeFitError, match=r"\[\(3, 1\)\] are not outer corners of \(2, 1\) in the ambient"):
            _check_corners((1,), (2, 1), frozenset({(3, 1)}), True, ambient)

    def test_krect_refuses_a_later_group_and_leaves_t_unchanged(self):
        # the first group {(1, 2)} is a corner set of (2, 1); the second, {(1, 1), (2, 1)}, is
        # not one of what is left, (1, 1), so the check fires only after one slide has run
        t = tab((3, 3, 1), (2, 1), {(1, 3): 1, (2, 2): 1, (2, 3): 2, (3, 1): 2})
        order = SimpleNamespace(outer=(2, 1), inner=(), cells=((1, 1, 1), (1, 2, 2), (2, 1, 1)))
        cells = t.cells
        with pytest.raises(ShapeFitError, match=r"\[\(1, 1\)\] are not inner corners of \(1, 1\)"):
            krect(t, order)
        assert t.cells == cells and t.entries == dict(((r, c), v) for r, c, v in cells)

    def test_krect_rejects_a_group_that_is_not_a_corner_set(self):
        with pytest.raises(ShapeFitError, match="not inner corners of"):
            krect(self.T, self.NOT_CORNERS)

    def test_kinfusion_rejects_a_group_that_is_not_a_corner_set(self):
        with pytest.raises(ShapeFitError, match="not inner corners of"):
            kinfusion(self.NOT_CORNERS, self.T)

    def test_krect_kernel_refuses_adjacent_bullets(self, monkeypatch):
        # the order check would refuse this group first; without it the
        # kernel's own test on the placed bullets must still fire
        monkeypatch.setattr(jdt, "_check_corners", lambda *args: None)
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            krect(self.T, self.ADJACENT)

    def test_kinfusion_kernel_refuses_adjacent_bullets(self, monkeypatch):
        monkeypatch.setattr(jdt, "_check_corners", lambda *args: None)
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            kinfusion(self.ADJACENT, self.T)

    def test_adjacent_group_is_refused_by_the_check(self):
        with pytest.raises(ShapeFitError):
            krect(self.T, self.ADJACENT)

    STRAIGHT = tab((2, 1), (), {(1, 1): 1, (1, 2): 2, (2, 1): 3})
    ENTRIES = {
        "kjdt_slide": lambda self: kjdt_slide(self.T, {(1, 1), (1, 2)}),
        "rev_kjdt_slide": lambda self: rev_kjdt_slide(self.STRAIGHT, {(2, 2), (2, 3)}, AmbientRectangle(3, 6)),
        "switch_trace": lambda self: switch_trace(
            self.T, [SlideStep("forward", frozenset({(1, 1), (1, 2)}))], AmbientRectangle(3, 6)
        ),
        "extend_trace": lambda self: extend_trace(
            switch_trace(self.T, [SlideStep("forward", frozenset({(1, 2)}))], AmbientRectangle(3, 6)),
            [SlideStep("forward", frozenset({(1, 1), (1, 2)}))],
            AmbientRectangle(3, 6),
        ),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_every_slide_entry_kernel_refuses_adjacent_bullets(self, monkeypatch, entry):
        # the bullets of every slide enter the kernel unchecked by it, so it checks them
        monkeypatch.setattr(jdt, "_check_corners", lambda *args: None)
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            self.ENTRIES[entry](self)

    def test_reverse_rectification_kernel_refuses_adjacent_bullets(self, monkeypatch):
        # its corners skip the corner check; were they ever adjacent, the kernel would refuse them
        monkeypatch.setattr(jdt, "addable_corners", lambda *args, **kwargs: [(1, 2), (1, 3)])
        with pytest.raises(InternalInvariantError, match="adjacent bullets"):
            rev_krect_in_ambient(tab((1,), (), {(1, 1): 1}), AmbientRectangle(2, 4))

    def test_bullets_checked_apart_before_are_not_checked_again(self):
        # the stage loop checks no bullets apart: ``_slide`` checks the corners
        # and ``_switch_class`` the class each label step makes
        assert _run_switches({(1, 3): 1}, {(1, 1), (1, 2)}, False) == {(1, 1), (1, 3)}


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
        assert [state.origins is not None for state in trace.states] == flags
        assert [state.origins for state in trace.states] == origins
        assert trace.final_tableau() == current

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_rect_tally_histogram(self, rng):
        shape = random_skew(rng, 6)
        size = psize(shape.outer) - psize(shape.inner)
        m = rng.randint(1, size)
        order = superstandard(shape.inner)
        results = (
            reference_kinfusion(order, t)[0]
            for t in enumerate_increasing(shape, range(1, m + 1), surjective=True)
        )
        expected = Counter(u.outer for u in results if u == superstandard(u.outer))
        assert rect_tally(shape.outer, shape.inner, m) == dict(expected)


GRID = [(r, c) for r in range(1, 6) for c in range(1, 6)]


def _random_stage(rng):
    """Label boxes and bullets of one stage in a 5x5 grid, no two bullets adjacent."""
    bullets = []
    for box in rng.sample(GRID, rng.randint(1, 6)):
        if all(abs(box[0] - b[0]) + abs(box[1] - b[1]) > 1 for b in bullets):
            bullets.append(box)
    density = rng.random()
    return [x for x in GRID if x not in bullets and rng.random() < density], bullets


def _all_stages(rows, cols):
    """Every stage of a rows x cols grid: any non-adjacent bullets, any label boxes."""
    grid = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for bits in range(1 << len(grid)):
        bullets = [x for i, x in enumerate(grid) if bits >> i & 1]
        if any((r, c + 1) in bullets or (r + 1, c) in bullets for r, c in bullets):
            continue
        rest = [x for x in grid if x not in bullets]
        for labels in range(1 << len(rest)):
            yield [x for i, x in enumerate(rest) if labels >> i & 1], bullets


def _stage_errors(stages):
    """The first InternalInvariantError message of each stage of label 1, or None.

    Every label is 1, so the slide runs that one stage and no other.
    """
    errors = []
    for labels, bullets in stages:
        entries = dict.fromkeys(labels, 1)
        try:
            jdt._run_switches(entries, set(bullets), False)
        except InternalInvariantError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    return errors


def _against_reference(stages, monkeypatch):
    """Assert that every stage raises as it does with the reference ribbon check; count the verdicts."""
    errors = _stage_errors(stages)
    monkeypatch.setattr(jdt, "_check_ribbons", lambda moves, freed: reference_check_ribbons(moves))
    for stage, ours, reference in zip(stages, errors, _stage_errors(stages), strict=True):
        assert ours == reference, stage
    return Counter(errors)


RIBBON = "ribbon has more than two boxes in a row or column"


def _raises(check, *args):
    try:
        check(*args)
    except InternalInvariantError:
        return True
    return False


class TestAgainstReferenceChecks:
    """The kernel's checks against the versions they replaced, on the same inputs."""

    def test_ribbon_check_on_random_move_maps(self, monkeypatch):
        rng = random.Random(16)
        verdicts = _against_reference([_random_stage(rng) for _ in range(3000)], monkeypatch)
        # both verdicts are met often, so neither side passes vacuously
        assert min(verdicts[RIBBON], verdicts[None]) > 500, verdicts

    def test_ribbon_check_on_every_3x3_stage(self, monkeypatch):
        verdicts = _against_reference(list(_all_stages(3, 3)), monkeypatch)
        assert sum(verdicts.values()) == 7504
        assert (verdicts[RIBBON], verdicts[None]) == (1942, 2236)

    def test_ribbon_check_on_slide_stages(self):
        rng = random.Random(17)
        shared = 0
        for _ in range(300):
            t = _random_tableau(rng)
            ambient = _ambient(t)
            corners = _subset(rng, addable_corners(t.outer, max_rows=ambient.rows, max_cols=ambient.cols))
            stages = []
            _run_switches(t.entries, set(corners), True, lambda label, moves, _: stages.append(moves))
            for moves in stages:
                hits = [x for xs in moves.values() for x in xs]
                shared += len(hits) > len(set(hits))
                assert not _raises(_check_ribbons, moves, set(hits)) and not _raises(reference_check_ribbons, moves)
        assert shared > 0  # stages with a label box shared by two bullets were met

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_run_switches_same_with_and_without_on_switch(self, rng):
        if rng.random() < 0.5:  # a slide of an increasing tableau
            t = _random_tableau(rng)
            ambient = _ambient(t)
            reverse = not t.inner or rng.random() < 0.5
            if reverse:
                boxes = addable_corners(t.outer, max_rows=ambient.rows, max_cols=ambient.cols)
            else:
                boxes = removable_corners(t.inner)
            entries, bullets = t.entries, _subset(rng, boxes)
        else:  # arbitrary labels, which the kernel mostly refuses
            bullets = frozenset(rng.sample(GRID, rng.randint(1, 3)))
            entries = {x: rng.randint(1, 4) for x in GRID if x not in bullets and rng.random() < 0.6}
            reverse = rng.random() < 0.5
        outcomes = []
        for hook in (None, lambda *args: None):
            e, b = dict(entries), set(bullets)
            try:
                outcomes.append((_run_switches(e, b, reverse, hook), e))
            except InternalInvariantError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
