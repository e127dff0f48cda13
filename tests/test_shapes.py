"""Shape constructions against worked values and brute-force oracles."""

import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktaquin import shapes
from ktaquin.shapes import (
    AmbientRectangle,
    DirectSumFrame,
    ShapeFitError,
    SkewShape,
    add_boxes,
    addable_corners,
    boundary_word,
    contains,
    dagger,
    dual_in_rectangle,
    format_partition,
    inner_corners,
    omega,
    omega_dual,
    oslash,
    outer_corners,
    parse_partition,
    partition,
    partition_from_boundary_word,
    partitions_in_rectangle,
    partitions_of,
    psize,
    remove_boxes,
    removable_corners,
    rook_strip_contractions,
    star,
)

partitions_small = st.builds(
    lambda rows: partition(sorted(rows, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=6), max_size=5),
)


def brute_rook_strip_contractions(nu):
    """All sub-partitions whose complement is a rook strip, by raw subset scan."""
    boxes = [(r, c) for r, w in enumerate(nu, start=1) for c in range(1, w + 1)]
    found = set()
    for size in range(len(boxes) + 1):
        for removed in itertools.combinations(boxes, size):
            rows = [r for r, _ in removed]
            cols = [c for _, c in removed]
            if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
                continue
            kept = set(boxes) - set(removed)
            counts = [sum(1 for (r, c) in kept if r == i) for i in range(1, len(nu) + 1)]
            if any(b > a for a, b in zip(counts, counts[1:])):
                continue
            if any((r, c) in kept and (r, c - 1) not in kept for (r, c) in boxes if c > 1 and (r, c) in kept):
                continue
            # kept must be left-justified rows
            ok = all(
                {(i, c) for c in range(1, counts[i - 1] + 1)} == {(r, c) for (r, c) in kept if r == i}
                for i in range(1, len(nu) + 1)
            )
            if ok:
                found.add(partition(counts))
    return found


class TestPartitionBasics:
    def test_normalization(self):
        assert partition([3, 2, 0, 0]) == (3, 2)
        assert partition([]) == ()
        with pytest.raises(ShapeFitError):
            partition([1, 2])

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((3, 0, 0), (3,)),
            ((1, 2), "rows must be weakly decreasing: (1, 2)"),
            ((2, -1), "rows must be nonnegative: (2, -1)"),
            ((2, 0, 1), "rows must be weakly decreasing: (2, 0, 1)"),
            # both faults: the order check reports first
            ((1, 2, -1), "rows must be weakly decreasing: (1, 2, -1)"),
            (("3", "1"), (3, 1)),
            ((), ()),
        ],
    )
    def test_accepts_and_rejects(self, parts, expected):
        if isinstance(expected, tuple):
            assert partition(parts) == expected
        else:
            with pytest.raises(ShapeFitError) as err:
                partition(parts)
            assert str(err.value) == expected

    def test_memo_keeps_every_outcome(self):
        """Cold and warm calls agree on every input kind, however the memo was filled."""
        try:
            int(1 + 0j)
        except TypeError as exc:
            complex_refused = (TypeError, str(exc))
        cases = [
            (lambda: (3, 1), (3, 1)),
            (lambda: [3, 1], (3, 1)),
            (lambda: (x for x in (3, 1)), (3, 1)),
            (lambda: (3.0, 1.0), (3, 1)),
            (lambda: (True,), (1,)),
            (lambda: ("3", "1"), (3, 1)),
            (lambda: (3, 1, 0, 0), (3, 1)),
            (lambda: (1, 2), (ShapeFitError, "rows must be weakly decreasing: (1, 2)")),
            (lambda: (2, -1), (ShapeFitError, "rows must be nonnegative: (2, -1)")),
            # (1,) is memoized by now, but a complex row is still refused by int()
            (lambda: (1 + 0j,), complex_refused),
        ]

        def outcome(make):
            try:
                return partition(make())
            except (ShapeFitError, TypeError) as exc:
                return type(exc), str(exc)

        shapes._memo.clear()
        cold = [outcome(make) for make, _ in cases]
        assert cold == [expected for _, expected in cases]
        memo = dict(shapes._memo)
        # keyed by the converted int tuple; rejected inputs leave no key
        assert memo == {("partition", (3, 1)): (3, 1), ("partition", (1,)): (1,),
                        ("partition", (3, 1, 0, 0)): (3, 1)}
        assert [outcome(make) for make, _ in cases] == cold
        assert shapes._memo == memo

    def test_fast_path_serves_only_int_tuples(self):
        """A warm int tuple is one lookup; other inputs equal to it get their cold outcome."""

        class Rows(NamedTuple):
            first: int
            second: int

        try:
            int([3])
        except TypeError as exc:
            list_refused = (TypeError, str(exc))
        cases = [(3.0, 1.0), (True, 1), (Fraction(3), 1), Rows(3, 1), ([3], 1)]

        def outcome(parts):
            try:
                t = partition(parts)
            except (ShapeFitError, TypeError) as exc:
                return type(exc), str(exc)
            return t, [type(x) for x in t]

        cold = []
        for parts in cases:
            shapes._memo.clear()
            cold.append(outcome(parts))
        ints = ((3, 1), [int, int])
        assert cold == [ints, ((1, 1), [int, int]), ints, ints, list_refused]

        shapes._memo.clear()
        normal = {t: partition(t) for t in ((3, 1), (1, 1))}
        memo = dict(shapes._memo)
        assert [outcome(parts) for parts in cases] == cold
        # a hit hands back the memo's own tuple, even for an equal new object
        assert partition(tuple([3, 1])) is normal[3, 1]
        assert partition((True, 1)) is normal[1, 1]
        assert shapes._memo == memo

    def test_text_round_trip(self):
        assert parse_partition("[4,3,1]") == (4, 3, 1)
        assert parse_partition("[]") == ()
        assert parse_partition("2,1") == (2, 1)
        assert format_partition((4, 3, 1)) == "[4,3,1]"
        assert format_partition(()) == "[]"

    def test_partitions_in_rectangle_count(self):
        # binomial(rows+cols, rows) shapes fit a rows x cols box
        assert len(list(partitions_in_rectangle(2, 2))) == 6
        assert len(list(partitions_in_rectangle(3, 3))) == 20
        assert len(set(partitions_in_rectangle(4, 4))) == 70

    def test_partitions_of(self):
        assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


class TestDual:
    def test_worked_values(self):
        assert dual_in_rectangle((2, 1), AmbientRectangle(3, 6)) == (3, 2, 1)
        assert dual_in_rectangle((), AmbientRectangle(2, 5)) == (3, 3)
        assert dual_in_rectangle((3, 1), AmbientRectangle(3, 7)) == (4, 3, 1)

    def test_fit_error(self):
        with pytest.raises(ShapeFitError) as err:
            dual_in_rectangle((4,), AmbientRectangle(2, 5))
        assert str(err.value) == "(4,) does not fit the 2x3 rectangle"

    def test_normalises_its_argument(self):
        rect = AmbientRectangle(2, 5)
        assert dual_in_rectangle((2, 0, 0), rect) == dual_in_rectangle((2,), rect) == (3, 1)
        assert dual_in_rectangle([2, 1], AmbientRectangle(3, 6)) == (3, 2, 1)
        with pytest.raises(ShapeFitError) as err:
            dual_in_rectangle((1, 2), rect)
        assert str(err.value) == "rows must be weakly decreasing: (1, 2)"

    @given(partitions_small)
    @settings(max_examples=100)
    def test_involution(self, lam):
        rows = max(len(lam), 1) + 1
        cols = max(psize(lam) and lam[0], 1) + 1
        rect = AmbientRectangle(rows, rows + cols)
        assert dual_in_rectangle(dual_in_rectangle(lam, rect), rect) == lam


class TestStar:
    def test_worked_example(self):
        s = star((4, 3, 1), (3, 2))
        assert s.outer == (7, 6, 4, 3, 1)
        assert s.inner == (4, 4)

    def test_empty_cases(self):
        assert star((), (2, 1)) == SkewShape((2, 1), ())
        assert star((3, 1), ()) == SkewShape((3, 1), ())

    def test_fifteen_tableaux_shape(self):
        s = star((2,), (2, 1))
        assert s.outer == (4, 3, 2)
        assert s.inner == (2, 2)
        assert type(s) is SkewShape and s == SkewShape((4, 3, 2), (2, 2))

    @given(partitions_small, partitions_small)
    @settings(max_examples=100)
    def test_inner_is_rectangle(self, lam, mu):
        s = star(lam, mu)
        assert s.inner == ((lam[0],) * len(mu) if lam and mu else ())
        assert psize(s.outer) - psize(s.inner) == psize(lam) + psize(mu)


class TestFrameShapes:
    def test_dagger_values(self):
        f = DirectSumFrame(1, 3, 2, 4)
        assert dagger((2,), (2, 1), f) == (4, 3, 2)
        assert dagger((), (), f) == (2, 2)  # the omega-dual rectangle itself
        assert dagger((1, 1), (2,), DirectSumFrame(2, 4, 1, 3)) == (4, 1, 1)

    def test_oslash_values(self):
        f = DirectSumFrame(1, 3, 2, 4)
        assert oslash((2, 1), (2,), f) == (4, 2, 1)
        assert oslash((), (), f) == (2,)  # the k1 x (n2-k2) rectangle
        assert oslash((1,), (2, 1), DirectSumFrame(2, 4, 1, 3)) == (4, 3, 1)

    def test_omega_values(self):
        assert omega(DirectSumFrame(1, 3, 2, 4)) == (4, 2, 2)
        assert omega(DirectSumFrame(1, 2, 1, 2)) == (2, 1)

    def test_omega_dual_relation(self):
        for frame in (DirectSumFrame(1, 3, 2, 4), DirectSumFrame(1, 2, 1, 2), DirectSumFrame(2, 4, 2, 3)):
            assert omega_dual(frame) == dual_in_rectangle(omega(frame), AmbientRectangle(frame.k, frame.n))
        assert omega_dual(DirectSumFrame(1, 3, 2, 4)) == (2, 2)

    def test_dagger_size_bookkeeping(self):
        for k1, n1, k2, n2 in [(1, 3, 2, 4), (2, 4, 1, 3), (2, 3, 2, 4)]:
            f = DirectSumFrame(k1, n1, k2, n2)
            for lam in partitions_in_rectangle(f.k1, f.n1 - f.k1):
                for mu in partitions_in_rectangle(f.k2, f.n2 - f.k2):
                    joined = dagger(lam, mu, f)
                    assert partition(joined) == joined  # built in normal form, never renormalised
                    assert psize(joined) == psize(omega_dual(f)) + psize(lam) + psize(mu)

    def test_dagger_fits_the_ambient_unrefitted(self):
        # dagger does not refit its result: every frame with k1, k2 <= 3 and n1, n2 <= 6
        factors = [(k, n) for n in range(2, 7) for k in range(1, min(n, 4))]
        for (k1, n1), (k2, n2) in itertools.product(factors, repeat=2):
            f = DirectSumFrame(k1, n1, k2, n2)
            ambient = AmbientRectangle(f.k, f.n)
            for lam in partitions_in_rectangle(k1, n1 - k1):
                for mu in partitions_in_rectangle(k2, n2 - k2):
                    joined = dagger(lam, mu, f)
                    assert partition(joined) == joined
                    ambient.require_fit(joined)

    def test_fit_errors(self):
        f = DirectSumFrame(1, 2, 1, 2)
        with pytest.raises(ShapeFitError):
            dagger((2,), (), f)
        with pytest.raises(ShapeFitError):
            oslash((), (1, 1), f)

    @pytest.mark.parametrize(
        "args, message",
        [
            (((3,), (), None), "(3,) does not fit the 1x2 rectangle"),  # lambda: first factor
            (((), (1, 1, 1), None), "(1, 1, 1) does not fit the 2x3 rectangle"),  # mu: second factor
            (((), (), (6,)), "(6,) does not fit the 3x5 rectangle"),  # nu: the ambient
        ],
        ids=["lambda", "mu", "nu"],
    )
    def test_misfit_messages(self, args, message):
        with pytest.raises(ShapeFitError) as err:
            DirectSumFrame(1, 3, 2, 5).require_fits(*args)
        assert str(err.value) == message


class TestShapeRefusals:
    def test_ambient_needs_0_lt_k_lt_n(self):
        with pytest.raises(ShapeFitError, match="need 0 < k < n, got k=3, n=3"):
            AmbientRectangle(3, 3)

    def test_frame_needs_two_factors(self):
        with pytest.raises(ShapeFitError, match="need 0 < k1 < n1 and 0 < k2 < n2"):
            DirectSumFrame(1, 3, 2, 2)

    def test_skew_shape_needs_inner_inside_outer(self):
        with pytest.raises(ShapeFitError, match=r"inner \(2,\) not contained in outer \(1,\)"):
            SkewShape((1,), (2,))

    @pytest.mark.parametrize("word", [{1}, {1, 2, 3}, {0, 2}, {2, 6}], ids=["short", "long", "zero", "past-n"])
    def test_boundary_word_must_be_a_k_subset(self, word):
        with pytest.raises(ShapeFitError, match="is not a 2-subset of 1..5"):
            partition_from_boundary_word(word, AmbientRectangle(2, 5))


class TestRookStrips:
    def test_worked_values(self):
        assert set(rook_strip_contractions((2, 1))) == {(2, 1), (2,), (1, 1), (1,)}
        assert set(rook_strip_contractions((1,))) == {(1,), ()}
        # removing (1,2) and (2,2) shares a column, so (1,1) is not reachable
        assert set(rook_strip_contractions((2, 2))) == {(2, 2), (2, 1)}

    def test_against_brute_force(self):
        for n in range(9):
            for nu in partitions_of(n):
                assert set(rook_strip_contractions(nu)) == brute_rook_strip_contractions(nu), nu


class TestBoundaryWord:
    def test_worked_values(self):
        assert boundary_word((3, 3), AmbientRectangle(2, 5)) == frozenset({1, 2})
        assert boundary_word((), AmbientRectangle(2, 5)) == frozenset({4, 5})
        assert boundary_word((1,), AmbientRectangle(1, 2)) == frozenset({1})

    def test_normalises_its_argument(self):
        rect = AmbientRectangle(2, 5)
        assert boundary_word([3, 3], rect) == boundary_word((3, 3, 0), rect) == frozenset({1, 2})
        with pytest.raises(ShapeFitError) as err:
            boundary_word((1, 2), rect)
        assert str(err.value) == "rows must be weakly decreasing: (1, 2)"

    def test_bijection(self):
        rect = AmbientRectangle(3, 7)
        seen = set()
        for lam in partitions_in_rectangle(rect.rows, rect.cols):
            w = boundary_word(lam, rect)
            assert partition_from_boundary_word(w, rect) == lam
            seen.add(w)
        assert len(seen) == 35  # binomial(7, 3)

    def test_every_subset_fits_unrefitted(self):
        # partition_from_boundary_word does not refit its result: every k-subset of 1..n, n <= 8
        for n in range(2, 9):
            for k in range(1, n):
                rect = AmbientRectangle(k, n)
                for word in itertools.combinations(range(1, n + 1), k):
                    lam = partition_from_boundary_word(word, rect)
                    rect.require_fit(lam)
                    assert boundary_word(lam, rect) == frozenset(word)

    @pytest.mark.parametrize(
        "word, rect, entry",
        [({1.5}, AmbientRectangle(1, 3), "1.5"), ({1.5, 2.5}, AmbientRectangle(2, 4), r"[12]\.5"),
         ({True, 3}, AmbientRectangle(2, 4), "True"), ([[1]], AmbientRectangle(1, 3), r"\[1\]")],
        ids=["float", "floats", "bool", "unhashable"],
    )
    def test_entries_that_are_not_ints_are_refused(self, word, rect, entry):
        # a float entry used to be truncated, a bool read as 1, and a list escaped as a TypeError
        with pytest.raises(ShapeFitError, match=f"^boundary word entries must be integers, got {entry}$"):
            partition_from_boundary_word(word, rect)


class TestCorners:
    def test_inner_corners(self):
        assert inner_corners(SkewShape((3, 3), (2, 1))) == frozenset({(1, 2), (2, 1)})
        assert inner_corners(SkewShape((3, 3), (2, 2))) == frozenset({(2, 2)})

    def test_outer_corners(self):
        shape = SkewShape((2, 1), ())
        assert outer_corners(shape, AmbientRectangle(3, 6)) == frozenset({(1, 3), (2, 2), (3, 1)})

    def test_corner_helpers(self):
        assert removable_corners((5, 3, 2)) == [(1, 5), (2, 3), (3, 2)]
        assert addable_corners((2, 2), max_rows=2, max_cols=3) == [(1, 3)]


def _renormalized(lam, boxes, step):
    """remove_boxes/add_boxes by full re-normalization through partition()."""
    rows = list(lam)
    if len({r for r, _ in boxes}) != len(boxes):
        raise ShapeFitError("two boxes share a row")
    for r, c in sorted(boxes):
        rows += [0] * (r - len(rows))
        if rows[r - 1] != (c if step < 0 else c - 1):
            raise ShapeFitError(f"box {(r, c)} does not fit")
        rows[r - 1] += step
    return partition(rows)


class TestBoxMoves:
    """Every box set within reach of a small partition, against re-normalization."""

    @pytest.mark.parametrize("move, step", [(remove_boxes, -1), (add_boxes, 1)])
    def test_against_renormalization(self, move, step):
        checked = 0
        for lam in partitions_in_rectangle(3, 3):
            near = [(r, c) for r in range(1, 5) for c in range(1, 5)]
            for k in (1, 2, 3):
                for boxes in itertools.combinations(near, k):
                    try:
                        expected = _renormalized(lam, boxes, step)
                    except ShapeFitError:
                        with pytest.raises(ShapeFitError):
                            move(lam, boxes)
                        continue
                    assert move(lam, boxes) == expected
                    checked += 1
        assert checked >= 60
