"""Tableau types, enumerators against naive oracles, reading words, lattice test."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_increasing_cells
from ktaquin.shapes import SkewShape, partition, psize
from ktaquin.tableaux import (
    AugmentedTableau,
    IncreasingTableau,
    SetValuedTableau,
    TableauError,
    eligible_x_boxes,
    enumerate_augmented,
    enumerate_increasing,
    enumerate_set_valued,
    is_partial_reverse_lattice,
    iter_increasing_cells,
    reading_word,
    row_reading_word,
    superstandard,
)


def naive_increasing(shape: SkewShape, alphabet, surjective=False):
    """Assign every function region -> alphabet and filter; the slow oracle."""
    boxes = shape.boxes()
    alpha = sorted(set(alphabet))
    found = []
    for values in itertools.product(alpha, repeat=len(boxes)):
        entries = dict(zip(boxes, values))
        ok = True
        for (r, c), v in entries.items():
            if entries.get((r, c + 1), v + 1) <= v or entries.get((r + 1, c), v + 1) <= v:
                ok = False
                break
        if ok and (not surjective or set(values) == set(alpha)):
            found.append(tuple((r, c, v) for (r, c), v in sorted(entries.items())))
    return found


class TestIncreasingTableau:
    def test_validation(self):
        with pytest.raises(TableauError):
            IncreasingTableau((2,), (), ((1, 1, 2), (1, 2, 2)))
        with pytest.raises(TableauError):
            IncreasingTableau((1, 1), (), ((1, 1, 1), (2, 1, 1)))
        with pytest.raises(TableauError):
            IncreasingTableau((2,), (), ((1, 1, 1),))  # unfilled box
        with pytest.raises(TableauError, match="positions must be integers"):
            IncreasingTableau((2,), (), ((1, 1, 1), (1.0, 2, 2)))

    def test_from_rows(self):
        t = IncreasingTableau.from_rows([[1, 2], [2]], inner=())
        assert t.outer == (2, 1)
        assert t.entry((2, 1)) == 2

    def test_superstandard(self):
        assert superstandard((3, 2)).rows() == [[1, 2, 3], [4, 5]]
        assert superstandard(()) == IncreasingTableau((), (), ())
        assert superstandard((1, 1, 1)).rows() == [[1], [2], [3]]


class TestEnumerateIncreasing:
    def test_fifteen(self):
        from ktaquin.shapes import star

        shape = star((2,), (2, 1))
        assert sum(1 for _ in enumerate_increasing(shape, {1, 2, 3})) == 15

    def test_single_box(self):
        assert sum(1 for _ in enumerate_increasing(SkewShape.straight((1,)), {1})) == 1

    def test_straight_two_one(self):
        ts = list(enumerate_increasing(SkewShape.straight((2, 1)), {1, 2, 3}))
        assert len(ts) == 5

    def test_deterministic_and_duplicate_free(self):
        shape = SkewShape((3, 2), (1,))
        first = list(enumerate_increasing(shape, range(1, 5)))
        second = list(enumerate_increasing(shape, range(1, 5)))
        assert first == second
        assert len(set(first)) == len(first)

    def test_surjective_partitions_stream(self):
        shape = SkewShape((3, 2), (1,))
        full = list(enumerate_increasing(shape, range(1, 5)))
        by_value_set = sum(
            sum(1 for _ in enumerate_increasing(shape, alpha, surjective=True))
            for k in range(1, 5)
            for alpha in itertools.combinations(range(1, 5), k)
        )
        assert len(full) == by_value_set

    def test_against_naive_oracle(self):
        cases = [
            (SkewShape.straight((2, 1)), {1, 2, 3}),
            (SkewShape.straight((2, 2)), {1, 2, 3, 4}),
            (SkewShape((3, 2), (1,)), {1, 2, 3}),
            (SkewShape((2, 2, 1), (1,)), {1, 2, 3, 4}),
            (SkewShape((4, 2), (2,)), {2, 4, 5}),
        ]
        for shape, alpha in cases:
            for surjective in (False, True):
                got = [t.cells for t in enumerate_increasing(shape, alpha, surjective)]
                assert got == naive_increasing(shape, alpha, surjective)

    def test_empty_shape(self):
        assert list(enumerate_increasing(SkewShape((), ()), set())) == [
            IncreasingTableau((), (), ())
        ]


@st.composite
def _enumeration_case(draw):
    """A skew shape inside a 3x3 box, possibly with no boxes, and an alphabet of up to 8 letters."""
    outer = partition(sorted(draw(st.lists(st.integers(1, 3), max_size=3)), reverse=True))
    inner, cap = [], 3
    for width in outer:
        cap = draw(st.integers(0, min(width, cap)))
        inner.append(cap)
    size = psize(outer) - sum(inner)
    alphabet = draw(st.sets(st.integers(0, size + 3), max_size=8))
    return outer, partition(inner), alphabet, draw(st.booleans())


class TestIterativeEnumerator:
    """The iterative backtracker yields the recursive reference's exact stream."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_enumeration_case())
    def test_same_stream_as_the_recursive_reference(self, case):
        outer, inner, alphabet, surjective = case
        assert list(iter_increasing_cells(outer, inner, alphabet, surjective)) == list(
            reference_increasing_cells(outer, inner, alphabet, surjective)
        )

    def test_cases_cover_the_edges(self):
        # empty regions, alphabets larger than the region, and a letter below 1
        for outer, inner, alphabet, surjective in [
            ((2, 1), (2, 1), {1, 2}, False),
            ((2, 1), (2, 1), set(), True),
            ((2, 1), (1,), {1, 2, 3, 4, 5}, True),
            ((3,), (), {0, 1, 2, 3}, False),
            ((3,), (), {0, 1, 2, 3}, True),
        ]:
            assert list(iter_increasing_cells(outer, inner, alphabet, surjective)) == list(
                reference_increasing_cells(outer, inner, alphabet, surjective)
            )


class TestAugmented:
    def test_three_witnesses(self):
        shape = SkewShape((2, 1), (1,))
        got = list(enumerate_augmented(shape, {1}))
        keys = {(t.cells, t.x_marks) for t in got}
        assert keys == {
            (((1, 2, 1), (2, 1, 1)), ()),
            (((2, 1, 1),), ((1, 2),)),
            (((1, 2, 1),), ((2, 1),)),
        }

    def test_no_eligible_corners_reduces_to_increasing(self):
        shape = SkewShape((2, 2), (1,))  # the only removable corner (2,2) is in the region
        assert eligible_x_boxes(shape) == [(2, 2)]
        shape2 = SkewShape((2, 2), (2, 2))
        assert eligible_x_boxes(shape2) == []

    def test_display_member(self):
        shape = SkewShape((5, 3, 2), (2, 1))
        member = AugmentedTableau(
            (5, 3, 2),
            (2, 1),
            ((1, 3, 1), (1, 4, 2), (2, 2, 1), (3, 1, 2), (3, 2, 4)),
            ((1, 5), (2, 3)),
        )
        family = list(enumerate_augmented(shape, {1, 2, 4}))
        assert member in family
        assert member.erase_x() == IncreasingTableau(
            (4, 2, 2), (2, 1), ((1, 3, 1), (1, 4, 2), (2, 2, 1), (3, 1, 2), (3, 2, 4))
        )

    def test_x_marks_validated(self):
        with pytest.raises(TableauError):
            AugmentedTableau((2, 1), (1,), ((2, 1, 1),), ((1, 1),))


class TestSetValued:
    def test_reading_words(self):
        t1 = SetValuedTableau((3, 1), ((1, 1, (1,)), (1, 2, (1, 2)), (1, 3, (2,)), (2, 1, (3,))))
        t2 = SetValuedTableau((3, 1), ((1, 1, (1,)), (1, 2, (1,)), (1, 3, (2,)), (2, 1, (2, 3))))
        assert reading_word(t1) == (3, 1, 1, 2, 2)
        assert reading_word(t2) == (2, 3, 1, 1, 2)
        single = SetValuedTableau((1,), ((1, 1, (5,)),))
        assert reading_word(single) == (5,)

    def test_invariants(self):
        with pytest.raises(TableauError):
            SetValuedTableau((2,), ((1, 1, (2,)), (1, 2, (1,))))
        with pytest.raises(TableauError):
            SetValuedTableau((1, 1), ((1, 1, (1, 2)), (2, 1, (2,))))

    def test_enumerate_content(self):
        assert sum(1 for _ in enumerate_set_valued((1,), (1,))) == 1
        got = list(enumerate_set_valued((1,), (1, 1)))
        assert len(got) == 1 and got[0].cells == ((1, 1, (1, 2)),)

    def test_enumerate_exact_content(self):
        for t in enumerate_set_valued((3, 1), (2, 2, 1)):
            counts = [0, 0, 0]
            for _, _, vals in t.cells:
                for v in vals:
                    counts[v - 1] += 1
            assert counts == [2, 2, 1]

    def test_buch_witnesses(self):
        winners = [
            t
            for t in enumerate_set_valued((3, 1), (2, 2, 1))
            if is_partial_reverse_lattice(reading_word(t), (1, 1))
            and is_partial_reverse_lattice(reading_word(t), (2, 3))
        ]
        assert {reading_word(t) for t in winners} == {(3, 1, 1, 2, 2), (2, 3, 1, 1, 2)}


class TestLattice:
    def test_witness_words(self):
        assert is_partial_reverse_lattice((3, 1, 1, 2, 2), (2, 3))
        assert is_partial_reverse_lattice((2, 3, 1, 1, 2), (2, 3))

    def test_weak_tie_needed(self):
        # the second witness word ties its counts of 2 and 3 on the suffix 3112
        assert is_partial_reverse_lattice((2, 3, 1, 1, 2), (2, 3))

    def test_violations(self):
        assert not is_partial_reverse_lattice((3, 3, 2), (2, 3))
        assert not is_partial_reverse_lattice((2, 2), (1, 2))
        assert is_partial_reverse_lattice((3, 2, 1), (1, 3))

    def test_interval_filtering(self):
        # letters outside the interval are ignored
        assert is_partial_reverse_lattice((9, 2, 9, 1, 9), (1, 2))
        assert not is_partial_reverse_lattice((9, 1, 9, 2, 9), (1, 2))


class TestRowReadingWord:
    def test_values(self):
        assert row_reading_word(IncreasingTableau.from_rows([[1, 2]])) == (1, 2)
        assert row_reading_word(IncreasingTableau.from_rows([[1], [2]])) == (2, 1)
        assert row_reading_word(IncreasingTableau.from_rows([[1, 2], [3]])) == (3, 1, 2)

    def test_skew_rejected(self):
        t = IncreasingTableau((2,), (1,), ((1, 2, 1),))
        with pytest.raises(TableauError):
            row_reading_word(t)


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)
))
@settings(max_examples=60)
def test_enumerated_tableaux_revalidate(parts):
    parts = tuple(sorted((p for p in parts), reverse=True))
    shape = SkewShape.straight(parts)
    for t in itertools.islice(enumerate_increasing(shape, range(1, 4)), 50):
        IncreasingTableau(t.outer, t.inner, t.cells)  # re-runs validation
