"""Tableau types, enumerators against naive oracles, reading words, lattice test."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_increasing_cells
from ktaquin.shapes import ShapeFitError, SkewShape, partition, psize
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

    @pytest.mark.parametrize(
        "cells, message",
        [
            (((1, 1, 1), ("a", 2, 2)), "cell positions must be integers, got ('a', 2)"),
            (iter([(1, 1, 1), ("a", 2, 2)]), "cells must be (row, column, label) triples of integers, got []"),
            ((5,), "cell 5 must be a (row, column, label) triple"),
            (((1, 1),), "cell (1, 1) must be a (row, column, label) triple"),
            (((1, 1, 1, 1),), "cell (1, 1, 1, 1) must be a (row, column, label) triple"),
            (((1, 1, 1), (1, 1, "a")), "entry at (1, 1) must be a positive integer, got 'a'"),
            (5, "cells must be (row, column, label) triples, got 5"),
        ],
        ids=["str-position", "spent-iterator", "int-cell", "pair", "quadruple", "str-label", "int-cells"],
    )
    def test_malformed_cells_are_refused(self, cells, message):
        with pytest.raises(TableauError) as err:
            IncreasingTableau((2,), (), cells)
        assert str(err.value) == message

    def test_a_bad_label_is_named_not_the_positions(self):
        # the label "2" is compared with its left neighbour before its own check
        with pytest.raises(TableauError) as err:
            IncreasingTableau.from_rows([[1, "2"]])
        assert str(err.value) == "entry at (1, 2) must be a positive integer, got '2'"

    def test_boolean_entry_is_refused(self):
        # bool is a subclass of int, but its JSON form would not parse back
        with pytest.raises(TableauError, match="must be a positive integer, got True"):
            IncreasingTableau.from_rows([[True, 2]])

    @pytest.mark.parametrize("cell", [(True, True, 1), (1, True, 1)], ids=["both", "column"])
    def test_boolean_position_is_refused(self, cell):
        # True == 1 puts the cell in the region, but its JSON form would not parse back
        with pytest.raises(TableauError) as err:
            IncreasingTableau((1,), (), (cell,))
        assert str(err.value) == f"cell positions must be integers, got {cell[:2]!r}"

    @pytest.mark.parametrize(
        "outer, inner, cells, message",
        [
            ((1,), (2,), ((1, 1, "a"),), "entry at (1, 1) must be a positive integer, got 'a'"),
            ((2, 1), (), ((1, 5, 1), (2, 1, "a")), "entry at (2, 1) must be a positive integer, got 'a'"),
            ((3,), (), ((1, 1, 1), (1, 2, 1), (1, 3, 0)), "entry at (1, 3) must be a positive integer, got 0"),
        ],
        ids=["inner-outside-outer", "off-region", "row-tie"],
    )
    def test_labels_are_checked_before_the_shape(self, outer, inner, cells, message):
        # types are checked where cells enter, so a bad label wins over every theorem check
        with pytest.raises(TableauError) as err:
            IncreasingTableau(outer, inner, cells)
        assert str(err.value) == message

    def test_from_rows(self):
        t = IncreasingTableau.from_rows([[1, 2], [2]], inner=())
        assert t.outer == (2, 1)
        assert t.entries[(2, 1)] == 2

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


class TestEnumeratorStream:
    """The enumerator yields the independent reference's exact stream."""

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

    @pytest.mark.parametrize("outer, inner", [((3,), (1, 1)), ((1,), (2,))])
    def test_inner_outside_outer_is_refused(self, outer, inner):
        # as SkewShape and every tableau type refuse it
        with pytest.raises(ShapeFitError, match=r"inner .* not contained in outer"):
            list(iter_increasing_cells(outer, inner, [1, 2]))


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
        with pytest.raises(TableauError, match="not outer corners of the region"):
            AugmentedTableau((2, 1), (1,), ((2, 1, 1),), ((1, 1),))
        with pytest.raises(TableauError, match="duplicate X mark"):
            AugmentedTableau((2, 1), (1,), ((1, 2, 1),), ((2, 1), (2, 1)))
        with pytest.raises(TableauError, match="a box carries both a number and an X"):
            AugmentedTableau((2, 1), (1,), ((1, 2, 1), (2, 1, 1)), ((2, 1),))

    def test_duplicate_box_is_refused(self):
        # box (1, 2) holds both 2 and 3; the numeric part is validated as a whole
        with pytest.raises(TableauError, match="duplicate box in cells"):
            AugmentedTableau((2, 1), (), ((1, 1, 1), (1, 2, 2), (1, 2, 3)), ((2, 1),))

    @pytest.mark.parametrize(
        "cells, marks, message",
        [
            (((1, 2, 1),), (("a", 1), (2, 1)), "X marks must be (row, column) pairs of ints, got (('a', 1), (2, 1))"),
            (((1, 2, 1),), ([2, 1],), "X marks must be (row, column) pairs of ints, got ([2, 1],)"),
            (((1, 2),), ((2, 1),), "cell (1, 2) must be a (row, column, label) triple"),
        ],
        ids=["str-mark", "list-mark", "pair-cell"],
    )
    def test_malformed_marks_and_cells_are_refused(self, cells, marks, message):
        with pytest.raises(TableauError) as err:
            AugmentedTableau((2, 1), (1,), cells, marks)
        assert str(err.value) == message

    @pytest.mark.parametrize("mark", [(True, True), (1.0, 1), (1, 1, 1)], ids=["bool", "float", "triple"])
    def test_a_mark_that_is_not_a_pair_of_ints_is_refused(self, mark):
        # a bool or float mark equals the corner (1, 1), but its JSON form would not parse back
        with pytest.raises(TableauError) as err:
            AugmentedTableau((1,), (), (), (mark,))
        assert str(err.value) == f"X marks must be (row, column) pairs of ints, got {(mark,)!r}"

    def test_erase_x_returns_the_validated_numeric_part(self):
        t = AugmentedTableau([2, 1, 0], [1], [[2, 1, 1]], ((1, 2),))
        assert (t.outer, t.inner, t.cells) == ((2, 1), (1,), ((2, 1, 1),))
        assert t.erase_x() is t.erase_x()
        assert t.erase_x() == IncreasingTableau((1, 1), (1,), ((2, 1, 1),))


class TestSetValued:
    def test_reading_words(self):
        t1 = SetValuedTableau((3, 1), ((1, 1, (1,)), (1, 2, (1, 2)), (1, 3, (2,)), (2, 1, (3,))))
        t2 = SetValuedTableau((3, 1), ((1, 1, (1,)), (1, 2, (1,)), (1, 3, (2,)), (2, 1, (2, 3))))
        assert reading_word(t1) == (3, 1, 1, 2, 2)
        assert reading_word(t2) == (2, 3, 1, 1, 2)
        single = SetValuedTableau((1,), ((1, 1, (5,)),))
        assert reading_word(single) == (5,)

    def test_skew_reading_word_skips_inner(self):
        t = SetValuedTableau((3, 2), ((1, 2, (1,)), (1, 3, (1, 2)), (2, 1, (1,)), (2, 2, (2, 3))), (1,))
        assert reading_word(t) == (1, 2, 3, 1, 1, 2)
        with pytest.raises(ShapeFitError):
            SetValuedTableau((1,), (), (2,))
        with pytest.raises(TableauError):  # a box of the inner shape filled
            SetValuedTableau((2,), ((1, 1, (1,)), (1, 2, (2,))), (1,))

    def test_invariants(self):
        with pytest.raises(TableauError):
            SetValuedTableau((2,), ((1, 1, (2,)), (1, 2, (1,))))
        with pytest.raises(TableauError):
            SetValuedTableau((1, 1), ((1, 1, (1, 2)), (2, 1, (2,))))

    @pytest.mark.parametrize(
        "letters",
        [(True,), (1.5,), (1, 1), (2, 1, 2), (0, 1), ()],
        ids=["bool", "float", "repeat", "unsorted-repeat", "zero", "empty"],
    )
    def test_letters_are_distinct_positive_ints(self, letters):
        with pytest.raises(TableauError, match="distinct positive integers"):
            SetValuedTableau((1,), ((1, 1, letters),))

    @pytest.mark.parametrize(
        "cells, message",
        [
            (((1, 1, ("a", 1)),), "box (1, 1) must hold a nonempty set of distinct positive integers"),
            (((1, 1, 5),), "box (1, 1) must hold a nonempty set of distinct positive integers"),
            (((1, 1),), "cell (1, 1) must be a (row, column, label) triple"),
            (((1, 1, (1,)), ("a", 2, (2,))), "cell positions must be integers, got ('a', 2)"),
        ],
        ids=["str-letter", "int-label", "pair", "str-position"],
    )
    def test_malformed_cells_are_refused(self, cells, message):
        with pytest.raises(TableauError) as err:
            SetValuedTableau((len(cells),), cells)
        assert str(err.value) == message

    @pytest.mark.parametrize("cell", [(True, True, (1,)), (1.0, 1, (1,))], ids=["bool", "float"])
    def test_a_position_that_is_not_an_int_is_refused(self, cell):
        # it equals the box (1, 1), so the cells fill the region, but no JSON form parses back
        with pytest.raises(TableauError) as err:
            SetValuedTableau((1,), (cell,))
        assert str(err.value) == f"cell positions must be integers, got {cell[:2]!r}"

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
        pruned = enumerate_set_valued((3, 1), (2, 2, 1), [(1, 1), (2, 3)])
        assert sorted(t.cells for t in pruned) == sorted(t.cells for t in winners)


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

    def test_empty_interval_is_refused(self):
        with pytest.raises(ValueError, match=r"need a <= b, got \(3, 2\)"):
            is_partial_reverse_lattice((1, 2), (3, 2))

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
