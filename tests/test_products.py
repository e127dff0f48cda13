"""Tableau products against displayed results and a classical-slide oracle."""

import pytest

from ktaquin.shapes import SkewShape, partition, removable_corners
from ktaquin.tableaux import IncreasingTableau, TableauError, enumerate_increasing
from ktaquin.products import _star_tableau, diamond, hecke_insert, odot, single_box

T = IncreasingTableau.from_rows


def classical_rect(t: IncreasingTableau) -> IncreasingTableau:
    """Independent classical rectification for all-distinct-label fillings.

    One hole at a time migrates southeast, always swapping with the smaller of
    its east and south neighbors; classically this is order independent.
    """
    entries = t.entries
    inner, outer = list(t.inner), list(t.outer)

    def region(box):
        r, c = box
        return 1 <= r <= len(outer) and (inner[r - 1] if r <= len(inner) else 0) < c <= outer[r - 1]

    while any(inner):
        corners = removable_corners(partition(inner))
        hole = corners[0]
        inner[hole[0] - 1] -= 1
        while True:
            r, c = hole
            east = entries.get((r, c + 1)) if region((r, c + 1)) else None
            south = entries.get((r + 1, c)) if region((r + 1, c)) else None
            if east is None and south is None:
                break
            if south is None or (east is not None and east < south):
                entries[hole] = east
                del entries[(r, c + 1)]
                hole = (r, c + 1)
            else:
                entries[hole] = south
                del entries[(r + 1, c)]
                hole = (r + 1, c)
        outer[hole[0] - 1] -= 1
        inner = [x for x in inner if x]
        outer = [x for x in outer if x]
    return IncreasingTableau.make(partition(outer), (), entries)


class TestOdot:
    def test_displayed_product(self):
        assert odot(T([[1, 2, 3], [2, 4, 5]]), T([[1, 2]])) == T([[1, 2, 3], [2, 3, 5], [4, 5]])

    def test_units(self):
        t = T([[1, 3], [2, 4]])
        empty = IncreasingTableau((), (), ())
        assert odot(t, empty) == t
        assert odot(empty, t) == t

    def test_nested_product(self):
        z = T([[1, 2, 3], [2, 4, 5]])
        assert odot(odot(z, single_box(1)), single_box(2)) == T([[1, 2, 3], [2, 3, 5], [4]])

    def test_non_associativity(self):
        z = T([[1, 2, 3], [2, 4, 5]])
        left = odot(odot(z, single_box(1)), single_box(2))
        right = odot(z, odot(single_box(1), single_box(2)))
        assert left != right

    def test_skew_rejected(self):
        skew = IncreasingTableau((2,), (1,), ((1, 2, 1),))
        with pytest.raises(TableauError):
            odot(skew, single_box(1))


class TestHeckeInsert:
    def test_values(self):
        empty = IncreasingTableau((), (), ())
        assert hecke_insert(empty, 1) == T([[1]])
        assert hecke_insert(T([[1]]), 1) == T([[1]])
        assert hecke_insert(T([[1]]), 2) == T([[1, 2]])

    def test_value_set_bound(self):
        z = T([[1, 2], [2, 3]])
        for x in range(1, 5):
            out = hecke_insert(z, x)
            assert out.values <= z.values | {x}

    def test_refusals(self):
        skew = IncreasingTableau((2,), (1,), ((1, 2, 1),))
        with pytest.raises(TableauError, match="insertion target must be a straight tableau"):
            hecke_insert(skew, 1)
        with pytest.raises(ValueError, match="inserted letter must be a positive integer"):
            hecke_insert(T([[1]]), 0)


class TestDiamond:
    def test_displayed_product(self):
        assert diamond(T([[1, 2, 3], [2, 4, 5]]), T([[1, 2]])) == T([[1, 2, 3], [2, 3, 5], [4]])

    def test_unit(self):
        z = T([[1, 3], [2, 4]])
        assert diamond(z, IncreasingTableau((), (), ())) == z

    def test_skew_rejected(self):
        skew = IncreasingTableau((2,), (1,), ((1, 2, 1),))
        with pytest.raises(TableauError, match="both factors must be straight tableaux"):
            diamond(T([[1]]), skew)

    def test_differs_from_odot(self):
        z, u = T([[1, 2, 3], [2, 4, 5]]), T([[1, 2]])
        assert odot(z, u) != diamond(z, u)


class TestClassicalAgreement:
    def test_distinct_label_inputs(self):
        """Disjoint-label factors slide classically, one box per switch."""
        checked = 0
        small = [(), (1,), (2,), (1, 1), (2, 1), (3,)]
        for a in small:
            for b in small:
                if sum(a) + sum(b) > 6:
                    continue
                for ta in enumerate_increasing(SkewShape.straight(a), range(1, sum(a) + 1), surjective=True):
                    for tb_raw in enumerate_increasing(
                        SkewShape.straight(b), range(1, sum(b) + 1), surjective=True
                    ):
                        shift = sum(a)
                        tb = IncreasingTableau(
                            tb_raw.outer, (), tuple((r, c, v + shift) for r, c, v in tb_raw.cells)
                        )
                        star_t = _star_tableau(ta, tb)
                        assert odot(ta, tb) == classical_rect(star_t)
                        checked += 1
        assert checked >= 40
