"""The pruned set-valued enumerator against the old generate-then-filter reference."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ktaquin import coefficients, tableaux
from ktaquin.coefficients import coeff_C, coeff_D_buch
from ktaquin.shapes import ShapeFitError, partitions_in_rectangle, psize
from ktaquin.tableaux import enumerate_set_valued

from helpers import reference_set_valued


def cells(stream):
    return sorted(t.cells for t in stream)


class TestExhaustive:
    def test_unfiltered_stream(self):
        """Every shape in a 3x3 box, every content of up to 3 letters with multiplicities 0..2."""
        cases = nonempty = 0
        for nu in partitions_in_rectangle(3, 3):
            for letters in range(4):
                for content in itertools.product(range(3), repeat=letters):
                    got = cells(enumerate_set_valued(nu, content))
                    assert got == cells(reference_set_valued(nu, content)), (nu, content)
                    cases += 1
                    nonempty += bool(got)
        assert cases == 800 and nonempty == 126

    def test_D_buch(self):
        """Buch's count for lambda, mu in a 2x2 box and nu in a 3x4 box, empty intervals dropped."""
        coefficients._memo.clear()
        nonzero = 0
        for lam in partitions_in_rectangle(2, 2):
            for mu in partitions_in_rectangle(2, 2):
                p, q = len(lam), len(mu)
                lattice = [(a, b) for a, b in ((1, p), (p + 1, p + q)) if a <= b]
                for nu in partitions_in_rectangle(3, 4):
                    count = sum(1 for _ in reference_set_valued(nu, lam + mu, lattice))
                    sign = -1 if (psize(lam) + psize(mu) + psize(nu)) % 2 else 1
                    assert coeff_D_buch(lam, mu, nu) == sign * count, (lam, mu, nu)
                    nonzero += count != 0
        assert nonzero == 144

    def test_C_buch(self):
        """Buch's C against the jdt count: lambda, mu of at most 4 boxes in a 3x3 box,
        nu of at most 9 boxes in a 4x4 box, |nu| >= |lambda| + |mu|."""
        small = [p for p in partitions_in_rectangle(3, 3) if psize(p) <= 4]
        nus = [p for p in partitions_in_rectangle(4, 4) if psize(p) <= 9]
        triples = [(l, m, n) for l in small for m in small for n in nus if psize(n) >= psize(l) + psize(m)]
        assert len(triples) == 3152
        coefficients._memo.clear()
        values = {t: coeff_C(*t) for t in triples}
        assert [t for t in triples if coefficients._count_C_buch(*t) != values[t]] == []
        assert sum(1 for v in values.values() if v) == 530


@st.composite
def set_valued_cases(draw):
    rows = draw(st.integers(0, 3))
    nu = sorted((draw(st.integers(1, 3)) for _ in range(rows)), reverse=True)
    content = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    ends = st.integers(0, len(content) + 1)
    lattice = draw(st.lists(st.tuples(ends, ends).map(sorted).map(tuple), max_size=2))
    inner = []  # each row at most nu's row and the inner row above
    for width in nu:
        inner.append(draw(st.integers(0, min(width, inner[-1]) if inner else width)))
    return tuple(nu), content, lattice, tuple(inner)


@settings(max_examples=200, derandomize=True)
@given(set_valued_cases())
def test_matches_reference(case):
    nu, content, lattice, inner = case
    got = cells(enumerate_set_valued(nu, content, lattice, inner))
    assert got == cells(reference_set_valued(nu, content, lattice, inner))


@pytest.mark.parametrize("content, lattice", [((-1, 2, 1), ()), ((1, 1), [(2, 1)])])
def test_refused(content, lattice):
    with pytest.raises(ValueError):
        list(enumerate_set_valued((2,), content, lattice))


@pytest.mark.parametrize("content, lattice", [((-1,), ()), ((1,), [(2, 1)])], ids=["negative", "interval"])
def test_refused_with_too_few_letters(content, lattice):
    """Fewer letters than boxes ends the stream early, but never before the input is checked."""
    with pytest.raises(ValueError):
        list(enumerate_set_valued((2,), content, lattice))


def test_inner_outside_outer_is_refused_with_too_few_letters():
    with pytest.raises(ShapeFitError, match="not contained"):
        list(enumerate_set_valued((3,), (), inner=(1, 1)))


def test_zero_by_size_D_buch_builds_no_region(monkeypatch):
    """|lambda| + |mu| < |nu| leaves a box without a letter: 0, before the boxes are listed."""
    coefficients._memo.clear()

    def unreachable(nu, inner):
        raise AssertionError("the region was built for a count that is zero by size")

    monkeypatch.setattr(tableaux, "_region_rows", unreachable)
    assert coeff_D_buch((1,), (1,), (2, 1)) == 0
    assert coeff_D_buch((2, 1), (1,), (3, 2)) == 0


def test_zero_by_size_C_buch_builds_no_region(monkeypatch):
    """|nu| < |lambda| + |mu| leaves a box of the star without a letter: 0, before the boxes are listed."""
    coefficients._memo.clear()

    def unreachable(nu, inner):
        raise AssertionError("the region was built for a count that is zero by size")

    monkeypatch.setattr(tableaux, "_region_rows", unreachable)
    assert coefficients._memoized_count("C-buch", (1,), (1,), (1,)) == 0
    assert coefficients._memoized_count("C-buch", (2, 1), (1,), (3,)) == 0


def test_a_long_row_nests_once_per_box():
    # at two frames per box, 750 boxes would pass the default recursion limit of 1000
    assert sum(1 for _ in enumerate_set_valued((750,), (750,))) == 1
