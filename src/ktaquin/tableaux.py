"""Tableau value types, enumerators, reading words, and the lattice-word test.

Regions are walked by ``shapes._region_rows`` only.  The set-valued type and
``iter_increasing_cells`` take a region's normal form, containment check and
box list from ``shapes.SkewShape``.  ``IncreasingTableau._check``, which every
slide output runs, and ``_set_valued_cells``, which mostly ends at its size
test, normalise and check containment directly, building no SkewShape.
``iter_increasing_cells`` and ``_set_valued_cells`` stream raw cells;
``enumerate_increasing`` and ``enumerate_set_valued`` build a tableau from each.
Both backtrackers recurse one generator frame per box, so the depth they need
is the region's box count: under Python's default recursion limit of 1000, a
region of more than about 990 boxes raises RecursionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Iterator

from .shapes import (
    Box,
    Part,
    ShapeFitError,
    SkewShape,
    _region_rows,
    contains,
    partition,
    psize,
    remove_boxes,
    removable_corners,
    row_length,
)

Cells = tuple[tuple[int, int, int], ...]
Word = tuple[int, ...]


class TableauError(ValueError):
    """A filling violates its tableau type's invariants."""


def _validate_increasing(outer: Part, inner: Part, entries: dict[Box, int]) -> None:
    """Check an increasing filling of outer/inner; inner must lie inside outer.

    Every entry lies within its row's bounds and there are as many entries
    as region boxes, so the entries fill the region exactly; the region's box
    list is built only for the error message.
    """
    nrows, ninner = len(outer), len(inner)
    get = entries.get
    for (r, c), v in entries.items():
        if not (0 < r <= nrows and (inner[r - 1] if r <= ninner else 0) < c <= outer[r - 1]):
            raise _region_error(outer, inner, entries)
        right = get((r, c + 1))
        if right is not None and right <= v:
            raise TableauError(f"row {r} not strictly increasing at column {c}")
        below = get((r + 1, c))
        if below is not None and below <= v:
            raise TableauError(f"column {c} not strictly increasing at row {r}")
    if len(entries) != psize(outer) - psize(inner):
        raise _region_error(outer, inner, entries)


def _region_error(outer: Part, inner: Part, entries: dict[Box, int]) -> TableauError:
    region = SkewShape(outer, inner).boxes()
    return TableauError(f"entries fill {sorted(entries)} but the region of {outer}/{inner} is {region}")


def _cell_error(cells, set_valued: bool = False) -> TableauError:
    """The error for the first cell that is not a triple, or has a position or label of the wrong type.

    Only a build whose cells failed to sort, unpack or pass the type test runs
    this scan, so well-formed cells pay nothing for it.
    """
    try:
        cells = list(cells)
    except TypeError:
        return TableauError(f"cells must be (row, column, label) triples, got {cells!r}")
    for cell in cells:
        try:
            r, c, v = cell
        except (TypeError, ValueError):
            return TableauError(f"cell {cell!r} must be a (row, column, label) triple")
        if type(r) is not int or type(c) is not int:
            return TableauError(f"cell positions must be integers, got {(r, c)!r}")
        if set_valued:
            if not (isinstance(v, Iterable) and all(type(x) is int for x in v)):
                return TableauError(f"box {(r, c)} must hold a nonempty set of distinct positive integers")
        elif type(v) is not int or v < 1:  # bool is a subclass of int
            return TableauError(f"entry at {(r, c)} must be a positive integer, got {v!r}")
    return TableauError(f"cells must be (row, column, label) triples of integers, got {cells!r}")


@dataclass(frozen=True)
class IncreasingTableau:
    """A skew shape with a filling whose rows and columns strictly increase."""

    outer: Part
    inner: Part
    cells: Cells

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        try:
            cells = tuple(sorted(map(tuple, self.cells)))
            entries = {(r, c): v for r, c, v in cells}
        except (TypeError, ValueError):  # a cell that is not a triple, or of incomparable types
            raise _cell_error(self.cells) from None
        object.__setattr__(self, "cells", cells)
        if len(entries) != len(cells):
            raise TableauError("duplicate box in cells")
        # a bool is refused: it is a subclass of int
        if not all(type(r) is type(c) is type(v) is int and v > 0 for r, c, v in cells):
            raise _cell_error(cells)
        self._check(entries)

    def _check(self, entries: dict[Box, int]) -> None:
        """The check every build runs: inner inside outer, entries an increasing filling."""
        if not contains(self.outer, self.inner):
            raise ShapeFitError(f"inner {self.inner} not contained in outer {self.outer}")
        _validate_increasing(self.outer, self.inner, entries)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def make(cls, outer: Iterable[int], inner: Iterable[int], entries: dict[Box, int]) -> "IncreasingTableau":
        return cls(outer, inner, tuple((r, c, v) for (r, c), v in entries.items()))

    @classmethod
    def _from_kernel(cls, outer: Part, inner: Part, entries: dict[Box, int]) -> "IncreasingTableau":
        """Build a slide kernel's output, which owns entries from here on.

        outer and inner are in normal form, as ``add_boxes`` and ``remove_boxes``
        return them, a dict holds each box once, and every position and label
        came from a built tableau; so normalisation and type checks are skipped,
        and ``_check``, the theorem's check, runs as in every build.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "outer", outer)
        object.__setattr__(t, "inner", inner)
        object.__setattr__(t, "cells", tuple(sorted([(r, c, v) for (r, c), v in entries.items()])))
        t._check(entries)
        return t

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], inner: Iterable[int] = ()) -> "IncreasingTableau":
        """Build from per-row value lists covering the region left to right."""
        inner_p = partition(inner)
        rows = [list(row) for row in rows]
        outer = tuple(row_length(inner_p, r) + len(row) for r, row in enumerate(rows, start=1))
        region = _region_rows(outer, inner_p)
        cells = tuple((r, c, v) for r, lo, _ in region for c, v in enumerate(rows[r - 1], start=lo))
        return cls(outer, inner_p, cells)

    @property
    def entries(self) -> dict[Box, int]:
        return dict(self._entries)  # type: ignore[attr-defined]

    @property
    def is_straight(self) -> bool:
        return self.inner == ()

    @property
    def values(self) -> frozenset[int]:
        return frozenset(v for _, _, v in self.cells)

    def rows(self) -> list[list[int]]:
        """Region values per row, left to right (no placeholders)."""
        ent = self._entries  # type: ignore[attr-defined]
        return [[ent[(r, c)] for c in range(lo, hi + 1)] for r, lo, hi in _region_rows(self.outer, self.inner)]


def superstandard(mu: Part) -> IncreasingTableau:
    """Straight tableau whose row r holds the next run of consecutive labels."""
    mu = partition(mu)
    cells = []
    start = 1
    for r, width in enumerate(mu, start=1):
        cells.extend((r, c, start + c - 1) for c in range(1, width + 1))
        start += width
    return IncreasingTableau(mu, (), tuple(cells))


def is_superstandard(t: IncreasingTableau) -> bool:
    return t.is_straight and t == superstandard(t.outer)


def column_superstandard(mu: Part) -> IncreasingTableau:
    """Straight tableau whose columns hold consecutive runs, left to right."""
    mu = partition(mu)
    cells = []
    start = 1
    width = mu[0] if mu else 0
    for c in range(1, width + 1):
        height = sum(1 for p in mu if p >= c)
        cells.extend((r, c, start + r - 1) for r in range(1, height + 1))
        start += height
    return IncreasingTableau(mu, (), tuple(cells))


@dataclass(frozen=True)
class AugmentedTableau:
    """Increasing filling with X marks on some outer corners of the region.

    The marks behave as infinity for the strictness condition, so they may only
    occupy removable corners of the outer shape that lie inside the region; the
    numeric part is the increasing tableau of the region minus the marks, built
    and validated with the marked tableau and returned by ``erase_x``.
    """

    outer: Part
    inner: Part
    cells: Cells
    x_marks: tuple[Box, ...]

    def __post_init__(self) -> None:
        shape = SkewShape(self.outer, self.inner)
        try:
            object.__setattr__(self, "x_marks", tuple(sorted(self.x_marks)))
            marks = set(self.x_marks)
            ints = all(type(r) is int and type(c) is int for r, c in self.x_marks)
        except (TypeError, ValueError):  # marks of incomparable or unhashable types, or not pairs
            ints = False
        if not ints:  # a bool is an int too, but its JSON form would not parse back
            raise TableauError(f"X marks must be (row, column) pairs of ints, got {self.x_marks!r}")
        try:
            numbered = {(r, c) for r, c, _ in self.cells}
        except (TypeError, ValueError):
            raise _cell_error(self.cells) from None
        if len(marks) != len(self.x_marks):
            raise TableauError("duplicate X mark")
        eligible = set(eligible_x_boxes(shape))
        if not marks <= eligible:
            raise TableauError(f"X marks {sorted(marks - eligible)} are not outer corners of the region")
        if marks & numbered:
            raise TableauError("a box carries both a number and an X")
        numeric = IncreasingTableau(remove_boxes(shape.outer, marks), shape.inner, self.cells)
        object.__setattr__(self, "outer", shape.outer)
        object.__setattr__(self, "inner", shape.inner)
        object.__setattr__(self, "cells", numeric.cells)
        object.__setattr__(self, "_numeric", numeric)

    def erase_x(self) -> IncreasingTableau:
        """Drop the marked boxes, keeping the numeric part."""
        return self._numeric  # type: ignore[attr-defined]


def eligible_x_boxes(shape: SkewShape) -> list[Box]:
    """Removable corners of the outer shape that lie inside the skew region."""
    return [b for b in removable_corners(shape.outer) if b in shape]


@dataclass(frozen=True)
class SetValuedTableau:
    """A skew shape whose boxes hold nonempty sets; weak rows, strict columns."""

    outer: Part
    cells: tuple[tuple[int, int, tuple[int, ...]], ...]
    inner: Part = ()

    def __post_init__(self) -> None:
        shape = SkewShape(self.outer, self.inner)
        object.__setattr__(self, "outer", shape.outer)
        object.__setattr__(self, "inner", shape.inner)
        try:
            cells = tuple(sorted((r, c, tuple(sorted(vals))) for r, c, vals in self.cells))
            sets = {(r, c): vals for r, c, vals in cells}
        except (TypeError, ValueError):  # a cell that is not a triple, or of incomparable types
            raise _cell_error(self.cells, set_valued=True) from None
        object.__setattr__(self, "cells", cells)
        if set(sets) != set(shape.boxes()) or len(sets) != len(cells):
            raise TableauError(f"cells do not fill {self.outer}/{self.inner} exactly once")
        for (r, c), vals in sets.items():
            # bool is a subclass of int; the letters are sorted, so vals[0] is the least
            if type(r) is not int or type(c) is not int:
                raise _cell_error(cells, set_valued=True)
            ints = vals and all(type(v) is int for v in vals)
            if not ints or vals[0] < 1 or len(set(vals)) < len(vals):
                raise TableauError(f"box {(r, c)} must hold a nonempty set of distinct positive integers")
        for (r, c), vals in sets.items():  # every set holds ints now, so neighbours compare
            right = sets.get((r, c + 1))
            if right is not None and max(vals) > min(right):
                raise TableauError(f"row {r} not weakly increasing at column {c}")
            below = sets.get((r + 1, c))
            if below is not None and max(vals) >= min(below):
                raise TableauError(f"column {c} not strictly increasing at row {r}")


def reading_word(t: SetValuedTableau) -> Word:
    """Rows bottom to top, boxes left to right, set elements increasing."""
    word: list[int] = []
    sets = {(r, c): vals for r, c, vals in t.cells}
    for r, lo, hi in reversed(list(_region_rows(t.outer, t.inner))):
        for c in range(lo, hi + 1):
            word.extend(sets[(r, c)])
    return tuple(word)


def row_reading_word(t: IncreasingTableau) -> Word:
    """Rows bottom to top, each left to right; straight shapes only."""
    if not t.is_straight:
        raise TableauError("row reading word is defined for straight shapes only")
    rows = t.rows()
    word: list[int] = []
    for row in reversed(rows):
        word.extend(row)
    return tuple(word)


def is_partial_reverse_lattice(word: Iterable[int], interval: tuple[int, int]) -> bool:
    """Reading right to left, each j in (a, b] never outnumbers j-1 on any suffix.

    The inequality is weak; letters outside [a, b] are ignored.
    """
    a, b = interval
    if a > b:
        raise ValueError(f"need a <= b, got {interval}")
    counts: dict[int, int] = {}
    for x in reversed(tuple(word)):
        if a <= x <= b:
            counts[x] = counts.get(x, 0) + 1
            if x > a and counts[x] > counts.get(x - 1, 0):
                return False
    return True


def iter_increasing_cells(
    outer: Part, inner: Part, alphabet: Iterable[int], surjective: bool = False
) -> Iterator[Cells]:
    """Backtracking core of enumerate_increasing, yielding raw cell tuples.

    Box order is row-major; candidate values ascend, so the stream is
    lexicographic by box scan and duplicate-free.  The backtracker recurses
    one frame per box, as ``_set_valued_cells`` does, and works on alphabet
    indices in per-box arrays: the index of each box's left and upper
    neighbour in the region, the highest index that still leaves room for the
    strictly larger values of its row and column tails, and a count of the
    letters not yet used when the filling must be surjective.  Its depth is
    the region's box count, so a region of more than about 990 boxes raises
    RecursionError under Python's default recursion limit of 1000.
    """
    shape = SkewShape(outer, inner)
    outer, boxes = shape.outer, shape.boxes()
    alpha = sorted(set(alphabet))
    n = len(boxes)
    if n == 0:
        if not surjective or not alpha:
            yield ()
        return
    if alpha and alpha[0] < 1:  # entries are positive: such a letter is never placed
        if surjective:
            return
        alpha = [v for v in alpha if v >= 1]
    m = len(alpha)
    if not alpha or (surjective and m > n):
        return

    position = {box: i for i, box in enumerate(boxes)}
    # a box with no left or upper neighbour in the region points at slot n
    left = [position.get((r, c - 1), n) for r, c in boxes]
    up = [position.get((r - 1, c), n) for r, c in boxes]
    # no row below a region box is in inner at its column, so the column's
    # region boxes under (r, c) number its outer height less r
    height = [sum(1 for p in outer if p >= c) for c in range(1, outer[0] + 1)]
    top = [m - 1 - max(outer[r - 1] - c, height[c - 1] - r) for r, c in boxes]
    table = [[(r, c, v) for v in alpha] for r, c in boxes]  # box i holding alpha[k]

    val = [0] * n + [-1]  # alphabet index held by each box; slot n starts a box at index 0
    used = [0] * m
    last = n - 1

    def fill(i: int, missing: int) -> Iterator[Cells]:
        """Fill boxes i.. given the letters still missing, below zero when any filling will do."""
        for k in range(max(val[left[i]], val[up[i]]) + 1, top[i] + 1):
            val[i] = k
            now = missing - (not used[k])
            if now <= last - i:  # the boxes left can still take every missing letter
                if i == last:
                    yield tuple(map(getitem, table, val))
                else:
                    used[k] += 1
                    yield from fill(i + 1, now)
                    used[k] -= 1

    yield from fill(0, m if surjective else 0)


def enumerate_increasing(
    shape: SkewShape, alphabet: Iterable[int], surjective: bool = False
) -> Iterator[IncreasingTableau]:
    """All increasing fillings of the shape from the alphabet, lexicographically.

    With surjective=True only fillings whose value set equals the alphabet are
    produced.
    """
    for cells in iter_increasing_cells(shape.outer, shape.inner, alphabet, surjective):
        yield IncreasingTableau(shape.outer, shape.inner, cells)


def enumerate_augmented(shape: SkewShape, alphabet: Iterable[int]) -> Iterator[AugmentedTableau]:
    """All X-augmented tableaux whose numeric part uses exactly the alphabet."""
    alpha = sorted(set(alphabet))
    eligible = eligible_x_boxes(shape)
    for mask in range(1 << len(eligible)):
        marks = tuple(b for i, b in enumerate(eligible) if mask >> i & 1)
        reduced = remove_boxes(shape.outer, marks)
        for cells in iter_increasing_cells(reduced, shape.inner, alpha, surjective=True):
            yield AugmentedTableau(shape.outer, shape.inner, cells, marks)


def enumerate_set_valued(
    nu: Part, content: tuple[int, ...], lattice: Iterable[tuple[int, int]] = (), inner: Part = ()
) -> Iterator[SetValuedTableau]:
    """Set-valued tableaux of shape nu/inner where letter i fills content[i-1] boxes.

    With ``lattice``, only those whose reading word is a reverse lattice word
    on every interval (a, b) in it, as ``is_partial_reverse_lattice`` tests.
    Each filling of ``_set_valued_cells`` is built and validated as a
    ``SetValuedTableau``; the counts of ``coefficients`` read that stream
    directly and build none.
    """
    nu, inner = partition(nu), partition(inner)
    for cells in _set_valued_cells(nu, content, lattice, inner):
        yield SetValuedTableau(nu, cells, inner)


def _set_valued_cells(
    nu: Part, content: tuple[int, ...], lattice: Iterable[tuple[int, int]] = (), inner: Part = ()
) -> Iterator[tuple[tuple[int, int, tuple[int, ...]], ...]]:
    """Backtracking core of ``enumerate_set_valued``, yielding raw cell tuples.

    Boxes are filled in reverse reading order: rows top to bottom, each row
    right to left, each set largest letter first.  So the lattice test runs on
    every prefix as it grows, and the box to the right and the box above are
    already filled when they lie in the region: a set's largest letter is at
    most the smallest letter to its right, and its smallest exceeds the
    largest letter above.  The cells come in that box order, each set largest
    letter first.
    """
    # no SkewShape here: most Buch counts end at the size test below, and one
    # object per call cost ktheory-checks 4% of its items/s (2-vCPU Xeon)
    nu, inner = partition(nu), partition(inner)
    if not contains(nu, inner):
        raise ShapeFitError(f"inner {inner} not contained in outer {nu}")
    if any(m < 0 for m in content):
        raise ValueError(f"content entries must be nonnegative, got {tuple(content)}")
    letters = len(content)
    checked = [False] * (letters + 1)  # letter x may never outnumber x - 1
    for a, b in lattice:
        if a > b:
            raise ValueError(f"need a <= b, got {(a, b)}")
        for x in range(max(a + 1, 1), min(b, letters) + 1):
            checked[x] = True
    n, total = psize(nu) - psize(inner), sum(content)
    if total < n:  # no filling; most zero D counts end here, before the region is listed
        return
    boxes = [(r, c) for r, lo, hi in _region_rows(nu, inner) for c in range(hi, lo - 1, -1)]
    index = {box: i for i, box in enumerate(boxes)}
    right = [index.get((r, c + 1)) for r, c in boxes]
    above = [index.get((r - 1, c)) for r, c in boxes]
    cap = [0, *content]
    seen = [0] * (letters + 1)  # copies of each letter placed so far
    sets: list[tuple[int, ...]] = [()] * n  # largest letter first

    def choose(vals: tuple[int, ...], top: int, floor: int, room: int) -> Iterator[tuple[int, ...]]:
        """vals extended by 1..room letters from (floor, top], largest first; seen counts them."""
        for x in range(top, floor, -1):
            if seen[x] < cap[x] and not (checked[x] and seen[x] >= seen[x - 1]):
                seen[x] += 1
                yield vals + (x,)
                if room > 1:
                    yield from choose(vals + (x,), x - 1, floor, room - 1)
                seen[x] -= 1

    def fill(i: int, remaining: int) -> Iterator[tuple[tuple[int, int, tuple[int, ...]], ...]]:
        """Fill boxes i.. with the remaining letters; one frame per box, so n boxes nest n deep."""
        if i == n:
            if not remaining:
                yield tuple((r, c, s) for (r, c), s in zip(boxes, sets))
            return
        top = letters if right[i] is None else sets[right[i]][-1]
        floor = 0 if above[i] is None else sets[above[i]][0]
        for vals in choose((), top, floor, remaining - (n - i - 1)):
            sets[i] = vals
            yield from fill(i + 1, remaining - len(vals))

    yield from fill(0, total)
