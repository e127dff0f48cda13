"""Tableau value types, enumerators, reading words, and the lattice-word test."""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Iterator

from .shapes import (
    Box,
    Part,
    ShapeFitError,
    SkewShape,
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


def _region_rows(outer: Part, inner: Part) -> Iterator[tuple[int, int, int]]:
    """(row, first column, last column) for each nonempty region row."""
    for r, width in enumerate(outer, start=1):
        lo = row_length(inner, r) + 1
        if lo <= width:
            yield r, lo, width


def _validate_increasing(outer: Part, inner: Part, entries: dict[Box, int]) -> None:
    """Check an increasing filling of outer/inner; inner must lie inside outer.

    Every entry lies within its row's bounds and there are as many entries
    as region boxes, so the entries fill the region exactly; the region's box
    list is built only for the error message.
    """
    nrows, ninner = len(outer), len(inner)
    get = entries.get
    try:
        for (r, c), v in entries.items():
            if not (0 < r <= nrows and (inner[r - 1] if r <= ninner else 0) < c <= outer[r - 1]):
                raise _region_error(outer, inner, entries)
            if not isinstance(v, int) or v < 1:
                raise TableauError(f"entry at {(r, c)} must be a positive integer, got {v!r}")
            right = get((r, c + 1))
            if right is not None and right <= v:
                raise TableauError(f"row {r} not strictly increasing at column {c}")
            below = get((r + 1, c))
            if below is not None and below <= v:
                raise TableauError(f"column {c} not strictly increasing at row {r}")
    except TypeError:  # a position that is not an integer
        raise TableauError(f"cell positions must be integers, got {list(entries)}") from None
    if len(entries) != psize(outer) - psize(inner):
        raise _region_error(outer, inner, entries)


def _region_error(outer: Part, inner: Part, entries: dict[Box, int]) -> TableauError:
    region = [(r, c) for r, lo, hi in _region_rows(outer, inner) for c in range(lo, hi + 1)]
    return TableauError(f"entries fill {sorted(entries)} but the region of {outer}/{inner} is {region}")


@dataclass(frozen=True)
class IncreasingTableau:
    """A skew shape with a filling whose rows and columns strictly increase."""

    outer: Part
    inner: Part
    cells: Cells

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        object.__setattr__(self, "cells", tuple(sorted(map(tuple, self.cells))))
        if not contains(self.outer, self.inner):
            raise ShapeFitError(f"inner {self.inner} not contained in outer {self.outer}")
        entries = {(r, c): v for r, c, v in self.cells}
        if len(entries) != len(self.cells):
            raise TableauError("duplicate box in cells")
        _validate_increasing(self.outer, self.inner, entries)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def make(cls, outer: Iterable[int], inner: Iterable[int], entries: dict[Box, int]) -> "IncreasingTableau":
        return cls(partition(outer), partition(inner), tuple((r, c, v) for (r, c), v in entries.items()))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], inner: Iterable[int] = ()) -> "IncreasingTableau":
        """Build from per-row value lists covering the region left to right."""
        inner_p = partition(inner)
        rows = [list(row) for row in rows]
        outer = partition(tuple(row_length(inner_p, r) + len(row) for r, row in enumerate(rows, start=1)))
        cells = []
        for r, row in enumerate(rows, start=1):
            lo = row_length(inner_p, r) + 1
            cells.extend((r, lo + i, v) for i, v in enumerate(row))
        return cls(outer, inner_p, tuple(cells))

    @property
    def entries(self) -> dict[Box, int]:
        return dict(self._entries)  # type: ignore[attr-defined]

    def entry(self, box: Box) -> int:
        return self._entries[box]  # type: ignore[attr-defined]

    @property
    def shape(self) -> SkewShape:
        return SkewShape(self.outer, self.inner)

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def is_straight(self) -> bool:
        return self.inner == ()

    @property
    def values(self) -> frozenset[int]:
        return frozenset(v for _, _, v in self.cells)

    @property
    def max_entry(self) -> int:
        return max((v for _, _, v in self.cells), default=0)

    def rows(self) -> list[list[int]]:
        """Region values per row, left to right (no placeholders)."""
        ent = self._entries  # type: ignore[attr-defined]
        return [[ent[(r, c)] for c in range(lo, hi + 1)] for r, lo, hi in _region_rows(self.outer, self.inner)]


EMPTY_TABLEAU = IncreasingTableau((), (), ())


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
    numeric part must itself be an increasing tableau.
    """

    outer: Part
    inner: Part
    cells: Cells
    x_marks: tuple[Box, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        object.__setattr__(self, "cells", tuple(sorted(tuple(cell) for cell in self.cells)))
        object.__setattr__(self, "x_marks", tuple(sorted(self.x_marks)))
        eligible = set(eligible_x_boxes(SkewShape(self.outer, self.inner)))
        marks = set(self.x_marks)
        if len(marks) != len(self.x_marks):
            raise TableauError("duplicate X mark")
        if not marks <= eligible:
            raise TableauError(f"X marks {sorted(marks - eligible)} are not outer corners of the region")
        if marks & {(r, c) for r, c, _ in self.cells}:
            raise TableauError("a box carries both a number and an X")
        reduced = remove_boxes(self.outer, marks)
        entries = {(r, c): v for r, c, v in self.cells}
        _validate_increasing(reduced, self.inner, entries)

    def erase_x(self) -> IncreasingTableau:
        """Drop the marked boxes, keeping the numeric part."""
        return IncreasingTableau(remove_boxes(self.outer, self.x_marks), self.inner, self.cells)

    @property
    def values(self) -> frozenset[int]:
        return frozenset(v for _, _, v in self.cells)


def eligible_x_boxes(shape: SkewShape) -> list[Box]:
    """Removable corners of the outer shape that lie inside the skew region."""
    return [b for b in removable_corners(shape.outer) if b in shape]


@dataclass(frozen=True)
class SetValuedTableau:
    """Straight shape whose boxes hold nonempty sets; weak rows, strict columns."""

    shape: Part
    cells: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", partition(self.shape))
        cells = tuple(sorted((r, c, tuple(sorted(vals))) for r, c, vals in self.cells))
        object.__setattr__(self, "cells", cells)
        region = {(r, c) for r, width in enumerate(self.shape, start=1) for c in range(1, width + 1)}
        sets = {(r, c): vals for r, c, vals in cells}
        if set(sets) != region or len(sets) != len(cells):
            raise TableauError(f"cells do not fill shape {self.shape} exactly once")
        for (r, c), vals in sets.items():
            if not vals or any(v < 1 for v in vals):
                raise TableauError(f"box {(r, c)} must hold a nonempty set of positive integers")
            right = sets.get((r, c + 1))
            if right is not None and max(vals) > min(right):
                raise TableauError(f"row {r} not weakly increasing at column {c}")
            below = sets.get((r + 1, c))
            if below is not None and max(vals) >= min(below):
                raise TableauError(f"column {c} not strictly increasing at row {r}")

    def box_set(self, box: Box) -> tuple[int, ...]:
        return next(vals for r, c, vals in self.cells if (r, c) == box)


def reading_word(t: SetValuedTableau) -> Word:
    """Rows bottom to top, boxes left to right, set elements increasing."""
    word: list[int] = []
    nrows = len(t.shape)
    sets = {(r, c): vals for r, c, vals in t.cells}
    for r in range(nrows, 0, -1):
        for c in range(1, t.shape[r - 1] + 1):
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


def _column_depths(outer: Part, inner: Part, boxes: list[Box]) -> dict[Box, int]:
    """Number of region boxes strictly below each box in its column."""
    depths = {}
    for r, c in boxes:
        d = 0
        rr = r + 1
        while rr <= len(outer) and row_length(inner, rr) < c <= outer[rr - 1]:
            d += 1
            rr += 1
        depths[(r, c)] = d
    return depths


def iter_increasing_cells(
    outer: Part, inner: Part, alphabet: Iterable[int], surjective: bool = False
) -> Iterator[Cells]:
    """Backtracking core of enumerate_increasing, yielding raw cell tuples.

    Box order is row-major; candidate values ascend, so the stream is
    lexicographic by box scan and duplicate-free.  The backtracker is
    iterative and works on alphabet indices in per-box arrays: the index of
    each box's left and upper neighbour in the region, the highest index that
    still leaves room for the strictly larger values of its row and column
    tails, and a count of the letters not yet used when the filling must be
    surjective.
    """
    outer, inner = partition(outer), partition(inner)
    boxes = [(r, c) for r, lo, hi in _region_rows(outer, inner) for c in range(lo, hi + 1)]
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
    left = [position.get((r, c - 1), -1) for r, c in boxes]
    up = [position.get((r - 1, c), -1) for r, c in boxes]
    depths = _column_depths(outer, inner, boxes)
    top = [m - 1 - max(outer[r - 1] - c, depths[(r, c)]) for r, c in boxes]
    table = [[(r, c, v) for v in alpha] for r, c in boxes]  # box i holding alpha[k]

    val = [0] * n  # alphabet index held by each box
    used = [0] * m
    # letters still missing; below zero when any filling will do
    missing = m if surjective else 0
    last = n - 1
    i, k = 0, 0  # the box being filled and its next candidate index
    while True:
        if k > top[i]:  # no candidate left: back to the previous box
            i -= 1
            if i < 0:
                return
            k = val[i]
            used[k] -= 1
            if not used[k]:
                missing += 1
            k += 1
            continue
        val[i] = k
        if not used[k]:
            missing -= 1
        used[k] += 1
        if missing <= last - i:  # the boxes left can still take every missing letter
            if i == last:
                yield tuple(map(getitem, table, val))
            else:
                i += 1
                a, b = left[i], up[i]
                k = max(val[a] + 1 if a >= 0 else 0, val[b] + 1 if b >= 0 else 0)
                continue
        used[k] -= 1
        if not used[k]:
            missing += 1
        k += 1


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


def enumerate_set_valued(nu: Part, content: tuple[int, ...]) -> Iterator[SetValuedTableau]:
    """All set-valued tableaux of straight shape nu where letter i fills content[i-1] boxes."""
    nu = partition(nu)
    boxes = [(r, c) for r, width in enumerate(nu, start=1) for c in range(1, width + 1)]
    n = len(boxes)
    letters = len(content)
    total = sum(content)
    if total < n:
        return
    if n == 0:
        if total == 0:
            yield SetValuedTableau((), ())
        return

    remaining = list(content)
    chosen: dict[Box, tuple[int, ...]] = {}

    def candidate_sets(lower: int, strict_lower: int) -> Iterator[tuple[int, ...]]:
        floor = max(lower, strict_lower + 1)
        avail = [i for i in range(floor, letters + 1) if remaining[i - 1] > 0]

        def extend(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
            if prefix:
                yield prefix
            for j in range(start, len(avail)):
                yield from extend(prefix + (avail[j],), j + 1)

        yield from extend((), 0)

    def rec(idx: int, left_total: int) -> Iterator[SetValuedTableau]:
        if idx == n:
            if left_total == 0:
                yield SetValuedTableau(nu, tuple((r, c, vals) for (r, c), vals in chosen.items()))
            return
        r, c = boxes[idx]
        left = chosen.get((r, c - 1))
        above = chosen.get((r - 1, c))
        lower = max(left) if left else 1
        strict_lower = max(above) if above else 0
        for vals in candidate_sets(lower, strict_lower):
            k = len(vals)
            if left_total - k < n - idx - 1:
                continue
            chosen[(r, c)] = vals
            for v in vals:
                remaining[v - 1] -= 1
            yield from rec(idx + 1, left_total - k)
            for v in vals:
                remaining[v - 1] += 1
            del chosen[(r, c)]

    yield from rec(0, total)
