"""Tableau value types, enumerators, reading words, and the lattice-word test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .shapes import (
    Box,
    Part,
    ShapeFitError,
    SkewShape,
    contains,
    partition,
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
    region = [(r, c) for r, lo, hi in _region_rows(outer, inner) for c in range(lo, hi + 1)]
    if set(entries) != set(region):
        raise TableauError(
            f"entries fill {sorted(entries)} but the region of {outer}/{inner} is {region}"
        )
    for (r, c), v in entries.items():
        if not isinstance(v, int) or v < 1:
            raise TableauError(f"entry at {(r, c)} must be a positive integer, got {v!r}")
        right = entries.get((r, c + 1))
        if right is not None and right <= v:
            raise TableauError(f"row {r} not strictly increasing at column {c}")
        below = entries.get((r + 1, c))
        if below is not None and below <= v:
            raise TableauError(f"column {c} not strictly increasing at row {r}")


@dataclass(frozen=True)
class IncreasingTableau:
    """A skew shape with a filling whose rows and columns strictly increase."""

    outer: Part
    inner: Part
    cells: Cells

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        object.__setattr__(self, "cells", tuple(sorted(tuple(cell) for cell in self.cells)))
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
    lexicographic by box scan and duplicate-free.
    """
    outer, inner = partition(outer), partition(inner)
    boxes = [(r, c) for r, lo, hi in _region_rows(outer, inner) for c in range(lo, hi + 1)]
    alpha = sorted(set(alphabet))
    n = len(boxes)
    if n == 0:
        if not surjective or not alpha:
            yield ()
        return
    if not alpha or (surjective and len(alpha) > n):
        return

    in_region = set(boxes)
    depths = _column_depths(outer, inner, boxes)
    tails = []  # (right count, below count) per box
    for r, c in boxes:
        tails.append((outer[r - 1] - c, depths[(r, c)]))
    greater = {v: len(alpha) - 1 - i for i, v in enumerate(alpha)}

    assignment: dict[Box, int] = {}
    used: dict[int, int] = {v: 0 for v in alpha}
    missing = len(alpha) if surjective else 0

    def feasible(idx: int) -> bool:
        return not surjective or missing <= n - idx

    def rec(idx: int) -> Iterator[Cells]:
        nonlocal missing
        if idx == n:
            yield tuple((r, c, assignment[(r, c)]) for r, c in boxes)
            return
        r, c = boxes[idx]
        lo = 0
        left = assignment.get((r, c - 1)) if (r, c - 1) in in_region else None
        up = assignment.get((r - 1, c)) if (r - 1, c) in in_region else None
        if left is not None:
            lo = max(lo, left)
        if up is not None:
            lo = max(lo, up)
        right_need, below_need = tails[idx]
        for v in alpha:
            if v <= lo:
                continue
            if greater[v] < right_need or greater[v] < below_need:
                break
            assignment[(r, c)] = v
            first_use = used[v] == 0
            used[v] += 1
            if first_use and surjective:
                missing -= 1
            if feasible(idx + 1):
                yield from rec(idx + 1)
            used[v] -= 1
            if first_use and surjective:
                missing += 1
            del assignment[(r, c)]

    yield from rec(0)


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
