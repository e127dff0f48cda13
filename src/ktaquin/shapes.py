"""Integer partitions, skew shapes, ambient rectangles, and derived shape constructions.

Partitions are plain tuples of weakly decreasing positive integers, stored without
trailing zeros so there is a single canonical form.  Boxes are 1-based
(row, column) matrix coordinates, row 1 at the top.

Public functions normalise their shape arguments through ``partition``; the
private ones (``_star``, ``_dagger``, ``_region_rows``) take them in normal form.

``_region_rows`` is the one walk of a skew region, row by row.  ``SkewShape``
gives the region's normal form, its containment check and its box list (built
on that walk), which ``tableaux`` takes instead of deriving them.

The engine's one memo, ``_memo``, lives here, below every module that reads
it; ``coefficients`` documents its keys.  This module adds ``("partition", t)``:
the normal form of the int tuple ``t``, stored only for accepted inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

Part = tuple[int, ...]
Box = tuple[int, int]

_memo: dict[tuple, object] = {}


def _memoized(key: tuple, compute: Callable, *args):
    """The memo's one lookup: ``compute(*args)`` runs only when ``key`` is absent."""
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = compute(*args)
    return value


class ShapeFitError(ValueError):
    """A shape violates a containment or validity precondition."""


def partition(parts: Iterable[int]) -> Part:
    """Normalize an iterable of row lengths into a canonical partition tuple.

    Trailing zeros are dropped; anything not weakly decreasing or negative is
    rejected.  The result is memoized under the converted int tuple, and a
    tuple of ints seen before is served by that one lookup; everything else
    (lists, generators, tuple subclasses, non-int rows, new shapes) is
    converted with ``int()`` first.  A rejected shape is never stored.
    """
    if type(parts) is tuple:
        try:
            hit = _memo.get(("partition", parts))
            # rows equal to ints but of another type (1.0, 1+0j) go on to int()
            if hit is not None and type(sum(parts)) is int:
                return hit
        except TypeError:  # an unhashable row: int() raises the cold message
            pass
    t = tuple(map(int, parts))
    return _memoized(("partition", t), _normalise, t)


def _normalise(t: Part) -> Part:
    """``partition`` of an int tuple, without the memo."""
    if t and t[-1] <= 0:  # only then can there be trailing zeros
        while t and t[-1] == 0:
            t = t[:-1]
    for a, b in zip(t, t[1:]):
        if b > a:
            raise ShapeFitError(f"rows must be weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ShapeFitError(f"rows must be nonnegative: {t}")
    return t


def psize(lam: Part) -> int:
    return sum(lam)


def contains(outer: Part, inner: Part) -> bool:
    """Componentwise containment, padding with zeros."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def row_length(lam: Part, r: int) -> int:
    """Length of row r (1-based), zero beyond the last row."""
    return lam[r - 1] if 1 <= r <= len(lam) else 0


def boxes_of(lam: Part) -> list[Box]:
    return [(r, c) for r, width in enumerate(lam, start=1) for c in range(1, width + 1)]


def removable_corners(lam: Part) -> list[Box]:
    """Boxes (r, c) of lam with no box below or to the right (maximally southeast)."""
    out = []
    for r, width in enumerate(lam, start=1):
        if width > 0 and row_length(lam, r + 1) < width:
            out.append((r, width))
    return out


def addable_corners(lam: Part, *, max_rows: int, max_cols: int) -> list[Box]:
    """Boxes that can be appended to lam keeping a Young diagram, within the bounds."""
    out = []
    for r in range(1, min(len(lam) + 1, max_rows) + 1):
        c = row_length(lam, r) + 1
        if c > max_cols:
            continue
        if r == 1 or row_length(lam, r - 1) >= c:
            out.append((r, c))
    return out


def remove_boxes(lam: Part, boxes: Iterable[Box]) -> Part:
    """Remove a set of removable corners (distinct rows) from a partition."""
    rows = list(lam)
    seen_rows = set()
    for r, c in boxes:
        if r in seen_rows:
            raise ShapeFitError(f"two removed boxes share row {r}")
        seen_rows.add(r)
        if not (1 <= r <= len(rows)) or rows[r - 1] != c:
            raise ShapeFitError(f"box {(r, c)} is not a removable corner of {lam}")
        rows[r - 1] -= 1
    # only a shortened row can now be shorter than the row below it
    for r in seen_rows:
        if r < len(rows) and rows[r - 1] < rows[r]:
            raise ShapeFitError(f"rows must be weakly decreasing: {tuple(rows)}")
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def add_boxes(lam: Part, boxes: Iterable[Box]) -> Part:
    """Add a set of addable corners (distinct rows) to a partition."""
    rows = list(lam)
    seen_rows = set()
    for r, c in sorted(boxes):
        if r in seen_rows:
            raise ShapeFitError(f"two added boxes share row {r}")
        seen_rows.add(r)
        while len(rows) < r:
            rows.append(0)
        if rows[r - 1] + 1 != c:
            raise ShapeFitError(f"box {(r, c)} is not addable to {lam}")
        rows[r - 1] += 1
    # only a lengthened row can now be longer than the row above it
    for r in seen_rows:
        if r > 1 and rows[r - 2] < rows[r - 1]:
            raise ShapeFitError(f"rows must be weakly decreasing: {tuple(rows)}")
    return tuple(rows)


def partitions_in_rectangle(rows: int, cols: int) -> Iterator[Part]:
    """All partitions fitting a rows x cols rectangle, lexicographically descending per row."""

    def rec(prev: int, left: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if left == 0:
            return
        for first in range(min(prev, cols), 0, -1):
            for rest in rec(first, left - 1):
                yield (first,) + rest

    yield from rec(cols, rows)


def partitions_of(n: int, max_rows: int | None = None, max_cols: int | None = None) -> Iterator[Part]:
    """All partitions of n, optionally bounded, in lexicographically descending order."""

    def rec(remaining: int, prev: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(prev, remaining), 0, -1):
            for rest in rec(remaining - first, first, rows_left - 1):
                yield (first,) + rest

    cap = n if max_cols is None else min(n, max_cols)
    yield from rec(n, cap, n if max_rows is None else max_rows)


def _require_fit(lam: Part, rows: int, cols: int) -> None:
    """Refuse a normal-form lam that does not fit the rows x cols rectangle."""
    if len(lam) > rows or (lam and lam[0] > cols):
        raise ShapeFitError(f"{lam} does not fit the {rows}x{cols} rectangle")


@dataclass(frozen=True)
class AmbientRectangle:
    """The k x (n-k) rectangle every diagram of a Grassmannian sits in."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not (0 < self.k < self.n):
            raise ShapeFitError(f"need 0 < k < n, got k={self.k}, n={self.n}")

    @property
    def rows(self) -> int:
        return self.k

    @property
    def cols(self) -> int:
        return self.n - self.k

    def require_fit(self, lam: Part) -> None:
        _require_fit(lam, self.k, self.n - self.k)

    @property
    def full(self) -> Part:
        return (self.cols,) * self.rows


def _region_rows(outer: Part, inner: Part) -> Iterator[tuple[int, int, int]]:
    """(row, first column, last column) of each nonempty row of outer/inner: the one region walk."""
    for r, width in enumerate(outer, start=1):
        lo = row_length(inner, r) + 1
        if lo <= width:
            yield r, lo, width


@dataclass(frozen=True)
class SkewShape:
    """A skew region outer/inner with inner contained in outer."""

    outer: Part
    inner: Part

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        if not contains(self.outer, self.inner):
            raise ShapeFitError(f"inner {self.inner} not contained in outer {self.outer}")

    @classmethod
    def straight(cls, lam: Iterable[int]) -> "SkewShape":
        return cls(lam, ())

    def boxes(self) -> list[Box]:
        """Region boxes in row-major order."""
        return [(r, c) for r, lo, hi in _region_rows(self.outer, self.inner) for c in range(lo, hi + 1)]

    def __contains__(self, box: Box) -> bool:
        r, c = box
        return 1 <= r <= len(self.outer) and row_length(self.inner, r) < c <= self.outer[r - 1]


def inner_corners(shape: SkewShape) -> frozenset[Box]:
    """Maximally-southeast boxes of the inner partition (slide entry points)."""
    return frozenset(removable_corners(shape.inner))


def outer_corners(shape: SkewShape, ambient: AmbientRectangle) -> frozenset[Box]:
    """Boxes addable to the outer partition inside the ambient rectangle."""
    ambient.require_fit(shape.outer)
    return frozenset(addable_corners(shape.outer, max_rows=ambient.rows, max_cols=ambient.cols))


@dataclass(frozen=True)
class DirectSumFrame:
    """Two Grassmannian factors (k1, n1), (k2, n2) and the ambient they sum into."""

    k1: int
    n1: int
    k2: int
    n2: int

    def __post_init__(self) -> None:
        if not (0 < self.k1 < self.n1 and 0 < self.k2 < self.n2):
            raise ShapeFitError(f"need 0 < k1 < n1 and 0 < k2 < n2, got {self}")

    @property
    def k(self) -> int:
        return self.k1 + self.k2

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def require_fits(self, lam: Part, mu: Part, nu: Part | None = None) -> None:
        """Refuse lam outside the first factor's rectangle, mu outside the second's,
        or nu outside the ambient."""
        _require_fit(lam, self.k1, self.n1 - self.k1)
        _require_fit(mu, self.k2, self.n2 - self.k2)
        if nu is not None:
            _require_fit(nu, self.k1 + self.k2, self.n1 + self.n2 - self.k1 - self.k2)


def dual_in_rectangle(lam: Part, rect: AmbientRectangle) -> Part:
    """180-degree rotation of the complement of lam in the rectangle; an involution."""
    lam = partition(lam)
    rect.require_fit(lam)
    padded = list(lam) + [0] * (rect.rows - len(lam))
    return partition(rect.cols - padded[rect.rows - i] for i in range(1, rect.rows + 1))


def star(lam: Part, mu: Part) -> SkewShape:
    """lam and mu corner to corner, lam southwest; the inner shape is a rectangle."""
    return SkewShape(*_star(partition(lam), partition(mu)))


def _star(lam: Part, mu: Part) -> tuple[Part, Part]:
    """The (outer, inner) pair of ``star`` for two partitions already in normal form."""
    width = lam[0] if lam else 0
    outer = tuple(width + m for m in mu) + lam
    inner = (width,) * len(mu) if width else ()
    return outer, inner


def omega(frame: DirectSumFrame) -> Part:
    """The ambient rectangle with its southeast k2 x (n1-k1) subrectangle removed."""
    cols = frame.n - frame.k
    return partition((cols,) * frame.k1 + (frame.n2 - frame.k2,) * frame.k2)


def omega_dual(frame: DirectSumFrame) -> Part:
    """Dual of omega in the ambient rectangle: the k2 x (n1-k1) rectangle."""
    return partition(((frame.n1 - frame.k1),) * frame.k2)


def dagger(lam: Part, mu: Part, frame: DirectSumFrame) -> Part:
    """mu to the right of, and lam below, the k2 x (n1-k1) rectangle."""
    lam, mu = partition(lam), partition(mu)
    frame.require_fits(lam, mu)
    return _dagger(lam, mu, frame)


def _dagger(lam: Part, mu: Part, frame: DirectSumFrame) -> Part:
    """``dagger`` of normal-form parts that fit the frame: normal, as the rows over lam are n1-k1 >= lam[0]
    or longer, and in the ambient, with at most k2 + k1 rows and a first row of at most (n1-k1) + (n2-k2)."""
    base = frame.n1 - frame.k1
    return tuple(base + p for p in mu) + (base,) * (frame.k2 - len(mu)) + lam


def oslash(mu: Part, lam: Part, frame: DirectSumFrame) -> Part:
    """lam to the right of the k1 x (n2-k2) rectangle, mu below it: ``dagger`` of the
    swapped frame (k2, n2, k1, n1), so a misfit raises ShapeFitError, naming mu if both misfit."""
    return dagger(mu, lam, DirectSumFrame(frame.k2, frame.n2, frame.k1, frame.n1))


def rook_strip_contractions(nu: Part) -> tuple[Part, ...]:
    """nu minus any subset of its removable corners, largest first.

    These are all nubar inside nu such that nu/nubar has no two boxes in a
    shared row or column; nubar = nu is included.
    """
    nu = partition(nu)
    corners = removable_corners(nu)
    subsets = (s for k in range(len(corners) + 1) for s in combinations(corners, k))
    return tuple(sorted((remove_boxes(nu, s) for s in subsets), reverse=True))


def boundary_word(lam: Part, rect: AmbientRectangle) -> frozenset[int]:
    """Positions of the down steps when walking the boundary of lam from NE to SW."""
    lam = partition(lam)
    rect.require_fit(lam)
    return frozenset(rect.cols - row_length(lam, t) + t for t in range(1, rect.rows + 1))


def partition_from_boundary_word(word: frozenset[int] | Iterable[int], rect: AmbientRectangle) -> Part:
    """Inverse of boundary_word; row t, cols - w_t + t, fits as t <= w_t <= n - k + t."""
    entries = list(word)
    for w in entries:
        if type(w) is not int:  # a float would be truncated, and a bool is a subclass of int
            raise ShapeFitError(f"boundary word entries must be integers, got {w!r}")
    chosen = sorted(set(entries))
    if len(chosen) != rect.rows or any(not (1 <= w <= rect.n) for w in chosen):
        raise ShapeFitError(f"{chosen} is not a {rect.rows}-subset of 1..{rect.n}")
    return partition(rect.cols - w + t for t, w in enumerate(chosen, start=1))


def format_partition(lam: Part) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def parse_partition(text: str) -> Part:
    """Parse '[4,3,1]' (brackets optional); '[]' is the empty partition."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    try:
        parts = tuple(int(tok) for tok in s.split(","))
    except ValueError as exc:
        raise ShapeFitError(f"cannot parse partition from {text!r}") from exc
    return partition(parts)
