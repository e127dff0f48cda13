"""Switch/slide machinery: slides, reverse slides, rectification, infusion, traces.

A slide places bullets on chosen corners and then runs label stages.  A stage
applies the local switch rule for one label i, all at once:

* every bullet with an i-neighbour takes the value i;
* every i-box with a bullet neighbour becomes a bullet.

The next stage is the nearest label past i that sits next to a bullet: the
next larger one in a forward slide, which pushes bullets southeast, and the
next smaller one in a reverse slide, which pushes them northwest.  Labels that
touch no bullet are never visited.  This is the Thomas-Yong switch: the
bullets and i-boxes that move together form alternating short ribbons, and
swapping bullets with labels along each ribbon is exactly the rule above.

The kernel raises InternalInvariantError on every state the theory forbids:
two adjacent bullets, two adjacent equal labels, a 2x2 block of bullets and
stage labels, and a ribbon with more than two boxes in one row or column.

Slides into inner corners, infusion and rectification check their order of
corner groups once (``_check_corner_groups``), since the inner shapes it
walks through do not depend on the filling, and then slide the filling
through ``_infuse``.  A tally checks one order and slides every filling of a
shape through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .shapes import (
    AmbientRectangle,
    Box,
    Part,
    ShapeFitError,
    SkewShape,
    add_boxes,
    addable_corners,
    partition,
    psize,
    remove_boxes,
    removable_corners,
)
from .tableaux import Cells, IncreasingTableau, enumerate_increasing, superstandard

Direction = Literal["forward", "reverse"]

_INF = float("inf")

# each bullet a stage fills -> the stage-label boxes next to it
Moves = dict[Box, list[Box]]


class InternalInvariantError(RuntimeError):
    """The engine reached a state the theory forbids; indicates a bug."""


def _check_blocks(moves: Moves, bullets: set[Box]) -> None:
    """No bullet forms a 2x2 block with two of its label neighbours and a bullet."""
    for (r, c), hits in moves.items():
        for i, (r1, c1) in enumerate(hits):
            for r2, c2 in hits[i + 1:]:
                if r1 != r2 and c1 != c2 and (r1 + r2 - r, c1 + c2 - c) in bullets:
                    raise InternalInvariantError(f"ribbon contains a 2x2 block at {(r, c)}")


def _check_ribbons(moves: Moves) -> None:
    """No ribbon of one stage has more than two boxes in a row or a column."""
    link: dict[Box, list[Box]] = {}
    for b, hits in moves.items():
        link.setdefault(b, []).extend(hits)
        for x in hits:
            link.setdefault(x, []).append(b)
    unvisited = set(link)
    while unvisited:
        frontier = [unvisited.pop()]
        comp = list(frontier)
        while frontier:
            for nb in link[frontier.pop()]:
                if nb in unvisited:
                    unvisited.discard(nb)
                    comp.append(nb)
                    frontier.append(nb)
        rows = [r for r, _ in comp]
        cols = [c for _, c in comp]
        if any(rows.count(r) > 2 for r in rows) or any(cols.count(c) > 2 for c in cols):
            raise InternalInvariantError("ribbon has more than two boxes in a row or column")


class _Neighbours(dict):
    """Box -> its right, lower, left and upper neighbours, built on first use.

    The kernel looks up a box's neighbours several times per stage; one
    shared table of these tuples saves building them each time.  It holds
    only the boxes the kernel has met, a few grid coordinates.
    """

    def __missing__(self, box: Box) -> tuple[Box, Box, Box, Box]:
        r, c = box
        nbs = self[box] = ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c))
        return nbs


_NEIGHBOURS = _Neighbours()


def _run_switches(
    entries: dict[Box, int],
    bullets: set[Box],
    reverse: bool,
    on_switch: Callable[[int | None, Moves, set[Box]], None] | None = None,
) -> set[Box]:
    """Mutate entries and bullets through every stage of one slide; returns the bullets.

    on_switch(label, moves, bullets), when given, is called once after the
    bullets are placed (label None, no moves) and once after each stage.
    Within a stage the order of bullets does not matter: the rule is local.
    """
    around = _NEIGHBOURS
    for box in bullets:
        for nb in around[box][:2]:
            if nb in bullets:
                raise InternalInvariantError(f"adjacent bullets at {box}, {nb}")
    # A stage never makes two bullets adjacent: two freed boxes are equal labels,
    # and a bullet next to a freed box is a bullet that the stage filled.
    if on_switch is not None:
        on_switch(None, {}, bullets)
    get = entries.get
    sign = -1 if reverse else 1
    done = -_INF  # sign * the label of the last stage
    while True:
        # one pass finds the nearest label past the last stage next to a
        # bullet, with every (bullet, box) pair that holds it
        nearest = _INF
        pairs: list[tuple[Box, Box]] = []
        for box in bullets:
            for nb in around[box]:
                v = get(nb)
                if v is not None and done < sign * v <= nearest:
                    if sign * v < nearest:
                        nearest = sign * v
                        pairs = []
                    pairs.append((box, nb))
        if not pairs:
            return bullets
        done = nearest
        label = sign * nearest
        if len(pairs) == 1:  # one bullet, one neighbour: no block or long ribbon
            (box, x), = pairs
            moves: Moves = {box: [x]}
            freed: Iterable[Box] = (x,)
        else:
            moves = {}
            for box, nb in pairs:
                moves.setdefault(box, []).append(nb)
            freed = {nb for _, nb in pairs}
            if len(pairs) > len(moves):
                _check_blocks(moves, bullets)
            _check_ribbons(moves)
        for x in freed:
            for nb in around[x]:
                if get(nb) == label:
                    raise InternalInvariantError(f"adjacent equal labels at {x}, {nb}")
        for box in moves:
            entries[box] = label
            bullets.discard(box)
        for x in freed:
            del entries[x]
        bullets.update(freed)
        if on_switch is not None:
            on_switch(label, moves, bullets)


def _check_corner_groups(inner: Part, groups: Iterable[frozenset[Box]]) -> Part:
    """Check a slide order before any filling slides through it.

    Each group, when it is reached, must be a nonempty set of inner corners;
    inner corners are pairwise non-adjacent, so its bullets start apart.  The
    inner shapes met on the way do not depend on the filling, so a tally runs
    this once and ``_infuse`` once per filling.  Returns the inner shape left
    after the last group.
    """
    for corners in groups:
        if not corners:
            raise ShapeFitError("corner set must be nonempty")
        legal = set(removable_corners(inner))
        if not corners <= legal:
            raise ShapeFitError(f"{sorted(corners - legal)} are not inner corners of {inner}")
        inner = remove_boxes(inner, corners)
    return inner


def _infuse(
    entries: dict[Box, int],
    outer: Part,
    groups: Iterable[frozenset[Box]],
    vacated: list[set[Box]] | None = None,
    on_switch=None,
) -> Part:
    """Slide the filling in entries, in place, into each corner group in turn.

    The groups must have passed ``_check_corner_groups`` for the filling's
    inner shape; the kernel still refuses adjacent bullets.  Only the outer
    shape depends on the filling, so it is the one shape updated here.
    Returns the final outer shape; ``vacated``, when given, receives the boxes
    each group vacated, in group order.
    """
    for corners in groups:
        final = _run_switches(entries, set(corners), False, on_switch)
        try:
            outer = remove_boxes(outer, final)
        except ShapeFitError as exc:  # pragma: no cover - theory forbids this
            raise InternalInvariantError(f"slide left a non-partition shape: {exc}") from exc
        if vacated is not None:
            vacated.append(final)
    return outer


def _forward_slide(
    entries: dict[Box, int], inner: Part, outer: Part, corners: frozenset[Box], on_switch=None
) -> tuple[Part, Part]:
    """Slide in place into inner corners; returns (inner', outer')."""
    groups = (frozenset(corners),)
    return _check_corner_groups(inner, groups), _infuse(entries, outer, groups, on_switch=on_switch)


def _reverse_slide(
    entries: dict[Box, int],
    inner: Part,
    outer: Part,
    corners: frozenset[Box],
    ambient: AmbientRectangle,
    on_switch=None,
) -> tuple[Part, Part]:
    """Slide in place into outer corners; returns (inner', outer')."""
    if not corners:
        raise ShapeFitError("corner set must be nonempty")
    ambient.require_fit(outer)
    legal = set(addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols))
    if not set(corners) <= legal:
        raise ShapeFitError(
            f"{sorted(set(corners) - legal)} are not outer corners of {outer} in the ambient"
        )
    new_outer = add_boxes(outer, corners)
    final = _run_switches(entries, set(corners), reverse=True, on_switch=on_switch)
    try:
        new_inner = add_boxes(inner, final)
    except ShapeFitError as exc:  # pragma: no cover - theory forbids this
        raise InternalInvariantError(f"slide left a non-partition shape: {exc}") from exc
    return new_inner, new_outer


def kjdt_slide(t: IncreasingTableau, corners: Iterable[Box]) -> IncreasingTableau:
    """Forward slide of t into a nonempty set of inner corners."""
    entries = t.entries
    inner, outer = _forward_slide(entries, t.inner, t.outer, frozenset(corners))
    return IncreasingTableau.make(outer, inner, entries)


def rev_kjdt_slide(
    t: IncreasingTableau, corners: Iterable[Box], ambient: AmbientRectangle
) -> IncreasingTableau:
    """Reverse slide of t into a nonempty set of outer corners within the ambient."""
    entries = t.entries
    inner, outer = _reverse_slide(entries, t.inner, t.outer, frozenset(corners), ambient)
    return IncreasingTableau.make(outer, inner, entries)


def _label_groups_desc(cells: Cells) -> list[tuple[int, frozenset[Box]]]:
    groups: dict[int, set[Box]] = {}
    for r, c, v in cells:
        groups.setdefault(v, set()).add((r, c))
    return [(v, frozenset(groups[v])) for v in sorted(groups, reverse=True)]


def _order_groups(order: IncreasingTableau) -> list[frozenset[Box]]:
    """The corner sets of a rectification order, largest label first."""
    return [boxes for _, boxes in _label_groups_desc(order.cells)]


def kinfusion(a: IncreasingTableau, b: IncreasingTableau) -> tuple[IncreasingTableau, IncreasingTableau]:
    """Slide b through a, largest label of a first; an involution on nested pairs.

    Requires b.inner == a.outer.  The first output is b fully slid (its inner
    shape becomes a.inner); the second records, with label m, the boxes vacated
    while sliding into a's m-labeled corners.
    """
    if b.inner != a.outer:
        raise ShapeFitError(f"inner shape of second tableau {b.inner} must equal outer of first {a.outer}")
    labelled = _label_groups_desc(a.cells)
    groups = [boxes for _, boxes in labelled]
    inner = _check_corner_groups(b.inner, groups)
    if inner != a.inner:  # pragma: no cover - theory forbids this
        raise InternalInvariantError("infusion did not consume the inner tableau's shape")
    entries = b.entries
    vacated: list[set[Box]] = []
    outer = _infuse(entries, b.outer, groups, vacated)
    record = {box: label for (label, _), boxes in zip(labelled, vacated) for box in boxes}
    return IncreasingTableau.make(outer, inner, entries), IncreasingTableau.make(b.outer, outer, record)


def krect(t: IncreasingTableau, order: IncreasingTableau | None = None) -> IncreasingTableau:
    """Rectify t to straight shape following the given rectification order.

    The order is an increasing tableau of t's inner shape, processed largest
    label first; the default is the superstandard order.
    """
    if order is None:
        order = superstandard(t.inner)
    if order.inner != () or order.outer != t.inner:
        raise ShapeFitError(f"order must be a straight tableau of shape {t.inner}")
    groups = _order_groups(order)
    _check_corner_groups(t.inner, groups)
    entries = t.entries
    outer = _infuse(entries, t.outer, groups)
    return IncreasingTableau.make(outer, (), entries)


def rectification_orders(inner: Part) -> Iterator[IncreasingTableau]:
    """The canonical rectification orders: surjective fillings over {1..m}, m <= |inner|.

    Largest alphabets come first, so the superstandard order is yielded first.
    Distinct orders here are exactly the distinct corner-set sequences.
    """
    inner = partition(inner)
    n = psize(inner)
    if n == 0:
        yield superstandard(())
        return
    shape = SkewShape.straight(inner)
    for m in range(n, 0, -1):
        yield from enumerate_increasing(shape, range(1, m + 1), surjective=True)


@dataclass(frozen=True)
class SlideStep:
    """One slide instruction: a direction and the corners to move into."""

    direction: Direction
    corners: frozenset[Box]

    def __post_init__(self) -> None:
        object.__setattr__(self, "corners", frozenset(self.corners))
        if self.direction not in ("forward", "reverse"):
            raise ValueError(f"direction must be forward or reverse, got {self.direction!r}")
        if not self.corners:
            raise ValueError("corner set must be nonempty")


@dataclass(frozen=True)
class SwitchState:
    """Snapshot after placing bullets or after one switch stage."""

    outer: Part
    inner: Part
    cells: Cells
    bullets: frozenset[Box]
    stage: int | None  # label processed by the switch; None for bullet placement
    direction: Direction

    def configuration(self) -> tuple[frozenset[Box], frozenset[Box]]:
        """Numeric boxes and bullet boxes; both matter for comparing states."""
        return frozenset((r, c) for r, c, _ in self.cells), self.bullets

    def entries(self) -> dict[Box, int]:
        return {(r, c): v for r, c, v in self.cells}


@dataclass(frozen=True)
class SwitchTrace:
    """Slow-motion record of a slide sequence with box-of-origin bookkeeping.

    states[i] is reached from states[i-1] by placing bullets (stage None) or by
    one simultaneous switch of all ribbons of a label stage.  uniform_flags[i]
    tells whether that transition kept boxes of origin well defined; origins[i]
    maps numeric boxes to boxes of the starting tableau, and is None from the
    first non-uniform switch on (later flags are then reported False).
    """

    start: IncreasingTableau
    states: tuple[SwitchState, ...]
    uniform_flags: tuple[bool, ...]
    origins: tuple[dict[Box, Box] | None, ...]

    def final_tableau(self) -> IncreasingTableau:
        last = self.states[-1] if self.states else None
        if last is None:
            return self.start
        if last.direction == "forward":
            outer = remove_boxes(last.outer, last.bullets)
            inner = last.inner
        else:
            outer = last.outer
            inner = add_boxes(last.inner, last.bullets)
        return IncreasingTableau(outer, inner, last.cells)


class SlideStepError(ValueError):
    """A slide step was invalid when reached; carries the step index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


def switch_trace(
    t: IncreasingTableau, slides: Sequence[SlideStep], ambient: AmbientRectangle
) -> SwitchTrace:
    """Run the slides in slow motion, recording every switch state."""
    entries = t.entries
    inner, outer = t.inner, t.outer
    origins: dict[Box, Box] | None = {box: box for box in entries}
    states: list[SwitchState] = []
    flags: list[bool] = []
    origin_seq: list[dict[Box, Box] | None] = []
    for i, step in enumerate(slides):
        shape: tuple[Part, Part] = (outer, inner)

        def on_switch(label: int | None, moves: Moves, bullets: set[Box]) -> None:
            nonlocal origins, shape
            if label is None:  # bullets placed: the corners leave inner or join outer
                if step.direction == "forward":
                    shape = (outer, remove_boxes(inner, step.corners))
                else:
                    shape = (add_boxes(outer, step.corners), inner)
            elif origins is not None:
                # origins stay uniform when every bullet's label neighbours share
                # one origin: the bullets connect the label boxes of each ribbon
                sources = {b: {origins[x] for x in hits} for b, hits in moves.items()}
                if all(len(src) == 1 for src in sources.values()):
                    for hits in moves.values():
                        for x in hits:
                            origins.pop(x, None)
                    for b, (src,) in sources.items():
                        origins[b] = src
                else:
                    origins = None
            states.append(SwitchState(
                shape[0],
                shape[1],
                tuple((r, c, v) for (r, c), v in sorted(entries.items())),
                frozenset(bullets),
                label,
                step.direction,
            ))
            flags.append(origins is not None)
            origin_seq.append(dict(origins) if origins is not None else None)

        try:
            if step.direction == "forward":
                inner, outer = _forward_slide(entries, inner, outer, step.corners, on_switch)
            else:
                inner, outer = _reverse_slide(entries, inner, outer, step.corners, ambient, on_switch)
        except ShapeFitError as exc:
            raise SlideStepError(i, str(exc)) from exc
    return SwitchTrace(t, tuple(states), tuple(flags), tuple(origin_seq))


def rev_krect_in_ambient(
    t: IncreasingTableau, ambient: AmbientRectangle
) -> tuple[IncreasingTableau, Box]:
    """Reverse-rectify a rectangular straight tableau to the ambient's southeast corner.

    Slides into all available outer corners until none remain; returns the
    resulting tableau and the northwest anchor of its c x d bounding block.
    """
    if not t.is_straight:
        raise ShapeFitError("input must be a straight tableau")
    lam = t.outer
    if lam and any(p != lam[0] for p in lam):
        raise ShapeFitError(f"input shape {lam} is not a rectangle")
    c, d = len(lam), (lam[0] if lam else 0)
    ambient.require_fit(lam)
    current = t
    while True:
        corners = addable_corners(current.outer, max_rows=ambient.rows, max_cols=ambient.cols)
        if not corners:
            break
        current = rev_kjdt_slide(current, frozenset(corners), ambient)
    expected_inner = partition(
        (ambient.cols,) * (ambient.rows - c) + (ambient.cols - d,) * c
    )
    if current.outer != ambient.full or current.inner != expected_inner:
        raise InternalInvariantError(
            f"reverse rectification landed on {current.outer}/{current.inner}, "
            f"expected the {c}x{d} block at the southeast corner"
        )
    return current, (ambient.rows - c + 1, ambient.cols - d + 1)
