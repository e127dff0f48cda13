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
Every one of these checks reads one box and the boxes around it.

Every slide, forward or reverse, single or one group of a rectification,
infusion or trace, is one call of ``_slide``, which checks that its bullets
start apart, runs the stages and returns both new shapes.  Its corners are
checked by ``_check_corners`` when the slide is reached; only reverse
rectification, whose corners are the legal ones by construction, skips that
check (legal corners are apart, but ``_slide`` does not rely on it).
``_run_switches`` is the stage loop of a slide and checks no bullets apart:
a stage never makes two of them adjacent.  One stage body applies every
stage.  It groups the stage's (bullet, label box) pairs, checks a stage of
several pairs for blocks and long ribbons (one pair, the most common kind,
can form neither), and then runs the one equal-label check and the one swap
of entries and bullets.

Outside this module only ``coefficients._label_step`` runs the stage loop,
through ``_switch_class``: a label step switches only the S classes next to
its placed class, the only ones that move, each as the bullets of one slide
with the same stage checks, and ``_switch_class`` checks the class it
produces apart.  So every S class is checked apart once, when it is made;
the superstandard singletons need no check.

``switch_trace`` records a state after the bullets are placed and after each
stage, through the kernel's ``on_switch`` hook; ``extend_trace`` continues a
trace from its final state, so a walk over slide sequences slides each step
once.  Each state carries its boxes of origin, and states share one origins
dict until a stage changes it.  A trace that ``extend_trace`` returns is
marked kernel-made, as a tableau from ``IncreasingTableau._from_kernel``
skips the type checks, and is resumed and built from its last state's
cells; a trace built by hand goes through the public tableau constructor
first.

Every public call slides one entries dict in place, through all its steps,
and builds one validated tableau per output at the end
(``IncreasingTableau._from_kernel``): a reverse rectification builds one,
not one per slide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

from .shapes import (
    AmbientRectangle,
    Box,
    Part,
    ShapeFitError,
    SkewShape,
    add_boxes,
    addable_corners,
    is_rectangle,
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


def _check_ribbons(moves: Moves, freed: set[Box]) -> None:
    """No ribbon of one stage has more than two boxes in a row or a column.

    A ribbon is a connected set of bullets and label boxes, linked through the
    label boxes next to each bullet.  Every bullet-label adjacency of a stage
    is one of its moves and no two bullets touch, so once ``_check_blocks``
    has passed, a ribbon with no three boxes in a line turns at every box and
    its turns alternate: it is a staircase, which has at most two boxes in any
    row or column.  So it suffices that no bullet has label boxes on both
    sides of it in a row or column, and no label box has bullets so.
    """
    around = _NEIGHBOURS
    for boxes, ends in ((moves, freed), (freed, moves)):
        for box in boxes:
            right, down, left, up = around[box]
            if (left in ends and right in ends) or (up in ends and down in ends):
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


def _check_apart(bullets: set[Box] | frozenset[Box]) -> None:
    """No two bullets are adjacent."""
    around = _NEIGHBOURS
    for box in bullets:
        for nb in around[box][:2]:
            if nb in bullets:
                raise InternalInvariantError(f"adjacent bullets at {box}, {nb}")


def _run_switches(
    entries: dict[Box, int],
    bullets: set[Box],
    reverse: bool,
    on_switch: Callable[[int | None, Moves, set[Box]], None] | None = None,
) -> set[Box]:
    """Mutate entries and bullets through every stage of one slide; returns the bullets.

    on_switch(label, moves, bullets), when given, is called once after the
    bullets are placed (label None, no moves) and once after each stage.
    The bullets must start apart; the callers check them.
    """
    # A stage never makes two bullets adjacent: two freed boxes are equal labels,
    # and a bullet next to a freed box is a bullet that the stage filled.
    if on_switch is not None:
        on_switch(None, {}, bullets)
    around = _NEIGHBOURS
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
        # swap the bullets with the label boxes next to them; the rule is local, so order does not matter
        if len(pairs) == 1:  # one bullet, one neighbour: no block or long ribbon to check
            (box, x), = pairs
            freed = (x,)
            if on_switch is not None:
                moves = {box: [x]}
        else:
            moves = {}
            freed = set()
            for box, x in pairs:
                if box in moves:
                    moves[box].append(x)
                else:
                    moves[box] = [x]
                freed.add(x)
            if len(pairs) > len(moves):  # some bullet is next to two label boxes
                _check_blocks(moves, bullets)
                _check_ribbons(moves, freed)
            elif len(pairs) > len(freed):  # some label box is next to two bullets
                _check_ribbons(moves, freed)
            # else each ribbon is one bullet and one label box, which breaks no rule
        for x in freed:
            for nb in around[x]:
                if get(nb) == label:
                    raise InternalInvariantError(f"adjacent equal labels at {x}, {nb}")
        for x in freed:
            del entries[x]
            bullets.add(x)
        for box, _ in pairs:  # a bullet next to two label boxes is filled twice, to the same end
            entries[box] = label
            bullets.discard(box)
        if on_switch is not None:
            on_switch(label, moves, bullets)


def _switch_class(entries: dict[Box, int], s_class: frozenset[Box]) -> set[Box]:
    """Switch an S class forward past entries in place; returns its new boxes, checked apart.

    The class is the bullets of one slide.  It was checked apart when it was
    made, or is a singleton, so only the class produced is checked.
    """
    bullets = _run_switches(entries, set(s_class), False)
    _check_apart(bullets)
    return bullets


def _check_corners(
    inner: Part, outer: Part, corners: frozenset[Box], reverse: bool, ambient: AmbientRectangle | None = None
) -> None:
    """Refuse an empty corner set, or corners that are not inner corners of inner.

    A reverse slide's corners must instead be outer corners of outer within
    the ambient.  Corners of either kind are pairwise non-adjacent, so the
    bullets start apart.  Each slide runs this when it is reached.
    """
    if not corners:
        raise ShapeFitError("corner set must be nonempty")
    if not reverse:
        legal = set(removable_corners(inner))
        if not corners <= legal:
            raise ShapeFitError(f"{sorted(corners - legal)} are not inner corners of {inner}")
        return
    ambient.require_fit(outer)
    legal = set(addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols))
    if not corners <= legal:
        raise ShapeFitError(f"{sorted(corners - legal)} are not outer corners of {outer} in the ambient")


def _slide(
    entries: dict[Box, int], inner: Part, outer: Part, corners: Iterable[Box], reverse: bool, on_switch=None
) -> tuple[Part, Part, set[Box]]:
    """Slide in place into corners already checked; returns (inner', outer', the bullets' final boxes).

    A forward slide moves into inner corners and its bullets leave outer; a
    reverse slide moves into outer corners and its bullets join inner.
    """
    bullets = set(corners)
    _check_apart(bullets)
    final = _run_switches(entries, bullets, reverse, on_switch)
    try:
        if reverse:
            return add_boxes(inner, final), add_boxes(outer, corners), final
        return remove_boxes(inner, corners), remove_boxes(outer, final), final
    except ShapeFitError as exc:  # pragma: no cover - theory forbids this
        raise InternalInvariantError(f"slide left a non-partition shape: {exc}") from exc


def kjdt_slide(t: IncreasingTableau, corners: Iterable[Box]) -> IncreasingTableau:
    """Forward slide of t into a nonempty set of inner corners."""
    return _slide_tableau(t, corners, False)


def rev_kjdt_slide(
    t: IncreasingTableau, corners: Iterable[Box], ambient: AmbientRectangle
) -> IncreasingTableau:
    """Reverse slide of t into a nonempty set of outer corners within the ambient."""
    return _slide_tableau(t, corners, True, ambient)


def _slide_tableau(
    t: IncreasingTableau, corners: Iterable[Box], reverse: bool, ambient: AmbientRectangle | None = None
) -> IncreasingTableau:
    """The one body of ``kjdt_slide`` and ``rev_kjdt_slide``: check the corners, slide, build."""
    corners = frozenset(corners)
    _check_corners(t.inner, t.outer, corners, reverse, ambient)
    entries = t.entries
    inner, outer, _ = _slide(entries, t.inner, t.outer, corners, reverse)
    return IncreasingTableau._from_kernel(outer, inner, entries)


def _label_groups_desc(cells: Cells) -> list[tuple[int, frozenset[Box]]]:
    """Each label with its boxes, largest label first: the corner sets of an order."""
    groups: dict[int, set[Box]] = {}
    for r, c, v in cells:
        groups.setdefault(v, set()).add((r, c))
    return [(v, frozenset(groups[v])) for v in sorted(groups, reverse=True)]


def kinfusion(a: IncreasingTableau, b: IncreasingTableau) -> tuple[IncreasingTableau, IncreasingTableau]:
    """Slide b through a, largest label of a first; an involution on nested pairs.

    Requires b.inner == a.outer.  The first output is b fully slid (its inner
    shape becomes a.inner); the second records, with label m, the boxes vacated
    while sliding into a's m-labeled corners.
    """
    if b.inner != a.outer:
        raise ShapeFitError(f"inner shape of second tableau {b.inner} must equal outer of first {a.outer}")
    entries = b.entries
    inner, outer = b.inner, b.outer
    record: dict[Box, int] = {}
    for label, corners in _label_groups_desc(a.cells):
        _check_corners(inner, outer, corners, False)
        inner, outer, vacated = _slide(entries, inner, outer, corners, False)
        record.update(dict.fromkeys(vacated, label))
    if inner != a.inner:  # pragma: no cover - theory forbids this
        raise InternalInvariantError("infusion did not consume the inner tableau's shape")
    build = IncreasingTableau._from_kernel
    return build(outer, inner, entries), build(b.outer, outer, record)


def krect(t: IncreasingTableau, order: IncreasingTableau | None = None) -> IncreasingTableau:
    """Rectify t to straight shape following the given rectification order.

    The order is an increasing tableau of t's inner shape, processed largest
    label first; the default is the superstandard order.
    """
    if order is None:
        order = superstandard(t.inner)
    if order.inner != () or order.outer != t.inner:
        raise ShapeFitError(f"order must be a straight tableau of shape {t.inner}")
    entries = t.entries
    inner, outer = t.inner, t.outer
    for _, corners in _label_groups_desc(order.cells):
        _check_corners(inner, outer, corners, False)
        inner, outer, _ = _slide(entries, inner, outer, corners, False)
    return IncreasingTableau._from_kernel(outer, inner, entries)


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


class SwitchState(NamedTuple):
    """Snapshot after placing bullets or after one switch stage.

    origins maps numeric boxes to boxes of the trace's starting tableau; it is
    None when the switch into this state, or an earlier one, was not uniform,
    that is, merged labels from different boxes of origin.  States share one
    origins dict until a stage changes it, so the dicts are read-only.
    """

    outer: Part
    inner: Part
    cells: Cells
    bullets: frozenset[Box]
    stage: int | None  # label processed by the switch; None for bullet placement
    direction: Direction
    origins: dict[Box, Box] | None

    def configuration(self) -> tuple[frozenset[Box], frozenset[Box]]:
        """Numeric boxes and bullet boxes; both matter for comparing states."""
        return frozenset((r, c) for r, c, _ in self.cells), self.bullets

    def entries(self) -> dict[Box, int]:
        return {(r, c): v for r, c, v in self.cells}


@dataclass(frozen=True)
class SwitchTrace:
    """Slow-motion record of a slide sequence with box-of-origin bookkeeping.

    states[i] is reached from states[i-1] by placing bullets (stage None) or by
    one simultaneous switch of all ribbons of a label stage; each state holds
    its own boxes of origin.
    """

    start: IncreasingTableau
    states: tuple[SwitchState, ...]
    # not a field: only ``extend_trace`` sets it, on a trace whose last state the kernel slid
    # from a built tableau; a trace built by hand, or copied through the constructor, reads False
    _kernel_made = False

    def final_shape(self) -> tuple[Part, Part]:
        """(outer, inner) once the last state's bullets have left the shape."""
        if not self.states:
            return self.start.outer, self.start.inner
        last = self.states[-1]
        if last.direction == "forward":
            return remove_boxes(last.outer, last.bullets), last.inner
        return last.outer, add_boxes(last.inner, last.bullets)

    def final_tableau(self) -> IncreasingTableau:
        """The last state on ``final_shape``.

        A kernel-made trace's last state is built as a kernel output; a trace
        built by hand goes through the public constructor.
        """
        if not self.states:
            return self.start
        outer, inner = self.final_shape()
        if self._kernel_made:
            return IncreasingTableau._from_kernel(outer, inner, self.states[-1].entries())
        return IncreasingTableau(outer, inner, self.states[-1].cells)


class SlideStepError(ValueError):
    """A slide step was invalid when reached; carries the step index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


def switch_trace(
    t: IncreasingTableau, slides: Sequence[SlideStep], ambient: AmbientRectangle
) -> SwitchTrace:
    """Run the slides in slow motion, recording every switch state."""
    return extend_trace(SwitchTrace(t, ()), slides, ambient)


def extend_trace(
    trace: SwitchTrace, slides: Sequence[SlideStep], ambient: AmbientRectangle
) -> SwitchTrace:
    """The trace continued through more slides from its final state.

    Equals ``switch_trace`` of the trace's start through the slides already
    traced and then these, without sliding the first ones again: the new
    states start from the last state's entries, shape and origins.  A step
    index in a SlideStepError counts the slides given here.  A trace may be
    built by hand, so its last state enters through ``final_tableau``, the
    public constructor, and a bad label raises TableauError.  A kernel-made
    trace resumes from its last state's cells, and a trace with no states
    from its built tableau; neither pays for a build.
    """
    outer, inner = trace.final_shape()
    if trace.states:
        cells = trace.states[-1].cells if trace._kernel_made else trace.final_tableau().cells
        entries = {(r, c): v for r, c, v in cells}
        origins = trace.states[-1].origins
    else:
        entries = trace.start.entries
        cells = trace.start.cells
        origins = {box: box for box in entries}
    states: list[SwitchState] = []
    # the states of the current step, less their shape, which is known once the step is slid
    stages: list[tuple[Cells, frozenset[Box], int | None, Direction, dict[Box, Box] | None]] = []

    def on_switch(label: int | None, moves: Moves, bullets: set[Box]) -> None:
        nonlocal origins, cells
        if label is not None:  # placing bullets changes no entry
            cells = tuple(sorted([(r, c, v) for (r, c), v in entries.items()]))
            if origins is not None:
                # origins stay uniform when every bullet's label neighbours share
                # one origin: the bullets connect the label boxes of each ribbon;
                # a uniform stage gets a new dict
                old, origins = origins, dict(origins)
                for b, hits in moves.items():
                    src = old[hits[0]]
                    for x in hits:
                        if old[x] != src:
                            origins = None
                            break
                        origins.pop(x, None)
                    if origins is None:
                        break
                    origins[b] = src
        stages.append((cells, frozenset(bullets), label, direction, origins))

    for i, step in enumerate(slides):
        direction = step.direction
        reverse = direction == "reverse"
        try:
            _check_corners(inner, outer, step.corners, reverse, ambient)
            new_inner, new_outer, _ = _slide(entries, inner, outer, step.corners, reverse, on_switch)
        except ShapeFitError as exc:
            raise SlideStepError(i, str(exc)) from exc
        # the corners joined outer, or left inner, when the bullets were placed
        shape = (new_outer, inner) if reverse else (outer, new_inner)
        inner, outer = new_inner, new_outer
        states.extend(SwitchState(*shape, *stage) for stage in stages)
        stages.clear()
    out = SwitchTrace(trace.start, trace.states + tuple(states))
    object.__setattr__(out, "_kernel_made", True)
    return out


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
    if not is_rectangle(lam):
        raise ShapeFitError(f"input shape {lam} is not a rectangle")
    c, d = len(lam), (lam[0] if lam else 0)
    ambient.require_fit(lam)
    entries = t.entries
    inner, outer = t.inner, lam
    # the corners are exactly the legal ones, so the slides skip the check
    while corners := addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols):
        inner, outer, _ = _slide(entries, inner, outer, corners, True)
    expected_inner = partition(
        (ambient.cols,) * (ambient.rows - c) + (ambient.cols - d,) * c
    )
    if outer != ambient.full or inner != expected_inner:
        raise InternalInvariantError(
            f"reverse rectification landed on {outer}/{inner}, "
            f"expected the {c}x{d} block at the southeast corner"
        )
    anchor = (ambient.rows - c + 1, ambient.cols - d + 1)
    return IncreasingTableau._from_kernel(outer, inner, entries), anchor
