"""Executable verification of the structural slide theorems and their sharpness.

Checks here are pure jobs returning frozen report dataclasses (verdicts,
violations, counterexamples, tallies) that the suites, the CLI and the demos read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import lt
from typing import Iterable, Iterator, Sequence

from .shapes import (
    AmbientRectangle,
    Box,
    Part,
    ShapeFitError,
    SkewShape,
    addable_corners,
    contains,
    partition,
    partitions_in_rectangle,
    psize,
    removable_corners,
)
from .tableaux import IncreasingTableau, column_superstandard, enumerate_increasing, is_superstandard
from .tableaux import iter_increasing_cells, superstandard
from .jdt import (
    SlideStep,
    SwitchTrace,
    extend_trace,
    krect,
    rectification_orders,
    switch_trace,
)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Whether two tableaux keep equal configurations along slide sequences.

    States are numbered along the whole diverging sequence, from its first
    bullet placement: divergence_stage is the index of the first state that
    differs, and stages_compared counts the states compared up to and
    including it, or all of them when the tableaux stay equivalent.  When one
    trace ends first, both are the length of the shorter one.
    """

    equivalent: bool
    divergence_stage: int | None
    stages_compared: int


def check_strong_dual_equivalence(
    a: IncreasingTableau,
    b: IncreasingTableau,
    slides: Sequence[SlideStep],
    ambient: AmbientRectangle,
) -> EquivalenceVerdict:
    """Compare the switch-by-switch configurations of a common slide sequence."""
    _require_same_shape(a, b)
    return _divergence(switch_trace(a, slides, ambient), switch_trace(b, slides, ambient), 0)


def _require_same_shape(a: IncreasingTableau, b: IncreasingTableau) -> None:
    if (a.outer, a.inner) != (b.outer, b.inner):
        raise ShapeFitError("tableaux must share one shape")


def _divergence(trace_a: SwitchTrace, trace_b: SwitchTrace, start: int) -> EquivalenceVerdict:
    """Compare the traces' configurations from state ``start`` on.

    The states before ``start`` are equal, as ``extend_trace`` keeps them;
    equal configurations at every state keep the two shapes equal.
    """
    states_a, states_b = trace_a.states, trace_b.states
    n = min(len(states_a), len(states_b))
    for i in range(start, n):
        if states_a[i].configuration() != states_b[i].configuration():
            return EquivalenceVerdict(False, i, i + 1)
    if len(states_a) != len(states_b):
        return EquivalenceVerdict(False, n, n)
    return EquivalenceVerdict(True, None, n)


@dataclass(frozen=True)
class OriginViolation:
    stage: int
    kind: str  # "uniformity" | "row-order" | "column-order" | "bullet-neighbors"
    detail: str


@dataclass(frozen=True)
class OriginReport:
    violations: tuple[OriginViolation, ...]
    stages_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations


def _nw_comparable(x: Box, y: Box) -> bool:
    return (x[0] <= y[0] and x[1] <= y[1]) or (y[0] <= x[0] and y[1] <= x[1])


def verify_origin_invariants(trace: SwitchTrace, start: int = 0) -> OriginReport:
    """Per-stage checks: uniformity, origin-row/column order, bullet-neighbor comparability.

    States before ``start`` are taken as already checked (``extend_trace``
    adds states after them); violations keep their index in the whole trace.
    """
    violations: list[OriginViolation] = []
    for i in range(start, len(trace.states)):
        state = trace.states[i]
        origins = trace.origins[i]
        if origins is None:
            violations.append(OriginViolation(i, "uniformity", f"switch into stage {state.stage}"))
            continue
        boxes = [(r, c) for r, c, _ in state.cells]
        if not all(map(lt, boxes, boxes[1:])):  # cells not in order: a hand-built state
            boxes = sorted(set(boxes))
        placed = [(x, origins[x]) for x in boxes]
        # every box has an origin, so equal sizes mean the origins' keys are the boxes
        numeric = origins if len(origins) == len(boxes) else set(boxes)
        for x, ox in placed:
            for y, oy in placed:
                if ox[0] == oy[0]:
                    if oy[1] > ox[1] and not (y[1] > x[1] and y[0] <= x[0]):
                        violations.append(
                            OriginViolation(i, "row-order", f"origins {ox},{oy} boxes {x},{y}")
                        )
                elif ox[1] == oy[1] and oy[0] > ox[0] and not (y[0] > x[0] and y[1] <= x[1]):
                    violations.append(
                        OriginViolation(i, "column-order", f"origins {ox},{oy} boxes {x},{y}")
                    )
        for (r, c) in state.bullets:
            north, west = (r - 1, c), (r, c - 1)
            if north in numeric and west in numeric:
                if not _nw_comparable(origins[north], origins[west]):
                    violations.append(
                        OriginViolation(
                            i,
                            "bullet-neighbors",
                            f"bullet {(r, c)} neighbors originate at {origins[north]}, {origins[west]}",
                        )
                    )
    return OriginReport(tuple(violations), len(trace.states) - start)


@dataclass(frozen=True)
class Counterexample:
    """A shape, filling, and two rectification orders with different results."""

    nu: Part
    tableau: IncreasingTableau
    order1: IncreasingTableau
    order2: IncreasingTableau
    results: tuple[IncreasingTableau, IncreasingTableau]


def is_rectangle(lam: Part) -> bool:
    return not lam or all(p == lam[0] for p in lam)


def _seed_instance(lam: Part) -> tuple[Part, dict[Box, int]] | None:
    """The spread-out seed at the first descent of a non-rectangle; None when it does not fit."""
    ell = len(lam)
    r = next(i for i in range(2, ell + 1) if lam[i - 2] > lam[i - 1])
    entries: dict[Box, int] = {(1, lam[0] + 1): 2, (r, lam[r - 1] + 1): 1, (r, lam[r - 1] + 2): 4}
    rows = list(lam)
    rows[0] += 1
    rows[r - 1] += 2
    if r == ell:
        rows.append(2)
        entries[(ell + 1, 1)] = 1
        entries[(ell + 1, 2)] = 3
    else:
        rows[r] += 1
        entries[(r + 1, lam[r] + 1)] = 3
        rows.append(1)
        entries[(ell + 1, 1)] = 1
    for a, b in zip(rows, rows[1:]):
        if b > a:
            return None
    return partition(rows), entries


def _search_candidates(lam: Part) -> Iterator[tuple[Part, dict[Box, int]]]:
    """Deterministic bounded search: shapes with one extra row/column, small fillings."""
    box = partitions_in_rectangle(len(lam) + 1, lam[0] + 1)
    shapes = [nu for nu in box if contains(nu, lam) and 2 <= psize(nu) - psize(lam) <= 6]
    shapes.sort(key=lambda nu: (psize(nu), nu))
    for nu in shapes:
        for m in range(2, min(4, psize(nu) - psize(lam)) + 1):
            for cells in iter_increasing_cells(nu, lam, range(1, m + 1), surjective=True):
                yield nu, {(r, c): v for r, c, v in cells}


def nonrect_counterexample(lam: Part) -> Counterexample:
    """For a non-rectangular inner shape, exhibit order-dependent rectification.

    The canonical spread-out seed at the first descent is tried first; if its
    shape does not fit or (never observed) fails to diverge, a deterministic
    bounded search over shapes with at most one extra row and column runs.
    Every returned instance is verified divergent.
    """
    lam = partition(lam)
    if is_rectangle(lam):
        raise ShapeFitError(f"{lam} is a rectangle; rectification there is order independent")

    def candidates() -> Iterator[tuple[Part, dict[Box, int]]]:
        seed = _seed_instance(lam)
        if seed is not None:
            yield seed
        yield from _search_candidates(lam)

    def order_stream() -> Iterator[IncreasingTableau]:
        # the row- and column-consecutive orders split at the descent corner,
        # which is exactly the seed's divergence mechanism; fall back to the
        # full canonical order set for searched instances
        yield superstandard(lam)
        yield column_superstandard(lam)
        yield from rectification_orders(lam)

    for nu, entries in candidates():
        t = IncreasingTableau.make(nu, lam, entries)
        first_order: IncreasingTableau | None = None
        first_result: IncreasingTableau | None = None
        for order in order_stream():
            result = krect(t, order)
            if first_order is None:
                first_order, first_result = order, result
            elif result != first_result:
                return Counterexample(nu, t, first_order, order, (first_result, result))
    raise ShapeFitError(f"no divergent instance found over {lam}")  # pragma: no cover


@dataclass(frozen=True)
class CountIndependenceReport:
    """Rectification-target multiplicities grouped by straight target shape."""

    groups: dict[Part, tuple[tuple[IncreasingTableau, int], ...]]
    uniform_within_alphabet: bool
    uniform_across_alphabets: bool  # recorded observation, not asserted by callers
    total: int


def check_count_independence(shape: SkewShape, alphabet: Iterable[int]) -> CountIndependenceReport:
    """Group rectifications of all fillings from the alphabet by target.

    Asserting scope: within each (target shape, target value set) class the
    multiplicities must agree.  Across value sets the counts are recorded only.
    """
    if shape.inner and not is_rectangle(shape.inner):
        raise ShapeFitError(f"inner shape {shape.inner} must be a rectangle")
    tally: dict[IncreasingTableau, int] = {}
    total = 0
    for t in enumerate_increasing(shape, alphabet):
        result = krect(t)
        tally[result] = tally.get(result, 0) + 1
        total += 1
    groups: dict[Part, list[tuple[IncreasingTableau, int]]] = {}
    for target, n in sorted(tally.items(), key=lambda kv: (kv[0].outer, kv[0].cells)):
        groups.setdefault(target.outer, []).append((target, n))
    uniform_within = True
    uniform_across = True
    for grp in groups.values():
        by_values: dict[frozenset[int], set[int]] = {}
        for target, n in grp:
            by_values.setdefault(target.values, set()).add(n)
        if any(len(ns) > 1 for ns in by_values.values()):
            uniform_within = False
        if len({n for _, n in grp}) > 1:
            uniform_across = False
    return CountIndependenceReport(
        {shape_: tuple(grp) for shape_, grp in groups.items()},
        uniform_within,
        uniform_across,
        total,
    )


@dataclass(frozen=True)
class SuperstandardReport:
    results: tuple[IncreasingTableau, ...]
    any_superstandard: bool
    consistent: bool  # if any order reached a superstandard target, all agreed


def check_superstandard_independence(t: IncreasingTableau) -> SuperstandardReport:
    """Rectify under every order; a superstandard result forces full agreement."""
    if psize(t.inner) > 5:
        raise ShapeFitError("inner shape too large to exhaust rectification orders")
    results = tuple(krect(t, order) for order in rectification_orders(t.inner))
    any_ss = any(is_superstandard(r) for r in results)
    consistent = (not any_ss) or len(set(results)) == 1
    return SuperstandardReport(results, any_ss, consistent)


def available_steps(shape: SkewShape, ambient: AmbientRectangle) -> list[SlideStep]:
    """Every legal slide step from a shape, each into one corner.

    Equivalence sweeps move one corner at a time: when several bullets are in
    play at once, the order in which unrelated bullets take their switches is
    set by the label values, so mid-slide configuration sequences of
    same-shape rectangular tableaux can interleave differently even though
    every individual bullet moves the same way; one bullet at a time removes
    the interleaving freedom (both displayed divergence phenomena already
    occur under single-corner slides).
    """
    steps = [SlideStep("forward", frozenset({b})) for b in removable_corners(shape.inner)]
    outer = addable_corners(shape.outer, max_rows=ambient.rows, max_cols=ambient.cols)
    return steps + [SlideStep("reverse", frozenset({b})) for b in outer]


def random_equivalence_run(
    a: IncreasingTableau,
    b: IncreasingTableau,
    ambient: AmbientRectangle,
    length: int,
    rng: random.Random,
) -> EquivalenceVerdict:
    """Compare a and b along one random mixed slide sequence, chosen on the fly.

    Steps are drawn from the legal moves of the common evolving shape, so the
    sequence is reproducible from the generator state.
    """
    _require_same_shape(a, b)
    trace_a, trace_b = switch_trace(a, [], ambient), switch_trace(b, [], ambient)
    for _ in range(length):
        choices = available_steps(SkewShape(*trace_a.final_shape()), ambient)
        if not choices:
            break
        step = rng.choice(choices)
        known = len(trace_a.states)
        trace_a, trace_b = extend_trace(trace_a, [step], ambient), extend_trace(trace_b, [step], ambient)
        verdict = _divergence(trace_a, trace_b, known)
        if not verdict.equivalent:
            return verdict
    return EquivalenceVerdict(True, None, len(trace_a.states))


def exhaustive_equivalence(
    a: IncreasingTableau,
    b: IncreasingTableau,
    ambient: AmbientRectangle,
    depth: int,
) -> EquivalenceVerdict | None:
    """First divergence over every slide sequence up to the given depth, else None.

    Sequences are searched in pre-order of ``available_steps``, one corner
    per step.  Prefixes are shared: after an equal-configuration step the
    pair's traces are extended, so each step is slid once, and a verdict
    numbers its states along the whole diverging sequence.
    """
    _require_same_shape(a, b)

    def walk(trace_a: SwitchTrace, trace_b: SwitchTrace, left: int) -> EquivalenceVerdict | None:
        known = len(trace_a.states)
        for step in available_steps(SkewShape(*trace_a.final_shape()), ambient):
            next_a, next_b = extend_trace(trace_a, [step], ambient), extend_trace(trace_b, [step], ambient)
            verdict = _divergence(next_a, next_b, known)
            if not verdict.equivalent:
                return verdict
            if left > 1:
                found = walk(next_a, next_b, left - 1)
                if found is not None:
                    return found
        return None

    return walk(switch_trace(a, [], ambient), switch_trace(b, [], ambient), depth) if depth > 0 else None
