"""Named verification suites: golden examples, exhaustive sweeps, seeded property runs.

Each suite returns a SuiteResult; the CLI renders them and the acceptance tests
assert on them.  Scales are fixed; only seeds and the scales tests shrink are parameters.
``@_suite(name)`` registers a suite in ``SUITES`` in definition order, which is
the order ``verify all`` runs, and stamps its result with the name and run time.
Every sweep takes its verdict from ``_sweep``, which fails an empty sweep.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Iterator

from .shapes import (
    AmbientRectangle,
    DirectSumFrame,
    SkewShape,
    addable_corners,
    boxes_of,
    contains,
    partition,
    partitions_in_rectangle,
    partitions_of,
    psize,
    removable_corners,
    star,
)
from .tableaux import (
    AugmentedTableau,
    IncreasingTableau,
    enumerate_augmented,
    enumerate_increasing,
    superstandard,
)
from .jdt import (
    SlideStep,
    SwitchTrace,
    extend_trace,
    kinfusion,
    kjdt_slide,
    krect,
    rectification_orders,
    rev_kjdt_slide,
    rev_krect_in_ambient,
    switch_trace,
)
from .coefficients import (
    _identity_frame,
    _sign,
    coeff_C,
    coeff_D,
    coeff_D_buch,
    coeff_D_via_identity,
    coeff_E,
    coeff_E_via_C,
)
from .equivalence import (
    check_count_independence,
    check_superstandard_independence,
    exhaustive_equivalence,
    is_rectangle,
    nonrect_counterexample,
    random_equivalence_run,
    verify_origin_invariants,
)
from . import schur
from .products import diamond, odot, single_box


@dataclass
class SuiteResult:
    ok: bool
    summary: str
    details: list[str] = field(default_factory=list)
    seed: int | None = None
    name: str = field(default="", init=False)  # set by @_suite, as is elapsed
    elapsed: float = field(default=0.0, init=False)

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = f"[{status}] {self.name}: {self.summary} ({self.elapsed:.2f}s)"
        if self.seed is not None:
            head += f" seed={self.seed}"
        return "\n".join([head] + [f"  {line}" for line in self.details])


SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str):
    """Register the decorated suite under ``name``; its result carries the name and run time."""

    def register(fn):
        @wraps(fn)
        def run(*args, **kwargs) -> SuiteResult:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            result.name, result.elapsed = name, time.perf_counter() - t0
            return result

        SUITES[name] = run
        return run

    return register


def _sweep(
    checked: int, failures: list[str], passed: str, shown: int = 5, seed: int | None = None
) -> SuiteResult:
    """A sweep's verdict: ok only if it checked something and nothing failed."""
    summary = f"{len(failures)} failures" if failures else f"{checked} {passed}"
    return SuiteResult(not failures and checked > 0, summary, failures[:shown], seed)


def _rectangles(max_rows: int, max_cols: int, max_area: int) -> Iterator[tuple[int, int]]:
    """(rows, cols) of every rectangle within the bounds, by rows and then cols."""
    for c in range(1, max_rows + 1):
        for d in range(1, max_cols + 1):
            if c * d <= max_area:
                yield c, d


# ---------------------------------------------------------------------------
# golden tables


def _t(rows) -> IncreasingTableau:
    return IncreasingTableau.from_rows(rows)


STAR_GROUP_TABLE: dict[IncreasingTableau, int] = {
    _t([[1, 2], [2]]): 1,
    _t([[1, 2], [3]]): 1,
    _t([[1, 3], [2]]): 1,
    _t([[1, 3], [3]]): 1,
    _t([[2, 3], [3]]): 1,
    _t([[1, 2], [2], [3]]): 1,
    _t([[1, 3], [2], [3]]): 1,
    _t([[1, 2], [2, 3]]): 1,
    _t([[1, 2], [2, 3], [3]]): 1,
    _t([[1, 2, 3], [2]]): 2,
    _t([[1, 2, 3], [3]]): 2,
    _t([[1, 2, 3], [2], [3]]): 1,
    _t([[1, 2, 3], [2, 3]]): 1,
}

AUGMENTED_WITNESSES = (
    AugmentedTableau((2, 1), (1,), ((1, 2, 1), (2, 1, 1)), ()),
    AugmentedTableau((2, 1), (1,), ((1, 2, 1),), ((2, 1),)),
    AugmentedTableau((2, 1), (1,), ((2, 1, 1),), ((1, 2),)),
)


@_suite("star-groups")
def star_groups_suite() -> SuiteResult:
    """The fifteen fillings of (2)*(2,1) over {1,2,3} and their target groups."""
    report = check_count_independence(star((2,), (2, 1)), {1, 2, 3})
    tally = {t: n for grp in report.groups.values() for t, n in grp}
    d_value = coeff_D((2,), (2, 1), (3, 1))
    ok = report.total == 15 and tally == STAR_GROUP_TABLE and len(report.groups) == 7
    ok = ok and d_value == -2 and report.uniform_within_alphabet
    details = [f"{len(report.groups)} target shapes over {report.total} fillings; splitting value {d_value}"]
    for target_shape, grp in sorted(report.groups.items()):
        cells = ", ".join(f"{'/'.join(''.join(map(str, row)) for row in t.rows())} x{n}" for t, n in grp)
        details.append(f"shape {target_shape}: {cells}")
    return SuiteResult(ok, "corner-to-corner enumeration groups", details)


@_suite("augmented-witnesses")
def augmented_witnesses_suite() -> SuiteResult:
    """The three marked witnesses and both routes to the ideal-sheaf value -3."""
    direct = coeff_E((1,), (1,), (2, 1))
    via_c = coeff_E_via_C((1,), (1,), (2, 1))
    family = tuple(enumerate_augmented(SkewShape((2, 1), (1,)), {1}))
    target = superstandard((1,))
    witnesses = tuple(t for t in family if krect(t.erase_x()) == target)
    ok = direct == via_c == -3 and set(witnesses) == set(AUGMENTED_WITNESSES)
    return SuiteResult(
        ok,
        f"value {direct} via rook strips and {via_c} via marked fillings, "
        f"{len(witnesses)} witnesses",
    )


@_suite("rect-order-independence")
def rect_order_independence_suite() -> SuiteResult:
    """Rectification from a rectangular inner shape ignores the order choice.

    Inner rectangles (1), (2) and (2,2), outer shapes of at most 7 boxes,
    labels 1..4, and every order of ``rectification_orders``: one per distinct
    corner-set sequence, the only part of an order that a rectification reads.
    """
    checked = 0
    failures: list[str] = []
    for rect in ((1,), (2,), (2, 2)):
        orders = list(rectification_orders(rect))
        for n in range(psize(rect), 8):
            for nu in partitions_of(n):
                if not contains(nu, rect) or nu == rect:
                    continue
                shape = SkewShape(nu, rect)
                for t in enumerate_increasing(shape, range(1, 5)):
                    results = {krect(t, order) for order in orders}
                    checked += 1
                    if len(results) != 1:
                        failures.append(f"{t} gives {len(results)} results")
    return _sweep(checked, failures, "fillings, every order agrees")


@_suite("strong-equivalence")
def strong_equivalence_suite() -> SuiteResult:
    """Same-shape rectangular tableaux stay configuration-synchronized under slides.

    Sequences are exhaustive over single-corner steps up to depth 3 (see
    available_steps); rectangles have at most 6 boxes and labels run over 1..4,
    or 1..5 on the 6-box rectangles to give them several fillings.
    """
    depth = 3
    pairs = 0
    failures: list[str] = []
    for c, d in _rectangles(3, 3, 6):
        alpha = 5 if c * d == 6 else 4
        shape = SkewShape.straight((d,) * c)
        ambient = AmbientRectangle(c + 2, c + 2 + d + 2)
        tableaux = list(enumerate_increasing(shape, range(1, alpha + 1)))
        for i, a in enumerate(tableaux):
            for b in tableaux[i + 1 :]:
                verdict = exhaustive_equivalence(a, b, ambient, depth)
                pairs += 1
                if verdict is not None:
                    failures.append(f"{a.rows()} vs {b.rows()} diverged")
    passed = f"rectangular pairs equivalent on all single-corner sequences of depth <= {depth}"
    return _sweep(pairs, failures, passed)


@_suite("random-equivalence")
def random_equivalence_suite(runs: int = 100, seed: int = 11) -> SuiteResult:
    """Random mixed slide sequences of 4 steps keep 2x2 pairs configuration-equal."""
    rng = random.Random(seed)
    shape = SkewShape.straight((2, 2))
    ambient = AmbientRectangle(4, 8)
    tableaux = list(enumerate_increasing(shape, range(1, 5)))
    failures: list[str] = []
    for _ in range(runs):
        a, b = rng.sample(tableaux, 2)  # two distinct tableaux: a pair with itself checks nothing
        verdict = random_equivalence_run(a, b, ambient, 4, rng)
        if not verdict.equivalent:
            failures.append(f"{a.rows()} vs {b.rows()} diverged at stage {verdict.divergence_stage}")
    return _sweep(runs, failures, "random mixed runs equivalent", seed=seed)


@_suite("sharpness")
def sharpness_suite() -> SuiteResult:
    """Every non-rectangular inner shape of at most 6 boxes admits order-dependent rectification."""
    count = 0
    failures: list[str] = []
    for n in range(1, 7):
        for lam in partitions_of(n):
            if is_rectangle(lam):
                continue
            try:
                c = nonrect_counterexample(lam)
            except Exception as exc:  # pragma: no cover
                failures.append(f"{lam}: {exc}")
                continue
            count += 1
            if c.results[0] == c.results[1]:
                failures.append(f"{lam}: results agree")
    seed_instance = nonrect_counterexample((2, 1))
    if not (
        seed_instance.nu == (3, 3, 2)
        and seed_instance.tableau.cells
        == ((1, 3, 2), (2, 2, 1), (2, 3, 4), (3, 1, 1), (3, 2, 3))
        and seed_instance.order1 == _t([[1, 2], [3]])
        and seed_instance.order2 == _t([[1, 3], [2]])
        and seed_instance.results[0] == _t([[1, 2, 4], [3]])
        and seed_instance.results[1] == _t([[1, 2, 4], [3, 4]])
    ):
        failures.append("(2, 1): not the golden seed instance")
    spread = nonrect_counterexample((6, 6, 3, 1))
    if spread.nu != (7, 6, 5, 2, 1) or spread.tableau.cells != (
        (1, 7, 2),
        (3, 4, 1),
        (3, 5, 4),
        (4, 2, 3),
        (5, 1, 1),
    ):
        failures.append("(6, 6, 3, 1): not the golden seed instance")
    passed = "non-rectangular shapes produce verified divergences; seed instances exact"
    return _sweep(count, failures, passed)


def _random_skew_instance(rng: random.Random, max_boxes: int) -> IncreasingTableau:
    while True:
        outer = []
        width = rng.randint(1, 4)
        for _ in range(rng.randint(1, 4)):
            outer.append(width)
            if width > 1 and rng.random() < 0.5:
                width = rng.randint(1, width)
        outer = partition(sorted(outer, reverse=True))
        if not (0 < psize(outer) <= max_boxes):
            continue
        inner_rows = [rng.randint(0, w) for w in outer]
        inner_rows = partition(sorted(inner_rows, reverse=True))
        if not contains(outer, inner_rows) or psize(outer) - psize(inner_rows) == 0:
            continue
        entries = {}
        shape = SkewShape(outer, inner_rows)
        for r, c in shape.boxes():
            lo = max(entries.get((r, c - 1), 0), entries.get((r - 1, c), 0))
            entries[(r, c)] = lo + rng.randint(1, 2)
        return IncreasingTableau.make(outer, inner_rows, entries)


@_suite("reversibility")
def reversibility_suite(seed: int = 2024) -> SuiteResult:
    """Forward slides undo through reverse slides into the vacated boxes: 1000 instances."""
    rng = random.Random(seed)
    checked = 0
    failures: list[str] = []
    while checked < 1000:
        t = _random_skew_instance(rng, 9)
        corners = removable_corners(t.inner)
        if not corners:
            continue
        chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
        slid = kjdt_slide(t, chosen)
        vacated = frozenset(set(boxes_of(t.outer)) - set(boxes_of(slid.outer)))
        ambient = AmbientRectangle(len(t.outer) + 1, len(t.outer) + 2 + t.outer[0])
        if rev_kjdt_slide(slid, vacated, ambient) != t:
            failures.append(f"{t} slid at {sorted(chosen)} is not undone")
        checked += 1
    return _sweep(checked, failures, "random slides undone exactly", seed=seed)


@_suite("infusion-involution")
def infusion_involution_suite(seed: int = 4096) -> SuiteResult:
    """Infusion applied twice returns the original nested pair: 1000 instances."""
    rng = random.Random(seed)
    checked = 0
    failures: list[str] = []
    while checked < 1000:
        t = _random_skew_instance(rng, 9)
        if not (0 < psize(t.inner) <= 6):
            continue
        orders = list(rectification_orders(t.inner))
        a = rng.choice(orders)
        c, w = kinfusion(a, t)
        if kinfusion(c, w) != (a, t):
            failures.append(f"{t} with order {a.rows()} does not return")
        checked += 1
    return _sweep(checked, failures, "nested pairs return exactly", seed=seed)


@_suite("rev-rect-anchor")
def rev_rect_anchor_suite() -> SuiteResult:
    """Reverse rectification parks every rectangle of at most 6 boxes at the ambient's southeast corner."""
    checked = 0
    failures: list[str] = []
    max_rows, max_cols = 4, 5
    for c, d in _rectangles(max_rows, max_cols, 6):
        shape = SkewShape.straight((d,) * c)
        for k in range(c, max_rows + 1):
            for cols in range(d, max_cols + 1):
                ambient = AmbientRectangle(k, k + cols)
                for t in enumerate_increasing(shape, range(1, c * d + 2)):
                    out, anchor = rev_krect_in_ambient(t, ambient)
                    checked += 1
                    if anchor != (k - c + 1, cols - d + 1):
                        failures.append(f"{t.rows()} in {k}x{cols} at {anchor}")
    return _sweep(checked, failures, "reverse rectifications anchored southeast")


@_suite("origin-invariants")
def origin_invariants_suite(max_area: int = 6, depth: int = 3) -> SuiteResult:
    """Reverse-slide traces from rectangles keep origins clean and ordered."""
    checked = 0
    failures: list[str] = []

    def check(trace: SwitchTrace, known: int, ambient: AmbientRectangle, left: int):
        # a node checks the states of its own step only: its parent's were clean
        nonlocal checked
        report = verify_origin_invariants(trace, known)
        checked += 1
        if not report.clean:
            failures.append(f"{trace.start.rows()} after {depth - left} steps: {report.violations[0]}")
            return
        if left == 0:
            return
        outer, _ = trace.final_shape()
        corners = addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols)
        for mask in range(1, 1 << len(corners)):
            subset = frozenset(b for i, b in enumerate(corners) if mask >> i & 1)
            step = SlideStep("reverse", subset)
            check(extend_trace(trace, [step], ambient), len(trace.states), ambient, left - 1)

    for c, d in _rectangles(3, 3, max_area):
        ambient = AmbientRectangle(c + 2, c + 2 + d + 2)
        shape = SkewShape.straight((d,) * c)
        for t in enumerate_increasing(shape, range(1, 5)):
            check(switch_trace(t, [], ambient), 0, ambient, depth)
    return _sweep(checked, failures, "reverse traces clean")


@_suite("count-independence")
def count_independence_suite() -> SuiteResult:
    """Multiplicity tables for rectangular-inner shapes are target independent."""
    cases = [
        (star((2,), (2, 1)), frozenset({1, 2, 3})),
        (SkewShape((2, 2), (1,)), frozenset({1, 2, 3})),
        (SkewShape((3, 2), (2, 2)), frozenset({1, 2, 3})),
        (SkewShape((3, 1), ()), frozenset({1, 2, 3})),
    ]
    details = []
    ok = True
    for shape, alpha in cases:
        report = check_count_independence(shape, alpha)
        ok = ok and report.uniform_within_alphabet
        details.append(
            f"{shape.outer}/{shape.inner}: {report.total} fillings, "
            f"{len(report.groups)} target shapes, across-alphabet uniform: "
            f"{report.uniform_across_alphabets}"
        )
    return SuiteResult(ok, f"{len(cases)} shapes grouped", details)


@_suite("superstandard-independence")
def superstandard_independence_suite(max_extra: int = 3) -> SuiteResult:
    """A superstandard rectification under one order forces it under all (inner shapes of 2 to 4 boxes)."""
    checked = 0
    failures: list[str] = []
    for n in range(2, 5):
        for lam in partitions_of(n):
            if is_rectangle(lam):
                continue
            for extra in range(1, max_extra + 1):
                for nu in partitions_of(n + extra):
                    if not contains(nu, lam):
                        continue
                    for t in enumerate_increasing(SkewShape(nu, lam), range(1, 5)):
                        report = check_superstandard_independence(t)
                        checked += 1
                        if not report.consistent:
                            failures.append(f"{t}")
    return _sweep(checked, failures, "skew fillings consistent")


@_suite("products")
def products_suite() -> SuiteResult:
    """The corner-to-corner and insertion products on their displayed instances."""
    z = _t([[1, 2, 3], [2, 4, 5]])
    u = _t([[1, 2]])
    left = odot(z, u)
    right = diamond(z, u)
    assoc_left = odot(odot(z, single_box(1)), single_box(2))
    assoc_right = odot(z, odot(single_box(1), single_box(2)))
    ok = (
        left == _t([[1, 2, 3], [2, 3, 5], [4, 5]])
        and right == _t([[1, 2, 3], [2, 3, 5], [4]])
        and assoc_left == right
        and assoc_right == left
        and assoc_left != assoc_right
    )
    return SuiteResult(ok, "corner-to-corner and insertion products differ exactly as displayed")


@_suite("degeneration")
def degeneration_suite() -> SuiteResult:
    """When sizes add up to at most 8, all rules agree with the classical LR coefficient."""
    checked = 0
    failures: list[str] = []
    for total in range(0, 9):
        for a in range(0, total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    oracle = schur.schur_product_expansion(lam, mu)
                    for nu in partitions_of(total):
                        expected = oracle.get(nu, 0)
                        c_val = coeff_C(lam, mu, nu)
                        d_val = coeff_D(lam, mu, nu)
                        checked += 1
                        if not (c_val == d_val == expected):
                            failures.append(f"{lam},{mu}->{nu}: C={c_val} D={d_val} schur={expected}")
    passed = "classical triples agree on the C rule, the D rule and the Schur oracle"
    return _sweep(checked, failures, passed, 8)


def _frames(k_max: int, n_max: int) -> Iterator[DirectSumFrame]:
    sides = [(k, n) for k in range(1, k_max + 1) for n in range(k + 1, n_max + 1)]
    for k1, n1 in sides:
        for k2, n2 in sides:
            yield DirectSumFrame(k1, n1, k2, n2)


@_suite("triple-agreement")
def triple_agreement_suite() -> SuiteResult:
    """Splitting coefficients agree across the slide rule, the set-valued rule,
    and the direct-sum identity, over every frame with each k <= 2 and n <= 4.

    Where the frame would make the identity count D's own skew shape,
    ``_identity_frame`` gives it one more column in the first factor's rectangle.
    """
    checked = widened = 0
    distinct: set[tuple] = set()
    failures: list[str] = []
    for frame in _frames(2, 4):
        lams = list(partitions_in_rectangle(frame.k1, frame.n1 - frame.k1))
        mus = list(partitions_in_rectangle(frame.k2, frame.n2 - frame.k2))
        nus = list(partitions_in_rectangle(frame.k, frame.n - frame.k))
        for lam in lams:
            for mu in mus:
                for nu in nus:
                    jdt = coeff_D(lam, mu, nu)
                    buch = coeff_D_buch(lam, mu, nu)
                    used = _identity_frame(lam, mu, nu, frame)
                    ident = coeff_D_via_identity(lam, mu, nu, used)
                    checked += 1
                    widened += used is not frame
                    distinct.add((lam, mu, nu))
                    if not (jdt == buch == ident):
                        failures.append(f"{lam},{mu}->{nu} in {frame}: {jdt}/{buch}/{ident}")
    passed = (
        f"frame triples ({len(distinct)} distinct) agree on all three routes; "
        f"{widened} identities read in a frame one column wider"
    )
    return _sweep(checked, failures, passed, 8)


SIGN_FLOOR = 100  # the sweep below has 210 nonzero values; fewer means it checked too little


@_suite("sign-invariant")
def sign_invariant_suite() -> SuiteResult:
    """Every nonzero C, D and E of a fixed sweep carries the parity-predicted sign.

    The sweep takes lambda and mu in a 2x2 box and nu in a 2x3 box.  Seeing
    fewer than SIGN_FLOOR nonzero values is a failure, never a vacuous pass.
    """
    bad = []
    seen = 0
    small = list(partitions_in_rectangle(2, 2))
    for lam in small:
        for mu in small:
            for nu in partitions_in_rectangle(2, 3):
                for kind, fn in (("C", coeff_C), ("D", coeff_D), ("E", coeff_E)):
                    value = fn(lam, mu, nu)
                    if value == 0:
                        continue
                    seen += 1
                    if (value > 0) != (_sign(psize(nu) - psize(lam) - psize(mu)) > 0):
                        bad.append(f"{kind} {lam},{mu}->{nu} = {value}")
    if seen < SIGN_FLOOR:
        bad.insert(0, f"only {seen} nonzero coefficients checked, need {SIGN_FLOOR}")
    return _sweep(seen, bad, "nonzero coefficients match the parity sign", 8)


# the suites that take a ``seed``; ``ktaquin verify --seed`` passes it to these
SEEDED_SUITES = frozenset(name for name, fn in SUITES.items() if "seed" in inspect.signature(fn).parameters)
