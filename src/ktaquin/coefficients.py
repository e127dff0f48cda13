"""The four K-theory coefficient families C, D, E, F and the classical c.

Each family has a direct jeu-de-taquin rule plus at least one independent
cross-check:

* C: count skew increasing tableaux rectifying to the superstandard target;
  cross-checked against C with lam and mu swapped (when they differ), against
  Buch's set-valued rule in every range, and against the Schur oracle in the
  classical range.
* D: count fillings of the corner-to-corner shape rectifying to a fixed target
  (well defined because the inner shape is a rectangle); cross-checked against
  the set-valued-tableau rule and against C through the direct-sum identity
  (whose default frame never makes that C count D's own).
* E: count X-augmented fillings whose erased part rectifies to the target,
  that is the alternating rook-strip sum of jdt C values; cross-checked by
  the paper's own rule on Buch's C: marks on every subset of the outer
  corners inside the region, which needs no rook-strip enumeration.  An
  ideal-sheaf product table is also checked at the full rectangle, where the
  duality of the two bases fixes its entry.
* F: equal to D by definition of the dual-basis splitting; cross-checked
  through D's two independent routes.
* c: the classical limit (the D count at |nu| = |lam| + |mu|, where its sign
  is +1), cross-checked against a Schur polynomial oracle.

One module-level dict, ``_memo`` (defined in ``shapes``, the lowest module
that reads it, and bound here too), holds everything that is reused, under
these keys:

* ``(kind, lam, mu, nu)`` for kind "C", "C-buch" and "D-buch", and for "D"
  with the superstandard target (a D count for any other target is not
  memoized, but the label steps it runs are); an E value is a sum of C entries
  and has no key of its own;
* ``(outer, inner, m)`` for a row of superstandard rectification counts over
  the alphabet 1..m (``rect_tally``), shared by the C and D counts that read
  one shape of that row each; the counts ask for a row only when m is at most
  the region's |outer| - |inner|, so a count that is zero by size stores none;
* ``("label-step", filled, classes, placed)`` for one step of ``_rect_count``
  (``_label_step``): the filled shape, the S classes and the boxes of the
  placed label after it is switched past the S classes of the state
  ``(filled, classes)``, where ``placed`` holds the rows of the corners it was
  placed in; shared by every row, target or not, that reaches that state;
* ``("switch", landed, s_class)`` for one switch of a label step: the
  placed class, on the boxes ``landed`` with every label 1, switched past
  the S class ``s_class``.  Its value is (the placed class's new boxes, the
  S class's new boxes), both interned as "boxes".  A switch depends on these
  two sets alone, so it is shared by every step, row and target that meets
  it, and the kernel's stage checks and the apart check of the class it
  makes run once per distinct switch;
* ``("boxes", s)`` for the one copy of a frozenset ``s`` of boxes that the
  label steps keep (an S class or a landed class), so that the steps share
  their sets;
* ``("schur", lam, nvars, base)`` for the packed monomials of a Schur
  polynomial, which the classical oracle in ``schur`` multiplies and peels;
* ``("partition", t)`` for the ``shapes.Partition`` of the int tuple ``t``:
  ``shapes.partition`` returns a ``Partition`` as it is, serves a tuple of
  ints seen before by this one lookup and converts everything else with
  ``int()`` first (rejected shapes are never stored); the label steps store
  the shapes they fill here too, as ``Partition``s, and keep the one copy.

It is never evicted; ``_memo.clear()`` returns to a cold start, the Schur
oracle included.

Each coefficient route has one function: ``compute_with_checks`` reads its
value from ``KINDS``, the rule that an unchecked query runs, and each check
calls its route's function.  Public functions normalise their shapes through
the memo; only ``_memoized_count``, the ``_count_*`` functions and
``rect_tally`` take normal-form shapes and never normalise.

Every jdt count (C, D, and E through C) goes label by label through
``_rect_count``, never filling by filling.

Each count (``_count_C``, ``_count_D`` without a target, ``_count_C_buch``
and ``_count_D_buch``) first runs its own size test, on the sums it already
takes for its sign: a filling needs at least one label per box, so C and
C-buch are 0 when |nu| < |lam| + |mu|, and D and D-buch when |nu| >
|lam| + |mu|.  Most triples of a table are zero this way, and each returns 0
before a star shape is built, the set-valued stream is started or a row is
stored.  The direct-sum identity (``coeff_D_via_identity``) runs its own test
too: it settles |nu| > |lam| + |mu| before it builds dagger/omega_dual, so a D
or F check that is zero by size stores no C entry.  The test is written out in
each route, with no shared helper, so that a fault in one route's test is
caught by another route's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .shapes import (
    AmbientRectangle,
    Box,
    DirectSumFrame,
    Part,
    ShapeFitError,
    SkewShape,
    _dagger,
    _memoized,
    _normal,
    _require_fit,
    _star,
    boxes_of,
    contains,
    dual_in_rectangle,
    format_partition,
    omega_dual,
    partition,
    partitions_in_rectangle,
    psize,
    remove_boxes,
    rook_strip_contractions,
    row_length,
)
from .tableaux import IncreasingTableau, _set_valued_cells, eligible_x_boxes
from .jdt import InternalInvariantError, _label_groups_desc
from . import jdt, schur, shapes

Kind = str  # a key of KINDS

_memo = shapes._memo

# No count here rectifies through krect any more, but the name stays bound in
# this module: perfbench's tracer self-test checks that ``coefficients.krect``
# is restored after tracing.
krect = jdt.krect


def _memoized_count(kind: str, lam: Part, mu: Part, nu: Part) -> int:
    """The count of one kind (a key of ``_COUNTS``) for normal-form shapes, through the memo."""
    return _memoized((kind, lam, mu, nu), _COUNTS[kind], lam, mu, nu)


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def rect_tally(outer: Part, inner: Part, m: int) -> dict[Part, int]:
    """Superstandard rectification counts over the surjective fillings of outer/inner onto 1..m.

    Maps each shape mu of m boxes to the number of fillings whose
    rectification, in the superstandard order of inner, is superstandard(mu);
    shapes that no filling reaches are absent.
    """
    return _memoized((outer, inner, m), _rect_count, outer, inner, m)


def _rect_count(
    outer: Part, inner: Part, m: int, targets: list[frozenset[Box]] | None = None
) -> dict[Part, int]:
    """Count rectifications label by label, without building a filling.

    Infusion through the order S = superstandard(inner) is a product of
    switches of one S class with one filling class, and switches on disjoint
    pairs of classes commute.  So filling label j, in ascending order, can be
    switched past every S class, largest first, before label j + 1 is placed,
    and its boxes are then final.  The count grows partial fillings one label
    at a time: the class of j is a nonempty set of addable corners of the
    filled shape P inside outer.  A branch is kept only if that class leaves a
    box for each label still to come and lands on the target's j boxes.

    By default the targets are the superstandard ones and the result is the
    row {mu: count}.  ``targets`` instead fixes the boxes of each target label
    in ascending order, and the result is {(): count}.

    One step, the switches of one placed class and the checks of the state
    they reach, is ``_label_step``, memoized under ``("label-step", filled,
    classes, placed)`` with ``placed`` the rows of the chosen corners.  The
    walk here chooses the corners inside outer and applies the landing test,
    the only parts that depend on outer, m and the targets.  So every
    distinct step runs the tiling check once, and every distinct switch the
    kernel's checks once, when any row first meets it: a step or switch met
    again would repeat the same computation on the same input.  No two
    branches of one count reach one state: infusion is an involution, so (S
    classes, landed prefix) determines the partial filling.
    """
    row: dict[Part, int] = {}
    size = psize(outer)
    region = size - psize(inner)
    if m > region or m == 0 < region:
        return row
    last_row = len(outer)

    def grow(j: int, filled: Part, free: int, classes: tuple, shape: Part) -> None:
        # free: the boxes of outer that filled leaves
        if j == m:
            row[shape] = row.get(shape, 0) + 1
            return
        label = j + 1
        rows = []  # the rows of the addable corners of filled inside outer
        above = None
        for r, (width, cap) in enumerate(zip(filled, outer), start=1):
            if width < cap and width != above:  # rows weakly decrease, so != is <
                rows.append(r)
            above = width
        if len(filled) < last_row:  # the first empty row; filled has no zero rows
            rows.append(len(filled) + 1)
        room = free - (m - label)  # most boxes this class may take
        for k in (room,) if label == m else range(1, min(room, len(rows)) + 1):
            for placed in combinations(rows, k):
                key = ("label-step", filled, classes, placed)
                step = _memo.get(key)
                if step is None:
                    step = _memo[key] = _label_step(filled, classes, placed)
                now, new, landed = step
                if targets is not None:
                    if landed != targets[j]:
                        continue
                    reached = shape
                elif len(landed) != 1:
                    continue
                else:
                    box, = landed
                    if shape and box == (len(shape), shape[-1] + 1):
                        reached = shape[:-1] + (shape[-1] + 1,)
                    elif box == (len(shape) + 1, 1):
                        reached = shape + (1,)
                    else:
                        continue
                grow(label, now, free - k, new, reached)

    # the superstandard order labels the boxes of inner row by row: one S class each
    classes = tuple(_interned("boxes", frozenset({box})) for box in boxes_of(inner))
    grow(0, _interned("partition", _normal(inner)), region, classes, ())
    return row


def _label_step(filled: Part, classes: tuple, placed: tuple[int, ...]) -> tuple:
    """Switch the placed class past the S classes, largest first, and check the state reached.

    ``classes`` are the S classes of a state of ``_rect_count`` that is tiled
    by them and the boxes landed so far, and ``placed`` holds the rows, in
    increasing order, of a set of addable corners of its filled shape.  Only
    this class is in the entries, so the switches are geometric: the step
    does not depend on the label's value, outer, m or the targets.

    A switch moves an S class only if one of its boxes is next to a box of
    the placed class: the class's slide has no other label to meet.  So only
    the S classes that meet the placed class's 4-neighbours, taken afresh
    after each switch, are switched, each of them moves, and a switch depends
    on nothing but the placed class's current boxes and the S class.  It is
    memoized under ``("switch", landed, s_class)``: the first time a pair is
    met it goes through ``jdt._switch_class``, as the bullets of one slide
    whose only stage is this class, which runs the kernel's stage checks and
    checks the class it produces for adjacent bullets; a pair met again is
    read from the memo, since the kernel would repeat the same computation
    on the same input.  A switch is stored only when the step that ran it
    passes the tiling check below, as the step itself is, so a refused step
    leaves no switch for a later one to read.  So every distinct switch is
    checked once, and every
    S class of every state was checked apart when it was made: the
    superstandard singletons need no check, and a class that no switch
    touches is the same set as before.  The new state must be tiled exactly
    by the S classes and the landed boxes, whether its switches were run or
    read.

    That tiling check compares only what the step changed: the placed boxes
    and the old boxes of each S class that moved, against the landed boxes
    and the new boxes of those classes.  The state stepped from was tiled,
    and the classes that did not move and the boxes landed before count the
    same in both, so the new state is tiled exactly when the two sets are
    equal and the second one counts its boxes once each: the verdict of
    checking every box of the filled shape, at the cost of the boxes moved.

    Returns (the filled shape, the S classes, the boxes this class landed
    on), with the shape and each set of boxes interned in the memo.
    """
    boxes = [(r, (filled[r - 1] if r <= len(filled) else 0) + 1) for r in placed]
    landed = frozenset(boxes)  # the placed class's current boxes
    around = jdt._NEIGHBOURS
    near = {nb for box in boxes for nb in around[box]}  # the placed class's 4-neighbours
    new = list(classes)
    before = set(boxes)  # the placed boxes and the old boxes of each moved class
    after: set[Box] = set()  # the landed boxes and the new boxes of those classes
    moved = 0  # the boxes of the moved classes, counted once per class
    fresh = []  # the switches run here, stored once the state they reach tiles
    for s in range(len(new) - 1, -1, -1):
        s_class = new[s]
        if near.isdisjoint(s_class):
            continue
        key = ("switch", landed, s_class)
        switch = _memo.get(key)
        if switch is None:
            entries = dict.fromkeys(landed, 1)
            bullets = jdt._switch_class(entries, s_class)
            switch = (_interned("boxes", frozenset(entries)), _interned("boxes", frozenset(bullets)))
            fresh.append((key, switch))
        landed, new[s] = switch
        before.update(s_class)
        after.update(new[s])
        moved += len(new[s])
        near = {nb for box in landed for nb in around[box]}
    # grow picked the placed rows' addable corners, so each row takes one box
    now = list(filled) + [0] * (placed[-1] - len(filled))
    for r, c in boxes:
        now[r - 1] = c
    # the state stepped from was tiled, so the unchanged classes and earlier landed
    # boxes tile the rest of now exactly when these two sets agree box for box
    after.update(landed)
    if after != before or len(before) != len(landed) + moved:
        raise InternalInvariantError(f"S classes and landed boxes do not tile {tuple(now)} after placing {boxes}")
    _memo.update(fresh)
    return _interned("partition", _normal(now)), tuple(new), _interned("boxes", landed)


def _interned(tag: str, value):
    """The memo's one copy of ``value`` under ``(tag, value)``; a "partition" value must be a ``Partition``."""
    return _memo.setdefault((tag, value), value)


def coeff_C(lam: Part, mu: Part, nu: Part) -> int:
    """Product structure constant in the structure-sheaf basis."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return _memoized_count("C", lam, mu, nu)


def _count_C(lam: Part, mu: Part, nu: Part) -> int:
    if not contains(nu, lam):
        return 0
    m = psize(mu)
    excess = psize(nu) - psize(lam) - m
    if excess < 0:  # more labels than boxes in nu/lam
        return 0
    return _sign(excess) * rect_tally(nu, lam, m).get(mu, 0)


def _count_C_buch(lam: Part, mu: Part, nu: Part) -> int:
    """Buch's rule: set-valued tableaux of star(lam, mu) with content nu, reverse lattice on (1, len(nu))."""
    excess = psize(nu) - psize(lam) - psize(mu)
    if excess < 0:  # fewer letters than the |lam| + |mu| boxes of the star
        return 0
    outer, inner = _star(lam, mu)
    lattice = [(1, len(nu))] if nu else []
    return _sign(excess) * sum(1 for _ in _set_valued_cells(outer, nu, lattice, inner))


def coeff_D(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    """Splitting coefficient of the direct-sum pullback, by rectification counting."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if target is None:
        return _memoized_count("D", lam, mu, nu)
    if target.outer != nu:
        raise ShapeFitError(f"target has shape {target.outer}, expected {nu}")
    return _count_D(lam, mu, nu, target)


def _count_D(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    region, m = psize(lam) + psize(mu), psize(nu)
    if target is None and m > region:  # more labels than boxes in the star
        return 0
    outer, inner = _star(lam, mu)
    if target is None:
        count = rect_tally(outer, inner, m).get(nu, 0)
    else:
        targets = [boxes for _, boxes in reversed(_label_groups_desc(target.cells))]
        count = _rect_count(outer, inner, len(targets), targets).get((), 0)
    return _sign(region + m) * count


def coeff_D_buch(lam: Part, mu: Part, nu: Part) -> int:
    """Splitting coefficient by the set-valued-tableau rule; independent of slides."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return _memoized_count("D-buch", lam, mu, nu)


def _count_D_buch(lam: Part, mu: Part, nu: Part) -> int:
    letters, m = psize(lam) + psize(mu), psize(nu)
    if letters < m:  # fewer letters than the boxes of nu
        return 0
    p, q = len(lam), len(mu)
    lattice = [(a, b) for a, b in ((1, p), (p + 1, p + q)) if a <= b]
    return _sign(letters + m) * sum(1 for _ in _set_valued_cells(nu, lam + mu, lattice))


def coeff_D_via_identity(lam: Part, mu: Part, nu: Part, frame: DirectSumFrame) -> int:
    """Splitting coefficient through the direct-sum identity D = C over the frame.

    The C it reads fills dagger(lam, mu)/omega_dual with the |nu| labels of nu.
    dagger holds the k2 x (n1-k1) rectangle omega_dual plus the boxes of lam and
    mu, so that region has |lam| + |mu| boxes, and C's own size test makes it 0
    when |nu| > |lam| + |mu|.  The identity settles that case itself, after the
    fit check and before it builds dagger, omega_dual or a C memo entry.
    """
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    frame.require_fits(lam, mu, nu)
    if psize(nu) > psize(lam) + psize(mu):  # more labels than boxes in dagger/omega_dual
        return 0
    return _memoized_count("C", omega_dual(frame), nu, _dagger(lam, mu, frame))


def coeff_E(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant: the signed rook-strip sum of jdt C.

    That is the sum of (-1)^|nu/nubar| C(lam, mu, nubar) over nu minus a rook
    strip.  Erasing the X marks of a filling of nu/lam leaves one that C counts
    on some such nubar; a mark inside lam leaves a nubar without lam, where C is 0.
    """
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return sum(
        _memoized_count("C", lam, mu, nubar) * _sign(psize(nu) - psize(nubar))
        for nubar in rook_strip_contractions(nu)
    )


def coeff_E_via_C(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant by the X-mark rule over Buch's C values.

    The marks of an X-augmented filling of nu/lam are any subset of the outer
    corners inside the region (``eligible_x_boxes``); erasing them leaves a
    filling that Buch's C counts, with one sign per mark.  Each subset is a
    bitmask, so no rook-strip enumeration is shared with ``coeff_E``.
    """
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if not contains(nu, lam):
        return 0
    eligible = eligible_x_boxes(SkewShape(nu, lam))
    total = 0
    for mask in range(1 << len(eligible)):
        marks = [box for i, box in enumerate(eligible) if mask >> i & 1]
        total += _sign(len(marks)) * _memoized_count("C-buch", lam, mu, remove_boxes(nu, marks))
    return total


def _is_rook_strip(outer: Part, inner: Part) -> bool:
    """outer contains inner, and outer/inner has at most one box per row and per column."""
    if not contains(outer, inner):
        return False
    grown = [(width, width - row_length(inner, r)) for r, width in enumerate(outer, start=1)]
    cols = [width for width, added in grown if added]  # the column of each row's added box
    return all(added <= 1 for _, added in grown) and len(set(cols)) == len(cols)


def coeff_F(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf splitting coefficient; equals the structure-sheaf one."""
    return coeff_D(lam, mu, nu)


def coeff_c_classical(lam: Part, mu: Part, nu: Part) -> int:
    """Classical LR coefficient as the standard-filling count of the D rule."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if psize(nu) != psize(lam) + psize(mu):
        return 0
    # surjective fillings over 1..|nu| of a |nu|-box region are exactly the
    # standard ones, and D's sign is +1 at |nu| = |lam| + |mu|, so D is the
    # classical coefficient
    return _memoized_count("D", lam, mu, nu)


# each memoized count and the rule that computes it
_COUNTS = {"C": _count_C, "C-buch": _count_C_buch, "D": _count_D, "D-buch": _count_D_buch}

# each coefficient kind and its plain (unchecked) rule
KINDS = {"C": coeff_C, "D": coeff_D, "E": coeff_E, "F": coeff_F, "c": coeff_c_classical}


class DisagreementError(RuntimeError):
    """A computed table failed its independent check."""


def expand_product(
    lam: Part, mu: Part, ambient: AmbientRectangle, basis: str = "structure-sheaf"
) -> dict[Part, int]:
    """Nonzero coefficients of a basis product, with targets inside the ambient.

    A structure-sheaf table is checked against Brion's Euler characteristic
    rule, and an ideal-sheaf table against the duality of the two bases at
    the full rectangle; either raises DisagreementError when the check fails.
    """
    lam, mu = partition(lam), partition(mu)
    ambient.require_fit(lam)
    ambient.require_fit(mu)
    if basis == "structure-sheaf":
        fn = coeff_C
    elif basis == "ideal-sheaf":
        fn = coeff_E
    else:
        raise ValueError(f"basis must be structure-sheaf or ideal-sheaf, got {basis!r}")
    table = {
        nu: value
        for nu in partitions_in_rectangle(ambient.rows, ambient.cols)
        if (value := fn(lam, mu, nu))
    }
    if basis == "structure-sheaf":
        # Euler characteristic (Brion, J. Algebra 258, 2002): the C's of one product in
        # the ambient sum to 1 if lambda fits in mu's dual, else to 0
        expected = int(contains(dual_in_rectangle(mu, ambient), lam))
        total = sum(table.values())
        if total != expected:
            raise DisagreementError(
                f"the structure-sheaf table of {format_partition(lam)} x {format_partition(mu)} "
                f"in {ambient.k},{ambient.n} sums to {total}, "
                f"but the Euler characteristic rule gives {expected}"
            )
    else:
        # [O_rho] and [I_{rho^vee}] are dual under the Euler pairing (Buch, Acta Math. 189,
        # 2002), so the full rectangle's E is (-1)^|mu^vee/lambda| on a rook strip, else 0
        dual = dual_in_rectangle(mu, ambient)
        expected = _sign(psize(dual) - psize(lam)) if _is_rook_strip(dual, lam) else 0
        entry = table.get(ambient.full, 0)
        if entry != expected:
            raise DisagreementError(
                f"the ideal-sheaf table of {format_partition(lam)} x {format_partition(mu)} "
                f"in {ambient.k},{ambient.n} has {entry} at the full rectangle, "
                f"but the duality of the two bases gives {expected}"
            )
    return table


def expand_coproduct(nu: Part, frame: DirectSumFrame) -> dict[tuple[Part, Part], int]:
    """Nonzero splitting coefficients of one class over a direct-sum frame."""
    nu = partition(nu)
    _require_fit(nu, frame.k, frame.n - frame.k)
    return {
        (lam, mu): value
        for lam in partitions_in_rectangle(frame.k1, frame.n1 - frame.k1)
        for mu in partitions_in_rectangle(frame.k2, frame.n2 - frame.k2)
        if (value := coeff_D(lam, mu, nu))
    }


@dataclass(frozen=True)
class CoefficientRecord:
    """One computed coefficient with the cross-checks that were run on it."""

    kind: Kind
    lam: Part
    mu: Part
    nu: Part
    value: int
    checks: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "c":
            if self.value < 0:
                raise ValueError("classical coefficients are nonnegative")
        elif self.value != 0:
            expected = _sign(psize(self.nu) - psize(self.lam) - psize(self.mu))
            if (self.value > 0) != (expected > 0):
                raise ValueError(
                    f"{self.kind} coefficient {self.value} violates the predicted sign for "
                    f"{self.lam}, {self.mu} -> {self.nu}"
                )

    @property
    def agreed(self) -> bool:
        return all(ok for _, ok in self.checks)


def format_checks(checks: tuple[tuple[str, bool], ...]) -> str:
    """Check verdicts as ``name:ok`` or ``name:DISAGREE``, space-separated."""
    return " ".join(f"{name}:{'ok' if ok else 'DISAGREE'}" for name, ok in checks)


def computed_record(
    kind: Kind, lam: Part, mu: Part, nu: Part, value: int, checks: tuple[tuple[str, bool], ...] = ()
) -> CoefficientRecord:
    """The record of a value the engine computed from valid shapes.

    A value the record refuses, such as one of the wrong sign, is an engine
    fault, not a usage error: it raises InternalInvariantError, naming the
    verdicts of the checks that ran.
    """
    try:
        return CoefficientRecord(kind, lam, mu, nu, value, checks)
    except ValueError as exc:
        ran = f"; checks run: {format_checks(checks)}" if checks else ""
        raise InternalInvariantError(f"{exc}{ran}") from None


def _identity_frame(lam: Part, mu: Part, nu: Part, frame: DirectSumFrame | None) -> DirectSumFrame:
    """The frame in which the direct-sum identity checks D, for normal-form shapes.

    The identity reads C over dagger(lam, mu)/omega_dual.  If the first rectangle
    is lam[0] wide and the second has len(mu) rows, that is star(lam, mu), D's own
    shape, so the frame gets one more column in its first rectangle.  No frame
    gives the smallest frame that holds the three shapes, with that spare column
    for lam.  A given frame's fits are checked as given.
    """
    if frame is None:
        k1 = max(len(lam), 1)
        c1 = (lam[0] if lam else 0) + 1
        k2 = max(len(mu), 1, len(nu) - k1)
        c2 = max(mu[0] if mu else 0, 1, (nu[0] if nu else 0) - c1)
        return DirectSumFrame(k1, k1 + c1, k2, k2 + c2)
    frame.require_fits(lam, mu, nu)
    if lam and frame.n1 - frame.k1 == lam[0] and frame.k2 == len(mu):
        return DirectSumFrame(frame.k1, frame.n1 + 1, frame.k2, frame.n2)
    return frame


def compute_with_checks(
    kind: Kind, lam: Part, mu: Part, nu: Part, frame: DirectSumFrame | None = None
) -> CoefficientRecord:
    """Compute one coefficient by its ``KINDS`` rule and run every independent cross-check for its kind."""
    rule = KINDS.get(kind)
    if rule is None:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    value = rule(lam, mu, nu)
    checks: list[tuple[str, bool]] = []
    if kind == "C":
        if lam != mu:  # with equal factors the swap reads the same memo entry
            checks.append(("symmetry", value == _memoized_count("C", mu, lam, nu)))
        checks.append(("buch", value == _memoized_count("C-buch", lam, mu, nu)))
        if psize(nu) == psize(lam) + psize(mu):
            checks.append(("classical", value == schur.lr_coefficient(lam, mu, nu)))
    elif kind in ("D", "F"):
        # F equals D, so F is confirmed by D's two independent routes
        checks.append(("buch", value == _memoized_count("D-buch", lam, mu, nu)))
        frame = _identity_frame(lam, mu, nu, frame)
        checks.append(("identity", value == coeff_D_via_identity(lam, mu, nu, frame)))
    elif kind == "E":
        checks.append(("rook-strip", value == coeff_E_via_C(lam, mu, nu)))
    else:
        checks.append(("schur-oracle", value == schur.lr_coefficient(lam, mu, nu)))
    return computed_record(kind, lam, mu, nu, value, tuple(checks))
