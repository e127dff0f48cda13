"""The four K-theory coefficient families C, D, E, F and the classical c.

Each family has a direct jeu-de-taquin rule plus at least one independent
cross-check:

* C: count skew increasing tableaux rectifying to the superstandard target.
* D: count fillings of the corner-to-corner shape rectifying to a fixed target
  (well defined because the inner shape is a rectangle); cross-checked against
  the set-valued-tableau rule and against C through the direct-sum identity.
* E: count X-augmented fillings whose erased part rectifies to the target;
  cross-checked against the alternating rook-strip sum of C values.
* F: equal to D by definition of the dual-basis splitting; cross-checked
  through D's two independent routes.
* c: the classical limit (the unsigned D count), cross-checked against a Schur
  polynomial oracle.

One module-level dict, ``_memo``, holds everything that is reused, under these
keys:

* ``(kind, lam, mu, nu)`` for kind "C", "E" and "D-buch", and for "D" with the
  superstandard target (a D count for any other target is not memoized);
* ``(outer, inner, alphabet)`` for a rectification tally, shared by the C and D
  counts over one shape and alphabet;
* ``("superstandard", mu)`` for the key of a superstandard target.

It is never evicted; ``_memo.clear()`` returns to a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .shapes import (
    AmbientRectangle,
    DirectSumFrame,
    Part,
    ShapeFitError,
    SkewShape,
    contains,
    dagger,
    omega_dual,
    partition,
    partitions_in_rectangle,
    psize,
    remove_boxes,
    rook_strip_contractions,
    star,
)
from .tableaux import (
    IncreasingTableau,
    eligible_x_boxes,
    enumerate_set_valued,
    is_partial_reverse_lattice,
    iter_increasing_cells,
    reading_word,
    superstandard,
)
from .jdt import _check_corner_groups, _infuse, _order_groups
from . import jdt, schur

Kind = str  # one of "C", "D", "E", "F", "c"
TableauKey = tuple[Part, tuple[tuple[int, int, int], ...]]

_memo: dict[tuple, object] = {}

# No count here rectifies through krect any more, but the name stays bound in
# this module: perfbench's tracer self-test checks that ``coefficients.krect``
# is restored after tracing.
krect = jdt.krect


def _memoized(key: tuple, compute: Callable, *args):
    """The memo's one lookup: ``compute(*args)`` runs only when ``key`` is absent."""
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = compute(*args)
    return value


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _key(t: IncreasingTableau) -> TableauKey:
    return (t.outer, t.cells)


def _superstandard_key(mu: Part) -> TableauKey:
    return _memoized(("superstandard", mu), _key_of_superstandard, mu)


def _key_of_superstandard(mu: Part) -> TableauKey:
    return _key(superstandard(mu))


def rect_tally(outer: Part, inner: Part, alphabet: frozenset[int]) -> dict[TableauKey, int]:
    """Histogram of rectification targets over all surjective fillings of a shape.

    The alphabet is the exact value set of the enumerated fillings.  The
    rectification order is the superstandard order of the inner shape.  The
    order is checked once per tally; each filling is then rectified as a raw
    entries dict by ``jdt._infuse``, which runs only the switch kernel and the
    outer-shape update, and each distinct result is validated once as an
    ``IncreasingTableau``.
    """
    return _memoized((outer, inner, alphabet), _tally, outer, inner, alphabet)


def _tally(outer: Part, inner: Part, alphabet: frozenset[int]) -> dict[TableauKey, int]:
    outer, inner = partition(outer), partition(inner)
    if len(alphabet) > psize(outer) - psize(inner):
        return {}
    groups = _order_groups(superstandard(inner))
    _check_corner_groups(inner, groups)
    # the enumerator's fillings are valid by construction, so each one is
    # rectified as a raw entries dict; each distinct result is validated once
    tally: dict[TableauKey, int] = {}
    for cells in iter_increasing_cells(outer, inner, alphabet, surjective=True):
        entries = {(r, c): v for r, c, v in cells}
        k = (_infuse(entries, outer, groups), tuple(sorted((r, c, v) for (r, c), v in entries.items())))
        tally[k] = tally.get(k, 0) + 1
    for rect_outer, rect_cells in tally:
        IncreasingTableau(rect_outer, (), rect_cells)
    return tally


def _initial_alphabet(m: int) -> frozenset[int]:
    return frozenset(range(1, m + 1))


def coeff_C(lam: Part, mu: Part, nu: Part) -> int:
    """Product structure constant in the structure-sheaf basis."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return _memoized(("C", lam, mu, nu), _count_C, lam, mu, nu)


def _count_C(lam: Part, mu: Part, nu: Part) -> int:
    if not contains(nu, lam):
        return 0
    tally = rect_tally(nu, lam, _initial_alphabet(psize(mu)))
    count = tally.get(_superstandard_key(mu), 0)
    return _sign(psize(nu) - psize(lam) - psize(mu)) * count


def coeff_D(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    """Splitting coefficient of the direct-sum pullback, by rectification counting."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if target is None:
        return _memoized(("D", lam, mu, nu), _count_D, lam, mu, nu)
    if target.outer != nu:
        raise ShapeFitError(f"target has shape {target.outer}, expected {nu}")
    return _count_D(lam, mu, nu, target)


def _count_D(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    if target is None:
        target = superstandard(nu)
    shape = star(lam, mu)
    tally = rect_tally(shape.outer, shape.inner, frozenset(target.values))
    count = tally.get(_key(target), 0)
    return _sign(psize(lam) + psize(mu) + psize(nu)) * count


def coeff_D_buch(lam: Part, mu: Part, nu: Part) -> int:
    """Splitting coefficient by the set-valued-tableau rule; independent of slides."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return _memoized(("D-buch", lam, mu, nu), _count_D_buch, lam, mu, nu)


def _count_D_buch(lam: Part, mu: Part, nu: Part) -> int:
    p, q = len(lam), len(mu)
    content = lam + mu
    count = 0
    for t in enumerate_set_valued(nu, content):
        word = reading_word(t)
        if (p == 0 or is_partial_reverse_lattice(word, (1, p))) and (
            q == 0 or is_partial_reverse_lattice(word, (p + 1, p + q))
        ):
            count += 1
    return _sign(psize(nu) + psize(lam) + psize(mu)) * count


def coeff_D_via_identity(lam: Part, mu: Part, nu: Part, frame: DirectSumFrame) -> int:
    """Splitting coefficient through the direct-sum identity D = C over the frame."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    frame.require_fits(lam, mu, nu)
    return coeff_C(omega_dual(frame), nu, dagger(lam, mu, frame))


def coeff_E(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant: X-augmented fillings, marks erased before rectifying."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return _memoized(("E", lam, mu, nu), _count_E, lam, mu, nu)


def _count_E(lam: Part, mu: Part, nu: Part) -> int:
    """Count the X-augmented fillings of nu/lam whose erased part rectifies to mu's target.

    Marks are any subset of the outer corners inside the region; erasing them
    leaves a surjective filling of the smaller shape, which is enumerated and
    rectified as raw entries through the superstandard order of lam, checked
    once.  No tally or memo entry is read, so the rook-strip sum of C values
    stays an independent check.
    """
    if not contains(nu, lam):
        return 0
    groups = _order_groups(superstandard(lam))
    _check_corner_groups(lam, groups)
    target = superstandard(mu).entries
    alphabet = range(1, psize(mu) + 1)
    eligible = eligible_x_boxes(SkewShape(nu, lam))
    count = 0
    for mask in range(1 << len(eligible)):
        erased = remove_boxes(nu, [b for i, b in enumerate(eligible) if mask >> i & 1])
        for cells in iter_increasing_cells(erased, lam, alphabet, surjective=True):
            entries = {(r, c): v for r, c, v in cells}
            if _infuse(entries, erased, groups) == mu and entries == target:
                count += 1
    return _sign(psize(nu) - psize(lam) - psize(mu)) * count


def coeff_E_via_C(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant as the alternating rook-strip sum of C values."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return sum(
        coeff_C(lam, mu, nubar) * _sign(psize(nu) - psize(nubar))
        for nubar in rook_strip_contractions(nu)
    )


def coeff_F(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    """Ideal-sheaf splitting coefficient; equals the structure-sheaf one."""
    return coeff_D(lam, mu, nu, target)


def coeff_c_classical(lam: Part, mu: Part, nu: Part) -> int:
    """Classical LR coefficient as the standard-filling count of the D rule."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if psize(nu) != psize(lam) + psize(mu):
        return 0
    # surjective fillings over 1..|nu| of a |nu|-box region are exactly the
    # standard ones, so the unsigned D count is the classical coefficient
    return abs(coeff_D(lam, mu, nu))


def expand_product(
    lam: Part,
    mu: Part,
    ambient: AmbientRectangle,
    basis: str = "structure-sheaf",
    mapper: Callable = map,
) -> dict[Part, int]:
    """Nonzero coefficients of a basis product, with targets inside the ambient.

    ``mapper`` evaluates the coefficients like the builtin ``map``; pass an
    executor's ``map`` to spread them over processes.
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
    nus = list(partitions_in_rectangle(ambient.rows, ambient.cols))
    values = mapper(fn, repeat(lam), repeat(mu), nus)
    return {nu: value for nu, value in zip(nus, values) if value}


def expand_coproduct(
    nu: Part, frame: DirectSumFrame, mapper: Callable = map
) -> dict[tuple[Part, Part], int]:
    """Nonzero splitting coefficients of one class over a direct-sum frame.

    ``mapper`` is as in :func:`expand_product`.
    """
    nu = partition(nu)
    frame.ambient.require_fit(nu)
    pairs = [
        (lam, mu)
        for lam in partitions_in_rectangle(frame.k1, frame.n1 - frame.k1)
        for mu in partitions_in_rectangle(frame.k2, frame.n2 - frame.k2)
    ]
    values = mapper(coeff_D, [lam for lam, _ in pairs], [mu for _, mu in pairs], repeat(nu))
    return {pair: value for pair, value in zip(pairs, values) if value}


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
        if self.kind not in ("C", "D", "E", "F", "c"):
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


def _default_frame(lam: Part, mu: Part, nu: Part) -> DirectSumFrame:
    """Smallest frame whose rectangles accommodate all three shapes."""
    k1 = max(len(lam), 1)
    c1 = max(lam[0] if lam else 0, 1)
    k2 = max(len(mu), 1, len(nu) - k1)
    c2 = max(mu[0] if mu else 0, 1, (nu[0] if nu else 0) - c1)
    return DirectSumFrame(k1, k1 + c1, k2, k2 + c2)


def compute_with_checks(
    kind: Kind, lam: Part, mu: Part, nu: Part, frame: DirectSumFrame | None = None
) -> CoefficientRecord:
    """Compute one coefficient and run every independent cross-check for its kind."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    checks: list[tuple[str, bool]] = []
    if kind == "C":
        value = coeff_C(lam, mu, nu)
        checks.append(("symmetry", value == coeff_C(mu, lam, nu)))
        if psize(nu) == psize(lam) + psize(mu):
            checks.append(("classical", abs(value) == schur.lr_coefficient(lam, mu, nu)))
    elif kind in ("D", "F"):
        # F equals D, so F is confirmed by D's two independent routes
        value = coeff_D(lam, mu, nu) if kind == "D" else coeff_F(lam, mu, nu)
        checks.append(("buch", value == coeff_D_buch(lam, mu, nu)))
        if frame is None:
            frame = _default_frame(lam, mu, nu)
        checks.append(("identity", value == coeff_D_via_identity(lam, mu, nu, frame)))
    elif kind == "E":
        value = coeff_E(lam, mu, nu)
        checks.append(("rook-strip", value == coeff_E_via_C(lam, mu, nu)))
    elif kind == "c":
        value = coeff_c_classical(lam, mu, nu)
        checks.append(("schur-oracle", value == schur.lr_coefficient(lam, mu, nu)))
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return CoefficientRecord(kind, lam, mu, nu, value, tuple(checks))
