"""The four K-theory coefficient families C, D, E, F and the classical c.

Each family has a direct jeu-de-taquin rule plus at least one independent
cross-check:

* C: count skew increasing tableaux rectifying to the superstandard target.
* D: count fillings of the corner-to-corner shape rectifying to a fixed target
  (well defined because the inner shape is a rectangle); cross-checked against
  the set-valued-tableau rule and against C through the direct-sum identity.
* E: count X-augmented fillings whose erased part rectifies to the target;
  cross-checked against the alternating rook-strip sum of C values.
* F: equal to D by definition of the dual-basis splitting.
* c: the classical limit, cross-checked against a Schur polynomial oracle.

Counts are memoized per (shape, alphabet) through a rectification tally so
batch expansions and cross-checks reuse work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .shapes import (
    AmbientRectangle,
    Box,
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
    rook_strip_contractions,
    star,
)
from .tableaux import (
    IncreasingTableau,
    enumerate_augmented,
    enumerate_set_valued,
    is_partial_reverse_lattice,
    iter_increasing_cells,
    reading_word,
    superstandard,
)
from .jdt import _infuse, _label_groups_desc, krect
from . import schur

Kind = str  # one of "C", "D", "E", "F", "c"
TableauKey = tuple[Part, tuple[tuple[int, int, int], ...]]


class CrossCheckError(RuntimeError):
    """Two independent routes to one coefficient disagreed."""


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _key(t: IncreasingTableau) -> TableauKey:
    return (t.outer, t.cells)


@lru_cache(maxsize=None)
def _superstandard_key(mu: Part) -> TableauKey:
    return _key(superstandard(mu))


@lru_cache(maxsize=None)
def rect_tally(
    outer: Part, inner: Part, alphabet: frozenset[int], order_cells: tuple | None = None
) -> dict[TableauKey, int]:
    """Histogram of rectification targets over all surjective fillings of a shape.

    The alphabet is the exact value set of the enumerated fillings.  The
    rectification order defaults to the superstandard order of the inner shape.
    """
    outer, inner = partition(outer), partition(inner)
    if len(alphabet) > psize(outer) - psize(inner):
        return {}
    if order_cells is None:
        order = superstandard(inner)
    else:
        order = IncreasingTableau(inner, (), order_cells)
    groups = _label_groups_desc(order.cells)
    # the enumerator's fillings are valid by construction, so each one is
    # rectified as a raw entries dict; each distinct result is validated once
    tally: dict[TableauKey, int] = {}
    for cells in iter_increasing_cells(outer, inner, alphabet, surjective=True):
        entries = {(r, c): v for r, c, v in cells}
        _, rect_outer, _ = _infuse(entries, inner, outer, groups)
        k = (rect_outer, tuple(sorted((r, c, v) for (r, c), v in entries.items())))
        tally[k] = tally.get(k, 0) + 1
    for rect_outer, rect_cells in tally:
        IncreasingTableau(rect_outer, (), rect_cells)
    return tally


def _initial_alphabet(m: int) -> frozenset[int]:
    return frozenset(range(1, m + 1))


_store: dict[tuple, int] = {}


def _remember(kind: Kind, lam: Part, mu: Part, nu: Part, value: int) -> int:
    _store[(kind, lam, mu, nu)] = value
    return value


def coeff_C(lam: Part, mu: Part, nu: Part) -> int:
    """Product structure constant in the structure-sheaf basis."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    key = ("C", lam, mu, nu)
    if key in _store:
        return _store[key]
    if not contains(nu, lam):
        return _remember("C", lam, mu, nu, 0)
    tally = rect_tally(nu, lam, _initial_alphabet(psize(mu)))
    count = tally.get(_superstandard_key(mu), 0)
    value = _sign(psize(nu) - psize(lam) - psize(mu)) * count
    return _remember("C", lam, mu, nu, value)


def coeff_D(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    """Splitting coefficient of the direct-sum pullback, by rectification counting."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if target is not None and target.outer != nu:
        raise ShapeFitError(f"target has shape {target.outer}, expected {nu}")
    if target is None:
        cache_key = ("D", lam, mu, nu)
        if cache_key in _store:
            return _store[cache_key]
        target = superstandard(nu)
    else:
        cache_key = None
    shape = star(lam, mu)
    tally = rect_tally(shape.outer, shape.inner, frozenset(target.values))
    count = tally.get(_key(target), 0)
    value = _sign(psize(lam) + psize(mu) + psize(nu)) * count
    if cache_key is not None:
        _store[cache_key] = value
    return value


def coeff_D_buch(lam: Part, mu: Part, nu: Part) -> int:
    """Splitting coefficient by the set-valued-tableau rule; independent of slides."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    key = ("D-buch", lam, mu, nu)
    if key in _store:
        return _store[key]
    p, q = len(lam), len(mu)
    content = lam + mu
    count = 0
    for t in enumerate_set_valued(nu, content):
        word = reading_word(t)
        if (p == 0 or is_partial_reverse_lattice(word, (1, p))) and (
            q == 0 or is_partial_reverse_lattice(word, (p + 1, p + q))
        ):
            count += 1
    value = _sign(psize(nu) + psize(lam) + psize(mu)) * count
    _store[key] = value
    return value


def coeff_D_via_identity(lam: Part, mu: Part, nu: Part, frame: DirectSumFrame) -> int:
    """Splitting coefficient through the direct-sum identity D = C over the frame."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    frame.require_fits(lam, mu, nu)
    return coeff_C(omega_dual(frame), nu, dagger(lam, mu, frame))


def coeff_E(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant: X-augmented fillings, marks erased before rectifying."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    key = ("E", lam, mu, nu)
    if key in _store:
        return _store[key]
    if not contains(nu, lam):
        return _remember("E", lam, mu, nu, 0)
    target = superstandard(mu)
    order = superstandard(lam)
    count = 0
    for aug in enumerate_augmented(SkewShape(nu, lam), range(1, psize(mu) + 1)):
        if krect(aug.erase_x(), order) == target:
            count += 1
    value = _sign(psize(nu) - psize(lam) - psize(mu)) * count
    return _remember("E", lam, mu, nu, value)


def coeff_E_via_C(lam: Part, mu: Part, nu: Part) -> int:
    """Ideal-sheaf product constant as the alternating rook-strip sum of C values."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    return sum(
        coeff_C(lam, mu, nubar) * _sign(psize(nu) - psize(nubar))
        for nubar in rook_strip_contractions(nu)
    )


def coeff_F(lam: Part, mu: Part, nu: Part, target: IncreasingTableau | None = None) -> int:
    """Ideal-sheaf splitting coefficient; equals the structure-sheaf one."""
    value = coeff_D(lam, mu, nu, target)
    if target is None:
        _store[("F", partition(lam), partition(mu), partition(nu))] = value
    return value


def coeff_c_classical(lam: Part, mu: Part, nu: Part) -> int:
    """Classical LR coefficient as the standard-filling count of the D rule."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    key = ("c", lam, mu, nu)
    if key in _store:
        return _store[key]
    if psize(nu) != psize(lam) + psize(mu):
        return _remember("c", lam, mu, nu, 0)
    # surjective fillings over 1..|nu| of a |nu|-box region are exactly the
    # standard ones, so the unsigned D count is the classical coefficient
    value = abs(coeff_D(lam, mu, nu))
    return _remember("c", lam, mu, nu, value)


def expand_product(
    lam: Part, mu: Part, ambient: AmbientRectangle, basis: str = "structure-sheaf"
) -> dict[Part, int]:
    """Nonzero coefficients of a basis product, with targets inside the ambient."""
    lam, mu = partition(lam), partition(mu)
    ambient.require_fit(lam)
    ambient.require_fit(mu)
    if basis == "structure-sheaf":
        fn = coeff_C
    elif basis == "ideal-sheaf":
        fn = coeff_E
    else:
        raise ValueError(f"basis must be structure-sheaf or ideal-sheaf, got {basis!r}")
    out: dict[Part, int] = {}
    for nu in partitions_in_rectangle(ambient.rows, ambient.cols):
        value = fn(lam, mu, nu)
        if value:
            out[nu] = value
    return out


def expand_coproduct(nu: Part, frame: DirectSumFrame) -> dict[tuple[Part, Part], int]:
    """Nonzero splitting coefficients of one class over a direct-sum frame."""
    nu = partition(nu)
    frame.ambient.require_fit(nu)
    out: dict[tuple[Part, Part], int] = {}
    for lam in partitions_in_rectangle(frame.k1, frame.n1 - frame.k1):
        for mu in partitions_in_rectangle(frame.k2, frame.n2 - frame.k2):
            value = coeff_D(lam, mu, nu)
            if value:
                out[(lam, mu)] = value
    return out


@dataclass(frozen=True)
class CoefficientRecord:
    """One computed coefficient with the cross-checks that were run on it."""

    kind: Kind
    lam: Part
    mu: Part
    nu: Part
    value: int
    method: str
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
        method = "jdt"
    elif kind == "D":
        value = coeff_D(lam, mu, nu)
        checks.append(("buch", value == coeff_D_buch(lam, mu, nu)))
        if frame is None:
            frame = _default_frame(lam, mu, nu)
        checks.append(("identity", value == coeff_D_via_identity(lam, mu, nu, frame)))
        method = "jdt"
    elif kind == "E":
        value = coeff_E(lam, mu, nu)
        checks.append(("rook-strip", value == coeff_E_via_C(lam, mu, nu)))
        method = "jdt"
    elif kind == "F":
        value = coeff_F(lam, mu, nu)
        checks.append(("splitting", value == coeff_D(lam, mu, nu)))
        method = "jdt"
    elif kind == "c":
        value = coeff_c_classical(lam, mu, nu)
        checks.append(("schur-oracle", value == schur.lr_coefficient(lam, mu, nu)))
        method = "jdt"
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return CoefficientRecord(kind, lam, mu, nu, value, method, tuple(checks))
