"""Classical Littlewood-Richardson oracle via explicit Schur polynomial products.

Schur polynomials are expanded as monomial dictionaries by enumerating
semistandard fillings; products are expanded back into the Schur basis by
greedy subtraction along lexicographically descending partitions, which is
valid because a monomial exponent can only appear in Schur polynomials of
dominating shapes.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from .shapes import Part, partition, partitions_of, psize

Monomials = dict[tuple[int, ...], int]


@lru_cache(maxsize=None)
def schur_monomials(lam: Part, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of the Schur polynomial of lam in nvars variables."""
    lam = partition(lam)
    if len(lam) > nvars:
        return ()
    counts: Monomials = {}
    boxes = [(r, c) for r, width in enumerate(lam, start=1) for c in range(1, width + 1)]
    entries: dict[tuple[int, int], int] = {}

    def rec(idx: int) -> None:
        if idx == len(boxes):
            exp = [0] * nvars
            for v in entries.values():
                exp[v - 1] += 1
            key = tuple(exp)
            counts[key] = counts.get(key, 0) + 1
            return
        r, c = boxes[idx]
        lo = max(entries.get((r, c - 1), 1), entries.get((r - 1, c), 0) + 1)
        for v in range(lo, nvars + 1):
            entries[(r, c)] = v
            rec(idx + 1)
            del entries[(r, c)]

    rec(0)
    return tuple(sorted(counts.items()))


def _multiply(a: Monomials, b: Monomials) -> Monomials:
    out: Monomials = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _extract_schur_basis(poly: Monomials, degree: int, nvars: int) -> dict[Part, int]:
    """Write poly as a sum of Schur polynomials by descending-lex peeling."""
    poly = {k: v for k, v in poly.items() if v}
    out: dict[Part, int] = {}
    for eta in partitions_of(degree, max_rows=nvars):
        exp = tuple(eta) + (0,) * (nvars - len(eta))
        coeff = poly.get(exp, 0)
        if coeff:
            out[eta] = coeff
            for mono, c in schur_monomials(eta, nvars):
                key = mono
                poly[key] = poly.get(key, 0) - coeff * c
                if poly[key] == 0:
                    del poly[key]
    if any(poly.values()):
        raise ArithmeticError("polynomial is not a nonnegative-length Schur combination")
    return out


def schur_product_expansion(lam: Part, mu: Part) -> dict[Part, int]:
    """All classical LR coefficients of s_lam * s_mu at once.

    len(lam) + len(mu) variables suffice: no shape in the product has more rows.
    """
    lam, mu = partition(lam), partition(mu)
    nvars = max(len(lam) + len(mu), 1)
    prod = _multiply(dict(schur_monomials(lam, nvars)), dict(schur_monomials(mu, nvars)))
    return _extract_schur_basis(prod, psize(lam) + psize(mu), nvars)


def lr_coefficient(lam: Part, mu: Part, nu: Part) -> int:
    """Classical LR coefficient via polynomial multiplication and extraction."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if psize(nu) != psize(lam) + psize(mu):
        return 0
    return schur_product_expansion(lam, mu).get(nu, 0)
