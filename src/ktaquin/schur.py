"""Classical Littlewood-Richardson oracle via explicit Schur polynomial products.

Schur polynomials are expanded as monomial dictionaries by enumerating
semistandard fillings; products are expanded back into the Schur basis by
greedy subtraction along lexicographically descending partitions, which is
valid because a monomial exponent can only appear in Schur polynomials of
dominating shapes.  Everything is exact integer arithmetic, and nothing here
slides a tableau.

A monomial x1^e1 ... xn^en is stored as one int: the exponent vector read as
the digits of a number in base ``degree + 1``, x1 the most significant digit,
where ``degree`` is the degree of the product being expanded.  Every exponent
of a factor, of the product and of a Schur polynomial peeled from it is at
most ``degree``, so every digit stays below the base and adding two packed
monomials never carries: multiplying two monomials is one int addition, and
distinct exponent vectors keep distinct ints.  After the peel, the residual
check reads every monomial of the product, not only the dominant ones.

The monomials of s_lam in nvars variables, packed in one base, are kept in the
engine's one memo under ``("schur", lam, nvars, base)``.
"""

from __future__ import annotations

from .shapes import Part, _memoized, partition, partitions_of, psize

Monomials = dict[int, int]  # packed exponent vector -> coefficient


def _pack(exponents: Part, nvars: int, base: int) -> int:
    """The packed monomial of an exponent vector, padded with zeros to nvars."""
    key = 0
    for e in exponents + (0,) * (nvars - len(exponents)):
        key = key * base + e
    return key


def _schur_monomials(lam: Part, nvars: int, base: int) -> Monomials:
    """Packed monomials of the Schur polynomial of a normal-form lam in nvars variables.

    The dict is memoized and shared, so callers must not change it.
    """
    return _memoized(("schur", lam, nvars, base), _semistandard_weights, lam, nvars, base)


def _semistandard_weights(lam: Part, nvars: int, base: int) -> Monomials:
    """Count the semistandard fillings of lam over 1..nvars by packed content."""
    counts: Monomials = {}
    weight = [0] + [base ** (nvars - v) for v in range(1, nvars + 1)]  # x_v's packed monomial
    boxes = [(r, c) for r, width in enumerate(lam) for c in range(width)]
    index = {box: i for i, box in enumerate(boxes)}
    # the box to the left and the box above, -1 (a slot holding 0) for none
    left = [index.get((r, c - 1), -1) for r, c in boxes]
    above = [index.get((r - 1, c), -1) for r, c in boxes]
    # the largest entry that leaves room for the strictly larger ones below it
    top = [nvars - sum(1 for width in lam[r + 1:] if width > c) for r, c in boxes]
    values = [0] * (len(boxes) + 1)
    last = len(boxes) - 1

    def fill(i: int, packed: int) -> None:
        lo = max(values[left[i]], values[above[i]] + 1)
        if i == last:
            for v in range(lo, top[i] + 1):
                key = packed + weight[v]
                counts[key] = counts.get(key, 0) + 1
            return
        for v in range(lo, top[i] + 1):
            values[i] = v
            fill(i + 1, packed + weight[v])

    if boxes:
        fill(0, 0)
    else:
        counts[0] = 1
    return counts


def _multiply(a: Monomials, b: Monomials) -> Monomials:
    out: Monomials = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            out[key] = get(key, 0) + ca * cb
    return out


def _extract_schur_basis(poly: Monomials, degree: int, nvars: int, base: int) -> dict[Part, int]:
    """Write poly, packed in base, as a sum of Schur polynomials by descending-lex peeling."""
    out: dict[Part, int] = {}
    for eta in partitions_of(degree, max_rows=nvars):
        coeff = poly.get(_pack(eta, nvars, base), 0)
        if coeff:
            out[eta] = coeff
            for mono, c in _schur_monomials(eta, nvars, base).items():
                poly[mono] = poly.get(mono, 0) - coeff * c
    if any(poly.values()):
        raise ArithmeticError("polynomial is not a nonnegative-length Schur combination")
    return out


def schur_product_expansion(lam: Part, mu: Part) -> dict[Part, int]:
    """All classical LR coefficients of s_lam * s_mu at once.

    len(lam) + len(mu) variables suffice: no shape in the product has more rows.
    """
    lam, mu = partition(lam), partition(mu)
    nvars = max(len(lam) + len(mu), 1)
    degree = psize(lam) + psize(mu)
    base = degree + 1
    prod = _multiply(_schur_monomials(lam, nvars, base), _schur_monomials(mu, nvars, base))
    return _extract_schur_basis(prod, degree, nvars, base)


def lr_coefficient(lam: Part, mu: Part, nu: Part) -> int:
    """Classical LR coefficient via polynomial multiplication and extraction."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if psize(nu) != psize(lam) + psize(mu):
        return 0
    return schur_product_expansion(lam, mu).get(nu, 0)
