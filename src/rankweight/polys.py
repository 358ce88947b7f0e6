"""Dense univariate polynomial helpers over an arbitrary exact field.

Polynomials are plain Python lists of field payloads (the raw values a field
object computes on: ints mod p, Fractions, coordinate tuples), lowest degree
first, normalized so the last entry is nonzero; ``[]`` is the zero
polynomial.  Every function takes the coefficient field explicitly, and all
coefficient arithmetic goes through its raw operations (``_add``, ``_neg``,
``_mul``, ``_inv``, ``_is_zero``), so no element object is built on the way.

The irreducibility tests live here as well:

* ``is_irreducible_gcd`` -- gcd(f, x^(q^i) - x) = 1 for i <= deg(f)/2, the
  standard finite-field criterion (Rabin; Lidl-Niederreiter, *Finite Fields*).
* ``is_irreducible_bruteforce`` -- exhaustive root search plus trial division
  by every monic polynomial of degree <= deg(f)/2; finite fields only, used
  for base moduli and as an independent cross-check of the gcd method.
* ``is_irreducible_rationals`` -- rational root test plus bounded search for
  monic integer factors after clearing denominators.
"""

from __future__ import annotations

import itertools
import math

from .errors import BadModulus, InfiniteField


def normalize(field, coeffs):
    """Strip trailing zeros; [] is the zero polynomial."""
    coeffs = list(coeffs)
    while coeffs and field._is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def degree(p):
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def add(field, p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = field._add(out[i], c)
    return normalize(field, out)


def neg(field, p):
    return [field._neg(c) for c in p]


def sub(field, p, q):
    return add(field, p, neg(field, q))


def scale(field, p, c):
    if field._is_zero(c):
        return []
    return normalize(field, [field._mul(a, c) for a in p])


def mul(field, p, q):
    if not p or not q:
        return []
    fadd, fmul, is_zero = field._add, field._mul, field._is_zero
    out = [field._zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = fadd(out[i + j], fmul(a, b))
    return normalize(field, out)


def divmod_poly(field, p, q):
    """Quotient and remainder of p by q (q nonzero)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    fadd, fneg, fmul, is_zero = field._add, field._neg, field._mul, field._is_zero
    rem = list(p)
    dq = degree(q)
    lead_inv = field._inv(q[-1])
    quot = [field._zero] * max(0, len(p) - dq)
    for d in range(degree(p), dq - 1, -1):
        c = rem[d]
        if is_zero(c):
            continue
        factor = fmul(c, lead_inv)
        quot[d - dq] = factor
        minus = fneg(factor)
        for i, b in enumerate(q):
            rem[d - dq + i] = fadd(rem[d - dq + i], fmul(minus, b))
    return normalize(field, quot), normalize(field, rem)


def mod(field, p, q):
    return divmod_poly(field, p, q)[1]


def monic(field, p):
    if not p:
        return []
    return scale(field, p, field._inv(p[-1]))


def gcd(field, p, q):
    """Monic gcd; gcd(p, 0) = monic(p)."""
    while q:
        p, q = q, mod(field, p, q)
    return monic(field, p)


def derivative(field, p):
    return normalize(field, [field._mul(c, field._from_int(i)) for i, c in enumerate(p)][1:])


def evaluate(field, p, x):
    acc = field._zero
    for c in reversed(p):
        acc = field._add(field._mul(acc, x), c)
    return acc


def pow_mod(field, p, e, modulus):
    """p^e mod modulus by square and multiply (e >= 0)."""
    result = [field._one]
    base = mod(field, p, modulus)
    while e > 0:
        if e & 1:
            result = mod(field, mul(field, result, base), modulus)
        base = mod(field, mul(field, base, base), modulus)
        e >>= 1
    return result


def x_poly(field):
    return [field._zero, field._one]


def is_irreducible_gcd(field, p):
    """Finite-field irreducibility via gcd(f, x^(q^i) - x) for i <= deg/2."""
    q = field.order
    if q is None:
        raise InfiniteField("gcd-based irreducibility test needs a finite field")
    m = degree(p)
    if m < 1:
        raise BadModulus("irreducibility is about polynomials of degree >= 1")
    if m == 1:
        return True
    x = x_poly(field)
    h = x
    for _ in range(m // 2):
        h = pow_mod(field, h, q, p)
        if degree(gcd(field, p, sub(field, h, x))) != 0:
            return False
    return True


def _monic_polys(field, d):
    """All monic degree-d polynomials over a finite field."""
    elems = list(field._payloads())
    one = field._one
    for lower in itertools.product(elems, repeat=d):
        yield list(lower) + [one]


def is_irreducible_bruteforce(field, p):
    """Exhaustive root/factor search; independent of the gcd criterion."""
    if field.order is None:
        raise InfiniteField("brute-force irreducibility test needs a finite field")
    m = degree(p)
    if m < 1:
        raise BadModulus("irreducibility is about polynomials of degree >= 1")
    if m == 1:
        return True
    for x in field._payloads():
        if field._is_zero(evaluate(field, p, x)):
            return False
    for d in range(2, m // 2 + 1):
        for cand in _monic_polys(field, d):
            if not mod(field, p, cand):
                return False
    return True


def _int_divisors(n):
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def _int_divmod_monic(p, q):
    """Integer polynomial division by a monic divisor (coefficient lists)."""
    rem = list(p)
    dq = len(q) - 1
    quot = [0] * max(0, len(p) - dq)
    for d in range(len(p) - 1, dq - 1, -1):
        c = rem[d]
        if c == 0:
            continue
        quot[d - dq] = c
        for i, b in enumerate(q):
            rem[d - dq + i] -= c * b
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def is_irreducible_rationals(coeffs):
    """Irreducibility over Q for a monic polynomial given as Fractions.

    Substituting x -> y/D with D the lcm of the denominators turns f into a
    monic integer polynomial with the same factorization pattern; then a
    rational (hence integer) root test plus a bounded search for monic
    integer factors of degree <= deg/2 decides the question exactly.
    """
    m = len(coeffs) - 1
    if m < 1:
        raise BadModulus("irreducibility is about polynomials of degree >= 1")
    if m == 1:
        return True
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    g = [int(c * den ** (m - i)) for i, c in enumerate(coeffs)]
    if g[0] == 0:
        return False
    for d in _int_divisors(g[0]):
        for root in (d, -d):
            acc = 0
            for c in reversed(g):
                acc = acc * root + c
            if acc == 0:
                return False
    bound = 1 + max(abs(c) for c in g)
    for d in range(2, m // 2 + 1):
        consts = _int_divisors(g[0])
        ranges = []
        for j in range(1, d):
            limit = math.comb(d, d - j) * bound ** (d - j)
            ranges.append(range(-limit, limit + 1))
        for a0 in consts:
            for c0 in (a0, -a0):
                for middle in itertools.product(*ranges):
                    cand = [c0, *middle, 1]
                    _, rem = _int_divmod_monic(g, cand)
                    if not rem:
                        return False
    return True
