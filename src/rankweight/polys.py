"""Dense univariate polynomial helpers over an arbitrary exact field.

Polynomials are plain Python lists of codes of a field's kernel (see
``fields``), lowest degree first, normalized so the last entry is nonzero;
``[]`` is the zero polynomial.  Every function takes the coefficient field's
kernel explicitly, and all coefficient arithmetic goes through its
operations (``add``, ``neg``, ``mul``, ``inv``, ``int_code``); zero is the
code 0 and one is ``k.one``, so no element object is built on the way.

The irreducibility tests that ``fields._make_kernel``, their one caller,
runs beside its primitive-element search live here as well:

* ``is_irreducible_gcd`` -- gcd(f, x^(q^i) - x) = 1 for i <= deg(f)/2, the
  finite-field criterion (Rabin; Lidl-Niederreiter), above 4096 elements,
  and mod small primes as a certificate for a modulus over Q.
* ``is_irreducible_rationals`` -- bounded search for monic integer factors
  of ``monic_integer_form``, from degree 1 (the rational root test) up.
"""

from __future__ import annotations

import itertools
import math

from .errors import BadModulus, InfiniteField


def normalize(k, coeffs):
    """Strip trailing zeros; [] is the zero polynomial."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def degree(p):
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def add(k, p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = k.add(out[i], c)
    return normalize(k, out)


def neg(k, p):
    return [k.neg(c) for c in p]


def sub(k, p, q):
    return add(k, p, neg(k, q))


def scale(k, p, c):
    return normalize(k, [k.mul(a, c) for a in p])


def mul(k, p, q):
    if not p or not q:
        return []
    kadd, kmul = k.add, k.mul
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = kadd(out[i + j], kmul(a, b))
    return normalize(k, out)


def divmod_poly(k, p, q):
    """Quotient and remainder of p by q (q nonzero)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    kadd, kneg, kmul = k.add, k.neg, k.mul
    rem = list(p)
    dq = degree(q)
    lead_inv = k.inv(q[-1])
    quot = [0] * max(0, len(p) - dq)
    for d in range(degree(p), dq - 1, -1):
        c = rem[d]
        if not c:
            continue
        factor = kmul(c, lead_inv)
        quot[d - dq] = factor
        minus = kneg(factor)
        for i, b in enumerate(q):
            rem[d - dq + i] = kadd(rem[d - dq + i], kmul(minus, b))
    return normalize(k, quot), normalize(k, rem)


def mod(k, p, q):
    return divmod_poly(k, p, q)[1]


def monic(k, p):
    if not p:
        return []
    return scale(k, p, k.inv(p[-1]))


def gcd(k, p, q):
    """Monic gcd; gcd(p, 0) = monic(p)."""
    while q:
        p, q = q, mod(k, p, q)
    return monic(k, p)


def pow_mod(k, p, e, modulus):
    """p^e mod modulus by square and multiply (e >= 0)."""
    result = [k.one]
    base = mod(k, p, modulus)
    while e > 0:
        if e & 1:
            result = mod(k, mul(k, result, base), modulus)
        base = mod(k, mul(k, base, base), modulus)
        e >>= 1
    return result


def x_poly(k):
    return [0, k.one]


def is_irreducible_gcd(k, p):
    """Finite-field irreducibility via gcd(f, x^(q^i) - x) for i <= deg/2."""
    q = k.field.order
    if q is None:
        raise InfiniteField("gcd-based irreducibility test needs a finite field")
    m = degree(p)
    if m < 1:
        raise BadModulus("irreducibility is about polynomials of degree >= 1")
    x = x_poly(k)
    h = x
    for _ in range(m // 2):
        h = pow_mod(k, h, q, p)
        if degree(gcd(k, p, sub(k, h, x))) != 0:
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


def monic_integer_form(coeffs):
    """D^m f(y/D) for a monic f of degree m given as Fractions, D the lcm of
    their denominators: a monic integer polynomial with f's factorization pattern."""
    m, den = len(coeffs) - 1, math.lcm(*[c.denominator for c in coeffs])
    return [int(c * den ** (m - i)) for i, c in enumerate(coeffs)]


def is_irreducible_rationals(coeffs):
    """Irreducibility over Q for a monic polynomial given as Fractions.

    A bounded search for monic integer factors of degree <= deg/2 of
    ``monic_integer_form`` decides the question exactly; its degree-1
    factors x + c0 are the rational (hence integer) root test.
    """
    m = len(coeffs) - 1
    if m < 1:
        raise BadModulus("irreducibility is about polynomials of degree >= 1")
    if m == 1:
        return True
    g = monic_integer_form(coeffs)
    if g[0] == 0:
        return False
    consts = _int_divisors(g[0])
    bound = 1 + max(abs(c) for c in g)
    for d in range(1, m // 2 + 1):
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
