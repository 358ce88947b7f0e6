"""Towers, code populations and vector pools shared across the test modules,
literal element references for the coded computations of the package, a
payload arithmetic of its own for checking the kernels against, and a
brute-force irreducibility test for checking the gcd criterion against."""

import functools
import itertools
import random
from fractions import Fraction

from rankweight import polys
from rankweight.fields import (
    FieldElement,
    PrimeField,
    Rationals,
    _element,
    _random_code,
    build_base_field,
    make_tower,
)
from rankweight.ranksupport import LinearCode
from rankweight.verify import exhaustive_codes


@functools.lru_cache(maxsize=None)
def gf4():
    return make_tower(PrimeField(2), [1, 1, 1])


@functools.lru_cache(maxsize=None)
def gf8():
    return make_tower(PrimeField(2), [1, 1, 0, 1])


@functools.lru_cache(maxsize=None)
def gf9():
    return make_tower(PrimeField(3), [1, 0, 1])


@functools.lru_cache(maxsize=None)
def gf16_over_gf4():
    # nested base GF(4) = GF(2)[u]/(u^2+u+1); extension x^2 + x + u over it
    k = build_base_field(2, 2, (1, 1, 1))
    return make_tower(k, [k.generator(), 1, 1])


@functools.lru_cache(maxsize=None)
def gf16_over_gf2():
    return make_tower(PrimeField(2), [1, 1, 0, 0, 1])


@functools.lru_cache(maxsize=None)
def gf3_degree_one():
    return make_tower(PrimeField(3), [1, 1])


@functools.lru_cache(maxsize=None)
def qtheta():
    return make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")


def q_quarters():
    # x^3 - 3/2 x^2 + 5/4: the Tr(w^i) are 3, 3/2 and 9/4, over the common denominator 4,
    # and the fold of x^3 has fold_den 4
    return make_tower(Rationals(), [Fraction(5, 4), 0, Fraction(-3, 2), 1])


@functools.lru_cache(maxsize=None)
def gf8192():
    # x^13 + x^4 + x^3 + x + 1 over GF(2): above 4096 elements, no exp/log tables
    return make_tower(PrimeField(2), [1, 1, 0, 1, 1] + [0] * 8 + [1])


@functools.lru_cache(maxsize=None)
def gf4099_squared():
    # x^2 + 1 is irreducible over GF(4099) since 4099 = 3 mod 4; both fields are table-free
    return make_tower(PrimeField(4099), [1, 0, 1])


def memo_entries(tower) -> dict:
    """What the tower's memo holds, by slot of ``fields._TowerMemo``."""
    memo = tower._memo
    return {slot: getattr(memo, slot) for slot in type(memo).__slots__}


def assert_memo_empty(tower):
    """A freshly built or loaded tower's memo holds nothing: every dict empty, every lazy value unset."""
    entries = memo_entries(tower)
    assert all(value in (None, {}) for value in entries.values()), entries


def vec(tower, *entries):
    """Build an L-vector from ints/FieldElements; 'w' strings are not parsed here."""
    out = []
    for e in entries:
        out.append(tower.L.from_int(e) if isinstance(e, int) else e)
    return out


def rational_part(tower, v):
    """The k-vector equal to v when v lies in k^n, else None."""
    out = []
    for x in v:
        coords = tower.coords(x)
        if any(coords[1:]):
            return None
        out.append(coords[0])
    return out


def all_codes(tower, n):
    """Every L-subspace of L^n as a LinearCode, all dimensions."""
    return exhaustive_codes(tower, n)


def all_vectors(tower, n):
    elems = list(tower.L.elements())
    return [list(v) for v in itertools.product(elems, repeat=n)]


def random_rational_element(tower, rng, height):
    """The element of L whose code ``fields._random_code`` draws: over Q(θ),
    coordinates a/b with |a| <= height and 1 <= b <= height."""
    return _element(tower.L, _random_code(tower, rng, height))


def random_rational_vector(rng, tower, n, height=5):
    return [random_rational_element(tower, rng, height) for _ in range(n)]


def random_q_codes(count, seed, max_n=3, max_dim=2, height=5):
    """Seeded random codes over Q(theta), theta^3 = 2, n <= max_n, dim <= max_dim."""
    t = qtheta()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        dim = rng.randint(0, min(max_dim, n))
        gens = [random_rational_vector(rng, t, n, height) for _ in range(dim)]
        out.append(LinearCode.from_generators(t, n, gens))
    return out


# ---------------------------------------------------------------------------
# literal element references: Gaussian elimination on FieldElement operators
# ---------------------------------------------------------------------------


def rref_reference(field, rows, num_cols):
    """Gauss-Jordan elimination to the unique RREF on elements: (rows as tuples, pivot columns).

    Literal and with no early exit: every column is searched for a pivot,
    and every pivot is normalized and cleared from every other row."""
    work = [list(r) for r in rows]
    assert all(len(r) == num_cols for r in work)
    pivot_cols = []
    r = 0
    for col in range(num_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        if lead != field.one():
            inv = lead.inverse()
            work[r] = [e * inv for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
    return [tuple(row) for row in work[:r]], pivot_cols


def span_reference(field, rows, n):
    """The canonical rows of span(rows), as a tuple of tuples of elements."""
    return tuple(rref_reference(field, rows, n)[0])


def tail_reference(field, rows, num_cols, start):
    """The canonical rows of the row-space vectors that vanish before column start, cut to columns start.."""
    reduced, pivots = rref_reference(field, rows, num_cols)
    return tuple(row[start:] for row, p in zip(reduced, pivots) if p >= start)


def residues_reference(field, rows, vectors):
    """The nonzero residues of vectors reduced, row by row, against canonical rows of elements."""
    out = []
    for v in vectors:
        v = list(v)
        for row in rows:
            p = next(j for j, x in enumerate(row) if x)
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            out.append(tuple(v))
    return out


def null_space_reference(field, rows, n):
    """The canonical rows of {v : rows v^T = 0}."""
    reduced, pivots = rref_reference(field, rows, n)
    basis = []
    for j in range(n):
        if j not in pivots:
            v = [field.zero()] * n
            v[j] = field.one()
            for row, p in zip(reduced, pivots):
                v[p] = -row[j]
            basis.append(v)
    return span_reference(field, basis, n)


def combine(coeffs, gens, L, n):
    """sum(a_i * g_i) on elements."""
    out = [L.zero()] * n
    for a, g in zip(coeffs, gens):
        if a:
            out = [x + a * y for x, y in zip(out, g)]
    return out


def expansion(tower, v):
    """The m rows over k of the coordinate expansion of an L-vector."""
    return [[FieldElement(tower.k, x.payload[i]) for x in v] for i in range(tower.degree)]


def support_reference(code):
    """Rsupp(C): the k-span of the expansion rows of C's generators."""
    t, n = code.tower, code.length
    return span_reference(t.k, [row for g in code.generators for row in expansion(t, g)], n)


def restriction_reference(code):
    """Res(C) = C ∩ k^n: the k-combinations sum(a_i g_i) whose coordinates lie in k.

    The canonical generators have pivot entries 1, so a member of k^n has
    k-coefficients; those solve the k-linear system that every coordinate's
    expansion vanishes off the basis element 1.
    """
    t, n, gens = code.tower, code.length, code.generators
    conditions = [[expansion(t, g)[i][j] for g in gens] for i in range(1, t.degree) for j in range(n)]
    coefficients = null_space_reference(t.k, conditions, len(gens))
    members = [combine([t.embed(a) for a in coeffs], gens, t.L, n) for coeffs in coefficients]
    return span_reference(t.k, [[FieldElement(t.k, x.payload[0]) for x in v] for v in members], n)


def dual_reference(code):
    return null_space_reference(code.tower.L, code.generators, code.length)


def closure_reference(code):
    """C* = Rsupp(C)_L, each support row embedded and the span reduced over L."""
    t = code.tower
    return span_reference(t.L, [[t.embed(x) for x in row] for row in support_reference(code)], code.length)


def trace_literal(tower, x):
    """Tr(x), the trace of the multiplication-by-x matrix: the sum over j of
    coordinate j of x * w^j, read off payloads."""
    k = tower.k
    return sum((FieldElement(k, (x * b).payload[j]) for j, b in enumerate(tower.basis)), k.zero())


def trace_reference(code):
    """Tr(C): the k-span of Tr(alpha * g) over the basis alpha and the generators g."""
    t = code.tower
    return span_reference(t.k, [[trace_literal(t, alpha * x) for x in g] for g in code.generators for alpha in t.basis],
                          code.length)


def is_witness_reference(code, c):
    """c ∈ C and Rsupp(c) = Rsupp(C), both by elimination on elements."""
    t, n = code.tower, code.length
    return (span_reference(t.L, list(code.generators) + [c], n) == code.generators
            and span_reference(t.k, expansion(t, c), n) == support_reference(code))


# ---------------------------------------------------------------------------
# payload references: the arithmetic of payloads, written out for the kernels to match
# ---------------------------------------------------------------------------


def payloads_in_order(field):
    """Every payload of a finite field in code order: the lowest coordinate varies fastest."""
    if isinstance(field, PrimeField):
        return list(range(field.p))
    base = payloads_in_order(field.base)
    return [combo[::-1] for combo in itertools.product(base, repeat=field.degree)]


def ref_add(field, a, b):
    """a + b: Fractions over Q, mod p over GF(p), coordinate-wise over an extension."""
    if isinstance(field, Rationals):
        return a + b
    if isinstance(field, PrimeField):
        return (a + b) % field.p
    return tuple(ref_add(field.base, x, y) for x, y in zip(a, b))


def ref_neg(field, a):
    if isinstance(field, Rationals):
        return -a
    if isinstance(field, PrimeField):
        return -a % field.p
    return tuple(ref_neg(field.base, x) for x in a)


def ref_mul(field, a, b):
    """a * b; over an extension the schoolbook product, reduced by the monic modulus."""
    if isinstance(field, Rationals):
        return a * b
    if isinstance(field, PrimeField):
        return a * b % field.p
    base, m = field.base, field.degree
    prod = [base._zero] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = ref_add(base, prod[i + j], ref_mul(base, x, y))
    for d in range(2 * m - 2, m - 1, -1):  # x^d = -x^(d-m) * (c_0 + ... + c_(m-1) x^(m-1))
        for i, c in enumerate(field.modulus[:-1]):
            prod[d - m + i] = ref_add(base, prod[d - m + i], ref_neg(base, ref_mul(base, prod[d], c)))
    return tuple(prod[:m])


def ref_inv(field, a):
    """1/a; over an extension by extended Euclid in base[x] against the modulus,
    keeping s_i * a = r_i mod the modulus."""
    if isinstance(field, Rationals):
        return 1 / a
    if isinstance(field, PrimeField):
        return pow(a, field.p - 2, field.p)
    base, zero = field.base, field.base._zero

    def trimmed(p):
        p = list(p)
        while p and p[-1] == zero:
            p.pop()
        return p

    def minus_shifted(p, c, shift, q):
        """p - c * x^shift * q."""
        out = list(p) + [zero] * max(0, len(q) + shift - len(p))
        for i, y in enumerate(q):
            out[i + shift] = ref_add(base, out[i + shift], ref_neg(base, ref_mul(base, c, y)))
        return trimmed(out)

    r0, r1, s0, s1 = list(field.modulus), trimmed(a), [], [base._one]
    while len(r1) > 1:
        while len(r0) >= len(r1):
            c, shift = ref_mul(base, r0[-1], ref_inv(base, r1[-1])), len(r0) - len(r1)
            r0, s0 = minus_shifted(r0, c, shift, r1), minus_shifted(s0, c, shift, s1)
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        raise ZeroDivisionError("a zero divisor")
    c = ref_inv(base, r1[0])
    return tuple(ref_mul(base, c, y) for y in s1) + (zero,) * (field.degree - len(s1))


# ---------------------------------------------------------------------------
# brute-force irreducibility: the reference the gcd criterion is checked against
# ---------------------------------------------------------------------------


def evaluate(k, p, x):
    """p(x) on codes of the kernel k, by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = k.add(k.mul(acc, x), c)
    return acc


def monic_polys(k, d):
    """All monic degree-d polynomials over a finite field, as lists of codes."""
    for lower in itertools.product(range(k.field.order), repeat=d):
        yield list(lower) + [k.one]


def is_irreducible_bruteforce(k, p):
    """Exhaustive root search plus trial division by every monic polynomial of
    degree <= deg(p)/2, over a finite field; independent of the gcd criterion."""
    m = polys.degree(p)
    assert m >= 1 and k.field.order is not None
    if m == 1:
        return True
    if any(not evaluate(k, p, x) for x in range(k.field.order)):
        return False
    return all(polys.mod(k, p, cand) for d in range(2, m // 2 + 1) for cand in monic_polys(k, d))
