"""The benchmark's own exact arithmetic, used only to check rankweight's answers.

Nothing here imports rankweight.  Fields are GF(p), Q and simple extensions
base[x]/(f) over either (nested once for GF(p^a) bases); elements are plain
payloads: ints for GF(p), Fractions for Q, coordinate tuples (power basis,
low to high) for extensions.  Linear algebra is a straightforward Gaussian
elimination over the base field k; vectors over L are handled through their
k-expansions, so no inverse in L is ever needed over Q.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


class PrimeField:
    def __init__(self, p: int):
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def elements(self):
        return list(range(self.p))


class RationalField:
    order = None
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return Fraction(n)

    def is_zero(self, a) -> bool:
        return a == 0


class Extension:
    """base[x]/(modulus), modulus given low to high over the base, monic."""

    def __init__(self, base, modulus, symbol: str):
        self.base = base
        self.modulus = tuple(modulus)
        self.m = len(self.modulus) - 1
        self.symbol = symbol
        self.order = None if base.order is None else base.order ** self.m
        self.zero = (base.zero,) * self.m
        self.one = (base.one,) + (base.zero,) * (self.m - 1)

    def embed(self, a):
        return (a,) + (self.base.zero,) * (self.m - 1)

    def gen(self):
        if self.m == 1:
            return (self.base.sub(self.base.zero, self.modulus[0]),)
        return (self.base.zero, self.base.one) + (self.base.zero,) * (self.m - 2)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        k, m = self.base, self.m
        prod = [k.zero] * (2 * m - 1)
        for i, x in enumerate(a):
            if k.is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = k.add(prod[i + j], k.mul(x, y))
        # x^d = x^(d-m) * x^m and x^m = -(c_0 + ... + c_{m-1} x^{m-1})
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            if k.is_zero(c):
                continue
            prod[d] = k.zero
            for i, coef in enumerate(self.modulus[:-1]):
                prod[d - m + i] = k.sub(prod[d - m + i], k.mul(c, coef))
        return tuple(prod[:m])

    def inv(self, a):
        if self.order is None:
            raise ValueError("inverses over Q(t) are never needed by the checks")
        if self.is_zero(a):
            raise ZeroDivisionError("0 has no inverse")
        return self.power(a, self.order - 2)

    def power(self, a, e: int):
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def is_zero(self, a) -> bool:
        return all(self.base.is_zero(x) for x in a)

    def elements(self):
        return [tuple(c) for c in itertools.product(self.base.elements(), repeat=self.m)]


# ---------------------------------------------------------------------------
# element strings
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def parse(field, text: str):
    """Evaluate an element string ('w^2+1', '-1/2*t+3', '(u+1)*w') in ``field``."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad element string {text!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    parser = _Parser(field, tokens)
    value = parser.expression()
    if parser.i != len(tokens):
        raise ValueError(f"trailing input in element string {text!r}")
    return value


class _Parser:
    def __init__(self, field, tokens):
        self.field = field
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expression(self):
        f = self.field
        sign = 1
        if self.peek() in ("-", "+"):
            sign = -1 if self.take() == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = f.sub(f.zero, acc)
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            acc = f.add(acc, t) if op == "+" else f.sub(acc, t)
        return acc

    def term(self):
        f = self.field
        acc = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                acc = f.mul(acc, rhs)
            else:
                acc = f.mul(acc, _inverse_scalar(f, rhs))
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = int(self.take())
            out = self.field.one
            for _ in range(e):
                out = self.field.mul(out, base)
            return out
        return base

    def atom(self):
        f = self.field
        tok = self.take()
        if tok is None:
            raise ValueError("element string ends early")
        if tok == "(":
            value = self.expression()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return value
        if tok.isdigit():
            return f.from_int(int(tok))
        return _symbol(f, tok)


def _symbol(field, name: str):
    if isinstance(field, Extension):
        if name == field.symbol:
            return field.gen()
        return field.embed(_symbol(field.base, name))
    raise ValueError(f"unknown symbol {name!r}")


def _inverse_scalar(field, value):
    """Division is only ever by a prime-field scalar in rendered strings."""
    if isinstance(field, Extension):
        if any(not field.base.is_zero(c) for c in value[1:]):
            raise ValueError("division by a non-scalar")
        return field.embed(_inverse_scalar(field.base, value[0]))
    return field.inv(value)


def render(field, a) -> str:
    """An element string rankweight's grammar accepts: '(c)+(c)*w+(c)*w^2'."""
    if not isinstance(field, Extension):
        return str(a)
    terms = []
    for i, c in enumerate(a):
        if field.base.is_zero(c):
            continue
        coef = f"({render(field.base, c)})"
        if i == 0:
            terms.append(coef)
        else:
            terms.append(f"{coef}*{field.symbol}" + (f"^{i}" if i > 1 else ""))
    return "+".join(terms) or "0"


# ---------------------------------------------------------------------------
# towers from code documents
# ---------------------------------------------------------------------------


class Tower:
    """k and L = k[x]/(f) as described by a rankweight code document's tower block."""

    def __init__(self, spec: dict):
        p = spec["characteristic"]
        prime = RationalField() if p == 0 else PrimeField(p)
        if spec.get("base_degree", 1) > 1:
            k = Extension(prime, [prime.from_int(c) for c in spec["base_modulus"]],
                          spec.get("base_generator_name", "u"))
        else:
            k = prime
        coeffs = []
        for c in spec["extension_modulus"]:
            if isinstance(c, int):
                coeffs.append(k.from_int(c))
            else:
                coeffs.append(parse(k, str(c)))
        self.k = k
        self.L = Extension(k, coeffs, spec.get("generator_name", "w"))
        self.m = self.L.m
        self.basis = [self.L.power(self.L.gen(), i) for i in range(self.m)]

    def vector(self, strings):
        return [parse(self.L, s) for s in strings]

    def k_vector(self, strings):
        return [parse(self.k, s) for s in strings]

    def expansion(self, v):
        """The m-by-n matrix over k of an L-vector (row i = i-th coordinates)."""
        return [[x[i] for x in v] for i in range(self.m)]

    def flat(self, v):
        return [e for row in self.expansion(v) for e in row]

    def code_kspan(self, gens):
        """C as a k-space inside k^(mn): the flat forms of basis_i * g."""
        L = self.L
        return [self.flat([L.mul(a, x) for x in g]) for g in gens for a in self.basis]

    def embed_vector(self, kv):
        return [self.L.embed(x) for x in kv]

    def is_rational(self, v) -> bool:
        return all(self.k.is_zero(c) for x in v for c in x[1:])

    def dot(self, a, b):
        L = self.L
        acc = L.zero
        for x, y in zip(a, b):
            acc = L.add(acc, L.mul(x, y))
        return acc


# ---------------------------------------------------------------------------
# linear algebra over k
# ---------------------------------------------------------------------------


class RowSpace:
    """An echelon basis over k, grown one vector at a time."""

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = []  # (pivot, row normalised to 1 at the pivot)
        for v in vectors:
            self.add(v)

    def residue(self, v):
        f = self.field
        v = list(v)
        for pivot, row in self.rows:
            c = v[pivot]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return all(self.field.is_zero(x) for x in self.residue(v))

    def add(self, v) -> bool:
        f = self.field
        r = self.residue(v)
        for pivot, x in enumerate(r):
            if not f.is_zero(x):
                inv = f.inv(x)
                self.rows.append((pivot, [f.mul(inv, y) for y in r]))
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank(field, vectors) -> int:
    return RowSpace(field, vectors).dim


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^n, by counting ordered bases."""
    if not 0 <= r <= n:
        return 0
    ordered_in_space = 1
    ordered_in_sub = 1
    for i in range(r):
        ordered_in_space *= q ** n - q ** i
        ordered_in_sub *= q ** r - q ** i
    return ordered_in_space // ordered_in_sub


# ---------------------------------------------------------------------------
# literal spans (finite fields): no echelon forms at all
# ---------------------------------------------------------------------------


def span_set(field, rows, n):
    """Every vector of the span, as a set of tuples, grown one row at a time."""
    elems = field.elements()
    out = {tuple([field.zero] * n)}
    for row in rows:
        if tuple(row) in out:
            continue
        out = {
            tuple(field.add(x, field.mul(a, y)) for x, y in zip(v, row))
            for v in out
            for a in elems
        }
    return out


def log_size(q: int, size: int) -> int:
    d = 0
    while q ** d < size:
        d += 1
    if q ** d != size:
        raise ValueError(f"a span of {size} vectors over GF({q}) is not a subspace")
    return d


def codewords(tower: Tower, gens, n: int):
    """Every codeword of the L-span of gens, literally."""
    return span_set(tower.L, [list(g) for g in gens], n)


def literal_support_and_restriction(tower: Tower, gens, n: int):
    """(wt_R(C), dim Res(C)) from the literal codeword set over a finite field."""
    words = codewords(tower, gens, n)
    rows = {tuple(r) for w in words for r in tower.expansion(w)}
    q = tower.k.order
    support = log_size(q, len(span_set(tower.k, sorted(rows), n)))
    rational = sum(1 for w in words if tower.is_rational(w))
    return support, log_size(q, rational)
