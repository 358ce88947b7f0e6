"""Exact arithmetic for field extension towers L/k.

Three backends share one element interface:

* ``Rationals`` -- characteristic 0, elements carried as ``fractions.Fraction``
  (always reduced, exact).
* ``PrimeField(p)`` -- GF(p), elements carried as integers in [0, p).
* ``ExtensionField(base, modulus)`` -- base[x]/(f) for a monic irreducible f,
  elements carried as length-m coordinate tuples over the base with respect
  to the power basis 1, w, ..., w^(m-1) of the class w of x.

Bases may nest: GF(p^a) with a > 1 is an ``ExtensionField`` over GF(p), and a
tower over it reduces coefficients through the base modulus automatically.
An extension of Q takes Q itself as its base; a base that is an extension of
Q is refused with ``BadBase``.

``FieldElement`` wraps (field, payload) and overloads the ring operators, so
vectors and matrices elsewhere in the package are ordinary Python sequences
of elements.  Fields compare structurally (same construction data), hence
elements surviving a pickle round-trip still compare equal.  Everything is
immutable after construction; all operations are pure.

``ExtensionTower`` bundles the base field k, the extension L, and the
coordinate map between them; ``make_tower`` is the validated constructor.

Every field a tower can hold has a private int-coded kernel
(``Field._kernel``), built on its first use and never at import.
``make_tower`` builds none for L; over a nested base such as GF(4) its gcd
irreducibility test multiplies in k, which builds k's.

* In a finite ring, an element's code is its index in ``_payloads()``
  order, so 0 is zero and 1 is one, and the base-p digits of a code are the
  element's prime-field coordinates, nested bases included: in
  characteristic 2 addition is XOR, and otherwise it adds digits mod p.
  Every finite quotient gets a table-free ``_FiniteKernel``: ``index`` and
  ``payload`` convert through the digits, and products and inverses go
  through the field's own ``_mul_raw`` and ``_inv_raw``, so a quotient that
  is not a field raises ZeroDivisionError on a zero divisor.  A finite field
  of order q <= 4096 gets its subclass ``_Kernel`` instead, with the same
  codes: odd-characteristic addition goes through Zech logarithms, and
  products and inverses through exp/log tables of one primitive element
  (Lidl-Niederreiter, *Finite Fields*, ch. 9).  Building one costs log_p(q)
  field multiplications per candidate primitive element, O(q) integer
  operations and O(q) memory; there are no q-by-q tables and no product or
  inverse caches.
* Over Q and Q[x]/(f), a nonzero element's code is its integer coordinates
  over one positive denominator, divided by their common gcd, so equal
  elements get equal codes (the representation of FLINT's ``fmpq_poly``);
  zero is 0.  Products are integer polynomial products folded by the
  modulus, with the denominators of a non-integral f cleared exactly, and
  an inverse is one fraction-free solve of the multiplication matrix
  (Bareiss, Math. Comp. 1968); a zero divisor raises ZeroDivisionError.

A kernel takes and returns codes and payloads only, and never builds a
``FieldElement``.  ``ExtensionField._mul`` and ``_inv`` are the one bridge
from payloads to it: ``index`` codes the operands, ``mul`` or ``inv``
computes, and ``payload`` reads the result back.  ``linalg``, ``ranksupport``
and ``weights`` run on codes alone; ``linalg._encode`` is the one path from
elements to codes and ``linalg.decode_rows`` the one path back, so payloads
keep their usual form (``Fraction`` coordinates over Q) at the boundary.
Codes are the stored form of every ``linalg.Subspace``; its element rows
are decoded on first read.  ``expand`` gives an L-code's k-coordinates as
k-codes without elements: over a finite field they are the base-|k| digits
of the code, lowest first, and over Q[x]/(f) the numerators over the common
denominator, each reduced.
``embed_row`` gives the L-codes of embedded k-codes: over a finite field a
k-code is also the L-code of its embedding, and over Q the code (n, d)
becomes (n, 0, ..., 0, d).  A kernel lives on its field object and is left
out of the pickle, so a worker process rebuilds it; the same holds for the
cached hash, and for the superspaces ``closure_oracle`` keeps on an
``ExtensionTower``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from . import polys
from .errors import (
    BadBase,
    BadModulus,
    FieldMismatch,
    InfiniteField,
    NotIrreducible,
)

_KERNEL_LIMIT = 4096  # finite fields up to this order get exp/log tables


class FieldElement:
    """An element of some backend field; arithmetic stays inside that field."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatch(f"cannot mix elements of {self.field} and {other.field}")
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction) and self.field.characteristic == 0:
            return FieldElement(self.field, self.field._from_fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.field, self.field._add(self.payload, self.field._neg(other.payload))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(
            self.field, self.field._mul(self.payload, self.field._inv(other.payload))
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.payload))

    def __bool__(self):
        return not self.field._is_zero(self.payload)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                other.field is self.field or other.field == self.field
            ) and self.payload == other.payload
        if isinstance(other, int):
            return self.payload == self.field._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return f"<{format_element(self)} in {self.field}>"


class Field:
    """Shared structural identity and element-level conveniences."""

    characteristic: int
    order: Optional[int]
    _kern = None  # the int-coded kernel: None until first asked for

    def _kernel(self):
        """This field's kernel, built on first use.

        A _Kernel for a finite field of order <= 4096, a _FiniteKernel for a
        larger one or a finite quotient that is not a field, and a
        _RationalKernel for Q and Q[x]/(f).
        """
        kern = self._kern
        if kern is None:
            kern = self._kern = _make_kernel(self)
        return kern

    def __getstate__(self):
        # the kernel and the hash are rebuilt where the copy is loaded
        state = dict(self.__dict__)
        state.pop("_kern", None)
        state.pop("_hash", None)
        return state

    def _identity(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._identity())
            object.__setattr__(self, "_hash", h)
        return h

    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero)

    def one(self) -> FieldElement:
        return FieldElement(self, self._one)

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def element(self, payload) -> FieldElement:
        return FieldElement(self, payload)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in canonical order; finite fields only."""
        if self.order is None:
            raise InfiniteField(f"{self} is infinite")
        for payload in self._payloads():
            yield FieldElement(self, payload)


class Rationals(Field):
    """The field Q with exact Fraction payloads."""

    characteristic = 0
    order = None
    _zero = Fraction(0)
    _one = Fraction(1)

    def _identity(self):
        return ("Q",)

    @staticmethod
    def _from_fraction(fr):
        return fr

    @staticmethod
    def _add(a, b):
        return a + b

    @staticmethod
    def _neg(a):
        return -a

    @staticmethod
    def _mul(a, b):
        return a * b

    @staticmethod
    def _inv(a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / a

    @staticmethod
    def _is_zero(a):
        return a == 0

    @staticmethod
    def _from_int(n):
        return Fraction(n)

    def _payloads(self):
        raise InfiniteField("Q is infinite")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) with integer payloads reduced mod p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadBase(f"characteristic {p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self._zero = 0
        self._one = 1 % p

    def _identity(self):
        return ("GF", self.p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    _mul_raw = _mul  # what a kernel builds its tables with

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    _inv_raw = _inv

    def _is_zero(self, a):
        return a == 0

    def _from_int(self, n):
        return n % self.p

    def _payloads(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """base[x]/(modulus) with coordinate-tuple payloads in the power basis."""

    def __init__(self, base: Field, modulus: Sequence, symbol: str = "w"):
        # modulus: payload coefficients, low to high, monic, degree >= 1
        if base.characteristic == 0 and not isinstance(base, Rationals):
            raise BadBase("an extension of Q takes Q itself as its base")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(self.modulus) - 1
        if self.degree < 1 or self.modulus[-1] != base._one:
            raise BadModulus("extension modulus must be monic of degree >= 1")
        self.symbol = symbol
        self.characteristic = base.characteristic
        self.order = None if base.order is None else base.order**self.degree
        # x^m = -(c_0 + c_1 x + ... + c_{m-1} x^{m-1})
        self._fold = tuple(base._neg(c) for c in self.modulus[:-1])
        self._zero = (base._zero,) * self.degree
        self._one = (base._one,) + (base._zero,) * (self.degree - 1)

    def _identity(self):
        return ("ext", self.base._identity(), self.modulus)

    def _add(self, a, b):
        base = self.base
        return tuple(base._add(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        base = self.base
        return tuple(base._neg(x) for x in a)

    def _mul_raw(self, a, b):
        base = self.base
        m = self.degree
        if m == 1:
            return (base._mul(a[0], b[0]),)
        prod = [base._zero] * (2 * m - 1)
        for i, x in enumerate(a):
            if base._is_zero(x):
                continue
            for j, y in enumerate(b):
                prod[i + j] = base._add(prod[i + j], base._mul(x, y))
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            if base._is_zero(c):
                continue
            prod[d] = base._zero
            for i, r in enumerate(self._fold):
                if not base._is_zero(r):
                    prod[d - m + i] = base._add(prod[d - m + i], base._mul(c, r))
        return tuple(prod[:m])

    # the one bridge from payloads to the kernel: code, compute, decode
    def _mul(self, a, b):
        kern = self._kern or self._kernel()
        index = kern.index
        return kern.payload(kern.mul(index[a], index[b]))

    def _inv(self, a):
        kern = self._kern or self._kernel()
        c = kern.index[a]
        if not c:
            raise ZeroDivisionError("0 has no inverse")
        return kern.payload(kern.inv(c))

    def _inv_raw(self, a):
        # extended Euclid in base[x] against the modulus, for a table-free kernel
        base = self.base
        r0, r1 = list(self.modulus), polys.normalize(base, a)
        s0, s1 = [], [base._one]
        while polys.degree(r1) > 0:
            q, r = polys.divmod_poly(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polys.sub(base, s0, polys.mul(base, q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
        out = polys.scale(base, s1, base._inv(r1[0]))
        out += [base._zero] * (self.degree - len(out))
        return tuple(out)

    def _is_zero(self, a):
        base = self.base
        return all(base._is_zero(c) for c in a)

    def _from_int(self, n):
        return (self.base._from_int(n),) + (self.base._zero,) * (self.degree - 1)

    def _from_fraction(self, fr):
        return (self.base._from_fraction(fr),) + (self.base._zero,) * (self.degree - 1)

    def _payloads(self):
        base_payloads = list(self.base._payloads())
        for combo in itertools.product(base_payloads, repeat=self.degree):
            yield combo[::-1]  # lowest coordinate varies fastest

    def _generator_payload(self):
        # class of x: (0, 1, 0, ..., 0), or -c0 when the extension has degree 1
        if self.degree == 1:
            return (self.base._neg(self.modulus[0]),)
        return (self.base._zero, self.base._one) + (self.base._zero,) * (self.degree - 2)

    def generator(self) -> FieldElement:
        return FieldElement(self, self._generator_payload())

    def __repr__(self):
        if self.order is not None:
            return f"GF({self.order})"
        return f"Q({self.symbol})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class _FiniteKernel:
    """Table-free int-coded arithmetic of a finite quotient; see the module docstring.

    ``add`` adds two codes; ``mul``, ``neg``, ``inv``, ``scale``,
    ``sub_scaled``, ``expand`` and ``embed_row`` work on codes and rows of
    codes, as in ``_RationalKernel``, and ``multiples(x)`` lists a * x for
    every code a.  ``field`` is the field object the kernel belongs to and
    ``q`` its order.  ``index[p]`` (the kernel itself) is the code of the
    payload p and ``payload`` goes back, through ``base``, the kernel of an
    extension's base (None for a prime field), whose order ``bq`` is the
    radix of the digits; ``m`` is the number of digits, and ``units`` lists
    the codes p^i below q, the prime-field basis.  ``mul`` and ``inv`` go through payloads and the
    field's ``_mul_raw`` and ``_inv_raw``, so no table of size q is built.
    """

    __slots__ = ("field", "q", "p", "m", "bq", "base", "add", "index", "units")
    one = 1

    def __init__(self, field):
        self.field = field
        self.q = field.order
        self.p = field.characteristic
        if isinstance(field, ExtensionField):
            self.m, self.bq, self.base = field.degree, field.base.order, field.base._kernel()
        else:
            self.m, self.bq, self.base = 1, field.order, None
        self.add = operator.xor if self.p == 2 else functools.partial(_add_digits, self.p)
        self.index = self
        self.units = [1]
        while self.units[-1] * self.p < self.q:
            self.units.append(self.units[-1] * self.p)

    def __getitem__(self, payload) -> int:
        """The code of a payload: the base codes of its coordinates as digits, lowest first."""
        if self.base is None:
            return payload
        index, code = self.base.index, 0
        for c in reversed(payload):
            code = code * self.bq + index[c]
        return code

    def expand(self, c) -> tuple:
        """The base codes of the coordinates of the code c: its base-|base| digits, lowest first."""
        out = []
        for _ in range(self.m):
            c, d = divmod(c, self.bq)
            out.append(d)
        return tuple(out)

    def payload(self, c):
        if self.base is None:
            return c
        return tuple(map(self.base.payload, self.expand(c)))

    @staticmethod
    def embed_row(row) -> tuple:
        """Base-field codes as the codes of their embeddings: the same ints."""
        return row

    def neg(self, a: int) -> int:
        """-a: each base-p digit d becomes -d mod p."""
        p = self.p
        if p == 2:
            return a
        out, unit = 0, 1
        while a:
            out += -a % p * unit
            a, unit = a // p, unit * p
        return out

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self[self.field._mul_raw(self.payload(a), self.payload(b))]

    def inv(self, a: int) -> int:
        """1/a for a nonzero code a; ZeroDivisionError for a zero divisor."""
        return self[self.field._inv_raw(self.payload(a))]

    def scale(self, row, a: int) -> list:
        """a * row."""
        mul = self.mul
        return [mul(a, x) for x in row]

    def multiples(self, x: int) -> list:
        """a * x for every code a, in code order, from one product per code p^i."""
        return _linear_table(self.p, self.add, [self.mul(u, x) for u in self.units])

    def sub_scaled(self, row, a: int, other) -> list:
        """row - a * other."""
        add, mul, na = self.add, self.mul, self.neg(a)
        return [add(x, mul(na, y)) if y else x for x, y in zip(row, other)]


class _Kernel(_FiniteKernel):
    """_FiniteKernel of a finite field of order <= _KERNEL_LIMIT, with tables.

    The codes are those of _FiniteKernel, and ``index`` becomes a dict from
    payload to code and ``payload`` reads the field's payloads by code; for
    an extension ``coords[c]`` (also ``expand(c)``) holds the base-field
    codes of the coordinates of c (None for a prime field).

    With n1 = q - 1 and g the primitive element, ``exp[e]`` is the code of
    g^e for 0 <= e < 2*n1 (the powers twice over, so a sum of two logs needs
    no modulo), followed by zeros up to index 4*n1; ``log[0]`` is 2*n1, so a
    product with zero lands among those zeros without a test.  ``neg_log``
    is the log of -1.
    """

    __slots__ = ("n1", "exp", "log", "neg_log", "payload", "coords", "expand")

    def __init__(self, field, exp, log, neg_log, add, index, payloads, coords):
        super().__init__(field)
        self.n1 = self.q - 1
        self.exp = exp
        self.log = log
        self.neg_log = neg_log
        self.add = add
        self.index = index
        self.payload = payloads.__getitem__
        self.coords = coords
        self.expand = coords.__getitem__ if coords is not None else None

    def neg(self, a: int) -> int:
        """-a; log[0] lands among the zeros of exp, so 0 needs no test."""
        return self.exp[self.log[a] + self.neg_log]

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        """1/a for a nonzero code a."""
        return self.exp[self.n1 - self.log[a]]

    def multiples(self, x: int) -> list:
        """a * x for every code a, in code order: ``log`` lists the logs in code order."""
        exp, lx = self.exp, self.log[x]
        return [exp[lx + la] for la in self.log]

    def scale(self, row, a: int) -> list:
        """a * row."""
        exp, log = self.exp, self.log
        la = log[a]
        return [exp[la + log[x]] for x in row]

    def sub_scaled(self, row, a: int, other) -> list:
        """row - a * other."""
        exp, log, add = self.exp, self.log, self.add
        s = (log[a] + self.neg_log) % self.n1  # log of -a, for a != 0
        return [add(x, exp[s + log[y]]) for x, y in zip(row, other)]


def _linear_table(p: int, add, images) -> list:
    """The values at every code, in code order, of a map that is linear over GF(p),
    from its values ``images`` at the codes p^i: the codes c + d * p^i with
    c < p^i come from the codes c + (d-1) * p^i."""
    out, unit = [0], 1
    for image in images:
        for d in range(1, p):
            out += [add(y, image) for y in out[(d - 1) * unit : d * unit]]
        unit *= p
    return out


def _add_digits(p: int, a: int, b: int) -> int:
    """The sum of two codes in characteristic p: their base-p digits add mod p."""
    out, unit = 0, 1
    while a or b:
        out += (a + b) % p * unit
        a, b, unit = a // p, b // p, unit * p
    return out


def _make_kernel(field: Field):
    """The kernel of Q, of Q[x]/(f) or of a finite quotient.

    A finite field of order <= _KERNEL_LIMIT gets a _Kernel.  x -> x*g is
    linear over GF(p), so for a candidate g the images of the codes p^i
    under it, one multiplication each, give the code of every product by g
    (``_linear_table``).  g is primitive when its powers, walked through
    that table, first return to 1 after q - 1 steps; the candidates run in
    code order.  No candidate passes in a quotient by a reducible modulus
    (not a field), which keeps its _FiniteKernel, as does every larger
    finite field.
    """
    if isinstance(field, Rationals):
        return _QKernel(field)
    if field.characteristic == 0:
        return _RationalKernel(field)
    q, free = field.order, _FiniteKernel(field)
    if q > _KERNEL_LIMIT:
        return free
    p, n1 = field.characteristic, q - 1
    payloads = list(field._payloads())
    index = {x: i for i, x in enumerate(payloads)}
    # the codes below the base order are the base field, a proper subfield
    # when the degree is above 1, so none of them is primitive
    for g in payloads[free.bq if free.m > 1 else min(2, n1):]:
        # times_g[c] is the code of (element c) * g
        times_g = _linear_table(p, free.add, [index[field._mul_raw(payloads[u], g)] for u in free.units])
        powers = [1]
        x = times_g[1]
        while x != 1 and len(powers) < n1:
            powers.append(x)
            x = times_g[x]
        if x == 1 and len(powers) == n1:
            break
    else:
        return free
    exp = powers + powers + [0] * (2 * n1 + 1)
    log = [2 * n1] * q
    for e, c in enumerate(powers):
        log[c] = e
    if p == 2:
        add, neg_log = operator.xor, 0
    else:
        # Zech logarithms: zech[e] = log(1 + g^e); 1 + x adds 1 to the lowest digit
        zech = [log[c - c % p + (c + 1) % p] for c in exp[:n1]]

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[log[b] - la]]  # a negative index wraps mod n1

        neg_log = n1 // 2
    coords = None
    if isinstance(field, ExtensionField):
        # the same digit order as _payloads: the lowest coordinate varies fastest
        coords = [c[::-1] for c in itertools.product(range(field.base.order), repeat=field.degree)]
    return _Kernel(field, exp, log, neg_log, add, index, payloads, coords)


def _rational_code(nums, den: int):
    """The code of the element with coordinates nums[i] / den, for den > 0."""
    if not any(nums):
        return 0
    g = gcd(*nums, den)
    if g == 1:
        return (*nums, den)
    return (*[x // g for x in nums], den // g)


class _RationalKernel:
    """Int-coded arithmetic of Q[x]/(f) over Q, degree m >= 1; see the module docstring.

    A nonzero element with coordinates n_i/d is coded as the tuple
    (n_0, ..., n_(m-1), d) with d > 0 and gcd(n_0, ..., n_(m-1), d) = 1, so
    equal elements get equal codes; zero is coded as 0.  ``mul``, ``neg``,
    ``inv``, ``scale`` and ``sub_scaled`` work on codes and rows of codes,
    skipping zero entries.  ``expand`` gives the Q-codes of a code's
    coordinates, n_i/d as (n_i/g, d/g) with g = gcd(n_i, d), and
    ``embed_row`` turns Q-codes (n, d) into the codes (n, 0, ..., 0, d) of
    their embeddings.  ``index[p]`` (the kernel itself) is the code of the
    payload p, as for a finite field, and ``payload`` goes back.  With D the
    least common denominator of the coefficients c_i of f,
    x^m = sum(r * x^i for i, r in fold) / D, where ``fold`` lists the pairs
    (i, -D*c_i) with c_i != 0 and ``fold_den`` is D.
    """

    __slots__ = ("field", "m", "one", "fold", "fold_den", "index", "zeros")

    def __init__(self, field):
        self.field = field
        self.m = field.degree if isinstance(field, ExtensionField) else 1
        coeffs = field.modulus[:-1] if isinstance(field, ExtensionField) else ()
        self.one = (1,) + (0,) * (self.m - 1) + (1,)
        den = self.fold_den = lcm(*[c.denominator for c in coeffs])
        self.fold = tuple((i, -c.numerator * (den // c.denominator)) for i, c in enumerate(coeffs) if c)
        self.index = self
        self.zeros = (0,) * self.m

    def __getitem__(self, p):
        """The code of the payload p, a tuple of m Fractions."""
        nums = [x.numerator for x in p]
        if len(nums) != self.m:
            raise FieldMismatch(f"payload of length {len(nums)} in {self.field}")
        if not any(nums):
            return 0
        dens = [x.denominator for x in p]
        d = lcm(*dens)
        if d == 1:
            return (*nums, 1)
        # the coordinates are in lowest terms, so no prime divides d and every n_i*(d/d_i)
        return (*[n * (d // e) for n, e in zip(nums, dens)], d)

    def payload(self, c):
        if not c:
            return self.field._zero
        zero, d = Rationals._zero, c[-1]
        return tuple([Fraction(n, d) if n else zero for n in c[:-1]])

    def _product(self, a, b):
        """(nums, den) of a*b for nonzero codes, not yet normalized."""
        m = self.m
        prod = [0] * (2 * m - 1)
        for i in range(m):
            x = a[i]
            if x:
                for j in range(m):
                    y = b[j]
                    if y:
                        prod[i + j] += x * y
        den = a[m] * b[m]
        fold_den = self.fold_den
        for d in range(2 * m - 2, m - 1, -1):  # x^d = x^(d-m) * x^m, from the top down
            c = prod[d]
            if c:
                if fold_den != 1:
                    for i in range(d):
                        prod[i] *= fold_den
                    den *= fold_den
                for i, r in self.fold:
                    prod[d - m + i] += c * r
        del prod[m:]
        return prod, den

    def mul(self, a, b):
        if not a or not b:
            return 0
        return _rational_code(*self._product(a, b))

    def inv(self, a):
        """1/a for a nonzero code a, by one fraction-free solve of M(A) v = e_0.

        With a = A/d_a, column j of the multiplication matrix of A is
        A*x^j = N_j / s_j with N_j integer.  Solving N y = det * e_0 by
        Bareiss gives 1/a = d_a * (s_j * y_j)_j / det.
        """
        m, fold_den = self.m, self.fold_den
        col, s = list(a[:m]), 1
        cols, scales = [col], [s]
        while len(cols) < m:
            top = col[-1]
            col = [0] + col[:-1]  # times x
            if top:
                if fold_den != 1:
                    col = [fold_den * v for v in col]
                    s *= fold_den
                for i, r in self.fold:
                    col[i] += top * r
            cols.append(col)
            scales.append(s)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(m)]
        y, det = _bareiss_solve(rows)
        if det < 0:
            y, det = [-v for v in y], -det
        da = a[m]
        return _rational_code([da * s * v for s, v in zip(scales, y)], det)

    def scale(self, row, a) -> list:
        """a * row."""
        mul = self.mul
        return [mul(a, x) for x in row]

    def sub_scaled(self, row, a, other) -> list:
        """row - a * other."""
        m = self.m
        neg = (*[-x for x in a[:m]], a[m])
        product = self._product
        out = []
        for x, y in zip(row, other):
            if not y:
                out.append(x)
                continue
            nums, den = product(neg, y)
            if x:
                xd = x[m]
                nums = [x[i] * den + nums[i] * xd for i in range(m)]
                den *= xd
            out.append(_rational_code(nums, den))
        return out

    def neg(self, a):
        if not a:
            return 0
        m = self.m
        return (*[-x for x in a[:m]], a[m])

    def expand(self, c) -> tuple:
        """The Q-codes of the coordinates of the code c."""
        if not c:
            return self.zeros
        d = c[-1]
        out = []
        for x in c[:-1]:
            if x:
                g = gcd(x, d)
                out.append((x // g, d // g))
            else:
                out.append(0)
        return tuple(out)

    def embed_row(self, row) -> tuple:
        """Q-codes (n, d) as the codes (n, 0, ..., 0, d) of their embeddings."""
        pad = self.zeros[1:]
        return tuple([(e[0], *pad, e[1]) if e else 0 for e in row])


class _QKernel(_RationalKernel):
    """_RationalKernel for Q itself: payloads are Fractions, codes are (n, d),
    and products, inverses and row updates take a degree-1 fast path."""

    __slots__ = ()

    @staticmethod
    def __getitem__(x):
        n = x.numerator
        return (n, x.denominator) if n else 0

    @staticmethod
    def payload(c):
        return Fraction(c[0], c[1]) if c else Rationals._zero

    @staticmethod
    def mul(a, b):
        if not a or not b:
            return 0
        n, d = a[0] * b[0], a[1] * b[1]
        g = gcd(n, d)
        return (n // g, d // g)

    @staticmethod
    def inv(a):
        n, d = a
        return (d, n) if n > 0 else (-d, -n)

    def sub_scaled(self, row, a, other) -> list:
        an, ad = a
        out = []
        for x, y in zip(row, other):
            if not y:
                out.append(x)
                continue
            yn, yd = y
            if x:
                xn, xd = x
                d = ad * yd
                n = xn * d - an * yn * xd
                if not n:
                    out.append(0)
                    continue
                d *= xd
            else:
                n, d = -an * yn, ad * yd
            g = gcd(n, d)
            out.append((n // g, d // g))
        return out


def _bareiss_solve(rows):
    """(y, det) with N y = det * b, for the rows [N | b] of a square integer N.

    Fraction-free elimination (Bareiss, Math. Comp. 1968): every division is
    exact, and det is the last pivot, +-det(N).  Raises ZeroDivisionError
    when N is singular.  ``rows`` is overwritten.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    break
            else:
                raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
        pivot_row = rows[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            c = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * p - c * pivot_row[j]) // prev
            row[k] = 0
        prev = p
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // row[i]
    return y, prev


class BaseFieldDescriptor:
    """Recipe for the base field k: Q, GF(p), or GF(p^a) via its own modulus."""

    __slots__ = ("characteristic", "base_degree", "base_modulus")

    def __init__(self, characteristic: int, base_degree: int = 1, base_modulus=None):
        if characteristic != 0 and not _is_prime(characteristic):
            raise BadBase(f"characteristic must be 0 or prime, got {characteristic}")
        if characteristic == 0:
            if base_degree != 1:
                raise BadBase("characteristic 0 forces base_degree 1")
            if base_modulus is not None:
                raise BadBase("characteristic 0 takes no base modulus")
        else:
            if base_degree < 1:
                raise BadBase("base_degree must be >= 1")
            if (base_modulus is None) == (base_degree > 1):
                raise BadBase("base_modulus is required exactly when base_degree > 1")
        self.characteristic = characteristic
        self.base_degree = base_degree
        self.base_modulus = None if base_modulus is None else tuple(base_modulus)

    def __eq__(self, other):
        if not isinstance(other, BaseFieldDescriptor):
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.base_degree == other.base_degree
            and self.base_modulus == other.base_modulus
        )

    def __hash__(self):
        return hash((self.characteristic, self.base_degree, self.base_modulus))

    def __repr__(self):
        if self.characteristic == 0:
            return "Q"
        if self.base_degree == 1:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic}^{self.base_degree})"


def build_base_field(desc: BaseFieldDescriptor, symbol: str = "u") -> Field:
    """Construct and validate the base field named by a descriptor."""
    if desc.characteristic == 0:
        return Rationals()
    prime = PrimeField(desc.characteristic)
    if desc.base_degree == 1:
        return prime
    coeffs = [prime._from_int(c) for c in desc.base_modulus]
    if len(coeffs) - 1 != desc.base_degree:
        raise BadModulus(
            f"base modulus has degree {len(coeffs) - 1}, descriptor says {desc.base_degree}"
        )
    if coeffs[-1] != prime._one:
        raise BadModulus("base modulus must be monic")
    if not polys.is_irreducible_bruteforce(prime, coeffs):
        raise NotIrreducible(f"base modulus is reducible over GF({desc.characteristic})")
    return ExtensionField(prime, coeffs, symbol=symbol)


class ExtensionTower:
    """A finite extension L = k[x]/(f) with its power basis and coordinate map."""

    __slots__ = ("base_descriptor", "k", "L", "degree", "basis", "_separable", "_traces", "_superspaces")

    def __init__(self, base_descriptor, k, L):
        self.base_descriptor = base_descriptor
        self.k = k
        self.L = L
        self.degree = L.degree
        # power basis 1, w, ..., w^(m-1): the unit coordinate vectors
        m = self.degree
        self.basis = tuple(
            FieldElement(L, tuple(k._one if j == i else k._zero for j in range(m)))
            for i in range(m)
        )
        self._separable = None  # is_separable_tower fills it on first use
        self._traces = None  # trace fills it with the k-payloads of Tr(w^i) on first use
        self._superspaces = None  # ranksupport.closure_oracle: n -> every W_L of k^n, on first use

    def __getstate__(self):
        # the oracle's superspaces are rebuilt where the copy is loaded
        return None, {s: getattr(self, s) for s in self.__slots__ if s != "_superspaces"}

    def __setstate__(self, state):
        for s, value in state[1].items():
            setattr(self, s, value)
        self._superspaces = None

    @property
    def modulus(self):
        return self.L.modulus

    def generator(self) -> FieldElement:
        """The class w of x (equal to -c0 when the extension has degree 1)."""
        return self.L.generator()

    def coords(self, x: FieldElement) -> list:
        """Coordinates of x over k in the power basis; sum(coords[i]*basis[i]) == x."""
        if not (x.field is self.L or x.field == self.L):
            raise FieldMismatch(f"element of {x.field} is not in {self.L}")
        return [FieldElement(self.k, c) for c in x.payload]

    def element_from_coords(self, coords) -> FieldElement:
        payload = []
        for c in coords:
            if isinstance(c, FieldElement):
                if not (c.field is self.k or c.field == self.k):
                    raise FieldMismatch("coordinates must lie in the base field")
                payload.append(c.payload)
            elif isinstance(c, int):
                payload.append(self.k._from_int(c))
            elif isinstance(c, Fraction) and self.k.characteristic == 0:
                payload.append(self.k._from_fraction(c))
            else:
                raise FieldMismatch(f"cannot interpret coordinate {c!r}")
        if len(payload) != self.degree:
            raise ValueError(f"need exactly {self.degree} coordinates")
        return FieldElement(self.L, tuple(payload))

    def embed(self, c: FieldElement) -> FieldElement:
        """Embed an element of k into L as (c, 0, ..., 0)."""
        if not (c.field is self.k or c.field == self.k):
            raise FieldMismatch("embed expects a base-field element")
        return FieldElement(self.L, (c.payload,) + (self.k._zero,) * (self.degree - 1))

    def trace(self, x: FieldElement) -> FieldElement:
        """Field trace L -> k, by linearity: sum(x_i * Tr(w^i)).

        Tr(w^i) is the trace of the multiplication-by-w^i matrix, computed
        for each i once per tower, on first use.
        """
        if not (x.field is self.L or x.field == self.L):
            raise FieldMismatch(f"element of {x.field} is not in {self.L}")
        k = self.k
        if self._traces is None:
            self._traces = tuple(self._matrix_trace(b) for b in self.basis)
        acc = k._zero
        for c, t in zip(x.payload, self._traces):
            if not k._is_zero(c) and not k._is_zero(t):
                acc = k._add(acc, k._mul(c, t))
        return FieldElement(k, acc)

    def _matrix_trace(self, x: FieldElement):
        """The k-payload of the trace of the multiplication-by-x matrix: sum_i (x*w^i)_i."""
        k = self.k
        acc = k._zero
        y = x
        w = self.generator()
        for i in range(self.degree):
            acc = k._add(acc, y.payload[i])
            if i + 1 < self.degree:
                y = y * w
        return acc

    def __eq__(self, other):
        if not isinstance(other, ExtensionTower):
            return NotImplemented
        return self.L == other.L

    def __hash__(self):
        return hash(("tower", self.L))

    def __repr__(self):
        return f"{self.L}/{self.k}"


def make_tower(base, modulus, symbol: str = "w", base_symbol: str = "u") -> ExtensionTower:
    """Validated tower constructor: checks the base, monicity, irreducibility.

    ``modulus`` is a low-to-high coefficient sequence over the base field;
    entries may be ints, Fractions, or base-field FieldElements.
    """
    if isinstance(base, tuple):
        base = BaseFieldDescriptor(*base)
    elif not isinstance(base, BaseFieldDescriptor):
        raise BadBase(f"expected a BaseFieldDescriptor, got {base!r}")
    k = build_base_field(base, symbol=base_symbol)
    coeffs = []
    for c in modulus:
        if isinstance(c, FieldElement):
            if not (c.field is k or c.field == k):
                raise BadModulus("modulus coefficient from a foreign field")
            coeffs.append(c.payload)
        elif isinstance(c, int):
            coeffs.append(k._from_int(c))
        elif isinstance(c, Fraction) and k.characteristic == 0:
            coeffs.append(c)
        else:
            raise BadModulus(f"cannot interpret modulus coefficient {c!r}")
    while coeffs and k._is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) < 2:
        raise BadModulus("extension modulus must have degree >= 1")
    if coeffs[-1] != k._one:
        raise BadModulus("extension modulus must be monic")
    if k.order is None:
        if not polys.is_irreducible_rationals(coeffs):
            raise NotIrreducible("extension modulus is reducible over Q")
    else:
        if not polys.is_irreducible_gcd(k, coeffs):
            raise NotIrreducible(f"extension modulus is reducible over {k}")
    L = ExtensionField(k, tuple(coeffs), symbol=symbol)
    return ExtensionTower(base, k, L)


def is_separable_tower(tower: ExtensionTower) -> bool:
    """True iff gcd(f, f') = 1; always true in characteristic 0 and over finite fields.

    Computed once per tower, on first use.
    """
    if tower._separable is None:
        k = tower.k
        f = list(tower.L.modulus)
        fprime = polys.derivative(k, f)
        tower._separable = polys.degree(polys.gcd(k, f, fprime)) == 0
    return tower._separable


def random_rational_element(tower: ExtensionTower, rng, height: int) -> FieldElement:
    """An element of L over Q with coordinates a/b, |a| <= height, 1 <= b <= height.

    Draws rng.randint for a, then for b, coordinate by coordinate, so a seeded
    generator always yields the same sequence of elements.
    """
    return tower.element_from_coords(
        [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(tower.degree)]
    )


def _is_scalar_payload(field: Field, payload) -> bool:
    """True when the payload sits in the prime subfield (renders as a number)."""
    if not isinstance(field, ExtensionField):
        return True
    base = field.base
    return all(base._is_zero(c) for c in payload[1:]) and _is_scalar_payload(base, payload[0])


def format_element(x: FieldElement) -> str:
    """Canonical string form: '3/2', '2', 'w^2+w+1', '(u+1)*w', '-1/2*w+3'."""
    field = x.field
    if isinstance(field, (Rationals, PrimeField)):
        return str(x.payload)
    if not isinstance(field, ExtensionField):
        raise TypeError(f"cannot format an element of {field!r}")
    base = field.base
    sym = field.symbol
    terms = []
    for i in range(field.degree - 1, -1, -1):
        c = x.payload[i]
        if base._is_zero(c):
            continue
        cs = format_element(FieldElement(base, c))
        plain = _is_scalar_payload(base, c)
        if i == 0:
            terms.append(cs if plain else f"({cs})")
            continue
        power = sym if i == 1 else f"{sym}^{i}"
        if c == base._one:
            terms.append(power)
        elif plain:
            terms.append(f"{cs}*{power}")
        else:
            terms.append(f"({cs})*{power}")
    if not terms:
        return "0"
    return "+".join(terms).replace("+-", "-")
