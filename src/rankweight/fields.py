"""Exact arithmetic for field extension towers L/k.

Three backends share one element interface:

* ``Rationals`` -- characteristic 0; its payloads are ``fractions.Fraction``.
* ``PrimeField(p)`` -- GF(p); its payloads are integers in [0, p).
* ``ExtensionField(base, modulus)`` -- base[x]/(f) for a monic irreducible f;
  its payloads are length-m coordinate tuples of base payloads with respect
  to the power basis 1, w, ..., w^(m-1) of the class w of x.

Bases may nest: GF(p^a) with a > 1 is an ``ExtensionField`` over GF(p), and a
tower over it reduces coefficients through the base modulus automatically.
An extension of Q takes Q itself as its base; a base that is an extension of
Q is refused with ``BadBase``.

Every field a tower can hold has a private int-coded kernel, ``_kern``,
built by its constructor (``_make_kernel``) and never at import, so a field
is complete when its constructor returns; the kernel is the field's one
arithmetic.  A ``FieldElement`` is (field, code):
``FieldElement(field, payload)`` codes the payload it is built from, its
``payload`` reads the payload back, and its operators are the kernel's, so
vectors and matrices elsewhere in the package are ordinary Python sequences
of elements.  Fields compare structurally (same construction data) and codes
depend on that data alone, hence elements of separately built equal fields,
and elements surviving a pickle round-trip, compare equal.  Everything is
immutable after construction; all operations are pure.

``ExtensionTower(L)`` holds L alone, k being ``L.base``, with the coordinate
map between them.  k is a field and nothing else: ``build_base_field`` reads
a description of k (characteristic, base degree, base modulus) into the
built field, and ``make_tower``, the one tower constructor, takes that field
(``documents`` passes the k it parsed the modulus in, so k is built once per
tower).  ``ExtensionField`` checks its own modulus, monic and then
irreducible, so every quotient is a field and both floors, GF(p^a)/GF(p) in
``build_base_field`` and L/k in ``make_tower``, are checked once.
Irreducibility is decided in one place, ``_make_kernel``: up to 4096
elements by the kernel's search for a primitive element, above them by
``polys.is_irreducible_gcd``, and over Q by ``polys.is_irreducible_rationals``
after, from degree 4, a certificate mod small primes.  Finite fields and Q
are perfect, so every tower is separable.

* In a finite field, the base-p digits of a code are the element's
  prime-field coordinates, nested bases included, lowest first, so 0 is zero
  and 1 is one: in characteristic 2 addition is XOR, and otherwise it adds
  digits mod p.  Every finite field gets a table-free ``_FiniteKernel``:
  ``index`` and ``payload`` convert through the digits, a product is the
  schoolbook product of the digit tuples folded by the modulus, and an
  inverse is extended Euclid against the modulus, both in the base's kernel.
  A finite field of order q <= 4096 gets its subclass ``_Kernel``
  instead, with the same codes: odd-characteristic addition goes through
  Zech logarithms, and products and inverses through exp/log tables of one
  primitive element (Lidl-Niederreiter, *Finite Fields*, ch. 9).  Building
  one costs log_p(q) table-free products and O(q) integer operations per
  candidate, and O(q) memory; there are no q-by-q tables and no caches.
* Over Q and Q[x]/(f), a nonzero element's code is its integer coordinates
  over one positive denominator, divided by their common gcd, so equal
  elements get equal codes (the representation of FLINT's ``fmpq_poly``);
  zero is 0.  Products are integer polynomial products folded by the
  modulus, with the denominators of a non-integral f cleared exactly, and
  an inverse is one fraction-free solve of the multiplication matrix
  (Bareiss, Math. Comp. 1968).

Both inverses raise ZeroDivisionError on a zero divisor, a guard that no
checked field reaches; it is the one such guard, since every polynomial
division on the way (``polys.divmod_poly``) is by a nonzero divisor.

A kernel takes and returns codes only, and never builds a ``FieldElement``;
``index`` and ``payload`` convert between codes and payloads at the
boundary.  Three jobs on codes have one implementation each, here:
``_code_of`` codes an element, an int or (over Q) a Fraction, and ``_code_in``
is the one refusal (FieldMismatch) of a single non-element; ``_power`` is
the one square-and-multiply; and ``ExtensionTower._code_trace`` is the one
trace, the same sum of k-kernel products over ``expand`` on every tower,
Q(θ) included, which ``ranksupport.trace_image`` also takes.  ``linalg``,
``ranksupport`` and ``weights`` run on codes alone; ``linalg._encode`` reads
the codes of rows of elements and ``linalg.decode_rows`` wraps rows of
codes.  Codes are the stored form of every ``linalg.Subspace``; its element
rows are decoded on each read.
``expand`` gives an L-code's k-coordinates as k-codes: over a finite field
they are the base-|k| digits of the code, lowest first, and over Q[x]/(f)
the numerators over the common denominator, each reduced.
``embed_row`` gives the L-codes of embedded k-codes: over a finite field a
k-code is also the L-code of its embedding, and over Q the code (n, d)
becomes (n, 0, ..., 0, d).  ``basis`` holds the codes of the power basis
1, w, ..., w^(m-1): bq^i over a finite field, the unit tuples over Q[x]/(f).
A kernel and the hash live on their field object, and a field pickles as
its constructor's arguments, so a process that loads a pickled field, such
as a spawned verify worker, checks it and builds both exactly as a fresh
field does (a forked one inherits the parent's).  Everything an
``ExtensionTower`` derives lives in its one ``_TowerMemo``, where each entry
names the function that fills it, and a tower pickles as L, so a loaded copy
is rebuilt with an empty memo, as a tower built apart is.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import polys
from .errors import (
    BadBase,
    BadModulus,
    FieldMismatch,
    InfiniteField,
    InternalInvariantError,
    NotIrreducible,
)

_KERNEL_LIMIT = 4096  # finite fields up to this order get exp/log tables


class FieldElement:
    """An element of some backend field, stored as its code in the field's kernel.

    Arithmetic stays inside the field and runs in its kernel.
    """

    __slots__ = ("field", "code")

    def __init__(self, field, payload):
        self.field = field
        self.code = field._kern.index[payload]

    @property
    def payload(self):
        """What the element is built from and read back as: a Fraction, an int or a coordinate tuple."""
        return self.field._kern.payload(self.code)

    def _coerce(self, other):
        """other's code in this element's field, or None when other is not an element of it."""
        code = _code_of(self.field, other)
        if code is None and isinstance(other, FieldElement):
            raise FieldMismatch(f"cannot mix elements of {self.field} and {other.field}")
        return code

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return _element(self.field, self.field._kern.add(self.code, b))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, self.field._kern.neg(self.code))

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        kern = self.field._kern
        return _element(self.field, kern.add(self.code, kern.neg(b)))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return _element(self.field, b) - self

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return _element(self.field, self.field._kern.mul(self.code, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if not b:
            raise ZeroDivisionError("0 has no inverse")
        kern = self.field._kern
        return _element(self.field, kern.mul(self.code, kern.inv(b)))

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return _element(self.field, b) / self

    def __pow__(self, e: int):
        base = self.inverse() if e < 0 else self
        return _element(self.field, _power(self.field._kern, base.code, abs(e)))

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError("0 has no inverse")
        return _element(self.field, self.field._kern.inv(self.code))

    def __bool__(self):
        return bool(self.code)  # zero is the code 0 in every kernel

    def __eq__(self, other):
        """A prime-field element hashes as the number it equals (code c < p, or n/d for (n, 0, ..., 0, d)),
        but ``PrimeField(3).one() == 4`` holds too, and no hash matches every int that is 1 mod 3."""
        if isinstance(other, (FieldElement, int, Fraction)):
            # None, never a code, for a foreign element and for a Fraction in characteristic p
            return _code_of(self.field, other) == self.code
        return NotImplemented

    def __hash__(self):
        code, p = self.code, self.field.characteristic
        if not code or (p and code < p):
            return hash(code)
        if not p and not any(code[1:-1]):
            return hash(Fraction(code[0], code[-1]))
        return hash((self.field, code))

    def __repr__(self):
        return f"<{format_element(self)} in {self.field}>"


def _element(field, code) -> FieldElement:
    """The element of field with the given code of its kernel."""
    x = object.__new__(FieldElement)
    x.field = field
    x.code = code
    return x


def _member_code(field, x):
    """x's code when x is an element of field (or of an equal field built apart), else None."""
    if isinstance(x, FieldElement) and (x.field is field or x.field == field):
        return x.code
    return None


def _code_in(field, x):
    """x's code when x is an element of field (or of an equal field built apart), else FieldMismatch."""
    code = _member_code(field, x)
    if code is None:
        raise FieldMismatch(f"{x!r} is not an element of {field}")
    return code


def _code_of(field, x):
    """x's code in field's kernel, for an element of field, an int, or a Fraction in
    characteristic 0; None for anything else, an element of another field included."""
    if isinstance(x, FieldElement):
        return _member_code(field, x)
    if isinstance(x, int):
        return field._kern.int_code(x)
    if isinstance(x, Fraction) and field.characteristic == 0:
        return field._kern.fraction_code(x)
    return None


def _power(kern, a, e: int):
    """a^e for a code a of kern and e >= 0, by square and multiply, with no square after the last bit."""
    result = kern.one
    while e:
        if e & 1:
            result = kern.mul(result, a)
        e >>= 1
        if e:
            a = kern.mul(a, a)
    return result


class Field:
    """Shared structural identity and element-level conveniences.  Each
    constructor sets ``_kern`` and ``_hash``; ``__reduce__`` pickles a field as a call of it."""

    characteristic: int
    order: int | None

    def _identity(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return self._hash

    def zero(self) -> FieldElement:
        return _element(self, 0)

    def one(self) -> FieldElement:
        return _element(self, self._kern.one)

    def from_int(self, n: int) -> FieldElement:
        return _element(self, self._kern.int_code(n))

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in canonical order, the code order; finite fields only."""
        if self.order is None:
            raise InfiniteField(f"{self} is infinite")
        for code in range(self.order):
            yield _element(self, code)


class Rationals(Field):
    """The field Q; its payloads are Fractions."""

    characteristic = 0
    order = None
    _zero = Fraction(0)
    _one = Fraction(1)

    def __init__(self):
        self._kern = _make_kernel(self)
        self._hash = hash(self._identity())

    def __reduce__(self):
        return Rationals, ()

    def _identity(self):
        return ("Q",)

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p); its payloads are integers reduced mod p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadBase(f"characteristic {p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self._zero = 0
        self._one = 1 % p
        self._kern = _make_kernel(self)
        self._hash = hash(self._identity())

    def __reduce__(self):
        return PrimeField, (self.p,)

    def _identity(self):
        return ("GF", self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(Field):
    """base[x]/(modulus); its payloads are coordinate tuples in the power basis.

    The one check of a modulus: monic of degree >= 1 here, then irreducible
    in ``_make_kernel``, which builds no kernel for a reducible one, so every
    ExtensionField is a field.  The errors name the quotient by its
    generator symbol.
    """

    def __init__(self, base: Field, modulus: Sequence, symbol: str = "w"):
        # modulus: payload coefficients over base, low to high
        if base.characteristic == 0 and not isinstance(base, Rationals):
            raise BadBase("an extension of Q takes Q itself as its base")
        modulus, kern = tuple(modulus), base._kern
        codes = [kern.index[c] for c in modulus]
        if len(codes) < 2 or codes[-1] != kern.one:
            raise BadModulus(f"modulus of {symbol} must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.symbol = symbol
        self.characteristic = base.characteristic
        self.order = None if base.order is None else base.order**self.degree
        self._zero = (base._zero,) * self.degree
        self._one = (base._one,) + (base._zero,) * (self.degree - 1)
        self._kern = _make_kernel(self)
        if self._kern is None:
            raise NotIrreducible(f"modulus of {symbol} is reducible over {base}")
        self._hash = hash(self._identity())

    def __reduce__(self):
        return ExtensionField, (self.base, self.modulus, self.symbol)

    def _identity(self):
        return ("ext", self.base._identity(), self.modulus)

    def generator(self) -> FieldElement:
        """The class w of x: the power basis's second code, or -c0 when the extension has degree 1."""
        kern = self._kern
        return _element(self, kern.basis[1] if self.degree > 1 else kern.neg(kern.index[self.modulus[:1]]))

    def __repr__(self):
        if self.order is not None:
            return f"GF({self.order})"
        return f"Q({self.symbol})"


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


class _FiniteKernel:
    """Table-free int-coded arithmetic of a finite field; see the module docstring.

    ``add`` adds two codes; ``mul``, ``neg``, ``inv``, ``scale``,
    ``sub_scaled``, ``expand`` and ``embed_row`` work on codes and rows of
    codes, as in ``_RationalKernel``, ``int_code(n)`` is the code of n * 1
    and ``multiples(x)`` lists a * x for every code a.  ``field`` is the
    field object the kernel belongs to and ``q`` its order.  ``index[p]``
    (the kernel itself) is the code of the payload p and ``payload`` goes
    back, through ``base``, the kernel of an extension's base (None for a
    prime field), whose order ``bq`` is the radix of the digits; ``m`` is the
    number of digits, ``units`` lists the codes p^i below q, the
    prime-field basis, and ``basis`` the codes bq^i below q, the power basis
    over the base.  For an extension, ``modulus`` holds the base codes of the
    modulus and ``fold`` those of -c_0, ..., -c_(m-1), so that
    x^m = sum(fold[i] * x^i); for a prime field both are None.
    """

    __slots__ = ("field", "q", "p", "m", "bq", "base", "add", "index", "units", "modulus", "fold", "basis")
    one = 1

    def __init__(self, field):
        self.field = field
        self.q = field.order
        self.p = field.characteristic
        self.m, self.bq, self.base, self.modulus, self.fold = 1, field.order, None, None, None
        if isinstance(field, ExtensionField):
            base = self.base = field.base._kern
            self.m, self.bq = field.degree, field.base.order
            self.modulus = [base[c] for c in field.modulus]
            self.fold = [base.neg(c) for c in self.modulus[:-1]]
        self.add = operator.xor if self.p == 2 else functools.partial(_add_digits, self.p)
        self.index = self
        self.units = [1]
        while self.units[-1] * self.p < self.q:
            self.units.append(self.units[-1] * self.p)
        self.basis = tuple([self.bq**i for i in range(self.m)])

    def __getitem__(self, payload) -> int:
        """The code of a payload: the base codes of its coordinates as digits, lowest first."""
        if self.base is None:
            if isinstance(payload, int) and 0 <= payload < self.q:
                return payload
        elif len(payload) == self.m:
            return self._join([self.base[c] for c in payload])
        raise FieldMismatch(f"payload {payload!r} is not in {self.field}")

    def _join(self, digits) -> int:
        """The code whose base-|base| digits, lowest first, are the given base codes."""
        code = 0
        for d in reversed(digits):
            code = code * self.bq + d
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

    def int_code(self, n: int) -> int:
        """The code of n * 1: n mod p, the lowest digit."""
        return n % self.p

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
        """a * b: the schoolbook product of the digits in the base kernel, folded by the modulus."""
        if not a or not b:
            return 0
        base = self.base
        if base is None:
            return a * b % self.p
        m, add, bmul = self.m, base.add, base.mul
        prod = [0] * (2 * m - 1)
        y = self.expand(b)
        for i, x in enumerate(self.expand(a)):
            if x:
                for j, z in enumerate(y):
                    if z:
                        prod[i + j] = add(prod[i + j], bmul(x, z))
        for d in range(2 * m - 2, m - 1, -1):  # x^d = x^(d-m) * x^m, from the top down
            c = prod[d]
            if c:
                for i, r in enumerate(self.fold):
                    if r:
                        prod[d - m + i] = add(prod[d - m + i], bmul(c, r))
        return self._join(prod[:m])

    def inv(self, a: int) -> int:
        """1/a for a nonzero code a, by extended Euclid against the modulus in the base kernel;
        ZeroDivisionError for a zero divisor, a guard that no field reaches."""
        base = self.base
        if base is None:
            return pow(a, self.p - 2, self.p)
        r0, r1 = self.modulus, polys.normalize(base, self.expand(a))
        s0, s1 = [], [base.one]
        while polys.degree(r1) > 0:
            q, r = polys.divmod_poly(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polys.sub(base, s0, polys.mul(base, q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
        return self._join(polys.scale(base, s1, base.inv(r1[0])))

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

    It takes over the _FiniteKernel that its search ran on, so it has that
    kernel's codes and constants, and ``coords[c]`` (also
    ``expand(c)``) holds the base-field codes of the coordinates of c.

    With n1 = q - 1 and g the primitive element, ``exp[e]`` is the code of
    g^e for 0 <= e < 2*n1 (the powers twice over, so a sum of two logs needs
    no modulo), followed by zeros up to index 4*n1; ``log[0]`` is 2*n1, so a
    product with zero lands among those zeros without a test.  ``neg_log``
    is the log of -1.
    """

    __slots__ = ("n1", "exp", "log", "neg_log", "coords", "expand")

    def __init__(self, free, exp, log, neg_log, add, coords):
        for slot in _FiniteKernel.__slots__:
            setattr(self, slot, getattr(free, slot))
        self.index = self
        self.n1 = self.q - 1
        self.exp = exp
        self.log = log
        self.neg_log = neg_log
        self.add = add
        self.coords = coords
        self.expand = coords.__getitem__

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
    """The kernel of field, or None for a quotient with a zero divisor: the one
    place that decides whether a modulus is irreducible.

    Q gets a _QKernel.  Q[x]/(f) gets a _RationalKernel when f is
    irreducible: of degree >= 4, certified when f's monic integer form
    (``polys.monic_integer_form``) is irreducible mod some prime below 50,
    since a factorization over Q reduces mod every prime; else, and below
    degree 4, where a failed certificate costs more than the exact test, by
    ``polys.is_irreducible_rationals``.  A finite field of order above
    _KERNEL_LIMIT gets a _FiniteKernel, its modulus checked by
    ``polys.is_irreducible_gcd``.

    A finite field of order <= _KERNEL_LIMIT gets a _Kernel.  x -> x*g is
    linear over GF(p), so for a candidate g the images of the codes p^i
    under it, one multiplication each, give the code of every product by g
    (``_linear_table``).  g is a zero divisor when that table holds 0 twice,
    and primitive when its powers, walked through it, first return to 1
    after q - 1 steps.  The candidates run in code order over every code
    outside the base, so the search decides irreducibility: a finite ring is
    a field iff it has no zero divisor, and a finite field's unit group is
    cyclic (Lidl-Niederreiter, *Finite Fields*).
    """
    if isinstance(field, Rationals):
        return _QKernel(field)
    if field.characteristic == 0:
        if field.degree >= 4:
            f = polys.monic_integer_form(field.modulus)
            if any(polys.is_irreducible_gcd(build_base_field(p)._kern, [c % p for c in f])
                   for p in filter(_is_prime, range(50))):
                return _RationalKernel(field)
        return _RationalKernel(field) if polys.is_irreducible_rationals(field.modulus) else None
    q, free = field.order, _FiniteKernel(field)
    if q > _KERNEL_LIMIT:
        return free if free.base is None or polys.is_irreducible_gcd(free.base, free.modulus) else None
    p, n1 = field.characteristic, q - 1
    # the codes below the base order are the base field: units, and a proper
    # subfield when the degree is above 1, so none of them is primitive
    for g in range(free.bq if free.m > 1 else min(2, n1), q):
        # times_g[c] is the code of (element c) * g
        times_g = _linear_table(p, free.add, [free.mul(u, g) for u in free.units])
        if times_g.count(0) > 1:
            return None
        powers = [1]
        x = times_g[1]
        while x != 1 and len(powers) < n1:
            powers.append(x)
            x = times_g[x]
        if x == 1 and len(powers) == n1:
            break
    else:  # every nonzero element a unit, yet none of order q - 1: no finite ring is such
        raise InternalInvariantError(f"{field} has neither a zero divisor nor a primitive element")
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
    coords = [digits[::-1] for digits in itertools.product(range(free.bq), repeat=free.m)]
    return _Kernel(free, exp, log, neg_log, add, coords)


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
    ``inv``, ``add``, ``scale`` and ``sub_scaled`` work on codes and rows of
    codes, skipping zero entries, ``basis`` holds the codes of the power
    basis 1, x, ..., x^(m-1), and ``fraction_code`` (also ``int_code``)
    codes a rational number.  ``expand`` gives the Q-codes of a code's
    coordinates, n_i/d as (n_i/g, d/g) with g = gcd(n_i, d), and
    ``embed_row`` turns Q-codes (n, d) into the codes (n, 0, ..., 0, d) of
    their embeddings.  ``index[p]`` (the kernel itself) is the code of the
    payload p, as for a finite field, and ``payload`` goes back.  With D the
    least common denominator of the coefficients c_i of f,
    x^m = sum(r * x^i for i, r in fold) / D, where ``fold`` lists the pairs
    (i, -D*c_i) with c_i != 0 and ``fold_den`` is D.
    """

    __slots__ = ("field", "m", "one", "fold", "fold_den", "index", "zeros", "basis")

    def __init__(self, field):
        self.field = field
        self.m = field.degree if isinstance(field, ExtensionField) else 1
        coeffs = field.modulus[:-1] if isinstance(field, ExtensionField) else ()
        self.one = (1,) + (0,) * (self.m - 1) + (1,)
        den = self.fold_den = lcm(*[c.denominator for c in coeffs])
        self.fold = tuple((i, -c.numerator * (den // c.denominator)) for i, c in enumerate(coeffs) if c)
        self.index = self
        self.zeros = (0,) * self.m
        self.basis = tuple([(0,) * i + (1,) + (0,) * (self.m - 1 - i) + (1,) for i in range(self.m)])

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

    def fraction_code(self, fr):
        """The code of the rational number fr (an int or a Fraction), embedded."""
        n = fr.numerator
        return (n, *self.zeros[1:], fr.denominator) if n else 0

    int_code = fraction_code

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        m, da, db = self.m, a[-1], b[-1]
        return _rational_code([x * db + y * da for x, y in zip(a[:m], b[:m])], da * db)

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

    scale = _FiniteKernel.scale  # a * row, by one mul per entry

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


def build_base_field(characteristic: int, base_degree: int = 1, base_modulus=None, symbol: str = "u") -> Field:
    """The base field k described as in a tower block: Q, GF(p), or GF(p^a) = GF(p)[u]/(base_modulus).

    ``PrimeField`` checks that p is prime and ``ExtensionField`` checks the
    base modulus, whose integer coefficients are read mod p.
    """
    if characteristic == 0:
        if base_degree != 1:
            raise BadBase("characteristic 0 forces base_degree 1")
        if base_modulus is not None:
            raise BadBase("characteristic 0 takes no base modulus")
        return Rationals()
    prime = PrimeField(characteristic)
    if base_degree < 1:
        raise BadBase("base_degree must be >= 1")
    if (base_modulus is None) == (base_degree > 1):
        raise BadBase("base_modulus is required exactly when base_degree > 1")
    if base_degree == 1:
        return prime
    coeffs = [c % prime.p for c in base_modulus]  # the payloads of GF(p) are its ints mod p
    if len(coeffs) - 1 != base_degree:
        raise BadModulus(f"base modulus has degree {len(coeffs) - 1}, base_degree is {base_degree}")
    return ExtensionField(prime, coeffs, symbol=symbol)


class _TowerMemo:
    """Everything a tower derives, kept for the tower's lifetime.

    The dicts start empty and the two lazy values unset (None); each is
    filled by the one function named beside it.  The tower's pickle leaves
    the memo out, so a loaded copy starts with an empty one.  The tests'
    literal ``ranksupport.closure_oracle`` keeps no W_L here.
    """

    __slots__ = ("traces", "frobenius", "subspace_codes", "closure_maxwt", "closure_sums", "codes")

    def __init__(self):
        self.traces = None  # ExtensionTower._trace_codes: the k-codes of Tr(w^i)
        # ExtensionTower._frobenius: σ(x) = x^|k| on L-codes, square-and-multiply per code;
        # checked when it is made
        self.frobenius = None
        # weights._subspace_codes: (|F|, n, r) -> the canonical codes of the r-dim subspaces of F^n,
        # for F = k (weight_Mr's W) or L (_subcodes's coefficients), kept while the list has
        # fewer than _SUPERSPACE_LIMIT entries
        self.subspace_codes = {}
        # weights.weight_Dr: (n, codes of a closure W_L) -> maxwt(W_L), one entry per W ⊆ k^n at most
        self.closure_maxwt = {}
        # verify.check_closure_pair: (n, codes of C*, codes of C'*) -> C* + C'*, one entry per pair of closures
        self.closure_sums = {}
        # ranksupport.LinearCode: (n, codes) -> the one LinearCode, held weakly: at most the live codes
        self.codes = {}


class ExtensionTower:
    """A finite extension L = k[x]/(f), held as L alone, with its power basis and coordinate map.

    ``k`` and ``degree`` are L's base and degree, kept as attributes because
    hot loops read them.
    """

    __slots__ = ("k", "L", "degree", "_memo")

    def __init__(self, L: ExtensionField):
        self.k = L.base
        self.L = L
        self.degree = L.degree
        self._memo = _TowerMemo()

    def __reduce__(self):
        # a copy is rebuilt from L, so it starts with an empty memo
        return ExtensionTower, (self.L,)

    @property
    def basis(self) -> tuple:
        """The power basis 1, w, ..., w^(m-1): the unit coordinate vectors, L's kernel's ``basis``."""
        return tuple([_element(self.L, c) for c in self.L._kern.basis])

    def generator(self) -> FieldElement:
        """The class w of x (equal to -c0 when the extension has degree 1)."""
        return self.L.generator()

    def coords(self, x: FieldElement) -> list:
        """Coordinates of x over k in the power basis; sum(coords[i]*basis[i]) == x."""
        return [_element(self.k, c) for c in self.L._kern.expand(_code_in(self.L, x))]

    def embed(self, c: FieldElement) -> FieldElement:
        """Embed an element of k into L as (c, 0, ..., 0)."""
        return _element(self.L, self.L._kern.embed_row((_code_in(self.k, c),))[0])

    def trace(self, x: FieldElement) -> FieldElement:
        """Field trace L -> k, by linearity on codes (``_code_trace``)."""
        return _element(self.k, self._code_trace(_code_in(self.L, x)))

    def _code_trace(self, c):
        """Tr(c) for a code c of L's kernel, as a code of k's, by linearity: sum_i c_i * Tr(w^i).

        The c_i are the k-codes of c's coordinates (``expand``), multiplied
        and added in k's kernel, so no table of size |L| is built; every
        tower, Q(θ) included, takes this one sum.
        """
        traces = self._memo.traces or self._trace_codes()
        kk = self.k._kern
        acc = 0
        for x, tr in zip(self.L._kern.expand(c), traces):
            if x and tr:
                acc = kk.add(acc, kk.mul(x, tr))
        return acc

    def _trace_codes(self) -> tuple:
        """What ``_code_trace`` reads, computed on codes once per tower: the k-codes
        of Tr(w^i), the traces sum_j (w^(i+j))_j of the multiplication-by-w^i
        matrices."""
        memo = self._memo
        if memo.traces is None:
            kern, add, m = self.L._kern, self.k._kern.add, self.degree
            powers = list(kern.basis)
            while len(powers) < 2 * m - 1:  # m >= 2 here, so powers[1] is w
                powers.append(kern.mul(powers[-1], powers[1]))
            memo.traces = tuple(
                functools.reduce(add, [kern.expand(powers[i + j])[j] for j in range(m)], 0) for i in range(m)
            )
        return memo.traces

    def _frobenius(self):
        """σ: x -> x^|k| on codes of L's kernel, the generator of Gal(L/k) over a finite k.

        Made once per tower (``_frobenius_map``), as square-and-multiply per
        code (``_power``) for every finite tower, and checked when it is made:
        σ must fix every code of k (over a finite L, the codes below |k|)
        and have order exactly m on the generator w, else
        InternalInvariantError.  Over an infinite k there is no Frobenius.
        """
        memo = self._memo
        if memo.frobenius is None:
            q = self.k.order
            if q is None:
                raise InfiniteField(f"{self.k} is infinite: the tower has no Frobenius")
            sigma = _frobenius_map(self.L._kern, q)
            if any(sigma(c) != c for c in range(q)):
                raise InternalInvariantError("Frobenius moves an element of k")
            w, m = self.generator().code, self.degree
            x, order = sigma(w), 1
            while x != w and order < m:
                x, order = sigma(x), order + 1
            if x != w or order != m:
                raise InternalInvariantError("Frobenius does not have order m on the generator")
            memo.frobenius = sigma
        return memo.frobenius

    def __eq__(self, other):
        if not isinstance(other, ExtensionTower):
            return NotImplemented
        return self.L == other.L

    def __hash__(self):
        return hash(("tower", self.L))

    def __repr__(self):
        return f"{self.L}/{self.k}"


def _frobenius_map(kern, q: int):
    """x -> x^q on the codes of a finite field's kernel, as a function of one
    code: ``_power`` per code."""
    return functools.partial(_power, kern, e=q)


def make_tower(k: Field, modulus, symbol: str = "w") -> ExtensionTower:
    """The one tower constructor: L = k[x]/(f), f checked by ``ExtensionField``.

    ``k`` is a base field as ``build_base_field`` builds it: Q, GF(p), or
    GF(p^a) over GF(p).  ``modulus`` lists f's coefficients over k, low to
    high: ints, Fractions or elements of k; trailing zeros are dropped.
    """
    prime_extension = isinstance(k, ExtensionField) and isinstance(k.base, PrimeField)
    if not (prime_extension or isinstance(k, (Rationals, PrimeField))):
        raise BadBase(f"expected a base field: Q, GF(p) or GF(p^a) over GF(p), got {k!r}")
    coeffs = []  # codes of k's kernel
    for c in modulus:
        code = _code_of(k, c)
        if code is None:
            raise BadModulus("modulus coefficient from a foreign field" if isinstance(c, FieldElement)
                             else f"cannot interpret modulus coefficient {c!r}")
        coeffs.append(code)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return ExtensionTower(ExtensionField(k, list(map(k._kern.payload, coeffs)), symbol=symbol))


def _random_code(tower: ExtensionTower, rng, height: int):
    """A random L-code.  Over a finite L, ``rng.choice`` of the codes, which list
    L's elements in order; over Q(θ), the element with coordinates a/b,
    |a| <= height and 1 <= b <= height, drawing rng.randint for a, then for b,
    coordinate by coordinate, coded over the lcm of the b's with no Fraction
    built.  A seeded generator always yields the same codes."""
    L = tower.L
    if L.order is not None:
        return rng.choice(range(L.order))
    pairs = [(rng.randint(-height, height), rng.randint(1, height)) for _ in range(tower.degree)]
    den = lcm(*[b for _, b in pairs])
    return _rational_code([a * (den // b) for a, b in pairs], den)


def format_element(x: FieldElement) -> str:
    """Canonical string form: '3/2', '2', 'w^2+w+1', '(u+1)*w', '-1/2*w+3'."""
    field = x.field
    if isinstance(field, (Rationals, PrimeField)):
        return str(x.payload)
    base = field.base
    sym = field.symbol
    coords, one = field._kern.expand(x.code), base._kern.one
    terms = []
    for i in range(field.degree - 1, -1, -1):
        c = coords[i]
        if not c:
            continue
        cs = format_element(_element(base, c))
        # a coordinate in the prime subfield renders as a number: over Q always, else a code below p
        plain = not isinstance(base, ExtensionField) or c < base.characteristic
        if i == 0:
            terms.append(cs if plain else f"({cs})")
            continue
        power = sym if i == 1 else f"{sym}^{i}"
        if c == one:
            terms.append(power)
        elif plain:
            terms.append(f"{cs}*{power}")
        else:
            terms.append(f"({cs})*{power}")
    if not terms:
        return "0"
    return "+".join(terms).replace("+-", "-")
