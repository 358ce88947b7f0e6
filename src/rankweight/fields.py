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

``FieldElement`` wraps (field, payload) and overloads the ring operators, so
vectors and matrices elsewhere in the package are ordinary Python sequences
of elements.  Fields compare structurally (same construction data), hence
elements surviving a pickle round-trip still compare equal.  Everything is
immutable after construction; all operations are pure.

``ExtensionTower`` bundles the base field k, the extension L, and the
coordinate map between them; ``make_tower`` is the validated constructor.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import polys
from .errors import (
    BadBase,
    BadModulus,
    FieldMismatch,
    InfiniteField,
    NotIrreducible,
)

_MUL_CACHE_LIMIT = 4096  # cache products/inverses only for small finite fields


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

    def from_fraction(self, value) -> FieldElement:
        return FieldElement(self, Fraction(value))

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

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

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
        small = self.order is not None and self.order <= _MUL_CACHE_LIMIT
        self._mul_cache = {} if small else None
        self._inv_cache = {} if small else None

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

    def _mul(self, a, b):
        cache = self._mul_cache
        if cache is None:
            return self._mul_raw(a, b)
        key = (a, b)
        out = cache.get(key)
        if out is None:
            out = self._mul_raw(a, b)
            cache[key] = out
        return out

    def _inv(self, a):
        if self._is_zero(a):
            raise ZeroDivisionError("0 has no inverse")
        cache = self._inv_cache
        if cache is not None:
            out = cache.get(a)
            if out is not None:
                return out
        out = self._inv_raw(a)
        if cache is not None:
            cache[a] = out
        return out

    def _inv_raw(self, a):
        # extended Euclid in base[x] against the modulus
        base = self.base
        f = polys.normalize(base, [FieldElement(base, c) for c in self.modulus])
        g = polys.normalize(base, [FieldElement(base, c) for c in a])
        r0, r1 = f, g
        s0, s1 = [], [base.one()]
        while polys.degree(r1) > 0:
            q, r = polys.divmod_poly(base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, polys.sub(base, s0, polys.mul(base, q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
        inv_coeffs = polys.scale(base, s1, r1[0].inverse())
        out = [c.payload for c in inv_coeffs]
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
    poly = [FieldElement(prime, c) for c in coeffs]
    if not polys.is_irreducible_bruteforce(prime, poly):
        raise NotIrreducible(f"base modulus is reducible over GF({desc.characteristic})")
    return ExtensionField(prime, coeffs, symbol=symbol)


class ExtensionTower:
    """A finite extension L = k[x]/(f) with its power basis and coordinate map."""

    __slots__ = ("base_descriptor", "k", "L", "degree", "basis")

    def __init__(self, base_descriptor, k, L):
        self.base_descriptor = base_descriptor
        self.k = k
        self.L = L
        self.degree = L.degree
        w = L.generator()
        # power basis 1, w, ..., w^(m-1)
        basis = [L.one()]
        for _ in range(self.degree - 1):
            basis.append(basis[-1] * w)
        self.basis = tuple(basis)

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
        """Field trace L -> k: the trace of the multiplication-by-x matrix."""
        if not (x.field is self.L or x.field == self.L):
            raise FieldMismatch(f"element of {x.field} is not in {self.L}")
        k = self.k
        acc = k._zero
        y = x
        w = self.generator()
        for i in range(self.degree):
            acc = k._add(acc, y.payload[i])
            if i + 1 < self.degree:
                y = y * w
        return FieldElement(k, acc)

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
    poly = [FieldElement(k, c) for c in coeffs]
    if k.order is None:
        if not polys.is_irreducible_rationals([c.payload for c in poly]):
            raise NotIrreducible("extension modulus is reducible over Q")
    else:
        if not polys.is_irreducible_gcd(k, poly):
            raise NotIrreducible(f"extension modulus is reducible over {k}")
    L = ExtensionField(k, tuple(coeffs), symbol=symbol)
    return ExtensionTower(base, k, L)


def is_separable_tower(tower: ExtensionTower) -> bool:
    """True iff gcd(f, f') = 1; always true in characteristic 0 and over finite fields."""
    k = tower.k
    f = [FieldElement(k, c) for c in tower.L.modulus]
    fprime = polys.derivative(k, f)
    return polys.degree(polys.gcd(k, f, fprime)) == 0


def enumerate_elements(tower: ExtensionTower) -> Iterator[FieldElement]:
    """All elements of L, lexicographic on coordinates with coords[0] fastest."""
    if tower.L.order is None:
        raise InfiniteField(f"{tower.L} is infinite")
    return tower.L.elements()


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
