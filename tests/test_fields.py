"""Tower construction, coordinates, trace, enumeration, field axioms, and elements
as (field, code): the payload an element is built from reads back."""

import pickle
import random
import re
from fractions import Fraction

import pytest

from rankweight import polys
from rankweight.errors import AmbientMismatch, BadBase, BadModulus, FieldMismatch, InfiniteField, NotIrreducible
from rankweight.fields import (
    ExtensionField,
    FieldElement,
    PrimeField,
    Rationals,
    _FiniteKernel,
    _Kernel,
    build_base_field,
    format_element,
    make_tower,
)

from helpers import (
    gf8192,
    gf4099_squared,
    is_irreducible_bruteforce,
    monic_polys,
    payloads_in_order,
    q_quarters,
    random_rational_element,
    ref_add,
    ref_inv,
    ref_mul,
)


def gf4():
    return make_tower(PrimeField(2), [1, 1, 1])


def gf8():
    return make_tower(PrimeField(2), [1, 1, 0, 1])


def gf9():
    return make_tower(PrimeField(3), [1, 0, 1])


def qtheta():
    return make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")


def test_make_tower_gf4():
    t = gf4()
    assert t.degree == 2
    assert t.L.order == 4
    assert t.k.order == 2


def test_make_tower_rejects_reducible():
    with pytest.raises(NotIrreducible):
        make_tower(PrimeField(2), [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)


def test_make_tower_qtheta():
    t = qtheta()
    assert t.degree == 3
    assert t.L.order is None
    theta = t.generator()
    assert theta * theta * theta == 2


def test_bad_inputs():
    with pytest.raises(BadBase):
        build_base_field(4)
    with pytest.raises(BadBase):
        build_base_field(0, base_degree=2)
    with pytest.raises(BadBase):
        build_base_field(2, base_degree=2)  # missing base modulus
    with pytest.raises(BadBase):
        build_base_field(2, base_degree=1, base_modulus=(1, 1))
    with pytest.raises(BadModulus):
        make_tower(PrimeField(2), [1])  # degree 0
    with pytest.raises(BadModulus):
        make_tower(Rationals(), [Fraction(1), Fraction(2)])  # non-monic


def test_each_caller_of_code_of_keeps_its_error():
    """Elements, ints and (in characteristic 0) Fractions become codes through
    fields._code_of; each caller names what it refuses in its own words."""
    t, q = gf4(), qtheta()
    w, u = t.generator(), gf8().generator()
    assert w + 1 == w + t.L.one() and w * 3 == w  # an int n is n * 1
    assert q.generator() + Fraction(1, 2) == q.generator() + q.L.one() / 2
    with pytest.raises(FieldMismatch, match=re.escape("cannot mix elements of GF(4) and GF(8)")):
        w + u
    for other in ("1", Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            w * other
    assert make_tower(Rationals(), [-2, 0, Fraction(0), q.k.one()]).L == q.L
    with pytest.raises(BadModulus, match=re.escape("modulus coefficient from a foreign field")):
        make_tower(PrimeField(2), [w, 1, 1])
    for bad in ("x", Fraction(1, 2), 1.0):
        with pytest.raises(BadModulus, match=re.escape(f"cannot interpret modulus coefficient {bad!r}")):
            make_tower(PrimeField(2), [1, bad, 1])


def test_an_element_equals_the_fraction_that_arithmetic_accepts():
    """== takes what arithmetic takes: a Fraction is coded in characteristic 0,
    and over GF(p), where arithmetic refuses it, it equals no element."""
    q = qtheta()
    half = Fraction(1, 2)
    for one in (Rationals().one(), q.k.one(), q.L.one()):
        assert one / 2 - half == 0
        assert one / 2 == half and half == one / 2 and not one / 2 != half
        assert one / 3 != half and one == Fraction(1) and one.field.from_int(-3) == Fraction(-3)
    assert q.generator() != half
    for one in (PrimeField(3).one(), gf4().L.one()):
        assert one != Fraction(1) and Fraction(1) != one and not one == Fraction(1)
        with pytest.raises(TypeError):
            one - Fraction(1)


def test_a_prime_field_element_hashes_as_the_number_it_equals():
    """A set or dict finds an element of the prime field by the int or
    Fraction it equals, and that number by the element."""
    q, gf3 = qtheta(), PrimeField(3)
    cases = [
        (Rationals().one(), 1), (Rationals().one() / 2, Fraction(1, 2)), (Rationals().zero(), 0),
        (q.L.one(), 1), (q.L.one() / -3, Fraction(-1, 3)), (q.L.zero(), 0),
        (gf3.one(), 1), (gf3.from_int(2), 2), (gf4().L.one(), 1), (gf4().L.zero(), 0),
    ]
    for x, number in cases:
        assert x == number and hash(x) == hash(number)
        assert number in {x} and x in {number}
    for x in (q.generator(), gf4().generator(), gf9().generator()):
        assert hash(x) == hash((x.field, x.code))
    # the one case no hash can match: every int that is 1 mod 3 equals GF(3)'s one
    assert gf3.one() == 4 and 4 not in {gf3.one()}


# (build, the error as "Type: message"); the order of the checks is pinned by
# inputs that break more than one: the first check that fails names the error
CONSTRUCTION_ERRORS = [
    (lambda: build_base_field(4, 2), "BadBase: characteristic 4 is not prime"),  # and no base modulus
    (lambda: build_base_field(1), "BadBase: characteristic 1 is not prime"),
    (lambda: build_base_field(0, 2, (1, 1, 1)), "BadBase: characteristic 0 forces base_degree 1"),
    (lambda: build_base_field(0, 1, (1, 1)), "BadBase: characteristic 0 takes no base modulus"),
    (lambda: build_base_field(2, 0, (1, 1)), "BadBase: base_degree must be >= 1"),  # and a modulus
    (lambda: build_base_field(2, 2), "BadBase: base_modulus is required exactly when base_degree > 1"),
    (lambda: build_base_field(2, 1, (1, 1)), "BadBase: base_modulus is required exactly when base_degree > 1"),
    (lambda: build_base_field(2, 2, (1, 1, 0)),
     "BadModulus: modulus of u must be monic of degree >= 1"),
    (lambda: build_base_field(2, 2, (1, 1, 0, 1)),
     "BadModulus: base modulus has degree 3, base_degree is 2"),
    (lambda: build_base_field(3, 2, (1, 0, 0, 2)),  # wrong degree and not monic
     "BadModulus: base modulus has degree 3, base_degree is 2"),
    (lambda: build_base_field(3, 2, (2, 0, 2)),  # not monic and reducible
     "BadModulus: modulus of u must be monic of degree >= 1"),
    (lambda: build_base_field(2, 2, (1, 0, 1)),
     "NotIrreducible: modulus of u is reducible over GF(2)"),
    (lambda: make_tower(PrimeField(2), [1, 0]), "BadModulus: modulus of w must be monic of degree >= 1"),
    (lambda: make_tower(Rationals(), [Fraction(1), Fraction(2)]),
     "BadModulus: modulus of w must be monic of degree >= 1"),
    (lambda: make_tower(Rationals(), [0, 0, 2]), "BadModulus: modulus of w must be monic of degree >= 1"),  # and reducible
    (lambda: make_tower(PrimeField(2), [1, 0, 1]), "NotIrreducible: modulus of w is reducible over GF(2)"),
    (lambda: make_tower(Rationals(), [-1, 0, 1]), "NotIrreducible: modulus of w is reducible over Q"),
    (lambda: make_tower(build_base_field(2, 2, (1, 1, 1)), [0, 1, 1]),
     "NotIrreducible: modulus of w is reducible over GF(4)"),
    (lambda: make_tower(3, [1, 1]), "BadBase: expected a base field: Q, GF(p) or GF(p^a) over GF(p), got 3"),
]


@pytest.mark.parametrize("build, error", CONSTRUCTION_ERRORS)
def test_construction_errors_keep_their_order_and_text(build, error):
    with pytest.raises((BadBase, BadModulus, NotIrreducible)) as caught:
        build()
    assert f"{type(caught.value).__name__}: {caught.value}" == error


def test_make_tower_takes_a_built_base_field():
    """A base field already built serves as k as it is, so both floors are
    checked once; only Q, GF(p) and GF(p^a) over GF(p) are base fields."""
    gf4_base = build_base_field(2, 2, (1, 1, 1))
    for k, modulus, expected in [
        (Rationals(), [-2, 0, 0, 1], qtheta()),
        (PrimeField(2), [1, 1, 0, 1], gf8()),
        (gf4_base, [gf4_base.generator(), 1, 1], gf16_over_gf4()),
    ]:
        t = make_tower(k, modulus, symbol=expected.L.symbol)
        assert t == expected and t.k is k
    for k in (qtheta().L, gf16_over_gf4().L, 2, (2,)):
        with pytest.raises(BadBase, match=re.escape(f"expected a base field: Q, GF(p) or GF(p^a) over GF(p), got {k!r}")):
            make_tower(k, [1, 1])


def test_element_doors_refuse_non_elements():
    """trace, coords, embed and linalg.Matrix refuse what is not an element of
    their field, an int included, with FieldMismatch, the error they give an
    element of another field."""
    from rankweight.linalg import Matrix

    t, u = gf4(), gf8().generator()
    for bad in (3, None, u):
        for door in (t.trace, t.coords, t.embed):
            with pytest.raises(FieldMismatch):
                door(bad)
        with pytest.raises(FieldMismatch, match=re.escape("a row entry is not an element of GF(4)")):
            Matrix(t.L, [[bad]])
    with pytest.raises(FieldMismatch, match=re.escape("3 is not an element of GF(4)")):
        t.trace(3)


ELEMENT_DOORS = ("trace", "coords", "embed")


def _row_doors(t):
    """Each door that takes rows over GF(4)/GF(2), as a call on one row meant for L^2."""
    from rankweight.linalg import Matrix, Subspace, contains, kernel, rref_canonical
    from rankweight.ranksupport import LinearCode, rank_support_vec
    from rankweight.weights import verify_witness

    C = LinearCode.from_generators(t, 2, [[t.L.one(), t.generator()]])
    return {
        "Subspace.from_vectors": lambda v: Subspace.from_vectors(t.L, 2, [v]),
        "rref_canonical": lambda v: rref_canonical(Matrix(t.L, [v], 2)),
        "Matrix": lambda v: Matrix(t.L, [v], 2),
        "kernel": lambda v: kernel(Matrix(t.L, [v], 2)),
        "contains": lambda v: contains(Subspace.full(t.L, 2), v),
        "LinearCode.from_generators": lambda v: LinearCode.from_generators(t, 2, [v]),
        "rank_support_vec": lambda v: rank_support_vec(t, v),  # any length is the vector's own
        "verify_witness": lambda v: verify_witness(C, v),
    }


@pytest.mark.parametrize("door", [*_row_doors(gf4()), *ELEMENT_DOORS])
def test_every_door_refuses_a_foreign_entry_and_a_wrong_length_alike(door):
    """A GF(8) element or an int raises FieldMismatch, and a row one entry too
    long AmbientMismatch, whichever door takes it."""
    t = gf4()
    if door in ELEMENT_DOORS:
        call = getattr(t, door)
        call(t.k.one() if door == "embed" else t.generator())
        for bad in (gf8().generator(), 1):
            with pytest.raises(FieldMismatch):
                call(bad)
        return
    call, one = _row_doors(t)[door], t.L.one()
    call([one, t.generator()])
    for bad in (gf8().generator(), 1):
        with pytest.raises(FieldMismatch):
            call([one, bad])
    if door != "rank_support_vec":
        with pytest.raises(AmbientMismatch):
            call([one, one, one])


def test_coords_gf4():
    t = gf4()
    w = t.generator()
    wsq = w * w
    assert [c.payload for c in t.coords(wsq)] == [1, 1]  # w^2 = w + 1
    assert [c.payload for c in t.coords(t.L.zero())] == [0, 0]


def test_coords_qtheta_basis_element():
    t = qtheta()
    theta = t.generator()
    assert [c.payload for c in t.coords(theta * theta)] == [0, 0, 1]


def test_coords_roundtrip():
    for t in (gf4(), gf8(), gf9()):
        for x in t.L.elements():
            assert sum((t.embed(c) * b for c, b in zip(t.coords(x), t.basis)), t.L.zero()) == x


def test_trace_values():
    assert gf4().trace(gf4().generator()).payload == 1
    assert gf8().trace(gf8().generator()).payload == 0
    t = qtheta()
    theta = t.generator()
    assert t.trace(theta).payload == 0
    assert t.trace(t.L.one()).payload == 3
    assert t.trace(theta * theta * theta).payload == 6


def multiplication_trace(t, x):
    """Tr(x) as the trace of multiplication by x, in element arithmetic:
    sum_i coords(x * w^i)_i."""
    return sum((t.coords(x * b)[i] for i, b in enumerate(t.basis)), t.k.zero())


@pytest.mark.parametrize("make", [
    qtheta,
    lambda: make_tower(Rationals(), [1, -3, 0, 1]),  # a cyclic cubic
    q_quarters,  # fold_den 4
    lambda: gf16_over_gf4(),  # defined below
    gf8192,  # no exp/log tables
], ids=["t^3-2", "x^3-3x+1", "q_quarters", "GF(16)/GF(4)", "GF(2^13)"])
def test_the_one_trace_is_the_trace_of_multiplication(make):
    t = make()
    rng = random.Random(37)
    for x in [t.L.zero(), t.L.one(), t.generator()] + [random_rational_element(t, rng, 9) for _ in range(40)]:
        assert t.trace(x) == multiplication_trace(t, x)


def test_a_payload_outside_the_field_is_refused():
    k4 = build_base_field(2, base_degree=2, base_modulus=(1, 1, 1))
    cases = [
        (PrimeField(5), 7, "payload 7 is not in GF(5)"),
        (k4, (1,), "payload (1,) is not in GF(4)"),
        (k4, (1, 0, 1), "payload (1, 0, 1) is not in GF(4)"),
        (qtheta().L, (Fraction(1), Fraction(2)), "payload of length 2 in Q(t)"),
    ]
    for field, payload, message in cases:
        with pytest.raises(FieldMismatch, match=re.escape(message)):
            FieldElement(field, payload)

def test_trace_is_k_linear_and_scales_constants():
    rng = random.Random(7)
    for t in (gf4(), gf8(), gf9()):
        elems = list(t.L.elements())
        kelems = list(t.k.elements())
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems)
            a, b = rng.choice(kelems), rng.choice(kelems)
            lhs = t.trace(t.embed(a) * x + t.embed(b) * y)
            assert lhs == a * t.trace(x) + b * t.trace(y)
        for c in kelems:
            assert t.trace(t.embed(c)) == c * t.degree


def test_coords_k_linear():
    rng = random.Random(11)
    for t in (gf4(), gf8(), gf9()):
        elems = list(t.L.elements())
        kelems = list(t.k.elements())
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems)
            a, b = rng.choice(kelems), rng.choice(kelems)
            lhs = t.coords(t.embed(a) * x + t.embed(b) * y)
            rhs = [a * cx + b * cy for cx, cy in zip(t.coords(x), t.coords(y))]
            assert lhs == rhs


def test_no_field_is_a_quotient_by_a_reducible_modulus():
    """Every ExtensionField checks its own modulus, so no quotient that is not
    a field exists to serve as k or L: not GF(2)[x]/((x+1)^2), nor the
    GF(2)[x]/(x^2) whose f' = 0 would make a tower inseparable."""
    for modulus in ((1, 0, 1), (0, 0, 1)):
        with pytest.raises(NotIrreducible, match=re.escape("modulus of w is reducible over GF(2)")):
            ExtensionField(PrimeField(2), modulus)
    with pytest.raises(NotIrreducible, match=re.escape("modulus of s is reducible over Q")):
        ExtensionField(Rationals(), (Fraction(-1), 0, 1), symbol="s")
    with pytest.raises(BadModulus, match=re.escape("modulus of w must be monic of degree >= 1")):
        ExtensionField(PrimeField(2), (1,))
    assert any(gf8().trace(x) for x in gf8().L.elements())


def test_enumeration_order_and_counts():
    t = gf4()
    names = [format_element(x) for x in t.L.elements()]
    assert names == ["0", "1", "w", "w+1"]
    assert len(list(gf8().L.elements())) == 8
    assert len(list(gf9().L.elements())) == 9
    with pytest.raises(InfiniteField):
        list(qtheta().L.elements())


def test_enumeration_is_deterministic_and_exhaustive():
    for t in (gf4(), gf8(), gf9()):
        first = [x.payload for x in t.L.elements()]
        second = [x.payload for x in t.L.elements()]
        assert first == second
        assert len(set(first)) == t.L.order


def _random_element(rng, t, elems, height=9):
    if elems is not None:
        return rng.choice(elems)
    return random_rational_element(t, rng, height)


def test_field_axioms_random_triples():
    rng = random.Random(2024)
    towers = [gf4(), gf8(), gf9(), qtheta(), gf16_over_gf4()]
    for t in towers:
        elems = list(t.L.elements()) if t.L.order is not None else None
        one = t.L.one()
        for _ in range(10000):
            x = _random_element(rng, t, elems)
            y = _random_element(rng, t, elems)
            z = _random_element(rng, t, elems)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
            if x:
                assert x * x.inverse() == one
        assert one * one == one


def gf16_over_gf4():
    # base GF(4) = GF(2)[u]/(u^2+u+1); extension x^2 + x + u over GF(4)
    k = build_base_field(2, base_degree=2, base_modulus=(1, 1, 1))
    return make_tower(k, [k.generator(), k.one(), k.one()])


def test_nested_base_field():
    t = gf16_over_gf4()
    assert t.L.order == 16
    assert t.k.order == 4
    assert t.degree == 2
    elems = list(t.L.elements())
    assert len(set(e.payload for e in elems)) == 16
    # trace of L/k maps into k and is nonzero somewhere (separable)
    traces = {t.trace(e).payload for e in elems}
    assert len(traces) > 1


def test_nested_base_rejects_reducible_base_modulus():
    with pytest.raises(NotIrreducible):
        build_base_field(2, base_degree=2, base_modulus=(1, 0, 1))


def test_trace_form_nondegenerate_on_separable_towers():
    # Gram matrix G[i][j] = Tr(basis_i * basis_j) must have full rank m
    from rankweight.linalg import Matrix, rref_canonical

    for t in (gf4(), gf8(), gf9(), qtheta(), gf16_over_gf4()):
        gram = [
            [t.trace(bi * bj) for bj in t.basis]
            for bi in t.basis
        ]
        assert rref_canonical(Matrix(t.k, gram, t.degree)).dim == t.degree


def test_irreducibility_methods_agree(monkeypatch):
    # polys works on lists of kernel codes; GF(4) is the base of GF(16)/GF(4).
    # The counts are the monic irreducibles, (1/n) * sum_{d | n} mu(d) q^(n/d).
    # Up to 4096 elements ExtensionField's check is its kernel's primitive-element
    # search, which must agree with both and never consult the gcd test.
    gcd_test = polys.is_irreducible_gcd

    def not_here(k, p):
        raise AssertionError("the gcd test ran on a quotient of at most 4096 elements")

    monkeypatch.setattr(polys, "is_irreducible_gcd", not_here)
    census = {
        "GF(2)": (PrimeField(2), {1: 2, 2: 1, 3: 2, 4: 3}),
        "GF(3)": (PrimeField(3), {1: 3, 2: 3, 3: 8, 4: 18}),
        "GF(4)": (gf16_over_gf4().k, {1: 4, 2: 6, 3: 20}),
    }
    for name, (k, expected) in census.items():
        kern = k._kern
        for deg, count in expected.items():
            irreducible = 0
            for poly in monic_polys(kern, deg):
                verdict = gcd_test(kern, poly)
                assert verdict == is_irreducible_bruteforce(kern, poly), (name, poly)
                try:
                    L = ExtensionField(k, [kern.payload(c) for c in poly])
                except NotIrreducible:
                    assert not verdict, (name, poly)
                else:
                    assert verdict and type(L._kern) is _Kernel, (name, poly)
                irreducible += verdict
            assert irreducible == count, (name, deg)


def test_reducible_moduli_of_the_table_limit_are_refused():
    """At 4096 elements the search walks every unit below the first zero divisor."""
    kern = PrimeField(2)._kern
    f, g = [1, 1, 0, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0, 1]  # x^6+x+1 and x^6+x^3+1, both irreducible
    for modulus in (polys.mul(kern, f, g), polys.mul(kern, f, f)):
        assert len(modulus) == 13 and not polys.is_irreducible_gcd(kern, modulus)
        with pytest.raises(NotIrreducible, match="modulus of w is reducible over GF\\(2\\)"):
            ExtensionField(PrimeField(2), modulus)


def test_inverse_by_euclid_in_table_free_kernels():
    # the table-free kernel inverts by extended Euclid in polys, on base codes
    gf8192 = make_tower(PrimeField(2), [1, 1, 0, 1, 1] + [0] * 8 + [1]).L
    gf4099_squared = make_tower(PrimeField(4099), [1, 0, 1]).L
    rng = random.Random(13)
    for field, draw in (
        (gf8192, lambda: tuple(rng.randrange(2) for _ in range(13))),
        (gf4099_squared, lambda: (rng.randrange(4099), rng.randrange(4099))),
    ):
        kern = field._kern
        assert type(kern) is _FiniteKernel
        for _ in range(25):
            x = FieldElement(field, draw())
            if not x:
                continue
            inv = kern.inv(x.code)
            assert kern.payload(inv) == ref_inv(field, x.payload)
            assert ref_mul(field, x.payload, kern.payload(inv)) == field._one
            assert x * x.inverse() == field.one()
            assert kern.mul(x.code, inv) == kern.one
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            kern.inv(0)  # the guard of extended Euclid, reached in a field by 0 alone


def test_extensions_of_extensions_of_q_are_refused():
    # make_tower never builds one: an extension of Q takes Q itself as its base
    qt = qtheta().L
    t = qt.generator()
    with pytest.raises(BadBase):
        ExtensionField(qt, ((-t).payload, qt._zero, qt._one), symbol="y")


def test_rational_irreducibility_known_cases():
    def irr(coeffs):
        return polys.is_irreducible_rationals([Fraction(c) for c in coeffs])

    assert irr([-2, 0, 0, 1])  # x^3 - 2
    assert not irr([-1, 0, 1])  # x^2 - 1
    assert irr([1, 0, 0, 0, 1])  # x^4 + 1
    assert not irr([4, 0, 0, 0, 1])  # x^4 + 4 = (x^2+2x+2)(x^2-2x+2)
    assert irr([1, 0, -10, 0, 1])  # minimal polynomial of sqrt(2)+sqrt(3)
    assert not irr([0, 1, 1])  # x^2 + x
    assert irr([Fraction(1, 2), Fraction(1), Fraction(1)])  # x^2 + x + 1/2
    # a rational root refuses each of these: the degree-1 factors of the search
    assert not irr([Fraction(-1, 4), 0, 1])  # x^2 - 1/4
    assert not irr([-8, 0, 0, 1])  # x^3 - 8
    assert not irr([Fraction(-1, 2), 1, Fraction(-1, 2), 1])  # (x - 1/2)(x^2 + 1)
    assert not irr([-3, 1, 0, 0, -3, 1])  # (x - 3)(x^4 + 1)
    assert irr([1, 1, 0, 1])  # x^3 + x + 1, no rational root
    assert irr([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1, no rational root and no quadratic factor


def test_q_moduli_of_degree_four_and_up_are_certified_mod_small_primes(monkeypatch):
    """From degree 4, a modulus over Q irreducible mod some prime below 50 is
    irreducible over Q, with no factor search: x^6 - 31 and x^6 - 101 (mod 7)
    and x^6 - 1001 (mod 19) took the search seconds to minutes.  x^4 + 1 is
    reducible mod every prime, so it and the reducible x^4 + 4 fall through to
    the exact search; below degree 4 the certificate is never tried."""
    search = polys.is_irreducible_rationals
    searched = []

    def counted(coeffs):
        searched.append(len(coeffs) - 1)
        return search(coeffs)

    monkeypatch.setattr(polys, "is_irreducible_rationals", counted)
    Q = build_base_field(0)
    for c in (-31, -101, -1001):
        assert make_tower(Q, [c, 0, 0, 0, 0, 0, 1]).degree == 6
    assert make_tower(Q, [Fraction(-1, 3)] + [0] * 4 + [1]).degree == 5
    assert searched == []
    assert make_tower(Q, [1, 0, 0, 0, 1]).degree == 4
    with pytest.raises(NotIrreducible, match="modulus of w is reducible over Q"):
        make_tower(Q, [4, 0, 0, 0, 1])  # (x^2+2x+2)(x^2-2x+2)
    assert polys.monic_integer_form([Fraction(1, 2), Fraction(0), Fraction(1)]) == [2, 0, 1]
    assert searched == [4, 4]

    def not_here(k, p):
        raise AssertionError("a certificate was tried below degree 4")

    monkeypatch.setattr(polys, "is_irreducible_gcd", not_here)
    assert [make_tower(Q, f).degree for f in ([-2, 0, 0, 1], [1, 1, 1], [Fraction(1, 2), 1])] == [3, 2, 1]
    with pytest.raises(NotIrreducible):
        make_tower(Q, [-1, 0, 1])
    assert searched == [4, 4, 3, 2, 1, 2]


def test_format_parse_symbols():
    t = qtheta()
    theta = t.generator()
    x = theta * theta - Fraction(3, 2)
    assert format_element(x) == "t^2-3/2"
    assert format_element(t.L.zero()) == "0"
    u = gf16_over_gf4()
    g = u.generator()
    b = u.embed(u.k.generator())
    assert format_element(b * g + u.L.one()) == "(u)*w+1"


def test_element_hash_and_pickle_equality():
    import pickle

    t = gf8()
    w = t.generator()
    x = w * w + 1
    y = pickle.loads(pickle.dumps(x))
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_degree_one_tower():
    t = make_tower(PrimeField(2), [1, 1])  # L = GF(2)[x]/(x+1) = GF(2)
    assert t.degree == 1
    assert t.L.order == 2
    w = t.generator()
    assert w == t.L.one()  # class of x is -1 = 1
    assert t.trace(w).payload == 1


# ---------------------------------------------------------------------------
# an element is (field, code): the payload it is built from reads back, and
# equal fields built apart share codes
# ---------------------------------------------------------------------------


def _boundary_fields():
    """(name, builder of a fresh field, payload sample or None for every payload) for every kind of field."""

    def fresh(char, modulus):
        return lambda: make_tower(PrimeField(char), modulus).L

    exhaustive = [
        ("GF(2)", lambda: PrimeField(2)), ("GF(3)", lambda: PrimeField(3)), ("GF(4)", lambda: gf4().L),
        ("GF(8)", lambda: gf8().L), ("GF(9)", lambda: gf9().L), ("GF(25)", fresh(5, [3, 0, 1])),
        ("GF(27)", fresh(3, [1, 2, 0, 1])), ("GF(16)/GF(2)", fresh(2, [1, 1, 0, 0, 1])),
        ("GF(16)/GF(4)", lambda: gf16_over_gf4().L),
    ]
    rng = random.Random(17)
    return [(name, make, None) for name, make in exhaustive] + [
        ("GF(2^13)", lambda: gf8192.__wrapped__().L,
         [tuple(rng.randrange(2) for _ in range(13)) for _ in range(200)]),
        ("GF(4099^2)", lambda: gf4099_squared.__wrapped__().L,
         [(rng.randrange(4099), rng.randrange(4099)) for _ in range(200)]),
        ("Q(t)", lambda: qtheta().L,
         [tuple(Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                for _ in range(3)) for _ in range(200)]),
    ]


BOUNDARY_FIELDS = _boundary_fields()


@pytest.mark.parametrize("name,make,sample", BOUNDARY_FIELDS, ids=[n for n, _, _ in BOUNDARY_FIELDS])
def test_payload_reads_back_what_the_element_was_built_from(name, make, sample):
    field = make()
    for p in payloads_in_order(field) if sample is None else sample:
        x = FieldElement(field, p)
        assert x.payload == p and type(x.payload) is type(p), (name, p)
        assert bool(x) == (p != field._zero)


@pytest.mark.parametrize("name,make,sample", BOUNDARY_FIELDS, ids=[n for n, _, _ in BOUNDARY_FIELDS])
def test_equal_fields_built_apart_give_equal_elements(name, make, sample):
    first, second = make(), make()
    assert first == second and first is not second
    payloads = payloads_in_order(first) if sample is None else sample
    for p, q in zip(payloads, payloads[1:] + payloads[:1]):
        x, y = FieldElement(first, p), FieldElement(second, p)
        loaded = pickle.loads(pickle.dumps(x))
        assert x == y == loaded and hash(x) == hash(y) == hash(loaded), (name, p)
        assert loaded.field == second and loaded.payload == p
        assert (x != FieldElement(second, q)) == (p != q)
        assert x * FieldElement(second, q) == y * FieldElement(first, q)


@pytest.mark.parametrize("make", [gf8192, gf4099_squared])
def test_large_field_arithmetic_reads_no_payload(make, monkeypatch):
    """Sums, products and inverses above 4096 elements run on codes alone."""
    field = make.__wrapped__().L
    rng = random.Random(23)
    q, kern = field.order, field._kern
    pairs = [(kern.payload(rng.randrange(1, q)), kern.payload(rng.randrange(1, q))) for _ in range(40)]
    expected = [(ref_add(field, a, b), ref_mul(field, a, b), ref_inv(field, a)) for a, b in pairs]
    elements = [(FieldElement(field, a), FieldElement(field, b)) for a, b in pairs]

    def refuse(self, c):
        raise AssertionError("a payload was read")

    monkeypatch.setattr(_FiniteKernel, "payload", refuse)
    got = [(x + y, x * y, x.inverse(), x / y, x - y) for x, y in elements]
    monkeypatch.undo()
    for (x, y), (s, m, i, d, diff), (ws, wm, wi) in zip(elements, got, expected):
        assert (s.payload, m.payload, i.payload) == (ws, wm, wi)
        assert d * y == x and diff + y == x and x * i == field.one()


def test_an_int_on_the_left_and_division_by_zero():
    """``__rsub__`` and ``__rtruediv__`` read an int on the left as an element;
    dividing by the zero element, from either side, raises ZeroDivisionError."""
    t = make_tower(PrimeField(3), [1, 0, 1])  # GF(9)/GF(3), w^2 = -1
    w, zero = t.generator(), t.L.zero()
    assert [format_element(x) for x in (1 - w, 1 / w, 2 / (w + 1))] == ["2*w+1", "2*w", "2*w+1"]
    for divide in (lambda: w / zero, lambda: 1 / zero):
        with pytest.raises(ZeroDivisionError, match="^0 has no inverse$"):
            divide()
