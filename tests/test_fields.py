"""Tower construction, coordinates, trace, enumeration, field axioms."""

import random
from fractions import Fraction

import pytest

from rankweight import polys
from rankweight.errors import BadBase, BadModulus, InfiniteField, NotIrreducible
from rankweight.fields import (
    BaseFieldDescriptor,
    ExtensionField,
    ExtensionTower,
    FieldElement,
    PrimeField,
    Rationals,
    build_base_field,
    enumerate_elements,
    format_element,
    is_separable_tower,
    make_tower,
    random_rational_element,
)


def gf4():
    return make_tower(BaseFieldDescriptor(2), [1, 1, 1])


def gf8():
    return make_tower(BaseFieldDescriptor(2), [1, 1, 0, 1])


def gf9():
    return make_tower(BaseFieldDescriptor(3), [1, 0, 1])


def qtheta():
    return make_tower(BaseFieldDescriptor(0), [-2, 0, 0, 1], symbol="t")


def test_make_tower_gf4():
    t = gf4()
    assert t.degree == 2
    assert t.L.order == 4
    assert t.k.order == 2


def test_make_tower_rejects_reducible():
    with pytest.raises(NotIrreducible):
        make_tower(BaseFieldDescriptor(2), [1, 0, 1])  # x^2+1 = (x+1)^2 over GF(2)


def test_make_tower_qtheta():
    t = qtheta()
    assert t.degree == 3
    assert t.L.order is None
    theta = t.generator()
    assert theta * theta * theta == 2


def test_bad_inputs():
    with pytest.raises(BadBase):
        BaseFieldDescriptor(4)
    with pytest.raises(BadBase):
        BaseFieldDescriptor(0, base_degree=2)
    with pytest.raises(BadBase):
        BaseFieldDescriptor(2, base_degree=2)  # missing base modulus
    with pytest.raises(BadBase):
        BaseFieldDescriptor(2, base_degree=1, base_modulus=(1, 1))
    with pytest.raises(BadModulus):
        make_tower(BaseFieldDescriptor(2), [1])  # degree 0
    with pytest.raises(BadModulus):
        make_tower(BaseFieldDescriptor(0), [Fraction(1), Fraction(2)])  # non-monic


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
        for x in enumerate_elements(t):
            assert t.element_from_coords(t.coords(x)) == x


def test_trace_values():
    assert gf4().trace(gf4().generator()).payload == 1
    assert gf8().trace(gf8().generator()).payload == 0
    t = qtheta()
    theta = t.generator()
    assert t.trace(theta).payload == 0
    assert t.trace(t.L.one()).payload == 3
    assert t.trace(theta * theta * theta).payload == 6


def test_trace_is_k_linear_and_scales_constants():
    rng = random.Random(7)
    for t in (gf4(), gf8(), gf9()):
        elems = list(enumerate_elements(t))
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
        elems = list(enumerate_elements(t))
        kelems = list(t.k.elements())
        for _ in range(200):
            x, y = rng.choice(elems), rng.choice(elems)
            a, b = rng.choice(kelems), rng.choice(kelems)
            lhs = t.coords(t.embed(a) * x + t.embed(b) * y)
            rhs = [a * cx + b * cy for cx, cy in zip(t.coords(x), t.coords(y))]
            assert lhs == rhs


def test_separability():
    assert is_separable_tower(gf8())
    assert is_separable_tower(qtheta())
    # no validated backend can be inseparable (finite fields and Q are perfect);
    # build a quotient with f' = 0 by hand to exercise the predicate
    k = PrimeField(2)
    bogus = ExtensionTower(BaseFieldDescriptor(2), k, ExtensionField(k, (0, 0, 1)))
    assert not is_separable_tower(bogus)
    # trace is identically zero exactly in the inseparable case
    assert all(not bogus.trace(x) for x in enumerate_elements(bogus))
    assert any(gf8().trace(x) for x in enumerate_elements(gf8()))


def test_enumeration_order_and_counts():
    t = gf4()
    names = [format_element(x) for x in enumerate_elements(t)]
    assert names == ["0", "1", "w", "w+1"]
    assert len(list(enumerate_elements(gf8()))) == 8
    assert len(list(enumerate_elements(gf9()))) == 9
    with pytest.raises(InfiniteField):
        list(enumerate_elements(qtheta()))


def test_enumeration_is_deterministic_and_exhaustive():
    for t in (gf4(), gf8(), gf9()):
        first = [x.payload for x in enumerate_elements(t)]
        second = [x.payload for x in enumerate_elements(t)]
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
        elems = list(enumerate_elements(t)) if t.L.order is not None else None
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
    base = BaseFieldDescriptor(2, base_degree=2, base_modulus=(1, 1, 1))
    k = build_base_field(base)
    u = k.generator()
    return make_tower(base, [u, k.one(), k.one()])


def test_nested_base_field():
    t = gf16_over_gf4()
    assert t.L.order == 16
    assert t.k.order == 4
    assert t.degree == 2
    elems = list(enumerate_elements(t))
    assert len(set(e.payload for e in elems)) == 16
    # trace of L/k maps into k and is nonzero somewhere (separable)
    traces = {t.trace(e).payload for e in elems}
    assert len(traces) > 1
    assert is_separable_tower(t)


def test_nested_base_rejects_reducible_base_modulus():
    with pytest.raises(NotIrreducible):
        build_base_field(BaseFieldDescriptor(2, base_degree=2, base_modulus=(1, 0, 1)))


def test_trace_form_nondegenerate_on_separable_towers():
    # Gram matrix G[i][j] = Tr(basis_i * basis_j) must have full rank m
    from rankweight.linalg import Matrix, rref_canonical

    for t in (gf4(), gf8(), gf9(), qtheta(), gf16_over_gf4()):
        gram = [
            [t.trace(bi * bj) for bj in t.basis]
            for bi in t.basis
        ]
        assert rref_canonical(Matrix(t.k, gram, t.degree)).dim == t.degree


def test_irreducibility_methods_agree():
    for p in (2, 3):
        k = PrimeField(p)
        for deg in (2, 3, 4):
            import itertools

            for lower in itertools.product(range(p), repeat=deg):
                poly = [k.from_int(c) for c in lower] + [k.one()]
                assert polys.is_irreducible_gcd(k, poly) == polys.is_irreducible_bruteforce(k, poly)


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
    t = make_tower(BaseFieldDescriptor(2), [1, 1])  # L = GF(2)[x]/(x+1) = GF(2)
    assert t.degree == 1
    assert t.L.order == 2
    w = t.generator()
    assert w == t.L.one()  # class of x is -1 = 1
    assert t.trace(w).payload == 1
