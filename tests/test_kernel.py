"""The int-coded finite-field kernel against the generic element arithmetic."""

import itertools
import pickle
import random

import pytest

from rankweight import polys
from rankweight.fields import (
    BaseFieldDescriptor,
    ExtensionField,
    PrimeField,
    build_base_field,
    format_element,
    is_separable_tower,
    make_tower,
)
from rankweight.linalg import Subspace, _rref_generic, _rref_rows, contains
from rankweight.ranksupport import LinearCode, rank_support_code, trace_image, weight_of_vector
from rankweight.weights import _codewords, _decode, rank_distance

from helpers import gf3_degree_one, gf4, gf8, gf9, gf16_over_gf2, gf16_over_gf4


def gf2_degree_one():
    return make_tower(BaseFieldDescriptor(2), [1, 1])


def gf25():
    # x^2 - 2 is irreducible over GF(5): 2 is not a square mod 5
    return make_tower(BaseFieldDescriptor(5), [3, 0, 1])


def gf27():
    return make_tower(BaseFieldDescriptor(3), [1, 2, 0, 1])


def nested(symbol, base_symbol):
    base = BaseFieldDescriptor(2, base_degree=2, base_modulus=(1, 1, 1))
    u = build_base_field(base, symbol=base_symbol).generator()
    return make_tower(base, [u, 1, 1], symbol=symbol, base_symbol=base_symbol)


TOWERS = {
    "GF(4)": gf4,
    "GF(8)": gf8,
    "GF(9)": gf9,
    "GF(16)/GF(4)": gf16_over_gf4,
    "GF(16)/GF(2)": gf16_over_gf2,
    "GF(2)[x]/(x+1)": gf2_degree_one,
    "GF(3)[x]/(x+1)": gf3_degree_one,
    "GF(25)": gf25,
    "GF(27)": gf27,
}


FIELDS = [("GF(2)", PrimeField(2)), ("GF(3)", PrimeField(3))] + [
    (name, make().L) for name, make in TOWERS.items()
]


@pytest.mark.parametrize("name,field", FIELDS, ids=[n for n, _ in FIELDS])
def test_kernel_arithmetic_matches_generic(name, field):
    kern = field._kernel()
    assert kern and kern.q == field.order
    elems = list(field.elements())
    assert list(kern.decode) == elems and all(d.field is field for d in kern.decode)
    assert [kern.index[x.payload] for x in elems] == list(range(field.order))
    mul = getattr(field, "_mul_raw", field._mul)
    one = field.one()
    for x in elems:
        a = kern.index[x.payload]
        for y in elems:
            b = kern.index[y.payload]
            assert kern.decode[kern.add(a, b)] == x + y
            assert kern.decode[kern.mul(a, b)].payload == mul(x.payload, y.payload)
            assert [kern.decode[c] for c in kern.scale([a, b], b)] == [x * y, y * y]
            if y:
                assert [kern.decode[c] for c in kern.sub_scaled([a, b], b, [a, 1])] == [x - y * x, y - y]
        if x:
            assert x * x.inverse() == one
            assert kern.decode[kern.inv(a)] == x.inverse()
    if isinstance(field, ExtensionField):
        for x in elems:
            base_index = field.base._kernel().index
            assert kern.coords[kern.index[x.payload]] == tuple(base_index[c] for c in x.payload)


@pytest.mark.parametrize("name,field", FIELDS, ids=[n for n, _ in FIELDS])
def test_coded_elimination_and_membership_match_generic(name, field):
    rng = random.Random(name)
    elems = list(field.elements())
    zero = field.zero()
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.choice(elems if rng.random() < 0.7 else [zero]) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        coded = _rref_rows(field, rows, n)
        assert coded == _rref_generic(field, rows, n)
        space = Subspace(field, n, tuple(coded[0]))
        for _ in range(4):
            if rng.random() < 0.5:
                v = [rng.choice(elems) for _ in range(n)]
            else:  # a combination of the rows, so that members are tested too
                coeffs = [rng.choice(elems) for _ in rows]
                v = [sum((c * r[j] for c, r in zip(coeffs, rows)), zero) for j in range(n)]
            expected = len(_rref_generic(field, list(space.rows) + [v], n)[0]) == space.dim
            assert contains(space, v) == expected


@pytest.mark.parametrize("name", list(TOWERS))
def test_codeword_walk_matches_weight_of_vector(name):
    t = TOWERS[name]()
    L = t.L
    rng = random.Random(name)
    elems = list(L.elements())
    zero, one = L.zero(), L.one()
    for _ in range(4):
        n = rng.randint(1, 3)
        dim = rng.randint(1, 3 if L.order <= 9 else 2)  # three generators exercise the tail order
        gens = [[rng.choice(elems) for _ in range(n)] for _ in range(dim)]
        # the old walk: first nonzero coefficient 1, the rest in element order, last fastest
        expected = []
        for lead in range(len(gens)):
            for tail in itertools.product(elems, repeat=len(gens) - lead - 1):
                coeffs = (zero,) * lead + (one,) + tail
                expected.append([sum((a * g[j] for a, g in zip(coeffs, gens)), zero) for j in range(n)])
        walked = [(w, _decode(L, c)) for w, c in _codewords(t, gens, n)]
        assert [c for _, c in walked] == expected
        for w, c in walked:
            assert all(x.field is L for x in c)
            assert w == weight_of_vector(t, c)


def test_fields_without_a_kernel():
    big_prime = PrimeField(4099)
    assert big_prime._kernel() is False
    a = big_prime.from_int(1234)
    assert _rref_rows(big_prime, [[a, a]], 2)[0] == [(big_prime.one(), big_prime.one())]
    # GF(2^13) = GF(2)[x]/(x^13 + x^4 + x^3 + x + 1)
    t = make_tower(BaseFieldDescriptor(2), [1, 1, 0, 1, 1] + [0] * 8 + [1])
    assert t.L.order == 8192 and t.L._kernel() is False
    x = t.generator() + 1
    assert x * x.inverse() == t.L.one()
    rows = [[x, t.L.one()], [x * x, x]]
    assert _rref_rows(t.L, rows, 2) == _rref_generic(t.L, rows, 2)
    [(w, c)] = _codewords(t, [rows[0]], 2)  # one generator: one projective point
    assert c == rows[0] and w == weight_of_vector(t, c) == 2
    # GF(2)[x]/(x^2) is not a field: no element of order 3, so no kernel
    assert ExtensionField(PrimeField(2), (0, 0, 1))._kernel() is False


def test_kernel_is_built_on_first_use_not_by_make_tower():
    t = gf16_over_gf2()
    fresh = make_tower(BaseFieldDescriptor(2), [1, 1, 0, 0, 1])
    assert fresh == t and fresh.L._kern is None
    LinearCode.from_generators(fresh, 2, [[fresh.L.one(), fresh.generator()]])
    assert fresh.L._kern


def test_kernel_belongs_to_the_callers_field_object():
    warm, cold = nested("w", "u"), nested("z", "v")
    assert warm.L == cold.L and warm.k == cold.k and warm.L is not cold.L
    rows = lambda t: [[t.embed(t.k.generator()), t.generator()]]  # noqa: E731
    assert [format_element(x) for x in Subspace.from_vectors(warm.L, 2, rows(warm)).rows[0]] == ["1", "(u+1)*w"]
    rank_distance(LinearCode.from_generators(warm, 2, rows(warm)))
    assert warm.L._kern and cold.L._kern is None
    space = Subspace.from_vectors(cold.L, 2, rows(cold))
    assert cold.L._kern and cold.L._kern is not warm.L._kern
    assert all(x.field is cold.L for x in space.rows[0])
    assert [format_element(x) for x in space.rows[0]] == ["1", "(v+1)*z"]
    assert contains(space, rows(cold)[0]) and not contains(space, [cold.L.one(), cold.L.one()])
    for _, c in _codewords(cold, rows(cold), 2):
        assert all(x.field is cold.L for x in _decode(cold.L, c))


def test_pickle_leaves_the_kernel_out():
    cold = make_tower(BaseFieldDescriptor(2), [1, 1, 0, 0, 1])
    warm = make_tower(BaseFieldDescriptor(2), [1, 1, 0, 0, 1])
    code = LinearCode.from_generators(warm, 2, [[warm.L.one(), warm.generator()]])
    rank_support_code(code)
    hash(warm.L)
    assert warm.L._kern and warm.k._kern
    assert pickle.dumps(warm) == pickle.dumps(cold)
    loaded = pickle.loads(pickle.dumps(warm))
    assert loaded.L._kern is None and loaded == warm
    again = LinearCode.from_generators(loaded, 2, [[loaded.L.one(), loaded.generator()]])
    assert again.space == code.space and rank_distance(again) == rank_distance(code)
    assert all(x.field is loaded.L for x in again.space.rows[0])


def test_separability_is_computed_once_per_tower(monkeypatch):
    t = gf16_over_gf4()
    fresh = make_tower(t.base_descriptor, [t.k.generator(), 1, 1])
    assert fresh._separable is None
    calls = []
    gcd = polys.gcd
    monkeypatch.setattr(polys, "gcd", lambda *a: calls.append(1) or gcd(*a))
    code = LinearCode.from_generators(fresh, 2, [[fresh.L.one(), fresh.generator()]])
    first = trace_image(code)
    assert trace_image(code) == first and is_separable_tower(fresh)
    assert len(calls) == 1 and fresh._separable is True
