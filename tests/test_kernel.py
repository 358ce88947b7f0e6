"""The int-coded kernels (finite fields with and without tables, Q and
Q[x]/(f)) against the payload arithmetic of ``helpers``; the trace by linearity,
over Q(θ) against the literal trace; the one power against repeated products;
multi-vector membership; codes as the stored form of a subspace, against
towers with their tables off and against the literal element references of
``helpers``, on small towers and on towers above 4096 elements."""

import functools
import gc
import itertools
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from rankweight import linalg
from rankweight.errors import NotIrreducible, SearchExhausted
from rankweight.fields import (
    ExtensionField,
    ExtensionTower,
    FieldElement,
    PrimeField,
    Rationals,
    _FiniteKernel,
    _Kernel,
    _QKernel,
    _element,
    _power,
    _RationalKernel,
    _bareiss_solve,
    build_base_field,
    format_element,
    make_tower,
)
from rankweight.linalg import (
    Matrix,
    Subspace,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    kernel,
    orthogonal_complement,
    subspace_intersection,
    subspace_sum,
    tail_subspace,
)
from rankweight.ranksupport import (
    KSubspace,
    LinearCode,
    closure,
    closure_oracle,
    dual,
    extend_to_L,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    restriction,
    trace_image,
)
from rankweight.verify import check_closure_pair, check_equivdef, exhaustive_codes
from rankweight.weights import _codewords, _subcodes, find_witness, rank_distance, weight_Dr, weight_Mr

from helpers import (
    all_codes,
    assert_memo_empty,
    closure_reference,
    combine,
    dual_reference,
    gf3_degree_one,
    gf4,
    gf8,
    gf9,
    gf16_over_gf2,
    gf16_over_gf4,
    gf4099_squared,
    gf8192,
    is_witness_reference,
    memo_entries,
    payloads_in_order,
    q_quarters,
    qtheta,
    random_q_codes,
    random_rational_element,
    ref_add,
    ref_inv,
    ref_mul,
    restriction_reference,
    rref_reference,
    span_reference,
    support_reference,
    trace_literal,
    trace_reference,
)


def decode_vector(L, c):
    """A vector of codes of L's kernel as a list of elements of L."""
    return list(linalg.decode_rows(L, [c])[0])


def count_decodes(monkeypatch) -> list:
    """The fields of every later ``linalg.decode_rows`` call, one entry per call."""
    calls = []
    decode = linalg.decode_rows
    monkeypatch.setattr(linalg, "decode_rows", lambda field, codes: calls.append(field) or decode(field, codes))
    return calls


def gf2_degree_one():
    return make_tower(PrimeField(2), [1, 1])


def gf25():
    # x^2 - 2 is irreducible over GF(5): 2 is not a square mod 5
    return make_tower(PrimeField(5), [3, 0, 1])


def gf27():
    return make_tower(PrimeField(3), [1, 2, 0, 1])


def nested(symbol, base_symbol):
    k = build_base_field(2, 2, (1, 1, 1), symbol=base_symbol)
    return make_tower(k, [k.generator(), 1, 1], symbol=symbol)


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
    kern = field._kern
    assert kern and kern.q == field.order
    elems = list(field.elements())
    (decoded,) = linalg.decode_rows(field, [range(field.order)])
    assert list(decoded) == elems and all(d.field is field for d in decoded)
    payloads = payloads_in_order(field)
    assert [kern.payload(c) for c in range(field.order)] == [x.payload for x in elems] == payloads
    assert [kern.index[p] for p in payloads] == list(range(field.order))
    one = field.one()
    for x in elems:
        a = kern.index[x.payload]
        for y in elems:
            b = kern.index[y.payload]
            assert kern.payload(kern.add(a, b)) == (x + y).payload == ref_add(field, x.payload, y.payload)
            assert kern.payload(kern.mul(a, b)) == (x * y).payload == ref_mul(field, x.payload, y.payload)
            assert [kern.payload(c) for c in kern.scale([a, b], b)] == [(x * y).payload, (y * y).payload]
            if y:
                assert [kern.payload(c) for c in kern.sub_scaled([a, b], b, [a, 1])] == [(x - y * x).payload, field._zero]
        if x:
            assert x * x.inverse() == one
            assert kern.payload(kern.inv(a)) == x.inverse().payload == ref_inv(field, x.payload)
    if isinstance(field, ExtensionField):
        for x in elems:
            base_index = field.base._kern.index
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
        coded = list(Subspace.from_vectors(field, n, rows).rows)
        assert coded == rref_reference(field, rows, n)[0]
        space = Subspace.from_vectors(field, n, coded)
        for _ in range(4):
            if rng.random() < 0.5:
                v = [rng.choice(elems) for _ in range(n)]
            else:  # a combination of the rows, so that members are tested too
                coeffs = [rng.choice(elems) for _ in rows]
                v = [sum((c * r[j] for c, r in zip(coeffs, rows)), zero) for j in range(n)]
            expected = len(rref_reference(field, list(space.rows) + [v], n)[0]) == space.dim
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
        coded = [tuple(L._kern.index[x.payload] for x in g) for g in gens]
        walked = [(w, decode_vector(L, c)) for w, c in _codewords(t, coded)]
        assert [c for _, c in walked] == expected
        for w, c in walked:
            assert all(x.field is L for x in c)
            assert w == rank_support_vec(t, c).dim


def test_large_fields_get_table_free_kernels():
    big_prime = PrimeField(4099)
    assert type(big_prime._kern) is _FiniteKernel
    a = big_prime.from_int(1234)
    assert Subspace.from_vectors(big_prime, 2, [[a, a]]).rows == ((big_prime.one(), big_prime.one()),)
    t = gf8192()
    assert t.L.order == 8192 and type(t.L._kern) is _FiniteKernel and type(t.k._kern) is _Kernel
    x = t.generator() + 1
    assert x * x.inverse() == t.L.one()
    rows = [[x, t.L.one()], [x * x, x]]
    assert list(Subspace.from_vectors(t.L, 2, rows).rows) == rref_reference(t.L, rows, 2)[0]
    kern = t.L._kern
    coded = tuple(kern.index[e.payload] for e in rows[0])
    [(w, c)] = _codewords(t, [coded])  # one generator: one projective point
    assert c == coded and decode_vector(t.L, c) == rows[0] and w == rank_support_vec(t, rows[0]).dim == 2


def test_every_field_holds_its_kernel_when_its_constructor_returns():
    """Every field kind builds its kernel and its hash in its constructor: tables
    up to 4096 elements, table-free above, and the rational kernels of Q and Q(θ)."""
    t = gf16_over_gf2()
    fresh = make_tower(PrimeField(2), [1, 1, 0, 0, 1])
    assert fresh == t and type(fresh.L._kern) is _Kernel and type(fresh.k._kern) is _Kernel
    fields = [PrimeField(4093), build_base_field(2, 12, (1, 1, 0, 0, 1, 0, 1) + (0,) * 5 + (1,)),
              Rationals(), make_tower(Rationals(), [-2, 0, 0, 1]).L, PrimeField(4099),
              make_tower(PrimeField(2), [1, 1, 0, 1, 1] + [0] * 8 + [1]).L, make_tower(PrimeField(4099), [1, 0, 1]).L]
    kinds = [_Kernel] * 2 + [_QKernel, _RationalKernel] + [_FiniteKernel] * 3
    assert [type(vars(field)["_kern"]) for field in fields] == kinds
    assert all(vars(field)["_hash"] == hash(field._identity()) for field in fields)
    assert all(field._kern.field is field for field in fields)
    for field in fields:
        kern = field._kern
        assert field.one() + field.one() == field.from_int(2) and field._kern is kern


def test_each_finite_field_runs_one_table_free_init(monkeypatch):
    """A _Kernel takes over the _FiniteKernel its search ran on, so every finite
    field, with tables or without, runs _FiniteKernel.__init__ once."""
    inits = []
    init = _FiniteKernel.__init__

    def counted(self, field):
        inits.append(field)
        init(self, field)

    monkeypatch.setattr(_FiniteKernel, "__init__", counted)
    k = build_base_field(2)
    small, big = make_tower(k, [1, 1, 0, 0, 1]), make_tower(k, [1, 1, 0, 1, 1] + [0] * 8 + [1])
    quad = build_base_field(2, 2, (1, 1, 1))
    built = [k, small.L, big.L, quad.base, quad, build_base_field(4099)]
    assert list(map(id, inits)) == list(map(id, built)) and all(f._kern.field is f for f in built)
    assert [type(f._kern) for f in built] == [_Kernel, _Kernel, _FiniteKernel, _Kernel, _Kernel, _FiniteKernel]
    assert small.L._kern.basis == (1, 2, 4, 8) and quad._kern.basis == (1, 2) and big.L._kern.basis[-1] == 2**12


def test_kernel_belongs_to_the_callers_field_object():
    warm, cold = nested("w", "u"), nested("z", "v")
    assert warm.L == cold.L and warm.k == cold.k and warm.L is not cold.L
    # each field object builds a kernel of its own when it is made
    assert warm.L._kern and cold.L._kern and cold.L._kern is not warm.L._kern
    assert cold.L._kern.field is cold.L and warm.L._kern.field is warm.L
    rows = lambda t: [[t.embed(t.k.generator()), t.generator()]]  # noqa: E731
    assert [format_element(x) for x in Subspace.from_vectors(warm.L, 2, rows(warm)).rows[0]] == ["1", "(u+1)*w"]
    kern = cold.L._kern
    rank_distance(LinearCode.from_generators(warm, 2, rows(warm)))
    space = Subspace.from_vectors(cold.L, 2, rows(cold))
    assert cold.L._kern is kern  # the warm field's work built nothing for the cold one
    assert all(x.field is cold.L for x in space.rows[0])
    assert [format_element(x) for x in space.rows[0]] == ["1", "(v+1)*z"]
    assert contains(space, rows(cold)[0]) and not contains(space, [cold.L.one(), cold.L.one()])
    for _, c in _codewords(cold, space._codes):
        assert all(x.field is cold.L for x in decode_vector(cold.L, c))


def test_a_loaded_tower_is_rebuilt_through_its_constructors():
    cold = make_tower(PrimeField(2), [1, 1, 0, 0, 1])
    warm = make_tower(PrimeField(2), [1, 1, 0, 0, 1])
    code = LinearCode.from_generators(warm, 2, [[warm.L.one(), warm.generator()]])
    rank_support_code(code)
    closure_oracle(code)
    hash(warm.L)
    population = exhaustive_codes(warm, 2)
    assert weight_Dr(population[-1], 1) == weight_Mr(population[-1], 1) == 1
    # M_r of L^2 reads Res(C) and tests no W_L; a line of L^3 with Res(C) = 0 tests the layer dim W = 2
    w = warm.generator()
    assert weight_Mr(LinearCode.from_generators(warm, 3, [[warm.L.one(), w, w * w]]), 1) == 3
    # every closure slot filled: extended codes keep themselves, the rest a code of the table
    assert all(check_closure_pair(pair, 0) == 1 for pair in itertools.product(population, repeat=2))
    assert all(closure(c)._closure is closure(c) for c in population)
    assert warm.L._kern and warm.k._kern
    assert all(value for value in memo_entries(warm).values() if isinstance(value, dict))
    assert pickle.dumps(warm) == pickle.dumps(cold)
    loaded = pickle.loads(pickle.dumps(warm))
    assert loaded == warm and loaded.L is not warm.L and loaded.k is not warm.k
    for fresh, used in ((loaded.L, warm.L), (loaded.k, warm.k)):  # kernels of their own, built on loading
        assert type(fresh._kern) is _Kernel and fresh._kern is not used._kern and fresh._kern.field is fresh
        assert fresh._kern.exp == used._kern.exp and hash(fresh) == hash(used)
    assert_memo_empty(loaded)
    # an equal tower built apart has a memo of its own, and a population of its own codes
    assert cold == warm
    assert_memo_empty(cold)
    assert all(a == b and a is not b for a, b in zip(exhaustive_codes(cold, 2), population))
    # the table holds its codes weakly: once the caller drops them, they leave it; this test's
    # code is the population's code for its space, so it and its closure L^2 stay
    assert len(warm._memo.codes) == len(population) == gaussian_binomial(2, 1, 16) + 2
    assert any(c is code for c in population)
    del population
    gc.collect()
    kept = [entry() for entry in warm._memo.codes.values()]
    assert len(kept) == 2 and {id(c) for c in kept} == {id(code), id(closure(code))}
    assert closure(code) == LinearCode.full(warm, 2)
    assert closure_oracle(LinearCode(loaded, 2, code.space)) == closure_oracle(code)
    again = LinearCode.from_generators(loaded, 2, [[loaded.L.one(), loaded.generator()]])
    assert again.space == code.space and rank_distance(again) == rank_distance(code)
    assert all(x.field is loaded.L for x in again.space.rows[0])


class _Forged:
    """Pickles as GF(2)[x]/(x^2 + 1), whose modulus (x + 1)^2 no constructor accepts."""

    def __reduce__(self):
        return ExtensionField, (build_base_field(2), (1, 0, 1), "w")


def test_a_pickle_of_a_reducible_quotient_is_refused_when_loaded():
    blob = pickle.dumps(_Forged())
    with pytest.raises(NotIrreducible, match="modulus of w is reducible over GF\\(2\\)"):
        pickle.loads(blob)
    # every kind of field pickles as its constructor and its arguments
    for field in (build_base_field(0), build_base_field(3), gf4().L, qtheta().L):
        reduced = field.__reduce__()
        assert reduced[0] is type(field) and reduced[0](*reduced[1]) == field
    assert gf4().L.__reduce__()[1] == (gf4().k, (1, 1, 1), "w")


def test_a_tower_keeps_what_it_derives_in_one_memo():
    """The tower's own slots are L, L's base and degree, and the memo, and it
    pickles as L: no derived state has a slot of its own."""
    assert ExtensionTower.__slots__ == ("k", "L", "degree", "_memo")
    assert "__getstate__" not in vars(ExtensionTower) and "__setstate__" not in vars(ExtensionTower)
    t = make_tower(PrimeField(2), [1, 1, 1])
    assert t.__reduce__() == (ExtensionTower, (t.L,))
    assert (t.k, t.degree) == (t.L.base, t.L.degree)


def test_a_tower_loaded_where_a_freed_one_lived_starts_cold():
    """A loaded tower, as in a spawned verify worker, often lands at the address
    of one that was freed; the memo belongs to the tower object, so nothing carries over.
    Equal codes of different towers share their ints, so a memo keyed by the
    address would hand the later tower wrong closure sums and weights."""
    blobs = [pickle.dumps(build()) for build in (gf4, gf8, gf9, gf16_over_gf2)]
    for blob in blobs * 2:
        t = pickle.loads(blob)
        assert_memo_empty(t)
        codes = exhaustive_codes(t, 2)
        assert [check_equivdef(c, 0) for c in codes] == [c.dim for c in codes]
        assert all(check_closure_pair(pair, 0) == 1 for pair in itertools.product(codes, repeat=2))
        del t, codes
        gc.collect()


# ---------------------------------------------------------------------------
# the rational kernel: Q and Q[x]/(f)
# ---------------------------------------------------------------------------


def q_third():
    # x^2 - 1/3: a monic modulus whose coefficients are not all integers
    return make_tower(Rationals(), [Fraction(-1, 3), 0, 1], symbol="s")


def q_degree_one():
    return make_tower(Rationals(), [Fraction(-3, 2), 1], symbol="h")


RATIONAL_FIELDS = [
    ("Q", Rationals()),
    ("Q(t)", qtheta().L),
    ("Q[x]/(x^2-1/3)", q_third().L),
    ("Q[x]/(x-3/2)", q_degree_one().L),
]


def random_rational(rng, field, big=False, sparse=0.3):
    """An element with coordinates a/b, |a|, b up to 10^30 when big, else 9; some zero."""
    h = 10**30 if big else 9

    def coord():
        return Fraction(0) if rng.random() < sparse else Fraction(rng.randint(-h, h), rng.randint(1, h))

    if isinstance(field, Rationals):
        return FieldElement(field, coord())
    return FieldElement(field, tuple(coord() for _ in range(field.degree)))


def assert_canonical(kern, c):
    """Zero is 0; any other code is (n_0, ..., d) with d > 0, gcd 1, and is its payload's code."""
    if c == 0:
        return
    assert c[-1] > 0 and gcd(*c) == 1 and any(c[:-1])
    assert kern.index[kern.payload(c)] == c


@pytest.mark.parametrize("name,field", RATIONAL_FIELDS, ids=[n for n, _ in RATIONAL_FIELDS])
def test_rational_kernel_arithmetic_matches_generic(name, field):
    kern = field._kern
    assert kern and field._kern is kern
    rng = random.Random(name)
    one = field.one()
    assert kern.index[field._zero] == 0 and kern.index[field._one] == kern.one
    for i in range(300):
        x, y = (random_rational(rng, field, big=i % 3 == 0) for _ in range(2))
        a, b = kern.index[x.payload], kern.index[y.payload]
        assert_canonical(kern, a)
        assert kern.payload(a) == x.payload and (a == 0) == (not x)
        product = ref_mul(field, x.payload, y.payload)
        total = kern.add(a, b)
        assert_canonical(kern, total)
        assert kern.payload(total) == (x + y).payload == ref_add(field, x.payload, y.payload)
        c = kern.mul(a, b)
        assert_canonical(kern, c)
        assert c == kern.index[product] and (x * y).payload == product
        assert kern.scale([a, b, 0], b) == [kern.index[(x * y).payload], kern.index[(y * y).payload], 0]
        if y:
            row = kern.sub_scaled([a, b, 0], b, [a, 0, b])
            for code in row:
                assert_canonical(kern, code)
            assert row == [kern.index[v.payload] for v in (x - y * x, y, -(y * y))]
        if x:
            inv = kern.inv(a)
            assert_canonical(kern, inv)
            assert kern.payload(inv) == ref_inv(field, x.payload)
            assert x * x.inverse() == one and x.inverse().payload == kern.payload(inv)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def test_bareiss_refuses_a_singular_matrix():
    # the guard of the rational inverse, which no field reaches: a singular multiplication matrix
    assert _bareiss_solve([[2, 1, 1], [1, 1, 0]]) == ([1, -1], 1)
    with pytest.raises(ZeroDivisionError):
        _bareiss_solve([[-1, 1, 1], [1, -1, 0]])  # x - 1 times 1 and x in Q[x]/(x^2 - 1)


@pytest.mark.parametrize("name,field", RATIONAL_FIELDS, ids=[n for n, _ in RATIONAL_FIELDS])
def test_rational_elimination_and_membership_match_generic(name, field):
    rng = random.Random(name)
    for i in range(60):
        n = rng.randint(1, 5)
        rows = [[random_rational(rng, field, big=i % 4 == 0, sparse=0.5) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        if rows and rng.random() < 0.3:  # a dependent row
            rows.append([u + v for u, v in zip(rows[0], rows[-1])])
        coded = list(Subspace.from_vectors(field, n, rows).rows)
        assert coded == rref_reference(field, rows, n)[0]
        assert all(x.field is field for row in coded for x in row)
        space = Subspace.from_vectors(field, n, coded)
        for _ in range(4):
            if rng.random() < 0.5 or not rows:
                v = [random_rational(rng, field) for _ in range(n)]
            else:  # a combination of the rows, so that members are tested too
                coeffs = [random_rational(rng, field) for _ in rows]
                v = [sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero()) for j in range(n)]
            expected = len(rref_reference(field, list(space.rows) + [v], n)[0]) == space.dim
            assert contains(space, v) == expected


def test_warm_rational_tower_pickles_like_a_cold_one():
    cold = make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")
    warm = make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")
    code = LinearCode.from_generators(warm, 2, [[warm.L.one(), warm.generator()]])
    rank_support_code(code)
    assert warm.generator() * warm.generator().inverse() == warm.L.one()
    assert warm.L._kern and warm.k._kern
    assert pickle.dumps(warm) == pickle.dumps(cold)
    loaded = pickle.loads(pickle.dumps(warm))
    assert loaded == warm and type(loaded.L._kern) is _RationalKernel and type(loaded.k._kern) is _QKernel
    assert loaded.L._kern is not warm.L._kern and loaded.L._kern.field is loaded.L and loaded.L.symbol == "t"
    again = LinearCode.from_generators(loaded, 2, [[loaded.L.one(), loaded.generator()]])
    assert again.space == code.space and rank_support_code(again).space == rank_support_code(code).space
    assert all(x.field is loaded.L for x in again.space.rows[0])


# ---------------------------------------------------------------------------
# the trace by linearity, multi-vector membership
# ---------------------------------------------------------------------------


def trace_by_powers(t, x):
    """The trace as sum_i (x * w^i)_i, multiplying by w on every call."""
    acc, y, w = t.k.zero(), x, t.generator()
    for i in range(t.degree):
        acc = acc + FieldElement(t.k, y.payload[i])
        y = y * w
    return acc


@pytest.mark.parametrize("name", ["GF(4)", "GF(8)", "GF(9)", "GF(16)/GF(4)", "GF(16)/GF(2)"])
def test_trace_by_linearity_on_finite_towers(name):
    t = TOWERS[name]()
    for x in t.L.elements():
        assert t.trace(x) == trace_by_powers(t, x)


@pytest.mark.parametrize("make", [qtheta, q_third, q_degree_one])
def test_trace_by_linearity_over_q(make):
    t = make()
    rng = random.Random(500)
    for _ in range(500):
        x = random_rational_element(t, rng, 9)
        assert t.trace(x) == trace_by_powers(t, x)
    assert t.trace(t.L.one()) == t.k.from_int(t.degree)


def q_cyclic_cubic():
    return make_tower(Rationals(), [1, -3, 0, 1])


@pytest.mark.parametrize("make", [qtheta, q_cyclic_cubic, q_third, q_quarters])
def test_trace_over_q_theta_matches_the_literal_trace(make, monkeypatch):
    """ExtensionTower.trace, one dot product per code, against the trace of
    the multiplication matrix read off payloads; trace_image takes the same
    map, once per basis multiple of each generator entry."""
    t = make()
    rng = random.Random(24)
    samples = [t.L.zero(), t.L.one(), t.generator()] + [random_rational(rng, t.L) for _ in range(60)]
    for x in samples:
        assert t.trace(x) == trace_literal(t, x)
    calls = []
    real = ExtensionTower._code_trace
    monkeypatch.setattr(ExtensionTower, "_code_trace", lambda self, c: calls.append(c) or real(self, c))
    code = LinearCode.from_generators(t, 2, [[samples[3], samples[4]]])
    assert trace_image(code).space.rows == trace_reference(code)
    assert len(calls) == t.degree * 2
    assert isinstance(t.L._kern, _RationalKernel) and t.trace(t.L.zero()).code == 0


# the kernel kinds, each with its q: the field's order, the base order for
# GF(4099^2) (whose 16.8 million elements are too many for a chain of
# products), and 5 over Q and Q(t)
POWER_FIELDS = [
    ("GF(8)", lambda: gf8().L, 8),  # a _Kernel
    ("GF(2^13)", lambda: gf8192().L, 8192),  # a _FiniteKernel over GF(2)
    ("GF(4099^2)", lambda: gf4099_squared().L, 4099),  # a _FiniteKernel over a _FiniteKernel
    ("Q", Rationals, 5),
    ("Q(t)", lambda: qtheta().L, 5),
]


@pytest.mark.parametrize("name,make,q", POWER_FIELDS, ids=[n for n, _, _ in POWER_FIELDS])
def test_power_matches_repeated_products(name, make, q):
    """_power(kern, a, e) = a * a * ... * a, e factors, for e = 0, 1, q - 1, q
    and q + 1; a^(q-1) = 1 and a^q = a when q is the field's order; and
    FieldElement.__pow__, negative exponents included, is the same power."""
    field = make()
    kern = field._kern
    rng = random.Random(len(name))
    if field.order is None:
        samples = [random_rational(rng, field, sparse=0) for _ in range(3)]
    else:
        samples = [field.from_int(1), _element(field, rng.randrange(2, field.order))]
    for x in [field.zero()] + samples:
        chain = [kern.one]
        for _ in range(q + 1):
            chain.append(kern.mul(chain[-1], x.code))
        for e in (0, 1, q - 1, q, q + 1):
            assert _power(kern, x.code, e) == chain[e]
            assert (x ** e).code == chain[e] and (x ** e).field is field
        if x and field.order == q:
            assert chain[q - 1] == kern.one and chain[q] == x.code
        if x:
            inverse = x.inverse()
            for e in (1, 2, 3):
                assert x ** -e == functools.reduce(operator.mul, [inverse] * e) and x ** -e * x ** e == 1
    with pytest.raises(ZeroDivisionError):
        field.zero() ** -1


MEMBERSHIP_FIELDS = [
    ("GF(4)", gf4().L),
    ("GF(16)/GF(4)", gf16_over_gf4().L),
    ("GF(4099)", PrimeField(4099)),  # a table-free kernel
] + RATIONAL_FIELDS[:2]


def _sample(rng, field):
    if field.order is None:
        return random_rational(rng, field, sparse=0.5)
    return field.from_int(rng.randrange(field.order)) if field.order > 16 else rng.choice(list(field.elements()))


@pytest.mark.parametrize("name,field", MEMBERSHIP_FIELDS, ids=[n for n, _ in MEMBERSHIP_FIELDS])
def test_multi_vector_contains_matches_the_loop(name, field):
    rng = random.Random(name)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[_sample(rng, field) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        space = Subspace.from_vectors(field, n, rows)
        vectors = []
        for _ in range(rng.randint(0, 4)):
            if rows and rng.random() < 0.6:
                coeffs = [_sample(rng, field) for _ in rows]
                vectors.append([sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero()) for j in range(n)])
            else:
                vectors.append([_sample(rng, field) for _ in range(n)])
        assert contains(space, *vectors) == all(contains(space, v) for v in vectors)
        zero = Subspace.zero(field, n)
        assert contains(zero, *vectors) == all(not any(v) for v in vectors)
        assert contains(space) and contains(zero)
        other = Subspace.from_vectors(field, n, vectors)
        assert space.contains_space(other) == all(contains(space, v) for v in other.rows)


def test_contains_encodes_the_subspace_once(monkeypatch):
    calls = []
    encode = linalg._encode
    monkeypatch.setattr(linalg, "_encode", lambda kern, rows, n: calls.append(len(rows)) or encode(kern, rows, n))
    decodes = count_decodes(monkeypatch)
    # a subspace keeps the codes its reduction made, over a finite field and
    # over Q(t) alike, so only the vectors are encoded, and contains_space
    # reads both sides' codes
    for t, expected in ((gf16_over_gf4(), [3, 4]), (qtheta(), [3, 4])):
        one, theta = t.L.one(), t.generator()
        decodes.clear()
        space = Subspace.from_vectors(t.L, 3, [[one, theta, one], [theta, one, theta * theta]])
        assert space._codes is not None and decodes == []
        calls.clear()
        members = [[x * a + b for a, b in zip(*space.rows)] for x in (one, theta, t.L.from_int(3))]
        assert contains(space, *members) and space.contains_space(space)
        assert not contains(space, *members, [one, one, one])
        assert calls == expected


def test_rational_decode_gives_elements_of_the_callers_field_object():
    a = make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")
    b = make_tower(Rationals(), [-2, 0, 0, 1], symbol="z")
    assert a.L == b.L and a.L is not b.L
    theta = a.generator()
    rows = [[a.L.one(), theta, theta * theta], [a.L.zero(), theta, a.L.from_int(2)]]
    for field, symbol in ((b.L, "z"), (a.L, "t")):
        space = Subspace.from_vectors(field, 3, rows)
        assert all(x.field is field for row in space.rows for x in row)
        assert [format_element(x) for x in space.rows[1]] == ["0", "1", f"{symbol}^2"]


# ---------------------------------------------------------------------------
# subspaces kept coded between eliminations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(TOWERS))
def test_k_codes_are_the_l_codes_of_their_embeddings(name):
    # extend_to_L relies on it: an L-code below |k| is (k-code, 0, ..., 0)
    t = TOWERS[name]()
    kern, k_kern = t.L._kern, t.k._kern
    for x in t.k.elements():
        a = k_kern.index[x.payload]
        assert kern.coords[a] == (a,) + (0,) * (t.degree - 1)
        assert kern.index[t.embed(x).payload] == a


@pytest.mark.parametrize("name", list(TOWERS))
def test_coded_subcodes_match_the_element_combination(name):
    t = TOWERS[name]()
    rng = random.Random(name)
    elems = list(t.L.elements())
    for _ in range(3):
        n = rng.randint(1, 3)
        code = LinearCode.from_generators(t, n, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
        for r in range(1, code.dim + 1):
            coefficient_spaces = enumerate_subspaces(t.L, code.dim, r)
            for sub, s in zip(_subcodes(code, r), coefficient_spaces, strict=True):
                expected = tuple(tuple(combine(row, code.space.rows, t.L, n)) for row in s.rows)
                assert sub.space.rows == expected
                assert all(x.field is t.L for row in sub.space.rows for x in row)
                assert sub.space._codes == tuple(tuple(t.L._kern.index[x.payload] for x in row) for row in expected)


@pytest.mark.parametrize("name", list(TOWERS))
def test_coded_rank_supports_match_the_element_expansion(name):
    t = TOWERS[name]()
    rng = random.Random(name)
    elems = list(t.L.elements())
    for _ in range(10):
        n = rng.randint(1, 3)
        c = [rng.choice(elems) for _ in range(n)]
        rows = [[FieldElement(t.k, x.payload[i]) for x in c] for i in range(t.degree)]
        assert rank_support_vec(t, c).space == Subspace.from_vectors(t.k, n, rows)
        code = LinearCode.from_generators(t, n, [c, [rng.choice(elems) for _ in range(n)]])
        stacked = [[FieldElement(t.k, x.payload[i]) for x in g] for g in code.space.rows for i in range(t.degree)]
        assert rank_support_code(code).space == Subspace.from_vectors(t.k, n, stacked)


def test_codes_change_neither_equality_hash_nor_pickle(monkeypatch):
    # reading the rows decodes them and keeps nothing: it changes neither ==, the hash nor the pickle
    t = gf16_over_gf2()
    rows = [[t.L.one(), t.generator(), t.L.zero()], [t.L.zero(), t.L.one(), t.generator()]]
    decodes = count_decodes(monkeypatch)
    coded = Subspace.from_vectors(t.L, 3, rows)
    decoded = Subspace.from_vectors(t.L, 3, rows[::-1])
    assert decoded.rows and decodes == [t.L]  # the one read of decoded.rows, nothing else
    assert coded == decoded and hash(coded) == hash(decoded)
    assert pickle.dumps(coded) == pickle.dumps(decoded)
    assert contains(decoded, rows[0]) and decoded._codes == coded._codes


def test_coded_results_belong_to_the_callers_field_object():
    warm, cold = nested("w", "u"), nested("z", "v")
    closure_oracle(LinearCode.from_generators(warm, 2, [[warm.L.one(), warm.generator()]]))
    gens = lambda t: [[t.L.one(), t.generator()], [t.embed(t.k.generator()), t.L.zero()]]  # noqa: E731
    a = Subspace.from_vectors(warm.L, 2, gens(warm)[:1])
    b = Subspace.from_vectors(cold.L, 2, gens(cold)[1:])
    for space, field in (
        (subspace_sum(a, b), warm.L),
        (subspace_sum(b, a), cold.L),
        (subspace_intersection(b, subspace_sum(a, b)), cold.L),
        (Subspace.from_codes(cold.L, 2, a._codes), cold.L),
        (extend_to_L(KSubspace(cold, 2, Subspace.from_vectors(warm.k, 2, [[warm.k.one(), warm.k.generator()]]))).space,
         cold.L),
        (rank_support_code(LinearCode(cold, 2, a)).space, cold.k),
    ):
        assert space.rows and all(x.field is field for row in space.rows for x in row)
    assert [format_element(x) for x in Subspace.from_codes(cold.L, 2, a._codes).rows[0]] == ["1", "z"]


@pytest.mark.parametrize("make,max_n", [(gf4, 2), (gf8, 2), (gf16_over_gf2, 2), (gf9, 2), (gf16_over_gf4, 1)])
def test_coded_sum_and_intersection_match_the_element_reductions(make, max_n):
    t = make()
    spaces = [c.space for n in range(1, max_n + 1) for c in all_codes(t, n)]
    rng = random.Random(repr(t))
    for _ in range(60):
        a, b = rng.choice(spaces), rng.choice(spaces)
        if a.ambient_dim != b.ambient_dim:
            continue
        n = a.ambient_dim
        assert subspace_sum(a, b).rows == span_reference(t.L, a.rows + b.rows, n)
        zeros = (t.L.zero(),) * n
        reduced, pivots = rref_reference(t.L, [r + r for r in a.rows] + [r + zeros for r in b.rows], 2 * n)
        meet = tuple(row[n:] for row, p in zip(reduced, pivots) if p >= n)
        assert subspace_intersection(a, b).rows == meet
        assert a.contains_space(b) == (subspace_sum(a, b) == a)


# ---------------------------------------------------------------------------
# codes as the stored form of a subspace
# ---------------------------------------------------------------------------


def _q_towers():
    return (make_tower(Rationals(), [-2, 0, 0, 1], symbol="t"),
            make_tower(Rationals(), [-2, 0, 0, 1], symbol="z"))


def _payloads(space):
    return [[x.payload for x in row] for row in space.rows]


@pytest.mark.parametrize("towers", [lambda: (nested("w", "u"), nested("z", "v")), _q_towers],
                         ids=["GF(16)/GF(4)", "Q(t)"])
def test_lazily_decoded_rows_belong_to_the_subspaces_field_object(towers, monkeypatch):
    warm, cold = towers()
    assert warm.L == cold.L and warm.L is not cold.L
    gens = [[warm.L.one(), warm.generator(), warm.L.zero()],
            [warm.L.zero(), warm.L.zero(), warm.generator() * warm.generator()]]
    decodes = count_decodes(monkeypatch)
    space = Subspace.from_vectors(warm.L, 3, gens)
    moved = Subspace(cold.L, 3, space._codes)
    assert decodes == []
    assert all(x.field is cold.L for row in moved.rows for x in row)
    assert all(x.field is warm.L for row in space.rows for x in row)
    assert [format_element(x) for x in moved.rows[0]] == ["1", "z", "0"]
    code = LinearCode(cold, 3, moved)
    decodes.clear()
    results = ((rank_support_code(code).space, cold.k), (restriction(code).space, cold.k),
               (dual(code).space, cold.L), (closure(code).space, cold.L),
               (trace_image(code).space, cold.k))
    assert decodes == [] and all(result.dim for result, _ in results)
    for result, field in results:
        assert all(x.field is field for row in result.rows for x in row)


@pytest.mark.parametrize("make", [gf16_over_gf4, qtheta, gf9])
def test_coded_and_element_subspaces_are_equal_and_hash_alike(make, monkeypatch):
    t = make()
    theta, one = t.generator(), t.L.one()
    vectors = [[one, theta, theta * theta], [theta, one, theta], [one + theta, one + theta, theta * theta + theta]]
    decodes = count_decodes(monkeypatch)
    for count in range(len(vectors) + 1):
        decodes.clear()
        coded = Subspace.from_vectors(t.L, 3, vectors[:count])
        assert decodes == []
        plain = Subspace.from_vectors(t.L, 3, span_reference(t.L, vectors[:count], 3))  # canonical element rows
        assert coded.rows == plain.rows
        assert hash(coded) == hash(plain)
        assert coded == plain and plain == coded
        assert plain == Subspace(t.L, 3, coded._codes)
    assert Subspace.from_vectors(t.L, 3, vectors[:1]) != Subspace.from_vectors(t.L, 3, span_reference(t.L, vectors[1:2], 3))


@pytest.mark.parametrize("make", [gf16_over_gf4, qtheta])
def test_a_never_decoded_subspace_survives_a_pickle_round_trip(make, monkeypatch):
    t = make()
    theta = t.generator()
    decodes = count_decodes(monkeypatch)
    code = LinearCode.from_generators(t, 2, [[t.L.one(), theta]])
    spaces = [code.space, rank_support_code(code).space, dual(code).space, closure(code).space]
    loads = [pickle.loads(pickle.dumps(s)) for s in spaces]
    for s, loaded in zip(spaces, loads):
        assert loaded._codes == s._codes
        assert loaded == s and hash(loaded) == hash(s) and loaded.dim == s.dim
    assert decodes == []
    for loaded in loads:
        assert all(x.field is loaded.field for row in loaded.rows for x in row)
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and rank_support_code(copy) == rank_support_code(code)


def test_closure_pair_on_q_codes_decodes_nothing(monkeypatch):
    calls = count_decodes(monkeypatch)
    codes = random_q_codes(8, seed=31)
    for a, b in zip(codes, codes[1:]):
        if a.length == b.length:
            assert check_closure_pair((a, b), 0) == 1
    assert calls == []
    assert rank_support_code(codes[0]).space.rows is not None and calls  # decoding is counted


@pytest.mark.parametrize("make", [gf9, gf16_over_gf4, qtheta])
def test_code_rows_are_tuples_on_every_route(make):
    t = make()
    theta, one, zero = t.generator(), t.L.one(), t.L.zero()
    code = LinearCode.from_generators(t, 3, [[one, theta, zero], [zero, theta, theta * theta]])
    line = LinearCode.from_generators(t, 3, [[one, one, theta]])
    k_vectors = [[t.k.one(), t.k.zero(), t.k.one()]]
    k_line = KSubspace(t, 3, Subspace.from_vectors(t.k, 3, k_vectors))
    one_code, k_one = t.L._kern.one, t.k._kern.one
    spaces = [
        code.space,
        Subspace.from_codes(t.L, 3, code.space._codes[::-1]),
        subspace_sum(code.space, line.space),
        subspace_intersection(code.space, subspace_sum(line.space, extend_to_L(k_line).space)),
        tail_subspace(t.L, [r + (one_code,) for r in code.space._codes], 4, 1),
        tail_subspace(t.k, [(k_one, 0, k_one)], 3, 0),
        orthogonal_complement(code.space),
        kernel(Matrix(t.L, code.space.rows, 3)),
        rank_support_vec(t, [one, theta, zero]).space,
        rank_support_code(code).space,
        restriction(line).space,
        extend_to_L(k_line).space,
        trace_image(code).space,
        dual(code).space,
        closure(line).space,
    ]
    if t.L.order is not None:
        spaces += [s.space for s in _subcodes(code, 1)]
        spaces += list(enumerate_subspaces(t.k, 3, 2))
    for s in spaces:  # each route stored codes, and stored them as tuples
        assert type(s._codes) is tuple and all(type(r) is tuple for r in s._codes)
    assert Subspace.full(t.L, 2)._codes == ((one_code, 0), (0, one_code))


def _tables_off(make):
    """A tower of its own, not the cached one, whose fields have table-free kernels."""
    t = make.__wrapped__()
    t.k._kern = _FiniteKernel(t.k)
    t.L._kern = _FiniteKernel(t.L)  # over k's table-free kernel
    return t


def _codes(code):
    return (code.space._codes, rank_support_code(code).space._codes, restriction(code).space._codes,
            dual(code).space._codes, closure(code).space._codes, trace_image(code).space._codes, is_extended(code))


@pytest.mark.parametrize("make", [gf4, gf9])
def test_coded_results_match_towers_with_tables_off(make):
    on, off = make(), _tables_off(make)
    assert type(on.L._kern) is _Kernel and type(off.L._kern) is type(off.k._kern) is _FiniteKernel
    kern, free = on.L._kern, off.L._kern
    for x in on.L.elements():  # the same codes, and the same arithmetic on them
        a = kern.index[x.payload]
        assert free.index[x.payload] == a and free.payload(a) == x.payload and free.expand(a) == kern.expand(a)
        assert free.neg(a) == kern.neg(a) and (not a or free.inv(a) == kern.inv(a))
        assert all(free.mul(a, b) == kern.mul(a, b) and free.add(a, b) == kern.add(a, b) for b in range(kern.q))
        assert free.multiples(a) == kern.multiples(a) == [kern.mul(b, a) for b in range(kern.q)]
    for n in (1, 2):
        codes, free_codes = all_codes(on, n), all_codes(off, n)  # enumerated in the same order
        assert len(codes) == len(free_codes)
        for c, f in zip(codes, free_codes):
            assert _codes(c) == _codes(f)
        assert [rank_distance(c) for c in codes if c.dim] == [rank_distance(c) for c in free_codes if c.dim]


def _degenerate_q_codes(count, seed):
    """Seeded Q(t) codes whose generators are L-combinations of n - 1 rational
    vectors, so that their rank supports are proper subspaces of Q^n."""
    t, rng = qtheta(), random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 3)
        directions = [[t.embed(FieldElement(t.k, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))) for _ in range(n)]
                      for _ in range(n - 1)]
        gens = []
        for _ in range(rng.randint(1, 2)):
            coeffs = [random_rational_element(t, rng, 5) for _ in directions]
            gens.append([sum((a * v[j] for a, v in zip(coeffs, directions)), t.L.zero()) for j in range(n)])
        out.append(LinearCode.from_generators(t, n, gens))
    return out


def _check_against_references(code):
    """The coded results on code equal the literal element references of helpers."""
    t, n = code.tower, code.length
    assert code.space.rows == span_reference(t.L, code.generators, n)
    support = support_reference(code)
    assert rank_support_code(code).space.rows == support
    assert restriction(code).space.rows == restriction_reference(code)
    assert dual(code).space.rows == dual_reference(code)
    assert closure(code).space.rows == closure_reference(code)
    assert trace_image(code).space.rows == trace_reference(code)
    assert is_rank_degenerate(code) == (len(support) < n)
    return support


def test_q_code_results_match_the_literal_references():
    for c in random_q_codes(40, seed=77) + _degenerate_q_codes(30, seed=78):
        _check_against_references(c)


# ---------------------------------------------------------------------------
# every field a tower holds has a kernel: towers above 4096 elements
# ---------------------------------------------------------------------------


def _large_codes(t, seed):
    """Seeded codes of length <= 3: generic, extended (rational generators) and
    split (a rational generator beside a generic one)."""
    rng = random.Random(seed)
    L, q = t.L, t.L.order
    kern = L._kern

    def element():
        return FieldElement(L, kern.payload(rng.randrange(q)))

    def rational():
        return t.embed(FieldElement(t.k, t.k._kern.payload(rng.randrange(t.k.order))))

    codes = []
    for n in (1, 2, 3):
        codes.append(LinearCode.from_generators(t, n, [[element() for _ in range(n)]]))
        codes.append(LinearCode.from_generators(t, n, [[rational() for _ in range(n)] for _ in range(min(n, 2))]))
        if n > 1:
            codes.append(LinearCode.from_generators(t, n, [[rational() for _ in range(n)],
                                                           [element() for _ in range(n)]]))
    codes.append(LinearCode.from_generators(t, 2, [[L.one(), t.generator()]]))
    return codes


@pytest.mark.parametrize("make", [gf8192, gf4099_squared])
def test_large_towers_are_coded_and_match_the_literal_references(make):
    t = make()
    assert type(t.L._kern) is _FiniteKernel
    for code in _large_codes(t, seed=5):
        assert all(type(e) is int for row in code.space._codes for e in row)
        support = _check_against_references(code)
        if len(support) > t.degree:
            assert find_witness(code, strategy="constructive") is None
        elif restriction_reference(code) or code.dim == 0:
            c = find_witness(code, strategy="constructive")
            assert is_witness_reference(code, c)
            if len(restriction_reference(code)) == code.dim:  # extended: sum(basis_i * e_i)
                e = [[t.embed(x) for x in row] for row in restriction_reference(code)]
                assert c == combine(t.basis, e, t.L, code.length)
        else:
            with pytest.raises(SearchExhausted):
                find_witness(code, strategy="constructive")


@pytest.mark.parametrize("make", [gf8192, gf4, qtheta])
def test_a_pickled_subspace_holds_its_codes_and_decodes_nothing(make, monkeypatch):
    t = make()
    code = LinearCode.from_generators(t, 2, [[t.L.one(), t.generator()]])
    spaces = [code.space, rank_support_code(code).space, dual(code).space]
    calls = count_decodes(monkeypatch)
    for s in spaces:
        data = pickle.dumps(s)
        assert b"FieldElement" not in data
        loaded = pickle.loads(data)
        assert loaded._codes == s._codes
        assert loaded == s and hash(loaded) == hash(s)
    assert calls == []
    assert spaces[0].rows and calls  # decoding is counted
