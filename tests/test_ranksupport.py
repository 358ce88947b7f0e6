"""Expansion matrices, rank supports, restriction, duals, closure."""

import itertools
import pickle
import random

import pytest

from helpers import (
    all_codes,
    all_vectors,
    expansion,
    gf3_degree_one,
    gf4,
    gf8,
    gf9,
    gf16_over_gf2,
    gf16_over_gf4,
    qtheta,
    random_q_codes,
    rational_part,
    rref_reference,
    vec,
)
from rankweight import ranksupport, verify
from rankweight.errors import FieldMismatch, InfiniteField, TowerMismatch
from rankweight.fields import PrimeField, Rationals, _element, make_tower
from rankweight.linalg import Subspace, enumerate_subspaces, orthogonal_complement, subspace_sum
from rankweight.ranksupport import (
    KSubspace,
    LinearCode,
    closure,
    closure_oracle,
    dual,
    _coded_expansion,
    embed_vector,
    extend_to_L,
    galois_closure,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    restriction,
    trace_image,
)
from rankweight.verify import check_closure_pair, check_delsarte, check_trace, check_witness

SMALL_SWEEPS = [(gf4, 1), (gf4, 2), (gf8, 1), (gf8, 2), (gf9, 1), (gf9, 2)]


def k_space(tower, n, rows):
    return KSubspace(
        tower, n, Subspace.from_vectors(tower.k, n, [[tower.k.from_int(c) for c in r] for r in rows])
    )


def expand(t, c):
    """The expansion rows of one L-vector by ``_coded_expansion``, as k-elements."""
    return [[_element(t.k, x) for x in row] for row in _coded_expansion(t.L._kern, [[x.code for x in c]])]


def test_expand_gf4_example():
    t = gf4()
    w = t.generator()
    assert [[e.payload for e in row] for row in expand(t, vec(t, w * w, 1))] == [[1, 1], [1, 0]]


def test_expand_zero_and_rational():
    t = gf4()
    assert all(not e for row in expand(t, vec(t, 0, 0, 0)) for e in row)
    assert [[e.payload for e in row] for row in expand(t, vec(t, 1, 1, 0))] == [[1, 1, 0], [0, 0, 0]]


def test_expand_reassembles():
    """c_j = sum_i rows[i][j] * basis_i, and the rows are the literal expansion."""
    rng = random.Random(3)
    for t in (gf4(), gf8(), gf9()):
        pool = list(t.L.elements())
        for _ in range(30):
            c = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            rows = expand(t, c)
            assert rows == expansion(t, c)
            assert [sum((t.embed(row[j]) * b for row, b in zip(rows, t.basis)), t.L.zero())
                    for j in range(len(c))] == c


def test_rank_support_vec_rejects_foreign_entries():
    t, other = gf4(), gf8()
    with pytest.raises(FieldMismatch):
        rank_support_vec(t, vec(other, 1, 0))


def test_rank_support_vec_examples():
    t = gf4()
    w = t.generator()
    s = rank_support_vec(t, vec(t, 1, w))
    assert s.space == Subspace.full(t.k, 2)
    assert rank_support_vec(t, vec(t, 1, w)).dim == 2
    s = rank_support_vec(t, vec(t, 1, 1, 0))
    assert s == k_space(t, 3, [[1, 1, 0]])


def test_rank_support_scaling_invariance_exhaustive():
    for build, n in SMALL_SWEEPS:
        t = build()
        nonzero = [x for x in t.L.elements() if x]
        for c in all_vectors(t, n):
            base = rank_support_vec(t, c)
            for lam in nonzero:
                assert rank_support_vec(t, [lam * x for x in c]) == base


def test_rank_support_subadditive():
    rng = random.Random(9)
    for build, n in SMALL_SWEEPS:
        t = build()
        vectors = all_vectors(t, n)
        pairs = (
            [(a, b) for a in vectors for b in vectors]
            if len(vectors) ** 2 <= 4096
            else [(rng.choice(vectors), rng.choice(vectors)) for _ in range(2000)]
        )
        for a, b in pairs:
            lhs = rank_support_vec(t, [x + y for x, y in zip(a, b)])
            rhs = subspace_sum(rank_support_vec(t, a).space, rank_support_vec(t, b).space)
            assert all(rhs.contains(r) for r in lhs.space.rows)


def test_weight_one_iff_rational_multiple():
    for build, n in SMALL_SWEEPS:
        t = build()
        nonzero = [x for x in t.L.elements() if x]
        for c in all_vectors(t, n):
            if not any(c):
                continue
            scalable = any(rational_part(t, [lam * x for x in c]) is not None for lam in nonzero)
            assert (rank_support_vec(t, c).dim == 1) == scalable


def test_rank_support_code_examples():
    t = gf4()
    w = t.generator()
    assert rank_support_code(LinearCode.full(t, 2)).space == Subspace.full(t.k, 2)
    one_gen = LinearCode.from_generators(t, 2, [vec(t, 1, w)])
    assert rank_support_code(one_gen).space == Subspace.full(t.k, 2)
    rational = LinearCode.from_generators(t, 3, [vec(t, 1, 1, 0)])
    assert rank_support_code(rational) == k_space(t, 3, [[1, 1, 0]])


def test_restriction_examples():
    t = gf4()
    w = t.generator()
    assert restriction(LinearCode.from_generators(t, 2, [vec(t, 1, w)])).dim == 0
    assert restriction(LinearCode.from_generators(t, 2, [vec(t, 1, 1)])) == k_space(t, 2, [[1, 1]])
    assert restriction(LinearCode.full(t, 2)).space == Subspace.full(t.k, 2)


def _literal_restriction(C):
    """C ∩ k^n by scanning every vector of k^n (finite k)."""
    t, n = C.tower, C.length
    hits = [
        list(v)
        for v in itertools.product(list(t.k.elements()), repeat=n)
        if C.space.contains(embed_vector(t, v))
    ]
    return Subspace.from_vectors(t.k, n, hits)


def test_restriction_matches_dual_formula_and_literal_scan():
    rng = random.Random(19)
    cases = [(gf16_over_gf4, 2), (gf16_over_gf2, 2), (gf3_degree_one, 3), (gf9, 2)]
    for make, n in cases:
        t = make()
        codes = all_codes(t, n)
        codes += [LinearCode.zero(t, n + 1), LinearCode.full(t, n + 1)]
        pool = list(t.L.elements())
        codes += [
            LinearCode.from_generators(t, n + 1, [[rng.choice(pool) for _ in range(n + 1)]])
            for _ in range(10)
        ]
        for C in codes:
            res = restriction(C).space
            assert res == orthogonal_complement(rank_support_code(dual(C)).space)
            assert res == _literal_restriction(C)
    for C in random_q_codes(60, seed=23):
        res = restriction(C).space
        assert res == orthogonal_complement(rank_support_code(dual(C)).space)
        assert all(C.space.contains(embed_vector(C.tower, r)) for r in res.rows)


def test_extend_and_is_extended():
    t = gf4()
    w = t.generator()
    d = k_space(t, 2, [[1, 1]])
    e = extend_to_L(d)
    assert e.dim == 1 and is_extended(e)
    assert extend_to_L(k_space(t, 2, [])).dim == 0
    assert extend_to_L(k_space(t, 2, [[1, 0], [0, 1]])) == LinearCode.full(t, 2)
    assert not is_extended(LinearCode.from_generators(t, 2, [vec(t, 1, w)]))
    assert is_extended(LinearCode.full(t, 2))
    assert is_extended(LinearCode.zero(t, 2))


def test_extend_to_L_matches_reduction_over_L():
    # the embedded canonical basis over k is already the canonical basis over L,
    # and D's k-codes are D_L's L-codes
    for t, max_n in ((gf4(), 2), (gf9(), 2), (gf16_over_gf4(), 2), (gf8(), 3), (gf16_over_gf2(), 3)):
        for n in range(1, max_n + 1):
            for d in range(n + 1):
                for w in enumerate_subspaces(t.k, n, d):
                    literal = Subspace.from_vectors(t.L, n, [embed_vector(t, r) for r in w.rows])
                    extended = extend_to_L(KSubspace(t, n, w)).space
                    assert extended == literal and extended._codes == literal._codes == w._codes
                    assert all(x.field is t.L for row in extended.rows for x in row)


def _memo_codes():
    t, q = gf4(), qtheta()
    w, theta = t.generator(), q.generator()
    return [
        LinearCode.from_generators(t, 2, [vec(t, 1, w)]),
        # Res(C) = Q·e1 is nonzero, so the split witness path asks for it too
        LinearCode.from_generators(q, 3, [vec(q, 1, 0, 0), vec(q, 0, 1, theta)]),
    ]


def _count_calls(monkeypatch, name):
    """Rebind ranksupport.<name> so that each call is recorded in the returned list."""
    real = getattr(ranksupport, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ranksupport, name, counting)
    return calls


def test_restriction_routes_run_once_per_code(monkeypatch):
    # restriction's one elimination is the only tail_subspace call in ranksupport
    calls = _count_calls(monkeypatch, "tail_subspace")
    # Res(C) and Res(C^perp); the split witness path of the Q(t) code searches
    # the code C1 it splits off without restricting it, as Res(C1) = 0
    for C, eliminations in zip(_memo_codes(), (2, 2)):
        calls.clear()
        check_witness(C, 0)
        check_delsarte(C, 0)
        check_trace(C, 0)
        is_rank_degenerate(C)
        assert len(calls) == eliminations
        check_delsarte(C, 0)
        check_trace(C, 0)
        is_rank_degenerate(C)
        assert restriction(C) is restriction(C)
        assert dual(C) is dual(C)
        assert rank_support_code(C) is rank_support_code(C)
        assert len(calls) == eliminations


def test_is_rank_degenerate_takes_one_complement_per_code(monkeypatch):
    calls = _count_calls(monkeypatch, "orthogonal_complement")
    codes = all_codes(gf4(), 2)
    for C in codes:
        is_rank_degenerate(C)
    assert len(codes) == 7 and len(calls) == 7


def test_code_with_filled_slots_survives_pickle():
    # towers built apart from helpers.gf4 and helpers.qtheta, so their codes are codes of their own
    apart = [make_tower(PrimeField(2), [1, 1, 1]), make_tower(Rationals(), [-2, 0, 0, 1], symbol="t")]
    for C, tower in zip(_memo_codes(), apart):
        invariants = (rank_support_code(C), dual(C), restriction(C), is_rank_degenerate(C))
        copy = pickle.loads(pickle.dumps(C))
        assert copy == C and hash(copy) == hash(C)
        assert copy._rsupp is copy._dual is copy._res is copy._closure is None
        assert (rank_support_code(copy), dual(copy), restriction(copy), is_rank_degenerate(copy)) == invariants
        fresh = LinearCode(tower, C.length, C.space)
        assert fresh == C and fresh is not C and fresh._rsupp is None
        assert (rank_support_code(fresh), dual(fresh), restriction(fresh)) == invariants[:3]


def test_trace_image_examples():
    t = gf4()
    w = t.generator()
    c = LinearCode.from_generators(t, 2, [vec(t, 1, w)])
    assert trace_image(c).space == Subspace.full(t.k, 2)
    assert trace_image(LinearCode.zero(t, 2)).dim == 0

    q = qtheta()
    theta = q.generator()
    c = LinearCode.from_generators(q, 2, [vec(q, 1, theta)])
    assert trace_image(c).space == Subspace.full(q.k, 2)


def test_dual_examples():
    t = gf4()
    w = t.generator()
    c = LinearCode.from_generators(t, 2, [vec(t, 1, w)])
    assert dual(c) == LinearCode.from_generators(t, 2, [vec(t, w, 1)])
    assert dual(LinearCode.full(t, 2)).dim == 0
    self_dual = LinearCode.from_generators(t, 2, [vec(t, 1, 1)])
    assert dual(self_dual) == self_dual


def test_degeneracy_examples():
    t = gf4()
    w = t.generator()
    assert is_rank_degenerate(LinearCode.from_generators(t, 2, [vec(t, 1, 1)]))
    assert not is_rank_degenerate(LinearCode.from_generators(t, 2, [vec(t, 1, w)]))
    assert is_rank_degenerate(LinearCode.zero(t, 2))


def test_closure_examples():
    t = gf4()
    w = t.generator()
    c = LinearCode.from_generators(t, 2, [vec(t, 1, w)])
    assert closure(c) == LinearCode.full(t, 2)
    ext = LinearCode.from_generators(t, 2, [vec(t, 1, 1)])
    assert closure(ext) == ext
    z = LinearCode.zero(t, 2)
    assert closure(z) == z
    assert closure_oracle(c) == LinearCode.full(t, 2)
    assert closure_oracle(ext) == ext
    assert closure_oracle(z) == z


def test_closure_takes_each_rank_support_once_per_tower(monkeypatch):
    # built apart from helpers.gf8, so its code table starts empty
    fresh = make_tower(PrimeField(2), [1, 1, 0, 1])
    codes = [c for n in range(1, 4) for c in all_codes(fresh, n)]
    asked = _count_calls(monkeypatch, "rank_support_code")
    closures = [closure(c) for c in codes]
    assert [closure(c) for c in codes] == closures and all(closure(s) is s for s in closures)
    # an extended code is its own closure, and every closure is the population's one code for it
    ids = {id(c) for c in codes}
    assert all(id(s) in ids for s in closures)
    assert [closure(c) is c for c in codes] == [is_extended(c) for c in codes]
    assert len(asked) == len(codes) and {id(args[0]) for args in asked} == ids
    assert all(closure_oracle(c) == s for c, s in zip(codes, closures))
    # an equal code on a tower built apart finds an equal closure of its own tower,
    # which is itself when it is extended
    other = make_tower(PrimeField(2), [1, 1, 0, 1])
    for c, s in zip(codes, closures):
        apart = LinearCode(other, c.length, c.space)
        star = closure(apart)
        assert apart is not c and star == s and star is not s
        assert star is (apart if s is c else LinearCode(other, s.length, s.space))


def test_one_code_per_space_per_tower():
    # built apart from helpers.gf8, so its code table starts empty
    t = make_tower(PrimeField(2), [1, 1, 0, 1])
    space = Subspace.from_vectors(t.L, 2, [vec(t, 1, t.generator())])
    assert LinearCode(t, 2, space) is LinearCode(t, 2, space)
    codes = [c for n in range(1, 3) for c in all_codes(t, n)]
    for C in codes:
        assert dual(dual(C)) is C
        assert closure(C) is extend_to_L(rank_support_code(C))
        assert galois_closure(C) is closure(C)
    # a code made anew, by generators or as L^n or 0, is the population's code
    ids = {id(c) for c in codes}
    made = [LinearCode.from_generators(t, 2, [vec(t, 1, t.generator())]), LinearCode.full(t, 2), LinearCode.zero(t, 1)]
    assert all(id(c) in ids for c in made)


def test_a_loaded_code_is_its_loaded_towers_one_code():
    t = make_tower(PrimeField(2), [1, 1, 1])  # built apart from helpers.gf4
    C = LinearCode.from_generators(t, 2, [vec(t, 1, t.generator())])
    supp, res, perp = rank_support_code(C), restriction(C), dual(C)
    first, second, last = pickle.loads(pickle.dumps([C, perp, C]))
    loaded = first.tower
    assert loaded == t and loaded is not t and second.tower is loaded
    assert first is last and first == C and second == perp
    assert first is LinearCode(loaded, 2, C.space) and second is LinearCode(loaded, 2, perp.space)
    # a loaded code starts with empty slots, and its dual is the loaded dual
    assert first._rsupp is first._dual is first._res is first._closure is None
    assert dual(first) is second and dual(second) is first
    assert (rank_support_code(first), restriction(first)) == (supp, res)


def test_a_k_space_is_refused_before_the_code_table_is_read():
    # over GF(4)/GF(2) the k-codes of GF(2)^2 are the L-codes of its embedding
    t = make_tower(PrimeField(2), [1, 1, 1])
    live = LinearCode.from_generators(t, 2, [vec(t, 1, 1)])
    kspace = Subspace.from_vectors(t.k, 2, [[t.k.one(), t.k.one()]])
    assert kspace._codes == live.space._codes
    with pytest.raises(TowerMismatch):
        LinearCode(t, 2, kspace)


def test_a_k_subspace_must_live_in_k_n():
    t = gf4()
    with pytest.raises(TowerMismatch, match="subspace does not live in k\\^n for this tower"):
        KSubspace(t, 2, Subspace.full(t.L, 2))


def test_closure_oracle_refuses_an_infinite_k():
    with pytest.raises(InfiniteField, match="closure_oracle enumerates k-subspaces; k is infinite"):
        closure_oracle(LinearCode.full(qtheta(), 2))

def test_a_k_space_never_equals_a_code_with_its_codes():
    # equality and hashing read the class, the tower, the length and the space
    t, apart = make_tower(PrimeField(2), [1, 1, 1]), make_tower(PrimeField(2), [1, 1, 1])
    live = LinearCode.from_generators(t, 2, [vec(t, 1, 1)])
    kspace = KSubspace(t, 2, Subspace.from_vectors(t.k, 2, [[t.k.one(), t.k.one()]]))
    assert kspace.space._codes == live.space._codes and kspace.dim == live.dim == 1
    assert kspace != live and live != kspace and len({kspace, live}) == 2
    assert rank_support_code(live) == kspace and extend_to_L(kspace) is live
    twin = LinearCode.from_generators(apart, 2, [vec(apart, 1, 1)])
    k_twin = KSubspace(apart, 2, Subspace.from_codes(apart.k, 2, kspace.space._codes))
    assert twin is not live and twin == live and hash(twin) == hash(live)
    assert k_twin == kspace and hash(k_twin) == hash(kspace) and k_twin != twin


def test_each_restriction_runs_once_per_code_of_a_population(monkeypatch):
    # built apart from helpers.gf8, so no code of it has a filled slot
    t = make_tower(PrimeField(2), [1, 1, 0, 1])
    codes = [c for n in range(1, 3) for c in all_codes(t, n)]
    calls = _count_calls(monkeypatch, "tail_subspace")
    for C in codes:
        check_delsarte(C, 0)
        is_rank_degenerate(C)
    # Res(C^perp) is the restriction of a code of the population, taken once
    assert len(codes) == 13 and len(calls) == 13


def test_closure_sums_are_summed_once_per_pair_of_closures(monkeypatch):
    # GF(16)/GF(2) at n = 2: 19 codes, and 5 closures, one per W ⊆ GF(2)^2
    fresh = make_tower(PrimeField(2), [1, 1, 0, 0, 1])
    pairs = list(itertools.product(all_codes(fresh, 2), repeat=2))
    star_pairs = {(closure(a).space, closure(b).space) for a, b in pairs}
    summed, real = [], verify.subspace_sum
    monkeypatch.setattr(verify, "subspace_sum", lambda a, b: summed.append((a, b)) or real(a, b))
    assert all(check_closure_pair(pair, 0) == 1 for pair in pairs)
    # C + C' for every pair, and C* + C'* once per distinct pair of closures
    assert len(pairs) == 19 * 19 and len(star_pairs) == 5 * 5
    assert len(summed) == len(pairs) + len(star_pairs) and len(fresh._memo.closure_sums) == len(star_pairs)
    summed.clear()
    assert all(check_closure_pair(pair, 0) == 1 for pair in pairs) and len(summed) == len(pairs)


def _expansion_in_basis(t, c, basis):
    """The rows over k of c's coordinates in another k-basis of L.

    Column i of the transition matrix T holds basis[i]'s power-basis
    coordinates, so the rows are T^-1 times c's power-basis expansion; T^-1
    is read off the RREF of [T | I].
    """
    k, m = t.k, t.degree
    transition = expansion(t, basis)
    identity = [[k.one() if i == j else k.zero() for j in range(m)] for i in range(m)]
    reduced, pivots = rref_reference(k, [row + eye for row, eye in zip(transition, identity)], 2 * m)
    assert pivots == list(range(m)), "the family is not a basis"
    inverse = [row[m:] for row in reduced]
    power = expansion(t, c)
    return [[sum((inverse[i][l] * power[l][j] for l in range(m)), k.zero()) for j in range(len(c))]
            for i in range(m)]


def test_basis_independence_of_rank_support():
    t4, t8 = gf4(), gf8()
    w4 = t4.generator()
    w8 = t8.generator()
    alt_bases = {
        id(t4): [[w4, t4.L.one()], [t4.L.one(), t4.L.one() + w4]],
        id(t8): [[t8.L.one() + w8, w8, w8 * w8], [w8 * w8, w8, t8.L.one()]],
    }
    for t, n in ((t4, 1), (t4, 2), (t8, 2)):
        for basis in alt_bases[id(t)]:
            for c in all_vectors(t, n):
                assert Subspace.from_vectors(t.k, n, _expansion_in_basis(t, c, basis)) == rank_support_vec(t, c).space

    q = qtheta()
    theta = q.generator()
    basis = [q.L.one(), theta + 1, theta * theta]
    rng = random.Random(31)
    from helpers import random_rational_vector

    for _ in range(25):
        c = random_rational_vector(rng, q, 3)
        assert Subspace.from_vectors(q.k, 3, _expansion_in_basis(q, c, basis)) == rank_support_vec(q, c).space


def _sweep_properties(t, codes):
    full_k = Subspace.full(t.k, codes[0].length)
    for c in codes:
        supp = rank_support_code(c)
        res = restriction(c)
        cd = dual(c)
        # sandwich: Res(C) ⊆ Rsupp(C), C ⊆ Rsupp(C)_L
        assert all(supp.space.contains(r) for r in res.space.rows)
        star = closure(c)
        assert all(star.space.contains(g) for g in c.space.rows)
        # Delsarte generalization
        assert orthogonal_complement(res.space) == rank_support_code(cd).space
        # trace identity (all shipped towers are separable)
        assert trace_image(c) == supp
        # Res = Tr iff extended
        assert (res == trace_image(c)) == is_extended(c)
        # closure laws
        assert closure(star) == star
        assert star.dim == supp.dim >= c.dim
        assert rank_support_code(star) == supp
        if t.k.order is not None:
            assert closure_oracle(c) == star
        # dual of extended is extended; degeneracy criterion
        if is_extended(c):
            assert is_extended(cd)
        assert is_rank_degenerate(c) == (supp.space != full_k)


def test_property_sweep_small_towers():
    for build, n in SMALL_SWEEPS:
        t = build()
        _sweep_properties(t, all_codes(t, n))


def test_sum_rule_exhaustive_gf4():
    t = gf4()
    codes = all_codes(t, 2)
    for a in codes:
        for b in codes:
            lhs = closure(LinearCode(t, 2, subspace_sum(a.space, b.space)))
            rhs = subspace_sum(closure(a).space, closure(b).space)
            assert lhs.space == rhs


def test_property_sweep_q_theta_random():
    codes = random_q_codes(200, seed=20240521)
    by_len = {}
    for c in codes:
        by_len.setdefault(c.length, []).append(c)
    for n, group in by_len.items():
        _sweep_properties(qtheta(), group)
    # sum rule on random pairs of equal length
    rng = random.Random(77)
    for n, group in by_len.items():
        if len(group) < 2:
            continue
        t = qtheta()
        for _ in range(30):
            a, b = rng.choice(group), rng.choice(group)
            lhs = closure(LinearCode(t, n, subspace_sum(a.space, b.space)))
            rhs = subspace_sum(closure(a).space, closure(b).space)
            assert lhs.space == rhs


def test_embed_and_rational_part_roundtrip():
    t = gf8()
    rows = [[t.k.from_int(c) for c in r] for r in ([1, 0, 1], [0, 1, 1])]
    for r in rows:
        v = embed_vector(t, r)
        assert rational_part(t, v) == r
    w = t.generator()
    assert rational_part(t, vec(t, 1, w, 0)) is None
