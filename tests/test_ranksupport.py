"""Expansion matrices, rank supports, restriction, duals, closure."""

import itertools
import pickle
import random

import pytest

from helpers import (
    all_codes,
    all_vectors,
    gf3_degree_one,
    gf4,
    gf8,
    gf9,
    gf16_over_gf2,
    gf16_over_gf4,
    qtheta,
    random_q_codes,
    vec,
)
from rankweight import ranksupport
from rankweight.errors import InseparableTower, TowerMismatch
from rankweight.fields import (
    BaseFieldDescriptor,
    ExtensionField,
    ExtensionTower,
    PrimeField,
)
from rankweight.linalg import Subspace, enumerate_subspaces, orthogonal_complement, subspace_sum
from rankweight.ranksupport import (
    KSubspace,
    LinearCode,
    _restriction_direct,
    closure,
    closure_oracle,
    dual,
    embed_vector,
    expand_vector,
    extend_to_L,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    rational_part,
    restriction,
    trace_image,
    weight_of_vector,
)
from rankweight.verify import check_delsarte, check_trace, check_witness

SMALL_SWEEPS = [(gf4, 1), (gf4, 2), (gf8, 1), (gf8, 2), (gf9, 1), (gf9, 2)]


def k_space(tower, n, rows):
    return KSubspace(
        tower, n, Subspace.from_vectors(tower.k, n, [[tower.k.from_int(c) for c in r] for r in rows])
    )


def test_expand_gf4_example():
    t = gf4()
    w = t.generator()
    m = expand_vector(t, vec(t, w * w, 1))
    assert [[e.payload for e in row] for row in m.rows] == [[1, 1], [1, 0]]


def test_expand_zero_and_rational():
    t = gf4()
    m = expand_vector(t, vec(t, 0, 0, 0))
    assert all(not e for row in m.rows for e in row)
    m = expand_vector(t, vec(t, 1, 1, 0))
    assert [[e.payload for e in row] for row in m.rows] == [[1, 1, 0], [0, 0, 0]]


def test_expand_reassembles():
    rng = random.Random(3)
    for t in (gf4(), gf8(), gf9()):
        pool = list(t.L.elements())
        for _ in range(30):
            c = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            assert expand_vector(t, c).reassemble() == c


def test_expand_rejects_foreign_entries():
    t, other = gf4(), gf8()
    with pytest.raises(TowerMismatch):
        expand_vector(t, vec(other, 1, 0))


def test_rank_support_vec_examples():
    t = gf4()
    w = t.generator()
    s = rank_support_vec(t, vec(t, 1, w))
    assert s.space == Subspace.full(t.k, 2)
    assert weight_of_vector(t, vec(t, 1, w)) == 2
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
            assert (weight_of_vector(t, c) == 1) == scalable


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


def test_restriction_direct_route_matches_dual_route_and_literal_scan():
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
            direct = _restriction_direct(C)
            assert direct == orthogonal_complement(rank_support_code(dual(C)).space)
            assert direct == _literal_restriction(C)
    for C in random_q_codes(60, seed=23):
        direct = _restriction_direct(C)
        assert direct == orthogonal_complement(rank_support_code(dual(C)).space)
        assert all(C.space.contains(embed_vector(C.tower, r)) for r in direct.rows)


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
    # the embedded canonical basis over k is already the canonical basis over L
    for t in (gf4(), gf9(), gf16_over_gf4()):
        for n in (1, 2):
            for d in range(n + 1):
                for w in enumerate_subspaces(t.k, n, d):
                    literal = Subspace.from_vectors(t.L, n, [embed_vector(t, r) for r in w.rows])
                    assert extend_to_L(KSubspace(t, n, w)).space == literal


def _memo_codes():
    t, q = gf4(), qtheta()
    w, theta = t.generator(), q.generator()
    return [
        LinearCode.from_generators(t, 2, [vec(t, 1, w)]),
        # Res(C) = Q·e1 is nonzero, so the split witness path asks for it too
        LinearCode.from_generators(q, 3, [vec(q, 1, 0, 0), vec(q, 0, 1, theta)]),
    ]


def test_restriction_routes_run_once_per_code(monkeypatch):
    direct = ranksupport._restriction_direct
    calls = []

    def counting(C):
        calls.append(C)
        return direct(C)

    monkeypatch.setattr(ranksupport, "_restriction_direct", counting)
    for C in _memo_codes():
        check_witness(C, {"seed": 0})
        check_delsarte(C, {})
        check_trace(C, {})
        is_rank_degenerate(C)
        assert sum(1 for D in calls if D is C) == 1
        assert restriction(C) is restriction(C)
        assert dual(C) is dual(C)
        assert rank_support_code(C) is rank_support_code(C)


def test_code_with_filled_slots_survives_pickle():
    for C in _memo_codes():
        invariants = (rank_support_code(C), dual(C), restriction(C), is_rank_degenerate(C))
        copy = pickle.loads(pickle.dumps(C))
        assert copy == C and hash(copy) == hash(C)
        assert (rank_support_code(copy), dual(copy), restriction(copy), is_rank_degenerate(copy)) == invariants
        fresh = LinearCode(C.tower, C.length, C.space)
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


def test_trace_image_refuses_inseparable():
    k = PrimeField(2)
    bogus = ExtensionTower(BaseFieldDescriptor(2), k, ExtensionField(k, (0, 0, 1)))
    code = LinearCode.full(bogus, 1)
    with pytest.raises(InseparableTower):
        trace_image(code)


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
                assert rank_support_vec(t, c, basis=basis) == rank_support_vec(t, c)

    q = qtheta()
    theta = q.generator()
    basis = [q.L.one(), theta + 1, theta * theta]
    rng = random.Random(31)
    from helpers import random_rational_vector

    for _ in range(25):
        c = random_rational_vector(rng, q, 3)
        assert rank_support_vec(q, c, basis=basis) == rank_support_vec(q, c)


def test_alt_basis_must_be_a_basis():
    t = gf4()
    w = t.generator()
    with pytest.raises(ValueError):
        expand_vector(t, vec(t, 1, w), basis=[t.L.one(), t.L.one()])  # dependent family
    with pytest.raises(ValueError):
        expand_vector(t, vec(t, 1, w), basis=[t.L.one()])  # wrong size


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
