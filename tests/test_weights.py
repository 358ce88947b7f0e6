"""Rank distance, the four generalized weights, witness strategies."""

import random
import re
from collections import Counter

import pytest

from helpers import (
    all_codes,
    gf3_degree_one,
    gf4,
    gf8,
    gf9,
    gf16_over_gf2,
    gf16_over_gf4,
    is_witness_reference,
    qtheta,
    random_q_codes,
    random_rational_vector,
    vec,
)
from rankweight import weights
from rankweight.errors import AmbientMismatch, BadR, FieldMismatch, InfiniteField, SearchExhausted, ZeroCode
from rankweight.fields import FieldElement, PrimeField, make_tower
from rankweight.linalg import Subspace, _encode, decode_rows, enumerate_subspaces, gaussian_binomial, subspace_sum
from rankweight.ranksupport import (
    KSubspace,
    LinearCode,
    closure,
    embed_vector,
    extend_to_L,
    is_extended,
    rank_support_code,
    rank_support_vec,
    restriction,
)
from rankweight.weights import (
    _subcodes,
    extend_witness_by_rational,
    find_witness,
    maxwt,
    rank_distance,
    verify_witness,
    weight_Dr,
    weight_Mr,
    weight_OSr,
    weight_dRr,
    weight_report,
)


def code(t, n, *rows):
    return LinearCode.from_generators(t, n, [vec(t, *r) for r in rows])


def test_rank_distance_examples():
    t = gf4()
    w = t.generator()
    assert rank_distance(code(t, 2, (1, w))) == 2
    assert rank_distance(code(t, 2, (1, 1))) == 1
    assert rank_distance(LinearCode.full(t, 2)) == 1
    with pytest.raises(ZeroCode):
        rank_distance(LinearCode.zero(t, 2))
    q = qtheta()
    with pytest.raises(InfiniteField):
        rank_distance(code(q, 2, (1, q.generator())))


def test_maxwt_examples():
    t = gf4()
    w = t.generator()
    assert maxwt(code(t, 2, (1, w))) == 2
    assert maxwt(LinearCode.zero(t, 3)) == 0
    full3 = LinearCode.full(t, 3)
    assert maxwt(full3) == 2  # m = 2 rows cap the weight
    assert rank_support_code(full3).dim == 3


def test_weight_dRr_examples():
    t8 = gf8()
    w = t8.generator()
    assert weight_dRr(code(t8, 3, (1, w, w * w)), 1) == 3
    t = gf4()
    full = LinearCode.full(t, 2)
    assert weight_dRr(full, 1) == 1
    assert weight_dRr(full, 2) == 2
    assert weight_dRr(code(t, 2, (1, 1)), 1) == 1


def test_weight_Mr_examples():
    t = gf4()
    w = t.generator()
    assert weight_Mr(code(t, 2, (1, w)), 1) == 2
    assert weight_Mr(code(t, 2, (1, 1)), 1) == 1
    assert weight_Mr(LinearCode.full(t, 2), 2) == 2


def test_weight_OSr_examples():
    t = gf4()
    w = t.generator()
    assert weight_OSr(code(t, 2, (1, w)), 1) == 2
    assert weight_OSr(LinearCode.full(t, 2), 1) == 1
    assert weight_OSr(code(t, 2, (1, 1)), 1) == 1


def test_weight_Dr_examples():
    t = gf4()
    w = t.generator()
    assert weight_Dr(code(t, 2, (1, w)), 1) == 2
    assert weight_Dr(LinearCode.full(t, 2), 2) == 2
    assert weight_Dr(code(t, 2, (1, 1)), 1) == 1


def test_bad_r():
    t = gf4()
    c = code(t, 2, (1, 1))
    for fn in (weight_dRr, weight_Mr, weight_OSr, weight_Dr):
        with pytest.raises(BadR):
            fn(c, 0)
        with pytest.raises(BadR):
            fn(c, 2)
    with pytest.raises(BadR):
        weight_dRr(LinearCode.zero(t, 2), 1)


def test_witness_constructive_extended():
    t = gf4()
    w = t.generator()
    c = find_witness(LinearCode.full(t, 2), strategy="constructive")
    assert c == vec(t, 1, w)  # 1*e1 + w*e2 over the canonical rational basis
    assert verify_witness(LinearCode.full(t, 2), c)


def test_witness_constructive_split():
    t = gf8()
    w = t.generator()
    c_code = code(t, 3, (1, w, 0), (0, 0, 1))
    c = find_witness(c_code, strategy="constructive")
    assert c == vec(t, 1, w, w * w)
    assert verify_witness(c_code, c)


def test_witness_absent_for_full_cube_over_gf4():
    t = gf4()
    full3 = LinearCode.full(t, 3)
    assert find_witness(full3) is None
    assert find_witness(full3, strategy="exhaustive") is None


def test_witness_provable_absence_by_dimension_over_q():
    # wt_R(C) = 4 > m = 3: provably no witness even over the infinite base
    q = qtheta()
    theta = q.generator()
    c = code(q, 4, (1, theta, 0, 0), (0, 0, 1, theta))
    assert rank_support_code(c).dim == 4
    assert find_witness(c) is None


def test_witness_random_over_q(monkeypatch):
    q = qtheta()
    theta = q.generator()
    c_code = code(q, 2, (1, theta))
    c = find_witness(c_code, strategy="random", seed=11)
    assert c is not None and verify_witness(c_code, c)
    monkeypatch.setattr(weights, "_RANDOM_ROUNDS", 0)
    with pytest.raises(SearchExhausted):
        find_witness(c_code, strategy="random", seed=11)


def test_the_random_search_starts_at_height_5_and_doubles(monkeypatch):
    """With round 1 refused, round 2 draws at height 10."""
    q = qtheta()
    c_code = code(q, 2, (1, q.generator()))
    heights, draw, check = [], weights._random_code, weights._is_witness
    monkeypatch.setattr(weights, "_random_code", lambda t, rng, h: heights.append(h) or draw(t, rng, h))
    monkeypatch.setattr(weights, "_is_witness", lambda C, c: heights[-1] != 5 and check(C, c))
    assert verify_witness(c_code, find_witness(c_code, strategy="random"))
    first = weights._RANDOM_TRIES_PER_ROUND * c_code.dim  # round 1's draws
    assert heights[:first] == [5] * first and set(heights[first:]) == {10}


def test_find_witness_is_seeded_with_0_by_default():
    q = qtheta()
    c_code = code(q, 2, (1, q.generator()))  # neither constructive path applies: the random search runs
    assert find_witness(c_code) == find_witness(c_code) == find_witness(c_code, seed=0)


def test_weight_report_over_q_is_undecided_when_the_search_gives_up(monkeypatch):
    def exhausted(*args):
        raise SearchExhausted("budget spent")

    monkeypatch.setattr(weights, "_witness_random", exhausted)
    q = qtheta()
    report = weight_report(code(q, 2, (1, q.generator())))
    assert report["witness"] is None and report["witness_status"] == "undecided"

def test_witness_constructive_over_q_extended():
    q = qtheta()
    c_code = code(q, 3, (1, 0, 1), (0, 1, 1))
    c = find_witness(c_code, strategy="constructive")
    assert verify_witness(c_code, c)


def test_witness_inapplicable_constructive_raises():
    q = qtheta()
    theta = q.generator()
    with pytest.raises(SearchExhausted):
        # not extended, Res = 0: neither constructive path applies
        find_witness(code(q, 2, (1, theta)), strategy="constructive")
    with pytest.raises(InfiniteField):
        find_witness(code(q, 2, (1, theta)), strategy="exhaustive")


@pytest.mark.parametrize("strategy", ["bogus", "", "Auto"])
def test_an_unknown_strategy_is_refused_before_any_path_runs(monkeypatch, strategy):
    """The zero code and a code with dim Rsupp > m have answers that need no
    search, and an unknown strategy is refused on them too."""
    q = qtheta()
    theta = q.generator()
    wide = code(q, 4, (1, theta, 0, 0), (0, 0, 1, theta))  # dim Rsupp 4 > m = 3
    calls = []
    monkeypatch.setattr(weights, "rank_support_code", lambda C: calls.append(C))
    for c in (LinearCode.zero(gf4(), 2), LinearCode.zero(q, 2), wide, LinearCode.full(gf4(), 2)):
        with pytest.raises(ValueError, match=f"unknown strategy {strategy!r}"):
            find_witness(c, strategy=strategy)
    assert calls == []


def test_extend_witness_step_direct():
    t = gf8()
    w = t.generator()
    c1 = vec(t, 1, w, 0)
    e = [t.k.from_int(x) for x in (0, 0, 1)]
    # the step works on codes: c1 over L's kernel, e over k's
    (c1_codes,) = _encode(t.L._kern, [c1], 3)
    (e_codes,) = _encode(t.k._kern, [e], 3)
    c = extend_witness_by_rational(t, c1_codes, e_codes)
    assert list(decode_rows(t.L, [c])[0]) == vec(t, 1, w, w * w)
    # absorbing a direction already in the support leaves the witness alone
    (e2_codes,) = _encode(t.k._kern, [[t.k.from_int(x) for x in (1, 0, 0)]], 3)
    assert list(decode_rows(t.L, [extend_witness_by_rational(t, c1_codes, e2_codes)])[0]) == c1


def test_extend_witness_refuses_a_c_of_rank_weight_m():
    """wt_R(c) = m leaves no expansion row to write e into."""
    t = gf4()
    (c_codes,) = _encode(t.L._kern, [vec(t, 1, t.generator(), 0)], 3)
    (e_codes,) = _encode(t.k._kern, [[t.k.from_int(x) for x in (0, 0, 1)]], 3)
    with pytest.raises(ValueError, match=re.escape("no spare expansion row: wt_R(c) = m already")):
        extend_witness_by_rational(t, c_codes, e_codes)

def test_zero_code_witness_and_report():
    t = gf4()
    z = LinearCode.zero(t, 2)
    assert find_witness(z) == vec(t, 0, 0)
    rep = weight_report(z)
    assert rep["rank_distance"] is None
    assert rep["hierarchy"] == []
    assert rep["degenerate"]


def test_weight_report_examples():
    t = gf4()
    w = t.generator()
    rep = weight_report(code(t, 2, (1, w)))
    assert rep["rank_distance"] == 2
    assert rep["hierarchy"] == [{"r": 1, "dRr": 2, "Mr": 2, "OSr": 2, "Dr": 2}]
    assert not rep["degenerate"]
    assert rep["witness"] is not None and "witness_status" not in rep  # found

    rep = weight_report(code(t, 2, (1, 1)))
    assert rep["hierarchy"] == [{"r": 1, "dRr": 1, "Mr": 1, "OSr": 1, "Dr": 1}]
    assert rep["degenerate"]


def test_weight_report_inapplicable_over_q():
    q = qtheta()
    theta = q.generator()
    rep = weight_report(code(q, 2, (1, theta)), witness_seed=5)
    assert rep["rank_distance"] is None
    assert rep["rank_distance_reason"] == "requires finite enumeration"
    assert rep["hierarchy"] and all(row["reason"] == "requires finite enumeration" for row in rep["hierarchy"])
    assert rep["witness"] is not None or rep["witness_status"] == "undecided"


SMALL_SWEEPS = [(gf4, 1), (gf4, 2), (gf8, 1), (gf8, 2), (gf9, 1), (gf9, 2)]


def test_equivalence_and_bounds_small_sweep():
    for build, n in SMALL_SWEEPS:
        t = build()
        m = t.degree
        assert n <= m
        for c in all_codes(t, n):
            prev = 0
            for r in range(1, c.dim + 1):
                vals = (weight_dRr(c, r), weight_Mr(c, r), weight_OSr(c, r), weight_Dr(c, r))
                assert len(set(vals)) == 1, (c, r, vals)
                assert r <= vals[0] <= n
                assert vals[0] >= prev
                prev = vals[0]
            if c.dim:
                assert rank_distance(c) == weight_dRr(c, 1)


def test_subcodes_are_canonical_and_counted():
    # Subspace trusts its rows, so the claim that S·G is already in RREF is checked here
    total = 0
    for build, max_n in ((gf4, 3), (gf9, 2), (gf8, 3)):
        t = build()
        for n in range(1, max_n + 1):
            for c in all_codes(t, n):
                for r in range(1, c.dim + 1):
                    subs = list(_subcodes(c, r))
                    assert len(subs) == gaussian_binomial(c.dim, r, t.L.order)
                    assert len(set(subs)) == len(subs)
                    for d in subs:
                        assert d.space == Subspace.from_vectors(t.L, n, d.space.rows)
                        assert all(c.space.contains(g) for g in d.space.rows)
                    total += len(subs)
    assert total == 1194


WEIGHT_NAMES = ("weight_dRr", "weight_Mr", "weight_OSr", "weight_Dr")


def _independence_cases():
    codes = [c for build, n in ((gf4, 3), (gf8, 2), (gf16_over_gf4, 2)) for c in all_codes(build(), n)]
    return [(c, r) for c in codes for r in range(1, c.dim + 1)]


def test_each_weight_is_computed_without_the_other_three(monkeypatch):
    # check_equivdef compares four computations only if no definition calls another
    cases = _independence_cases()
    expected = {name: [getattr(weights, name)(c, r) for c, r in cases] for name in WEIGHT_NAMES}

    def refuse(*args):
        raise AssertionError("a weight definition called another one")

    for name in WEIGHT_NAMES:
        with monkeypatch.context() as mp:
            for other in WEIGHT_NAMES:
                if other != name:
                    mp.setattr(weights, other, refuse)
            fn = getattr(weights, name)
            assert [fn(c, r) for c, r in cases] == expected[name], name


def test_OSr_and_Dr_never_read_the_restriction(monkeypatch):
    # d_R,r and M_r read "= r" off Res(C); a wrong Res(C) shows in check_equivdef only if OS_r and D_r do not
    cases = _independence_cases()
    names = ("weight_OSr", "weight_Dr")
    expected = {name: [getattr(weights, name)(c, r) for c, r in cases] for name in names}

    def refuse(C):
        raise AssertionError("OS_r or D_r read Res(C)")

    monkeypatch.setattr(weights, "restriction", refuse)
    for name in names:
        assert [getattr(weights, name)(c, r) for c, r in cases] == expected[name], name
    with pytest.raises(AssertionError, match="read Res"):
        weights.weight_Mr(cases[0][0], 1)  # the patch reaches the definitions that do read it


def _count_maxwt(monkeypatch):
    """Rebind weights.maxwt to record (length, space) of every code it walks."""
    walked, real = [], weights.maxwt

    def counted(D):
        walked.append((D.length, D.space))
        return real(D)

    monkeypatch.setattr(weights, "maxwt", counted)
    return walked


def test_weight_Dr_walks_each_distinct_closure_once_per_tower(monkeypatch):
    # built apart from helpers.gf8, so its D_r memo starts empty
    fresh = make_tower(PrimeField(2), [1, 1, 0, 1])
    codes = [c for n in range(1, 4) for c in all_codes(fresh, n)]
    cases = [(c, r) for c in codes for r in range(1, c.dim + 1)]
    closures = {(c.length, closure(D).space) for c, r in cases for D in _subcodes(c, r)}
    # a closure is W_L for a W ⊆ k^n of dim >= 1: 1, 3 + 1 and 7 + 7 + 1 of them for n = 1, 2, 3
    assert len(closures) == sum(gaussian_binomial(n, d, 2) for n in range(1, 4) for d in range(1, n + 1))
    walked = _count_maxwt(monkeypatch)
    values = [weight_Dr(c, r) for c, r in cases]
    assert len(walked) == len(set(walked)) and set(walked) <= closures
    assert values == [weight_dRr(c, r) for c, r in cases]  # n <= m: the theorem
    walked.clear()
    assert [weight_Dr(c, r) for c, r in cases] == values and walked == []


def test_weight_OSr_keeps_walking_after_weight_Dr(monkeypatch):
    # GF(8)/GF(2) and GF(4)/GF(2), built apart from helpers, so their D_r memos start empty
    towers = [make_tower(PrimeField(2), [1, 1, 0, 1]), make_tower(PrimeField(2), [1, 1, 1])]
    cases = [(c, r) for t in towers for n in (1, 2, 3) for c in all_codes(t, n) for r in range(1, c.dim + 1)]
    for c, r in cases:
        weight_Dr(c, r)
    assert all(t._memo.closure_maxwt for t in towers)
    walked = _count_maxwt(monkeypatch)
    stops = {}
    for c, r in cases:
        subcodes = list(_subcodes(c, r))
        weights_of = [maxwt(D) for D in subcodes]  # the unpatched maxwt, imported before the patch
        t = c.tower
        floor = r if gaussian_binomial(c.length, r - 1, t.k.order) < t.L.order else 1  # the counting floor
        stop = weights_of.index(floor) + 1 if floor in weights_of else len(subcodes)  # _least stops there
        walked.clear()
        assert weight_OSr(c, r) == min(weights_of)
        assert walked == [(D.length, D.space) for D in subcodes[:stop]]
        if (c.dim, r) == (3, 2):
            assert 1 not in weights_of  # no subcode reaches weight 1, so only a floor of 2 ends the walk early
            stops[t.L.order] = stop, len(subcodes)
    # L^3 at r = 2: [3, 1]_2 = 7 is below |L| = 8, so the walk ends early; not below |L| = 4, so it goes on
    assert stops[8][0] < stops[8][1] == 73 and stops[4][0] == stops[4][1] == 21


def test_weight_Mr_extends_each_W_once_per_tower(monkeypatch):
    fresh = make_tower(PrimeField(2), [1, 1, 0, 1])
    cases = [(c, r) for n in range(1, 4) for c in all_codes(fresh, n) for r in range(1, c.dim + 1)]
    expected = [weight_dRr(c, r) for c, r in cases]  # n <= m: the theorem
    made, real = [], weights.enumerate_subspaces

    def recording(field, ambient_dim, dim):
        for s in real(field, ambient_dim, dim):
            if field.order == 2:  # a W ⊆ k^n
                made.append((ambient_dim, s))
            yield s

    monkeypatch.setattr(weights, "enumerate_subspaces", recording)
    assert [weight_Mr(c, r) for c, r in cases] == expected
    subspaces = sum(gaussian_binomial(n, d, 2) for n in range(1, 4) for d in range(1, n + 1))
    assert len(made) == len(set(made)) <= subspaces
    # above the bound nothing is kept, and every scan makes its W again
    again = make_tower(PrimeField(2), [1, 1, 0, 1])
    monkeypatch.setattr(weights, "_SUPERSPACE_LIMIT", 1)
    made.clear()
    cases = [(c, r) for n in range(1, 4) for c in all_codes(again, n) for r in range(1, c.dim + 1)]
    assert [weight_Mr(c, r) for c, r in cases] == expected
    assert again._memo.subspace_codes == {} and len(made) > subspaces


def test_subcode_coefficients_are_enumerated_once_per_tower(monkeypatch):
    fresh = make_tower(PrimeField(2), [1, 1, 0, 1])
    cases = [(c, r) for n in range(1, 4) for c in all_codes(fresh, n) for r in range(1, c.dim + 1)]
    enumerated, real = [], weights.enumerate_subspaces

    def counting(field, ambient_dim, dim):
        if field is fresh.L:
            enumerated.append((ambient_dim, dim))
        return real(field, ambient_dim, dim)

    monkeypatch.setattr(weights, "enumerate_subspaces", counting)
    kept = {name: [getattr(weights, name)(c, r) for c, r in cases] for name in WEIGHT_NAMES}
    kept_subcodes = [[D.space for D in _subcodes(c, r)] for c, r in cases]
    # one enumeration of L^(dim C) per (dim C, r), read by d_R,r, OS_r and D_r alike
    assert sorted(enumerated) == sorted({(c.dim, r) for c, r in cases})
    assert len(set(enumerated)) == len(enumerated)
    assert {(n, d) for q, n, d in fresh._memo.subspace_codes if q == fresh.L.order} == set(enumerated)
    # above the bound nothing is kept: every scan enumerates again, and finds the same subcodes in order
    again = make_tower(PrimeField(2), [1, 1, 0, 1])
    monkeypatch.setattr(weights, "_SUPERSPACE_LIMIT", 1)
    cases = [(c, r) for n in range(1, 4) for c in all_codes(again, n) for r in range(1, c.dim + 1)]
    assert [[D.space for D in _subcodes(c, r)] for c, r in cases] == kept_subcodes
    assert {name: [getattr(weights, name)(c, r) for c, r in cases] for name in WEIGHT_NAMES} == kept
    assert again._memo.subspace_codes == {}


# GF(3)/GF(3), n <= 3: (n, dim C, r) -> ((d_Rr, M_r, OS_r, D_r), number of codes)
DEGREE_ONE_WEIGHTS = {
    (1, 1, 1): ((1, 1, 1, 1), 1),
    (2, 1, 1): ((1, 1, 1, 1), 4),
    (2, 2, 1): ((1, 1, 1, 1), 1),
    (2, 2, 2): ((2, 2, 1, 1), 1),
    (3, 1, 1): ((1, 1, 1, 1), 13),
    (3, 2, 1): ((1, 1, 1, 1), 13),
    (3, 2, 2): ((2, 2, 1, 1), 13),
    (3, 3, 1): ((1, 1, 1, 1), 1),
    (3, 3, 2): ((2, 2, 1, 1), 1),
    (3, 3, 3): ((3, 3, 1, 1), 1),
}


def test_a_degree_one_tower_keeps_one_list_for_k_and_L():
    """|k| = |L|: the codes of k and L agree, so the two read one kept list,
    and the four weights keep their values."""
    t = gf3_degree_one.__wrapped__()  # a fresh tower, with an empty memo
    values = Counter((n, c.dim, r, weights.weight_values(c, r))
                     for n in range(1, 4) for c in all_codes(t, n) for r in range(1, c.dim + 1))
    assert values == Counter({(*key, v): count for key, (v, count) in DEGREE_ONE_WEIGHTS.items()})
    kept = t._memo.subspace_codes
    assert kept and all(q == 3 for q, _, _ in kept)
    for _, n, r in list(kept):
        assert weights._subspace_codes(t, t.k, n, r) is weights._subspace_codes(t, t.L, n, r)


@pytest.mark.parametrize("build, max_n", [(gf8, 3), (gf16_over_gf4, 2)])
def test_each_kept_W_is_its_own_extension(build, max_n):
    """weight_Mr reads the canonical codes of W as W_L's: over a finite tower
    ``extend_to_L`` changes no code."""
    t = build()
    for n in range(1, max_n + 1):
        for d in range(n + 1):
            spaces = list(enumerate_subspaces(t.k, n, d))
            assert list(weights._subspace_codes(t, t.k, n, d)) == [W._codes for W in spaces]
            for W in spaces:
                assert extend_to_L(KSubspace(t, n, W)).space._codes == W._codes


def test_weight_Mr_rank_test_matches_the_literal_sum():
    # dim(C ∩ W_L) = dim C + dim W - dim(C + W_L), for every code, W_L and r
    for build in (gf4, gf8, gf9, gf16_over_gf4):
        t = build()
        kern = t.L._kern
        for n in range(1, 4):
            spaces = [extend_to_L(KSubspace(t, n, w)).space
                      for d in range(n + 1) for w in enumerate_subspaces(t.k, n, d)]
            for c in all_codes(t, n):
                for v in spaces:
                    meet = c.dim + v.dim - subspace_sum(c.space, v).dim
                    for r in range(1, c.dim + 1):
                        assert weights._meets(kern, c.space._codes, v._codes, c.dim - r) == (meet >= r)


def test_witness_sweep_small_towers():
    for build, n in SMALL_SWEEPS:
        t = build()
        for c in all_codes(t, n):
            wt = rank_support_code(c).dim
            witness = find_witness(c)
            assert witness is not None, c  # m >= n: existence is guaranteed
            assert rank_support_vec(t, witness) == rank_support_code(c)
            assert verify_witness(c, witness)
            assert wt <= t.degree
            if c.dim and not is_extended(c):
                assert c.dim <= t.degree - 1
            # maxwt(C) = wt_R(C) exactly when a witness exists (here: always)
            assert maxwt(c) == wt
            exhaustive = find_witness(c, strategy="exhaustive")
            assert exhaustive is not None


def test_witness_necessity_maxwt_gap():
    # nondegenerate code with m < n: no witness, and maxwt < wt_R
    t = gf4()
    for c in [LinearCode.full(t, 3)]:
        assert rank_support_code(c).dim == 3 > t.degree
        assert find_witness(c) is None
        assert maxwt(c) < rank_support_code(c).dim


def test_strategy_consistency():
    for build, n in SMALL_SWEEPS:
        t = build()
        for c in all_codes(t, n):
            try:
                constructive = find_witness(c, strategy="constructive")
            except SearchExhausted:
                continue
            exhaustive = find_witness(c, strategy="exhaustive")
            assert (constructive is None) == (exhaustive is None)
            if constructive is not None:
                assert verify_witness(c, constructive)
                assert verify_witness(c, exhaustive)


def test_counting_inequality_from_the_geometric_argument():
    # for every tower with m >= n = 2: projective points of k^2 are fewer
    # than rational points of the restricted projective line
    for build in (gf4, gf8, gf9):
        t = build()
        q = t.k.order
        big = t.L.order
        assert (q**2 - 1) // (q - 1) < (big**2 - 1) // (big - 1)


def test_q_theta_witness_population():
    for c in random_q_codes(60, seed=99):
        if rank_support_code(c).dim > c.tower.degree:
            assert find_witness(c, seed=1) is None
            continue
        w = find_witness(c, seed=1)
        assert w is not None
        assert verify_witness(c, w)
        assert rank_support_vec(c.tower, w) == rank_support_code(c)


# the FieldElement operators that compute; witness search must reach none of them
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "inverse")
STRATEGIES = ("auto", "constructive", "exhaustive", "random")


class ElementArithmetic(Exception):
    pass


def _split_codes(rng, t, count):
    """count codes C = C1 + L·e with e rational, not extended and with Res(C) != 0:
    the codes that reach the split lemma rather than the extended-code path.

    Such a code has a witness only when dim C <= m - 1, so t needs m >= 3.
    """
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        if t.L.order is None:
            c1 = random_rational_vector(rng, t, n)
            e = [t.embed(t.k.from_int(rng.randint(-3, 3))) for _ in range(n)]
        else:
            pool, kpool = list(t.L.elements()), list(t.k.elements())
            c1 = [rng.choice(pool) for _ in range(n)]
            e = [t.embed(rng.choice(kpool)) for _ in range(n)]
        C = LinearCode.from_generators(t, n, [c1, e])
        if (C.dim == 2 and not is_extended(C) and restriction(C).dim
                and rank_support_code(C).dim <= t.degree):
            out.append(C)
    return out


def test_witness_search_builds_no_element_arithmetic(monkeypatch):
    rng = random.Random(16)
    codes = [c for t in (gf4(), gf9(), gf16_over_gf4()) for n in (1, 2) for c in all_codes(t, n)]
    codes += random_q_codes(20, seed=16)
    split = [c for t in (gf8(), gf16_over_gf2(), qtheta()) for c in _split_codes(rng, t, 6)]
    codes += split

    def refuse(*args):
        raise ElementArithmetic("witness search used FieldElement arithmetic")

    split_answers = []
    found = []
    with monkeypatch.context() as mp:
        for attr in ARITHMETIC:
            mp.setattr(FieldElement, attr, refuse)
        split_path = weights._witness_split

        def spy(*args, **kwargs):
            out = split_path(*args, **kwargs)
            split_answers.append(out is not None)
            return out

        mp.setattr(weights, "_witness_split", spy)
        for c in codes:
            for strategy in STRATEGIES:
                try:
                    w = find_witness(c, strategy=strategy, seed=5)
                except (SearchExhausted, InfiniteField):
                    continue  # the strategy does not apply; only arithmetic is an error
                found.append((c, strategy, w))
        del split_answers[:]
        for c in split:
            assert find_witness(c, seed=5) is not None
        assert split_answers == [True] * len(split)  # each went through the split lemma
    assert {s for _, s, _ in found} == set(STRATEGIES)
    for c, strategy, w in found:
        assert w is not None, (c, strategy)  # m >= n on all of them
        assert is_witness_reference(c, w), (c, strategy)


def test_verify_witness_refuses_wrong_length_and_foreign_entries():
    t = gf4()
    w = t.generator()
    c = code(t, 2, (1, w))
    with pytest.raises(AmbientMismatch):
        verify_witness(c, vec(t, 1))
    with pytest.raises(FieldMismatch):
        verify_witness(c, vec(gf8(), 1, gf8().generator()))
    with pytest.raises(FieldMismatch):
        verify_witness(c, [1, 0])
    assert verify_witness(c, vec(t, w, w * w)) and not verify_witness(c, vec(t, 1, 1))
