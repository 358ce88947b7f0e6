"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer or subspace equality); no numeric slack
anywhere.  The exhaustive populations are the towers GF(4)/GF(2) with
n in {1,2}, GF(8)/GF(2) with n in {1,2,3}, GF(9)/GF(3) with n in {1,2};
the randomized population is 200 seeded codes over Q(t), t^3 = 2.
"""

import itertools
import json
import random

from helpers import all_codes, gf4, gf8, gf9, random_q_codes
from rankweight.linalg import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    orthogonal_complement,
    subspace_sum,
)
from rankweight.ranksupport import (
    LinearCode,
    closure,
    closure_oracle,
    dual,
    is_extended,
    rank_support_code,
    rank_support_vec,
    restriction,
    trace_image,
)
from rankweight.verify import TowerTask, VerifyPlan, run_verify
from rankweight.weights import (
    find_witness,
    maxwt,
    verify_witness,
    weight_Dr,
    weight_Mr,
    weight_OSr,
    weight_dRr,
)

SWEEP = [
    (gf4, (1, 2)),
    (gf8, (1, 2, 3)),
    (gf9, (1, 2)),
]

Q_CODES_SEED = 20240229
Q_CODES_COUNT = 200


def _sweep_codes():
    for build, lengths in SWEEP:
        tower = build()
        for n in lengths:
            yield tower, n, all_codes(tower, n)


def test_criterion_1_four_definition_equivalence():
    checked = 0
    for tower, n, codes in _sweep_codes():
        assert n <= tower.degree
        for c in codes:
            for r in range(1, c.dim + 1):
                values = (
                    weight_dRr(c, r),
                    weight_Mr(c, r),
                    weight_OSr(c, r),
                    weight_Dr(c, r),
                )
                assert len(set(values)) == 1, (c, r, values)
                checked += 1
    print(f"PASS criterion 1: four-definition equivalence ({checked} (C, r) cells, exact)")


def test_criterion_2_witness_existence():
    checked = 0
    for tower, n, codes in _sweep_codes():
        assert tower.degree >= n
        for c in codes:
            w = find_witness(c)
            assert w is not None, c
            assert rank_support_vec(tower, w) == rank_support_code(c)
            assert verify_witness(c, w)
            checked += 1
    print(f"PASS criterion 2: witness existence for m >= n ({checked} codes, zero failures)")


def test_criterion_3_witness_necessity():
    tower = gf4()
    full3 = LinearCode.full(tower, 3)
    target = rank_support_code(full3)
    assert target.dim == 3
    nonzero = 0
    for c in all_nonzero_vectors(tower, 3):
        nonzero += 1
        assert rank_support_vec(tower, c) != target
    assert nonzero == 63
    assert maxwt(full3) == 2 < 3
    assert find_witness(full3) is None
    print("PASS criterion 3: no witness among all 63 nonzero vectors of GF(4)^3; maxwt 2 < 3")


def all_nonzero_vectors(tower, n):
    elems = list(tower.L.elements())
    for c in itertools.product(elems, repeat=n):
        if any(c):
            yield list(c)


def test_criterion_4_delsarte_generalization():
    checked = 0
    for tower, n, codes in _sweep_codes():
        for c in codes:
            assert orthogonal_complement(restriction(c).space) == rank_support_code(dual(c)).space
            checked += 1
    for c in random_q_codes(Q_CODES_COUNT, seed=Q_CODES_SEED):
        assert orthogonal_complement(restriction(c).space) == rank_support_code(dual(c)).space
        checked += 1
    print(f"PASS criterion 4: Res(C)^perp = Rsupp(C^perp) ({checked} codes, exact rationals included)")


def test_criterion_5_closure_laws():
    checked_closure = 0
    for tower, n, codes in _sweep_codes():
        for c in codes:
            star = closure(c)
            assert closure_oracle(c) == star
            assert star.dim == rank_support_code(c).dim
            checked_closure += 1
    # sum rule: every ordered pair in the GF(4), n = 2 sweep
    t4 = gf4()
    codes4 = all_codes(t4, 2)
    pairs = 0
    for a in codes4:
        for b in codes4:
            lhs = closure(LinearCode(t4, 2, subspace_sum(a.space, b.space)))
            assert lhs.space == subspace_sum(closure(a).space, closure(b).space)
            pairs += 1
    assert pairs == len(codes4) ** 2
    # ... and 500 seeded random pairs over GF(8), n = 3
    t8 = gf8()
    codes8 = all_codes(t8, 3)
    rng = random.Random(424242)
    for _ in range(500):
        a, b = rng.choice(codes8), rng.choice(codes8)
        lhs = closure(LinearCode(t8, 3, subspace_sum(a.space, b.space)))
        assert lhs.space == subspace_sum(closure(a).space, closure(b).space)
        pairs += 1
    # dim C* = wt_R(C) over Q(t) as well
    q_checked = 0
    for c in random_q_codes(Q_CODES_COUNT, seed=Q_CODES_SEED):
        star = closure(c)
        assert star.dim == rank_support_code(c).dim
        assert closure(star) == star
        q_checked += 1
    print(
        f"PASS criterion 5: closure laws ({checked_closure} oracle matches, {pairs} sum-rule pairs, "
        f"{q_checked} rational codes)"
    )


def test_criterion_6_trace_identity():
    checked = 0
    for tower, n, codes in _sweep_codes():
        for c in codes:
            assert trace_image(c) == rank_support_code(c)
            checked += 1
    for c in random_q_codes(Q_CODES_COUNT, seed=Q_CODES_SEED):
        assert trace_image(c) == rank_support_code(c)
        checked += 1
    print(f"PASS criterion 6: Tr(C) = Rsupp(C) on separable towers ({checked} codes)")


def test_criterion_7_constructive_witness_paths():
    from rankweight.linalg import decode_rows
    from rankweight.weights import _witness_extended, _witness_split

    # (a): every extended code with dim <= m gets a search-free witness
    extended_checked = 0
    for tower, n, codes in _sweep_codes():
        for c in codes:
            if not is_extended(c) or c.dim > tower.degree:
                continue
            w = _witness_extended(c)
            assert w is not None
            assert verify_witness(c, decode_rows(tower.L, [w])[0])
            extended_checked += 1

    # (b): 100 constructed splittings C = C1 (+) L c2 with c2 rational
    rng = random.Random(77)
    towers = [gf4(), gf8(), gf9()]
    built = 0
    attempts = 0
    while built < 100:
        attempts += 1
        assert attempts < 10000, "splitting construction should not be this hard"
        tower = rng.choice(towers)
        n = rng.randint(2, 3 if tower is gf8() else 2)
        pool = list(tower.L.elements())
        dim1 = rng.randint(1, max(1, n - 1))
        c1 = LinearCode.from_generators(
            tower, n, [[rng.choice(pool) for _ in range(n)] for _ in range(dim1)]
        )
        if c1.dim == 0:
            continue
        kpool = list(tower.k.elements())
        c2 = [tower.embed(rng.choice(kpool)) for _ in range(n)]
        if not any(c2) or c1.space.contains(c2):
            continue
        total = LinearCode(
            tower, n, subspace_sum(c1.space, Subspace.from_vectors(tower.L, n, [c2]))
        )
        if rank_support_code(total).dim > tower.degree:
            continue  # the lemma needs dim C* <= m
        w = _witness_split(total, seed=0)
        assert w is not None
        assert verify_witness(total, decode_rows(tower.L, [w])[0])
        built += 1
    print(
        f"PASS criterion 7: constructive paths ({extended_checked} extended codes via (a), "
        f"{built} splittings via (b), zero failures)"
    )


def test_criterion_8_infrastructure():
    from rankweight.fields import PrimeField

    for q, build in ((2, None), (3, None), (4, gf4), (8, gf8), (9, gf9)):
        field = build().L if build else PrimeField(q)
        for n in range(1, 5):
            for r in range(0, n + 1):
                spaces = list(enumerate_subspaces(field, n, r))
                assert len(spaces) == gaussian_binomial(n, r, q)
                assert len(set(spaces)) == len(spaces)

    plan = lambda w: VerifyPlan(
        towers=[TowerTask(2, (1, 1, 1), max_n=2), TowerTask(3, (1, 0, 1), max_n=2)],
        theorem="all",
        seed=31337,
        workers=w,
    )
    summaries = [json.dumps(run_verify(plan(w)), indent=2) for w in (1, 2, 8)]
    assert summaries[0] == summaries[1] == summaries[2]
    print("PASS criterion 8: subspace censuses match Gaussian binomials; verify bit-reproducible over 1/2/8 workers")
