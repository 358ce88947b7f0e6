"""Rank distance, maximum weight, the four generalized rank weights, and
support-witness search.

The four r-th weights of a code C (1 <= r <= dim C):

* ``weight_dRr``  -- min over r-dim subcodes D of wt_R(D);
* ``weight_Mr``   -- min dim of an extended subspace V = W_L meeting C in
  dimension >= r, scanned by increasing dim W;
* ``weight_OSr``  -- min over r-dim subcodes of maxwt_R(D);
* ``weight_Dr``   -- min over r-dim subcodes of maxwt_R(D*).

All four provably coincide when n <= m; the implementations here stay
independent of that theorem (no cross-definition shortcuts), so the
equivalence can be checked rather than assumed.  The only short-circuits are
elementary bounds: wt_R(D) >= dim D for d_Rr, dim V >= r for M_r, and
wt_R(c) <= min(m, n) inside maxwt scans.

Witness search is constructive-first: extended codes get the explicit
sum-of-basis witness, codes with rational directions get the split-lemma
extension, and only the remainder falls back to exhaustive (finite base) or
randomized (infinite base) search.  Every candidate from every path is
verified through the closure criterion C ⊆ (Lc)*.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import (
    BadR,
    EquivalenceViolation,
    InfiniteField,
    InternalInvariantError,
    SearchExhausted,
    ZeroCode,
)
from .fields import ExtensionTower, FieldElement, random_rational_element
from .linalg import Subspace, enumerate_subspaces, subspace_sum
from .ranksupport import (
    KSubspace,
    LinearCode,
    embed_vector,
    extend_to_L,
    expansion_rows,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    restriction,
    support_space,
    weight_of_vector,
)

_RANDOM_TRIES_PER_ROUND = 200


def projective_coefficients(field, dim: int):
    """One representative per projective point of field^dim (first nonzero = 1)."""
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    for lead in range(dim):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(elems, repeat=dim - lead - 1):
            yield head + tail


def _combine(coeffs, gens, L, n: int):
    out = [L.zero()] * n
    for a, g in zip(coeffs, gens):
        if a:
            out = [x + a * y for x, y in zip(out, g)]
    return out


def _require_finite(C: LinearCode, what: str):
    if C.tower.L.order is None:
        raise InfiniteField(f"{what} enumerates codewords; {C.tower.L} is infinite")


def _check_r(C: LinearCode, r: int):
    if not 1 <= r <= C.dim:
        raise BadR(f"r = {r} outside 1..dim C = {C.dim}")


def rank_distance(C: LinearCode) -> int:
    """Minimum rank weight of a nonzero codeword."""
    if C.dim == 0:
        raise ZeroCode("the zero code has no nonzero codeword")
    _require_finite(C, "rank_distance")
    L, n = C.tower.L, C.length
    best = None
    for coeffs in projective_coefficients(L, C.dim):
        wt = weight_of_vector(C.tower, _combine(coeffs, C.space.rows, L, n))
        if best is None or wt < best:
            best = wt
            if best == 1:
                break
    return best


def _maxwt_gens(tower: ExtensionTower, gens, n: int) -> int:
    if not gens:
        return 0
    cap = min(tower.degree, n)
    best = 0
    for coeffs in projective_coefficients(tower.L, len(gens)):
        wt = weight_of_vector(tower, _combine(coeffs, gens, tower.L, n))
        if wt > best:
            best = wt
            if best == cap:
                break
    return best


def maxwt(D: LinearCode) -> int:
    """Maximum rank weight over the codewords of D (0 for the zero code)."""
    _require_finite(D, "maxwt")
    return _maxwt_gens(D.tower, D.space.rows, D.length)


def _subcode_generators(C: LinearCode, r: int):
    """Generator lists of every r-dimensional subcode of C, via coefficient space."""
    L, n = C.tower.L, C.length
    G = C.space.rows
    for s in enumerate_subspaces(L, C.dim, r):
        yield [_combine(row, G, L, n) for row in s.rows]


def weight_dRr(C: LinearCode, r: int) -> int:
    """Min support dimension of an r-dimensional subcode."""
    _check_r(C, r)
    _require_finite(C, "weight_dRr")
    t, n = C.tower, C.length
    best = None
    for gens in _subcode_generators(C, r):
        wt = support_space(t, gens, n).dim
        if best is None or wt < best:
            best = wt
            if best == r:  # wt_R(D) >= dim D always
                break
    return best


def weight_Mr(C: LinearCode, r: int) -> int:
    """Min dimension of an extended subspace meeting C in dimension >= r."""
    _check_r(C, r)
    _require_finite(C, "weight_Mr")
    t, n = C.tower, C.length
    for d in range(r, n + 1):  # dim(C ∩ V) <= dim V, so start at r
        for w in enumerate_subspaces(t.k, n, d):
            v = extend_to_L(KSubspace(t, n, w)).space
            meet_dim = C.dim + d - subspace_sum(C.space, v).dim
            if meet_dim >= r:
                return d
    raise AssertionError("unreachable: the full space always meets C in dim C")


def weight_OSr(C: LinearCode, r: int) -> int:
    """Min over r-dimensional subcodes of the maximum codeword weight."""
    _check_r(C, r)
    _require_finite(C, "weight_OSr")
    t, n = C.tower, C.length
    best = None
    for gens in _subcode_generators(C, r):
        wt = _maxwt_gens(t, gens, n)
        if best is None or wt < best:
            best = wt
            if best == 1:  # a nonzero codeword has weight >= 1
                break
    return best


def weight_Dr(C: LinearCode, r: int) -> int:
    """Min over r-dimensional subcodes of the maximum weight of the closure."""
    _check_r(C, r)
    _require_finite(C, "weight_Dr")
    t, n = C.tower, C.length
    best = None
    for gens in _subcode_generators(C, r):
        star_rows = [embed_vector(t, row) for row in support_space(t, gens, n).rows]
        wt = _maxwt_gens(t, star_rows, n)
        if best is None or wt < best:
            best = wt
            if best == 1:
                break
    return best


def verify_witness(C: LinearCode, c: Sequence[FieldElement]) -> bool:
    """Closure criterion: c is a support witness iff c ∈ C and C ⊆ (Lc)*."""
    if not C.space.contains(c):
        return False
    star = extend_to_L(rank_support_vec(C.tower, c)).space
    return all(star.contains(g) for g in C.space.rows)


def extend_witness_by_rational(tower: ExtensionTower, c, e) -> list:
    """Split-lemma step: turn a witness of D into one of D + L·e for rational e.

    ``e`` is a vector over k.  When e already lies in Rsupp(c) the witness is
    returned unchanged; otherwise some expansion row of c is a combination of
    the others (wt_R(c) < m required), and adding basis[l] * e writes e into
    that row without disturbing the support: Rsupp(c') = Rsupp(c) + k·e.
    """
    k, n, m = tower.k, len(c), tower.degree
    rows = expansion_rows(tower, c)
    sup = Subspace.from_vectors(k, n, rows)
    if sup.contains(e):
        return list(c)
    if sup.dim >= m:
        raise ValueError("no spare expansion row: wt_R(c) = m already")
    for l in range(m):
        if Subspace.from_vectors(k, n, rows[:l] + rows[l + 1 :]).dim == sup.dim:
            break
    else:
        raise InternalInvariantError("unreachable: rank < m forces a dependent row")
    add = [tower.basis[l] * x for x in embed_vector(tower, e)]
    return [a + b for a, b in zip(c, add)]


def _witness_extended(C: LinearCode) -> Optional[list]:
    """Constructive witness sum(basis_i * e_i) for extended C with dim <= m."""
    t = C.tower
    if C.dim > t.degree:
        return None
    res = restriction(C)
    if res.dim != C.dim:
        return None
    n = C.length
    c = [t.L.zero()] * n
    for alpha, e in zip(t.basis, res.space.rows):
        c = [x + alpha * y for x, y in zip(c, embed_vector(t, e))]
    if not verify_witness(C, c):
        raise InternalInvariantError("constructive extended witness failed verification")
    return c


def _witness_split(C: LinearCode, seed, height: int, rounds: int) -> Optional[list]:
    """Split C = C1 ⊕ Res(C)_L, find a witness for C1, extend it rationally."""
    t, n = C.tower, C.length
    if rank_support_code(C).dim > t.degree:
        return None
    res = restriction(C)
    if res.dim == 0:
        return None
    res_l = extend_to_L(res).space
    cur = res_l
    c1_gens = []
    for g in C.space.rows:
        if not cur.contains(g):
            c1_gens.append(g)
            cur = subspace_sum(cur, Subspace.from_vectors(t.L, n, [g]))
    if c1_gens:
        c1_code = LinearCode.from_generators(t, n, c1_gens)
        try:
            c = find_witness(c1_code, strategy="auto", seed=seed, height=height, rounds=rounds)
        except SearchExhausted:
            return None
        if c is None:
            return None
        cur = c1_code.space
    else:
        c = [t.L.zero()] * n
        cur = Subspace.zero(t.L, n)
    for e in res.space.rows:
        e_l = embed_vector(t, e)
        if cur.contains(e_l):
            continue
        c = extend_witness_by_rational(t, c, e)
        cur = subspace_sum(cur, Subspace.from_vectors(t.L, n, [e_l]))
    if cur != C.space:
        raise InternalInvariantError("split decomposition did not rebuild C")
    if not verify_witness(C, c):
        raise InternalInvariantError("split witness failed verification")
    return c


def _witness_exhaustive(C: LinearCode) -> Optional[list]:
    """Scan projective points of C; None proves no witness exists."""
    _require_finite(C, "exhaustive witness search")
    t, n = C.tower, C.length
    L = t.L
    target = rank_support_code(C).dim
    for coeffs in projective_coefficients(L, C.dim):
        c = _combine(coeffs, C.space.rows, L, n)
        if weight_of_vector(t, c) == target and verify_witness(C, c):
            return c
    return None


def _witness_random(C: LinearCode, rng: random.Random, height: int, rounds: int) -> list:
    """Sample coefficient vectors of bounded height, verify exactly, retry.

    Never concludes nonexistence; raises SearchExhausted when the budget is
    spent.
    """
    t, n = C.tower, C.length
    L = t.L
    target = rank_support_code(C).dim
    finite_pool = list(L.elements()) if L.order is not None else None

    h = height
    for _ in range(rounds):
        for _ in range(_RANDOM_TRIES_PER_ROUND):
            if finite_pool is not None:
                coeffs = [rng.choice(finite_pool) for _ in range(C.dim)]
            else:
                coeffs = [random_rational_element(t, rng, h) for _ in range(C.dim)]
            if not any(coeffs):
                continue
            c = _combine(coeffs, C.space.rows, L, n)
            if weight_of_vector(t, c) == target and verify_witness(C, c):
                return c
        h *= 2
    raise SearchExhausted(
        f"no witness found after {rounds} rounds of {_RANDOM_TRIES_PER_ROUND} samples"
    )


def find_witness(
    C: LinearCode,
    strategy: str = "auto",
    seed: Optional[int] = None,
    height: int = 5,
    rounds: int = 10,
) -> Optional[list]:
    """A codeword c with Rsupp(c) = Rsupp(C), or None when provably none exists.

    Strategies: "auto" tries the constructive paths, then exhaustive (finite
    base) or randomized (infinite base) search; "constructive", "exhaustive"
    and "random" force one path.  Randomized search raises SearchExhausted
    rather than claim nonexistence.  A None return is a proof: either the
    support dimension exceeds m (an expansion matrix only has m rows) or a
    finite exhaustive scan came up empty.
    """
    t = C.tower
    if C.dim == 0:
        return [t.L.zero()] * C.length
    if rank_support_code(C).dim > t.degree:
        return None
    if strategy in ("auto", "constructive"):
        c = _witness_extended(C)
        if c is None:
            c = _witness_split(C, seed, height, rounds)
        if c is not None:
            return c
        if strategy == "constructive":
            raise SearchExhausted("constructive strategies do not apply to this code")
        strategy = "exhaustive" if t.L.order is not None else "random"
    if strategy == "exhaustive":
        return _witness_exhaustive(C)
    if strategy == "random":
        return _witness_random(C, random.Random(seed), height, rounds)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class WeightRow:
    r: int
    d_Rr: Optional[int]
    M_r: Optional[int]
    OS_r: Optional[int]
    D_r: Optional[int]
    applicable: bool = True
    reason: Optional[str] = None


@dataclass
class WeightReport:
    code: LinearCode
    rank_distance: Optional[int]
    rank_distance_reason: Optional[str]
    hierarchy: List[WeightRow] = field(default_factory=list)
    witness: Optional[list] = None
    witness_status: str = "undecided"
    degenerate: bool = False


def weight_report(C: LinearCode, witness_seed: int = 0) -> WeightReport:
    """Everything at once: rank distance, the four weights per r, a witness,
    and the degeneracy flag; entries needing finite enumeration are marked
    inapplicable over infinite bases rather than approximated.

    When n <= m the four values are asserted equal per r; a mismatch raises
    EquivalenceViolation, which would indicate an implementation bug.
    """
    t = C.tower
    finite = t.L.order is not None
    report = WeightReport(code=C, rank_distance=None, rank_distance_reason=None)
    report.degenerate = is_rank_degenerate(C)
    if C.dim == 0:
        report.rank_distance_reason = "zero code: no nonzero codeword"
    elif not finite:
        report.rank_distance_reason = "requires finite enumeration"
    else:
        report.rank_distance = rank_distance(C)
    for r in range(1, C.dim + 1):
        if not finite:
            report.hierarchy.append(
                WeightRow(r, None, None, None, None, applicable=False,
                          reason="requires finite enumeration")
            )
            continue
        values = (
            weight_dRr(C, r),
            weight_Mr(C, r),
            weight_OSr(C, r),
            weight_Dr(C, r),
        )
        if C.length <= t.degree and len(set(values)) != 1:
            raise EquivalenceViolation(
                f"n = {C.length} <= m = {t.degree} but (d_Rr, M_r, OS_r, D_r) = {values} at r = {r}"
            )
        report.hierarchy.append(WeightRow(r, *values))
    if report.rank_distance is not None and report.hierarchy:
        if report.rank_distance != report.hierarchy[0].d_Rr:
            raise InternalInvariantError("rank distance differs from d_R1")
    try:
        w = find_witness(C, strategy="auto", seed=witness_seed)
        report.witness = w
        report.witness_status = "found" if w is not None else "none_exists"
    except SearchExhausted:
        report.witness_status = "undecided"
    return report
