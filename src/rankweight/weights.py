"""Rank distance, maximum weight, the four generalized rank weights, and
support-witness search.

The four r-th weights of a code C (1 <= r <= dim C):

* ``weight_dRr``  -- min over r-dim subcodes D of wt_R(D) = dim Rsupp(D);
* ``weight_Mr``   -- min dim of an extended subspace V = W_L meeting C in
  dimension >= r, scanned by increasing dim W;
* ``weight_OSr``  -- min over r-dim subcodes D of maxwt(D);
* ``weight_Dr``   -- min over r-dim subcodes D of maxwt(D*).

All four provably coincide when n <= m; the implementations here stay
independent of that theorem (no cross-definition shortcuts), so the
equivalence can be checked rather than assumed.  The only short-circuits are
elementary bounds, each a lemma about one definition and named in its
docstring.  A minimum stops at weight 1 for the rank distance.  d_R,r and
M_r equal r iff dim Res(C) >= r; otherwise d_R,r stops at r + 1, and M_r
returns n - dim C + r without testing that layer.  OS_r and D_r stop at a
counting floor, r when [n, r-1]_q < |L| and 1 otherwise, and never read
Res(C), so a wrong Res(C) still shows in ``check_equivdef``.  A maxwt scan
stops at wt_R(c) = min(m, n).

Four things are kept in the tower's memo (``fields._TowerMemo``), so that
a sweep does each piece of work once:

* a subcode is the tower's one ``LinearCode`` for its space, so a subcode
  met again brings the rank support, dual, restriction and closure it has;
* the canonical codes of the subspaces of a finite field's F^n come from one
  list per (|F|, n, dim), made whole on first use (``_subspace_codes``).
  d_R,r, OS_r and D_r read those of L^(dim C) as RREF coefficient matrices,
  which they combine with C's rows into subcodes.  ``weight_Mr`` reads those
  of k^n as the W_L themselves: over a finite tower an L-code below |k| is
  its k-code, so W's canonical codes are W_L's, as ``extend_to_L`` says.
  ``closure_oracle`` keeps no list, and makes its W_L literally on each
  call, to stay independent of ``extend_to_L``.
  M_r tests each W_L by rank: dim(C ∩ W_L) >= r iff
  C's canonical rows, reduced modulo W_L's, leave residues of rank
  <= dim C - r (``_meets``), so C + W_L is never built;
* ``weight_Dr`` keeps maxwt of each closure (``closure_maxwt``), so each
  distinct closure is walked once per tower.  The value is the literal
  codeword walk of ``maxwt``, never maxwt(W_L) = min(m, dim W), and no
  other definition reads it: OS_r walks every subcode it meets.

Every field has a kernel (see ``fields``), and subcodes, codeword scans and
witness candidates are built on its codes.  Every codeword scan (rank
distance, maxwt, exhaustive witness search) goes through ``_codewords``,
which walks codewords as tuples of element codes and takes each rank weight
on ints: over GF(2) a code's bits are its k-coordinates, so the weight is
the rank of the entries packed one per int; otherwise it eliminates the
entries' k-coordinates over k's kernel.

Witness search is constructive-first: extended codes get the explicit
sum-of-basis witness, codes with rational directions get the split-lemma
extension, and only the remainder falls back to exhaustive (finite base) or
randomized (infinite base) search.  Every candidate from every path is a
vector of codes, verified through the closure criterion C ⊆ (Lc)* on codes
(``_is_witness``); ``find_witness`` decodes the witness it returns, once.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence

from .errors import (
    BadR,
    EquivalenceViolation,
    InfiniteField,
    InternalInvariantError,
    SearchExhausted,
    ZeroCode,
)
from .fields import ExtensionTower, FieldElement, _random_code, format_element
from .linalg import (
    Subspace,
    _encode,
    _reduces_to_zero,
    _residues,
    _rref_coded,
    decode_rows,
    enumerate_subspaces,
    gaussian_binomial,
)
from .ranksupport import (
    KSubspace,
    LinearCode,
    _coded_expansion,
    closure,
    extend_to_L,
    is_rank_degenerate,
    rank_support_code,
    restriction,
)

_RANDOM_HEIGHT = 5  # the random search's first coordinate height
_RANDOM_ROUNDS = 10  # the height doubles after each round
_RANDOM_TRIES_PER_ROUND = 200
STRATEGIES = ("auto", "constructive", "exhaustive", "random")  # find_witness's strategies


def _combine_codes(kern, coeffs, gens, n: int) -> list:
    """sum(a_i * g_i) on codes of L's kernel."""
    out = [0] * n
    for a, g in zip(coeffs, gens):
        if a:
            out = kern.sub_scaled(out, kern.neg(a), g)
    return out


def _coded_weight(tower: ExtensionTower, kern):
    """wt_R of a vector of codes of kern, L's kernel: the rank over k of its
    entries' k-coordinates."""
    if tower.k.order == 2 and tower.L.order is not None:
        return _rank_gf2  # a code's bits are its coordinates over GF(2)
    kk, expand, m = tower.k._kern, kern.expand, tower.degree

    def weight(c):
        return len(_rref_coded(kk, list(map(expand, c)), m)[0])

    return weight


def _codewords(tower: ExtensionTower, gens):
    """(wt_R(c), c) for one codeword c of span(gens) per projective point.

    ``gens`` are rows of codes of a finite L's kernel.  The first nonzero
    coefficient is 1 and the later ones run through L in element order, the
    last fastest, so each nonzero codeword appears once up to an L^x
    multiple, which has the same rank weight.  c is a tuple of element codes,
    built from precomputed multiples of the generators, and its weight is the
    rank over k of the entries' k-coordinates.
    """
    kern = tower.L._kern
    add = kern.add
    # multiples[i][a] = a * gens[i]; gens[0] only ever leads
    multiples = [None] + [list(zip(*map(kern.multiples, g))) for g in gens[1:]]
    weight = _coded_weight(tower, kern)
    for lead in range(len(gens)):
        for tail in itertools.product(*multiples[lead + 1 :]):
            c = gens[lead]
            for t in tail:
                c = tuple(map(add, c, t))
            yield weight(c), c


def _rank_gf2(vectors) -> int:
    """Rank over GF(2) of vectors packed one per int (the M4RI row layout).

    Each kept vector is reduced by the earlier ones, so its leading bit is
    set in none of them, and min(v, v ^ b) clears b's leading bit from v.
    """
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _least(values, floor: int) -> int:
    """The minimum of values, stopping at the first one equal to floor,
    a proven lower bound."""
    best = None
    for v in values:
        if v == floor:
            return v
        if best is None or v < best:
            best = v
    return best


def _subcodes(C: LinearCode, r: int):
    """Every r-dimensional subcode of C, one per r-dim subspace of L^(dim C).

    No reduction is needed: if S is an RREF coefficient matrix with pivots
    p_i and G is C's RREF generator matrix with pivots q_j, then row i of SG
    starts with a 1 in column q_(p_i), and column q_(p_j) of SG is column p_j
    of S, which is zero outside row j.  So SG is again in canonical RREF.
    The rows of SG are combined on codes, read straight off the coded
    coefficient matrices, which the tower lists once per (|L|, dim C, r)
    (``_subspace_codes``).
    """
    t, n = C.tower, C.length
    L = t.L
    kern, G = L._kern, C.space._codes
    add, scale = kern.add, kern.scale
    for s in _subspace_codes(t, L, C.dim, r):
        rows = []
        for coeffs in s:
            acc = None
            for a, g in zip(coeffs, G):
                if a:
                    term = g if a == 1 else scale(g, a)
                    acc = term if acc is None else tuple(map(add, acc, term))
            rows.append(tuple(acc))  # an RREF row is nonzero
        yield LinearCode(t, n, Subspace(L, n, tuple(rows)))


# The kept lists (``_subspace_codes``): the canonical codes of the r-dim
# subspaces of k^n, weight_Mr's W, and of L^(dim C), _subcodes's coefficient
# matrices, are each kept on the tower while the list has fewer than this many
# entries; a longer one is made again for each code.
_SUPERSPACE_LIMIT = 8192


def _subspace_codes(t: ExtensionTower, field, n: int, r: int):
    """The canonical codes of every r-dim subspace of field^n, for field t.k or
    t.L, in enumeration order.

    Kept as a list on the tower per (|field|, n, r) (``subspace_codes`` of its
    memo) while it has fewer than _SUPERSPACE_LIMIT entries, [n, r]_|field|;
    a longer list is not kept, and every read of it enumerates again.  The
    codes depend on |field|, n and r alone, so when |k| = |L| both fields
    read one list.
    """
    memo, key = t._memo.subspace_codes, (field.order, n, r)
    items = memo.get(key)
    if items is None:
        items = (s._codes for s in enumerate_subspaces(field, n, r))
        if gaussian_binomial(n, r, field.order) >= _SUPERSPACE_LIMIT:
            return items
        items = memo[key] = list(items)
    return items


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
    return _least((w for w, _ in _codewords(C.tower, C.space._codes)), 1)


def maxwt(D: LinearCode) -> int:
    """Maximum rank weight over the codewords of D (0 for the zero code)."""
    _require_finite(D, "maxwt")
    t = D.tower
    cap = min(t.degree, D.length)
    best = 0
    for w, _ in _codewords(t, D.space._codes):
        best = max(best, w)
        if best == cap:
            break
    return best


def weight_dRr(C: LinearCode, r: int) -> int:
    """Min support dimension of an r-dimensional subcode.

    Lemma: wt_R(D) >= dim D, since D ⊆ Rsupp(D)_L, with equality iff
    D = Rsupp(D)_L, that is iff D = W_L for an r-dim W ⊆ C ∩ k^n = Res(C).
    So d_R,r = r iff dim Res(C) >= r, and otherwise the scan's floor is r + 1.
    """
    _check_r(C, r)
    _require_finite(C, "weight_dRr")
    if restriction(C).dim >= r:
        return r
    return _least((rank_support_code(D).dim for D in _subcodes(C, r)), r + 1)


def weight_Mr(C: LinearCode, r: int) -> int:
    """Min dimension of an extended subspace meeting C in dimension >= r.

    Two lemmas bound the scan by dim W.  At dim W = r, meeting C in
    dimension r means W_L ⊆ C, and W_L ⊆ C iff W ⊆ Res(C): so M_r = r iff
    dim Res(C) >= r, and no W_L of that layer is tested.  At
    dim W = n - dim C + r, every W_L meets C in dimension >= r by counting
    dimensions, so that layer is not tested either.  The W_L between are read
    as the canonical codes of the W, from the tower's lists
    (``_subspace_codes``), and each is tested by rank (``_meets``), without
    building C + W_L.
    """
    _check_r(C, r)
    _require_finite(C, "weight_Mr")
    if restriction(C).dim >= r:
        return r
    t, n = C.tower, C.length
    kern, G = t.L._kern, C.space._codes
    top = n - C.dim + r
    for d in range(r + 1, top):
        for v in _subspace_codes(t, t.k, n, d):
            if _meets(kern, G, v, C.dim - r):
                return d
    return top


def _meets(kern, G, v, slack: int) -> bool:
    """dim(C ∩ V) >= dim C - slack, for C and V given by their canonical rows G and v.

    dim(C ∩ V) = dim C - the rank of the residues of G modulo v, so C + V is
    never built, and the residues are eliminated only when their count
    alone does not decide.
    """
    residues = _residues(kern, v, G)
    count = len(residues)
    return count <= slack or count > 1 and len(_rref_coded(kern, residues, len(G[0]))[0]) <= slack


def _counting_floor(C: LinearCode, r: int) -> int:
    """r if [n, r-1]_q < |L| for q = |k|, else 1: a lower bound on maxwt(D)
    for every r-dimensional D ⊆ L^n.

    Lemma: a codeword of D of rank weight < r lies in V_L ∩ D for some
    (r-1)-dim V ⊆ k^n, a space of dimension <= r - 1.  So at most
    [n, r-1]_q · |L|^(r-1) of the |L|^r codewords have weight < r, fewer
    than all of them when [n, r-1]_q < |L|.  Neither the equivalence nor
    maxwt(W_L) = min(m, dim W) enters.
    """
    t = C.tower
    return r if gaussian_binomial(C.length, r - 1, t.k.order) < t.L.order else 1


def weight_OSr(C: LinearCode, r: int) -> int:
    """Min over r-dimensional subcodes of the maximum codeword weight.

    The scan stops at the counting floor (``_counting_floor``): when
    [n, r-1]_q < |L|, every r-dim subcode has a codeword of weight >= r.
    """
    _check_r(C, r)
    _require_finite(C, "weight_OSr")
    return _least((maxwt(D) for D in _subcodes(C, r)), _counting_floor(C, r))


def weight_Dr(C: LinearCode, r: int) -> int:
    """Min over r-dimensional subcodes of the maximum weight of the closure.

    The scan stops at the counting floor (``_counting_floor``), a bound on
    maxwt(D) and so on maxwt(D*), as D ⊆ D*.  maxwt of a closure is walked
    once per tower and then read from the tower's memo, keyed by the length
    and the closure's canonical codes.
    """
    _check_r(C, r)
    _require_finite(C, "weight_Dr")
    n, memo = C.length, C.tower._memo.closure_maxwt

    def star_maxwt(D):
        star = closure(D)
        key = n, star.space._codes
        if key not in memo:
            memo[key] = maxwt(star)
        return memo[key]

    return _least(map(star_maxwt, _subcodes(C, r)), _counting_floor(C, r))


def weight_values(C: LinearCode, r: int) -> tuple:
    """(d_Rr, M_r, OS_r, D_r) at r, each by its own definition."""
    return weight_dRr(C, r), weight_Mr(C, r), weight_OSr(C, r), weight_Dr(C, r)


def _is_witness(C: LinearCode, c) -> bool:
    """The closure criterion on a coded vector c: c ∈ C and C ⊆ (Lc)*."""
    t, n = C.tower, C.length
    kern = t.L._kern
    if not _reduces_to_zero(kern, C.space._codes, [c]):
        return False
    support = KSubspace(t, n, Subspace.from_codes(t.k, n, _coded_expansion(kern, [c])))
    return extend_to_L(support).space.contains_space(C.space)


def verify_witness(C: LinearCode, c: Sequence[FieldElement]) -> bool:
    """Closure criterion: c is a support witness iff c ∈ C and C ⊆ (Lc)*."""
    (codes,) = _encode(C.tower.L._kern, [c], C.length)
    return _is_witness(C, codes)


def extend_witness_by_rational(tower: ExtensionTower, c, e) -> list:
    """Split-lemma step: turn a witness of D into one of D + L·e for rational e.

    ``c`` is a vector of codes of L's kernel and ``e`` one of codes of k's.
    When e already lies in Rsupp(c) the witness is returned unchanged;
    otherwise some expansion row of c is a combination of the others
    (wt_R(c) < m required), and adding basis[l] * e writes e into that row
    without disturbing the support: Rsupp(c') = Rsupp(c) + k·e.
    """
    k, n, m = tower.k, len(c), tower.degree
    kern = tower.L._kern
    rows = _coded_expansion(kern, [c])
    sup = Subspace.from_codes(k, n, rows)
    if _reduces_to_zero(k._kern, sup._codes, [e]):
        return list(c)
    if sup.dim >= m:
        raise ValueError("no spare expansion row: wt_R(c) = m already")
    for l in range(m):
        if Subspace.from_codes(k, n, rows[:l] + rows[l + 1 :]).dim == sup.dim:
            break
    else:
        raise InternalInvariantError("unreachable: rank < m forces a dependent row")
    return kern.sub_scaled(c, kern.neg(kern.basis[l]), kern.embed_row(e))


def _witness_extended(C: LinearCode) -> Optional[list]:
    """Constructive witness sum(basis_i * e_i) for extended C; dim C <= wt_R(C) <= m by ``find_witness``."""
    t = C.tower
    res = restriction(C)
    if res.dim != C.dim:
        return None
    space = extend_to_L(res).space
    kern = t.L._kern
    c = _combine_codes(kern, kern.basis, space._codes, C.length)
    if not _is_witness(C, c):
        raise InternalInvariantError("constructive extended witness failed verification")
    return c


def _witness_split(C: LinearCode, seed) -> Optional[list]:
    """Split C = C1 ⊕ Res(C)_L, find a witness for C1, extend it rationally.

    C1 is searched with the fallback strategy directly, as the constructive
    paths need Res(C1) != 0 and Res(C1) = 0: Res(C1) = C1 ∩ k^n lies in
    C ∩ k^n = Res(C) ⊆ Res(C)_L, and C1 meets Res(C)_L only in 0.  wt_R(C) <= m by ``find_witness``.
    """
    t, n = C.tower, C.length
    res = restriction(C)
    if res.dim == 0:
        return None
    L, kern = t.L, t.L._kern
    cur = extend_to_L(res).space
    c1_gens = []
    for g in C.space._codes:
        if not _reduces_to_zero(kern, cur._codes, [g]):
            c1_gens.append(g)
            cur = Subspace.from_codes(L, n, [*cur._codes, g])
    if c1_gens:
        c1_code = LinearCode(t, n, Subspace.from_codes(L, n, c1_gens))
        try:
            c = _search(c1_code, seed)
        except SearchExhausted:
            return None
        if c is None:
            return None
        cur = c1_code.space
    else:
        c = [0] * n
        cur = Subspace.zero(L, n)
    for e in res.space._codes:  # C1 meets Res(C)_L in 0, so each e_L adds a dimension
        c = extend_witness_by_rational(t, c, e)
        cur = Subspace.from_codes(L, n, [*cur._codes, kern.embed_row(e)])
    if cur != C.space:
        raise InternalInvariantError("split decomposition did not rebuild C")
    if not _is_witness(C, c):
        raise InternalInvariantError("split witness failed verification")
    return c


def _witness_exhaustive(C: LinearCode) -> Optional[tuple]:
    """Scan projective points of C; None proves no witness exists."""
    _require_finite(C, "exhaustive witness search")
    target = rank_support_code(C).dim
    for w, c in _codewords(C.tower, C.space._codes):
        if w == target and _is_witness(C, c):
            return c
    return None


def _witness_random(C: LinearCode, seed) -> list:
    """Sample coefficient vectors of bounded height, verify exactly, retry.

    The draws come from ``random.Random(seed)``; the height starts at
    _RANDOM_HEIGHT and doubles after each of the _RANDOM_ROUNDS rounds.
    Never concludes nonexistence; raises SearchExhausted when the budget is
    spent.
    """
    rng = random.Random(seed)
    t, n = C.tower, C.length
    target = rank_support_code(C).dim
    kern = t.L._kern
    gens, weight = C.space._codes, _coded_weight(t, kern)

    h = _RANDOM_HEIGHT
    for _ in range(_RANDOM_ROUNDS):
        for _ in range(_RANDOM_TRIES_PER_ROUND):
            coeffs = [_random_code(t, rng, h) for _ in range(C.dim)]
            if not any(coeffs):
                continue
            c = _combine_codes(kern, coeffs, gens, n)
            if weight(c) == target and _is_witness(C, c):
                return c
        h *= 2
    raise SearchExhausted(
        f"no witness found after {_RANDOM_ROUNDS} rounds of {_RANDOM_TRIES_PER_ROUND} samples"
    )


def _search(C: LinearCode, seed):
    """The fallback search on codes: exhaustive over a finite L, else randomized."""
    if C.tower.L.order is not None:
        return _witness_exhaustive(C)
    return _witness_random(C, seed)


def find_witness(
    C: LinearCode,
    strategy: str = "auto",
    seed: int = 0,
) -> Optional[list]:
    """A codeword c with Rsupp(c) = Rsupp(C), or None when provably none exists.

    Strategies: "auto" tries the constructive paths, then exhaustive (finite
    base) or randomized (infinite base) search; "constructive", "exhaustive"
    and "random" force one path.  Randomized search raises SearchExhausted
    rather than claim nonexistence.  A None return is a proof: either the
    support dimension exceeds m (an expansion matrix only has m rows) or a
    finite exhaustive scan came up empty.  Every path works on codes, and
    the witness is decoded to elements here, once.  ``seed`` seeds the
    randomized search, so equal calls return equal witnesses.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    t = C.tower
    if C.dim == 0:
        return [t.L.zero()] * C.length
    if rank_support_code(C).dim > t.degree:
        return None
    if strategy in ("auto", "constructive"):
        c = _witness_extended(C)
        if c is None:
            c = _witness_split(C, seed)
        if c is None and strategy == "constructive":
            raise SearchExhausted("constructive strategies do not apply to this code")
        if c is None:
            c = _search(C, seed)
    elif strategy == "exhaustive":
        c = _witness_exhaustive(C)
    else:
        c = _witness_random(C, seed)
    return None if c is None else list(decode_rows(t.L, [c])[0])


def weight_report(C: LinearCode, witness_seed: int = 0) -> dict:
    """Everything at once, as the JSON-ready dict that ``weights --format json``
    prints after its tower/n/dim header: the rank distance (with
    ``rank_distance_reason`` when it is None), the hierarchy of the four
    weights per r, a witness as element strings (with ``witness_status``,
    "none_exists" or "undecided", when it is None) and the degeneracy flag.
    Entries needing finite enumeration are None, with a reason, over infinite
    bases rather than approximated.

    When n <= m the four values are asserted equal per r; a mismatch raises
    EquivalenceViolation, which would indicate an implementation bug.
    """
    t = C.tower
    finite = t.L.order is not None
    report = {"rank_distance": None}
    if C.dim == 0:
        report["rank_distance_reason"] = "zero code: no nonzero codeword"
    elif not finite:
        report["rank_distance_reason"] = "requires finite enumeration"
    else:
        report["rank_distance"] = rank_distance(C)
    hierarchy = report["hierarchy"] = []
    for r in range(1, C.dim + 1):
        if not finite:
            hierarchy.append({"r": r, "dRr": None, "Mr": None, "OSr": None, "Dr": None,
                              "reason": "requires finite enumeration"})
            continue
        values = weight_values(C, r)
        if C.length <= t.degree and len(set(values)) != 1:
            raise EquivalenceViolation(
                f"n = {C.length} <= m = {t.degree} but (d_Rr, M_r, OS_r, D_r) = {values} at r = {r}"
            )
        hierarchy.append(dict(zip(("r", "dRr", "Mr", "OSr", "Dr"), (r, *values))))
    if report["rank_distance"] is not None:
        if report["rank_distance"] != hierarchy[0]["dRr"]:
            raise InternalInvariantError("rank distance differs from d_R1")
    try:
        w = find_witness(C, strategy="auto", seed=witness_seed)
        status = "none_exists"
    except SearchExhausted:
        w, status = None, "undecided"
    report["witness"] = None if w is None else [format_element(x) for x in w]
    if w is None:
        report["witness_status"] = status
    report["degenerate"] = is_rank_degenerate(C)
    return report
