"""Brute-force set-based oracles cross-checking the echelon-form machinery.

Spans are computed as literal vector sets, grown one generator at a time
(span(S ∪ {r}) = {v + a·r}), with no echelon forms, kernels, or complement
tricks anywhere; agreement with the library is a genuine two-route check.
"""

import itertools
import random

from helpers import all_codes, expansion, gf4, gf8
from rankweight.linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    rref_canonical,
)
from rankweight.ranksupport import (
    LinearCode,
    closure,
    rank_support_code,
    restriction,
    trace_image,
)
from rankweight.weights import maxwt, rank_distance, weight_Dr, weight_Mr, weight_OSr, weight_dRr


def span_set(field, rows, n):
    """All vectors of the span, as a frozenset of tuples; one pass per row."""
    elems = list(field.elements())
    out = {tuple(field.zero() for _ in range(n))}
    for row in rows:
        out = {
            tuple(x + a * y for x, y in zip(v, row))
            for v in out
            for a in elems
        }
    return frozenset(out)


def set_dim(field, s):
    q = field.order
    d = 0
    while q**d < len(s):
        d += 1
    assert q**d == len(s), "span size is not a power of the field order"
    return d


def subspace_as_set(s: Subspace):
    return span_set(s.field, [list(r) for r in s.rows], s.ambient_dim)


def all_codewords(code: LinearCode):
    return span_set(code.tower.L, [list(r) for r in code.space.rows], code.length)


def test_rank_against_span_size():
    rng = random.Random(13)
    for field in (gf4().k, gf4().L, gf8().k, gf8().L):
        pool = list(field.elements())
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, 3))]
            direct = set_dim(field, span_set(field, rows, n))
            assert rref_canonical(Matrix(field, rows, n)).dim == direct


def oracle_subspaces(field, n, r):
    """Spans of all r-subsets of nonzero vectors, deduplicated as sets."""
    elems = list(field.elements())
    nonzero = [v for v in itertools.product(elems, repeat=n) if any(v)]
    if r == 0:
        zero = tuple(field.zero() for _ in range(n))
        return {frozenset([zero])}
    found = set()
    for subset in itertools.combinations(nonzero, r):
        s = span_set(field, [list(v) for v in subset], n)
        if set_dim(field, s) == r:
            found.add(s)
    return found


def test_subspace_enumeration_against_subset_spans():
    cases = [
        (gf4().k, 2),  # GF(2)^2, all r
        (gf4().k, 3),  # GF(2)^3, all r
        (gf4().L, 2),  # GF(4)^2, all r
        (gf8().L, 2),  # GF(8)^2, all r
    ]
    for fld, n in cases:
        for r in range(0, n + 1):
            brute = oracle_subspaces(fld, n, r)
            assert len(brute) == gaussian_binomial(n, r, fld.order)
            streamed = {subspace_as_set(s) for s in enumerate_subspaces(fld, n, r)}
            assert streamed == brute


def test_restriction_against_literal_rational_codewords():
    for tower, n in ((gf4(), 2), (gf8(), 2), (gf4(), 3)):
        for code in all_codes(tower, n):
            rational = set()
            for cw in all_codewords(code):
                coords = [tower.coords(x) for x in cw]
                if all(not c for cs in coords for c in cs[1:]):
                    rational.add(tuple(cs[0] for cs in coords))
            assert subspace_as_set(restriction(code).space) == frozenset(rational)


def test_support_against_literal_row_spans():
    for tower, n in ((gf4(), 2), (gf8(), 2)):
        for code in all_codes(tower, n):
            rows = []
            for cw in all_codewords(code):
                rows.extend(expansion(tower, list(cw)))
            assert subspace_as_set(rank_support_code(code).space) == span_set(tower.k, rows, n)


def test_trace_image_against_literal_traces():
    for tower, n in ((gf4(), 2), (gf8(), 2)):
        for code in all_codes(tower, n):
            traced = [[tower.trace(x) for x in cw] for cw in all_codewords(code)]
            assert subspace_as_set(trace_image(code).space) == span_set(tower.k, traced, n)


def test_closure_against_literal_superspace_intersection():
    tower = gf4()
    n = 2
    ambient = subspace_as_set(Subspace.full(tower.L, n))
    extended = []
    for r in range(0, n + 1):
        for s in oracle_subspaces(tower.k, n, r):
            rows = [list(v) for v in s if any(v)]
            embedded = [[tower.embed(x) for x in row] for row in rows]
            extended.append(span_set(tower.L, embedded, n))
    for code in all_codes(tower, n):
        cw = all_codewords(code)
        meet = ambient
        for sup in extended:
            if cw <= sup:
                meet = meet & sup
        assert frozenset(meet) == subspace_as_set(closure(code).space)


def _wt(tower, cw):
    return set_dim(tower.k, span_set(tower.k, expansion(tower, list(cw)), len(cw)))


def _span_of(field, vectors, n):
    """The span of vectors as a set, rebuilt only when a vector lies outside it."""
    basis, out = [], span_set(field, [], n)
    for v in vectors:
        if v not in out:
            basis.append(list(v))
            out = span_set(field, basis, n)
    return out


def _subspaces_within(field, vectors, r, n):
    """Every r-dim subspace of span(vectors), as sets: the spans of r-subsets of
    the vectors whose first nonzero entry is 1, each subset skipped once a span
    found earlier holds it."""
    one = field.one()
    leads = [v for v in vectors if any(v) and next(x for x in v if x != field.zero()) == one]
    found = []
    for subset in itertools.combinations(leads, r):
        if not any(all(v in s for v in subset) for s in found):
            s = span_set(field, [list(v) for v in subset], n)
            if set_dim(field, s) == r:
                found.append(s)
    return found


def _four_weights_by_sets(tower, n, cases):
    """(d_Rr, M_r, OS_r, D_r) of each (code, r) by literal set minimizations:
    subcodes as spans of codewords, wt_R(D) as the dimension of the span of
    its codewords' supports, maxwt as a max over codewords, D* as the meet of
    every W_L containing D, and M_r over every W_L."""
    k, L = tower.k, tower.L
    ambient = frozenset(itertools.product(list(L.elements()), repeat=n))
    supports = {v: span_set(k, expansion(tower, list(v)), n) for v in ambient}
    wt = {v: set_dim(k, s) for v, s in supports.items()}
    extended = [
        (d, span_set(L, [[tower.embed(x) for x in v] for v in w if any(v)], n))
        for d in range(n + 1)
        for w in oracle_subspaces(k, n, d)
    ]

    def star(D):
        meet = ambient
        for _, sup in extended:
            if D <= sup:
                meet = meet & sup
        return meet

    out = []
    for code, r in cases:
        codewords = all_codewords(code)
        subcodes = _subspaces_within(L, codewords, r, n)
        out.append((
            min(set_dim(k, _span_of(k, (u for cw in D for u in supports[cw]), n)) for D in subcodes),
            min(d for d, sup in extended if set_dim(L, sup & codewords) >= r),
            min(max(wt[cw] for cw in D) for D in subcodes),
            min(max(wt[cw] for cw in star(D)) for D in subcodes),
        ))
    return out


def test_weights_against_literal_minimizations():
    tower = gf4()
    n = 2
    cases = []
    for code in all_codes(tower, n):
        nonzero = [cw for cw in all_codewords(code) if any(cw)]
        if nonzero:
            assert rank_distance(code) == min(_wt(tower, cw) for cw in nonzero)
        assert maxwt(code) == max((_wt(tower, cw) for cw in nonzero), default=0)
        cases += [(code, r) for r in range(1, code.dim + 1)]
    expected = _four_weights_by_sets(tower, n, cases)
    assert [(weight_dRr(c, r), weight_Mr(c, r), weight_OSr(c, r), weight_Dr(c, r)) for c, r in cases] == expected


def test_four_weights_against_literal_minimizations_at_length_three():
    # GF(8)/GF(2): [3, 1]_2 = 7 < 8, so OS_2 and D_2 stop at the floor 2. L^3 has Res(C) = k^3, which
    # decides d_R,2 and M_2; a plane with Res(C) = 0 scans d_R,r from r + 1 and ends M_r at n - dim C + r.
    tower = gf8()
    rational = {tuple(tower.embed(x) for x in v) for v in itertools.product(list(tower.k.elements()), repeat=3)}
    codes = all_codes(tower, 3)
    planes = [c for c in codes if c.dim == 2 and len(all_codewords(c) & rational) == 1]
    assert len(planes) == 24  # 73 planes, 49 of them through one of the 7 rational lines
    cases = [(codes[-1], 2)] + [(c, r) for c in planes for r in (1, 2)]
    # GF(4)/GF(2): [3, 1]_2 = 7 >= 4, so OS_2 and D_2 keep the floor 1
    small = gf4()
    small_cases = [(c, 2) for c in all_codes(small, 3) if c.dim >= 2]
    for t, shapes in ((tower, cases), (small, small_cases)):
        expected = _four_weights_by_sets(t, 3, shapes)
        assert [(weight_dRr(c, r), weight_Mr(c, r), weight_OSr(c, r), weight_Dr(c, r)) for c, r in shapes] == expected
