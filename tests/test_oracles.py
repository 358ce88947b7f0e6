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
from rankweight.weights import maxwt, rank_distance, weight_Mr, weight_dRr


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


def test_weights_against_literal_minimizations():
    tower = gf4()
    n = 2
    l_subspaces = {r: oracle_subspaces(tower.L, n, r) for r in range(0, n + 1)}
    k_subspaces = {d: oracle_subspaces(tower.k, n, d) for d in range(0, n + 1)}
    for code in all_codes(tower, n):
        codewords = all_codewords(code)
        nonzero = [cw for cw in codewords if any(cw)]
        if nonzero:
            assert rank_distance(code) == min(_wt(tower, cw) for cw in nonzero)
        assert maxwt(code) == max((_wt(tower, cw) for cw in nonzero), default=0)
        for r in range(1, code.dim + 1):
            subcodes = [s for s in l_subspaces[r] if s <= codewords]
            brute_drr = min(
                set_dim(
                    tower.k,
                    span_set(
                        tower.k,
                        [row for cw in sub for row in expansion(tower, list(cw))],
                        n,
                    ),
                )
                for sub in subcodes
            )
            assert weight_dRr(code, r) == brute_drr
            # M_r by literal set intersection with every extended subspace
            best = None
            for d in range(0, n + 1):
                for w in k_subspaces[d]:
                    rows = [[tower.embed(x) for x in v] for v in w if any(v)]
                    v_set = span_set(tower.L, rows, n)
                    if set_dim(tower.L, frozenset(v_set & codewords)) >= r:
                        if best is None or d < best:
                            best = d
            assert weight_Mr(code, r) == best
