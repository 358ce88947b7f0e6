"""Correctness checks on rankweight's answers, computed with the benchmark's own algebra.

Every answer is compared with a computation that shares no code with the
program: ranks come from ``algebra.RowSpace``, and, where the code is small
enough, wt_R(C) and dim Res(C) are recomputed from literal codeword sets.
Answers arrive as payloads (ints, Fractions, coordinate tuples), whether
they were parsed from CLI output or read off library objects.
"""

from __future__ import annotations

from .algebra import RowSpace, codewords, literal_support_and_restriction, rank

# literal codeword sets are built only up to this many codewords
LITERAL_LIMIT = 4096


class Checker:
    """Counts passed checks and keeps the first failures for the report."""

    def __init__(self):
        self.passed = 0
        self.failed = 0
        self.messages = []

    def expect(self, condition, what: str):
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    @property
    def ok(self) -> bool:
        return self.failed == 0


class OwnCode:
    """C = span_L(gens) in L^n, described independently of rankweight."""

    def __init__(self, tower, n: int, gens):
        self.tower = tower
        self.n = n
        self.gens = [list(g) for g in gens]
        self.kspan = RowSpace(tower.k, tower.code_kspan(self.gens))
        self.dim, rem = divmod(self.kspan.dim, tower.m)
        if rem:
            raise ValueError("an L-space has k-dimension divisible by m")
        self.support = RowSpace(tower.k, [r for g in self.gens for r in tower.expansion(g)])
        self.wt = self.support.dim
        embedded = [[tower.k.one if i == j else tower.k.zero for i in range(tower.m * n)]
                    for j in range(n)]
        joint = rank(tower.k, tower.code_kspan(self.gens) + embedded)
        self.res_dim = self.kspan.dim + n - joint

    def contains(self, v) -> bool:
        return self.kspan.contains(self.tower.flat(v))

    def weight(self, v) -> int:
        return rank(self.tower.k, self.tower.expansion(v))

    def size(self):
        q = self.tower.L.order
        return None if q is None else q ** self.dim


def check_literal(ck: Checker, code: OwnCode, label: str):
    """Own ranks against literal span sets (finite fields, small codes)."""
    size = code.size()
    if size is None or size > LITERAL_LIMIT:
        return
    wt, res = literal_support_and_restriction(code.tower, code.gens, code.n)
    ck.expect(wt == code.wt, f"{label}: literal wt_R {wt} != rank {code.wt}")
    ck.expect(res == code.res_dim, f"{label}: literal dim Res {res} != rank {code.res_dim}")


def check_support_rows(ck: Checker, code: OwnCode, rows, label: str):
    rows = [list(r) for r in rows]
    ck.expect(rank(code.tower.k, rows) == code.wt and all(code.support.contains(r) for r in rows),
              f"{label}: rank support is not Rsupp(C) (wt_R {code.wt})")


def check_restriction_rows(ck: Checker, code: OwnCode, rows, label: str):
    t = code.tower
    rows = [list(r) for r in rows]
    ck.expect(rank(t.k, rows) == code.res_dim
              and all(code.contains(t.embed_vector(r)) for r in rows),
              f"{label}: restriction is not C ∩ k^n (dim {code.res_dim})")


def check_dual(ck: Checker, code: OwnCode, rows, label: str):
    t = code.tower
    rows = [list(r) for r in rows]
    dim_k = rank(t.k, t.code_kspan(rows)) if rows else 0
    ck.expect(dim_k == t.m * (code.n - code.dim), f"{label}: dim C + dim C^perp != n")
    zero = t.L.zero
    ck.expect(all(t.dot(r, g) == zero for r in rows for g in code.gens),
              f"{label}: dual vector not orthogonal to C")


def check_closure(ck: Checker, code: OwnCode, rows, label: str):
    """C* = Rsupp(C)_L: rational rows spanning Rsupp(C), and C inside their L-span."""
    t = code.tower
    rows = [list(r) for r in rows]
    ck.expect(all(t.is_rational(r) for r in rows), f"{label}: closure row outside k^n")
    k_rows = [[x[0] for x in r] for r in rows]
    check_support_rows(ck, code, k_rows, f"{label} closure")
    span = RowSpace(t.k, t.code_kspan(rows))
    ck.expect(all(span.contains(t.flat(g)) for g in code.gens), f"{label}: C not inside its closure")


def check_witness(ck: Checker, code: OwnCode, witness, status: str, label: str):
    """A witness lies in C and has rank weight wt_R(C); absence must be provable."""
    t = code.tower
    if witness is not None:
        w = list(witness)
        ck.expect(len(w) == code.n and code.contains(w), f"{label}: witness not in C")
        ck.expect(code.weight(w) == code.wt, f"{label}: witness weight != wt_R(C) = {code.wt}")
        return
    if code.wt > t.m:
        ck.expect(status == "none_exists", f"{label}: status {status!r} although wt_R > m")
        return
    # m >= wt_R: over a finite field absence is decided by scanning C itself
    ck.expect(status == "none_exists" and code.n > t.m, f"{label}: no witness, status {status!r}")
    size = code.size()
    if size is not None and size <= LITERAL_LIMIT:
        best = max(code.weight(list(w)) for w in codewords(t, code.gens, code.n))
        ck.expect(best < code.wt, f"{label}: a codeword of weight wt_R exists")


def check_hierarchy(ck: Checker, code: OwnCode, rows, rank_distance, label: str):
    """rows: (r, d_Rr, M_r, OS_r, D_r); strictly increasing, Singleton bound,
    top weight wt_R(C), and all four equal when n <= m."""
    n, k, m = code.n, code.dim, code.tower.m
    ck.expect([r[0] for r in rows] == list(range(1, k + 1)), f"{label}: hierarchy rows != 1..dim")
    d = [r[1] for r in rows]
    ck.expect(all(isinstance(x, int) for x in d), f"{label}: missing d_Rr")
    if not all(isinstance(x, int) for x in d):
        return
    ck.expect(all(a < b for a, b in zip(d, d[1:])), f"{label}: d_Rr not strictly increasing {d}")
    ck.expect(all(r <= d[r - 1] <= n - k + r for r in range(1, k + 1)),
              f"{label}: d_Rr outside r..n-k+r {d}")
    if k:
        ck.expect(d[-1] == code.wt, f"{label}: d_R,dim {d[-1]} != wt_R(C) {code.wt}")
        ck.expect(rank_distance == d[0], f"{label}: rank distance {rank_distance} != d_R1 {d[0]}")
    else:
        ck.expect(rank_distance is None, f"{label}: zero code has a rank distance")
    if n <= m:
        ck.expect(all(len(set(r[1:])) == 1 for r in rows), f"{label}: four definitions differ {rows}")


def check_flags(ck: Checker, code: OwnCode, degenerate, extended, label: str):
    if degenerate is not None:
        ck.expect(degenerate == (code.wt < code.n), f"{label}: degenerate flag wrong")
    if extended is not None:
        ck.expect(extended == (code.res_dim == code.dim), f"{label}: extended flag wrong")
