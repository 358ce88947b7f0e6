"""Exhaustive / randomized theorem verification over enumerable towers.

A plan names towers, a maximum length, a theorem selection and a code
source.  The harness materializes the full code population up front (and all
random draws, from one seeded generator), so results are independent of the
worker count: items are dispatched in order, reduced in order, and the
summary is bit-reproducible for a fixed seed across 1, 2 or 8 workers.
The calling process is one of the workers: it and its children take blocks
of consecutive items from one shared counter, blocks that shrink as the work
runs out, and the results are put back in item order (``_execute``).

Suites:

* ``equivdef``  -- d_Rr = M_r = OS_r = D_r for every code and r (when n <= m);
* ``witness``   -- existence for m >= n with double verification, and the
  maxwt(C) = wt_R(C) equivalence (plus guaranteed absence on nondegenerate
  codes when m < n);
* ``delsarte``  -- Res(C)^perp = Rsupp(C^perp), comparing the direct Res(C)
  of ``restriction`` with the rank support of ``dual``;
* ``closure``   -- closure laws, C* against the Galois closure
  C + σ(C) + ... of ``ranksupport.galois_closure`` over a finite k, and
  the sum rule (C + C')* = C* + C'* on pairs.  The literal intersection
  ``closure_oracle`` is the tests' reference for both closures and is not
  run here.  The right-hand side of the sum rule is summed once per pair
  of closures per tower (``closure_sums`` of the tower's
  ``fields._TowerMemo``, which a pickled tower, rebuilt where it is loaded,
  starts empty); (C + C')* is computed for every pair;
* ``trace``     -- Tr(C) = Rsupp(C) and the Res(C) = Tr(C) criterion;
* ``all``       -- everything above.

Any violation is reported with a standalone CodeDocument that reproduces it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional

from .documents import build_tower, document_from_code, document_to_json, tower_to_json
from .errors import InfiniteField, InternalInvariantError, RankWeightError, SearchExhausted
from .fields import _random_code
from .linalg import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    orthogonal_complement,
    subspace_sum,
)
from .ranksupport import (
    LinearCode,
    closure,
    dual,
    galois_closure,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    restriction,
    trace_image,
)
from .weights import (
    find_witness,
    maxwt,
    verify_witness,
    weight_values,
)

THEOREMS = ("equivdef", "witness", "delsarte", "closure", "trace", "all")

GUARD_MAX_ORDER = 9
GUARD_MAX_N = 4
_HEIGHT = 5  # random_codes' bound on the numerators and denominators it draws over Q


class CheckFailure(RankWeightError):
    """A verified property failed; carries the offending code(s)."""

    def __init__(self, message: str, codes):
        super().__init__(message)
        self.codes = list(codes)


@dataclass
class TowerTask:
    """One tower in a plan, given by characteristic and moduli.

    Extension-modulus coefficients may be ints, Fractions, or element strings
    over the base generator (needed for bases GF(p^a) with a > 1, where an
    irreducible modulus can require non-subfield coefficients).
    """

    characteristic: int
    extension_modulus: tuple
    base_degree: int = 1
    base_modulus: Optional[tuple] = None
    max_n: int = 2

    def build(self):
        return build_tower(self.characteristic, self.extension_modulus, self.base_degree, self.base_modulus)


@dataclass
class VerifyPlan:
    towers: List[TowerTask]
    theorem: str = "all"
    source: str = "exhaustive"  # or "random"
    random_count: int = 200
    seed: int = 0
    workers: int = 1
    force: bool = False

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem selection {self.theorem!r}")
        if self.source not in ("exhaustive", "random"):
            raise ValueError(f"unknown code source {self.source!r}")


def standard_plan(theorem: str = "all", workers: int = 1, seed: int = 0) -> VerifyPlan:
    """The default exhaustive sweep: GF(4)/GF(2) n<=2, GF(8)/GF(2) n<=3, GF(9)/GF(3) n<=2."""
    return VerifyPlan(
        towers=[
            TowerTask(2, (1, 1, 1), max_n=2),
            TowerTask(2, (1, 1, 0, 1), max_n=3),
            TowerTask(3, (1, 0, 1), max_n=2),
        ],
        theorem=theorem,
        workers=workers,
        seed=seed,
    )


def exhaustive_codes(tower, n: int) -> List[LinearCode]:
    """Every L-subspace of L^n, each the tower's one ``LinearCode`` for it;
    the census is checked against Gaussian binomials."""
    out = []
    for r in range(n + 1):
        for s in enumerate_subspaces(tower.L, n, r):
            out.append(LinearCode(tower, n, s))
    expected = sum(gaussian_binomial(n, r, tower.L.order) for r in range(n + 1))
    if len(out) != expected:
        raise InternalInvariantError("subspace census disagrees with the Gaussian binomials")
    return out


def random_codes(tower, max_n: int, count: int, rng: random.Random) -> List[LinearCode]:
    """Seeded random codes, each the tower's one ``LinearCode`` for its space;
    dimensions <= 2 over infinite bases to keep exactness cheap."""
    out = []
    finite = tower.L.order is not None
    while len(out) < count:
        n = rng.randint(1, max_n)
        dim = rng.randint(0, n if finite else min(n, 2))
        rows = [[_random_code(tower, rng, _HEIGHT) for _ in range(n)] for _ in range(dim)]
        out.append(LinearCode(tower, n, Subspace.from_codes(tower.L, n, rows)))
    return out


# ---------------------------------------------------------------------------
# individual checks: take a code (a pair for closure_pair) and the item's int
# seed, which only check_witness reads; return the number of assertions, raise
# CheckFailure
# ---------------------------------------------------------------------------


def check_equivdef(code: LinearCode, seed: int) -> int:
    if code.length > code.tower.degree:
        return 0  # the theorem is stated for n <= m
    assertions = 0
    for r in range(1, code.dim + 1):
        values = weight_values(code, r)
        if len(set(values)) != 1:
            raise CheckFailure(
                f"four definitions disagree at r={r}: (d_Rr, M_r, OS_r, D_r) = {values}",
                [code],
            )
        assertions += 1
    return assertions


def check_witness(code: LinearCode, seed: int) -> int:
    tower = code.tower
    m, n = tower.degree, code.length
    assertions = 0
    finite = tower.L.order is not None
    if m >= n:
        try:
            w = find_witness(code, strategy="auto", seed=seed)
        except SearchExhausted:
            raise CheckFailure("witness search gave up although m >= n", [code])
        if w is None:
            raise CheckFailure("no witness found although m >= n guarantees one", [code])
        if rank_support_vec(tower, w) != rank_support_code(code):
            raise CheckFailure("witness support differs from the code support", [code])
        if not verify_witness(code, w):
            raise CheckFailure("witness fails the closure criterion", [code])
        assertions += 3
        if not is_extended(code):
            if not code.dim <= m - 1:
                raise CheckFailure("non-extended code with a witness has dim > m-1", [code])
            assertions += 1
    elif finite:
        w = find_witness(code, strategy="auto", seed=seed)
        gap = maxwt(code) < rank_support_code(code).dim
        if (w is None) != gap:
            raise CheckFailure("witness existence disagrees with maxwt = wt_R criterion", [code])
        assertions += 1
        if w is None and not is_rank_degenerate(code):
            assertions += 1  # nondegenerate with m < n: absence is the theorem
        if w is not None and not verify_witness(code, w):
            raise CheckFailure("witness fails the closure criterion", [code])
    return assertions


def check_delsarte(code: LinearCode, seed: int) -> int:
    lhs = orthogonal_complement(restriction(code).space)
    rhs = rank_support_code(dual(code)).space
    if lhs != rhs:
        raise CheckFailure("Res(C)^perp != Rsupp(C^perp)", [code])
    return 1


def check_closure(code: LinearCode, seed: int) -> int:
    star = closure(code)
    assertions = 0
    if not star.space.contains_space(code.space):
        raise CheckFailure("C not contained in its closure", [code])
    if closure(star) != star:
        raise CheckFailure("closure is not idempotent", [code])
    if star.dim != rank_support_code(code).dim:
        raise CheckFailure("dim C* != wt_R(C)", [code])
    if rank_support_code(star) != rank_support_code(code):
        raise CheckFailure("Rsupp(C*) != Rsupp(C)", [code])
    if is_extended(code) != (star == code):
        raise CheckFailure("C = C* does not match extendedness", [code])
    assertions += 5
    if code.tower.k.order is not None:
        if galois_closure(code) != star:
            raise CheckFailure("closure differs from the Galois closure C + σ(C) + …", [code])
        assertions += 1
    return assertions


def check_closure_pair(codes, seed: int) -> int:
    a, b = codes
    t, n = a.tower, a.length
    # a sum already in the population is found with its rank support
    total = LinearCode(t, n, subspace_sum(a.space, b.space))
    lhs = closure(total).space
    # C* + C'* is summed once per pair of closures per tower; only this side reads the memo
    sums = t._memo.closure_sums
    a_star, b_star = closure(a).space, closure(b).space
    key = n, a_star._codes, b_star._codes
    rhs = sums.get(key)
    if rhs is None:
        rhs = sums[key] = subspace_sum(a_star, b_star)
    if lhs != rhs:
        raise CheckFailure("(C+C')* != C* + C'*", [a, b])
    return 1


def check_trace(code: LinearCode, seed: int) -> int:
    ti = trace_image(code)
    if ti != rank_support_code(code):
        raise CheckFailure("Tr(C) != Rsupp(C) on a separable tower", [code])
    if (restriction(code) == ti) != is_extended(code):
        raise CheckFailure("Res(C) = Tr(C) does not match extendedness", [code])
    return 2


_CHECKS = {
    "equivdef": check_equivdef,
    "witness": check_witness,
    "delsarte": check_delsarte,
    "closure": check_closure,
    "closure_pair": check_closure_pair,
    "trace": check_trace,
}

# the per-code checks of each --theorem choice, in the summary's order: "all" runs every other choice
_CODE_CHECKS = {**{name: (name,) for name in THEOREMS[:-1]}, "all": THEOREMS[:-1]}

_PAIR_LIMIT = 2500  # all ordered pairs when |codes|^2 is at most this, else sampled
_PAIR_SAMPLE = 500


def _run_item(item):
    name, payload, seed = item
    try:
        return (True, _CHECKS[name](payload, seed), None)
    except CheckFailure as e:
        docs = [document_to_json(document_from_code(c)) for c in e.codes]
        return (False, 0, {"check": name, "message": str(e), "documents": docs})


def _build_items(plan: VerifyPlan, tower, task: TowerTask, rng: random.Random):
    """Population and work items for one tower; all randomness drawn here."""
    finite = tower.L.order is not None
    per_n = {}
    if plan.source == "exhaustive":
        if not finite:
            raise InfiniteField("exhaustive verification over an infinite base field")
        if not plan.force:
            if tower.L.order > GUARD_MAX_ORDER:
                raise ValueError(
                    f"|L| = {tower.L.order} exceeds the resource guard {GUARD_MAX_ORDER}; pass force"
                )
            if task.max_n > GUARD_MAX_N:
                raise ValueError(
                    f"max n = {task.max_n} exceeds the resource guard {GUARD_MAX_N}; pass force"
                )
        for n in range(1, task.max_n + 1):
            per_n[n] = exhaustive_codes(tower, n)
    else:
        for code in random_codes(tower, task.max_n, plan.random_count, rng):
            per_n.setdefault(code.length, []).append(code)

    want = _CODE_CHECKS[plan.theorem]
    if not finite:
        if plan.theorem == "equivdef":
            raise InfiniteField("the equivdef suite enumerates subcodes; base field is infinite")
        want = tuple(name for name in want if name != "equivdef")
    items = []
    for n in sorted(per_n):
        codes = per_n[n]
        for idx, code in enumerate(codes):
            for name in want:
                items.append((name, code, plan.seed + idx))
        if plan.theorem in ("closure", "all"):
            if len(codes) ** 2 <= _PAIR_LIMIT:
                pairs = [(a, b) for a in codes for b in codes]
            else:
                pairs = [
                    (rng.choice(codes), rng.choice(codes)) for _ in range(_PAIR_SAMPLE)
                ]
            for pair in pairs:
                items.append(("closure_pair", pair, 0))
    total_codes = sum(len(v) for v in per_n.values())
    return items, total_codes


def resolve_workers() -> int:
    """RANKWEIGHT_WORKERS, else available parallelism: the CPUs this process may run on.

    A RANKWEIGHT_WORKERS that is not a positive integer raises ValueError.
    """
    env = os.environ.get("RANKWEIGHT_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0  # not an integer: refused below, as a non-positive one is
        if value < 1:
            raise ValueError(f"RANKWEIGHT_WORKERS must be a positive integer, got {env!r}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drain(items, taken, workers):
    """(start, results) for each block of items this process takes from the shared
    count ``taken``: 1 / (2 * workers) of what is left, so blocks shrink as the
    work runs out and the processes finish close together (guided self-scheduling)."""
    n = len(items)
    blocks = []
    while True:
        with taken.get_lock():
            start = taken.value
            stop = min(n, start + max(1, (n - start) // (2 * workers)))
            taken.value = stop
        if start >= n:
            return blocks
        # _run_item is read at call time, so a rebinding of it on the module reaches every process
        blocks.append((start, [_run_item(it) for it in items[start:stop]]))


def _work(items, taken, workers, conn):
    """A child process: send back its blocks, or the exception that stopped it."""
    try:
        sent = _drain(items, taken, workers)
    except Exception as exc:
        import pickle  # here, as multiprocessing in _execute: a serial run never loads either

        with taken.get_lock():
            taken.value = len(items)  # the others stop after their current block
        try:
            sent = pickle.loads(pickle.dumps(exc))
        except Exception:
            sent = RuntimeError(repr(exc))
    conn.send(sent)
    conn.close()


def _execute(items, workers: int):
    """The results of _run_item on items, in item order.

    The caller is one of the workers (never more than items): it starts the
    others as children and drains blocks of items as they do (``_drain``).
    Under ``fork`` nothing is pickled on the way in: every child works on the
    parent's towers, with their kernels and code table built, and keeps its
    memos across its blocks.  Under ``spawn`` the items are pickled once per
    child.  An exception in any process is raised here once every child has ended.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [_run_item(it) for it in items]
    from multiprocessing import get_context

    ctx = get_context()
    taken = ctx.Value("q", 0)
    children = []
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_work, args=(items, taken, workers, send), daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        blocks = _drain(items, taken, workers)
        for child, recv in children:
            try:
                sent = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a verify worker exited with code {child.exitcode} "
                                   "before sending its results") from None
            if isinstance(sent, BaseException):
                raise sent
            blocks.extend(sent)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    blocks.sort()  # by start: the starts differ, so no two results are compared
    return [result for _, results in blocks for result in results]


def run_verify(plan: VerifyPlan) -> dict:
    """Execute the plan; the summary is JSON-ready with a stable key order.

    The worker count changes only the wall time, never the summary: work is
    generated and reduced in deterministic order, with all randomness drawn
    from the plan seed before any dispatch.  The items of every tower go to
    one ``_execute`` call, so a parallel run starts its children once.
    """
    rng = random.Random(plan.seed)
    built = []
    for task in plan.towers:
        tower = task.build()
        built.append((task, tower) + _build_items(plan, tower, task, rng))
    results = iter(_execute([it for _, _, items, _ in built for it in items], plan.workers))
    tower_reports = []
    ok = True
    grand_codes = 0
    grand_assertions = 0
    for task, tower, items, ncodes in built:
        checks = {}
        failures = []
        assertions = 0
        # zip stops at the end of items before drawing from results
        for (name, _, _), (passed, count, failure) in zip(items, results):
            entry = checks.setdefault(name, {"items": 0, "assertions": 0, "failures": 0})
            entry["items"] += 1
            if passed:
                entry["assertions"] += count
                assertions += count
            else:
                entry["failures"] += 1
                failures.append(failure)
                ok = False
        tower_reports.append(
            {
                "tower": tower_to_json(tower),
                "max_n": task.max_n,
                "codes_checked": ncodes,
                "assertions": assertions,
                "checks": checks,
                "failures": failures,
            }
        )
        grand_codes += ncodes
        grand_assertions += assertions
    return {
        "theorem": plan.theorem,
        "source": plan.source,
        "random_count": plan.random_count if plan.source == "random" else None,
        "seed": plan.seed,
        "codes_checked": grand_codes,
        "assertions": grand_assertions,
        "ok": ok,
        "towers": tower_reports,
    }


def summary_to_text(summary: dict) -> str:
    """Human-readable rendering of a verify summary."""
    lines = []
    source = summary["source"]
    if source == "random":
        source = f"random({summary['random_count']}, seed={summary['seed']})"
    lines.append(f"theorem selection: {summary['theorem']}   source: {source}")
    for rep in summary["towers"]:
        t = rep["tower"]
        mod = ",".join(str(c) for c in t["extension_modulus"])
        head = f"char {t['characteristic']}"
        if t["base_degree"] > 1:
            head += f" base_degree {t['base_degree']}"
        lines.append(
            f"  {head} modulus [{mod}] n<={rep['max_n']}: "
            f"{rep['codes_checked']} codes, {rep['assertions']} assertions"
        )
        for name in sorted(rep["checks"]):
            entry = rep["checks"][name]
            status = "ok" if entry["failures"] == 0 else f"{entry['failures']} FAILED"
            lines.append(
                f"    {name:<13} items {entry['items']:>6}  assertions {entry['assertions']:>7}  {status}"
            )
        for failure in rep["failures"]:
            lines.append(f"    FAILURE [{failure['check']}]: {failure['message']}")
            for doc in failure["documents"]:
                lines.append("      reproduce with: " + json.dumps(doc))
    lines.append(
        f"result: {'PASS' if summary['ok'] else 'FAIL'} "
        f"({summary['codes_checked']} codes checked, {summary['assertions']} assertions)"
    )
    return "\n".join(lines)
