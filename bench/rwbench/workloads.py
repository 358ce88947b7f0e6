"""The four workloads: inputs from the seed, one timed round, and the checks.

A round is the unit a run repeats; every round of a run does the same
operations on the same inputs.  An operation is one verify work item (one
check on one code or on one pair of codes) in the sweeps, and one
``cli.main`` call in ``query-mix``.  rankweight is imported only inside
``setup`` and later, so that its import is part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction

from . import checks
from .algebra import Tower, gaussian_binomial, render

perf_counter = time.perf_counter

GF4 = {"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 1], "generator_name": "w"}
GF8 = {"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 0, 1], "generator_name": "w"}
GF9 = {"characteristic": 3, "base_degree": 1, "extension_modulus": [1, 0, 1], "generator_name": "w"}
GF16_OVER_GF4 = {"characteristic": 2, "base_degree": 2, "base_modulus": [1, 1, 1],
                 "base_generator_name": "u", "extension_modulus": ["u", "1", "1"],
                 "generator_name": "w"}
GF16_OVER_GF2 = {"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 0, 0, 1],
                 "generator_name": "w"}
QT = {"characteristic": 0, "base_degree": 1, "extension_modulus": [-2, 0, 0, 1], "generator_name": "t"}

# the standard plan, then a nested base (payloads are tuples of tuples) and a tower with m > n
FINITE_PLAN = [(GF4, 2), (GF8, 3), (GF9, 2), (GF16_OVER_GF4, 2), (GF16_OVER_GF2, 2)]
FINITE_PLAN_QUICK = [(GF4, 2), (GF8, 2), (GF9, 1), (GF16_OVER_GF4, 1), (GF16_OVER_GF2, 1)]
# 600 codes put about 200 in each length, far above the 50 at which verify
# switches from all pairs to its fixed pair sample.  verify draws n and dim
# uniformly, so the share of costly n = 3 codes, and with it the cost of a
# round, changes from seed to seed.  1200 codes narrow that, but closure
# pairs fall from 38% to 24% of the items, the median item leaves their
# dense band, and the spread of query_p50_ms grew from 0.05-0.09 to 0.18
QT_PLAN, QT_COUNT, QT_COUNT_QUICK = [(QT, 3)], 600, 30
HEIGHT = 5  # rational coordinates a/b with |a|, b <= HEIGHT

# verify's documented pair policy: all ordered pairs up to this many, else a fixed sample
PAIR_LIMIT, PAIR_SAMPLE = 2500, 500

# query-mix documents: (n, dim) slots per tower, five documents per slot
# (one for the zero code); n = 3, dim = 3 is left out because the only such
# code, L^3, costs up to 0.6 s per weights query and would swamp the mix
MIX_TOWERS = [GF4, GF8, GF9, GF16_OVER_GF4, GF16_OVER_GF2, QT]
MIX_SLOTS = [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]
MIX_SLOTS_QUICK = [(1, 1), (2, 0), (2, 1), (2, 2)]
MIX_COMMANDS = ("analyze", "weights", "witness", "dual", "closure")


def task_for(spec, max_n):
    from rankweight.verify import TowerTask

    base_modulus = spec.get("base_modulus")
    return TowerTask(spec["characteristic"], tuple(spec["extension_modulus"]),
                     base_degree=spec["base_degree"],
                     base_modulus=None if base_modulus is None else tuple(base_modulus),
                     max_n=max_n)


def random_generators(own: Tower, rng: random.Random, n: int, dim: int):
    pool = own.L.elements() if own.L.order is not None else None

    def element():
        if pool is not None:
            return rng.choice(pool)
        return tuple(Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
                     for _ in range(own.m))

    return [[element() for _ in range(n)] for _ in range(dim)]


def random_dim(own: Tower, rng: random.Random, n: int) -> int:
    # verify draws at most two generators over Q, to keep exact arithmetic cheap
    return rng.randint(0, n if own.L.order is not None else min(n, 2))


def payload_rows(rows):
    return [[x.payload for x in row] for row in rows]


class RoundResult:
    def __init__(self, attempted, failed, codes, start, wall, latencies):
        self.attempted = attempted
        self.failed = failed
        self.codes = codes
        self.start = start
        self.wall = wall
        self.latencies = latencies  # (start, seconds) per operation


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class Sweep:
    """run_verify of theorem 'all' on a fixed plan; a seeded sample of codes is
    checked through the library API after the timed part."""

    workers = 1
    field_spec = GF8
    sample_per_tower = 3

    def __init__(self, seed: int, quick: bool, out_dir: str):
        self.seed = seed
        self.quick = quick
        self.summaries = []

    def plan_towers(self):
        return FINITE_PLAN_QUICK if self.quick else FINITE_PLAN

    def make_plan(self):
        from rankweight.verify import VerifyPlan

        return VerifyPlan(towers=[task_for(s, n) for s, n in self.plan_towers()], theorem="all",
                          seed=self.seed, workers=self.workers, force=True)

    def setup(self):
        self.plan = self.make_plan()
        self.lib_towers = [task.build() for task in self.plan.towers]

    def run_round(self, hooks, probe) -> RoundResult:
        """One run_verify; the item timings and probes come through ``hooks``."""
        from rankweight.verify import run_verify

        hooks.latencies = []
        t0 = perf_counter()
        summary = run_verify(self.plan)
        wall = perf_counter() - t0
        self.summaries.append(json.dumps(summary))
        entries = [c for rep in summary["towers"] for c in rep["checks"].values()]
        return RoundResult(sum(c["items"] for c in entries), sum(c["failures"] for c in entries),
                           summary["codes_checked"], t0, wall, hooks.latencies)

    def check(self, ck: checks.Checker):
        ck.expect(all(s == self.summaries[0] for s in self.summaries),
                  "verify summaries differ between rounds")
        summary = json.loads(self.summaries[0])
        ck.expect(summary["ok"], "verify summary is not ok")
        for rep, (spec, max_n) in zip(summary["towers"], self.plan_towers()):
            self.check_counts(ck, rep, Tower(spec), max_n)
        self.check_sample(ck)

    def population_sizes(self, own: Tower, max_n: int):
        """Codes per length, from the benchmark's own q-binomials."""
        q = own.L.order
        return [[sum(gaussian_binomial(n, r, q) for r in range(n + 1)) for n in range(1, max_n + 1)]]

    def check_counts(self, ck, rep, own: Tower, max_n: int):
        label = f"tower {rep['tower']['extension_modulus']}"
        options = self.population_sizes(own, max_n)
        total = sum(options[0])
        names = ["witness", "delsarte", "closure", "trace"]
        if own.L.order is not None:
            names.append("equivdef")
        ck.expect(rep["codes_checked"] == total, f"{label}: {rep['codes_checked']} codes, census {total}")
        ck.expect(sorted(rep["checks"]) == sorted(names + ["closure_pair"]), f"{label}: check names")
        for name in names:
            ck.expect(rep["checks"].get(name, {}).get("items") == total, f"{label}: {name} item count")
        pairs = {sum(c * c if c * c <= PAIR_LIMIT else PAIR_SAMPLE for c in sizes) for sizes in options}
        ck.expect(rep["checks"].get("closure_pair", {}).get("items") in pairs,
                  f"{label}: closure_pair item count")
        ck.expect(not rep["failures"] and all(c["failures"] == 0 for c in rep["checks"].values()),
                  f"{label}: failures reported")

    def check_sample(self, ck):
        from rankweight import ranksupport as rs
        from rankweight import weights as wt
        from rankweight.fields import FieldElement
        from rankweight.ranksupport import LinearCode

        rng = random.Random(self.seed)
        for (spec, max_n), lib in zip(self.plan_towers(), self.lib_towers):
            own = Tower(spec)
            finite = own.L.order is not None
            for i in range(self.sample_per_tower):
                n = rng.randint(1, max_n)
                gens = random_generators(own, rng, n, random_dim(own, rng, n))
                code = LinearCode.from_generators(
                    lib, n, [[FieldElement(lib.L, x) for x in g] for g in gens])
                mine = checks.OwnCode(own, n, gens)
                label = f"sample {spec['extension_modulus']} #{i} n={n}"
                ck.expect(code.dim == mine.dim, f"{label}: dim {code.dim} != {mine.dim}")
                checks.check_literal(ck, mine, label)
                checks.check_support_rows(ck, mine, payload_rows(rs.rank_support_code(code).space.rows), label)
                checks.check_restriction_rows(ck, mine, payload_rows(rs.restriction(code).space.rows), label)
                checks.check_dual(ck, mine, payload_rows(rs.dual(code).space.rows), label)
                checks.check_closure(ck, mine, payload_rows(rs.closure(code).space.rows), label)
                checks.check_flags(ck, mine, rs.is_rank_degenerate(code), rs.is_extended(code), label)
                w = wt.find_witness(code, strategy="auto", seed=self.seed + i)
                checks.check_witness(ck, mine, None if w is None else [x.payload for x in w],
                                     "none_exists" if w is None else "found", label)
                if finite:
                    rows = [(r, wt.weight_dRr(code, r), wt.weight_Mr(code, r), wt.weight_OSr(code, r),
                             wt.weight_Dr(code, r)) for r in range(1, code.dim + 1)]
                    distance = wt.rank_distance(code) if code.dim else None
                    checks.check_hierarchy(ck, mine, rows, distance, label)


class VerifyFinite(Sweep):
    pass


class VerifyFinitePar(Sweep):
    """The same plan on a pool of two workers; its summary must match workers=1."""

    workers = 2

    def check(self, ck):
        super().check(ck)
        from rankweight.verify import run_verify

        serial = self.make_plan()
        serial.workers = 1
        ck.expect(json.dumps(run_verify(serial)) == self.summaries[0],
                  "summary at workers=2 differs from workers=1")


class VerifyQt(Sweep):
    """Seeded random codes over Q(t), t^3 = 2; equivdef does not apply over Q."""

    field_spec = QT
    sample_per_tower = 10

    def plan_towers(self):
        return QT_PLAN

    def make_plan(self):
        plan = super().make_plan()
        plan.source = "random"
        plan.random_count = QT_COUNT_QUICK if self.quick else QT_COUNT
        return plan

    def population_sizes(self, own, max_n):
        """Every split of the random population over the lengths 1..max_n."""
        return _splits(self.plan.random_count, max_n)


def _splits(count: int, parts: int):
    if parts == 1:
        return [[count]]
    return [[head] + rest for head in range(count + 1) for rest in _splits(count - head, parts - 1)]


# ---------------------------------------------------------------------------
# CLI query mix
# ---------------------------------------------------------------------------


class QueryMix:
    """A seeded, shuffled sequence of cli.main calls on seeded code documents.

    Every call parses its document and builds its tower afresh, with cold
    field caches, as a user's CLI call does."""

    field_spec = GF16_OVER_GF4

    def __init__(self, seed: int, quick: bool, out_dir: str):
        self.seed = seed
        self.quick = quick
        self.doc_dir = os.path.join(out_dir, "docs")
        self.outputs = None
        self.mismatches = 0

    def setup(self):
        from rankweight.documents import parse_code_file

        rng = random.Random(self.seed)
        os.makedirs(self.doc_dir, exist_ok=True)
        self.docs = []
        for spec in MIX_TOWERS:
            own = Tower(spec)
            for n, dim in MIX_SLOTS_QUICK if self.quick else MIX_SLOTS:
                for _ in range(1 if dim == 0 or self.quick else 5):
                    gens = random_generators(own, rng, n, dim)
                    doc = {"tower": spec, "length": n,
                           "generators": [[render(own.L, x) for x in g] for g in gens]}
                    path = os.path.join(self.doc_dir, f"doc{len(self.docs):03d}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                    self.docs.append((path, spec, own, n, gens))
        for path, *_ in self.docs:
            with open(path, encoding="utf-8") as fh:
                parse_code_file(fh.read())
        self.queries = []
        for index, (path, spec, own, n, gens) in enumerate(self.docs):
            seed = str(rng.randrange(10 ** 6))
            for command in MIX_COMMANDS:
                argv = [command, path]
                if command in ("analyze", "weights", "witness"):
                    argv += ["--format", "json"]
                if command == "weights":
                    argv += ["--seed", seed]
                if command == "witness":
                    argv += (["--strategy", "auto"] if own.L.order is not None
                             else ["--strategy", "random", "--seed", seed])
                self.queries.append((index, argv))
        rng.shuffle(self.queries)

    def run_round(self, hooks, probe) -> RoundResult:
        from rankweight import cli

        outputs = []
        latencies = []
        failed = 0
        t_round = perf_counter()
        for _, argv in self.queries:
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed query; the mix goes on
                traceback.print_exc(file=sys.stderr)
                rc = None
            latencies.append((t0, perf_counter() - t0))
            failed += rc != 0
            outputs.append((rc, buf.getvalue()))
            if probe is not None:
                probe.maybe()
        wall = perf_counter() - t_round
        if self.outputs is None:
            self.outputs = outputs
        else:
            self.mismatches += sum(a != b for a, b in zip(outputs, self.outputs))
        return RoundResult(len(self.queries), failed, len(self.queries), t_round, wall, latencies)

    def check(self, ck: checks.Checker):
        ck.expect(self.mismatches == 0, f"{self.mismatches} query outputs differ between rounds")
        for (index, argv), (rc, text) in zip(self.queries, self.outputs):
            if rc != 0:
                continue  # counted as failed, not as wrong
            path, spec, own, n, gens = self.docs[index]
            mine = checks.OwnCode(own, n, gens)
            label = " ".join([argv[0], os.path.basename(path)] + argv[2:])
            check_query(ck, argv[0], json.loads(text), spec, own, mine, label)
            checks.check_literal(ck, mine, label)


def check_query(ck, command, out, spec, own: Tower, mine, label):
    if command in ("dual", "closure"):
        ck.expect(out["tower"] == spec and out["length"] == mine.n, f"{label}: document header")
        rows = [own.vector(r) for r in out["generators"]]
        (checks.check_dual if command == "dual" else checks.check_closure)(ck, mine, rows, label)
        return
    ck.expect(out["tower"] == spec and out["n"] == mine.n and out["dim"] == mine.dim,
              f"{label}: report header")
    if command == "analyze":
        checks.check_support_rows(ck, mine, [own.k_vector(r) for r in out["rank_support"]], label)
        checks.check_restriction_rows(ck, mine, [own.k_vector(r) for r in out["restriction"]], label)
        checks.check_dual(ck, mine, [own.vector(r) for r in out["dual"]], label)
        checks.check_closure(ck, mine, [own.vector(r) for r in out["closure"]], label)
        checks.check_flags(ck, mine, out["degenerate"], out["extended"], label)
        return
    witness = None if out["witness"] is None else own.vector(out["witness"])
    if command == "weights":
        status = "found" if witness is not None else out["witness_status"]
        checks.check_flags(ck, mine, out["degenerate"], None, label)
        rows = [(r["r"], r["dRr"], r["Mr"], r["OSr"], r["Dr"]) for r in out["hierarchy"]]
        if own.L.order is None:
            ck.expect(len(rows) == mine.dim and all(v is None for r in rows for v in r[1:])
                      and out["rank_distance"] is None, f"{label}: Q(t) weights must be inapplicable")
        else:
            checks.check_hierarchy(ck, mine, rows, out["rank_distance"], label)
    else:
        status = out["status"]
    checks.check_witness(ck, mine, witness, status, label)
