"""What one fresh interpreter does for a run: set up, then measure or trace.

``run.py`` starts this in child interpreters so that every set-up sample
pays for a cold import of rankweight, as a user's CLI call does.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import sys
import time

from . import checks, hooks, layers
from .algebra import Tower
from .probe import HostProbe, SpeedScale
from .workloads import QueryMix, VerifyFinite, VerifyFinitePar, VerifyQt, random_generators, task_for

perf_counter = time.perf_counter

WORKLOADS = {
    "verify-finite": VerifyFinite,
    "verify-qt": VerifyQt,
    "query-mix": QueryMix,
    "verify-finite-par": VerifyFinitePar,
}

FIELD_BATCH_SEED = 20191001  # fixed, so that fields.*.ns compare across seeds and commits
FIELD_BATCH = 1000
FIELD_REPEATS = 7
MIN_TAIL = 10  # samples that must lie beyond the reported percentile
SETUP_PROBES = 11


def set_up(name: str, seed: int, quick: bool, out_dir: str, src_dir: str):
    """Import rankweight from src_dir and set the workload up.

    Returns the workload and the set-up time, raw and scaled by a probe burst
    taken right after it."""
    t0 = perf_counter()
    sys.path.insert(0, src_dir)
    import rankweight

    if os.path.dirname(os.path.abspath(rankweight.__file__)) != os.path.join(src_dir, "rankweight"):
        raise RuntimeError(f"imported rankweight from {rankweight.__file__}, not from {src_dir}")
    workload = WORKLOADS[name](seed, quick, out_dir)
    workload.setup()
    raw = perf_counter() - t0
    return workload, raw, raw * HostProbe().burst(SETUP_PROBES)


def _install_verify_hooks(workload, probe=None):
    if isinstance(workload, QueryMix):
        return None
    hooks.ACTIVE = hooks.VerifyHooks(probe)
    return hooks.ACTIVE


def percentile(sorted_values, p: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _timing_metrics(rounds, scale) -> dict:
    """codes_per_s and latency percentiles; ``scale(start, end)`` is 1 for raw times."""
    codes = sum(r.codes for r in rounds)
    seconds = sum(r.wall * scale(r.start, r.start + r.wall) for r in rounds)
    latencies = sorted(dt * scale(t, t + dt) for r in rounds for t, dt in r.latencies)
    return {
        "codes_per_s": codes / seconds,
        "query_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "query_p95_ms": 1000.0 * percentile(latencies, 0.95),
    }


def measure(workload, setup_s: float, setup_raw_s: float, seconds: float, quick: bool) -> dict:
    probe = HostProbe()
    verify_hooks = _install_verify_hooks(workload, probe)
    rounds = []
    start = perf_counter()
    while True:
        probe.maybe()
        rounds.append(workload.run_round(verify_hooks, probe))
        if len(rounds) == 1:
            rss = peak_rss_mb()  # before the benchmark's own records of later rounds pile up
        if quick or perf_counter() - start >= seconds:
            break
    probe.maybe()
    ck = checks.Checker()
    workload.check(ck)
    operations = sum(len(r.latencies) for r in rounds)
    if not quick and operations - math.ceil(0.95 * operations) < MIN_TAIL:
        raise RuntimeError(f"{operations} operations leave fewer than {MIN_TAIL} beyond p95")
    for message in ck.messages:
        print("check failed: " + message, file=sys.stderr)
    speed = SpeedScale(probe.samples)
    return {
        "correct": ck.ok,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": dict(_timing_metrics(rounds, speed.factor), setup_s=setup_s, peak_rss_mb=rss),
        "raw_metrics": dict(_timing_metrics(rounds, lambda a, b: 1.0), setup_s=setup_raw_s),
        "round_s": [r.wall for r in rounds],
        "operations": operations,
        "probes": len(probe.samples),
        "checks_passed": ck.passed,
    }


def field_timings(spec) -> dict:
    """ns per FieldElement operation on a fixed seeded operand batch of one field."""
    from rankweight.fields import FieldElement

    lib = task_for(spec, 1).build()
    own = Tower(spec)
    rng = random.Random(FIELD_BATCH_SEED)
    elems = [FieldElement(lib.L, x) for x in random_generators(own, rng, 2 * FIELD_BATCH, 1)[0]]
    pairs = list(zip(elems[::2], elems[1::2]))
    nonzero = [a for a in elems if a][:FIELD_BATCH]

    def per_op(run, count):
        samples = []
        for _ in range(FIELD_REPEATS):
            t0 = perf_counter()
            run()
            samples.append((perf_counter() - t0) * 1e9 / count)
        return statistics.median(samples)

    return {
        "mul": per_op(lambda: [a * b for a, b in pairs], len(pairs)),
        "add": per_op(lambda: [a + b for a, b in pairs], len(pairs)),
        "inv": per_op(lambda: [a.inverse() for a in nonzero], len(nonzero)),
    }


def trace(workload, span_stem: str) -> dict:
    """One round with spans, one round counting field operators, then the checks."""
    field_ns = field_timings(workload.field_spec)
    verify_hooks = _install_verify_hooks(workload)
    spans = hooks.Tracer()
    counts = hooks.Tracer()
    results = []
    for tracer, install in ((spans, spans.install_spans), (counts, counts.install_counters)):
        if verify_hooks is not None:
            verify_hooks.tracer = tracer
        install()
        try:
            results.append(workload.run_round(verify_hooks, None))
        finally:
            tracer.restore()
    if verify_hooks is not None:
        verify_hooks.tracer = None
    ck = checks.Checker()
    workload.check(ck)
    for message in ck.messages:
        print("check failed: " + message, file=sys.stderr)
    spans.write_spans(span_stem)
    values = layers.layer_values(spans, counts, field_ns, results[0].codes)
    return {
        "correct": ck.ok,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER},
        "spans": len(spans.span_start),
        "span_round_s": results[0].wall,
        "count_round_s": results[1].wall,
        "checks_passed": ck.passed,
    }
