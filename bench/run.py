#!/usr/bin/env python3
"""Benchmark for rankweight: verify sweeps, a CLI query mix and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload verify-finite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload query-mix --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Each
run starts fresh interpreters: several that only set up (for ``setup_s``)
and one that sets up, measures or traces, and checks the outputs.  The
program is imported from ``src/`` of the checkout; without it the run
fails.  Results, traces and query documents go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = [
    ("codes_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 7  # set-up samples per run, the measuring interpreter's included
RUN_BUDGET_S = 170  # every child of one run must end within this


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="every workload at a reduced size, measured and traced, with all checks")
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rankweight", "__init__.py")):
        print(f"error: no rankweight sources under {SRC}", file=sys.stderr)
        return 2
    from rwbench.runner import WORKLOADS

    if args.child:
        return child(args)
    if args.self_check:
        return self_check()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), quick=False)
    if result is None:
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(workload: str, seed: int, seconds: float, traced: bool, quick: bool):
    """One benchmark run in fresh interpreters; None when a child failed."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if traced:
        return spawn("trace", workload, seed, seconds, quick, deadline)
    samples, raw = [], []
    for _ in range(1 if quick else SETUP_SAMPLES - 1):
        out = spawn("setup", workload, seed, seconds, quick, deadline)
        if out is None:
            return None
        samples.append(out["setup_s"])
        raw.append(out["setup_raw_s"])
    result = spawn("measure", workload, seed, seconds, quick, deadline)
    if result is None:
        return None
    samples.append(result["metrics"]["setup_s"])
    raw.append(result["raw_metrics"]["setup_s"])
    values = dict(result["metrics"], setup_s=statistics.median(samples))
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result["raw_metrics"]["setup_s"] = statistics.median(raw)
    result["setup_samples_s"] = samples
    return result


def spawn(role, workload, seed, seconds, quick, deadline):
    """Run one child interpreter; its last stdout line is its JSON result."""
    work = os.path.join(OUT, f"work-{os.getpid()}-{role}")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", role, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out-dir", work]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {role} child for {workload} ran out of time", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {role} child for {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def child(args) -> int:
    from rwbench import runner

    os.makedirs(args.out_dir, exist_ok=True)
    workload, setup_raw_s, setup_s = runner.set_up(args.workload, args.seed, args.quick,
                                                   args.out_dir, SRC)
    if args.child == "setup":
        result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    elif args.child == "measure":
        result = runner.measure(workload, setup_s, setup_raw_s, args.seconds, args.quick)
    else:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
        result = runner.trace(workload, stem)
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """Every workload, reduced, measured and traced; BENCHMARK.json must match the code."""
    from rwbench.layers import PER_LAYER
    from rwbench.runner import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    good = True
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != PER_LAYER:
        print("BENCHMARK.json per_layer differs from rwbench.layers.PER_LAYER")
        good = False
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        print("BENCHMARK.json end_to_end differs from run.END_TO_END")
        good = False
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from rwbench.runner.WORKLOADS")
        good = False
    for name in WORKLOADS:
        for traced in (False, True):
            t0 = time.monotonic()
            result = run(name, 1, 0, traced, quick=True)
            ok = result is not None and result["correct"] and result["failed"] == 0
            good = good and ok
            mode = "traced" if traced else "measured"
            detail = "child failed" if result is None else (
                f"{result['attempted']} operations, {result['checks_passed']} checks passed")
            print(f"{'ok  ' if ok else 'FAIL'} {name:<18} {mode:<8} {detail} "
                  f"({time.monotonic() - t0:.1f} s)")
    print("self-check " + ("passed" if good else "FAILED"))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
