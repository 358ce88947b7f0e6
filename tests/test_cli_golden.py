"""CLI outputs replayed against a recorded golden file, byte for byte.

``tests/golden_cli.json`` holds the exit code, stdout and stderr of 52
in-process ``cli.main`` calls:

* on every ``samples/*.json``: ``analyze`` and ``weights`` in text and json,
  ``witness`` under the strategies auto, constructive, exhaustive and
  ``random --seed 7``, ``dual`` and ``closure``;
* ``verify --format json`` on the standard plan and on the Q(t), t^3 = 2
  plan ``--char 0 --ext-modulus=-2,0,0,1 --max-n 3 --random 120 --seed 42``,
  both with RANKWEIGHT_WORKERS=1.

The calls run with the repository root as working directory, so sample
paths print the same from wherever pytest starts.  The file pins the
program's observable behaviour across refactors.  Only a change that states
an intended output change may regenerate it, with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

and the change must say which outputs moved and why.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"

VERIFY_CALLS = (
    ["verify", "--format", "json"],
    ["verify", "--format", "json", "--char", "0", "--ext-modulus=-2,0,0,1", "--max-n", "3",
     "--random", "120", "--seed", "42"],
)


def golden_calls() -> list:
    """The argument lists, samples first, in a fixed order."""
    calls = []
    for path in sorted((ROOT / "samples").glob("*.json")):
        sample = f"samples/{path.name}"
        for cmd in ("analyze", "weights"):
            calls.append([cmd, sample])
            calls.append([cmd, sample, "--format", "json"])
        for strategy in ("auto", "constructive", "exhaustive"):
            calls.append(["witness", sample, "--strategy", strategy])
        calls.append(["witness", sample, "--strategy", "random", "--seed", "7"])
        calls.append(["dual", sample])
        calls.append(["closure", sample])
    calls.extend(list(c) for c in VERIFY_CALLS)
    return calls


def run_call(argv) -> dict:
    """rc, stdout and stderr of one cli.main call at the repository root, one verify worker."""
    from rankweight import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, workers = os.getcwd(), os.environ.get("RANKWEIGHT_WORKERS")
    os.chdir(ROOT)
    os.environ["RANKWEIGHT_WORKERS"] = "1"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        if workers is None:
            del os.environ["RANKWEIGHT_WORKERS"]
        else:
            os.environ["RANKWEIGHT_WORKERS"] = workers
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_outputs_match_golden_file():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == golden_calls()
    for want in recorded:
        assert run_call(want["argv"]) == want, " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_cli_golden.py --regenerate")
    records = [run_call(argv) for argv in golden_calls()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} calls to {GOLDEN}")
