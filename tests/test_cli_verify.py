"""CLI commands, exit codes, and the verification harness."""

import json
import pathlib
import subprocess
import sys

import pytest

import rankweight
from rankweight import cli
from rankweight import verify as verify_mod
from rankweight.documents import parse_code_file
from rankweight.errors import InfiniteField
from rankweight.verify import (
    CheckFailure,
    TowerTask,
    VerifyPlan,
    random_codes,
    resolve_workers,
    run_verify,
    standard_plan,
)

SAMPLE = (
    '{"tower": {"characteristic": 2, "base_degree": 1, "extension_modulus": [1,1,1],'
    ' "generator_name": "w"}, "length": 2, "generators": [["1", "w"]]}'
)

QSAMPLE = json.dumps(
    {
        "tower": {
            "characteristic": 0,
            "base_degree": 1,
            "extension_modulus": [-2, 0, 0, 1],
            "generator_name": "t",
        },
        "length": 2,
        "generators": [["1", "t"]],
    }
)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "gf4.json"
    path.write_text(SAMPLE)
    return str(path)


@pytest.fixture
def q_file(tmp_path):
    path = tmp_path / "qtheta.json"
    path.write_text(QSAMPLE)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(sample_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", sample_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["rank_support"] == [["1", "0"], ["0", "1"]]
    assert report["restriction"] == []
    assert report["degenerate"] is False
    assert report["extended"] is False
    assert report["dim"] == 1


def test_weights_json_schema(sample_file, capsys):
    code, out, _ = run_cli(capsys, "weights", sample_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["tower", "n", "dim", "rank_distance", "hierarchy", "witness", "degenerate"]
    assert report["rank_distance"] == 2
    assert report["hierarchy"] == [{"r": 1, "dRr": 2, "Mr": 2, "OSr": 2, "Dr": 2}]
    assert report["witness"] == ["1", "w"]
    # JSON round-trips losslessly
    assert json.loads(cli.emit_report(report, "json")) == report


def test_weights_single_row_and_bad_r(sample_file, capsys):
    code, out, _ = run_cli(capsys, "weights", sample_file, "--r", "1", "--format", "json")
    assert code == 0
    code, _, err = run_cli(capsys, "weights", sample_file, "--r", "7")
    assert code == 1
    assert "outside" in err


def test_weights_inapplicable_entries_over_q(q_file, capsys):
    code, out, _ = run_cli(capsys, "weights", q_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["rank_distance"] is None
    assert report["rank_distance_reason"] == "requires finite enumeration"
    assert report["hierarchy"][0]["dRr"] is None
    assert report["hierarchy"][0]["reason"] == "requires finite enumeration"


def test_witness_command(sample_file, q_file, capsys):
    code, out, _ = run_cli(capsys, "witness", sample_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["witness"] == ["1", "w"]
    code, _, err = run_cli(capsys, "witness", q_file, "--strategy", "exhaustive")
    assert code == 3
    code, out, _ = run_cli(capsys, "witness", q_file, "--strategy", "random", "--seed", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_dual_closure_roundtrip(sample_file, capsys):
    code, out, _ = run_cli(capsys, "dual", sample_file)
    assert code == 0
    dual_doc = parse_code_file(out)
    assert dual_doc.to_code().dim == 1
    code, out, _ = run_cli(capsys, "closure", sample_file)
    assert code == 0
    assert parse_code_file(out).to_code().dim == 2


def test_input_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(capsys, "analyze", missing)[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text(SAMPLE.replace("[1,1,1]", "[1,0,1]"))
    assert run_cli(capsys, "analyze", str(bad))[0] == 1
    assert run_cli(capsys, "analyze")[0] == 1  # missing argument: usage error


def test_verify_cli_pass_and_inapplicable(capsys, monkeypatch):
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    code, out, _ = run_cli(
        capsys, "verify", "--char", "2", "--ext-modulus", "1,1,1", "--max-n", "2",
        "--theorem", "delsarte", "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["codes_checked"] == 9

    code, _, err = run_cli(capsys, "verify", "--char", "0", "--ext-modulus=-2,0,0,1")
    assert code == 3


def test_verify_witness_suite_with_expected_absent_case(capsys, monkeypatch):
    # GF(4)/GF(2) up to n = 3 (m = 2 < n): the witness suite must still pass,
    # treating guaranteed absence on nondegenerate codes as the assertion
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    code, out, _ = run_cli(
        capsys, "verify", "--char", "2", "--ext-modulus", "1,1,1", "--max-n", "3",
        "--theorem", "witness", "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["codes_checked"] > 9  # includes the n = 3 census


def test_verify_resource_guard(capsys, monkeypatch):
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    code, _, err = run_cli(
        capsys, "verify", "--char", "2", "--ext-modulus", "1,1,0,0,1", "--max-n", "2",
        "--theorem", "delsarte",
    )
    assert code == 1 and "resource guard" in err
    code, out, _ = run_cli(
        capsys, "verify", "--char", "2", "--ext-modulus", "1,1,0,0,1", "--max-n", "1",
        "--theorem", "delsarte", "--force", "--format", "json",
    )
    assert code == 0


def test_verify_failure_exit_2_and_reproduction(capsys, monkeypatch):
    # inject a failing check to exercise the reporting machinery end to end
    def always_fails(code, params):
        raise CheckFailure("injected failure", [code])

    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    monkeypatch.setitem(verify_mod._CHECKS, "delsarte", always_fails)
    code, out, _ = run_cli(
        capsys, "verify", "--char", "2", "--ext-modulus", "1,1,1", "--max-n", "1",
        "--theorem", "delsarte", "--format", "json",
    )
    assert code == 2
    summary = json.loads(out)
    assert summary["ok"] is False
    failure = summary["towers"][0]["failures"][0]
    reproduced = parse_code_file(json.dumps(failure["documents"][0]))
    assert reproduced.to_code().length == 1


def test_run_verify_reproducible_across_workers():
    plans = [
        VerifyPlan(towers=[TowerTask(2, (1, 1, 1), max_n=2)], theorem="all", workers=w, seed=7)
        for w in (1, 2)
    ]
    summaries = [run_verify(p) for p in plans]
    assert summaries[0] == summaries[1]


def test_run_verify_random_source_deterministic():
    task = TowerTask(0, (-2, 0, 0, 1), max_n=2)
    mk = lambda: VerifyPlan(
        towers=[task], theorem="delsarte", source="random", random_count=25, seed=5, workers=1
    )
    assert run_verify(mk()) == run_verify(mk())


def test_random_codes_seeded():
    import random

    t = TowerTask(2, (1, 1, 1), max_n=2).build()
    a = random_codes(t, 2, 30, random.Random(3))
    b = random_codes(t, 2, 30, random.Random(3))
    assert a == b


def test_equivdef_random_over_q_is_inapplicable():
    plan = VerifyPlan(
        towers=[TowerTask(0, (-2, 0, 0, 1), max_n=2)],
        theorem="equivdef",
        source="random",
        random_count=5,
        seed=1,
        workers=1,
    )
    with pytest.raises(InfiniteField):
        run_verify(plan)


def test_standard_plan_census():
    summary = run_verify(standard_plan(theorem="delsarte", workers=1))
    per_tower = [rep["codes_checked"] for rep in summary["towers"]]
    assert per_tower == [9, 161, 14]  # Gaussian-binomial census per tower


def test_resolve_workers(monkeypatch):
    assert resolve_workers(4) == 4
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "zebra")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.delenv("RANKWEIGHT_WORKERS")
    assert resolve_workers() >= 1


def test_console_entry_point():
    """Runs `python -m rankweight.cli` (the `__main__` guard in cli.py) in a fresh interpreter against the source tree under test, not the installed `rankweight` console script."""
    # the child imports rankweight from where this process imported it, so
    # neither a relative PYTHONPATH nor an installed copy decides what runs,
    # and it writes no bytecode cache into that source tree
    source_root = pathlib.Path(rankweight.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "rankweight.cli", "verify", "--char", "2",
         "--ext-modulus", "1,1,1", "--max-n", "1", "--theorem", "trace"],
        capture_output=True,
        text=True,
        env={
            "RANKWEIGHT_WORKERS": "1",
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(source_root),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
