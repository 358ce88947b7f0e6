"""CLI commands, exit codes, and the verification harness."""

import hashlib
import json
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import rankweight
from rankweight import cli, fields
from rankweight import verify as verify_mod
from rankweight import weights as weights_mod
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


@pytest.mark.parametrize("r", ["0", "2", "7", "-1"])
def test_weights_refuses_r_before_computing_any_weight(sample_file, capsys, monkeypatch, r):
    reports = []
    real = cli.weight_report
    monkeypatch.setattr(cli, "weight_report", lambda *a, **kw: reports.append(1) or real(*a, **kw))
    code, out, err = run_cli(capsys, "weights", sample_file, "--r", r)
    assert (code, out, reports) == (1, "", [])
    assert err == f"error: --r {r} outside 1..dim C = 1\n"
    assert run_cli(capsys, "weights", sample_file, "--r", "1")[0] == 0 and reports == [1]


R_DOCUMENTS = {
    # L^3 over GF(4) (n > m) and over GF(8) (n = m), a split GF(8) code, a nested base, and Q(t)
    "gf4-full-n3": ({"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 1],
                     "generator_name": "w"}, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    "gf8-full-n3": ({"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 0, 1],
                     "generator_name": "w"}, [["1", "0", "w"], ["0", "1", "w^2"], ["0", "0", "1"]]),
    "gf8-split": ({"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 0, 1],
                   "generator_name": "w"}, [["1", "0", "w"], ["0", "1", "1"]]),
    "gf16-over-gf4": ({"characteristic": 2, "base_degree": 2, "base_modulus": [1, 1, 1],
                       "base_generator_name": "u", "extension_modulus": ["u", "1", "1"],
                       "generator_name": "w"}, [["1", "0", "u*w"], ["0", "1", "w+1"]]),
    "qt": ({"characteristic": 0, "base_degree": 1, "extension_modulus": [-2, 0, 0, 1],
            "generator_name": "t"}, [["1", "t", "0"], ["0", "1", "t^2"]]),
}


@pytest.mark.parametrize("name", R_DOCUMENTS)
def test_weights_r_prints_row_r_of_the_full_report_from_rows_1_and_r(name, tmp_path, capsys, monkeypatch):
    """`weights --r R` prints the full report's bytes with row R alone in the
    hierarchy, in both formats, and weighs OS_r and D_r only at r = 1 and R."""
    tower, generators = R_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"tower": tower, "length": len(generators[0]), "generators": generators}))
    full = json.loads(run_cli(capsys, "weights", str(path), "--format", "json")[1])
    dim = len(full["hierarchy"])
    assert dim == len(generators)
    seen = []
    for weight in ("weight_OSr", "weight_Dr"):
        real = getattr(weights_mod, weight)
        monkeypatch.setattr(weights_mod, weight, lambda C, r, real=real: seen.append(r) or real(C, r))
    for r in range(1, dim + 1):
        expected = {**full, "hierarchy": [full["hierarchy"][r - 1]]}
        for fmt in ("json", "text"):
            seen.clear()
            code, out, err = run_cli(capsys, "weights", str(path), "--r", str(r), "--format", fmt)
            assert (code, out, err) == (0, cli.emit_report(expected, fmt) + "\n", "")
            assert set(seen) == (set() if tower["characteristic"] == 0 else {1, r})


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


def test_witness_without_seed_is_reproducible_over_q(capsys):
    # the random search over Q draws from --seed, which defaults to 0
    path = str(pathlib.Path(__file__).resolve().parent.parent / "samples" / "qtheta.json")
    outputs = [run_cli(capsys, "witness", path) for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "status: found" in outputs[0][1]
    assert run_cli(capsys, "witness", path, "--seed", "0") == outputs[0]


def test_witness_takes_no_height(capsys):
    path = str(pathlib.Path(__file__).resolve().parent.parent / "samples" / "qtheta.json")
    code, out, err = run_cli(capsys, "witness", path, "--height", "3")
    assert (code, out) == (1, "") and "unrecognized arguments: --height 3" in err

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


def test_ext_modulus_coefficients_are_read_by_the_element_grammar(capsys, monkeypatch):
    """--ext-modulus splits into element strings over the base, which the
    document reader parses: an int, a fraction over Q or a base-generator term."""
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    for modulus in ("-1/2, 0, 1", "3, 0, 1", "-2,0,0,1"):
        code, _, _ = run_cli(capsys, "verify", "--char", "0", f"--ext-modulus={modulus}", "--max-n", "1",
                             "--random", "2", "--theorem", "trace")
        assert code == 0, modulus
    code, out, err = run_cli(capsys, "verify", "--char", "0", "--ext-modulus=1/0,0,1", "--max-n", "1")
    assert (code, out) == (1, "")
    assert err == "error: bad element string '1/0': denominator 0 vanishes in Q\n"


def test_verify_base_field_errors_exit_1(capsys, monkeypatch):
    """The tower flags describe k as a document does: build_base_field refuses a
    composite characteristic and a base degree over Q, each a BadBase."""
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    for flags, message in [
        (("--char", "4", "--ext-modulus", "1,1,1"), "characteristic 4 is not prime"),
        (("--char", "0", "--base-degree", "2", "--ext-modulus=-2,0,1"), "characteristic 0 forces base_degree 1"),
    ]:
        assert run_cli(capsys, "verify", *flags) == (1, "", f"error: {message}\n"), flags


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


def test_a_plan_outside_the_guards_is_refused_without_force(capsys):
    gf16 = TowerTask(2, (1, 1, 0, 0, 1))
    with pytest.raises(ValueError, match=re.escape("|L| = 16 exceeds the resource guard 9; pass force")):
        run_verify(VerifyPlan(towers=[gf16]))
    with pytest.raises(ValueError, match=re.escape("max n = 5 exceeds the resource guard 4; pass force")):
        run_verify(VerifyPlan(towers=[TowerTask(2, (1, 1, 1), max_n=5)]))
    code, out, err = run_cli(capsys, "verify", "--char", "2", "--ext-modulus", "1,1,0,0,1")
    assert (code, out, err) == (1, "", "error: |L| = 16 exceeds the resource guard 9; pass force\n")


def test_a_plan_names_a_known_theorem_and_source():
    with pytest.raises(ValueError, match=re.escape("unknown theorem selection 'x'")):
        VerifyPlan(towers=[], theorem="x")
    with pytest.raises(ValueError, match=re.escape("unknown code source 'x'")):
        VerifyPlan(towers=[], source="x")

@pytest.mark.parametrize("flag", ["--max-n", "--random"])
@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("tower", [(), ("--char", "2", "--ext-modulus", "1,1,1")])
def test_verify_that_checks_no_code_is_a_usage_error(capsys, monkeypatch, flag, value, tower):
    """A plan with no codes would print PASS having checked nothing."""
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    code, out, err = run_cli(capsys, "verify", *tower, flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize("flag, value", [("--ext-modulus", "1,1,0,0,1"), ("--ext-modulus=-2,0,0,1", None),
                                         ("--base-degree", "2"), ("--base-degree", "1"),
                                         ("--base-modulus", "1,1,1")])
def test_tower_flags_without_char_are_a_usage_error(capsys, monkeypatch, flag, value):
    """Without --char a tower flag would be ignored, and the standard plan
    would run and print PASS."""
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    monkeypatch.setattr(cli, "run_verify", lambda plan: pytest.fail("a plan ran"))
    argv = [flag] if value is None else [flag, value]
    code, out, err = run_cli(capsys, "verify", *argv, "--max-n", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {flag.split('=')[0]} requires --char\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_workers_are_refused(capsys, monkeypatch, value):
    monkeypatch.setenv("RANKWEIGHT_WORKERS", value)
    with pytest.raises(ValueError, match="RANKWEIGHT_WORKERS must be a positive integer"):
        resolve_workers()
    code, out, err = run_cli(capsys, "verify", "--theorem", "delsarte")
    assert (code, out) == (1, "")
    assert err == f"error: RANKWEIGHT_WORKERS must be a positive integer, got {value!r}\n"


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
    nested = TowerTask(2, ("u", "1", "1"), base_degree=2, base_modulus=(1, 1, 1), max_n=2)
    qt = TowerTask(0, (-2, 0, 0, 1), max_n=3)
    for task, source in ((TowerTask(2, (1, 1, 1), max_n=2), "exhaustive"), (nested, "exhaustive"), (qt, "random")):
        plans = [
            VerifyPlan(towers=[task], theorem="all", source=source, random_count=40, workers=w, seed=7, force=True)
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


def test_random_codes_draw_codes_not_elements(monkeypatch):
    import random

    from rankweight.fields import Field
    from rankweight.ranksupport import LinearCode

    t = TowerTask(3, (1, 0, 1), max_n=3).build()
    # the reference draws from a pool of every element of L, as random_codes once did
    rng, pool, expected = random.Random(9), list(t.L.elements()), []
    while len(expected) < 40:
        n = rng.randint(1, 3)
        gens = [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, n))]
        expected.append(LinearCode.from_generators(t, n, gens))

    def no_pool(field):
        raise RuntimeError(f"random_codes enumerated {field}")

    monkeypatch.setattr(Field, "elements", no_pool)
    codes = random_codes(t, 3, 40, random.Random(9))
    assert [(c.length, c.space._codes) for c in codes] == [(c.length, c.space._codes) for c in expected]


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


def test_equivdef_agrees_on_random_codes_of_length_four():
    # GF(16)/GF(2) at n = 4: the counting floor of OS_r and D_r and both Res(C) bounds of d_R,r and M_r fire
    plan = VerifyPlan(
        towers=[TowerTask(2, (1, 1, 0, 0, 1), max_n=4)],
        theorem="equivdef",
        source="random",
        random_count=60,
        seed=5,
        workers=1,
    )
    summary = run_verify(plan)
    assert summary["ok"]
    assert summary["towers"][0]["checks"]["equivdef"] == {"items": 60, "assertions": 78, "failures": 0}


@pytest.mark.parametrize("plan, digest", [
    (standard_plan(), "98180dae5fbf4ed44789975ad4dc700861056fe952af2a5cfe3754e710384e47"),
    (VerifyPlan(towers=[TowerTask(0, (-2, 0, 0, 1), max_n=3)], source="random", random_count=200, seed=42),
     "99a34eed62d3a47dd77f4689e8a4ddca5b23fe2962e61b0620f74a6b6ffac7a3"),
    (VerifyPlan(towers=[TowerTask(2, (1, 1, 0, 1), max_n=4)], force=True),
     "7d9a67cef5ebc68a81f97516baf715f5aefb10286b90e3bf8aa0bcd2ba74eb79"),
    (VerifyPlan(towers=[TowerTask(2, ("u", "1", "1"), base_degree=2, base_modulus=(1, 1, 1), max_n=3)], force=True),
     "303f4998ecda744198fdff211760f13f1fb9000f0a7af71f21718b212cde5ec9"),
    (VerifyPlan(towers=[TowerTask(0, (1, -3, 0, 1), max_n=3)], source="random", random_count=200, seed=42),
     "aeb7fa5e9ed393402bc41d04b835694d48601fb68c4f32004441fe7ef3beec3f"),
    # x^3 - 3/2 x^2 + 5/4: a modulus with non-integral coefficients
    (VerifyPlan(towers=[TowerTask(0, (Fraction(5, 4), 0, Fraction(-3, 2), 1), max_n=3)], source="random",
                random_count=200, seed=42),
     "e535ecd850cef2a2f918e59482e195556cc93a7b7683d721878d2458cf4e7a68"),
    # the benchmark's verify-finite plan at seed 1: 226 codes, 2,686 items
    (VerifyPlan(towers=[TowerTask(2, (1, 1, 1), max_n=2), TowerTask(2, (1, 1, 0, 1), max_n=3),
                        TowerTask(3, (1, 0, 1), max_n=2),
                        TowerTask(2, ("u", "1", "1"), base_degree=2, base_modulus=(1, 1, 1), max_n=2),
                        TowerTask(2, (1, 1, 0, 0, 1), max_n=2)], theorem="all", seed=1, force=True),
     "434cd68a9d0677b4f0687dfdc30ff09c3e5718f7c1925fd12bc8bc46e299eeed"),
], ids=["standard", "qt-random-200-seed-42", "gf8-forced-n4", "gf16-over-gf4-forced-n3",
        "cyclic-cubic-random-200-seed-42", "q-quarters-random-200-seed-42", "bench-verify-finite-seed-1"])
def test_verify_summary_is_pinned(plan, digest):
    """The whole summary, byte for byte: a refactor keeps every count, check and census."""
    assert hashlib.sha256(json.dumps(run_verify(plan)).encode()).hexdigest() == digest


def test_standard_plan_census():
    summary = run_verify(standard_plan(theorem="delsarte", workers=1))
    per_tower = [rep["codes_checked"] for rep in summary["towers"]]
    assert per_tower == [9, 161, 14]  # Gaussian-binomial census per tower


def test_resolve_workers(monkeypatch):
    """RANKWEIGHT_WORKERS when set, else the CPUs this process may use: its
    affinity set, or the CPU count (1 when it is unknown) where there is none."""
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "zebra")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.delenv("RANKWEIGHT_WORKERS")
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers() == 1  # pinned to one CPU of four
    monkeypatch.delattr(verify_mod.os, "sched_getaffinity")
    assert resolve_workers() == 4
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
    assert resolve_workers() == 1


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


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one cli.main call; SystemExit counts as its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_is_reentrant_on_one_grammar(tmp_path, capsys, monkeypatch, sample_file, q_file):
    sequence = [
        ["analyze", sample_file, "--format", "json"],
        ["weights", q_file, "--bogus"],  # usage error
        ["witness", q_file, "--strategy", "random", "--seed", "3"],
        ["dual", str(tmp_path / "missing.json")],  # missing file
        ["--help"],
        ["weights", sample_file, "--format", "json", "--seed", "2", "--r", "1"],
        ["weights", sample_file, "--help"],
        [],  # no command
        ["closure", sample_file],
        ["weights", sample_file],  # the defaults again, after a call that set every option
    ]
    monkeypatch.setattr(cli, "_PARSER", None)
    warm = [_outcome(capsys, argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_outcome(capsys, argv))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [
        0, 1, 0, 1, ("SystemExit", 0), 0, ("SystemExit", 0), 1, 0, 0]
    assert warm[4][1].startswith("usage: rankweight") and "hierarchy:" in warm[9][1]


def test_grammar_is_built_once_per_process(capsys, monkeypatch, sample_file):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(4):
        assert cli.main(["dual", sample_file]) == 0
        assert cli.main(["analyze", sample_file, "--bogus"]) == 1
    capsys.readouterr()
    assert len(built) == 1
    # and importing the package does not build it
    source_root = pathlib.Path(rankweight.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import rankweight, rankweight.cli as c; assert c._PARSER is None"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(source_root), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def test_handler_rebound_after_first_call_is_honoured(capsys, monkeypatch, sample_file):
    assert cli.main(["dual", sample_file]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_dual", lambda args: seen.append(args.file) or 0)
    assert cli.main(["dual", sample_file]) == 0
    assert seen == [sample_file]
    assert capsys.readouterr().out.count('"generators"') == 1  # only the first call printed


def test_no_kernel_carries_over_between_calls(capsys, monkeypatch):
    """Every call builds its tower afresh: the second of two equal calls builds
    as many kernels as the first, so no cache lives on between calls."""
    path = str(pathlib.Path(__file__).resolve().parent.parent / "samples" / "gf16_over_gf4.json")
    built = []
    make = fields._make_kernel
    monkeypatch.setattr(fields, "_make_kernel", lambda field: built.append(repr(field)) or make(field))
    counts = []
    for _ in range(2):
        before = len(built)
        assert cli.main(["dual", path]) == 0
        counts.append(len(built) - before)
    capsys.readouterr()
    assert counts[0] == counts[1] >= 3  # GF(2), GF(4) and GF(16) at least
    assert built[: counts[0]] == built[counts[0]:]


L3 = SAMPLE.replace('"length": 2, "generators": [["1", "w"]]',
                    '"length": 3, "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]')
L3_HEAD = 'tower: {"characteristic": 2, "base_degree": 1, "extension_modulus": [1, 1, 1], "generator_name": "w"}\n' \
          "n: 3\ndim: 3\n"


def test_weights_and_witness_when_no_witness_exists(tmp_path, capsys):
    """L^3 over GF(4)/GF(2) has wt_R = 3 > m = 2, so no codeword carries its support."""
    path = tmp_path / "l3.json"
    path.write_text(L3)
    assert run_cli(capsys, "weights", str(path)) == (0, L3_HEAD + (
        "rank_distance: 1\nhierarchy:\n"
        "    r   dRr    Mr   OSr    Dr\n"
        "    1     1     1     1     1\n"
        "    2     2     2     2     2\n"
        "    3     3     3     2     2\n"
        "witness: -\nwitness_status: none_exists\ndegenerate: no\n"), "")
    code, out, _ = run_cli(capsys, "witness", str(path), "--format", "json")
    assert code == 0
    assert {k: v for k, v in json.loads(out).items() if k in ("strategy", "status", "witness")} == {
        "strategy": "auto", "status": "none_exists", "witness": None}


def test_verify_over_a_nested_base_and_the_capped_standard_plan(capsys, monkeypatch):
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    code, out, _ = run_cli(capsys, "verify", "--char", "2", "--base-degree", "2", "--base-modulus", "1,1,1",
                           "--ext-modulus", "u,1,1", "--max-n", "1", "--force")
    assert code == 0
    assert "  char 2 base_degree 2 modulus [u,1,1] n<=1: 2 codes, 29 assertions\n" in out
    assert out.endswith("result: PASS (2 codes checked, 29 assertions)\n")
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("  char")] == [
        "  char 2 modulus [1,1,1] n<=1: 2 codes, 29 assertions",
        "  char 2 modulus [1,1,0,1] n<=1: 2 codes, 29 assertions",
        "  char 3 modulus [1,0,1] n<=1: 2 codes, 29 assertions",
    ]
    assert out.endswith("result: PASS (6 codes checked, 87 assertions)\n")
    assert run_cli(capsys, "verify", "--char", "2") == (1, "", "error: --char requires --ext-modulus\n")


def test_work_items_carry_an_int_seed():
    """A work item is (check name, code or pair, seed): plan.seed + the code's
    index for a code, 0 for a pair."""
    plan = standard_plan(seed=7)
    rng = random.Random(plan.seed)
    for task in plan.towers:
        items, _ = verify_mod._build_items(plan, task.build(), task, rng)
        assert items and all(len(item) == 3 and type(item[2]) is int for item in items)
        assert {seed for name, _, seed in items if name == "closure_pair"} == {0}
        assert min(seed for name, _, seed in items if name != "closure_pair") == 7
