"""Internal cross-checks are explicit raises, so `python -O` keeps them."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import rankweight
from rankweight import cli, ranksupport
from rankweight.errors import InternalInvariantError
from rankweight.linalg import Subspace
from rankweight.ranksupport import LinearCode, restriction
from rankweight.verify import run_verify, standard_plan

from helpers import gf4, vec

PACKAGE_DIR = pathlib.Path(rankweight.__file__).resolve().parent

# restriction(C) with the direct route replaced by one that returns the zero space
WRONG_DIRECT_ROUTE = """
from rankweight import ranksupport
from rankweight.errors import InternalInvariantError
from rankweight.fields import BaseFieldDescriptor, make_tower
from rankweight.linalg import Subspace
from rankweight.ranksupport import LinearCode, restriction

t = make_tower(BaseFieldDescriptor(2), [1, 1, 1])
C = LinearCode.from_generators(t, 2, [[t.L.one(), t.L.one()]])
ranksupport._restriction_direct = lambda C: Subspace.zero(t.k, 2)
try:
    restriction(C)
except InternalInvariantError:
    print("raised")
"""

DELSARTE_SUMMARY = """
import json
from rankweight.verify import run_verify, standard_plan

print(json.dumps(run_verify(standard_plan(theorem="delsarte"))))
"""


def run_optimized(script):
    """Run a script under `python -O` against the source tree under test."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(PACKAGE_DIR.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_assert_statements_in_src():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_restriction_raises_when_routes_disagree(monkeypatch):
    t = gf4()
    C = LinearCode.from_generators(t, 2, [vec(t, 1, 1)])
    monkeypatch.setattr(ranksupport, "_restriction_direct", lambda C: Subspace.zero(t.k, 2))
    # a result that fails the comparison is never stored, so it fails again
    for _ in range(2):
        with pytest.raises(InternalInvariantError):
            restriction(C)
    monkeypatch.undo()
    assert restriction(C).dim == 1


def test_restriction_cross_check_survives_optimize():
    assert run_optimized(WRONG_DIRECT_ROUTE).split() == ["raised"]


def test_delsarte_summary_same_under_optimize():
    in_process = run_verify(standard_plan(theorem="delsarte"))
    assert json.loads(run_optimized(DELSARTE_SUMMARY)) == in_process


def test_cli_maps_internal_invariant_error_to_exit_2(monkeypatch, capsys):
    doc = pathlib.Path(__file__).resolve().parent.parent / "samples" / "gf4_rational.json"
    monkeypatch.setattr(ranksupport, "_restriction_direct", lambda C: Subspace.zero(C.tower.k, C.length))
    assert cli.main(["analyze", str(doc)]) == 2
    assert "restriction paths disagree" in capsys.readouterr().err
