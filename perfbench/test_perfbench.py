"""Tests of the benchmark harness: the checks reject wrong values, and a
tiny run finishes in seconds with a well-formed result line."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.add_source_path()

import workloads  # noqa: E402  (needs the source path)

HERE = Path(__file__).resolve().parent


def tiny_case(workload, pick=lambda case: True):
    return next(c for c in workloads.make_cases(workload, 5, "tiny") if pick(c))


def with_csv_value(text, row, column, shift):
    """CSV text with one value of data row ``row`` shifted by ``shift``."""
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + shift)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_cases_pass_their_checks(workload):
    for case in workloads.make_cases(workload, 5, "tiny"):
        assert workloads.CHECK[workload](case, workloads.RUN[workload](case)) == []


def test_same_seed_same_inputs():
    a, b = (workloads.make_cases("solve", 9, "tiny") for _ in range(2))
    assert [c.delta0 for c in a] == [c.delta0 for c in b]
    assert all((x == y).all() for ca, cb in zip(a, b) for x, y in zip(ca.rhs, cb.rhs))


def test_solve_check_rejects_optimistic_rho():
    case = tiny_case("solve")
    out = workloads.run_solve(case)
    out["rho"] *= 0.5
    assert any("iterations" in p for p in workloads.check_solve(case, out))


def test_solve_check_rejects_unconverged_history():
    case = tiny_case("solve")
    out = workloads.run_solve(case)
    out["histories"][0].residual_norms[-1] = 1e-6 * out["histories"][0].residual_norms[0]
    assert workloads.check_solve(case, out)


@pytest.mark.parametrize("gamma", [math.inf, 1.0, 0.05])
def test_verify_check_rejects_perturbed_rho_dense(gamma):
    case = tiny_case("verify", lambda c: c.gamma == gamma or abs(c.gamma / gamma - 1) < 0.1)
    out = workloads.run_verify(case)
    code, text, err = out["sweep"]
    out["sweep"] = (code, with_csv_value(text, 1, 4, 1e-3), err)
    assert any("rho_dense" in p for p in workloads.check_verify(case, out))


def test_verify_check_rejects_failed_validation():
    case = tiny_case("verify")
    out = workloads.run_verify(case)
    code, text, err = out["validate"]
    out["validate"] = (code, text.replace("PASS", "FAIL", 1), err)
    assert any("validate" in p for p in workloads.check_verify(case, out))


def test_tune_check_rejects_perturbed_rho():
    case = tiny_case("tune")
    out = workloads.run_tune(case)
    code, text, err = out["sweep"]
    out["sweep"] = (code, with_csv_value(text, case.rows[0], 3, 1e-3), err)
    assert any("4x4 blocks" in p for p in workloads.check_tune(case, out))


def test_tune_check_rejects_wrong_crossover_and_alpha():
    case = tiny_case("tune", lambda c: math.isinf(c.gamma))
    out = workloads.run_tune(case)
    out["crossover"] = (2.5, 2.5005)
    bad = out["numeric"][0]
    out["numeric"][0] = type(bad)(bad.alpha_opt + 1e-3, bad.rho_predicted, bad.branch)
    problems = workloads.check_tune(case, out)
    assert any("misses" in p for p in problems)
    assert any("alpha formula" in p for p in problems)


def test_tiny_traced_run_reports_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "solve", "--seed", "1",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
