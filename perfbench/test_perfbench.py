"""Self-tests of the benchmark (separate from the library's own suite).

    python3 -m pytest -q perfbench

Covers input determinism, traced and untraced passes agreeing, the RHS
counter against the integrator's known counts, the correctness gate
(known defects fail, nothing else does), the result line's metric names
against BENCHMARK.json, and the refusal to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from inputs import WORKLOADS, canonical_bytes, digest, make_inputs  # noqa: E402
from ops import execute  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert canonical_bytes(make_inputs(workload, 7)) == canonical_bytes(make_inputs(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs(workload):
    assert canonical_bytes(make_inputs(workload, 7)) != canonical_bytes(make_inputs(workload, 8))


def test_inputs_do_not_depend_on_the_process():
    code = "import sys; from inputs import digest, make_inputs; print(digest(make_inputs('trajectory', 7)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == digest(make_inputs("trajectory", 7))


def _sample(workload: str) -> list[dict]:
    """Every operation kind of the workload, a few of each, plus known failures."""
    ops, seen = [], {}
    for op in make_inputs(workload, 3):
        key = op["op"] if op["op"] != "cli" else op["argv"][0]
        if seen.get(key, 0) < 3:
            seen[key] = seen.get(key, 0) + 1
            ops.append(op)
    if workload == "trajectory":
        ops += [{"op": "w_of_t", "alpha": 3.7, "gamma": 0.5, "t": 8.0},    # ConvergenceError
                {"op": "w_of_t", "alpha": 40.3, "gamma": 0.37, "t": 0.0}]  # wrong answer
    return ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outcomes_agree(workload):
    ops = _sample(workload)
    plain = [execute(op, inprocess_cli=True) for op in ops]
    with Tracer() as tracer:
        traced = [execute(op, inprocess_cli=True) for op in ops]
    assert repr(traced) == repr(plain)
    assert sum(s[0] for s in tracer.stats.values()) > 0
    if workload == "trajectory":
        assert any("err" in out for out in plain)


def test_cli_in_process_matches_subprocess(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    op = {"op": "cli", "argv": ["winf", "--alpha", "2.5", "--gammaT", "0.3"]}
    assert execute(op, inprocess_cli=False) == execute(op, inprocess_cli=True)


def test_tracer_restores_the_library():
    from sechbloch import analytic, specfun, sweep

    before = (analytic.w_infinity, analytic.ln_gamma, specfun.ln_gamma, sweep.find_node)
    with Tracer():
        assert analytic.ln_gamma is specfun.ln_gamma is not before[2]
    assert (analytic.w_infinity, analytic.ln_gamma, specfun.ln_gamma, sweep.find_node) == before


# RHS evaluations per solve of the DOPRI5 integrator as it stood when the
# benchmark was added.  A change of integrator changes these on purpose
# and updates them.
SEED_COUNTS = {(1.0, 0.1): 1741, (3.0, 0.5): 3583, (10.0, 0.1): 6841,
               (50.0, 0.1): 29431, (5.0, 20.0): 19399}


def test_rhs_counter_reproduces_seed_counts():
    from sechbloch import bloch_ode
    from sechbloch.bloch_ode import SechPulseModel

    with Tracer() as tracer:
        for (a, g) in SEED_COUNTS:
            bloch_ode.final_inversion(SechPulseModel.from_dimensionless(a, g))
        bloch_ode.integrate(SechPulseModel.from_dimensionless(2.0, 1.0))
    assert tracer.evals_per_solve == list(SEED_COUNTS.values()) + [4531]
    assert tracer.solves_off_fsal == 0
    assert tracer.steps_attempted == sum((n - 1) // 6 for n in tracer.evals_per_solve)


def test_tail_is_eleventh_largest():
    from run import accuracy_digits, tail

    value, pct = tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert accuracy_digits(0.0) == 17.0
    assert accuracy_digits(1e4) == accuracy_digits(0.5) > 0


def test_only_failures_outside_known_defects_are_unexpected():
    from run import unexpected_failures

    ops = [{"op": "w_of_t", "alpha": 3.7, "gamma": 0.5, "t": 8.0},      # degenerate 2F1
           {"op": "w_of_t", "alpha": 40.3, "gamma": 0.37, "t": 0.0},    # large area
           {"op": "w_infinity", "alpha": 10.6, "gamma": 4.2e11},        # strong dephasing
           {"op": "w_of_t", "alpha": 3.7, "gamma": 0.37, "t": 0.5},
           {"op": "w_infinity", "alpha": 10.6, "gamma": 4.2},
           {"op": "final_inversion", "alpha": 1.0, "gamma": 0.1}]
    found = unexpected_failures(ops, ["typed_error", "wrong", "wrong", "untyped_error",
                                      "wrong", "wrong"])
    assert [line.split(" ")[0] for line in found] == ["w_of_t", "w_infinity", "final_inversion"]
    assert unexpected_failures(ops, ["ok"] * len(ops)) == []


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    proc = _run(ROOT, "--workload", "oracle", "--seed", "1", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        assert result["metrics"]["bloch_ode.rhs_evals"]["value"] > 0


@pytest.mark.parametrize("workload", ["survey", "trajectory"])
def test_known_defects_fail_and_nothing_else(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "survey", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
