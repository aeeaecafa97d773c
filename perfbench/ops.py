"""Runs one benchmark operation against the library; used by the timed process.

Every call goes through a module attribute (`analytic.w_infinity`, not a
name bound at import), so the tracing wrappers in `tracing.py` see it.
Outcomes are plain JSON data: {"v": value} for a returned value, or
{"err": type name, "typed": bool, "msg": text} for a raised error.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

from sechbloch import analytic, bloch_ode, sweep
from sechbloch.analytic import DimensionlessParams
from sechbloch.bloch_ode import IntegrationError, SechPulseModel
from sechbloch.specfun import ConvergenceError

# The library's documented error types; anything else is an untyped leak.
TYPED_ERRORS = (ValueError, ConvergenceError, IntegrationError)

CLI_TIMEOUT_S = 120.0

# The benchmark's own first operation per workload, run before timing
# starts and inside each set-up probe.  Fixed, so set-up time does not
# depend on the seed.
WARMUP = {
    "survey": {"op": "w_infinity", "alpha": 2.5, "gamma": 0.25},
    "trajectory": {"op": "w_of_t", "alpha": 2.5, "gamma": 0.25, "t": 0.5},
    "oracle": {"op": "final_inversion", "alpha": 1.0, "gamma": 0.1},
    "cli": {"op": "cli", "argv": ["winf", "--alpha", "1", "--gammaT", "0.5"]},
}


def _params(op: dict) -> DimensionlessParams:
    return DimensionlessParams(alpha=op["alpha"], gamma=op["gamma"])


def _cli_subprocess(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "sechbloch", *argv],
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"rc": proc.returncode, "out": proc.stdout,
            "traceback": "Traceback" in proc.stderr}


def _cli_inprocess(argv: list[str]) -> dict:
    from sechbloch import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "out": out.getvalue(), "traceback": False}


def _integrate(op: dict) -> list[list[float]]:
    model = SechPulseModel.from_dimensionless(op["alpha"], op["gamma"])
    traj = bloch_ode.integrate(model)
    return [list(traj.times), [s.u for s in traj.states],
            [s.v for s in traj.states], [s.w for s in traj.states]]


# Every in-process operation kind; `cli` runs through `_cli_subprocess` or
# `_cli_inprocess`.
_OPS = {
    "w_infinity": lambda op: analytic.w_infinity(_params(op)),
    "w_of_t": lambda op: analytic.w_of_t(_params(op), op["t"]),
    "v_of_t": lambda op: analytic.v_of_t(_params(op), op["t"]),
    "area_epsilon": lambda op: analytic.area_epsilon(op["epsilon"], op["gamma_t"]),
    "find_node": lambda op: sweep.find_node(op["n"], op["gamma"]).alpha_root,
    "find_extremum": lambda op: sweep.find_extremum(op["n"], op["gamma"]).alpha_root,
    "amplitude_envelope_fit": lambda op: sweep.amplitude_envelope_fit(
        op["gamma"], (op["n_lo"], op["n_hi"])),
    "figure1_dataset": lambda op: sweep.figure1_dataset(),
    "figure2_dataset": lambda op: sweep.figure2_dataset(),
    "final_inversion": lambda op: bloch_ode.final_inversion(
        SechPulseModel.from_dimensionless(op["alpha"], op["gamma"])),
    "integrate": _integrate,
}


def execute(op: dict, inprocess_cli: bool = False) -> dict:
    """Run one operation and return its outcome; never raises for library errors."""
    if op["op"] == "cli":
        run, arg = (_cli_inprocess if inprocess_cli else _cli_subprocess), op["argv"]
    else:
        run, arg = _OPS[op["op"]], op  # a KeyError: not a benchmark operation
    try:
        return {"v": run(arg)}
    except TYPED_ERRORS as exc:
        return {"err": type(exc).__name__, "typed": True, "msg": str(exc)[:200]}
    except Exception as exc:  # noqa: BLE001 - an untyped leak is a result to report
        return {"err": type(exc).__name__, "typed": False, "msg": str(exc)[:200]}
