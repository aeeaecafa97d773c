"""Command-line interface.

Subcommands: `winf` (exact final inversion plus asymptotic estimates),
`integrate` (Bloch-equation trajectory), `figure` (standard datasets), and
`verify` (self-check suites).  Parameters are taken as Gamma*T, the figure
axis; the conversion gamma = Gamma*T / 2 happens internally.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Any, Callable, TextIO

from . import analytic, sweep
from .analytic import DimensionlessParams
from .bloch_ode import IntegrationError, IntegratorConfig, SechPulseModel, integrate
from .specfun import ConvergenceError
from .verify import format_report, run_checks

__all__ = ["entrypoint", "main"]

_DEFAULT_PRECISION = 12
_FIGURE_DEFAULT_POINTS = {"fig1": 601, "fig2": 801}


class _UsageError(Exception):
    """Bad arguments or config content; maps to exit code 2."""


def _load_config(path: str) -> dict[str, str]:
    """Read key=value lines; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _resolve(flag_value: Any, config: dict[str, str], key: str,
             conv: Callable[[str], Any], default: Any) -> Any:
    """Flag beats config file beats default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return conv(config[key])
        except ValueError as exc:
            raise _UsageError(f"config key {key}={config[key]!r}: {exc}") from exc
    return default


def _resolve_precision(ns: argparse.Namespace, config: dict[str, str]) -> int:
    precision = _resolve(ns.precision, config, "precision", int, _DEFAULT_PRECISION)
    if not 6 <= precision <= 17:
        raise _UsageError(f"precision must be in [6, 17], got {precision}")
    return precision


def _resolve_format(ns: argparse.Namespace, config: dict[str, str]) -> str:
    fmt = _resolve(ns.format, config, "format", str, "csv")
    if fmt not in ("csv", "json"):
        raise _UsageError(f"format must be csv or json, got {fmt!r}")
    return fmt


def _resolve_integrator(ns: argparse.Namespace, config: dict[str, str],
                        default_samples: int) -> IntegratorConfig:
    try:
        return IntegratorConfig(
            rel_tol=_resolve(ns.rel_tol, config, "rel_tol", float, 1e-10),
            abs_tol=_resolve(ns.abs_tol, config, "abs_tol", float, 1e-12),
            window_halfwidth_L=_resolve(ns.window_L, config, "window_L", float, 25.0),
            max_steps=_resolve(ns.max_steps, config, "max_steps", int, 10_000_000),
            sample_count=_resolve(ns.points, config, "points", int, default_samples),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _json_key(column: str) -> str:
    """CSV column name to snake_case JSON key."""
    return column.replace("GammaT", "gamma_t").lower()


def _csv_cell(value: Any, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return f"{value:.{precision}g}"
    return str(value)


def _json_value(value: Any, precision: int) -> Any:
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.{precision}g}")
    return value


def _emit_table(header: list[str], rows: list[list[Any]], fmt: str,
                precision: int, out: TextIO) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v, precision) for v in row])
    else:
        keys = [_json_key(name) for name in header]
        payload = [
            {k: _json_value(v, precision) for k, v in zip(keys, row)}
            for row in rows
        ]
        json.dump(payload, out, indent=2)
        out.write("\n")


def _with_output(ns: argparse.Namespace, config: dict[str, str],
                 write: Callable[[TextIO], None]) -> None:
    path = _resolve(ns.output, config, "output", str, None)
    if path is None or path == "-":
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)


def _nonnegative(name: str, value: float) -> float:
    if not value >= 0.0:
        raise _UsageError(f"{name} must be >= 0, got {value}")
    return value


def _cmd_winf(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    fmt = _resolve_format(ns, config)
    precision = _resolve_precision(ns, config)
    alpha = _nonnegative("--alpha", ns.alpha)
    gamma_t = _nonnegative("--gammaT", ns.gammaT)

    p = DimensionlessParams(alpha=alpha, gamma=0.5 * gamma_t)
    weak = analytic.w_weak_dephasing(p)
    strong = analytic.w_strong_dephasing(p)
    large_value: float | None = None
    large_hint: float | None = None
    try:
        large = analytic.w_large_area(p)
        large_value, large_hint = large.value, large.validity_hint
    except ValueError:
        pass  # alpha = 0, where alpha^(-2 gamma) is undefined, or beyond float range

    header = ["alpha", "GammaT", "w_exact",
              "w_weak_dephasing", "weak_dephasing_hint",
              "w_strong_dephasing", "strong_dephasing_hint",
              "w_large_area", "large_area_hint"]
    row = [alpha, gamma_t, analytic.w_infinity(p),
           weak.value, weak.validity_hint,
           strong.value, strong.validity_hint,
           large_value, large_hint]
    if fmt == "json":
        def write(out: TextIO) -> None:
            keys = [_json_key(name) for name in header]
            payload = {k: _json_value(v, precision) for k, v in zip(keys, row)}
            json.dump(payload, out, indent=2)
            out.write("\n")
    else:
        def write(out: TextIO) -> None:
            _emit_table(header, [row], "csv", precision, out)
    _with_output(ns, config, write)
    return 0


def _cmd_integrate(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    fmt = _resolve_format(ns, config)
    precision = _resolve_precision(ns, config)
    alpha = _nonnegative("--alpha", ns.alpha)
    gamma_t = _nonnegative("--gammaT", ns.gammaT)
    cfg = _resolve_integrator(ns, config, default_samples=201)

    model = SechPulseModel.from_dimensionless(alpha, 0.5 * gamma_t)
    try:
        traj = integrate(model, cfg)
    except IntegrationError as exc:
        print(f"numeric failure: {exc} (last accepted t = {exc.t:.6g}, "
              f"w = {exc.state.w:.6g})", file=sys.stderr)
        return 3

    w_exact = analytic.w_infinity(DimensionlessParams(alpha=alpha, gamma=0.5 * gamma_t))
    final_w = traj.final.w
    diff = abs(final_w - w_exact)

    if fmt == "json":
        def write(out: TextIO) -> None:
            payload = {
                "samples": [
                    {"t_over_t": _json_value(t / model.T, precision),
                     "u": _json_value(s.u, precision),
                     "v": _json_value(s.v, precision),
                     "w": _json_value(s.w, precision)}
                    for t, s in zip(traj.times, traj.states)
                ],
                "final_w": _json_value(final_w, precision),
                "w_exact": _json_value(w_exact, precision),
                "abs_diff": _json_value(diff, precision),
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        _with_output(ns, config, write)
    else:
        header = ["t_over_T", "u", "v", "w"]
        rows = [[t / model.T, s.u, s.v, s.w]
                for t, s in zip(traj.times, traj.states)]

        def write(out: TextIO) -> None:
            _emit_table(header, rows, "csv", precision, out)
        _with_output(ns, config, write)
        # Summary goes to stderr so the CSV stream stays a clean table.
        print(f"final w = {final_w:.{precision}g}, "
              f"|w - w_exact| = {diff:.{precision}g}", file=sys.stderr)
    return 0


def _cmd_figure(ns: argparse.Namespace) -> int:
    config = _load_config(ns.config) if ns.config else {}
    fmt = _resolve_format(ns, config)
    precision = _resolve_precision(ns, config)
    points = _resolve(ns.points, config, "points", int,
                      _FIGURE_DEFAULT_POINTS[ns.which])
    if points < 2:
        raise _UsageError(f"--points must be >= 2, got {points}")
    if ns.which == "fig1":
        header, rows = sweep.figure1_dataset(points)
    else:
        header, rows = sweep.figure2_dataset(points)
    _with_output(ns, config,
                 lambda out: _emit_table(header, rows, fmt, precision, out))
    return 0


def _use_color() -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _cmd_verify(ns: argparse.Namespace) -> int:
    results = run_checks(ns.level)
    print(format_report(results, color=_use_color()))
    return 0 if all(r.passed for r in results) else 1


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", metavar="PATH",
                    help="write to PATH instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"),
                    help="output format (default csv)")
    sp.add_argument("--precision", type=int, metavar="DIGITS",
                    help="significant digits, 6 to 17 (default 12; "
                         "17 round-trips doubles exactly)")
    sp.add_argument("--config", metavar="PATH",
                    help="key=value defaults file; explicit flags win")


def _add_integrator_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rel-tol", type=float, dest="rel_tol",
                    help="relative local-error tolerance (default 1e-10)")
    sp.add_argument("--abs-tol", type=float, dest="abs_tol",
                    help="absolute local-error tolerance (default 1e-12)")
    sp.add_argument("--window-L", type=float, dest="window_L",
                    help="integration half-window in units of T (default 25)")
    sp.add_argument("--points", type=int,
                    help="number of trajectory samples (default 201)")
    sp.add_argument("--max-steps", type=int, dest="max_steps",
                    help="step budget before aborting (default 10^7)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sechbloch",
        description="Final inversion and Bloch dynamics for a resonant "
                    "sech pulse with pure dephasing.  Dephasing is always "
                    "given as GammaT = Gamma*T; internally gamma = GammaT/2.")
    sub = parser.add_subparsers(dest="command", required=True)

    winf = sub.add_parser(
        "winf", help="exact final inversion plus asymptotic estimates")
    winf.add_argument("--alpha", type=float, required=True,
                      help="pulse area divided by pi (alpha = Omega0*T)")
    winf.add_argument("--gammaT", type=float, required=True,
                      help="dephasing-width product Gamma*T")
    _add_output_flags(winf)
    winf.set_defaults(func=_cmd_winf)

    integ = sub.add_parser(
        "integrate", help="integrate the Bloch equation and emit the trajectory")
    integ.add_argument("--alpha", type=float, required=True,
                       help="pulse area divided by pi")
    integ.add_argument("--gammaT", type=float, required=True,
                       help="dephasing-width product Gamma*T")
    _add_integrator_flags(integ)
    _add_output_flags(integ)
    integ.set_defaults(func=_cmd_integrate)

    fig = sub.add_parser("figure", help="emit a standard figure dataset")
    fig.add_argument("which", choices=("fig1", "fig2"),
                     help="fig1: w against GammaT per alpha; "
                          "fig2: w against area/pi per GammaT")
    fig.add_argument("--points", type=int,
                     help="grid points (default 601 for fig1, 801 for fig2)")
    _add_output_flags(fig)
    fig.set_defaults(func=_cmd_figure)

    ver = sub.add_parser("verify", help="run the self-check suite")
    ver.add_argument("--level", choices=("fast", "full"), default="fast",
                     help="fast: core cross-checks; full: adds asymptotic "
                          "and time-dependent suites")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Domain errors from validated types reaching here mean bad input.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
