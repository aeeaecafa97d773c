"""The sechbloch benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
The steps, in order:

1. Build the workload's input set from the seed (`inputs.py`).
2. Set-up: fresh interpreters each time `import sechbloch` plus the
   workload's warm-up operation, eight before and eight after the timed
   process; the median is `setup_s`.
   All times are scaled to a reference host speed (see `worker.py`).
3. The timed process (`worker.py`) runs whole passes over the input set
   for `--seconds` seconds, one operation at a time, and returns every
   output and every operation's time.  It never imports mpmath.
4. Every output is judged here against a 50-digit mpmath reference
   (`reference.py`): ok, typed error, untyped error, or wrong answer.
   Failures are counted wherever they fall, but `correct` is false when
   one falls outside the inputs of the known defects
   (`reference.known_defect`), and `accuracy_digits` is taken over the
   operations outside them.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the timed process alternates plain and traced passes and the metrics are
the per-layer ones (`tracing.py`).  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.  Exit status 2 means the
library is missing or the arguments are bad, 3 that a reference or the
timed process failed; no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150.0
# An absolute error this large on a quantity of order one carries no
# digits; capping there keeps accuracy_digits positive.
ERR_CAP = 0.5
ERR_FLOOR = 1e-17
TAIL_BEYOND = 10
CLASSES = ("ok", "typed_error", "untyped_error", "wrong")


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args: list[str], stdin: str | None = None,
            timeout: float = 60.0) -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, timeout=timeout, env=_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _probes(args: list[str], n: int) -> list[float]:
    return [float(_python(args).strip()) for _ in range(n)]


def _median_probe(args: list[str], n: int) -> float:
    _python(args)  # untimed: byte-compiles and warms the file cache
    return statistics.median(_probes(args, n))


def cli_import_seconds() -> float:
    return _median_probe([str(HERE / "worker.py"), "probe", "cli-import"], 3)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} samples; the tail needs more than {TAIL_BEYOND}")
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def accuracy_digits(worst_err: float) -> float:
    return -math.log10(min(max(worst_err, ERR_FLOOR), ERR_CAP))


def judge_all(refs, ops: list[dict], outcomes: list[dict]) -> tuple[list[str], float, float]:
    """Classes of all operations, the worst error among all returned values,
    and the worst among those of operations outside the known defects."""
    from reference import judge, known_defect

    classes, worst, worst_trusted = [], 0.0, 0.0
    for op, out in zip(ops, outcomes):
        cls, err = judge(refs, op, out)
        classes.append(cls)
        if err is not None:
            worst = max(worst, err)
            if not known_defect(op):
                worst_trusted = max(worst_trusted, err)
    return classes, worst, worst_trusted


def unexpected_failures(ops: list[dict], classes: list[str]) -> list[str]:
    """Failed operations whose input lies outside every known defect."""
    from reference import known_defect

    return [f"{_kind(op)} {cls}: {json.dumps(op)}" for op, cls in zip(ops, classes)
            if cls != "ok" and not known_defect(op)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    from inputs import MIN_PASSES, WORKLOADS, digest, make_inputs

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sechbloch" / "__init__.py").is_file():
        print(f"error: library not found under {ROOT / 'src'}; "
              "run from the root of a sechbloch checkout", file=sys.stderr)
        return 2
    try:
        from reference import References, ReferenceFailure, count_bad
    except ImportError as exc:
        print(f"error: the references need mpmath: {exc}", file=sys.stderr)
        return 2

    ops = make_inputs(args.workload, args.seed)
    print(f"inputs: {args.workload} seed {args.seed}, {len(ops)} operations per pass, "
          f"digest {digest(ops)}")
    probe = [str(HERE / "worker.py"), "probe", args.workload]
    request = {"workload": args.workload, "ops": ops, "seconds": args.seconds,
               "trace": bool(args.trace), "min_passes": MIN_PASSES[args.workload]}
    try:
        if args.trace:
            res = json.loads(_python([str(HERE / "worker.py"), "run"], json.dumps(request),
                                     timeout=WORKER_TIMEOUT_S))
        else:
            # Set-up probes on both sides of the timed process, so one quiet
            # or busy moment of the host does not decide setup_s.
            _python(probe)  # untimed: byte-compiles and warms the file cache
            setup_samples = _probes(probe, SETUP_PROBES)
            lines = _python([str(HERE / "worker.py"), "run"], json.dumps(request),
                            timeout=WORKER_TIMEOUT_S).splitlines()
            setup_samples += _probes(probe, SETUP_PROBES)
            res = json.loads(lines[-1])
            samples = [json.loads(line) for line in lines[:-1]]
            res["times"] = [t for s in samples for t in s["scaled"]]
            res["raw_times"] = [t for s in samples for t in s["raw"]]
        refs = References()
        classes, worst, worst_trusted = judge_all(refs, ops, res["outcomes"])
        print(f"worst returned error {worst:.3g}; outside the known defects "
              f"{worst_trusted:.3g}")
        if args.trace:
            metrics = trace_metrics(args.workload, res, count_bad(refs, res["analytic_calls"]))
        else:
            metrics = end_to_end_metrics(ops, res, classes, worst_trusted,
                                         statistics.median(setup_samples))
    except (BenchError, ReferenceFailure, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    passes = res["passes"]
    attempted = passes * len(ops)
    counts = {c: classes.count(c) * passes for c in CLASSES}
    failed = attempted - counts["ok"]
    print("outcomes: " + ", ".join(f"{c}={counts[c]}" for c in CLASSES)
          + f" of {attempted} attempted ({passes} passes); "
          f"failed_frac={failed / attempted:.6g}")
    by_kind: dict[str, int] = {}
    for op, cls in zip(ops, classes):
        if cls != "ok":
            key = f"{_kind(op)}:{cls}"
            by_kind[key] = by_kind.get(key, 0) + 1
    if by_kind:
        print("failed per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())))
    unexpected = unexpected_failures(ops, classes)
    for line in unexpected:
        print(f"error: failed outside the known defects: {line}", file=sys.stderr)
    correct = not unexpected and res["repeat_mismatches"] == 0
    if res["repeat_mismatches"]:
        print(f"error: {res['repeat_mismatches']} outputs changed between passes",
              file=sys.stderr)
    if args.trace and repr(res["traced_outcomes"]) != repr(res["outcomes"]):
        correct = False
        print("error: traced and untraced passes gave different outcomes", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _kind(op: dict) -> str:
    return op["op"] if op["op"] != "cli" else "cli " + op["argv"][0]


def end_to_end_metrics(ops: list[dict], res: dict, classes: list[str], worst: float,
                       setup_s: float) -> dict:
    times = res["times"]
    passes = res["passes"]
    per_kind: dict[str, list[float]] = {}
    for i, t in enumerate(times):
        per_kind.setdefault(_kind(ops[i % len(ops)]), []).append(t)
    print("median ms per operation: " + ", ".join(
        f"{k}={statistics.median(v) * 1e3:.4g}" for k, v in sorted(per_kind.items())))
    ok_execs = classes.count("ok") * passes
    tail_s, pct = tail(times)
    raw = res["raw_times"]
    print(f"op_tail_ms is p{pct:.4f} of {len(times)} samples ({TAIL_BEYOND} beyond)")
    print(f"unscaled wall times: ops_per_s={ok_execs / sum(raw):.6g}, "
          f"op_p50_ms={statistics.median(raw) * 1e3:.6g}, "
          f"op_tail_ms={tail(raw)[0] * 1e3:.6g}")
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(ok_execs / sum(times), "1/s"),
        "op_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": _metric(tail_s * 1e3, "ms"),
        "ok_frac": _metric(ok_execs / len(times), "ratio"),
        "accuracy_digits": _metric(accuracy_digits(worst), "digits"),
        "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024.0, "MiB"),
    }


def trace_metrics(workload: str, res: dict, bad: dict[str, int]) -> dict:
    passes = len(res["walls_traced"])
    layers = dict(res["layers"])
    layers.update({f"analytic.{fn}.bad": n / passes for fn, n in bad.items()})
    layers["cli.import_s"] = cli_import_seconds() if workload == "cli" else 0.0
    layers["trace_overhead_frac"] = (statistics.median(res["walls_traced"])
                                     / statistics.median(res["walls_untraced"]) - 1.0)
    if res["solves_off_fsal"]:
        print(f"note: {res['solves_off_fsal']} solves had RHS evaluations "
              "that are not 1 + 6 * steps")
    return {name: _metric(layers[name], unit_of(name)) for name in per_layer_names()}


def per_layer_names() -> list[str]:
    """The traced run's metrics, in the order BENCHMARK.json lists them."""
    from tracing import LAYERS

    names = [f"{m}.{f}.{k}" for m, fns in LAYERS.items() for f in fns
             for k in ("calls", "self_s", "raised")]
    names += ["specfun.hyp2f1.max_ms"]
    names += [f"analytic.{f}.bad" for f in LAYERS["analytic"]]
    names += ["bloch_ode.rhs_evals", "bloch_ode.steps_attempted",
              "bloch_ode.rhs_evals_per_solve", "sweep.w_infinity_per_root",
              "verify.checks_failed", "cli.import_s", "trace_overhead_frac"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_per_root")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
