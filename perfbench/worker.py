"""The timed process: runs one workload's pass of operations repeatedly.

    python3 perfbench/worker.py run < request.json > result.json
    python3 perfbench/worker.py probe WORKLOAD|cli-import

`run` reads {"workload", "ops", "seconds", "trace", "min_passes"} on stdin
and writes JSON lines on stdout: one {"raw", "scaled"} line of operation
times per untraced pass, then the result.  It imports only the library and
the benchmark's own `ops`/`tracing` modules, never mpmath, so its memory
and timings are the program's.  `probe` times a fresh interpreter's
`import sechbloch` plus the workload's warm-up operation (or `import
sechbloch.cli` alone) and prints the seconds.  Both need `src` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _same(a, b) -> bool:
    return a == b or repr(a) == repr(b)


# Speed calibration.  The host's speed swings by about 25 % over seconds
# to minutes (other tenants share the cores), more than any bound the
# benchmark could keep.  Every CALIBRATE_EVERY_S the timed process times a
# fixed pure-Python kernel and scales the operation times that follow by
# KERNEL_REF_S / kernel time.  Times are so reported at the speed where the
# kernel takes KERNEL_REF_S (about its median on the 2-CPU host the baseline
# was taken on), and a change to the library's own speed passes through
# unchanged.  Raw times are returned too.
CALIBRATE_EVERY_S = 0.01
KERNEL_REF_S = 3.5e-4


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _step(p: _Point, y: float) -> tuple[float, float]:
    return p.a * y + p.b, y - p.a


def _kernel() -> float:
    """Object, call and float work in the proportions of the library's own
    code; it tracks the host's speed swings far better than a bare loop."""
    acc = 0.0
    seen = {}
    for i in range(1, 500):
        u, v = _step(_Point(i * 0.001, 0.5), 1.5)
        seen[i & 31] = (u, v)
        acc += u / (v + 2.0)
    return acc


def speed_factor(repeats: int = 1) -> float:
    """KERNEL_REF_S over the kernel's (median) time now; 1.0 at reference speed."""
    spans = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        spans.append(time.perf_counter() - t0)
    spans.sort()
    return KERNEL_REF_S / spans[len(spans) // 2]


def _pass(ops: list[dict], execute, inprocess_cli: bool) -> tuple[list, list[float], list[float]]:
    outcomes, raw, scaled = [], [], []
    clock = time.perf_counter
    next_calibration = 0.0
    for op in ops:
        if clock() >= next_calibration:
            factor = speed_factor()
            next_calibration = clock() + CALIBRATE_EVERY_S
        t0 = clock()
        out = execute(op, inprocess_cli)
        dt = clock() - t0
        raw.append(dt)
        if dt >= CALIBRATE_EVERY_S:
            # A long operation may span a change of speed: use the mean of
            # the factors measured on either side of it.
            after = speed_factor()
            scaled.append(dt * 0.5 * (factor + after))
            factor = after
            next_calibration = clock() + CALIBRATE_EVERY_S
        else:
            scaled.append(dt * factor)
        outcomes.append(out)
    return outcomes, raw, scaled


def _run(req: dict) -> dict:
    """Run passes; every pass's times go out as one JSON line as it ends,
    so the samples do not pile up in this process's memory."""
    import sechbloch  # noqa: F401
    from ops import WARMUP, execute

    workload, ops, seconds = req["workload"], req["ops"], req["seconds"]
    # One CPU for this process and the CLI processes it starts, so the
    # speed calibration runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    execute(WARMUP[workload], inprocess_cli=True)
    first: list | None = None
    repeat_mismatches = 0
    start = time.perf_counter()

    def keep(outcomes: list) -> None:
        nonlocal first, repeat_mismatches
        if first is None:
            first = outcomes
        else:
            repeat_mismatches += sum(not _same(a, b) for a, b in zip(first, outcomes))

    if not req["trace"]:
        passes = 0
        while True:
            outcomes, raw, scaled = _pass(ops, execute, inprocess_cli=False)
            keep(outcomes)
            sys.stdout.write(json.dumps({"raw": raw, "scaled": scaled}) + "\n")
            passes += 1
            if time.perf_counter() - start >= seconds and passes >= req["min_passes"]:
                break
        usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        return {"outcomes": first, "passes": passes, "repeat_mismatches": repeat_mismatches,
                "peak_rss_kb": resource.getrusage(usage).ru_maxrss}

    # Traced run: alternate untraced and traced passes over the same ops,
    # all in-process, so the two pass times (scaled, summed over the
    # operations) compare like with like.
    from tracing import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    traced_first: list | None = None
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                outcomes, _, scaled = _pass(ops, execute, inprocess_cli=True)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(sum(scaled))
            if traced:
                if traced_first is None:
                    traced_first = outcomes
                elif any(not _same(a, b) for a, b in zip(traced_first, outcomes)):
                    repeat_mismatches += 1
            else:
                keep(outcomes)
        if time.perf_counter() - start >= seconds:
            break
    n = len(walls[True])
    return {"outcomes": first, "traced_outcomes": traced_first,
            "passes": 2 * n, "repeat_mismatches": repeat_mismatches,
            "walls_untraced": walls[False], "walls_traced": walls[True],
            "layers": tracer.layer_metrics(n),
            "solves_off_fsal": tracer.solves_off_fsal,
            "analytic_calls": {fn: [[list(k), c, v] for k, (c, v) in calls.items()]
                               for fn, calls in tracer.calls.items()}}


def _probe(what: str) -> float:
    """Scaled seconds for `import sechbloch` plus the warm-up operation of
    workload `what`, or for `import sechbloch.cli` when what is cli-import."""
    # The standard modules `ops` needs and the library does not, loaded
    # first so the span holds only the library and the warm-up operation.
    import contextlib  # noqa: F401
    import io  # noqa: F401
    import subprocess  # noqa: F401

    factor = speed_factor(repeats=5)
    t0 = time.perf_counter()
    if what == "cli-import":
        import sechbloch.cli  # noqa: F401
    else:
        import sechbloch  # noqa: F401
        from ops import WARMUP, execute

        execute(WARMUP[what], inprocess_cli=True)
    return (time.perf_counter() - t0) * factor


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"] and len(argv) == 2:
        print(repr(_probe(argv[1])))
        return 0
    if argv == ["run"]:
        result = _run(json.load(sys.stdin))
        sys.stdout.write(json.dumps(result))
        return 0
    print("usage: worker.py run | worker.py probe WORKLOAD|cli-import", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
