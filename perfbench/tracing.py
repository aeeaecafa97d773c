"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced public function with a timing
wrapper in every `sechbloch` module that holds a reference to it.  That
matters: `analytic` and `sweep` bind `specfun` and `bloch_ode` names at
import, so patching the defining module alone would miss their calls.
`uninstall()` puts the originals back.

A wrapper keeps spans on a stack; a function's self time is its span
minus the spans of the traced calls it made.  Extra counters:
RHS evaluations through a counting pulse handed to `integrate`, the
largest single `hyp2f1` span, `w_infinity` calls made under the root
finders, failed `verify` checks, and the arguments and results of the
`analytic` calls so the orchestrator can count out-of-tolerance answers.
"""

from __future__ import annotations

import sys
import time

LAYERS = {
    "specfun": ("ln_gamma", "signed_ln_gamma", "signed_ln_recip_gamma",
                "digamma", "hyp2f1", "hyp2f1_at_unity"),
    "analytic": ("w_infinity", "w_infinity_cos_form", "w_of_t", "v_of_t",
                 "w_weak_dephasing", "w_strong_dephasing", "w_large_area",
                 "area_epsilon"),
    "bloch_ode": ("final_inversion", "integrate"),
    "sweep": ("figure1_dataset", "figure2_dataset", "find_node",
              "find_extremum", "amplitude_envelope_fit", "run_sweep"),
    "verify": ("run_checks",),
    "cli": ("main",),
}

_ROOT_FINDERS = ("sweep.find_node", "sweep.find_extremum")


def _analytic_args(fn: str, args: tuple) -> tuple:
    """Float arguments of a traced `analytic` call, as a hashable key."""
    if fn == "area_epsilon":
        return tuple(args)
    p = args[0]
    if fn in ("w_of_t", "v_of_t"):
        return (p.alpha, p.gamma, args[1])
    return (p.alpha, p.gamma)


class CountingPulse:
    """PulseShape that counts its evaluations, one per RHS evaluation."""

    __slots__ = ("shape", "T", "evals")

    def __init__(self, shape) -> None:
        self.shape = shape
        self.T = shape.T
        self.evals = 0

    def __call__(self, t: float):
        self.evals += 1
        return self.shape(t)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self_s, raised, max_span_s]
        self.stats = {f"{m}.{f}": [0, 0.0, 0, 0.0]
                      for m, fns in LAYERS.items() for f in fns}
        self.stack: list[list[float]] = []
        self.solves = 0
        self.rhs_evals = 0
        self.steps_attempted = 0
        self.solves_off_fsal = 0
        self.evals_per_solve: list[int] = []
        self.root_depth = 0
        self.roots_found = 0
        self.winf_under_roots = 0
        self.checks_failed = 0
        # analytic fn -> {args: [calls, result]}
        self.calls: dict[str, dict[tuple, list]] = {f: {} for f in LAYERS["analytic"]}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        module, short = name.split(".")
        tracer = self

        def wrapper(*args, **kwargs):
            counter = None
            if short == "integrate":
                counter = CountingPulse(args[0] if args else kwargs.pop("shape"))
                args = (counter,) + args[1:]
            elif name in _ROOT_FINDERS:
                tracer.root_depth += 1
            elif short == "w_infinity" and tracer.root_depth:
                tracer.winf_under_roots += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            else:
                if module == "analytic":
                    key = _analytic_args(short, args)
                    seen = tracer.calls[short].get(key)
                    if seen is None:
                        value = getattr(result, "value", result)
                        tracer.calls[short][key] = [1, value]
                    else:
                        seen[0] += 1
                elif name in _ROOT_FINDERS:
                    tracer.roots_found += 1
                elif short == "run_checks":
                    tracer.checks_failed += sum(not r.passed for r in result)
                return result
            finally:
                span = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += span - frame[0]
                if span > stats[3]:
                    stats[3] = span
                if stack:
                    stack[-1][0] += span
                if counter is not None:
                    tracer._count_solve(counter.evals)
                elif name in _ROOT_FINDERS:
                    tracer.root_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_solve(self, evals: int) -> None:
        self.solves += 1
        self.rhs_evals += evals
        self.evals_per_solve.append(evals)
        # DOPRI5 with FSAL: one start-up evaluation, then six per attempt.
        self.steps_attempted += (evals - 1) // 6
        if (evals - 1) % 6:
            self.solves_off_fsal += 1

    def install(self) -> None:
        import sechbloch.cli  # noqa: F401 - load every module before patching

        mods = [m for n, m in sys.modules.items()
                if n == "sechbloch" or n.startswith("sechbloch.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"sechbloch.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer numbers for one pass (totals divided by `passes`)."""
        out: dict[str, float] = {}
        for name, (calls, self_s, raised, max_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.raised"] = raised / passes
            if name == "specfun.hyp2f1":
                out[f"{name}.max_ms"] = max_s * 1e3
        out["bloch_ode.rhs_evals"] = self.rhs_evals / passes
        out["bloch_ode.steps_attempted"] = self.steps_attempted / passes
        out["bloch_ode.rhs_evals_per_solve"] = (
            self.rhs_evals / self.solves if self.solves else 0.0)
        out["sweep.w_infinity_per_root"] = (
            self.winf_under_roots / self.roots_found if self.roots_found else 0.0)
        out["verify.checks_failed"] = self.checks_failed / passes
        return out
