"""50-digit mpmath references and the per-operation verdict.

Runs in the orchestrating process only, never in the timed one.  Every
reference is computed from the float inputs exactly as the program
received them, at 50 significant digits, so the error printed for an
operation is the program's own.  A reference that cannot be computed
raises `ReferenceFailure`, and the benchmark then reports no numbers.
"""

from __future__ import annotations

import math
import re

import mpmath as mp

from inputs import FIG2_GAMMA_TS

mp.mp.dps = 50

# Accuracy each operation is checked at (absolute, except where noted).
TOL = {
    "w_infinity": 1e-10,
    "w_infinity_cos_form": 1e-10,
    "w_of_t": 1e-10,
    "v_of_t": 1e-9,
    "final_inversion": 1e-8,
    "find_node": 1e-9,
    "find_extremum": 1e-7,
    "amplitude_envelope_fit": 1e-9,
    "area_epsilon": 1e-10,          # relative: areas reach 1e19
    "figure": 1e-10,                # every CSV / dataset cell
    "estimate": 1e-10,              # asymptotic estimates and hints, relative to max(1, |ref|)
    "traj_w": 1e-7,                 # integrate samples, the tolerances `verify` uses
    "traj_v": 1e-6,
    "traj_u": 1e-11,
}

# Where the program's known defects (ROADMAP open item 2) lie.  The
# inputs there stay in the workloads and their failures are counted, but
# any failure outside them makes a run incorrect.  Each edge leaves a
# margin: outside these regions the worst error over seeds 1-100 of
# `trajectory` and 1-12 of `survey` is at most a fifth of its tolerance.
STRONG_DEPHASING_GAMMA = 1e4   # w_infinity: cancellation between huge ln Gamma
LARGE_AREA_ALPHA = 10.0        # w_of_t, v_of_t: cancellation in the Gauss series
FAR_TAIL_T = 6.0               # w_of_t, v_of_t: degenerate 2F1 (c - a - b an
                               # integer) and accuracy loss towards |t/T| = 20


def known_defect(op: dict) -> bool:
    """Whether the operation's input lies where a known defect may fail it."""
    if op["op"] == "w_infinity":
        return op["gamma"] >= STRONG_DEPHASING_GAMMA
    if op["op"] in ("w_of_t", "v_of_t"):
        return op["alpha"] >= LARGE_AREA_ALPHA or abs(op["t"]) >= FAR_TAIL_T
    return False


# sweep.FIG1_ALPHAS and the figures' default grid sizes at the time the
# benchmark was written; a figure with other curves or points is wrong.
FIG1_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
FIG_POINTS = {"fig1": 601, "fig2": 801}
_EULER = mp.euler


class ReferenceFailure(RuntimeError):
    """A reference value could not be computed or an output could not be read."""


def _finite(x: mp.mpf, what: str) -> mp.mpf:
    if not mp.isfinite(x):
        raise ReferenceFailure(f"reference for {what} is not finite: {x}")
    return x


class References:
    """Cached 50-digit values of the closed forms, keyed by float inputs."""

    def __init__(self) -> None:
        self._cache: dict[tuple, mp.mpf] = {}

    def _memo(self, key: tuple, compute) -> mp.mpf:
        if key not in self._cache:
            try:
                value = compute()
            except (ArithmeticError, ValueError, mp.libmp.NoConvergence) as exc:
                raise ReferenceFailure(f"reference {key} failed: {exc}") from exc
            self._cache[key] = _finite(value, str(key))
        return self._cache[key]

    def w_inf(self, a: float, g: float) -> mp.mpf:
        def compute():
            nu = mp.mpf(0.5) + mp.mpf(g)
            return -mp.gamma(nu) ** 2 * mp.rgamma(nu + a) * mp.rgamma(nu - a)
        return self._memo(("winf", a, g), compute)

    @staticmethod
    def _z(t: float) -> mp.mpf:
        return 1 / (1 + mp.exp(-2 * mp.mpf(t)))

    def w_t(self, a: float, g: float, t: float) -> mp.mpf:
        def compute():
            return -mp.hyp2f1(a, -mp.mpf(a), mp.mpf(0.5) + g, self._z(t))
        return self._memo(("wt", a, g, t), compute)

    def v_t(self, a: float, g: float, t: float) -> mp.mpf:
        def compute():
            if a == 0.0:
                return mp.mpf(0)
            nu = mp.mpf(0.5) + g
            return (a / nu) * mp.sech(t) / 2 * mp.hyp2f1(
                mp.mpf(a) + 1, 1 - mp.mpf(a), nu + 1, self._z(t))
        return self._memo(("vt", a, g, t), compute)

    def extremum(self, n: int, g: float) -> mp.mpf:
        """nth stationary point of w_infinity in alpha: psi(nu+a) = psi(nu-a)."""
        def compute():
            nu = mp.mpf(0.5) + g
            lo = n - mp.mpf(0.5) + g
            hi = lo + 1
            f = lambda a: mp.digamma(nu + a) - mp.digamma(nu - a)  # noqa: E731
            # f rises monotonically from -inf to +inf across (lo, hi):
            # bisect to a narrow bracket, then Newton, which stays inside it.
            while hi - lo > 1e-3:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
            a = (lo + hi) / 2
            for _ in range(20):
                step = f(a) / (mp.psi(1, nu + a) + mp.psi(1, nu - a))
                a -= step
                if not lo < a < hi:
                    raise ReferenceFailure(f"extremum n={n}, gamma={g} left its bracket")
                if abs(step) < mp.mpf(10) ** -40:
                    return a
            raise ReferenceFailure(f"extremum n={n}, gamma={g} did not converge")
        return self._memo(("ext", n, g), compute)

    def envelope_slope(self, g: float, n_lo: int, n_hi: int) -> mp.mpf:
        def compute():
            xs, ys = [], []
            for n in range(n_lo, n_hi + 1):
                a = self.extremum(n, g)
                nu = mp.mpf(0.5) + g
                w = -mp.gamma(nu) ** 2 * mp.rgamma(nu + a) * mp.rgamma(nu - a)
                xs.append(mp.log(a))
                ys.append(mp.log(abs(w)))
            mx, my = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
            sxy = mp.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            sxx = mp.fsum((x - mx) ** 2 for x in xs)
            return sxy / sxx
        return self._memo(("fit", g, n_lo, n_hi), compute)

    def area_epsilon(self, eps: float, gamma_t: float) -> mp.mpf:
        def compute():
            g = mp.mpf(gamma_t) / 2
            ln_ratio = mp.log(mp.pi * eps) - 2 * mp.loggamma(mp.mpf(0.5) + g)
            return mp.pi * mp.exp(-ln_ratio / (2 * g))
        return self._memo(("area", eps, gamma_t), compute)

    def estimates(self, a: float, g: float) -> tuple:
        """(weak, strong, strong_hint, large, large_hint) as in `winf`."""
        def weak():
            amp = 1 - 2 * (_EULER + 2 * mp.log(2) + mp.digamma(mp.mpf(0.5) + a)) * g
            return -amp * mp.cospi(mp.mpf(a) - g)

        def large():
            env = mp.gamma(mp.mpf(0.5) + g) ** 2 / mp.pi * mp.power(a, -2 * mp.mpf(g))
            return -env * mp.cospi(mp.mpf(a) - g)
        def strong():
            if g == 0.0:  # the formal gamma -> 0 limit the program returns
                return mp.mpf(-1 if a == 0.0 else 0)
            return -mp.exp(-mp.mpf(a) ** 2 / g)
        return (self._memo(("weak", a, g), weak),
                self._memo(("strong", a, g), strong),
                1 / mp.mpf(g) if g else mp.inf,
                self._memo(("large", a, g), large) if a else mp.nan,
                1 / mp.mpf(a) ** 2 if a else mp.inf)

    def figure_rows(self, which: str) -> list[list[mp.mpf]]:
        """Reference rows (x, w per curve) on the figure's own float grid."""
        points = FIG_POINTS[which]
        rows = []
        for i in range(points):
            if which == "fig1":
                x = 6.0 * i / (points - 1)
                rows.append([x] + [self.w_inf(a, 0.5 * x) for a in FIG1_ALPHAS])
            else:
                x = 8.0 * i / (points - 1)
                rows.append([x] + [self.w_inf(x, 0.5 * gt) for gt in FIG2_GAMMA_TS])
        return rows


def figure_header(which: str) -> list[str]:
    if which == "fig1":
        return ["GammaT"] + [f"w_alpha_{a:g}" for a in FIG1_ALPHAS]
    return ["area_over_pi"] + [f"w_GammaT_{g:g}" for g in FIG2_GAMMA_TS]


class Verdict:
    """Worst error of one operation and whether it stayed within tolerance."""

    def __init__(self) -> None:
        self.err = 0.0
        self.ok = True

    def add(self, got, ref, tol: float, relative: bool = False) -> None:
        if got is None or not math.isfinite(got):
            self.require(False)
            return
        err = abs(mp.mpf(got) - ref)
        if relative:
            err /= max(mp.mpf(1), abs(ref))
        err = float(err)
        self.err = max(self.err, err)
        if not err <= tol:
            self.ok = False

    def require(self, cond: bool) -> None:
        """A structural check (shape, header, exit status); failing it is total."""
        if not cond:
            self.ok = False
            self.err = math.inf


def _samples(refs: References, a: float, g: float, points: int) -> list[tuple]:
    """(t, v, w) references at the integrator's sample times on [-25, 25]."""
    ts = [-25.0 + 50.0 * i / (points - 1) for i in range(points)]
    return [(t, refs.v_t(a, g, t), refs.w_t(a, g, t)) for t in ts]


def _cli_params(argv: list[str]) -> tuple[float, float]:
    a = float(argv[argv.index("--alpha") + 1])
    return a, 0.5 * float(argv[argv.index("--gammaT") + 1])


def expected(refs: References, op: dict):
    """Reference values for one operation, computed from its inputs alone."""
    kind = op["op"]
    if kind == "cli":
        argv = op["argv"]
        if argv[0] == "verify":
            return None
        if argv[0] == "figure":
            return refs.figure_rows(argv[1])
        a, g = _cli_params(argv)
        if argv[0] == "winf":
            weak, strong, strong_hint, large, large_hint = refs.estimates(a, g)
            return [mp.mpf(a), mp.mpf(2 * g), refs.w_inf(a, g), weak, mp.mpf(g),
                    strong, strong_hint, large, large_hint]
        if argv[0] == "integrate":
            return _samples(refs, a, g, int(argv[argv.index("--points") + 1]))
        raise ReferenceFailure(f"no reference for command {argv}")
    if kind == "figure1_dataset":
        return refs.figure_rows("fig1")
    if kind == "figure2_dataset":
        return refs.figure_rows("fig2")
    if kind in ("w_infinity", "final_inversion"):
        return refs.w_inf(op["alpha"], op["gamma"])
    if kind == "w_of_t":
        return refs.w_t(op["alpha"], op["gamma"], op["t"])
    if kind == "v_of_t":
        return refs.v_t(op["alpha"], op["gamma"], op["t"])
    if kind == "integrate":
        return _samples(refs, op["alpha"], op["gamma"], 201)
    if kind == "find_node":
        return mp.mpf(op["n"]) + mp.mpf(0.5) + op["gamma"]
    if kind == "find_extremum":
        return refs.extremum(op["n"], op["gamma"])
    if kind == "amplitude_envelope_fit":
        return refs.envelope_slope(op["gamma"], op["n_lo"], op["n_hi"])
    if kind == "area_epsilon":
        return refs.area_epsilon(op["epsilon"], op["gamma_t"])
    raise ReferenceFailure(f"no reference for operation {kind!r}")


def _check_figure(v: Verdict, which: str, exp, header, rows) -> None:
    v.require(list(header) == figure_header(which) and len(rows) == len(exp)
              and all(len(row) == len(ref) for row, ref in zip(rows, exp)))
    if not v.ok:
        return
    for row, ref in zip(rows, exp):
        v.add(row[0], mp.mpf(ref[0]), TOL["figure"])
        for got, r in zip(row[1:], ref[1:]):
            v.add(got, r, TOL["figure"])


def _check_samples(v: Verdict, exp, times, us, vs, ws) -> None:
    v.require(len(times) == len(exp))
    for (t_ref, v_ref, w_ref), t, u, vv, w in zip(exp, times, us, vs, ws):
        v.add(t, mp.mpf(t_ref), 1e-10)
        v.add(u, mp.mpf(0), TOL["traj_u"])
        v.add(vv, v_ref, TOL["traj_v"])
        v.add(w, w_ref, TOL["traj_w"])


def _cell(cell: str):
    return float(cell) if cell != "" else None


def _check_cli(v: Verdict, argv: list[str], exp, out: str) -> None:
    if argv[0] == "verify":
        m = re.fullmatch(r"(\d+)/(\d+) checks passed", out.strip().split("\n")[-1])
        v.require(m is not None and m.group(1) == m.group(2))
        return
    table = [line.split(",") for line in out.strip().split("\n")]
    header, body = table[0], [[_cell(c) for c in row] for row in table[1:]]
    if argv[0] == "figure":
        _check_figure(v, argv[1], exp, header, body)
    elif argv[0] == "winf":
        v.require(header[:3] == ["alpha", "GammaT", "w_exact"] and len(body) == 1
                  and len(body[0]) == len(exp))
        if v.ok:
            for got, ref in zip(body[0], exp):
                v.add(got, ref, TOL["estimate"], relative=True)
    else:
        v.require(header == ["t_over_T", "u", "v", "w"]
                  and all(len(row) == 4 for row in body))
        if v.ok:
            _check_samples(v, exp, *zip(*body))


def judge(refs: References, op: dict, outcome: dict) -> tuple[str, float | None]:
    """Classify one operation: ok, typed_error, untyped_error or wrong.

    The reference is computed first, whatever the outcome, so a missing
    reference always stops the benchmark.  Returns the class and the worst
    error among returned values (None when the operation raised).
    """
    exp = expected(refs, op)
    if "err" in outcome:
        return ("typed_error" if outcome["typed"] else "untyped_error"), None
    kind, got = op["op"], outcome["v"]
    v = Verdict()
    if kind == "cli":
        if got["rc"] != 0:
            return ("untyped_error" if got["traceback"] else "typed_error"), None
        try:
            _check_cli(v, op["argv"], exp, got["out"])
        except (ValueError, IndexError):  # unreadable output
            v.require(False)
    elif kind in ("figure1_dataset", "figure2_dataset"):
        header, rows = got
        _check_figure(v, "fig1" if kind == "figure1_dataset" else "fig2", exp, header, rows)
    elif kind == "integrate":
        _check_samples(v, exp, *got)
    else:
        v.add(got, exp, TOL[kind], relative=kind == "area_epsilon")
    return ("ok" if v.ok else "wrong"), v.err


def count_bad(refs: References, calls: dict[str, list]) -> dict[str, int]:
    """Out-of-tolerance answers among traced `analytic` calls, per function.

    `calls` maps a function name to [args, call count, returned value]
    records; each distinct call is judged once and counted as often as it
    was made.
    """
    bad = {}
    for fn, records in calls.items():
        bad[fn] = 0
        for args, count, value in records:
            ref, tol, relative = _reference_for_call(refs, fn, args)
            v = Verdict()
            v.add(value, ref, tol, relative)
            if not v.ok:
                bad[fn] += count
    return bad


def _reference_for_call(refs: References, fn: str, args: list[float]) -> tuple[mp.mpf, float, bool]:
    """(reference, tolerance, relative) for one traced call into `analytic`."""
    if fn in ("w_infinity", "w_infinity_cos_form"):
        return refs.w_inf(*args), TOL[fn], False
    if fn == "w_of_t":
        return refs.w_t(*args), TOL[fn], False
    if fn == "v_of_t":
        return refs.v_t(*args), TOL[fn], False
    if fn == "area_epsilon":
        return refs.area_epsilon(*args), TOL[fn], True
    weak, strong, _, large, _ = refs.estimates(*args)
    ref = {"w_weak_dephasing": weak, "w_strong_dephasing": strong,
           "w_large_area": large}[fn]
    return ref, TOL["estimate"], True
