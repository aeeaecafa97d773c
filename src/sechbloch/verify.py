"""Self-check suites cross-validating the closed forms against the ODE route.

`fast` covers the oracle-equivalence grid, the documented point values,
special-case reductions, node law, form equivalence, and extremum slopes.
`full` adds the asymptotic-regime bands, the envelope fit, threshold areas,
and the time-dependent solution.

Every check reports a single measured number against a single tolerance,
with `passed = measured <= tolerance`; details carry the worst offender.
All closed-form evaluations go through module attributes (analytic.w_infinity
and friends) so that a tampered implementation is visible to the suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import analytic, sweep
from .analytic import DimensionlessParams
from .bloch_ode import IntegratorConfig, SechPulseModel, final_inversion, integrate
from .specfun import cospi

__all__ = ["CheckResult", "format_report", "run_checks"]

_GRID_ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
_GRID_GAMMAS = (0.0, 0.05, 0.1, 0.5, 1.0, 2.0)

# pi-pulse fixtures: dephasing values solving (1-2g)/(1+2g) = w for
# w = 0.9, 0.5, 0.
_PI_PULSE_FIXTURES = ((1.0 / 38.0, 0.9), (1.0 / 6.0, 0.5), (0.5, 0.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name: str, measured: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, measured=measured, tolerance=tolerance,
                       passed=measured <= tolerance, detail=detail)


def _check_oracle_grid() -> CheckResult:
    worst = 0.0
    worst_at = ""
    for a in _GRID_ALPHAS:
        for g in _GRID_GAMMAS:
            exact = analytic.w_infinity(DimensionlessParams(alpha=a, gamma=g))
            ode = final_inversion(SechPulseModel.from_dimensionless(a, g))
            diff = abs(exact - ode)
            if diff > worst:
                worst = diff
                worst_at = f"alpha={a}, gamma={g}"
    return _result("oracle_grid_equivalence", worst, 1e-6,
                   f"worst at {worst_at}")


def _check_pi_pulse_values() -> CheckResult:
    worst = 0.0
    for g, target in _PI_PULSE_FIXTURES:
        exact = analytic.w_infinity(DimensionlessParams(alpha=1.0, gamma=g))
        reduced = analytic.w_integer_pulse(1, g)
        worst = max(worst, abs(exact - target), abs(reduced - target))
    return _result("pi_pulse_point_values", worst, 1e-12,
                   "w(1, gamma) against 0.9, 0.5, 0")


def _check_pi_pulse_vs_ode() -> CheckResult:
    worst = 0.0
    for g, target in _PI_PULSE_FIXTURES:
        ode = final_inversion(SechPulseModel.from_dimensionless(1.0, g))
        worst = max(worst, abs(ode - target))
    return _result("pi_pulse_vs_ode", worst, 1e-6, "same fixtures, ODE route")


def _check_integer_nodes() -> CheckResult:
    worst = max(abs(analytic.w_infinity(DimensionlessParams(alpha=float(n), gamma=0.5)))
                for n in range(1, 9))
    return _result("integer_nodes_at_half", worst, 1e-12,
                   "w(n, 1/2) for n = 1..8")


def _check_special_case_products() -> CheckResult:
    worst = 0.0
    worst_at = ""
    for g in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        for n in range(1, 9):
            d = abs(analytic.w_integer_pulse(n, g)
                    - analytic.w_infinity(DimensionlessParams(alpha=float(n), gamma=g)))
            if d > worst:
                worst, worst_at = d, f"integer n={n}, gamma={g}"
        for n in range(0, 9):
            d = abs(analytic.w_half_integer_pulse(n, g)
                    - analytic.w_infinity(DimensionlessParams(alpha=n + 0.5, gamma=g)))
            if d > worst:
                worst, worst_at = d, f"half-integer n={n}, gamma={g}"
    return _result("special_case_products", worst, 1e-12, f"worst at {worst_at}")


def _check_form_equivalence() -> CheckResult:
    rng = random.Random(20260821)
    worst = 0.0
    worst_at = ""
    accepted = 0
    while accepted < 10_000:
        a = rng.uniform(0.0, 10.0)
        g = rng.uniform(0.0, 3.0)
        x = 0.5 - g + a
        rx = round(x)
        if rx <= 0 and abs(x - rx) < 1e-4:
            continue  # cos-form pole neighborhood
        accepted += 1
        p = DimensionlessParams(alpha=a, gamma=g)
        d = abs(analytic.w_infinity(p) - analytic.w_infinity_cos_form(p))
        if d > worst:
            worst, worst_at = d, f"alpha={a:.6f}, gamma={g:.6f}"
    return _result("form_equivalence", worst, 1e-10,
                   f"10000 samples, worst at {worst_at}")


def _check_shifted_nodes() -> CheckResult:
    # find_node returns n + 1/2 + gamma by construction; what can fail is
    # the inversion itself, which must vanish there and change sign across
    # the node.  A missing sign change counts as an infinite miss.
    worst = 0.0
    worst_at = ""
    for g in (0.0, 0.1, 0.5, 1.0):
        for n in range(0, 6):
            a = sweep.find_node(n, g).alpha_root
            d = abs(analytic.w_infinity(DimensionlessParams(alpha=a, gamma=g)))
            below = analytic.w_infinity(DimensionlessParams(alpha=a - 0.25, gamma=g))
            above = analytic.w_infinity(DimensionlessParams(alpha=a + 0.25, gamma=g))
            if not below * above < 0.0:
                d = math.inf
            if d > worst:
                worst, worst_at = d, f"n={n}, gamma={g}"
    return _result("shifted_nodes", worst, 1e-9,
                   f"|w| at n + 1/2 + gamma and a sign change across it; "
                   f"worst at {worst_at or 'none'}")


def _check_extremum_slopes() -> CheckResult:
    g0 = 1e-4
    targets = (-4.0, 16.0 / 3.0, -92.0 / 15.0, 704.0 / 105.0)
    worst = 0.0
    for n, target in enumerate(targets, start=1):
        w = analytic.w_infinity(DimensionlessParams(alpha=n + g0, gamma=g0))
        slope = (w - (-1.0) ** (n + 1)) / g0
        worst = max(worst, abs(slope / target - 1.0))
    return _result("extremum_slopes", worst, 5e-3,
                   "finite-difference slopes at n = 1..4 vs -4, 16/3, -92/15, 704/105")


def _check_weak_dephasing_order() -> CheckResult:
    # The first-order expansion approximates the oscillation amplitude; both
    # forms share the exact cos(pi (alpha - gamma)) factor, so divide it out
    # before measuring the error.  The amplitude error scales as gamma^2 and
    # its halving ratio sits near 1/4 at every alpha.  (The raw difference
    # degenerates to O(gamma^3) at half-odd-integer alpha, where the shared
    # cos factor is itself O(gamma).)
    worst = 0.0
    worst_at = ""

    def amp_error(a: float, g: float) -> float:
        p = DimensionlessParams(alpha=a, gamma=g)
        phase = cospi(a - g)
        diff = analytic.w_weak_dephasing(p).value - analytic.w_infinity(p)
        return abs(diff / phase)

    for a in (0.5, 1.0, 2.5):
        for g in (0.08, 0.04):
            ratio = amp_error(a, 0.5 * g) / amp_error(a, g)
            d = abs(ratio - 0.275)
            if d > worst:
                worst, worst_at = d, f"alpha={a}, gamma={g}: ratio={ratio:.4f}"
    return _result("weak_dephasing_order", worst, 0.125,
                   f"amplitude-error halving ratio against [0.15, 0.40]; "
                   f"worst at {worst_at}")


def _check_strong_dephasing_band() -> CheckResult:
    worst = 0.0
    for a, g in ((1.0, 20.0), (2.0, 40.0), (1.0, 50.0)):
        p = DimensionlessParams(alpha=a, gamma=g)
        est = analytic.w_strong_dephasing(p).value
        worst = max(worst, abs(analytic.w_infinity(p) / est - 1.0))
    return _result("strong_dephasing_band", worst, 0.02,
                   "relative deviation from -exp(-alpha^2/gamma)")


def _check_large_area_envelope() -> CheckResult:
    worst = 0.0
    worst_at = ""
    for g in (0.25, 0.5, 1.0):
        slope = sweep.amplitude_envelope_fit(g, (20, 60))
        d = abs(slope / (-2.0 * g) - 1.0)
        if d > worst:
            worst, worst_at = d, f"gamma={g}: slope={slope:.5f}"
    return _result("large_area_envelope", worst, 0.02,
                   f"fitted exponent against -2*gamma; worst at {worst_at}")


def _check_threshold_areas() -> CheckResult:
    # (GammaT, expected area/pi, relative tolerance)
    cases = ((1.0, 3.18, 0.01), (0.3, 415.0, 0.01), (0.1, 1.58e9, 0.02))
    worst = 0.0
    detail_parts = []
    for gt, expected, tol in cases:
        ratio = analytic.area_epsilon(0.1, gt) / math.pi
        err = abs(ratio / expected - 1.0)
        worst = max(worst, err / tol)
        detail_parts.append(f"GammaT={gt}: {ratio:.4g} vs {expected:.4g}")
    return _result("threshold_areas", worst, 1.0,
                   "; ".join(detail_parts) + " (normalized by per-point tolerance)")


def _check_threshold_envelope() -> CheckResult:
    eps = 0.1
    worst = 0.0
    detail_parts = []
    for gt in (0.3, 1.0):
        g = 0.5 * gt
        alpha_eps = analytic.area_epsilon(eps, gt) / math.pi
        n = round(alpha_eps - g)
        root = sweep.find_extremum(n, g)
        w = abs(analytic.w_infinity(DimensionlessParams(alpha=root.alpha_root, gamma=g)))
        worst = max(worst, w)
        detail_parts.append(f"GammaT={gt}: |w|={w:.5f} at alpha={root.alpha_root:.4f}")
    return _result("threshold_envelope", worst, 1.05 * eps, "; ".join(detail_parts))


def _check_time_dependent() -> CheckResult:
    # Samples at t/T in {-5, -4.5, ..., 5}: indices 80..120 step 2 of the
    # default 201-sample window [-25, 25].
    worst = 0.0
    worst_at = ""
    for a, g in ((0.5, 0.2), (1.0, 0.5), (2.0, 1.0)):
        model = SechPulseModel.from_dimensionless(a, g)
        traj = integrate(model, IntegratorConfig())
        p = DimensionlessParams(alpha=a, gamma=g)
        for i in range(80, 121, 2):
            t = traj.times[i]
            state = traj.states[i]
            dw = abs(analytic.w_of_t(p, t) - state.w) / 1e-7
            dv = abs(analytic.v_of_t(p, t) - state.v) / 1e-6
            du = abs(state.u) / 1e-11
            d = max(dw, dv, du)
            if d > worst:
                worst, worst_at = d, f"alpha={a}, gamma={g}, t/T={t:g}"
    return _result("time_dependent_vs_ode", worst, 1.0,
                   f"w, v, u residuals normalized by (1e-7, 1e-6, 1e-11); "
                   f"worst at {worst_at}")


def _check_coherent_norm() -> CheckResult:
    traj = integrate(SechPulseModel.from_dimensionless(1.3, 0.0), IntegratorConfig())
    worst = max(abs(s.norm_sq() - 1.0) for s in traj.states)
    return _result("coherent_norm_conservation", worst, 1e-8,
                   "max |u^2+v^2+w^2 - 1| along alpha=1.3, gamma=0")


def _check_coherent_final() -> CheckResult:
    final = final_inversion(SechPulseModel.from_dimensionless(1.3, 0.0))
    d = abs(final - analytic.w_coherent(1.3))
    return _result("coherent_final_inversion", d, 1e-8,
                   "alpha=1.3, gamma=0 against -cos(1.3 pi)")


_FAST_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_oracle_grid,
    _check_pi_pulse_values,
    _check_pi_pulse_vs_ode,
    _check_integer_nodes,
    _check_special_case_products,
    _check_form_equivalence,
    _check_shifted_nodes,
    _check_extremum_slopes,
)

_FULL_CHECKS: tuple[Callable[[], CheckResult], ...] = _FAST_CHECKS + (
    _check_weak_dephasing_order,
    _check_strong_dephasing_band,
    _check_large_area_envelope,
    _check_threshold_areas,
    _check_threshold_envelope,
    _check_time_dependent,
    _check_coherent_norm,
    _check_coherent_final,
)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the named suite; a check that raises counts as failed, not fatal."""
    if level == "fast":
        checks = _FAST_CHECKS
    elif level == "full":
        checks = _FULL_CHECKS
    else:
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    results: list[CheckResult] = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - a broken check must fail, not abort
            results.append(CheckResult(
                name=check.__name__.removeprefix("_check_"),
                measured=math.inf, tolerance=0.0, passed=False,
                detail=f"{type(exc).__name__}: {exc}"))
    return results


def format_report(results: list[CheckResult], color: bool = False) -> str:
    """One line per check plus a summary line."""
    green = "\x1b[32m" if color else ""
    red = "\x1b[31m" if color else ""
    reset = "\x1b[0m" if color else ""
    lines = []
    for r in results:
        status = f"{green}PASS{reset}" if r.passed else f"{red}FAIL{reset}"
        line = (f"[{status}] {r.name:<28s} measured {r.measured: .3e}"
                f"  tolerance {r.tolerance:.3e}")
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
