"""Parameter sweeps, node and extremum localization, and figure datasets.

Sweeps evaluate the closed form, the differential-equation solver, or both
over a 1-D grid; the zeros and stationary points of the final inversion in
alpha follow from its reflection form, the zeros exactly and the
stationary points as the fixed point of a contracting map.  Everything is
deterministic: identical inputs give byte-identical rows.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from statistics import linear_regression

from . import analytic
from .analytic import DimensionlessParams
from .bloch_ode import IntegrationError, IntegratorConfig, SechPulseModel, final_inversion
from .specfun import ConvergenceError, digamma

__all__ = [
    "FIG1_ALPHAS",
    "FIG2_GAMMA_TS",
    "Engine",
    "RootResult",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SweepVariable",
    "amplitude_envelope_fit",
    "figure1_dataset",
    "figure2_dataset",
    "find_extremum",
    "find_node",
    "run_sweep",
]

# Curve sets for the two standard figures.  The alpha list is a
# representative selection (half-integer and integer areas through 3);
# the GammaT list spans four decades of dephasing.
FIG1_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
FIG2_GAMMA_TS = (0.01, 0.1, 0.2, 0.5, 1.0, 2.0)


class SweepVariable(enum.Enum):
    """Which axis the sweep walks.

    GAMMA is the dimensionless gamma = Gamma*T/2; GAMMA_T is the raw
    width-dephasing product Gamma*T (the usual figure axis).  ALPHA and
    AREA_OVER_PI are numerically the same axis under two labels, since
    the pulse area is pi*alpha.
    """

    GAMMA = "gamma_dimensionless"
    GAMMA_T = "GammaT"
    ALPHA = "alpha"
    AREA_OVER_PI = "area_over_pi"


class Engine(enum.Enum):
    ANALYTIC = "analytic"
    ODE = "ode"
    BOTH = "both"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: sweep `variable` over [start, stop] with `points` nodes.

    `fixed` is the non-swept member of the parameter pair: the dimensionless
    gamma when sweeping alpha or area, alpha when sweeping gamma or GammaT.
    """

    variable: SweepVariable
    start: float
    stop: float
    points: int
    fixed: float
    engine: Engine = Engine.ANALYTIC

    def __post_init__(self) -> None:
        if not self.start < self.stop:
            raise ValueError(f"need start < stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"need points >= 2, got {self.points}")
        if self.fixed < 0.0:
            raise ValueError(f"fixed parameter must be >= 0, got {self.fixed}")


@dataclass(frozen=True)
class SweepRow:
    """One grid point; value fields are None when that engine did not run."""

    x: float
    w_analytic: float | None
    w_ode: float | None
    abs_diff: float | None
    note: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    metadata: dict[str, object]


def _params_at(variable: SweepVariable, x: float, fixed: float) -> tuple[float, float]:
    """(alpha, gamma) at grid value x."""
    if variable is SweepVariable.GAMMA:
        return fixed, x
    if variable is SweepVariable.GAMMA_T:
        return fixed, 0.5 * x
    return x, fixed  # ALPHA and AREA_OVER_PI both carry alpha directly


def _fingerprint(spec: SweepSpec, cfg: IntegratorConfig) -> str:
    text = (
        f"{spec.variable.value}|{spec.start!r}|{spec.stop!r}|{spec.points}"
        f"|{spec.fixed!r}|{spec.engine.value}"
        f"|{cfg.rel_tol!r}|{cfg.abs_tol!r}|{cfg.window_halfwidth_L!r}"
        f"|{cfg.max_steps}|{cfg.sample_count}"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_sweep(spec: SweepSpec,
              integrator: IntegratorConfig | None = None) -> SweepResult:
    """Evaluate the requested engine(s) over the grid, in grid order.

    A grid point whose evaluation raises keeps its row: the failing values
    stay None and `note` records the error.  Values computed before the
    failure are kept.
    """
    cfg = integrator if integrator is not None else IntegratorConfig(sample_count=2)
    n = spec.points
    xs = [spec.start + (spec.stop - spec.start) * i / (n - 1) for i in range(n)]
    xs[-1] = spec.stop

    rows: list[SweepRow] = []
    for x in xs:
        alpha, gamma = _params_at(spec.variable, x, spec.fixed)
        wa: float | None = None
        wo: float | None = None
        diff: float | None = None
        note: str | None = None
        try:
            p = DimensionlessParams(alpha=alpha, gamma=gamma)
            if spec.engine is not Engine.ODE:
                wa = analytic.w_infinity(p)
            if spec.engine is not Engine.ANALYTIC:
                model = SechPulseModel.from_dimensionless(alpha, gamma)
                wo = final_inversion(model, cfg)
            if spec.engine is Engine.BOTH:
                diff = abs(wa - wo)
        except (ValueError, IntegrationError, ConvergenceError) as exc:
            note = f"{type(exc).__name__}: {exc}"
        rows.append(SweepRow(x=x, w_analytic=wa, w_ode=wo, abs_diff=diff, note=note))

    metadata: dict[str, object] = {
        "variable": spec.variable.value,
        "start": spec.start,
        "stop": spec.stop,
        "points": spec.points,
        "fixed": spec.fixed,
        "engine": spec.engine.value,
        "fingerprint": _fingerprint(spec, cfg),
    }
    return SweepResult(rows=tuple(rows), metadata=metadata)


@dataclass(frozen=True)
class RootResult:
    """A located root: position, residual there, and the bracket that holds it."""

    alpha_root: float
    residual: float
    bracket: tuple[float, float]


# The extremum map contracts by at least 6x per step, so this cap is far
# above the 20 steps that even a start 1/2 away from the root would need.
_EXTREMUM_MAX_STEPS = 50


def find_node(n: int, gamma: float) -> RootResult:
    """Locate the nth zero of the final inversion in alpha.

    The reflection form w = -A cos pi(alpha - gamma), with A > 0, puts the
    zero exactly at alpha = n + 1/2 + gamma, the midpoint of the bracket
    (n + gamma, n + 1 + gamma); the root is that sum correctly rounded.
    The residual is the inversion there.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    lo = float(n) + gamma
    root = (float(n) + 0.5) + gamma
    residual = analytic.w_infinity(DimensionlessParams(alpha=root, gamma=gamma))
    return RootResult(alpha_root=root, residual=residual, bracket=(lo, lo + 1.0))


def find_extremum(n: int, gamma: float) -> RootResult:
    """Locate the nth stationary point of the final inversion in alpha.

    With w = -A cos pi(alpha - gamma) and d ln A / d alpha = -D, where
    D(alpha) = psi(alpha + 1/2 + gamma) - psi(alpha + 1/2 - gamma) >= 0,
    dw/dalpha vanishes where tan pi(alpha - gamma) = -D / pi.  The nth
    stationary point is therefore the fixed point of

        alpha = n + gamma - arctan(D(alpha) / pi) / pi,

    iterated from alpha = n + gamma until a step moves alpha by at most
    1e-15 * max(1, alpha).  The iteration runs on the shift
    t = n + gamma - alpha, so both digamma arguments are formed without
    cancellation.  Since |D'| <= psi'(1) = pi^2 / 6 there, each step cuts
    the error at least sixfold; a map that has not settled within 50 steps
    raises ConvergenceError; at most 13 steps were needed for n up to 1e4
    and gamma up to 1e6.  Against 50-digit arithmetic the root is within
    2e-16 * max(1, alpha) for n up to 1000 and gamma up to 100.  It lies in
    the bracket (n - 1/2 + gamma, n + 1/2 + gamma) between two nodes; to
    first order in gamma it sits 2 gamma psi'(n + 1/2) / pi^2 below
    n + gamma.  The residual is d ln|w| / dalpha = psi(nu - alpha) -
    psi(nu + alpha), nu = 1/2 + gamma, at the root.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    top = float(n) + 0.5  # alpha + 1/2 - gamma = top - t
    base = float(n) + gamma
    lo = float(n) - 0.5 + gamma
    tol = 1e-15 * max(1.0, base)
    t = 0.0
    for _ in range(_EXTREMUM_MAX_STEPS):
        d = digamma(top + 2.0 * gamma - t) - digamma(top - t)
        t_prev, t = t, math.atan(d / math.pi) / math.pi
        if abs(t - t_prev) <= tol:
            residual = digamma(1.0 - top + t) - digamma(top + 2.0 * gamma - t)
            return RootResult(alpha_root=base - t, residual=residual,
                              bracket=(lo, lo + 1.0))
    raise ConvergenceError(
        f"extremum map did not settle in {_EXTREMUM_MAX_STEPS} steps "
        f"(n={n}, gamma={gamma})"
    )


def amplitude_envelope_fit(gamma: float, n_range: tuple[int, int]) -> float:
    """Least-squares slope of log|w at extrema| against log alpha.

    In the large-area regime the envelope decays as alpha^(-2 gamma), so
    the fitted slope should be -2 gamma.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    n_lo, n_hi = n_range
    log_a: list[float] = []
    log_w: list[float] = []
    for n in range(n_lo, n_hi + 1):
        root = find_extremum(n, gamma)
        w = analytic.w_infinity(DimensionlessParams(alpha=root.alpha_root, gamma=gamma))
        if w != 0.0:
            log_a.append(math.log(root.alpha_root))
            log_w.append(math.log(abs(w)))
    if len(log_a) < 4:
        raise ValueError(
            f"need at least 4 extrema for a fit, found {len(log_a)} in {n_range}"
        )
    return linear_regression(log_a, log_w).slope


def figure1_dataset(points: int = 601) -> tuple[list[str], list[list[float]]]:
    """Final inversion against GammaT in [0, 6], one column per pulse area.

    Returns (header, rows); the first column is GammaT, then one inversion
    column per alpha in FIG1_ALPHAS.
    """
    header = ["GammaT"] + [f"w_alpha_{a:g}" for a in FIG1_ALPHAS]
    rows: list[list[float]] = []
    for i in range(points):
        gt = 6.0 * i / (points - 1)
        row = [gt]
        for a in FIG1_ALPHAS:
            row.append(analytic.w_infinity(DimensionlessParams(alpha=a, gamma=0.5 * gt)))
        rows.append(row)
    return header, rows


def figure2_dataset(points: int = 801) -> tuple[list[str], list[list[float]]]:
    """Final inversion against area/pi in [0, 8], one column per GammaT.

    Returns (header, rows); the first column is area_over_pi, then one
    inversion column per GammaT in FIG2_GAMMA_TS.  The default 801 points
    put the integer areas exactly on the grid.
    """
    header = ["area_over_pi"] + [f"w_GammaT_{g:g}" for g in FIG2_GAMMA_TS]
    rows: list[list[float]] = []
    for i in range(points):
        x = 8.0 * i / (points - 1)
        row = [x]
        for gt in FIG2_GAMMA_TS:
            row.append(analytic.w_infinity(DimensionlessParams(alpha=x, gamma=0.5 * gt)))
        rows.append(row)
    return header, rows
