"""Closed-form inversion results for a resonant sech pulse with pure dephasing.

Everything is expressed through two dimensionless numbers: alpha = Omega0*T,
which is the pulse area divided by pi, and gamma = Gamma*T/2, the dephasing
accumulated over half a pulse width.  The module holds the exact final
inversion, its reflection-formula variant, the integer and half-integer
pulse-area reductions, three asymptotic regimes, node and threshold
formulas, and the hypergeometric time-dependent solution.

Nothing here touches the differential-equation solver; the two routes stay
independent so they can act as oracles for each other.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .specfun import (
    _hyp2f1,
    cospi,
    digamma,
    gamma_half_ratio,
    gamma_square_ratio,
    ln_gamma,
    signed_ln_gamma,
    sinpi,
)

__all__ = [
    "EULER_GAMMA",
    "W_INFINITY_ALPHA_MAX",
    "W_INFINITY_COS_FORM_GAMMA_MAX",
    "AsymptoticEstimate",
    "DimensionlessParams",
    "Regime",
    "area_epsilon",
    "equal_superposition_area",
    "gamma_epsilon",
    "v_of_t",
    "w_coherent",
    "w_half_integer_pulse",
    "w_infinity",
    "w_infinity_cos_form",
    "w_integer_pulse",
    "w_large_area",
    "w_of_t",
    "w_strong_dephasing",
    "w_weak_dephasing",
    "w_weak_extremum",
]

EULER_GAMMA = 0.5772156649015329

_LN_PI = math.log(math.pi)
_LN2 = math.log(2.0)
# math.exp(x) stays finite for every x <= _LN_FLOAT_MAX.
_LN_FLOAT_MAX = math.log(sys.float_info.max)

# Below nu - alpha = 12 the final inversion subtracts ln Gamma(nu + alpha)
# from ln Gamma(alpha + 1 - nu) and takes its phase from the rounded
# nu - alpha; both lose digits in proportion to alpha, so this bound keeps
# the error below 1e-10 (5e-11 measured near it).  By alpha = 2^52,
# nu - alpha has no fractional part left at all.
W_INFINITY_ALPHA_MAX = 1e4

# The cos form adds ln Gamma values of size gamma ln gamma, so its error
# grows as about 6e-15 * gamma (6.2e-11 measured at gamma = 1e4).
W_INFINITY_COS_FORM_GAMMA_MAX = 1e4

# Below this 1 - z, at t/T > 345, v_of_t takes the leading term of its
# 1 - z expansion: 1 - z would soon lose relative digits as a subnormal.
_FAR_TAIL_ZC = 1e-300


@dataclass(frozen=True)
class DimensionlessParams:
    """Pulse and dephasing strength: alpha = Omega0*T, gamma = Gamma*T/2."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.gamma < math.inf):
            raise ValueError(
                f"alpha and gamma must be finite and >= 0, "
                f"got ({self.alpha}, {self.gamma})"
            )

    @property
    def area(self) -> float:
        """Pulse area in radians: A = pi * alpha."""
        return math.pi * self.alpha


class Regime(enum.Enum):
    """Which expansion produced an asymptotic estimate."""

    WEAK_DEPHASING = "weak_dephasing"
    STRONG_DEPHASING = "strong_dephasing"
    LARGE_AREA = "large_area"


@dataclass(frozen=True)
class AsymptoticEstimate:
    """An asymptotic value plus the small parameter its expansion assumed.

    validity_hint is the expansion parameter itself (gamma, 1/gamma, or
    1/alpha^2); callers judge applicability, the constructor never polices
    regime boundaries.
    """

    value: float
    regime: Regime
    validity_hint: float


def w_coherent(alpha: float) -> float:
    """Final inversion without dephasing: -cos(pi * alpha)."""
    return -cospi(alpha)


def w_infinity(p: DimensionlessParams) -> float:
    """Exact final inversion -G^2(nu) / [G(nu+alpha) G(nu-alpha)], nu = 1/2 + gamma.

    specfun.gamma_square_ratio evaluates the gamma ratio by one of two
    routes, switched at nu - alpha = 12: signed logs with reciprocal-gamma
    handling of the nu - alpha factor below (nonpositive-integer arguments
    give an exact zero, large alpha cannot overflow), and Stirling
    expansions combined before evaluation above, which keeps strong
    dephasing free of cancellation.  Against 50-digit arithmetic the error
    is below 1e-13 for alpha <= 60 and gamma in {0} and [1e-3, 1e12].
    For larger alpha the error grows as about 5e-15 * alpha, so alpha
    beyond W_INFINITY_ALPHA_MAX = 1e4 raises ValueError.  The result is
    clamped to [-1, 1]; rounding can breach the physical range by a few
    ulp at the coherent extremes.
    """
    if p.alpha > W_INFINITY_ALPHA_MAX:
        raise ValueError(
            f"w_infinity requires alpha <= {W_INFINITY_ALPHA_MAX:g}, got {p.alpha}: "
            "beyond it the error grows as about 5e-15 * alpha"
        )
    w = -gamma_square_ratio(0.5 + p.gamma, p.alpha)
    return min(1.0, max(-1.0, w)) + 0.0


def w_infinity_cos_form(p: DimensionlessParams) -> float:
    """Reflection-formula form of the final inversion.

    -[G^2(nu) G(1/2 - gamma + alpha) / (pi G(nu + alpha))] cos pi(alpha - gamma)

    Equals w_infinity away from the poles of the numerator gamma; within
    1e-9 of a nonpositive integer argument the form is rejected, since
    there the pole and the cosine zero cancel only in exact arithmetic.
    Its log-gammas grow as gamma ln gamma, so the error grows as about
    6e-15 * gamma, and gamma beyond W_INFINITY_COS_FORM_GAMMA_MAX = 1e4
    raises ValueError; w_infinity has no such limit.
    """
    if p.gamma > W_INFINITY_COS_FORM_GAMMA_MAX:
        raise ValueError(
            f"w_infinity_cos_form requires gamma <= {W_INFINITY_COS_FORM_GAMMA_MAX:g}, "
            f"got {p.gamma}: beyond it the error grows as about 6e-15 * gamma"
        )
    x = 0.5 - p.gamma + p.alpha
    rx = round(x)
    if rx <= 0 and abs(x - rx) <= 1e-9:
        raise ValueError(
            f"cos form pole: alpha - gamma + 1/2 = {x} is near a nonpositive integer"
        )
    nu = 0.5 + p.gamma
    sign, ln_mag = signed_ln_gamma(x)
    mag = math.exp(2.0 * ln_gamma(nu) + ln_mag - _LN_PI - ln_gamma(nu + p.alpha))
    return -sign * mag * cospi(p.alpha - p.gamma) + 0.0


def w_integer_pulse(n: int, gamma: float) -> float:
    """Final inversion for pulse area n*pi (alpha = n), n >= 1.

    -prod_{k=0}^{n-1} (2 gamma - 1 - 2k) / (2 gamma + 1 + 2k)

    For n = 1 this is the pi-pulse law (1 - 2 gamma) / (1 + 2 gamma).
    """
    if n < 1:
        raise ValueError(f"w_integer_pulse requires n >= 1, got {n}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    w = -1.0
    for k in range(n):
        w *= (2.0 * gamma - 1.0 - 2.0 * k) / (2.0 * gamma + 1.0 + 2.0 * k)
    return w + 0.0  # normalize -0.0 at gamma = 1/2


def w_half_integer_pulse(n: int, gamma: float) -> float:
    """Final inversion for pulse area (n + 1/2)*pi (alpha = n + 1/2), n >= 0.

    -[gamma G^2(1/2 + gamma) / G^2(1 + gamma)] prod_{k=1}^{n} (gamma - k) / (gamma + k)

    The gamma ratio comes from specfun.gamma_half_ratio, whose Stirling
    route above gamma = 12 keeps strong dephasing free of cancellation.
    """
    if n < 0:
        raise ValueError(f"w_half_integer_pulse requires n >= 0, got {n}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    w = -gamma * gamma_half_ratio(gamma) ** 2
    for k in range(1, n + 1):
        w *= (gamma - k) / (gamma + k)
    return w + 0.0  # normalize -0.0 at gamma = 0 or integer gamma <= n


def gamma_epsilon(w_target: float) -> float:
    """Dephasing at which a pi pulse ends at inversion w_target.

    Inverts the pi-pulse law: gamma = (1 - w) / (2 (1 + w)).  Diverges as
    w_target -> -1, where no finite dephasing suffices.
    """
    if not -1.0 < w_target <= 1.0:
        raise ValueError(f"w_target must lie in (-1, 1], got {w_target}")
    return 0.5 * (1.0 - w_target) / (1.0 + w_target)


def w_weak_dephasing(p: DimensionlessParams) -> AsymptoticEstimate:
    """First order in gamma: damped, phase-shifted Rabi oscillation.

    -{1 - 2 [c + 2 ln 2 + psi(1/2 + alpha)] gamma} cos pi(alpha - gamma)

    with c the Euler-Mascheroni constant.  Good to O(gamma^2) for
    gamma well below about 0.2.
    """
    amp = 1.0 - 2.0 * (EULER_GAMMA + 2.0 * _LN2 + digamma(0.5 + p.alpha)) * p.gamma
    value = -amp * cospi(p.alpha - p.gamma) + 0.0
    return AsymptoticEstimate(value=value, regime=Regime.WEAK_DEPHASING,
                              validity_hint=p.gamma)


def w_weak_extremum(n: int, gamma: float) -> float:
    """Inversion at the nth oscillation extremum (alpha near n + gamma), small gamma.

    (-1)^(n+1) [1 - 4 gamma sum_{k=1}^{n} 1/(2k-1)]

    The bracket's gamma coefficients are -4, 16/3, -92/15, 704/105, ...
    once the alternating sign is folded in.
    """
    if n < 1:
        raise ValueError(f"w_weak_extremum requires n >= 1, got {n}")
    harmonic = sum(1.0 / (2 * k - 1) for k in range(1, n + 1))
    return (-1.0) ** (n + 1) * (1.0 - 4.0 * gamma * harmonic)


def w_strong_dephasing(p: DimensionlessParams) -> AsymptoticEstimate:
    """Overdamped limit gamma >> max(alpha, 1): w ~ -exp(-alpha^2 / gamma)."""
    if p.gamma == 0.0:
        # Formal gamma -> 0 limit of the expression; far out of regime,
        # and the infinite hint says so.
        value = -1.0 if p.alpha == 0.0 else 0.0
        hint = math.inf
    else:
        value = -math.exp(-p.alpha * p.alpha / p.gamma)
        hint = 1.0 / p.gamma
    return AsymptoticEstimate(value=value, regime=Regime.STRONG_DEPHASING,
                              validity_hint=hint)


def w_large_area(p: DimensionlessParams) -> AsymptoticEstimate:
    """Large-area limit alpha >> max(gamma, 1): algebraically damped oscillation.

    -(1/pi) G^2(1/2 + gamma) alpha^(-2 gamma) cos pi(alpha - gamma)

    The envelope decays as alpha^(-2 gamma), so on a log-log plot of
    extremum amplitude versus alpha the slope is -2 gamma.  Where the
    envelope exceeds the float range, as beyond gamma = 98.7 at alpha = 1,
    ValueError is raised; the hint 1/alpha^2 is inf below alpha = 1e-154.
    """
    if p.alpha <= 0.0:
        raise ValueError(f"large-area form needs alpha > 0, got {p.alpha}")
    nu = 0.5 + p.gamma
    ln_envelope = 2.0 * ln_gamma(nu) - _LN_PI - 2.0 * p.gamma * math.log(p.alpha)
    if not ln_envelope < _LN_FLOAT_MAX:
        raise ValueError(
            f"large-area envelope at alpha={p.alpha}, gamma={p.gamma} exceeds the "
            f"float range: ln = {ln_envelope}"
        )
    value = -math.exp(ln_envelope) * cospi(p.alpha - p.gamma) + 0.0
    inv_alpha = 1.0 / p.alpha
    return AsymptoticEstimate(value=value, regime=Regime.LARGE_AREA,
                              validity_hint=inv_alpha * inv_alpha)


def area_epsilon(epsilon: float, gamma_t: float) -> float:
    """Pulse area beyond which the oscillation envelope stays below epsilon.

    A_eps = pi [pi epsilon / G^2(1/2 + g)]^(-1/(2g)) with g = gamma_t / 2,
    in radians.  gamma_t is the width-dephasing product Gamma*T, matching
    the figure-axis convention used everywhere a caller sees Gamma*T.
    Diverges as gamma_t -> 0: an undamped envelope never decays.  Where
    A_eps exceeds the float range, as at (0.1, 1e-3) or (1e-300, 0.5),
    ValueError is raised.  So it is beyond gamma_t = 5.1e305, where
    ln G(1/2 + g) itself overflows, though A_eps, about pi g / e, would not.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if gamma_t <= 0.0:
        raise ValueError(
            f"gamma_t must be > 0, got {gamma_t}; "
            "without dephasing the threshold does not exist"
        )
    g = 0.5 * gamma_t
    ln_ratio = math.log(math.pi * epsilon) - 2.0 * ln_gamma(0.5 + g)
    ln_area_over_pi = -0.5 * ln_ratio / g
    if not ln_area_over_pi < _LN_FLOAT_MAX - _LN_PI:
        raise ValueError(
            f"area_epsilon({epsilon}, {gamma_t}) exceeds the float range: "
            f"ln(A / pi) = {ln_area_over_pi}"
        )
    return math.pi * math.exp(ln_area_over_pi)


def equal_superposition_area(n: int, gamma_t: float) -> float:
    """Pulse area of the nth zero of the final inversion: (2n + 1 + Gamma*T) pi / 2.

    At gamma_t = 0 these are the odd half-pi areas; dephasing shifts each
    node up by Gamma*T * pi/2.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if gamma_t < 0.0:
        raise ValueError(f"gamma_t must be >= 0, got {gamma_t}")
    return (2.0 * n + 1.0 + gamma_t) * math.pi / 2.0


def _z_of(t_over_T: float) -> tuple[float, float]:
    """Compactified time z = (tanh(t/T) + 1) / 2 and its complement 1 - z.

    Both come from e = exp(-2 |t/T|) without cancellation, so each keeps
    its relative accuracy however close the other is to 1.
    """
    e = math.exp(-2.0 * abs(t_over_T))
    far = 1.0 / (1.0 + e)
    near = e * far
    return (far, near) if t_over_T >= 0.0 else (near, far)


def w_of_t(p: DimensionlessParams, t_over_T: float) -> float:
    """Inversion at scaled time t/T: w = -F(alpha, -alpha; 1/2 + gamma; z).

    z is the compactified time; z -> 0 recovers the initial state -1 and
    z -> 1 the final inversion.  The 2F1 kernel receives 1 - z as computed
    here, not by subtraction, so the approach to the final inversion keeps
    its digits at any |t/T|.
    """
    if not math.isfinite(t_over_T):
        raise ValueError(f"t_over_T must be finite, got {t_over_T}")
    z, zc = _z_of(t_over_T)
    return -_hyp2f1(p.alpha, -p.alpha, 0.5 + p.gamma, z, zc) + 0.0


def v_of_t(p: DimensionlessParams, t_over_T: float) -> float:
    """In-quadrature coherence at scaled time t/T.

    v = (alpha / nu) sqrt(z (1 - z)) F(alpha + 1, 1 - alpha; nu + 1; z)

    with nu = 1/2 + gamma.  This is the derivative of w_of_t through the
    contiguous-function relation, with the sign fixed so that
    dw/dt = Omega(t) v(t) holds along the pulse.  The prefactor
    sqrt(z (1 - z)) equals sech(t/T) / 2.  After the pulse v decays as
    exp(-2 gamma t/T): for gamma < 1/2 the leading term of the 1 - z
    expansion is sin(pi alpha) exp(-2 gamma t/T) / cos(pi gamma), which
    is what is returned beyond t/T = 345; for gamma >= 1/2 v is there
    below 1e-150 and 0.0 is returned.
    """
    if not math.isfinite(t_over_T):
        raise ValueError(f"t_over_T must be finite, got {t_over_T}")
    if p.alpha == 0.0:
        return 0.0
    z, zc = _z_of(t_over_T)
    if zc < _FAR_TAIL_ZC:
        if p.gamma >= 0.5:
            return 0.0
        return sinpi(p.alpha) * math.exp(-2.0 * p.gamma * t_over_T) / cospi(p.gamma) + 0.0
    nu = 0.5 + p.gamma
    return (p.alpha / nu) * math.sqrt(z * zc) * _hyp2f1(
        p.alpha + 1.0, 1.0 - p.alpha, nu + 1.0, z, zc)
