"""Independent oracle implementations used by the tests.

Everything here is deliberately written against different primitives than
the package: 50-digit mpmath for the Gamma family, the final inversion,
2F1 and the time-dependent solution (the package's ln_gamma is libm's
lgamma, so libm cannot check it), a Kahan-compensated truncated series,
and a fixed-step RK4 integrator.
Frozen high-precision constants in the test modules were computed once
with 40-digit arithmetic and pasted in.
"""

from __future__ import annotations

import math

import mpmath

_MP = mpmath.mp.clone()
_MP.dps = 50


def ln_gamma_mp(x: float) -> float:
    """ln Gamma(x) for x > 0 at 50 digits."""
    return float(_MP.loggamma(x))


def digamma_mp(x: float) -> float:
    """psi(x) for x > 0 at 50 digits."""
    return float(_MP.digamma(x))


def w_infinity_mp(alpha: float, gamma: float) -> float:
    """Final inversion -G^2(nu) / [G(nu+alpha) G(nu-alpha)] at 50 digits.

    nu = 1/2 + gamma is formed exactly from the float gamma; the reciprocal
    gamma gives the exact zeros at the nodes.
    """
    nu = _MP.mpf(0.5) + _MP.mpf(gamma)
    a = _MP.mpf(alpha)
    return float(-_MP.gamma(nu) ** 2 * _MP.rgamma(nu + a) * _MP.rgamma(nu - a))


def trigamma_mp(x: float) -> float:
    """psi'(x) for x > 0 at 50 digits."""
    return float(_MP.psi(1, x))


def extremum_mp(n: int, gamma: float) -> float:
    """nth stationary point of the final inversion in alpha, at 50 digits.

    f(a) = psi(nu + a) - psi(nu - a), nu = 1/2 + gamma, the logarithmic
    derivative of -w with its sign flipped, rises monotonically from -inf
    to +inf across (n - 1/2 + gamma, n + 1/2 + gamma).  Newton's method
    runs inside that bracket and bisects whenever a step would leave it.
    Each root is then confirmed by the derivative of w itself, taken by
    numerical differentiation of the Gamma expression, which must change
    sign across it.
    """
    nu = _MP.mpf(0.5) + _MP.mpf(gamma)
    lo = n - _MP.mpf(0.5) + _MP.mpf(gamma)
    hi = lo + 1
    tol = _MP.mpf(10) ** -45 * hi
    a = (lo + hi) / 2
    for _ in range(400):
        f = _MP.digamma(nu + a) - _MP.digamma(nu - a)
        step = f / (_MP.psi(1, nu + a) + _MP.psi(1, nu - a))
        if abs(step) < tol:
            a -= step
            break
        lo, hi = (a, hi) if f < 0 else (lo, a)
        a -= step
        if not lo < a < hi:
            a = (lo + hi) / 2
    else:
        raise RuntimeError(f"extremum oracle did not converge (n={n}, gamma={gamma})")

    def w(x):
        return -_MP.gamma(nu) ** 2 * _MP.rgamma(nu + x) * _MP.rgamma(nu - x)

    h = _MP.mpf(10) ** -20 * a
    if not _MP.diff(w, a - h) * _MP.diff(w, a + h) < 0:
        raise RuntimeError(f"dw/dalpha keeps its sign across {a} (n={n}, gamma={gamma})")
    return float(a)


def gamma_half_ratio_mp(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x + 1) at 50 digits."""
    return float(_MP.gamma(_MP.mpf(x) + 0.5) * _MP.rgamma(_MP.mpf(x) + 1))


def hyp2f1_mp(a: float, b: float, c: float, z: float) -> float:
    """F(a, b; c; z) at 50 digits for the float arguments as given."""
    return float(_MP.hyp2f1(a, b, c, z, zeroprec=1000))


def _time_context(t: float):
    """A context at 50 digits beyond 1 - z = O(exp(-2|t|)), so z keeps them."""
    ctx = _MP.clone()
    ctx.dps = 50 + int(0.87 * abs(t))
    return ctx


def _z_mp(ctx, t: float):
    return 1 / (1 + ctx.exp(-2 * ctx.mpf(t)))


def w_of_t_mp(alpha: float, gamma: float, t: float) -> float:
    """-F(alpha, -alpha; 1/2 + gamma; z(t)) at 50 digits."""
    ctx = _time_context(t)
    return float(-ctx.hyp2f1(alpha, -ctx.mpf(alpha), ctx.mpf(0.5) + gamma, _z_mp(ctx, t),
                             zeroprec=4 * ctx.prec))


def v_of_t_mp(alpha: float, gamma: float, t: float) -> float:
    """(alpha / nu) sech(t) / 2 F(alpha + 1, 1 - alpha; nu + 1; z(t)) at 50 digits."""
    if alpha == 0.0:
        return 0.0
    ctx = _time_context(t)
    nu = ctx.mpf(0.5) + gamma
    f = ctx.hyp2f1(ctx.mpf(alpha) + 1, 1 - ctx.mpf(alpha), nu + 1, _z_mp(ctx, t),
                   zeroprec=4 * ctx.prec)
    return float(alpha / nu * ctx.sech(t) / 2 * f)


def hyp2f1_series_kahan(a: float, b: float, c: float, z: float,
                        max_terms: int = 2_000_000) -> float:
    """Gauss series with compensated summation; valid for |z| < 1.

    Terminates when two consecutive terms fall below 1e-17 of the running
    sum (or exactly, for polynomial cases).
    """
    total = 1.0
    comp = 0.0
    term = 1.0
    tiny_streak = 0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        if term == 0.0:
            break
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-17 * abs(total):
            tiny_streak += 1
            if tiny_streak >= 2:
                break
        else:
            tiny_streak = 0
    else:
        raise RuntimeError(f"oracle series did not converge at z={z}")
    return total


def bloch_final_w_fixed_rk4(alpha: float, gamma: float,
                            span: float = 25.0, n_steps: int = 200_000) -> float:
    """Final inversion by fixed-step classical RK4, coded from scratch.

    A slow third route used to spot-check the adaptive integrator on a few
    points; accuracy ~ (2 span / n_steps)^4 per unit time, far below 1e-9
    at the default settings.
    """
    h = 2.0 * span / n_steps
    t = -span
    u, v, w = 0.0, 0.0, -1.0

    def rhs(tt: float, uu: float, vv: float, ww: float) -> tuple[float, float, float]:
        om = alpha / math.cosh(tt) if abs(tt) < 700.0 else 0.0
        ga = 2.0 * gamma
        return (-ga * uu, -ga * vv - om * ww, om * vv)

    for _ in range(n_steps):
        k1 = rhs(t, u, v, w)
        k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], w + 0.5 * h * k1[2])
        k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], w + 0.5 * h * k2[2])
        k4 = rhs(t + h, u + h * k3[0], v + h * k3[1], w + h * k3[2])
        u += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        w += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t += h
    return w
