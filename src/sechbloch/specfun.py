"""Scalar special-function kernel.

Log-gamma, gamma, reciprocal gamma, digamma, Pochhammer symbols, the
Gamma-square ratio behind the final inversion, and the Gauss
hypergeometric function 2F1 for the parameter family (a, -a; b) that the
closed-form inversion results need.  Everything operates on plain Python
floats; no external dependencies.

ln_gamma is libm's lgamma behind a domain check; the signed and reciprocal
forms add the reflection formula with an exactly reduced sin(pi x).
gamma_square_ratio takes one of two routes, switched at nu - a = 12:
signed logs below, and above it the Stirling expansions of its three
log-gammas combined before evaluation, so strong dephasing (nu up to 1e12
and beyond) subtracts no large logarithms.

Accuracy targets are documented per function.  They are deliberately a few
orders of magnitude tighter than the comparison tolerances used by the
layers above, so kernel error never dominates a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConvergenceError",
    "Hyp2F1Params",
    "cospi",
    "digamma",
    "gamma",
    "gamma_square_ratio",
    "hyp2f1",
    "hyp2f1_at_unity",
    "ln_gamma",
    "pochhammer",
    "recip_gamma",
    "signed_ln_gamma",
    "signed_ln_recip_gamma",
    "sinpi",
]

_LN_PI = math.log(math.pi)

# Stirling series for ln Gamma: coefficients B_{2n} / (2n (2n-1)),
# applied at arguments >= 12 where the n=8 tail is below 1e-17.
_STIRLING_MIN = 12.0
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# Asymptotic series for digamma: coefficients B_{2n} / (2n),
# applied at arguments >= 10.
_DIGAMMA = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


class ConvergenceError(RuntimeError):
    """A series failed to reach the requested accuracy within its term budget."""


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    libm's lgamma behind a domain check.  Against 50-digit arithmetic the
    relative error is below about 2e-15 where |ln Gamma| > 1/2, and the
    absolute error below about 1.2e-15 around its zeros at x = 1 and 2.
    Arguments beyond about 2.6e305, where ln Gamma leaves the float range,
    give +inf.
    """
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def signed_ln_gamma(x: float) -> tuple[float, float]:
    """(sign, ln |Gamma(x)|) for x away from the nonpositive integers.

    Negative arguments go through the reflection formula
    Gamma(x) Gamma(1-x) = pi / sin(pi x); the sign is the sign of sin(pi x).
    """
    if x > 0.0:
        return 1.0, ln_gamma(x)
    s = sinpi(x)
    if s == 0.0:
        raise ValueError(f"gamma pole at x = {x}")
    return math.copysign(1.0, s), _LN_PI - math.log(abs(s)) - ln_gamma(1.0 - x)


def signed_ln_recip_gamma(x: float) -> tuple[float, float]:
    """(sign, ln |1/Gamma(x)|); sign 0.0 with -inf log at the poles of Gamma."""
    if x >= 0.5:
        return 1.0, -ln_gamma(x)
    s = sinpi(x)
    if s == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, s), math.log(abs(s)) + ln_gamma(1.0 - x) - _LN_PI


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the nonpositive integers."""
    sign, mag = signed_ln_gamma(x)
    return sign * math.exp(mag)


def recip_gamma(x: float) -> float:
    """1/Gamma(x), entire in x: exactly 0.0 at the nonpositive integers.

    The zeros are exact because sinpi performs exact argument reduction, so
    no pole-proximity test is ever needed by callers.
    """
    sign, mag = signed_ln_recip_gamma(x)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(mag)


def _stirling_tail(y: float) -> float:
    """ln Gamma(y) - [(y - 1/2) ln y - y + ln sqrt(2 pi)] for y >= 12."""
    r = 1.0 / (y * y)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r + c
    return series / y


def gamma_square_ratio(nu: float, a: float) -> float:
    """Gamma(nu)^2 / (Gamma(nu + a) Gamma(nu - a)) for nu > 0 and a >= 0.

    Two routes, switched at nu - a = 12:

    - nu - a < 12: signed logs, 2 ln_gamma(nu) - ln_gamma(nu + a) plus the
      reciprocal-gamma log of nu - a, so the poles of Gamma(nu - a) give
      an exact 0.0 and large a cannot overflow.
    - nu - a >= 12: the Stirling expansions of the three log-gammas
      combined before evaluation (DLMF 5.11.1),
      -(nu - 1/2) log1p(-x^2) - 2 a atanh(x) + 2 S(nu) - S(nu + a) - S(nu - a)
      with x = a / nu and S the Stirling tail.  The nu ln nu and linear
      terms cancel exactly, so no large log-gammas are subtracted: the
      relative error stays near 2e-14 wherever the ratio exceeds 1e-20,
      however large nu is.

    Against 50-digit arithmetic the absolute error is below 1e-13 for
    a <= 60 and nu - 1/2 in {0} and [1e-3, 1e12]; the two routes agree to
    about 1e-14 at the switch.
    """
    if nu - a < _STIRLING_MIN:
        return _square_ratio_by_logs(nu, a)
    return _square_ratio_by_stirling(nu, a)


def _square_ratio_by_logs(nu: float, a: float) -> float:
    sign, ln_recip = signed_ln_recip_gamma(nu - a)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(2.0 * ln_gamma(nu) - ln_gamma(nu + a) + ln_recip)


def _square_ratio_by_stirling(nu: float, a: float) -> float:
    x = a / nu
    return math.exp(-(nu - 0.5) * math.log1p(-x * x) - 2.0 * a * math.atanh(x)
                    + 2.0 * _stirling_tail(nu) - _stirling_tail(nu + a)
                    - _stirling_tail(nu - a))


def digamma(x: float) -> float:
    """Psi function, the logarithmic derivative of Gamma, for x > 0.

    Recurrence psi(x) = psi(x+1) - 1/x lifts the argument above 10, then
    the asymptotic series applies.  Absolute error near 1e-15 on [0.25, 100].
    """
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    y = x
    while y < 10.0:
        acc -= 1.0 / y
        y += 1.0
    r = 1.0 / (y * y)
    series = 0.0
    for c in reversed(_DIGAMMA):
        series = series * r + c
    return acc + math.log(y) - 0.5 / y - series * r


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k as a running product.

    The product form keeps exact zeros when x is a nonpositive integer
    inside the range, which gamma-ratio formulas would turn into 0/0.
    """
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got {k}")
    p = 1.0
    for i in range(k):
        p *= x + i
    return p


def sinpi(x: float) -> float:
    """sin(pi x) with exact argument reduction: exactly 0.0 at the integers."""
    r = math.fmod(x, 2.0)
    # fmod is exact, and the folds below subtract nearby representable
    # numbers, so r carries no reduction rounding at all.
    if r > 1.0:
        r -= 2.0
    elif r < -1.0:
        r += 2.0
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def cospi(x: float) -> float:
    """cos(pi x) with exact argument reduction: exactly 0.0 at half-integers."""
    s = 0.5 - math.fmod(abs(x), 2.0)
    # cos(pi x) = sin(pi s) with s in (-1.5, 0.5]; fold the low tail.
    if s < -0.5:
        return -math.sin(math.pi * (s + 1.0))
    return math.sin(math.pi * s)


@dataclass(frozen=True)
class Hyp2F1Params:
    """Parameters (lam, mu; nu) of the Gauss hypergeometric function.

    The inversion family is (a, -a; 1/2 + g) with g >= 0, so nu >= 1/2
    there; the constructor only rejects nu at a nonpositive integer, where
    2F1 itself is undefined.
    """

    lam: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        rn = round(self.nu)
        if rn <= 0 and abs(self.nu - rn) <= 1e-12:
            raise ValueError(f"nu = {self.nu} is (nearly) a nonpositive integer")

    @classmethod
    def for_inversion(cls, alpha: float, gamma: float) -> "Hyp2F1Params":
        """The family behind the final-inversion formula: (alpha, -alpha; 1/2 + gamma)."""
        return cls(lam=alpha, mu=-alpha, nu=0.5 + gamma)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def _series_2f1(a: float, b: float, c: float, z: float,
                max_terms: int = 200_000) -> float:
    """Direct power series for F(a, b; c; z).

    Stops on two consecutive terms below 1e-16 of the running sum.  A
    single tiny term is not trusted: near-integer a or b makes one
    numerator factor pass close to zero without the tail being small.
    """
    total = 1.0
    term = 1.0
    streak = 0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        if term == 0.0:
            return total
        total += term
        if abs(term) <= 1e-16 * abs(total):
            streak += 1
            if streak >= 2:
                return total
        else:
            streak = 0
    raise ConvergenceError(
        f"2F1 series did not converge in {max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _connection_coeff(c: float, s: float, d1: float, d2: float) -> tuple[float, float]:
    """Signed log of Gamma(c) Gamma(s) / (Gamma(d1) Gamma(d2))."""
    sign1, l1 = signed_ln_gamma(c)
    sign2, l2 = signed_ln_gamma(s)
    sign3, l3 = signed_ln_recip_gamma(d1)
    sign4, l4 = signed_ln_recip_gamma(d2)
    return sign1 * sign2 * sign3 * sign4, l1 + l2 + l3 + l4


def _transform_2f1(a: float, b: float, c: float, s: float, z: float) -> float:
    """Linear z -> 1-z transformation, DLMF 15.8.4; needs s = c-a-b non-integer."""
    zc = 1.0 - z
    sign_a, ln_a = _connection_coeff(c, s, c - a, c - b)
    sign_b, ln_b = _connection_coeff(c, -s, a, b)
    total = 0.0
    if sign_a != 0.0:
        total += sign_a * math.exp(ln_a) * _series_2f1(a, b, 1.0 - s, zc)
    if sign_b != 0.0:
        total += sign_b * math.exp(ln_b + s * math.log(zc)) \
            * _series_2f1(c - a, c - b, 1.0 + s, zc)
    return total


def hyp2f1(p: Hyp2F1Params, z: float) -> float:
    """Gauss hypergeometric F(lam, mu; nu; z) on z in [0, 1].

    Dispatch: terminating series whenever lam or mu is a nonpositive
    integer; direct series for z <= 0.75; otherwise the 1-z transformation,
    unless nu - lam - mu is within 1e-6 of an integer (degenerate
    connection coefficients), where the direct series is pushed harder
    instead.
    """
    if math.isnan(z) or z < 0.0 or z > 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z <= 1, got {z}")
    a, b, c = p.lam, p.mu, p.nu
    if z == 0.0:
        return 1.0
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return _series_2f1(a, b, c, z)
    if z == 1.0:
        return hyp2f1_at_unity(p)
    if z <= 0.75:
        return _series_2f1(a, b, c, z)
    s = c - a - b
    if abs(s - round(s)) > 1e-6:
        return _transform_2f1(a, b, c, s, z)
    if s > 0.0 and 1.0 - z <= 1e-11:
        # The tail beyond z is smaller than machine precision of the
        # boundary value, so the Gauss sum at z = 1 is the answer.
        return hyp2f1_at_unity(p)
    return _series_2f1(a, b, c, z, max_terms=1_000_000)


def hyp2f1_at_unity(p: Hyp2F1Params) -> float:
    """Gauss summation: F(lam, mu; nu; 1) = G(nu) G(s) / (G(nu-lam) G(nu-mu)).

    Here s = nu - lam - mu must be positive for convergence.  The
    denominator factors carry reciprocal-gamma semantics, so a pole there
    gives an exact 0.0 instead of an overflow; the signed-log assembly
    keeps huge intermediate gammas (large |lam|) inside float range.
    """
    s = p.nu - p.lam - p.mu
    if s <= 0.0:
        raise ValueError(f"hyp2f1_at_unity requires nu - lam - mu > 0, got {s}")
    sign1, l1 = signed_ln_gamma(p.nu)
    sign2, l2 = signed_ln_gamma(s)
    sign3, l3 = signed_ln_recip_gamma(p.nu - p.lam)
    sign4, l4 = signed_ln_recip_gamma(p.nu - p.mu)
    sign = sign1 * sign2 * sign3 * sign4
    if sign == 0.0:
        return 0.0
    return sign * math.exp(l1 + l2 + l3 + l4)
