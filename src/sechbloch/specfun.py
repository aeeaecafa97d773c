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
and beyond) subtracts no large logarithms.  hyp2f1 sums the Gauss series
for z <= 0.75, and at large c - a - b wherever its terms never grow;
otherwise it expands in powers of 1 - z: the connection formula of DLMF
15.8.4, or its logarithmic form (DLMF 15.8.10) when c - a - b is an
integer, so no path sums a slowly converging series.

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
    "gamma_half_ratio",
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


# Term budget of the 2F1 power series.  Every series here runs in z <= 0.75,
# in 1 - z < 0.25 or at c - a - b >= _DIRECT_S with terms that never
# grow, so it converges long before the budget.
_MAX_TERMS = 200_000

# From this s = c - a - b on, the direct series also serves z > 0.75 when
# its terms never grow (|a b| <= c and |a| + |b| <= c + 1): they then fall
# as k^-(s+1) even at z = 1, so it converges in a few dozen terms and loses
# nothing to cancellation.  The expansions in 1 - z would need about
# s (1 - z) terms for their second series, which overflows at large s.
_DIRECT_S = 16.0

# Near-integer band of s = c - a - b, where the 1 - z transformation's two
# terms cancel, and the offset from the integer at which hyp2f1 still
# takes that transformation for its interpolation.
_BAND = 1e-6
_BAND_STEP = 1e-5


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


def gamma_half_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x + 1) for x >= 0.

    Two routes, switched at x = 12: the difference of two log-gammas
    below, and above it their Stirling expansions combined before
    evaluation,
    exp(x log1p(-1 / (2x + 2)) + 1/2 + S(x + 1/2) - S(x + 1)) / sqrt(x + 1)
    with S the Stirling tail, so large x subtracts no large logarithms.
    Against 50-digit arithmetic the relative error is below 1e-14 for
    x up to 1e12.
    """
    if x < _STIRLING_MIN:
        return math.exp(ln_gamma(x + 0.5) - ln_gamma(x + 1.0))
    return math.exp(x * math.log1p(-0.5 / (x + 1.0)) + 0.5 + _stirling_tail(x + 0.5)
                    - _stirling_tail(x + 1.0)) / math.sqrt(x + 1.0)


def digamma(x: float) -> float:
    """Psi function, the logarithmic derivative of Gamma, away from its poles.

    Recurrence psi(x) = psi(x+1) - 1/x lifts the argument above 10, then
    the asymptotic series applies.  Absolute error near 1e-15 on [0.25, 100].
    Negative arguments go through the reflection formula
    psi(x) = psi(1 - x) - pi cos(pi x) / sin(pi x); the nonpositive
    integers are poles and raise ValueError.
    """
    if not x > 0.0:
        s = sinpi(x)
        if s == 0.0 or math.isnan(x):
            raise ValueError(f"digamma pole or invalid argument at x = {x}")
        return digamma(1.0 - x) - math.pi * cospi(x) / s
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


def _series_2f1(a: float, b: float, c: float, z: float) -> float:
    """Direct power series for F(a, b; c; z).

    Stops on two consecutive terms below 1e-16 of the running sum.  A
    single tiny term is not trusted: near-integer a or b makes one
    numerator factor pass close to zero without the tail being small.
    """
    total = 1.0
    term = 1.0
    streak = 0
    for k in range(_MAX_TERMS):
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
        f"2F1 series did not converge in {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _connection_coeff(c: float, d1: float, d2: float) -> tuple[float, float]:
    """Signed log of Gamma(c) / (Gamma(d1) Gamma(d2)); sign 0.0 at a pole of d1 or d2."""
    sign1, l1 = signed_ln_gamma(c)
    sign2, l2 = signed_ln_recip_gamma(d1)
    sign3, l3 = signed_ln_recip_gamma(d2)
    return sign1 * sign2 * sign3, l1 + l2 + l3


def _transform_2f1(a: float, b: float, c: float, s: float, zc: float) -> float:
    """Linear z -> 1-z transformation, DLMF 15.8.4, in powers of zc = 1 - z.

    Needs s = c - a - b away from the integers: both terms grow as 1/|s - m|
    near an integer m and cancel.  The second term's series is taken after
    Euler's transformation, F(c-a, c-b; 1+s; zc) = z^(1-c) F(1-b, 1-a; 1+s; zc),
    whose terms stay small at large s where the original's grow as
    s zc / k and overflow against an underflowing zc^s.
    """
    sign_a, ln_a = _connection_coeff(c, c - a, c - b)
    sign_b, ln_b = _connection_coeff(c, a, b)
    total = 0.0
    if sign_a != 0.0:
        sign_s, ln_s = signed_ln_gamma(s)
        total += sign_a * sign_s * math.exp(ln_a + ln_s) * _series_2f1(a, b, 1.0 - s, zc)
    if sign_b != 0.0:
        sign_s, ln_s = signed_ln_gamma(-s)
        total += sign_b * sign_s * math.exp(ln_b + ln_s + s * math.log(zc)
                                            + (1.0 - c) * math.log1p(-zc)) \
            * _series_2f1(1.0 - b, 1.0 - a, 1.0 + s, zc)
    return total


def _log_case_2f1(a: float, b: float, c: float, m: int, zc: float) -> float:
    """F(a, b; c; z) for c - a - b = m, a nonnegative integer: DLMF 15.8.10.

    In powers of zc = 1 - z (A&S 15.3.10-15.3.12):

        F = G(c) / (G(a+m) G(b+m)) sum_{k<m} (a)_k (b)_k (m-k-1)! / k! (-zc)^k
            - G(c) / (G(a) G(b)) (-zc)^m sum_k (a+m)_k (b+m)_k / (k! (k+m)!) zc^k
              [ln zc - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m)]

    The factorials (m-1)! and 1/m! go into the signed-log coefficients, so
    any m stays in float range.  Each digamma is evaluated once and then
    advanced by psi(x+1) = psi(x) + 1/x.  Neither a nor b may be a
    nonpositive integer; that case terminates and never gets here.
    """
    finite = term = 1.0  # (a)_k (b)_k (-zc)^k (m-k-1)! / (k! (m-1)!)
    for k in range(m - 1):
        term *= (a + k) * (b + k) * -zc / ((k + 1) * (m - 1 - k))
        finite += term
    ln_zc = math.log(zc)
    psi_int = digamma(1.0) + digamma(m + 1.0)  # psi(k+1) + psi(k+m+1)
    psi_ab = digamma(a + m) + digamma(b + m)    # psi(a+k+m) + psi(b+k+m)
    term = 1.0  # (a+m)_k (b+m)_k zc^k m! / (k! (k+m)!)
    total = 0.0
    streak = 0
    for k in range(_MAX_TERMS):
        part = term * (ln_zc - psi_int + psi_ab)
        total += part
        if abs(part) <= 1e-16 * abs(total):
            streak += 1
            if streak >= 2:
                break
        else:
            streak = 0
        am, bm = a + m + k, b + m + k
        psi_int += 1.0 / (k + 1) + 1.0 / (k + m + 1)
        psi_ab += 1.0 / am + 1.0 / bm
        term *= am * bm * zc / ((k + 1) * (k + m + 1))
        if term == 0.0:
            break
    else:
        raise ConvergenceError(
            f"2F1 log-case series did not converge in {_MAX_TERMS} terms "
            f"(a={a}, b={b}, m={m}, zc={zc})"
        )
    result = 0.0
    if m > 0:
        sign_f, ln_f = _connection_coeff(c, a + m, b + m)
        result = sign_f * math.exp(ln_f + math.lgamma(m)) * finite
    sign_l, ln_l = _connection_coeff(c, a, b)
    result -= (-1.0) ** m * sign_l * math.exp(ln_l - math.lgamma(m + 1.0) + m * ln_zc) * total
    if not math.isfinite(result):
        # The log series grows as (m zc)^k / k! before it falls, which
        # overflows once m zc reaches several hundred.
        raise ConvergenceError(
            f"2F1 log-case series overflowed (a={a}, b={b}, m={m}, zc={zc})"
        )
    return result


def _hyp2f1(a: float, b: float, c: float, z: float, zc: float) -> float:
    """F(a, b; c; z) on 0 <= z <= 1, given the complement zc = 1 - z.

    The dispatch behind hyp2f1 (see there).  A caller that knows 1 - z to
    full relative precision, as compactified time does, passes it here
    instead of letting it be formed by subtraction.
    """
    if z == 0.0:
        return 1.0
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return _series_2f1(a, b, c, z)
    if zc == 0.0:
        return hyp2f1_at_unity(Hyp2F1Params(a, b, c))
    s = c - a - b
    if z <= 0.75 or (s >= _DIRECT_S and abs(a * b) <= c and abs(a) + abs(b) <= c + 1.0):
        return _series_2f1(a, b, c, z)
    m = round(s)
    d = s - m
    if abs(d) > _BAND:
        return _transform_2f1(a, b, c, s, zc)
    if m < 0:
        # Euler: F(a, b; c; z) = zc^s F(c-a, c-b; c; z), whose c - a - b
        # is -s; c - a or c - b may now terminate the series.
        return zc ** s * _hyp2f1(c - a, c - b, c, z, zc)
    c_int = c - d  # a + b + m
    exact = _log_case_2f1(a, b, c_int, m, zc)
    if d == 0.0:
        return exact
    # Quadratic in s through the integer and two offsets where the
    # transform has lost only about 1e-16 / _BAND_STEP to its cancelling
    # terms.  A straight line would miss the curvature in s, which grows
    # as ln(1 - z)^3 when m = 0.
    h = _BAND_STEP
    up = _transform_2f1(a, b, c_int + h, m + h, zc)
    down = _transform_2f1(a, b, c_int - h, m - h, zc)
    r = d / h
    return exact + 0.5 * r * (up - down) + 0.5 * r * r * (up - 2.0 * exact + down)


def hyp2f1(p: Hyp2F1Params, z: float) -> float:
    """Gauss hypergeometric F(lam, mu; nu; z) on z in [0, 1].

    Dispatch, with s = nu - lam - mu:

    - lam or mu a nonpositive integer: the terminating series.
    - z = 1: Gauss summation, hyp2f1_at_unity.
    - z <= 0.75, or s >= 16 with terms that never grow
      (|lam mu| <= nu and |lam| + |mu| <= nu + 1): the direct series.
    - s more than 1e-6 from every integer: the 1-z transformation,
      DLMF 15.8.4, its second series after Euler's transformation.
    - s = m, an integer >= 0: the logarithmic connection formula,
      DLMF 15.8.10, summed in powers of 1 - z.
    - s within 1e-6 of an integer m < 0: Euler's transformation
      F = (1-z)^s F(nu-lam, nu-mu; nu; z) first, which turns s into -s.
    - 0 < |s - m| <= 1e-6: quadratic interpolation in s through the
      logarithmic case at m and the 1-z transformation at m - 1e-5 and
      m + 1e-5, where its two cancelling terms cost about 1e-11.

    Measured against 50-digit arithmetic for z in (0.75, 1 - 1e-13]: at
    integer s in {-1, 0, 1, 2}, relative error at most 1e-14; for the
    inversion family (a, -a; 1/2 + g) and its derivative family
    (a + 1, 1 - a; 3/2 + g) at half-integer g and a < 10, absolute error
    at most 2e-14 on the logarithmic case and 2.2e-11 (relative to
    max(1, |F|)) in the near-integer band; the inversion family keeps
    1e-12 for a up to 50 at 1/2 + g >= 16 (g in {15.5, 16, 20, 20.5}).
    Large |lam| and |mu| still lose digits to cancellation: in the direct
    series below z = 0.75, and at small nu in the 1 - z series while
    |lam| sqrt(1 - z) is large.  The logarithmic series overflows, and raises
    ConvergenceError, once s (1 - z) reaches several hundred with
    |lam mu| > nu, as at (60.3, -60.3; 3001; 0.77).  Where a factor
    (1 - z)^s leaves the float range, as at (0.3, 20.7; 0.5; 1 - 2.3e-16),
    ValueError is raised.
    """
    if math.isnan(z) or z < 0.0 or z > 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z <= 1, got {z}")
    try:
        return _hyp2f1(p.lam, p.mu, p.nu, z, 1.0 - z)
    except OverflowError as exc:
        raise ValueError(
            f"hyp2f1({p.lam}, {p.mu}; {p.nu}; {z}) leaves the float range"
        ) from exc


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
    sign, ln_coeff = _connection_coeff(p.nu, p.nu - p.lam, p.nu - p.mu)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(ln_coeff + ln_gamma(s))
