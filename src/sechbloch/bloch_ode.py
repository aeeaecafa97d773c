"""Numerical route to the same physics: direct integration of the Bloch equation.

    du/dt = -Gamma u - Delta v
    dv/dt =  Delta u - Gamma v - Omega w
    dw/dt =  Omega v

for an arbitrary pulse shape, with the resonant sech pulse as the built-in
model.  This module deliberately shares no formulas with the closed-form
layer, so the two can cross-validate each other.

The integrator is Dormand and Prince's 8th-order pair DOP853 (Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, sections II.5
and II.10) with proportional step control, written out over the three
components.  Its error estimate combines the embedded 5th- and 3rd-order
solutions and needs only the twelve stages of the step, so a rejected step
costs 11 right-hand-side evaluations and an accepted one 12: the extra one
is f(t + h, y_new), the first stage of the next step.  The system is small,
smooth, and non-stiff for any dephasing of practical interest, so a fixed
classic pair beats pulling in a solver dependency; at the default
rel_tol = 1e-10 its high order more than pays for the extra stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Protocol, runtime_checkable

__all__ = [
    "INITIAL_STATE",
    "BlochState",
    "CallablePulse",
    "IntegrationError",
    "IntegratorConfig",
    "PulseShape",
    "SechPulseModel",
    "StepLimitError",
    "ToleranceError",
    "Trajectory",
    "bloch_rhs",
    "final_inversion",
    "integrate",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class BlochState:
    """Bloch vector (u, v, w): the two coherences and the inversion."""

    u: float
    v: float
    w: float

    def norm_sq(self) -> float:
        """u^2 + v^2 + w^2; conserved at 1 on the coherent sphere."""
        return self.u * self.u + self.v * self.v + self.w * self.w


INITIAL_STATE = BlochState(0.0, 0.0, -1.0)


@runtime_checkable
class PulseShape(Protocol):
    """Time-dependent coefficients of the Bloch equation.

    Calling with a time returns (Omega, Delta, Gamma) at that instant.
    The attribute T is the width that sets the +-L*T integration window.
    """

    T: float

    def __call__(self, t: float) -> tuple[float, float, float]: ...


@dataclass(frozen=True)
class SechPulseModel:
    """Resonant sech pulse with constant dephasing.

    Omega(t) = omega0 / cosh(t / T), Delta = 0, Gamma constant.  The pulse
    area is pi * omega0 * T.
    """

    omega0: float
    T: float
    Gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.omega0 < math.inf and 0.0 < self.T < math.inf
                and 0.0 <= self.Gamma < math.inf):
            raise ValueError(
                f"need finite omega0 >= 0, T > 0, Gamma >= 0, "
                f"got ({self.omega0}, {self.T}, {self.Gamma})"
            )

    @property
    def delta(self) -> float:
        """Detuning; this model is resonant by construction."""
        return 0.0

    @property
    def alpha(self) -> float:
        """Dimensionless pulse strength omega0 * T (area / pi)."""
        return self.omega0 * self.T

    @property
    def area(self) -> float:
        """Pulse area pi * omega0 * T in radians."""
        return math.pi * self.omega0 * self.T

    def omega(self, t: float) -> float:
        """Instantaneous Rabi frequency omega0 * sech(t / T)."""
        x = t / self.T
        if abs(x) > 700.0:
            return 0.0  # cosh would overflow; sech is below 1e-304 here
        return self.omega0 / math.cosh(x)

    def __call__(self, t: float) -> tuple[float, float, float]:
        return self.omega(t), 0.0, self.Gamma

    @classmethod
    def from_dimensionless(cls, alpha: float, gamma: float,
                           T: float = 1.0) -> "SechPulseModel":
        """Model with area pi*alpha and dephasing Gamma = 2*gamma/T."""
        return cls(omega0=alpha / T, T=T, Gamma=2.0 * gamma / T)


@dataclass(frozen=True)
class CallablePulse:
    """Adapter giving a plain coefficient function the PulseShape surface."""

    fn: Callable[[float], tuple[float, float, float]]
    T: float = 1.0

    def __call__(self, t: float) -> tuple[float, float, float]:
        return self.fn(t)


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-step integration settings.

    window_halfwidth_L is in units of the pulse width: integration runs
    over [-L*T, +L*T].  The sech tail left outside carries about
    4*alpha*exp(-L) of area, so at the default L = 25 the truncation bias
    on w reaches about 6e-11 per unit alpha (3e-9 at alpha = 50), above the
    solver's own error at large alpha.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    window_halfwidth_L: float = 25.0
    max_steps: int = 10_000_000
    sample_count: int = 201

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and > 0")
        if not 0.0 < self.window_halfwidth_L < math.inf:
            raise ValueError("window_halfwidth_L must be finite and > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution; times strictly increasing, states aligned by index."""

    times: tuple[float, ...]
    states: tuple[BlochState, ...]

    @property
    def samples(self) -> tuple[tuple[float, BlochState], ...]:
        return tuple(zip(self.times, self.states))

    @property
    def final(self) -> BlochState:
        return self.states[-1]


class IntegrationError(RuntimeError):
    """Integration aborted; carries the last accepted time and state."""

    def __init__(self, message: str, t: float, state: BlochState) -> None:
        super().__init__(message)
        self.t = t
        self.state = state


class StepLimitError(IntegrationError):
    """The step budget ran out before the window end."""


class ToleranceError(IntegrationError):
    """The step size underflowed; local error control cannot be satisfied."""


def bloch_rhs(state: BlochState, t: float, shape: PulseShape) -> BlochState:
    """Right-hand side of the Bloch equation; the result is a rate, 1/time."""
    omega, delta, gamma_rate = shape(t)
    return BlochState(
        u=-gamma_rate * state.u - delta * state.v,
        v=delta * state.u - gamma_rate * state.v - omega * state.w,
        w=omega * state.v,
    )


# Dormand-Prince 8(5,3) tableau (DOP853), transcribed from Hairer's dop853.f.
# Stage i runs at t + _Ci*h (c12 = 1) from y + h * sum_j _Ai_j * kj; the
# 8th-order solution is y + h * sum_j _Bj * kj.  Absent names are zero.
_C2 = 0.526001519587677318785587544488e-01
_C3 = 0.789002279381515978178381316732e-01
_C4 = 0.118350341907227396726757197510
_C5 = 0.281649658092772603273242802490
_C6 = 0.333333333333333333333333333333
_C7 = 0.25
_C8 = 0.307692307692307692307692307692
_C9 = 0.651282051282051282051282051282
_C10 = 0.6
_C11 = 0.857142857142857142857142857142

_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1

_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2

# Error weights: E5 = _ERj; E3 = _Bj - _BHHj, the difference from the
# 3rd-order weights.  Neither uses the FSAL stage f(t + h, y_new).
_ER1 = 0.1312004499419488073250102996e-1
_ER6 = -0.1225156446376204440720569753e+1
_ER7 = -0.4957589496572501915214079952
_ER8 = 0.1664377182454986536961530415e+1
_ER9 = -0.3503288487499736816886487290
_ER10 = 0.3341791187130174790297318841
_ER11 = 0.8192320648511571246570742613e-1
_ER12 = -0.2235530786388629525884427845e-1
_BHH1 = 0.244094488188976377952755905512
_BHH9 = 0.733846688281611857341361741547
_BHH12 = 0.220588235294117647058823529412e-1


def integrate(shape: PulseShape, cfg: IntegratorConfig | None = None,
              initial_state: BlochState = INITIAL_STATE) -> Trajectory:
    """Integrate the Bloch equation over [-L*T, +L*T] from (0, 0, -1).

    Returns cfg.sample_count evenly spaced samples including both window
    endpoints.  Steps are clamped onto the sample times, so sampled values
    are integration-accurate rather than interpolated.  initial_state
    exists for self-tests of the solver (decay laws from prepared states);
    physical use starts from the ground state default.

    Raises StepLimitError when cfg.max_steps is exhausted and
    ToleranceError when the controller drives the step below the rounding
    floor; both carry the last accepted (t, state).
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t_end = cfg.window_halfwidth_L * shape.T
    t0 = -t_end
    span = t_end - t0
    n_out = cfg.sample_count
    sample_times = [t0 + span * i / (n_out - 1) for i in range(1, n_out)]
    sample_times[-1] = t_end

    rel, abs_ = cfg.rel_tol, cfg.abs_tol
    min_step = 16.0 * _EPS * t_end

    u, v, w = initial_state.u, initial_state.v, initial_state.w
    t = t0
    out_t = [t0]
    out_s = [BlochState(u, v, w)]

    def rhs(tt: float, uu: float, vv: float, ww: float) -> tuple[float, float, float]:
        om, de, ga = shape(tt)
        return (-ga * uu - de * vv, de * uu - ga * vv - om * ww, om * vv)

    k1u, k1v, k1w = rhs(t, u, v, w)
    h = min(span / 1000.0, shape.T / 10.0)
    steps = 0

    for target in sample_times:
        while t < target:
            clamped = h >= target - t
            hs = target - t if clamped else h

            tu = u + hs * (_A2_1 * k1u)
            tv = v + hs * (_A2_1 * k1v)
            tw = w + hs * (_A2_1 * k1w)
            k2u, k2v, k2w = rhs(t + _C2 * hs, tu, tv, tw)

            tu = u + hs * (_A3_1 * k1u + _A3_2 * k2u)
            tv = v + hs * (_A3_1 * k1v + _A3_2 * k2v)
            tw = w + hs * (_A3_1 * k1w + _A3_2 * k2w)
            k3u, k3v, k3w = rhs(t + _C3 * hs, tu, tv, tw)

            tu = u + hs * (_A4_1 * k1u + _A4_3 * k3u)
            tv = v + hs * (_A4_1 * k1v + _A4_3 * k3v)
            tw = w + hs * (_A4_1 * k1w + _A4_3 * k3w)
            k4u, k4v, k4w = rhs(t + _C4 * hs, tu, tv, tw)

            tu = u + hs * (_A5_1 * k1u + _A5_3 * k3u + _A5_4 * k4u)
            tv = v + hs * (_A5_1 * k1v + _A5_3 * k3v + _A5_4 * k4v)
            tw = w + hs * (_A5_1 * k1w + _A5_3 * k3w + _A5_4 * k4w)
            k5u, k5v, k5w = rhs(t + _C5 * hs, tu, tv, tw)

            tu = u + hs * (_A6_1 * k1u + _A6_4 * k4u + _A6_5 * k5u)
            tv = v + hs * (_A6_1 * k1v + _A6_4 * k4v + _A6_5 * k5v)
            tw = w + hs * (_A6_1 * k1w + _A6_4 * k4w + _A6_5 * k5w)
            k6u, k6v, k6w = rhs(t + _C6 * hs, tu, tv, tw)

            tu = u + hs * (_A7_1 * k1u + _A7_4 * k4u + _A7_5 * k5u
                           + _A7_6 * k6u)
            tv = v + hs * (_A7_1 * k1v + _A7_4 * k4v + _A7_5 * k5v
                           + _A7_6 * k6v)
            tw = w + hs * (_A7_1 * k1w + _A7_4 * k4w + _A7_5 * k5w
                           + _A7_6 * k6w)
            k7u, k7v, k7w = rhs(t + _C7 * hs, tu, tv, tw)

            tu = u + hs * (_A8_1 * k1u + _A8_4 * k4u + _A8_5 * k5u
                           + _A8_6 * k6u + _A8_7 * k7u)
            tv = v + hs * (_A8_1 * k1v + _A8_4 * k4v + _A8_5 * k5v
                           + _A8_6 * k6v + _A8_7 * k7v)
            tw = w + hs * (_A8_1 * k1w + _A8_4 * k4w + _A8_5 * k5w
                           + _A8_6 * k6w + _A8_7 * k7w)
            k8u, k8v, k8w = rhs(t + _C8 * hs, tu, tv, tw)

            tu = u + hs * (_A9_1 * k1u + _A9_4 * k4u + _A9_5 * k5u
                           + _A9_6 * k6u + _A9_7 * k7u + _A9_8 * k8u)
            tv = v + hs * (_A9_1 * k1v + _A9_4 * k4v + _A9_5 * k5v
                           + _A9_6 * k6v + _A9_7 * k7v + _A9_8 * k8v)
            tw = w + hs * (_A9_1 * k1w + _A9_4 * k4w + _A9_5 * k5w
                           + _A9_6 * k6w + _A9_7 * k7w + _A9_8 * k8w)
            k9u, k9v, k9w = rhs(t + _C9 * hs, tu, tv, tw)

            tu = u + hs * (_A10_1 * k1u + _A10_4 * k4u + _A10_5 * k5u
                           + _A10_6 * k6u + _A10_7 * k7u + _A10_8 * k8u
                           + _A10_9 * k9u)
            tv = v + hs * (_A10_1 * k1v + _A10_4 * k4v + _A10_5 * k5v
                           + _A10_6 * k6v + _A10_7 * k7v + _A10_8 * k8v
                           + _A10_9 * k9v)
            tw = w + hs * (_A10_1 * k1w + _A10_4 * k4w + _A10_5 * k5w
                           + _A10_6 * k6w + _A10_7 * k7w + _A10_8 * k8w
                           + _A10_9 * k9w)
            k10u, k10v, k10w = rhs(t + _C10 * hs, tu, tv, tw)

            tu = u + hs * (_A11_1 * k1u + _A11_4 * k4u + _A11_5 * k5u
                           + _A11_6 * k6u + _A11_7 * k7u + _A11_8 * k8u
                           + _A11_9 * k9u + _A11_10 * k10u)
            tv = v + hs * (_A11_1 * k1v + _A11_4 * k4v + _A11_5 * k5v
                           + _A11_6 * k6v + _A11_7 * k7v + _A11_8 * k8v
                           + _A11_9 * k9v + _A11_10 * k10v)
            tw = w + hs * (_A11_1 * k1w + _A11_4 * k4w + _A11_5 * k5w
                           + _A11_6 * k6w + _A11_7 * k7w + _A11_8 * k8w
                           + _A11_9 * k9w + _A11_10 * k10w)
            k11u, k11v, k11w = rhs(t + _C11 * hs, tu, tv, tw)

            tu = u + hs * (_A12_1 * k1u + _A12_4 * k4u + _A12_5 * k5u
                           + _A12_6 * k6u + _A12_7 * k7u + _A12_8 * k8u
                           + _A12_9 * k9u + _A12_10 * k10u + _A12_11 * k11u)
            tv = v + hs * (_A12_1 * k1v + _A12_4 * k4v + _A12_5 * k5v
                           + _A12_6 * k6v + _A12_7 * k7v + _A12_8 * k8v
                           + _A12_9 * k9v + _A12_10 * k10v + _A12_11 * k11v)
            tw = w + hs * (_A12_1 * k1w + _A12_4 * k4w + _A12_5 * k5w
                           + _A12_6 * k6w + _A12_7 * k7w + _A12_8 * k8w
                           + _A12_9 * k9w + _A12_10 * k10w + _A12_11 * k11w)
            k12u, k12v, k12w = rhs(t + hs, tu, tv, tw)

            bu = (_B1 * k1u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _B9 * k9u
                  + _B10 * k10u + _B11 * k11u + _B12 * k12u)
            bv = (_B1 * k1v + _B6 * k6v + _B7 * k7v + _B8 * k8v + _B9 * k9v
                  + _B10 * k10v + _B11 * k11v + _B12 * k12v)
            bw = (_B1 * k1w + _B6 * k6w + _B7 * k7w + _B8 * k8w + _B9 * k9w
                  + _B10 * k10w + _B11 * k11w + _B12 * k12w)
            nu = u + hs * bu
            nv = v + hs * bv
            nw = w + hs * bw

            su = abs_ + rel * max(abs(u), abs(nu))
            sv = abs_ + rel * max(abs(v), abs(nv))
            sw = abs_ + rel * max(abs(w), abs(nw))
            e5u = (_ER1 * k1u + _ER6 * k6u + _ER7 * k7u + _ER8 * k8u
                   + _ER9 * k9u + _ER10 * k10u + _ER11 * k11u
                   + _ER12 * k12u) / su
            e5v = (_ER1 * k1v + _ER6 * k6v + _ER7 * k7v + _ER8 * k8v
                   + _ER9 * k9v + _ER10 * k10v + _ER11 * k11v
                   + _ER12 * k12v) / sv
            e5w = (_ER1 * k1w + _ER6 * k6w + _ER7 * k7w + _ER8 * k8w
                   + _ER9 * k9w + _ER10 * k10w + _ER11 * k11w
                   + _ER12 * k12w) / sw
            e3u = (bu - _BHH1 * k1u - _BHH9 * k9u - _BHH12 * k12u) / su
            e3v = (bv - _BHH1 * k1v - _BHH9 * k9v - _BHH12 * k12v) / sv
            e3w = (bw - _BHH1 * k1w - _BHH9 * k9w - _BHH12 * k12w) / sw

            e5 = e5u * e5u + e5v * e5v + e5w * e5w
            e3 = e3u * e3u + e3v * e3v + e3w * e3w
            # Hairer's combined norm: the 5th-order estimate, damped where
            # the 3rd-order one says it is unreliable.
            den = e5 + 0.01 * e3
            err = 0.0 if den == 0.0 else hs * e5 / math.sqrt(3.0 * den)

            accepted = err <= 1.0
            if accepted:
                t = target if clamped else t + hs
                u, v, w = nu, nv, nw
                # Only an accepted step pays for its first-same-as-last stage.
                k1u, k1v, k1w = rhs(t, u, v, w)

            if err == 0.0:
                factor = 5.0
            elif math.isnan(err):
                factor = 0.2
            else:
                factor = min(5.0, max(0.2, 0.9 * err ** -0.125))
            if not (accepted and clamped):
                # A clamped accepted step says nothing about the natural
                # step size, so the controller value h survives it.
                h = hs * factor
                if not accepted and h < min_step:
                    raise ToleranceError(
                        f"step size {h:.3e} underflowed at t = {t:.6f}",
                        t, BlochState(u, v, w))

            steps += 1
            if steps > cfg.max_steps:
                raise StepLimitError(
                    f"exceeded {cfg.max_steps} steps at t = {t:.6f}",
                    t, BlochState(u, v, w))

        out_t.append(target)
        out_s.append(BlochState(u, v, w))

    return Trajectory(times=tuple(out_t), states=tuple(out_s))


def final_inversion(shape: PulseShape,
                    cfg: IntegratorConfig | None = None) -> float:
    """w at the window end t = +L*T.

    The sech tail beyond the window leaves out about 4*alpha*exp(-L) of
    pulse area, which bounds the truncation bias on w (about 3e-9 at
    alpha = 50 for the default L = 25); see IntegratorConfig.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    return integrate(shape, replace(cfg, sample_count=2)).final.w
