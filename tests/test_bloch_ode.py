"""Adaptive Bloch integrator tests.

The closed-form route (analytic module) serves as the oracle for final
values; a from-scratch fixed-step RK4 gives a third opinion on a few points
so the two package routes are never judge and defendant at once.
"""

import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bloch_final_w_fixed_rk4
from sechbloch import bloch_ode
from sechbloch.analytic import DimensionlessParams, w_infinity
from sechbloch.bloch_ode import (
    INITIAL_STATE,
    BlochState,
    CallablePulse,
    IntegrationError,
    IntegratorConfig,
    SechPulseModel,
    StepLimitError,
    ToleranceError,
    Trajectory,
    bloch_rhs,
    final_inversion,
    integrate,
)


class TestSechPulseModel:
    def test_properties(self):
        m = SechPulseModel(omega0=2.0, T=1.5, Gamma=0.4)
        assert m.alpha == pytest.approx(3.0)
        assert m.area == pytest.approx(3.0 * math.pi)
        assert m.delta == 0.0
        assert m(0.0) == (2.0, 0.0, 0.4)

    def test_pulse_shape(self):
        m = SechPulseModel(omega0=1.0, T=2.0, Gamma=0.0)
        assert m.omega(0.0) == 1.0
        assert m.omega(2.0) == pytest.approx(1.0 / math.cosh(1.0))
        assert m.omega(1e9) == 0.0  # overflow guard on the far tail

    def test_from_dimensionless(self):
        m = SechPulseModel.from_dimensionless(1.3, 0.25)
        assert m.alpha == pytest.approx(1.3)
        assert m.Gamma == pytest.approx(0.5)  # Gamma = 2 gamma / T
        assert m.T == 1.0

    def test_validation(self):
        for args in ((-1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, -0.2),
                     (math.inf, 1.0, 0.0), (1.0, math.inf, 0.0),
                     (1.0, 1.0, math.inf), (math.nan, 1.0, 0.0)):
            with pytest.raises(ValueError):
                SechPulseModel(*args)


class TestConfigAndState:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=-1e-12)
        with pytest.raises(ValueError):
            IntegratorConfig(window_halfwidth_L=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)
        with pytest.raises(ValueError):
            IntegratorConfig(sample_count=1)
        for field in ("rel_tol", "abs_tol", "window_halfwidth_L"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError):
                    IntegratorConfig(**{field: bad})

    def test_state_norm(self):
        assert BlochState(0.6, 0.8, 0.0).norm_sq() == pytest.approx(1.0)
        assert INITIAL_STATE == BlochState(0.0, 0.0, -1.0)


class TestRhs:
    def test_ground_state_drive(self):
        m = SechPulseModel(omega0=2.0, T=1.0, Gamma=0.3)
        d = bloch_rhs(INITIAL_STATE, 0.0, m)
        assert (d.u, d.v, d.w) == (0.0, 2.0, 0.0)

    def test_damping_terms(self):
        m = SechPulseModel(omega0=0.0, T=1.0, Gamma=0.5)
        d = bloch_rhs(BlochState(0.4, -0.2, 0.9), 0.0, m)
        assert d.u == pytest.approx(-0.2)
        assert d.v == pytest.approx(0.1)
        assert d.w == 0.0


class TestIntegrate:
    def test_matches_closed_form_on_subgrid(self):
        for a, g in ((0.5, 0.0), (1.0, 0.1), (2.0, 0.5), (3.0, 1.0), (5.0, 2.0)):
            m = SechPulseModel.from_dimensionless(a, g)
            w_num = final_inversion(m)
            w_ref = w_infinity(DimensionlessParams(a, g))
            assert abs(w_num - w_ref) <= 1e-6, (a, g)

    def test_matches_independent_rk4(self):
        for a, g in ((1.0, 0.25), (2.0, 1.0)):
            m = SechPulseModel.from_dimensionless(a, g)
            w_ref = bloch_final_w_fixed_rk4(a, g)
            assert final_inversion(m) == pytest.approx(w_ref, abs=1e-8)

    def test_trajectory_shape(self):
        m = SechPulseModel.from_dimensionless(1.0, 0.2)
        cfg = IntegratorConfig(sample_count=11, window_halfwidth_L=20.0)
        traj = integrate(m, cfg)
        assert isinstance(traj, Trajectory)
        assert len(traj.times) == len(traj.states) == 11
        assert traj.times[0] == -20.0
        assert traj.times[-1] == 20.0
        assert traj.states[0] == INITIAL_STATE
        assert traj.final == traj.states[-1]
        spacing = [t2 - t1 for t1, t2 in zip(traj.times, traj.times[1:])]
        assert all(s == pytest.approx(4.0, abs=1e-12) for s in spacing)

    def test_coherent_norm_conservation(self):
        m = SechPulseModel.from_dimensionless(1.3, 0.0)
        traj = integrate(m)
        drift = max(abs(s.norm_sq() - 1.0) for s in traj.states)
        assert drift <= 1e-8

    def test_coherent_final_inversion(self):
        m = SechPulseModel.from_dimensionless(1.3, 0.0)
        assert final_inversion(m) == pytest.approx(-math.cos(1.3 * math.pi),
                                                   abs=1e-8)

    def test_resonant_u_decoupling(self):
        m = SechPulseModel.from_dimensionless(2.0, 0.7)
        traj = integrate(m)
        assert max(abs(s.u) for s in traj.states) <= 1e-11

    def test_free_decay_law(self):
        # With no drive the coherences decay exponentially and w is frozen;
        # (u^2 + v^2) falls as exp(-2 Gamma t).
        gamma_rate = 0.13
        pulse = CallablePulse(lambda t: (0.0, 0.0, gamma_rate), T=1.0)
        start = BlochState(0.6, 0.8, -0.3)
        cfg = IntegratorConfig(window_halfwidth_L=10.0, sample_count=41)
        traj = integrate(pulse, cfg, initial_state=start)
        t0 = traj.times[0]
        for t, s in zip(traj.times, traj.states):
            expected = 1.0 * math.exp(-2.0 * gamma_rate * (t - t0))
            assert (s.u ** 2 + s.v ** 2) == pytest.approx(expected, rel=1e-9)
            assert s.w == pytest.approx(-0.3, abs=1e-12)

    def test_step_halving_convergence(self):
        m = SechPulseModel.from_dimensionless(2.0, 0.3)
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, sample_count=2)
        tight = replace(cfg, rel_tol=1e-10, abs_tol=1e-12)
        w_loose = integrate(m, cfg).final.w
        w_tight = integrate(m, tight).final.w
        assert abs(w_loose - w_tight) <= 1e-8

    def test_window_insensitivity(self):
        for a, g in ((1.0, 0.1), (5.0, 1.0)):
            m = SechPulseModel.from_dimensionless(a, g)
            w25 = final_inversion(m)
            w35 = final_inversion(m, IntegratorConfig(window_halfwidth_L=35.0,
                                                      sample_count=2))
            assert abs(w25 - w35) <= 1e-9

    def test_custom_callable_pulse(self):
        # A square pulse of area pi flips the ground state coherently.
        pulse = CallablePulse(
            lambda t: (math.pi if 0.0 <= t <= 1.0 else 0.0, 0.0, 0.0), T=1.0)
        cfg = IntegratorConfig(window_halfwidth_L=2.0, sample_count=3)
        traj = integrate(pulse, cfg)
        assert traj.final.w == pytest.approx(1.0, abs=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=1.5))
    def test_oracle_equivalence_random(self, a, g):
        m = SechPulseModel.from_dimensionless(a, g)
        assert abs(final_inversion(m)
                   - w_infinity(DimensionlessParams(a, g))) <= 1e-6


class CountingPulse:
    """Pulse wrapper counting its calls: one per RHS evaluation."""

    def __init__(self, shape):
        self.shape = shape
        self.T = shape.T
        self.evals = 0

    def __call__(self, t):
        self.evals += 1
        return self.shape(t)


class TestWorkCounts:
    """Exact RHS-evaluation counts, each below the Dormand-Prince 5(4) count
    that the DOP853 pair replaced.  A changed count means the stages, the
    error norm or the step controller changed."""

    @pytest.mark.parametrize("alpha, gamma, evals, dopri5_evals", [
        (1.0, 0.1, 1019, 1741),
        (3.0, 0.5, 1426, 3583),
        (10.0, 0.1, 2371, 6841),
        (50.0, 0.1, 7083, 29431),
        (5.0, 20.0, 16153, 19399),
    ])
    def test_final_inversion(self, alpha, gamma, evals, dopri5_evals):
        pulse = CountingPulse(SechPulseModel.from_dimensionless(alpha, gamma))
        final_inversion(pulse)
        assert pulse.evals == evals
        assert pulse.evals < dopri5_evals

    def test_default_trajectory(self):
        pulse = CountingPulse(SechPulseModel.from_dimensionless(2.0, 1.0))
        integrate(pulse)
        assert pulse.evals == 2945
        assert pulse.evals < 4531


class TestTableau:
    """DOP853 coefficients against the order conditions.  A mistyped
    coefficient still converges under step control, only at lower order
    and more slowly, so no accuracy test would catch it."""

    @staticmethod
    def coefficients(pattern):
        """Module constants matching pattern, keyed by their index groups."""
        found = {}
        for name, value in vars(bloch_ode).items():
            m = re.fullmatch(pattern, name)
            if m:
                found[tuple(int(g) for g in m.groups())] = value
        return found

    def nodes(self):
        # c1 = 0; c12 = 1 is written as t + h in the step.
        return {1: 0.0, 12: 1.0,
                **{i: c for (i,), c in self.coefficients(r"_C(\d+)").items()}}

    def test_row_sums_are_nodes(self):
        rows = {}
        for (i, _), a in self.coefficients(r"_A(\d+)_(\d+)").items():
            rows[i] = rows.get(i, 0.0) + a
        c = self.nodes()
        assert sorted(rows) == list(range(2, 13))  # twelve stages
        for i, total in rows.items():
            assert abs(total - c[i]) <= 1e-14, i

    def test_quadrature_order_eight(self):
        b = self.coefficients(r"_B(\d+)")
        c = self.nodes()
        for k in range(1, 9):
            moment = sum(bj * c[j] ** (k - 1) for (j,), bj in b.items())
            assert abs(moment - 1.0 / k) <= 1e-14, k

    def test_error_weights_sum_to_zero(self):
        b = self.coefficients(r"_B(\d+)")
        bhh = self.coefficients(r"_BHH(\d+)")
        er = self.coefficients(r"_ER(\d+)")
        assert set(bhh) <= set(b)
        assert abs(sum(b.values()) - sum(bhh.values())) <= 1e-14  # E3 = b - bhh
        assert abs(sum(er.values())) <= 1e-14


class TestFailureModes:
    def test_step_limit(self):
        m = SechPulseModel.from_dimensionless(1.0, 0.1)
        with pytest.raises(StepLimitError) as exc_info:
            integrate(m, IntegratorConfig(max_steps=10, sample_count=2))
        err = exc_info.value
        assert isinstance(err, IntegrationError)
        assert math.isfinite(err.t)
        assert isinstance(err.state, BlochState)

    def test_tolerance_underflow_on_bad_rhs(self):
        # A NaN right-hand side can never pass the error test; the step
        # size collapses to the floor and the failure is reported.
        pulse = CallablePulse(lambda t: (math.nan, 0.0, 0.0), T=1.0)
        with pytest.raises(ToleranceError):
            integrate(pulse, IntegratorConfig(sample_count=2))

    def test_exception_hierarchy(self):
        assert issubclass(StepLimitError, IntegrationError)
        assert issubclass(ToleranceError, IntegrationError)
        assert issubclass(IntegrationError, RuntimeError)
