"""Closed-form inversion tests.

Frozen constants come from 40-digit arithmetic and the final inversion is
also checked against 50-digit mpmath; the ODE route is compared
separately (test_bloch_ode, test_acceptance) to keep the two routes
independent here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import v_of_t_mp, w_infinity_mp, w_of_t_mp
from sechbloch import analytic
from sechbloch.analytic import (
    AsymptoticEstimate,
    DimensionlessParams,
    Regime,
    area_epsilon,
    equal_superposition_area,
    gamma_epsilon,
    v_of_t,
    w_coherent,
    w_half_integer_pulse,
    w_infinity,
    w_infinity_cos_form,
    w_integer_pulse,
    w_large_area,
    w_of_t,
    w_strong_dephasing,
    w_weak_dephasing,
    w_weak_extremum,
)

alphas = st.floats(min_value=0.0, max_value=20.0)
gammas = st.floats(min_value=0.0, max_value=5.0)


class TestParams:
    def test_validation(self):
        for a, g in ((-0.1, 0.0), (0.0, -0.1), (math.nan, 1.0), (1.0, math.nan),
                     (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                DimensionlessParams(alpha=a, gamma=g)

    def test_area(self):
        assert DimensionlessParams(2.0, 0.3).area == pytest.approx(2.0 * math.pi)

    def test_frozen(self):
        p = DimensionlessParams(1.0, 0.5)
        with pytest.raises(AttributeError):
            p.alpha = 2.0


class TestWInfinity:
    def test_frozen_spots(self):
        # 40-digit arithmetic
        cases = [
            ((0.777, 0.123), 0.32182758962359360756),
            ((2.345, 0.567), -0.086733066799464960652),
            ((6.789, 1.234), -0.00041077344133420234383),
        ]
        for (a, g), expected in cases:
            assert w_infinity(DimensionlessParams(a, g)) == pytest.approx(
                expected, abs=5e-15)

    def test_pi_pulse_fixtures(self):
        for target, g in ((0.9, 1.0 / 38.0), (0.5, 1.0 / 6.0), (0.0, 0.5)):
            w = w_infinity(DimensionlessParams(1.0, g))
            assert abs(w - target) <= 1e-12

    def test_against_mpmath(self):
        # The strong-dephasing edge: gamma log-uniform on [10, 1e12], alpha
        # spread over [0, 60] by the golden-ratio sequence.
        points = [(60.0 * ((i * 0.6180339887498949) % 1.0),
                   10.0 ** (1.0 + 11.0 * (i + 0.5) / 160)) for i in range(160)]
        # The whole domain: alpha in [0, 60], gamma 0 or log-uniform on
        # [1e-3, 1e12].
        for i in range(400):
            a = 60.0 * ((i * 0.7548776662466927) % 1.0)
            g = 0.0 if i % 10 == 0 else 10.0 ** (-3.0 + 15.0 * ((i * 0.5698402909980532) % 1.0))
            points.append((a, g))
        # Both sides of the route switch at nu - alpha = 12.
        for a in (0.0, 0.3, 5.7, 23.1, 59.9):
            for d in (11.5, 11.999999, 12.0, 12.000001, 12.5):
                points.append((a, a + d - 0.5))
        worst = max((abs(w_infinity(DimensionlessParams(a, g)) - w_infinity_mp(a, g)), a, g)
                    for a, g in points)
        assert worst[0] <= 1e-12, worst

    def test_alpha_limit(self):
        # Beyond the limit the error grows as about 5e-15 * alpha, and by
        # alpha = 2^52 nu - alpha has no fractional part left.
        for a in (1.0001e4, 2.0**52, 2.0**53, 1e17, 1e300):
            for g in (0.0, 0.3, 1e12):
                with pytest.raises(ValueError, match="alpha <= 10000"):
                    w_infinity(DimensionlessParams(a, g))
        a = analytic.W_INFINITY_ALPHA_MAX
        for g in (0.0, 1e-3, 0.3, 1e12):
            assert abs(w_infinity(DimensionlessParams(a, g)) - w_infinity_mp(a, g)) <= 1e-10

    def test_no_pulse(self):
        assert w_infinity(DimensionlessParams(0.0, 0.7)) == -1.0

    def test_integer_nodes_at_half(self):
        for n in range(1, 9):
            assert abs(w_infinity(DimensionlessParams(float(n), 0.5))) <= 1e-12

    def test_no_negative_zero(self):
        w = w_infinity(DimensionlessParams(1.0, 0.5))
        assert math.copysign(1.0, w) == 1.0

    @settings(max_examples=300)
    @given(alphas, gammas)
    def test_physical_range(self, a, g):
        assert -1.0 <= w_infinity(DimensionlessParams(a, g)) <= 1.0

    @settings(max_examples=200)
    @given(alphas)
    def test_coherent_limit(self, a):
        assert abs(w_infinity(DimensionlessParams(a, 0.0)) - w_coherent(a)) <= 1e-11

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=0.0, max_value=2.0))
    def test_node_law(self, n, g):
        node = n + 0.5 + g
        assert abs(w_infinity(DimensionlessParams(node, g))) <= 1e-10

    def test_node_sign_change(self):
        for g in (0.0, 0.3, 1.1):
            for n in range(4):
                node = n + 0.5 + g
                lo = w_infinity(DimensionlessParams(node - 0.05, g))
                hi = w_infinity(DimensionlessParams(node + 0.05, g))
                assert lo * hi < 0.0

    def test_monotone_damping_with_area(self):
        for g in (0.1, 0.5, 1.5):
            amps = [abs(w_infinity(DimensionlessParams(n + g, g)))
                    for n in range(1, 9)]
            assert all(a2 <= a1 for a1, a2 in zip(amps, amps[1:]))

    def test_overdamping_monotone(self):
        ws = [w_infinity(DimensionlessParams(1.0, g))
              for g in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0)]
        assert all(w2 < w1 for w1, w2 in zip(ws, ws[1:]))
        assert all(w >= -1.0 for w in ws)


class TestCosForm:
    def test_pole_rejection(self):
        # alpha - gamma + 1/2 at a nonpositive integer
        with pytest.raises(ValueError):
            w_infinity_cos_form(DimensionlessParams(0.5, 1.0))
        with pytest.raises(ValueError):
            w_infinity_cos_form(DimensionlessParams(0.5, 2.0))

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=3.0))
    def test_form_equivalence(self, a, g):
        x = 0.5 - g + a
        if round(x) <= 0 and abs(x - round(x)) <= 1e-4:
            return  # too near a pole for a float comparison
        p = DimensionlessParams(a, g)
        assert abs(w_infinity(p) - w_infinity_cos_form(p)) <= 1e-10

    def test_against_mpmath_to_the_gamma_limit(self):
        g_max = analytic.W_INFINITY_COS_FORM_GAMMA_MAX
        for i in range(200):
            a = 60.0 * ((i * 0.6180339887498949) % 1.0)
            g = 10.0 ** (4.0 * ((i * 0.7548776662466927) % 1.0))
            if abs(0.5 - g + a - round(0.5 - g + a)) < 1e-4:
                continue
            assert abs(w_infinity_cos_form(DimensionlessParams(a, g))
                       - w_infinity_mp(a, g)) <= 1e-10, (a, g)
        for a in (0.3, 16.9):
            assert abs(w_infinity_cos_form(DimensionlessParams(a, g_max))
                       - w_infinity_mp(a, g_max)) <= 1e-10

    def test_gamma_limit(self):
        for g in (1.0001e4, 1e5, 4e11):
            with pytest.raises(ValueError, match="gamma <= 10000"):
                w_infinity_cos_form(DimensionlessParams(10.3, g))


class TestSpecialCasePulses:
    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.0, max_value=4.0))
    def test_integer_matches_general(self, n, g):
        assert abs(w_integer_pulse(n, g)
                   - w_infinity(DimensionlessParams(float(n), g))) <= 1e-12

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=8),
           st.floats(min_value=0.0, max_value=4.0))
    def test_half_integer_matches_general(self, n, g):
        assert abs(w_half_integer_pulse(n, g)
                   - w_infinity(DimensionlessParams(n + 0.5, g))) <= 1e-12

    def test_half_integer_strong_dephasing_against_mpmath(self):
        for n in range(0, 9):
            for g in (11.9, 12.0, 12.1, 1e3, 1e5, 1e8, 1e9, 4e11, 1e12):
                assert abs(w_half_integer_pulse(n, g) - w_infinity_mp(n + 0.5, g)) <= 1e-13, (n, g)

    def test_pi_pulse_closed_form(self):
        for g in (0.0, 0.2, 1.0, 3.0):
            assert w_integer_pulse(1, g) == pytest.approx(
                (1.0 - 2.0 * g) / (1.0 + 2.0 * g), abs=1e-14)

    def test_half_pi_value(self):
        # w(1/2, 1/2) = -2/pi
        assert w_half_integer_pulse(0, 0.5) == pytest.approx(
            -2.0 / math.pi, abs=5e-15)

    def test_product_zeros(self):
        assert w_integer_pulse(1, 0.5) == 0.0
        assert w_half_integer_pulse(1, 1.0) == 0.0  # factor (gamma - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            w_integer_pulse(0, 0.5)
        with pytest.raises(ValueError):
            w_half_integer_pulse(-1, 0.5)
        with pytest.raises(ValueError):
            w_integer_pulse(1, -0.1)


class TestGammaEpsilon:
    def test_fixtures(self):
        assert gamma_epsilon(0.9) == pytest.approx(1.0 / 38.0, rel=1e-15)
        assert gamma_epsilon(0.5) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert gamma_epsilon(0.0) == 0.5

    def test_domain(self):
        for w in (-1.0, -1.5, 1.0 + 1e-9, math.nan):
            with pytest.raises(ValueError):
                gamma_epsilon(w)

    @settings(max_examples=200)
    @given(st.floats(min_value=-0.95, max_value=1.0))
    def test_round_trip_through_pi_pulse(self, w_target):
        g = gamma_epsilon(w_target)
        assert w_infinity(DimensionlessParams(1.0, g)) == pytest.approx(
            w_target, abs=1e-11)


class TestWeakDephasing:
    def test_coherent_limit_exact(self):
        est = w_weak_dephasing(DimensionlessParams(1.0, 0.0))
        assert est.value == 1.0
        assert est.regime is Regime.WEAK_DEPHASING
        assert est.validity_hint == 0.0

    def test_near_first_extremum(self):
        # Near alpha = 1 + gamma the estimate reduces to 1 - 4 gamma.
        g = 0.01
        est = w_weak_dephasing(DimensionlessParams(1.0 + g, g))
        assert est.value == pytest.approx(0.96, abs=2e-4)
        est2 = w_weak_dephasing(DimensionlessParams(2.0 + g, g))
        assert est2.value == pytest.approx(-1.0 + 16.0 / 3.0 * g, abs=2e-4)

    def test_accuracy_first_order(self):
        # Error against the exact value shrinks quadratically in gamma away
        # from the half-odd-integer areas (where the shared cosine factor
        # itself vanishes linearly and the difference is third order).
        p_big = DimensionlessParams(1.0, 0.08)
        p_small = DimensionlessParams(1.0, 0.04)
        e_big = abs(w_weak_dephasing(p_big).value - w_infinity(p_big))
        e_small = abs(w_weak_dephasing(p_small).value - w_infinity(p_small))
        assert 0.15 <= e_small / e_big <= 0.40

    def test_amplitude_error_order_all_alphas(self):
        # Dividing out the shared cosine factor exposes the quadratic
        # amplitude error at every alpha, including 0.5 and 2.5.
        from sechbloch.specfun import cospi

        def amp_err(a, g):
            p = DimensionlessParams(a, g)
            return abs((w_weak_dephasing(p).value - w_infinity(p)) / cospi(a - g))

        for a in (0.5, 1.0, 2.5):
            for g in (0.08, 0.04, 0.02):
                ratio = amp_err(a, 0.5 * g) / amp_err(a, g)
                assert 0.15 <= ratio <= 0.40, (a, g, ratio)


class TestWeakExtremum:
    def test_slope_constants(self):
        # coefficient of gamma at the nth extremum: -4, +16/3, -92/15, +704/105
        targets = (-4.0, 16.0 / 3.0, -92.0 / 15.0, 704.0 / 105.0)
        g = 0.01
        for n, tgt in zip(range(1, 5), targets):
            slope = (w_weak_extremum(n, g) - w_weak_extremum(n, 0.0)) / g
            assert slope == pytest.approx(tgt, rel=1e-12)

    def test_coherent_values(self):
        assert w_weak_extremum(1, 0.0) == 1.0
        assert w_weak_extremum(2, 0.0) == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            w_weak_extremum(0, 0.1)

    def test_finite_difference_slopes_match(self):
        # The same constants measured on the exact inversion at gamma=1e-4.
        targets = (-4.0, 16.0 / 3.0, -92.0 / 15.0, 704.0 / 105.0)
        g = 1e-4
        for n, tgt in zip(range(1, 5), targets):
            w = w_infinity(DimensionlessParams(n + g, g))
            slope = (w - (-1.0) ** (n + 1)) / g
            assert slope == pytest.approx(tgt, rel=5e-3)


class TestStrongDephasing:
    def test_values_and_band(self):
        for a, g in ((1.0, 20.0), (2.0, 40.0), (1.0, 50.0)):
            p = DimensionlessParams(a, g)
            est = w_strong_dephasing(p)
            assert est.value == pytest.approx(-math.exp(-a * a / g), rel=1e-15)
            assert abs(w_infinity(p) / est.value - 1.0) <= 0.02
            assert est.regime is Regime.STRONG_DEPHASING
            assert est.validity_hint == pytest.approx(1.0 / g)

    def test_no_pulse(self):
        assert w_strong_dephasing(DimensionlessParams(0.0, 7.0)).value == -1.0

    def test_gamma_zero_edge(self):
        est = w_strong_dephasing(DimensionlessParams(0.0, 0.0))
        assert est.value == -1.0 and est.validity_hint == math.inf


class TestLargeArea:
    def test_gamma_zero_reduces_to_coherent(self):
        for a in (0.7, 3.3, 12.0):
            est = w_large_area(DimensionlessParams(a, 0.0))
            assert est.value == pytest.approx(w_coherent(a), abs=1e-13)

    def test_envelope_halving(self):
        # At gamma = 1/2 the envelope scales as 1/alpha.
        def env(a):
            est = w_large_area(DimensionlessParams(a, 0.5))
            return est.value / -math.cos(math.pi * (a - 0.5))

        assert env(40.3) / env(20.15) == pytest.approx(0.5, rel=1e-12)

    def test_against_exact(self):
        p = DimensionlessParams(50.0, 0.3)
        est = w_large_area(p)
        assert est.value == pytest.approx(w_infinity(p), rel=0.01)
        assert est.regime is Regime.LARGE_AREA
        assert est.validity_hint == pytest.approx(1.0 / 2500.0)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            w_large_area(DimensionlessParams(0.0, 0.5))

    def test_envelope_beyond_float_range_rejected(self):
        # ln of the envelope exceeds 709.8: typed, not OverflowError.
        for a, g in ((1.0, 100.0), (1e-300, 1e3), (1.0, 1e300)):
            with pytest.raises(ValueError, match="float range"):
                w_large_area(DimensionlessParams(a, g))

    def test_tiny_alpha_hint_is_inf(self):
        # 1 / alpha^2 exceeds the float range; alpha * alpha underflowed
        # to 0 and raised ZeroDivisionError before.
        for a in (1e-170, 1e-300, 5e-324):
            assert w_large_area(DimensionlessParams(a, 0.1)).validity_hint == math.inf


class TestAreaEpsilon:
    def test_quoted_thresholds(self):
        assert area_epsilon(0.1, 1.0) / math.pi == pytest.approx(3.18, rel=0.01)
        assert area_epsilon(0.1, 0.3) / math.pi == pytest.approx(415.0, rel=0.01)
        assert area_epsilon(0.1, 0.1) / math.pi == pytest.approx(1.58e9, rel=0.02)

    def test_exact_special_point(self):
        # GammaT = 1: exponent -1/(2g) = -1 and G(1) = 1, so
        # A = pi (pi eps)^-1 = 10 exactly at eps = 0.1.
        assert area_epsilon(0.1, 1.0) == pytest.approx(10.0, rel=1e-14)

    def test_domain(self):
        for eps, gt in ((0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (0.1, 0.0),
                        (0.1, -2.0)):
            with pytest.raises(ValueError):
                area_epsilon(eps, gt)

    def test_beyond_float_range_rejected(self):
        # The first two thresholds exceed 1.8e308; at GammaT = 1e306 the
        # threshold itself (about 5.8e305) would fit, but ln Gamma(1/2 + g)
        # does not, and inf was returned silently before.
        for eps, gt in ((0.1, 1e-3), (1e-300, 0.5), (0.5, 1e306)):
            with pytest.raises(ValueError, match="float range"):
                area_epsilon(eps, gt)

    def test_monotone_in_epsilon(self):
        # A smaller target epsilon needs a larger area.
        assert area_epsilon(0.01, 0.5) > area_epsilon(0.1, 0.5)


class TestEqualSuperpositionArea:
    def test_examples(self):
        assert equal_superposition_area(0, 0.0) == pytest.approx(math.pi / 2.0)
        assert equal_superposition_area(0, 1.0) == pytest.approx(math.pi)
        assert equal_superposition_area(2, 0.4) == pytest.approx(2.7 * math.pi)

    def test_produces_a_node(self):
        for n, gt in ((0, 0.0), (2, 0.4), (5, 1.6)):
            alpha = equal_superposition_area(n, gt) / math.pi
            assert abs(w_infinity(DimensionlessParams(alpha, 0.5 * gt))) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            equal_superposition_area(-1, 0.5)
        with pytest.raises(ValueError):
            equal_superposition_area(0, -0.5)


class TestTimeDependent:
    def test_initial_and_final_boundaries(self):
        for a, g in ((0.4, 0.0), (1.0, 0.2), (2.7, 1.3)):
            p = DimensionlessParams(a, g)
            assert abs(w_of_t(p, -30.0) - (-1.0)) <= 1e-10
            assert abs(w_of_t(p, 30.0) - w_infinity(p)) <= 1e-9
            assert abs(v_of_t(p, -30.0)) <= 1e-9
            # Without dephasing v keeps sin(pi alpha) after the pulse:
            # 0.951... at (0.4, 0); with dephasing it decays.
            assert abs(v_of_t(p, 30.0) - v_of_t_mp(a, g, 30.0)) <= 1e-9

    def test_coherent_pi_pulse_midpoint(self):
        p = DimensionlessParams(1.0, 0.0)
        assert abs(w_of_t(p, 0.0)) <= 1e-14
        assert v_of_t(p, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_damped_pi_pulse_midpoint(self):
        p = DimensionlessParams(1.0, 0.5)
        assert w_of_t(p, 0.0) == pytest.approx(-0.5, abs=1e-14)
        assert v_of_t(p, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_frozen_interior_spots(self):
        # 40-digit arithmetic
        p = DimensionlessParams(0.5, 0.2)
        assert w_of_t(p, 1.3) == pytest.approx(-0.51365707877335248601, abs=5e-15)
        assert v_of_t(p, 1.3) == pytest.approx(0.54027604588559616578, abs=5e-15)
        p = DimensionlessParams(2.0, 1.0)
        assert w_of_t(p, -0.7) == pytest.approx(-0.53510031180283709642, abs=5e-15)
        assert v_of_t(p, -0.7) == pytest.approx(0.40505603248063378488, abs=5e-15)

    def test_rate_identity(self):
        # dw/dt = Omega(t) v(t) with Omega(t) = alpha sech(t) in units T=1;
        # this is what fixes the sign convention of v_of_t.
        h = 1e-5
        for a, g, t in ((1.3, 0.3, 0.37), (0.5, 0.0, -1.1), (2.0, 1.0, 0.9)):
            p = DimensionlessParams(a, g)
            dw = (w_of_t(p, t + h) - w_of_t(p, t - h)) / (2.0 * h)
            omega_v = a / math.cosh(t) * v_of_t(p, t)
            assert dw == pytest.approx(omega_v, abs=1e-6)

    def test_no_pulse_time_dependence(self):
        p = DimensionlessParams(0.0, 0.8)
        assert w_of_t(p, 0.3) == -1.0
        assert v_of_t(p, 0.3) == 0.0

    # The 2F1 parameters are degenerate (c - a - b an integer) for w at
    # these gammas and for v at gamma - 1/2 an integer: the logarithmic
    # connection formula evaluates them beyond z = 3/4, t/T > ln(3)/2.
    HALF_INTEGER_GAMMAS = (0.5, 1.5, 2.5, 4.5)
    LATTICE_TIMES = (-20.0, -6.0, -1.0, 0.0, 0.3, 0.5, 0.56, 0.8, 1.5, 3.0, 7.7, 12.0,
                     17.0, 20.0)

    @pytest.mark.parametrize("g", HALF_INTEGER_GAMMAS)
    def test_half_integer_gamma_against_mpmath(self, g):
        for a in (0.0, 0.45, 2.36, 5.0, 7.3, 9.94):
            p = DimensionlessParams(a, g)
            for t in self.LATTICE_TIMES:
                # The Gauss series below z = 3/4 (t/T <= ln(3)/2) still
                # loses digits to cancellation as alpha nears 10: 2.7e-11
                # measured at alpha 9.94, t/T 0.5, against 1.0e-13 at
                # alpha 7.3.  ROADMAP item 2 keeps it open.
                tol = 1e-10 if a == 9.94 and t <= 0.5 * math.log(3.0) else 1e-12
                assert abs(w_of_t(p, t) - w_of_t_mp(a, g, t)) <= tol, (a, t)
                assert abs(v_of_t(p, t) - v_of_t_mp(a, g, t)) <= tol, (a, t)

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 1.5])
    def test_far_tails(self, g):
        for a in (0.4, 2.7, 7.3):
            p = DimensionlessParams(a, g)
            for t in (19.0, 25.0, 40.0):
                for tt in (t, -t):
                    assert abs(w_of_t(p, tt) - w_of_t_mp(a, g, tt)) <= 1e-12, (a, tt)
                    assert abs(v_of_t(p, tt) - v_of_t_mp(a, g, tt)) <= 1e-12, (a, tt)
            # Beyond |t/T| = 400 every correction to the limits is below
            # exp(-400): w -> -1 before the pulse and w_infinity after it,
            # v -> 0 except without dephasing, where it keeps sin(pi alpha).
            v_final = math.sin(math.pi * a) if g == 0.0 else 0.0
            for t in (400.0, 1e4, 1e300):
                assert w_of_t(p, -t) == -1.0
                assert v_of_t(p, -t) == 0.0
                assert abs(w_of_t(p, t) - w_infinity_mp(a, g)) <= 1e-12, (a, t)
                assert abs(v_of_t(p, t) - v_final) <= 1e-12, (a, t)

    def test_strong_dephasing_against_mpmath(self):
        # From c - a - b = 16 on, the direct series serves z > 3/4 while
        # its terms never grow (alpha^2 <= 1/2 + gamma for w): at 1.3 and
        # 7.7 here.  At 20.3 and beyond the 1 - z expansions take over,
        # the logarithmic one at half-integer gamma.
        for g in (15.5, 16.0, 20.0, 20.5, 200.5, 1e4 + 0.3):
            for a in (1.3, 7.7, 20.3, 30.3, 49.3):
                p = DimensionlessParams(a, g)
                for t in (1.0, 1.5, 5.0, 30.0):
                    assert abs(w_of_t(p, t) - w_of_t_mp(a, g, t)) <= 1e-12, (a, g, t)
                    assert abs(v_of_t(p, t) - v_of_t_mp(a, g, t)) <= 1e-12, (a, g, t)

    def test_direct_series_switch_at_large_alpha(self):
        # Either side of alpha^2 = 1/2 + gamma at gamma 20 and 20.5 (the
        # 1 - z transformation and the logarithmic case above it), and at
        # gamma 2400.5, where the logarithmic case has about 2400 finite
        # terms, and 1e4 + 0.3, where the transformation's second series
        # would overflow without Euler's transformation.
        for a, g in ((4.5, 20.0), (4.6, 20.0), (4.5, 20.5), (4.6, 20.5),
                     (49.3, 2400.5), (48.9, 2400.5), (200.3, 1e4 + 0.3)):
            p = DimensionlessParams(a, g)
            for t in (0.56, 1.0, 5.0):
                assert abs(w_of_t(p, t) - w_of_t_mp(a, g, t)) <= 1e-12, (a, g, t)
                assert abs(v_of_t(p, t) - v_of_t_mp(a, g, t)) <= 1e-12, (a, g, t)

    def test_no_convergence_error_on_the_domain(self):
        # Large alpha still loses digits to series cancellation (ROADMAP
        # item 2), but no evaluation may fail or stall; gamma covers both
        # degenerate families and the near-integer band.
        for a in (0.3, 12.7, 33.1, 49.9, 50.0):
            for g in (0.0, 0.5, 1.0, 2.5, 2.5 + 1e-9, 5.0):
                p = DimensionlessParams(a, g)
                for i in range(17):
                    t = -20.0 + 2.5 * i
                    assert math.isfinite(w_of_t(p, t)) and math.isfinite(v_of_t(p, t))

    def test_non_finite_time_rejected(self):
        p = DimensionlessParams(1.0, 0.1)
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                w_of_t(p, t)
            with pytest.raises(ValueError):
                v_of_t(p, t)


class TestEstimateType:
    def test_frozen_dataclass(self):
        est = AsymptoticEstimate(value=0.5, regime=Regime.WEAK_DEPHASING,
                                 validity_hint=0.1)
        with pytest.raises(AttributeError):
            est.value = 0.0
