"""Scalar special-function kernel tests.

Oracles: 50-digit mpmath for ln Gamma, digamma, the Gamma ratios and 2F1
near z = 1, a Kahan-compensated series for 2F1, and constants frozen from
40-digit arithmetic.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    digamma_mp,
    gamma_half_ratio_mp,
    hyp2f1_mp,
    hyp2f1_series_kahan,
    ln_gamma_mp,
    w_infinity_mp,
)
from sechbloch import specfun
from sechbloch.specfun import (
    Hyp2F1Params,
    cospi,
    digamma,
    gamma,
    gamma_half_ratio,
    gamma_square_ratio,
    hyp2f1,
    hyp2f1_at_unity,
    ln_gamma,
    pochhammer,
    recip_gamma,
    signed_ln_gamma,
    signed_ln_recip_gamma,
    sinpi,
)


class TestLnGamma:
    def test_against_mpmath_grid(self):
        for i in range(1, 1000):
            x = 0.05 * i
            assert ln_gamma(x) == pytest.approx(ln_gamma_mp(x), abs=1e-12, rel=1e-13)
        for x in (1e-300, 1e-8, 123.456, 1e4, 1e8, 1e12, 1e100, 1e300):
            assert ln_gamma(x) == pytest.approx(ln_gamma_mp(x), rel=1e-14)

    def test_overflow_gives_inf(self):
        # ln Gamma(x) exceeds the float range beyond x ~ 2.6e305
        for x in (1e306, 1e308, math.inf):
            assert ln_gamma(x) == math.inf

    def test_small_argument_frozen(self):
        # 40-digit arithmetic: lgamma(0.07) = 2.6227537606032154926
        assert ln_gamma(0.07) == pytest.approx(2.6227537606032154926, abs=5e-14)

    def test_half_integer(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0, -3.5):
            with pytest.raises(ValueError):
                ln_gamma(x)

    @settings(max_examples=200)
    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_recurrence(self, x):
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-12


class TestSignedForms:
    def test_negative_arguments(self):
        # G(-0.5) = -2 sqrt(pi), G(-1.5) = 4 sqrt(pi)/3
        s, ln_m = signed_ln_gamma(-0.5)
        assert s == -1.0
        assert math.exp(ln_m) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)
        s, ln_m = signed_ln_gamma(-1.5)
        assert s == 1.0
        assert math.exp(ln_m) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-14)

    def test_poles_raise(self):
        for x in (0.0, -2.0):
            with pytest.raises(ValueError):
                signed_ln_gamma(x)

    def test_recip_signs_and_zeros(self):
        s, _ = signed_ln_recip_gamma(-0.5)
        assert s == -1.0
        s, ln_m = signed_ln_recip_gamma(-4.0)
        assert s == 0.0 and ln_m == -math.inf

    def test_gamma_and_recip(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        for n in (0.0, -1.0, -7.0):
            assert recip_gamma(n) == 0.0
        assert recip_gamma(3.0) == pytest.approx(0.5, rel=1e-14)

    @settings(max_examples=200)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_reflection_identity(self, x):
        # recip(x) recip(1-x) pi / sin(pi x) = 1
        prod = recip_gamma(x) * recip_gamma(1.0 - x) * math.pi / sinpi(x)
        assert abs(prod - 1.0) <= 1e-11


class TestGammaSquareRatio:
    @pytest.mark.parametrize("d", [12.0, 12.5, 20.0])
    def test_routes_agree_at_switch(self, d):
        for a in (0.0, 0.7, 3.3, 17.2, 48.9, 60.0):
            by_logs = specfun._square_ratio_by_logs(a + d, a)
            by_stirling = specfun._square_ratio_by_stirling(a + d, a)
            assert abs(by_logs - by_stirling) <= 1e-13, a

    def test_poles_give_exact_zero(self):
        for nu, a in ((0.7, 2.7), (0.5, 3.5), (1.25, 4.25), (2.0, 7.0)):
            assert gamma_square_ratio(nu, a) == 0.0

    def test_strong_dephasing_relative_accuracy(self):
        # The ratio is about exp(-a^2 / nu) there; the combined Stirling
        # route keeps its relative digits however large nu is.
        for nu in (1e4 + 0.5, 1e8 + 0.5, 1e12 + 0.5):
            for a in (1.0, math.sqrt(nu), 5.0 * math.sqrt(nu)):
                ref = -w_infinity_mp(a, nu - 0.5)
                assert gamma_square_ratio(nu, a) == pytest.approx(ref, rel=1e-13)


class TestGammaHalfRatio:
    def test_against_mpmath(self):
        # Both routes, the switch at x = 12, and strong dephasing to 1e12.
        xs = [10.0 ** (-3.0 + 15.0 * ((i * 0.5698402909980532) % 1.0)) for i in range(200)]
        xs += [0.0, 0.5, 11.999999, 12.0, 12.000001, 1e5, 4e11, 1e12]
        for x in xs:
            assert gamma_half_ratio(x) == pytest.approx(gamma_half_ratio_mp(x), rel=1e-14), x


class TestDigamma:
    def test_classical_values(self):
        euler = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-euler, abs=1e-14)
        assert digamma(0.5) == pytest.approx(-euler - 2.0 * math.log(2.0), abs=1e-13)
        # psi(n + 1/2) = psi(1/2) + 2 (1 + 1/3 + ... + 1/(2n-1))
        assert digamma(3.5) == pytest.approx(
            -euler - 2.0 * math.log(2.0) + 2.0 * (1.0 + 1.0 / 3.0 + 1.0 / 5.0),
            abs=1e-13)

    def test_frozen_spots(self):
        # 40-digit arithmetic
        assert digamma(0.37) == pytest.approx(-2.7953014108905639616, abs=1e-13)
        assert digamma(7.77) == pytest.approx(1.9845420583479447693, abs=1e-13)
        assert digamma(23.456) == pytest.approx(3.133658381209460093, abs=1e-13)
        assert digamma(0.05) == pytest.approx(-20.497844991299870371, abs=1e-12)

    def test_against_mpmath(self):
        for x in (0.3, 0.9, 1.7, 4.2, 11.0, 33.3):
            assert digamma(x) == pytest.approx(digamma_mp(x), abs=1e-13)

    def test_rejects_nonpositive(self):
        for x in (0.0, -2.0):
            with pytest.raises(ValueError):
                digamma(x)

    def test_negative_arguments_by_reflection(self):
        for x in (-0.5, -1.3, -7.7, -2.000001, -1e-9, -30.25):
            assert digamma(x) == pytest.approx(digamma_mp(x), rel=1e-13, abs=1e-13), x

    @settings(max_examples=200)
    @given(st.floats(min_value=0.25, max_value=50.0))
    def test_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(1.0, 5) == 120.0
        assert pochhammer(0.5, 0) == 1.0
        # frozen: (0.3)_7 from 40-digit arithmetic
        assert pochhammer(0.3, 7) == pytest.approx(425.0022777, rel=1e-12)

    def test_negative_base_terminates(self):
        assert pochhammer(-2.0, 3) == 0.0
        assert pochhammer(-2.5, 2) == pytest.approx(3.75, rel=1e-15)


class TestTrigExact:
    def test_exact_zeros_and_signs(self):
        for n in range(-6, 7):
            assert sinpi(float(n)) == 0.0
            assert cospi(n + 0.5) == 0.0
        assert cospi(0.0) == 1.0
        assert cospi(1.0) == -1.0
        assert sinpi(0.5) == 1.0
        assert sinpi(-0.5) == -1.0
        assert sinpi(2.5) == 1.0

    @settings(max_examples=200)
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_matches_libm_away_from_reduction_gains(self, x):
        assert sinpi(x) == pytest.approx(math.sin(math.pi * x), abs=1e-13)
        assert cospi(x) == pytest.approx(math.cos(math.pi * x), abs=1e-13)


class TestHyp2F1Params:
    def test_rejects_nonpositive_integer_nu(self):
        for nu in (0.0, -1.0, -2.0, 1e-13):
            with pytest.raises(ValueError):
                Hyp2F1Params(lam=0.3, mu=-0.3, nu=nu)

    def test_for_inversion(self):
        p = Hyp2F1Params.for_inversion(1.5, 0.2)
        assert (p.lam, p.mu, p.nu) == (1.5, -1.5, 0.7)


class TestHyp2F1:
    # Frozen reference values from 40-digit arithmetic.
    SERIES_CASES = [
        ((0.7, -0.3, 1.1), 0.35, 0.92508828281177538813),
        ((1.5, -2.5, 0.8), 0.6, -0.29968764557948767789),
        ((2.0, -2.0, 1.5), 0.9, -0.104),
    ]
    TRANSFORM_CASES = [
        ((0.31, 0.27, 1.11), 0.93, 1.1422632729561183552),
        ((0.45, -0.45, 0.83), 0.97, 0.6443713632552430352),
        ((1.3, -1.3, 0.62), 0.999, -0.54709264554849418288),
    ]

    @pytest.mark.parametrize("abc,z,expected", SERIES_CASES + TRANSFORM_CASES)
    def test_frozen_values(self, abc, z, expected):
        got = hyp2f1(Hyp2F1Params(*abc), z)
        assert got == pytest.approx(expected, abs=1e-13)

    def test_z_zero_and_terminating(self):
        p = Hyp2F1Params(0.4, -0.4, 0.9)
        assert hyp2f1(p, 0.0) == 1.0
        # F(1, -1; 3/2; 1) = 1 - 1/(3/2) = 1/3 exactly (one term)
        got = hyp2f1(Hyp2F1Params(1.0, -1.0, 1.5), 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=2e-16)

    def test_domain_errors(self):
        p = Hyp2F1Params(0.4, -0.4, 0.9)
        for z in (-0.1, 1.0000001, math.nan):
            with pytest.raises(ValueError):
                hyp2f1(p, z)

    def test_against_series_oracle_across_dispatch(self):
        # Covers both the direct-series region and the transformed region.
        for z in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for lam, mu, nu in ((0.8, -0.8, 0.75), (1.7, -1.7, 1.3),
                                (0.35, 0.6, 2.2)):
                got = hyp2f1(Hyp2F1Params(lam, mu, nu), z)
                ref = hyp2f1_series_kahan(lam, mu, nu, z)
                assert got == pytest.approx(ref, abs=1e-9), (lam, mu, nu, z)

    def test_documented_degenerate_gap(self):
        # Non-integer parameters whose nu - lam - mu is an exact integer
        # once exhausted the direct series near z = 1; the logarithmic
        # connection formula closes the gap.
        p = Hyp2F1Params(0.3, -0.3, 1.0)  # s = 1.0 exactly, non-terminating
        z = 1.0 - 1e-10
        assert hyp2f1(p, z) == pytest.approx(hyp2f1_mp(0.3, -0.3, 1.0, z), rel=1e-14)

    # (lam, mu) pairs for the integer-s cases; nu = lam + mu + s.
    LOG_CASE_PAIRS = [(0.3, -0.3), (1.7, -0.45), (0.25, 0.6), (2.3, 1.1), (-1.4, 0.8)]

    @pytest.mark.parametrize("s", [-1, 0, 1, 2])
    def test_integer_s_against_mpmath(self, s):
        for lam, mu in self.LOG_CASE_PAIRS:
            nu = lam + mu + s
            if nu <= 0.0 and nu == round(nu):
                continue  # 2F1 itself is undefined there
            for z in (0.76, 0.9, 0.99, 1.0 - 1e-5, 1.0 - 1e-9, 1.0 - 1e-13):
                got = hyp2f1(Hyp2F1Params(lam, mu, nu), z)
                assert got == pytest.approx(hyp2f1_mp(lam, mu, nu, z), rel=1e-12), (lam, mu, z)

    def test_euler_step_to_a_terminating_series(self):
        # s = -2; after Euler's transformation nu - lam = -1 terminates.
        for z in (0.8, 0.99, 1.0 - 1e-9, 1.0 - 1e-13):
            got = hyp2f1(Hyp2F1Params(1.7, 1.0, 0.7), z)
            assert got == pytest.approx(hyp2f1_mp(1.7, 1.0, 0.7, z), rel=1e-12), z

    @pytest.mark.parametrize("offset", [1e-12, -1e-12, 1e-9, 9.99e-7, -9.99e-7])
    def test_near_integer_band(self, offset):
        # The inversion family (a, -a; 1/2 + g) and its derivative family
        # (a + 1, 1 - a; 3/2 + g) with s just off an integer.
        for g in (0.5, 1.5, 2.5):
            for a in (0.3, 2.7, 6.1, 9.9):
                for z in (0.8, 0.99, 1.0 - 1e-7, 1.0 - 1e-15):
                    for lam, mu, nu in ((a, -a, 0.5 + g + offset),
                                        (a + 1.0, 1.0 - a, 1.5 + g + offset)):
                        got = hyp2f1(Hyp2F1Params(lam, mu, nu), z)
                        ref = hyp2f1_mp(lam, mu, nu, z)
                        assert abs(got - ref) <= 1e-10, (lam, mu, nu, z)

    def test_large_s_against_mpmath(self):
        # From s = 16 on, the direct series serves z > 3/4 only while its
        # terms never grow (|lam mu| <= nu, |lam| + |mu| <= nu + 1); just
        # past that, the 1 - z transformation, or at integer s the
        # logarithmic case, must agree with it.
        for lam, mu in ((4.5, -4.5), (4.6, -4.6), (3.9, 2.2), (4.3, 3.3), (30.3, -30.3)):
            for s in (16.0, 16.3, 20.0, 21.5 + 1e-9):
                nu = lam + mu + s
                for z in (0.8, 0.99, 1.0 - 1e-7, 1.0 - 1e-15):
                    got = hyp2f1(Hyp2F1Params(lam, mu, nu), z)
                    assert got == pytest.approx(hyp2f1_mp(lam, mu, nu, z), rel=1e-12,
                                                abs=1e-12), (lam, mu, s, z)

    def test_huge_s(self):
        # s about 1e6: the 1 - z transformation's second series would
        # overflow against an underflowing (1 - z)^s; the direct series
        # converges at once.
        lam, mu, nu = 1.3, -1.3, 1e6 + 0.8
        for z in (0.8, 0.88, 1.0 - 1e-9):
            ref = hyp2f1_series_kahan(lam, mu, nu, z)
            assert hyp2f1(Hyp2F1Params(lam, mu, nu), z) == pytest.approx(ref, rel=1e-15), z

    def test_log_case_overflow_is_typed(self):
        # s = 10001 with |lam mu| > nu: the logarithmic series grows as
        # (s (1 - z))^k / k! and overflows; that is reported, not a nan.
        with pytest.raises(specfun.ConvergenceError, match="overflowed"):
            hyp2f1(Hyp2F1Params(200.3, -200.3, 10001.0), 0.88)

    def test_float_range_overflow_is_typed(self):
        # s = -20.5 and -21: (1 - z)^s leaves the float range at
        # z = 1 - 2.3e-16, in the transform and in the Euler step.
        for lam, mu, nu in ((0.3, 20.7, 0.5), (0.3, 21.7, 1.0)):
            with pytest.raises(ValueError, match="float range"):
                hyp2f1(Hyp2F1Params(lam, mu, nu), 1.0 - 2.3e-16)

    def test_degenerate_family_still_fine_in_series_region(self):
        p = Hyp2F1Params(0.3, -0.3, 1.0)
        ref = hyp2f1_series_kahan(0.3, -0.3, 1.0, 0.7)
        assert hyp2f1(p, 0.7) == pytest.approx(ref, abs=1e-12)


class TestHyp2F1AtUnity:
    def test_frozen_value(self):
        # 40-digit arithmetic: F(1.2, -1.2; 1.7; 1)
        got = hyp2f1_at_unity(Hyp2F1Params(1.2, -1.2, 1.7))
        assert got == pytest.approx(0.25490867174658332608, abs=1e-14)

    def test_gauss_summation_identity(self):
        # F(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b)) for generic values
        a, b, c = 0.3, -0.7, 1.9
        expected = (gamma(c) * gamma(c - a - b)) / (gamma(c - a) * gamma(c - b))
        assert hyp2f1_at_unity(Hyp2F1Params(a, b, c)) == pytest.approx(
            expected, rel=1e-13)

    def test_pole_in_denominator_gives_zero(self):
        # nu - lam = -2 here: the reciprocal gamma vanishes and the value
        # is an exact zero (this is how the inversion nodes arise).
        assert hyp2f1_at_unity(Hyp2F1Params.for_inversion(2.7, 0.2)) == 0.0

    def test_divergent_raises(self):
        # c - a - b <= 0 diverges
        with pytest.raises(ValueError):
            hyp2f1_at_unity(Hyp2F1Params(1.0, 1.0, 1.5))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=0.05, max_value=3.0))
    def test_boundary_consistency_with_hyp2f1(self, alpha, gam):
        p = Hyp2F1Params.for_inversion(alpha, gam)
        assert abs(hyp2f1(p, 1.0) - hyp2f1_at_unity(p)) <= 1e-9
