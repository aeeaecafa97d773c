"""Sweep, root-finding, and figure-dataset tests."""

import math
import os
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import extremum_mp, trigamma_mp
from sechbloch import sweep
from sechbloch.analytic import DimensionlessParams, w_infinity
from sechbloch.bloch_ode import IntegratorConfig
from sechbloch.sweep import (
    FIG1_ALPHAS,
    FIG2_GAMMA_TS,
    Engine,
    RootResult,
    SweepSpec,
    SweepVariable,
    amplitude_envelope_fit,
    figure1_dataset,
    figure2_dataset,
    find_extremum,
    find_node,
    run_sweep,
)
from sechbloch.specfun import ConvergenceError

_REPO = Path(__file__).resolve().parents[1]


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.GAMMA, start=1.0, stop=0.5, points=10,
                      fixed=1.0)
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.GAMMA, start=0.0, stop=1.0, points=1,
                      fixed=1.0)
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.GAMMA, start=0.0, stop=1.0, points=10,
                      fixed=-1.0)


class TestRunSweep:
    def test_pi_pulse_rows(self):
        # Varying gamma at alpha = 1 must land on (1-2g)/(1+2g).
        spec = SweepSpec(SweepVariable.GAMMA, start=0.0, stop=3.0, points=61,
                         fixed=1.0)
        result = run_sweep(spec)
        assert len(result.rows) == 61
        for row in result.rows:
            expected = (1.0 - 2.0 * row.x) / (1.0 + 2.0 * row.x)
            assert row.w_analytic == pytest.approx(expected, abs=1e-12)
            assert row.w_ode is None and row.abs_diff is None

    def test_fig2_style_nodes_at_integer_alpha(self):
        # gamma = 1/2 (GammaT = 1) puts nodes at every positive integer area;
        # `fixed` is the non-swept DimensionlessParams member, so gamma here.
        spec = SweepSpec(SweepVariable.AREA_OVER_PI, start=0.0, stop=8.0,
                         points=81, fixed=0.5)
        result = run_sweep(spec)
        for row in result.rows:
            if row.x > 0 and abs(row.x - round(row.x)) < 1e-12:
                assert abs(row.w_analytic) <= 1e-9

    def test_engine_both_cross_checks(self):
        spec = SweepSpec(SweepVariable.ALPHA, start=0.5, stop=1.5, points=3,
                         fixed=0.5, engine=Engine.BOTH)
        result = run_sweep(spec)
        for row in result.rows:
            assert row.abs_diff is not None and row.abs_diff <= 1e-6

    def test_gamma_t_variable_converts(self):
        spec = SweepSpec(SweepVariable.GAMMA_T, start=1.0, stop=1.0 + 1e-9,
                         points=2, fixed=1.0)
        row = run_sweep(spec).rows[0]
        assert row.w_analytic == pytest.approx(
            w_infinity(DimensionlessParams(1.0, 0.5)), abs=1e-15)

    def test_determinism(self):
        spec = SweepSpec(SweepVariable.ALPHA, start=0.0, stop=5.0, points=41,
                         fixed=0.7)
        r1 = run_sweep(spec)
        r2 = run_sweep(spec)
        assert r1.rows == r2.rows
        assert r1.metadata["fingerprint"] == r2.metadata["fingerprint"]

    def test_row_level_failure_is_noted_not_fatal(self):
        spec = SweepSpec(SweepVariable.ALPHA, start=0.5, stop=1.5, points=2,
                         fixed=0.2, engine=Engine.ODE)
        starved = IntegratorConfig(max_steps=10, sample_count=2)
        result = run_sweep(spec, integrator=starved)
        for row in result.rows:
            assert row.w_ode is None
            assert row.note is not None


class TestFindNode:
    def test_trivial_and_shifted(self):
        assert find_node(0, 0.0).alpha_root == pytest.approx(0.5, abs=1e-9)
        assert find_node(0, 0.5).alpha_root == pytest.approx(1.0, abs=1e-9)
        assert find_node(2, 0.2).alpha_root == pytest.approx(2.7, abs=1e-9)

    def test_result_contract(self):
        r = find_node(3, 0.4)
        assert isinstance(r, RootResult)
        lo, hi = r.bracket
        assert lo < r.alpha_root < hi
        assert abs(r.residual) <= 1e-10
        assert abs(w_infinity(DimensionlessParams(r.alpha_root, 0.4))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.0, max_value=1.0))
    def test_node_law(self, n, g):
        assert abs(find_node(n, g).alpha_root - (n + 0.5 + g)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=4),
           st.floats(min_value=0.0, max_value=1.5))
    def test_unit_spacing(self, n, g):
        d = find_node(n + 1, g).alpha_root - find_node(n, g).alpha_root
        assert abs(d - 1.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            find_node(-1, 0.5)
        with pytest.raises(ValueError):
            find_node(0, -0.1)


class TestFindExtremum:
    def test_coherent_maximum(self):
        assert find_extremum(1, 0.0).alpha_root == pytest.approx(1.0, abs=1e-7)

    def test_small_gamma_locations(self):
        # First order in gamma the nth stationary point sits at n + gamma;
        # the amplitude factor shifts it down by 2 g psi'(n + 1/2) / pi^2
        # (0.00947 for n=1, g=0.05), which is why the frozen truth is
        # 1.040857 rather than 1.05.
        assert find_extremum(1, 0.05).alpha_root == pytest.approx(1.040857,
                                                                  abs=1e-3)
        assert find_extremum(2, 0.05).alpha_root == pytest.approx(2.05,
                                                                  abs=5e-3)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 12, 20, 40, 60, 1000))
    def test_against_mpmath(self, n):
        for g in (0.0, 0.01, 0.5, 1.0, 2.0, 3.0, 20.0, 100.0):
            root = find_extremum(n, g).alpha_root
            ref = extremum_mp(n, g)
            assert abs(root - ref) <= 1e-13 * max(1.0, ref), (n, g, root, ref)

    def test_first_order_shift(self):
        # The small-gamma limit of the fixed point: the root sits
        # 2 gamma psi'(n + 1/2) / pi^2 below n + gamma, up to O(gamma^2).
        for n in (1, 2, 5, 20):
            for g in (1e-3, 1e-4, 1e-5):
                shift = find_extremum(n, g).alpha_root - (n + g)
                first = -2.0 * g * trigamma_mp(n + 0.5) / math.pi ** 2
                assert abs(shift / first - 1.0) <= 2.0 * g, (n, g, shift, first)

    def test_result_contract(self):
        r = find_extremum(3, 0.4)
        lo, hi = r.bracket
        assert lo < r.alpha_root < hi
        assert abs(r.residual) <= 1e-6  # d ln|w| / d alpha at the root

    def test_unsettled_map_raises(self, monkeypatch):
        # A digamma whose differences alternate between 10 and 0 makes the
        # map hop between two shifts forever; the step cap must stop it.
        calls = count()
        monkeypatch.setattr(sweep, "digamma",
                            lambda x: 10.0 if next(calls) % 4 == 0 else 0.0)
        with pytest.raises(ConvergenceError):
            find_extremum(2, 0.3)

    def test_is_a_local_extremum(self):
        for n, g in ((1, 0.25), (2, 0.7), (4, 1.2)):
            r = find_extremum(n, g)
            w0 = w_infinity(DimensionlessParams(r.alpha_root, g))
            w_lo = w_infinity(DimensionlessParams(r.alpha_root - 0.05, g))
            w_hi = w_infinity(DimensionlessParams(r.alpha_root + 0.05, g))
            if n % 2 == 1:  # odd n: maximum
                assert w0 > w_lo and w0 > w_hi
            else:
                assert w0 < w_lo and w0 < w_hi

    def test_validation(self):
        with pytest.raises(ValueError):
            find_extremum(0, 0.5)


class TestEnvelopeFit:
    def test_known_exponents(self):
        assert amplitude_envelope_fit(0.5, (20, 60)) == pytest.approx(-1.0,
                                                                      abs=0.02)
        assert amplitude_envelope_fit(0.25, (20, 60)) == pytest.approx(-0.5,
                                                                       abs=0.02)

    def test_flat_at_vanishing_gamma(self):
        assert abs(amplitude_envelope_fit(1e-6, (20, 40))) <= 1e-4

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            amplitude_envelope_fit(0.5, (20, 22))

    def test_validation(self):
        with pytest.raises(ValueError):
            amplitude_envelope_fit(0.0, (20, 60))


class TestFigureDatasets:
    def test_fig1_layout_and_content(self):
        header, rows = figure1_dataset()
        assert header[0] == "GammaT"
        assert len(header) == 1 + len(FIG1_ALPHAS)
        assert len(rows) == 601
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(6.0)
        col = header.index("w_alpha_1")
        for row in rows[::60]:
            gt = row[0]
            assert row[col] == pytest.approx((1.0 - gt) / (1.0 + gt),
                                             abs=1e-12)

    def test_fig2_layout_and_content(self):
        header, rows = figure2_dataset()
        assert header[0] == "area_over_pi"
        assert len(header) == 1 + len(FIG2_GAMMA_TS)
        assert len(rows) == 801
        assert rows[-1][0] == pytest.approx(8.0)
        col = header.index("w_GammaT_1")
        for row in rows:
            x = row[0]
            if x > 0 and abs(x - round(x)) < 1e-12:
                assert abs(row[col]) <= 1e-9  # integer areas are nodes

    def test_point_count_override(self):
        _, rows = figure1_dataset(points=31)
        assert len(rows) == 31
        _, rows = figure2_dataset(points=11)
        assert len(rows) == 11


def test_reproduce_figures_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(_REPO / "scripts" / "reproduce_figures.py"),
         "--outdir", str(tmp_path), "--points", "11"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    for name in ("fig1.csv", "fig2.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 12
    # GammaT = 1 puts the nth node at n + 1 exactly.
    assert "  1     2.000000" in proc.stdout
    assert "A_0.1 = 3.18" in proc.stdout
