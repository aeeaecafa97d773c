"""Self-check suite tests, including tamper sensitivity."""

import pytest

from sechbloch import analytic, specfun, verify
from sechbloch.verify import CheckResult, format_report, run_checks


class TestRunChecks:
    def test_fast_all_pass(self):
        results = run_checks("fast")
        assert len(results) >= 4
        assert all(r.passed for r in results), [r.name for r in results
                                                if not r.passed]

    def test_full_superset_and_passes(self):
        fast_names = [r.name for r in run_checks("fast")]
        full = run_checks("full")
        full_names = [r.name for r in full]
        assert set(fast_names) < set(full_names)
        assert all(r.passed for r in full), [r.name for r in full
                                             if not r.passed]
        # the named suites the full level must include
        assert "large_area_envelope" in full_names
        assert "weak_dephasing_order" in full_names

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            run_checks("paranoid")


class TestTamperSensitivity:
    def test_sign_mutation_in_w_infinity(self, monkeypatch):
        original = analytic.w_infinity
        monkeypatch.setattr(analytic, "w_infinity",
                            lambda p: -original(p))
        results = run_checks("fast")
        assert any(not r.passed for r in results)

    def test_perturbed_gamma_kernel(self, monkeypatch):
        original = specfun.ln_gamma
        monkeypatch.setattr(specfun, "ln_gamma",
                            lambda x: original(x) + 1e-6)
        results = run_checks("fast")
        assert any(not r.passed for r in results)

    def test_phase_shift_moves_the_nodes(self, monkeypatch):
        original = analytic.w_infinity
        monkeypatch.setattr(
            analytic, "w_infinity",
            lambda p: original(analytic.DimensionlessParams(p.alpha + 1e-3, p.gamma)))
        failed = {r.name for r in run_checks("fast") if not r.passed}
        assert "shifted_nodes" in failed

    def test_raising_implementation_is_reported_not_fatal(self, monkeypatch):
        def boom(p):
            raise RuntimeError("tampered")

        monkeypatch.setattr(analytic, "w_infinity", boom)
        results = run_checks("fast")
        assert any(not r.passed for r in results)


class TestReport:
    def test_format_lines(self):
        results = [
            CheckResult(name="alpha_check", measured=1e-12, tolerance=1e-9,
                        passed=True, detail="fine"),
            CheckResult(name="beta_check", measured=2.0, tolerance=1.0,
                        passed=False, detail="broken"),
        ]
        text = format_report(results, color=False)
        lines = text.splitlines()
        assert lines[0].startswith("[PASS] alpha_check")
        assert lines[1].startswith("[FAIL] beta_check")
        assert "1/2 checks passed" in lines[-1]
        assert "\x1b[" not in text

    def test_color_codes(self):
        results = [CheckResult(name="c", measured=0.0, tolerance=1.0,
                               passed=True, detail="")]
        assert "\x1b[" in format_report(results, color=True)
