"""Command-line interface tests: formats, exit codes, config precedence."""

import csv
import io
import json
import math
import struct
import subprocess
import sys

import pytest

from sechbloch import analytic, cli
from sechbloch.analytic import DimensionlessParams, w_infinity


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestWinf:
    def test_pi_pulse_point(self, capsys):
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "1",
                             "--gammaT", "0.3333333333333333")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["w_exact"]) == pytest.approx(0.5, abs=1e-10)

    def test_trivial_and_half_pi(self, capsys):
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "2", "--gammaT", "0")
        assert rc == 0
        assert float(list(csv.DictReader(io.StringIO(out)))[0]["w_exact"]) == -1.0
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "0.5", "--gammaT", "1")
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert float(row["w_exact"]) == pytest.approx(-2.0 / math.pi, abs=1e-11)

    def test_json_record(self, capsys):
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "1.5", "--gammaT", "0.5",
                             "--format", "json")
        assert rc == 0
        record = json.loads(out)
        assert record["alpha"] == 1.5
        assert record["gamma_t"] == 0.5
        expected = w_infinity(DimensionlessParams(1.5, 0.25))
        assert record["w_exact"] == pytest.approx(expected, rel=1e-11)
        for key in ("w_weak_dephasing", "weak_dephasing_hint",
                    "w_strong_dephasing", "strong_dephasing_hint",
                    "w_large_area", "large_area_hint"):
            assert key in record

    def test_large_area_null_at_zero_pulse(self, capsys):
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "0", "--gammaT", "1",
                             "--format", "json")
        assert rc == 0
        record = json.loads(out)
        assert record["w_large_area"] is None
        assert record["large_area_hint"] is None

    def test_large_area_empty_beyond_float_range(self, capsys):
        # The large-area envelope exceeds 1.8e308 here; the other cells
        # are still printed.
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "1", "--gammaT", "200")
        assert rc == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert row["w_large_area"] == "" and row["large_area_hint"] == ""
        assert float(row["w_exact"]) == pytest.approx(-199.0 / 201.0, abs=1e-12)

    def test_precision_17_round_trips(self, capsys):
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "0.777",
                             "--gammaT", "0.246", "--precision", "17")
        row = list(csv.DictReader(io.StringIO(out)))[0]
        exact = w_infinity(DimensionlessParams(0.777, 0.123))
        reparsed = float(row["w_exact"])
        assert struct.pack("<d", reparsed) == struct.pack("<d", exact)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "o.csv"
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "1", "--gammaT", "0",
                             "--output", str(path))
        assert rc == 0 and out == ""
        text = path.read_text(encoding="utf-8")
        assert text.startswith("alpha,GammaT,w_exact")
        assert "\r" not in text


class TestIntegrate:
    def test_csv_rows_and_summary(self, capsys):
        rc, out, err = run_cli(capsys, "integrate", "--alpha", "1",
                               "--gammaT", "0", "--points", "9")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert [c for c in rows[0]] == ["t_over_T", "u", "v", "w"]
        assert float(rows[0]["t_over_T"]) == -25.0
        assert float(rows[-1]["t_over_T"]) == 25.0
        assert float(rows[0]["w"]) == -1.0
        # coherent pi pulse: summary diff against the closed form is tiny
        assert "|w - w_exact| = " in err
        diff = float(err.rsplit("= ", 1)[1])
        assert diff <= 1e-8

    def test_integer_node_case(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "--alpha", "3",
                             "--gammaT", "1", "--points", "3")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert abs(float(rows[-1]["w"])) <= 1e-7

    def test_strong_dephasing_case(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "--alpha", "1",
                             "--gammaT", "4", "--points", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        final = float(rows[-1]["w"])
        assert final == pytest.approx(-math.exp(-0.5), rel=0.02)

    def test_json_in_band_summary(self, capsys):
        rc, out, err = run_cli(capsys, "integrate", "--alpha", "1",
                               "--gammaT", "0.5", "--points", "5",
                               "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["samples"]) == 5
        assert set(payload["samples"][0]) == {"t_over_t", "u", "v", "w"}
        assert payload["abs_diff"] <= 1e-6
        assert payload["w_exact"] == pytest.approx(
            w_infinity(DimensionlessParams(1.0, 0.25)), rel=1e-11)

    def test_integrator_flags(self, capsys):
        rc, out, _ = run_cli(capsys, "integrate", "--alpha", "0.5",
                             "--gammaT", "0.2", "--points", "3",
                             "--window-L", "30", "--rel-tol", "1e-8",
                             "--abs-tol", "1e-10")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[-1]["t_over_T"]) == 30.0

    def test_step_starvation_exits_3(self, capsys):
        rc, _, err = run_cli(capsys, "integrate", "--alpha", "1",
                             "--gammaT", "0.5", "--max-steps", "10")
        assert rc == 3
        assert "last accepted t" in err


class TestFigure:
    def test_fig1_default_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "fig1")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 601
        assert float(rows[-1]["GammaT"]) == 6.0

    def test_fig2_default_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "fig2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 801
        assert float(rows[-1]["area_over_pi"]) == 8.0
        assert "w_GammaT_0.01" in rows[0]

    def test_points_override_and_json(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "fig2", "--points", "5",
                             "--format", "json")
        payload = json.loads(out)
        assert len(payload) == 5
        assert "w_gamma_t_2" in payload[0]

    def test_unknown_figure_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["figure", "fig3"])
        assert exc_info.value.code == 2
        capsys.readouterr()


class TestVerifyCommand:
    def test_fast_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--level", "fast")
        assert rc == 0
        assert "[PASS]" in out
        assert "checks passed" in out

    def test_no_color_when_not_a_tty(self, capsys):
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 0
        assert "\x1b[" not in out

    def test_mutation_flips_exit_code(self, capsys, monkeypatch):
        original = analytic.w_infinity
        monkeypatch.setattr(analytic, "w_infinity", lambda p: -original(p))
        rc, out, _ = run_cli(capsys, "verify", "--level", "fast")
        assert rc == 1
        assert "[FAIL]" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["winf", "--alpha", "-1", "--gammaT", "1"],
        ["winf", "--alpha", "1", "--gammaT", "-0.5"],
        ["winf", "--alpha", "1", "--gammaT", "1", "--precision", "5"],
        ["winf", "--alpha", "1", "--gammaT", "1", "--precision", "18"],
        ["integrate", "--alpha", "1", "--gammaT", "1", "--points", "1"],
    ])
    def test_exit_2(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert "error" in err.lower()

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["winf", "--alpha", "1"])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_bad_config_line(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("precision\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, "winf", "--alpha", "1", "--gammaT", "1",
                             "--config", str(path))
        assert rc == 2 and "key=value" in err

    def test_missing_config_file(self, capsys):
        rc, _, err = run_cli(capsys, "winf", "--alpha", "1", "--gammaT", "1",
                             "--config", "/nonexistent/x.cfg")
        assert rc == 2


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nprecision = 8\nformat = json\n",
                        encoding="utf-8")
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "2", "--gammaT", "0.5",
                             "--config", str(path))
        assert rc == 0
        json.loads(out)  # config format applied
        rc, out, _ = run_cli(capsys, "winf", "--alpha", "2", "--gammaT", "0.5",
                             "--config", str(path), "--format", "csv")
        assert rc == 0
        assert out.startswith("alpha,")  # flag overrode config

    def test_config_integrator_values(self, capsys, tmp_path):
        path = tmp_path / "i.cfg"
        path.write_text("points=7\nwindow_L=20\n", encoding="utf-8")
        rc, out, _ = run_cli(capsys, "integrate", "--alpha", "1",
                             "--gammaT", "0.2", "--config", str(path))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        assert float(rows[-1]["t_over_T"]) == 20.0


class TestEntrypoint:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sechbloch", "winf",
             "--alpha", "1", "--gammaT", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("alpha,")
