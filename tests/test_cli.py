import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenqubit import RegimeWarning, cli, rates
from drivenqubit.cli import (_CHUNK_ROWS, FLOAT_FMT, _format_fields,
                             _write_csv, build_parser, main)

from _oracles import bessel_series, coth_exp, rate_dd_series


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


class TestRates:

    def test_prints_report(self, capsys):
        assert main(["rates", "--drive", "dd", "--amp-ratio", "2.4",
                     "--omega", "1000", "--temperature", "10"]) == 0
        out = capsys.readouterr().out
        assert "Gamma_eff" in out and "eta" in out

    def test_csv_row(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--drive", "none", "--alpha", "0.01",
                     "--temperature", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape[0] == 1
        gamma_eff = rows[0][header.index("gamma_eff")]
        assert gamma_eff == pytest.approx(math.pi * 0.01 / math.tanh(0.5),
                                          rel=1e-9)
        assert rows[0][header.index("gamma")] == pytest.approx(2 * gamma_eff,
                                                               rel=1e-9)

    def test_cdt_j0_zero_reports_vanishing_splitting(self, capsys):
        assert main(["rates", "--drive", "cdt", "--amp-ratio", "2.404825",
                     "--omega", "1000"]) == 0
        out = capsys.readouterr().out
        delta_eff = float(out.splitlines()[1].split(":")[1].split()[0])
        assert abs(delta_eff) < 1e-5

    def test_cdt_j0_zero_at_the_largest_temperature(self, capsys):
        # Gamma_CDT = S(0)/2 = 2*pi*alpha*T; 2T itself overflows a double
        assert main(["rates", "--drive", "cdt", "--amp-ratio",
                     "2.404825557695773", "--temperature", "1e308"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "Gamma_eff    : 6.28318531e+306  [Delta]"
        assert lines[-1] == "eta_cdt      : 2.50000000e-01"

    def test_dd_rate_at_huge_coupling_is_finite(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--drive", "dd", "--amp-ratio", "2.4",
                     "--omega", "100", "--alpha", "5e304",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert np.isfinite(rows).all()
        assert rows[0][header.index("gamma_eff")] == pytest.approx(
            1.70625817e307, rel=1e-8)

    def test_nan_parameter_is_usage_error(self, capsys):
        for argv, name in (
                (["rates", "--alpha", "nan"], "alpha"),
                (["rates", "--temperature", "inf"], "temperature"),
                (["evolve", "--temperature", "inf", "--t-max", "1"],
                 "temperature"),
                (["rates", "--drive", "dd", "--amp-ratio", "2.4",
                  "--omega-c", "inf"], "omega_c"),
                (["rates", "--drive", "dd", "--amp-ratio", "2.4",
                  "--omega", "inf"], "finite omega"),
                (["rates", "--drive", "cdt", "--amp-ratio", "inf"],
                 "amp_ratio")):
            assert main(argv) == 2
            assert name in capsys.readouterr().err

    def test_dd_beyond_the_harmonic_limit_is_usage_error(self, capsys):
        assert main(["rates", "--drive", "dd", "--amp-ratio", "1e6",
                     "--omega", "10"]) == 2
        assert "x = 2A/Omega = 1e+06" in capsys.readouterr().err

    @pytest.mark.parametrize("drive, label", [
        ("none", None), ("dd", "eta"), ("cdt", "eta_cdt")])
    def test_eta_label_names_the_drive(self, tmp_path, capsys, drive, label):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--drive", drive, "--amp-ratio", "1.0",
                     "--omega", "1000", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        _, header, _ = read_csv(out)
        if label is None:
            assert len(lines) == 5 and header[-1] == "gamma_avg"
        else:
            assert len(lines) == 6 and header[-1] == label
            assert lines[-1].startswith(f"{label:<13}: ")

    def test_harmonic_cap_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--drive", "dd", "--n-max", "64"])
        assert exc.value.code == 2
        assert "--n-max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rates", "evolve"])
def test_several_temperatures_are_usage_error(tmp_path, capsys, command):
    assert main([command, "--temperature", "0.1", "--temperature", "1",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert f"{command} takes one temperature" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, name", [
    (["rates", "--drive", "none", "--amp-ratio", "-1"], "amp_ratio"),
    (["scan", "--sweep", "amp_ratio", "--min", "-5", "--max", "5",
      "--points", "3"], "amp_ratio"),
    (["evolve", "--drive", "none", "--omega", "-5", "--t-max", "1"],
     "omega"),
], ids=["rates", "scan", "evolve"])
def test_undriven_drive_parameters_are_checked(tmp_path, capsys, argv, name):
    # an undriven run checks x and Omega as a driven one does: no file
    # records a negative value
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == \
        f"error: {name} must be finite and non-negative\n"
    assert not (tmp_path / "out.csv").exists()


class TestScan:

    def test_two_points(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--sweep", "omega", "--min", "100", "--max",
                     "200", "--points", "2", "--drive", "dd",
                     "--amp-ratio", "2.4", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape[0] == 2
        assert header[0] == "omega"
        assert "eta" in header

    def test_amp_ratio_sweep_traces_bessel(self, tmp_path):
        out = tmp_path / "cdt.csv"
        assert main(["scan", "--sweep", "amp_ratio", "--min", "0", "--max",
                     "5", "--points", "41", "--drive", "cdt", "--omega",
                     "1000", "--temperature", "0", "--out", str(out)]) == 0
        from drivenqubit import bessel_j, rate_static, BathSpec
        _, header, rows = read_csv(out)
        gamma = rate_static(BathSpec(0.01, 500.0, 0.0))
        for x, gamma_eff in zip(rows[:, 0], rows[:, header.index("gamma_eff")]):
            assert gamma_eff == pytest.approx(gamma * abs(bessel_j(0, x)),
                                              rel=1e-6, abs=1e-12)

    def test_one_file_per_temperature(self, tmp_path):
        out = tmp_path / "multi.csv"
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "1000", "--points", "3", "--spacing", "log",
                     "--drive", "dd", "--amp-ratio", "2.4",
                     "--temperature", "1", "--temperature", "10",
                     "--out", str(out)]) == 0
        for suffix in ("multi_T1.csv", "multi_T10.csv"):
            _, _, rows = read_csv(tmp_path / suffix)
            assert rows.shape[0] == 3

    def test_per_temperature_names_split_the_file_name_only(self, tmp_path):
        (tmp_path / "run.v2").mkdir()
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "100", "--points", "2", "--temperature", "0.1",
                     "--temperature", "1",
                     "--out", str(tmp_path / "run.v2" / "scan")]) == 0
        assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == \
            ["scan_T0.1", "scan_T1"]

    def test_temperatures_sharing_a_file_name_are_usage_error(self, tmp_path,
                                                              capsys):
        # both temperatures print as 0.1 under %g: no file is written
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "20", "--points", "2", "--temperature", "0.1000001",
                     "--temperature", "0.1000002",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: temperatures 0.1000001 and 0.1000002 both write "
            f"{tmp_path / 's_T0.1.csv'}\n")
        assert list(tmp_path.iterdir()) == []

    def test_dash_writes_every_temperature_to_stdout(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "100", "--points", "2", "--temperature", "0.1",
                     "--temperature", "1", "--out", "-"]) == 0
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        first = out.index("# temperature = 0.1\n")
        assert out.index("# temperature = 1.0\n") > first
        assert out.count("omega,delta_eff") == 2
        # each table's two data lines follow its own header
        lines = out.splitlines()
        tables = [i for i, line in enumerate(lines)
                  if line.startswith("omega,")]
        assert [lines[i + 1].split(",")[0] for i in tables] == \
            [FLOAT_FMT % 10.0] * 2
        assert len(lines) == tables[1] + 3

    def test_one_harmonic_sum_per_dd_file(self, tmp_path, monkeypatch):
        calls = []
        harmonic_sum = rates.dd_harmonic_sum

        def counting(*args, **kwargs):
            calls.append(args)
            return harmonic_sum(*args, **kwargs)

        monkeypatch.setattr(rates, "dd_harmonic_sum", counting)
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "1000", "--points", "30", "--spacing", "log",
                     "--drive", "dd", "--amp-ratio", "2.4",
                     "--temperature", "1", "--temperature", "10",
                     "--out", str(tmp_path / "dd.csv")]) == 0
        assert len(calls) == 2
        assert main(["fig1", "--amp-ratio", "1.7",
                     "--out", str(tmp_path / "fig1.csv")]) == 0
        assert len(calls) == 3
        # the x of every frequency grid is the flag's number, one 0-d value
        xs = [drive.amp_ratio for drive, _ in calls]
        assert [np.ndim(x) for x in xs] == [0, 0, 0]
        assert xs == [2.4, 2.4, 1.7]

    # at x = 50 the bound on J_n from the Bessel ratio recurrence
    # (driving._harmonic_count) takes 81 harmonics
    @pytest.mark.parametrize("drive, line", [("dd", "# harmonics = 81"),
                                             ("cdt", None), ("none", None)])
    def test_dd_files_record_harmonic_count(self, tmp_path, drive, line):
        out = tmp_path / "x.csv"
        assert main(["scan", "--sweep", "amp_ratio", "--min", "0", "--max",
                     "50", "--points", "11", "--drive", drive, "--omega",
                     "20", "--temperature", "1", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        counts = [c for c in comments if c.startswith("# harmonics")]
        assert counts == ([line] if line else [])

    @pytest.mark.parametrize("drive", ["none", "cdt", "dd"])
    @pytest.mark.parametrize("sweep, lo, hi", [("temperature", 0.2, 10.0),
                                               ("alpha", 0.001, 0.02)])
    def test_bath_sweeps_match_closed_forms(self, tmp_path, drive, sweep,
                                            lo, hi):
        out = tmp_path / "bath.csv"
        x, omega = 1.0, 700.0
        assert main(["scan", "--sweep", sweep, "--min", str(lo), "--max",
                     str(hi), "--points", "12", "--drive", drive,
                     "--amp-ratio", str(x), "--omega", str(omega),
                     "--temperature", "1", "--alpha", "0.01",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert rows.shape == (12, 4 if drive == "none" else 5)
        assert np.allclose(rows[:, 0], np.linspace(lo, hi, 12), rtol=1e-8)
        for row in rows:
            alpha = row[0] if sweep == "alpha" else 0.01
            temperature = row[0] if sweep == "temperature" else 1.0
            delta_eff = bessel_series(0, x) if drive == "cdt" else 1.0
            if drive == "dd":
                gamma_eff = rate_dd_series(x, omega, alpha, 500.0,
                                           temperature)
            else:
                gamma_eff = (math.pi * alpha * abs(delta_eff)
                             * coth_exp(abs(delta_eff) / (2 * temperature)))
            expected = [delta_eff, gamma_eff, 2 * gamma_eff]
            if drive != "none":
                gamma = math.pi * alpha * coth_exp(1 / (2 * temperature))
                expected.append(gamma / (4 * gamma_eff))
            assert row[1:] == pytest.approx(expected, rel=1e-8)

    def test_low_frequency_points_warn_once_with_count(self, tmp_path):
        with pytest.warns(RegimeWarning) as record:
            assert main(["scan", "--sweep", "omega", "--min", "2", "--max",
                         "20", "--points", "19", "--drive", "dd",
                         "--amp-ratio", "2.4",
                         "--out", str(tmp_path / "low.csv")]) == 0
        messages = [str(w.message) for w in record
                    if issubclass(w.category, RegimeWarning)]
        assert len(messages) == 1
        assert "Omega >= 10" in messages[0]
        assert "(8 of 19 points)" in messages[0]

    @pytest.mark.parametrize("drive", ["none", "dd"])
    def test_alpha_scan_to_the_largest_double_is_quiet(self, tmp_path,
                                                        drive):
        # an alpha array once overflowed outside the spectrum's errstate;
        # the only warning left is the weak-coupling one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scan", "--sweep", "alpha", "--min", "0", "--max",
                         "1e308", "--points", "50", "--drive", drive,
                         "--amp-ratio", "2.4", "--omega", "100",
                         "--out", str(tmp_path / "alpha.csv")]) == 0
        assert [(w.category, str(w.message)[:13]) for w in caught] == \
            [(RegimeWarning, "weak-coupling")]

    def test_regime_warning_prints_its_message(self, tmp_path, capsys,
                                               monkeypatch):
        # the suite records warnings; print them here as Python's default
        # showwarning does, through warnings.formatwarning
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category,
                                                    filename, lineno, line))

        monkeypatch.setattr(warnings, "showwarning", show)
        python_format = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always", RegimeWarning)
            assert main(["scan", "--sweep", "alpha", "--min", "0.001",
                         "--max", "0.05", "--points", "5",
                         "--out", str(tmp_path / "alpha.csv")]) == 0
        assert capsys.readouterr().err == (
            "warning: weak-coupling condition alpha*ln(omega_c) << 1 "
            "violated; Markovian rates are unreliable here (3 of 5 "
            "points)\n")
        assert warnings.formatwarning is python_format

    @pytest.mark.parametrize("sweep, drive, message", [
        ("omega", "dd", "omega > 0"), ("amp_ratio", "cdt", "amp_ratio"),
        ("temperature", "none", "temperature"), ("alpha", "dd", "alpha")])
    def test_invalid_grid_point_is_usage_error(self, capsys, sweep, drive,
                                               message):
        # the grid -1, 0, 1 starts outside the valid range
        assert main(["scan", "--sweep", sweep, "--min", "-1", "--max", "1",
                     "--points", "3", "--drive", drive]) == 2
        assert message in capsys.readouterr().err

    def test_log_spacing_requires_positive_min(self, capsys):
        assert main(["scan", "--sweep", "omega", "--min", "0", "--max", "10",
                     "--points", "3", "--spacing", "log"]) == 2
        assert "min" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", ["-5", "0"])
    def test_log_spacing_requires_positive_max(self, tmp_path, capsys, stop):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     stop, "--points", "3", "--spacing", "log",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: log spacing requires min > 0 and max > 0\n"
        assert not out.exists()

    def test_missing_sweep_is_usage_error(self, capsys):
        assert main(["scan", "--min", "1", "--max", "2", "--points", "2"]) \
            == 2
        assert "sweep" in capsys.readouterr().err

    def test_one_point_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "20", "--points", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: sweeps need at least 2 points\n"
        assert not out.exists()

    def test_other_warnings_keep_python_format(self, tmp_path, capsys,
                                               monkeypatch):
        # a warning that is not a RegimeWarning, raised inside main, is
        # shown as Python's own formatwarning writes it
        build_report = cli.build_report

        def warning_report(*args):
            warnings.warn("not a regime warning", UserWarning)
            return build_report(*args)

        shown = []

        def show(message, category, filename, lineno, file=None, line=None):
            shown.append((warnings.formatwarning(message, category,
                                                 filename, lineno, line),
                          python_format(message, category, filename,
                                        lineno, line)))

        monkeypatch.setattr(cli, "build_report", warning_report)
        monkeypatch.setattr(warnings, "showwarning", show)
        python_format = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                         "20", "--points", "2",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        [(text, python_text)] = shown
        assert text == python_text
        assert "UserWarning: not a regime warning" in text


class TestEvolve:

    def test_fixed_point_rows_constant(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--alpha", "0", "--s0", "0,0,1",
                     "--t-max", "5", "--dt-out", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "s_x", "s_y", "s_z", "S", "Sdot"]
        assert np.allclose(rows[:, 3], 1.0, atol=1e-8)
        assert np.allclose(rows[:, 4], 0.0, atol=1e-8)

    def test_long_run_thermalizes(self, tmp_path):
        out = tmp_path / "therm.csv"
        assert main(["evolve", "--alpha", "0.01", "--temperature", "1",
                     "--s0", "0,0,1", "--t-max", "700", "--dt-out", "50",
                     "--tol", "1e-10", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[-1, 3] == pytest.approx(-math.tanh(0.5), abs=1e-6)

    def test_cdt_freeze(self, tmp_path):
        out = tmp_path / "freeze.csv"
        assert main(["evolve", "--alpha", "0", "--drive", "cdt",
                     "--amp-ratio", "2.404825557695773", "--omega", "100",
                     "--s0", "1,0,0", "--t-max", "3.14", "--dt-out", "0.02",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert np.min(rows[:, 1]) > 1.0 - 1e-3

    def test_divergence_message_shows_excess_over_one(self, tmp_path,
                                                       capsys):
        # the default s0 = (1, 0, 0) sits on the Bloch sphere; the CDT run
        # pushes |s| above 1 + 100*tol within the first drive period
        assert main(["evolve", "--drive", "cdt", "--amp-ratio", "2.4",
                     "--omega", "100", "--t-max", "0.1",
                     "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        excess = float(err.split("|s| reached 1 + ")[1].split(",")[0])
        assert excess > 100 * 1e-9

    def test_driven_header_records_substeps(self, tmp_path):
        out = tmp_path / "dd.csv"
        argv = ["evolve", "--drive", "dd", "--amp-ratio", "2.4", "--omega",
                "100", "--t-max", "20", "--dt-out", "0.5", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        comments, _, _ = read_csv(out)
        (substeps,) = [c for c in comments if c.startswith("# substeps = ")]
        (error,) = [c for c in comments if c.startswith("# period_error = ")]
        n = int(substeps.split(" = ")[1])
        assert n > 0 and n & (n - 1) == 0
        periods = math.ceil(20.0 * 100.0 / (2.0 * math.pi))
        assert 0.0 < periods * float(error.split(" = ")[1]) <= 1e-9
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert main(["evolve", "--t-max", "5", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert not [c for c in comments
                    if c.startswith(("# substeps", "# period_error"))]

    def test_bad_s0_is_usage_error(self, capsys):
        assert main(["evolve", "--s0", "1,0"]) == 2
        assert "s0" in capsys.readouterr().err

    def test_non_numeric_s0_names_the_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--s0", "1,0,x"])
        assert exc.value.code == 2
        assert "argument --s0: invalid" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s0 = 1,0,x\n")
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "config key 's0'" in capsys.readouterr().err

    def test_negative_first_s0_component_in_equals_form(self, tmp_path):
        # argparse takes '-0.3,0.4,0.5' after a space for an option
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--s0", "-0.3,0.4,0.5"])
        assert exc.value.code == 2
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--s0=-0.3,0.4,0.5", "--t-max", "1",
                     "--out", str(out)]) == 0
        comments, _, rows = read_csv(out)
        assert "# s0 = -0.3,0.4,0.5" in comments
        assert rows[0, 1:4].tolist() == [-0.3, 0.4, 0.5]

    @pytest.mark.parametrize("flags", [["--dt-out", "0"], ["--dt-out", "-1"],
                                       ["--s0=nan,0,0"],
                                       ["--dt-out", "1e-300"]])
    def test_bad_sampling_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--t-max", "5", *flags, "--out", str(out)]) \
            == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_more_periods_than_an_int64_is_usage_error(self, tmp_path,
                                                       capsys):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--drive", "cdt", "--amp-ratio", "1",
                     "--omega", "1e25", "--t-max", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: t_max / T = 1.59e+24: more drive periods than a 64-bit "
            "integer can count\n")
        assert not out.exists()


class TestFig1:

    def test_format_contract(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert rows.shape == (200, 4)
        assert header == ["omega", "eta_T0.1", "eta_T1", "eta_T10"]
        assert any("0.25" in c for c in comments)
        assert any("eta = 1" in c for c in comments)
        # x = 2.4 and omega_c = 500: the DD sum's tail bound stops at 13
        assert "# harmonics = 13" in comments

    def test_eta_grows_with_frequency(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["fig1", "--out", str(out)])
        _, _, rows = read_csv(out)
        for col in (1, 2, 3):
            assert rows[0, col] < rows[-1, col]

    def test_high_temperature_wins_at_high_frequency(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["fig1", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert rows[-1, 3] > rows[-1, 2] > rows[-1, 1]

    def test_temperatures_sharing_a_column_name_are_usage_error(
            self, tmp_path, capsys):
        # both temperatures print as 0.1 under %g: no file is written
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--temperature", "0.1", "--temperature",
                     "0.1000001", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: temperatures 0.1 and 0.1000001 both write eta_T0.1\n")
        assert not out.exists()

    def test_zero_coupling_writes_finite_eta(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--alpha", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out)
        assert np.isfinite(rows).all()
        # at alpha = 1e308 every rate overflows, and eta is the same
        assert main(["fig1", "--alpha", "1e308", "--out", str(out)]) == 0
        _, _, huge = read_csv(out)
        assert np.array_equal(huge, rows)

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(["fig1", "--out", str(out)])
        first = out.read_bytes()
        main(["fig1", "--out", str(out)])
        assert out.read_bytes() == first


class TestConfigFile:

    def test_config_supplies_values_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.02\n"
                       "drive = dd\n"
                       "amp-ratio = 2.4\n"
                       "omega = 1000  # high-frequency point\n"
                       "temperature = 10\n")
        out1 = tmp_path / "a.csv"
        assert main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
        _, header, rows = read_csv(out1)
        assert rows[0][header.index("temperature")] == 10.0

        out2 = tmp_path / "b.csv"
        assert main(["rates", "--config", str(cfg), "--temperature", "2",
                     "--out", str(out2)]) == 0
        _, header, rows = read_csv(out2)
        assert rows[0][header.index("temperature")] == 2.0

    @pytest.mark.parametrize("line", [
        "spacing = cubic", "sweep = delta", "drive = sx"],
        ids=["spacing", "sweep", "drive"])
    def test_bad_choice_rejected_like_the_flag(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg), "--sweep", "omega",
                     "--min", "10", "--max", "20", "--points", "2",
                     "--out", str(out)]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    def test_dashed_sweep_value_names_the_column(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("sweep = amp-ratio\n")
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg), "--min", "0", "--max",
                     "1", "--points", "2", "--drive", "cdt",
                     "--out", str(out)]) == 0
        _, header, _ = read_csv(out)
        assert header[0] == "amp_ratio"

    def test_dashed_sweep_flag_names_the_column(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--sweep", "amp-ratio", "--min", "0", "--max",
                     "1", "--points", "2", "--drive", "cdt",
                     "--out", str(out)]) == 0
        _, header, _ = read_csv(out)
        assert header[0] == "amp_ratio"

    def test_line_without_equals_names_its_place(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\nalpha = 0.02\nomega 5\n")
        assert main(["rates", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:3: expected 'key = value'\n"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("omega_r = 3", "seed = 0", "workers = 2", "n_max = 64"):
            cfg.write_text(line + "\n")
            assert main(["rates", "--config", str(cfg)]) == 2

    def test_fig1_defaults_yield_to_config_and_flags(self, tmp_path):
        cfg = tmp_path / "fig1.cfg"
        cfg.write_text("amp_ratio = 1.0\ntemperature = 2\n")
        out = tmp_path / "a.csv"
        assert main(["fig1", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, _ = read_csv(out)
        assert "# amp_ratio = 1.0" in comments
        assert header == ["omega", "eta_T2"]
        assert main(["fig1", "--config", str(cfg), "--amp-ratio", "3.0",
                     "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert "# amp_ratio = 3.0" in comments

    def test_float_format_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        main(["rates", "--out", str(out)])
        with open(out) as fh:
            data_line = [l for l in fh if not l.startswith("#")][1]
        for field in data_line.strip().split(","):
            mantissa = field.split("e")[0]
            assert len(mantissa.replace("-", "").replace(".", "")) == 9


class TestOptionsPerCommand:
    """Each command takes, and its CSV header records, its own options."""

    @pytest.mark.parametrize("command, flags", [
        ("fig1", ["--drive", "cdt"]), ("fig1", ["--omega", "5"]),
        ("fig1", ["--tol", "1e-3"]), ("rates", ["--tol", "1e-3"]),
        ("scan", ["--tol", "1e-3"]), ("rates", ["--s0", "0,0,1"]),
        ("evolve", ["--sweep", "omega"])])
    def test_flag_of_another_command_is_gone(self, tmp_path, capsys,
                                             command, flags):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("rates", "s0 = 9,9,9"), ("fig1", "drive = cdt"),
        ("fig1", "omega = 5"), ("scan", "tol = 1e-3"),
        ("evolve", "points = 3")])
    def test_config_key_of_another_command_is_rejected(self, tmp_path,
                                                       capsys, command,
                                                       line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) \
            == 2
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, keys", [
        (["rates", "--drive", "cdt", "--amp-ratio", "1"],
         "alpha omega_c temperature drive amp_ratio omega out"),
        (["scan", "--sweep", "omega", "--min", "10", "--max", "100",
          "--points", "2", "--drive", "dd", "--amp-ratio", "2.4",
          "--omega", "55"],
         "alpha omega_c temperature drive amp_ratio out sweep min max "
         "points spacing harmonics"),
        (["scan", "--sweep", "temperature", "--min", "1", "--max", "2",
          "--points", "2", "--drive", "cdt", "--temperature", "3"],
         "alpha omega_c drive amp_ratio omega out sweep min max points "
         "spacing"),
        (["evolve", "--t-max", "1"],
         "alpha omega_c temperature drive amp_ratio omega out tol s0 t_max "
         "dt_out"),
        (["evolve", "--drive", "dd", "--amp-ratio", "2.4", "--t-max", "1"],
         "alpha omega_c temperature drive amp_ratio omega out tol s0 t_max "
         "dt_out substeps period_error"),
        (["fig1"], "alpha omega_c temperature amp_ratio out harmonics"),
    ], ids=["rates", "scan-omega", "scan-temperature", "evolve",
            "evolve-dd", "fig1"])
    def test_header_records_the_command_keys(self, tmp_path, argv, keys):
        # the command's keys but the swept one, which the first column
        # holds, and the diagnostics harmonics, substeps and period_error
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        matches = [re.match(r"# (\w+) = ", c) for c in comments]
        assert sorted(m[1] for m in matches if m) == sorted(keys.split())

    @pytest.mark.parametrize("drive, noted", [
        ("dd", True), ("cdt", True), ("none", False)])
    def test_driven_scan_notes_eta_references(self, tmp_path, drive,
                                              noted):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--sweep", "amp_ratio", "--min", "0", "--max",
                     "3", "--points", "4", "--drive", drive, "--omega",
                     "50", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert ("# reference: eta = 0.25 (improvement on average), "
                "eta = 1 (improvement for any initial state)" in comments) \
            == noted

    @pytest.mark.parametrize("workload",
                             ["sweep", "trajectory", "dense_output"])
    def test_benchmark_argv_is_accepted(self, monkeypatch, workload):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        for op in workloads.build(workload, 1):
            args = build_parser().parse_args(op.argv + ["--out", "op.csv"])
            assert args.command == op.argv[0]


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
_RNG = np.random.default_rng(5)


def _percent_rows():
    """nan, +-inf and inexact ties at k = 23 (fields '%' formats) in the
    first, the middle and the last column of ordinary rows."""
    ties = (_RNG.integers(10**8, 10**9, 6) + 0.5) * 1e-23
    special = np.concatenate([[np.nan, np.inf, -np.inf], ties, -ties])
    rows = np.tile([1.5, -2.25e-5, 3.0e7], (3 * special.size, 1))
    for column in range(3):
        rows[column * special.size:(column + 1) * special.size,
             column] = special
    return rows


# exponents at the 2/3-digit boundary, mixed in one block; a tie at
# e = 98; 9.9999999995e98 and e99, whose r = 1e9 carries into e = 99 and
# e = 100; 1e-300, where the one-factor power table ends, one ulp down and
# up; -0.0 in the last column
_EDGES = np.array([1e-100, 9.99999999e-100, 1e99, 1e100,
                   9.999999995e98, 9.9999999995e99, 9.9999999995e98,
                   np.nextafter(1e-300, 0.0), 1e-300,
                   np.nextafter(1e-300, 1.0), 1.0, -0.0])


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)),
    np.array([[1.0, -2.5e-300, 3.0]]),
    _RNG.normal(size=(_CHUNK_ROWS + 3, 3)) * 1e5,
    np.array([[np.nan, np.inf, -np.inf], [0.0, -0.0, 1e308]]),
    # exact decimal ties: k/256 has up to 8 digits after the point
    (np.arange(3 * 3000) / 256).reshape(-1, 3),
    np.column_stack([_POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0.0),
                     -np.nextafter(_POWERS_OF_TEN, np.inf)]),
    np.append(_RNG.integers(1, 2**52, size=600, dtype=np.uint64)
              .view(np.float64), [5e-324, 1.7976931348623157e308,
                                  -2.2250738585072014e-308]).reshape(-1, 3),
    _RNG.normal(size=(3 * _CHUNK_ROWS + 7, 3))
    * 10.0 ** _RNG.uniform(-300, 300, size=(3 * _CHUNK_ROWS + 7, 3)),
    # 10 significant digits ending in 5, rounded to binary: within an ulp
    # of a tie, on either side
    (_RNG.integers(10**8, 10**9, size=(400, 3)) + 0.5)
    * 10.0 ** _RNG.integers(-300, 290, size=(400, 3)).astype(float),
    _percent_rows(),
    np.concatenate([_EDGES, -_EDGES]).reshape(-1, 3),
    [[1e99, -9.99999999e99, 1.0]],
    [[1.0, -9.99999999e-100, 1e-100]],
    [[9.9999999995e98, -9.9999999995e98, 9.999999995e98]],
    [[9.9999999995e99, 1.0, -1e-99]],
    # the doubles within 1.5e-6 of the tie in q, 8 ulps on either side
    np.concatenate([v + np.arange(-8, 9) * np.spacing(v) for v in
                    (9.999999995e98, 9.999999995e99, -9.999999995e99)])
    .reshape(-1, 3),
    [[1.0, 2.0, -0.0], [-3.0, -0.0, 0.0]],
], ids=["empty", "one-row", "across-chunks", "nan-inf", "k/256-ties",
        "powers-of-ten-ulp", "subnormal-extremes", "several-chunks",
        "near-ties", "percent-fields-each-column", "exponent-edges",
        "two-digit-exponents", "exponent-minus-100", "carry-into-e99",
        "carry-into-e100", "percent-ties-into-e99-e100",
        "negative-zero-last"])
def test_csv_rows_are_savetxt_bytes(tmp_path, rows):
    out = tmp_path / "rows.csv"
    _write_csv(str(out), ["# a comment"], ["a", "b", "c"], rows)
    expected = io.StringIO()
    np.savetxt(expected, rows, fmt=FLOAT_FMT, delimiter=",")
    assert out.read_bytes() == \
        ("# a comment\na,b,c\n" + expected.getvalue()).encode()


def test_writer_memory_stays_one_block(tmp_path):
    # an evolve table of 70,001 rows (3.4 MB of floats, 6.5 MB of text) is
    # formatted _CHUNK_ROWS rows at a time: the peak is one block's
    # temporaries, about 0.7 MiB
    rows = np.column_stack([np.arange(70_001) / 256,
                            _RNG.normal(size=(70_001, 5))])
    tracemalloc.start()
    try:
        _write_csv(str(tmp_path / "rows.csv"), ["# a comment"],
                   ["t", "a", "b", "c", "d", "e"], rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _evolve_peak(path, rows):
    """The tracemalloc peak of an undriven evolve of rows samples at
    dt = 1/256, written to path."""
    argv = ["evolve", "--t-max", repr((rows - 1) / 256), "--dt-out",
            "0.00390625", "--out", str(path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_evolve_memory_does_not_grow_with_rows(tmp_path):
    # the rows are computed and written one block at a time: 70,001 rows
    # (3.4 MB of floats) and four times as many peak at the same block's
    # temporaries
    _evolve_peak(tmp_path / "warm-up.csv", 3)  # the parser, built once
    peak = _evolve_peak(tmp_path / "short.csv", 70_001)
    assert peak < 2 << 20
    assert _evolve_peak(tmp_path / "long.csv", 280_001) <= 1.1 * peak
    with open(tmp_path / "long.csv") as fh:
        assert sum(1 for _ in fh) > 280_001


def _cli_process(*args):
    """python -m drivenqubit.cli args, its stdout a pipe that the
    interpreter buffers, as in a shell without PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "drivenqubit.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


def test_reader_that_stops_is_not_an_error():
    # '| head -1': the pipe closes while 20,001 rows (1.8 MB, more than a
    # pipe holds) are being written
    with _cli_process("evolve", "--t-max", "200", "--dt-out", "0.01",
                      "--out", "-") as proc:
        assert proc.stdout.readline().startswith(b"# drivenqubit ")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_reader_gone_before_the_last_flush():
    # the few lines of rates sit in stdout's buffer until main flushes
    # it; the pipe is closed while the interpreter still starts up
    with _cli_process("rates", "--out", "-") as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def _bits_to_float(bits):
    return float(np.array(bits, np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1).map(_bits_to_float)
                | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                min_size=1, max_size=40))
def test_fields_are_percent_bytes(values):
    # raw float64 bit patterns: subnormals, nan payloads, every exponent
    assert _format_fields(np.array([values])) == \
        ",".join(FLOAT_FMT % v for v in values) + "\n"


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_exponents_one_off_are_percent_bytes(monkeypatch, shift):
    # log10 one off at every field, as it may be next to a power of ten:
    # '%' writes each field, in one block and in blocks of one field,
    # where it prints e - 1 .. e + 2 into the layout chosen from e (zeros,
    # nan and inf take log10(1) = 0 and are left out)
    values = np.concatenate([_POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0.0),
                             _EDGES[_EDGES != 0.0],
                             [5e-324, 1.7976931348623157e308]])
    values = np.concatenate([values, -values])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda mag: log10(mag) + shift)
    texts = [FLOAT_FMT % v + "\n" for v in values.tolist()]
    assert _format_fields(values[:, None]) == "".join(texts)
    assert [_format_fields(np.array([[v]])) for v in values] == texts


def _dyadic_ties(k):
    """Every v = c / 2^(k+1), c odd, with v * 10^k = c * 5^k / 2 = R + 1/2
    and R in [1e8, 1e9): exact decimal ties of '%.8e' at 8 - e = k."""
    five = 5**k
    c = np.unique(np.linspace(2 * 10**8 // five, 2 * 10**9 // five, 50)
                  .astype(np.int64) | 1)
    c = c[(c * five > 2 * 10**8) & (c * five < 2 * 10**9)]
    return c / 2.0 ** (k + 1)


def _near_ties(k):
    """The doubles nearest to R + 1/2 times 10^-k, and three neighbours on
    either side."""
    tie = (_RNG.integers(10**8, 10**9, 100) + 0.5) * 10.0 ** -k
    return np.concatenate([tie + j * np.spacing(tie) for j in range(-3, 4)])


@pytest.mark.parametrize("values, k", [
    # R + 1/2 exactly, R even and odd; 999999999.5 carries into 1e9
    (np.array([1e8 + 0.5, 1e8 + 1.5, 123456788.5, 123456789.5,
               999999998.5, 999999999.5]), [0]),
    (np.concatenate([_dyadic_ties(k) for k in range(14)]), range(14)),
    # past k = 13 no tie is exact (5^k would divide 2R + 1 < 2e9)
    (np.concatenate([_near_ties(k) for k in (20, 21, 22)]), (20, 21, 22)),
    # 10^k is not exact in a double: these fields take the fallback '%'
    (_near_ties(23), [23]),
    (_near_ties(-1), [-1]),
], ids=["k=0", "dyadic-k=0..13", "near-k=20..22", "k=23", "k=-1"])
def test_ties_round_half_to_even_like_percent(values, k):
    values = np.concatenate([values, -values])
    # every value lies within 1e-6 of a tie R + 1/2 at one of the k
    for v in values.tolist():
        assert min(abs((abs(Fraction(v)) * Fraction(10) ** j) % 1
                       - Fraction(1, 2)) for j in k) < Fraction(1, 10**6)
    assert _format_fields(values[:, None]) == \
        "".join(FLOAT_FMT % v + "\n" for v in values.tolist())


def test_parser_is_built_once(tmp_path):
    assert build_parser() is build_parser()
    for temperature in ("2", "3"):
        out = tmp_path / f"T{temperature}.csv"
        assert main(["rates", "--temperature", temperature,
                     "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert f"# temperature = {float(temperature)}" in comments
