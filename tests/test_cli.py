import io
import math

import numpy as np
import pytest

from drivenqubit import RegimeWarning, rates
from drivenqubit.cli import _CHUNK_ROWS, FLOAT_FMT, _write_csv, main

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

    def test_nan_parameter_is_usage_error(self, capsys):
        assert main(["rates", "--alpha", "nan"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_dd_beyond_the_harmonic_limit_is_usage_error(self, capsys):
        assert main(["rates", "--drive", "dd", "--amp-ratio", "800",
                     "--omega", "10"]) == 2
        assert "x = 2A/Omega = 800" in capsys.readouterr().err

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

    def test_dash_writes_every_temperature_to_stdout(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "--sweep", "omega", "--min", "10", "--max",
                     "100", "--points", "2", "--temperature", "0.1",
                     "--temperature", "1", "--out", "-"]) == 0
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        assert "# temperature = 0.1\n" in out
        assert "# temperature = 1.0\n" in out
        assert out.count("omega,delta_eff") == 2

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

    @pytest.mark.parametrize("drive, line", [("dd", "# harmonics = 84"),
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

    @pytest.mark.parametrize("sweep, drive, message", [
        ("omega", "dd", "omega > 0"), ("amp_ratio", "cdt", "amplitude"),
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

    def test_missing_sweep_is_usage_error(self, capsys):
        assert main(["scan", "--min", "1", "--max", "2", "--points", "2"]) \
            == 2
        assert "sweep" in capsys.readouterr().err


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

    def test_bad_s0_is_usage_error(self):
        assert main(["evolve", "--s0", "1,0"]) == 2

    @pytest.mark.parametrize("flags", [["--dt-out", "0"], ["--dt-out", "-1"],
                                       ["--s0=nan,0,0"]])
    def test_bad_sampling_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--t-max", "5", *flags, "--out", str(out)]) \
            == 2
        assert "error:" in capsys.readouterr().err
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
        # x = 2.4 with T up to 10: the DD sum's tail bound stops at 13
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


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)),
    np.array([[1.0, -2.5e-300, 3.0]]),
    np.random.default_rng(5).normal(size=(_CHUNK_ROWS + 3, 3)) * 1e5,
    np.array([[np.nan, np.inf, -np.inf], [0.0, -0.0, 1e308]]),
], ids=["empty", "one-row", "across-chunks", "nan-inf"])
def test_csv_rows_are_savetxt_bytes(tmp_path, rows):
    out = tmp_path / "rows.csv"
    _write_csv(str(out), ["# a comment"], ["a", "b", "c"], rows)
    expected = io.StringIO()
    np.savetxt(expected, rows, fmt=FLOAT_FMT, delimiter=",")
    assert out.read_bytes() == \
        ("# a comment\na,b,c\n" + expected.getvalue()).encode()
