import math
import warnings

import numpy as np
import pytest

from drivenqubit import BathSpec, RegimeWarning, power_spectrum

from _oracles import coth_exp


def make_bath(alpha=0.01, omega_c=500.0, temperature=1.0):
    return BathSpec(alpha, omega_c, temperature)


class TestBathSpec:

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BathSpec(-0.1, 500.0, 1.0)
        with pytest.raises(ValueError):
            BathSpec(0.01, 0.0, 1.0)
        with pytest.raises(ValueError):
            BathSpec(0.01, 500.0, -1.0)
        nan, inf = math.nan, math.inf
        for params, name in (((nan, 500.0, 1.0), "alpha"),
                             ((0.01, nan, 1.0), "omega_c"),
                             ((0.01, 500.0, nan), "temperature"),
                             ((np.array([0.01, nan]), 500.0, 1.0), "alpha"),
                             ((inf, 500.0, 1.0), "alpha"),
                             ((0.01, inf, 1.0), "omega_c"),
                             ((0.01, -inf, 1.0), "omega_c"),
                             ((0.01, 500.0, inf), "temperature"),
                             ((0.01, 500.0, np.array([1.0, inf])),
                              "temperature")):
            with pytest.raises(ValueError, match=name):
                BathSpec(*params)

    def test_beta_sentinel_at_zero_temperature(self):
        assert BathSpec(0.01, 500.0, 0.0).beta == math.inf
        assert BathSpec(0.01, 500.0, 2.0).beta == 0.5
        betas = BathSpec(0.01, 500.0, np.array([0.0, 2.0])).beta
        assert betas.tolist() == [math.inf, 0.5]

    def test_strong_coupling_warning(self):
        with pytest.warns(RegimeWarning):
            BathSpec(0.05, 500.0, 1.0)  # alpha*ln(500) ~ 0.31
        # alpha*ln(500) overflows to inf: the same warning and no numpy one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            BathSpec(1e308, 500.0, 1.0)
        assert [w.category for w in caught] == [RegimeWarning]

    def test_low_cutoff_warning(self):
        with pytest.warns(RegimeWarning):
            BathSpec(0.001, 0.5, 1.0)

    def test_valid_parameters_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BathSpec(0.01, 500.0, 1.0)


class TestPowerSpectrum:

    def test_zero_temperature_limit(self):
        bath = make_bath(temperature=0.0)
        assert power_spectrum(bath, 1.0) == pytest.approx(
            2 * math.pi * bath.alpha, rel=1e-15)

    def test_classical_zero_frequency_limit(self):
        bath = make_bath(alpha=0.01, temperature=10.0)
        assert power_spectrum(bath, 0.0) == pytest.approx(
            4 * math.pi * 0.01 * 10.0, rel=1e-15)

    def test_array_of_points_keeps_every_limit(self):
        # rows T = 0 and T = 2; columns w = 0, w -> 0 (series branch), w = 1
        bath = make_bath(temperature=np.array([[0.0], [2.0]]))
        got = power_spectrum(bath, np.array([0.0, 1e-9, 1.0]))
        scale = 2 * math.pi * bath.alpha
        expected = [[0.0, scale * 1e-9, scale],
                    [2 * scale * 2.0, 2 * scale * 2.0, scale * coth_exp(0.25)]]
        assert got.shape == (2, 3)
        assert got == pytest.approx(np.array(expected), rel=1e-14, abs=0.0)

    def test_extreme_temperatures_stay_finite_and_quiet(self):
        # T = 1e308: coth(1/2T) overflows, and S takes its w -> 0 limit
        # 4*pi*alpha*T; T = 1e-310 and 1e-320: w/2T overflows and coth = 1.
        # A numpy RuntimeWarning fails the test (pyproject.toml)
        bath = make_bath(temperature=np.array([1e308, 1e-310, 1e-320]))
        scale = 2 * math.pi * bath.alpha
        got = power_spectrum(bath, 1.0)
        assert got == pytest.approx(
            np.array([2 * scale * 1e308, scale, scale]), rel=1e-15, abs=0.0)

    def test_generic_point_against_exp_oracle(self):
        bath = make_bath(alpha=0.01, temperature=1.0)
        expected = 2 * math.pi * 0.01 * coth_exp(0.5)
        assert power_spectrum(bath, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_continuity_across_series_branch(self):
        bath = make_bath(alpha=0.01, temperature=10.0)
        for omega in (1e-3, 1e-5, 1e-7, 1e-9):
            classical = 4 * math.pi * bath.alpha * bath.temperature
            got = power_spectrum(bath, omega)
            if omega / (2 * bath.temperature) < 1e-4:
                assert got == pytest.approx(classical, rel=1e-6)

    def test_monotone_in_frequency(self):
        bath = make_bath(temperature=2.0)
        grid = np.geomspace(1e-8, 1e4, 300)
        vals = np.array([power_spectrum(bath, w) for w in grid])
        # non-decreasing up to roundoff in the classical plateau
        assert np.all(np.diff(vals) >= -1e-14 * vals[:-1])

    def test_bounded_below_by_zero_temperature_value(self):
        for temperature in (0.0, 0.01, 1.0, 100.0):
            bath = make_bath(temperature=temperature)
            for omega in (0.1, 1.0, 10.0, 1000.0):
                assert power_spectrum(bath, omega) >= \
                    2 * math.pi * bath.alpha * omega - 1e-15

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            power_spectrum(make_bath(), -0.5)
