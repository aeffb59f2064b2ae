import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from drivenqubit import (BathSpec, Drive, RegimeWarning, bessel_j, driving,
                         effective_rate, effective_splitting,
                         numeric_q_oracle, rate_static)

from _oracles import bessel_series, rate_dd_series

J0_FIRST_ZERO = 2.404825557695773
J1_FIRST_ZERO = 3.831705970207512


def make_bath(alpha=0.01, omega_c=500.0, temperature=1.0):
    return BathSpec(alpha, omega_c, temperature)


class TestDrive:

    def test_amp_ratio(self):
        # x is stored as given, one number for a whole grid of frequencies
        d = Drive("dd", 2.4, np.geomspace(10.0, 1.0e4, 200)[:, None])
        assert d.amp_ratio == 2.4
        assert Drive() == Drive("none", 0.0, 0.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Drive("pulsed", 1.0, 100.0)
        # undriven, Omega = 0 is allowed (Drive()), a negative one is not
        for kind, x, omega, name in (
                ("cdt", 1.0, 0.0, "omega"),
                ("cdt", math.nan, 100.0, "amp_ratio"),
                ("cdt", math.inf, 100.0, "amp_ratio"),
                ("cdt", np.array([2.4, math.inf]), 100.0, "amp_ratio"),
                ("cdt", 1.0, math.nan, "omega"),
                ("cdt", 1.0, math.inf, "omega"),
                ("cdt", 1.0, -math.inf, "omega"),
                ("none", -1.0, 100.0, "amp_ratio"),
                ("none", math.nan, 100.0, "amp_ratio"),
                ("none", 0.0, -5.0, "omega"),
                ("none", 0.0, math.nan, "omega"),
                ("none", 0.0, np.array([1.0, math.inf]), "omega")):
            with pytest.raises(ValueError, match=name):
                Drive(kind, x, omega)

    def test_low_frequency_warning(self):
        with pytest.warns(RegimeWarning):
            Drive("dd", 0.4, 5.0)


class TestBesselJ:

    def test_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-5

    def test_against_ascending_series(self):
        for n in (0, 1, 2, 5, 10):
            for x in (0.1, 1.0, 2.4, 4.8):
                assert bessel_j(n, x) == pytest.approx(
                    bessel_series(n, x), rel=1e-12, abs=1e-14)

    HARD_X = [0.0, 1e-300, 1e-8, J0_FIRST_ZERO, J1_FIRST_ZERO, 50.0, 300.0,
              740.0]

    @pytest.mark.parametrize("x", HARD_X)
    def test_against_mpmath(self, x):
        # every order up to 1024 for small x; mpmath is slow at large x
        # and order below x, so there every order to 64, then every 4th
        n = np.arange(1025) if x <= 50.0 else np.r_[0:65, 68:1025:4, 1024]
        want = np.array([float(mp.besselj(int(k), x)) for k in n])
        assert np.max(np.abs(bessel_j(n, x) - want)) <= 1e-15

    def test_grid_matches_pointwise_without_floating_point_errors(self):
        # a downward recurrence of J_n itself overflows at tiny x
        n = np.arange(1025)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = bessel_j(n[:, None], self.HARD_X)
        assert got.shape == (1025, len(self.HARD_X))
        for i, x in enumerate(self.HARD_X):
            assert np.max(np.abs(got[:, i] - bessel_j(n, x))) <= 1e-16

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)

    @pytest.mark.parametrize("n", [0.5, math.nan, [2, 2.5]])
    def test_rejects_non_integer_order(self, n):
        with pytest.raises(ValueError, match="non-negative integers"):
            bessel_j(n, 1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, 2e5])
    def test_rejects_x_it_cannot_reach(self, x):
        with pytest.raises(ValueError, match="finite"):
            bessel_j(0, x)


class TestEffectiveSplitting:

    def test_undriven_amplitude(self):
        assert effective_splitting(Drive("cdt", 0.0, 100.0)) == 1.0

    def test_vanishes_at_j0_zero(self):
        d = Drive("cdt", J0_FIRST_ZERO, 100.0)
        assert abs(effective_splitting(d)) < 1e-5

    def test_generic_value_from_series(self):
        d = Drive("cdt", 2.4, 100.0)
        assert effective_splitting(d) == pytest.approx(
            bessel_series(0, 2.4), rel=1e-12)

    def test_dd_and_none_keep_delta(self):
        assert effective_splitting(Drive("dd", 1.0, 100.0)) == 1.0
        assert effective_splitting(Drive()) == 1.0


class TestEffectiveCouplings:

    def test_cdt_undriven_limit_is_static_rate(self):
        bath = make_bath()
        q = effective_rate(bath, Drive("cdt", 0.0, 100.0))
        assert q == pytest.approx(rate_static(bath), rel=1e-14)

    def test_cdt_vanishes_at_j0_zero_and_zero_temperature(self):
        bath = make_bath(temperature=0.0)
        d = Drive("cdt", J0_FIRST_ZERO, 100.0)
        assert abs(effective_rate(bath, d)) < 1e-6

    def test_dd_undriven_limit(self):
        bath = make_bath()
        q = effective_rate(bath, Drive("dd", 0.0, 100.0))
        assert q == pytest.approx(rate_static(bath), rel=1e-14)

    def test_dd_at_j0_zero_is_pure_harmonic_sum(self):
        bath = make_bath(temperature=10.0)
        d = Drive("dd", J0_FIRST_ZERO, 1000.0)
        full = effective_rate(bath, d)
        # subtracting the (vanishing) J0^2 term changes nothing measurable
        j0_term = 0.5 * bessel_j(0, J0_FIRST_ZERO) ** 2 * \
            2 * math.pi * bath.alpha * (1 / math.tanh(0.05))
        assert j0_term / full < 1e-9

    def test_couplings_hermitian_nonnegative_sigma_x(self):
        bath = make_bath(temperature=10.0)
        for x in (0.0, 1.2, 2.4, 3.8):
            for kind in ("cdt", "dd"):
                q = effective_rate(bath, Drive(kind, x, 1000.0))
                assert np.isrealobj(q)
                assert q >= 0.0


class TestJacobiAnger:

    def test_partial_sum_reproduces_exponential(self):
        n_terms = 40
        theta = np.linspace(0.0, 2 * np.pi, 100)
        for x in (0.5, 1.5, 2.4, 3.0):
            partial = sum(
                (bessel_j(k, x) if k >= 0 else
                 (-1) ** (-k) * bessel_j(-k, x)) * np.exp(1j * k * theta)
                for k in range(-n_terms, n_terms + 1))
            assert np.max(np.abs(partial - np.exp(1j * x * np.sin(theta)))) \
                < 1e-10


class TestNumericQOracle:

    @pytest.mark.parametrize("temperature", [0.0, 10.0])
    @pytest.mark.parametrize("x", [0.0, 1.2, 2.4])
    def test_cdt_agreement(self, x, temperature):
        bath = make_bath(temperature=temperature)
        d = Drive("cdt", x, 1000.0)
        got = numeric_q_oracle(d, bath)
        assert got == pytest.approx(effective_rate(bath, d), rel=1e-12)

    @pytest.mark.parametrize("temperature", [0.0, 10.0])
    @pytest.mark.parametrize("x", [0.0, 1.2, 2.4])
    def test_dd_agreement(self, x, temperature):
        bath = make_bath(temperature=temperature)
        d = Drive("dd", x, 1000.0)
        got = numeric_q_oracle(d, bath)
        assert got == pytest.approx(effective_rate(bath, d), rel=1e-12)

    def test_undriven_equivalent_reduces_to_static_rate(self):
        bath = make_bath()
        got = numeric_q_oracle(Drive("cdt", 0.0, 1000.0), bath)
        assert got == pytest.approx(rate_static(bath), abs=1e-8)

    @pytest.mark.parametrize("x", [40.0, 50.0, 80.0])
    def test_dd_agreement_at_large_x(self, x):
        # psi x theta1 grids of 128 x 256 (x = 40, 50) and 256 x 256 (x = 80),
        # past the 64 x 128 that serve x up to about 14
        got = numeric_q_oracle(Drive("dd", x, 1000.0), make_bath())
        assert got == pytest.approx(
            rate_dd_series(x, 1000.0, 0.01, 500.0, 1.0), rel=1e-12)

    def test_refuses_x_beyond_its_grids_before_building_them(self):
        # x = 200 would need 512 x 1024 phase grids: the u_p stack alone
        # would take 512 * 1024 * 4 * 16 bytes = 32 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"x = 2A/Omega = 200 .*"
                               r"limit of 256 x 512"):
                numeric_q_oracle(Drive("dd", 200.0, 1000.0), make_bath())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            numeric_q_oracle(Drive(), make_bath())

    @pytest.mark.parametrize("kind", ["cdt", "dd"])
    @pytest.mark.parametrize("pauli", ["SY", "SZ"])
    def test_refuses_a_coupling_off_sigma_x(self, monkeypatch, kind, pauli):
        monkeypatch.setattr(driving, "SX", getattr(driving, pauli))
        with pytest.raises(ArithmeticError, match="non-sigma_x"):
            numeric_q_oracle(Drive(kind, 2.4, 1000.0), make_bath())

    def test_refuses_a_small_sigma_y_admixture(self, monkeypatch):
        # a sigma_y weight of 2.7e-9 against cx = 2.75: 1e-9 of cx, above
        # the bound 1e-10 * max(|cx|, 1)
        monkeypatch.setattr(driving, "SX", driving.SX + 1e-9 * driving.SY)
        with pytest.raises(ArithmeticError, match="non-sigma_x"):
            numeric_q_oracle(Drive("dd", 2.4, 1000.0), make_bath())

    @pytest.mark.parametrize("name", ["amp_ratio", "omega", "alpha",
                                      "omega_c", "temperature"])
    def test_refuses_an_array_parameter_naming_it(self, name):
        point = {"amp_ratio": 2.4, "omega": 1000.0, "alpha": 0.01,
                 "omega_c": 500.0, "temperature": 1.0}
        point[name] = np.array([point[name], 2.0 * point[name]])
        drive = Drive("dd", point.pop("amp_ratio"), point.pop("omega"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"one parameter point; "
                               rf"{name} has shape \(2,\)"):
                numeric_q_oracle(drive, make_bath(**point))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 64 x 128 grids of x = 2.4 alone take over 500 kB
        assert peak < 64 << 10
