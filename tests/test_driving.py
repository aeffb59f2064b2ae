import math

import numpy as np
import pytest

from drivenqubit import (BathSpec, Drive, RegimeWarning, bessel_j,
                         cdt_propagator, dd_propagator,
                         effective_coupling_cdt, effective_coupling_dd,
                         effective_splitting, numeric_q_oracle,
                         pauli_rotation, rate_static)

from _oracles import SX, SZ, bessel_series, expm_series

J0_FIRST_ZERO = 2.404825557695773


def make_bath(alpha=0.01, omega_c=500.0, temperature=1.0):
    return BathSpec(alpha, omega_c, temperature)


class TestDrive:

    def test_amp_ratio(self):
        d = Drive.cdt(amplitude=120.0, omega=100.0)
        assert d.amp_ratio == pytest.approx(2.4)
        assert Drive.from_ratio("cdt", 2.4, 100.0).amplitude == \
            pytest.approx(120.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Drive("pulsed", 1.0, 100.0)
        with pytest.raises(ValueError):
            Drive.cdt(1.0, 0.0)
        with pytest.raises(ValueError):
            Drive.dd(math.nan, 100.0)
        with pytest.raises(ValueError):
            Drive.cdt(1.0, math.nan)

    def test_low_frequency_warning(self):
        with pytest.warns(RegimeWarning):
            Drive.dd(1.0, 5.0)


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

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)


class TestEffectiveSplitting:

    def test_undriven_amplitude(self):
        assert effective_splitting(Drive.cdt(0.0, 100.0)) == 1.0

    def test_vanishes_at_j0_zero(self):
        d = Drive.from_ratio("cdt", J0_FIRST_ZERO, 100.0)
        assert abs(effective_splitting(d)) < 1e-5

    def test_generic_value_from_series(self):
        d = Drive.from_ratio("cdt", 2.4, 100.0)
        assert effective_splitting(d) == pytest.approx(
            bessel_series(0, 2.4), rel=1e-12)

    def test_dd_and_none_keep_delta(self):
        assert effective_splitting(Drive.dd(50.0, 100.0)) == 1.0
        assert effective_splitting(Drive.none()) == 1.0


class TestPropagators:

    def test_cdt_identity_at_equal_times(self):
        d = Drive.from_ratio("cdt", 2.4, 100.0)
        u = cdt_propagator(d, 0.37, 0.37)
        assert np.max(np.abs(u.matrix() - np.eye(2))) < 1e-14

    def test_cdt_one_period_at_j0_zero_is_identity(self):
        d = Drive.from_ratio("cdt", J0_FIRST_ZERO, 100.0)
        for t0 in (0.0, 0.011, 0.5):
            u = cdt_propagator(d, t0 + d.period, t0)
            assert np.max(np.abs(u.matrix() - np.eye(2))) < 1e-5

    def test_cdt_one_period_is_pure_z_rotation(self):
        d = Drive.from_ratio("cdt", 2.4, 100.0)
        d_eff = effective_splitting(d)
        for t0 in (0.0, 0.013, 0.4):
            u = cdt_propagator(d, t0 + d.period, t0)
            expected = pauli_rotation((0, 0, 1), d_eff * d.period)
            assert u.isclose(expected, tol=1e-12)

    def test_cdt_generic_against_matrix_oracle(self):
        d = Drive.from_ratio("cdt", 2.4, 100.0)
        d_eff = effective_splitting(d)
        t, t0 = 0.013, 0.0
        phase = (d.amplitude / d.omega) * (math.sin(d.omega * t)
                                           - math.sin(d.omega * t0))
        expected = (expm_series(-1j * phase * SX)
                    @ expm_series(-0.5j * d_eff * (t - t0) * SZ))
        got = cdt_propagator(d, t, t0).matrix()
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_dd_identity_and_free_limits(self):
        d = Drive.dd(0.0, 100.0)
        assert dd_propagator(d, 0.2, 0.2).isclose(
            pauli_rotation((0, 0, 1), 0.0))
        free = dd_propagator(d, 1.7, 0.5)
        assert free.isclose(pauli_rotation((0, 0, 1), 1.2), tol=1e-12)

    def test_dd_one_period_closes_periodic_factor(self):
        d = Drive.from_ratio("dd", 2.4, 100.0)
        t0 = 0.21
        got = dd_propagator(d, t0 + d.period, t0).matrix()
        expected = expm_series(-0.5j * d.period * SZ)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_dd_commutes_with_sigma_z(self):
        d = Drive.from_ratio("dd", 2.4, 137.0)
        for (t, t0) in ((0.3, 0.0), (1.7, 0.4), (12.0, 3.3)):
            u = dd_propagator(d, t, t0).matrix()
            assert np.max(np.abs(u @ SZ - SZ @ u)) < 1e-14

    def test_dd_composition_law(self):
        d = Drive.from_ratio("dd", 2.4, 100.0)
        u = (dd_propagator(d, 2.0, 1.1).matrix()
             @ dd_propagator(d, 1.1, 0.3).matrix())
        assert np.max(np.abs(u - dd_propagator(d, 2.0, 0.3).matrix())) < 1e-10

    def test_cdt_composition_law_at_frozen_splitting(self):
        # with Delta_eff = 0 (or A = 0) both factors live on one axis and
        # the two-time family composes; the generic CDT propagator is a
        # high-frequency approximation and only composes in these cases
        d = Drive.from_ratio("cdt", J0_FIRST_ZERO, 100.0)
        u = (cdt_propagator(d, 2.0, 1.1).matrix()
             @ cdt_propagator(d, 1.1, 0.3).matrix())
        assert np.max(np.abs(u - cdt_propagator(d, 2.0, 0.3).matrix())) < 1e-5

        d0 = Drive.cdt(0.0, 100.0)
        u = (cdt_propagator(d0, 2.0, 1.1).matrix()
             @ cdt_propagator(d0, 1.1, 0.3).matrix())
        assert np.max(np.abs(u - cdt_propagator(d0, 2.0, 0.3).matrix())) \
            < 1e-12

    def test_all_propagators_unitary(self):
        dc = Drive.from_ratio("cdt", 1.7, 80.0)
        dz = Drive.from_ratio("dd", 1.7, 80.0)
        for (t, t0) in ((0.0, 0.0), (0.9, 0.1), (7.3, -2.0)):
            assert cdt_propagator(dc, t, t0).is_unitary()
            assert dd_propagator(dz, t, t0).is_unitary()

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            cdt_propagator(Drive.dd(1.0, 100.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            dd_propagator(Drive.cdt(1.0, 100.0), 1.0, 0.0)


class TestEffectiveCouplings:

    def test_cdt_undriven_limit_is_static_rate(self):
        bath = make_bath()
        q = effective_coupling_cdt(Drive.cdt(0.0, 100.0), bath)
        assert q.cx == pytest.approx(rate_static(bath), rel=1e-14)
        assert q.c0 == q.cy == q.cz == 0.0

    def test_cdt_vanishes_at_j0_zero_and_zero_temperature(self):
        bath = make_bath(temperature=0.0)
        d = Drive.from_ratio("cdt", J0_FIRST_ZERO, 100.0)
        q = effective_coupling_cdt(d, bath)
        assert abs(q.cx) < 1e-6

    def test_dd_undriven_limit(self):
        bath = make_bath()
        q = effective_coupling_dd(Drive.dd(0.0, 100.0), bath)
        assert q.cx == pytest.approx(rate_static(bath), rel=1e-14)

    def test_dd_at_j0_zero_is_pure_harmonic_sum(self):
        bath = make_bath(temperature=10.0)
        d = Drive.from_ratio("dd", J0_FIRST_ZERO, 1000.0)
        full = effective_coupling_dd(d, bath).cx
        # subtracting the (vanishing) J0^2 term changes nothing measurable
        j0_term = 0.5 * bessel_j(0, J0_FIRST_ZERO) ** 2 * \
            2 * math.pi * bath.alpha * (1 / math.tanh(0.05))
        assert j0_term / full < 1e-9

    def test_couplings_hermitian_nonnegative_sigma_x(self):
        bath = make_bath(temperature=10.0)
        for x in (0.0, 1.2, 2.4, 3.8):
            qc = effective_coupling_cdt(
                Drive.from_ratio("cdt", x, 1000.0), bath)
            qd = effective_coupling_dd(
                Drive.from_ratio("dd", x, 1000.0), bath)
            for q in (qc, qd):
                assert q.is_hermitian()
                assert q.cx >= 0.0
                assert abs(q.c0) + abs(q.cy) + abs(q.cz) == 0.0


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
        d = Drive.from_ratio("cdt", x, 1000.0)
        got = numeric_q_oracle(d, bath, grid_t=64, n_harmonics=40)
        expected = effective_coupling_cdt(d, bath)
        assert got.cx == pytest.approx(expected.cx, rel=1e-6)
        assert max(abs(got.c0), abs(got.cy), abs(got.cz)) < 1e-8

    @pytest.mark.parametrize("temperature", [0.0, 10.0])
    @pytest.mark.parametrize("x", [0.0, 1.2, 2.4])
    def test_dd_agreement(self, x, temperature):
        bath = make_bath(temperature=temperature)
        d = Drive.from_ratio("dd", x, 1000.0)
        got = numeric_q_oracle(d, bath, grid_t=64, n_harmonics=40)
        expected = effective_coupling_dd(d, bath)
        assert got.cx == pytest.approx(expected.cx, rel=1e-6)
        assert max(abs(got.c0), abs(got.cy), abs(got.cz)) < 1e-8

    def test_undriven_equivalent_reduces_to_static_rate(self):
        bath = make_bath()
        got = numeric_q_oracle(Drive.cdt(0.0, 1000.0), bath)
        assert got.cx == pytest.approx(rate_static(bath), abs=1e-8)

    def test_parameter_validation(self):
        bath = make_bath()
        with pytest.raises(ValueError):
            numeric_q_oracle(Drive.none(), bath)
        with pytest.raises(ValueError):
            numeric_q_oracle(Drive.cdt(1.0, 100.0), bath, grid_t=32)
        with pytest.raises(ValueError):
            numeric_q_oracle(Drive.cdt(1.0, 100.0), bath, n_harmonics=4)
