import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivenqubit import (BathSpec, Drive, RegimeWarning, bessel_j,
                         build_report, effective_rate, effective_splitting,
                         power_spectrum, rate_cdt, rate_dd, rate_static,
                         stabilization_eta, trace_bound)

from _oracles import bessel_series, coth_exp, rate_dd_series

J0_FIRST_ZERO = 2.404825557695773
J1_FIRST_ZERO = 3.831705970207512


def make_bath(alpha=0.01, omega_c=500.0, temperature=1.0):
    return BathSpec(alpha, omega_c, temperature)


class TestRateStatic:

    def test_zero_temperature(self):
        assert rate_static(make_bath(temperature=0.0)) == pytest.approx(
            math.pi * 0.01, rel=1e-15)

    def test_classical_limit(self):
        temperature = 1e4
        got = rate_static(make_bath(temperature=temperature))
        assert got == pytest.approx(2 * math.pi * 0.01 * temperature,
                                    rel=1e-7)

    def test_generic_point_against_coth_oracle(self):
        assert rate_static(make_bath()) == pytest.approx(
            math.pi * 0.01 * coth_exp(0.5), rel=1e-14)

    def test_equals_half_power_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bath = make_bath(alpha=rng.uniform(1e-4, 0.02),
                             temperature=rng.uniform(0.05, 50.0))
            assert rate_static(bath) == pytest.approx(
                0.5 * power_spectrum(bath, 1.0), rel=1e-14)


class TestRateCdt:

    def test_undriven_amplitude(self):
        bath = make_bath()
        got = rate_cdt(Drive("cdt", 0.0, 100.0), bath)
        assert got == pytest.approx(rate_static(bath), rel=1e-15)

    def test_high_temperature_is_drive_independent(self):
        bath = make_bath(temperature=1e4)
        for x in (0.5, 1.5, 2.4):
            got = rate_cdt(Drive("cdt", x, 1000.0), bath)
            assert 2 * got == pytest.approx(
                4 * math.pi * bath.alpha * bath.temperature, rel=1e-2)

    def test_low_temperature_scales_with_j0(self):
        bath = make_bath(temperature=0.0)
        got = rate_cdt(Drive("cdt", 1.0, 1000.0), bath)
        assert got == pytest.approx(
            rate_static(bath) * bessel_series(0, 1.0), rel=1e-12)

    def test_finite_limit_at_j0_zero(self):
        d = Drive("cdt", J0_FIRST_ZERO, 1000.0)
        warm = make_bath(temperature=3.0)
        assert rate_cdt(d, warm) == pytest.approx(
            2 * math.pi * warm.alpha * warm.temperature, rel=1e-4)
        cold = make_bath(temperature=0.0)
        assert rate_cdt(d, cold) < 1e-6

    def test_continuous_across_bessel_zero(self):
        bath = make_bath(temperature=1.0)
        xs = np.linspace(J0_FIRST_ZERO - 0.05, J0_FIRST_ZERO + 0.05, 101)
        vals = [rate_cdt(Drive("cdt", x, 1000.0), bath)
                for x in xs]
        assert np.all(np.abs(np.diff(vals)) < 1e-3)
        assert np.all(np.asarray(vals) > 0.0)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            rate_cdt(Drive("dd", 0.02, 100.0), make_bath())


class TestRateDd:

    def test_undriven_amplitude(self):
        bath = make_bath()
        assert rate_dd(Drive("dd", 0.0, 100.0), bath) == pytest.approx(
            rate_static(bath), rel=1e-15)

    def test_zero_temperature_harmonic_weights(self):
        # at T = 0 each harmonic term carries the bare factor n*Omega/Delta
        bath = make_bath(temperature=0.0)
        omega, x = 1000.0, 2.4
        expected = rate_static(bath) * (
            bessel_j(0, x) ** 2
            + 2 * sum(n * omega * math.exp(-n * omega / bath.omega_c)
                      * bessel_j(n, x) ** 2 for n in range(1, 41)))
        got = rate_dd(Drive("dd", x, omega), bath)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_effective_rate_dispatches_dd_to_rate_dd(self):
        # effective_rate, also the sigma_x weight of Q
        bath = make_bath(temperature=10.0)
        for x in (0.0, 1.2, 2.4):
            d = Drive("dd", x, 1000.0)
            assert effective_rate(bath, d) == pytest.approx(
                rate_dd(d, bath), rel=1e-12)

    def test_closed_form_tanh_ratio(self):
        bath = make_bath(temperature=10.0)
        omega, x = 1000.0, 2.4
        gamma = rate_static(bath)
        expected = gamma * (
            bessel_j(0, x) ** 2
            + 2 * sum(n * omega
                      * math.tanh(0.5 / bath.temperature)
                      / math.tanh(0.5 * n * omega / bath.temperature)
                      * math.exp(-n * omega / bath.omega_c)
                      * bessel_j(n, x) ** 2 for n in range(1, 41)))
        got = rate_dd(Drive("dd", x, omega), bath)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [80.0, 100.0, 200.0, 300.0])
    def test_large_x_sums_every_harmonic_that_counts(self, x):
        # a fixed block of 64 harmonics came out 42-68% low at x = 80-200
        d = Drive("dd", x, 10.0)
        assert rate_dd(d, make_bath()) == pytest.approx(
            rate_dd_series(x, 10.0, 0.01, 500.0, 1.0), rel=1e-12)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 300.0), log_omega=st.floats(1.0, 4.0),
           temperature=st.floats(0.01, 10.0))
    def test_matches_series_oracle(self, x, log_omega, temperature):
        omega = 10.0 ** log_omega
        d = Drive("dd", x, omega)
        assert rate_dd(d, make_bath(temperature=temperature)) == \
            pytest.approx(rate_dd_series(x, omega, 0.01, 500.0, temperature),
                          rel=1e-12)

    @pytest.mark.parametrize("x, shown", [(800.0, "800"), (1e300, "1e+300")])
    def test_refuses_x_beyond_the_harmonic_limit(self, x, shown):
        message = re.escape(f"x = 2A/Omega = {shown} ")
        with pytest.raises(ValueError, match=message):
            rate_dd(Drive("dd", x, 10.0), make_bath())

    def test_harmonics_past_the_largest_double_add_zero(self):
        # n*Omega overflows for n >= 2; each harmonic's cutoff factor is 0,
        # so only J0^2 * S(Delta) remains
        bath = make_bath()
        omega = np.array([1.0e300, 1.0e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rate_dd(Drive("dd", 1.0, omega), bath)
        assert np.all(got == bessel_j(0, 1.0) ** 2 * rate_static(bath))

    @pytest.mark.parametrize("omega_c, temperature", [
        (500.0, 2e307), (500.0, 1e308), (6e307, 1.0), (1e308, 1.0)])
    def test_huge_temperature_or_cutoff_sums_to_the_oracle(self, omega_c,
                                                           temperature):
        # 2T overflows from T ~ 9e307, and the harmonic count's tail
        # quotient underflows from wc/e + 2T ~ 1e291: neither may refuse
        # x = 2.4 as needing more than 1024 harmonics
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            bath = make_bath(omega_c=omega_c, temperature=temperature)
        d = Drive("dd", 2.4, 100.0)
        want = rate_dd_series(2.4, 100.0, 0.01, omega_c, temperature)
        assert rate_dd(d, bath) == pytest.approx(want, rel=1e-12)
        assert stabilization_eta(bath, d) == pytest.approx(
            0.25 * rate_static(bath) / want, rel=1e-12)

    def test_harmonics_beyond_a_bessel_zero_count(self):
        # J1(x) = 0 here, so the n = 1 term vanishes; the n >= 2 terms
        # still carry almost all of the rate
        d = Drive("dd", J1_FIRST_ZERO, 100.0)
        assert rate_dd(d, make_bath()) == pytest.approx(
            rate_dd_series(J1_FIRST_ZERO, 100.0, 0.01, 500.0, 1.0),
            rel=1e-12)


class TestTraceBound:

    def test_zero(self):
        assert trace_bound(0.0) == (0.0, 0.0)

    def test_undriven(self):
        gamma_rel = rate_static(make_bath())
        gamma, gamma_avg = trace_bound(gamma_rel)
        assert gamma == 2 * gamma_rel
        assert gamma_avg == gamma / 3

    def test_driven_rate_uses_same_formula(self):
        bath = make_bath()
        gamma_rel = rate_dd(Drive("dd", 2.4, 1000.0), bath)
        assert trace_bound(gamma_rel) == (2 * gamma_rel, 2 * gamma_rel / 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            trace_bound(-0.1)


class TestStabilizationEta:

    def test_quarter_at_zero_amplitude(self):
        bath = make_bath()
        assert stabilization_eta(bath, Drive("dd", 0.0, 100.0)) == \
            pytest.approx(0.25, rel=1e-14)

    def test_quarter_exact_on_a_grid(self):
        bath = BathSpec(0.01, 500.0, np.array([0.0, 0.1, 1.0, 10.0]))
        d = Drive("dd", 0.0, np.array([[10.0], [1.0e4]]))
        assert np.all(stabilization_eta(bath, d) == 0.25)

    def test_quarter_exact_undriven(self):
        assert stabilization_eta(make_bath(), Drive()) == 0.25

    def test_large_above_cutoff_low_temperature(self):
        bath = make_bath(temperature=0.1)
        d = Drive("dd", 2.4, 1.0e4)
        assert stabilization_eta(bath, d) > 1.0

    def test_small_below_cutoff(self):
        bath = make_bath(temperature=10.0)
        d = Drive("dd", 2.4, 10.0)
        assert stabilization_eta(bath, d) < 0.25

    def test_monotone_in_omega_above_cutoff(self):
        bath = make_bath(temperature=1.0)
        omegas = np.geomspace(600.0, 1.0e4, 30)
        etas = [stabilization_eta(
            bath, Drive("dd", J0_FIRST_ZERO, w)) for w in omegas]
        assert np.all(np.diff(etas) >= 0.0)

    @pytest.mark.parametrize("drive", [
        Drive("dd", 2.4, 100.0), Drive("cdt", 2.4, 100.0),
        Drive("dd", 2.4, np.geomspace(10.0, 1.0e4, 7)[:, None])])
    def test_zero_coupling_is_the_eta_of_any_coupling(self, drive):
        # both rates are proportional to alpha, so eta is not: also at
        # alpha = 0, and where a rate overflows (Gamma_DD from 5e304)
        temperature = np.array([0.0, 0.1, 1.0, 10.0])
        weak = stabilization_eta(BathSpec(0.01, 500.0, temperature), drive)
        for alpha in (0.0, 5e304, 2e307, 1e308):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                bath = BathSpec(alpha, 500.0, temperature)
                eta = stabilization_eta(bath, drive)
                report = build_report(bath, drive)
            # alpha > 0 here violates the weak-coupling condition, and
            # BathSpec says so once; nothing else warns
            assert [str(w.message)[:13] for w in caught] \
                == ["weak-coupling"] * (alpha > 0.0), alpha
            assert np.allclose(eta, weak, rtol=1e-14, atol=0.0), alpha
            assert np.array_equal(report.eta, eta), alpha

    def test_cdt_variant(self):
        bath = make_bath(temperature=0.0)
        d = Drive("cdt", 1.0, 100.0)
        expected = 0.25 / bessel_j(0, 1.0)
        assert stabilization_eta(bath, d) == pytest.approx(expected,
                                                           rel=1e-12)


class TestBuildReport:

    def test_none_report(self):
        bath = make_bath()
        report = build_report(bath, Drive())
        assert report.drive_kind == "none"
        assert report.delta_eff == 1.0
        assert report.gamma_trace == 2 * report.gamma_relax
        assert report.gamma_avg == pytest.approx(report.gamma_trace / 3)
        assert report.eta is None

    def test_dd_report_has_eta(self):
        report = build_report(make_bath(), Drive("dd", 2.4, 1000.0))
        assert report.eta is not None

    def test_cdt_report_has_eta_cdt(self):
        report = build_report(make_bath(),
                              Drive("cdt", 1.0, 1000.0))
        assert report.eta is not None
        assert report.delta_eff == pytest.approx(bessel_j(0, 1.0))
