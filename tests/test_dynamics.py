import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from _oracles import (binary_power, bloch_reference, expm_series,
                      floquet_reference)
from scipy import linalg

from drivenqubit import dynamics
from drivenqubit import (BathSpec, Drive, IntegrationDivergedError,
                         NoSteadyStateError, RegimeWarning,
                         average_entropy_production,
                         decay_eigenvalues, effective_rate, evolve, rate_cdt,
                         rate_dd, rate_static, steady_state)

J0_FIRST_ZERO = 2.404825557695773


def make_bath(alpha=0.01, omega_c=500.0, temperature=1.0):
    return BathSpec(alpha, omega_c, temperature)


def generator_at(bath, drive, t):
    """(M, b) of ds/dt = -M s + b at time t, read off the augmented pair:
    M(t) = -(A0 + cos(Omega t) A1)[:3, :3] and b = A0[:3, 3]."""
    _, a0, a1 = dynamics._generator(bath, drive)
    a = a0 + math.cos(drive.omega * t) * a1
    return -a[:3, :3], a0[:3, 3]


class TestGenerator:

    def test_undriven_matches_closed_form(self):
        bath = make_bath()
        m, b = generator_at(bath, Drive(), t=0.0)
        gamma = rate_static(bath)
        expected = np.array([[0.0, -1.0, 0.0],
                             [1.0, gamma, 0.0],
                             [0.0, 0.0, gamma]])
        assert np.allclose(m, expected, atol=1e-15)
        assert np.allclose(b, [0.0, 0.0, -math.pi * bath.alpha])

    def test_cdt_at_zero_drive_phase_velocity(self):
        bath = make_bath()
        d = Drive("cdt", 2.4, 100.0)
        t = 0.25 * d.period  # cos(Omega t) = 0
        m, _ = generator_at(bath, d, t)
        gamma_cdt = rate_cdt(d, bath)
        assert np.allclose(m[:2, :2], [[0.0, -1.0], [1.0, gamma_cdt]],
                           atol=1e-12)
        assert np.allclose(np.diag(m), [0.0, gamma_cdt, gamma_cdt])

    def test_dd_with_zero_amplitude_reduces_to_undriven(self):
        bath = make_bath()
        m_dd, b_dd = generator_at(bath, Drive("dd", 0.0, 100.0), t=0.4)
        m_none, b_none = generator_at(bath, Drive(), t=0.4)
        assert np.allclose(m_dd, m_none)
        assert np.allclose(b_dd, b_none)

    def test_trace_is_time_independent(self):
        bath = make_bath(temperature=3.0)
        drives = [Drive(), Drive("cdt", 1.7, 120.0),
                  Drive("dd", 2.4, 250.0)]
        rates = [rate_static(bath),
                 rate_cdt(drives[1], bath),
                 rate_dd(drives[2], bath)]
        for drive, gamma_eff in zip(drives, rates):
            for t in np.linspace(0.0, 0.7, 11):
                m, _ = generator_at(bath, drive, t)
                assert np.trace(m) == pytest.approx(2 * gamma_eff, abs=1e-14)

    def test_inhomogeneity_unchanged_by_driving(self):
        bath = make_bath()
        for drive in (Drive(), Drive("cdt", 2.4, 100.0),
                      Drive("dd", 2.4, 100.0)):
            _, b = generator_at(bath, drive, t=0.123)
            assert np.allclose(b, [0.0, 0.0, -math.pi * bath.alpha])

    def test_dissipation_never_damps_sx(self):
        bath = make_bath()
        for drive in (Drive(), Drive("cdt", 2.4, 100.0),
                      Drive("dd", 2.4, 100.0)):
            m, _ = generator_at(bath, drive, t=0.3)
            assert m[0, 0] == 0.0

    def test_entropy_rate_of_poles(self):
        bath = make_bath()
        gamma_eff, a0, _ = dynamics._generator(bath, Drive())
        gamma = rate_static(bath)
        b3 = math.pi * bath.alpha

        def entropy_rate(s):
            return dynamics._entropy_rate(np.array(s, dtype=float),
                                          gamma_eff, a0[2, 3])

        assert entropy_rate([0, 0, 1]) == pytest.approx(gamma + b3)
        assert entropy_rate([0, 0, -1]) == pytest.approx(gamma - b3)
        assert entropy_rate([1, 0, 0]) == pytest.approx(0.0, abs=1e-15)
        assert entropy_rate([-1, 0, 0]) == pytest.approx(0.0, abs=1e-15)


class TestEvolve:

    def test_sigma_z_pole_is_fixed_without_dissipation(self):
        bath = BathSpec(0.0, 500.0, 1.0)
        traj = evolve(bath, Drive(), (0, 0, 1), 20.0, 0.5, tol=1e-10)
        assert np.max(np.abs(traj.s - [0, 0, 1])) < 1e-9
        assert np.max(np.abs(traj.entropy)) < 1e-9

    def test_free_precession_closed_form(self):
        # ds_x/dt = +s_y, ds_y/dt = -s_x  =>  (cos t, -sin t, 0)
        bath = BathSpec(0.0, 500.0, 1.0)
        traj = evolve(bath, Drive(), (1, 0, 0), 30.0, 0.1, tol=1e-11)
        assert np.max(np.abs(traj.s[:, 0] - np.cos(traj.t))) < 1e-8
        assert np.max(np.abs(traj.s[:, 1] + np.sin(traj.t))) < 1e-8
        assert np.max(np.abs(traj.s[:, 2])) < 1e-10

    def test_norm_conserved_over_many_periods(self):
        bath = BathSpec(0.0, 500.0, 1.0)
        tol = 1e-9
        t_max = 100 * 2 * math.pi
        traj = evolve(bath, Drive(), (1, 0, 0), t_max, t_max / 500,
                      tol=tol)
        norms = np.linalg.norm(traj.s, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 10 * tol

    def test_thermalization_to_steady_state(self):
        bath = make_bath()
        gamma = rate_static(bath)
        traj = evolve(bath, Drive(), (0, 0, 1), 20 / gamma, 1 / gamma,
                      tol=1e-10)
        target = steady_state(bath)
        assert np.max(np.abs(traj.s[-1] - target)) < 1e-6

    def test_entropy_fields_consistent(self):
        bath = make_bath()
        traj = evolve(bath, Drive(), (0.3, 0.1, 0.9), 5.0, 0.05,
                      tol=1e-10)
        assert np.all(np.diff(traj.t) > 0.0)
        assert np.all(traj.entropy >= -1e-12)
        assert np.all(traj.entropy <= 0.5 + 1e-12)
        recomputed = 0.5 * (1.0 - np.einsum("ij,ij->i", traj.s, traj.s))
        assert np.allclose(traj.entropy, recomputed)
        # dS/dt from the generator matches a finite-difference of S
        fd = np.gradient(traj.entropy, traj.t)
        assert np.max(np.abs(fd - traj.entropy_rate)) < 5e-3

    def test_cdt_freeze_of_sigma_x_eigenstate(self):
        d = Drive("cdt", J0_FIRST_ZERO, 100.0)
        bath = BathSpec(0.0, 500.0, 1.0)
        traj = evolve(bath, d, (1, 0, 0), 50 * d.period, d.period / 8,
                      tol=1e-10)
        assert np.min(traj.s[:, 0]) >= 1.0 - 1e-3

    def test_validates_inputs(self):
        bath = make_bath()
        with pytest.raises(ValueError):
            evolve(bath, Drive(), (1.2, 0, 0), 1.0, 0.1)
        with pytest.raises(ValueError):
            evolve(bath, Drive(), (1, 0, 0), -1.0, 0.1)
        with pytest.raises(ValueError):
            evolve(bath, Drive(), (1, 0, 0), 1.0, 0.1, tol=1e-2)
        for t_max, dt_out in ((1.0, 0.0), (1.0, -0.1), (math.nan, 0.1),
                              (math.inf, 0.1), (1.0, math.nan)):
            with pytest.raises(ValueError):
                evolve(bath, Drive(), (1, 0, 0), t_max, dt_out)
        with pytest.raises(ValueError):
            evolve(bath, Drive(), (math.nan, 0, 0), 1.0, 0.1)
        # s0 is one Bloch vector: no other shape is read as one
        for s0 in ((1, 0), (1, 0, 0, 0), [[0.1, 0.2, 0.3]]):
            with pytest.raises(ValueError, match="s0"):
                evolve(bath, Drive(), s0, 1.0, 0.1)


def _reference(bath, drive, s0, times, tol):
    """bloch_reference for drive at its closed-form Gamma_eff."""
    return bloch_reference(drive.kind, drive.amp_ratio, drive.omega,
                           effective_rate(bath, drive), bath.alpha, s0,
                           times, tol)


def _map_reference(bath, drive, s0, times, tol):
    """floquet_reference for drive at its closed-form Gamma_eff."""
    return floquet_reference(drive.kind, drive.amp_ratio, drive.omega,
                             effective_rate(bath, drive), bath.alpha, s0,
                             times, tol)


@pytest.fixture(scope="module", params=["dd", "cdt"])
def long_run(request):
    """bath, drive, s0 and floquet_reference states at t = 0, 1, ..., 200
    for Omega = 100, x = 2.4 (3183 drive periods).  The one-period map
    takes ~0.1 s; one DOP853 run over all 3183 periods takes ~25 s for
    CDT and agrees with it to 2.0e-12 (DD) and 2.1e-11 (CDT)."""
    bath = make_bath()
    d = Drive(request.param, 2.4, 100.0)
    s0 = (0.0, 0.6, 0.6)
    return bath, d, s0, _map_reference(bath, d, s0, np.arange(201.0), 3e-13)


class TestFloquetPropagator:

    S0 = (0.3, -0.4, 0.5)

    @pytest.mark.parametrize("kind, t_max", [("dd", 20.0), ("cdt", 5.0)])
    def test_driven_matches_per_cycle_reference(self, kind, t_max):
        bath = make_bath()
        d = Drive(kind, 2.4, 100.0)
        tol = 1e-10
        traj = evolve(bath, d, self.S0, t_max, 0.5, tol=tol)
        want = _reference(bath, d, self.S0, traj.t, 1e-12)
        assert np.max(np.abs(traj.s - want)) <= 10 * tol

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    @pytest.mark.parametrize("periods, per_period", [
        (0.4, 125.0),               # t_max shorter than one period
        (10.0, 1.0),                # every sample on a multiple of T
        (10.0, 5.0),                # on n*T, where t - n*T rounds below 0
        (7.3, 3.0 / math.sqrt(2)),  # dt_out incommensurate with T
    ])
    def test_sample_timing_cases(self, kind, periods, per_period):
        bath = make_bath()
        d = Drive(kind, 2.4, 100.0)
        t_max, dt_out = periods * d.period, d.period / per_period
        tol = 1e-10
        traj = evolve(bath, d, self.S0, t_max, dt_out, tol=tol)
        expected_t = np.arange(0.0, t_max + 0.5 * dt_out, dt_out)
        assert np.array_equal(traj.t, expected_t[expected_t <= t_max])
        want = _reference(bath, d, self.S0, traj.t, 1e-12)
        assert np.max(np.abs(traj.s - want)) <= 10 * tol

    def test_undriven_matches_series_exponential(self):
        bath = make_bath()
        gamma = rate_static(bath)
        a = np.zeros((4, 4))
        a[:3, :3] = -np.array([[0.0, -1.0, 0.0],
                               [1.0, gamma, 0.0],
                               [0.0, 0.0, gamma]])
        a[2, 3] = -math.pi * bath.alpha
        traj = evolve(bath, Drive(), self.S0, 5.0, 0.05)
        v0 = np.append(self.S0, 1.0)
        for t, s in zip(traj.t, traj.s):
            want = (expm_series(a * t) @ v0).real[:3]
            assert np.max(np.abs(s - want)) < 1e-13

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    def test_magnus_error_is_sixth_order(self, kind):
        # the one-period error goes as N^-6, so each doubling cuts it ~64x;
        # from 128 steps on, CDT reaches the floor of the DOP853 reference
        bath = make_bath()
        d = Drive(kind, 2.4, 100.0)
        _, a0, a1 = dynamics._generator(bath, d)
        want = _reference(bath, d, self.S0, [0.0, d.period], 1e-12)[-1]
        v0 = np.append(self.S0, 1.0)
        basis = dynamics._commutators(a0, a1)
        errors = []
        for n in (16, 32, 64):
            phi = dynamics._step_tree(basis, d.omega, d.period, n)[-1][0]
            errors.append(np.max(np.abs((phi @ v0)[:3] - want)))
        assert all(coarse >= 48 * fine
                   for coarse, fine in zip(errors, errors[1:]))

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    def test_exponent_is_the_three_point_formula(self, kind):
        # the weighted basis against the formula of Blanes et al. (2009)
        # with the commutators of A at the three Gauss points, per step
        _, a0, a1 = dynamics._generator(make_bath(), Drive(kind, 20.0, 7.0))
        start = np.array([0.0, 0.013, 0.4, 0.71])
        width = np.array([0.002, 0.011, 0.03, 0.0])
        got = dynamics._magnus_exponents(dynamics._commutators(a0, a1), 7.0,
                                         start, width)

        def comm(x, y):
            return x @ y - y @ x

        for t, h, omega_h in zip(start, width, got):
            at = [a0 + math.cos(7.0 * (t + h / 2 + k * math.sqrt(15) / 10 * h))
                  * a1 for k in (-1, 0, 1)]
            al1 = h * at[1]
            al2 = math.sqrt(15) / 3 * h * (at[2] - at[0])
            al3 = 10 / 3 * h * (at[2] - 2 * at[1] + at[0])
            c1 = comm(al1, al2)
            c2 = -comm(al1, 2 * al3 + c1) / 60
            want = al1 + al3 / 12 + comm(-20 * al1 - al3 + c1, al2 + c2) / 240
            assert np.max(np.abs(omega_h - want)) <= 1e-14 * max(
                1.0, np.max(np.abs(want)))

    def test_prefix_products_match_running_product(self):
        _, a0, a1 = dynamics._generator(make_bath(),
                                        Drive("cdt", 2.4, 100.0))
        levels = dynamics._step_tree(dynamics._commutators(a0, a1), 100.0,
                                     0.05, 16)
        running = [np.eye(4)]
        for step in levels[0]:
            running.append(step @ running[-1])
        got = dynamics._prefix_products(levels, np.arange(17))
        assert np.max(np.abs(got - running)) <= 1e-14
        assert np.array_equal(got[-1], levels[-1][0])

    @pytest.mark.parametrize("tol", [1e-9, 1e-10])
    def test_tol_bounds_the_whole_run(self, long_run, tol):
        # when tol bounded one period only, CDT here was 19*tol off
        bath, d, s0, want = long_run
        traj = evolve(bath, d, s0, 200.0, 1.0, tol=tol)
        assert np.max(np.abs(traj.s - want)) <= 10 * tol
        assert math.ceil(200.0 / d.period) * traj.period_error <= tol

    def test_step_count_at_sixth_order(self, long_run):
        # 955 periods at tol = 1e-9; fourth-order steps needed 2048 (DD)
        # and 1024 (CDT) per period here
        bath, d, s0, want = long_run
        tol = 1e-9
        traj = evolve(bath, d, s0, 60.0, 1.0, tol=tol)
        assert traj.substeps <= {"dd": 256, "cdt": 128}[d.kind]
        assert np.max(np.abs(traj.s - want[:61])) <= 10 * tol

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    # at x = 200 the first step count is half of the 8192-step ceiling
    @pytest.mark.parametrize("x, periods", [(20.0, 5), (50.0, 5), (200.0, 2)],
                             ids=["20.0", "50.0", "200.0"])
    def test_large_drive_amplitude(self, kind, x, periods):
        bath = make_bath()
        d = Drive(kind, x, 100.0)
        tol = 1e-10
        traj = evolve(bath, d, self.S0, periods * d.period, d.period / 7,
                      tol=tol)
        want = _reference(bath, d, self.S0, traj.t, 1e-12)
        assert np.max(np.abs(traj.s - want)) <= 10 * tol

    def test_records_substeps_and_period_error(self):
        d = Drive("dd", 2.4, 100.0)
        traj = evolve(make_bath(), d, self.S0, 20.0, 0.5, tol=1e-10)
        assert traj.substeps & (traj.substeps - 1) == 0
        assert 0.0 < math.ceil(20.0 / d.period) * traj.period_error <= 1e-10
        short = evolve(make_bath(), d, self.S0, 0.3 * d.period, 0.001)
        assert short.substeps < traj.substeps
        undriven = evolve(make_bath(), Drive(), self.S0, 5.0, 0.5)
        assert undriven.substeps is None and undriven.period_error is None

    def test_rounding_floor_warns_with_its_estimate(self):
        # 3183 periods at tol = 1e-12 ask for ~3e-16 per period, below the
        # rounding of the step product
        d = Drive("dd", 2.4, 100.0)
        with pytest.warns(RegimeWarning) as record:
            traj = evolve(make_bath(), d, self.S0, 200.0, 1.0, tol=1e-12)
        assert len(record) == 1
        # the count stops at the first N (here 512) with e(N) < N*eps:
        # e(N/2) = 2^6 e(N) was still >= N/2 * eps
        n, eps = traj.substeps, np.finfo(float).eps
        assert traj.period_error < n * eps <= 2 ** 7 * traj.period_error
        message = str(record[0].message)
        assert f"error estimate of {traj.period_error:.3e} per period" \
            in message
        assert f"below the rounding floor N*eps = {n * eps:.3e}" in message
        assert "cap" not in message

    def test_step_cap_warns_with_its_estimate(self):
        # at x = 1e4 the first step count is already half of the 8192-step
        # cap, and the truncation estimate there stays far above N*eps
        d = Drive("cdt", 1.0e4, 100.0)
        with pytest.warns(RegimeWarning) as record:
            traj = evolve(make_bath(), d, (0.5, 0.0, 0.0), d.period,
                          0.5 * d.period, tol=1e-12)
        assert len(record) == 1
        n, eps = traj.substeps, np.finfo(float).eps
        assert n == 8192 and traj.period_error >= n * eps
        message = str(record[0].message)
        assert f"error estimate of {traj.period_error:.3e} per period" \
            in message
        assert "at the 8192-step cap" in message
        assert "rounding floor" not in message

    def test_divergence_names_fixed_point_outside_ball(self):
        # J0 zero at a low temperature: Gamma_DD < pi*alpha*Delta puts the
        # fixed point s_z = -pi*alpha*Delta/Gamma_DD far below -1
        bath = make_bath(temperature=0.1)
        d = Drive("dd", 2.4048, 5000.0)
        s_z = -math.pi * bath.alpha / rate_dd(d, bath)
        assert s_z == pytest.approx(-8.17, abs=0.01)
        with pytest.raises(IntegrationDivergedError) as info:
            evolve(bath, d, (0.0, 0.0, 0.0), 100.0, 0.1)
        message = str(info.value)
        assert "|s| reached 1 + " in message
        radius = float(message.split("|s*| = ")[1].split(":")[0])
        assert radius == pytest.approx(abs(s_z), rel=1e-3)


def _running_product(step, v0, count):
    """step^k v0 for k = 0 .. count - 1, shape (4, count), one matvec at a
    time."""
    columns = [v0]
    for _ in range(count - 1):
        columns.append(step @ columns[-1])
    return np.array(columns).T


class TestPowers:

    V0 = np.array([0.3, -0.4, 0.5, 1.0])

    @staticmethod
    def undriven_step(dt):
        _, a0, _ = dynamics._generator(make_bath(temperature=0.1),
                                       Drive())
        return dynamics._expm(a0 * dt)

    @pytest.mark.parametrize("count", [1, 2, 3, 1000, 70_001])
    def test_consecutive_powers_match_running_product(self, count):
        # the running product rounds once per matvec: at 70,000 of them it
        # is ~2e-13 off the powers
        step = self.undriven_step(1 / 256)
        got = dynamics._powers(step, np.arange(count), self.V0)
        assert got.shape == (4, count)
        assert np.array_equal(got[:, 0], self.V0)
        assert np.max(np.abs(got - _running_product(step, self.V0, count))) \
            <= 1e-12

    @pytest.mark.parametrize("n", [
        np.repeat(np.arange(40), 3),                     # below len(n) only
        np.array([0, 0, 2, 3, 3, 5]),    # len(n) = max(n) + 1, not 0, 1, ...
        np.sort(np.random.default_rng(2).integers(0, 20_000, 300)),
        np.array([0, 1, 2, 4096, 4097, 16_383]),         # low and high bits
    ], ids=["repeats", "repeats-to-count", "sparse", "high-bits"])
    def test_sampled_powers_match_running_product(self, n):
        # up to n = 20,000 (t = 78) the state stays 0.2 or more from its
        # fixed point, so a wrong power shows
        step = self.undriven_step(1 / 256)
        want = _running_product(step, self.V0, n[-1] + 1)[:, n]
        assert np.max(np.abs(dynamics._powers(step, n, self.V0) - want)) \
            <= 1e-12

    def test_sparse_driven_run_matches_reference(self):
        # 1401 samples 11.4 periods apart, n up to 16,000, against the
        # one-period map of floquet_reference
        bath = BathSpec(1e-4, 500.0, 1.0)
        d = Drive("cdt", 2.4, 100.0)
        t_max = 16_000 * d.period
        tol = 1e-10
        traj = evolve(bath, d, self.V0[:3], t_max, t_max / 1400, tol=tol)
        want = _map_reference(bath, d, self.V0[:3], traj.t, 3e-13)
        assert np.floor(traj.t[-1] / d.period) == 16_000
        assert np.max(np.abs(traj.s - want)) <= 10 * tol
        # the run is still far from its fixed point at the last sample
        assert np.linalg.norm(traj.s[-1]) > 0.3

    def test_memory_follows_samples_not_periods(self):
        # 101 samples over 1.6e8 drive periods: a table of every power up
        # to max(n) would take 5 GB
        d = Drive("dd", 2.4, 100.0)
        t_max = 1.6e8 * d.period
        tracemalloc.start()
        try:
            traj = evolve(make_bath(), d, self.V0[:3], t_max, t_max / 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 101
        assert peak < 10e6


class TestBlocks:
    """evolve_blocks: the samples _BLOCK_SAMPLES at a time, with the bits
    of evolve's whole arrays."""

    S0 = (0.3, -0.4, 0.5)
    EDGES = (0, 1, 1023, 1024, 1025, 2048, 3072, 4095, 4096, 4097, 5120,
             8192, 70_000)
    B = dynamics._BLOCK_SAMPLES
    FIELDS = ("t", "s", "entropy", "entropy_rate")

    @classmethod
    def joined(cls, *args, **kwargs):
        """The blocks of evolve_blocks(*args, **kwargs), and their arrays
        joined by field."""
        blocks = list(dynamics.evolve_blocks(*args, **kwargs))
        return blocks, {name: np.concatenate([getattr(b, name)
                                              for b in blocks])
                        for name in cls.FIELDS}

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2049, 3073,
                                       4097, 70_001])
    @pytest.mark.parametrize("dt", [1 / 256, 0.37, 3.1])
    def test_undriven_samples_are_binary_powers(self, dt, count):
        # sample k is step^k (s0, 1) to the bit, on both sides of every
        # block edge and table edge, in evolve and in the blocks
        bath = make_bath(temperature=0.5)
        args = (bath, Drive(), self.S0, (count - 1) * dt + 0.5 * dt, dt)
        traj = evolve(*args)
        _, joined = self.joined(*args)
        assert len(traj) == count
        _, a0, _ = dynamics._generator(bath, Drive())
        step = dynamics._expm(a0 * dt)
        v0 = np.append(self.S0, 1.0)
        for k in self.EDGES:
            if k < count:
                want = binary_power(step, v0, k)[:3].tobytes()
                assert traj.s[k].tobytes() == want, k
                assert joined["s"][k].tobytes() == want, k
        for name in self.FIELDS:
            assert joined[name].tobytes() == getattr(traj, name).tobytes()

    @pytest.mark.parametrize("count", [1, 2, B + 1, B + B // 4 + 1,
                                       3 * B + 1])
    @pytest.mark.parametrize("dt", [1 / 256, 0.37])
    @pytest.mark.parametrize("past", [0.25, 0.75])
    def test_blocks_at_arange_times(self, past, dt, count):
        # a last sample alone joins the block before it; the times are
        # those of np.arange(0, t_max + dt/2, dt) up to t_max, which past
        # = 0.75 ends one sample beyond t_max
        t_max = (count - 1 + past) * dt
        blocks, joined = self.joined(make_bath(), Drive(), self.S0, t_max,
                                     dt)
        sizes = [len(b) for b in blocks]
        assert all(size == self.B for size in sizes[:-1])
        assert 2 <= sizes[-1] <= self.B + 1 or count == 1
        expected = np.arange(0.0, t_max + 0.5 * dt, dt)
        assert joined["t"].tobytes() == expected[expected <= t_max].tobytes()
        assert sum(sizes) == count

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    @pytest.mark.parametrize("periods", [1 / 7.3, 1.1, 11.4],
                             ids=["dense", "gathered", "high-bits"])
    def test_driven_blocks_have_evolve_bits(self, kind, periods):
        # three blocks and a bit, dt_out incommensurate with T: the phases
        # differ from sample to sample; at 1.1 T every power comes from
        # the table alone, at 11.4 T most need the squares of high bits
        bath = make_bath()
        d = Drive(kind, 2.4, 100.0)
        dt_out = periods * d.period
        args = (bath, d, self.S0, (3 * self.B + 1.5) * dt_out, dt_out)
        blocks, joined = self.joined(*args)
        assert len(blocks) == 4
        traj = evolve(*args)
        for name in self.FIELDS:
            assert joined[name].tobytes() == getattr(traj, name).tobytes()
        assert {(b.substeps, b.period_error) for b in blocks} \
            == {(traj.substeps, traj.period_error)}

    @pytest.mark.parametrize("kind", ["dd", "cdt"])
    def test_dense_driven_blocks_match_reference(self, kind):
        # dt_out < T and incommensurate with it: over three blocks
        bath = make_bath()
        d = Drive(kind, 2.4, 100.0)
        dt_out = d.period / 7.3
        tol = 1e-10
        blocks, joined = self.joined(bath, d, self.S0,
                                     (3 * self.B + 1.5) * dt_out, dt_out,
                                     tol=tol)
        assert len(blocks) == 4
        want = _map_reference(bath, d, self.S0, joined["t"], 3e-13)
        assert np.max(np.abs(joined["s"] - want)) <= 10 * tol

    def test_divergence_is_raised_before_any_block(self):
        # the run of test_divergence_names_fixed_point_outside_ball over
        # several blocks: the call itself raises, before any block is made
        bath = make_bath(temperature=0.1)
        d = Drive("dd", 2.4048, 5000.0)
        with pytest.raises(IntegrationDivergedError, match=r"reached 1 \+ "):
            dynamics.evolve_blocks(bath, d, (0.0, 0.0, 0.0), 100.0, 0.01)


class TestExpm:

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 10.0])
    @pytest.mark.parametrize("dt", [1 / 256, 1 / 64, 1.0, 20.5])
    def test_undriven_step_against_40_digit_exponential(self, temperature,
                                                        dt):
        _, a0, _ = dynamics._generator(make_bath(temperature=temperature),
                                       Drive())
        with mp.workdps(40):
            exact = mp.expm(mp.matrix((a0 * dt).tolist()))
        rounded = np.array(exact.tolist(), dtype=float)
        step = dynamics._expm(a0 * dt)
        scipy_error = np.max(np.abs(linalg.expm(a0 * dt) - rounded))
        assert np.max(np.abs(step - rounded)) <= 2 * scipy_error
        # sample 70,000 of an undriven run against the same power of the
        # correctly rounded step: at T = 0.1 and dt = 1/256 even that power
        # is 4.3e-13 off the 40-digit one, from rounding in the powering
        v0 = np.array([0.3, -0.4, 0.5, 1.0])
        n = np.array([70_000])
        assert np.max(np.abs(dynamics._powers(step, n, v0)
                             - dynamics._powers(rounded, n, v0))) <= 1e-13

    def test_zero_and_scalar_cases(self):
        assert np.array_equal(dynamics._expm(np.zeros((4, 4))), np.eye(4))
        assert dynamics._expm(np.array([[-700.0]]))[0, 0] == \
            pytest.approx(math.exp(-700.0), rel=1e-13)


class TestSteadyState:

    def test_matches_linear_solve_oracle(self):
        bath = make_bath()
        m, b = generator_at(bath, Drive(), t=0.0)
        expected = np.linalg.solve(m, b)
        assert np.allclose(steady_state(bath), expected, atol=1e-14)

    def test_returns_float_array(self):
        bath = make_bath()
        s = steady_state(bath)
        assert isinstance(s, np.ndarray)
        assert s.dtype == np.float64 and s.shape == (3,)
        assert np.array_equal(
            s, [0.0, 0.0, -math.pi * bath.alpha / rate_static(bath)])

    def test_thermal_polarization(self):
        assert steady_state(make_bath(temperature=1.0))[2] == \
            pytest.approx(-math.tanh(0.5), rel=1e-14)

    def test_limits(self):
        hot = steady_state(make_bath(temperature=1e6))
        assert np.max(np.abs(hot)) < 1e-5
        cold = steady_state(make_bath(temperature=0.0))
        assert np.allclose(cold, [0, 0, -1.0])

    def test_requires_dissipation(self):
        with pytest.raises(NoSteadyStateError):
            steady_state(BathSpec(0.0, 500.0, 1.0))


class TestDecayEigenvalues:

    def test_dissipationless_limit(self):
        spec = decay_eigenvalues(BathSpec(0.0, 500.0, 1.0))
        got = sorted(spec.exact, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j)
        assert got[1] == pytest.approx(0.0)
        assert got[2] == pytest.approx(1j)

    def test_weak_damping_form(self):
        bath = make_bath()
        gamma = rate_static(bath)
        spec = decay_eigenvalues(bath)
        for exact, weak in zip(spec.exact, spec.weak_damping):
            assert abs(exact - weak) <= (gamma / 2.0) ** 2
        assert not spec.overdamped

    def test_matches_quadratic_formula_oracle(self):
        bath = make_bath()
        gamma = rate_static(bath)
        m = np.array([[0.0, -1.0, 0.0], [1.0, gamma, 0.0], [0.0, 0.0, gamma]])
        expected = np.sort_complex(np.linalg.eigvals(m))
        got = np.sort_complex(np.array(decay_eigenvalues(bath).exact))
        assert np.max(np.abs(expected - got)) < 1e-12

    def test_overdamped_flagged_and_real(self):
        import warnings
        # Gamma = 3: far outside the weak-damping regime
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bath = BathSpec(3.0 / math.pi, 500.0, 0.0)
            spec = decay_eigenvalues(bath)
        assert spec.overdamped
        assert all(abs(z.imag) < 1e-12 for z in spec.exact)


class TestAverageEntropyProduction:

    def test_zero_without_dissipation(self):
        bath = BathSpec(0.0, 500.0, 1.0)
        mean, sem = average_entropy_production(bath, Drive(), 2000,
                                               seed=3)
        assert mean == pytest.approx(0.0, abs=1e-14)

    def test_undriven_trace_identity(self):
        bath = make_bath()
        mean, sem = average_entropy_production(bath, Drive(), 100_000,
                                               seed=11)
        assert abs(mean - 2 * rate_static(bath) / 3) <= 3 * sem

    def test_dd_trace_identity(self):
        bath = make_bath()
        d = Drive("dd", 2.4, 1000.0)
        mean, sem = average_entropy_production(bath, d, 100_000, seed=12)
        assert abs(mean - 2 * rate_dd(d, bath) / 3) <= 3 * sem

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            average_entropy_production(make_bath(), Drive(), 10)
