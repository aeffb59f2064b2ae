"""The operations of each workload, made from a seed, and their checks.

An operation is one ``drivenqubit.cli.main`` call.  Its check reads the
CSV the call wrote and compares it with ``reference``.  The checks
import ``reference`` (and with it mpmath) themselves: they run after the
timed passes, so the benchmark's own modules stay out of the peak memory
of the passes.  The seed fixes every input, so one seed always gives the
same operation list.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

ALPHA = 0.01
OMEGA_C = 500.0
FIG1_OMEGAS = (10.0, 1.0e4, 200)
FIG1_TEMPERATURES = (0.1, 1.0, 10.0)
FIG1_AMP_RATIO = 2.4
# First zero of J1: drivenqubit's DD harmonic sum stops at the first
# negligible term, so here it drops every harmonic beyond n = 0.
J1_ZERO = 3.831705970207512
SCAN_POINTS = 200
# harmonics summed by trips_early_exit; J_n(50)^2 < 1e-120 beyond them
HARMONICS = 160
# initial states have |s0| <= S0_RADIUS, clear of the Bloch sphere
S0_RADIUS = 0.9


@dataclass
class Op:
    """One CLI call: its arguments (without --out) and the check of its CSV."""

    label: str
    argv: list
    check: Callable
    expect_fail: bool = False


def _num(v: float) -> str:
    return repr(float(v))


def _bath_args(temperature):
    return ["--alpha", _num(ALPHA), "--omega-c", _num(OMEGA_C),
            "--temperature", _num(temperature)]


# --------------------------------------------------------------------------
# sweep


def _harmonic_terms(x, omega, temperature):
    """Terms of the DD series per point (rows) and harmonic (columns)."""
    x, omega, temperature = np.broadcast_arrays(
        np.atleast_1d(x), np.atleast_1d(omega), np.atleast_1d(temperature))
    n = np.arange(HARMONICS + 1)
    w = np.where(n == 0, 1.0, n * omega[:, None])
    spec = 2 * math.pi * ALPHA * w / np.tanh(w / (2 * temperature[:, None]))
    cutoff = np.where(n == 0, 1.0, 2.0 * np.exp(-w / OMEGA_C))
    return special.jv(n, x[:, None]) ** 2 * spec * cutoff


def trips_early_exit(x, omega, temperature):
    """True if a DD point has a harmonic below 1e-14 of the partial sum
    while the harmonics after it still add more than 1e-12 of the total.

    drivenqubit stops the series at such a harmonic (the fault that the
    J1-zero operation shows); seeded points that would hit it are drawn
    again, so that the share of failed operations does not depend on the
    seed.
    """
    terms = _harmonic_terms(x, omega, temperature)
    partial = np.cumsum(terms, axis=1)
    total = partial[:, -1:]
    tail = total - partial
    stop = terms[:, 1:65] < 1e-14 * partial[:, 1:65]
    return bool(np.any(stop & (tail[:, 1:65] > 1e-12 * total)))


def _grid(lo, hi, points, spacing):
    return (np.geomspace(lo, hi, points) if spacing == "log"
            else np.linspace(lo, hi, points))


def scan_op(label, drive, sweep, lo, hi, spacing, *, temperature=1.0,
            amp_ratio=0.0, omega=100.0, expect_fail=False):
    grid = _grid(lo, hi, SCAN_POINTS, spacing)
    argv = (["scan", "--sweep", sweep, "--min", _num(lo), "--max", _num(hi),
             "--points", str(SCAN_POINTS), "--spacing", spacing,
             "--drive", drive, "--amp-ratio", _num(amp_ratio),
             "--omega", _num(omega)] + _bath_args(temperature))
    points = [(v,
               v if sweep == "amp_ratio" else amp_ratio,
               v if sweep == "omega" else omega,
               v if sweep == "temperature" else temperature) for v in grid]
    eta_name = "eta" if drive == "dd" else "eta_cdt"

    def check(path):
        import reference as ref
        header, data = ref.read_csv(path)
        if header != [sweep, "delta_eff", "gamma_eff", "gamma", eta_name]:
            raise ref.CheckFailed(f"header {header}")
        ref.expect_close(f"{label}: values", data,
                         ref.scan_rows(drive, points, ALPHA, OMEGA_C),
                         ref.RATE_RTOL, ref.RATE_ATOL)
        if sweep == "amp_ratio" and lo == 0.0 and data[0, 4] != 0.25:
            raise ref.CheckFailed(f"{label}: eta at x = 0 is {data[0, 4]!r}")
    return Op(label, argv, check, expect_fail)


@functools.cache
def _fig1_reference():
    import reference as ref
    return ref.fig1_rows(np.geomspace(*FIG1_OMEGAS), FIG1_TEMPERATURES,
                         FIG1_AMP_RATIO, ALPHA, OMEGA_C)


def fig1_op():
    def check(path):
        import reference as ref
        header, data = ref.read_csv(path)
        if header != ["omega"] + [f"eta_T{t:g}" for t in FIG1_TEMPERATURES]:
            raise ref.CheckFailed(f"header {header}")
        ref.expect_close("fig1: values", data, _fig1_reference(),
                         ref.RATE_RTOL)
    return Op("fig1", ["fig1"], check)


def _draw(draw, hazard):
    for _ in range(10_000):
        params = draw()
        if not hazard(*params):
            return params
    raise RuntimeError("no seeded parameters clear of the early exit")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def sweep(rng: random.Random) -> list:
    """21 operations: fig1 eleven times (more than half, so the median
    operation is a fig1 call), four eta(Omega) scans with x drawn from
    four log-strata of [0.5, 50], the J1-zero scan, eta against x for DD
    and CDT, eta against temperature for DD and CDT, and one short
    undriven evolve, so that the dynamics layer's times are measured
    (not structurally zero) on this workload too."""
    ops = [fig1_op() for _ in range(11)]
    omega_grid = _grid(10.0, 1.0e4, SCAN_POINTS, "log")
    edges = np.geomspace(0.5, 50.0, 5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, t = _draw(lambda: (_log_uniform(rng, lo, hi),
                              _log_uniform(rng, 0.1, 10.0)),
                     lambda x, t: trips_early_exit(x, omega_grid, t))
        ops.append(scan_op(f"eta(Omega) dd x={x:.6g} T={t:.6g}", "dd",
                           "omega", 10.0, 1.0e4, "log", temperature=t,
                           amp_ratio=x))
    ops.append(scan_op(f"eta(Omega) dd x={J1_ZERO} (J1 zero)", "dd", "omega",
                       10.0, 1.0e4, "log", temperature=1.0, amp_ratio=J1_ZERO,
                       expect_fail=True))

    # eta against x: low Omega keeps the DD series long, so the scan costs
    # about the same on every seed.
    x_max, omega, t = _draw(
        lambda: (rng.uniform(45.0, 50.0), _log_uniform(rng, 10.0, 30.0),
                 _log_uniform(rng, 0.1, 10.0)),
        lambda x_max, omega, t: trips_early_exit(
            _grid(0.0, x_max, SCAN_POINTS, "linear"), omega, t))
    ops.append(scan_op(f"eta(x) dd Omega={omega:.6g} T={t:.6g}", "dd",
                       "amp_ratio", 0.0, x_max, "linear", temperature=t,
                       omega=omega))
    x_max, omega, t = (rng.uniform(45.0, 50.0), _log_uniform(rng, 10.0, 1e4),
                       _log_uniform(rng, 0.1, 10.0))
    ops.append(scan_op(f"eta(x) cdt Omega={omega:.6g} T={t:.6g}", "cdt",
                       "amp_ratio", 0.0, x_max, "linear", temperature=t,
                       omega=omega))

    t_lo, t_hi, x, omega = _draw(
        lambda: (rng.uniform(0.05, 0.2), rng.uniform(5.0, 10.0),
                 _log_uniform(rng, 0.5, 10.0), _log_uniform(rng, 10.0, 1e4)),
        lambda t_lo, t_hi, x, omega: trips_early_exit(
            x, omega, _grid(t_lo, t_hi, SCAN_POINTS, "linear")))
    ops.append(scan_op(f"eta(T) dd x={x:.6g} Omega={omega:.6g}", "dd",
                       "temperature", t_lo, t_hi, "linear", amp_ratio=x,
                       omega=omega))
    t_lo, t_hi, x, omega = (rng.uniform(0.05, 0.2), rng.uniform(5.0, 10.0),
                            rng.uniform(0.5, 10.0),
                            _log_uniform(rng, 10.0, 1e4))
    ops.append(scan_op(f"eta(T) cdt x={x:.6g} Omega={omega:.6g}", "cdt",
                       "temperature", t_lo, t_hi, "linear", amp_ratio=x,
                       omega=omega))
    t = _log_uniform(rng, 0.2, 10.0)
    ops.append(evolve_op(f"evolve none t_max=20.5 T={t:.6g}", "none",
                         _initial_state(rng), 20.5, 1.0, temperature=t))
    return ops


# --------------------------------------------------------------------------
# trajectories


def _initial_state(rng):
    """Uniform direction, radius uniform in [0, S0_RADIUS]."""
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return v / norm * rng.uniform(0.0, S0_RADIUS)


def _gamma(drive, temperature, x, omega):
    import reference as ref
    if drive == "dd":
        return float(ref.rate_dd(ALPHA, OMEGA_C, temperature, x, omega))
    if drive == "cdt":
        return float(ref.rate_cdt(ALPHA, temperature, x))
    return float(ref.rate_static(ALPHA, temperature))


def evolve_op(label, drive, s0, t_max, dt_out, *, temperature, amp_ratio=0.0,
              omega=100.0, subset=()):
    """Trajectory check: undriven rows against expm of the constant
    generator, DD s_z against its closed form, DD and CDT rows in
    ``subset`` against the one-period propagator, S and Sdot against
    their formulas on every row."""
    s0 = [float(v) for v in s0]
    argv = (["evolve", "--drive", drive, "--amp-ratio", _num(amp_ratio),
             "--omega", _num(omega), "--s0=" + ",".join(_num(v) for v in s0),
             "--t-max", _num(t_max), "--dt-out", _num(dt_out)]
            + _bath_args(temperature))
    amplitude = 0.5 * amp_ratio * omega
    n_rows = int(math.floor(t_max / dt_out + 1e-9)) + 1
    times = np.arange(n_rows) * dt_out

    def check(path):
        import reference as ref
        header, data = ref.read_csv(path)
        if header != ["t", "s_x", "s_y", "s_z", "S", "Sdot"]:
            raise ref.CheckFailed(f"header {header}")
        if len(data) != n_rows:
            raise ref.CheckFailed(
                f"{label}: {len(data)} rows, expected {n_rows}")
        ref.expect_close(f"{label}: t", data[:, 0], times, 1e-8, 1e-12)
        s = data[:, 1:4]
        gamma = _gamma(drive, temperature, amp_ratio, omega)
        if drive == "none":
            rows = np.arange(n_rows)
            want = ref.undriven_states(times, s0, gamma, ALPHA)
        else:
            rows = np.array(sorted(set(subset) | {n_rows - 1}))
            want = ref.driven_states(times[rows], drive, amplitude, omega,
                                     s0, gamma, ALPHA)
        ref.expect_close(f"{label}: s", s[rows], want, 0.0, ref.STATE_ATOL)
        if drive == "dd":
            s_ss = -math.pi * ALPHA / gamma
            s_z = s_ss + (s0[2] - s_ss) * np.exp(-gamma * times)
            ref.expect_close(f"{label}: s_z", s[:, 2], s_z, 0.0,
                             ref.STATE_ATOL)
        entropy, rate = ref.entropy_columns(s, gamma, ALPHA)
        tols = ref.entropy_tolerances(gamma)
        ref.expect_close(f"{label}: S", data[:, 4], entropy, *tols)
        ref.expect_close(f"{label}: Sdot", data[:, 5], rate, *tols)
    return Op(label, argv, check)


TRAJECTORY_CYCLES = 95


def trajectory(rng: random.Random) -> list:
    """8 driven evolves, 4 DD and 4 CDT.  x is drawn from four strata of
    [0.5, 3] and Omega from four log-strata of [50, 200], paired at
    random; t_max spans TRAJECTORY_CYCLES drive periods, so the solver
    cost of an operation depends little on the seed."""
    ops = []
    for drive in ("dd", "cdt"):
        x_edges = np.linspace(0.5, 3.0, 5)
        w_edges = np.geomspace(50.0, 200.0, 5)
        order = list(range(4))
        rng.shuffle(order)
        for i, j in enumerate(order):
            x = rng.uniform(x_edges[i], x_edges[i + 1])
            omega = _log_uniform(rng, w_edges[j], w_edges[j + 1])
            t = _log_uniform(rng, 1.0, 10.0)
            s0 = _initial_state(rng)
            # half-integer t_max: the last sample never sits on t_max
            t_max = math.floor(TRAJECTORY_CYCLES * 2 * math.pi / omega) + 0.5
            n_rows = int(t_max) + 1
            subset = rng.sample(range(n_rows), 3)
            ops.append(evolve_op(
                f"evolve {drive} x={x:.6g} Omega={omega:.6g} T={t:.6g}",
                drive, s0, t_max, 1.0, temperature=t, amp_ratio=x,
                omega=omega, subset=subset))
    return ops


DENSE_ROWS = 70_000
# binary fractions, so that every sample time k*dt is exact
DENSE_DT = (1 / 256, 1 / 128, 1 / 64)


def dense_output(rng: random.Random) -> list:
    """3 undriven evolves with 70,001 samples each, over t = 273, 547 and
    1094: the sample count, not the time span, sets most of the cost."""
    ops = []
    for dt in DENSE_DT:
        t_max = DENSE_ROWS * dt
        t = _log_uniform(rng, 0.2, 10.0)
        ops.append(evolve_op(f"evolve none t_max={t_max:g} T={t:.6g}", "none",
                             _initial_state(rng), t_max, dt, temperature=t))
    return ops


WORKLOADS = {"sweep": sweep, "trajectory": trajectory,
             "dense_output": dense_output}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))
