"""Reference values for drivenqubit's CSV output, computed apart from it.

Nothing here imports drivenqubit.  Rates and stabilization factors are
evaluated with mpmath from the closed-form series that
``drivenqubit.rates`` documents, summed until a proven tail bound is
negligible.  Trajectories follow the Bloch equation of motion that
``drivenqubit.dynamics`` documents,

    ds/dt = s x w(t) - diag(0, G, G) s + b,    b = (0, 0, -pi*alpha),

with w = (0, 0, 1 + 2A cos(Omega t)) for the sigma_z (DD) drive,
w = (2A cos(Omega t), 0, 1) for the sigma_x (CDT) drive and
w = (0, 0, 1) undriven (Delta = 1).  The sense of rotation is the one
stated in the comments of ``dynamics._generator_matrix``.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm

mp.mp.dps = 30
SERIES_TAIL = mp.mpf("1e-25")

# CSV floats carry 9 significant digits, a relative rounding error of at
# most 5e-9; the other 5e-9 covers the program's own truncation of the
# DD series, which is below 3e-9 for x <= 50.
RATE_RTOL = 1e-8
# delta_eff = J0(x) may sit next to a zero of J0, where only an absolute
# bound on the program's Bessel value holds.
RATE_ATOL = 1e-14
# The program integrates at rtol = atol = 1e-10; its samples agree with
# the references below to better than 1e-8 on every workload.
STATE_ATOL = 1e-7
# S and Sdot are recomputed from the 9-digit s columns, and are printed
# with 9 digits themselves; see entropy_tolerances.
ENTROPY_RTOL = 1e-8
# undriven_states evaluates expm afresh every EXPM_CHUNK samples
EXPM_CHUNK = 256
# driven_states' RK4 steps turn the fastest precession by at most this
RK4_PHASE_STEP = 2e-3


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


# --------------------------------------------------------------------------
# rates and stabilization factors (mpmath)


def spectrum(alpha, temperature, w):
    """S(w) = 2*pi*alpha*w*coth(w/2T) with its T = 0 and w = 0 limits."""
    alpha, w = mp.mpf(alpha), mp.mpf(w)
    if temperature == 0:
        return 2 * mp.pi * alpha * w
    temperature = mp.mpf(temperature)
    if w == 0:
        return 4 * mp.pi * alpha * temperature
    return 2 * mp.pi * alpha * w / mp.tanh(w / (2 * temperature))


class BesselSquares:
    """J_n(x)^2 for n = 0, 1, ..., kept once computed.

    The values come in blocks from Miller's backward recurrence
    J_(k-1) = (2k/x) J_k - J_(k+1), started 60 orders above the block and
    normalized by J_0 + 2 sum_k J_(2k) = 1; this is stable, and far
    cheaper than one mpmath besselj call per order.
    """

    def __init__(self, x):
        self.x = mp.mpf(x)
        self._values = []

    def __getitem__(self, n):
        if n >= len(self._values):
            self._values = self._block(max(2 * n, int(2 * self.x) + 60))
        return self._values[n]

    def _block(self, n_max):
        if self.x == 0:
            return [mp.mpf(1)] + [mp.mpf(0)] * n_max
        start = n_max + 60
        values = [mp.mpf(0)] * (start + 2)
        values[start] = mp.mpf("1e-300")
        for k in range(start, 0, -1):
            values[k - 1] = 2 * k / self.x * values[k] - values[k + 1]
        norm = values[0] + 2 * mp.fsum(values[2:start + 1:2])
        return [(v / norm) ** 2 for v in values[:n_max + 1]]


def rate_static(alpha, temperature):
    return spectrum(alpha, temperature, 1) / 2


def rate_cdt(alpha, temperature, x):
    return spectrum(alpha, temperature, abs(mp.besselj(0, mp.mpf(x)))) / 2


def rate_dd(alpha, omega_c, temperature, x, omega, squares=None):
    """Gamma_DD = [J0^2 S(1) + 2 sum_n J_n^2 S(n Omega) e^(-n Omega/wc)] / 2.

    Harmonics are added until a bound on the whole remaining tail is below
    SERIES_TAIL of the sum.  |J_n(x)| <= (x/2)^n/n! and
    w coth(w/2T) <= w + 2T bound each term by B_n; for n >= x,
    B_(n+1) <= B_n/2, so the tail after n is at most B_n.
    """
    squares = squares if squares is not None else BesselSquares(x)
    x = mp.mpf(x)
    omega, omega_c = mp.mpf(omega), mp.mpf(omega_c)
    total = squares[0] * spectrum(alpha, temperature, 1)
    n = 0
    while True:
        n += 1
        w = n * omega
        cutoff = mp.exp(-w / omega_c)
        total += 2 * squares[n] * spectrum(alpha, temperature, w) * cutoff
        if n >= x:
            bound = (2 * ((x / 2) ** n / mp.factorial(n)) ** 2
                     * 2 * mp.pi * alpha * (w + 2 * temperature) * cutoff)
            if bound <= SERIES_TAIL * total:
                return total / 2


def scan_rows(drive, points, alpha, omega_c):
    """Reference rows [param, delta_eff, gamma_eff, gamma, eta] of a scan.

    ``points`` holds (param, x, omega, temperature) per row.
    """
    squares = {}
    rows = []
    for param, x, omega, temperature in points:
        if drive == "dd":
            sq = squares.setdefault(x, BesselSquares(x))
            rate = rate_dd(alpha, omega_c, temperature, x, omega, sq)
            delta_eff = mp.mpf(1)
        else:
            rate = rate_cdt(alpha, temperature, x)
            delta_eff = mp.besselj(0, mp.mpf(x))
        eta = rate_static(alpha, temperature) / (4 * rate)
        rows.append([param, float(delta_eff), float(rate), float(2 * rate),
                     float(eta)])
    return np.array(rows)


def fig1_rows(omegas, temperatures, amp_ratio, alpha, omega_c):
    squares = BesselSquares(amp_ratio)
    rows = []
    for omega in omegas:
        row = [omega]
        for temperature in temperatures:
            rate = rate_dd(alpha, omega_c, temperature, amp_ratio, omega,
                           squares)
            row.append(float(rate_static(alpha, temperature) / (4 * rate)))
        rows.append(row)
    return np.array(rows)


# --------------------------------------------------------------------------
# Bloch trajectories (numpy / scipy.linalg.expm)


def _generator_parts(drive, amplitude, gamma, alpha):
    """A0, A1 with d/dt (s, 1) = (A0 + cos(Omega t) A1) (s, 1)."""

    def cross(w):
        # s x w = -[w]_x s
        wx, wy, wz = w
        return -np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])

    a0 = np.zeros((4, 4))
    a0[:3, :3] = cross((0.0, 0.0, 1.0)) - np.diag([0.0, gamma, gamma])
    a0[2, 3] = -math.pi * alpha
    a1 = np.zeros((4, 4))
    axis = {"dd": (0.0, 0.0, 1.0), "cdt": (1.0, 0.0, 0.0),
            "none": (0.0, 0.0, 0.0)}[drive]
    a1[:3, :3] = cross(tuple(2.0 * amplitude * c for c in axis))
    return a0, a1


def undriven_states(times, s0, gamma, alpha):
    """s(t) = expm(A t) (s0, 1) for the constant generator A.

    expm is evaluated at the start of every EXPM_CHUNK samples; inside a
    chunk the samples must be equally spaced and use powers of
    expm(A dt).
    """
    a0, _ = _generator_parts("none", 0.0, gamma, alpha)
    v0 = np.append(np.asarray(s0, dtype=float), 1.0)
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    step = expm(a0 * dt)
    powers = [np.eye(4)]
    for _ in range(1, EXPM_CHUNK):
        powers.append(step @ powers[-1])
    powers = np.array(powers)
    out = np.empty((len(times), 3))
    for start in range(0, len(times), EXPM_CHUNK):
        base = expm(a0 * times[start]) @ v0
        block = powers[:min(EXPM_CHUNK, len(times) - start)] @ base
        out[start:start + len(block)] = block[:, :3]
    return out


def driven_states(times, drive, amplitude, omega, s0, gamma, alpha):
    """s(t) from the one-period propagator Phi(T) of the periodic generator.

    Phi is integrated over one drive period with fixed-step classical RK4,
    each step turning the fastest precession by at most RK4_PHASE_STEP
    radians; then s(nT + tau) = Phi(tau) Phi(T)^n (s0, 1).
    """
    a0, a1 = _generator_parts(drive, amplitude, gamma, alpha)
    period = 2.0 * math.pi / omega
    w_max = 1.0 + 2.0 * amplitude + gamma
    n_steps = max(64, math.ceil(w_max * period / RK4_PHASE_STEP))
    h = period / n_steps

    def gen(t):
        return a0 + math.cos(omega * t) * a1

    def rk4(phi, t, dt):
        k1 = gen(t) @ phi
        mid = gen(t + 0.5 * dt)
        k2 = mid @ (phi + 0.5 * dt * k1)
        k3 = mid @ (phi + 0.5 * dt * k2)
        k4 = gen(t + dt) @ (phi + dt * k3)
        return phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    grid = [np.eye(4)]
    for i in range(n_steps):
        grid.append(rk4(grid[-1], i * h, h))
    one_period = grid[-1]
    v0 = np.append(np.asarray(s0, dtype=float), 1.0)
    out = []
    for t in times:
        n = int(t // period)
        tau = t - n * period
        m = min(int(tau // h), n_steps)
        phi = rk4(grid[m], m * h, tau - m * h) if tau > m * h else grid[m]
        out.append((phi @ np.linalg.matrix_power(one_period, n) @ v0)[:3])
    return np.array(out)


def entropy_tolerances(gamma):
    """(rtol, atol) for S and Sdot: their own rounding, plus the effect of
    a 5e-9 relative error in each s component, |d(s.s)| <= 1e-8 and
    |dSdot| <= (2 G + pi*alpha) 5e-9 < 1e-8 (1 + G)."""
    return ENTROPY_RTOL, 1e-8 * (1.0 + gamma)


def entropy_columns(s, gamma, alpha):
    """S = (1 - s.s)/2 and dS/dt = s.M.s - s.b = G (s_y^2 + s_z^2) + pi*alpha*s_z."""
    entropy = 0.5 * (1.0 - np.einsum("ij,ij->i", s, s))
    rate = gamma * (s[:, 1] ** 2 + s[:, 2] ** 2) + math.pi * alpha * s[:, 2]
    return entropy, rate


# --------------------------------------------------------------------------
# comparison helpers


def read_csv(path):
    """(header, data rows as a 2-D float array), skipping '#' comments."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.rstrip("\n").split(",")
                break
        else:
            raise CheckFailed("no header line")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def expect_close(what, got, want, rtol=0.0, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.abs(want) + atol)
    if np.any(bad):
        i = np.unravel_index(np.argmax(np.where(bad, err, -1.0)), err.shape)
        raise CheckFailed(f"{what}: {int(bad.sum())} values off, worst at "
                          f"{tuple(int(k) for k in i)}: {got[i]!r} vs "
                          f"{want[i]!r}")
