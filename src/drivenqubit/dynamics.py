"""Bloch-vector dynamics: ds/dt = -M(t) s + b, entropy diagnostics.

The decay matrix M combines an antisymmetric coherent block (precession
about z at Delta = 1, plus the instantaneous drive rotation 2A*cos(Omega t)
about x for CDT or about z for DD) with the dissipative diagonal
diag(0, Gamma_eff, Gamma_eff) of the sigma_x double-commutator; the
inhomogeneity b = (0, 0, -pi*alpha) is not modified by the driving.
tr M = 2*Gamma_eff at all times.

M(t) repeats with the drive period T = 2*pi/Omega, so evolve builds the
affine propagator over one period only and reaches every later sample
through integer powers of it.  The one-period propagator is a product of
fourth-order Magnus steps, each the matrix exponential (_expm) of a
closed-form exponent, with as many steps as the whole run's error budget
tol needs; an undriven run takes powers of one exponential.  The package
runs on numpy alone.

evolve calls no ODE solver.  dynamics.solve_ivp (scipy's) stays a module
attribute only because perfbench's tracer swaps that name to count solver
calls; it is resolved on first access (PEP 562 __getattr__), so that
importing the package loads no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, RegimeWarning
from .driving import CDT, DD, Drive
from .operators import BlochState
from .rates import effective_rate, rate_static


def __getattr__(name):
    """solve_ivp, imported from scipy.integrate on first access."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IntegrationDivergedError(RuntimeError):
    """Bloch vector left the unit ball by more than the allowed slack."""


class NoSteadyStateError(ValueError):
    """The decay matrix is singular (alpha = 0): no unique fixed point."""


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled Bloch trajectory with entropy diagnostics."""

    t: np.ndarray          # sample times, strictly increasing
    s: np.ndarray          # shape (n, 3)
    entropy: np.ndarray    # linear entropy (1 - s.s)/2
    entropy_rate: np.ndarray
    # driven runs only: Magnus steps per period and the estimated error
    # of the one-period propagator (max row sum over the s rows)
    substeps: int | None = None
    period_error: float | None = None

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> BlochState:
        return BlochState(tuple(self.s[i]), float(self.t[i]))


def _generator(bath: BathSpec, drive: Drive):
    """Gamma_eff and the 4x4 A0, A1 with d/dt (s, 1) = A(t) (s, 1).

    A(t) = A0 + cos(Omega t) A1.  A0 = [[-M0, b], [0, 0]] holds the
    undriven decay matrix M0 (precession about z at Delta = 1, damping
    Gamma_eff of s_y and s_z) and the inhomogeneity b = (0, 0, -pi*alpha);
    A1 is the drive's rotation at rate 2A about x (CDT) or about z (DD),
    zero undriven.
    """
    gamma_eff = effective_rate(bath, drive)
    a0 = np.zeros((4, 4))
    # rotation about z: ds_x/dt = +s_y, ds_y/dt = -s_x
    a0[0, 1], a0[1, 0] = 1.0, -1.0
    a0[1, 1] = a0[2, 2] = -gamma_eff
    a0[2, 3] = -math.pi * bath.alpha
    a1 = np.zeros((4, 4))
    w = 2.0 * drive.amplitude
    if drive.kind == CDT:
        # rotation about x: ds_y/dt = +w*s_z, ds_z/dt = -w*s_y
        a1[1, 2], a1[2, 1] = w, -w
    elif drive.kind == DD:
        a1[0, 1], a1[1, 0] = w, -w
    return gamma_eff, a0, a1


def _entropy_rate(s: np.ndarray, gamma_eff: float, b_z: float):
    """dS/dt = -s.(ds/dt) = s.M.s - s.b = Gamma_eff*(s_y^2 + s_z^2) - b_z*s_z.

    The coherent block of M (the precession and the drive rotation) is
    antisymmetric, and s.A.s = 0 for any antisymmetric A, so the drive's
    time dependence drops out.  s may be one Bloch vector or a stack.
    """
    return gamma_eff * (s[..., 1] ** 2 + s[..., 2] ** 2) - b_z * s[..., 2]


# _expm scales its argument to a 1-norm of at most _EXPM_NORM, where
# _EXPM_TERMS Taylor terms leave a remainder below 1e-16 of the sum
_EXPM_NORM = 0.5
_EXPM_TERMS = 14


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^a by a Taylor series with scaling and squaring.

    a is one square matrix or a stack of them, shape (..., n, n); a stack
    shares the scaling of its largest 1-norm.  b = a/2^s has 1-norm <= 1/2,
    and E = e^b - I = b(I + b/2(I + b/3(...))) is summed by Horner's rule.
    The squarings carry E itself, as (I + E)^2 = I + (2E + E^2), so the
    low bits of e^b next to the identity are not rounded away; once an
    entry of E reaches 1/2, e^b is no longer near I and the remaining
    squarings act on I + E, which keeps entries that decay toward 0 from
    rounding against 1.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(norm / _EXPM_NORM))) if norm else 0
    b = a / 2.0 ** s
    eye = np.eye(a.shape[-1])
    e = np.zeros_like(b)
    for k in range(_EXPM_TERMS, 0, -1):
        e = b @ (eye + e) / k
    while s and np.abs(e).max() <= 0.5:
        e = 2.0 * e + e @ e
        s -= 1
    m = eye + e
    for _ in range(s):
        m = m @ m
    return m


# the first Magnus step count has h*(|A0|_1 + |A1|_1) <= _MAGNUS_NORM.
# Rounding in the step product grows with the count, from ~1e-14 per
# period at 1024 steps; past _MAX_SUBSTEPS it outgrows the truncation
# error that more steps would remove, so the count stops there.
_MAGNUS_NORM = 0.5
_MAX_SUBSTEPS = 2 ** 13
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _magnus_exponents(a0, a1, omega, start, width):
    """Fourth-order Magnus exponents of A(t) = A0 + cos(Omega t) A1, one
    per interval [start, start + width] (arrays), shape (k, 4, 4).

    With c1, c2 the cosines at the two Gauss points t1 < t2 of a step of
    width h, the exponent h/2 (A(t1) + A(t2)) - sqrt(3)/12 h^2 [A(t1), A(t2)]
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) reads
    h A0 + h (c1 + c2)/2 A1 + sqrt(3)/12 h^2 (c1 - c2) [A0, A1].
    """
    h = np.asarray(width, dtype=float)[:, None, None]
    mid = np.asarray(start, dtype=float)[:, None, None] + 0.5 * h
    c1 = np.cos(omega * (mid - _GAUSS_OFFSET * h))
    c2 = np.cos(omega * (mid + _GAUSS_OFFSET * h))
    return (h * a0 + 0.5 * h * (c1 + c2) * a1
            + math.sqrt(3.0) / 12.0 * h * h * (c1 - c2) * (a0 @ a1 - a1 @ a0))


def _step_tree(a0, a1, omega, span, n):
    """Levels of the tree product of n uniform Magnus steps over [0, span].

    Level 0 holds the n step propagators, exponentiated in one batched
    _expm call; level j holds the products of 2^j consecutive steps,
    later steps on the left, and the last level Phi(span) alone.  n is a
    power of two.
    """
    h = span / n
    steps = _expm(_magnus_exponents(a0, a1, omega, np.arange(n) * h,
                                    np.full(n, h)))
    levels = [steps]
    while len(steps) > 1:
        steps = steps[1::2] @ steps[::2]
        levels.append(steps)
    return levels


def _prefix_products(levels, m: np.ndarray) -> np.ndarray:
    """Phi(m h), the product of the first m steps, for each m in 0..n.

    Bit j of m, highest first, appends the level-j node that covers the
    next 2^j steps: one masked batch product per level.  k = m >> j counts
    the steps covered so far in units of 2^j, so the node is k - 1 when
    bit j is set (when k = 0 the index -1 is read and masked out).
    """
    phi = np.broadcast_to(np.eye(4), (len(m), 4, 4))
    for j in range(len(levels) - 1, -1, -1):
        k = m >> j
        phi = np.where((k & 1).astype(bool)[:, None, None],
                       levels[j][k - 1] @ phi, phi)
    return phi


def _one_period(a0, a1, omega, span, periods, tol):
    """Step tree of the one-period propagator and its error estimate.

    Starts from the power-of-two step count n at which h*(|A0|_1 + |A1|_1)
    <= 1/2, or from half of _MAX_SUBSTEPS if that is smaller.  The
    fourth-order error e(N) = c N^-4 of Phi(span) is fitted to the
    difference of the n- and 2n-step products, e(n) - e(2n) = 15/16 c n^-4,
    and the count doubles from 2n until periods * e(N) <= tol, so tol
    bounds the whole run.  e is the max row sum over the s rows, which
    bounds the error Phi adds to s per period.  Past _MAX_SUBSTEPS one
    RegimeWarning names the estimate reached.
    """
    norm = np.abs(a0).sum(axis=0).max() + np.abs(a1).sum(axis=0).max()
    n = min(2 ** max(0, math.ceil(math.log2(span * norm / _MAGNUS_NORM))),
            _MAX_SUBSTEPS // 2)
    coarse = _step_tree(a0, a1, omega, span, n)[-1][0]
    levels = _step_tree(a0, a1, omega, span, 2 * n)
    diff = float(np.abs(levels[-1][0, :3] - coarse[:3]).sum(axis=1).max())
    c = 16.0 / 15.0 * diff * float(n) ** 4
    count = 2 * n
    while count < _MAX_SUBSTEPS and periods * c / float(count) ** 4 > tol:
        count *= 2
    error = c / float(count) ** 4
    if periods * error > tol:
        warnings.warn(
            f"the one-period propagator stops at {count} Magnus steps with "
            f"an error estimate of {error:.3e} per period; over {periods} "
            f"periods that is {periods * error:.3e}, above tol = {tol:.3e}",
            RegimeWarning, stacklevel=3)
    if count > 2 * n:
        levels = _step_tree(a0, a1, omega, span, count)
    return levels, error


def _apply_powers(step: np.ndarray, n: np.ndarray,
                  v0: np.ndarray) -> np.ndarray:
    """Columns step^n[k] @ v0, shape (4, len(n)), by binary powering.

    One masked batch matvec per bit of max(n): the squares step^(2^j)
    commute, so each column takes them in any order, and the memory is
    that of the columns, not of max(n).
    """
    v = np.repeat(v0[:, None], len(n), axis=1)
    while True:
        v = np.where(n & 1, step @ v, v)
        n = n >> 1
        if not n.any():
            return v
        step = step @ step


def _outside_fixed_point(step: np.ndarray, gamma_eff: float,
                         b_z: float) -> str:
    """Clause naming the fixed point of (s, 1) -> step (s, 1) if |s*| > 1.

    The run iterates this affine map, so its fixed point s*, the solution
    of (I - step_3x3) s* = step[:3, 3], is where the samples settle.
    Empty when s* lies in the Bloch ball or is not unique.
    """
    try:
        fixed = np.linalg.solve(np.eye(3) - step[:3, :3], step[:3, 3])
    except np.linalg.LinAlgError:
        return ""
    radius = float(np.linalg.norm(fixed))
    if radius <= 1.0:
        return ""
    return (f"; the run's fixed point s* = ({fixed[0]:.3g}, {fixed[1]:.3g}, "
            f"{fixed[2]:.3g}) lies outside the Bloch ball, |s*| = "
            f"{radius:.3f}: the relaxation Gamma_eff = {gamma_eff:.3e} is "
            f"too weak for the inhomogeneity |b| = {abs(b_z):.3e}")


def evolve(bath: BathSpec, drive: Drive, s0, t_max: float, dt_out: float,
           tol: float = 1e-9) -> Trajectory:
    """Sample the Bloch trajectory every dt_out through the one-period map.

    In augmented form d/dt (s, 1) = A(t) (s, 1) with A(t) = A0 +
    cos(Omega t) A1.  A is periodic with the drive period T = 2*pi/Omega,
    so its propagator factors as Phi(n*T + tau) = Phi(tau) Phi(T)^n
    (Floquet; Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)).  Phi is
    built once, over [0, T] or over [0, t_max] when t_max < T, from N
    uniform fourth-order Magnus steps: Phi(T) is their tree product, and
    Phi(tau) at a sample's phase the product of the first floor(tau/h)
    steps times one partial step.  N is the smallest power of two at
    which ceil(t_max/T) times the one-period error estimate is <= tol
    (see _one_period); the result records N (substeps) and the estimate
    (period_error).  Phi(T)^n (s0, 1) comes from binary powering, so the
    cost does not grow with t_max / T.  An undriven run needs no steps:
    sample k is exp(A0*dt_out)^k (s0, 1).

    The full time-dependent coherent block is kept (no rotating frame),
    so the high-frequency approximation enters only through Gamma_eff.
    A sample with |s| > 1 + 100*tol raises IntegrationDivergedError.
    """
    if isinstance(s0, BlochState):
        s0 = s0.vec
    s0 = np.asarray(s0, dtype=float)
    if not (np.isfinite(s0).all() and np.isfinite(t_max)
            and np.isfinite(dt_out)):
        raise ValueError("s0, t_max and dt_out must be finite")
    if np.linalg.norm(s0) > 1.0 + 1e-12:
        raise ValueError("initial Bloch vector must satisfy |s| <= 1")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if dt_out <= 0.0:
        raise ValueError("dt_out must be positive")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")

    gamma_eff, a0, a1 = _generator(bath, drive)

    t_eval = np.arange(0.0, t_max + 0.5 * dt_out, dt_out)
    t_eval = t_eval[t_eval <= t_max]
    v0 = np.append(s0, 1.0)
    driven = a1.any()
    substeps = period_error = None
    if not driven:
        step = _expm(a0 * dt_out)
        s = _apply_powers(step, np.arange(len(t_eval)), v0)[:3].T
    else:
        omega, period = drive.omega, drive.period
        span = min(period, t_max)
        n = np.floor(t_eval / period).astype(np.int64)
        # t - n*T may round a hair outside [0, span]
        tau = np.clip(t_eval - n * period, 0.0, span)
        levels, period_error = _one_period(a0, a1, omega, span,
                                           math.ceil(t_max / period), tol)
        substeps = len(levels[0])
        h = span / substeps
        phases, which = np.unique(tau, return_inverse=True)
        m = np.minimum(np.floor(phases / h).astype(np.int64), substeps)
        phi = (_expm(_magnus_exponents(a0, a1, omega, m * h, phases - m * h))
               @ _prefix_products(levels, m))
        step = levels[-1][0]
        v = _apply_powers(step, n, v0)
        s = np.einsum("kij,jk->ki", phi[which, :3], v)
    norms = np.linalg.norm(s, axis=1)
    if np.any(norms > 1.0 + 100.0 * tol):
        # a run shorter than one period never iterates Phi(t_max)
        cause = (_outside_fixed_point(step, gamma_eff, a0[2, 3])
                 if not driven or t_max >= drive.period else "")
        raise IntegrationDivergedError(
            f"|s| reached 1 + {norms.max() - 1.0:.3e}, beyond the physical "
            f"bound 1 + {100.0 * tol:.3e}{cause}")

    entropy = 0.5 * (1.0 - np.einsum("ij,ij->i", s, s))
    return Trajectory(t_eval, s, entropy,
                      _entropy_rate(s, gamma_eff, a0[2, 3]),
                      substeps, period_error)


def steady_state(bath: BathSpec) -> BlochState:
    """Fixed point M s = b of the undriven system: thermal polarization.

    s_ss = (0, 0, -pi*alpha*Delta/Gamma) = (0, 0, -tanh(Delta/2T)).
    """
    gamma = rate_static(bath)
    if gamma == 0.0:
        raise NoSteadyStateError("alpha = 0 has no unique steady state")
    return BlochState((0.0, 0.0, -math.pi * bath.alpha / gamma))


@dataclass(frozen=True)
class DecaySpectrum:
    """Eigenvalues of the undriven decay matrix M."""

    exact: tuple          # (Gamma, Gamma/2 + i*w, Gamma/2 - i*w)
    weak_damping: tuple   # (Gamma, Gamma/2 + i*Delta, Gamma/2 - i*Delta)
    overdamped: bool


def decay_eigenvalues(bath: BathSpec) -> DecaySpectrum:
    """Closed-form spectrum {Gamma, (Gamma +- sqrt(Gamma^2 - 4 Delta^2))/2}.

    For Gamma << Delta this approaches {Gamma, Gamma/2 +- i*Delta}; the
    approximants are attached for reporting.  An all-real (overdamped)
    spectrum is flagged as outside the weak-damping regime.
    """
    gamma = rate_static(bath)
    disc = np.sqrt(complex(gamma * gamma - 4.0))
    overdamped = gamma >= 2.0
    if overdamped:
        warnings.warn("Gamma >= 2*Delta: outside the weak-dissipation "
                      "regime assumed by the analytic eigenvalue form",
                      RegimeWarning, stacklevel=2)
    pair = sorted([0.5 * (gamma + disc), 0.5 * (gamma - disc)],
                  key=lambda z: -z.imag)
    exact = (complex(gamma), pair[0], pair[1])
    weak = (complex(gamma), 0.5 * gamma + 1j, 0.5 * gamma - 1j)
    return DecaySpectrum(exact, weak, overdamped)


def average_entropy_production(bath: BathSpec, drive: Drive,
                               n_samples: int = 100_000,
                               seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of <dS/dt> over uniform pure initial states.

    Converges to tr M / 3 = 2*Gamma_eff/3 (the inhomogeneity averages to
    zero by symmetry); dS/dt does not depend on the drive phase, so
    neither does the estimate.  Returns (estimate, standard error);
    sampling uses normalized Gaussian triples from a seeded generator.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    gamma_eff, a0, _ = _generator(bath, drive)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n_samples, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    rates = _entropy_rate(s, gamma_eff, a0[2, 3])
    mean = float(rates.mean())
    sem = float(rates.std(ddof=1) / math.sqrt(n_samples))
    return mean, sem
