"""Bloch-vector dynamics: ds/dt = -M(t) s + b, entropy diagnostics.

The decay matrix M combines an antisymmetric coherent block (precession
about z at Delta, plus the instantaneous drive rotation) with the
dissipative diagonal diag(0, Gamma_eff, Gamma_eff) of the sigma_x
double-commutator; the inhomogeneity b = (0, 0, -pi*alpha*Delta) is not
modified by the driving.  tr M = 2*Gamma_eff at all times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .bath import BathSpec, RegimeWarning
from .driving import CDT, DD, Drive
from .operators import BlochState
from .rates import effective_rate, rate_static


class IntegrationDivergedError(RuntimeError):
    """Bloch vector left the unit ball by more than the allowed slack."""


class NoSteadyStateError(ValueError):
    """The decay matrix is singular (alpha = 0): no unique fixed point."""


@dataclass(frozen=True)
class BlochGenerator:
    """Snapshot (M, b) of the equation of motion at one instant."""

    M: np.ndarray
    b: np.ndarray

    def entropy_rate(self, s: np.ndarray) -> float:
        """dS/dt = -s.(ds/dt) = s.M.s - s.b for a Bloch vector s."""
        s = np.asarray(s, dtype=float)
        return float(s @ self.M @ s - s @ self.b)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled Bloch trajectory with entropy diagnostics."""

    t: np.ndarray          # sample times, strictly increasing
    s: np.ndarray          # shape (n, 3)
    entropy: np.ndarray    # linear entropy (1 - s.s)/2
    entropy_rate: np.ndarray

    def __len__(self):
        return len(self.t)

    def state(self, i: int) -> BlochState:
        return BlochState(tuple(self.s[i]), float(self.t[i]))


def _drive_pieces(bath: BathSpec, drive: Drive, n_max: int, delta: float):
    """Precompute the time-independent parts of the generator."""
    gamma_eff = effective_rate(bath, drive, n_max, delta)
    b = np.array([0.0, 0.0, -math.pi * bath.alpha * delta])
    return gamma_eff, b


def _generator_matrix(drive: Drive, gamma_eff: float, t: float,
                      delta: float) -> np.ndarray:
    m = np.zeros((3, 3))
    wz = delta
    wx = 0.0
    if drive.kind == CDT:
        wx = 2.0 * drive.amplitude * math.cos(drive.omega * t)
    elif drive.kind == DD:
        wz = delta + 2.0 * drive.amplitude * math.cos(drive.omega * t)
    # rotation about z: ds_x/dt = +wz*s_y, ds_y/dt = -wz*s_x
    m[0, 1] = -wz
    m[1, 0] = wz
    # rotation about x: ds_y/dt = +wx*s_z, ds_z/dt = -wx*s_y
    m[1, 2] = -wx
    m[2, 1] = wx
    m[1, 1] = gamma_eff
    m[2, 2] = gamma_eff
    return m


def assemble_generator(bath: BathSpec, drive: Drive, t: float,
                       n_max: int = 64, delta: float = 1.0) -> BlochGenerator:
    """Instantaneous (M, b) of the driven master equation in Bloch form."""
    gamma_eff, b = _drive_pieces(bath, drive, n_max, delta)
    return BlochGenerator(_generator_matrix(drive, gamma_eff, t, delta), b)


def evolve(bath: BathSpec, drive: Drive, s0, t_max: float, dt_out: float,
           tol: float = 1e-9, n_max: int = 64,
           delta: float = 1.0) -> Trajectory:
    """Integrate the Bloch equation with an adaptive embedded RK pair.

    The full time-dependent coherent block is integrated (no rotating
    frame), so the high-frequency approximation enters only through
    Gamma_eff.  Output is sampled every dt_out by dense interpolation.
    """
    if isinstance(s0, BlochState):
        s0 = s0.vec
    s0 = np.asarray(s0, dtype=float)
    if np.linalg.norm(s0) > 1.0 + 1e-12:
        raise ValueError("initial Bloch vector must satisfy |s| <= 1")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")

    gamma_eff, b = _drive_pieces(bath, drive, n_max, delta)

    def rhs(t, s):
        return -_generator_matrix(drive, gamma_eff, t, delta) @ s + b

    t_eval = np.arange(0.0, t_max + 0.5 * dt_out, dt_out)
    t_eval = t_eval[t_eval <= t_max]
    # safety factor 10 keeps the accumulated drift within ~10*tol over
    # hundreds of precession periods, not just the per-step error
    sol = solve_ivp(rhs, (0.0, t_max), s0, method="DOP853",
                    rtol=0.1 * tol, atol=0.1 * tol, t_eval=t_eval,
                    dense_output=False)
    if not sol.success:
        raise IntegrationDivergedError(sol.message)
    s = sol.y.T
    norms = np.linalg.norm(s, axis=1)
    if np.any(norms > 1.0 + 100.0 * tol):
        raise IntegrationDivergedError(
            f"|s| reached 1 + {norms.max() - 1.0:.3e}, beyond the physical "
            f"bound 1 + {100.0 * tol:.3e}")

    entropy = 0.5 * (1.0 - np.einsum("ij,ij->i", s, s))
    # s.M.s = Gamma_eff*(s_y^2 + s_z^2): the coherent block of M (the
    # precession and the drive rotation) is antisymmetric, and s.A.s = 0
    # for any antisymmetric A, so the drive's time dependence drops out
    entropy_rate = gamma_eff * (s[:, 1] ** 2 + s[:, 2] ** 2) - s @ b
    return Trajectory(sol.t, s, entropy, entropy_rate)


def steady_state(bath: BathSpec, delta: float = 1.0) -> BlochState:
    """Fixed point M s = b of the undriven system: thermal polarization.

    s_ss = (0, 0, -pi*alpha*Delta/Gamma) = (0, 0, -tanh(Delta/2T)).
    """
    gamma = rate_static(bath, delta)
    if gamma == 0.0:
        raise NoSteadyStateError("alpha = 0 has no unique steady state")
    return BlochState((0.0, 0.0, -math.pi * bath.alpha * delta / gamma))


@dataclass(frozen=True)
class DecaySpectrum:
    """Eigenvalues of the undriven decay matrix M."""

    exact: tuple          # (Gamma, Gamma/2 + i*w, Gamma/2 - i*w)
    weak_damping: tuple   # (Gamma, Gamma/2 + i*Delta, Gamma/2 - i*Delta)
    overdamped: bool


def decay_eigenvalues(bath: BathSpec, delta: float = 1.0) -> DecaySpectrum:
    """Closed-form spectrum {Gamma, (Gamma +- sqrt(Gamma^2 - 4 Delta^2))/2}.

    For Gamma << Delta this approaches {Gamma, Gamma/2 +- i*Delta}; the
    approximants are attached for reporting.  An all-real (overdamped)
    spectrum is flagged as outside the weak-damping regime.
    """
    gamma = rate_static(bath, delta)
    disc = np.sqrt(complex(gamma * gamma - 4.0 * delta * delta))
    overdamped = gamma >= 2.0 * delta
    if overdamped:
        warnings.warn("Gamma >= 2*Delta: outside the weak-dissipation "
                      "regime assumed by the analytic eigenvalue form",
                      RegimeWarning, stacklevel=2)
    pair = sorted([0.5 * (gamma + disc), 0.5 * (gamma - disc)],
                  key=lambda z: -z.imag)
    exact = (complex(gamma), pair[0], pair[1])
    weak = (complex(gamma), 0.5 * gamma + 1j * delta, 0.5 * gamma - 1j * delta)
    return DecaySpectrum(exact, weak, overdamped)


def average_entropy_production(bath: BathSpec, drive: Drive, t: float = 0.0,
                               n_samples: int = 100_000, seed: int = 0,
                               n_max: int = 64,
                               delta: float = 1.0) -> tuple[float, float]:
    """Monte Carlo estimate of <dS/dt> over uniform pure initial states.

    Converges to tr M / 3 = 2*Gamma_eff/3 (the inhomogeneity averages to
    zero by symmetry).  Returns (estimate, standard error); sampling uses
    normalized Gaussian triples from a seeded generator.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    gamma_eff, b = _drive_pieces(bath, drive, n_max, delta)
    m = _generator_matrix(drive, gamma_eff, t, delta)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n_samples, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    rates = np.einsum("ij,jk,ik->i", s, m, s) - s @ b
    mean = float(rates.mean())
    sem = float(rates.std(ddof=1) / math.sqrt(n_samples))
    return mean, sem
