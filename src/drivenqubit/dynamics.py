"""Bloch-vector dynamics: ds/dt = -M(t) s + b, entropy diagnostics.

The decay matrix M combines an antisymmetric coherent block (precession
about z at Delta = 1, plus the instantaneous drive rotation 2A*cos(Omega t)
about x for CDT or about z for DD) with the dissipative diagonal
diag(0, Gamma_eff, Gamma_eff) of the sigma_x double-commutator; the
inhomogeneity b = (0, 0, -pi*alpha) is not modified by the driving.
tr M = 2*Gamma_eff at all times.

M(t) repeats with the drive period T = 2*pi/Omega, so evolve integrates
the affine propagator over one period only and reaches every later
sample through integer powers of it; an undriven run needs no solver at
all, only the matrix exponential of the constant generator (_expm).

solve_ivp, the one-period solver, is a module attribute resolved on first
access (PEP 562 __getattr__): importing scipy.integrate costs about as
much as numpy itself, and only a driven evolve needs it, so every other
use of the package runs on numpy alone.  evolve looks the name up on the
module at each call, so replacing dynamics.solve_ivp (to count or record
its calls) takes effect.
"""

from __future__ import annotations

import math
import sys
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

    b = a/2^s has 1-norm <= 1/2, and E = e^b - I = b(I + b/2(I + b/3(...)))
    is summed by Horner's rule.  The squarings carry E itself, as
    (I + E)^2 = I + (2E + E^2), so the low bits of e^b next to the identity
    are not rounded away; once an entry of E reaches 1/2, e^b is no longer
    near I and the remaining squarings act on I + E, which keeps entries
    that decay toward 0 from rounding against 1.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _EXPM_NORM))) if norm else 0
    b = a / 2.0 ** s
    eye = np.eye(len(a))
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
    integrated once, over [0, T] or over [0, t_max] when t_max < T, by
    DOP853 at rtol = atol = tol/10, and read at the drive phases tau of
    the samples; Phi(T)^n (s0, 1) comes from binary powering, so the cost
    does not grow with t_max / T.  An undriven run calls no solver:
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
    if not driven:
        step = _expm(a0 * dt_out)
        s = _apply_powers(step, np.arange(len(t_eval)), v0)[:3].T
    else:
        omega, period = drive.omega, drive.period
        span = min(period, t_max)
        n = np.floor(t_eval / period).astype(np.int64)
        # t - n*T may round a hair outside [0, span]
        tau = np.clip(t_eval - n * period, 0.0, span)
        phases, which = np.unique(np.append(tau, span), return_inverse=True)

        def rhs(t, phi):
            return ((a0 + math.cos(omega * t) * a1)
                    @ phi.reshape(4, 4)).ravel()

        # safety factor 10 keeps the drift of Phi(T)^n within ~10*tol over
        # hundreds of periods, not just the per-step error
        solve_ivp = sys.modules[__name__].solve_ivp
        sol = solve_ivp(rhs, (0.0, span), np.eye(4).ravel(), method="DOP853",
                        rtol=0.1 * tol, atol=0.1 * tol, t_eval=phases)
        if not sol.success:
            raise IntegrationDivergedError(sol.message)
        phi = sol.y.T.reshape(-1, 4, 4)
        step = phi[-1]
        v = _apply_powers(step, n, v0)
        s = np.einsum("kij,jk->ki", phi[which[:-1], :3], v)
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
                      _entropy_rate(s, gamma_eff, a0[2, 3]))


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
