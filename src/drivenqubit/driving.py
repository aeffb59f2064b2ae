"""Harmonic driving fields, high-frequency propagators and effective couplings.

Two drive flavours are supported.  A field along sigma_x (the bath axis)
produces coherent destruction of tunneling: the splitting renormalizes to
Delta_eff = J0(2A/Omega)*Delta.  A field along sigma_z commutes with the
qubit Hamiltonian and acts as continuous-wave dynamical decoupling.  The
sole dimensionless drive strength used downstream is x = 2A/Omega.

Amplitudes and frequencies may be numpy arrays of parameter points; the
rate functions then evaluate the whole grid in one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bath import BathSpec, _warn_points, power_spectrum
from .operators import (ID2, PAULIS, SX, SZ, QubitOperator, SIGMA_X,
                        pauli_rotation)

NONE, CDT, DD = "none", "cdt", "dd"
_KINDS = (NONE, CDT, DD)

X_AXIS = (1.0, 0.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Drive:
    """Harmonic drive H_D(t) = A * sigma_axis * cos(Omega t).

    kind       one of "none", "cdt" (sigma_x drive) or "dd" (sigma_z drive)
    amplitude  A, energy in units of hbar*Delta (>= 0)
    omega      Omega, frequency in units of Delta (> 0 when driven)
    """

    kind: str = NONE
    amplitude: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown drive kind {self.kind!r}")
        # written as "not >=" so that NaN fails the check too
        if np.any(~np.greater_equal(self.amplitude, 0.0)):
            raise ValueError("amplitude must be non-negative")
        if self.kind != NONE:
            if np.any(~np.greater(self.omega, 0.0)):
                raise ValueError("driven kinds require omega > 0")
            _warn_points(np.less(self.omega, 10.0),
                         "high-frequency approximation assumes Omega >> "
                         "Delta (Omega >= 10 recommended)", self.amplitude)

    @classmethod
    def none(cls) -> "Drive":
        return cls(NONE, 0.0, 0.0)

    @classmethod
    def cdt(cls, amplitude: float, omega: float) -> "Drive":
        return cls(CDT, amplitude, omega)

    @classmethod
    def dd(cls, amplitude: float, omega: float) -> "Drive":
        return cls(DD, amplitude, omega)

    @classmethod
    def from_ratio(cls, kind: str, amp_ratio: float, omega: float) -> "Drive":
        """Build from the dimensionless strength x = 2A/Omega."""
        return cls(kind, 0.5 * amp_ratio * omega, omega)

    @property
    def amp_ratio(self) -> float:
        """x = 2A/Omega, the argument of all Bessel factors."""
        if self.kind == NONE:
            return 0.0
        return 2.0 * self.amplitude / self.omega

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def bessel_j(n, x):
    """Bessel function of the first kind J_n(x), n >= 0; broadcasts."""
    if np.any(np.less(n, 0)):
        raise ValueError("order must be non-negative")
    return special.jv(n, x)[()]


def effective_splitting(drive: Drive) -> float:
    """Drive-renormalized splitting; J0(x)*Delta for CDT, Delta otherwise.

    A sigma_z drive commutes with the qubit Hamiltonian and leaves the
    splitting untouched.  The result may be zero or negative (J0 changes
    sign beyond its first zero).
    """
    if drive.kind == CDT:
        return bessel_j(0, drive.amp_ratio)
    return 1.0


def _require_kind(drive: Drive, kind: str):
    if drive.kind != kind:
        raise ValueError(f"expected a {kind!r} drive, got {drive.kind!r}")


def cdt_propagator(drive: Drive, t: float, t0: float) -> QubitOperator:
    """High-frequency propagator for the sigma_x drive.

    U(t, t0) = exp(-i*(A/Omega)*[sin(Omega t) - sin(Omega t0)]*sigma_x)
             * exp(-i*(Delta_eff/2)*(t - t0)*sigma_z)
    """
    _require_kind(drive, CDT)
    d_eff = effective_splitting(drive)
    phase = (drive.amplitude / drive.omega) * (
        math.sin(drive.omega * t) - math.sin(drive.omega * t0))
    return (pauli_rotation(X_AXIS, 2.0 * phase)
            @ pauli_rotation(Z_AXIS, d_eff * (t - t0)))


def dd_propagator(drive: Drive, t: float, t0: float) -> QubitOperator:
    """Exact propagator for the sigma_z drive (everything commutes).

    U(t, t0) = exp(-i*(A/Omega)*[sin(Omega t) - sin(Omega t0)]*sigma_z)
             * exp(-i*(Delta/2)*(t - t0)*sigma_z)
    """
    _require_kind(drive, DD)
    phase = (drive.amplitude / drive.omega) * (
        math.sin(drive.omega * t) - math.sin(drive.omega * t0))
    return (pauli_rotation(Z_AXIS, 2.0 * phase)
            @ pauli_rotation(Z_AXIS, t - t0))


def effective_coupling_cdt(drive: Drive, bath: BathSpec) -> QubitOperator:
    """Time-averaged coupling operator Q = S(|Delta_eff|)/2 * sigma_x.

    |Delta_eff| because the power spectrum is even and J0 may be negative.
    """
    _require_kind(drive, CDT)
    d_eff = effective_splitting(drive)
    return 0.5 * power_spectrum(bath, abs(d_eff)) * SIGMA_X


# The DD series is summed to a tail below _TAIL_TOL * S(Delta); past
# _MAX_HARMONICS harmonics (x of about 740) it is refused, not truncated.
_TAIL_TOL = 1e-16
_MAX_HARMONICS = 1024


def _harmonic_count(x, bath: BathSpec) -> int:
    """Smallest N whose dropped DD tail sum_{n>N} is below _TAIL_TOL*S(Delta).

    With c_n = (x/2)^n/n! >= |J_n(x)| (Abramowitz & Stegun 9.1.62),
    w*coth(w/2T) <= w + 2T and w*e^(-w/wc) <= wc/e, the n-th term over
    S(Delta) is at most 2*c_n^2*(wc/e + 2T); alpha cancels and
    coth(1/2T) >= 1.  Past N the ratio of consecutive bounds is at most
    r = ((x/2)/(N+2))^2, so for r < 1 the tail is at most
    2*(wc/e + 2T)*c_{N+1}^2/(1 - r).  The grid's largest x and largest
    wc/e + 2T bound every point.
    """
    half_x = 0.5 * float(np.max(x))
    scale = float(np.max(np.divide(bath.omega_c, math.e)
                         + 2.0 * np.asarray(bath.temperature)))
    c = half_x                                  # c_{N+1} for N = 0
    for n in range(_MAX_HARMONICS + 1):
        q = half_x / (n + 2)                    # q^2 = r
        # c < sqrt(...), not c^2 < ...: c^2 overflows for x above about 700
        if q < 1.0 and c < math.sqrt(_TAIL_TOL * (1.0 - q * q)
                                     / (2.0 * scale)):
            return n
        c *= q
    raise ValueError(
        f"x = 2A/Omega = {2.0 * half_x:g} needs more than {_MAX_HARMONICS} "
        f"harmonics for the DD sum to reach its tolerance {_TAIL_TOL:g}")


def dd_harmonic_sum(drive: Drive, bath: BathSpec):
    """sigma_x weight of 2*Q_DD, i.e.

        J0(x)^2 * S(Delta) + 2 * sum_n J_n(x)^2 * S(n*Omega) * e^(-n*Omega/wc)

    summed over n = 1..N, with N chosen from the inputs so that the dropped
    tail is below 1e-16 * S(Delta) at every point (see _harmonic_count).
    Raises ValueError where that needs more than 1024 harmonics (x beyond
    about 740) instead of truncating.  The cutoff is attached only to the
    harmonic terms, matching the closed-form driven rate.  Array drive and
    bath parameters give one point per broadcast element; the harmonics
    run along a leading axis, so every Bessel factor comes from one call.
    """
    x = drive.amp_ratio
    ndim = max(map(np.ndim, (x, drive.omega, bath.alpha, bath.omega_c,
                             bath.temperature)))
    n = np.arange(_harmonic_count(x, bath) + 1.0)
    n = n.reshape((-1,) + (1,) * ndim)
    j2 = bessel_j(n, x) ** 2
    w = n[1:] * drive.omega
    harmonics = j2[1:] * power_spectrum(bath, w) * np.exp(-w / bath.omega_c)
    return (j2[0] * power_spectrum(bath, 1.0)
            + 2.0 * harmonics.sum(axis=0))[()]


def effective_coupling_dd(drive: Drive, bath: BathSpec) -> QubitOperator:
    """Time-averaged coupling operator for the sigma_z drive."""
    _require_kind(drive, DD)
    return 0.5 * dd_harmonic_sum(drive, bath) * SIGMA_X


def _rotation_matrices(axis_mat: np.ndarray, half_angles: np.ndarray):
    """Stack of exp(-i*phi*axis_mat) for an array of phases phi."""
    c = np.cos(half_angles)[..., None, None]
    s = np.sin(half_angles)[..., None, None]
    return c * ID2 - 1.0j * s * axis_mat


def numeric_q_oracle(drive: Drive, bath: BathSpec, grid_t: int = 64,
                     n_harmonics: int = 32) -> QubitOperator:
    """Brute-force frequency-domain evaluation of the coupling operator Q.

    The conjugated operator U_F^dag U_P^dag sigma_x U_P U_F is built by raw
    matrix arithmetic on a torus grid of the two independent phases
    theta1 = Omega*tau (drive phase) and theta2 = omega2*tau (slow Floquet
    phase, omega2 = Delta_eff for the sigma_x drive and Delta for the
    sigma_z drive).  A 2D FFT yields the harmonic content exactly (the
    coefficients are trigonometric polynomials, so there is no windowing
    error); the half-line integral of S(tau)*exp(i*w*tau) is then replaced
    by its absorptive part S(|w|)/2, dropping the principal-value
    (Lamb-shift) piece.  Harmonic terms (drive index n != 0) carry the
    bath cutoff exp(-|n|*Omega/omega_c) and are evaluated at |n|*Omega,
    the leading order of the Delta << Omega expansion used by the
    closed-form rates; slow terms (n = 0) are evaluated at |m|*omega2
    without cutoff.
    """
    if drive.kind not in (CDT, DD):
        raise ValueError("oracle requires a driven kind")
    if grid_t < 64:
        raise ValueError("grid_t must be at least 64")
    if n_harmonics < 8:
        raise ValueError("n_harmonics must be at least 8")

    if drive.kind == CDT:
        axis_mat = SX
        omega2 = effective_splitting(drive)
    else:
        axis_mat = SZ
        omega2 = 1.0

    n1 = max(4 * n_harmonics, 128)
    n2 = 8
    psi = 2.0 * np.pi * np.arange(grid_t) / grid_t          # Omega*t
    theta1 = 2.0 * np.pi * np.arange(n1) / n1               # Omega*tau
    theta2 = 2.0 * np.pi * np.arange(n2) / n2               # omega2*tau

    # U_P(t - tau, t) = exp(-i*(A/Omega)*[sin(psi - theta1) - sin(psi)]*axis)
    phi = (drive.amplitude / drive.omega) * (
        np.sin(psi[:, None] - theta1[None, :]) - np.sin(psi)[:, None])
    u_p = _rotation_matrices(axis_mat, phi)                 # (t, th1, 2, 2)
    u_f = _rotation_matrices(SZ, 0.5 * theta2)              # (th2, 2, 2)

    w = np.einsum("abij,cjk->abcik", u_p, u_f)
    v = np.einsum("abcji,jk,abckl->abcil", w.conj(), SX, w)

    # Pauli coefficients of V (real since V is Hermitian), averaged over
    # the driving period, then Fourier-analyzed on the phase torus.
    coeffs = [0.5 * np.einsum("ij,abcji->abc", p, v).mean(axis=0)
              for p in PAULIS]
    harmonics = [np.fft.fft2(c) / (n1 * n2) for c in coeffs]

    n_abs = np.abs(np.rint(np.fft.fftfreq(n1) * n1))[:, None]
    m_abs = np.abs(np.rint(np.fft.fftfreq(n2) * n2))[None, :]
    harmonic = n_abs != 0
    w = np.where(harmonic, n_abs * drive.omega, m_abs * abs(omega2))
    kernel = (0.5 * power_spectrum(bath, w)
              * np.exp(np.where(harmonic, -w / bath.omega_c, 0.0)))

    q = [float(np.real(np.sum(h * kernel))) for h in harmonics]
    scale = max(abs(q[1]), 1.0)
    if max(abs(q[0]), abs(q[2]), abs(q[3])) > 1e-8 * scale:
        raise ArithmeticError(
            "oracle produced non-sigma_x components above tolerance: "
            f"{q}")
    return QubitOperator(q[0], q[1], q[2], q[3])
