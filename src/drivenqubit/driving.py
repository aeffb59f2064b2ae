"""Harmonic driving fields, the DD harmonic sum and the Q oracle.

Two drive flavours are one model with a different drive axis.  A field
along sigma_x (the bath axis) produces coherent destruction of tunneling:
the splitting renormalizes to Delta_eff = J0(2A/Omega)*Delta.  A field
along sigma_z commutes with the qubit Hamiltonian and acts as
continuous-wave dynamical decoupling.  effective_splitting takes either
kind.  For either drive the time-averaged coupling stays along the bath
axis, Q = Gamma_eff*sigma_x, so its one weight is rates.effective_rate;
numeric_q_oracle recomputes that weight by brute force.  Every closed
form depends on the drive strength through x = 2A/Omega alone, so Drive
stores x: a grid of frequencies at one drive strength has one x.

Drive strengths and frequencies may be numpy arrays of parameter points;
the rate functions then evaluate the whole grid in one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bath import BathSpec, _check_range, _warn_points, power_spectrum

NONE, CDT, DD = "none", "cdt", "dd"
_KINDS = (NONE, CDT, DD)


@dataclass(frozen=True)
class Drive:
    """Harmonic drive H_D(t) = A * sigma_axis * cos(Omega t), stored as x.

    kind       one of "none", "cdt" (sigma_x drive) or "dd" (sigma_z drive)
    amp_ratio  x = 2A/Omega, the argument of all Bessel factors (finite,
               >= 0)
    omega      Omega, frequency in units of Delta (finite; > 0 when driven,
               >= 0 undriven)

    Drive() is the undriven drive.
    """

    kind: str = NONE
    amp_ratio: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown drive kind {self.kind!r}")
        _check_range(self.amp_ratio, "amp_ratio must be finite and "
                     "non-negative")
        if self.kind == NONE:
            _check_range(self.omega, "omega must be finite and non-negative")
        else:
            _check_range(self.omega, "driven kinds require finite omega > 0",
                         positive=True)
            _warn_points(np.less(self.omega, 10.0),
                         "high-frequency approximation assumes Omega >> "
                         "Delta (Omega >= 10 recommended)", self.amp_ratio)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def _one_point(caller: str, *params):
    """ValueError naming the first array field of params (Drive or
    BathSpec records) and its shape: caller takes one parameter point."""
    for name, value in ((f.name, getattr(p, f.name))
                        for p in params for f in fields(p)):
        if np.ndim(value):
            raise ValueError(f"{caller} takes one parameter point; {name} "
                             f"has shape {np.shape(value)}")


# bessel_j refuses |x| beyond this: its recurrence starts above |x|, so
# its cost grows linearly with |x|
_MAX_BESSEL_X = 1e5


def bessel_j(n, x):
    """Bessel function of the first kind J_n(x) for integer n >= 0; broadcasts.

    Every order up to max(n) comes from one recurrence over the points of
    x (_bessel_table), so the cost follows x's own shape, not the
    broadcast shape of n and x.  Raises ValueError for negative or
    non-integer orders and for x that is not finite or exceeds 1e5 in
    magnitude.
    """
    n = np.asarray(n)
    # written as "not >=" so that NaN fails the check too
    if np.any(~np.greater_equal(n, 0)) or np.any(n != np.floor(n)):
        raise ValueError("orders must be non-negative integers")
    x = np.asarray(x, dtype=float)
    if np.any(~(np.abs(x) <= _MAX_BESSEL_X)):
        raise ValueError(f"bessel_j needs finite |x| <= {_MAX_BESSEL_X:g}")
    table = _bessel_table(int(np.max(n, initial=0)), x)
    points = np.arange(x.size).reshape(x.shape)
    return table.reshape(len(table), -1)[n.astype(np.intp), points][()]


def _bessel_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """J_0(x)..J_{n_max}(x), shape (n_max + 1,) + x.shape (Miller's method).

    The ratios r_k = J_k/J_{k-1} = x/(2k - x*r_{k+1}) (Abramowitz &
    Stegun 9.1.27) are recurred downward from r = 0 above an order `top`
    past max(n_max, |x|); this form never divides by x, and r_k ~ x/2k
    underflows gracefully at tiny x where J_k itself would overflow a
    downward recurrence of unnormalized values.  J_0 then follows from
    J_0 + 2*sum_k J_2k = 1 (A&S 9.1.46), the sum of r_1*...*r_2k taken by
    Horner's rule on the way down, and J_k = J_0*r_1*...*r_k.  J_n(x)
    leaves its oscillating range over a width (x/2)^(1/3) past n = x
    (Airy transition); 12*|x|^(1/3) + 20 orders beyond it put J_top below
    1e-17, so the start is forgotten to rounding.
    """
    x_max = float(np.max(np.abs(x), initial=0.0))
    top = max(n_max, math.ceil(x_max)) + int(12.0 * x_max ** (1.0 / 3.0)) + 20
    top += top % 2                          # pairs (r_2k-1, r_2k) end at 1
    # one point recurs on Python floats, ~10x faster per step than on a
    # 0-d array; the same expressions serve both
    x = float(x) if x.ndim == 0 else x
    # a zero denominator means J_{k-1}(x) = 0 to rounding; its rounding
    # level keeps r_k large but finite, and r_{k-1}*r_k stays exact enough
    eps = float(np.finfo(float).eps)
    ratio = even_ratio = horner = 0.0       # horner: sum_k r_1*...*r_2k
    ratios = np.empty((n_max,) + np.shape(x))
    with np.errstate(under="ignore"):
        for k in range(top, 0, -1):
            d = 2.0 * k - x * ratio
            ratio = x / (d + (d == 0.0) * (2.0 * k * eps))
            if k <= n_max:
                ratios[k - 1] = ratio
            if k % 2 == 0:
                even_ratio = ratio
            else:
                horner = ratio * even_ratio * (1.0 + horner)
        j0 = np.asarray(1.0 / (1.0 + 2.0 * horner))
        return np.concatenate([j0[None], j0 * np.cumprod(ratios, axis=0)])


def effective_splitting(drive: Drive) -> float:
    """Drive-renormalized splitting; J0(x)*Delta for CDT, Delta otherwise.

    A sigma_z drive commutes with the qubit Hamiltonian and leaves the
    splitting untouched.  The result may be zero or negative (J0 changes
    sign beyond its first zero).
    """
    if drive.kind == CDT:
        return bessel_j(0, drive.amp_ratio)
    return 1.0


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
    The test c < sqrt(_TAIL_TOL*(1 - r)/(2*(wc/e + 2T))) takes both sides
    times 2^k and quarter = wc/4e + T/2 for (wc/e + 2T)/4, both exact:
    2T overflows from T ~ 9e307, and 4^k ~ quarter keeps the quotient
    from underflowing, as it does from wc/e + 2T ~ 1e291.
    """
    half_x = 0.5 * float(np.max(x))
    quarter = float(np.max(np.divide(bath.omega_c, 4.0 * math.e)
                           + 0.5 * np.asarray(bath.temperature)))
    k = max(0, math.frexp(quarter)[1] // 2)
    lift, lift2 = 2.0 ** k, 2.0 ** (2 * k - 3)  # 2^k, and 4^k/8
    c = half_x                                  # c_{N+1} for N = 0
    for n in range(_MAX_HARMONICS + 1):
        q = half_x / (n + 2)                    # q^2 = r
        # c < sqrt(...), not c^2 < ...: c^2 overflows for x above about 700
        if q < 1.0 and c * lift < math.sqrt(
                _TAIL_TOL * (1.0 - q * q) * lift2 / quarter):
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
    n = np.arange(_harmonic_count(x, bath) + 1)
    n = n.reshape((-1,) + (1,) * ndim)
    j2 = bessel_j(n, x) ** 2
    # a harmonic whose cutoff factor is 0 adds 0, also where n*Omega
    # overflows to inf (Omega near 1e308) and S(inf)*0 would be nan
    with np.errstate(over="ignore", invalid="ignore"):
        w = n[1:] * drive.omega
        cutoff = np.exp(-w / bath.omega_c)
        harmonics = np.where(cutoff == 0.0, 0.0,
                             j2[1:] * power_spectrum(bath, w) * cutoff)
    return (j2[0] * power_spectrum(bath, 1.0)
            + 2.0 * harmonics.sum(axis=0))[()]


# Pauli matrices in the computational (sigma_z) basis
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (ID2, SX, SY, SZ)


def _rotation_matrices(axis_mat: np.ndarray, half_angles: np.ndarray):
    """Stack of exp(-i*phi*axis_mat) for an array of phases phi."""
    c = np.cos(half_angles)[..., None, None]
    s = np.sin(half_angles)[..., None, None]
    return c * ID2 - 1.0j * s * axis_mat


def numeric_q_oracle(drive: Drive, bath: BathSpec) -> float:
    """Brute-force frequency-domain evaluation of the coupling operator Q.

    The conjugated operator U_F^dag U_P^dag sigma_x U_P U_F is built by raw
    matrix arithmetic, averaged over the drive phase psi = Omega*t, on a torus
    grid of the two independent phases theta1 = Omega*tau (drive phase) and
    theta2 = omega2*tau (slow Floquet phase, omega2 = Delta_eff, which is Delta
    for the sigma_z drive).  A 2D FFT yields the harmonic content exactly (the
    coefficients are trigonometric polynomials, so there is no windowing
    error); the half-line integral of S(tau)*exp(i*w*tau) is then replaced by
    its absorptive part S(|w|)/2, dropping the principal-value (Lamb-shift)
    piece.  Harmonic terms (drive index n != 0) carry the bath cutoff
    exp(-|n|*Omega/omega_c) and are evaluated at |n|*Omega, the leading order
    of the Delta << Omega expansion used by the closed-form rates; slow terms
    (n = 0) are evaluated at |m|*omega2 without cutoff.

    The grids follow x = 2A/Omega: psi and theta1 take the smallest power of
    two >= z + 12*z^(1/3) + 20 for z = x and 2x (at least 64 and 128), past the
    Airy transition of the Bessel weights J_n(x) of their harmonics.  Q is then
    within 1e-13 of a 30-digit mpmath sum of the DD rate up to x = 169; a
    larger x (over 256 x 512 samples) raises ValueError, allocating nothing.
    It takes one parameter point: an array parameter of the drive or the
    bath raises ValueError naming it, before any grid is built.

    Returns the sigma_x weight cx of Q.  Its weights on 1, sigma_y and
    sigma_z must vanish: one above 1e-10 * max(|cx|, 1) raises
    ArithmeticError.
    """
    if drive.kind not in (CDT, DD):
        raise ValueError("oracle requires a driven kind")
    _one_point("oracle", drive, bath)
    x = float(drive.amp_ratio)
    n_psi, n1 = (max(least, 2 ** math.ceil(math.log2(
        z + 12.0 * z ** (1.0 / 3.0) + 20.0)))
        for z, least in ((x, 64), (2.0 * x, 128)))
    if n_psi > 256 or n1 > 512:
        raise ValueError(f"x = 2A/Omega = {x:g} needs {n_psi} x {n1} phase "
                         "samples, above the oracle's limit of 256 x 512")

    axis_mat = SX if drive.kind == CDT else SZ
    omega2 = effective_splitting(drive)
    n2 = 8
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi            # Omega*t
    theta1 = 2.0 * np.pi * np.arange(n1) / n1               # Omega*tau
    theta2 = 2.0 * np.pi * np.arange(n2) / n2               # omega2*tau

    # U_P(t - tau, t) = exp(-i*(x/2)*[sin(psi - theta1) - sin(psi)]*axis)
    phi = 0.5 * x * (np.sin(psi[:, None] - theta1) - np.sin(psi)[:, None])
    u_p = _rotation_matrices(axis_mat, phi)                 # (t, th1, 2, 2)
    u_f = _rotation_matrices(SZ, 0.5 * theta2)              # (th2, 2, 2)

    # U_F is independent of psi: average over the period before it acts
    a = np.einsum("abji,jk,abkl->bil", u_p.conj(), SX, u_p) / n_psi
    v = np.einsum("cji,bjk,ckl->bcil", u_f.conj(), a, u_f)

    n_abs = np.abs(np.rint(np.fft.fftfreq(n1) * n1))[:, None]
    m_abs = np.abs(np.rint(np.fft.fftfreq(n2) * n2))[None, :]
    harmonic = n_abs != 0
    w = np.where(harmonic, n_abs * drive.omega, m_abs * abs(omega2))
    kernel = (0.5 * power_spectrum(bath, w)
              * np.exp(np.where(harmonic, -w / bath.omega_c, 0.0)))

    # V's harmonics weighted by the kernel; V is Hermitian, so q is real
    m = np.einsum("bcij,bc->ij", np.fft.fft2(v, axes=(0, 1)), kernel)
    q = [float(np.trace(p @ m).real) / (2 * n1 * n2) for p in PAULIS]
    if max(abs(q[0]), abs(q[2]), abs(q[3])) > 1e-10 * max(abs(q[1]), 1.0):
        raise ArithmeticError("oracle produced non-sigma_x components "
                              f"above tolerance: {q}")
    return q[1]
