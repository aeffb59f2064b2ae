"""Closed-form relaxation/decoherence rates and coherence measures.

All rates are in units of Delta.  effective_rate is Gamma = S(Delta)/2
times one alpha-free ratio for any drive kind, so alpha enters each rate
once, and eta = Gamma/(4*Gamma_eff) is 1/4 over that ratio.  Gamma_eff is
also the one weight of the time-averaged coupling Q = Gamma_eff*sigma_x.
The trace of the Bloch decay matrix, gamma = 2*Gamma_eff, bounds every
decoherence rate from above, and Gamma_av = gamma/3 is the entropy
production averaged over pure states.

Every function here also accepts drive and bath parameters that are numpy
arrays of parameter points and then returns an array of the broadcast
shape of the parameters it depends on (eta: all but alpha); the DD rate
and eta of a whole grid come from one harmonic sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _scaled_spectrum, _spectrum_ratio
from .driving import CDT, DD, NONE, Drive, dd_harmonic_sum, effective_splitting


@dataclass(frozen=True)
class RateReport:
    """Summary of the dissipative dynamics at one parameter point.

    Array bath or drive parameters give array fields of their broadcast
    shape, one entry per point (eta's shape leaves alpha out).
    """

    drive_kind: str
    delta_eff: float
    gamma_relax: float   # Gamma_eff, relaxation rate of the driven system
    gamma_trace: float   # gamma = tr M = 2*Gamma_eff
    gamma_avg: float     # gamma / 3
    eta: float | None = None   # stabilization factor; None undriven


def _require_kind(drive: Drive, kind: str):
    if drive.kind != kind:
        raise ValueError(f"expected a {kind!r} drive, got {drive.kind!r}")


def rate_static(bath: BathSpec) -> float:
    """Undriven relaxation rate Gamma = S(Delta)/2.

    Gamma = pi*alpha*Delta*coth(Delta/2T), with Delta = 1.
    """
    return _scaled_spectrum(bath, np.float64(1.0), math.pi)


def rate_cdt(drive: Drive, bath: BathSpec) -> float:
    """Relaxation rate under the sigma_x drive, Gamma_CDT = S(|Delta_eff|)/2.

    Finite limit 2*pi*alpha*T when Delta_eff sits at a J0 zero (zero at
    T = 0).  Even in Delta_eff, so it is continuous across Bessel zeros.
    """
    _require_kind(drive, CDT)
    return effective_rate(bath, drive)


def rate_dd(drive: Drive, bath: BathSpec) -> float:
    """Relaxation rate under the sigma_z drive.

    Gamma_DD = Gamma * { J0(x)^2 + 2*sum_n (n*Omega/Delta)
               * [tanh(Delta/2T)/tanh(n*Omega/2T)]
               * exp(-n*Omega/omega_c) * J_n(x)^2 }

    which is the sigma_x weight of the time-averaged coupling operator
    Q.  The braces, free of alpha, are dd_harmonic_sum: summed until the
    dropped tail is below 1e-16; for x beyond 1e5, or more than 2**24
    terms over the grid, it raises ValueError rather than truncate.
    """
    _require_kind(drive, DD)
    return effective_rate(bath, drive)


def trace_bound(rate_eff: float) -> tuple[float, float]:
    """(gamma, Gamma_av) = (2*Gamma_eff, 2*Gamma_eff/3), inf past a double."""
    if np.any(np.less(rate_eff, 0.0)):
        raise ValueError("rates are non-negative")
    with np.errstate(over="ignore"):
        gamma = 2.0 * rate_eff
    return gamma, gamma / 3.0


def _rate_ratio(bath: BathSpec, drive: Drive):
    """Gamma_eff/Gamma, free of alpha: the one dispatch on drive.kind."""
    if drive.kind == DD:
        return dd_harmonic_sum(drive, bath)
    return _spectrum_ratio(bath, abs(effective_splitting(drive)))


def _times_gamma(bath: BathSpec, ratio):
    """Gamma*ratio: inf, without a warning, only where it exceeds a double."""
    with np.errstate(over="ignore"):
        return (rate_static(bath) * ratio)[()]


def stabilization_eta(bath: BathSpec, drive: Drive) -> float:
    """Coherence stabilization factor eta = (Gamma/2) / gamma_driven.

    The lowest decoherence rate without the drive over the largest one
    with it, gamma_driven = 2*Gamma_eff, for either drive kind (for DD
    the paper's eta, for CDT its analogue).  eta > 1 guarantees
    improvement for any initial state; eta > 1/4 improvement on average
    (eta = 1/4 exactly without a drive or at x = 0).  Gamma_eff is Gamma
    times a ratio free of alpha, so eta = 1/(4*ratio): alpha cancels, and
    eta is finite at zero coupling and where a rate overflows.
    """
    return (0.25 / _rate_ratio(bath, drive))[()]


def effective_rate(bath: BathSpec, drive: Drive) -> float:
    """Gamma_eff for any drive kind: Gamma times an alpha-free ratio.

    It is also the sigma_x weight of the time-averaged coupling operator
    Q = Gamma_eff * sigma_x: S(|Delta_eff|)/2 for CDT (|Delta_eff|
    because the power spectrum is even and J0 may be negative), the
    harmonic sum of rate_dd for DD and S(Delta)/2 undriven, each Gamma
    times a ratio (_rate_ratio), inf only where it exceeds a double.
    numeric_q_oracle computes the same weight by brute force.
    """
    return _times_gamma(bath, _rate_ratio(bath, drive))


def build_report(bath: BathSpec, drive: Drive) -> RateReport:
    """Assemble the full bundle for one parameter point or one grid.

    Gamma_eff and eta come from one alpha-free ratio, so a DD grid costs
    one harmonic sum; eta is None without a drive.
    """
    ratio = _rate_ratio(bath, drive)
    gamma_eff = _times_gamma(bath, ratio)
    gamma, gamma_avg = trace_bound(gamma_eff)
    eta = None if drive.kind == NONE else (0.25 / ratio)[()]
    return RateReport(drive.kind, effective_splitting(drive), gamma_eff,
                      gamma, gamma_avg, eta)
