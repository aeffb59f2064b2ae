"""Closed-form relaxation/decoherence rates and coherence measures.

All rates are in units of Delta.  effective_rate is the one Gamma_eff
function for every drive kind (Gamma_CDT, Gamma_DD, or Gamma undriven):
Gamma = S(Delta)/2 times one alpha-free ratio, so alpha enters each rate
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
from .driving import DD, NONE, Drive, dd_harmonic_sum, effective_splitting


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


def rate_static(bath: BathSpec) -> float:
    """Undriven relaxation rate Gamma = S(Delta)/2.

    Gamma = pi*alpha*Delta*coth(Delta/2T), with Delta = 1.
    """
    return _scaled_spectrum(bath, np.float64(1.0), math.pi)


def trace_bound(rate_eff: float) -> tuple[float, float]:
    """(gamma, Gamma_av) = (2*Gamma_eff, 2*Gamma_eff/3), each inf only
    past a double.

    Gamma_av is Gamma_eff/1.5, the same bits as gamma/3 wherever gamma
    is finite, and finite up to the largest Gamma_eff.
    """
    if np.any(np.less(rate_eff, 0.0)):
        raise ValueError("rates are non-negative")
    with np.errstate(over="ignore"):
        gamma = 2.0 * rate_eff
    return gamma, rate_eff / 1.5


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
    Q = Gamma_eff * sigma_x, and inf only where it exceeds a double.
    The ratio (_rate_ratio) per drive kind:

    none  S(Delta)/2 = Gamma.
    cdt   Gamma_CDT = S(|Delta_eff|)/2, |Delta_eff| because the power
          spectrum is even and J0 may be negative; so the rate is
          continuous across Bessel zeros, with the finite limit
          2*pi*alpha*T where Delta_eff sits at a J0 zero (0 at T = 0).
    dd    Gamma_DD = Gamma * { J0(x)^2 + 2*sum_n (n*Omega/Delta)
                     * [tanh(Delta/2T)/tanh(n*Omega/2T)]
                     * exp(-n*Omega/omega_c) * J_n(x)^2 },
          the braces being dd_harmonic_sum: summed until the dropped
          tail is below 1e-16; for x beyond 1e5, or more than 2**24
          terms over the grid, it raises ValueError rather than truncate.

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
