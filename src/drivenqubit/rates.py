"""Closed-form relaxation/decoherence rates and coherence measures.

All rates are in units of Delta.  effective_rate is the one dispatch on
the drive kind: Gamma undriven, the CDT or DD closed form driven.  It is
also the one weight of the time-averaged coupling Q = Gamma_eff*sigma_x.
The stabilization factor eta is built from it, so it takes either kind.
The trace of the Bloch decay matrix, gamma = 2*Gamma_eff, bounds every
decoherence rate from above, and Gamma_av = gamma/3 is the entropy
production averaged over pure states.

Every function here also accepts drive and bath parameters that are numpy
arrays of parameter points and then returns an array of the broadcast
shape; the DD rate and eta of a whole grid come from one harmonic sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, RegimeWarning, power_spectrum
from .driving import (CDT, DD, NONE, Drive, dd_harmonic_sum,
                      effective_splitting)


@dataclass(frozen=True)
class RateReport:
    """Summary of the dissipative dynamics at one parameter point.

    Array bath or drive parameters give array fields of their broadcast
    shape, one entry per point.
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
    return 0.5 * power_spectrum(bath, 1.0)


def rate_cdt(drive: Drive, bath: BathSpec) -> float:
    """Relaxation rate under the sigma_x drive, Gamma_CDT = S(|Delta_eff|)/2.

    Finite limit 2*pi*alpha*T when Delta_eff sits at a J0 zero (zero at
    T = 0).  Even in Delta_eff, so it is continuous across Bessel zeros.
    """
    _require_kind(drive, CDT)
    return 0.5 * power_spectrum(bath, abs(effective_splitting(drive)))


def rate_dd(drive: Drive, bath: BathSpec) -> float:
    """Relaxation rate under the sigma_z drive.

    Gamma_DD = Gamma * { J0(x)^2 + 2*sum_n (n*Omega/Delta)
               * [tanh(Delta/2T)/tanh(n*Omega/2T)]
               * exp(-n*Omega/omega_c) * J_n(x)^2 }

    which is the sigma_x weight of the time-averaged coupling operator
    Q (dd_harmonic_sum gives that of 2Q).  The series is summed until the
    dropped tail is below 1e-16 * S(Delta); where that needs more than
    1024 harmonics (x beyond about 740) it raises ValueError rather than
    return a truncated sum.
    """
    _require_kind(drive, DD)
    return 0.5 * dd_harmonic_sum(drive, bath)


def trace_bound(rate_eff: float) -> tuple[float, float]:
    """(gamma, Gamma_av) = (2*Gamma_eff, 2*Gamma_eff/3)."""
    if np.any(np.less(rate_eff, 0.0)):
        raise ValueError("rates are non-negative")
    gamma = 2.0 * rate_eff
    return gamma, gamma / 3.0


def stabilization_eta(bath: BathSpec, drive: Drive) -> float:
    """Coherence stabilization factor eta = (Gamma/2) / gamma_driven.

    The lowest decoherence rate without the drive over the largest one
    with it, gamma_driven = 2*Gamma_eff, for either drive kind (for DD
    the paper's eta, for CDT its analogue).  eta > 1 guarantees
    improvement for any initial state; eta > 1/4 improvement on average
    (eta = 1/4 exactly without a drive or at x = 0).  Both rates are
    proportional to alpha, so eta does not depend on it: at zero coupling,
    and where a rate overflows, it is the eta of any alpha > 0.
    """
    return _eta(bath, drive, effective_rate(bath, drive))


def _eta(bath: BathSpec, drive: Drive, rate_driven):
    """(Gamma/2)/(2*rate_driven) at any finite alpha.  Where rate_driven
    is 0 (alpha = 0) or a rate overflows (from alpha ~ 5e304), both rates
    come from alpha = 2^-64, without the RegimeWarnings that bath has
    raised for those points already.  A power of two scales the rates
    exactly, so eta has the bits of alpha = 1, whose rates overflow from
    T ~ 1.4e307."""
    rate_undriven = rate_static(bath)
    # rate_undriven is never nan, and nan fails both tests
    unit = ~((0.0 < rate_driven)
             & (np.maximum(rate_driven, rate_undriven) < np.inf))
    if unit.any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            unit_bath = BathSpec(np.where(unit, 2.0 ** -64, bath.alpha),
                                 bath.omega_c, bath.temperature)
        rate_undriven = np.where(unit, rate_static(unit_bath), rate_undriven)
        rate_driven = np.where(unit, effective_rate(unit_bath, drive),
                               rate_driven)
    return (0.5 * rate_undriven / (2.0 * rate_driven))[()]


def effective_rate(bath: BathSpec, drive: Drive) -> float:
    """Gamma_eff for any drive kind: the one dispatch on drive.kind.

    It is also the sigma_x weight of the time-averaged coupling operator
    Q = Gamma_eff * sigma_x: S(|Delta_eff|)/2 for CDT (|Delta_eff|
    because the power spectrum is even and J0 may be negative), the
    harmonic sum of rate_dd for DD and S(Delta)/2 undriven.
    numeric_q_oracle computes the same weight by brute force.
    """
    if drive.kind == NONE:
        return rate_static(bath)
    if drive.kind == CDT:
        return rate_cdt(drive, bath)
    return rate_dd(drive, bath)


def build_report(bath: BathSpec, drive: Drive) -> RateReport:
    """Assemble the full bundle for one parameter point or one grid.

    eta is (Gamma/2)/(2*Gamma_eff) from the Gamma_eff already computed,
    so a DD grid costs one harmonic sum; it is None without a drive.
    """
    gamma_eff = effective_rate(bath, drive)
    gamma, gamma_avg = trace_bound(gamma_eff)
    eta = None if drive.kind == NONE else _eta(bath, drive, gamma_eff)
    return RateReport(drive.kind, effective_splitting(drive), gamma_eff,
                      gamma, gamma_avg, eta)
