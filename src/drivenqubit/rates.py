"""Closed-form relaxation/decoherence rates and coherence measures.

All rates are in units of Delta.  The trace of the Bloch decay matrix,
gamma = 2*Gamma_eff, bounds every decoherence rate from above, and
Gamma_av = gamma/3 is the entropy production averaged over pure states.

Every function here also accepts drive and bath parameters that are numpy
arrays of parameter points and then returns an array of the broadcast
shape; the DD rate and eta of a whole grid come from one harmonic sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _warn_points, power_spectrum
from .driving import (CDT, DD, NONE, Drive, _require_kind, dd_harmonic_sum,
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
    eta: float | None = None       # DD stabilization factor
    eta_cdt: float | None = None   # CDT analogue (extension, kept separate)


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

    which equals the sigma_x weight of the effective coupling operator;
    both are evaluated through the same harmonic sum.  The series is
    summed until the dropped tail is below 1e-16 * S(Delta); where that
    needs more than 1024 harmonics (x beyond about 740) it raises
    ValueError rather than return a truncated sum.
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
    """Coherence stabilization factor for dynamical decoupling.

    eta = (Gamma/2) / gamma_DD: the lowest decoherence rate without the
    drive over the largest one with it.  eta > 1 guarantees improvement
    for any initial state; eta > 1/4 improvement on average (eta = 1/4
    exactly at A = 0).  Returns inf (with a warning) if the driven rate
    vanishes, which needs T = 0, x at a J0 zero and all harmonics beyond
    the cutoff.
    """
    return _eta(rate_static(bath), rate_dd(drive, bath))


def stabilization_eta_cdt(bath: BathSpec, drive: Drive) -> float:
    """CDT analogue of the stabilization factor, (Gamma/2)/gamma_CDT."""
    return _eta(rate_static(bath), rate_cdt(drive, bath))


def _eta(rate_undriven, rate_driven):
    """(Gamma/2)/gamma_driven; inf, with one warning, where it vanishes."""
    gamma_driven = 2.0 * rate_driven
    unbounded = gamma_driven == 0.0
    _warn_points(unbounded, "driven decoherence rate is exactly zero; "
                 "stabilization factor is unbounded")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(unbounded, np.inf,
                        0.5 * rate_undriven / gamma_driven)[()]


def effective_rate(bath: BathSpec, drive: Drive) -> float:
    """Gamma_eff for any drive kind (dispatch helper)."""
    if drive.kind == NONE:
        return rate_static(bath)
    if drive.kind == CDT:
        return rate_cdt(drive, bath)
    return rate_dd(drive, bath)


def build_report(bath: BathSpec, drive: Drive) -> RateReport:
    """Assemble the full bundle for one parameter point or one grid.

    eta (DD) or eta_cdt (CDT) is (Gamma/2)/(2*Gamma_eff) from the Gamma_eff
    already computed, so a DD grid costs one harmonic sum.
    """
    gamma_eff = effective_rate(bath, drive)
    gamma, gamma_avg = trace_bound(gamma_eff)
    eta = None if drive.kind == NONE else _eta(rate_static(bath), gamma_eff)
    return RateReport(drive.kind, effective_splitting(drive), gamma_eff,
                      gamma, gamma_avg, eta if drive.kind == DD else None,
                      eta if drive.kind == CDT else None)
