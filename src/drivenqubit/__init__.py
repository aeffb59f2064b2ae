"""Driven-qubit decoherence laboratory.

A single qubit with level splitting Delta (the frequency unit; hbar =
k_B = 1) couples through sigma_x to an Ohmic bath.  The package provides
the bath spectra, the effective coupling and the closed-form decoherence
rates for sigma_x (tunneling-suppressing) and sigma_z (decoupling)
drives, an independent oracle for that coupling, Bloch-vector time
evolution with entropy diagnostics, and a CLI that writes
coherence-stabilization sweeps as CSV.
"""

__version__ = "0.1.0"

from .bath import BathSpec, RegimeWarning, power_spectrum
from .driving import (CDT, DD, NONE, Drive, bessel_j, effective_splitting,
                      numeric_q_oracle)
from .dynamics import (DecaySpectrum, IntegrationDivergedError,
                       NoSteadyStateError, Trajectory,
                       average_entropy_production, decay_eigenvalues, evolve,
                       steady_state)
from .rates import (RateReport, build_report, effective_rate, rate_cdt,
                    rate_dd, rate_static, stabilization_eta, trace_bound)

__all__ = [
    "BathSpec", "RegimeWarning", "power_spectrum",
    "CDT", "DD", "NONE", "Drive", "bessel_j",
    "effective_splitting", "numeric_q_oracle",
    "DecaySpectrum", "IntegrationDivergedError", "NoSteadyStateError",
    "Trajectory", "average_entropy_production", "decay_eigenvalues",
    "evolve", "steady_state",
    "RateReport", "build_report", "effective_rate",
    "rate_cdt", "rate_dd", "rate_static", "stabilization_eta", "trace_bound",
]
