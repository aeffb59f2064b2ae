"""Ohmic bath: parameters and symmetric-fluctuation power spectrum.

Natural units hbar = k_B = 1 with the static qubit splitting Delta as the
frequency unit.  Temperatures are therefore dimensionless (T = 1 means
k_B T = hbar*Delta) and beta = 1/T.  alpha is a factor of S(w) and of
nothing else: rates take it once, in Gamma = S(Delta)/2, and the rest as
the alpha-free ratio rho(w) = S(w)/S(Delta).

BathSpec parameters and the frequencies given to power_spectrum may be
numpy arrays of parameter points; they broadcast like numpy operands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class RegimeWarning(UserWarning):
    """Parameters leave the regime in which the closed-form rates hold."""


def _warn_points(mask, message: str, *params):
    """One RegimeWarning for all points where mask holds, with their count.

    The points are the broadcast of mask with the parameter arrays params.
    """
    if not np.any(mask):        # the common case, at the cost of one call
        return
    shape = np.broadcast_shapes(np.shape(mask), *map(np.shape, params))
    hits = np.count_nonzero(np.broadcast_to(mask, shape))
    if hits:
        points = math.prod(shape)
        if points > 1:
            message += f" ({hits} of {points} points)"
        warnings.warn(message, RegimeWarning, stacklevel=4)


def _check_range(value, message: str, positive: bool = False):
    """ValueError(message) unless every point of value is finite and
    non-negative, or positive; NaN and inf fail."""
    below = np.less_equal if positive else np.less
    if np.any(~np.isfinite(value) | below(value, 0.0)):
        raise ValueError(message)


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath with J(w) = 2*pi*alpha*w*exp(-w/omega_c).

    alpha       dimensionless coupling strength (finite, >= 0)
    omega_c     cutoff frequency in units of Delta (finite, > 0)
    temperature in units of hbar*Delta/k_B (finite, >= 0); T = 0 means
                beta infinite
    """

    alpha: float
    omega_c: float
    temperature: float = 0.0

    def __post_init__(self):
        params = (self.alpha, self.omega_c, self.temperature)
        _check_range(self.alpha, "alpha must be finite and non-negative")
        _check_range(self.omega_c, "omega_c must be finite and positive",
                     positive=True)
        _check_range(self.temperature,
                     "temperature must be finite and non-negative")
        # alpha*ln(omega_c) would overflow from alpha ~ 3e307; an alpha
        # of 1e300 already violates it wherever ln(omega_c) > 0
        _warn_points(
            np.minimum(self.alpha, 1e300)
            * np.log(np.maximum(self.omega_c, 1.0)) > 0.1,
            "weak-coupling condition alpha*ln(omega_c) << 1 violated; "
            "Markovian rates are unreliable here", *params)
        _warn_points(
            np.less_equal(self.omega_c, 1.0),
            "cutoff omega_c at or below the qubit splitting; the "
            "high-cutoff master equation assumes omega_c >> Delta", *params)


def power_spectrum(bath: BathSpec, omega):
    """Bath-fluctuation power spectrum S(w) = 2*pi*alpha*w*coth(w/2T).

    No exponential cutoff here: the cutoff enters the driven rate sums
    explicitly at the harmonic frequencies.  Limits: S -> 4*pi*alpha*T as
    w -> 0 (T > 0), taken wherever coth(w/2T) overflows (w = 0, or w/2T
    below about 5.6e-309, as at T = 1e308), and S = 2*pi*alpha*w at
    T = 0.  omega may be an array; the result has the broadcast shape of
    omega and the bath parameters.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError("power spectrum is evaluated at omega >= 0")
    return _scaled_spectrum(bath, omega, 2.0 * math.pi)


def _scaled_spectrum(bath: BathSpec, omega: np.ndarray, factor: float):
    """factor*alpha*w*coth(w/2T) with S's limits: S at 2*pi; at pi, S/2
    with S's bits halved, but finite up to the largest double."""
    # T = 0, or a T so small that w/2T overflows, gives x = inf and
    # coth = 1; an inf or nan coth (x = 0, 1/x past the largest double,
    # or w = T = 0) takes the w -> 0 limit, which is 0 at T = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = factor * bath.alpha
        x = 0.5 * omega / bath.temperature
        # series branch avoids 1/tanh blowup near x = 0
        coth = np.where(x < 1e-6, 1.0 / x + x / 3.0, 1.0 / np.tanh(x))
        return np.where(np.isfinite(coth), scale * omega * coth,
                        2.0 * scale * bath.temperature)[()]


def _spectrum_ratio(bath: BathSpec, omega):
    """rho(w) = S(w)/S(Delta) = w*tanh(h)/tanh(w*h) with h = 1/2T.

    rho = w at T = 0 and rho(Delta) = 1.  Where the quotient is not finite
    (w*h is 0 or nan) it takes its w -> 0 limit 2T*tanh(h): tanh(h)/h while
    h is finite (2T overflows at T = 1e308), 2T where h is inf (T = 0 or
    subnormal).  A tiny h has tanh(h) = h, so w*tanh(h) and w*h round alike.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.divide(0.5, bath.temperature)
        tanh_h = np.tanh(h)
        rho = omega * tanh_h / np.tanh(omega * h)
        limit = np.where(h < np.inf, tanh_h / h, 2.0 * bath.temperature)
        return np.where(np.isfinite(rho), rho, limit)[()]
