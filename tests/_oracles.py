"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive (series summation, raw matrix
arithmetic, high-order quadrature-free limits) and shares no code path
with the package internals it checks.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp


def expm_series(a, terms=40):
    """Matrix exponential by direct Taylor summation."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def bessel_series(n, x, terms=30):
    """Ascending power series for J_n(x)."""
    total = 0.0
    for k in range(terms):
        total += ((-1) ** k * (0.5 * x) ** (2 * k + n)
                  / (math.factorial(k) * math.factorial(k + n)))
    return total


def coth_exp(x):
    """coth via exponentials, no tanh call."""
    return (math.exp(x) + math.exp(-x)) / (math.exp(x) - math.exp(-x))


def rate_dd_series(x, omega, alpha, omega_c, temperature):
    """Gamma_DD = S(Delta)/2 * J0^2 + sum_n J_n^2 S(n*Omega) e^(-n*Omega/wc),
    summed term by term in 30-digit mpmath with S(w) = 2*pi*alpha*w*coth(w/2T)
    (T > 0) over n <= max(120, 1.5*x + 60).  J_n(x) falls off
    super-exponentially once n exceeds x: J_n(x)^2 < 1e-300 for x <= 5 at
    n = 120, and the dropped terms stay far below 1e-20 of the sum at
    n = 1.5*x + 60 for larger x.
    """
    with mp.workdps(30):
        x, omega = mp.mpf(x), mp.mpf(omega)
        alpha, temperature = mp.mpf(alpha), mp.mpf(temperature)

        def spectrum(w):
            return 2 * mp.pi * alpha * w * mp.coth(w / (2 * temperature))

        total = mp.besselj(0, x) ** 2 * spectrum(mp.mpf(1))
        for n in range(1, max(120, int(1.5 * x + 60)) + 1):
            total += (2 * mp.besselj(n, x) ** 2 * spectrum(n * omega)
                      * mp.exp(-n * omega / omega_c))
        return float(total / 2)


def bloch_reference(kind, amp_ratio, omega, gamma, alpha, s0, times, tol,
                    delta=1.0):
    """Bloch trajectory by one adaptive DOP853 run over every drive cycle.

    Integrates ds/dt = s x w(t) - diag(0, G, G) s + b, b = (0, 0,
    -pi*alpha*Delta), with w = (0, 0, Delta + 2A cos(Omega t)) for the
    sigma_z ("dd") drive, w = (2A cos(Omega t), 0, Delta) for the sigma_x
    ("cdt") drive and w = (0, 0, Delta) undriven, 2A = amp_ratio*Omega, at rtol = atol = tol/10,
    and returns the states at the sample times, shape (len(times), 3).
    """
    b_z = -math.pi * alpha * delta
    drive_x = amp_ratio * omega if kind == "cdt" else 0.0
    drive_z = amp_ratio * omega if kind == "dd" else 0.0

    def rhs(t, s):
        c = math.cos(omega * t)
        wx, wz = drive_x * c, delta + drive_z * c
        sx, sy, sz = s
        return [sy * wz, sz * wx - sx * wz - gamma * sy,
                -sy * wx - gamma * sz + b_z]

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, times[-1]), np.asarray(s0, dtype=float),
                    method="DOP853", rtol=0.1 * tol, atol=0.1 * tol,
                    t_eval=times)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def floquet_reference(kind, amp_ratio, omega, gamma, alpha, s0, times, tol):
    """Bloch states at the sample times through the one-period map.

    bloch_reference over one drive period T = 2*pi/Omega, from s = 0 and
    from the three unit vectors, gives the affine propagator Phi(tau) at
    every sample phase tau and Phi(T).  A sample at t = n*T + tau is then
    Phi(tau) Phi(T)^n (s0, 1), the power taken as a running product, one
    matvec per period.  Arguments as for bloch_reference; returns shape
    (len(times), 3).
    """
    period = 2.0 * math.pi / omega
    times = np.asarray(times, dtype=float)
    n = np.floor(times / period).astype(np.int64)
    tau = np.clip(times - n * period, 0.0, period)
    phases = np.unique(np.append(tau, period))
    starts = [bloch_reference(kind, amp_ratio, omega, gamma, alpha, s,
                              phases, tol)
              for s in np.vstack([np.zeros(3), np.eye(3)])]
    phi = np.zeros((len(phases), 4, 4))
    phi[:, :3, :3] = np.stack(starts[1:], axis=2) - starts[0][:, :, None]
    phi[:, :3, 3] = starts[0]
    phi[:, 3, 3] = 1.0
    powers = [np.append(np.asarray(s0, dtype=float), 1.0)]
    for _ in range(n.max()):
        powers.append(phi[-1] @ powers[-1])
    return np.einsum("kij,kj->ki", phi[np.searchsorted(phases, tau), :3],
                     np.array(powers)[n])
