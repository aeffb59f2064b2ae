"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive (series summation, raw 2x2 matrix
arithmetic, high-order quadrature-free limits) and shares no code path
with the package internals it checks.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


def pauli_coeffs(m):
    """Pauli decomposition of a 2x2 matrix by explicit traces."""
    return tuple(np.trace(p @ m) / 2.0 for p in (ID2, SX, SY, SZ))


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


def bloch_reference(kind, amplitude, omega, gamma, alpha, s0, times, tol,
                    delta=1.0):
    """Bloch trajectory by one adaptive DOP853 run over every drive cycle.

    Integrates ds/dt = s x w(t) - diag(0, G, G) s + b, b = (0, 0,
    -pi*alpha*Delta), with w = (0, 0, Delta + 2A cos(Omega t)) for the
    sigma_z ("dd") drive, w = (2A cos(Omega t), 0, Delta) for the sigma_x
    ("cdt") drive and w = (0, 0, Delta) undriven, at rtol = atol = tol/10,
    and returns the states at the sample times, shape (len(times), 3).
    """
    b_z = -math.pi * alpha * delta
    drive_x = 2.0 * amplitude if kind == "cdt" else 0.0
    drive_z = 2.0 * amplitude if kind == "dd" else 0.0

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
