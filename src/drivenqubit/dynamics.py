"""Bloch-vector dynamics: ds/dt = -M(t) s + b, entropy diagnostics.

The decay matrix M combines an antisymmetric coherent block (precession
about z at Delta = 1, plus the instantaneous drive rotation 2A*cos(Omega t)
about x for CDT or about z for DD) with the dissipative diagonal
diag(0, Gamma_eff, Gamma_eff) of the sigma_x double-commutator; the
inhomogeneity b = (0, 0, -pi*alpha) is not modified by the driving.
tr M = 2*Gamma_eff at all times.

M(t) repeats with the drive period T = 2*pi/Omega, so evolve builds the
affine propagator over one period only and reaches every later sample
through integer powers of it.  The one-period propagator is a product of
sixth-order Magnus steps, each the matrix exponential (_expm) of a
closed-form exponent from A at three Gauss points, with as many steps as
the whole run's error budget tol needs, or as the rounding of the step
product allows.  One walk down the tree of step products gives Phi(m h),
the product of the first m steps, for every m (_prefixes); a sample's
phase takes one of them and one partial step.  An undriven run takes
powers of one exponential.  The powers come from one table built by
doubling and the squares of the higher bits (_power_columns).  evolve
computes all samples at once; evolve_blocks computes the same samples
4096 at a time, so that an undriven trajectory of any length streams in
the memory of one block, each sample with the same bits (_sample_blocks).
The package runs on numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, RegimeWarning
from .driving import CDT, DD, Drive, _one_point
from .rates import effective_rate, rate_static


# evolve calls no ODE solver; perfbench's tracer still swaps this name
solve_ivp = None


class IntegrationDivergedError(RuntimeError):
    """Bloch vector left the unit ball by more than the allowed slack."""


class NoSteadyStateError(ValueError):
    """The decay matrix is singular (alpha = 0): no unique fixed point."""


# samples evolve_blocks computes at a time.  A block's temporaries do not
# grow with the sample count: a 70,001-row CLI evolve and a 280,001-row
# one both peak at 1.4 MiB of tracemalloc (2.0 MiB with blocks of 8192).
# With blocks of 1024 the numpy calls made per block took the benchmark's
# dense_output pass ~20 % longer than with 4096
_BLOCK_SAMPLES = 4096


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled Bloch trajectory with entropy diagnostics."""

    t: np.ndarray          # sample times, strictly increasing
    s: np.ndarray          # shape (n, 3)
    entropy: np.ndarray    # linear entropy (1 - s.s)/2
    entropy_rate: np.ndarray
    # driven runs only: Magnus steps per period and the estimated error
    # of the one-period propagator (max row sum over the s rows).  The
    # estimate is of the truncation only; the rounding of the N-step
    # product, 0.01-0.2 N*eps per period as measured, is not in it
    substeps: int | None = None
    period_error: float | None = None

    def __len__(self):
        return len(self.t)


def _generator(bath: BathSpec, drive: Drive):
    """Gamma_eff and the 4x4 A0, A1 with d/dt (s, 1) = A(t) (s, 1).

    A(t) = A0 + cos(Omega t) A1.  A0 = [[-M0, b], [0, 0]] holds the
    undriven decay matrix M0 (precession about z at Delta = 1, damping
    Gamma_eff of s_y and s_z) and the inhomogeneity b = (0, 0, -pi*alpha);
    A1 is the drive's rotation at rate 2A = x*Omega about x (CDT) or about
    z (DD), zero undriven.  An array parameter raises ValueError naming it.
    """
    _one_point("the Bloch equation", drive, bath)
    gamma_eff = effective_rate(bath, drive)
    a0 = np.zeros((4, 4))
    # rotation about z: ds_x/dt = +s_y, ds_y/dt = -s_x
    a0[0, 1], a0[1, 0] = 1.0, -1.0
    a0[1, 1] = a0[2, 2] = -gamma_eff
    a0[2, 3] = -math.pi * bath.alpha
    a1 = np.zeros((4, 4))
    w = drive.amp_ratio * drive.omega
    if drive.kind == CDT:
        # rotation about x: ds_y/dt = +w*s_z, ds_z/dt = -w*s_y
        a1[1, 2], a1[2, 1] = w, -w
    elif drive.kind == DD:
        a1[0, 1], a1[1, 0] = w, -w
    return gamma_eff, a0, a1


def _entropy_rate(s: np.ndarray, gamma_eff: float, b_z: float):
    """dS/dt = -s.(ds/dt) = s.M.s - s.b = Gamma_eff*(s_y^2 + s_z^2) - b_z*s_z.

    The coherent block of M (the precession and the drive rotation) is
    antisymmetric, and s.A.s = 0 for any antisymmetric A, so the drive's
    time dependence drops out.  s may be one Bloch vector or a stack.
    """
    return gamma_eff * (s[..., 1] ** 2 + s[..., 2] ** 2) - b_z * s[..., 2]


# _expm scales its argument to a 1-norm of at most _EXPM_NORM, where
# _EXPM_TERMS Taylor terms leave a remainder below 1e-16 of the sum
_EXPM_NORM = 0.5
_EXPM_TERMS = 14


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^a by a Taylor series with scaling and squaring.

    a is one square matrix or a stack of them, shape (..., n, n); a stack
    shares the scaling of its largest 1-norm.  b = a/2^s has 1-norm <= 1/2,
    and E = e^b - I = b(I + b/2(I + b/3(...))) is summed by Horner's rule.
    The squarings carry E itself, as (I + E)^2 = I + (2E + E^2), so the
    low bits of e^b next to the identity are not rounded away; once an
    entry of E reaches 1/2, e^b is no longer near I and the remaining
    squarings act on I + E, which keeps entries that decay toward 0 from
    rounding against 1.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(norm / _EXPM_NORM))) if norm else 0
    b = a / 2.0 ** s
    eye = np.eye(a.shape[-1])
    e = np.zeros_like(b)
    for k in range(_EXPM_TERMS, 0, -1):
        e = b @ (eye + e) / k
    while s and np.abs(e).max() <= 0.5:
        e = 2.0 * e + e @ e
        s -= 1
    m = eye + e
    for _ in range(s):
        m = m @ m
    return m


# the first Magnus step count has h*(|A0|_1 + |A1|_1) <= _MAGNUS_NORM.
# An N-step product rounds by up to ~N*eps per period (measured against
# long double: 0.01-0.2 N*eps for DD and CDT at x = 0.5-50, Omega =
# 10-1000), so the count stops doubling once the truncation estimate is
# below N*eps, which is within one doubling of where the two cross in all
# 24 of those cases; it also stops at _MAX_SUBSTEPS, which bounds the
# memory of the step tree.
_MAGNUS_NORM = 0.5
_MAX_SUBSTEPS = 2 ** 13
_EPS = float(np.finfo(float).eps)
_GAUSS_OFFSET = math.sqrt(15.0) / 10.0


def _commutators(a0, a1):
    """Basis of the sixth-order exponent of A(t) = A0 + cos(Omega t) A1.

    With K = [A0, A1], K0 = [A0, K] and K1 = [A1, K] the rows are A0, A1,
    K, K0, K1, [A0, K0], [A1, K0], [A1, K1], [K, K0], [K, K1], each
    flattened, shape (10, 16); [A0, K1] = [A1, K0] by the Jacobi identity.
    Built once per run.
    """
    def comm(x, y):
        return x @ y - y @ x

    k = comm(a0, a1)
    k0, k1 = comm(a0, k), comm(a1, k)
    return np.stack([a0, a1, k, k0, k1, comm(a0, k0), comm(a1, k0),
                     comm(a1, k1), comm(k, k0), comm(k, k1)]).reshape(10, -1)


def _magnus_exponents(basis, omega, start, width):
    """Sixth-order Magnus exponents of A(t) = A0 + cos(Omega t) A1, one
    per interval [start, start + width] (arrays), shape (k, 4, 4); basis
    is _commutators(A0, A1).

    A step of width h samples A at its three Gauss points t1 < t2 < t3,
    t2 - t1 = t3 - t2 = sqrt(15)/10 h, with cosines c1, c2, c3 there, and
    takes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
        alpha1 = h A(t2),  alpha2 = sqrt(15)/3 h (A(t3) - A(t1)),
        alpha3 = 10/3 h (A(t3) - 2 A(t2) + A(t1)),
        C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1]/60,
        exponent = alpha1 + alpha3/12
                   + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.
    Here alpha1 = h A0 + b A1, alpha2 = p A1 and alpha3 = q A1 with
    b = h c2, p = sqrt(15)/3 h (c3 - c1) and q = 10/3 h (c3 - 2 c2 + c1),
    so the exponent is a weighted sum of the rows of basis, the weights
    polynomials in h, b, p and q: one (k, 10) by (10, 16) product.
    """
    h = np.asarray(width, dtype=float)
    mid = np.asarray(start, dtype=float) + 0.5 * h
    c1 = np.cos(omega * (mid - _GAUSS_OFFSET * h))
    c2 = np.cos(omega * mid)
    c3 = np.cos(omega * (mid + _GAUSS_OFFSET * h))
    b = h * c2
    p = math.sqrt(15.0) / 3.0 * h * (c3 - c1)
    q = 10.0 / 3.0 * h * (c3 - 2.0 * c2 + c1)
    u, s = h * p, 20.0 * b + q
    weights = np.stack([
        h, b + q / 12.0,                        # A0, A1
        -u / 12.0, h * h * q / 360.0,           # K, K0
        h * (q * s - 30.0 * p * p) / 7200.0,    # K1
        h * h * u / 720.0,                      # [A0, K0]
        h * u * (40.0 * b + q) / 14400.0,       # [A1, K0]
        b * u * s / 14400.0,                    # [A1, K1]
        -h * u * u / 14400.0,                   # [K, K0]
        -b * u * u / 14400.0], axis=-1)         # [K, K1]
    return (weights @ basis).reshape(-1, 4, 4)


def _step_tree(basis, omega, span, n):
    """Levels of the tree product of n uniform Magnus steps over [0, span].

    Level 0 holds the n step propagators, exponentiated in one batched
    _expm call; level j holds the products of 2^j consecutive steps,
    later steps on the left, and the last level Phi(span) alone.  n is a
    power of two.
    """
    h = span / n
    steps = _expm(_magnus_exponents(basis, omega, np.arange(n) * h,
                                    np.full(n, h)))
    levels = [steps]
    while len(steps) > 1:
        steps = steps[1::2] @ steps[::2]
        levels.append(steps)
    return levels


def _prefixes(levels) -> np.ndarray:
    """Phi(m h) for m = 0..n, shape (n + 1, 4, 4), from _step_tree's
    levels, one batched product per level down from the root: a node's
    left child keeps the node's prefix, its right child gets the left
    child times it, and the first factor of every prefix multiplies I."""
    n = len(levels[0])
    phi = np.empty((n + 1, 4, 4))
    phi[0], phi[n] = np.eye(4), levels[-1][0] @ np.eye(4)
    for j in range(len(levels) - 2, -1, -1):
        # the level-j nodes start at the multiples of 2^j
        phi[1 << j::2 << j] = levels[j][::2] @ phi[:-1:2 << j]
    return phi


def _one_period(basis, omega, span, periods, tol):
    """Phi(m h) for m = 0..N over the N Magnus steps the run keeps, the
    last being Phi(span), and the error estimate of Phi(span).

    Starts from the power-of-two step count n at which h*(|A0|_1 + |A1|_1)
    <= 1/2, or from half of _MAX_SUBSTEPS if that is smaller.  The
    sixth-order error e(N) = c N^-6 of Phi(span) is fitted to the
    difference of the n- and 2n-step products, e(n) - e(2n) = 63/64 c n^-6,
    and the count doubles from 2n until periods * e(N) <= tol, so tol
    bounds the whole run.  e is the max row sum over the s rows, which
    bounds the error Phi adds to s per period.  The count also stops once
    e(N) < N*eps, where the rounding of the step product outgrows e, and
    at _MAX_SUBSTEPS.  No step count fixes a sample better than the
    rounding of its phase tau = t - n*T, about eps*t: the state moves at
    up to |A0|_1 + |A1|_1, so a run of periods*span is fixed only to
    (|A0|_1 + |A1|_1)*eps*periods*span.  If periods * e(N) or that bound
    exceeds tol, one RegimeWarning names each that does, and for e(N)
    which of the two stops applied.
    """
    norm = np.abs(basis[:2]).reshape(2, 4, 4).sum(axis=1).max(axis=1).sum()
    n = min(2 ** max(0, math.ceil(math.log2(span * norm / _MAGNUS_NORM))),
            _MAX_SUBSTEPS // 2)
    coarse = _step_tree(basis, omega, span, n)[-1][0]
    levels = _step_tree(basis, omega, span, 2 * n)
    diff = float(np.abs(levels[-1][0, :3] - coarse[:3]).sum(axis=1).max())
    c = 64.0 / 63.0 * diff * float(n) ** 6
    count, error = 2 * n, c / float(2 * n) ** 6
    while (count < _MAX_SUBSTEPS and periods * error > tol
           and error > count * _EPS):
        count *= 2
        error = c / float(count) ** 6
    phase = norm * _EPS * periods * span
    parts = []
    if periods * error > tol:
        if error <= count * _EPS:
            cause = (f", below the rounding floor N*eps = {count * _EPS:.3e} "
                     "of an N-step product, where more steps cannot help")
        else:
            cause = f", at the {_MAX_SUBSTEPS}-step cap"
        parts.append(
            f"the one-period propagator stops at {count} Magnus steps with "
            f"an error estimate of {error:.3e} per period{cause}; over "
            f"{periods} periods that is {periods * error:.3e}, above "
            f"tol = {tol:.3e}")
    if phase > tol:
        parts.append(
            f"the sample phases t - n*T round to about eps*t, and the state "
            f"moves at up to |A0|_1 + |A1|_1 = {norm:.3e}, so over "
            f"{periods} periods each sample is fixed only to {phase:.3e}, "
            f"above tol = {tol:.3e}")
    if parts:
        warnings.warn("; ".join(parts), RegimeWarning, stacklevel=3)
    if count > 2 * n:
        levels = _step_tree(basis, omega, span, count)
    return _prefixes(levels), error


def _gemm(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for columns v, shape (4, k), through gemm for every k; every
    product of _power_columns takes it.

    numpy hands a single column to gemv, which sums in another order than
    gemm: two copies of it keep the rounding of gemm, so a column gets the
    same bits in a block of any width, one column included.
    """
    if v.shape[1] == 1:
        return (a @ v[:, [0, 0]])[:, :1]
    return a @ v


def _power_columns(step: np.ndarray, v0: np.ndarray, n_max: int,
                   width: int):
    """columns(n): step^n[k] @ v0 for nondecreasing n <= n_max, an
    array or a range, shape (4, len(n)), for blocks n of about width
    samples.

    The squares step^(2^j) for the bits of n_max come first.  The powers
    below min(n_max + 1, m), with m the smallest power of two >= width,
    make one table, built once by doubling: with k = 2^j, its columns
    k .. 2k-1 are step^k @ columns 0 .. k-1, one _gemm per j.
    columns(n) takes the table columns of the low bits n mod m (a slice
    for a range within one span of m, as the samples of an undriven block
    are), then the squares step^(2^j) of the high bits, lowest
    first: one matmul per set bit where every n shares it, masked by
    np.where where only some do.  Either way a column takes the squares of
    the set bits of its n, lowest first, as plain binary powering would,
    each product through gemm, so it has the same bits in a table of any
    size.  For range(n_max + 1) below m the table is the result.  The
    memory is that of one table and of len(n) columns, not of n_max: a
    driven run sampled less than once per period reaches n ~ 1e8.
    """
    m = 1 << (width - 1).bit_length()
    size = min(n_max + 1, m)
    table = np.empty((len(v0), size))
    table[:, 0] = v0
    squares = [step]
    while len(squares) < n_max.bit_length():
        squares.append(squares[-1] @ squares[-1])
    for j in range((size - 1).bit_length()):
        k = 1 << j
        table[:, k:2 * k] = _gemm(squares[j], table[:, :min(k, size - k)])
    shift = m.bit_length() - 1

    def columns(n) -> np.ndarray:
        first, last = int(n[0]), int(n[-1])
        bits = first >> shift
        if bits != last >> shift:
            n = np.arange(n.start, n.stop) if isinstance(n, range) else n
            v = table.take(n & (m - 1), axis=1)
            high = n >> shift
            for square in squares[shift:]:
                if not high.any():
                    break
                v = np.where(high & 1, _gemm(square, v), v)
                high = high >> 1
            return v
        if isinstance(n, range):
            v = table[:, first & (m - 1):(last & (m - 1)) + 1]
        else:
            v = table.take(n & (m - 1), axis=1)
        for square in squares[shift:shift + bits.bit_length()]:
            if bits & 1:
                v = _gemm(square, v)
            bits >>= 1
        return v
    return columns


def _outside_fixed_point(step: np.ndarray, gamma_eff: float,
                         b_z: float) -> str:
    """Clause naming the fixed point of (s, 1) -> step (s, 1) if |s*| > 1.

    The run iterates this affine map, so its fixed point s*, the solution
    of (I - step_3x3) s* = step[:3, 3], is where the samples settle.
    Empty when s* lies in the Bloch ball or is not unique.
    """
    try:
        fixed = np.linalg.solve(np.eye(3) - step[:3, :3], step[:3, 3])
    except np.linalg.LinAlgError:
        return ""
    radius = float(np.linalg.norm(fixed))
    if radius <= 1.0:
        return ""
    return (f"; the run's fixed point s* = ({fixed[0]:.3g}, {fixed[1]:.3g}, "
            f"{fixed[2]:.3g}) lies outside the Bloch ball, |s*| = "
            f"{radius:.3f}: the relaxation Gamma_eff = {gamma_eff:.3e} is "
            f"too weak for the inhomogeneity |b| = {abs(b_z):.3e}")


def evolve(bath: BathSpec, drive: Drive, s0, t_max: float, dt_out: float,
           tol: float = 1e-9) -> Trajectory:
    """Sample the Bloch trajectory every dt_out through the one-period map.

    In augmented form d/dt (s, 1) = A(t) (s, 1) with A(t) = A0 +
    cos(Omega t) A1.  A is periodic with the drive period T = 2*pi/Omega,
    so its propagator factors as Phi(n*T + tau) = Phi(tau) Phi(T)^n
    (Floquet; Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)).  Phi is
    built once, over [0, T] or over [0, t_max] when t_max < T, from N
    uniform sixth-order Magnus steps: Phi(T) is their tree product, and
    Phi(tau) at a sample's phase the product Phi(m h) of the first
    m = floor(tau/h) steps times one sixth-order partial step; Phi(m h)
    for every m comes from one walk down the tree, once per run.  N is
    the smallest power of two at which ceil(t_max/T) times the one-period
    error estimate is <= tol, unless the rounding of the step product
    stops it first (see _one_period); the result records N (substeps)
    and the estimate (period_error).  Phi(T)^n (s0, 1) comes from
    _power_columns: a table of the powers below the sample count, built
    by doubling, and binary powering from there on, so the cost does not
    grow with t_max / T.  An undriven run needs no steps: sample k is
    exp(A0*dt_out)^k (s0, 1), the table itself.  Sample k is at time
    k*dt_out, up to t_max.

    s0 is a Bloch vector of shape (3,) with |s0| <= 1.  The full
    time-dependent coherent block is kept (no rotating frame),
    so the high-frequency approximation enters only through Gamma_eff.
    A sample with |s| > 1 + 100*tol raises IntegrationDivergedError; a
    driven run of 2^63 or more drive periods raises ValueError.  The run
    takes one parameter point: an array parameter of the bath or the drive
    raises ValueError naming it.
    """
    (trajectory,) = _sample_blocks(bath, drive, s0, t_max, dt_out, tol,
                                   None)
    return trajectory


def evolve_blocks(bath: BathSpec, drive: Drive, s0, t_max: float,
                  dt_out: float, tol: float = 1e-9):
    """The samples of evolve, _BLOCK_SAMPLES at a time: an iterator of
    Trajectory blocks, each with the run's substeps and period_error.

    The blocks have the bits of evolve's whole arrays (see
    _sample_blocks); the last may hold a single sample.  The powers come
    from a table of _BLOCK_SAMPLES columns, so an undriven run of any
    length takes the memory of one block.  A driven run also keeps the
    Phi(tau) of the whole run, one 4x4 matrix per distinct phase of the
    samples, and each sample's power and phase index.  Before
    it returns, one pass over all blocks checks |s|, so that a diverging
    run raises IntegrationDivergedError, with the largest |s| of the run,
    before any block is made; the blocks then compute their samples
    again.
    """
    return _sample_blocks(bath, drive, s0, t_max, dt_out, tol,
                          _BLOCK_SAMPLES)


def _sample_blocks(bath, drive, s0, t_max, dt_out, tol, width):
    """evolve's samples as an iterator of Trajectory blocks of width
    samples (None: one block of all); the last may be shorter.  A sample
    has the same bits in a block of any width: every product goes through
    gemm (_gemm) or through one sum whose order the code writes out."""
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError(f"s0 must be a Bloch vector of shape (3,), got "
                         f"shape {s0.shape}")
    if not (np.isfinite(s0).all() and np.isfinite(t_max)
            and np.isfinite(dt_out)):
        raise ValueError("s0, t_max and dt_out must be finite")
    if np.linalg.norm(s0) > 1.0 + 1e-12:
        raise ValueError("initial Bloch vector must satisfy |s| <= 1")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if dt_out <= 0.0:
        raise ValueError("dt_out must be positive")
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")

    gamma_eff, a0, a1 = _generator(bath, drive)
    # the length of np.arange(0, t_max + dt_out/2, dt_out), whose sample
    # k is k*dt_out, less the samples past t_max
    length = (t_max + 0.5 * dt_out) / dt_out
    if not length <= np.iinfo(np.intp).max // 8:
        raise ValueError(f"t_max / dt_out = {t_max / dt_out:.3g}: more "
                         "samples than an array can hold")
    driven = a1.any()
    if driven and not t_max / drive.period < 2.0 ** 63:
        raise ValueError(f"t_max / T = {t_max / drive.period:.3g}: more "
                         "drive periods than a 64-bit integer can count")
    count = math.ceil(length)
    while (count - 1) * dt_out > t_max:
        count -= 1
    width = width or count
    bounds = [(start, min(start + width, count))
              for start in range(0, count, width)]

    v0 = np.append(s0, 1.0)
    substeps = period_error = None
    if not driven:
        step = _expm(a0 * dt_out)
        powers = _power_columns(step, v0, count - 1, width)

        def states(start, stop):
            return powers(range(start, stop))[:3].T
    else:
        omega, period = drive.omega, drive.period
        span = min(period, t_max)
        t = np.arange(count) * dt_out
        n = np.floor(t / period).astype(np.int64)
        # t - n*T may round a hair outside [0, span]
        tau = np.clip(t - n * period, 0.0, span)
        basis = _commutators(a0, a1)
        prefixes, period_error = _one_period(basis, omega, span,
                                             math.ceil(t_max / period), tol)
        substeps = len(prefixes) - 1
        h = span / substeps
        phases, which = np.unique(tau, return_inverse=True)
        m = np.minimum(np.floor(phases / h).astype(np.int64), substeps)
        phi = (_expm(_magnus_exponents(basis, omega, m * h, phases - m * h))
               @ prefixes[m])
        step = prefixes[-1]
        powers = _power_columns(step, v0, int(n[-1]), width)

        def states(start, stop):
            # Phi(tau)[:3] @ v term by term: einsum would sum in an order
            # that follows the memory layout of v
            p, v = phi[which[start:stop], :3], powers(n[start:stop])
            return (p[..., 0] * v[0, :, None] + p[..., 1] * v[1, :, None]
                    + p[..., 2] * v[2, :, None] + p[..., 3] * v[3, :, None])

    # the first block is kept: a run of one block is computed once
    first = states(*bounds[0])
    peak = 0.0
    for start, stop in bounds:
        s = first if start == 0 else states(start, stop)
        peak = np.maximum(peak, np.einsum("ij,ij->i", s, s).max())
    peak = math.sqrt(peak)
    if peak > 1.0 + 100.0 * tol:
        # an undriven run settles inside the ball, at -tanh(1/2T) z, and a
        # run shorter than one period never iterates Phi(t_max)
        cause = (_outside_fixed_point(step, gamma_eff, a0[2, 3])
                 if driven and t_max >= drive.period else "")
        raise IntegrationDivergedError(
            f"|s| reached 1 + {peak - 1.0:.3e}, beyond the physical "
            f"bound 1 + {100.0 * tol:.3e}{cause}")

    def blocks():
        for start, stop in bounds:
            s = first if start == 0 else states(start, stop)
            entropy = 0.5 * (1.0 - np.einsum("ij,ij->i", s, s))
            yield Trajectory(np.arange(start, stop) * dt_out, s, entropy,
                             _entropy_rate(s, gamma_eff, a0[2, 3]),
                             substeps, period_error)
    return blocks()


def steady_state(bath: BathSpec) -> np.ndarray:
    """Fixed point M s = b of the undriven system: thermal polarization.

    s_ss = (0, 0, -pi*alpha*Delta/Gamma) = (0, 0, -tanh(Delta/2T)), a
    float array of shape (3,).
    """
    _one_point("steady_state", bath)
    gamma = rate_static(bath)
    if gamma == 0.0:
        raise NoSteadyStateError("alpha = 0 has no unique steady state")
    return np.array([0.0, 0.0, -math.pi * bath.alpha / gamma])


@dataclass(frozen=True)
class DecaySpectrum:
    """Eigenvalues of the undriven decay matrix M."""

    exact: tuple          # (Gamma, Gamma/2 + i*w, Gamma/2 - i*w)
    weak_damping: tuple   # (Gamma, Gamma/2 + i*Delta, Gamma/2 - i*Delta)
    overdamped: bool


def decay_eigenvalues(bath: BathSpec) -> DecaySpectrum:
    """Closed-form spectrum {Gamma, (Gamma +- sqrt(Gamma^2 - 4 Delta^2))/2}.

    For Gamma << Delta this approaches {Gamma, Gamma/2 +- i*Delta}; the
    approximants are attached for reporting.  An all-real (overdamped)
    spectrum is flagged as outside the weak-damping regime.
    """
    _one_point("decay_eigenvalues", bath)
    gamma = rate_static(bath)
    disc = np.sqrt(complex(gamma * gamma - 4.0))
    overdamped = gamma >= 2.0
    if overdamped:
        warnings.warn("Gamma >= 2*Delta: outside the weak-dissipation "
                      "regime assumed by the analytic eigenvalue form",
                      RegimeWarning, stacklevel=2)
    pair = sorted([0.5 * (gamma + disc), 0.5 * (gamma - disc)],
                  key=lambda z: -z.imag)
    exact = (complex(gamma), pair[0], pair[1])
    weak = (complex(gamma), 0.5 * gamma + 1j, 0.5 * gamma - 1j)
    return DecaySpectrum(exact, weak, overdamped)


def average_entropy_production(bath: BathSpec, drive: Drive,
                               n_samples: int = 100_000,
                               seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of <dS/dt> over uniform pure initial states.

    Converges to tr M / 3 = 2*Gamma_eff/3 (the inhomogeneity averages to
    zero by symmetry); dS/dt does not depend on the drive phase, so
    neither does the estimate.  Returns (estimate, standard error);
    sampling uses normalized Gaussian triples from a seeded generator.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    gamma_eff, a0, _ = _generator(bath, drive)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n_samples, 3))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    rates = _entropy_rate(s, gamma_eff, a0[2, 3])
    mean = float(rates.mean())
    sem = float(rates.std(ddof=1) / math.sqrt(n_samples))
    return mean, sem
