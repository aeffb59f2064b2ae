"""Exact complex 2x2 operator algebra in the Pauli basis.

Every operator is stored as four complex coefficients (c0, cx, cy, cz)
such that O = c0*1 + cx*sx + cy*sy + cz*sz.  Products, adjoints and
unitary conjugation are closed-form in this representation, which keeps
Hermiticity and unitarity checks exact up to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pauli matrices in the computational (sigma_z) basis.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (ID2, SX, SY, SZ)

HERMITIAN_TOL = 1e-14
UNITARY_TOL = 1e-12


class InvalidStateError(ValueError):
    """Raised when a density operator fails a physicality check."""


@dataclass(frozen=True)
class QubitOperator:
    """Operator c0*1 + cx*sx + cy*sy + cz*sz with complex coefficients."""

    c0: complex = 0.0
    cx: complex = 0.0
    cy: complex = 0.0
    cz: complex = 0.0

    @classmethod
    def from_matrix(cls, m) -> "QubitOperator":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        # c_k = tr(sigma_k m) / 2, using tr(sigma_j sigma_k) = 2 delta_jk
        return cls(*(np.trace(p @ m) / 2.0 for p in PAULIS))

    def matrix(self) -> np.ndarray:
        return (self.c0 * ID2 + self.cx * SX + self.cy * SY + self.cz * SZ)

    @property
    def vector(self) -> np.ndarray:
        """Pauli-vector part (cx, cy, cz)."""
        return np.array([self.cx, self.cy, self.cz], dtype=complex)

    def dagger(self) -> "QubitOperator":
        return QubitOperator(np.conj(self.c0), np.conj(self.cx),
                             np.conj(self.cy), np.conj(self.cz))

    def __matmul__(self, other: "QubitOperator") -> "QubitOperator":
        # (a0 + a.s)(b0 + b.s) = a0 b0 + a.b + (a0 b + b0 a + i a x b).s
        a, b = self.vector, other.vector
        v = self.c0 * b + other.c0 * a + 1.0j * np.cross(a, b)
        return QubitOperator(self.c0 * other.c0 + a @ b, *v)

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        return QubitOperator(self.c0 + other.c0, self.cx + other.cx,
                             self.cy + other.cy, self.cz + other.cz)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return QubitOperator(self.c0 - other.c0, self.cx - other.cx,
                             self.cy - other.cy, self.cz - other.cz)

    def __mul__(self, scalar) -> "QubitOperator":
        return QubitOperator(scalar * self.c0, scalar * self.cx,
                             scalar * self.cy, scalar * self.cz)

    __rmul__ = __mul__

    def trace(self) -> complex:
        return 2.0 * self.c0

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        coeffs = np.array([self.c0, self.cx, self.cy, self.cz])
        return bool(np.max(np.abs(coeffs.imag)) <= tol)

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        prod = (self @ self.dagger()).matrix()
        return bool(np.max(np.abs(prod - ID2)) <= tol)

    def isclose(self, other: "QubitOperator", tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix() - other.matrix())) <= tol)


IDENTITY = QubitOperator(1.0, 0.0, 0.0, 0.0)
SIGMA_X = QubitOperator(0.0, 1.0, 0.0, 0.0)
SIGMA_Y = QubitOperator(0.0, 0.0, 1.0, 0.0)
SIGMA_Z = QubitOperator(0.0, 0.0, 0.0, 1.0)


def bloch_from_density(rho: QubitOperator) -> np.ndarray:
    """Bloch vector s_k = tr(sigma_k rho) of a density operator, a float
    array of shape (3,)."""
    if not rho.is_hermitian(tol=1e-12):
        raise InvalidStateError("density operator must be Hermitian")
    if abs(rho.trace() - 1.0) > 1e-12:
        raise InvalidStateError(f"density operator must have unit trace, "
                                f"got {rho.trace()}")
    s = 2.0 * np.real([rho.cx, rho.cy, rho.cz])
    if np.linalg.norm(s) > 1.0 + 1e-9:
        raise InvalidStateError("density operator is not positive "
                                "semidefinite (|s| > 1)")
    return s


def pauli_rotation(axis, angle: float) -> QubitOperator:
    """exp(-i*(angle/2)*(axis.sigma)) for a unit axis.

    Equals cos(angle/2)*1 - i*sin(angle/2)*(axis.sigma); always unitary.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError(f"axis must be a unit vector, |axis| = "
                         f"{np.linalg.norm(axis)}")
    half = 0.5 * angle
    v = -1.0j * np.sin(half) * axis
    return QubitOperator(np.cos(half), *v)


def conjugate(op: QubitOperator, u: QubitOperator) -> QubitOperator:
    """Heisenberg transform u^dagger . op . u for unitary u."""
    if not u.is_unitary():
        raise ValueError("conjugation requires a unitary operator")
    return u.dagger() @ op @ u
