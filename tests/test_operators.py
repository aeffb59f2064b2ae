import math

import numpy as np
import pytest

from drivenqubit import (InvalidStateError, QubitOperator, SIGMA_X, SIGMA_Y,
                         SIGMA_Z, IDENTITY, bloch_from_density, conjugate,
                         pauli_rotation)

from _oracles import ID2, SX, SY, SZ, expm_series, pauli_coeffs

RNG = np.random.default_rng(42)


def random_matrix():
    return RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))


class TestPauliDecomposition:

    def test_round_trip_matrix_coefficients_matrix(self):
        for _ in range(50):
            m = random_matrix()
            back = QubitOperator.from_matrix(m).matrix()
            assert np.max(np.abs(back - m)) < 1e-15 * np.max(np.abs(m)) + 1e-15

    def test_coefficients_match_trace_oracle(self):
        m = random_matrix()
        op = QubitOperator.from_matrix(m)
        c0, cx, cy, cz = pauli_coeffs(m)
        assert np.allclose([op.c0, op.cx, op.cy, op.cz], [c0, cx, cy, cz],
                           atol=1e-14)

    def test_pauli_orthogonality(self):
        for j, pj in enumerate((ID2, SX, SY, SZ)):
            for k, pk in enumerate((ID2, SX, SY, SZ)):
                assert np.trace(pj @ pk) == pytest.approx(
                    2.0 if j == k else 0.0, abs=1e-15)

    def test_product_matches_matrix_product(self):
        for _ in range(20):
            a, b = random_matrix(), random_matrix()
            lhs = (QubitOperator.from_matrix(a)
                   @ QubitOperator.from_matrix(b)).matrix()
            assert np.max(np.abs(lhs - a @ b)) < 1e-12


class TestStructureChecks:

    def test_hermitian_iff_real_coefficients(self):
        assert QubitOperator(1.0, 0.3, -0.2, 0.9).is_hermitian()
        assert not QubitOperator(1.0, 0.3 + 1e-10j, 0.0, 0.0).is_hermitian()

    def test_unitary_examples(self):
        assert IDENTITY.is_unitary()
        assert SIGMA_X.is_unitary()
        assert not (2.0 * SIGMA_X).is_unitary()
        assert not (SIGMA_X + SIGMA_Z).is_unitary()


class TestBlochFromDensity:

    def test_sigma_z_eigenstate(self):
        rho = 0.5 * (IDENTITY + SIGMA_Z)
        assert np.allclose(bloch_from_density(rho), [0, 0, 1])

    def test_maximally_mixed(self):
        assert np.allclose(bloch_from_density(0.5 * IDENTITY), [0, 0, 0])

    def test_tilted_pure_state_against_trace_oracle(self):
        # rho = (1 + (sx + sz)/sqrt2)/2; s_k = tr(sigma_k rho) by raw matrices
        rho_m = 0.5 * (ID2 + (SX + SZ) / math.sqrt(2.0))
        expected = [np.real(np.trace(p @ rho_m)) for p in (SX, SY, SZ)]
        got = bloch_from_density(QubitOperator.from_matrix(rho_m))
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(got, [1 / math.sqrt(2), 0, 1 / math.sqrt(2)])

    def test_pure_projector_has_unit_norm(self):
        for _ in range(20):
            v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            v /= np.linalg.norm(v)
            rho = QubitOperator.from_matrix(np.outer(v, v.conj()))
            s = bloch_from_density(rho)
            assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
            # linear entropy (1 - s.s)/2 vanishes for a pure state
            assert 0.5 * (1.0 - s @ s) == pytest.approx(0.0, abs=1e-12)

    def test_returns_float_array(self):
        # the vector is 2*Re(cx, cy, cz), bit for bit
        rho = QubitOperator(0.5, 0.1, -0.2 + 1e-14j, 0.3)
        s = bloch_from_density(rho)
        assert isinstance(s, np.ndarray)
        assert s.dtype == np.float64 and s.shape == (3,)
        assert np.array_equal(s, [0.2, -0.4, 0.6])

    def test_density_round_trip(self):
        s = np.array([0.2, -0.4, 0.5])
        rho = QubitOperator(0.5, *(0.5 * s))
        assert np.allclose(bloch_from_density(rho), s)

    def test_rejects_nonunit_trace(self):
        with pytest.raises(InvalidStateError):
            bloch_from_density(QubitOperator(0.6, 0, 0, 0.1))

    def test_rejects_nonhermitian(self):
        with pytest.raises(InvalidStateError):
            bloch_from_density(QubitOperator(0.5, 0.1j, 0, 0))


class TestPauliRotation:

    def test_zero_angle_is_identity(self):
        assert pauli_rotation((1, 0, 0), 0.0).isclose(IDENTITY)

    def test_full_turn_is_minus_identity(self):
        # spinor period 4*pi: a 2*pi rotation flips the global sign
        assert pauli_rotation((0, 0, 1), 2 * math.pi).isclose(-1.0 * IDENTITY)

    def test_pi_about_x_is_minus_i_sigma_x(self):
        got = pauli_rotation((1, 0, 0), math.pi)
        assert got.isclose(QubitOperator(0, -1j, 0, 0))

    def test_against_series_exponential_oracle(self):
        for _ in range(20):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = RNG.uniform(-6, 6)
            gen = -0.5j * angle * (axis[0] * SX + axis[1] * SY + axis[2] * SZ)
            expected = expm_series(gen)
            assert np.max(np.abs(pauli_rotation(axis, angle).matrix()
                                 - expected)) < 1e-12

    def test_same_axis_composes_additively(self):
        axis = np.array([1.0, 2.0, -1.0])
        axis /= np.linalg.norm(axis)
        a, b = 0.7, -2.3
        prod = pauli_rotation(axis, a) @ pauli_rotation(axis, b)
        assert prod.isclose(pauli_rotation(axis, a + b), tol=1e-12)

    def test_rejects_nonunit_axis(self):
        with pytest.raises(ValueError):
            pauli_rotation((1, 1, 0), 0.5)


class TestConjugate:

    def test_identity_conjugation(self):
        assert conjugate(SIGMA_X, IDENTITY).isclose(SIGMA_X)

    def test_heisenberg_rotation_of_sigma_x(self):
        # backward z-propagation over tau turns sx into sx cos + sy sin
        tau = 0.83
        u = pauli_rotation((0, 0, 1), -tau)
        got = conjugate(SIGMA_X, u)
        expected = math.cos(tau) * SIGMA_X + math.sin(tau) * SIGMA_Y
        assert got.isclose(expected, tol=1e-14)

    def test_quarter_turn_sign_fixed_by_matrix_oracle(self):
        u = pauli_rotation((1, 0, 0), math.pi / 2)
        got = conjugate(SIGMA_Z, u).matrix()
        um = u.matrix()
        expected = um.conj().T @ SZ @ um
        assert np.max(np.abs(got - expected)) < 1e-14
        # sigma_z maps onto +/- sigma_y; the oracle fixes the sign
        assert np.max(np.abs(got - SY)) < 1e-14 or \
            np.max(np.abs(got + SY)) < 1e-14

    def test_preserves_spectrum(self):
        for _ in range(20):
            m = random_matrix()
            m = m + m.conj().T
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            u = pauli_rotation(axis, RNG.uniform(-5, 5))
            before = np.sort(np.linalg.eigvalsh(m))
            after = np.sort(np.linalg.eigvalsh(
                conjugate(QubitOperator.from_matrix(m), u).matrix()))
            assert np.max(np.abs(before - after)) < 1e-12

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            conjugate(SIGMA_X, 2.0 * IDENTITY)
