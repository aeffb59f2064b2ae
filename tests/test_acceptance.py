"""End-to-end acceptance checks.

Each test prints a PASS line for its criterion when it succeeds (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
fixed here, not tuned: exact identities are checked exactly, limit checks
at their analytic error scale, Monte Carlo results at three standard
errors, CSV determinism byte-for-byte.
"""

import math

import numpy as np
import pytest

from drivenqubit import (BathSpec, Drive, average_entropy_production,
                         bessel_j, decay_eigenvalues, effective_rate, evolve,
                         numeric_q_oracle, power_spectrum, rate_static,
                         stabilization_eta, trace_bound)
from drivenqubit.cli import main

J0_FIRST_ZERO = 2.404825557695773


def ok(label):
    print(f"PASS {label}")


def test_criterion_01_undriven_rates():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        bath = BathSpec(rng.uniform(1e-4, 0.02), 500.0,
                        rng.uniform(0.05, 50.0))
        gamma_rel = rate_static(bath)
        coth = 1.0 / math.tanh(0.5 / bath.temperature)
        assert gamma_rel == pytest.approx(math.pi * bath.alpha * coth,
                                          rel=1e-14)
        assert gamma_rel == pytest.approx(0.5 * power_spectrum(bath, 1.0),
                                          rel=1e-14)
        gamma, gamma_avg = trace_bound(gamma_rel)
        assert gamma == 2.0 * gamma_rel
        assert gamma_avg == gamma / 3.0
    ok("criterion 1: undriven rate identities (20 random points)")


def test_criterion_02_decay_eigenvalues():
    bath = BathSpec(0.01, 500.0, 1.0)
    gamma = rate_static(bath)
    spec = decay_eigenvalues(bath)
    tol = gamma ** 2 / 2.0
    for exact, weak in zip(spec.exact, spec.weak_damping):
        assert abs(exact - weak) <= tol
    ok("criterion 2: eigenvalues match weak-damping form")


@pytest.mark.parametrize("temperature", [0.2, 1.0, 5.0])
def test_criterion_03_thermalization(temperature):
    bath = BathSpec(0.01, 500.0, temperature)
    gamma_rel = rate_static(bath)
    traj = evolve(bath, Drive(), (0, 0, 1), 20.0 / gamma_rel,
                  1.0 / gamma_rel, tol=1e-10)
    target = -math.tanh(0.5 / temperature)
    assert abs(traj.s[-1][2] - target) < 1e-6
    ok(f"criterion 3: thermalization at T={temperature}")


@pytest.mark.parametrize("drive", [
    Drive(), Drive("cdt", 1.2, 100.0), Drive("dd", 2.4, 1000.0),
], ids=["none", "cdt", "dd"])
def test_criterion_04_entropy_production_average(drive):
    bath = BathSpec(0.01, 500.0, 1.0)
    gamma_eff = effective_rate(bath, drive)
    mean, sem = average_entropy_production(bath, drive, n_samples=100_000,
                                           seed=5)
    assert abs(mean - 2.0 * gamma_eff / 3.0) <= 3.0 * sem
    ok(f"criterion 4: <dS/dt> = gamma_eff/3 for {drive.kind} drive")


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_criterion_05_cdt_low_temperature_limit(x):
    bath = BathSpec(0.01, 500.0, 0.01)
    drive = Drive("cdt", x, 1000.0)
    ratio = effective_rate(bath, drive) / rate_static(bath)
    assert abs(ratio - bessel_j(0, x)) <= 1e-3
    ok(f"criterion 5: low-T CDT suppression by J0({x})")


def test_criterion_06_cdt_high_temperature_limit():
    bath = BathSpec(0.01, 500.0, 1000.0)
    drive = Drive("cdt", 2.0, 1000.0)
    gamma_cdt = 2.0 * effective_rate(bath, drive)
    classical = 4.0 * math.pi * bath.alpha * bath.temperature
    assert abs(gamma_cdt - classical) / classical <= 1e-2
    ok("criterion 6: high-T CDT rate is drive-independent")


def test_criterion_07_cdt_freeze():
    drive = Drive("cdt", 2.404825, 100.0)
    bath = BathSpec(0.0, 500.0, 1.0)
    traj = evolve(bath, drive, (1, 0, 0), 50.0 * drive.period,
                  drive.period / 8.0, tol=1e-10)
    assert np.min(traj.s[:, 0]) >= 0.999
    ok("criterion 7: CDT freezes a sigma_x eigenstate for 50 periods")


@pytest.mark.parametrize("temperature", [0.0, 10.0])
@pytest.mark.parametrize("x", [0.0, 1.2, 2.4])
def test_criterion_08_q_oracle_equivalence(x, temperature):
    bath = BathSpec(0.01, 500.0, temperature)
    for kind in ("cdt", "dd"):
        drive = Drive(kind, x, 1000.0)
        # the oracle itself refuses weights on 1, sigma_y or sigma_z
        # above 1e-10 * max(|cx|, 1)
        got = numeric_q_oracle(drive, bath)
        assert got == pytest.approx(effective_rate(bath, drive), rel=1e-6)
    ok(f"criterion 8: Q oracle equivalence at x={x}, T={temperature}")


def test_criterion_09_dd_threshold_identities():
    temperatures = [0.1, 1.0, 10.0]
    for temperature in temperatures:
        bath = BathSpec(0.01, 500.0, temperature)
        assert stabilization_eta(bath, Drive("dd", 0.0, 100.0)) == \
            pytest.approx(0.25, rel=1e-14)
        low = stabilization_eta(bath, Drive("dd", 2.4, 10.0))
        high = stabilization_eta(bath, Drive("dd", 2.4, 1.0e4))
        assert low < 0.25
        assert high > 1.0
    eta_cold = stabilization_eta(BathSpec(0.01, 500.0, 0.1),
                                 Drive("dd", 2.4, 1.0e4))
    eta_hot = stabilization_eta(BathSpec(0.01, 500.0, 10.0),
                                Drive("dd", 2.4, 1.0e4))
    assert eta_hot > eta_cold
    ok("criterion 9: DD thresholds (eta = 1/4 at A=0; figure qualitative)")


def test_criterion_10_jacobi_anger():
    x, n_terms = 2.4, 40
    theta = np.linspace(0.0, 2.0 * np.pi, 100)
    partial = sum(
        (bessel_j(k, x) if k >= 0 else (-1) ** (-k) * bessel_j(-k, x))
        * np.exp(1j * k * theta)
        for k in range(-n_terms, n_terms + 1))
    assert np.max(np.abs(partial - np.exp(1j * x * np.sin(theta)))) < 1e-10
    ok("criterion 10: Jacobi-Anger partial sum (N=40, x=2.4)")


def test_criterion_11_csv_determinism(tmp_path):
    out = tmp_path / "fig1.csv"
    flags = ["fig1", "--out", str(out)]
    assert main(list(flags)) == 0
    first = out.read_bytes()
    assert main(list(flags)) == 0
    assert out.read_bytes() == first
    ok("criterion 11: fig1 CSV byte-identical across reruns")
