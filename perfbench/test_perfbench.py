"""Smoke tests for the benchmark: one pass per workload with every check.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import reference as ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("x", [0.0, 0.7, 2.4, 3.831705970207512, 49.5])
def test_bessel_squares_match_besselj(x):
    squares = ref.BesselSquares(x)
    for n in range(0, 120, 3):
        assert abs(squares[n] - mp.besselj(n, x) ** 2) < mp.mpf("1e-28")


def test_rate_dd_at_zero_drive_is_static_rate():
    assert ref.rate_dd(0.01, 500.0, 1.0, 0.0, 100.0) == ref.rate_static(0.01,
                                                                         1.0)


def test_seed_fixes_the_operations():
    for name in workloads.WORKLOADS:
        first = [op.argv for op in workloads.build(name, 7)]
        assert first == [op.argv for op in workloads.build(name, 7)]
        assert first != [op.argv for op in workloads.build(name, 8)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_pass_passes_every_check(workload, tmp_path):
    cli = run.import_program()
    ops = workloads.build(workload, 0)
    _, _, broke, digests = run.run_pass(cli, ops, tmp_path)
    failed, correct = run.check_outputs(ops, tmp_path, [digests], [broke])
    assert correct
    assert failed == sum(op.expect_fail for op in ops)


def test_untraced_passes_are_spread_over_fresh_workers(tmp_path):
    totals = run.run_workers("sweep", 3, 0.0, tmp_path)
    assert len(totals["setup_s"]) == len(totals["pass_s"]) == run.WORKERS
    assert all(0 < t < 60 for t in totals["setup_s"])
    assert all(40 < mb < 1000 for mb in totals["peak_rss_mb"])
    assert len(totals["op_s"]) == run.WORKERS * 21
    # every worker wrote the same bytes for every operation
    assert all(d == totals["digests"][0] for d in totals["digests"])
    assert not (tmp_path / "worker.json").exists()


def test_early_exit_operation_fails_its_check(tmp_path):
    cli = run.import_program()
    (op,) = [op for op in workloads.build("sweep", 0) if op.expect_fail]
    out = tmp_path / "j1.csv"
    assert cli.main(op.argv + ["--out", str(out)]) == 0
    with pytest.raises(ref.CheckFailed):
        op.check(out)


def test_traced_pass_counts_layers_and_restores_names(tmp_path):
    cli = run.import_program()
    from drivenqubit import dynamics, rates
    before = (cli.evolve, rates.dd_harmonic_sum, dynamics.solve_ivp)
    tracer = tracing.Tracer()
    tracer.calibrate()
    ops = workloads.build("trajectory", 0)[:1]
    with tracer.installed():
        run.run_pass(cli, ops, tmp_path, tracer)
    assert (cli.evolve, rates.dd_harmonic_sum, dynamics.solve_ivp) == before
    layers = tracer.layer_metrics()
    assert layers["dynamics.rhs_evals"] > 1000
    assert layers["driving.harmonic_sum_calls"] == 1
    assert layers["rates.calls"] == 1
    assert layers["dynamics.solver_ms"] > layers["dynamics.self_ms"]
    assert all(cost > 0 for cost in tracer.cost_ns.values())
    assert 0 < layers["driving.self_ms"] < tracer.self_ns["driving"] / 1e6


def test_operations_do_not_load_the_reference():
    probe = ("import sys; sys.path[:0] = ['perfbench']; import run, workloads;"
             " run.import_program(); workloads.build('sweep', 0);"
             " assert 'mpmath' not in sys.modules")
    subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                   timeout=120)


def test_command_prints_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["attempted"] == 2 * 21
    assert result["failed"] == 2


def test_command_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
