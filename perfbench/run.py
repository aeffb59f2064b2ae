"""Benchmark for drivenqubit: one client calling ``drivenqubit.cli.main``.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Closed loop, one client, one thread, BLAS pinned to one thread.  A run
repeats whole passes over the workload's seeded operation list, back to
back, until the passes have taken ``--seconds``.  An untraced run spreads
its passes over WORKERS fresh processes (``worker.py``) started one after
another; a traced run makes them in this process.  Every operation's CSV
is checked against ``reference`` after the timed passes.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``.  Details of the run go to
``.perfbench/results/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# fresh processes an untraced run spreads its passes over, one after
# another: a process keeps its speed for its whole life, so fresh
# processes differ by more than the passes of one process do
WORKERS = 5
WORKER_TIMEOUT_S = 150


def import_program():
    """Import drivenqubit from this checkout's src/, and nowhere else."""
    if not (SRC / "drivenqubit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no drivenqubit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drivenqubit
    from drivenqubit import cli
    if Path(drivenqubit.__file__).resolve().parent != SRC / "drivenqubit":
        sys.exit(f"perfbench: imported drivenqubit from {drivenqubit.__file__}")
    return cli


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_pass(cli, ops, work: Path, tracer=None):
    """Issue every operation once, back to back.

    Returns (pass seconds, per-op seconds, per-op failed-to-run flags,
    per-op output digests); digests are taken after the pass's clock stops.
    """
    main = cli.main if tracer is None else tracer.span("cli", "main", cli.main)
    # Each operation writes a new file: ext4 writes a file out to disk
    # when it is truncated and written again (18 MB per dense_output
    # pass), so overwriting would time the shared host's disk.
    for i in range(len(ops)):
        (work / f"op{i:02d}.csv").unlink(missing_ok=True)
    op_times, broke = [], []
    pass_start = time.perf_counter()
    for i, op in enumerate(ops):
        argv = op.argv + ["--out", str(work / f"op{i:02d}.csv")]
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            print(f"perfbench: {op.label}: raised {exc!r}", file=sys.stderr)
            code = -1
        op_times.append(time.perf_counter() - start)
        broke.append(code != 0)
    pass_time = time.perf_counter() - pass_start
    digests = [_digest(work / f"op{i:02d}.csv") for i in range(len(ops))]
    return pass_time, op_times, broke, digests


def check_outputs(ops, work: Path, digests_by_pass, broke_by_pass):
    """Check the last pass's files; earlier passes must match them byte
    for byte.  Returns the failed count and whether only expected
    failures occurred."""
    last = digests_by_pass[-1]
    good = []
    for i, op in enumerate(ops):
        try:
            op.check(work / f"op{i:02d}.csv")
            good.append(True)
        except Exception as exc:  # any error while checking fails the op
            if not op.expect_fail:
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
            good.append(False)
    failed, unexpected = 0, 0
    for digests, broke in zip(digests_by_pass, broke_by_pass):
        for i, op in enumerate(ops):
            ok = good[i] and not broke[i] and digests[i] == last[i]
            if not ok:
                failed += 1
                unexpected += not op.expect_fail
    return failed, unexpected == 0


def run_workers(workload: str, seed: int, seconds: float, work: Path):
    """Untraced passes, spread over WORKERS fresh processes started one
    after another; worker k stops once all passes so far took
    (k + 1) / WORKERS of ``seconds``.  Each worker's import of
    drivenqubit is timed from its start, for ``setup_s``."""
    totals = {"setup_s": [], "pass_s": [], "op_s": [], "broke": [],
              "digests": [], "peak_rss_mb": []}
    result_file = work / "worker.json"
    spent = 0.0
    for k in range(WORKERS):
        share = seconds * (k + 1) / WORKERS - spent
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
                workload, str(seed), repr(share), str(work), str(result_file)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            imported = time.perf_counter() - start
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first != "imported\n" or proc.returncode != 0:
            sys.exit(f"perfbench: worker {k} failed (exit {proc.returncode})")
        result = json.loads(result_file.read_text())
        totals["setup_s"].append(imported)
        totals["peak_rss_mb"].append(result["peak_rss_mb"])
        for key in ("pass_s", "op_s", "broke", "digests"):
            totals[key].extend(result[key])
        spent += sum(result["pass_s"])
    result_file.unlink()
    return totals


def run_traced(cli, ops, seconds: float, work: Path):
    """Traced passes in this process, each after an untraced one, so that
    the tracing overhead is measured under the same conditions."""
    import tracing
    tracer = tracing.Tracer()
    tracer.calibrate()
    totals = {"pass_s": [], "traced_pass_s": [], "layers": [], "broke": [],
              "digests": [], "wrapper_cost_ns": tracer.cost_ns}
    spent = 0.0
    while not totals["traced_pass_s"] or spent < seconds:
        result = run_pass(cli, ops, work)
        totals["pass_s"].append(result[0])
        tracer.reset()
        with tracer.installed():
            traced = run_pass(cli, ops, work, tracer)
        totals["traced_pass_s"].append(traced[0])
        totals["layers"].append(tracer.layer_metrics())
        for r in (result, traced):
            spent += r[0]
            totals["broke"].append(r[2])
            totals["digests"].append(r[3])
    return totals


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (the result line, details for the results file)."""
    cli = import_program()
    import workloads
    ops = workloads.build(workload, seed)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            totals = run_traced(cli, ops, seconds, work)
        else:
            totals = run_workers(workload, seed, seconds, work)
        failed, correct = check_outputs(ops, work, totals["digests"],
                                        totals["broke"])
    finally:
        shutil.rmtree(work)
    if trace:
        import tracing
        layers = totals["layers"]
        metrics = {name: {"value": statistics.median(l[name] for l in layers),
                          "unit": tracing.UNITS[name]}
                   for name in layers[0]}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(totals["traced_pass_s"])
                      - statistics.median(totals["pass_s"])),
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(totals["setup_s"]),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(totals["pass_s"]),
                       "unit": "s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(totals["op_s"]),
                          "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(totals["peak_rss_mb"]),
                            "unit": "MB"},
        }
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "operations": [op.label for op in ops],
              **{k: v for k, v in totals.items()
                 if k not in ("broke", "digests", "op_s")}}
    return {"correct": correct, "attempted": len(ops) * len(totals["broke"]),
            "failed": failed, "metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "trajectory", "dense_output"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until they took this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**detail, **result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
