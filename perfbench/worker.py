"""One measuring process of an untraced run; ``run.py`` starts several.

    python3 perfbench/worker.py <workload> <seed> <seconds> <work dir> <result file>

Its first act is to import drivenqubit and write one line to standard
output, so that the parent times what every CLI call pays: a fresh
interpreter importing the program (``setup_s``).  It then runs whole
passes over the workload's operations until they took <seconds> (at
least one pass) and writes their times, failed-to-run flags, output
digests and its peak memory to <result file> as JSON.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import drivenqubit  # noqa: E402,F401  (the import the parent times)

sys.stdout.write("imported\n")
sys.stdout.flush()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    ``ru_maxrss`` would not do: Linux carries the parent's high-water
    mark over into a child across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    workload, seed, seconds, work, result_file = argv
    cli = run.import_program()
    ops = workloads.build(workload, int(seed))
    result = {"pass_s": [], "op_s": [], "broke": [], "digests": []}
    spent = 0.0
    while not result["pass_s"] or spent < float(seconds):
        pass_s, op_s, broke, digests = run.run_pass(cli, ops, Path(work))
        spent += pass_s
        result["pass_s"].append(pass_s)
        result["op_s"].extend(op_s)
        result["broke"].append(broke)
        result["digests"].append(digests)
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
