"""The public surface: every name in drivenqubit.__all__ resolves, and
the import chain stays numpy-only until a driven evolve."""

import os
import subprocess
import sys

import drivenqubit


def test_every_public_name_resolves():
    assert len(set(drivenqubit.__all__)) == len(drivenqubit.__all__)
    assert [name for name in drivenqubit.__all__
            if not hasattr(drivenqubit, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from drivenqubit import *", namespace)
    assert set(drivenqubit.__all__) <= set(namespace)


# Runs in a fresh interpreter, as the test process has scipy loaded
_IMPORT_CHAIN = """
import sys
from drivenqubit import cli, dynamics

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
for argv in (["rates", "--drive", "dd", "--amp-ratio", "2.4"],
             ["scan", "--sweep", "omega", "--min", "10", "--max", "1e4",
              "--points", "5", "--drive", "dd", "--amp-ratio", "2.4"],
             ["fig1"],
             ["evolve", "--t-max", "5"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
    assert scipy_modules() == [], (argv, scipy_modules())
assert cli.main(["evolve", "--drive", "dd", "--amp-ratio", "2.4",
                 "--t-max", "1", "--out", out]) == 0
assert "scipy.integrate" in scipy_modules()
import scipy.integrate
assert dynamics.solve_ivp is scipy.integrate.solve_ivp
"""


def test_only_a_driven_evolve_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(drivenqubit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHAIN, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
