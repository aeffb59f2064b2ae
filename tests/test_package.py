"""The public surface: every name in drivenqubit.__all__ resolves, the
README's library tour runs, and no command loads scipy."""

import os
import re
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


def test_readme_library_tour_runs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme,
                     re.DOTALL | re.MULTILINE)
    assert tour is not None
    exec(tour.group(1), {})


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
             ["evolve", "--t-max", "5"],
             ["evolve", "--drive", "dd", "--amp-ratio", "2.4", "--t-max", "1"],
             ["evolve", "--drive", "cdt", "--amp-ratio", "2.4", "--s0=0,0,0",
              "--t-max", "1"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
    assert scipy_modules() == [], (argv, scipy_modules())
# solve_ivp stays a module attribute, imported on first access
solve_ivp = dynamics.solve_ivp
assert "scipy.integrate" in scipy_modules()
import scipy.integrate
assert solve_ivp is scipy.integrate.solve_ivp
"""


def test_no_command_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(drivenqubit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHAIN, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
