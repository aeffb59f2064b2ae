"""Each script in demos/ runs to the end and prints its tables."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# (pattern of a table row, number of rows) for every table a demo prints
TABLES = {
    "demo_cdt_freeze.py": [(r"Delta_eff/Delta = [+-]\d", 5),
                           (r"min s_x = [+-]\d", 2),
                           (r"Gamma_CDT/Gamma = \d", 3)],
    "demo_dd_stabilization.py": [(r"^ +\d+\.\d( +\S+){3}", 16)],
    "demo_thermalization.py": [(r"s_z\(final\) = [+-]\d", 3),
                               (r"t\*Gamma = +\d+\.\d +S = \d", 11),
                               (r"steady state check", 1)],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_demo_prints_its_tables(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for pattern, rows in TABLES[name]:
        assert len(re.findall(pattern, out, re.MULTILINE)) == rows, pattern
