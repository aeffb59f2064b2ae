"""Command-line front end: rate reports, parameter sweeps, trajectories.

Subcommands
    rates   print the scalar rate bundle at a single parameter point
    scan    sweep one parameter and write a CSV per temperature
    evolve  integrate a Bloch trajectory and dump it as CSV
    fig1    eta(Omega) curves for the canonical dynamical-decoupling
            parameter set (alpha = 0.01, omega_c = 500, x = 2.4)

Configuration may come from a flat "key = value" file (--config); any
flag given on the command line wins over the file, and the file wins over
the defaults (fig1 has its own defaults for temperature and amp_ratio).
scan and fig1 evaluate their whole parameter grid as arrays, one harmonic
sum per output file; each RegimeWarning is raised once per grid with the
number of points that tripped it.  The DD harmonic sum picks its own
length from the grid (dropped tail below 1e-16 * S(Delta)), records it as
'# harmonics = N' in the header of DD scan and fig1 files, and fails with
exit status 2 where x = 2A/Omega is too large for it to converge.  A
driven evolve records the Magnus steps per drive period and the estimated
error of its one-period propagator as '# substeps = N' and
'# period_error = e' in its header.  With
several temperatures scan writes one file per temperature, the stem of
--out suffixed with _T<temperature>; --out - (or no --out) writes every
table to stdout.  All CSV output is deterministic: '#'-prefixed comments
carry the resolved configuration, floats are written with 9 significant
digits, Unix line endings.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bath import BathSpec
from .driving import CDT, DD, NONE, Drive, _harmonic_count
from .dynamics import IntegrationDivergedError, evolve
from .rates import build_report, stabilization_eta

FLOAT_FMT = "%.8e"  # 9 significant digits
# rows per '%' in _write_csv; the whole array in one string would hold
# every formatted row in memory at once
_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _read_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


_CONFIG_PARSERS = {
    "alpha": float,
    "omega_c": float,
    "temperature": lambda v: [float(x) for x in v.split(",")],
    "drive": str,
    "amp_ratio": float,
    "omega": float,
    "tol": float,
    "out": str,
    "s0": str,
    "t_max": float,
    "dt_out": float,
    "sweep": str,
    "min": float,
    "max": float,
    "points": int,
    "spacing": str,
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--alpha", type=float, default=None,
                        help="dissipation strength (default 0.01)")
    parser.add_argument("--omega-c", type=float, default=None,
                        help="bath cutoff in units of Delta (default 500)")
    parser.add_argument("--temperature", type=float, action="append",
                        default=None,
                        help="temperature in hbar*Delta/k_B; repeatable")
    parser.add_argument("--drive", choices=[NONE, CDT, DD], default=None,
                        help="drive kind (default none)")
    parser.add_argument("--amp-ratio", type=float, default=None,
                        help="dimensionless drive strength x = 2A/Omega")
    parser.add_argument("--omega", type=float, default=None,
                        help="driving frequency in units of Delta")
    parser.add_argument("--tol", type=float, default=None,
                        help="error bound of a trajectory (default 1e-9)")
    parser.add_argument("--out", default=None, help="output CSV path")


_DEFAULTS = {
    "alpha": 0.01, "omega_c": 500.0, "temperature": [1.0], "drive": NONE,
    "amp_ratio": 0.0, "omega": 100.0, "tol": 1e-9,
    "out": None, "s0": "1,0,0", "t_max": 100.0, "dt_out": 0.1,
    "sweep": None, "min": None, "max": None, "points": None,
    "spacing": "linear",
}

FIG1_TEMPERATURES = [0.1, 1.0, 10.0]
FIG1_OMEGA_RANGE = (10.0, 1.0e4)
FIG1_POINTS = 200

# defaults of one subcommand that differ from _DEFAULTS
_COMMAND_DEFAULTS = {
    "fig1": {"temperature": FIG1_TEMPERATURES, "amp_ratio": 2.4},
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < subcommand defaults < config file < explicit flags."""
    cfg = {**_DEFAULTS, **_COMMAND_DEFAULTS.get(args.command, {})}
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _CONFIG_PARSERS[key](raw)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _one_temperature(cfg: dict, command: str) -> float:
    temperatures = cfg["temperature"]
    if len(temperatures) != 1:
        raise ValueError(f"{command} takes one temperature, got "
                         f"{len(temperatures)}")
    return temperatures[0]


def _drive_from(cfg: dict) -> Drive:
    if cfg["drive"] == NONE:
        return Drive.none()
    return Drive.from_ratio(cfg["drive"], cfg["amp_ratio"], cfg["omega"])


def _config_comments(cfg: dict, extra: dict | None = None) -> list[str]:
    items = dict(cfg)
    if extra:
        items.update(extra)
    lines = [f"# drivenqubit {__version__}"]
    for key in sorted(items):
        val = items[key]
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"# {key} = {val}")
    return lines


def _write_csv(path, comments: list[str], header: list[str],
               rows) -> None:
    """Comments, header and rows; the same bytes as np.savetxt's rows.

    One '%' over a block of repeated row templates formats _CHUNK_ROWS
    rows at a time instead of one row per Python call.
    """
    rows = np.asarray(rows, dtype=float)
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="\n")
    try:
        for line in comments:
            out.write(line + "\n")
        out.write(",".join(header) + "\n")
        if rows.size:
            template = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), _CHUNK_ROWS):
                block = rows[start:start + _CHUNK_ROWS]
                out.write((template * len(block))
                          % tuple(block.ravel().tolist()))
    finally:
        if out is not sys.stdout:
            out.close()


def _harmonics_comment(drive: Drive, bath: BathSpec) -> str:
    """The number of harmonics the DD sum takes over this grid."""
    return f"# harmonics = {_harmonic_count(drive.amp_ratio, bath)}"


# --------------------------------------------------------------------------
# subcommands


def cmd_rates(args) -> int:
    cfg = _resolve(args)
    temperature = _one_temperature(cfg, "rates")
    bath = BathSpec(cfg["alpha"], cfg["omega_c"], temperature)
    drive = _drive_from(cfg)
    report = build_report(bath, drive)

    print(f"drive        : {report.drive_kind}")
    print(f"Delta_eff    : {_fmt(report.delta_eff)}  [Delta]")
    print(f"Gamma_eff    : {_fmt(report.gamma_relax)}  [Delta]")
    print(f"gamma (tr M) : {_fmt(report.gamma_trace)}  [Delta]")
    print(f"Gamma_av     : {_fmt(report.gamma_avg)}  [Delta]")
    if report.eta is not None:
        print(f"eta          : {_fmt(report.eta)}")
    if report.eta_cdt is not None:
        print(f"eta_cdt      : {_fmt(report.eta_cdt)}")

    if cfg["out"]:
        header = ["temperature", "delta_eff", "gamma_eff", "gamma",
                  "gamma_avg"]
        row = [temperature, report.delta_eff, report.gamma_relax,
               report.gamma_trace, report.gamma_avg]
        if report.eta is not None:
            header.append("eta")
            row.append(report.eta)
        if report.eta_cdt is not None:
            header.append("eta_cdt")
            row.append(report.eta_cdt)
        _write_csv(cfg["out"], _config_comments(cfg), header, [row])
    return 0


def _sweep_values(cfg: dict) -> np.ndarray:
    for key in ("sweep", "min", "max", "points"):
        if cfg[key] is None:
            raise ValueError(f"scan requires --{key.replace('_', '-')}")
    if cfg["points"] < 2:
        raise ValueError("sweeps need at least 2 points")
    if cfg["spacing"] == "log":
        if cfg["min"] <= 0.0:
            raise ValueError("log spacing requires min > 0")
        return np.geomspace(cfg["min"], cfg["max"], cfg["points"])
    return np.linspace(cfg["min"], cfg["max"], cfg["points"])


def cmd_scan(args) -> int:
    cfg = _resolve(args)
    values = _sweep_values(cfg)
    param = cfg["sweep"].replace("-", "_")
    if param not in ("omega", "amp_ratio", "temperature", "alpha"):
        raise ValueError(f"cannot sweep parameter {param!r}")

    header = [param, "delta_eff", "gamma_eff", "gamma"]
    if cfg["drive"] == DD:
        header.append("eta")
    elif cfg["drive"] == CDT:
        header.append("eta_cdt")
    eta_note = ("# reference: eta = 0.25 (improvement on average), "
                "eta = 1 (improvement for any initial state)")

    temperatures = [None] if param == "temperature" else cfg["temperature"]
    for temperature in temperatures:
        # the swept parameter becomes an array of points; the bath and
        # drive checks then run once over the whole grid
        grid = dict(cfg, temperature=temperature)
        grid[param] = values
        bath = BathSpec(grid["alpha"], grid["omega_c"], grid["temperature"])
        drive = _drive_from(grid)
        report = build_report(bath, drive)
        columns = [values, report.delta_eff, report.gamma_relax,
                   report.gamma_trace]
        columns += [eta for eta in (report.eta, report.eta_cdt)
                    if eta is not None]
        rows = np.column_stack(np.broadcast_arrays(*columns))

        path = cfg["out"]
        if (temperature is not None and len(temperatures) > 1
                and path not in (None, "-")):
            # split the extension of the file name only, not of a directory
            root, ext = os.path.splitext(path)
            path = f"{root}_T{temperature:g}{ext}"
        extra = None if temperature is None else {"temperature": [temperature]}
        comments = _config_comments(cfg, extra)
        if cfg["drive"] == DD:
            comments += [_harmonics_comment(drive, bath), eta_note]
        _write_csv(path, comments, header, rows)
    return 0


def cmd_evolve(args) -> int:
    cfg = _resolve(args)
    s0 = np.array([float(v) for v in str(cfg["s0"]).split(",")])
    if s0.shape != (3,):
        raise ValueError("--s0 expects three comma-separated components")
    bath = BathSpec(cfg["alpha"], cfg["omega_c"],
                    _one_temperature(cfg, "evolve"))
    drive = _drive_from(cfg)
    header = ["t", "s_x", "s_y", "s_z", "S", "Sdot"]
    try:
        traj = evolve(bath, drive, s0, cfg["t_max"], cfg["dt_out"],
                      tol=cfg["tol"])
    except IntegrationDivergedError as exc:
        comments = _config_comments(cfg) + [f"# DIVERGED: {exc}"]
        _write_csv(cfg["out"], comments, header, [])
        print(f"integration diverged: {exc}", file=sys.stderr)
        return 1
    comments = _config_comments(cfg)
    if traj.substeps is not None:
        comments += [f"# substeps = {traj.substeps}",
                     f"# period_error = {traj.period_error:.3e}"]
    rows = np.column_stack([traj.t, traj.s, traj.entropy, traj.entropy_rate])
    _write_csv(cfg["out"], comments, header, rows)
    return 0


def cmd_fig1(args) -> int:
    """eta(Omega) for the canonical DD parameter set.

    alpha = 0.01, omega_c = 500, x = 2.4, Omega log-spaced over
    [10, 1e4] with 200 points; one eta column per temperature.  The
    temperature set {0.1, 1, 10} is a documented default (overridable
    with --temperature or the config file), not a literature value.
    """
    cfg = _resolve(args)
    cfg["drive"] = DD

    omegas = np.geomspace(*FIG1_OMEGA_RANGE, FIG1_POINTS)
    temps = cfg["temperature"]
    # (omega, temperature) grid in one call: omegas down, temperatures across
    bath = BathSpec(cfg["alpha"], cfg["omega_c"], np.array(temps))
    drive = Drive.from_ratio(DD, cfg["amp_ratio"], omegas[:, None])
    rows = np.column_stack(
        [omegas, stabilization_eta(bath, drive)])

    header = ["omega"] + [f"eta_T{t:g}" for t in temps]
    comments = _config_comments(cfg)
    comments.append(_harmonics_comment(drive, bath))
    comments.append("# reference: eta = 0.25 (improvement on average), "
                    "eta = 1 (improvement for any initial state)")
    _write_csv(cfg["out"], comments, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Driven-qubit decoherence rates, Bloch dynamics and "
                    "coherence-stabilization sweeps (units: Delta = 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="rate bundle at one parameter point")
    _add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("scan", help="sweep one parameter, write CSV")
    _add_common(p)
    p.add_argument("--sweep", default=None,
                   choices=["omega", "amp_ratio", "temperature", "alpha"],
                   help="parameter to sweep")
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--spacing", choices=["linear", "log"], default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("evolve", help="integrate a Bloch trajectory")
    _add_common(p)
    p.add_argument("--s0", default=None,
                   help="initial Bloch vector 'x,y,z' (default 1,0,0)")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--dt-out", type=float, default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("fig1", help="eta(Omega) stabilization curves")
    _add_common(p)
    p.set_defaults(func=cmd_fig1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
