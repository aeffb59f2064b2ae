"""Command-line front end: rate reports, parameter sweeps, trajectories.

Subcommands, and the options each takes besides --config
    rates   print the scalar rate bundle at a single parameter point:
            --alpha --omega-c --temperature --drive --amp-ratio --omega
            --out
    scan    sweep one parameter and write a CSV per temperature: the
            rates options and --sweep --min --max --points --spacing
    evolve  integrate a Bloch trajectory and dump it as CSV: the rates
            options and --tol --s0 --t-max --dt-out
    fig1    eta(Omega) curves for the canonical dynamical-decoupling
            parameter set: --alpha --omega-c --temperature --amp-ratio
            --out, with temperatures 0.1, 1, 10 and x = 2.4 by default

--config names a flat "key = value" file of the same options; a flag wins
over the file, and the file over the defaults.  A file value goes through
the flag's parser, choices included; in a drive, sweep or spacing value,
as in a key, dashes read as underscores.  An option the command does not
take exits with status 2, from a flag or a file.  The '#' header of a CSV
records each set option of its command but, in a scan, the swept one.
A driven rates report and a driven scan carry the stabilization factor
eta, labelled 'eta' for DD and 'eta_cdt' for CDT; driven scan files and
fig1 note its reference values 0.25 and 1 in the header.
scan and fig1 evaluate their whole parameter grid as arrays, one harmonic
sum per output file; each RegimeWarning is raised once per grid with the
number of points that tripped it; main prints a RegimeWarning as one
'warning: <message>' line on stderr.  The DD harmonic sum picks its own
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
import functools
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bath import BathSpec, RegimeWarning
from .driving import _KINDS, CDT, DD, NONE, Drive, _harmonic_count
from .dynamics import IntegrationDivergedError, evolve
from .rates import build_report, stabilization_eta

FLOAT_FMT = "%.8e"  # 9 significant digits
# rows _write_csv formats at a time: the (fields, 17) byte buffer and the
# float and int64 temporaries of 1024 rows of 6 columns take about 1 MB;
# 4096-row blocks raised the peak RSS of a 70,001-row evolve by 2 MB
_CHUNK_ROWS = 1024

# Tables of _format_fields.  _POW10[k + _POW10_BIAS] is 10**k correctly
# rounded: float() of the decimal literal, where a libm pow need not be.
# _scaled splits 10**(8 - e) into two such factors, whose exponents stay
# within +-170 for every e = -325 .. 309 that log10 can give.
_POW10_BIAS = 170
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_BIAS,
                                                   _POW10_BIAS + 1)])
_EXP_BIAS = 324  # 5e-324 is 4.94065646e-324
# 10**k is exact in a double up to k = 22 (5**22 < 2**53)
_EXACT_POW10 = 22


def _ascii_words():
    """4-byte words, each read and written as one uint32: the ASCII digits
    of 0000 .. 9999, and the exponent field of e = -_EXP_BIAS .. 308 (sign,
    two digits and a zero pad byte for |e| < 100, sign and three digits
    from 100 on)."""
    digits = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
              + ord("0")).astype(np.uint8)
    exp = np.arange(-_EXP_BIAS, 309)
    mag = np.abs(exp)
    words = np.zeros((exp.size, 4), np.uint8)
    words[:, 0] = np.where(exp < 0, ord("-"), ord("+"))
    words[:, 1:] = digits[mag, 1:]
    short = mag < 100
    words[short, 1:3] = words[short, 2:]
    words[short, 3] = 0
    return digits.view(np.uint32).ravel(), words.view(np.uint32).ravel()


_DIGITS4, _EXP4 = _ascii_words()


# the name of the eta column in a CSV, and of its line in the rates report
_ETA_COLUMNS = {DD: "eta", CDT: "eta_cdt"}

# eta's reference values, noted in the header of driven scan files and fig1
_ETA_NOTE = ("# reference: eta = 0.25 (improvement on average), "
             "eta = 1 (improvement for any initial state)")

FIG1_TEMPERATURES = [0.1, 1.0, 10.0]
FIG1_OMEGA_RANGE = (10.0, 1.0e4)
FIG1_POINTS = 200


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _one_temperature(cfg: dict, command: str) -> float:
    temperatures = cfg["temperature"]
    if len(temperatures) != 1:
        raise ValueError(f"{command} takes one temperature, got "
                         f"{len(temperatures)}")
    return temperatures[0]


def _text(value) -> str:
    """A value as header and help write it: list or tuple comma-separated."""
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _config_comments(cfg: dict) -> list[str]:
    lines = [f"# drivenqubit {__version__}"]
    for key in sorted(cfg):
        if cfg[key] is not None:
            lines.append(f"# {key} = {_text(cfg[key])}")
    return lines


def _scaled(mag: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """mag * 10**(8 - exp), as two table factors: no overflow or underflow
    from 5e-324 up to 1.8e308."""
    k = 8 - exp
    half = k >> 1
    return (mag * _POW10[half + _POW10_BIAS]) * _POW10[k - half + _POW10_BIAS]


def _split(a: np.ndarray):
    """Veltkamp's split of a into a high and a low half of 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _round_exact(mag: np.ndarray, k: np.ndarray) -> np.ndarray:
    """rint(mag * 10**k), the exact product rounded half to even, for
    0 <= k <= _EXACT_POW10 and a product in the tie band of
    _format_fields: within 1.5e-6 of a half-integer R + 1/2 in [1e8, 1e9).

    10**k is exact there, and Dekker's TwoProduct (Numer. Math. 18, 224
    (1971); Veltkamp's split, no fused multiply-add needed) writes
    mag * 10**k = hi + lo exactly, hi the rounded product.  hi is within
    1.6e-6 of R + 1/2, so R = floor(hi); R + 1/2 is a double, and hi lies
    within a factor of two of it, so d = hi - (R + 1/2) is exact
    (Sterbenz).  The exact product is R + 1/2 + (d + lo): it rounds up
    where d > -lo, down where d < -lo and to the even one of R, R + 1
    where d == -lo, as '%' does.
    """
    scale = _POW10[k + _POW10_BIAS]
    hi = mag * scale
    m1, m2 = _split(mag)
    s1, s2 = _split(scale)
    lo = m2 * s2 - (((hi - m1 * s1) - m2 * s1) - m1 * s2)
    base = np.floor(hi)
    d = hi - (base + 0.5)
    up = (d > -lo) | ((d == -lo) & (base % 2 == 1))
    return base.astype(np.int64) + up


def _format_fields(rows: np.ndarray) -> str:
    """FLOAT_FMT of every field of a 2-D float array, ',' between the
    fields of a row and '\\n' after each: the bytes of '%' in numpy.

    A finite nonzero v is written from e = floor(log10 |v|) and the digits
    of r = rint(q), q = |v| * 10**(8 - e) in [1e8, 1e9).  Why r is the
    digits '%' prints: both table powers are correctly rounded and both
    products round once, so the computed q is the exact one times
    (1 + d1)(1 + d2)(1 + d3)(1 + d4), |di| <= 2**-53, a relative error
    below 4.5e-16 and an absolute one below 4.5e-7 for q < 1e9.  Where
    |frac(q) - 1/2| >= 1e-6 no half-integer lies between the computed
    and the exact q, so rint gives the correctly rounded r.  Inside that
    band (exact decimal ties such as the sample times k/256: 5-7% of the
    fields of an evolve table at dt = 1/256 or 1/128) the exact q is
    within 1.5e-6 of a half-integer, so no integer lies near it and e is
    right; where 10**(8 - e) is exact, 0 <= 8 - e <= 22, _round_exact
    rounds the exact product, and the remaining band fields (|v| >= 1e9
    or |v| < 1e-14) and the non-finite ones are formatted by one batched
    '%'.
    """
    values = rows.ravel()
    finite = np.isfinite(values)
    mag = np.abs(values)
    regular = finite & (mag > 0)
    # the placeholder 1.0 keeps log10 off 0 and inf
    mag = np.where(regular, mag, 1.0)
    exp = np.floor(np.log10(mag)).astype(np.int64)
    q = _scaled(mag, exp)
    # log10 rounds: near a power of ten e can be one off
    under, over = q < 1e8, q >= 1e9
    fix = under | over
    exp += over
    exp -= under
    q[fix] = _scaled(mag[fix], exp[fix])
    tie = np.abs(q - np.floor(q) - 0.5) < 1e-6
    exact = tie & (exp >= 8 - _EXACT_POW10) & (exp <= 8)
    fallback = ~finite | (tie & ~exact)

    r = np.rint(q).astype(np.int64)
    if exact.any():
        r[exact] = _round_exact(mag[exact], 8 - exp[exact])
    carry = r == 10**9
    r[carry] = 10**8
    exp += carry
    # zeros print as 0.00000000e+00 (and nan, inf get replaced below)
    r *= regular
    exp *= regular

    # fixed layout: sign or 0, digit, '.', 8 digits, 'e', exponent sign,
    # 2 exponent digits, third digit or 0, separator
    head, low = np.divmod(r, 10**4)
    lead, mid = np.divmod(head, 10**4)
    buf = np.empty((values.size, 17), np.uint8)
    buf[:, 0] = np.signbit(values) * ord("-")
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    buf[:, 3:7].view(np.uint32)[:, 0] = _DIGITS4[mid]
    buf[:, 7:11].view(np.uint32)[:, 0] = _DIGITS4[low]
    buf[:, 11] = ord("e")
    buf[:, 12:16].view(np.uint32)[:, 0] = _EXP4[exp + _EXP_BIAS]
    buf.reshape(rows.shape + (17,))[:, :, 16] = \
        [ord(",")] * (rows.shape[1] - 1) + [ord("\n")]
    (index,) = np.nonzero(fallback)
    if index.size:
        text = (",".join([FLOAT_FMT] * index.size)
                % tuple(values[index].tolist()))
        buf[index, :16] = np.array(text.split(","), "S16").view(
            np.uint8).reshape(-1, 16)
    return buf[buf != 0].tobytes().decode("ascii")


def _write_csv(path, comments: list[str], header: list[str],
               rows) -> None:
    """Comments, header and rows; the rows are the same bytes as
    np.savetxt(fmt=FLOAT_FMT, delimiter=',') writes.

    _format_fields formats _CHUNK_ROWS rows at a time in numpy; only
    rounding ties and non-finite fields go through '%'.
    """
    rows = np.asarray(rows, dtype=float)
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="\n")
    try:
        for line in comments:
            out.write(line + "\n")
        out.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CHUNK_ROWS):
            out.write(_format_fields(rows[start:start + _CHUNK_ROWS]))
    finally:
        if out is not sys.stdout:
            out.close()


def _harmonics_comment(drive: Drive, bath: BathSpec) -> str:
    """The number of harmonics the DD sum takes over this grid."""
    return f"# harmonics = {_harmonic_count(drive.amp_ratio, bath)}"


# --------------------------------------------------------------------------
# subcommands


def cmd_rates(cfg: dict) -> int:
    temperature = _one_temperature(cfg, "rates")
    bath = BathSpec(cfg["alpha"], cfg["omega_c"], temperature)
    drive = Drive(cfg["drive"], cfg["amp_ratio"], cfg["omega"])
    report = build_report(bath, drive)

    print(f"drive        : {report.drive_kind}")
    print(f"Delta_eff    : {_fmt(report.delta_eff)}  [Delta]")
    print(f"Gamma_eff    : {_fmt(report.gamma_relax)}  [Delta]")
    print(f"gamma (tr M) : {_fmt(report.gamma_trace)}  [Delta]")
    print(f"Gamma_av     : {_fmt(report.gamma_avg)}  [Delta]")
    if report.eta is not None:
        print(f"{_ETA_COLUMNS[drive.kind]:<13}: {_fmt(report.eta)}")

    if cfg["out"]:
        header = ["temperature", "delta_eff", "gamma_eff", "gamma",
                  "gamma_avg"]
        row = [temperature, report.delta_eff, report.gamma_relax,
               report.gamma_trace, report.gamma_avg]
        if report.eta is not None:
            header.append(_ETA_COLUMNS[drive.kind])
            row.append(report.eta)
        _write_csv(cfg["out"], _config_comments(cfg), header, [row])
    return 0


def _sweep_values(cfg: dict) -> np.ndarray:
    for key in ("sweep", "min", "max", "points"):
        if cfg[key] is None:
            raise ValueError(f"scan requires --{key}")
    if cfg["points"] < 2:
        raise ValueError("sweeps need at least 2 points")
    if cfg["spacing"] == "log":
        if cfg["min"] <= 0.0:
            raise ValueError("log spacing requires min > 0")
        return np.geomspace(cfg["min"], cfg["max"], cfg["points"])
    return np.linspace(cfg["min"], cfg["max"], cfg["points"])


def cmd_scan(cfg: dict) -> int:
    values = _sweep_values(cfg)
    param = cfg["sweep"]

    header = [param, "delta_eff", "gamma_eff", "gamma"]
    if cfg["drive"] in _ETA_COLUMNS:
        header.append(_ETA_COLUMNS[cfg["drive"]])

    temperatures = [None] if param == "temperature" else cfg["temperature"]
    for temperature in temperatures:
        # the swept parameter becomes an array of points; the bath and
        # drive checks then run once over the whole grid
        grid = dict(cfg, temperature=temperature)
        grid[param] = values
        bath = BathSpec(grid["alpha"], grid["omega_c"], grid["temperature"])
        drive = Drive(grid["drive"], grid["amp_ratio"], grid["omega"])
        report = build_report(bath, drive)
        columns = [values, report.delta_eff, report.gamma_relax,
                   report.gamma_trace]
        if report.eta is not None:
            columns.append(report.eta)
        rows = np.column_stack(np.broadcast_arrays(*columns))

        path = cfg["out"]
        if (temperature is not None and len(temperatures) > 1
                and path not in (None, "-")):
            # split the extension of the file name only, not of a directory
            root, ext = os.path.splitext(path)
            path = f"{root}_T{temperature:g}{ext}"
        # the sweep, min, max, points and spacing lines describe the swept
        # parameter's values
        comments = _config_comments(
            {**cfg, "temperature": [temperature], param: None})
        if cfg["drive"] == DD:
            comments.append(_harmonics_comment(drive, bath))
        if cfg["drive"] in _ETA_COLUMNS:
            comments.append(_ETA_NOTE)
        _write_csv(path, comments, header, rows)
    return 0


def cmd_evolve(cfg: dict) -> int:
    bath = BathSpec(cfg["alpha"], cfg["omega_c"],
                    _one_temperature(cfg, "evolve"))
    drive = Drive(cfg["drive"], cfg["amp_ratio"], cfg["omega"])
    header = ["t", "s_x", "s_y", "s_z", "S", "Sdot"]
    try:
        traj = evolve(bath, drive, cfg["s0"], cfg["t_max"], cfg["dt_out"],
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


def cmd_fig1(cfg: dict) -> int:
    """eta(Omega) for the canonical DD parameter set.

    alpha = 0.01, omega_c = 500, x = 2.4, Omega log-spaced over
    [10, 1e4] with 200 points; one eta column per temperature.  The
    temperature set {0.1, 1, 10} is a documented default (overridable
    with --temperature or the config file), not a literature value.
    """
    omegas = np.geomspace(*FIG1_OMEGA_RANGE, FIG1_POINTS)
    temps = cfg["temperature"]
    # (omega, temperature) grid in one call: omegas down, temperatures across
    bath = BathSpec(cfg["alpha"], cfg["omega_c"], np.array(temps))
    drive = Drive(DD, cfg["amp_ratio"], omegas[:, None])
    rows = np.column_stack([omegas, stabilization_eta(bath, drive)])

    header = ["omega"] + [f"eta_T{t:g}" for t in temps]
    comments = _config_comments(cfg) + [_harmonics_comment(drive, bath),
                                        _ETA_NOTE]
    _write_csv(cfg["out"], comments, header, rows)
    return 0


# --------------------------------------------------------------------------
# options


class _Choice(tuple):
    """The choices, and the parser of a value from them; dashes read as
    underscores: --sweep amp-ratio and 'sweep = amp-ratio' give amp_ratio."""

    def __call__(self, value: str) -> str:
        name = value.replace("-", "_")
        if name not in self:
            raise argparse.ArgumentTypeError(
                f"invalid choice {value!r} (choose from {', '.join(self)})")
        return name


def _floats(value: str) -> tuple:
    """Comma-separated floats; evolve checks that s0 has three."""
    return tuple(float(v) for v in value.split(","))


class _Option(NamedTuple):
    """parse reads a flag's and a file's text alike.  A list default makes
    the flag repeatable and the file value a comma-separated list."""
    parse: Callable[[str], object]
    default: object
    help: str


# every option of the command line and of the config file
_OPTIONS = {
    "alpha": _Option(float, 0.01, "dissipation strength"),
    "omega_c": _Option(float, 500.0, "bath cutoff in units of Delta"),
    "temperature": _Option(float, [1.0],
                           "temperature in hbar*Delta/k_B; repeatable"),
    "drive": _Option(_Choice(_KINDS), NONE, "drive kind"),
    "amp_ratio": _Option(float, 0.0,
                         "dimensionless drive strength x = 2A/Omega"),
    "omega": _Option(float, 100.0, "driving frequency in units of Delta"),
    "out": _Option(str, None, "output CSV path; - for stdout"),
    "sweep": _Option(_Choice(("omega", "amp_ratio", "temperature", "alpha")),
                     None, "parameter to sweep"),
    "min": _Option(float, None, "first value of the sweep"),
    "max": _Option(float, None, "last value of the sweep"),
    "points": _Option(int, None, "number of sweep values"),
    "spacing": _Option(_Choice(("linear", "log")), "linear",
                       "spacing of the sweep values"),
    "tol": _Option(float, 1e-9, "error bound of a trajectory"),
    "s0": _Option(_floats, (1.0, 0.0, 0.0), "initial Bloch vector 'x,y,z'"),
    "t_max": _Option(float, 100.0, "end time of a trajectory"),
    "dt_out": _Option(float, 0.1, "time between output samples"),
}


def _keys(*keys: str, **own) -> dict:
    """Each of a command's keys with its own default, or else the table's."""
    return {key: own.get(key, _OPTIONS[key].default) for key in keys}


_POINT = ("alpha", "omega_c", "temperature", "drive", "amp_ratio", "omega",
          "out")

# each command: what it runs, its help, and its keys with their defaults
_COMMANDS = {
    "rates": (cmd_rates, "rate bundle at one parameter point",
              _keys(*_POINT)),
    "scan": (cmd_scan, "sweep one parameter, write CSV",
             _keys(*_POINT, "sweep", "min", "max", "points", "spacing")),
    "evolve": (cmd_evolve, "integrate a Bloch trajectory",
               _keys(*_POINT, "tol", "s0", "t_max", "dt_out")),
    "fig1": (cmd_fig1, "eta(Omega) stabilization curves",
             _keys("alpha", "omega_c", "temperature", "amp_ratio", "out",
                   temperature=FIG1_TEMPERATURES, amp_ratio=2.4)),
}


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


def _resolve(args: argparse.Namespace) -> dict:
    """The command's keys: its defaults < config file < explicit flags."""
    _, _, defaults = _COMMANDS[args.command]
    cfg = dict(defaults)
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in cfg:
                raise ValueError(f"{args.command} takes no config key "
                                 f"{key!r}")
            option = _OPTIONS[key]
            try:
                if isinstance(option.default, list):
                    cfg[key] = [option.parse(v) for v in raw.split(",")]
                else:
                    cfg[key] = option.parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns
    a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Driven-qubit decoherence rates, Bloch dynamics and "
                    "coherence-stabilization sweeps (units: Delta = 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, defaults) in _COMMANDS.items():
        # no prefixes: fig1's --omega-c must not take --omega
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value config file")
        for key, default in defaults.items():
            option = _OPTIONS[key]
            kwargs = {"type": option.parse, "help": option.help}
            if default is not None:
                kwargs["help"] += f" (default {_text(default)})"
            if isinstance(option.default, list):
                kwargs["action"] = "append"
            if isinstance(option.parse, _Choice):
                kwargs["metavar"] = "{" + ",".join(option.parse) + "}"
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.set_defaults(func=run)
    return parser


def _format_warning(python_format, message, category, *args, **kwargs):
    """'warning: <message>' for a RegimeWarning; any other warning keeps
    Python's format."""
    if issubclass(category, RegimeWarning):
        return f"warning: {message}\n"
    return python_format(message, category, *args, **kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a printed RegimeWarning names its parameters, not the source line
    # that raised it; only the text changes, so a caller that records
    # warnings still gets them
    python_format = warnings.formatwarning
    warnings.formatwarning = functools.partial(_format_warning,
                                               python_format)
    try:
        return args.func(_resolve(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
