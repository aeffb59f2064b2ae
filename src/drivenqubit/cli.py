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
'# period_error = e' in its header; evolve writes its rows a block at a
time, as dynamics.evolve_blocks computes them.  A reader of the output
that stops early (a closed pipe) ends a command with status 141 and no
error line.  With
several temperatures scan writes one file per temperature, the stem of
--out suffixed with _T<temperature in %g form>, and exits with status 2
before writing where two temperatures share a name, as fig1 does where
two share an eta column name; --out - (or no --out) writes every table
to stdout.  All CSV output is deterministic:
'#'-prefixed comments carry the resolved configuration, floats are
written with 9 significant digits as '%.8e' writes them, Unix line
endings.  The floats are formatted in numpy; '%' itself writes only nan,
inf, -inf, |v| < 1e-300, a decimal exponent that log10 got one off, a
carry of the digits to 10**9, and the ties of |v| >= 1e9 or |v| < 1e-14.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bath import BathSpec, RegimeWarning
from .driving import _KINDS, CDT, DD, NONE, Drive, _harmonic_count
# evolve stays a name of cli only because perfbench's tracer test reads
# cli.evolve; cmd_evolve writes the blocks of evolve_blocks
from .dynamics import (IntegrationDivergedError, evolve,  # noqa: F401
                       evolve_blocks)
from .rates import build_report, stabilization_eta

FLOAT_FMT = "%.8e"  # 9 significant digits
# rows _write_blocks formats at a time: the (fields, 4 or 5) word buffer
# and the float and int64 temporaries of 1024 rows of 6 columns take under
# 1 MB; 4096-row chunks raised the peak RSS of a 70,001-row evolve by 2 MB
_CHUNK_ROWS = 1024

# Tables of _format_fields.  _POW10[k + _POW10_BIAS] is 10**k correctly
# rounded, k = -300 .. 308: float() of the decimal literal, where a libm
# pow need not be.  It is 0 at k = -301 and 309, where any k past the
# table is clipped to.
_POW10_BIAS = 301
_POW10 = np.array([0.0, *(float(f"1e{k}") for k in range(-300, 309)), 0.0])
_EXP_BIAS = 324  # 5e-324 is 4.94065646e-324
# 10**k is exact in a double up to k = 22 (5**22 < 2**53)
_EXACT_POW10 = 22


def _words(texts) -> np.ndarray:
    """Texts of 4 ASCII characters as uint32 words, each written into a
    record of _format_fields as one; '\\0' pads and is dropped there."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


# The words of a field with sign s, digits d0 .. d8 of r and exponent e:
# [s or 0, d0, '.', d1] at 100 * s + r // 10**7, [d2 .. d5] at
# r // 1000 % 10**4, [d6, d7, d8, 'e'] at r % 1000, and [exponent sign,
# 2 digits, ','] at e + 99 or [exponent sign, 2 or 3 digits, 0 for 2] at
# e + _EXP_BIAS
_LEAD4 = _words(f"{s}{n // 10}.{n % 10}" for s in "\0-" for n in range(100))
# from int64 arrays: joined from 10,000 strings, this table left the peak
# RSS of a 70,001-row evolve 0.7 MB higher
_DIGITS4 = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TAIL4 = _words(f"{n:03}e" for n in range(1000))
_EXP2 = _words(f"{e:+03}," for e in range(-99, 100))
_EXP3 = _words(f"{e:+03}".ljust(4, "\0") for e in range(-_EXP_BIAS, 309))
_COMMA4 = _words(",\0\0\0")


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
    of r = rint(q), q = |v| * 10**(8 - e).  For e >= -300, q is |v| times
    one table power, correctly rounded, and the product rounds once, so
    the computed q is the exact one times (1 + d1)(1 + d2), |di| <= 2**-53:
    an absolute error below 2.3e-7 for q < 1e9.  Where q >= 1e8 and
    r < 1e9, the exact q lies in (1e8 - 2.3e-8, 1e9): e is right, or one
    too high for a |v| that '%' rounds up to 1.00000000e{e}, the digits
    of r = 1e8.  Where |q - r| <= 1/2 - 1e-6, q is at least 1e-6 from a
    half-integer, no half-integer lies between the computed and the exact
    q, and rint gives the correctly rounded r.  Inside that band (exact
    decimal ties such as the sample times k/256: 5-7% of the fields of an
    evolve table at dt = 1/256 or 1/128), where 10**(8 - e) is exact,
    0 <= 8 - e <= 22, _round_exact rounds the exact product.  It does not
    carry: q rounds the exact product once, so an exact product of at
    least 1e9 - 1/2 has q >= 1e9 - 1/2 and r = 1e9 already.

    Every other field is odd, and '%' writes it: nan, inf and -inf; an e
    below -300 (|v| < 1e-300), where 10**(8 - e) is past the largest
    double and the table reads 0, so q = 0; an e that log10 put one too
    high (q < 1e8, or q = 0 past the table at e = 309) or one too low
    (r >= 1e9, or q = 0 at e = -301); a carry to r = 1e9; and the band
    fields of |v| >= 1e9 or |v| < 1e-14, where 10**(8 - e) is not exact.

    Each field becomes a record of uint32 words, each one gather from a
    table: _LEAD4, _DIGITS4, _TAIL4 and _EXP2, 16 bytes whose one zero
    byte is the sign of a positive field, dropped by bytes.replace; in a
    block with an e outside -98 .. 97, _LEAD4, _DIGITS4, _TAIL4, _EXP3
    and _COMMA4, 20 bytes, whose zero bytes bytes.translate drops.  The
    last field of a row gets '\\n' for its ','.  An odd field's '%' text,
    zero-padded, overwrites its record up to the separator, 15 bytes in
    the first layout and 16 in the second.  '%' prints the exponent of |v|
    or, where it carries, one more, and e is at most one off the exponent
    of |v|: a field prints an exponent in e - 1 .. e + 2.  With every e in
    -98 .. 97 that exponent has two digits and the text fits 15 bytes;
    the longest text '%' writes, -1.00000000e-308, fits 16.
    """
    values = rows.ravel()
    finite = np.isfinite(values)
    mag = np.abs(values)
    regular = finite & (mag > 0)
    # the placeholder 1.0 keeps log10 off 0 and inf, and gives e = 0
    mag = np.where(regular, mag, 1.0)
    exp = np.floor(np.log10(mag)).astype(np.int64)
    q = mag * _POW10.take(8 - exp + _POW10_BIAS, mode="clip")
    r = np.rint(q)
    odd = ~finite | (q < 1e8) | (r >= 1e9)
    (at,) = np.nonzero(np.abs(q - r) > 0.5 - 1e-6)
    if at.size:
        k = 8 - exp[at]
        exact = (k >= 0) & (k <= _EXACT_POW10)
        r[at[exact]] = _round_exact(mag[at[exact]], k[exact])
        odd[at[~exact]] = True
    (index,) = np.nonzero(odd)
    r = r.astype(np.int64)
    if not regular.all():
        # zeros print as 0.00000000e+00 (and nan, inf get replaced below)
        r *= regular

    narrow = -99 < exp.min(initial=0) and exp.max(initial=0) < 98
    high = r // 1000
    tail = r - high * 1000
    lead = high // 10**4
    mid = high - lead * 10**4
    lead += np.signbit(values) * 100
    words = np.empty(rows.shape + (4 if narrow else 5,), np.uint32)
    records = words.reshape(-1, words.shape[-1])
    # mode="clip" takes numpy's fast path into a strided out; every index
    # is in range but an odd field's, whose record '%' overwrites
    _LEAD4.take(lead, mode="clip", out=records[:, 0])
    _DIGITS4.take(mid, mode="clip", out=records[:, 1])
    _TAIL4.take(tail, mode="clip", out=records[:, 2])
    if narrow:
        _EXP2.take(exp + 99, mode="clip", out=records[:, 3])
    else:
        _EXP3.take(exp + _EXP_BIAS, mode="clip", out=records[:, 3])
        records[:, 4] = _COMMA4
    sep_at = 15 if narrow else 16
    words.view(np.uint8)[:, -1, sep_at] = ord("\n")
    if index.size:
        texts = [FLOAT_FMT % v for v in values[index].tolist()]
        records.view(np.uint8)[index, :sep_at] = np.array(
            texts, f"S{sep_at}").view(np.uint8).reshape(-1, sep_at)
    data = words.tobytes()
    data = data.replace(b"\0", b"") if narrow else data.translate(None, b"\0")
    return data.decode("ascii")


def _write_blocks(path, comments: list[str], header: list[str],
                  blocks) -> None:
    """Comments, header and the rows of each 2-D block of blocks, written
    as each block comes; the rows are the same bytes as
    np.savetxt(fmt=FLOAT_FMT, delimiter=',') writes.

    _format_fields formats _CHUNK_ROWS rows at a time in numpy; only
    nan, inf, -inf, |v| < 1e-300, a decimal exponent that log10 got one
    off, a carry of the digits to 10**9 and the rounding ties of
    |v| >= 1e9 or |v| < 1e-14 go through '%'.
    """
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="\n")
    try:
        for line in comments:
            out.write(line + "\n")
        out.write(",".join(header) + "\n")
        for rows in blocks:
            for start in range(0, len(rows), _CHUNK_ROWS):
                out.write(_format_fields(rows[start:start + _CHUNK_ROWS]))
    finally:
        if out is not sys.stdout:
            out.close()


def _write_csv(path, comments: list[str], header: list[str],
               rows) -> None:
    """_write_blocks of one whole table."""
    _write_blocks(path, comments, header, [np.asarray(rows, dtype=float)])


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


def _distinct(names: list, temperatures: list) -> list:
    """names, one per temperature, if no two temperatures share one."""
    for i, name in enumerate(names):
        first = names.index(name)
        if first < i:
            raise ValueError(f"temperatures {temperatures[first]} and "
                             f"{temperatures[i]} both write {name}")
    return names


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
    paths = [cfg["out"]] * len(temperatures)
    if len(temperatures) > 1 and cfg["out"] not in (None, "-"):
        # split the extension of the file name only, not of a directory
        root, ext = os.path.splitext(cfg["out"])
        paths = _distinct([f"{root}_T{t:g}{ext}" for t in temperatures],
                          temperatures)
    for temperature, path in zip(temperatures, paths):
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
        blocks = evolve_blocks(bath, drive, cfg["s0"], cfg["t_max"],
                               cfg["dt_out"], tol=cfg["tol"])
    except IntegrationDivergedError as exc:
        comments = _config_comments(cfg) + [f"# DIVERGED: {exc}"]
        _write_csv(cfg["out"], comments, header, [])
        print(f"integration diverged: {exc}", file=sys.stderr)
        return 1
    # every block carries the header's substeps and period_error
    first = next(blocks)
    comments = _config_comments(cfg)
    if first.substeps is not None:
        comments += [f"# substeps = {first.substeps}",
                     f"# period_error = {first.period_error:.3e}"]
    _write_blocks(cfg["out"], comments, header,
                  (np.column_stack([b.t, b.s, b.entropy, b.entropy_rate])
                   for b in itertools.chain([first], blocks)))
    return 0


def cmd_fig1(cfg: dict) -> int:
    """eta(Omega) for the canonical DD parameter set.

    alpha = 0.01, omega_c = 500, x = 2.4, Omega log-spaced over
    [10, 1e4] with 200 points; one eta column per temperature.  The
    temperature set {0.1, 1, 10} is a documented default (overridable
    with --temperature or the config file), not a literature value.
    """
    temps = cfg["temperature"]
    header = ["omega"] + _distinct([f"eta_T{t:g}" for t in temps], temps)
    omegas = np.geomspace(*FIG1_OMEGA_RANGE, FIG1_POINTS)
    # (omega, temperature) grid in one call: omegas down, temperatures across
    bath = BathSpec(cfg["alpha"], cfg["omega_c"], np.array(temps))
    drive = Drive(DD, cfg["amp_ratio"], omegas[:, None])
    rows = np.column_stack([omegas, stabilization_eta(bath, drive)])
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
    "s0": _Option(_floats, (1.0, 0.0, 0.0),
                  "initial Bloch vector 'x,y,z'; --s0=-x,y,z for x < 0"),
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
        status = args.func(_resolve(args))
        # rows still in stdout's buffer: a reader that stopped shows here
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of the output stopped, as 'drivenqubit ... | head'
        # does: no error line, and stdout goes to /dev/null so that the
        # interpreter's last flush of it stays quiet (Python docs, "Note on
        # SIGPIPE"); 128 + SIGPIPE, as a shell reports a process that
        # SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
