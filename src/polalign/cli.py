"""Command-line front end and file formats.

Subcommands:

* ``simulate``     — Monte Carlo sweep over photon budget / signal fidelity,
                     written as CSV or JSON plus a reproducibility manifest;
* ``fit``          — power-law fit of a sweep file;
* ``align``        — tomography + compensation from a detection count file;
* ``timing-check`` — timing-vs-polarization verdict from linear-basis counts;
* ``rate``         — expected weak-coherent-pulse detection rate.

All randomness is seeded; rerunning any command with identical flags
produces byte-identical output files at any ``--jobs`` value, and
``simulate --from-manifest`` (with only ``--out`` and ``--jobs`` besides)
replays a sweep.  ``simulate`` no longer subtracts the mean background:
its manifests store ``bg_subtract`` as false and refuse true, and sweep
files keep the column, so old rows with true still fit.  Angles are
reported in degrees here (hardware convention) and stored in radians
everywhere inside the library.

Bad input exits with code 2 and a message naming the flag, manifest key or
file at fault.  One loader, ``_load_json``, reads every JSON input file, so
a file fault reads alike in each.  This module checks the shapes of files,
and of a simulate configuration only its keys and the values the library
never sees (``bg_subtract``, ``format``, ``out``).  The grid lists and every
value the library uses are checked once, type and range, by the library
code that uses them, and a number by the one integer and one real rule of
``errors``, as the file readers here check theirs.  ``main`` maps the
``field`` of such a ``ConfigError`` to its flag, or under ``simulate
--from-manifest`` to its manifest key when the manifest holds it, through
``_FIELD_KEYS``.  ``_SWEEP_FIELDS`` is the one description of a sweep row.
Each file check raises its ``SchemaError`` itself, so a message is built only
when its check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .compensation import optimize
from .errors import (ConfigError, FitError, InsufficientCountsError, PolalignError, SchemaError,
                     _integer, _real)
from .montecarlo import SweepCell, cpu_count, expected_detection_rate, fit_power_law, run_sweep
from .polarization import BB84_LABELS
from .tomography import (
    COLUMN_LABELS,
    COUNT_SHAPE,
    ROW_LABELS,
    CountMatrix,
    Direction,
    reconstruct_forward,
    reconstruct_reversed,
)
from .timing import classify

COUNT_FILE_SCHEMA_VERSION = 1
#: the largest count that a float holds exactly
_MAX_COUNT = 2**53
MANIFEST_SCHEMA_VERSION = 1
SWEEP_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# input files


def _read_text(path) -> str:
    """The text of the file at ``path``; an ``OSError`` is left to ``main``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None


def _load_json(path, version: int, text: str | None = None) -> dict:
    """The JSON object at schema ``version`` in ``path``, or in ``text`` already read from it."""
    try:
        payload = json.loads(_read_text(path) if text is None else text)
    except ValueError as exc:  # bad syntax or an int past 4300 digits
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be an object")
    found = payload.get("schema_version")
    try:
        supported = _integer(found, "schema_version") == version
    except ConfigError:
        supported = False
    if not supported:
        raise SchemaError(f"{path}: unsupported schema_version {found!r}")
    return payload


def load_count_file(path) -> CountMatrix:
    """Read and validate a count file; an optional ``metadata`` object is checked, not returned.

    Labels may appear in any order in the file; rows and columns are
    reindexed to the canonical (H, V, D, A[, R, L]) order.
    """
    payload = _load_json(path, COUNT_FILE_SCHEMA_VERSION)
    try:
        direction = Direction(payload.get("direction"))
    except ConfigError as exc:
        raise SchemaError(f"{path}: {exc}") from None

    rows = payload.get("row_labels")
    cols = payload.get("column_labels")
    n_rows, n_cols = COUNT_SHAPE[direction]
    for name, labels, expected in (("row", rows, ROW_LABELS[direction]),
                                   ("column", cols, COLUMN_LABELS[direction])):
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise SchemaError(f"{path}: {name}_labels must be a list of strings")
        if len(labels) != len(set(labels)):
            raise SchemaError(f"{path}: repeated {name} label in {labels}")
        if set(labels) != set(expected):
            raise SchemaError(f"{path}: {direction.value} {name}_labels must be "
                              f"{sorted(expected)}, got {labels}")

    counts = payload.get("counts")
    if not (isinstance(counts, list) and len(counts) == n_rows):
        raise SchemaError(f"{path}: counts must have {n_rows} rows for direction {direction.value}")
    for i, row in enumerate(counts):
        if not (isinstance(row, list) and len(row) == n_cols):
            raise SchemaError(f"{path}: counts row {i} must have {n_cols} entries")
        for j, x in enumerate(row):
            ok = isinstance(x, int) or (isinstance(x, float) and float(x).is_integer())
            if not ok or isinstance(x, bool) or x < 0:
                raise SchemaError(f"{path}: counts[{i}][{j}] = {x!r} is not a nonnegative integer")
            if x > _MAX_COUNT:
                raise SchemaError(f"{path}: counts[{i}][{j}] is above 2**53, the largest count")
    if not isinstance(payload.get("metadata", {}), dict):
        raise SchemaError(f"{path}: metadata must be an object")
    # in canonical label order; every count is exact as a float.  An array of
    # the counts checked above is not walked again for a bool
    col_order = [cols.index(lab) for lab in COLUMN_LABELS[direction]]
    return CountMatrix(direction, np.array([[counts[rows.index(lab)][j] for j in col_order]
                                            for lab in ROW_LABELS[direction]], dtype=float))


# ---------------------------------------------------------------------------
# output formatting


def _fmt(x) -> str:
    """A sweep-record value as CSV text: floats at nine significant digits, empty if missing."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.9g}" if isinstance(x, float) else str(x)


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out_path):
    """``text`` and a newline to ``out_path``, or else to stdout: every command's one write."""
    text += "\n"
    if out_path:
        _write_text(out_path, text)
    else:
        # one write (tests/golden/run.py counts them in process): unbuffered, a newline
        # written apart meets a pipe whose reader (``| head -1``) has left, and the run exits 1
        sys.stdout.write(text)


def _finite(value, key) -> float:
    x = _real(value, key)
    if not math.isfinite(x):
        raise ValueError(key)
    return x


def _flag(value, key) -> bool:
    if not isinstance(value, bool):
        raise TypeError(key)
    return value


#: the one description of a sweep row, in column order: key -> (SweepCell field, CSV text
#: parser, rule); a JSON value, or a CSV value once parsed, must pass the rule, called with
#: it and its key, and a number's rule is the library's one integer or real rule
_SWEEP_FIELDS = {
    "direction": ("direction", str, lambda x, key: Direction(x)),
    "n": ("n_detected", int, _integer),
    "fs": ("signal_fidelity", float, _finite),
    "bg_mean": ("background_mean", float, _finite),
    "bg_subtract": ("subtract_background", {"true": True, "false": False}.__getitem__, _flag),
    "samples": ("samples", int, _integer),
    "failures": ("failures", int, _integer),
    "mean_qber": ("mean_qber", float, _finite),
    "std_qber": ("std_qber", lambda text: float(text) if text else None,
                 lambda x, key: None if x is None else _finite(x, key)),
}
SWEEP_CSV_HEADER = ",".join(_SWEEP_FIELDS)


def _cell_record(cell: SweepCell) -> dict:
    record = {}
    for key, (name, _, _) in _SWEEP_FIELDS.items():
        value = getattr(cell, name)
        if isinstance(value, float):  # at nine significant digits, as CSV writes it
            value = float(f"{value:.9g}")
        record[key] = value.value if isinstance(value, Direction) else value
    return record


def _write_sweep(path, cells, fmt: str):
    """``cells`` as a sweep file: JSON records, or CSV lines of the same values."""
    records = [_cell_record(c) for c in cells]
    if fmt == "json":
        text = json.dumps({"schema_version": SWEEP_SCHEMA_VERSION, "cells": records}, indent=1)
    else:
        text = "\n".join([SWEEP_CSV_HEADER] + [",".join(map(_fmt, r.values())) for r in records])
    _write_text(path, text + "\n")


def _sweep_cell(path, where: str, record, from_json: bool) -> SweepCell:
    if not isinstance(record, dict):
        raise SchemaError(f"{path}: {where} must be an object")
    fields = {}
    for key, (name, parse, rule) in _SWEEP_FIELDS.items():
        if key not in record:
            raise SchemaError(f"{path}: {where} has no {key!r}")
        try:
            fields[name] = rule(record[key] if from_json else parse(record[key]), key)
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{path}: {where}: bad {key} {record[key]!r}") from None
    return SweepCell(**fields)


def read_sweep_file(path) -> list[SweepCell]:
    """Parse a sweep written by ``simulate`` (CSV or JSON).

    ``path`` is a string or any path-like object.  Raises
    :class:`SchemaError` for any malformed file.
    """
    path = os.fspath(path)
    text = _read_text(path)
    if path.endswith(".json") or text.lstrip().startswith("{"):
        payload = _load_json(path, SWEEP_SCHEMA_VERSION, text)
        if not isinstance(payload.get("cells"), list):
            raise SchemaError(f"{path}: expected an object with a 'cells' list")
        return [_sweep_cell(path, f"cell {i}", r, True) for i, r in enumerate(payload["cells"])]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise SchemaError(f"{path}: missing sweep CSV header")
    keys = list(_SWEEP_FIELDS)
    cells = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(keys):
            raise SchemaError(f"{path}: malformed sweep row {ln!r}")
        cells.append(_sweep_cell(path, f"line {i}", dict(zip(keys, parts)), False))
    return cells


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_list(parser, text, flag, converter, label):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(converter(token))
        except ValueError:
            parser.error(f"{flag}: {token!r} is not a valid {label}")
    if not values:
        parser.error(f"{flag}: expected at least one {label}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``polalign`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="polalign",
        description="Polarization-frame alignment toolkit for BB84 QKD.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep of the alignment protocol")
    sim.add_argument("--direction", choices=["forward", "reversed"])
    sim.add_argument("--n", help="comma-separated detected-photon budgets, e.g. 400,1600")
    sim.add_argument("--fs", help="comma-separated signal fidelities in [0.5, 1]")
    sim.add_argument("--bg", help="comma-separated mean background counts per detector, default 0")
    sim.add_argument("--samples", type=int, help="Monte Carlo samples per grid cell")
    sim.add_argument("--seed", type=int, help="master seed (nonnegative integer)")
    sim.add_argument("--jobs", type=int, default=cpu_count(),
                     help="worker processes, at most one per CPU")
    sim.add_argument("--format", choices=["csv", "json"], help="default csv")
    sim.add_argument("--out", help="output file path")
    sim.add_argument("--from-manifest", help="re-run the configuration stored in a manifest; "
                     "combines with --out and --jobs only")
    sim.set_defaults(handler=cmd_simulate)

    fit = sub.add_parser("fit", help="power-law fit of a sweep file")
    fit.add_argument("--in", dest="input", required=True, help="sweep CSV/JSON from simulate")
    fit.add_argument("--direction", choices=["forward", "reversed"])
    fit.add_argument("--min-n", type=int)
    fit.add_argument("--max-n", type=int)
    fit.add_argument("--min-fs", type=float)
    fit.add_argument("--max-fs", type=float)
    fit.add_argument("--format", choices=["text", "json"], default="text")
    fit.add_argument("--out")
    fit.set_defaults(handler=cmd_fit)

    align = sub.add_parser("align", help="reconstruct and compensate from a count file")
    align.add_argument("--counts", required=True, help="detection count file (JSON)")
    align.add_argument("--format", choices=["text", "json"], default="text")
    align.add_argument("--out")
    align.set_defaults(handler=cmd_align)

    timing = sub.add_parser("timing-check", help="timing vs polarization misalignment verdict")
    timing.add_argument("--counts", required=True, help="detection count file (JSON)")
    timing.add_argument("--confidence", type=float, default=0.99)
    timing.add_argument("--format", choices=["text", "json"], default="text")
    timing.add_argument("--out")
    timing.set_defaults(handler=cmd_timing_check)

    rate = sub.add_parser("rate", help="expected WCP detection rate")
    rate.add_argument("--pulse-rate", type=float, required=True, help="source pulse rate in Hz")
    rate.add_argument("--mu", type=float, required=True, help="mean photon number per pulse")
    rate.add_argument("--loss-db", type=float, help="channel loss in dB")
    rate.add_argument("--eta", type=float, help="channel transmission in [0, 1]")
    rate.add_argument("--y0", type=float, default=0.0, help="vacuum yield per pulse")
    rate.add_argument("--format", choices=["text", "json"], default="text")
    rate.set_defaults(handler=cmd_rate)
    return parser


# ---------------------------------------------------------------------------
# commands


#: keys of a simulate configuration, as stored in its manifest; bg_subtract is always false
_SIMULATE_KEYS = ("direction", "n", "fs", "bg", "bg_subtract", "samples", "seed", "format", "out")


def _config_error(parser, manifest: str | None, key: str, message):
    """Exit 2 naming the flag of ``key``, or the key itself in ``manifest``."""
    if manifest is None:
        parser.error(f"--{key.replace('_', '-')}: {message}")
    parser.error(f"--from-manifest: {manifest}: {key}: {message}")


def _check_simulate_config(parser, config: dict, manifest: str | None = None) -> dict:
    """Check the shape of a simulate configuration from flags or from ``manifest``.

    Any problem exits through ``parser.error``, naming the flag or the
    manifest key at fault.  The direction, samples, seed, the grid lists
    and every value's type and range are the library's to check.
    """
    fail = functools.partial(_config_error, parser, manifest)
    unknown = sorted(set(config) - set(_SIMULATE_KEYS))
    if unknown:
        parser.error(f"--from-manifest: {manifest}: unknown keys {unknown}")
    for key in _SIMULATE_KEYS:
        if key not in config:
            fail(key, "missing")
    if not isinstance(config["bg_subtract"], bool):
        fail("bg_subtract", f"{config['bg_subtract']!r} must be true or false")
    if config["bg_subtract"]:
        fail("bg_subtract", "true, but mean-background subtraction was removed from simulate")
    if config["format"] not in ("csv", "json"):
        fail("format", f"{config['format']!r} must be 'csv' or 'json'")
    if not isinstance(config["out"], str) or not config["out"]:
        fail("out", f"{config['out']!r} must be a file path")
    return {key: config[key] for key in _SIMULATE_KEYS}


def _simulate_config_from_args(parser, args) -> dict:
    if args.from_manifest:
        given = [f"--{key.replace('_', '-')}" for key in _SIMULATE_KEYS
                 if key not in ("bg_subtract", "out") and getattr(args, key) is not None]
        if given:
            parser.error(f"--from-manifest: cannot be given with {', '.join(given)}; "
                         "only --out and --jobs combine with it")
        if args.out == "":  # refused as a flag, not left to the manifest's own out
            _config_error(parser, None, "out", "'' must be a file path")
        config = _load_json(args.from_manifest, MANIFEST_SCHEMA_VERSION).get("config")
        if not isinstance(config, dict):
            raise SchemaError(f"{args.from_manifest}: has no config block")
        if args.out:
            config = dict(config, out=args.out)
        return _check_simulate_config(parser, config, args.from_manifest)

    missing = [f"--{key}" for key in ("direction", "n", "fs", "samples", "seed", "out")
               if getattr(args, key) is None]
    if missing:
        parser.error(f"missing required flags: {', '.join(missing)}")
    config = {
        "direction": args.direction,
        "n": _parse_list(parser, args.n, "--n", int, "integer"),
        "fs": _parse_list(parser, args.fs, "--fs", float, "number"),
        "bg": _parse_list(parser, "0" if args.bg is None else args.bg, "--bg", float, "number"),
        "bg_subtract": False,
        "samples": args.samples,
        "seed": args.seed,
        "format": args.format or "csv",
        "out": args.out,
    }
    return _check_simulate_config(parser, config)


def cmd_simulate(parser, args) -> int:
    config = _simulate_config_from_args(parser, args)
    out = config["out"]
    # an unwritable output fails before any trial runs; appending leaves an
    # existing file as it is, and a file the check creates goes again, so a
    # sweep that aborts leaves no output behind
    created = not os.path.exists(out)
    with open(out, "a", encoding="utf-8"):
        pass
    if created:
        os.remove(out)
    started = time.monotonic()
    sweep = run_sweep(
        directions=[config["direction"]],
        n_values=config["n"],
        fs_values=config["fs"],
        background_means=config["bg"],
        samples=config["samples"],
        master_seed=config["seed"],
        jobs=args.jobs,
    )
    _write_sweep(out, sweep.cells, config["format"])
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "polalign",
        "version": __version__,
        "command": "simulate",
        "config": config,
        "wall_seconds": round(time.monotonic() - started, 3),
    }
    _write_text(out + ".manifest.json", json.dumps(manifest, indent=1) + "\n")
    _emit(f"wrote {len(sweep.cells)} cells to {out}", None)
    return 0


#: ``fit`` selection flags, each with the test that drops a cell for the flag's value
_FIT_CRITERIA = (
    ("direction", lambda c, v: c.direction.value != v),
    ("min-n", lambda c, v: c.n_detected < v),
    ("max-n", lambda c, v: c.n_detected > v),
    ("min-fs", lambda c, v: c.signal_fidelity < v),
    ("max-fs", lambda c, v: c.signal_fidelity > v),
)


def cmd_fit(parser, args) -> int:
    criteria = []
    for flag, drops in _FIT_CRITERIA:
        value = getattr(args, flag.replace("-", "_"))
        if isinstance(value, float) and not math.isfinite(value):
            parser.error(f"--{flag}: {value} must be a finite number")
        if value is not None:
            criteria.append((flag, value, drops))
    cells = read_sweep_file(args.input)
    selected = [c for c in cells if not any(drops(c, v) for _flag, v, drops in criteria)]
    fit = fit_power_law(selected)
    selection = ", ".join(f"{flag}={v}" for flag, v, _drops in criteria) or "all cells"
    if args.format == "json":
        payload = {
            "alpha": fit.alpha,
            "beta": fit.beta,
            "gamma": fit.gamma,
            "r_squared": fit.r_squared,
            "cells_used": len(selected),
            "selection": selection,
        }
        _emit(json.dumps(payload, indent=1), args.out)
    else:
        lines = [
            f"model: mean_qber = alpha * (2*fs - 1)^beta * n^gamma",
            f"alpha     = {fit.alpha:.6f}",
            f"beta      = {fit.beta:.6f}",
            f"gamma     = {fit.gamma:.6f}",
            f"r_squared = {fit.r_squared:.6f}",
            f"cells used: {len(selected)} ({selection})",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_align(parser, args) -> int:
    cm = load_count_file(args.counts)
    if cm.direction is Direction.FORWARD:
        recon = reconstruct_forward(cm)
    else:
        recon = reconstruct_reversed(cm)
    result = optimize(recon)
    angles_deg = [math.degrees(t) for t in result.angles.as_tuple()]
    stokes = {
        label: [round(x, 9) for x in row]
        for label, row in zip(BB84_LABELS, recon.rows)
    }
    if args.format == "json":
        payload = {
            "direction": cm.direction.value,
            "total_counts": cm.total,
            "reconstructed_stokes": stokes,
            "angles_deg": [round(a, 9) for a in angles_deg],
            "predicted_qber": result.predicted_qber,
        }
        _emit(json.dumps(payload, indent=1), args.out)
    else:
        lines = [f"direction: {cm.direction.value}", f"total counts: {cm.total:.17g}"]
        lines.append("reconstructed states (Stokes S1, S2, S3):")
        for label in BB84_LABELS:
            s = stokes[label]
            lines.append(f"  {label}: ({s[0]: .6f}, {s[1]: .6f}, {s[2]: .6f})")
        lines.append(
            "wave-plate angles (deg): "
            + ", ".join(f"{a:.4f}" for a in angles_deg)
        )
        lines.append(f"predicted residual QBER: {result.predicted_qber * 100:.4f}%")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_timing_check(parser, args) -> int:
    verdict = classify(load_count_file(args.counts), confidence=args.confidence)
    if args.format == "json":
        payload = {
            "verdict": verdict.status.value,
            "max_conditional_frequency": verdict.max_conditional_frequency,
            "input": verdict.input_label,
            "outcome": verdict.outcome_label,
            "total_counts": verdict.total_counts,
            "ci_low": verdict.ci_low,
            "ci_high": verdict.ci_high,
            "confidence": verdict.confidence,
        }
        _emit(json.dumps(payload, indent=1), args.out)
    else:
        lines = [
            f"verdict: {verdict.status.value}",
            f"max conditional frequency: {verdict.max_conditional_frequency:.4f} "
            f"at (input {verdict.input_label}, outcome {verdict.outcome_label})",
            f"{verdict.confidence * 100:.12g}% family-wise interval: "
            f"[{verdict.ci_low:.4f}, {verdict.ci_high:.4f}]"
            f" (timing model: 0.25, polarization bound: 0.375)",
            f"counts used: {verdict.total_counts:.17g}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_rate(parser, args) -> int:
    if (args.loss_db is None) == (args.eta is None):
        parser.error("specify exactly one of --loss-db or --eta")
    eta = args.eta
    if args.loss_db is not None:
        if not 0.0 <= args.loss_db < math.inf:
            parser.error(f"--loss-db: {args.loss_db} must be finite and >= 0")
        eta = 10.0 ** (-args.loss_db / 10.0)
    rate = expected_detection_rate(args.pulse_rate, args.mu, eta, args.y0)
    # a subnormal rate is positive, but 400 / rate overflows to inf
    seconds_400 = 400.0 / rate if rate > 0 else math.inf
    if args.format == "json":
        payload = {
            "rate_hz": rate,
            "eta": eta,
            "seconds_to_400_detections": None if math.isinf(seconds_400) else seconds_400,
        }
        _emit(json.dumps(payload, indent=1), None)
    else:
        time_400 = "never (zero rate)" if rate == 0.0 else f"{seconds_400:.6g} s"
        _emit(f"expected detection rate: {rate:.6g} Hz\ntime to 400 detections: {time_400}", None)
    return 0


#: the key of each ``ConfigError`` field: a simulate manifest stores the value under
#: it, and the flag is ``--`` and the key with ``-`` for ``_``
_FIELD_KEYS = {
    "direction": "direction", "n_detected": "n", "signal_fidelity": "fs", "background_mean": "bg",
    "samples": "samples", "master_seed": "seed", "jobs": "jobs", "confidence": "confidence",
    "pulse_rate_hz": "pulse_rate", "mean_photon_number": "mu",
    "channel_transmission": "eta", "vacuum_yield": "y0",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(parser, args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ConfigError as exc:
        # raised before any output is written; a value no manifest holds, such
        # as --jobs, is named by its flag beside a manifest too
        key = _FIELD_KEYS[exc.field]
        manifest = getattr(args, "from_manifest", None) if key in _SIMULATE_KEYS else None
        _config_error(parser, manifest, key, exc)
    except (SchemaError, FitError, InsufficientCountsError) as exc:
        # a fit or a reconstruction fails only on what its input file holds: bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left, as after ``| head``: no message.  The program's own stdout goes
        # to devnull, so the flush at exit cannot fail again (Python's SIGPIPE recipe)
        if argv is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # a path given on the command line is bad input, like any other
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except MemoryError:
        # a sweep too large to hold, say; reported like an OSError without a file
        print("error: out of memory", file=sys.stderr)
        return 1
    except PolalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
