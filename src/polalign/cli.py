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
replays a sweep.  Angles are reported in degrees here (hardware
convention) and stored in radians everywhere inside the library.

Bad input exits with code 2 and a message naming the flag, manifest key or
file at fault.  This module checks the types and shapes of flags, manifests
and files.  Every range is checked once, by the library code that uses the
value: ``TrialConfig`` (N, F_S, background), ``run_sweep`` (samples, master
seed), ``classify`` (confidence) and ``expected_detection_rate`` (rate
inputs); counts are checked by ``CountMatrix``.  A range error is a
``ConfigError`` whose ``field`` ``main`` maps to its flag, or under
``simulate --from-manifest`` to its manifest key, through ``_FIELD_KEYS``.
``_SWEEP_FIELDS`` is the one description of a sweep row.
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
from .errors import ConfigError, FitError, InsufficientCountsError, PolalignError, SchemaError
from .montecarlo import SweepCell, expected_detection_rate, fit_power_law, run_sweep
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


# ---------------------------------------------------------------------------
# count files


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def load_count_file(path) -> CountMatrix:
    """Read and validate a count file; an optional ``metadata`` object is checked, not returned.

    Labels may appear in any order in the file; rows and columns are
    reindexed to the canonical (H, V, D, A[, R, L]) order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # undecodable bytes, bad syntax, an int past 4300 digits
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    _require(isinstance(payload, dict), f"{path}: top level must be an object")
    _require(
        payload.get("schema_version") == COUNT_FILE_SCHEMA_VERSION,
        f"{path}: unsupported schema_version {payload.get('schema_version')!r}",
    )
    try:
        direction = Direction(payload.get("direction"))
    except ValueError:
        raise SchemaError(
            f"{path}: direction must be 'forward' or 'reversed', "
            f"got {payload.get('direction')!r}"
        ) from None

    rows = payload.get("row_labels")
    cols = payload.get("column_labels")
    n_rows, n_cols = COUNT_SHAPE[direction]
    for name, labels, expected in (("row", rows, ROW_LABELS[direction]),
                                   ("column", cols, COLUMN_LABELS[direction])):
        _require(isinstance(labels, list) and all(isinstance(x, str) for x in labels),
                 f"{path}: {name}_labels must be a list of strings")
        _require(
            len(labels) == len(set(labels)),
            f"{path}: repeated {name} label in {labels}",
        )
        _require(
            set(labels) == set(expected),
            f"{path}: {direction.value} {name}_labels must be {sorted(expected)}, "
            f"got {labels}",
        )

    counts = payload.get("counts")
    _require(isinstance(counts, list) and len(counts) == n_rows,
             f"{path}: counts must have {n_rows} rows for direction {direction.value}")
    matrix = np.zeros((n_rows, n_cols))
    for i, row in enumerate(counts):
        _require(isinstance(row, list) and len(row) == n_cols,
                 f"{path}: counts row {i} must have {n_cols} entries")
        for j, x in enumerate(row):
            # raised directly: the messages are built only on failure
            ok = isinstance(x, int) or (isinstance(x, float) and float(x).is_integer())
            if not ok or isinstance(x, bool) or x < 0:
                raise SchemaError(f"{path}: counts[{i}][{j}] = {x!r} is not a nonnegative integer")
            if x > _MAX_COUNT:
                raise SchemaError(f"{path}: counts[{i}][{j}] is above 2**53, the largest count")
            matrix[i, j] = float(x)

    # reindex to canonical label order
    row_order = [rows.index(lab) for lab in ROW_LABELS[direction]]
    col_order = [cols.index(lab) for lab in COLUMN_LABELS[direction]]
    _require(isinstance(payload.get("metadata", {}), dict), f"{path}: metadata must be an object")
    return CountMatrix(direction, matrix[np.ix_(row_order, col_order)])


# ---------------------------------------------------------------------------
# output formatting


def _fmt(x) -> str:
    """A sweep-record value as CSV text: floats at nine significant digits, empty if missing."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.9g}" if isinstance(x, float) else str(x)


def _json_float(x):
    return None if x is None else float(f"{x:.9g}")


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out_path):
    if out_path:
        _write_text(out_path, text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def _optional_finite(value):
    return None if value in (None, "") else _finite(value)


def _integer(value) -> int:
    if isinstance(value, (bool, float)):
        raise ValueError("not an integer")
    return int(value)


#: accepted spellings of bg_subtract: CSV text or a JSON boolean
_FLAGS = {"true": True, "false": False, True: True, False: False}


#: the one description of a sweep row, in column order: key -> (SweepCell field, parser);
#: the fields parsed as floats are written at nine significant digits
_SWEEP_FIELDS = {
    "direction": ("direction", Direction),
    "n": ("n_detected", _integer),
    "fs": ("signal_fidelity", _finite),
    "bg_mean": ("background_mean", _finite),
    "bg_subtract": ("subtract_background", _FLAGS.__getitem__),
    "samples": ("samples", _integer),
    "failures": ("failures", _integer),
    "mean_qber": ("mean_qber", _finite),
    "std_qber": ("std_qber", _optional_finite),
}
SWEEP_CSV_HEADER = ",".join(_SWEEP_FIELDS)


def _cell_record(cell: SweepCell) -> dict:
    record = {}
    for key, (name, parse) in _SWEEP_FIELDS.items():
        value = getattr(cell, name)
        if parse in (_finite, _optional_finite):
            value = _json_float(value)
        record[key] = value.value if isinstance(value, Direction) else value
    return record


def _write_sweep(path, cells, fmt: str):
    """``cells`` as a sweep file: JSON records, or CSV lines of the same values."""
    records = [_cell_record(c) for c in cells]
    if fmt == "json":
        text = json.dumps({"schema_version": 1, "cells": records}, indent=1)
    else:
        text = "\n".join([SWEEP_CSV_HEADER] + [",".join(map(_fmt, r.values())) for r in records])
    _write_text(path, text + "\n")


def _sweep_cell(path, where: str, record) -> SweepCell:
    _require(isinstance(record, dict), f"{path}: {where} must be an object")
    fields = {}
    for key, (name, convert) in _SWEEP_FIELDS.items():
        _require(key in record, f"{path}: {where} has no {key!r}")
        try:
            fields[name] = convert(record[key])
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{path}: {where}: bad {key} {record[key]!r}") from None
    return SweepCell(**fields)


def read_sweep_file(path) -> list[SweepCell]:
    """Parse a sweep written by ``simulate`` (CSV or JSON).

    Raises :class:`SchemaError` for any malformed file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # bad syntax or an int past 4300 digits
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
        _require(isinstance(payload, dict) and isinstance(payload.get("cells"), list),
                 f"{path}: expected an object with a 'cells' list")
        return [_sweep_cell(path, f"cell {i}", r) for i, r in enumerate(payload["cells"])]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise SchemaError(f"{path}: missing sweep CSV header")
    keys = list(_SWEEP_FIELDS)
    cells = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(keys):
            raise SchemaError(f"{path}: malformed sweep row {ln!r}")
        cells.append(_sweep_cell(path, f"line {i}", dict(zip(keys, parts))))
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


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


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
    sim.add_argument("--bg-subtract", action="store_true", default=None,
                     help="subtract the mean background")
    sim.add_argument("--samples", type=int, help="Monte Carlo samples per grid cell")
    sim.add_argument("--seed", type=int, help="master seed (nonnegative integer)")
    sim.add_argument("--jobs", type=int, default=_default_jobs(), help="worker processes")
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


#: keys of a simulate configuration, as stored in its manifest
_SIMULATE_KEYS = ("direction", "n", "fs", "bg", "bg_subtract", "samples", "seed", "format", "out")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # a JSON integer can be past float range
    return isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max


def _config_error(parser, manifest: str | None, key: str, message):
    """Exit 2 naming the flag of ``key``, or the key itself in ``manifest``."""
    if manifest is None:
        parser.error(f"--{key.replace('_', '-')}: {message}")
    parser.error(f"--from-manifest: {manifest}: {key}: {message}")


def _check_simulate_config(parser, config: dict, manifest: str | None = None) -> dict:
    """Check the types of a simulate configuration from flags or from ``manifest``.

    Any problem exits through ``parser.error``, naming the flag or the
    manifest key at fault.  Every range, samples and seed included, is
    the library's to check.
    """
    fail = functools.partial(_config_error, parser, manifest)
    unknown = sorted(set(config) - set(_SIMULATE_KEYS))
    if unknown:
        parser.error(f"--from-manifest: {manifest}: unknown keys {unknown}")
    for key in _SIMULATE_KEYS:
        if key not in config:
            fail(key, "missing")
    direction = config["direction"]
    if direction not in ("forward", "reversed"):
        fail("direction", f"{direction!r} must be 'forward' or 'reversed'")
    for key, is_valid, label in (("n", _is_int, "integer"), ("fs", _is_number, "number"),
                                 ("bg", _is_number, "number")):
        values = config[key]
        if not isinstance(values, list) or not values:
            fail(key, f"expected a non-empty list, got {values!r}")
        for x in values:
            if not is_valid(x):
                fail(key, f"{x!r} is not a valid {label}")
    if not isinstance(config["bg_subtract"], bool):
        fail("bg_subtract", f"{config['bg_subtract']!r} must be true or false")
    for key in ("samples", "seed"):
        if not _is_int(config[key]):
            fail(key, f"{config[key]!r} must be an integer")
    if config["format"] not in ("csv", "json"):
        fail("format", f"{config['format']!r} must be 'csv' or 'json'")
    if not isinstance(config["out"], str) or not config["out"]:
        fail("out", f"{config['out']!r} must be a file path")
    return {key: config[key] for key in _SIMULATE_KEYS}


def _simulate_config_from_args(parser, args) -> dict:
    if args.jobs < 1:
        parser.error(f"--jobs: {args.jobs} must be >= 1")
    if args.from_manifest:
        given = [f"--{key.replace('_', '-')}" for key in _SIMULATE_KEYS
                 if key != "out" and getattr(args, key) is not None]
        if given:
            parser.error(f"--from-manifest: cannot be given with {', '.join(given)}; "
                         "only --out and --jobs combine with it")
        try:
            with open(args.from_manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--from-manifest: cannot read {args.from_manifest}: {exc}")
        config = manifest.get("config") if isinstance(manifest, dict) else None
        if not isinstance(config, dict):
            parser.error(f"--from-manifest: {args.from_manifest} has no config block")
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
        "bg_subtract": bool(args.bg_subtract),
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
        directions=[Direction(config["direction"])],
        n_values=config["n"],
        fs_values=config["fs"],
        background_means=config["bg"],
        subtract_background=config["bg_subtract"],
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
    print(f"wrote {len(sweep.cells)} cells to {out}")
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
        lines = [f"direction: {cm.direction.value}", f"total counts: {cm.total:g}"]
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
            f"counts used: {verdict.total_counts}",
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
        print(json.dumps(payload, indent=1))
    else:
        print(f"expected detection rate: {rate:.6g} Hz")
        if rate == 0.0:
            print("time to 400 detections: never (zero rate)")
        else:
            print(f"time to 400 detections: {seconds_400:.6g} s")
    return 0


#: the key of each ``ConfigError`` field: a simulate manifest stores the value under
#: it, and the flag is ``--`` and the key with ``-`` for ``_``
_FIELD_KEYS = {
    "n_detected": "n", "signal_fidelity": "fs", "background_mean": "bg",
    "samples": "samples", "master_seed": "seed", "confidence": "confidence",
    "pulse_rate_hz": "pulse_rate", "mean_photon_number": "mu",
    "channel_transmission": "eta", "vacuum_yield": "y0",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(parser, args)
    except ConfigError as exc:
        # raised before any output is written
        _config_error(parser, getattr(args, "from_manifest", None), _FIELD_KEYS[exc.field], exc)
    except (SchemaError, FitError, InsufficientCountsError) as exc:
        # a fit or a reconstruction fails only on what its input file holds: bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # a path given on the command line is bad input, like any other
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except PolalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
