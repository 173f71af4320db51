import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polalign as pa
from polalign import cli
from polalign.tomography import Direction

from conftest import exact_count_matrix, haar_channel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: a child interpreter tests the tree on PYTHONPATH, as this one does; this checkout if unset
CHILD_ENV = dict(os.environ, PYTHONPATH=os.environ.get("PYTHONPATH") or SRC)

SWEEP_ROWS = [
    "forward,400,1,0,false,10,0,0.004,0.003",
    "forward,1600,1,0,false,10,0,0.001,0.001",
    "forward,400,0.9,0,false,10,0,0.006,0.004",
    "forward,1600,0.9,0,false,10,0,0.0016,0.001",
]


def run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_rejected(argv, capsys, match):
    code, _out, err = run(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert match in err


def write_csv(path, rows):
    path.write_text("\n".join([cli.SWEEP_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return str(path)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_json_with_long_int(path, payload, marker):
    """``payload`` as JSON with the number ``marker`` spelt as a 5001-digit integer.

    ``json`` refuses to parse integers past 4300 digits with a plain
    ValueError, and refuses to write one.
    """
    text = json.dumps(payload)
    assert text.count(str(marker)) == 1
    path.write_text(text.replace(str(marker), "1" + "0" * 5000), encoding="utf-8")
    return str(path)


@pytest.fixture
def count_file(tmp_path):
    u = haar_channel(np.random.default_rng(3))
    counts = np.round(exact_count_matrix(u, Direction.FORWARD).counts).astype(int)
    write_json(tmp_path / "counts.json", {
        "schema_version": 1, "direction": "forward",
        "row_labels": list(pa.BB84_LABELS), "column_labels": list(pa.ALL_LABELS),
        "counts": counts.tolist(),
    })
    return tmp_path / "counts.json"


class TestFit:
    def test_csv_fits(self, tmp_path, capsys):
        code, out, _err = run(["fit", "--in", write_csv(tmp_path / "s.csv", SWEEP_ROWS)], capsys)
        assert code == 0
        assert "cells used: 4" in out

    def test_selection(self, tmp_path, capsys):
        rows = SWEEP_ROWS + ["forward,100,1,0,false,10,0,0.02,0.01",
                             "reversed,400,1,0,false,10,0,0.005,0.003"]
        path = write_csv(tmp_path / "s.csv", rows)
        code, out, _err = run(["fit", "--in", path, "--direction", "forward", "--min-n", "400"],
                              capsys)
        assert code == 0
        assert out.splitlines()[-1] == "cells used: 4 (direction=forward, min-n=400)"
        _code, plain, _err = run(["fit", "--in", write_csv(tmp_path / "p.csv", SWEEP_ROWS)],
                                 capsys)
        assert out.splitlines()[:-1] == plain.splitlines()[:-1]
        assert plain.splitlines()[-1] == "cells used: 4 (all cells)"

    def test_json_missing_key(self, tmp_path, capsys):
        cells = [dict(zip(cli.SWEEP_CSV_HEADER.split(","), row.split(","))) for row in SWEEP_ROWS]
        del cells[1]["mean_qber"]
        path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], capsys, "no 'mean_qber'")

    def test_json_integer_past_digit_limit_rejected(self, tmp_path, capsys):
        cells = [dict(zip(cli.SWEEP_CSV_HEADER.split(","), row.split(","))) for row in SWEEP_ROWS]
        cells[1]["n"] = 987654321
        path = write_json_with_long_int(tmp_path / "s.json", {"schema_version": 1,
                                                               "cells": cells}, 987654321)
        assert_rejected(["fit", "--in", path], capsys, "not valid JSON")

    def test_json_without_cells(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"schema_version": 1})
        assert_rejected(["fit", "--in", path], capsys, "'cells' list")

    def test_subnormal_mean_fails_with_message(self, tmp_path, capsys):
        rows = list(SWEEP_ROWS)
        rows[1] = "forward,1600,1,0,false,10,0,1e-320,0.001"
        code, _out, err = run(["fit", "--in", write_csv(tmp_path / "s.csv", rows)], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert "error: fit produced non-finite alpha" in err

    @pytest.mark.parametrize("form", ["csv", "json"])
    @pytest.mark.parametrize(
        "row,match",
        [
            ("forward,0,1,0,false,10,0,0.004,0.003", "error: cell (n=0, fs=1.0) has N < 1"),
            ("forward,-5,1,0,false,10,0,0.004,0.003", "error: cell (n=-5, fs=1.0) has N < 1"),
            ("forward,400,1.5,0,false,10,0,0.004,0.003", "error: cell (n=400, fs=1.5) has F_S > 1"),
            pytest.param(f"forward,{10**400},1,0,false,10,0,0.004,0.003",
                         "has N beyond float range", id="n=10**400"),
        ],
    )
    def test_cell_outside_model_domain_rejected(self, tmp_path, capsys, form, row, match):
        rows = SWEEP_ROWS + [row]
        if form == "csv":
            path = write_csv(tmp_path / "s.csv", rows)
        else:
            keys = cli.SWEEP_CSV_HEADER.split(",")
            cells = [dict(zip(keys, r.split(","))) for r in rows]
            path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], capsys, match)

    def test_too_few_cells_rejected(self, tmp_path, capsys):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS[:3])
        assert_rejected(["fit", "--in", path], capsys, "error: need at least four cells")

    def test_no_spread_rejected(self, tmp_path, capsys):
        rows = [row.replace(",1600,", ",400,") for row in SWEEP_ROWS]
        path = write_csv(tmp_path / "s.csv", rows)
        assert_rejected(["fit", "--in", path], capsys, "error: no spread in the photon-number")

    @pytest.mark.parametrize("flag", ["--min-fs", "--max-fs"])
    def test_non_finite_fidelity_bound_rejected(self, tmp_path, capsys, flag):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS)
        assert_rejected(["fit", "--in", path, flag, "nan"], capsys,
                        f"{flag}: nan must be a finite number")

    @pytest.mark.parametrize(
        "row,match",
        [
            ("sideways,400,1,0,false,10,0,0.004,0.003", "bad direction 'sideways'"),
            ("forward,abc,1,0,false,10,0,0.004,0.003", "bad n 'abc'"),
            ("forward,400,nan,0,false,10,0,0.004,0.003", "bad fs 'nan'"),
            ("forward,400,1,0,maybe,10,0,0.004,0.003", "bad bg_subtract 'maybe'"),
            ("forward,400,1,0,false,10,0,0.004", "malformed sweep row"),
        ],
    )
    def test_malformed_csv_row(self, tmp_path, capsys, row, match):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS + [row])
        assert_rejected(["fit", "--in", path], capsys, match)


class TestSimulate:
    ARGS = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.9,0.95",
            "--samples", "300", "--seed", "7"]

    def test_output_identical_at_any_jobs(self, tmp_path, capsys):
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}.csv"
            code, _out, _err = run(self.ARGS + ["--jobs", str(jobs), "--out", str(out)], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 3

    def test_unwritable_output_rejected_before_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(**_kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = str(tmp_path / "no-such-dir" / "sweep.csv")
        assert_rejected(self.ARGS + ["--jobs", "1", "--out", out], capsys, f"cannot open {out}")
        # a writable path reaches the sweep and is left as it was
        existing, fresh = tmp_path / "sweep.csv", tmp_path / "new.csv"
        existing.write_text("kept\n", encoding="utf-8")
        for path in (existing, fresh):
            with pytest.raises(AssertionError, match="the sweep ran"):
                cli.main(self.ARGS + ["--jobs", "1", "--out", str(path)])
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert not fresh.exists()

    def test_jobs_zero_rejected(self, tmp_path, capsys):
        argv = self.ARGS + ["--jobs", "0", "--out", str(tmp_path / "s.csv")]
        assert_rejected(argv, capsys, "--jobs: 0 must be >= 1")

    def test_manifest_replays(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        argv = ["simulate", "--direction", "reversed", "--n", "400", "--fs", "0.95",
                "--samples", "3", "--seed", "1", "--jobs", "1", "--out", str(first)]
        assert run(argv, capsys)[0] == 0
        second = tmp_path / "b.csv"
        replay = ["simulate", "--from-manifest", str(first) + ".manifest.json",
                  "--jobs", "1", "--out", str(second)]
        assert run(replay, capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "change,match",
        [
            (dict(samples=-3), "samples: samples must be >= 1, got -3"),
            (dict(samples=None), "samples: missing"),
            (dict(n=[400, "x"]), "n: 'x' is not a valid integer"),
            (dict(fs=[1.5]), "fs: signal fidelity must be in [0.5, 1], got 1.5"),
            (dict(direction="sideways"), "direction: 'sideways'"),
            (dict(sample=3), "unknown keys ['sample']"),
            (dict(seed=-1), "seed: master seed must be >= 0, got -1"),
        ],
    )
    def test_bad_manifest_rejected(self, tmp_path, capsys, change, match):
        config = {"direction": "forward", "n": [400], "fs": [0.95], "bg": [0.0],
                  "bg_subtract": False, "samples": 3, "seed": 1, "format": "csv",
                  "out": str(tmp_path / "s.csv")}
        config.update(change)
        config = {k: v for k, v in config.items() if v is not None}
        path = write_json(tmp_path / "m.json", {"config": config})
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"], capsys, match)
        assert not (tmp_path / "s.csv").exists()

    def test_budget_above_int64_rejected(self, tmp_path, capsys):
        argv = ["simulate", "--direction", "forward", "--n", "100000000000000000000",
                "--fs", "0.95", "--samples", "1", "--seed", "1", "--jobs", "1",
                "--out", str(tmp_path / "s.csv")]
        assert_rejected(argv, capsys,
                        "--n: detection budget 100000000000000000000 is above the largest")

    @pytest.mark.parametrize("flags,match", [
        (["--direction", "forward", "--n", "3"], "--n: forward trials need at least 4 detections"),
        (["--direction", "reversed", "--n", "5"],
         "--n: reversed trials need at least 6 detections"),
        (["--fs", "nan"], "--fs: signal fidelity must be in [0.5, 1], got nan"),
        (["--bg", "-1"], "--bg: background mean must be in [0, 9.22337e+18], got -1.0"),
        (["--samples", "0"], "--samples: samples must be >= 1, got 0"),
        (["--seed", "-1"], "--seed: master seed must be >= 0, got -1"),
    ])
    def test_grid_out_of_range_rejected_without_output(self, tmp_path, capsys, flags, match):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out), *flags]
        assert_rejected(argv, capsys, match)
        assert not out.exists()
        unwritable = str(tmp_path / "no-such-dir" / "s.csv")
        assert_rejected(argv + ["--out", unwritable], capsys, f"cannot open {unwritable}")

    @pytest.mark.parametrize("bg", ["1e19", "1e300"])
    def test_background_above_sampler_limit_rejected(self, tmp_path, capsys, bg):
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--bg", bg, "--samples", "1", "--seed", "1", "--jobs", "1",
                "--out", str(tmp_path / "s.csv")]
        assert_rejected(argv, capsys,
                        f"--bg: background mean must be in [0, 9.22337e+18], got {float(bg)!r}")

    def test_manifest_background_above_sampler_limit_rejected(self, tmp_path, capsys):
        config = {"direction": "reversed", "n": [400], "fs": [0.95], "bg": [1e19],
                  "bg_subtract": False, "samples": 3, "seed": 1, "format": "csv",
                  "out": str(tmp_path / "s.csv")}
        path = write_json(tmp_path / "m.json", {"config": config})
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"], capsys,
                        "bg: background mean must be in [0, 9.22337e+18], got 1e+19")

    @pytest.mark.parametrize("key", ["fs", "bg"])
    def test_manifest_number_past_float_range_rejected(self, tmp_path, capsys, key):
        config = {"direction": "forward", "n": [400], "fs": [0.95], "bg": [0.0],
                  "bg_subtract": False, "samples": 3, "seed": 1, "format": "csv",
                  "out": str(tmp_path / "s.csv")}
        config[key] = [10**400]
        path = write_json(tmp_path / "m.json", {"config": config})
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"], capsys,
                        f"{key}: 1{'0' * 400} is not a valid number")

    def test_manifest_integer_past_digit_limit_rejected(self, tmp_path, capsys):
        config = {"direction": "forward", "n": [400], "fs": [0.95], "bg": [0.0],
                  "bg_subtract": False, "samples": 987654321, "seed": 1, "format": "csv",
                  "out": str(tmp_path / "s.csv")}
        path = write_json_with_long_int(tmp_path / "m.json", {"config": config}, 987654321)
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"], capsys,
                        "--from-manifest: cannot read")

    @pytest.mark.parametrize("flags", [["--direction", "reversed"], ["--n", "6400"],
                                       ["--fs", "0.9"], ["--bg", "0"], ["--bg-subtract"],
                                       ["--samples", "500"], ["--seed", "2"],
                                       ["--format", "csv"], ["--samples", "500", "--n", "6400"]])
    def test_manifest_with_config_flags_rejected(self, tmp_path, capsys, flags):
        config = {"direction": "forward", "n": [400], "fs": [0.95], "bg": [0.0],
                  "bg_subtract": False, "samples": 3, "seed": 1, "format": "csv",
                  "out": str(tmp_path / "s.csv")}
        path = write_json(tmp_path / "m.json", {"config": config})
        out = tmp_path / "b.csv"
        code, _out, err = run(["simulate", "--from-manifest", path, "--jobs", "1", *flags,
                               "--out", str(out)], capsys)
        assert code == 2
        _, _, named = err.partition("--from-manifest: cannot be given with ")
        assert all(flag in named for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_manifest_without_config(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [1, 2])
        assert_rejected(["simulate", "--from-manifest", path], capsys, "no config block")


#: hand-built cells: non-integral F_S and background, subtraction, no std, a large N
PINNED_CELLS = (
    pa.SweepCell(Direction.FORWARD, 400, 0.95, 12.5, True, 250, 1, 0.012345678901234,
                 0.0034567890123456),
    pa.SweepCell(Direction.REVERSED, 9223372036854775807, 1.0, 0.0, False, 1, 0, 1.5e-10, None),
    pa.SweepCell(Direction.FORWARD, 6400, 0.8123456789, 1e-5, False, 2, 0, 0.25, 0.0),
)
PINNED_CSV = """\
direction,n,fs,bg_mean,bg_subtract,samples,failures,mean_qber,std_qber
forward,400,0.95,12.5,true,250,1,0.0123456789,0.00345678901
reversed,9223372036854775807,1,0,false,1,0,1.5e-10,
forward,6400,0.812345679,1e-05,false,2,0,0.25,0
"""
PINNED_JSON = """\
{
 "schema_version": 1,
 "cells": [
  {
   "direction": "forward",
   "n": 400,
   "fs": 0.95,
   "bg_mean": 12.5,
   "bg_subtract": true,
   "samples": 250,
   "failures": 1,
   "mean_qber": 0.0123456789,
   "std_qber": 0.00345678901
  },
  {
   "direction": "reversed",
   "n": 9223372036854775807,
   "fs": 1.0,
   "bg_mean": 0.0,
   "bg_subtract": false,
   "samples": 1,
   "failures": 0,
   "mean_qber": 1.5e-10,
   "std_qber": null
  },
  {
   "direction": "forward",
   "n": 6400,
   "fs": 0.812345679,
   "bg_mean": 1e-05,
   "bg_subtract": false,
   "samples": 2,
   "failures": 0,
   "mean_qber": 0.25,
   "std_qber": 0.0
  }
 ]
}
"""


class TestSweepFormat:
    """The bytes ``simulate`` writes for given cells, and reading them back."""

    def simulate(self, tmp_path, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "run_sweep", lambda **_kwargs: pa.SweepResult(PINNED_CELLS))
        out = tmp_path / f"sweep.{fmt}"
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--format", fmt,
                "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        return out

    def test_csv_bytes(self, tmp_path, capsys, monkeypatch):
        out = self.simulate(tmp_path, capsys, monkeypatch, "csv")
        assert out.read_bytes() == PINNED_CSV.encode("utf-8")

    def test_json_bytes(self, tmp_path, capsys, monkeypatch):
        out = self.simulate(tmp_path, capsys, monkeypatch, "json")
        assert out.read_bytes() == PINNED_JSON.encode("utf-8")

    def test_csv_value_is_the_nine_digit_text_of_the_json_value(self, tmp_path, capsys,
                                                                monkeypatch):
        # any finite double, subnormals included, rounded to nine digits and
        # written at nine digits gives the text of the double itself
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63 - 2**52, size=2000, dtype=np.int64)  # finite, >= 0
        values = [float(x) for x in bits.view(np.float64)] + [5e-324, 1e-320, sys.float_info.max]
        cells = [pa.SweepCell(Direction.FORWARD, 400, 0.95, 0.0, False, 2, 0, x, x)
                 for x in values]
        monkeypatch.setattr(cli, "run_sweep", lambda **_kwargs: pa.SweepResult(tuple(cells)))
        out = tmp_path / "bits.csv"
        assert run(["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                    "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out)],
                   capsys)[0] == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [f"forward,400,0.95,0,false,2,0,{x:.9g},{x:.9g}" for x in values]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_read_back_at_nine_digits(self, tmp_path, capsys, monkeypatch, fmt):
        out = self.simulate(tmp_path, capsys, monkeypatch, fmt)

        def nine_digits(x):
            return None if x is None else float(f"{x:.9g}")

        expected = [
            pa.SweepCell(c.direction, c.n_detected, nine_digits(c.signal_fidelity),
                         nine_digits(c.background_mean), c.subtract_background, c.samples,
                         c.failures, nine_digits(c.mean_qber), nine_digits(c.std_qber))
            for c in PINNED_CELLS
        ]
        assert cli.read_sweep_file(str(out)) == expected


class TestCountFiles:
    def test_round_trip_with_reordered_labels(self, tmp_path, count_file):
        cm = cli.load_count_file(count_file)
        payload = json.loads(count_file.read_text())
        payload["column_labels"] = payload["column_labels"][::-1]
        payload["counts"] = [row[::-1] for row in payload["counts"]]
        reordered = write_json(tmp_path / "r.json", payload)
        again = cli.load_count_file(reordered)
        np.testing.assert_array_equal(again.counts, cm.counts)

    @pytest.mark.parametrize("metadata", [[], 0, "", False, None, 5, "lab"])
    def test_metadata_must_be_an_object(self, tmp_path, capsys, count_file, metadata):
        payload = json.loads(count_file.read_text())
        payload["metadata"] = metadata
        path = write_json(tmp_path / "meta.json", payload)
        assert_rejected(["align", "--counts", path], capsys, "metadata must be an object")

    def test_metadata_object_accepted(self, tmp_path, capsys, count_file):
        payload = json.loads(count_file.read_text())
        payload["metadata"] = {"site": "lab", "run": 3}
        path = write_json(tmp_path / "meta.json", payload)
        assert run(["align", "--counts", path], capsys)[0] == 0

    def test_non_string_labels_rejected(self, tmp_path, capsys, count_file):
        payload = json.loads(count_file.read_text())
        payload["row_labels"] = [["H"], ["V"], ["D"], ["A"]]
        path = write_json(tmp_path / "bad.json", payload)
        assert_rejected(["align", "--counts", path], capsys, "list of strings")

    def test_align_output(self, capsys, count_file):
        code, out, _err = run(["align", "--counts", str(count_file), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_qber"] < 1e-3

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_count_beyond_float_range_rejected(self, tmp_path, capsys, count_file, command):
        payload = json.loads(count_file.read_text())
        payload["counts"][1][2] = 10**400
        path = write_json(tmp_path / "huge.json", payload)
        assert_rejected([command, "--counts", path], capsys, "counts[1][2] is above 2**53")

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_integer_past_digit_limit_rejected(self, tmp_path, capsys, count_file, command):
        payload = json.loads(count_file.read_text())
        payload["counts"][1][2] = 987654321
        path = write_json_with_long_int(tmp_path / "long.json", payload, 987654321)
        assert_rejected([command, "--counts", path], capsys, "not valid JSON")

    def test_removed_align_flags_rejected(self, capsys, count_file):
        for flag in ("--restarts", "--seed"):
            assert_rejected(["align", "--counts", str(count_file), flag, "3"], capsys,
                            "unrecognized arguments")

    def test_identical_rows_align(self, tmp_path, capsys, count_file):
        # four equal rows reconstruct four equal states: no rotation is
        # preferred, and the prediction is a coin toss
        payload = json.loads(count_file.read_text())
        payload["counts"] = [[30, 10, 20, 20, 5, 5]] * 4
        path = write_json(tmp_path / "same.json", payload)
        code, out, _err = run(["align", "--counts", path, "--format", "json"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["predicted_qber"] == 0.5
        assert all(math.isfinite(a) for a in result["angles_deg"])

    @pytest.mark.parametrize(
        "command,rows,match",
        [
            ("align", [[0] * 6] * 4, "total counts 0 below the minimum 6"),
            ("align", [[30, 10, 20, 20, 0, 0]] * 4, "no counts in the Y basis"),
            ("timing-check", [[0] * 6] * 4, "no detections for input state H"),
        ],
    )
    def test_counts_that_cannot_be_fitted_rejected(self, tmp_path, capsys, count_file,
                                                   command, rows, match):
        payload = json.loads(count_file.read_text())
        payload["counts"] = rows
        path = write_json(tmp_path / "empty.json", payload)
        assert_rejected([command, "--counts", path], capsys, match)

    def test_timing_check_output(self, capsys, count_file):
        code, out, _err = run(["timing-check", "--counts", str(count_file)], capsys)
        assert code == 0
        assert "99% family-wise interval" in out

    def test_timing_check_confidence_not_rounded(self, capsys, count_file):
        code, out, _err = run(["timing-check", "--counts", str(count_file),
                               "--confidence", "0.999"], capsys)
        assert code == 0
        assert "99.9% family-wise interval" in out

    @pytest.mark.parametrize("confidence", ["1", "nan"])
    def test_timing_check_confidence_out_of_range_rejected(self, tmp_path, capsys, count_file,
                                                           confidence):
        out = tmp_path / "verdict.txt"
        assert_rejected(["timing-check", "--counts", str(count_file), "--confidence", confidence,
                         "--out", str(out)], capsys,
                        f"--confidence: confidence must be in (0, 1), got {float(confidence)!r}")
        assert not out.exists()


class TestMissingFiles:
    @pytest.mark.parametrize("argv", [["align", "--counts"], ["timing-check", "--counts"],
                                      ["fit", "--in"]])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent.json")
        assert_rejected(argv + [missing], capsys, f"cannot open {missing}")

    def test_unwritable_output(self, tmp_path, capsys, count_file):
        out = str(tmp_path / "no-such-dir" / "align.txt")
        assert_rejected(["align", "--counts", str(count_file), "--out", out], capsys,
                        f"cannot open {out}")

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestModuleEntryPoint:
    def test_python_m_polalign(self):
        done = subprocess.run(
            [sys.executable, "-m", "polalign", "rate", "--pulse-rate", "1e6", "--mu", "0.5",
             "--eta", "0.1"],
            env=CHILD_ENV, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("expected detection rate:")

    def test_runtime_never_imports_scipy(self, tmp_path, count_file):
        # scipy is a test dependency only: no subcommand may load it
        sweep = write_csv(tmp_path / "fit.csv", SWEEP_ROWS)
        script = f"""
import sys
from polalign.cli import main
for argv in (
    ["rate", "--pulse-rate", "1e8", "--mu", "0.5", "--loss-db", "20"],
    ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95", "--samples", "3",
     "--seed", "1", "--jobs", "1", "--out", {str(tmp_path / "sweep.csv")!r}],
    ["fit", "--in", {sweep!r}],
    ["align", "--counts", {str(count_file)!r}],
    ["timing-check", "--counts", {str(count_file)!r}],
):
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        done = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestRate:
    @pytest.mark.parametrize("flag,match", [
        ("--pulse-rate", "pulse rate must be finite and >= 0 Hz, got nan"),
        ("--mu", "mean photon number must be finite and >= 0, got nan"),
        ("--eta", "channel transmission must be in [0, 1], got nan"),
        ("--y0", "vacuum yield must be in [0, 1], got nan"),
    ], ids=["--pulse-rate", "--mu", "--eta", "--y0"])
    def test_non_finite_rejected(self, capsys, flag, match):
        values = {"--pulse-rate": "1e6", "--mu": "0.1", "--eta": "0.5", "--y0": "0"}
        values[flag] = "nan"
        argv = ["rate"] + [x for item in values.items() for x in item]
        assert_rejected(argv, capsys, f"{flag}: {match}")

    def test_subnormal_rate_is_not_zero(self, capsys):
        # 400 / rate overflows to inf, but the rate itself is positive
        code, out, _err = run(["rate", "--pulse-rate", "1e-320", "--mu", "1", "--eta", "1"],
                              capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("expected detection rate: 6.3")
        assert "zero rate" not in out

    @pytest.mark.parametrize("pulse_rate,positive", [("1e-320", True), ("0", False)])
    def test_json_tells_zero_rate_from_positive(self, capsys, pulse_rate, positive):
        # JSON has no inf: null is its one spelling of "no finite time", and
        # rate_hz beside it tells a subnormal rate from a zero one
        code, out, _err = run(["rate", "--pulse-rate", pulse_rate, "--mu", "1", "--eta", "1",
                               "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rate_hz"] > 0 if positive else payload["rate_hz"] == 0
        assert payload["seconds_to_400_detections"] is None

    def test_rate(self, capsys):
        code, out, _err = run(["rate", "--pulse-rate", "1e6", "--mu", "0.1", "--eta", "0.01",
                               "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rate_hz"] == pytest.approx(1e6 * (1 - math.exp(-1e-3)))
