import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polalign as pa
from polalign import cli
from polalign.tomography import COLUMN_LABELS, ROW_LABELS, Direction

from conftest import exact_count_matrix, haar_channel
from golden.run import check, run_in_process, run_table

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: a child interpreter tests the tree on PYTHONPATH, as this one does; this checkout if unset
CHILD_ENV = dict(os.environ, PYTHONPATH=os.environ.get("PYTHONPATH") or SRC)

SWEEP_ROWS = [
    "forward,400,1,0,false,10,0,0.004,0.003",
    "forward,1600,1,0,false,10,0,0.001,0.001",
    "forward,400,0.9,0,false,10,0,0.006,0.004",
    "forward,1600,0.9,0,false,10,0,0.0016,0.001",
]


def run(argv, code=0):
    """(stdout, stderr) of one in-process CLI call, checked as a golden case that exits ``code``."""
    result = run_in_process(argv)
    assert check({"exit": code}, result) == [], result
    return result[1:3]


def assert_rejected(argv, match):
    assert match in run(argv, 2)[1]


def write_csv(path, rows):
    path.write_text("\n".join([cli.SWEEP_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    return str(path)


def json_cell(row: str) -> dict:
    """A CSV sweep row as a JSON record of real JSON values: numbers, booleans, null."""
    def value(text):
        if text == "":
            return None
        try:
            return json.loads(text)
        except ValueError:  # the direction, a bare word
            return text

    return dict(zip(cli.SWEEP_CSV_HEADER.split(","), map(value, row.split(","))))


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_manifest(path, config):
    """A simulate manifest holding ``config``, in the v1 format."""
    return write_json(path, {"schema_version": 1, "config": config})


def manifest_config(path, **change) -> dict:
    """A one-cell forward sweep's manifest config, writing to ``path``, with ``change`` made."""
    return {"direction": "forward", "n": [400], "fs": [0.95], "bg": [0.0], "bg_subtract": False,
            "samples": 3, "seed": 1, "format": "csv", "out": str(path), **change}


def write_json_with_long_int(path, payload, marker):
    """``payload`` as JSON with the number ``marker`` spelt as a 5001-digit integer.

    ``json`` refuses to parse integers past 4300 digits with a plain
    ValueError, and refuses to write one.
    """
    text = json.dumps(payload)
    assert text.count(str(marker)) == 1
    path.write_text(text.replace(str(marker), "1" + "0" * 5000), encoding="utf-8")
    return str(path)


def count_payload(direction: Direction) -> dict:
    """A count file's contents: rounded noiseless counts of one Haar channel, canonical labels."""
    u = haar_channel(np.random.default_rng(3))
    counts = np.round(exact_count_matrix(u, direction).counts).astype(int)
    return {"schema_version": 1, "direction": direction.value,
            "row_labels": list(ROW_LABELS[direction]),
            "column_labels": list(COLUMN_LABELS[direction]), "counts": counts.tolist()}


#: the golden table's forward count file whose row A holds counts of 2**50, one R count and no L
SCALE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs",
                          "scale.json")


@pytest.fixture
def count_file(tmp_path):
    write_json(tmp_path / "counts.json", count_payload(Direction.FORWARD))
    return tmp_path / "counts.json"


class TestFit:
    def test_csv_fits(self, tmp_path):
        out, _err = run(["fit", "--in", write_csv(tmp_path / "s.csv", SWEEP_ROWS)])
        assert "cells used: 4" in out

    def test_selection(self, tmp_path):
        rows = SWEEP_ROWS + ["forward,100,1,0,false,10,0,0.02,0.01",
                             "reversed,400,1,0,false,10,0,0.005,0.003"]
        path = write_csv(tmp_path / "s.csv", rows)
        out, _err = run(["fit", "--in", path, "--direction", "forward", "--min-n", "400"])
        assert out.splitlines()[-1] == "cells used: 4 (direction=forward, min-n=400)"
        plain, _err = run(["fit", "--in", write_csv(tmp_path / "p.csv", SWEEP_ROWS)])
        assert out.splitlines()[:-1] == plain.splitlines()[:-1]
        assert plain.splitlines()[-1] == "cells used: 4 (all cells)"

    def test_json_output(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS)
        out, _err = run(["fit", "--in", path, "--format", "json"])
        fit = pa.fit_power_law(cli.read_sweep_file(path))
        assert json.loads(out) == {"alpha": fit.alpha, "beta": fit.beta, "gamma": fit.gamma,
                                   "r_squared": fit.r_squared, "cells_used": 4,
                                   "selection": "all cells"}

    @pytest.mark.parametrize("content,match", [
        (b"direction,n\n\xff\xfe\n", "not UTF-8 text"),
        (b"direction,n\nforward,400\n", "missing sweep CSV header"),
        (b"\n\n", "missing sweep CSV header"),
    ])
    def test_unreadable_sweep_file_rejected(self, tmp_path, content, match):
        path = tmp_path / "s.csv"
        path.write_bytes(content)
        assert_rejected(["fit", "--in", str(path)], match)

    @pytest.mark.parametrize("n,match", [(400.0, "bad n 400.0"), (True, "bad n True")])
    def test_json_n_not_an_integer_rejected(self, tmp_path, n, match):
        cells = [json_cell(row) for row in SWEEP_ROWS]
        cells[1]["n"] = n
        path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], f"cell 1: {match}")

    @pytest.mark.parametrize("key,text", [
        ("n", "400"), ("fs", "1"), ("bg_mean", "0"), ("bg_subtract", "false"),
        ("samples", "10"), ("failures", "0"), ("mean_qber", "0.001"), ("std_qber", "0.001"),
    ])
    def test_json_string_for_a_value_rejected(self, tmp_path, key, text):
        # JSON values are read by their JSON type: the CSV spelling as a string fails
        cells = [json_cell(row) for row in SWEEP_ROWS]
        cells[1][key] = text
        path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], f"cell 1: bad {key} {text!r}")

    #: what a JSON sweep reads for each key of ten values: a str is no number, a bool no
    #: integer, and a real number is in float range; NaN reads, and the fit's check refuses it
    VALUES = [400, 400.0, True, "400", None, [400], 10**400, -0.0, math.nan, 0.95]
    ACCEPTED = {
        "direction": [], "n": [400, 10**400], "fs": [400, 400.0, -0.0, 0.95],
        "bg_mean": [400, 400.0, -0.0, 0.95], "bg_subtract": [True],
        "samples": [400, 10**400], "failures": [400, 10**400],
        "mean_qber": [400, 400.0, -0.0, 0.95], "std_qber": [400, 400.0, None, -0.0, 0.95],
    }

    @pytest.mark.parametrize("key", ACCEPTED)
    def test_json_value_read_by_the_one_number_rule(self, tmp_path, key):
        for value in self.VALUES:
            cells = [json_cell(SWEEP_ROWS[0])]
            cells[0][key] = value
            path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
            accepted = any(type(value) is type(x) and value == x for x in self.ACCEPTED[key])
            if accepted:
                [cell] = cli.read_sweep_file(path)
                assert getattr(cell, cli._SWEEP_FIELDS[key][0]) == value
            else:
                with pytest.raises(pa.SchemaError) as caught:
                    cli.read_sweep_file(path)
                assert str(caught.value) == f"{path}: cell 0: bad {key} {value!r}"

    def test_json_schema_version_read_by_the_one_integer_rule(self, tmp_path):
        cells = [json_cell(row) for row in SWEEP_ROWS]
        for version in self.VALUES + [1.0, 1]:
            path = write_json(tmp_path / "s.json", {"schema_version": version, "cells": cells})
            if version == 1 and type(version) is int:
                assert len(cli.read_sweep_file(path)) == 4
            else:
                with pytest.raises(pa.SchemaError, match="unsupported schema_version"):
                    cli.read_sweep_file(path)

    def test_json_missing_key(self, tmp_path):
        cells = [json_cell(row) for row in SWEEP_ROWS]
        del cells[1]["mean_qber"]
        path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], "no 'mean_qber'")

    def test_json_integer_past_digit_limit_rejected(self, tmp_path):
        cells = [json_cell(row) for row in SWEEP_ROWS]
        cells[1]["n"] = 987654321
        path = write_json_with_long_int(tmp_path / "s.json", {"schema_version": 1,
                                                               "cells": cells}, 987654321)
        assert_rejected(["fit", "--in", path], "not valid JSON")

    @pytest.mark.parametrize("version", [99, True, 1.0, None])
    def test_json_schema_version_checked(self, tmp_path, version):
        payload = {"cells": [json_cell(row) for row in SWEEP_ROWS]}
        if version is not None:
            payload["schema_version"] = version
        path = write_json(tmp_path / "s.json", payload)
        assert_rejected(["fit", "--in", path], f"{path}: unsupported schema_version {version!r}")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_with_subtraction_still_fit(self, tmp_path, fmt):
        # sweeps run with subtraction before it was removed from simulate
        rows = [row.replace(",false,", ",true,") for row in SWEEP_ROWS]
        if fmt == "csv":
            path = write_csv(tmp_path / "s.csv", rows)
        else:
            path = write_json(tmp_path / "s.json",
                              {"schema_version": 1, "cells": [json_cell(r) for r in rows]})
        assert all(c.subtract_background for c in cli.read_sweep_file(path))
        out, _err = run(["fit", "--in", path])
        assert "cells used: 4 (all cells)" in out

    def test_json_without_cells(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"schema_version": 1})
        assert_rejected(["fit", "--in", path], "'cells' list")

    def test_subnormal_mean_fails_with_message(self, tmp_path):
        rows = list(SWEEP_ROWS)
        rows[1] = "forward,1600,1,0,false,10,0,1e-320,0.001"
        assert_rejected(["fit", "--in", write_csv(tmp_path / "s.csv", rows)],
                        "error: fit produced non-finite alpha")

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
    def test_cell_outside_model_domain_rejected(self, tmp_path, form, row, match):
        rows = SWEEP_ROWS + [row]
        if form == "csv":
            path = write_csv(tmp_path / "s.csv", rows)
        else:
            cells = [json_cell(r) for r in rows]
            path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], match)

    def test_too_few_cells_rejected(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS[:3])
        assert_rejected(["fit", "--in", path], "error: need at least four cells")

    def test_no_spread_rejected(self, tmp_path):
        rows = [row.replace(",1600,", ",400,") for row in SWEEP_ROWS]
        path = write_csv(tmp_path / "s.csv", rows)
        assert_rejected(["fit", "--in", path], "error: no spread in the photon-number")

    @pytest.mark.parametrize("flag", ["--min-fs", "--max-fs"])
    def test_non_finite_fidelity_bound_rejected(self, tmp_path, flag):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS)
        assert_rejected(["fit", "--in", path, flag, "nan"], f"{flag}: nan must be a finite number")

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
    def test_malformed_csv_row(self, tmp_path, row, match):
        path = write_csv(tmp_path / "s.csv", SWEEP_ROWS + [row])
        assert_rejected(["fit", "--in", path], match)


class TestSimulate:
    ARGS = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.9,0.95",
            "--samples", "300", "--seed", "7"]

    def test_output_identical_at_any_jobs(self, tmp_path):
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}.csv"
            run(self.ARGS + ["--jobs", str(jobs), "--out", str(out)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 3

    def test_unwritable_output_rejected_before_sweep(self, tmp_path, monkeypatch):
        def no_sweep(**_kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = str(tmp_path / "no-such-dir" / "sweep.csv")
        assert_rejected(self.ARGS + ["--jobs", "1", "--out", out], f"cannot open {out}")
        # a writable path reaches the sweep and is left as it was
        existing, fresh = tmp_path / "sweep.csv", tmp_path / "new.csv"
        existing.write_text("kept\n", encoding="utf-8")
        for path in (existing, fresh):
            with pytest.raises(AssertionError, match="the sweep ran"):
                cli.main(self.ARGS + ["--jobs", "1", "--out", str(path)])
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert not fresh.exists()

    def test_out_of_memory_reported(self, tmp_path, monkeypatch):
        # a sweep too large to hold (here planted) ends in a message, not a traceback
        def no_memory(**_kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_sweep", no_memory)
        out = tmp_path / "s.csv"
        _out, err = run(self.ARGS + ["--jobs", "1", "--out", str(out)], 1)
        assert err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_jobs_zero_rejected(self, tmp_path):
        # the library's range check, named by its flag with or without a manifest
        out = tmp_path / "s.csv"
        assert_rejected(self.ARGS + ["--jobs", "0", "--out", str(out)],
                        "--jobs: jobs must be >= 1, got 0")
        assert not out.exists()
        path = write_manifest(tmp_path / "m.json", manifest_config(out))
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "0"],
                        "--jobs: jobs must be >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("dropped", ["--direction", "--samples", "--out"])
    def test_missing_flag_rejected(self, tmp_path, dropped):
        argv = self.ARGS + ["--jobs", "1", "--out", str(tmp_path / "s.csv")]
        i = argv.index(dropped)
        del argv[i:i + 2]
        assert_rejected(argv, f"missing required flags: {dropped}")

    @pytest.mark.parametrize("n,match", [("4x", "--n: '4x' is not a valid integer"),
                                         (",", "--n: expected at least one integer")])
    def test_bad_list_rejected(self, tmp_path, n, match):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--direction", "forward", "--n", n, "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out)]
        assert_rejected(argv, match)
        assert not out.exists()

    def test_empty_list_entries_skipped(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--direction", "forward", "--n", "400,,1600", "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out)]
        run(argv)
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["n"] == [400, 1600]
        assert [c.n_detected for c in cli.read_sweep_file(str(out))] == [400, 1600]

    def test_failed_cell_aborts_without_output(self, tmp_path):
        # ten detections leave some basis of some input empty in every trial
        out = tmp_path / "s.csv"
        argv = ["simulate", "--direction", "forward", "--n", "10", "--fs", "0.95",
                "--samples", "300", "--seed", "1", "--jobs", "1", "--out", str(out)]
        _out, err = run(argv, 1)
        assert "300/300 trials failed, above the 1% tolerance" in err
        assert os.listdir(tmp_path) == []

    def test_manifest_replays(self, tmp_path):
        first = tmp_path / "a.csv"
        argv = ["simulate", "--direction", "reversed", "--n", "400", "--fs", "0.95",
                "--samples", "3", "--seed", "1", "--jobs", "1", "--out", str(first)]
        run(argv)
        second = tmp_path / "b.csv"
        replay = ["simulate", "--from-manifest", str(first) + ".manifest.json",
                  "--jobs", "1", "--out", str(second)]
        run(replay)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "change,match",
        [
            (dict(samples=-3), "samples: samples must be >= 1, got -3"),
            (dict(samples=None), "samples: missing"),
            (dict(n=[400, "x"]), "n: n_detected must be an integer, got 'x'"),
            (dict(fs=[1.5]), "fs: signal fidelity must be in [0.5, 1], got 1.5"),
            (dict(direction="sideways"),
             "direction: direction must be 'forward' or 'reversed', got 'sideways'"),
            (dict(sample=3), "unknown keys ['sample']"),
            (dict(seed=-1), "seed: master seed must be >= 0, got -1"),
            (dict(n=400), "n: sweep grid n_detected must be a list of values, got 400"),
            (dict(fs=[]), "fs: empty sweep grid: no signal_fidelity values"),
            (dict(bg_subtract="yes"), "bg_subtract: 'yes' must be true or false"),
            (dict(samples=2.5), "samples: samples must be an integer, got 2.5"),
            (dict(seed="1"), "seed: master_seed must be an integer, got '1'"),
            (dict(format="xml"), "format: 'xml' must be 'csv' or 'json'"),
            (dict(out=""), "out: '' must be a file path"),
        ],
    )
    def test_bad_manifest_rejected(self, tmp_path, change, match):
        # the keys, the lists and the values the library never sees are this
        # module's to check; every other value goes to the library, which
        # names it by its field, mapped here to its key
        config = manifest_config(tmp_path / "s.csv", **change)
        config = {k: v for k, v in config.items() if v is not None}
        path = write_manifest(tmp_path / "m.json", config)
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"], match)
        assert not (tmp_path / "s.csv").exists()

    def test_budget_above_int64_rejected(self, tmp_path):
        argv = ["simulate", "--direction", "forward", "--n", "100000000000000000000",
                "--fs", "0.95", "--samples", "1", "--seed", "1", "--jobs", "1",
                "--out", str(tmp_path / "s.csv")]
        assert_rejected(argv, "--n: detection budget 100000000000000000000 is above the largest")

    @pytest.mark.parametrize("flags,match", [
        (["--direction", "forward", "--n", "3"], "--n: forward trials need at least 4 detections"),
        (["--direction", "reversed", "--n", "5"],
         "--n: reversed trials need at least 6 detections"),
        (["--fs", "nan"], "--fs: signal fidelity must be in [0.5, 1], got nan"),
        (["--bg", "-1"],
         "--bg: background mean must be in [0, 3.68935e+19] for forward trials, got -1.0"),
        (["--samples", "0"], "--samples: samples must be >= 1, got 0"),
        (["--seed", "-1"], "--seed: master seed must be >= 0, got -1"),
    ])
    def test_grid_out_of_range_rejected_without_output(self, tmp_path, flags, match):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out), *flags]
        assert_rejected(argv, match)
        assert not out.exists()
        unwritable = str(tmp_path / "no-such-dir" / "s.csv")
        assert_rejected(argv + ["--out", unwritable], f"cannot open {unwritable}")

    @pytest.mark.parametrize("bg", ["1e20", "1e300"])
    def test_background_above_sampler_limit_rejected(self, tmp_path, bg):
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--bg", bg, "--samples", "1", "--seed", "1", "--jobs", "1",
                "--out", str(tmp_path / "s.csv")]
        assert_rejected(argv, "--bg: background mean must be in [0, 3.68935e+19] "
                              f"for forward trials, got {float(bg)!r}")

    def test_manifest_background_above_sampler_limit_rejected(self, tmp_path):
        config = manifest_config(tmp_path / "s.csv", direction="reversed", bg=[1e20])
        path = write_manifest(tmp_path / "m.json", config)
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"],
                        "bg: background mean must be in [0, 5.53402e+19] for reversed trials, "
                        "got 1e+20")

    @pytest.mark.parametrize("key", ["fs", "bg"])
    def test_manifest_number_past_float_range_rejected(self, tmp_path, key):
        name = {"fs": "signal_fidelity", "bg": "background_mean"}[key]
        path = write_manifest(tmp_path / "m.json",
                              manifest_config(tmp_path / "s.csv", **{key: [10**400]}))
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"],
                        f"{key}: {name} must be a real number in float range, got 1{'0' * 400}")

    def test_manifest_integer_past_digit_limit_rejected(self, tmp_path):
        config = manifest_config(tmp_path / "s.csv", samples=987654321)
        path = write_json_with_long_int(tmp_path / "m.json",
                                        {"schema_version": 1, "config": config}, 987654321)
        _out, err = run(["simulate", "--from-manifest", path, "--jobs", "1"], 2)
        assert err.startswith(f"error: {path}: not valid JSON")
        assert "usage:" not in err

    @pytest.mark.parametrize("flags", [["--direction", "reversed"], ["--n", "6400"],
                                       ["--fs", "0.9"], ["--bg", "0"], ["--bg-subtract"],
                                       ["--samples", "500"], ["--seed", "2"],
                                       ["--format", "csv"], ["--samples", "500", "--n", "6400"]])
    def test_manifest_with_config_flags_rejected(self, tmp_path, flags):
        path = write_manifest(tmp_path / "m.json", manifest_config(tmp_path / "s.csv"))
        out = tmp_path / "b.csv"
        _out, err = run(["simulate", "--from-manifest", path, "--jobs", "1", *flags,
                         "--out", str(out)], 2)
        if flags == ["--bg-subtract"]:  # removed: argparse refuses it as an unknown flag
            assert "unrecognized arguments: --bg-subtract" in err
        else:
            _, _, named = err.partition("--from-manifest: cannot be given with ")
            assert all(flag in named for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_manifest_without_config(self, tmp_path):
        path = write_json(tmp_path / "m.json", [1, 2])
        _out, err = run(["simulate", "--from-manifest", path], 2)
        assert err == f"error: {path}: top level must be an object\n"

    @pytest.mark.parametrize("content,message", [
        (b'{"schema_version": 1, "config": "\xff"}', "not UTF-8 text"),
        (b'{"schema_version": 1,', "not valid JSON"),
        (b'{"schema_version": 1}', "has no config block"),
    ], ids=["not UTF-8", "not JSON", "no config"])
    def test_manifest_file_fault_reads_like_any_file(self, tmp_path, content, message):
        # a file fault is no flag's fault: no usage line
        path = tmp_path / "m.json"
        path.write_bytes(content)
        out = tmp_path / "s.csv"
        _out, err = run(["simulate", "--from-manifest", str(path), "--jobs", "1",
                         "--out", str(out)], 2)
        assert err.startswith(f"error: {path}: {message}")
        assert "usage:" not in err
        assert not out.exists()

    def test_bg_subtract_flag_removed(self, tmp_path):
        out = tmp_path / "s.csv"
        assert_rejected(self.ARGS + ["--bg", "20", "--bg-subtract", "--out", str(out)],
                        "unrecognized arguments: --bg-subtract")
        assert not out.exists()

    def test_manifest_with_subtraction_rejected(self, tmp_path):
        # the manifests of sweeps run with subtraction name the key and exit 2
        out = tmp_path / "s.csv"
        path = write_manifest(tmp_path / "m.json",
                              manifest_config(out, bg=[20.0], bg_subtract=True))
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"],
                        f"--from-manifest: {path}: bg_subtract: true, but mean-background "
                        "subtraction was removed from simulate")
        assert not out.exists()

    @pytest.mark.parametrize("version", [99, True, 1.0, "1", None])
    def test_manifest_schema_version_checked(self, tmp_path, version):
        out = tmp_path / "s.csv"
        payload = {"config": manifest_config(out)}
        if version is not None:
            payload["schema_version"] = version
        path = write_json(tmp_path / "m.json", payload)
        assert_rejected(["simulate", "--from-manifest", path, "--jobs", "1"],
                        f"{path}: unsupported schema_version {version!r}")
        assert not out.exists()


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

    def simulate(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(cli, "run_sweep", lambda **_kwargs: pa.SweepResult(PINNED_CELLS))
        out = tmp_path / f"sweep.{fmt}"
        argv = ["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
                "--samples", "1", "--seed", "1", "--jobs", "1", "--format", fmt,
                "--out", str(out)]
        run(argv)
        return out

    def test_csv_bytes(self, tmp_path, monkeypatch):
        out = self.simulate(tmp_path, monkeypatch, "csv")
        assert out.read_bytes() == PINNED_CSV.encode("utf-8")

    def test_json_bytes(self, tmp_path, monkeypatch):
        out = self.simulate(tmp_path, monkeypatch, "json")
        assert out.read_bytes() == PINNED_JSON.encode("utf-8")

    def test_csv_value_is_the_nine_digit_text_of_the_json_value(self, tmp_path, monkeypatch):
        # any finite double, subnormals included, rounded to nine digits and
        # written at nine digits gives the text of the double itself
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63 - 2**52, size=2000, dtype=np.int64)  # finite, >= 0
        values = [float(x) for x in bits.view(np.float64)] + [5e-324, 1e-320, sys.float_info.max]
        cells = [pa.SweepCell(Direction.FORWARD, 400, 0.95, 0.0, False, 2, 0, x, x)
                 for x in values]
        monkeypatch.setattr(cli, "run_sweep", lambda **_kwargs: pa.SweepResult(tuple(cells)))
        out = tmp_path / "bits.csv"
        run(["simulate", "--direction", "forward", "--n", "400", "--fs", "0.95",
             "--samples", "1", "--seed", "1", "--jobs", "1", "--out", str(out)])
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == [f"forward,400,0.95,0,false,2,0,{x:.9g},{x:.9g}" for x in values]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_read_back_at_nine_digits(self, tmp_path, monkeypatch, fmt):
        out = self.simulate(tmp_path, monkeypatch, fmt)

        def nine_digits(x):
            return None if x is None else float(f"{x:.9g}")

        expected = [
            pa.SweepCell(c.direction, c.n_detected, nine_digits(c.signal_fidelity),
                         nine_digits(c.background_mean), c.subtract_background, c.samples,
                         c.failures, nine_digits(c.mean_qber), nine_digits(c.std_qber))
            for c in PINNED_CELLS
        ]
        assert cli.read_sweep_file(str(out)) == expected
        # a pathlib.Path reads as its string does
        assert cli.read_sweep_file(out) == expected


class TestCountFiles:
    def test_round_trip_with_reordered_labels(self, tmp_path, count_file):
        cm = cli.load_count_file(count_file)
        payload = json.loads(count_file.read_text())
        payload["column_labels"] = payload["column_labels"][::-1]
        payload["counts"] = [row[::-1] for row in payload["counts"]]
        reordered = write_json(tmp_path / "r.json", payload)
        again = cli.load_count_file(reordered)
        np.testing.assert_array_equal(again.counts, cm.counts)

    def test_messages_built_only_on_failure(self, monkeypatch):
        # every refusal's message formats the path, and the label refusals the labels:
        # a valid file formats neither, and a file with a repeated label formats both
        formatted = []

        class Path(str):
            def __format__(self, spec):
                formatted.append("path")
                return super().__format__(spec)

        class Listed(list):
            def __repr__(self):
                formatted.append("list")
                return super().__repr__()

        payload = count_payload(Direction.FORWARD)
        expected = np.array(payload["counts"], dtype=float)
        payload["row_labels"] = Listed(payload["row_labels"])
        payload["column_labels"] = Listed(payload["column_labels"])
        payload["counts"] = [Listed(row) for row in payload["counts"]]
        monkeypatch.setattr(cli, "_load_json", lambda path, version: payload)
        cm = cli.load_count_file(Path("counts.json"))
        assert formatted == []
        np.testing.assert_array_equal(cm.counts, expected)
        payload["row_labels"] = Listed(["H", "V", "D", "H"])
        with pytest.raises(pa.SchemaError, match=r"^counts.json: repeated row label in \['H', "):
            cli.load_count_file(Path("counts.json"))
        assert formatted == ["path", "list"]

    @pytest.mark.parametrize("direction", list(Direction))
    def test_shuffled_labels_and_float_counts_load_canonically(self, tmp_path, direction):
        payload = count_payload(direction)
        canonical = np.array(payload["counts"], dtype=float)
        rng = np.random.default_rng(4)
        rows = rng.permutation(len(payload["row_labels"]))
        cols = rng.permutation(len(payload["column_labels"]))
        payload["row_labels"] = [payload["row_labels"][i] for i in rows]
        payload["column_labels"] = [payload["column_labels"][j] for j in cols]
        # a count may be written as an integral float
        payload["counts"] = [[float(canonical[i, j]) if (i + j) % 2 else int(canonical[i, j])
                              for j in cols] for i in rows]
        cm = cli.load_count_file(write_json(tmp_path / "s.json", payload))
        assert cm.direction is direction
        assert cm.counts.dtype == float
        np.testing.assert_array_equal(cm.counts, canonical)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_align_and_timing_check_either_direction(self, tmp_path, direction, fmt):
        path = write_json(tmp_path / "c.json", count_payload(direction))
        out, _err = run(["align", "--counts", path, "--format", fmt])
        if fmt == "json":
            result = json.loads(out)
            assert result["direction"] == direction.value
            assert result["predicted_qber"] < 1e-3
        else:
            assert out.splitlines()[0] == f"direction: {direction.value}"
        out, _err = run(["timing-check", "--counts", path, "--format", fmt])
        verdict = json.loads(out)["verdict"] if fmt == "json" else out.split()[1]
        assert verdict == "polarization_frame_misaligned"
        # the linear block's float sum, as align reports its total
        total = float(cli.load_count_file(path).counts[:4, :4].sum())
        if fmt == "json":
            reported = json.loads(out)["total_counts"]
            assert type(reported) is float and reported == total
        else:
            assert out.splitlines()[-1] == f"counts used: {total:g}"

    @pytest.mark.parametrize("direction", [None, "sideways", "Forward"])
    def test_bad_direction_rejected(self, tmp_path, count_file, direction):
        payload = json.loads(count_file.read_text())
        payload["direction"] = direction
        path = write_json(tmp_path / "bad.json", payload)
        assert_rejected(["align", "--counts", path],
                        f"direction must be 'forward' or 'reversed', got {direction!r}")

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    @pytest.mark.parametrize("value", [-1, 2.5, True, False, "3", None, math.inf])
    def test_count_not_a_nonnegative_integer_rejected(self, tmp_path, count_file, command, value):
        payload = json.loads(count_file.read_text())
        payload["counts"][1][2] = value
        path = write_json(tmp_path / "bad.json", payload)
        assert_rejected([command, "--counts", path],
                        f"counts[1][2] = {value!r} is not a nonnegative integer")

    @pytest.mark.parametrize("metadata", [[], 0, "", False, None, 5, "lab"])
    def test_metadata_must_be_an_object(self, tmp_path, count_file, metadata):
        payload = json.loads(count_file.read_text())
        payload["metadata"] = metadata
        path = write_json(tmp_path / "meta.json", payload)
        assert_rejected(["align", "--counts", path], "metadata must be an object")

    @pytest.mark.parametrize("version", [True, 2, 1.0, "1", None])
    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_schema_version_checked(self, tmp_path, version, command):
        payload = count_payload(Direction.FORWARD)
        payload["schema_version"] = version
        path = write_json(tmp_path / "c.json", payload)
        assert_rejected([command, "--counts", path],
                        f"{path}: unsupported schema_version {version!r}")

    def test_metadata_object_accepted(self, tmp_path, count_file):
        payload = json.loads(count_file.read_text())
        payload["metadata"] = {"site": "lab", "run": 3}
        path = write_json(tmp_path / "meta.json", payload)
        run(["align", "--counts", path])

    def test_non_string_labels_rejected(self, tmp_path, count_file):
        payload = json.loads(count_file.read_text())
        payload["row_labels"] = [["H"], ["V"], ["D"], ["A"]]
        path = write_json(tmp_path / "bad.json", payload)
        assert_rejected(["align", "--counts", path], "list of strings")

    def test_align_output(self, count_file):
        out, _err = run(["align", "--counts", str(count_file), "--format", "json"])
        payload = json.loads(out)
        assert payload["predicted_qber"] < 1e-3

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_count_beyond_float_range_rejected(self, tmp_path, count_file, command):
        payload = json.loads(count_file.read_text())
        payload["counts"][1][2] = 10**400
        path = write_json(tmp_path / "huge.json", payload)
        assert_rejected([command, "--counts", path], "counts[1][2] is above 2**53")

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_not_utf8_rejected(self, tmp_path, count_file, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(count_file.read_bytes().replace(b'"forward"', b'"forw\xe4rd"'))
        assert_rejected([command, "--counts", str(path)], f"{path}: not UTF-8 text")

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_integer_past_digit_limit_rejected(self, tmp_path, count_file, command):
        payload = json.loads(count_file.read_text())
        payload["counts"][1][2] = 987654321
        path = write_json_with_long_int(tmp_path / "long.json", payload, 987654321)
        assert_rejected([command, "--counts", path], "not valid JSON")

    def test_removed_align_flags_rejected(self, count_file):
        for flag in ("--restarts", "--seed"):
            assert_rejected(["align", "--counts", str(count_file), flag, "3"],
                            "unrecognized arguments")

    def test_identical_rows_align(self, tmp_path, count_file):
        # four equal rows reconstruct four equal states: no rotation is
        # preferred, and the prediction is a coin toss
        payload = json.loads(count_file.read_text())
        payload["counts"] = [[30, 10, 20, 20, 5, 5]] * 4
        path = write_json(tmp_path / "same.json", payload)
        out, _err = run(["align", "--counts", path, "--format", "json"])
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
    def test_counts_that_cannot_be_fitted_rejected(self, tmp_path, count_file,
                                                   command, rows, match):
        payload = json.loads(count_file.read_text())
        payload["counts"] = rows
        path = write_json(tmp_path / "empty.json", payload)
        assert_rejected([command, "--counts", path], match)

    def test_timing_check_output(self, count_file):
        out, _err = run(["timing-check", "--counts", str(count_file)])
        assert "99% family-wise interval" in out

    def test_timing_check_confidence_not_rounded(self, count_file):
        out, _err = run(["timing-check", "--counts", str(count_file), "--confidence", "0.999"])
        assert "99.9% family-wise interval" in out

    @pytest.mark.parametrize("confidence, message", [
        ("1", "confidence must be in (0, 1), got 1.0"),
        ("nan", "confidence must be in (0, 1), got nan"),
        # below 1, but too close to it for the per-cell interval's normal quantile
        ("0.999999999999999", "confidence is too close to 1: the per-cell level "
         "1 - (1 - confidence)/16 has no finite normal quantile in double precision, "
         "got 0.999999999999999"),
    ], ids=["1", "nan", "0.999999999999999"])
    def test_timing_check_confidence_out_of_range_rejected(self, tmp_path, count_file,
                                                           confidence, message):
        out = tmp_path / "verdict.txt"
        assert_rejected(["timing-check", "--counts", str(count_file), "--confidence", confidence,
                         "--out", str(out)], f"--confidence: {message}")
        assert not out.exists()


class TestMissingFiles:
    @pytest.mark.parametrize("argv", [["align", "--counts"], ["timing-check", "--counts"],
                                      ["fit", "--in"], ["simulate", "--from-manifest"]])
    def test_missing_input_file(self, tmp_path, argv):
        missing = str(tmp_path / "absent.json")
        assert_rejected(argv + [missing], f"cannot open {missing}")

    def test_unwritable_output(self, tmp_path, count_file):
        out = str(tmp_path / "no-such-dir" / "align.txt")
        assert_rejected(["align", "--counts", str(count_file), "--out", out], f"cannot open {out}")

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

    @pytest.mark.parametrize("command", ["align", "timing-check"])
    def test_closed_standard_output_exits_quietly(self, command):
        # the reader is gone before the child writes, as after ``| head``; the
        # child's standard output is block-buffered, as a shell's pipe is
        env = {key: value for key, value in CHILD_ENV.items() if key != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "polalign", command, "--counts",
                                   SCALE_FILE],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""

    def test_closed_standard_output_in_process_keeps_streams(self, monkeypatch, capsys,
                                                             count_file):
        # only the program's own run points its standard output at devnull
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):  # asked for only to redirect the descriptor
                pytest.fail("standard output redirected")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["align", "--counts", str(count_file)]) == 1
        assert capsys.readouterr().err == ""

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

    def test_import_and_align_never_load_multiprocessing(self, count_file):
        # the process pool is imported only by a sweep that runs one
        script = f"""
import runpy
import sys
import polalign
pool = [name for name in sys.modules if name.split(".")[0] == "multiprocessing"]
sys.argv = ["polalign", "align", "--counts", {str(count_file)!r}]
try:
    runpy.run_module("polalign", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
pool += [name for name in sys.modules if name.split(".")[0] == "multiprocessing"]
assert not pool, pool
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
    def test_non_finite_rejected(self, flag, match):
        values = {"--pulse-rate": "1e6", "--mu": "0.1", "--eta": "0.5", "--y0": "0"}
        values[flag] = "nan"
        argv = ["rate"] + [x for item in values.items() for x in item]
        assert_rejected(argv, f"{flag}: {match}")

    @pytest.mark.parametrize("flags,match", [
        (["--loss-db", "-1"], "--loss-db: -1.0 must be finite and >= 0"),
        (["--loss-db", "inf"], "--loss-db: inf must be finite and >= 0"),
        (["--loss-db", "nan"], "--loss-db: nan must be finite and >= 0"),
        (["--loss-db", "20", "--eta", "0.1"], "specify exactly one of --loss-db or --eta"),
        ([], "specify exactly one of --loss-db or --eta"),
    ])
    def test_channel_loss_rejected(self, flags, match):
        assert_rejected(["rate", "--pulse-rate", "1e8", "--mu", "0.5", *flags], match)

    def test_zero_rate_never_reaches_400(self):
        out, _err = run(["rate", "--pulse-rate", "0", "--mu", "1", "--eta", "1"])
        assert out.splitlines() == ["expected detection rate: 0 Hz",
                                    "time to 400 detections: never (zero rate)"]

    def test_subnormal_rate_is_not_zero(self):
        # 400 / rate overflows to inf, but the rate itself is positive
        out, _err = run(["rate", "--pulse-rate", "1e-320", "--mu", "1", "--eta", "1"])
        assert out.splitlines()[0].startswith("expected detection rate: 6.3")
        assert "zero rate" not in out

    def test_lossy_link_keeps_its_rate(self):
        # 1 - exp(-eta * mu) cancels to 0 at eta * mu = 5e-17; expm1 keeps every digit
        out, _err = run(["rate", "--pulse-rate", "1e8", "--mu", "0.5", "--loss-db", "160",
                         "--format", "json"])
        payload = json.loads(out)
        assert payload["rate_hz"] == pytest.approx(5e-9, rel=1e-12, abs=0)
        assert payload["seconds_to_400_detections"] == pytest.approx(8e10, rel=1e-12, abs=0)

    @pytest.mark.parametrize("pulse_rate,positive", [("1e-320", True), ("0", False)])
    def test_json_tells_zero_rate_from_positive(self, pulse_rate, positive):
        # JSON has no inf: null is its one spelling of "no finite time", and
        # rate_hz beside it tells a subnormal rate from a zero one
        out, _err = run(["rate", "--pulse-rate", pulse_rate, "--mu", "1", "--eta", "1",
                         "--format", "json"])
        payload = json.loads(out)
        assert payload["rate_hz"] > 0 if positive else payload["rate_hz"] == 0
        assert payload["seconds_to_400_detections"] is None

    def test_rate(self):
        out, _err = run(["rate", "--pulse-rate", "1e6", "--mu", "0.1", "--eta", "0.01",
                         "--format", "json"])
        assert json.loads(out)["rate_hz"] == pytest.approx(1e6 * (1 - math.exp(-1e-3)))

    def test_loss_db_sets_eta(self):
        out, _err = run(["rate", "--pulse-rate", "1e6", "--mu", "0.1", "--loss-db", "20",
                         "--format", "json"])
        payload = json.loads(out)
        assert payload["eta"] == pytest.approx(0.01, rel=1e-15)
        assert payload["rate_hz"] == pytest.approx(1e6 * (1 - math.exp(-1e-3)))


class TestGolden:
    def test_table(self):
        # every case but the pipe cases in this process, its stdout writes counted;
        # ``python tests/golden/run.py`` runs each case as a process
        assert run_table(in_process=True) == []

    TEXT = {"argv": "align", "exit": 2, "stdout": ["total counts: 397"], "message": "error: bad",
            "absent": ["bad.csv"], "same": ["a.csv", "b.csv"]}
    JSON = {"argv": "timing-check", "json": {"input": "D", "total_counts": 265.0}}
    OUT, ERR = "total counts: 397\n", "usage: polalign\nerror: bad\n"
    JSON_OUT = '{"input": "D", "total_counts": 265.0}\n'

    @pytest.mark.parametrize("case,result,files,fault", [
        (TEXT, (2, "total counts: 398\n", ERR, None), {}, "stdout 'total counts: 398\\n'"),
        (JSON, (0, '{"input": "D", "total_counts": 265}\n', "", 1), {},
         """stdout '{"input": "D", "total_counts": 265}\\n'"""),
        (TEXT, (1, OUT, ERR, None), {}, "exit 1, expected 2"),
        (TEXT, (2, OUT, "Traceback (most recent call last):\n" + ERR, None), {},
         "a traceback on stderr"),
        (TEXT, (2, OUT, ERR, None), {"bad.csv": ""}, "bad.csv exists"),
        (TEXT, (2, OUT, "usage: polalign\n", None), {}, "no stderr line 'error: bad'"),
        (TEXT, (2, OUT, ERR, None), {"b.csv": "2\n"}, "a.csv and b.csv differ"),
        (JSON, (0, JSON_OUT, "note\n", 1), {}, "stderr written"),
        (JSON, (0, JSON_OUT, "", 2), {}, "stdout in 2 writes"),
        (JSON, (0, JSON_OUT.strip(), "", 1), {}, "stdout not ending in one newline"),
        (TEXT, (2, OUT, ERR, 1), {}, "stdout written on exit 2"),
    ], ids=["digit", "int-for-float", "exit", "traceback", "leftover", "message", "differ",
            "stderr", "two-writes", "no-newline", "written-on-failure"])
    def test_check_reports_each_fault(self, tmp_path, monkeypatch, case, result, files, fault):
        # each result meets its case but for the one fault, which alone is reported; a
        # process's result has no count of writes (None), so the one-write rule is not checked
        monkeypatch.chdir(tmp_path)
        for name, text in {"a.csv": "1\n", "b.csv": "1\n", **files}.items():
            (tmp_path / name).write_text(text)
        assert check(case, result) == [fault]

    def test_in_process_run_counts_writes(self, monkeypatch):
        # an _emit that writes its newline apart, as print does, fails on any host and load
        def split_write(text, _out_path):
            sys.stdout.write(text)
            sys.stdout.write("\n")

        monkeypatch.setattr(cli, "_emit", split_write)
        case = {"argv": "rate --pulse-rate 1e8 --mu 0.5 --loss-db 20"}
        assert check(case, run_in_process(case["argv"].split())) == ["stdout in 2 writes"]
