import json
import math

import numpy as np
import pytest

import polalign as pa
from polalign import cli
from polalign.tomography import Direction

from conftest import exact_count_matrix

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


@pytest.fixture
def count_file(tmp_path):
    u = pa.haar_random_unitary(np.random.default_rng(3))
    counts = np.round(exact_count_matrix(u, Direction.FORWARD).counts)
    cm = pa.CountMatrix(Direction.FORWARD, counts)
    path = tmp_path / "counts.json"
    cli.save_count_file(path, cm)
    return path


class TestFit:
    def test_csv_fits(self, tmp_path, capsys):
        code, out, _err = run(["fit", "--in", write_csv(tmp_path / "s.csv", SWEEP_ROWS)], capsys)
        assert code == 0
        assert "cells used: 4" in out

    def test_json_missing_key(self, tmp_path, capsys):
        cells = [dict(zip(cli.SWEEP_CSV_HEADER.split(","), row.split(","))) for row in SWEEP_ROWS]
        del cells[1]["mean_qber"]
        path = write_json(tmp_path / "s.json", {"schema_version": 1, "cells": cells})
        assert_rejected(["fit", "--in", path], capsys, "no 'mean_qber'")

    def test_json_without_cells(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"schema_version": 1})
        assert_rejected(["fit", "--in", path], capsys, "'cells' list")

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
            (dict(samples=-3), "samples: -3 must be an integer >= 1"),
            (dict(samples=None), "samples: missing"),
            (dict(n=[400, "x"]), "n: 'x' is not a valid integer"),
            (dict(fs=[1.5]), "fs: 1.5 outside"),
            (dict(direction="sideways"), "direction: 'sideways'"),
            (dict(sample=3), "unknown keys ['sample']"),
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

    def test_manifest_without_config(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", [1, 2])
        assert_rejected(["simulate", "--from-manifest", path], capsys, "no config block")


class TestCountFiles:
    def test_round_trip_with_reordered_labels(self, tmp_path, count_file):
        cm, _ = cli.load_count_file(count_file)
        payload = json.loads(count_file.read_text())
        payload["column_labels"] = payload["column_labels"][::-1]
        payload["counts"] = [row[::-1] for row in payload["counts"]]
        reordered = write_json(tmp_path / "r.json", payload)
        again, _ = cli.load_count_file(reordered)
        np.testing.assert_array_equal(again.counts, cm.counts)

    def test_non_string_labels_rejected(self, tmp_path, capsys, count_file):
        payload = json.loads(count_file.read_text())
        payload["row_labels"] = [["H"], ["V"], ["D"], ["A"]]
        path = write_json(tmp_path / "bad.json", payload)
        assert_rejected(["align", "--counts", path], capsys, "list of strings")

    def test_align_output(self, capsys, count_file):
        code, out, _err = run(["align", "--counts", str(count_file), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["evaluations_used"] >= 1
        assert payload["predicted_qber"] < 1e-3

    def test_removed_align_flags_rejected(self, capsys, count_file):
        for flag in ("--restarts", "--seed"):
            assert_rejected(["align", "--counts", str(count_file), flag, "3"], capsys,
                            "unrecognized arguments")

    def test_timing_check_output(self, capsys, count_file):
        code, out, _err = run(["timing-check", "--counts", str(count_file)], capsys)
        assert code == 0
        assert "family-wise interval" in out


class TestRate:
    @pytest.mark.parametrize("flag", ["--pulse-rate", "--mu", "--eta", "--y0"])
    def test_non_finite_rejected(self, capsys, flag):
        values = {"--pulse-rate": "1e6", "--mu": "0.1", "--eta": "0.5", "--y0": "0"}
        values[flag] = "nan"
        argv = ["rate"] + [x for item in values.items() for x in item]
        assert_rejected(argv, capsys, f"{flag}: nan must be a finite number")

    def test_rate(self, capsys):
        code, out, _err = run(["rate", "--pulse-rate", "1e6", "--mu", "0.1", "--eta", "0.01",
                               "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rate_hz"] == pytest.approx(1e6 * (1 - math.exp(-1e-3)))
