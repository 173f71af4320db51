"""The polalign benchmark workloads: inputs, timed runs and output checks.

Three workloads drive the public API:

* ``ref-sweep``: ``run_sweep`` over the reference grid (forward and
  reversed, N in {400, 6400}, F_S in {1.0, 0.95}) with ``jobs=1``;
* ``bg-study``: ``background_study`` at N=400, F_S=0.95, background in
  {20, 100}, both directions, timed with ``jobs=1``; the traced run adds
  ``jobs=2`` passes, which go through the process pool;
* ``startup``: a closed loop with one caller that runs ``timing-check``
  and then ``align`` through ``polalign.cli.main`` on each count file
  written during set-up.

A sweep workload has one distinct pass per direction: one public call over
that direction's cells, the shape of a ``polalign simulate`` call, with
``SWEEP_SAMPLES`` trials per cell and a master seed drawn from ``--seed``.
The passes run once in order; after that they repeat, and every repeat must
reproduce its first run exactly, until the run time is used up.  Quality
figures come from the distinct passes only, so they do not depend on how
fast the program is.  The start-up loop works the same way over its files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from polalign import cli, montecarlo
from polalign.montecarlo import SweepCell

from speed import Calibrated
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("ref-sweep", "bg-study", "startup")

#: reference cells disagree when their means differ by more than this many SEM
REFERENCE_SEM_LIMIT = 4.0
#: the 1/N law: the fitted N exponent must lie within this distance of -1
GAMMA_TOLERANCE = 0.2
#: ceiling on the mean residual QBER of ``align`` on intact-timing files
ALIGN_QBER_CEILING = 0.006
#: ceiling on the share of wrong timing-check verdicts on broken-timing files
#: at N=400, the one class where ``timing.classify`` is known to err (~11 %)
DEFECT_RATE_CEILING = 0.25
#: N of the files on which that known defect shows
DEFECT_N = 400

DIRECTIONS = ("forward", "reversed")
#: the cells of one direction; a pass is one call over them
REF_GRID = dict(n_values=(400, 6400), fs_values=(1.0, 0.95))
BG_GRID = dict(n_values=(400,), fs_values=(0.95,), background_means=(20.0, 100.0))
#: trials per cell and call: one block of the Monte Carlo engine
#: (``montecarlo._BLOCK_SIZE``), the unit a ``jobs`` worker runs
SWEEP_SAMPLES = 250
STARTUP_COMBOS = (("forward", 400), ("forward", 6400), ("reversed", 400), ("reversed", 6400))
STARTUP_FS = 0.95
#: every fourth file of a (direction, N) combination simulates broken timing
BROKEN_EVERY = 4


@dataclass(frozen=True)
class Size:
    samples: int = 0
    files_per_combo: int = 0


#: "full" is what the benchmark measures; "tiny" keeps the smoke test short
SIZES = {
    "full": {
        "ref-sweep": Size(samples=SWEEP_SAMPLES),
        "bg-study": Size(samples=SWEEP_SAMPLES),
        "startup": Size(files_per_combo=200),
    },
    "tiny": {
        "ref-sweep": Size(samples=4),
        "bg-study": Size(samples=3),
        "startup": Size(files_per_combo=8),
    },
}

_WORKLOAD_CODE = {name: i for i, name in enumerate(WORKLOADS)}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _rate(items_per_unit: int, cal: Calibrated) -> float:
    """Items per second at the reference speed, from the median calibrated unit time."""
    return items_per_unit / statistics.median(cal.reference_times())


def _timing_note(label: str, seconds) -> str:
    ms = [1e3 * s for s in seconds]
    return (f"{label} (measured): p50 {_quantile(ms, 0.5):.2f} ms, "
            f"p90 {_quantile(ms, 0.9):.2f} ms over {len(ms)} calls")


def _geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# ---------------------------------------------------------------------------
# independent physics for the start-up inputs and their scoring

_SQ = math.sqrt(0.5)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQ, _SQ], dtype=complex),
    "A": np.array([_SQ, -_SQ], dtype=complex),
    "R": np.array([_SQ, 1j * _SQ], dtype=complex),
    "L": np.array([_SQ, -1j * _SQ], dtype=complex),
}
_SIX = ("H", "V", "D", "A", "R", "L")
_FOUR = ("H", "V", "D", "A")


def _haar(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * _SQ
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _cell_probabilities(u: np.ndarray, direction: str, fs: float) -> np.ndarray:
    """Probability of each (prepared state, outcome) cell of one detection.

    Uniform preparation and basis choice; the received state is the
    depolarized image (2 fs - 1) U|psi><psi|U+ + (1 - fs) I.
    """
    rows, cols, bases = (_FOUR, _SIX, 3) if direction == "forward" else (_SIX, _FOUR, 2)
    p = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        out = u @ _KETS[a]
        for j, b in enumerate(cols):
            p[i, j] = (2.0 * fs - 1.0) * abs(np.vdot(_KETS[b], out)) ** 2 + (1.0 - fs)
    return p / (len(rows) * bases)


def _plate(theta: float, retardance_phase: complex) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1.0, retardance_phase]) @ rot.T


def align_qber(u: np.ndarray, direction: str, angles_deg) -> float:
    """Residual QBER of the BB84 states after channel and QHQ compensation.

    Forward, the plates follow the channel (V U); reversed, they precede it
    (U V).  Plate conventions are those documented in polalign.polarization.
    """
    t1, t2, t3 = (math.radians(a) for a in angles_deg)
    v = _plate(t3, 1j) @ _plate(t2, -1.0) @ _plate(t1, 1j)
    total = v @ u if direction == "forward" else u @ v
    return 1.0 - sum(abs(np.vdot(_KETS[k], total @ _KETS[k])) ** 2 for k in _FOUR) / 4.0


def _stokes_rows(counts: np.ndarray, direction: str) -> np.ndarray:
    """Linear-inversion Stokes vectors of each six-outcome row or column."""
    rows = counts if direction == "forward" else counts.T
    plus, minus = rows[:, 0::2], rows[:, 1::2]
    pair = plus + minus
    return np.divide(plus - minus, pair, out=np.zeros_like(pair), where=pair > 0)


def _boundary_rows(counts: np.ndarray, direction: str) -> tuple[int, int]:
    s = _stokes_rows(np.asarray(counts, dtype=float), direction)
    return int(np.sum(np.einsum("ij,ij->i", s, s) > 1.0)), len(s)


# ---------------------------------------------------------------------------
# sweep workloads


@dataclass
class Sweep:
    """A sweep workload: one distinct pass per direction, one public call each."""

    name: str
    passes: list[tuple[str, int]]  # (direction, master seed)
    samples: int
    #: jobs of the traced run's parallel pass; timed passes run at jobs=1,
    #: because jobs=2 throughput on the shared 2-vCPU machine spread 0.14 to
    #: 0.65 across seeds under each calibration tried (perfbench/README.md)
    parallel_jobs: int

    def call(self, direction: str, seed: int, jobs: int):
        if self.name == "ref-sweep":
            return montecarlo.run_sweep(
                directions=(direction,), **REF_GRID, samples=self.samples, master_seed=seed,
                jobs=jobs,
            )
        return montecarlo.background_study(
            directions=(direction,), **BG_GRID, samples=self.samples, master_seed=seed,
            jobs=jobs,
        )

    @property
    def trials_per_pass(self) -> int:
        grid = REF_GRID if self.name == "ref-sweep" else BG_GRID
        cells = math.prod(len(v) for v in grid.values())
        return cells * self.samples

    def arms(self, result):
        """(cell key, mean, std, used samples) for every arm of every cell."""
        out = []
        for c in result.cells:
            key = [c.direction.value, c.n_detected, c.signal_fidelity, c.background_mean]
            used = c.samples - c.failures
            if self.name == "ref-sweep":
                out.append(("/".join(map(str, key + ["plain"])), c.mean_qber, c.std_qber, used))
            else:
                out.append(("/".join(map(str, key + ["with-bg"])),
                            c.mean_with_background, c.std_with_background, used))
                out.append(("/".join(map(str, key + ["subtracted"])),
                            c.mean_subtracted, c.std_subtracted, used))
        return out


def _pool(arms_per_pass) -> dict[str, tuple[float, int]]:
    """Pooled (mean, samples) per arm over the distinct passes."""
    sums: dict[str, list] = {}
    for arms in arms_per_pass:
        for key, mean, _std, n in arms:
            total = sums.setdefault(key, [0.0, 0])
            total[0] += mean * n
            total[1] += n
    return {key: (s / n, n) for key, (s, n) in sums.items()}


def check_sweep(sweep: Sweep, results, reference) -> dict:
    """Checks on the distinct passes; returns the pooled arms."""
    for result in results:
        for key, mean, _std, _n in sweep.arms(result):
            _check(0.0 < mean < 1.0, f"{sweep.name}: cell {key} mean QBER {mean!r} outside (0, 1)")
    pooled = _pool(sweep.arms(r) for r in results)
    recorded = reference[sweep.name]
    _check(set(pooled) == set(recorded), f"{sweep.name}: cells differ from the reference")
    for key, (mean, n) in pooled.items():
        ref = recorded[key]
        sem = ref["std"] * math.sqrt(1.0 / n + 1.0 / ref["n"])
        z = (mean - ref["mean"]) / sem
        _check(
            abs(z) <= REFERENCE_SEM_LIMIT,
            f"{sweep.name}: cell {key} mean {mean:.6g} is {z:+.1f} SEM from the "
            f"reference {ref['mean']:.6g}",
        )
    if sweep.name == "ref-sweep":
        cells = []
        for key, (mean, n) in pooled.items():
            direction, n_det, fs, bg, _arm = key.split("/")
            cells.append(SweepCell(
                direction=montecarlo.Direction(direction), n_detected=int(n_det),
                signal_fidelity=float(fs), background_mean=float(bg),
                subtract_background=False, samples=n, failures=0, mean_qber=mean,
                std_qber=None,
            ))
        gamma = montecarlo.fit_power_law(cells).gamma
        _check(abs(gamma + 1.0) <= GAMMA_TOLERANCE,
               f"ref-sweep: fitted N exponent {gamma:.3f} is not near -1")
    return pooled


def measure_sweep(sweep: Sweep, seconds: float, reference) -> dict:
    results: dict[int, object] = {}
    walls = []
    failed = 0
    with Calibrated() as cal:
        began = time.perf_counter()
        k = 0
        while k < len(sweep.passes) or time.perf_counter() - began < seconds:
            i = k % len(sweep.passes)
            t0 = time.perf_counter()
            result = sweep.call(*sweep.passes[i], 1)
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            cal.record(t0, t1)
            failed += sum(c.failures for c in result.cells)
            if i in results:
                _check(result == results[i], f"{sweep.name}: pass {i} did not repeat exactly")
            else:
                results[i] = result
            k += 1
    pooled = check_sweep(sweep, [results[i] for i in range(len(sweep.passes))], reference)
    attempted = k * sweep.trials_per_pass
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "trials_per_s": (_rate(sweep.trials_per_pass, cal), "1/s"),
            "qber_geomean": (_geomean([m for m, _n in pooled.values()]), "1"),
        },
        "notes": [
            f"{sweep.name}: {k} passes of {sweep.trials_per_pass} trials, "
            f"{len(sweep.passes)} distinct, jobs=1; "
            f"{attempted / sum(walls):.2f} trials/s measured over the whole run at "
            f"{cal.speed():.2f} x the reference speed",
            _timing_note(f"{sweep.name} pass", walls),
        ],
    }


def _recon_note(args, _result):
    return args[0].counts, args[0].direction.value


def _opt_note(_args, result):
    return result.evaluations_used, result.predicted_qber, result.converged


def _sweep_targets():
    m = montecarlo
    return [
        (m, "run_trial", "montecarlo.run_trial", None),
        (m, "haar_random_unitary", "polarization.haar", None),
        (m, "generate_counts", "montecarlo.counts", None),
        (m, "reconstruct_forward", "tomography.reconstruct", _recon_note),
        (m, "reconstruct_reversed", "tomography.reconstruct", _recon_note),
        (m, "optimize", "compensation.optimize", _opt_note),
        (m, "residual_qber", "compensation.score", lambda _args, result: result),
    ]


SWEEP_STAGES = ("polarization.haar", "montecarlo.counts", "tomography.reconstruct",
                "compensation.optimize", "compensation.score")


def trace_sweep(sweep: Sweep, seconds: float, tracer: Tracer) -> dict:
    """Untraced and traced ``jobs=1`` passes, plus untraced ``jobs=2`` for bg-study.

    A pass takes longer than the usual run time, so one pass, the forward
    one, is usually all that runs.
    """
    walls = {"untraced": 0.0, "traced": 0.0, "parallel": 0.0}
    failed = 0
    began = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - began < seconds:
        direction, seed = sweep.passes[k % len(sweep.passes)]
        t0 = time.perf_counter()
        plain = sweep.call(direction, seed, 1)
        failed += sum(c.failures for c in plain.cells)
        t1 = time.perf_counter()
        with tracer.patched(_sweep_targets()):
            traced = sweep.call(direction, seed, 1)
        t2 = time.perf_counter()
        walls["untraced"] += t1 - t0
        walls["traced"] += t2 - t1
        _check(traced == plain, f"{sweep.name}: traced pass differs from the untraced pass")
        if sweep.parallel_jobs > 1:
            t3 = time.perf_counter()
            parallel = sweep.call(direction, seed, sweep.parallel_jobs)
            walls["parallel"] += time.perf_counter() - t3
            _check(parallel == traced,
                   f"{sweep.name}: jobs={sweep.parallel_jobs} cells differ from the jobs=1 cells")
        k += 1
    items = k * sweep.trials_per_pass

    trials = tracer.named("montecarlo.run_trial")
    by_root = {}
    for s in tracer.spans:
        by_root.setdefault(s.root, []).append(s)
    gaps = []
    for t in trials:
        children = by_root[t.root]
        opt = [s.note for s in children if s.name == "compensation.optimize"]
        score = [s.note for s in children if s.name == "compensation.score"]
        if opt and score:
            gaps.append(abs(opt[0][1] - score[0]))
    busy = sum(s.seconds for s in tracer.spans if s.name in SWEEP_STAGES)
    jobs = sweep.parallel_jobs
    e2e_wall = walls["parallel"] if jobs > 1 else walls["untraced"]
    return _layer_metrics(
        tracer, items=items, failed=failed, gaps=gaps, busy=busy, traced_wall=walls["traced"],
        overhead=walls["traced"] - walls["untraced"], efficiency=busy / (jobs * e2e_wall),
        notes=[f"{sweep.name} traced: {k} passes, {len(trials)} traced trials"],
    )


# ---------------------------------------------------------------------------
# start-up workload


@dataclass
class StartupFile:
    path: str
    direction: str
    n: int
    broken: bool
    channel: np.ndarray


def write_startup_files(seed: int, size: Size, workdir: str) -> list[StartupFile]:
    """Count files from seeded Haar channels, round-robin over (direction, N)."""
    rng = np.random.default_rng([seed, _WORKLOAD_CODE["startup"]])
    files = []
    for j in range(size.files_per_combo):
        for direction, n in STARTUP_COMBOS:
            broken = j % BROKEN_EVERY == BROKEN_EVERY - 1
            u = _haar(rng)
            p = _cell_probabilities(u, direction, 0.5 if broken else STARTUP_FS)
            counts = rng.multinomial(n, p.ravel()).reshape(p.shape)
            rows, cols = (_FOUR, _SIX) if direction == "forward" else (_SIX, _FOUR)
            path = os.path.join(workdir, f"link{len(files):04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({
                    "schema_version": 1, "direction": direction,
                    "row_labels": list(rows), "column_labels": list(cols),
                    "counts": counts.tolist(),
                }, fh)
            files.append(StartupFile(path, direction, n, broken, u))
    return files


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _startup(f: StartupFile) -> tuple[tuple[int, str], tuple[int, str], float, float]:
    t0 = time.perf_counter()
    check = _cli(["timing-check", "--counts", f.path, "--format", "json"])
    t1 = time.perf_counter()
    align = _cli(["align", "--counts", f.path, "--format", "json"])
    t2 = time.perf_counter()
    return check, align, t1 - t0, t2 - t1


_WRONG_VERDICT = {False: "timing_misaligned", True: "polarization_frame_misaligned"}


def judge_startup(f: StartupFile, check, align) -> tuple[bool, float | None]:
    """(wrong verdict of the known defect, align QBER on an intact-timing file).

    A wrong timing-check verdict fails the check, except on a broken-timing
    file at N=``DEFECT_N``: that is the known defect, whose rate the caller
    bounds with :func:`check_defect_rate`.
    """
    (check_code, check_out), (align_code, align_out) = check, align
    _check(check_code == 0, f"startup: timing-check exited {check_code} on {f.path}")
    _check(align_code == 0, f"startup: align exited {align_code} on {f.path}")
    verdict = json.loads(check_out)["verdict"]
    _check(verdict in ("timing_misaligned", "polarization_frame_misaligned", "inconclusive"),
           f"startup: unknown verdict {verdict!r}")
    wrong = verdict == _WRONG_VERDICT[f.broken]
    defect = f.broken and f.n == DEFECT_N
    _check(not wrong or defect,
           f"startup: timing-check named {verdict} on {f.path} "
           f"({'broken' if f.broken else 'intact'} timing, N={f.n})")
    payload = json.loads(align_out)
    _check(payload["direction"] == f.direction,
           f"startup: align read the wrong direction from {f.path}")
    _check(0.0 <= payload["predicted_qber"] <= 1.0, "startup: predicted QBER outside [0, 1]")
    qber = None if f.broken else align_qber(f.channel, f.direction, payload["angles_deg"])
    return wrong, qber


def check_defect_rate(files: list[StartupFile], wrong: list[bool]) -> str:
    """Bound the known defect's rate over the distinct files; returns a note."""
    exposed = [w for f, w in zip(files, wrong) if f.broken and f.n == DEFECT_N]
    count = sum(exposed)
    _check(count <= DEFECT_RATE_CEILING * len(exposed),
           f"startup: timing-check wrong on {count} of {len(exposed)} broken-timing files at "
           f"N={DEFECT_N}, above the ceiling {DEFECT_RATE_CEILING}")
    return (f"startup: timing-check wrong on {count} of {len(exposed)} broken-timing files at "
            f"N={DEFECT_N} (known defect, bounded by {DEFECT_RATE_CEILING}); "
            f"right on every other file")


def _qber_summary(files, qbers) -> tuple[float, float]:
    """(mean over intact files, geometric mean over combos of the combo means)."""
    per_combo = {}
    for f, q in zip(files, qbers):
        if q is not None:
            per_combo.setdefault((f.direction, f.n), []).append(q)
    flat = [q for qs in per_combo.values() for q in qs]
    return sum(flat) / len(flat), _geomean([sum(qs) / len(qs) for qs in per_combo.values()])


def measure_startup(files: list[StartupFile], seconds: float) -> dict:
    first: list = []
    qbers: list = []
    latencies, checks, aligns = [], [], []
    with Calibrated() as cal:
        began = time.perf_counter()
        k = 0
        while k < len(files) or time.perf_counter() - began < seconds:
            f = files[k % len(files)]
            t0 = time.perf_counter()
            check, align, t_check, t_align = _startup(f)
            cal.record(t0, time.perf_counter())
            latencies.append(t_check + t_align)
            checks.append(t_check)
            aligns.append(t_align)
            if k < len(files):
                is_wrong, qber = judge_startup(f, check, align)
                first.append((check, align, is_wrong))
                qbers.append(qber)
            else:
                _check((check, align) == first[k % len(files)][:2],
                       f"startup: repeated start-up on {f.path} gave other output")
            k += 1
    defect_note = check_defect_rate(files, [w for _c, _a, w in first])
    mean, geomean = _qber_summary(files, qbers)
    _check(mean <= ALIGN_QBER_CEILING,
           f"startup: mean align QBER {mean:.4g} above the ceiling {ALIGN_QBER_CEILING}")
    return {
        "attempted": k,
        "failed": 0,
        "metrics": {
            "trials_per_s": (_rate(1, cal), "1/s"),
            "qber_geomean": (geomean, "1"),
        },
        "notes": [
            f"startup: {k} start-ups over {len(files)} files; "
            f"{k / sum(latencies):.2f} start-ups/s measured over the whole run at "
            f"{cal.speed():.2f} x the reference speed; align QBER mean {mean:.4g}",
            _timing_note("startup start-up", latencies),
            _timing_note("startup align", aligns),
            _timing_note("startup timing-check", checks),
            defect_note,
        ],
    }


CLI_STAGES = ("cli.load", "tomography.reconstruct", "compensation.optimize", "timing.classify")


def trace_startup(files: list[StartupFile], seconds: float, tracer: Tracer) -> dict:
    """Each file once untraced and once traced, until the run time is used up."""
    targets = [
        (cli, "load_count_file", "cli.load", None),
        (cli, "reconstruct_forward", "tomography.reconstruct", _recon_note),
        (cli, "reconstruct_reversed", "tomography.reconstruct", _recon_note),
        (cli, "optimize", "compensation.optimize", _opt_note),
        (cli, "classify", "timing.classify", None),
    ]
    untraced = traced_wall = 0.0
    gaps = []
    wrong = 0
    began = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - began < seconds:
        f = files[k % len(files)]
        check, align, t_check, t_align = _startup(f)
        untraced += t_check + t_align
        t0 = time.perf_counter()
        with tracer.patched(targets):
            with tracer.span("cli.timing_check"):
                traced_check = _cli(["timing-check", "--counts", f.path, "--format", "json"])
            with tracer.span("cli.align") as span:
                traced_align = _cli(["align", "--counts", f.path, "--format", "json"])
        traced_wall += time.perf_counter() - t0
        _check((traced_check, traced_align) == (check, align),
               f"startup: traced start-up on {f.path} gave other output")
        is_wrong, qber = judge_startup(f, check, align)
        wrong += is_wrong
        if qber is not None:
            opt = [s.note for s in tracer.spans[span.span_id:] if s.name == "compensation.optimize"]
            gaps.append(abs(opt[0][1] - qber))
        k += 1
    busy = sum(s.seconds for s in tracer.spans if s.name in CLI_STAGES)
    return _layer_metrics(
        tracer, items=k, failed=0, gaps=gaps, busy=busy, traced_wall=traced_wall,
        overhead=traced_wall - untraced, efficiency=busy / untraced,
        notes=[f"startup traced: {k} start-ups; timing-check wrong on {wrong} broken-timing "
               f"files at N={DEFECT_N} (known defect)"],
    )


# ---------------------------------------------------------------------------
# per-layer summary


def _layer_metrics(tracer, *, items, failed, gaps, busy, traced_wall, overhead, efficiency, notes):
    opt = tracer.named("compensation.optimize")
    recon = tracer.named("tomography.reconstruct")
    evals = sum(s.note[0] for s in opt)
    boundary = total_rows = 0
    for s in recon:
        b, n = _boundary_rows(*s.note)
        boundary += b
        total_rows += n
        s.note = {"boundary_rows": b}
    for s in opt:
        s.note = {"evaluations": s.note[0], "predicted_qber": s.note[1], "converged": s.note[2]}
    unconverged = sum(not s.note["converged"] for s in opt)
    notes = list(notes) + [
        f"compensation: {unconverged} of {len(opt)} optimize calls reported no convergence",
    ]
    notes += _span_table(tracer)
    return {
        "attempted": items,
        "failed": failed,
        "metrics": {
            "compensation.optimize_us": (1e6 * sum(s.seconds for s in opt) / len(opt), "us"),
            "compensation.evals_per_call": (evals / len(opt), "count"),
            "simplex.us_per_eval": (1e6 * sum(s.seconds for s in opt) / evals, "us"),
            "compensation.predicted_gap": (sum(gaps) / len(gaps), "1"),
            "tomography.reconstruct_us": (1e6 * sum(s.seconds for s in recon) / len(recon), "us"),
            "tomography.boundary_row_fraction": (boundary / total_rows, "1"),
            "orchestration_us": (1e6 * (traced_wall - busy) / items, "us"),
            "worker_efficiency": (efficiency, "1"),
            "trace.overhead_us": (1e6 * overhead / items, "us"),
        },
        "notes": notes,
    }


def _span_table(tracer) -> list[str]:
    """Calls, mean and self time per span name."""
    covered = {}
    for s in tracer.spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + (s.end_ns - s.start_ns)
    rows = {}
    for s in tracer.spans:
        calls, total, self_ns = rows.get(s.name, (0, 0, 0))
        duration = s.end_ns - s.start_ns
        rows[s.name] = (calls + 1, total + duration, self_ns + duration - covered.get(s.span_id, 0))
    lines = ["span                          calls    mean_us    self_us"]
    for name, (calls, total, self_ns) in sorted(rows.items()):
        mean_us, self_us = total / calls / 1e3, self_ns / calls / 1e3
        lines.append(f"{name:28s} {calls:6d} {mean_us:10.1f} {self_us:10.1f}")
    return lines


# ---------------------------------------------------------------------------
# entry points used by run.py


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(name: str, seed: int, workdir: str, size: str = "full"):
    """Build the workload's inputs from ``seed``; this is the timed set-up."""
    spec = SIZES[size][name]
    if name == "startup":
        return write_startup_files(seed, spec, workdir)
    seeds = np.random.SeedSequence([seed, _WORKLOAD_CODE[name]]).generate_state(len(DIRECTIONS))
    jobs = 1 if name == "ref-sweep" else 2
    return Sweep(name, [(d, int(s)) for d, s in zip(DIRECTIONS, seeds)], spec.samples, jobs)


def measure(name: str, prepared, seconds: float, trace: bool, trace_path: str | None = None):
    """Run one workload; returns attempted, failed, metrics and notes.

    Raises :class:`CheckFailed` when an output is wrong.
    """
    if not trace:
        if name == "startup":
            return measure_startup(prepared, seconds)
        return measure_sweep(prepared, seconds, load_reference())
    tracer = Tracer()
    if name == "startup":
        out = trace_startup(prepared, seconds, tracer)
    else:
        out = trace_sweep(prepared, seconds, tracer)
    if trace_path:
        tracer.write(trace_path)
    return out
