"""Run the golden table of ``polalign`` command lines and check each result.

Usage, from anywhere::

    python tests/golden/run.py            # the installed package
    PYTHONPATH=src python tests/golden/run.py

Each case runs as ``python -m polalign`` in one fresh temporary directory
that holds a copy of ``inputs/``; the cases run in table order, so a case
may read what an earlier one wrote.  The exit status is 1 if any case
fails, and each failure is printed with the case's command line.
``run_table(in_process=True)`` runs the same cases through ``run_in_process``,
all but the pipe cases, which need a process.  ``run_in_process`` is the test
suite's one in-process caller of ``cli.main`` that captures a run's output:
``tests/test_cli.py`` runs its commands through it too, each checked as a case
that pins only its exit code.

``cases.json`` is a list of cases.  Each is an object with:

* ``argv``: the command line after ``polalign``, split at spaces;
* ``exit``: the exit code, 0 if absent;
* ``stdout``: the exact standard output, as a list of lines; or
* ``json``: the standard output as JSON, equal with each value's type,
  so that 265 is not 265.0 and 1 is not true;
* ``message``: a line that standard error must hold exactly;
* ``absent``: files that must not exist after the case;
* ``same``: two files that must be byte-identical after the case;
* ``pipe``: if true, the case runs unbuffered (``PYTHONUNBUFFERED=1``) and
  its reader leaves after the first line, as ``| head -1`` does;
* ``why``: a note for the reader, not checked.

Every case also checks that standard error holds no ``Traceback``, and
that it is empty for a case that exits 0.  A run in process, which counts its
stdout writes, keeps the one-write rule: a case that exits 0 writes its stdout
in exactly one write, ending in one newline, and one that fails writes none.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def same(got, want) -> bool:
    """``==`` that also tells 265 from 265.0 and 1 from true, at any depth."""
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want


def write_faults(code, out, writes) -> list:
    """What breaks the one-write rule in a run's exit code, stdout and count of stdout writes."""
    if code != 0:
        return [f"stdout written on exit {code}"] if writes else []
    if writes != 1:
        return [f"stdout in {writes} writes"]
    ends = out.endswith("\n") and not out.endswith("\n\n")
    return [] if ends else ["stdout not ending in one newline"]


def check(case, result) -> list:
    """Faults of ``result`` (code, stdout, stderr, writes or None) against ``case``, in the cwd."""
    code, out, err, writes = result
    exit_code = case.get("exit", 0)
    faults = []
    if code != exit_code:
        faults.append(f"exit {code}, expected {exit_code}")
    if "Traceback" in err:
        faults.append("a traceback on stderr")
    elif err and exit_code == 0:
        faults.append("stderr written")
    if "message" in case and case["message"] not in err.splitlines():
        faults.append(f"no stderr line {case['message']!r}")
    if "json" in case:
        try:
            ok = same(json.loads(out), case["json"])
        except ValueError:
            ok = False
    else:
        ok = "stdout" not in case or out == "".join(line + "\n" for line in case["stdout"])
    if not ok:
        faults.append(f"stdout {out!r}")
    if writes is not None:
        faults += write_faults(code, out, writes)
    faults += [f"{name} exists" for name in case.get("absent", []) if os.path.exists(name)]
    if "same" in case:
        first, second = (pathlib.Path(name).read_bytes() if os.path.exists(name) else None
                         for name in case["same"])
        if first is None or first != second:
            faults.append("{} and {} differ".format(*case["same"]))
    return faults


class _Counted(io.StringIO):
    """A standard output that counts its writes."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def run_in_process(argv):
    """(exit code, stdout, stderr, stdout writes) of ``cli.main(argv)`` in this process."""
    from polalign import cli
    out, err = _Counted(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as the process would report it
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), out.writes


def run_case(case, env, in_process):
    """(exit code, stdout, stderr, stdout writes or None) of ``case`` run in the cwd."""
    argv = case["argv"].split()
    if in_process and not case.get("pipe"):
        return run_in_process(argv)
    command = [sys.executable, "-m", "polalign", *argv]
    if not case.get("pipe"):
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr, None
    env = dict(env, PYTHONUNBUFFERED="1")
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        out = child.stdout.readline()
        child.stdout.close()  # the reader leaves
        err = child.stderr.read()
        return child.wait(timeout=120), out, err, None


def run_table(in_process=False) -> list:
    """One line per failed case of ``cases.json``; empty if every case passes."""
    with open(os.path.join(HERE, "cases.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if in_process:  # a child process runs the package this one imported
        from polalign import cli
        paths.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
    # absolute, for a child started in the temporary directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in paths if p))
    failures = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(HERE, "inputs"), tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        try:
            for case in cases:
                result = run_case(case, env, in_process)
                faults = check(case, result)
                if faults:
                    name = case["argv"] + (" | head -1" if case.get("pipe") else "")
                    failures.append(f"polalign {name}: {'; '.join(faults)}; stderr {result[2]!r}")
        finally:
            os.chdir(cwd)
    return failures


if __name__ == "__main__":
    failures = run_table()
    print("\n".join(failures) or "every golden case passed")
    sys.exit(1 if failures else 0)
