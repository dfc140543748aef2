"""Benchmark for the cayleydist command line.

    python3 perfbench/run.py --workload finite-bfs --seed 1 --seconds 5 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m cayleydist`` subprocess, one after another (a closed loop with one
client), and passes over the command list repeat until ``--seconds`` have been
measured.  Reported: ``wall_s`` (median pass wall time), ``peak_rss_mb``
(median over passes of the largest child ``ru_maxrss``) and ``setup_s``
(median wall time of a trivial ``group info`` call, which is interpreter start
plus the numpy/scipy/cayleydist import).  One such call runs before every
command, and more before and after the passes, so that every run takes at
least ``SETUP_CALLS`` of them spread over its whole length.

With ``--trace 1`` the same commands run once in this process through
``cayleydist.cli.main`` with the layer wrappers of ``spans.py`` installed; the
per-layer self times and counters come from that pass, and
``trace.overhead_s`` is the time spent in the wrappers themselves.

Every output is checked against the recorded reference; a mismatch or an
unexpected exit code counts as failed.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
built from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_CALLS = 10  # at least this many set-up samples per run
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Outcome:
    """Tally of checked command executions."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, cmd: wl.Command, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        if not wl.output_ok(cmd, exit_code, stdout, self.reference):
            self.failed += 1
            self.failures.append(f"{cmd.key} (exit {exit_code})")


def materialize(cmd: wl.Command) -> list[str]:
    """argv with the command's config, if any, written under the work directory."""
    if cmd.config is None:
        return list(cmd.argv)
    path = WORK / cmd.argv[-1]
    path.write_text(json.dumps(cmd.config))
    return [*cmd.argv[:-1], str(path)]


# ---------------------------------------------------------------------------
# subprocess pass (end-to-end metrics)


def run_child(argv: list[str], env: dict) -> tuple[int, str, float, int]:
    """Run one CLI command; returns (exit code, stdout, wall seconds, maxrss KiB)."""
    out_path = WORK / "stdout.txt"
    with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cayleydist", *argv],
                                stdout=out, stderr=err, env=env, cwd=WORK)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss


def child_env(cmd: wl.Command) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict(cmd.env))
    return env


def subprocess_pass(cmds, outcome: Outcome, per_command: dict | None = None,
                    setup: list | None = None) -> tuple[float, int]:
    """One pass over the commands; returns (summed wall seconds, largest maxrss KiB).

    With ``setup`` given, a set-up call runs before every command and its wall
    time is appended there; it counts in neither return value.
    """
    wall, rss = 0.0, 0
    for cmd in cmds:
        if setup is not None:
            setup += setup_calls(1, outcome)
        code, out, secs, maxrss = run_child(materialize(cmd), child_env(cmd))
        outcome.check(cmd, code, out)
        if per_command is not None:
            per_command.setdefault(cmd.key, []).append(secs)
        wall += secs
        rss = max(rss, maxrss)
    return wall, rss


def setup_calls(count: int, outcome: Outcome) -> list[float]:
    cmd = wl.SETUP_COMMAND
    walls = []
    for _ in range(count):
        code, out, secs, _ = run_child(list(cmd.argv), child_env(cmd))
        outcome.check(cmd, code, out)
        walls.append(secs)
    return walls


def end_to_end(cmds, seconds: float, outcome: Outcome) -> tuple[dict, dict, dict]:
    """End-to-end metrics, their sample counts, and median wall time per command."""
    setup = setup_calls(max(SETUP_CALLS - len(cmds), 0) // 2, outcome)
    walls, rss, per_command = [], [], {}
    while not walls or sum(walls) < seconds:
        w, r = subprocess_pass(cmds, outcome, per_command, setup)
        walls.append(w)
        rss.append(r / 1024.0)
    setup += setup_calls(max(SETUP_CALLS - len(setup), 0), outcome)
    values = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    notes = {"wall_s": f"median of {len(walls)} passes",
             "peak_rss_mb": f"median of {len(rss)} passes",
             "setup_s": f"median of {len(setup)} calls"}
    return values, notes, {key: statistics.median(v) for key, v in per_command.items()}


# ---------------------------------------------------------------------------
# in-process traced pass (per-layer metrics)


@contextlib.contextmanager
def command_env(cmd: wl.Command):
    """os.environ as child_env gives it to a subprocess, restored afterwards."""
    keys = {"THREADS", *dict(cmd.env)}
    saved = {k: os.environ.pop(k, None) for k in keys}
    os.environ.update(dict(cmd.env))
    try:
        yield
    finally:
        for k, v in saved.items():
            os.environ.pop(k, None)
            if v is not None:
                os.environ[k] = v


def traced_pass(cmds, seed: int, outcome: Outcome) -> dict:
    """Run the commands through cli.main with the wrappers installed once."""
    from cayleydist import cli

    tracer = spans.Tracer(seed)
    spans.clear_caches()
    with spans.installed(tracer):
        for cmd in cmds:
            argv = materialize(cmd)
            out, crash = io.StringIO(), None
            with command_env(cmd), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except Exception:  # a traceback is a failed command, not a crash
                    code, crash = -1, traceback.format_exc()
            if crash:
                print(crash, file=sys.stderr)
            outcome.check(cmd, code, out.getvalue())
            tracer.run_rechecks()
            spans.clear_caches()  # each subprocess starts with empty caches too
    return tracer.metrics()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cayleydist" / "cli.py").is_file():
        print(f"error: no cayleydist sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    cmds = wl.commands(args.workload, args.seed)
    outcome = Outcome(wl.load_reference())
    if args.trace:
        sys.path.insert(0, str(SRC))
        values = traced_pass(cmds, args.seed, outcome)
        units, notes, per_command = spans.metric_units(), {}, {}
    else:
        values, notes, per_command = end_to_end(cmds, args.seconds, outcome)
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  commands {len(cmds)}  "
          f"trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:>14.6g} {unit}  {notes.get(name, '')}")
    print(f"  {'failed_ratio':44s} {outcome.failed / outcome.attempted:>14.6g} ratio  "
          f"{outcome.failed} of {outcome.attempted} commands")
    for key, secs in per_command.items():
        print(f"  {secs:10.3f} s  {key}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
