"""Alternating A/B benchmark of two source trees on perfbench's workloads.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE [--workload W]... [--pairs 10] [--seed S]

For each workload (default: every workload of ``BENCHMARK.json``) and pair i,
runs

    python3 TREE/perfbench/run.py --workload W --seed S+i --seconds 5 --trace 0

on both trees, the parent first in even pairs and the change first in odd ones,
with ``PYTHONDONTWRITEBYTECODE=1`` on both sides, and reads each run's last
JSON line.  Then, per workload, it prints one line for each end-to-end metric
of ``BENCHMARK.json``: the parent's median [Q1-Q3], the change's, and the
pairs in which the change read lower (ties count for neither).  Each run's
values go to stderr as they come.  It exits 1 if any run is not ``correct``
or has ``failed`` > 0.

Give it fresh trees (``git archive`` of each commit): a tree whose ``src/``
holds bytecode starts faster than one without, so such a tree is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def schedule(pairs: int) -> list[tuple[str, str]]:
    """The order of the two sides in each pair: the parent first in even pairs."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def last_json(stdout: str) -> dict | None:
    """The last line of ``stdout`` that is a JSON object, or None."""
    for line in reversed(stdout.splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def run_ok(result: dict | None) -> bool:
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def spread(values: list[float]) -> str:
    """median [Q1-Q3], the quartiles by linear interpolation."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"


def summary(metric: str, parent: list[float], change: list[float]) -> str:
    """One metric's line over paired runs: both spreads and the change's lower count."""
    lower = sum(c < p for p, c in zip(parent, change, strict=True))
    return (f"  {metric}: parent {spread(parent)}  change {spread(change)}  "
            f"change lower in {lower}/{len(parent)}")


def run_once(tree: str, workload: str, seed: int) -> dict | None:
    """One benchmark run on ``tree``; its result object, or None without one."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(tree) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, env=env)
    return last_json(proc.stdout)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", dest="workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    trees = dict(zip(SIDES, (args.parent, args.change)))
    for side, tree in trees.items():
        if any(Path(tree, "src").rglob("__pycache__")):
            print(f"error: the {side} tree {tree} holds bytecode under src/", file=sys.stderr)
            return 2
    metrics = [entry["name"] for entry in bench["end_to_end"]]
    all_ok = True
    for workload in args.workloads or [entry["name"] for entry in bench["workloads"]]:
        values = {side: {name: [] for name in metrics} for side in SIDES}
        failed = []
        for i, order in enumerate(schedule(args.pairs)):
            seed = args.seed + i
            for side in order:
                result = run_once(trees[side], workload, seed)
                print(f"{workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr,
                      flush=True)
                if not run_ok(result):
                    failed.append(f"{side} seed {seed}")
                    continue
                for name in metrics:
                    values[side][name].append(result["metrics"][name]["value"])
        seeds = f"seeds {args.seed}-{args.seed + args.pairs - 1}"
        if failed:
            all_ok = False
            print(f"{workload}: {args.pairs} pairs, {seeds}, FAILED runs: {', '.join(failed)}")
            continue
        print(f"{workload}: {args.pairs} pairs, {seeds}, every run correct with failed 0")
        for name in metrics:
            print(summary(name, values["parent"][name], values["change"][name]), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
