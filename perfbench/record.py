"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Builds the c2 metric pool and records the
exit code and stdout of every command any workload can run.  Run it only at a
commit whose outputs are the intended reference: later runs of the benchmark
count every deviation from these files as a failure.

The pool: random weighted-graph metrics from a fixed seed are sorted by the
cost of solving them; past the cheapest few, consecutive runs of eight become
the strata.  The cost is counted, not timed (projection sweeps times pairs per
sweep), so the pool does not depend on how busy the machine was.
A run picks one metric per stratum, so its batch is one of 512 and varies with
the seed while its total cost stays close to that of any other seed.
"""

from __future__ import annotations

import json
import random
import sys

import numpy as np

import run
import workloads as wl

sys.path.insert(0, str(run.SRC))

from cayleydist.distortion import exact_c2  # noqa: E402

POOL_SEED = 2007
CANDIDATES = 48
SKIP_CHEAPEST = 8  # the cheap end of the pool is spread thin in cost
PER_STRATUM = 8
STRATA = 3


def c2_cost(metric) -> float:
    """Projection sweeps of exact_c2 times (pairs + 10): about 5 us per unit."""
    sweeps = 0
    original = np.linalg.eigvalsh  # called once per sweep

    def counting(a):
        nonlocal sweeps
        sweeps += 1
        return original(a)

    np.linalg.eigvalsh = counting
    try:
        exact_c2(metric)
    finally:
        np.linalg.eigvalsh = original
    n = len(metric)
    return sweeps * (n * (n - 1) / 2 + 10)


def record(cmd: wl.Command, outputs: dict) -> float:
    code, out, wall, _ = run.run_child(run.materialize(cmd), run.child_env(cmd))
    if code != 0:
        print(f"warning: {cmd.key} exited with {code}", file=sys.stderr)
    outputs[cmd.key] = {"exit": code, "stdout": out}
    print(f"{wall:7.2f}s  {cmd.key}", flush=True)
    return wall


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    outputs: dict = {}
    record(wl.SETUP_COMMAND, outputs)
    for cmds in wl.FIXED.values():
        for cmd in cmds:
            record(cmd, outputs)

    rng = random.Random(POOL_SEED)
    costed = []
    for i in range(CANDIDATES):
        metric = wl.random_graph_metric(rng, rng.randint(8, 16))
        costed.append((c2_cost(metric), {"id": f"pool{i:02d}", "metric": metric}))
    costed.sort(key=lambda item: item[0])
    strata = [[entry for _, entry in costed[k:k + PER_STRATUM]]
              for k in range(SKIP_CHEAPEST, SKIP_CHEAPEST + STRATA * PER_STRATUM, PER_STRATUM)]
    for stratum in strata:
        for entry in stratum:
            record(wl.pool_command(entry), outputs)

    wl.C2_POOL_FILE.write_text(json.dumps({"seed": POOL_SEED, "strata": strata}) + "\n")
    wl.REFERENCE_FILE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
