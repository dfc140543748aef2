"""Workload command lists, the seeded c2 metric pool, and the output check.

Each workload is a fixed list of ``cayleydist`` commands chosen so that one
layer dominates it (see BENCHMARK.json for the reasons).  Outputs are compared
against references recorded by ``record.py`` at the commit that introduced the
benchmark: integers exactly, floats within a relative 1e-9, and for ``c2``
only ``value``, within the command's ``tol``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
C2_POOL_FILE = REFERENCE_DIR / "c2_pool.json"
REFERENCE_FILE = REFERENCE_DIR / "outputs.json"

FLOAT_RTOL = 1e-9
C2_DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  ``key`` names its reference output."""

    key: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    config: dict | None = field(default=None, compare=False)


def _cmd(line: str, env: tuple[tuple[str, str], ...] = ()) -> Command:
    argv = tuple(line.split())
    prefix = " ".join(f"{k}={v}" for k, v in env)
    return Command(key=f"{prefix} {line}".strip(), argv=argv, env=env)


SETUP_COMMAND = _cmd("group info --family lamplighter-fin --m 2 --n 4")

FIXED = {
    # embedding norms (a radius-16 block, support 16,610) dominate; BFS is minor
    "distort-ll14": [
        _cmd("distort --family lamplighter-fin --m 2 --n 14"),
    ],
    # finite BFS over code-indexed groups dominates; embedding under 1%
    "finite-bfs": [
        _cmd("distort --family bs-fin --m 2 --n 15"),
        _cmd("scan --family lamplighter-fin --m 2 --n 10,11,12,13", env=(("THREADS", "2"),)),
        _cmd("cayley diam --family sol-fin --n 144"),
        _cmd("profile --family sol-fin --n 144 --radius 2,4,8 --p 3"),
    ],
    # the tuple/dict BFS of the infinite parents plus girth's per-radius re-BFS
    "parent-bfs": [
        _cmd("cayley ball --family lamplighter-inf --m 2 --radius 21"),
        _cmd("cayley ball --family bs-inf --m 2 --radius 18"),
        _cmd("expradical --family sol-inf --radius 15"),
        _cmd("girth --family lamplighter-fin --m 2 --n 12 --cap 8"),
        _cmd("girth --family bs-fin --m 2 --n 14 --cap 8"),
    ],
    # exact_c2 is all of the work: two group metrics plus seeded random metrics
    "c2-oracle": [
        _cmd("c2 --family sol-fin --n 2"),
        _cmd("c2 --family lamplighter-fin --m 2 --n 2"),
    ],
}

WORKLOADS = tuple(FIXED)


def random_graph_metric(rng: random.Random, n: int) -> list[list[int]]:
    """Shortest-path metric of a random connected graph with weights 1..5."""
    inf = math.inf
    W = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 2 * n))]
    for a, b in edges:
        W[a][b] = W[b][a] = min(W[a][b], rng.randint(1, 5))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if W[i][k] + W[k][j] < W[i][j]:
                    W[i][j] = W[i][k] + W[k][j]
    return [[int(d) for d in row] for row in W]


def load_c2_pool() -> list[list[dict]]:
    """Strata of seeded random metrics, each entry {"id", "metric"}."""
    return json.loads(C2_POOL_FILE.read_text())["strata"]


def pool_command(entry: dict) -> Command:
    """c2 on one pool metric, passed through a --config file."""
    return Command(key=f"c2 --config {entry['id']}",
                   argv=("c2", "--config", f"{entry['id']}.json"),
                   config={"metric": entry["metric"]})


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed.

    Only c2-oracle depends on the seed: it adds one random metric from each
    stratum of the recorded pool.  Strata group metrics of similar solve cost,
    so every seed gives a batch of about the same total work.
    """
    if workload not in FIXED:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cmds = list(FIXED[workload])
    if workload == "c2-oracle":
        rng = random.Random(seed)
        cmds += [pool_command(rng.choice(stratum)) for stratum in load_c2_pool()]
    return cmds


def load_reference() -> dict:
    """Recorded {"exit", "stdout"} of every command, keyed by ``Command.key``."""
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# output check

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\binf\b|\bnan\b|Infinity|NaN))")


def _is_int(tok: str) -> bool:
    return re.fullmatch(r"-?\d+", tok) is not None


def _numbers_match(a: str, b: str) -> bool:
    if _is_int(a) and _is_int(b):
        return a == b
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def text_matches(got: str, want: str) -> bool:
    """Same text around the numbers; integers equal, floats within rel 1e-9."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return False
    # split with one capture group alternates text (even) and numbers (odd)
    return all(
        (x == y) if i % 2 == 0 else _numbers_match(x, y)
        for i, (x, y) in enumerate(zip(g, w))
    )


def c2_matches(got: str, want: str, tol: float = C2_DEFAULT_TOL) -> bool:
    """Only ``value`` is compared; the brackets are expected to change."""
    try:
        a, b = json.loads(got)["value"], json.loads(want)["value"]
    except (ValueError, KeyError, TypeError):
        return False
    return abs(a - b) <= tol * max(1.0, abs(b))


def output_ok(cmd: Command, exit_code: int, stdout: str, reference: dict) -> bool:
    """True when the exit code and stdout agree with the recorded reference."""
    ref = reference.get(cmd.key)
    if ref is None or exit_code != ref["exit"]:
        return False
    if cmd.argv[0] == "c2":
        return c2_matches(stdout, ref["stdout"])
    return text_matches(stdout, ref["stdout"])
