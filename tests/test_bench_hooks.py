"""Smoke test of the benchmark's traced pass on desk-size commands.

``perfbench/spans.py`` rebinds the traced entry points by name and reads some
of their parameters by name, so renaming either breaks the traced pass.  This
runs that pass here, with the module imported by path, so such a rename fails
a test of the package as well.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from cayleydist import cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

DESK = [
    "distort --family lamplighter-fin --m 2 --n 5",
    "distort --family sol-fin --n 5 --p 3",
    "c2 --family lamplighter-fin --m 2 --n 2",
    "girth --family bs-fin --m 2 --n 5 --cap 3",
    "expradical --family sol-inf --radius 4",
    "profile --family bs-fin --m 2 --n 5 --radius 2",
]

# counters read off the arguments of a traced entry point: each must be reached
ARGUMENT_COUNTS = [
    "cayley.bfs_ball.calls",
    "profile.optimize_profile.ball_size",
    "embed.embed_norms_all.pairs",
    "groups.CodeSpace.act_left.rows",
    "groups.CodeSpace.encode_many.items",
    "distortion.exact_c2.points",
]


@pytest.fixture(scope="module")
def spans():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leaves no __pycache__ under perfbench/
    try:
        found = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
        module = importlib.util.module_from_spec(found)
        found.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_pass_runs_and_rechecks(spans):
    tracer = spans.Tracer(seed=0)
    with spans.installed(tracer):
        for line in DESK:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(line.split()) == 0, line
            tracer.run_rechecks()
    m = tracer.metrics()
    assert all(m[key] > 0 for key in ARGUMENT_COUNTS), {k: m[k] for k in ARGUMENT_COUNTS}
    assert m["embed.norms.max_rel_gap"] <= 1e-9
    assert m["distortion.exact_c2.gram_gap"] <= 1e-6
