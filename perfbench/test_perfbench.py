"""Tests of the benchmark itself, on desk-size commands.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

from cayleydist import cayley, cli, profile  # noqa: E402

DESK = [
    "distort --family lamplighter-fin --m 2 --n 6",
    "distort --family sol-fin --n 5",
    "profile --family bs-fin --m 2 --n 5 --radius 1,2 --p 3",
    "girth --family bs-fin --m 2 --n 4 --cap 3",
    "expradical --family sol-inf --radius 6",
    "c2 --family bs-fin --m 2 --n 2",
]


def _main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _traced(lines) -> spans.Tracer:
    tracer = spans.Tracer(seed=3)
    with spans.installed(tracer):
        for line in lines:
            code, _ = _main(line.split())
            assert code == 0, line
            tracer.run_rechecks()
    return tracer


def test_self_times_add_up_to_main():
    tracer = _traced(DESK)
    m = tracer.metrics()
    layer_self = sum(v for k, v in m.items()
                     if k.endswith(".s") and k not in ("cli.main.s", "cli.self.s"))
    assert m["cli.main.s"] > 0
    assert m["cli.self.s"] > 0
    assert layer_self + m["cli.self.s"] == pytest.approx(m["cli.main.s"], rel=1e-9)
    assert all(v >= 0 for k, v in m.items() if k.endswith(".s"))


def test_counters_and_rechecks():
    m = _traced(DESK).metrics()
    assert set(m) == set(spans.metric_units())
    assert 0 < m["trace.overhead_s"] < m["cli.main.s"]
    assert m["cayley.bfs_ball.calls"] >= len(DESK)
    assert m["cayley.bfs_ball.repeat_ratio"] > 0
    assert 0 < m["profile.optimize_profile.converged_ratio"] <= 1
    # the radius-1 profile certificate is the dirac
    assert m["profile.optimize_profile.dirac_fallbacks"] >= 1
    assert m["embed.embed_norms_all.pairs"] > 0
    assert m["distortion.exact_c2.points"] == 6  # bs-fin m=2 n=2 has order 3 * 2
    assert m["embed.norms.max_rel_gap"] < 1e-9
    assert m["distortion.exact_c2.gram_gap"] == 0.0


def test_repeat_ratio_shows_doubled_bfs():
    # distort enumerates the whole group twice: once for the bundle, once to measure
    m = _traced([DESK[0]]).metrics()
    assert 0.3 < m["cayley.bfs_ball.repeat_ratio"] < 0.5


def test_wrappers_rebound_and_restored():
    original = cayley.bfs_ball
    with spans.installed(spans.Tracer()):
        assert profile.bfs_ball is not original
        assert profile.bfs_ball is cayley.bfs_ball
    assert profile.bfs_ball is original and cayley.bfs_ball is original


def _reference(cmd: wl.Command) -> dict:
    code, out = _main(cmd.argv)
    return {cmd.key: {"exit": code, "stdout": out}}


def _perturb_first(text: str, kind: str, factor: float) -> str:
    parts = wl._NUMBER.split(text)
    for i in range(1, len(parts), 2):
        if (kind == "int") == wl._is_int(parts[i]):
            value = int(parts[i]) + 1 if kind == "int" else float(parts[i]) * factor
            parts[i] = str(value)
            return "".join(parts)
    raise AssertionError(f"no {kind} in output")


@pytest.mark.parametrize("line", DESK[:3])
def test_output_check_catches_perturbed_reference(line):
    cmd = wl._cmd(line)
    ref = _reference(cmd)
    code, out = _main(cmd.argv)
    assert wl.output_ok(cmd, code, out, ref)
    want = ref[cmd.key]["stdout"]
    for kind, factor, caught in (("float", 1 + 1e-6, True), ("int", 1, True),
                                 ("float", 1 + 1e-12, False)):
        bad = {cmd.key: {"exit": 0, "stdout": _perturb_first(want, kind, factor)}}
        assert wl.output_ok(cmd, code, out, bad) is not caught, (kind, factor)
    assert not wl.output_ok(cmd, code, out, {cmd.key: {"exit": 2, "stdout": want}})


def test_c2_check_compares_value_only():
    cmd = wl._cmd(DESK[-1])
    ref = _reference(cmd)
    code, out = _main(cmd.argv)
    blob = json.loads(ref[cmd.key]["stdout"])
    brackets = dict(blob, bracket_lo=blob["bracket_lo"] * 0.5)
    assert wl.output_ok(cmd, code, out, {cmd.key: {"exit": 0, "stdout": json.dumps(brackets)}})
    moved = dict(blob, value=blob["value"] * (1 + 1e-4))
    assert not wl.output_ok(cmd, code, out, {cmd.key: {"exit": 0, "stdout": json.dumps(moved)}})


def test_failing_command_raises_failed_ratio():
    run.WORK.mkdir(exist_ok=True)
    good = wl._cmd("group info --family bs-fin --m 2 --n 3")
    bad = wl._cmd("group info --family no-such-family")
    reference = {**_reference(good), bad.key: {"exit": 0, "stdout": ""}}
    outcome = run.Outcome(reference)
    wall, rss = run.subprocess_pass([good, bad], outcome)
    assert wall > 0 and rss > 0
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.failures == [f"{bad.key} (exit 1)"]


def test_c2_pool_selection_is_seeded():
    a, b = wl.commands("c2-oracle", 5), wl.commands("c2-oracle", 5)
    assert [c.key for c in a] == [c.key for c in b]
    reference = wl.load_reference()
    assert all(c.key in reference for c in a)
    keys = {tuple(c.key for c in wl.commands("c2-oracle", s)) for s in range(20)}
    assert len(keys) > 1


def test_every_reference_recorded_with_exit_zero():
    reference = wl.load_reference()
    cmds = [wl.SETUP_COMMAND, *(c for cs in wl.FIXED.values() for c in cs)]
    for stratum in wl.load_c2_pool():
        cmds += [wl.pool_command(e) for e in stratum]
    assert {c.key for c in cmds} == set(reference)
    assert all(entry["exit"] == 0 for entry in reference.values())
