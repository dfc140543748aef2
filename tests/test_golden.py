"""CLI outputs at desk sizes, pinned against ``tests/golden/outputs.json``.

Each command runs in-process through ``cli.main``.  Exit codes must match, and
stdout and stderr must match around their numbers: integers exactly, floats
within a relative 1e-9.  For ``c2`` only ``value`` is compared, within the
command's tol, because the bracket is not a certified output yet.

After an intended output change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from cayleydist import cli
from cayleydist.cli import main
from cayleydist.groups import FAMILIES, PARENT_FAMILY, from_string, make_spec, to_string

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
FLOAT_RTOL = 1e-9

COMMANDS = (
    "group info --family lamplighter-fin --m 2 --n 5",
    "group info --family bs-fin --m 2 --n 5 --format csv",
    "group info --family sol-fin --n 5",
    "group info --family sol-fin --n 5 --format csv",
    "cayley ball --family lamplighter-fin --m 2 --n 5",
    "cayley ball --family bs-fin --m 2 --n 5 --radius 4 --format json",
    "cayley ball --family sol-fin --n 5 --format json",
    "cayley diam --family lamplighter-fin --m 2 --n 6",
    "cayley diam --family bs-fin --m 2 --n 6 --format csv",
    "cayley diam --family sol-fin --n 7",
    "cayley diam --family sol-fin --n 7 --format csv",
    "girth --family lamplighter-fin --m 2 --n 5 --cap 4",
    "girth --family lamplighter-fin --m 2 --n 8 --cap 3",
    "girth --family bs-fin --m 2 --n 5 --cap 5",
    "girth --family bs-fin --m 2 --n 8 --cap 3 --format csv",
    "girth --family sol-fin --n 7 --cap 3",
    "expradical --family sol-fin --n 7 --radius 8",
    "expradical --family sol-fin --n 13 --radius 20 --format json",
    "expradical --family sol-inf --radius 8",
    "profile --family lamplighter-fin --m 2 --n 8 --radius 1,2,4",
    "profile --family bs-fin --m 2 --n 6 --radius 1,2 --p 3 --format json",
    "profile --family sol-fin --n 7 --radius 1,2 --p 2.5",
    "embed --family lamplighter-fin --m 2 --n 6",
    "embed --family bs-fin --m 2 --n 6 --format csv",
    "embed --family sol-fin --n 5 --p 3",
    "distort --family lamplighter-fin --m 2 --n 6",
    "distort --family lamplighter-fin --m 2 --n 6 --zero-block 2",
    "distort --family bs-fin --m 2 --n 6 --format csv",
    "distort --family bs-fin --m 2 --n 6 --radius 4 --p 4",
    "distort --family bs-fin --m 2 --n 3 --zero-block 0",
    "distort --family sol-fin --n 5",
    "distort --family sol-fin --n 7 --zero-block 1 --p 3",
    "c2 --family lamplighter-fin --m 2 --n 2",
    "c2 --family bs-fin --m 2 --n 2",
    "c2 --family bs-fin --m 2 --n 2 --format csv",
    "c2 --family sol-fin --n 2 --tol 1e-4",
    "scan --family lamplighter-fin --m 2 --n 3,4,5",
    "scan --family bs-fin --m 2 --n 3,4,5 --format json",
    "scan --family sol-fin --n 3,5 --format json",
    "cayley ball --family lamplighter-fin --m 3 --n 4 --radius 3",
    "cayley ball --family bs-fin --m 3 --n 4 --cap 50",
    "expradical --family sol-fin --n 144 --radius 6 --cap 1000",
    "girth --family sol-fin --n 12 --cap 3",
    "profile --family lamplighter-fin --m 3 --n 5 --radius 1,2",
    "embed --family lamplighter-inf --m 2",
    "distort --family bs-inf --m 2",
    "profile --family sol-inf --radius 1",
    "distort --family lamplighter-fin --m 2 --n 6 --radius 20",
    "profile --family lamplighter-fin --m 2 --n 6 --radius 9",
    "distort --family lamplighter-fin --m 2 --n 6 --radius 1",
    "embed --family lamplighter-fin --m 2 --n 6 --radius 1",
    "cayley diam --family sol-fin --n 144",
    "cayley diam --family lamplighter-fin --m 2 --n 12",
    "distort --family lamplighter-fin --m 2 --n 6 --zero-block 9",
    "cayley ball --family lamplighter-inf --m 2 --radius 10",
    "cayley ball --family lamplighter-inf --m 3 --radius 6 --format json",
    "cayley ball --family bs-inf --m 2 --radius 10",
    "cayley ball --family bs-inf --m 3 --radius 7 --format json",
    "cayley ball --family sol-inf --radius 9",
    "expradical --family sol-inf --radius 11 --format json",
    "cayley ball --family lamplighter-inf --m 2 --radius 12 --cap 1000",
    "cayley ball --family bs-inf --m 1000000 --radius 40 --cap 5000",
    "cayley ball --family bs-inf --m 1000000 --radius 40 --cap 6547",
    "girth --family lamplighter-fin --m 2 --n 4 --cap 4",
    "girth --family bs-fin --m 2 --n 12 --cap 3",
    "expradical --family sol-fin --n 144 --radius 40",
    "expradical --family sol-inf --radius 1",
    "expradical --family sol-inf --radius 2 --format json",
    "expradical --family sol-inf --radius 17",
    "expradical --family sol-inf --radius 6 --cap 241",
    "expradical --family sol-inf --radius 6 --cap 240",
    "cayley ball --family bs-inf --m 2 --radius 0 --cap 1",
    "cayley ball --family lamplighter-inf --m 2 --radius 21 --format json",
    "cayley ball --family bs-inf --m 3 --radius 16",
    "cayley ball --family bs-inf --m 2 --radius 18 --cap 100000",
    "cayley ball --family bs-inf --m 2 --radius 26 --cap 300000",
    "cayley ball --family bs-inf --m 3 --radius 17 --cap 300000",
    "cayley ball --family lamplighter-inf --m 2 --radius 40 --cap 1000000",
    "cayley ball --family bs-inf --m 2 --radius 40 --cap 1000000",
    "cayley diam --family lamplighter-fin --m 3 --n 8",
)

_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _run(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(line.split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _numbers_match(a: str, b: str) -> bool:
    if re.fullmatch(r"-?\d+", a) or re.fullmatch(r"-?\d+", b):
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def text_matches(got: str, want: str) -> bool:
    """Same text around the numbers; integers equal, floats within FLOAT_RTOL."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    # a split on one capture group alternates text (even) and numbers (odd)
    return len(g) == len(w) and all(
        x == y if i % 2 == 0 else _numbers_match(x, y)
        for i, (x, y) in enumerate(zip(g, w)))


def _c2_value(line: str, stdout: str) -> float:
    """``value`` from the JSON object, or from the first cell of the CSV data line."""
    if "--format csv" in line:
        return float(stdout.split("\n")[1].split(",")[0])
    return json.loads(stdout)["value"]


def _c2_value_matches(line: str, got: str, want: str) -> bool:
    args = line.split()
    tol = float(args[args.index("--tol") + 1]) if "--tol" in args else 1e-6
    a, b = _c2_value(line, got), _c2_value(line, want)
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_output(golden, line):
    got, want = _run(line), golden[line]
    assert got["exit"] == want["exit"]
    assert text_matches(got["stderr"], want["stderr"]), got["stderr"]
    if line.startswith("c2 "):
        assert _c2_value_matches(line, got["stdout"], want["stdout"]), got["stdout"]
    else:
        assert text_matches(got["stdout"], want["stdout"]), got["stdout"]


def test_printed_elements_read_back(golden):
    """from_string reads back every element string the golden outputs hold:
    distort's witnesses on the finite families, and girth's kernel and isometry
    witnesses on their parents, each read with the spec its command line names."""
    families = set()
    for line, want in golden.items():
        command = line.split()[0]
        if command not in ("distort", "girth") or want["exit"] or "--format csv" in line:
            continue
        blob = json.loads(want["stdout"])
        spec = cli._spec_from_args(cli._parse(line.split()))
        if command == "girth":
            spec = make_spec(PARENT_FAMILY[spec.family], m=spec.m, A=spec.A)
            texts = [blob["kernel_witness"], *(blob["iso_witness"] or ())]
        else:
            texts = blob["witness_expand"] + blob["witness_contract"]
        for text in filter(None, texts):
            assert to_string(spec, from_string(spec, text)) == text
            families.add(spec.family)
    assert families == set(FAMILIES)


@pytest.mark.parametrize("got, want, same", [
    ("dist 6.5975963466900245\n", "dist 6.597596346690025\n", True),
    ("dist 6.5975963\n", "dist 6.5975964\n", False),
    ("R 13\n", "R 14\n", False),
    ("R 13\n", "R 13.0\n", False),
    ("pos:-2\n", "pos:2\n", False),
])
def test_text_matches(got, want, same):
    assert text_matches(got, want) is same


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({line: _run(line) for line in COMMANDS}, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} outputs to {GOLDEN}")
