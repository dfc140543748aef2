import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cayleydist
from cayleydist import _lazy, cayley, cli, embed, errors
from cayleydist.cli import main


ERROR_TYPES = sorted((cls for cls in vars(errors).values()
                      if isinstance(cls, type) and issubclass(cls, errors.CayleyDistError)),
                     key=lambda cls: cls.__name__)
# every other error type, BadScale and InfiniteNeedsRadius among them, ends in 1
EXIT_STATUS = {"CapExceeded": 3, "Overflow": 3, "NoConvergence": 2, "ZeroNorm": 2,
               "ZeroGradient": 2, "DegenerateInput": 2}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupInfo:
    def test_sol_member(self, capsys):
        code, out, _ = run(capsys, "group", "info", "--family", "sol-fin", "--n", "5")
        assert code == 0
        blob = json.loads(out)
        assert blob["oA"] == 10
        assert blob["order"] == 250
        assert blob["finite"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "group", "info", "--family", "bs-fin",
                           "--m", "2", "--n", "4", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["q"] == "15"
        assert fields["order"] == "60"

    def test_infinite_family(self, capsys):
        code, out, _ = run(capsys, "group", "info", "--family", "lamplighter-inf",
                           "--m", "3")
        assert code == 0
        assert json.loads(out)["order"] is None


class TestCayley:
    def test_ball_csv(self, capsys):
        code, out, _ = run(capsys, "cayley", "ball", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--radius", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,sphere,cumulative"
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,3,4"

    def test_ball_json(self, capsys):
        code, out, _ = run(capsys, "cayley", "ball", "--family", "bs-inf", "--m", "2",
                           "--radius", "3", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["complete"] is False
        assert blob["sphere_sizes"][0] == 1

    @pytest.mark.parametrize("line", [
        "cayley ball --family lamplighter-inf --m 2 --radius 21 --cap 100000",
        "cayley ball --family bs-inf --m 2 --radius 16 --cap 123004",
        "cayley ball --family bs-inf --m 2 --radius 16 --cap 123005",
    ], ids=["lamplighter-inf-refused", "bs-inf-refused", "bs-inf-at-the-cap"])
    def test_code_path_as_tuple_path(self, capsys, monkeypatch, line):
        """A parent ball counted on codes prints what the tuple BFS prints, the
        cap's refusal included: its stderr and exit code 3."""
        got = run(capsys, *line.split())
        monkeypatch.setattr(cayley, "CODE_CROSSOVER", {})
        assert got == run(capsys, *line.split())
        assert got[0] == (0 if line.endswith("123005") else 3)

    def test_infinite_needs_radius(self, capsys):
        code, _, err = run(capsys, "cayley", "ball", "--family", "bs-inf", "--m", "2")
        assert code == 1
        assert "radius" in err

    def test_diam(self, capsys):
        code, out, _ = run(capsys, "cayley", "diam", "--family", "sol-fin", "--n", "3")
        assert code == 0
        blob = json.loads(out)
        assert blob["diameter"] == 4
        assert blob["diam_N"] == 4


class TestGirth:
    def test_lamplighter_pair(self, capsys):
        code, out, _ = run(capsys, "girth", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--cap", "4")
        assert code == 0
        blob = json.loads(out)
        assert blob["g_lower"] == 4
        assert blob["kernel_witness"] in ("lamps:|pos:4", "lamps:|pos:-4")

    def test_infinite_family_rejected(self, capsys):
        code, _, err = run(capsys, "girth", "--family", "bs-inf", "--m", "2")
        assert code == 1
        assert "parent" in err


class TestExpRadical:
    def test_sol_inf_scan(self, capsys):
        code, out, _ = run(capsys, "expradical", "--family", "sol-inf", "--radius", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,min_log_norm,max_log_norm"

    def test_sol_inf_radius_18_runs(self, capsys):
        # the cap bounds the time cone, 179,251 elements here; the whole ball
        # exceeded the default cap of 2^22 after 6 s and 697 MB
        code, out, _ = run(capsys, "expradical", "--family", "sol-inf", "--radius", "18")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("18,")

    def test_wrong_family(self, capsys):
        code, _, err = run(capsys, "expradical", "--family", "bs-inf", "--m", "2",
                           "--radius", "6")
        assert code == 1
        assert "sol" in err

    def test_radius_required(self, capsys):
        code, _, _ = run(capsys, "expradical", "--family", "sol-inf")
        assert code == 1


class TestProfile:
    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "8", "--radius", "1,2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,certified_J,ratio_r_over_J"
        assert len(lines) == 3

    def test_p_one_allowed(self, capsys):
        code, out, _ = run(capsys, "profile", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "8", "--radius", "1", "--p", "1",
                           "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["points"][0][1] == pytest.approx(0.5, rel=1e-9)

    def test_p_out_of_range(self, capsys):
        code, _, err = run(capsys, "profile", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "8", "--radius", "1", "--p", "9")
        assert code == 1
        assert "range" in err


class TestEmbedDistort:
    def test_embed_manifest(self, capsys):
        code, out, _ = run(capsys, "embed", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4")
        assert code == 0
        blob = json.loads(out)
        assert blob["R"] == 8
        assert blob["K"] == 2
        assert len(blob["blocks"]) == 3

    def test_embed_csv(self, capsys):
        code, out, _ = run(capsys, "embed", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "radius,certified_J,coef,support_size"
        assert len(lines) == 4

    def test_distort_within_bound(self, capsys):
        code, out, _ = run(capsys, "distort", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4")
        assert code == 0
        blob = json.loads(out)
        assert 1.0 <= blob["dist"] <= blob["dist_bound"] + 1e-9

    def test_distort_time_order_two(self, capsys, tmp_path):
        # o(A, 2) = 2: the circle coordinate has two points
        code, out, _ = run(capsys, "distort", "--family", "sol-fin", "--n", "2",
                           *_config(tmp_path, {"A": [[3, 2], [1, 1]]}))
        assert code == 0
        blob = json.loads(out)
        assert 1.0 <= blob["dist"] <= blob["dist_bound"]

    @pytest.mark.parametrize("radius", [2, 4, 7])
    def test_distort_measured_at_requested_radius(self, capsys, radius):
        code, out, _ = run(capsys, "distort", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "8", "--radius", str(radius))
        assert code == 0
        blob = json.loads(out)
        assert blob["R"] == radius
        assert blob["dist"] <= blob["dist_bound"]

    def test_theorem_scope_p(self, capsys):
        code, _, err = run(capsys, "distort", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--p", "1")
        assert code == 1
        assert "[2, 8]" in err

    def test_zero_block_exits_two(self, capsys):
        code, _, err = run(capsys, "distort", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--radius", "2", "--zero-block", "0")
        assert code == 2
        assert "collapses" in err

    def test_zero_block_range_checked(self, capsys):
        code, _, err = run(capsys, "distort", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4", "--zero-block", "7")
        assert code == 1
        assert "blocks" in err

    @pytest.mark.parametrize("command", ["embed", "distort"])
    def test_small_radius_refused_before_bfs(self, capsys, monkeypatch, command):
        def no_bfs(*args, **kwargs):
            raise AssertionError("the group was enumerated")
        monkeypatch.setattr(cli, "bfs_ball", no_bfs)
        code, out, err = run(capsys, command, "--family", "lamplighter-fin",
                             "--m", "2", "--n", "6", "--radius", "1")
        assert (code, out, err) == (1, "", "error: scale R = 1 must be >= 2\n")

    def test_zero_block_refused_before_certificates(self, capsys, monkeypatch):
        def no_certificates(*args, **kwargs):
            raise AssertionError("profile certificates were computed")
        monkeypatch.setattr(embed, "profile_curve", no_certificates)
        code, out, err = run(capsys, "distort", "--family", "lamplighter-fin",
                             "--m", "2", "--n", "6", "--zero-block", "9")
        assert (code, out, err) == (1, "", "error: --zero-block 9 outside blocks 0..2\n")


class TestC2:
    def test_metric_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c2.json"
        square = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
        cfg.write_text(json.dumps({"metric": square}))
        code, out, _ = run(capsys, "c2", "--config", str(cfg))
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == pytest.approx(math.sqrt(2), abs=1e-4)

    def test_group_metric(self, capsys):
        code, out, _ = run(capsys, "c2", "--family", "bs-fin", "--m", "2", "--n", "2",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("value,")
        assert float(row.split(",")[0]) >= 1.0

    def test_group_too_large(self, capsys):
        code, _, err = run(capsys, "c2", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4")
        assert code == 1
        assert "16" in err


    @pytest.mark.filterwarnings("error")
    def test_metric_near_float_max_is_one_line(self, capsys, tmp_path):
        # the triangle check's sum 1e308 + 1e308 overflows; numpy's
        # RuntimeWarning, raised here, must not come before the refusal
        cfg = tmp_path / "c2.json"
        cfg.write_text(json.dumps({"metric": [[0, 1e308], [1e308, 0]]}))
        code, out, err = run(capsys, "c2", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err == "error: largest distance 1e+308 has no finite square\n"


class TestScan:
    def test_csv_shape_and_band(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "lamplighter-fin",
                           "--m", "2", "--n", "4,6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,order,diam,C_hat,dist_emp,dist_bound,log_diam_pow,ratio"
        assert len(lines) == 3
        for line in lines[1:]:
            vals = dict(zip(lines[0].split(","), line.split(",")))
            assert float(vals["dist_emp"]) <= float(vals["dist_bound"])
            assert float(vals["ratio"]) == pytest.approx(
                float(vals["dist_emp"]) / float(vals["log_diam_pow"]), rel=1e-9)

    def test_bit_identical_runs(self, capsys):
        argv = ("scan", "--family", "bs-fin", "--m", "2", "--n", "3,4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_plot_script(self, capsys, tmp_path):
        script = tmp_path / "plot.py"
        code, _, _ = run(capsys, "scan", "--family", "lamplighter-fin", "--m", "2",
                         "--n", "4", "--plot-script", str(script))
        assert code == 0
        text = script.read_text()
        assert "matplotlib" in text
        assert "(ln n)^(1/p)" in text

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "scan", "--family", "lamplighter-fin", "--m", "2",
                           "--n", "4", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,order,diam")

    def test_sweep_required(self, capsys):
        code, _, err = run(capsys, "scan", "--family", "lamplighter-fin", "--m", "2")
        assert code == 1
        assert "--n" in err


class TestConfigAndErrors:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "bs-fin", "m": 2, "n": 4}))
        code, out, _ = run(capsys, "group", "info", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["order"] == 60

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "bs-fin", "m": 2, "n": 4}))
        code, out, _ = run(capsys, "group", "info", "--config", str(cfg), "--n", "5")
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "bs-fin", "m": 2, "n": 4, "colour": 1}))
        code, _, err = run(capsys, "group", "info", "--config", str(cfg))
        assert code == 1
        assert "colour" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "group", "info", "--config", "/nonexistent.json")
        assert code == 1
        assert "config" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "group", "info", "--family", "bs-fin", "--m", "2",
                         "--n", "4", "--frobnicate")
        assert code == 1

    def test_missing_family(self, capsys):
        code, _, err = run(capsys, "cayley", "diam")
        assert code == 1
        assert "--family" in err

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "group", "info", "--family", "heisenberg")
        assert code == 1

    def test_cap_exceeded_is_exit_three(self, capsys):
        code, _, err = run(capsys, "cayley", "ball", "--family", "bs-inf", "--m", "2",
                           "--radius", "41")
        assert code == 3
        assert "cap" in err.lower() or "40" in err

    @pytest.mark.parametrize("exc", [*ERROR_TYPES, OSError], ids=lambda exc: exc.__name__)
    def test_error_type_sets_exit_status(self, capsys, monkeypatch, exc):
        """Each library error type, and an OSError, ends in the status the CLI
        gave it when it listed the categories itself, with one stderr line."""
        def fail(args):
            raise exc("boom")

        _, *rest = cli._COMMANDS["group info"]
        monkeypatch.setitem(cli._COMMANDS, "group info", (fail, *rest))
        code, out, err = run(capsys, "group", "info", "--family", "bs-fin", "--m", "2",
                             "--n", "4")
        assert code == EXIT_STATUS.get(exc.__name__, 1)
        assert (out, err) == ("", "error: boom\n")


def test_distort_at_the_fourier_path_size(capsys):
    """lamplighter m=2 n=14 has a radius-16 block whose p = 2 norms take the
    Fourier path; values recorded on the pair path."""
    code, out, _ = run(capsys, "distort", "--family", "lamplighter-fin", "--m", "2",
                       "--n", "14")
    assert code == 0
    blob = json.loads(out)
    assert blob["expansion"] == pytest.approx(6.110172268011218, rel=1e-9)
    assert blob["contraction"] == pytest.approx(1.2636353087613477, rel=1e-9)
    # pos:1 and its inverse pos:13 tie in exact arithmetic; rounding picks one
    assert blob["witness_expand"] in (
        ["lamps:00000000000000|pos:0", "lamps:00000000000000|pos:1"],
        ["lamps:00000000000000|pos:0", "lamps:00000000000000|pos:13"])
    assert blob["witness_contract"] == ["lamps:00000000000000|pos:0",
                                        "lamps:11111111111111|pos:7"]


def _config(tmp_path, data):
    """--config naming a file of ``data`` as JSON, or of the text itself for a str."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(data if isinstance(data, str) else json.dumps(data))
    return ["--config", str(cfg)]


# (command line, config or None, exit code, text the one stderr line must contain)
REGRESSIONS = [
    ("group info", {"family": "bs-fin", "m": "x", "n": 4}, 1, "--m"),
    ("profile --radius 1", {"family": "lamplighter-fin", "m": 2, "n": 4, "p": "x"}, 1, "--p"),
    ("c2", {"family": "bs-fin", "m": 2, "n": 2, "tol": "x"}, 1, "--tol"),
    ("cayley ball --radius 2", {"family": "lamplighter-fin", "m": 2, "n": 4, "cap": "x"},
     1, "--cap"),
    ("group info", {"family": "bs-fin", "m": 2.7, "n": 4}, 1, "2.7"),
    ("distort", {"family": "lamplighter-fin", "m": 2, "n": 4, "radius": 2.5}, 1, "2.5"),
    ("group info", {"family": "bs-fin", "m": 2, "n": 4, "format": "xml"}, 1, "xml"),
    ("c2", {"metric": [[0, 1], [1, "a"]]}, 1, "numeric"),
    ("c2", {"metric": [[0, math.inf], [math.inf, 0]]}, 1, "finite"),
    ("group info", {"family": "sol-fin", "n": 5, "A": [[2, 1], [1, 1.5]]}, 1, "integer"),
    ("c2 --family bs-fin --m 2 --n 2 --tol nan", None, 1, "finite"),
    ("cayley ball --family lamplighter-fin --m 2 --n 4 --cap 0", None, 3, "cap 0"),
    # at radius 0 cap 0 returned the identity alone
    ("cayley ball --family lamplighter-fin --m 2 --n 4 --radius 0 --cap 0", None, 3, "cap 0"),
    ("cayley ball --family bs-inf --m 2 --radius 0 --cap 0", None, 3, "cap 0"),
    ("cayley diam --family bs-fin --m 2 --n 4 --cap 1", None, 1, "--cap"),
    ("group info --family bs-fin --m 2 --n 20000", None, 3, "group order"),
    ("group info --family sol-fin --n 2000", None, 3, "group order"),
    ("group info --family sol-fin --n 1000003", None, 3, "group order"),
    ("group info --family sol-fin --n 99999999999999999999", None, 3, "group order"),
    ("group info --family bs-fin --m 2 --n 4 --out {tmp}/missing/out.json", None, 1,
     "missing"),
    ("group info", {"family": "bs-fin", "m": 2, "n": 3, "out": "a\u0000b"}, 1, "--out"),
    ("scan --family bs-fin --m 2 --n 2", {"plot_script": "a\u0000b"}, 1, "--plot-script"),
    ("c2 --family lamplighter-fin --m 2 --n 8", None, 1, "point count 2048 exceeds 16"),
    # (1,0) and t generate only half of sol n=10 and none of sol-inf's plane
    ("cayley diam --n 10", {"family": "sol-fin", "A": [[3, 1], [2, 1]]}, 1, "unit in Z/10"),
    ("distort --n 10", {"family": "sol-fin", "A": [[3, 1], [2, 1]]}, 1, "unit in Z/10"),
    ("girth --n 9", {"family": "sol-fin", "A": [[3, 1], [2, 1]]}, 1, "unit in Z:"),
    ("c2", {"metric": [[0, 1e300], [1e300, 0]]}, 1, "1e+300 has no finite square"),
    ("c2", {"metric": [[0, 1e-170], [1e-170, 0]]}, 1, "below the smallest normal float"),
    ("group info", "not json", 1, "config is not valid JSON"),
    ("group info", [1, 2], 1, "config must be a JSON object"),
    ("profile --family lamplighter-fin --m 2 --n 4", None, 1, "--radius"),
    ("scan --n 3,4", None, 1, "--family is required"),
    # JSON-valued keys take JSON numbers: float() and operator.index() read "1" and true
    ("c2", {"metric": [[0, "1"], ["1", 0]]}, 1, "numeric"),
    ("c2", {"metric": [[0, True], [True, 0]]}, 1, "numeric"),
    ("group info", {"family": "sol-inf", "A": [[2, 1], [1, True]]}, 1, "integer"),
    # a flag's type error names the value expected
    ("distort --family lamplighter-fin --m 2 --n 4 --p abc", None, 1, "finite_float"),
    ("profile --family lamplighter-fin --m 2 --n 4", {"radius": [2, 4]}, 1,
     "comma_separated_ints"),
]


@pytest.mark.parametrize("line,config,code,text", REGRESSIONS)
def test_regressions(capsys, tmp_path, line, config, code, text):
    argv = line.format(tmp=tmp_path).split()
    if config is not None:
        argv += _config(tmp_path, config)
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10  # each is refused before the costly work
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and text in err
    assert not re.search(r"(?<!\w)_\w", err)  # no private function's name


# one desk-size invocation of each command
DESK = {
    "group info": "--family bs-fin --m 2 --n 4",
    "cayley ball": "--family lamplighter-fin --m 2 --n 4",
    "cayley diam": "--family bs-fin --m 2 --n 4",
    "girth": "--family lamplighter-fin --m 2 --n 4 --cap 3",
    "expradical": "--family sol-fin --n 5 --radius 4",
    "profile": "--family lamplighter-fin --m 2 --n 4 --radius 1,2",
    "embed": "--family bs-fin --m 2 --n 4",
    "distort": "--family bs-fin --m 2 --n 4",
    "c2": "--family bs-fin --m 2 --n 2",
    "scan": "--family bs-fin --m 2 --n 3,4",
}


def _readme_defaults() -> dict:
    """Each command's default format, as the README's "Defaults:" sentence states it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = text.split("Defaults:", 1)[1].split(".", 1)[0]
    return {name: "json" if "JSON" in clause else "csv"
            for clause in sentence.split(";") for name in re.findall(r"`([^`]+)`", clause)}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", DESK)
def test_format_by_flag_config_and_out(capsys, tmp_path, command, fmt):
    """--format F, a config's {"format": F} and --out write the same bytes; the
    default is the README's."""
    argv = command.split() + DESK[command].split()
    code, text, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert text.startswith(("{", "[")) is (fmt == "json")
    assert run(capsys, *argv, *_config(tmp_path, {"format": fmt})) == (0, text, "")
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == text
    if _readme_defaults()[command] == fmt:
        assert run(capsys, *argv) == (0, text, "")


# Each fuzz case starts from a valid desk-scale invocation, split at random
# between flags and a config file, then overrides a few keys with values from
# these pools, which mix valid and malformed ones.  The only huge sizes are
# ones the group-order cap rejects.  c2 always gets a tol, so exact_c2 stays quick.
FLAG_VALUES = {
    "m": ["2", "3", "1", "x", "2.5", "10" * 15],
    "n": ["2", "3", "4", "0", "x", "2,3", "99999999999999999999"],
    "radius": ["0", "1", "2", "3", "-1", "x", "1,2", "41"],
    "cap": ["0", "1", "2", "3", "x", "41"],
    "p": ["1", "2", "3", "2.5", "9", "nan", "inf", "x"],
    "tol": ["0.01", "0.1", "1e-7", "nan", "x"],
    "format": ["json", "csv", "xml"],
    "zero_block": ["0", "1", "7", "-1", "x"],
}
FINITE = ["lamplighter-fin", "bs-fin", "sol-fin"]
OTHER = ["lamplighter-inf", "bs-inf", "sol-inf", "heisenberg"]
GROUP = ["m", "n", "format"]
READS = {
    "group info": GROUP,
    "cayley ball": GROUP + ["radius", "cap"],
    "cayley diam": GROUP,
    "girth": GROUP + ["cap"],
    "expradical": GROUP + ["radius", "cap"],
    "profile": GROUP + ["p", "radius"],
    "embed": GROUP + ["p", "radius"],
    "distort": GROUP + ["p", "radius", "zero_block"],
    "c2": GROUP + ["tol"],
    "scan": GROUP + ["p"],
}
REQUIRED = {"expradical": {"radius": "3"}, "profile": {"radius": "1,2"},
            "scan": {"n": "2,3"}, "c2": {"tol": "0.01"}}
JSON_VALUES = {
    "A": [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[2, 1], [1, 1.5]], [[1, 0], [0, 1]], 5],
    "metric": [[[0, 1], [1, 0]], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [[0, 1], [2, 0]],
               [[0, 1], [1, "a"]], []],
    "colour": [1],
}
JSON_ODDITIES = [None, True, 2.7, -1, [2, 3], {"a": 1}]
JSON_KEYS = {"c2": ["A", "metric"], "scan": []}
RARELY = [False] * 4 + [True]


def _json_form(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


@st.composite
def _invocation(draw):
    command = draw(st.sampled_from(sorted(READS)))
    reads = READS[command]
    family = draw(st.one_of(st.sampled_from(FINITE), st.sampled_from(OTHER)))
    chosen = {"family": family}
    if family.startswith(("lamplighter", "bs")):
        chosen["m"] = draw(st.sampled_from(["2", "3"]))
    if family.endswith("-fin"):
        chosen["n"] = draw(st.sampled_from(["2", "3", "4"]))
    chosen.update(REQUIRED.get(command, {}))
    for key in draw(st.lists(st.sampled_from(reads), unique=True, max_size=2)):
        chosen[key] = draw(st.sampled_from(FLAG_VALUES[key]))
    if draw(st.sampled_from(RARELY)):  # a key the command does not read
        key = draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(reads))))
        chosen[key] = draw(st.sampled_from(FLAG_VALUES[key]))
    argv, config = command.split(), {}
    for key, value in chosen.items():
        if draw(st.booleans()):
            argv += ["--" + key.replace("_", "-"), value]
        else:
            config[key] = _json_form(value)
    if draw(st.sampled_from(RARELY)):
        key = draw(st.sampled_from(JSON_KEYS.get(command, ["A"]) + reads + ["colour"]))
        config[key] = draw(st.sampled_from(JSON_VALUES.get(key, JSON_ODDITIES)))
    return argv, config


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_invocation())
def test_fuzz_exit_codes(capsys, tmp_path, invocation):
    """Every input ends in a documented exit code with at most one stderr line."""
    argv, config = invocation
    if config:
        argv = argv + _config(tmp_path, config)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1


def _run_line(line: str) -> str:
    """Child code that runs ``cayleydist <line>`` as ``python -m`` does and
    asserts exit status 0."""
    return (f"sys.argv = 'cayleydist {line}'.split()\n"
            "try:\n"
            "    runpy.run_module('cayleydist', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")


_SCIPY_LOADED = "print([k for k in sys.modules if k.partition('.')[0] == 'scipy'])"


@pytest.mark.parametrize("code", [
    "import cayleydist",
    _run_line("group info --family lamplighter-fin --m 2 --n 4"),
    _run_line("distort --family lamplighter-fin --m 2 --n 6"),
    _run_line("embed --family bs-fin --m 2 --n 6"),
    _run_line("profile --family sol-fin --n 7 --radius 1,2 --p 3"),
    _run_line("scan --family lamplighter-fin --m 2 --n 4,5"),
], ids=["import", "group-info", "distort", "embed", "profile", "scan"])
def test_scipy_left_unloaded(code):
    """No command imports a scipy module: the profile certificates, which run
    in distort, embed, profile and scan, load only scipy's ARPACK library."""
    src = str(Path(cayleydist.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import runpy, sys\n{code}\n{_SCIPY_LOADED}"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("line", [
    "distort --family lamplighter-fin --m 2 --n 6",
    "embed --family bs-fin --m 2 --n 6",
    "profile --family sol-fin --n 7 --radius 1,2 --p 3",
    "scan --family lamplighter-fin --m 2 --n 4,5",
], ids=["distort", "embed", "profile", "scan"])
def test_numpy_random_left_unloaded(line):
    """ARPACK asks each of these commands' Dirichlet solves for random restart
    vectors (on balls of 4, 5, 17, 20 or 21 elements), and they come from
    ``profile._restart_stream``, so numpy.random, about 6 MB, is never imported."""
    src = str(Path(cayleydist.__file__).resolve().parents[1])
    code = f"import runpy, sys\n{_run_line(line)}\nprint('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "False"


# numpy's __init__ always imports numpy.linalg; the name numpy itself is
# taken by the lazy module from the package's first import on
_NUMPY_LOADED = "print('numpy.linalg' in sys.modules)"


@pytest.mark.parametrize("code, loaded", [
    ("import cayleydist", False),
    (_run_line("group info --family lamplighter-fin --m 2 --n 4"), False),
    (_run_line("--help"), False),
    (_run_line("cayley ball --family lamplighter-inf --m 2 --radius 6"), False),
    (_run_line("cayley ball --family bs-inf --m 2 --radius 6"), False),
    (_run_line("cayley ball --family lamplighter-inf --m 2 --radius 18"), False),
    (_run_line("cayley ball --family bs-inf --m 2 --radius 16"), True),
    (_run_line("expradical --family sol-inf --radius 6"), False),
    (_run_line("girth --family bs-fin --m 2 --n 5 --cap 3"), False),
    (_run_line("cayley diam --family sol-fin --n 5"), True),
    ("import numpy\nimport cayleydist\nassert cayleydist.groups.np is numpy\n"
     "assert type(numpy) is type(sys)", True),
], ids=["import", "group-info", "help", "ball-lamplighter-inf", "ball-bs-inf",
        "ball-lamplighter-inf-tuples", "ball-bs-inf-codes", "expradical-sol-inf", "girth-bs-fin", "diam-sol-fin", "numpy-first"])
def test_numpy_left_unloaded(code, loaded):
    """numpy loads on first array use, so commands that run on tuple tables
    never import it, parent balls below ``CODE_CROSSOVER`` among them; a
    finite whole-group BFS and a parent ball counted on codes do."""
    src = str(Path(cayleydist.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import runpy, sys\n{code}\n{_NUMPY_LOADED}"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == str(loaded)


def test_numpy_module_is_shared():
    """Every layer and every later ``import numpy`` share one module object, and
    once numpy is imported the helper hands that module back as it is."""
    for layer in (cayleydist.groups, cayleydist.cayley, cayleydist.distortion,
                  cayleydist.embed, cayleydist.profile):
        assert layer.np is sys.modules["numpy"]
    sys.modules["numpy"].ndarray  # loads numpy if nothing has yet
    assert _lazy._lazy_numpy() is sys.modules["numpy"]
    assert type(sys.modules["numpy"]) is type(sys)


def test_stdout_independent_of_blas_threads():
    """The certificate and norm layers reduce every printed float with numpy's
    pairwise sum, which never threads, so one BLAS thread and two print the
    same bytes.  This command's Fourier norms sum a vector long enough for a
    BLAS dot product to split it across threads."""
    src = str(Path(cayleydist.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "cayleydist", "distort", "--family", "lamplighter-fin",
            "--m", "2", "--n", "14"]
    one, two = (subprocess.run(argv, capture_output=True, check=True,
                               env={**os.environ, "PYTHONPATH": src,
                                    "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2"))
    assert one == two


def _child_vmhwm_mb(line: str, numpy: bool = True) -> float:
    """Peak RSS of ``cayleydist <line>`` run in a fresh interpreter, read by the
    child itself from its VmHWM, less the peak of a ``group info`` child run the
    same way, after ``import numpy`` when ``numpy`` says the command loads it.
    The difference leaves out the interpreter and the imports, whose size moves
    by about 2 MB with whether ``src/`` holds bytecode; ``group info`` alone
    never loads numpy, so a numpy-free command is read against it alone."""
    return _vmhwm_mb(line) - _vmhwm_mb("group info --family lamplighter-fin --m 2 --n 4",
                                       "import numpy\n" if numpy else "")


def _vmhwm_mb(line: str, setup: str = "") -> float:
    src = str(Path(cayleydist.__file__).resolve().parents[1])
    code = (f"import runpy, sys\n{setup}{_run_line(line)}\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    return int(done.stdout.split()[-1]) / 1024  # VmHWM is in kB


def test_whole_group_diameter_memory():
    """The finite BFS writes int32 codes into one buffer and steps each level in
    slices of CODE_SLICE codes, so lamplighter n=16 (1,048,576 elements) peaks
    12.2-12.3 MB above a ``group info`` child (6 runs), against 17.2-18.3 MB with
    int64 codes, 22.6-23.6 MB when a whole level is
    stepped at once and 21.7-26.5 MB when each level was deduplicated by
    ``np.unique`` and the levels concatenated at the end; it peaked at 320 MB
    with a dict of decoded elements.  The child reads
    its own VmHWM, as in test_infinite_ball_memory."""
    assert _child_vmhwm_mb("cayley diam --family lamplighter-fin --m 2 --n 16") < 21


@pytest.mark.parametrize("line, bound", [
    ("distort --family bs-fin --m 2 --n 15", 17),
    ("distort --family bs-fin --m 2 --n 16", 28),
    ("distort --family lamplighter-fin --m 2 --n 14", 19),
    ("distort --family sol-fin --n 377", 48),
], ids=["bs-fin-n15", "bs-fin-n16", "lamplighter-n14", "sol-n377"])
def test_finite_distort_memory(line, bound):
    """``distort`` holds int32 codes, sums the norms in place, adds the circle
    per time index, accumulates each pair block's gap over its ball of radius
    2r - 2 alone, reads the ratios over the ball in CODE_SLICE slices and
    answers ARPACK's restarts without numpy.random.  Above a ``group info``
    child that imported numpy, 6 runs a side, against the whole-group pair
    gaps, a ball-sized gather of the norms and a ball-sized ratio buffer,
    with numpy.random loaded for the restarts: bs-fin m=2 n=15 (491,505
    elements) reads 12.2-12.5 MB against 21.6-21.8 MB; bs-fin m=2 n=16
    (1,048,560) 22.0-22.1 against 34.9-35.3 MB; lamplighter m=2 n=14
    (229,376) 15.5-15.7 against 21.2-21.5 MB; sol-fin n=377 (1,989,806)
    37.2-37.5 against 59.2-59.4 MB.  Earlier, above a ``group info`` child
    that had not imported numpy, int32 codes and in-place sums had taken
    bs-fin n=15 from 51.8-52.1 to 46.6-47.0 MB and sol-fin n=377 from
    134.0-134.3 to 84.4-85.0 MB."""
    assert _child_vmhwm_mb(line) < bound


def test_fourier_distort_memory():
    """The p = 2 Fourier path adds each time slice of a block's gap into the
    norms as it is made, so at its peak ``distort`` holds the row table and the
    sum but no group-sized gap, and the m = 2 lamplighter's rows are real.
    Above a ``group info`` child: lamplighter m=2 n=17 (2,228,224 elements)
    reads 101.6-101.9 MB (3 runs), against 129.5-129.9 MB with complex rows
    and 136.1-136.2 MB when the whole gap was built before it was added."""
    assert _child_vmhwm_mb("distort --family lamplighter-fin --m 2 --n 17") < 112


@pytest.mark.parametrize("line, bound", [
    ("cayley ball --family lamplighter-fin --m 2 --n 17 --radius 3", 7),
    ("expradical --family sol-fin --n 377 --radius 6", 6),
], ids=["lamplighter-n17-r3", "sol-n377-r6"])
def test_small_finite_ball_memory(line, bound):
    """The finite BFS indexes codes in zero-filled pages that only the ball's codes
    touch, so a small ball of a large group does not write a group-sized index.
    Above a ``group info`` child, 12 runs a side: the lamplighter n=17 radius-3
    ball (22 of 2,228,224 elements) reads 4.7-4.9 MB, against 9.2-9.4 MB when the
    index was filled with a sentinel over the whole group; the sol n=377 radius-6
    scan (867 of 1,989,806) reads 3.0-3.1 or 5.1-5.2 MB, against 8.1-8.3 MB.  The
    two sol readings are one or two 2 MB huge pages, which numpy asks for on
    arrays of 4 MB or more, so the saving is less than the whole index."""
    assert _child_vmhwm_mb(line) < bound


def test_finite_expradical_memory():
    """A finite ``expradical`` reads only the digits of the time-0 codes of its
    table, the plane subgroup, and decodes no element into a tuple.  Above a
    ``group info`` child: sol-fin n=144 radius 40 (the whole group of 248,832
    elements) reads 5.5-5.7 MB (3 runs), against 7.6-7.8 MB when the plane
    was decoded into tuples and 54.0-54.3 MB when every element was decoded
    into the tuple dict (5 runs a side); sol-fin n=377 radius 40 reads
    37.0-37.2 MB (5 runs), against 61.2-61.5 MB and 470.0 MB."""
    assert _child_vmhwm_mb("expradical --family sol-fin --n 144 --radius 40") < 20


def test_infinite_ball_memory():
    """The lamplighter-inf m=2 ball of radius 20 (229,735 elements) is counted on
    int64 codes, one level at a time, so it loads numpy and reads 4.8-4.9 MB
    above a ``group info`` child that imported numpy (4 runs); built as the
    tuple dict it read 35.4-35.5 MB above a child that loaded no numpy, and 150
    MB before time steps shared the payload tuple of the element they start
    from.  The child reads its own VmHWM: its ru_maxrss would also hold this
    process's peak, carried over through the exec that starts it."""
    line = "cayley ball --family lamplighter-inf --m 2 --radius 20"
    assert _child_vmhwm_mb(line, numpy=True) < 8


def test_tuple_ball_memory():
    """Below ``CODE_CROSSOVER`` a parent ball is the tuple dict and loads no
    numpy.  Its steps share payload tuples and (position, value) pairs, so the
    lamplighter-inf m=2 ball of radius 18 (85,806 elements) reads 10.0-10.3 MB
    above a ``group info`` child that loaded no numpy either (4 runs), against
    11.8-11.9 MB with a fresh pair per lit lamp."""
    line = "cayley ball --family lamplighter-inf --m 2 --radius 18"
    assert _child_vmhwm_mb(line, numpy=False) < 11.5


def test_infinite_expradical_memory():
    """sol-inf ``expradical`` reads its plane off a BFS confined to the time
    cone |t| <= r - d, which holds 39,609 of the 563,089 elements of the
    radius-15 ball, and loads no numpy.  Above a ``group info`` child that did
    not either it reads 4.8-5.0 MB (4 runs); against a child that imported
    numpy it read 74.9-75.0 MB (3 runs) when the whole ball was built."""
    assert _child_vmhwm_mb("expradical --family sol-inf --radius 15", numpy=False) < 8
