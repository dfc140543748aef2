import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleydist.cli import main


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
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
