import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

PARENT = ["0 aa bb group info --family bs-fin --m 2 --n 3",
          "0 cc dd cayley diam --family bs-fin --m 2 --n 3",
          "1 ee ff distort --radius 1"]


def test_identical_listings_give_only_the_count():
    assert list(cli_digest.compare(PARENT, list(PARENT))) == ["3 of 3 identical"]


def test_differing_commands_are_listed_in_order():
    change = [PARENT[0], "0 cc d2 cayley diam --family bs-fin --m 2 --n 3",
              "2 ee ff distort --radius 1"]
    assert list(cli_digest.compare(PARENT, change)) == [
        f"- {PARENT[1]}", f"+ {change[1]}", f"- {PARENT[2]}", f"+ {change[2]}",
        "1 of 3 identical"]


def test_main_exits_one_on_a_difference(monkeypatch, capsys):
    outputs = {"old": PARENT, "new": PARENT[:2] + ["0 ee ff distort --radius 1"]}
    monkeypatch.setattr(cli_digest, "digest", lambda tree: iter(outputs[tree]))
    assert cli_digest.main(["old", "old"]) == 0
    assert cli_digest.main(["old", "new"]) == 1
    assert cli_digest.main(["new"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["3 of 3 identical", f"- {PARENT[2]}", f"+ {outputs['new'][2]}",
                     "2 of 3 identical", *outputs["new"]]


def test_listings_of_different_lengths_refused():
    with pytest.raises(ValueError):
        list(cli_digest.compare(PARENT, PARENT[:2]))
