from __future__ import annotations

import json

from click.testing import CliRunner

from stallings import RootClosureResult, Word, graph_to_dict, separability, subgroup_graph
from stallings.cli import main


def _subgroup_file(tmp_path, *texts: str, n: int = 2):
    h = subgroup_graph([Word.parse(t, n) for t in texts], n)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_dict(h.graph)))
    return h, str(path)


def _invoke(*args: str):
    return CliRunner().invoke(main, list(args))


def test_root_closed_cyclic_with_composite_l(tmp_path):
    h, path = _subgroup_file(tmp_path, "aaaa")
    result = _invoke("root-closed", path, "--l", "6")
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload == {"verdict": False, "l": 6, "certificate": "aa"}
    w = Word.parse(payload["certificate"], 2)
    assert h.contains(w**6) and not h.contains(w)


def test_root_closed_rank_two(tmp_path):
    h, path = _subgroup_file(tmp_path, "abab", "bb")
    result = _invoke("root-closed", path, "--l", "2")
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload == {"verdict": False, "l": 2, "certificate": "b"}
    w = Word.parse(payload["certificate"], 2)
    assert h.contains(w**2) and not h.contains(w)

    result = _invoke("root-closed", path, "--l", "3")
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout) == {"verdict": True, "l": 3, "certificate": None}


def test_separate_refuses_a_subgroup_that_is_not_root_closed():
    result = _invoke("separate", "--cyclic", "aaaaaa", "--word", "a", "--L", "3")
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "not_root_closed"
    assert error["details"]["l"] == 3
    w = Word.parse(error["details"]["witness"], 2)
    h = subgroup_graph([Word.parse("aaaaaa", 2)], 2)
    assert h.contains(w**3) and not h.contains(w)


def test_failed_postcondition_is_error_json(monkeypatch):
    # A root-closure check that wrongly passes <a^2> for l = 2 lets
    # separate_from_cyclic reach its gcd-rule postcondition.
    monkeypatch.setattr(
        separability, "is_l_root_closed", lambda h, l: RootClosureResult(True, None)
    )
    result = _invoke("separate", "--cyclic", "aa", "--word", "a", "--L", "2")
    assert result.exit_code == 1, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "postcondition_failed"
    assert error["details"] == {"p": 2, "i": 2}
