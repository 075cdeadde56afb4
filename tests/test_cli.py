from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from stallings import (
    RootClosureResult,
    Word,
    eppa_extend,
    extension_to_dict,
    graph_to_dict,
    hypertournaments,
    make_family,
    make_hypertournament,
    separability,
    subgroup_graph,
    wedge_graph,
)
import stallings
from stallings import cli, fiber, graphs, words
from stallings.cli import main
from stallings.serialize import BLOCK_CHARS


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


def test_root_closed_on_the_wedge_answers_a_huge_l_at_once(tmp_path):
    # F_2 itself: its one-vertex product holds only the constant tuple, which
    # took time linear in l to build (9 s at this l)
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(graph_to_dict(wedge_graph(2))))
    start = time.perf_counter()
    result = _invoke("root-closed", str(path), "--l", "2000003")
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout) == {"verdict": True, "l": 2000003, "certificate": None}


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
        separability, "power_root_closure", lambda a, i, l: RootClosureResult(True, None)
    )
    result = _invoke("separate", "--cyclic", "aa", "--word", "a", "--L", "2")
    assert result.exit_code == 1, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "postcondition_failed"
    assert error["details"] == {"p": 2, "i": 2}


def _json_file(tmp_path, name: str, value) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(value))
    return str(path)


def _structure_file(tmp_path, universe, l, relation) -> str:
    structure = {"L": [l], "universe": universe, "relations": {str(l): relation}}
    return _json_file(tmp_path, "structure.json", structure)


_LETTERS5 = [
    ["p", "q"], ["q", "r"], ["r", "p"], ["p", "s"], ["q", "s"],
    ["r", "s"], ["t", "p"], ["t", "q"], ["t", "r"], ["s", "t"],
]

# Output digests of eppa-extend, first taken from the tuple-at-a-time
# implementation that tuple codes replaced, and re-pinned on purpose each
# time the construction changed. The latest change gives each component of
# the family graph its own orbit G/H_C under the input letters alone,
# instead of joining the components by connector maps under fresh letters
# into one orbit. A tree component's orbit is all of G, so these sizes are
# |G| per component:
# - transitive4 (9): Z/3 on three components; the digest moved;
# - triples4 (7 -> 6): Z/2 on three components;
# - letters5 (17 -> 12): Z/3 on four components;
# - swap3 (8 -> 6): Z/2 on three components; the swap's loop a^2 dies in
#   Z/2, so its component's orbit is Z/2 as well;
# - rotation3 (3): the same extension; the digest moved with the JSON's
#   "notes" key, which is gone.
_EPPA_CASES = {
    "transitive4": (
        [0, 1, 2, 3], 2, [[i, j] for i in range(4) for j in range(i + 1, 4)],
        [{"map": {"0": 3}}], 9,
        "e0b8923b5dcaae73b77bccf5aa26e843bf949f31da0e302a3d603e859ad0c7e7",
    ),
    "triples4": (
        [0, 1, 2, 3], 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        [{"map": {"0": 3}}], 6,
        "868740591d49af013eb949c18062933181e0c0854b8f3ffed38d9525130bceb6",
    ),
    "letters5": (
        ["p", "q", "r", "s", "t"], 2, _LETTERS5, [{"map": {"p": "q"}}], 12,
        "fe5c18b7e702c7c45eb7b84039fe667f917fe1fab9b0d4e991fa04114faa1ef3",
    ),
    # the two families below have a nontrivial basepoint stabilizer
    "rotation3": (
        [0, 1, 2], 2, [[0, 1], [1, 2], [2, 0]], [{"map": {"0": 1, "1": 2, "2": 0}}], 3,
        "3b2dcbc3a2072524a755858e65cd2199fbeb7c36ecefdae55f5f1bec225b5284",
    ),
    "swap3": (
        [0, 1, 2, 3], 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        [{"map": {"0": 1, "1": 0}}], 6,
        "51038143f35e34d71a00152f1021afccf45a4250f84e6c6eeefaa18978cf81c8",
    ),
}


@pytest.mark.parametrize("name", sorted(_EPPA_CASES))
def test_eppa_extend_output_is_pinned(tmp_path, name):
    universe, l, relation, maps, size, digest = _EPPA_CASES[name]
    structure = _structure_file(tmp_path, universe, l, relation)
    maps_path = _json_file(tmp_path, "maps.json", maps)
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["verified"] is True
    assert payload["size"] == size == len(payload["extended"]["universe"])
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def _random_structure(l: int, n: int) -> list:
    """A random tournament (l = 2) or 3-hypertournament (l = 3) on range(n),
    one arrangement per l-subset, drawn from a fixed seed."""
    rng = random.Random(f"eppa-scale/{l}/{n}")
    relation = []
    for subset in itertools.combinations(range(n), l):
        arrangement = list(subset)
        rng.shuffle(arrangement)
        relation.append(arrangement)
    return relation


# Digests of eppa-extend on larger random inputs with the one-pair map
# {0 -> 1}, taken from the seed-at-a-time orbit completion: 38 points under
# Z/2 at arity 3, and 237 points under Z/3 at arity 2.
_EPPA_SCALE_CASES = {
    (3, 20): (38, "05bd512ac5338c4128fddd5f390df44bbc340f09b66ebe280d0b9b0df271600c"),
    (2, 80): (237, "1c50b5e544789c078d60100afe3db253006a2e931d36eb56fb517323362089ca"),
}


@pytest.mark.parametrize("l, n", sorted(_EPPA_SCALE_CASES))
def test_eppa_extend_output_is_pinned_at_scale(tmp_path, l, n):
    size, digest = _EPPA_SCALE_CASES[l, n]
    structure = _structure_file(tmp_path, list(range(n)), l, _random_structure(l, n))
    maps_path = _json_file(tmp_path, "maps.json", [{"map": {"0": 1}}])
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["verified"] is True and payload["size"] == size
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def _circulant_structure(k: int, n: int) -> list:
    """The circulant tournament on 0, ..., k - 1 (i -> i + d mod k for
    d = 1, ..., (k - 1) / 2), inside a tournament on range(n) whose other
    arcs are oriented by seeded coin flips."""
    rng = random.Random(f"circulant/{k}/{n}")
    relation = []
    for i, j in itertools.combinations(range(n), 2):
        forward = (j - i) % k <= (k - 1) // 2 if j < k else rng.random() < 0.5
        relation.append([i, j] if forward else [j, i])
    return relation


def _looped_structure() -> list:
    """A seeded 3-hypertournament on range(8), one arrangement per triple."""
    rng = random.Random("looped/0")
    return [rng.sample(t, 3) for t in itertools.combinations(range(8), 3)]


# Digests of eppa-extend on families whose vertex groups are not all
# trivial, so the coset system has clause generators. The circulant k-cycle
# with its rotation as the map is its own component with vertex group <a^k>;
# Z/k serves it, and each other point takes a k-point orbit. The looped
# family swaps 0 and 1, sends 2 -> 6 and 6 -> 3: its product tier finds
# Z/2, Z/2 and Z/4 and prunes one Z/2.
_EPPA_LOOPED_CASES = {
    "circulant3/40": (
        2, 40, lambda: _circulant_structure(3, 40), [{"0": 1, "1": 2, "2": 0}], 114,
        "0bbc59f4b94b0baf0b64fee28e042938d132b6dfeb3b11345204d0c2db78253b",
    ),
    "circulant3/80": (
        2, 80, lambda: _circulant_structure(3, 80), [{"0": 1, "1": 2, "2": 0}], 234,
        "2362016a74216be61d90350ab4674c87d00a026d3e09db84ba6ed562a9bc02e9",
    ),
    "circulant9/40": (
        2, 40, lambda: _circulant_structure(9, 40), [{str(i): (i + 1) % 9 for i in range(9)}], 288,
        "cbbfbd369c017fccada0e12473075cf4a54e7b4ff3d34eff931a3b31f576da28",
    ),
    "circulant9/80": (
        2, 80, lambda: _circulant_structure(9, 80), [{str(i): (i + 1) % 9 for i in range(9)}], 648,
        "2d44c7e6e52d197fccc4dadb0ca6f2fbc725623d3962ef77539073239d3eddb9",
    ),
    "looped8": (
        3, 8, _looped_structure, [{"0": 1, "1": 0, "2": 6}, {"6": 3}], 36,
        "2a8af0fb7432b2a77382fd4fb149f730590c62a2cb8acfbf4de68e1c587bfd52",
    ),
}


@pytest.mark.parametrize("name", sorted(_EPPA_LOOPED_CASES))
def test_eppa_extend_output_is_pinned_on_looped_families(tmp_path, name):
    l, n, relation, maps, size, digest = _EPPA_LOOPED_CASES[name]
    structure = _structure_file(tmp_path, list(range(n)), l, relation())
    maps_path = _json_file(tmp_path, "maps.json", [{"map": mp} for mp in maps])
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["verified"] is True and payload["size"] == size
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_cli_output_does_not_depend_on_the_hash_seed(tmp_path):
    bad = _json_file(tmp_path, "bad.json", {
        "L": [2],
        "universe": ["a", "b", "c", "d"],
        "relations": {"2": [["a", "b"], ["c", "c"], ["d", "d"], ["b", "b"], ["a", "zz"], ["zz", "a"]]},
    })
    structure = _structure_file(tmp_path, ["p", "q", "r", "s", "t"], 2, _LETTERS5)
    maps_path = _json_file(tmp_path, "maps.json", [{"map": {"p": "q"}}])
    graph = _json_file(tmp_path, "graph.json", {
        "n": 2,
        "vertices": ["x", "y", "z", "w"],
        "edges": [["x", "y", "a"], ["y", "x", "a"], ["x", "z", "b"], ["z", "z", "a"], ["x", "w", "b"], ["w", "x", "b"]],
        "basepoint": "x",
    })
    commands = [
        (["validate", bad], 2),
        (["eppa-extend", structure, maps_path], 0),
        (["fold", graph, "--core"], 0),
        (["malnormal", graph], 1),
        # a sampled witness: Z/3 wr Z/3 wr Z/3, drawn from a stream fixed by p
        (["separate", "--cyclic", "BaBABaBABaBA", "--word", "Abbba", "--L", "2"], 0),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for args, status in commands:
        runs = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "stallings.cli", *args], env=env, capture_output=True, text=True
            )
            runs.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(runs) == 1, (args, runs)
        assert runs.pop()[0] == status, args


def test_eppa_extend_writes_its_output_in_bounded_blocks(tmp_path, monkeypatch):
    # The text of a large extension goes out in bounded blocks: blocks of
    # thousands of rows raised the peak RSS of the eppa benchmark workloads.
    # On the transitive tournament on eight points, map 0 sends 0 -> 1 along
    # an arc and 3 -> 2 against one, and map 1 sends 1 -> 3, so 0, 1, 3, 2
    # form one component with path words 1, a, ba, aba. Keeping the arc
    # (0, 1) off the non-arc (3, 2) separates ba from ab, which have one
    # exponent-sum vector, so no abelian quotient serves the system. The
    # product tier's Heis(3) does, with one 27-point orbit for each of the
    # five components: 135 points.
    universe = list(range(8))
    relation = [[i, j] for i in universe for j in universe if i < j]
    structure = _structure_file(tmp_path, universe, 2, relation)
    maps = [{"0": 1, "3": 2}, {"1": 3}]
    maps_path = _json_file(tmp_path, "maps.json", [{"map": mp} for mp in maps])
    blocks = []
    echo = click.echo

    def spy(message=None, *args, **kwargs):
        if message is not None:
            blocks.append(message)
        echo(message, *args, **kwargs)

    monkeypatch.setattr(click, "echo", spy)
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["size"] == 135 and len(payload["extended"]["relations"]["2"]) == 135 * 134 // 2
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert "".join(blocks) == text and result.stdout == text + "\n"
    assert len(blocks) > len(text) // BLOCK_CHARS >= 1
    assert max(map(len, blocks)) <= BLOCK_CHARS

    # --out writes the same blocks to the file in the same pass
    out = tmp_path / "extension.json"
    result = _invoke("eppa-extend", structure, maps_path, "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text() == result.stdout == text + "\n"
    m = make_hypertournament(universe, [2], {2: relation})
    family = make_family(m, [{int(x): y for x, y in mp.items()} for mp in maps])
    extension = eppa_extend(m, family, bound=500_000)
    rows = extension_to_dict(extension)["extended"]["relations"]["2"]
    assert payload["extended"]["relations"]["2"] == rows.tolist()


def test_verify_extension_rejects_a_tampered_extension(tmp_path):
    universe, l, relation, maps, _, _ = _EPPA_CASES["transitive4"]
    structure = _structure_file(tmp_path, universe, l, relation)
    maps_path = _json_file(tmp_path, "maps.json", maps)
    out = tmp_path / "extension.json"
    assert _invoke("eppa-extend", structure, maps_path, "--out", str(out)).exit_code == 0
    result = _invoke("verify-extension", structure, maps_path, str(out))
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout) == {"verified": True, "size": 9}

    # files from before the "notes" key was dropped still load
    extension = json.loads(out.read_text())
    assert "notes" not in extension
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**extension, "notes": ["added connector map 1: 0 -> 1"]}))
    result = _invoke("verify-extension", structure, maps_path, str(older))
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout) == {"verified": True, "size": 9}

    points = extension["extended"]["universe"]
    extension["automorphisms"] = [[[x, x] for x in points]]
    out.write_text(json.dumps(extension))
    result = _invoke("verify-extension", structure, maps_path, str(out))
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout) == {"verified": False, "size": 9}


def test_validate_reports_the_smallest_violation(tmp_path):
    relation = [["y", "x"], ["x", "y"], ["x", "z"], ["y", "z"]]
    structure = _structure_file(tmp_path, ["x", "y", "z"], 2, relation)
    result = _invoke("validate", structure)
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout) == {
        "valid": False,
        "violation": {"kind": "cycle", "l": 2, "witness": ["x", "y"]},
    }

    # {w, y} and {x, z} carry no arrangement; the smaller one is reported
    relation = [["x", "w"], ["z", "w"], ["x", "y"], ["y", "z"]]
    structure = _structure_file(tmp_path, ["w", "x", "y", "z"], 2, relation)
    result = _invoke("validate", structure)
    assert result.exit_code == 1, result.output
    assert json.loads(result.stdout)["violation"] == {
        "kind": "unoriented", "l": 2, "witness": ["w", "y"],
    }


def test_validate_refuses_two_relation_keys_for_one_arity(tmp_path):
    # "2" and "02" were read as one arity, the last kept: the 3-cycle then
    # lost two of its pairs and was reported as unoriented
    structure = _json_file(tmp_path, "cycle.json", {
        "universe": [0, 1, 2], "L": [2],
        "relations": {"2": [[0, 1], [1, 2], [2, 0]], "02": [[1, 0]]},
    })
    result = _invoke("validate", structure)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "invalid_input", "message": "relation keys '2' and '02' both name arity 2",
    }


def test_eppa_extend_refuses_two_map_keys_for_one_label(tmp_path):
    # "0" and " 0" both resolve to the label 0; the last was kept, and the
    # map was extended as 0 -> 2
    structure = _structure_file(tmp_path, [0, 1, 2], 2, [[0, 1], [1, 2], [2, 0]])
    maps_path = _json_file(tmp_path, "maps.json", [{"map": {"0": 1, " 0": 2}}])
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "invalid_input", "message": "map 0 defines 0 twice, as '0' and ' 0'",
    }


def test_eppa_extend_refuses_a_family_that_is_not_a_subtadpole(tmp_path):
    six = [
        [0, 1], [2, 5], [4, 3], [0, 5], [3, 1], [0, 2], [0, 3], [0, 4],
        [1, 2], [1, 4], [1, 5], [2, 3], [2, 4], [3, 5], [4, 5],
    ]
    star = [{"map": {"0": 2, "1": 5}}, {"map": {"0": 3, "5": 1}}, {"map": {"0": 4, "1": 3}}]
    structure = _structure_file(tmp_path, list(range(6)), 2, six)
    maps_path = _json_file(tmp_path, "maps.json", star)
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["error"] == "not_subtadpole"


def test_failed_extension_audit_is_error_json(tmp_path, monkeypatch):
    # The audit inside eppa_extend replaces the assert that python -O drops.
    monkeypatch.setattr(hypertournaments, "verify_extension", lambda r, m, p: False)
    universe, l, relation, maps, _, _ = _EPPA_CASES["transitive4"]
    structure = _structure_file(tmp_path, universe, l, relation)
    maps_path = _json_file(tmp_path, "maps.json", maps)
    result = _invoke("eppa-extend", structure, maps_path)
    assert result.exit_code == 1, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "postcondition_failed"
    assert error["message"] == "extension failed its own audit"


# Inputs and output digests of the graph commands, taken from the quadratic
# fold/core and the per-component edge scans that they replaced.
_RAW_GRAPH = {  # folds w into x and h1 into z; core drops h2 and the 7-8 component
    "n": 2,
    "vertices": ["x", "y", "z", "w", "h1", "h2", 7, 8],
    "edges": [
        ["y", "x", "a"], ["x", "z", "b"], ["z", "y", "a"], ["y", "w", "a"],
        ["w", "h1", "b"], ["h1", "h2", "b"], [7, 8, "a"], [8, 7, "b"],
    ],
    "basepoint": "y",
}
_GERSTEN_CONFIG = {
    "p": 5,
    "domain": {
        "n": 2,
        "vertices": [0, 1, 2, 3],
        "edges": [[0, 1, "a"], [1, 0, "b"], [0, 2, "b"], [2, 3, "a"], [0, 3, "b"]],
        "basepoint": 0,
    },
    "codomain": {"n": 2, "vertices": [0], "edges": [[0, 0, "a"], [0, 0, "b"]], "basepoint": 0},
    "vertex_map": [[0, 0], [1, 0], [2, 0], [3, 0]],
    "cocycle": {"a": 2, "b": 3},
}
# Changes to _GERSTEN_CONFIG, by the file spec that names them.
_GERSTEN_VARIANTS = {
    "@gersten": {},
    "@gersten p=0": {"p": 0},
    # cocycle values outside int64, read mod p as Python ints
    "@gersten wide cocycle": {"cocycle": [[[0, 0, "a"], 2**64 + 3], [[0, 0, "b"], -7]]},
}
_GRAPH_CASES = {
    "fold-core": (
        ("fold", "@raw", "--core"), 0,
        "e6e9a7345367a467ea5dea1d3dc91a212f0d4e8769e04843c9312f0c56b53b1b",
    ),
    "malnormal-yes": (
        ("malnormal", "@abABa,b"), 0,
        "8177d7d4994297f9ac8afde7cab1ca22f1cb9faaae1a3ff7f30c59545895e6ed",
    ),
    "malnormal-no": (
        ("malnormal", "@aab,abAB,bbb"), 1,
        "cbe216c479d932cc445b80a6113abbcb31beb556c6da97eea58a4a937e8e2965",
    ),
    "fiber-product": (
        ("fiber-product", "@abABa,b", "@aa,abb"), 0,
        "08e2cde014e4e0999d9b8a7864b28892c6f6c7b505b504aa8f701422afdce51f",
    ),
    "gersten-check": (
        ("gersten-check", "@gersten"), 0,
        "2cdcef57007fe79d736e1816831c03d7f9ef6b8839a693021975d0a5406a6316",
    ),
}


# h1 on the raw graph (three components) and on the gersten-check domain,
# and one small property suite run; digests taken from the tuple-of-tuples
# GF(p) matrices that one read-only array per matrix replaced.
_GRAPH_CASES.update({
    "h1-raw-2": (
        ("h1", "@raw", "--p", "2"), 0,
        "208b56b42a07c095a9000ce6871230041842656c6fcc85b8354c26222dd3b75f",
    ),
    "h1-raw-3": (
        ("h1", "@raw", "--p", "3"), 0,
        "f90e6c41ae12e3cbc900cd0005ae7b1ede2b267e1abf3ea3ed8f9ff57f53f2db",
    ),
    "h1-domain-2": (
        ("h1", "@domain", "--p", "2"), 0,
        "8b36b7e7fa64ef81a8b4881a4f490d80b02ca8f5a5c0afc8ed181e7e45c82a68",
    ),
    "h1-domain-3": (
        ("h1", "@domain", "--p", "3"), 0,
        "5473f4d5a7b46764c6d1d66a39f9639e5ba993e1ddc96d472999e27755fa47c5",
    ),
    "suite": (
        ("suite", "--seed", "0", "--trials", "2"), 0,
        "f7e0a8dcdad45433aec519083e9408566c26f6bc76b94f483ff62b88a705da17",
    ),
})


def _graph_case_file(tmp_path, spec: str, k: int) -> str:
    if spec == "@raw":
        return _json_file(tmp_path, f"{k}.json", _RAW_GRAPH)
    if spec in _GERSTEN_VARIANTS:
        return _json_file(tmp_path, f"{k}.json", {**_GERSTEN_CONFIG, **_GERSTEN_VARIANTS[spec]})
    if spec == "@domain":
        return _json_file(tmp_path, f"{k}.json", _GERSTEN_CONFIG["domain"])
    if spec == "@missing":
        return str(tmp_path / "missing.json")
    h = subgroup_graph([Word.parse(t, 2) for t in spec[1:].split(",")], 2)
    return _json_file(tmp_path, f"{k}.json", graph_to_dict(h.graph))


def _command_args(tmp_path, args) -> list[str]:
    return [_graph_case_file(tmp_path, a, k) if a.startswith("@") else a for k, a in enumerate(args)]


@pytest.mark.parametrize("name", sorted(_GRAPH_CASES))
def test_graph_command_output_is_pinned(tmp_path, name):
    args, status, digest = _GRAPH_CASES[name]
    result = _invoke(*_command_args(tmp_path, args))
    assert result.exit_code == status, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_gersten_check_reads_each_graph_once(tmp_path, monkeypatch):
    # the cover is built on the codomain that the morphism was read onto
    built = []
    real = graphs.IndexGraph.of
    monkeypatch.setattr(graphs.IndexGraph, "of", staticmethod(lambda g: built.append(g) or real(g)))
    result = _invoke(*_command_args(tmp_path, ("gersten-check", "@gersten")))
    assert result.exit_code == 0, result.output
    assert [len(g.vertices) for g in built] == [4, 1]


def test_h1_indexes_its_graph_once(tmp_path, monkeypatch):
    built = []
    real = graphs.IndexGraph.of
    monkeypatch.setattr(graphs.IndexGraph, "of", staticmethod(lambda g: built.append(g) or real(g)))
    result = _invoke(*_command_args(tmp_path, ("h1", "@raw", "--p", "3")))
    assert result.exit_code == 0, result.output
    assert len(built) == 1


def test_version_runs_from_a_source_checkout():
    # the version comes from the package itself, not from installed metadata
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "stallings.cli", "--version"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith(f"version {stallings.__version__}"), proc.stdout


def test_the_empty_graph_is_not_connected(tmp_path):
    # no component at all: its cover is not connected, and no tower stands on it
    empty = _json_file(tmp_path, "empty.json", {"n": 2, "vertices": [], "edges": []})
    result = _invoke("cover", empty, "--p", "3", "--cocycle", "a=1")
    assert result.exit_code == 0, result.output
    graph = {"edges": [], "n": 2, "vertices": []}
    assert json.loads(result.stdout) == {"connected": False, "degree": 3, "graph": graph, "h1_ranks": []}
    result = _invoke("tower", empty, "--p", "2", "--depth", "1")
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {"error": "invalid_input", "message": "cover towers need a connected base"}


def _random_words(seed: int, n: int, lengths) -> list[str]:
    """Seeded freely reduced words over n letters, one per length."""
    rng = random.Random(seed)
    letters = [chr(ord("a") + i) for i in range(n)] + [chr(ord("A") + i) for i in range(n)]
    out = []
    for length in lengths:
        word = [rng.choice(letters)]
        while len(word) < length:
            c = rng.choice(letters)
            if c != word[-1].swapcase():
                word.append(c)
        out.append("".join(word))
    return out


# Graph commands at the bench's scale, with digests taken before the record
# writer of json_blocks and the stacked (1-t)-valuations: malnormal on a
# 3-letter subgroup (4,575 component rows), a non-malnormal subgroup with
# its certificate (1,756 rows), a fiber product over 12 letters, whose
# edge counts are keyed 1..12 (written in numeric order), and gersten-check
# at p=101 with valuations (100, 100), the configuration the bench's
# generator draws from random.Random(7).
_GERSTEN_101 = {
    "p": 101,
    "domain": {
        "n": 2,
        "vertices": [0, 1, 2, 3, 4],
        "edges": [[0, 1, "b"], [1, 2, "b"], [0, 2, "a"], [3, 0, "b"], [3, 4, "a"], [4, 0, "a"]],
        "basepoint": 0,
    },
    "codomain": {"n": 2, "vertices": [0], "edges": [[0, 0, "a"], [0, 0, "b"]], "basepoint": 0},
    "vertex_map": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]],
    "cocycle": {"a": 47, "b": 74},
}
_BENCH_SCALE_CASES = {
    "malnormal": (
        ("malnormal", (0, 3, (30, 30, 30))), 0,
        "dff43ade12e1b1a882578a61c1ab054572888301034ef7af5789ad5fe2029e05",
    ),
    "not malnormal": (
        ("malnormal", (1, 3, (20, 20, 20), "aa")), 1,
        "989fc1a8a7fd6fd17470eb7c166ea07985312b9bca672d84126e7d338bcd470b",
    ),
    "fiber-product over 12 letters": (
        ("fiber-product", (2, 12, (15, 15, 15)), (3, 12, (15, 15, 15))), 0,
        "515d85460c18da5339cfd728ee057ab5ecc6285a264d6a6c5656dc561ff76f0e",
    ),
    "gersten-check p=101": (
        ("gersten-check", _GERSTEN_101), 0,
        "17c8e19eb1d48fa551dc182a438d976e6fb79b03859e9856fa3813bdc836a34b",
    ),
}


@pytest.mark.parametrize("name", sorted(_BENCH_SCALE_CASES))
def test_bench_scale_output_is_pinned(tmp_path, name):
    (command, *specs), status, digest = _BENCH_SCALE_CASES[name]
    args = [command]
    for k, spec in enumerate(specs):
        if isinstance(spec, tuple):  # (seed, n, lengths, extra words...)
            seed, n, lengths, *extra = spec
            texts = _random_words(seed, n, lengths) + extra
            spec = graph_to_dict(subgroup_graph([Word.parse(t, n) for t in texts], n).graph)
        args.append(_json_file(tmp_path, f"{k}.json", spec))
    result = _invoke(*args)
    assert result.exit_code == status, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def _raw_graph(seed: int, vertices: int, edges: int) -> dict:
    """The bench's raw fold input (which has twice as many edges as
    vertices): random edges on two letters, repeated edges included."""
    rng = random.Random(seed)
    edges = [[rng.randrange(vertices), rng.randrange(vertices), rng.choice("ab")] for _ in range(edges)]
    return {"n": 2, "vertices": list(range(vertices)), "edges": edges, "basepoint": 0}


def _hair_graph(seed: int, hair: int) -> dict:
    """The cycle abAB through the basepoint with an immersed path of
    ``hair`` edges hanging off it, as in the bench's hair ops; its core is
    the cycle."""
    rng = random.Random(seed)
    edges = [[0, 1, "a"], [1, 2, "b"], [3, 2, "a"], [0, 3, "b"]]
    at, step = 0, rng.choice([-1, -2])
    for k in range(hair):
        letter = "ab"[abs(step) - 1]
        edges.append([at, 4 + k, letter] if step > 0 else [4 + k, at, letter])
        at, step = 4 + k, rng.choice([s for s in (1, -1, 2, -2) if s != -step])
    return {"n": 2, "vertices": list(range(4 + hair)), "edges": edges, "basepoint": 0}


# Vertex labels that are lists (frozen to tuples on read), letters given as
# ints and digit strings, a repeated edge, a loop, parallel edges, an
# isolated vertex, a second component and a leaf basepoint; [[]] folds into
# 5, and the core is 6 vertices of rank 5.
_LIST_LABELS = {
    "n": 3,
    "vertices": [[0, "x"], [1, [2, 3]], "z", [0, "y"], 5, [[]], "leaf", [9], [[], 7]],
    "edges": [
        [[0, "x"], [1, [2, 3]], "a"], [[1, [2, 3]], "z", 2], ["z", [0, "x"], "1"],
        [[0, "x"], [0, "y"], "b"], [[0, "x"], [0, "y"], "b"], [[0, "y"], 5, "1"],
        [5, [0, "x"], 2], [[0, "y"], [[]], "a"], [[[]], [1, [2, 3]], "3"], ["z", "z", "c"],
        [[0, "y"], [0, "x"], "c"], [[1, [2, 3]], "leaf", "a"], [[[], 7], [[], 7], "2"],
    ],
    "basepoint": "leaf",
}
# Duplicate vertex ids are read as one vertex, at its first place.
_DUPLICATE_IDS = {
    "n": 2,
    "vertices": [3, "s", 3, 1, "s", 2, 1],
    "edges": [[3, "s", "a"], ["s", 1, "b"], [1, 3, "a"], [2, 3, "a"], [2, 2, "b"]],
    "basepoint": 2,
}
# Inputs of the graph reader, with digests taken before it built index
# lists: bench-shaped raw graphs folded without --core (so every class
# keeps the label of its first vertex; the sparse one keeps 1,024 classes),
# the hair op at its bench size, and the two label cases above.
_READER_CASES = {
    "fold V=1200": (("fold", _raw_graph(12, 1200, 2400)), 0,
        "9f5f67692447763e14b172a76c86251b0a911d736390305a4b703c15873043cb",
    ),
    "fold V=1200 E=600": (("fold", _raw_graph(6, 1200, 600)), 0,
        "a232accc226f99e786ca8ca1143768432970c8c501e448ad4af3797d1041d067",
    ),
    "fold --core hair=1600": (("fold", _hair_graph(16, 1600), "--core"), 0,
        "f055dfd4c796cdf5b96d9091715d4515b5eb2cfed97c9344456c1a9bc059e4f5",
    ),
    "fold list labels": (("fold", _LIST_LABELS), 0,
        "08d34ee2cf20dada22de379aeea7e70e2fa8e475c91a41fcbd59935774835005",
    ),
    "fold --core list labels": (("fold", _LIST_LABELS, "--core"), 0,
        "dd89b24bed9e55fb1e39590aa7ba05842a49f050b6c6ed0580c601b216efb8de",
    ),
    "basis list labels": (("basis", _LIST_LABELS), 0,
        "b31243e281f06838c6dd41868e7cba775660a082c06baf8b63c393de2e0868b3",
    ),
    "fold duplicate ids": (("fold", _DUPLICATE_IDS), 0,
        "53549c486d62adb676179e52c19da70929305333bb044a7dc5073bd9d7e087c0",
    ),
    "basis duplicate ids": (("basis", _DUPLICATE_IDS), 0,
        "a1ea52ed197ebafb23f47bd971cad96ffb2a202d8934a320ab6403a10bd68232",
    ),
}


@pytest.mark.parametrize("name", sorted(_READER_CASES))
def test_graph_reader_output_is_pinned(tmp_path, name):
    (command, graph, *flags), status, digest = _READER_CASES[name]
    result = _invoke(command, _json_file(tmp_path, "graph.json", graph), *flags)
    assert result.exit_code == status, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


_GRAPH_ERRORS = {
    "unknown endpoint": {"edges": [[0, 2, "a"]]},
    "true as a label": {"edges": [[0, 1, True]]},
    "letter out of range": {"edges": [[0, 1, "c"]]},
    "int letter out of range": {"edges": [[0, 1, 3]]},
    "basepoint not a vertex": {"basepoint": 5},
    "edge not a triple": {"edges": [[0, 1]]},
    "edge not a list": {"edges": ["01a"]},
    "n not integral": {"n": 2.9},
    "n a bool": {"n": True},
    "n missing": {"n": None},
    "n negative": {"n": -1, "edges": []},
}


@pytest.mark.parametrize("name", sorted(_GRAPH_ERRORS))
@pytest.mark.parametrize("command", ["fold", "basis"])
def test_graph_reader_refuses_bad_input(tmp_path, name, command):
    graph = {"n": 2, "vertices": [0, 1], "edges": [[0, 1, "a"]], "basepoint": 0, **_GRAPH_ERRORS[name]}
    if graph["n"] is None:
        del graph["n"]
    result = _invoke(command, _json_file(tmp_path, "graph.json", graph))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "invalid_input"


# separate, with each kind of library group that a witness can land in
# (Z/7 with both letters active); digests taken from the permutation search
# that Cayley tables replaced, those of Heis(p) since it acts on p^2 points.
# No separate witness lands in (Z/p)^2: a non-membership constraint that
# some (Z/p)^2 satisfies is satisfied by a Z/p quotient with at most as many
# active letters, which the search tries first.
_SEPARATE_CASES = {
    "Z/7": (
        ("--cyclic", "ab", "--word", "b", "--L", "2", "--L", "3", "--L", "5"), 6378,
        "e48c37ef51895efb3739ba07aa712295a984ff055a468ef07831bce0590153ab",
    ),
    "Heis(2)": (
        ("--cyclic", "a", "--word", "baB", "--L", "3"), 116,
        "5ffed88798f417b7916082ef2ead5fd6096ee7cc3a735e695a212bdb932df59c",
    ),
    "Heis(7)": (
        ("--cyclic", "bbaa", "--word", "bABa", "--L", "2", "--L", "3", "--L", "5"), 13117,
        "23ec15671092f7affcc915b3daa7b760ab55a4feffd2478adae6243d1be53e63",
    ),
    "Heis(11)": (
        ("--cyclic", "bbaa", "--word", "bABa", "--L", "2", "--L", "3", "--L", "5", "--L", "7"), 77421,
        "b5cf186b64780a70c491f8f752de4b3e961c22ced80d4056630d7dd482cc68f1",
    ),
    "Z/3 wr Z/3": (
        ("--cyclic", "ab", "--word", "bbaa", "--L", "2"), 1973,
        "4aa04892d32b44b26f233b6253192a41d6a2ce266d3987274dbf32446662e71d",
    ),
}


@pytest.mark.parametrize("group", sorted(_SEPARATE_CASES))
def test_separate_output_is_pinned(group):
    args, examined, digest = _SEPARATE_CASES[group]
    result = _invoke("separate", *args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["group"] == group and payload["verified"] is True
    assert f"({examined} homomorphisms examined)" in payload["transcript"][2]
    if group.startswith("Heis"):
        p = int(group[5:-1])
        assert (payload["order"], payload["degree"]) == (p**3, p**2)
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# separate's branches that no library-group pin above reaches; digests taken
# while membership and root closure still folded subgroup graphs
_SEPARATE_BRANCH_CASES = {
    "power case, cyclic quotient": (
        ("--cyclic", "aa", "--word", "a", "--L", "3"),
        "422f2d9549eb613ce28be8012c63bf27911b74498761803f78796e52f61a32e3",
    ),
    "power case, library fallback": (
        ("--cyclic", "abABabAB", "--word", "abAB", "--L", "3"),
        "c08cfd1d1a8547ad68d1c159ba5b53a8bef695b319b1d22c40c74615100e598a",
    ),
    "sampled Z/2 wr Z/2 wr Z/2": (
        ("--cyclic", "AbAbAbAb", "--word", "bbAB", "--L", "3"),
        "216f0f2db90ddf10114cf0788233ad67436e3d29ba2029d3b568a589593f7687",
    ),
    "not cyclically reduced": (
        ("--cyclic", "aabAA", "--word", "aBA", "--L", "2"),
        "ff62697c6943ecb8f4685c03d12913a1f753bb3da145fe708bc3f82c2ed1df61",
    ),
}


@pytest.mark.parametrize("case", sorted(_SEPARATE_BRANCH_CASES))
def test_separate_branch_output_is_pinned(case):
    args, digest = _SEPARATE_BRANCH_CASES[case]
    result = _invoke("separate", *args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["verified"] is True
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_separate_builds_no_subgroup_graph(monkeypatch):
    # membership in a cyclic subgroup and its root closure are decided on
    # words, from the one maximal root of c
    calls = []
    for original in (graphs.subgroup_graph, fiber.is_l_root_closed, words.maximal_root):
        def spy(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        for module in [m for name, m in sys.modules.items() if name.startswith("stallings")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    cases = [args for args, *_ in _SEPARATE_CASES.values()]
    cases += [args for args, _ in _SEPARATE_BRANCH_CASES.values()]
    for args in cases:
        calls.clear()
        assert _invoke("separate", *args).exit_code == 0
        assert calls == ["maximal_root"], args


def test_separate_closes_the_witness_group_once(monkeypatch):
    # the library hit carries its group's order, so the one order computed is
    # the independent check in verify_witness
    calls = []
    group_order = separability.group_order

    def spy(perms):
        calls.append(1)
        return group_order(perms)

    monkeypatch.setattr(separability, "group_order", spy)
    args, _, digest = _SEPARATE_CASES["Heis(7)"]
    result = _invoke("separate", *args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    assert len(calls) == 1


# Two witnesses whose group verify_witness once listed element by element,
# with digests taken then: a sampled Z/3 wr Z/3 wr Z/3 witness, a bench op,
# whose search also checked 40 samples past the cap (1.6 s in process); and
# Z/11^4, 14,641 rotations of 14,641 points (16 s and 1.67 GB).
_SAMPLED_WITNESS = (
    ("--cyclic", "BaBABaBABaBA", "--word", "Abbba", "--L", "2"),
    "b5a81d41bb20192f2671ec11a2e6f28652dbfac4c6c29a3b3d171d23648a4b7d",
)
_Z_11_4_WITNESS = (
    ("--cyclic", "b", "--word", "a" * 1331, "--L", "2", "--L", "3", "--L", "5", "--L", "7"),
    "4d8249a0e4c79a2eb24dc7236673e25b5c0db1e39cda330202d4da1c22664818",
)


def test_separate_certifies_a_sampled_witness_without_listing_its_group():
    args, digest = _SAMPLED_WITNESS
    start = time.perf_counter()
    result = _invoke("separate", *args)
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["verified"] is True
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    assert elapsed < 0.2, elapsed


def test_separate_certifies_a_large_cyclic_witness_in_bounded_time_and_memory():
    args, digest = _Z_11_4_WITNESS
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "stallings.cli", "separate", *args], env=env, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
    assert elapsed < 2, elapsed
    # the largest resident set of any child this process has waited for, in KB
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 300 * 1024


def test_separate_refuses_a_witness_group_past_the_order_cap():
    # the first hit is the shift 1 in Z/13^4, whose 28,561 elements are more
    # than verify_witness may certify
    L = ("--L", "2", "--L", "3", "--L", "5", "--L", "7", "--L", "11")
    result = _invoke("separate", "--cyclic", "b", "--word", "a" * 2197, *L)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": "resource_cap_exceeded",
        "message": f"permutation group exceeds {separability.GROUP_ORDER_CAP} elements",
    }


def test_verify_counterexample_refuses_a_tower_past_the_cover_cap():
    # 101^6 sheets: the cap refuses the tower before any of it is built, so
    # the run ends within a second where it would otherwise not end at all.
    start = time.perf_counter()
    result = _invoke("verify-counterexample", "--p", "101", "--depth", "6")
    assert time.perf_counter() - start < 10
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "resource_cap_exceeded"


def test_tower_refuses_an_oversized_pullback_before_building_the_tower(tmp_path, monkeypatch):
    # 2^19 sheets of the wedge fit the cover cap, but its pull-back of G's
    # core (six edges) does not; refused before the tower is built.
    towers = []
    monkeypatch.setattr(cli, "cover_tower", lambda *args, **kwargs: towers.append(args))
    start = time.perf_counter()
    result = _invoke(*_command_args(tmp_path, ("tower", "@a,b", "--p", "2", "--depth", "19",
                                               "--pullback", "@abABa,b")))
    assert time.perf_counter() - start < 10
    assert towers == []
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "resource_cap_exceeded"


# With --pullback, the pull-back is checked before the tower: a multi-vertex
# base, an unreadable pull-back file and the cover cap are reported ahead of
# a tower that could not be built (p = 4 is not prime).
_TOWER_PRECEDENCE = {
    "base before p": (("@abABa,b", "--p", "4", "--pullback", "@missing"), 2,
                      "pull-back reports need a one-vertex base graph"),
    "pull-back file before p": (("@a,b", "--p", "4", "--pullback", "@missing"), 2, "cannot read"),
    "cap before p": (("@a,b", "--p", "4", "--depth", "19", "--pullback", "@abABa,b"), 3,
                     "exceed the cap"),
    "p without a pull-back": (("@a,b", "--p", "4", "--depth", "19"), 2, "4 is not prime"),
    "pull-back map before the tower": (("@a", "--p", "4", "--pullback", "@abABa,b"), 2,
                                       "edge (0, 0, 2) has no image edge (0, 0, 2)"),
}


@pytest.mark.parametrize("name", sorted(_TOWER_PRECEDENCE))
def test_tower_checks_its_pullback_first(tmp_path, name):
    args, status, message = _TOWER_PRECEDENCE[name]
    if "--depth" not in args:
        args += ("--depth", "2")
    result = _invoke(*_command_args(tmp_path, ("tower", *args)))
    assert result.exit_code == status, result.output
    assert result.stdout == ""
    assert message in json.loads(result.stderr)["message"]


@pytest.mark.parametrize("p", ["4", "1", "0", "-3"])
@pytest.mark.parametrize("pull", [(), ("--pullback", "@abABa,b")])
def test_tower_refuses_a_non_prime_at_depth_zero(tmp_path, p, pull):
    result = _invoke(*_command_args(tmp_path, ("tower", "@a,b", "--p", p, "--depth", "0", *pull)))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "invalid_input", "message": f"{p} is not prime"}


@pytest.mark.parametrize("command", [
    ("fiber-product", "@abABa,b", "@abABa,b"),
    ("malnormal", "@abABa,b"),
])
def test_fiber_products_past_the_cap_are_refused(tmp_path, monkeypatch, command):
    # G's core has 5 vertices and 3 edges of each letter: 25 vertex pairs
    # and 18 edge pairs
    monkeypatch.setattr(fiber, "TUPLE_CAP", 24)
    result = _invoke(*_command_args(tmp_path, command))
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "resource_cap_exceeded"
    monkeypatch.setattr(fiber, "TUPLE_CAP", 25)
    assert _invoke(*_command_args(tmp_path, command)).exit_code == 0


def test_fiber_product_writes_its_stdout_graph_to_out(tmp_path, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return graph_to_dict(g)

    monkeypatch.setattr(cli, "graph_to_dict", counted)
    out = tmp_path / "product.json"
    args = _command_args(tmp_path, ("fiber-product", "@abABa,b", "@aa,abb"))
    result = _invoke(*args, "--out", str(out))
    assert result.exit_code == 0, result.output
    graph = json.loads(result.stdout)["graph"]
    assert out.read_text() == json.dumps(graph, indent=2, sort_keys=True) + "\n"
    assert len(calls) == 1  # the --out file is the payload's own graph


# The commands no other test runs: exit status and output digest on one
# good input, error code on one bad input.
_COMMAND_CASES = {
    "membership": (
        ("membership", "abAB", "--generators", "ab,ba"), 0,
        "33378be8ef579c9af86474f1e4a4573f9bb6cf791041a2737689c247ed037e32",
    ),
    "basis": (
        ("basis", "@abABa,b"), 0,
        "9362413e42764018162ef55faaa5a64b033615a2a82ef913fc92ff07039bb9ab",
    ),
    "cover": (
        ("cover", "@a,b", "--p", "3", "--cocycle", "a=1,b=2"), 0,
        "27f014ada7da31eea2fffc5c891bd65fcfaf5b015f2254fe81962e156b045186",
    ),
    "tower": (
        ("tower", "@a,b", "--p", "2", "--depth", "2", "--pullback", "@abABa,b"), 0,
        "65d7cd84ac68c9ead2f55ef5f6dc19a9f77f9e1045d368effa1a81a6e4927b70",
    ),
    "verify-counterexample": (
        ("verify-counterexample", "--p", "2", "--depth", "1"), 0,
        "e023d9ca3babbd41c9be8493f22ef4dc9b26d6bff7f8d8953cc4b5a445785c82",
    ),
}
_COMMAND_ERRORS = {
    "membership": (("membership", "abAB"), 2, "invalid_input"),
    "basis": (("basis", "@missing"), 2, "invalid_input"),
    "cover": (("cover", "@a,b", "--p", "3", "--cocycle", "a1"), 2, "invalid_input"),
    "cover p=0": (("cover", "@a,b", "--p", "0", "--cocycle", "a=1"), 2, "invalid_input"),
    "gersten-check p=0": (("gersten-check", "@gersten p=0"), 2, "invalid_input"),
    "tower": (("tower", "@abABa,b", "--p", "2", "--depth", "1", "--pullback", "@a,b"), 2, "invalid_input"),
    "verify-counterexample": (("verify-counterexample", "--p", "4"), 2, "invalid_input"),
    "suite": (("suite", "--trials", "0"), 2, "invalid_input"),
}


@pytest.mark.parametrize("name", sorted(_COMMAND_CASES))
def test_command_output_is_pinned(tmp_path, name):
    args, status, digest = _COMMAND_CASES[name]
    result = _invoke(*_command_args(tmp_path, args))
    assert result.exit_code == status, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# verify-counterexample at the bench's (p, depth) configs, tower with its
# --out file, a random tower and a cover on a non-wedge base: stdout digest
# and --out file digest, taken from the tuple-labelled covers that index
# arrays replaced. The random tower's --out file depends on the spanning
# tree of each level, so it pins the forest of ``graphs._spanning_forest``:
# rooted at vertex 0, each vertex trying its edges in edge order.
_COVER_CASES = {
    "verify-counterexample 2^9": (
        ("verify-counterexample", "--p", "2", "--depth", "9"),
        "03809ad8d458b2a65d5d69c119639a985d1d68bd4d6099864f945f3af9101408", None,
    ),
    "verify-counterexample 3^6": (
        ("verify-counterexample", "--p", "3", "--depth", "6"),
        "a41f591a371f039116bee9edf0086d0086bd44b3a57e9c9de7d5e1f5620627d6", None,
    ),
    "verify-counterexample 11^3": (
        ("verify-counterexample", "--p", "11", "--depth", "3"),
        "db3364e12490c43f11b1f40c00f1affc9156f593583b8e0a954fb5c21dd77713", None,
    ),
    "tower 3^3": (
        ("tower", "@a,b", "--p", "3", "--depth", "3", "--pullback", "@abABa,b", "--out", "@out"),
        "fddc407ffc8771e16e8c65068aa8300dc29f07e67e7bf648e717e1eba9e3f55c",
        "19465a0463457b29fe3d840597f3aedc0f55507e7f9af68671b5d1a3284146fa",
    ),
    "tower of the core graph, random": (
        ("tower", "@abABa,b", "--p", "3", "--depth", "3", "--strategy", "random", "--seed", "0",
         "--out", "@out"),
        "a578d3aafccab7366f7ef0b3aeb90e3fd83fa3b7bddbdc7c2b196683426abbf8",
        "d63a8535ad1a548f636a1938d070918ace8e6fdd790fbf6f50a07c0e89508895",
    ),
    "cover of the core graph": (
        ("cover", "@abABa,b", "--p", "3", "--cocycle", "a=1,b=2", "--out", "@out"),
        "bbc06ea0f82aa552fd4757f0142d021256253e39ed3f4a9b14c2071f9053fb46",
        "2f2a4743c811cbb65666c5fa1804c89b989711d35b0b81a0647ed5fc89048fa7",
    ),
    # cocycle values outside int64, negative ones, and both read mod p
    "cover, wide cocycle values": (
        ("cover", "@a,b", "--p", "3", "--cocycle", "a=-1,b=99999999999999999999999"),
        "171e5d1a278ba618e0fd8c13062e4fdbcab07adef86adf13044d8f1fb3dd5c70", None,
    ),
    "gersten-check, wide cocycle values": (
        ("gersten-check", "@gersten wide cocycle"),
        "4e5eda8934341513925c3286937178f3f10b6aa25d3f55c714f2eb23a3220549", None,
    ),
}


@pytest.mark.parametrize("name", sorted(_COVER_CASES))
def test_cover_command_output_is_pinned(tmp_path, name):
    args, digest, out_digest = _COVER_CASES[name]
    out = tmp_path / "out.json"
    args = [str(out) if a == "@out" else a for a in args]
    result = _invoke(*_command_args(tmp_path, args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    if out_digest is not None:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_digest


@pytest.mark.parametrize("name", sorted(_COMMAND_ERRORS))
def test_command_refuses_bad_input(tmp_path, name):
    args, status, code = _COMMAND_ERRORS[name]
    result = _invoke(*_command_args(tmp_path, args))
    assert result.exit_code == status, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == code


# click's own usage errors follow the JSON error contract too, with click's
# message; the removed --seed options of separate and eppa-extend are unknown
_USAGE_ERRORS = {
    "unknown option": (("separate", "--cyclic", "a", "--word", "b", "--L", "2", "--bogus", "1"),
                       "No such option '--bogus'. (Did you mean one of: '--bound', '--out'?)"),
    "missing option": (("separate", "--cyclic", "a", "--L", "2"), "Missing option '--word'."),
    "separate --seed": (("separate", "--cyclic", "a", "--word", "b", "--L", "2", "--seed", "0"),
                        "No such option '--seed'."),
    "eppa-extend --seed": (("eppa-extend", "x.json", "y.json", "--seed", "0"), "No such option '--seed'."),
}


@pytest.mark.parametrize("name", sorted(_USAGE_ERRORS))
def test_usage_errors_are_error_json(name):
    args, message = _USAGE_ERRORS[name]
    result = _invoke(*args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("command", ["separate", "eppa-extend"])
def test_help_lists_no_seed_and_version_prints_as_before(command):
    result = _invoke(command, "--help")
    assert result.exit_code == 0 and result.stdout.startswith("Usage: ")
    assert "--bound" in result.stdout and "--seed" not in result.stdout
    result = _invoke("--version")
    assert result.exit_code == 0 and result.stdout == f"main, version {stallings.__version__}\n"


def test_negative_search_bounds_are_refused_before_any_search(tmp_path, monkeypatch):
    # A negative bound was read as a cap: separate reported
    # search_cap_exhausted with "examined": -4, and eppa-extend on a family
    # with a vertex-group generator (a 3-cycle rotated by its map) said that
    # no quotient separates a constraint.
    def forbidden(*args, **kwargs):
        raise AssertionError("searched with a negative bound")

    monkeypatch.setattr(separability, "_constraint_search", forbidden)
    structure = _structure_file(tmp_path, list(range(8)), 2, _circulant_structure(3, 8))
    maps_path = _json_file(tmp_path, "maps.json", [{"map": {"0": 1, "1": 2, "2": 0}}])
    for args in (
        ("separate", "--cyclic", "ab", "--word", "ba", "--L", "2", "--bound", "-5"),
        ("eppa-extend", structure, maps_path, "--bound", "-1"),
    ):
        result = _invoke(*args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert error == {"error": "invalid_input", "message": f"bound {args[-1]} is negative"}


def _out_command_args(tmp_path, command: str) -> list[str]:
    """A run of one of the seven commands that take --out, without it."""
    transitive = [[i, j] for i, j in itertools.combinations(range(4), 2)]
    args = {
        "fold": ("fold", "@abABa,b", "--core"),
        "separate": ("separate", "--cyclic", "ab", "--word", "ba", "--L", "2"),
        "eppa-extend": (
            "eppa-extend",
            _structure_file(tmp_path, list(range(4)), 2, transitive),
            _json_file(tmp_path, "maps.json", [{"map": {"0": 3}}]),
        ),
        "verify-counterexample": ("verify-counterexample", "--p", "2", "--depth", "1"),
        "tower": ("tower", "@a,b", "--p", "2", "--depth", "1"),
        "cover": ("cover", "@a,b", "--p", "3", "--cocycle", "a=1"),
        "fiber-product": ("fiber-product", "@abABa,b", "@aa,abb"),
    }[command]
    return _command_args(tmp_path, args)


@pytest.mark.parametrize(
    "command", ["fold", "separate", "eppa-extend", "verify-counterexample", "tower", "cover", "fiber-product"]
)
def test_an_out_path_that_cannot_be_opened_is_invalid_input(tmp_path, command):
    # The --out file is opened before anything is printed, so nothing is.
    out = tmp_path / "missing" / "out.json"
    result = _invoke(*_out_command_args(tmp_path, command), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "invalid_input" and error["message"].startswith(f"cannot write {out}")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["fold", "separate", "eppa-extend", "verify-counterexample"])
def test_out_file_is_stdout_from_one_encoding(tmp_path, monkeypatch, command):
    # Each JSON block goes to stdout and to the --out file in one pass, so
    # the payload is encoded once.
    calls = []
    real = cli.json_blocks

    def counted(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(cli, "json_blocks", counted)
    out = tmp_path / "out.json"
    result = _invoke(*_out_command_args(tmp_path, command), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert result.stdout and out.read_text() == result.stdout
    assert len(calls) == 1


# Malformed JSON that reached a Python exception instead of the error-JSON
# contract: a container of the wrong type, a JSON object used as a label,
# and an integer field that is not an integer.
_FOUR = {
    "L": [2],
    "universe": [0, 1, 2, 3],
    "relations": {"2": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
}
_OBJECT = {"x": 1}
_MALFORMED = {
    "eppa-extend map list": ("eppa-extend", _FOUR, [{"map": [1, 2]}]),
    "verify-extension map list": ("verify-extension", _FOUR, [{"map": [1, 2]}], {}),
    "relation rows not a list": ("validate", {"L": [2], "universe": [0, 1], "relations": {"2": 5}}),
    "object in a relation row": ("validate", {"L": [2], "universe": [0, 1], "relations": {"2": [[_OBJECT, 0]]}}),
    "object as a graph vertex": ("fold", {"n": 2, "vertices": [_OBJECT], "edges": []}),
    "object as a map value": ("eppa-extend", _FOUR, [{"map": {"0": _OBJECT}}]),
    "object in an extension pair": (
        "verify-extension", _FOUR, [{"map": {"0": 3}}],
        {"extended": _FOUR, "embedding": [[0, _OBJECT]], "automorphisms": []},
    ),
    "automorphism not a list": (
        "verify-extension", _FOUR, [{"map": {"0": 3}}],
        {"extended": _FOUR, "embedding": [[x, x] for x in range(4)], "automorphisms": [5]},
    ),
    "object in a vertex_map entry": ("gersten-check", {**_GERSTEN_CONFIG, "vertex_map": [[_OBJECT, 0]]}),
    "vertex_map not a list": ("gersten-check", {**_GERSTEN_CONFIG, "vertex_map": 5}),
    "p not an integer": ("gersten-check", {**_GERSTEN_CONFIG, "p": "q"}),
    "per-letter cocycle value": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": {"a": "x"}}),
    "per-edge cocycle value": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": [[[0, 0, "a"], "x"]]}),
    # numbers that Python's int() would take: a bool, or a float cut short
    "per-letter cocycle value not integral": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": {"a": 1.7}}),
    "per-letter cocycle value a bool": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": {"a": True}}),
    "per-edge cocycle value not integral": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": [[[0, 0, "a"], 1.7]]}),
    "per-edge cocycle value a bool": ("gersten-check", {**_GERSTEN_CONFIG, "cocycle": [[[0, 0, "a"], True]]}),
    "p not integral": ("gersten-check", {**_GERSTEN_CONFIG, "p": 5.5}),
    # a vertex_map that is not a morphism of the two graphs
    "vertex_map misses a vertex": ("gersten-check", {**_GERSTEN_CONFIG, "vertex_map": [[0, 0], [1, 0], [2, 0]]}),
    "vertex_map image not a codomain vertex": (
        "gersten-check", {**_GERSTEN_CONFIG, "vertex_map": [[0, 0], [1, 0], [2, 0], [3, 7]]},
    ),
    "edge without an image edge": ("gersten-check", {
        **_GERSTEN_CONFIG,  # (0, 2, b) would go to (0, 1, b)
        "codomain": {"n": 2, "vertices": [0, 1], "edges": [[0, 1, "a"], [1, 0, "b"], [1, 0, "a"], [0, 0, "b"]]},
        "vertex_map": [[0, 0], [1, 1], [2, 1], [3, 0]],
    }),
    "vertex_map key not a domain vertex": (
        "gersten-check", {**_GERSTEN_CONFIG, "vertex_map": _GERSTEN_CONFIG["vertex_map"] + [[9, 0]]},
    ),
    "vertex_map key listed twice": (
        "gersten-check", {**_GERSTEN_CONFIG, "vertex_map": _GERSTEN_CONFIG["vertex_map"] + [[0, 0]]},
    ),
    # arities that int() would take: a float cut short to 2, a bool read as 1
    "arity not integral": ("validate", {"L": [2.5], "universe": [0, 1], "relations": {}}),
    "arity a bool": ("validate", {"L": [True], "universe": [0, 1], "relations": {}}),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_json_gives_error_json(tmp_path, name):
    command, *documents = _MALFORMED[name]
    paths = [_json_file(tmp_path, f"{k}.json", doc) for k, doc in enumerate(documents)]
    result = _invoke(command, *paths)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert json.loads(result.stderr)["error"] == "invalid_input"


def test_invocations_leave_no_stream_alive(monkeypatch):
    # Echoing without a file makes click cache a wrapper per stream, and its
    # cache entries keep their streams alive: every run's output buffers
    # would stay in memory for good.
    streams = []
    real = cli.maximal_root

    def spy(w):
        streams.extend([weakref.ref(sys.stdout), weakref.ref(sys.stderr)])
        return real(w)

    monkeypatch.setattr(cli, "maximal_root", spy)
    for word, status in (("abab", 0), ("", 2), ("aab", 0), ("", 2)):
        assert _invoke("root", word).exit_code == status
    gc.collect()
    assert len(streams) == 8
    assert all(ref() is None for ref in streams)
