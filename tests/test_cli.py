from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import weakref

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
)
from stallings import cli
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

    # --out walks the same payload a second time
    out = tmp_path / "extension.json"
    result = _invoke("eppa-extend", structure, maps_path, "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text() == result.stdout == text + "\n"
    m = make_hypertournament(universe, [2], {2: relation})
    family = make_family(m, [{int(x): y for x, y in mp.items()} for mp in maps])
    extension = eppa_extend(m, family, bound=500_000, seed=0)
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
    if spec == "@gersten":
        return _json_file(tmp_path, f"{k}.json", _GERSTEN_CONFIG)
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


# separate, with each kind of library group that a witness can land in
# (Z/7 with both letters active); digests taken from the permutation search
# that Cayley tables replaced. No
# separate witness lands in (Z/p)^2: a non-membership constraint that some
# (Z/p)^2 satisfies is satisfied by a Z/p quotient with at most as many
# active letters, which the search tries first.
_SEPARATE_CASES = {
    "Z/7": (
        ("--cyclic", "ab", "--word", "b", "--L", "2", "--L", "3", "--L", "5"), 6378,
        "e48c37ef51895efb3739ba07aa712295a984ff055a468ef07831bce0590153ab",
    ),
    "Heis(2)": (
        ("--cyclic", "a", "--word", "baB", "--L", "3"), 116,
        "6db2c56ec9d4bbbf7b60c956399d52e450825b3391477896a469efbff3871bcf",
    ),
    "Heis(7)": (
        ("--cyclic", "bbaa", "--word", "bABa", "--L", "2", "--L", "3", "--L", "5"), 13117,
        "ebcf568b9482e375564ab5edb831c3a323833e9bcb4895ee8b14404df62eca2e",
    ),
    "Heis(11)": (
        ("--cyclic", "bbaa", "--word", "bABa", "--L", "2", "--L", "3", "--L", "5", "--L", "7"), 77421,
        "db739da3a61a2a7e7cc1e016da82e59aadd2c3fcbd77148fe887d27cd8647f76",
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
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_separate_closes_the_witness_group_once(monkeypatch):
    # the library hit carries its group's order, so the one closure is the
    # independent check in verify_witness
    calls = []
    closure = separability.closure

    def spy(perms):
        calls.append(1)
        return closure(perms)

    monkeypatch.setattr(separability, "closure", spy)
    args, _, digest = _SEPARATE_CASES["Heis(7)"]
    result = _invoke("separate", *args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    assert len(calls) == 1


def test_separate_refuses_a_witness_group_past_the_order_cap():
    # the first hit is the shift 1 in Z/13^4, whose 28,561 elements are more
    # than the closure in verify_witness may build
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
# tree of each level, so it pins the neighbors order of the search.
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
        "8e4476613a68f24f7a9d47a455f9dbbd95a24491fa32c34508c9fecb6a9c7436",
    ),
    "cover of the core graph": (
        ("cover", "@abABa,b", "--p", "3", "--cocycle", "a=1,b=2", "--out", "@out"),
        "bbc06ea0f82aa552fd4757f0142d021256253e39ed3f4a9b14c2071f9053fb46",
        "2f2a4743c811cbb65666c5fa1804c89b989711d35b0b81a0647ed5fc89048fa7",
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
