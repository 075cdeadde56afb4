from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stallings import (
    InputError,
    Word,
    eppa_extend,
    family_from_list,
    family_to_list,
    graph_from_dict,
    graph_to_dict,
    make_family,
    make_hypertournament,
    subgroup_from_dict,
    subgroup_graph,
)
from stallings.graphs import make_graph
from stallings.hypertournaments import _iso_violation
from stallings import serialize
from stallings.serialize import BLOCK_CHARS, BLOCK_ITEMS, RecordColumns, RelationRows, json_blocks

_LABELS = [0, 1, 2, 10, "a", "b", "x1", (0, 1), (1, "a"), (2, 0, 1)]


def _random_family(rng: random.Random):
    labels = rng.sample(_LABELS, rng.randint(3, len(_LABELS)))
    pairs = set()
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            pairs.add((x, y) if rng.random() < 0.5 else (y, x))
    host = make_hypertournament(labels, [2], {2: pairs})
    maps = []
    while len(maps) < 3:
        k = rng.randint(1, 3)
        m = dict(zip(rng.sample(labels, k), rng.sample(labels, k)))
        if _iso_violation(host, host, m) is None:
            maps.append(m)
    return host, make_family(host, maps)


def test_family_round_trips_with_int_str_and_tuple_labels():
    rng = random.Random(5)
    for _ in range(40):
        host, fam = _random_family(rng)
        text = json.dumps(family_to_list(fam))
        assert family_from_list(host, json.loads(text)).maps == fam.maps


def test_family_to_list_refuses_keys_that_read_back_as_another_label():
    host = make_hypertournament([1, "1", 2], [2], {2: [(1, "1"), (1, 2), ("1", 2)]})
    # "1" is its own key and reads back verbatim
    fam = make_family(host, [{"1": 2}])
    assert family_from_list(host, family_to_list(fam)).maps == fam.maps
    # 1 would be written as "1" and read back as the string label
    for maps in ([{1: 2}], [{1: 2}, {"1": 2}]):
        with pytest.raises(InputError, match="read back"):
            family_to_list(make_family(host, maps))


@pytest.mark.parametrize("arity", [2.5, True, "x"])
def test_hypertournament_arities_are_read_as_integers(arity):
    # int() read 2.5 as arity 2 and True as arity 1
    with pytest.raises(InputError, match="is not an integer"):
        serialize.hypertournament_from_dict({"L": [arity], "universe": [0, 1], "relations": {}})


# -- the indented emitter -------------------------------------------------------------

_INTS = st.integers(min_value=-(2**70), max_value=2**70)
_TEXT = st.text() | st.text(alphabet='"\\/\n\r\t\b\f\x00\x1f\x7f\u00e9\u2028\u6f22\U0001f600')
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _TEXT


def _rows(items):
    """Equal-width rows, as an extension's relation arrays are."""
    return st.integers(1, 4).flatmap(
        lambda w: st.lists(st.lists(items, min_size=w, max_size=w), max_size=6)
    )


_LEAVES = (
    _SCALARS
    | st.lists(_INTS)
    | _rows(_INTS)
    | st.lists(_rows(_INTS), max_size=3)  # 3-level int arrays
    | _rows(_INTS | st.booleans() | st.floats() | _TEXT)  # ints mixed with others
    | st.lists(st.lists(_INTS), max_size=6)  # ragged rows
    | st.lists(st.lists(st.nothing()), max_size=2)  # rows of width 0
)


@st.composite
def _record_lists(draw):
    """Lists of records with one set of string keys: columns of ints, of
    bools and None, and of int-keyed dicts of ints (keys past 9 as well,
    inserted in any order), and now and then one near miss that the json
    module must write instead."""
    keys = draw(st.lists(st.sampled_from(["a", "b", "c", "%", "%d", "x%s", "\u00e9"]), min_size=1, max_size=4, unique=True))
    kinds = {k: draw(st.sampled_from(["int", "literal", "nested"])) for k in keys}
    inner = draw(st.lists(st.integers(0, 12) | _INTS, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = {}
        for k in keys:
            if kinds[k] == "int":
                row[k] = draw(_INTS)
            elif kinds[k] == "literal":
                row[k] = draw(st.none() | st.booleans())
            else:
                row[k] = {j: draw(_INTS) for j in draw(st.permutations(inner))}
        rows.append(row)
    miss = draw(st.sampled_from([None, None, "float", "string", "missing", "extra", "renamed", "bool", "empty"]))
    row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    if miss in ("float", "string"):
        row[key] = 1.5 if miss == "float" else "1"
    elif miss == "missing":
        del row[key]
    elif miss == "extra":
        rows[-1][key + "+"] = 0
    elif miss == "renamed":
        row[key + "!"] = row.pop(key)
    elif miss == "bool":
        row[key] = True if kinds[key] == "int" else 1
    elif miss == "empty":
        row[key] = {}
    return rows


_LEAVES = _LEAVES | _record_lists()
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.dictionaries(_INTS, children, max_size=3)
    | st.dictionaries(st.booleans(), children, max_size=2)
    | st.dictionaries(st.none(), children, max_size=1),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(_PAYLOADS)
def test_json_blocks_join_to_the_stdlib_text(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True)
    assert "".join(json_blocks(payload)) == expected
    assert "".join(json_blocks({"outer": {"inner": payload}})) == json.dumps(
        {"outer": {"inner": payload}}, indent=2, sort_keys=True
    )


def _mismatch(text: str, expected: str):
    """None when the texts agree, else where they first differ: pytest's
    diff of two long texts takes minutes."""
    if text == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), None)
    i = min(len(text), len(expected)) if i is None else i
    return i, text[max(0, i - 40) : i + 40], expected[max(0, i - 40) : i + 40]


@pytest.mark.parametrize("width", [0, 1, 2, 3, 5])
def test_json_blocks_split_int_arrays_on_block_boundaries(width):
    step = BLOCK_ITEMS // (width or 1)
    for count in (1, step - 1, step, step + 1, 3 * step):
        rows = [i * 7919 - 10**6 for i in range(count)]
        if width:
            rows = [[x + k for k in range(width)] for x in rows]
        payload = {"rows": rows, "z": [rows]}
        blocks = list(json_blocks(payload))
        assert _mismatch("".join(blocks), json.dumps(payload, indent=2, sort_keys=True)) is None
        assert max(len(b) for b in blocks) <= BLOCK_CHARS


_WIDE = list(range(-1, BLOCK_ITEMS + 1))
_NESTED_INT_LISTS = {
    "automorphisms": [[[0, 1], [1, 2], [2, 0]], [[0, 0], [1, 1], [2, 2]]],
    "ragged rows": [[1, 2], [3], [4, 5, 6]],
    "items of different widths": [[7, 8, 9], [[4, 5], [6, 7]], [[1, 2, 3]]],
    "an empty inner list": [[[0, 1]], []],
    "an empty row": [[[0, 1]], [[]]],
    "only empty lists": [[], []],
    "int rows and a string row": [[[0, 1], [1, 0]], ["a", "b"]],
    "an int row beside a row of string rows": [[0, 1], [["a"]]],
    "bools among the ints": [[[0, 1]], [[True, 1]]],
    "rows wider than a block": [_WIDE, _WIDE[:3]],
    "row lists wider than a block": [[_WIDE, _WIDE], [[0, 1]]],
}


@pytest.mark.parametrize("name", sorted(_NESTED_INT_LISTS))
def test_json_blocks_write_lists_of_int_arrays_as_the_json_module_does(name):
    value = _NESTED_INT_LISTS[name]
    for payload in (value, {"automorphisms": value, "z": {"inner": [value]}}):
        expected = json.dumps(payload, indent=2, sort_keys=True)
        assert _mismatch("".join(json_blocks(payload)), expected) is None


def test_relation_rows_write_int_str_and_list_labels_at_two_depths():
    labels = (3, -1, "x", "", [0, 1], [[0, 1], [2, 3]], [[[1, 2]], [[3]]], [], [["a"], 1], [True])
    digits = np.array([[i, (i * 3 + 1) % len(labels)] for i in range(len(labels))], dtype=np.int32)
    rows = RelationRows(labels, digits)
    for payload, plain in (
        (rows, rows.tolist()),
        ({"outer": {"inner": {"2": rows}}}, {"outer": {"inner": {"2": rows.tolist()}}}),
    ):
        expected = json.dumps(plain, indent=2, sort_keys=True)
        assert _mismatch("".join(json_blocks(payload)), expected) is None


def test_json_blocks_write_an_extension_without_the_pure_python_encoder(monkeypatch):
    # Only dict keys go through the encoder, by its C string path.
    pairs = [(x, y) for x in range(6) for y in range(x + 1, 6)]
    host = make_hypertournament(range(6), [2], {2: pairs})
    family = make_family(host, [{0: 5}, {1: 4}])
    payload = serialize.extension_to_dict(eppa_extend(host, family))
    extended = payload["extended"]
    plain = {**extended, "relations": {"2": extended["relations"]["2"].tolist()}}
    expected = json.dumps({**payload, "extended": plain}, indent=2, sort_keys=True)
    monkeypatch.setattr(serialize._ENCODER, "iterencode", None)
    assert "".join(json_blocks(payload)) == expected


def test_json_blocks_write_near_miss_record_lists_as_the_json_module_does():
    for rows in (
        [{"a": 1}, {"a": 2, "b": 3}],  # a key only a later row has
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}],  # as many keys, not the same ones
        [{"a": {1: 2}}, {"a": {1: 2, 3: 4}}],  # nested dicts with more keys
        [{"a": {1: 2}}, {"a": {3: 4}}],
        [{"a": {1: 2}}, {"a": {}}],
        [{"a": 1}, {"a": True}],
        [{"a": {True: 1}}],
        [{"a": {1: 1.0}}],
        [{1: 1}],
    ):
        assert "".join(json_blocks(rows)) == json.dumps(rows, indent=2, sort_keys=True)


def test_json_blocks_split_record_lists_on_block_boundaries(monkeypatch):
    # written by templates, not by the json module's encoder
    monkeypatch.setattr(serialize._ENCODER, "iterencode", None)
    i = np.arange(20_000)
    table = RecordColumns(
        {
            "vertices": i % 50 + 1,
            "note": i % 2 == 0,
            "edges": i[:, None] * np.arange(1, 13) % 97,
            "empty": np.zeros((len(i), 0), dtype=np.int64),
            "diagonal": i == 3,
            "component": i * 7919 - 10**6,
        }
    )
    rows = table.tolist()
    assert list(rows[0]) == ["component", "diagonal", "edges", "empty", "note", "vertices"]
    assert rows[3]["diagonal"] and rows[4]["note"] and not rows[5]["note"]
    head = RecordColumns({key: column[:3] for key, column in table.columns.items()})
    payload = {"component_stats": table, "z": {"inner": head}}
    blocks = list(json_blocks(payload))
    expected = json.dumps({"component_stats": rows, "z": {"inner": rows[:3]}}, indent=2, sort_keys=True)
    assert _mismatch("".join(blocks), expected) is None
    assert max(map(len, blocks)) <= BLOCK_CHARS
    assert not any(column.flags.writeable for column in table.columns.values())


# tuple labels are written as (nested) lists
_TUPLE_LABELS = st.recursive(
    st.lists(_INTS | _TEXT, max_size=3), lambda inner: st.lists(inner | _INTS, max_size=3), max_leaves=6
)
_UNIVERSES = st.lists(_INTS, min_size=1, max_size=6) | st.lists(
    _INTS | _TEXT | _TUPLE_LABELS, min_size=1, max_size=6
)


@st.composite
def _relation_rows(draw):
    labels = tuple(draw(_UNIVERSES))
    width = draw(st.integers(1, 5))
    step = BLOCK_ITEMS // width
    count = max(0, draw(st.integers(0, 2)) * step + draw(st.sampled_from([-1, 0, 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return RelationRows(labels, rng.integers(0, len(labels), (count, width)))


@settings(max_examples=60, deadline=None)
@given(_relation_rows())
def test_relation_rows_are_written_as_their_lists(rows):
    plain = {"L": [2], "universe": list(rows.labels), "relations": {"2": rows.tolist()}}
    payload = {"L": [2], "universe": list(rows.labels), "relations": {"2": rows}}
    for value, expected in ((payload, plain), ({"outer": {"inner": payload}}, {"outer": {"inner": plain}})):
        blocks = list(json_blocks(value))
        text = "".join(blocks)
        assert _mismatch(text, json.dumps(expected, indent=2, sort_keys=True)) is None
        assert _mismatch("".join(json_blocks(value)), text) is None  # a second walk
        if all(type(v) is int for v in rows.labels):
            assert max(map(len, blocks)) <= BLOCK_CHARS
    assert _mismatch("".join(json_blocks(rows)), json.dumps(rows.tolist(), indent=2)) is None
    assert not rows.digits.flags.writeable
    empty = RelationRows(rows.labels, np.zeros((0, rows.digits.shape[1]), dtype=np.int32))
    assert "".join(json_blocks({"2": empty})) == '{\n  "2": []\n}'


# -- graphs over large alphabets --------------------------------------------------------


def _wide_graph(n: int):
    """A based graph on integer vertices using the first, a middle and the
    last letter of an n-letter alphabet."""
    letters = [1, n // 2, n]
    edges = [(0, 1, letters[0]), (1, 2, letters[1]), (2, 0, letters[2]), (1, 1, letters[2]), (2, 3, letters[0])]
    return make_graph(n, [0, 1, 2, 3], edges, 0)


@pytest.mark.parametrize("n", [26, 27, 53])
def test_graphs_round_trip_through_json_text_on_large_alphabets(n):
    g = _wide_graph(n)
    data = json.loads(json.dumps(graph_to_dict(g)))
    labels = {lab for _, _, lab in data["edges"]}
    assert labels == ({"a", chr(ord("a") + n // 2 - 1), "z"} if n == 26 else {1, n // 2, n})
    assert graph_from_dict(data) == g
    # digit strings such as "27" name letters too
    data["edges"] = [[u, v, str(i)] for u, v, i in g.sorted_edges]
    assert graph_from_dict(data) == g
    data["edges"][0][2] = str(n + 1)
    with pytest.raises(InputError, match="out of range"):
        graph_from_dict(data)


@pytest.mark.parametrize("n", [26, 27, 53])
def test_subgroups_round_trip_through_json_text_on_large_alphabets(n):
    gens = [Word((1, n, -(n // 2)), n), Word((n, n), n), Word((n // 2, 1, n // 2), n)]
    h = subgroup_graph(gens, n)
    back = subgroup_from_dict(json.loads(json.dumps(graph_to_dict(h.graph))))
    assert back.graph == h.graph and back.n == n
    assert all(back.contains(w) for w in gens)
    assert not back.contains(Word((n,), n))
    digits = graph_to_dict(h.graph)
    digits["edges"] = [[u, v, str(i)] for u, v, i in h.graph.sorted_edges]
    assert subgroup_from_dict(json.loads(json.dumps(digits))).graph == h.graph
