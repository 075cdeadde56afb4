"""JSON forms of the library's objects.

Graphs: {"n": 2, "vertices": [...], "edges": [[src, dst, "a"], ...],
"basepoint": 0}. Edge labels are lowercase letters for alphabets of size
at most 26 and plain integers beyond that. Vertex labels round-trip as JSON
scalars; tuple labels (cover sheets, product pairs) are written as nested
lists and frozen back into tuples on read, since JSON has no tuple type.

Hypertournaments: {"L": [2], "universe": [...], "relations": {"2":
[[x, y], ...]}}. ``hypertournament_to_dict`` and ``extension_to_dict``
return a payload for ``json_blocks``: each relation's rows there are one
read-only ``RelationRows`` value, which ``json_blocks`` writes without making
a Python list per row; call its ``.tolist()`` for plain lists (``json.dumps``
does not take it). Component tables are likewise one read-only
``RecordColumns`` value, one numpy column per key. Partial map families:
[{"map": {"0": "1"}}, ...]; object keys are always strings in JSON, so keys
are matched against the universe first verbatim and then through a JSON
parse (which also restores integer labels).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any, Iterator, Mapping

import numpy as np

from .arith import require_prime
from .errors import InputError
from .graphs import (
    IndexGraph,
    IndexMorphism,
    LabeledGraph,
    ListGraph,
    SubgroupGraph,
    core,
    cycle_basis,
    fold,
    index_morphism,
    relabel_canonical,
)
from .hypertournaments import (
    ExtensionResult,
    Hypertournament,
    PartialAutomorphismFamily,
    _decode,
    _label_key,
    make_family,
    make_hypertournament,
)
from .separability import SeparationWitness


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(x) for x in value)
    if isinstance(value, dict):
        raise InputError(f"a JSON object {value!r} is not a label")
    return value


def _thaw(value):
    if isinstance(value, tuple):
        return [_thaw(x) for x in value]
    return value


def letter_text(i: int, n: int) -> str | int:
    if not 1 <= i <= n:
        raise InputError(f"letter {i} out of range 1..{n}")
    if n > 26:
        return i
    return chr(ord("a") + i - 1)


def parse_letter(raw, n: int) -> int:
    if isinstance(raw, bool):
        raise InputError(f"edge label {raw!r} is not a letter")
    if isinstance(raw, int):
        i = raw
    elif isinstance(raw, str) and len(raw) == 1 and "a" <= raw <= "z":
        i = ord(raw) - ord("a") + 1
    elif isinstance(raw, str) and raw.isdigit():
        i = int(raw)
    else:
        raise InputError(f"edge label {raw!r} is not a letter")
    if not 1 <= i <= n:
        raise InputError(f"edge label {raw!r} out of range 1..{n}")
    return i


# -- output text --------------------------------------------------------------------

# The text is made in pieces of at most BLOCK_ITEMS values: that many
# entries of an integer array, or that many pieces of the json module's
# encoder (about one value each). Pieces are handed on in blocks of at most
# BLOCK_CHARS characters, so that a small payload takes one write, and a
# 128-point extension, which holds over a million integers, never has its
# whole text in memory at once: that would cost its size several times over
# in peak memory.
BLOCK_ITEMS = 768
BLOCK_CHARS = 1 << 17

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def json_blocks(payload) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` in
    blocks of at most BLOCK_CHARS characters or one piece.

    With ``indent`` set, the json module encodes in pure Python, one call
    per value. Here dicts whose keys are all strings are walked; a
    ``RelationRows`` or ``RecordColumns`` value is written as its
    ``.tolist()`` would be, the first from a table of its labels' texts, the
    second from its columns by one template per combination of its bool
    values; lists of plain ints (``type(x) is int``, so no bools) and lists
    of equal-width rows of them are formatted by one ``%d`` template per
    piece, and a list of such lists item by item; and every other subtree
    goes to the json module, its line breaks indented to the depth it sits
    at (JSON strings never hold a raw newline)."""
    buffer: list[str] = []
    size = 0
    for piece in _pieces(payload, 0):
        if size + len(piece) > BLOCK_CHARS and buffer:
            yield "".join(buffer)
            buffer, size = [], 0
        buffer.append(piece)
        size += len(piece)
    yield "".join(buffer)


def _pieces(value, level: int) -> Iterator[str]:
    if type(value) is dict and value and all(type(k) is str for k in value):
        outer = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(value)):
            yield ("{" if i == 0 else ",") + outer + _ENCODER.encode(key) + ": "
            yield from _pieces(value[key], level + 1)
        yield "\n" + "  " * level + "}"
        return
    if type(value) is RelationRows:
        yield from _rows_text(value, level)
        return
    if type(value) is RecordColumns:
        yield from _columns_text(value, level)
        return
    width = _int_array_width(value) if type(value) is list else None
    if width is not None:
        yield from _int_array(value, width, level)
        return
    widths = _int_arrays_widths(value) if type(value) is list else None
    if widths is not None:
        outer = "\n" + "  " * (level + 1)
        for i, (item, width) in enumerate(zip(value, widths)):
            yield ("[" if i == 0 else ",") + outer
            yield from _int_array(item, width, level + 1)
        yield "\n" + "  " * level + "]"
        return
    if value is None or type(value) in (str, int, float, bool):
        yield json.dumps(value)  # the C encoder: no indent to apply
        return
    pieces = _ENCODER.iterencode(value)
    indent = "\n" + "  " * level
    for piece in iter(lambda: "".join(islice(pieces, BLOCK_ITEMS)), ""):
        yield piece.replace("\n", indent)


def _int_array_width(value: list) -> int | None:
    """0 for a nonempty list of plain ints, w for a nonempty list of lists
    of w plain ints each (1 <= w <= BLOCK_ITEMS), None for anything else."""
    kinds = set(map(type, value))
    if kinds == {int}:
        return 0
    if kinds == {list}:
        widths = set(map(len, value))
        width = widths.pop()
        if not widths and 1 <= width <= BLOCK_ITEMS:
            if set(map(type, chain.from_iterable(value))) == {int}:
                return width
    return None


def _int_arrays_widths(value: list) -> list[int] | None:
    """The width of each item of a nonempty list of nonempty lists that
    ``_int_array_width`` accepts, None for anything else. It stops at the
    first other item, so a list of mixed rows costs one check."""
    widths = []
    for item in value:
        width = _int_array_width(item) if type(item) is list else None
        if width is None:
            return None
        widths.append(width)
    return widths or None


def _int_array(value: list, width: int, level: int) -> Iterator[str]:
    outer = "\n" + "  " * (level + 1)
    if width:
        inner = outer + "  "
        item = "[" + inner + ("," + inner).join(["%d"] * width) + outer + "]"
        step = BLOCK_ITEMS // width
    else:
        item, step = "%d", BLOCK_ITEMS
    for start in range(0, len(value), step):
        chunk = value[start : start + step]
        args = tuple(chain.from_iterable(chunk)) if width else tuple(chunk)
        head = "[" if start == 0 else ","
        yield head + outer + ("," + outer).join([item] * len(chunk)) % args
    yield "\n" + "  " * level + "]"


@dataclass(frozen=True, eq=False)
class RelationRows:
    """One relation's rows as they are written: ``digits[r, k]`` is the
    position in ``labels`` of entry k of row r. Read-only, so a payload can
    be written more than once."""

    labels: tuple
    digits: np.ndarray  # (m, l) integer array

    def __post_init__(self):
        self.digits.setflags(write=False)

    def tolist(self) -> list:
        """The rows as lists of labels."""
        labels = self.labels
        return [[labels[i] for i in row] for row in self.digits.tolist()]


def _rows_text(rows: RelationRows, level: int) -> Iterator[str]:
    """The text of ``rows.tolist()`` at a depth, BLOCK_ITEMS entries per
    piece. Each entry is looked up in a table holding, per column and label,
    the label's text with the separator and brackets around it, so a piece
    is one gather and one join whatever the labels' types."""
    m, width = rows.digits.shape
    if m == 0:
        yield "[]"
        return
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    texts = ["".join(_pieces(v, level + 2)) for v in rows.labels]
    table = np.empty((width, len(texts)), dtype=object)
    for k in range(width):
        before = "," + outer + "[" + inner if k == 0 else "," + inner
        after = outer + "]" if k == width - 1 else ""
        table[k] = [before + t + after for t in texts]
    columns = np.arange(width)
    step = max(1, BLOCK_ITEMS // width)
    for start in range(0, m, step):
        piece = "".join(table[columns, rows.digits[start : start + step]].ravel())
        yield "[" + piece[1:] if start == 0 else piece
    yield "\n" + "  " * level + "]"


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """A list of records with one set of string keys, held as one numpy
    column per key: a 1-D signed int column holds ints, a 1-D bool column
    bools, and a 2-D signed int column of width k dicts keyed 1..k (written
    in numeric key order, as ``sort_keys`` does). Read-only views of
    the given arrays, kept in key order, so a payload can be written more
    than once."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        views = {key: self.columns[key].view() for key in sorted(self.columns)}
        for column in views.values():
            column.setflags(write=False)
        object.__setattr__(self, "columns", views)

    def tolist(self) -> list[dict]:
        """The records as dicts."""
        values = [
            [dict(enumerate(row, start=1)) for row in c.tolist()] if c.ndim == 2 else c.tolist()
            for c in self.columns.values()
        ]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


def _columns_text(table: RecordColumns, level: int) -> Iterator[str]:
    """The text of ``table.tolist()`` at a depth. A row's template holds its
    bools as literals, so there is one template per combination of them;
    each piece is one ``%`` over the templates of a few rows and the row
    ints of the int columns, side by side."""
    columns = table.columns
    m = len(next(iter(columns.values()), ()))
    if m == 0:
        yield "[]"
        return
    outer = "\n" + "  " * (level + 1)
    inner, deep = outer + "  ", outer + "    "
    texts = []  # each column's key and, but for bool columns, its value's template
    for key, column in columns.items():
        text = _ENCODER.encode(key).replace("%", "%%") + ": "
        if column.ndim == 2:
            fields = ("," + deep).join('"%d": %%d' % k for k in range(1, column.shape[1] + 1))
            text += "{" + deep + fields + inner + "}" if column.shape[1] else "{}"
        elif column.dtype != bool:
            text += "%d"
        texts.append(text)
    flags = [c for c in columns.values() if c.dtype == bool]
    ints = np.column_stack([c for c in columns.values() if c.dtype != bool] or [np.zeros((m, 0), int)])
    codes = sum((c.astype(np.int64) << i for i, c in enumerate(flags)), np.zeros(m, np.int64))
    templates: dict[int, str] = {}

    def template(code: int) -> str:
        shown = iter(("false", "true")[code >> i & 1] for i in range(len(flags)))
        parts = [t + next(shown) if c.dtype == bool else t for t, c in zip(texts, columns.values())]
        return "," + outer + "{" + inner + ("," + inner).join(parts) + outer + "}"

    # A value here, with its key and indent, takes about four times the text
    # of an array entry, so a piece holds about BLOCK_ITEMS // 4 values: the
    # blocks then fill up, and fewer blocks mean fewer reallocations of
    # whatever buffer they are written to.
    step = max(1, BLOCK_ITEMS // 4 // max(1, ints.shape[1] + len(flags)))
    for start in range(0, m, step):
        rows = codes[start : start + step].tolist()
        for code in set(rows).difference(templates):
            templates[code] = template(code)
        piece = "".join(map(templates.__getitem__, rows)) % tuple(ints[start : start + step].ravel().tolist())
        yield "[" + piece[1:] if start == 0 else piece
    yield "\n" + "  " * level + "]"


# -- graphs -------------------------------------------------------------------------


def graph_to_dict(g: LabeledGraph) -> dict:
    out: dict[str, Any] = {
        "n": g.n,
        "vertices": [_thaw(v) for v in g.vertices],
        "edges": [
            [_thaw(u), _thaw(v), letter_text(i, g.n)] for u, v, i in g.sorted_edges
        ],
    }
    if g.basepoint is not None:
        out["basepoint"] = _thaw(g.basepoint)
    return out


def read_graph(d: Mapping) -> ListGraph:
    """A graph document read once into int lists: labels frozen and
    deduplicated (a repeated id keeps its first place), endpoints looked up
    by label, letters read as ``parse_letter`` reads them. Each column goes
    through C in one pass, or item by item when that fails."""
    if not isinstance(d, Mapping):
        raise InputError("graph JSON must be an object")
    try:
        n = _integer(d["n"], "alphabet size")
        raw_vertices, raw_edges = list(d["vertices"]), list(d["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"graph JSON needs n, vertices and edges: {exc}") from exc
    try:
        index = dict.fromkeys(raw_vertices)
    except TypeError:  # list labels
        index = dict.fromkeys(map(_freeze, raw_vertices))
    labels = tuple(index)
    index.update(zip(labels, range(len(labels))))
    if not set(map(type, raw_edges)) <= {list, tuple} or set(map(len, raw_edges)) - {3}:
        bad = next(e for e in raw_edges if not isinstance(e, (list, tuple)) or len(e) != 3)
        raise InputError(f"edge {bad!r} is not a [src, dst, label] triple")

    def vertex(label, what="edge endpoint") -> int:
        k = index.get(_freeze(label))
        if k is None:
            raise InputError(f"{what} {label!r} is not a vertex")
        return k

    letters = {chr(ord("a") + i - 1): i for i in range(1, min(n, 26) + 1)}
    columns = []
    for j, known, read in ((0, index, vertex), (1, index, vertex), (2, letters, lambda x: parse_letter(x, n))):
        raw = list(map(itemgetter(j), raw_edges))
        try:
            columns.append(list(map(known.__getitem__, raw)))
        except (KeyError, TypeError):
            columns.append(list(map(read, raw)))
    bp = d.get("basepoint")
    return ListGraph(n, labels, None if bp is None else vertex(bp, "basepoint"), *columns)


def graph_from_dict(d: Mapping) -> LabeledGraph:
    return read_graph(d).graph


def subgroup_from_dict(d: Mapping) -> SubgroupGraph:
    """Read a based graph and normalize it into a subgroup graph (fold, take
    the core, relabel); the stored generators are a cycle basis."""
    g = read_graph(d)
    if g.basepoint is None:
        raise InputError("a subgroup graph needs a basepoint")
    cored = relabel_canonical(core(fold(g)))
    return SubgroupGraph(cored, tuple(cycle_basis(cored)))


def read_morphism(d: Mapping) -> IndexMorphism:
    """A morphism as ``gersten-check`` reads it: graph documents ``domain``
    and ``codomain``, and a ``vertex_map`` of [vertex, image] pairs naming
    every domain vertex once. Refused unless each image is a codomain vertex
    and each edge has an image edge."""
    dom, cod = (read_graph(d[key]).graph for key in ("domain", "codomain"))
    images = {}
    for v, fv in _pairs(d["vertex_map"], "vertex_map"):
        if v not in dom.vertex_index:
            raise InputError(f"vertex_map key {v!r} is not a domain vertex")
        if v in images:
            raise InputError(f"vertex_map names {v!r} twice")
        if fv not in cod.vertex_index:
            raise InputError(f"image {fv!r} of {v!r} is not a codomain vertex")
        images[v] = cod.vertex_index[fv]
    if len(images) < len(dom.vertices):
        raise InputError("vertex map must be defined on every domain vertex")
    return index_morphism(IndexGraph.of(dom), IndexGraph.of(cod), [images[v] for v in dom.vertices])


def _pairs(items, what: str) -> list[tuple]:
    """A JSON list of [x, y] pairs, labels frozen."""
    if not isinstance(items, list):
        raise InputError(f"{what} must be a list of pairs")
    for item in items:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"{what} entry {item!r} is not a pair")
    return [(_freeze(x), _freeze(y)) for x, y in items]


# -- cocycles -----------------------------------------------------------------------


def cocycle_from_value(base: IndexGraph, p: int, value) -> np.ndarray:
    """A cocycle for ``covers.build_cover``: one shift per edge of ``base``,
    in ``sorted_edges`` order, reduced mod the prime p. Two accepted shapes:
    a per-letter object {"a": 1, "b": 0} giving one value to every edge with
    that label, or a per-edge list [[[u, v, "a"], 1], ...]. Unmentioned
    edges get 0."""
    if isinstance(value, Mapping):
        shifts = {}
        for k, v in value.items():
            shifts[parse_letter(k, base.n)] = _integer(v, "cocycle value")
        values = [shifts.get(i, 0) for i in base.letter.tolist()]
    elif isinstance(value, (list, tuple)):
        edge_index = {e: j for j, e in enumerate(base.graph.sorted_edges)}
        values = [0] * len(base.src)
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise InputError(f"cocycle entry {item!r} is not an [edge, value] pair")
            raw_edge, val = item
            if not isinstance(raw_edge, (list, tuple)) or len(raw_edge) != 3:
                raise InputError(f"cocycle edge {raw_edge!r} is not a triple")
            e = (
                _freeze(raw_edge[0]),
                _freeze(raw_edge[1]),
                parse_letter(raw_edge[2], base.n),
            )
            if e not in edge_index:
                raise InputError(f"cocycle names a non-edge {raw_edge!r}")
            values[edge_index[e]] = _integer(val, "cocycle value")
    else:
        raise InputError("cocycle must be a per-letter object or an [edge, value] list")
    require_prime(p)
    # reduced as Python ints, which may not fit int64
    return np.array([v % p for v in values], dtype=np.int64)


def _integer(value, what: str) -> int:
    """An int, a float of integral value, or a string that int() reads;
    bools and other floats are refused, though int() takes them too."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise InputError(f"{what} {value!r} is not an integer")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} {value!r} is not an integer") from exc


def parse_cocycle_text(text: str) -> dict:
    """The command-line form "a=1,b=0" as a per-letter object."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"cocycle term {part!r} is not letter=value")
        key, _, val = part.partition("=")
        out[key.strip()] = _integer(val, "cocycle value")
    if not out:
        raise InputError("empty cocycle")
    return out


# -- hypertournaments ----------------------------------------------------------------


def hypertournament_to_dict(h: Hypertournament) -> dict:
    """A payload for ``json_blocks``. Relation rows are ``RelationRows`` in
    tuple-code order, which is the order of ``_label_key`` on every entry in
    turn."""
    labels = tuple(_thaw(x) for x in h.universe)
    n = len(labels)
    relations = {
        str(l): RelationRows(labels, _decode(codes, n, l)) for l, codes in h.codes.items()
    }
    return {
        "L": sorted(h.L),
        "universe": [_thaw(x) for x in h.universe],
        "relations": relations,
    }


def hypertournament_from_dict(d: Mapping) -> Hypertournament:
    if not isinstance(d, Mapping):
        raise InputError("hypertournament JSON must be an object")
    try:
        L = [_integer(l, "arity") for l in d["L"]]
        universe = [_freeze(x) for x in d["universe"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"hypertournament JSON needs L and universe: {exc}") from exc
    relations: dict[int, list] = {}
    keys: dict[int, str] = {}
    raw = d.get("relations") or {}
    if not isinstance(raw, Mapping):
        raise InputError("relations must be an object keyed by arity")
    for key, tuples in raw.items():
        try:
            l = int(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"relation arity {key!r} is not an integer") from exc
        if keys.setdefault(l, key) != key:
            raise InputError(f"relation keys {keys[l]!r} and {key!r} both name arity {l}")
        if not isinstance(tuples, list):
            raise InputError(f"relation {key!r} is not a list of tuples")
        if not all(map(isinstance, tuples, repeat((list, tuple)))):
            bad = next(t for t in tuples if not isinstance(t, (list, tuple)))
            raise InputError(f"relation tuple {bad!r} is not a list")
        # _freeze changes only lists (tuple labels) and refuses objects
        kinds = set(map(type, chain.from_iterable(tuples)))
        if any(issubclass(kind, (list, dict)) for kind in kinds):
            tuples = [tuple(map(_freeze, t)) for t in tuples]
        relations[l] = tuples
    return make_hypertournament(universe, L, relations)


def _resolve_label(raw, points: set):
    value = _freeze(raw)
    if value in points:
        return value
    if isinstance(raw, str):
        try:
            parsed = _freeze(json.loads(raw))
        except (json.JSONDecodeError, ValueError):
            parsed = None
        if parsed is not None and parsed in points:
            return parsed
    raise InputError(f"label {raw!r} is not in the universe")


def _key_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(_thaw(value))


def family_to_list(p: PartialAutomorphismFamily) -> list:
    """Raises InputError when a key would read back as another label, as
    the key "1" does in a universe holding both 1 and "1"."""
    points = set(p.host.universe)
    for x in {x for pairs in p.maps for x, _ in pairs}:
        if _resolve_label(_key_text(x), points) != x:
            raise InputError(f"label {x!r} would read back as another label")
    return [
        {"map": {_key_text(x): _thaw(y) for x, y in pairs}} for pairs in p.maps
    ]


def family_from_list(host: Hypertournament, items) -> PartialAutomorphismFamily:
    if isinstance(items, Mapping) or isinstance(items, str):
        raise InputError("partial maps JSON must be a list of {\"map\": ...} objects")
    points = set(host.universe)
    maps = []
    for k, item in enumerate(items):
        if not isinstance(item, Mapping) or not isinstance(item.get("map"), Mapping):
            raise InputError(f"entry {k} must be an object with a map field")
        m, keys = {}, {}
        for src, dst in item["map"].items():
            x = _resolve_label(src, points)
            if keys.setdefault(x, src) != src:
                raise InputError(f"map {k} defines {x!r} twice, as {keys[x]!r} and {src!r}")
            m[x] = _resolve_label(dst, points)
        maps.append(m)
    return make_family(host, maps)


# -- witnesses and extensions ---------------------------------------------------------


def witness_to_dict(w: SeparationWitness) -> dict:
    q = w.quotient
    return {
        "order": q.order,
        "degree": q.degree,
        "group": q.name,
        "images": {
            str(letter_text(i + 1, q.n)): list(g) for i, g in enumerate(q.images)
        },
        "subgroup": str(w.subgroup),
        "excluded": str(w.excluded),
        "allowed_primes": (
            sorted(w.allowed_primes) if w.allowed_primes is not None else None
        ),
        "excluded_primes": sorted(w.excluded_primes),
        "transcript": list(w.transcript),
    }


def extension_to_dict(r: ExtensionResult) -> dict:
    return {
        "extended": hypertournament_to_dict(r.extended),
        "embedding": [[_thaw(x), _thaw(v)] for x, v in r.embedding],
        "automorphisms": [
            [[_thaw(u), _thaw(v)] for u, v in pairs] for pairs in r.automorphisms
        ],
    }


def extension_from_dict(d: Mapping) -> ExtensionResult:
    if not isinstance(d, Mapping):
        raise InputError("extension JSON must be an object")
    try:
        extended = hypertournament_from_dict(d["extended"])
        raw_embedding = list(d["embedding"])
        raw_autos = list(d["automorphisms"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"extension JSON is missing a field: {exc}") from exc

    def by_label(pairs, what: str) -> tuple:
        return tuple(sorted(_pairs(pairs, what), key=lambda kv: _label_key(kv[0])))

    embedding = by_label(raw_embedding, "embedding")
    autos = tuple(by_label(pairs, "automorphism") for pairs in raw_autos)
    return ExtensionResult(extended, embedding, autos)
