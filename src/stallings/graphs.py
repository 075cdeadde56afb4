"""Edge-labeled directed graphs, Stallings folding, and subgroup graphs.

A :class:`LabeledGraph` has edges labeled by letters ``1..n`` and represents,
when immersed (at most one in-edge and one out-edge per letter per vertex),
a family of n partial injections of its vertex set. A based connected core
immersed graph is the canonical representative of a finitely generated
subgroup of the free group F_n; words are read left-to-right along edges
(letter ``i`` follows the out-edge labeled i, letter ``-i`` walks an in-edge
backwards).

Edges are a *set* of (src, dst, letter) triples: parallel edges with equal
endpoints and equal label coincide, which is harmless because folding would
identify them immediately anyway.

Graphs read from JSON or built from words are :class:`ListGraph`s of Python
ints (no numpy per call). The fold's class tables are the step table that
core and canonical numbering read; only the graph returned gets labels.
An immersed graph is read through that table (``LabeledGraph.table``): words
are traced on it, and one walk from the basepoint (``bfs_edges``, steps in
slot order +1, -1, +2, ...) numbers it canonically and gives spanning trees,
path words and cycle bases. The table keeps its walk (``ListGraph.walk``),
and ``relabel_canonical`` hands its walk, renumbered, to the graph it
returns, so a subgroup graph is walked from its basepoint once.

Covers, towers, pull-backs and fiber products are :class:`IndexGraph`s,
and homology reads only those: vertices 0..size-1, edge arrays
src/dst/letter in ``sorted_edges`` order. A vertex made from a pair (u, k)
of indices, k < m, has index u·m + k, kept pairs numbered in that order:
sheet k over base vertex u of a Z/p cover is u·p + k, and the pair (u, v)
of a fiber product is u·|V_B| + v. Morphisms between them are
:class:`IndexMorphism`s, arrays of vertex and edge images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, PreconditionError, ResourceCapError
from .words import Word, empty_word, reduce_letters

Vertex = Hashable
Edge = tuple[Vertex, Vertex, int]


def _signed_letters(n: int) -> list[int]:
    """Deterministic traversal order: +1, -1, +2, -2, ..."""
    out = []
    for i in range(1, n + 1):
        out.append(i)
        out.append(-i)
    return out


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    basepoint: Vertex | None = None

    def __post_init__(self):
        if self.n < 0:
            raise InputError("alphabet size must be >= 0")
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        for u, v, i in self.edges:
            if u not in seen or v not in seen:
                raise InputError(f"edge ({u!r}, {v!r}, {i}) uses unknown vertex")
            if not 1 <= i <= self.n:
                raise InputError(f"edge label {i} out of range 1..{self.n}")
        if self.basepoint is not None and self.basepoint not in seen:
            raise InputError(f"basepoint {self.basepoint!r} is not a vertex")

    # -- derived views (cached; the dataclass itself stays immutable) -------

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        ix = self.vertex_index
        return tuple(sorted(self.edges, key=lambda e: (ix[e[0]], ix[e[1]], e[2])))

    @cached_property
    def table(self) -> "ListGraph":
        """The step table of an immersed graph: a folded ListGraph on vertex
        indices, refused unless folding keeps all 2·E edge ends (which also
        refuses a repeated edge)."""
        table = _fold(ListGraph.of(self))
        if sum(map(len, table.steps)) != 2 * len(self.edges):
            raise PreconditionError("graph is not immersed")
        return table

    @cached_property
    def degrees(self) -> dict[Vertex, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    # -- components ----------------------------------------------------------

    @cached_property
    def component_lists(self) -> tuple[tuple[Vertex, ...], ...]:
        """The components in order of first vertex, each in vertex order."""
        comps: list[list[Vertex]] = []
        for v, c in zip(self.vertices, IndexGraph.of(self).component_ids.tolist()):
            if c == len(comps):
                comps.append([])
            comps[c].append(v)
        return tuple(map(tuple, comps))

    @cached_property
    def is_connected(self) -> bool:
        return len(self.component_lists) == 1

    def restrict(
        self, keep: Iterable[Vertex], basepoint: Vertex | None = None
    ) -> "LabeledGraph":
        keep_set = set(keep)
        verts = tuple(v for v in self.vertices if v in keep_set)
        edges = tuple(
            e for e in self.sorted_edges if e[0] in keep_set and e[1] in keep_set
        )
        return LabeledGraph(self.n, verts, edges, basepoint)


def make_graph(
    n: int,
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex, int]],
    basepoint: Vertex | None = None,
) -> LabeledGraph:
    """Normalize and build: dedup vertices (order kept) and edges (sorted)."""
    verts = tuple(dict.fromkeys(vertices))
    ix = {v: k for k, v in enumerate(verts)}
    dedup = sorted(
        {(u, v, int(i)) for (u, v, i) in edges},
        key=lambda e: (ix.get(e[0], -1), ix.get(e[1], -1), e[2]),
    )
    return LabeledGraph(n, verts, tuple(dedup), basepoint)


def wedge_graph(n: int) -> LabeledGraph:
    """The wedge of n circles: one vertex, one loop per letter."""
    return make_graph(n, [0], [(0, 0, i) for i in range(1, n + 1)], basepoint=0)


@dataclass(frozen=True, eq=False)
class ListGraph:
    """A graph on vertex indices 0..len(vertices)-1: edge j runs from src[j]
    to dst[j] with letter[j], repeats allowed, or once folded, steps[v] maps
    each signed letter at v to the vertex it leads to. ``graph`` is the
    LabeledGraph whose vertex k is vertices[k]."""

    n: int
    vertices: Sequence[Vertex]
    basepoint: int | None
    src: Sequence[int] = ()
    dst: Sequence[int] = ()
    letter: Sequence[int] = ()
    steps: list[dict[int, int]] | None = None

    @staticmethod
    def of(g: LabeledGraph) -> "ListGraph":
        ix = g.vertex_index
        us, vs, letter = zip(*g.edges) if g.edges else ((), (), ())
        bp = None if g.basepoint is None else ix[g.basepoint]
        return ListGraph(g.n, g.vertices, bp, [ix[u] for u in us], [ix[v] for v in vs], letter)

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """The distinct edges (src, dst, letter), in ``sorted_edges`` order."""
        if self.steps is None:
            return sorted(set(zip(self.src, self.dst, self.letter)))
        return sorted((v, w, t) for v, step in enumerate(self.steps) for t, w in step.items() if t > 0)

    @cached_property
    def graph(self) -> LabeledGraph:
        at = self.vertices.__getitem__
        edges = tuple((at(u), at(v), i) for u, v, i in self.edges)
        bp = None if self.basepoint is None else at(self.basepoint)
        g = LabeledGraph(self.n, tuple(self.vertices), edges, bp)
        if self.steps is not None:
            g.__dict__["table"] = self  # so the view re-derives no table
        return g

    @property
    def table(self) -> "ListGraph":
        if self.steps is None:
            raise PreconditionError("graph is not folded: fold it first")
        return self

    @cached_property
    def slot_steps(self) -> list[list[tuple[int, int]]]:
        """Each vertex's steps (t, w) in slot order +1, -1, +2, ... (folded
        graphs only): what ``bfs_edges`` walks."""
        slots = _signed_letters(self.n)
        return [[(t, step[t]) for t in slots if t in step] for step in self.steps]

    @cached_property
    def walk(self) -> list[tuple[int, int, int]]:
        """The walk from the basepoint (folded based graphs only)."""
        return list(bfs_edges(self.slot_steps.__getitem__, self.basepoint))


# -- folding ------------------------------------------------------------------


def component_labels(size: int, edges) -> np.ndarray:
    """The smallest member of each vertex's component in the graph on
    0..size-1 (int32 labels; callers keep size below 2^31) with an edge
    src[j] -- dst[j] for every (src, dst) pair of arrays in ``edges``; src
    None stands for 0..size-1, which saves storing it for a map defined
    everywhere. Roots are hooked onto smaller roots, one pair at a time,
    with pointer jumping after each hook, until every edge joins equal
    labels."""
    labels = np.arange(size, dtype=np.int32)
    while True:
        joined = True
        for src, dst in edges:
            lu = labels if src is None else labels[src]
            lv = labels[dst]
            apart = lu != lv
            if not apart.any():
                continue
            joined = False
            np.minimum.at(labels, np.maximum(lu, lv)[apart], np.minimum(lu, lv)[apart])
            del lu, lv, apart
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped
        if joined:
            return labels


# -- l-fold products of partial maps ------------------------------------------
#
# An l-tuple (t_0, ..., t_{l-1}) over 0..n-1 has the code
# t_0 * n^(l-1) + ... + t_{l-1}: digit 0 is the most significant, so code
# order is the lexicographic order of tuples.


def _product_codes(digits: np.ndarray, n: int, l: int) -> np.ndarray:
    """int32 codes of all l-tuples over ``digits``, in the order of
    ``itertools.product``; callers keep n**l below 2^31."""
    codes = np.zeros(1, dtype=np.int32)
    for _ in range(l):
        codes = (codes[:, None] * n + digits).ravel()
    return codes


def _shift(codes: np.ndarray, n: int, l: int) -> np.ndarray:
    """Code of the cyclic shift (t_1, ..., t_{l-1}, t_0) of each code."""
    top = n ** (l - 1)
    return codes % top * n + codes // top


def _orbit_labels(n: int, l: int, steps: Iterable[np.ndarray]) -> np.ndarray:
    """The smallest code in the orbit of each of the n**l tuple codes.

    ``steps[g]`` maps 0..n-1 along generator g, -1 where it is undefined.
    A generator moves the tuples over its domain, so the orbits are the
    components of the graph with an edge t -- g(t) for each of them; the
    inverse generators add no new edges. A generator defined everywhere
    moves every code, so only its images are stored.
    """
    edges = []
    for step in steps:
        dom = np.flatnonzero(step >= 0).astype(np.int32)
        src = None if len(dom) == n else _product_codes(dom, n, l)
        edges.append((src, _product_codes(step[dom], n, l)))
    return component_labels(n**l, edges)


def fold(g: LabeledGraph | ListGraph) -> LabeledGraph | ListGraph:
    """Stallings folding: merge equal-label edges sharing a source or a target
    until the graph is immersed. The image of pi_1 in F_n is unchanged.

    Worklist folding (Kapovich-Myasnikov 2002, Touikan 2006): each class maps
    signed letters to a vertex they reach; a union into the smaller index
    moves the absorbed class's entries to the survivor and queues each clash
    as a pair to merge. The result, the least congruence with an immersed
    quotient, is unique, so the merge order does not matter. Each class is
    named by its first vertex. A ListGraph folds to one with ``steps``."""
    if isinstance(g, LabeledGraph):
        return _fold(ListGraph.of(g)).graph
    return _fold(g)


def _fold(g: ListGraph) -> ListGraph:
    size = len(g.vertices)
    tables: list[dict[int, int]] = [{} for _ in range(size)]
    pending: list[tuple[int, int]] = []
    for u, v, i in zip(g.src, g.dst, g.letter):
        w = tables[u].setdefault(i, v)
        if w != v:
            pending.append((w, v))
        w = tables[v].setdefault(-i, u)
        if w != u:
            pending.append((w, u))
    parent = list(range(size))  # parent[v] < v but at the least vertex of a class
    while pending:
        a, b = pending.pop()
        while parent[a] != a:  # path halving
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        table = tables[a]
        for t, w in tables[b].items():
            seen = table.setdefault(t, w)
            if seen != w:
                pending.append((seen, w))
    roots = [k for k, up in enumerate(parent) if up == k]
    bp = g.basepoint
    if len(roots) < size:
        number = dict(zip(roots, range(len(roots))))
        for k, up in enumerate(parent):  # after its parent: class numbers in place
            parent[k] = number[k] if up == k else parent[up]
        tables = [{t: parent[w] for t, w in tables[r].items()} for r in roots]
        bp = None if bp is None else parent[bp]
    return ListGraph(g.n, [g.vertices[r] for r in roots], bp, steps=tables)


def core(g: LabeledGraph | ListGraph) -> LabeledGraph | ListGraph:
    """Restrict to the basepoint component and strip degree-1 vertices other
    than the basepoint, repeatedly: a queue takes each vertex whose degree
    among those kept (a loop counts twice) drops to 1 or less. What stays
    does not depend on the order in which leaves go, and since taking a
    leaf never splits what is left, leaves go first, everywhere. A
    LabeledGraph need not be immersed; a ListGraph must be folded. The core
    keeps the vertex order."""
    if g.basepoint is None:
        raise PreconditionError("core reduction needs a basepoint")
    # adj[v] holds one entry per edge end at vertex v
    if isinstance(g, LabeledGraph):
        x = ListGraph.of(g)
        adj, bp = [[] for _ in x.vertices], x.basepoint
        for u, v in zip(x.src, x.dst):
            adj[u].append(v)
            adj[v].append(u)
    else:
        adj, bp = [step.values() for step in g.table.steps], g.basepoint
    degree = [len(a) for a in adj]
    kept = bytearray(b"\1") * len(adj)
    queue = [v for v, d in enumerate(degree) if d <= 1 and v != bp]
    while queue:
        v = queue.pop()
        kept[v] = 0
        for w in adj[v]:
            degree[w] -= 1
            if degree[w] == 1 and w != bp:
                queue.append(w)
    reached = bytearray(len(adj))
    reached[bp] = 1
    # the basepoint's component of what is kept; the search needs no letters
    for *_, w in bfs_edges(lambda v: [(0, w) for w in adj[v] if kept[w]], bp):
        reached[w] = 1
    keep = list(compress(range(len(adj)), reached))
    if isinstance(g, LabeledGraph):
        return g.restrict(map(g.vertices.__getitem__, keep), g.basepoint)
    number = [-1] * len(adj)
    for k, v in enumerate(keep):
        number[v] = k
    steps = [{t: number[w] for t, w in g.steps[v].items() if number[w] >= 0} for v in keep]
    return ListGraph(g.n, [g.vertices[v] for v in keep], number[bp], steps=steps)


def is_core(g: LabeledGraph) -> bool:
    """No vertex of degree <= 1 except possibly the basepoint."""
    return all(d > 1 for v, d in g.degrees.items() if v != g.basepoint)


def relabel_canonical(g: LabeledGraph | ListGraph) -> LabeledGraph:
    """Rename vertices 0..V-1 in the order of the walk from the basepoint
    (connected based graphs only: an immersed LabeledGraph or a folded
    ListGraph)."""
    if g.basepoint is None:
        raise PreconditionError("canonical relabeling needs a connected based graph")
    g = g.table
    order = [g.basepoint] + [w for *_, w in g.walk]
    if len(order) < len(g.steps):
        raise PreconditionError("canonical relabeling needs a connected based graph")
    number = {v: k for k, v in enumerate(order)}
    steps = [{t: number[w] for t, w in g.steps[v].items()} for v in order]
    h = ListGraph(g.n, range(len(order)), 0, steps=steps)
    # the walk does not depend on the numbering: the result's is this one, renumbered
    h.__dict__["walk"] = [(number[v], t, k) for k, (v, t, _) in enumerate(g.walk, start=1)]
    return h.graph


def canonical_form(g: LabeledGraph) -> tuple:
    """A complete label-isomorphism invariant of a connected based immersed
    graph (traversal from the basepoint is unique in an immersed graph)."""
    h = relabel_canonical(g)
    return (h.n, len(h.vertices), h.sorted_edges)


# -- subgroup graphs -----------------------------------------------------------


@dataclass(frozen=True)
class SubgroupGraph:
    """Core based immersed graph of the subgroup generated by ``generators``."""

    graph: LabeledGraph
    generators: tuple[Word, ...]

    def __post_init__(self):
        if self.graph.basepoint is None:
            raise InputError("subgroup graph needs a basepoint")
        try:
            g = self.graph.table
        except PreconditionError:
            raise InputError("subgroup graph must be immersed") from None
        bp = g.basepoint
        if len(g.walk) + 1 < len(g.steps):
            raise InputError("subgroup graph must be connected")
        if any(len(step) < 2 and v != bp for v, step in enumerate(g.steps)):
            raise InputError("subgroup graph must be core")
        for w in self.generators:
            if _trace(g, bp, w) != bp:
                raise InputError(f"generator {w} is not a loop at the basepoint")

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def wedge_map(self) -> "IndexMorphism":
        """The graph's map onto the wedge of n circles (``to_wedge``)."""
        return to_wedge(self.graph)

    def contains(self, w: Word) -> bool:
        return contains(self, w)

    def rank(self) -> int:
        return len(self.graph.edges) - len(self.graph.vertices) + 1


def subgroup_graph(gens: Sequence[Word], n: int) -> SubgroupGraph:
    """Fold the wedge of generator loops into the core subgroup graph."""
    gens = tuple(gens)
    for w in gens:
        if w.n > n:
            raise InputError(f"generator {w} uses letters beyond alphabet size {n}")
    src: list[int] = []
    dst: list[int] = []
    size = 1
    for w in gens:
        prev, last = 0, len(w.letters) - 1
        for k, t in enumerate(w.letters):
            nxt = 0 if k == last else size + k
            src.append(prev if t > 0 else nxt)
            dst.append(nxt if t > 0 else prev)
            prev = nxt
        size += max(last, 0)
    letters = [abs(t) for w in gens for t in w.letters]
    cored = core(fold(ListGraph(n, range(size), 0, src, dst, letters)))
    return SubgroupGraph(relabel_canonical(cored), gens)


# -- reading words ---------------------------------------------------------------


def _vertex(g: LabeledGraph, v: Vertex) -> int:
    k = g.vertex_index.get(v)
    if k is None:
        raise InputError(f"{v!r} is not a vertex")
    return k


def _trace(g: ListGraph, v: int, w: Iterable[int]) -> int | None:
    steps = g.steps
    for t in w:
        v = steps[v].get(t)
        if v is None:
            return None
    return v


def trace(
    g: LabeledGraph | SubgroupGraph, v: Vertex, w: Word
) -> Vertex | None:
    """Endpoint of the path reading w from v, or None if the path leaves the
    graph. Words are read left-to-right; negative letters walk edges backwards."""
    if isinstance(g, SubgroupGraph):
        g = g.graph
    k = _trace(g.table, _vertex(g, v), w)
    return None if k is None else g.vertices[k]


def contains(h: SubgroupGraph | LabeledGraph, w: Word) -> bool:
    """Membership: w is in the subgroup iff its reduced word is a loop at the
    basepoint."""
    g = h.graph if isinstance(h, SubgroupGraph) else h
    if g.basepoint is None:
        raise PreconditionError("membership needs a based graph")
    return _trace(g.table, g.table.basepoint, w) == g.table.basepoint


def bfs_edges(
    steps: Callable[[Vertex], Iterable[tuple[int, Vertex]]], root: Vertex
) -> Iterator[tuple[Vertex, int, Vertex]]:
    """The package's one breadth-first search: yields (v, t, w) as it first
    reaches each vertex w other than ``root``, from v along step t.
    ``steps(v)`` gives v's steps (t, w) in the order to try, when v leaves
    the queue, so steps may be made on the fly and a caller may stop early.
    Over ``ListGraph.slot_steps`` (slot order +1, -1, +2, ...) it is the
    walk, which depends only on the root: ``relabel_canonical`` is canonical."""
    seen = {root}
    queue = [root]
    for v in queue:
        for t, w in steps(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                yield v, t, w


def _walk(
    g: ListGraph, root: int
) -> tuple[dict[int, Word], set[tuple[int, int, int]], list[Word]]:
    """The walk from ``root`` over a step table: path words of root's
    component (reduced, since the walk does not backtrack), its tree edges,
    and the loop word of each other edge of the component, in edge order.
    From the basepoint it is the table's kept walk."""
    words = {root: empty_word(g.n)}
    tree = set()
    walk = g.walk if root == g.basepoint else bfs_edges(g.slot_steps.__getitem__, root)
    for v, t, w in walk:
        words[w] = words[v].then(t)
        tree.add((v, w, t) if t > 0 else (w, v, -t))
    chords = sorted(
        (u, w, t) for u in words for t, w in g.steps[u].items() if t > 0 and (u, w, t) not in tree
    )
    loops = [
        Word(reduce_letters(words[u].letters + (t,) + tuple(-s for s in reversed(words[w].letters))), g.n)
        for u, w, t in chords
    ]
    return words, tree, loops


def path_words_from(g: LabeledGraph, start: Vertex) -> dict[Vertex, Word]:
    """Shortest path words from ``start`` to every reachable vertex, in the
    order of the walk."""
    words, _, _ = _walk(g.table, _vertex(g, start))
    return {g.vertices[v]: w for v, w in words.items()}


# -- bases and ranks -------------------------------------------------------------


def cycle_basis(g: LabeledGraph, v: Vertex | None = None) -> list[Word]:
    """Free generating set of pi_1(g, v): one loop word per non-tree edge.

    Requires a connected immersed graph; |result| = E - V + 1.
    """
    if v is None:
        v = g.basepoint
    if v is None:
        raise PreconditionError("cycle basis needs a basepoint")
    words, _, loops = _walk(g.table, _vertex(g, v))
    if len(words) < len(g.vertices):
        raise InputError("cycle basis needs a connected graph")
    return loops


def rank(g: LabeledGraph) -> int:
    """E - V + 1 of a connected graph (the rank of its fundamental group)."""
    if not g.vertices:
        raise InputError("rank of the empty graph is undefined")
    if not g.is_connected:
        raise InputError("rank of a disconnected graph is per component; "
                         "use IndexGraph.component_ranks")
    return len(g.edges) - len(g.vertices) + 1


# -- graphs and morphisms on vertex indices ------------------------------------------


@dataclass(frozen=True, eq=False)
class IndexGraph:
    """A graph on vertices 0..size-1 whose edge j runs from src[j] to dst[j]
    with letter[j], in ``sorted_edges`` order. ``labelled(self)`` builds the
    LabeledGraph whose vertex j is this graph's vertex j; ``graph`` calls it
    on first use."""

    n: int
    size: int
    src: np.ndarray
    dst: np.ndarray
    letter: np.ndarray
    basepoint: int | None
    labelled: Callable[["IndexGraph"], LabeledGraph] = field(repr=False)

    @staticmethod
    def of(g: LabeledGraph) -> "IndexGraph":
        ix = g.vertex_index
        rows = np.array(
            [(ix[u], ix[v], i) for u, v, i in g.sorted_edges], dtype=np.int64
        ).reshape(-1, 3)
        bp = None if g.basepoint is None else ix[g.basepoint]
        return IndexGraph(g.n, len(g.vertices), *rows.T, bp, lambda _: g)

    @cached_property
    def graph(self) -> LabeledGraph:
        return self.labelled(self)

    @cached_property
    def component_ids(self) -> np.ndarray:
        """Each vertex's component; components are numbered by least vertex."""
        labels = component_labels(self.size, [(self.src, self.dst)])
        return (np.cumsum(labels == np.arange(self.size)) - 1)[labels]

    @property
    def is_connected(self) -> bool:
        return len(self.component_sizes) == 1

    @cached_property
    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.component_ids)

    def component_ranks(self) -> list[int]:
        """E - V + 1 for each component, in ``component_ids`` order."""
        sizes = self.component_sizes
        edges = np.bincount(self.component_ids[self.src], minlength=len(sizes))
        return (edges - sizes + 1).tolist()


def _pair_graph(
    left: IndexGraph, right: Sequence, pairs: np.ndarray | None, space: IndexGraph
) -> LabeledGraph:
    """``space`` on pair vertices: vertex k is (vertex u of left, right[v])
    for pairs[k] = u·len(right) + v; pairs None stands for 0..size-1."""
    u, v = np.divmod(np.arange(space.size) if pairs is None else pairs, len(right))
    a, b = map(left.graph.vertices.__getitem__, u.tolist()), map(right.__getitem__, v.tolist())
    verts = tuple(zip(a, b))
    at = verts.__getitem__
    edges = zip(map(at, space.src.tolist()), map(at, space.dst.tolist()), space.letter.tolist())
    bp = None if space.basepoint is None else verts[space.basepoint]
    return LabeledGraph(space.n, verts, tuple(edges), bp)


@dataclass(frozen=True, eq=False)
class IndexMorphism:
    """A graph morphism on indices: vertex a of ``domain`` goes to vertex
    ``vertices[a]`` of ``codomain``, and edge j to edge ``edges[j]``. It is
    built from its vertex map by ``index_morphism`` or ``to_wedge``."""

    domain: IndexGraph
    codomain: IndexGraph
    vertices: np.ndarray
    edges: np.ndarray


def index_morphism(domain: IndexGraph, codomain: IndexGraph, vertices) -> IndexMorphism:
    """The morphism that sends vertex a of ``domain`` to ``vertices[a]`` and
    each edge to the codomain edge with the images as ends and the same
    letter; refused when there is no such edge. Codomain edges are distinct
    and in ``sorted_edges`` order, so their keys are sorted."""
    vertices = np.asarray(vertices, dtype=np.int64)
    width = max(domain.n, codomain.n) + 1
    if codomain.size**2 * width >= 1 << 63:  # so that every key fits int64
        raise ResourceCapError(f"{codomain.size} vertices and {width - 1} letters overflow the edge keys")

    def keys(src, dst, letter):
        return (src * codomain.size + dst) * width + letter

    have = keys(codomain.src, codomain.dst, codomain.letter)
    want = keys(vertices[domain.src], vertices[domain.dst], domain.letter)
    at = np.searchsorted(have, want)
    missing = np.flatnonzero(np.append(have, -1)[at] != want)
    if len(missing):
        j = int(missing[0])
        u, v, i = (int(a[j]) for a in (domain.src, domain.dst, domain.letter))
        dom, cod = domain.graph.vertices, codomain.graph.vertices
        fu, fv = cod[vertices[u]], cod[vertices[v]]
        raise InputError(f"edge ({dom[u]!r}, {dom[v]!r}, {i}) has no image edge ({fu!r}, {fv!r}, {i})")
    return IndexMorphism(domain, codomain, vertices, at)


def to_wedge(g: LabeledGraph, point: IndexGraph | None = None) -> IndexMorphism:
    """g's map onto the one-vertex graph ``point``, by default the wedge of
    g.n circles: every vertex goes to 0, and an i-edge to the i-loop."""
    if point is None:
        point = IndexGraph.of(wedge_graph(g.n))
    return index_morphism(IndexGraph.of(g), point, np.zeros(len(g.vertices), dtype=np.int64))


def same_graph(a: IndexGraph, b: IndexGraph) -> bool:
    """Whether a and b are one graph on indices: one object, or equal sizes
    and equal edge arrays."""
    return a is b or (
        (a.n, a.size) == (b.n, b.size)
        and all(map(np.array_equal, (a.src, a.dst, a.letter), (b.src, b.dst, b.letter)))
    )
