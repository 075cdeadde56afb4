"""Regular Z/p covers of labeled graphs, built from edge cocycles.

A cocycle assigns an element of Z/p to every edge of the base graph; the
cover places p sheets over each vertex and routes the lift of an edge from
sheet k to sheet k + cocycle(e). Every regular Z/p cover arises this way,
and cocycles vanishing on a spanning tree give a canonical finite
enumeration. The deck transformation shifts sheets by one.

Covers, towers and pull-backs are held as integer arrays (``IndexGraph``).
Vertex (v, k) of a cover, sheet k over base vertex v, has index v·p + k,
and the edges are src/dst/letter arrays in ``sorted_edges`` order. A lift
is index arithmetic, (a, k) -> f(a)·p + k, and connectivity and component
ranks come from ``graphs.component_labels``. The nested-tuple labels
(v, k) and the ``LabeledGraph``/``GraphMorphism`` views built on them
(``.total``, ``.base``, ``.levels``, ``.projection``, ``.deck``, a lift's
``.morphism``) are made only when asked for, and each graph's labels once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .arith import require_prime
from .errors import (
    InputError,
    NotInjectiveError,
    PostconditionError,
    PreconditionError,
    ResourceCapError,
)
from .fiber import FiberProduct, fiber_product_over
from .graphs import (
    Edge,
    GraphMorphism,
    LabeledGraph,
    bfs_edges,
    component_labels,
    identity_morphism,
)

# Most vertices, and most edges, that one cover may have. Every vertex index
# v·p + k then fits int32 (``component_labels``) with room to spare. The
# largest towers it admits, verify-counterexample at 2^18 and 3^11, run in
# about 4 s and 1.5 s at 300 MB and 180 MB peak on a 2-vCPU VM.
COVER_CAP = 2_000_000


@dataclass(frozen=True)
class CoverDescription:
    base: LabeledGraph
    p: int
    cocycle: tuple[tuple[Edge, int], ...]

    def __post_init__(self):
        require_prime(self.p)
        given = {e for e, _ in self.cocycle}
        missing = set(self.base.edges) - given
        if missing:
            raise InputError(f"cocycle undefined on {len(missing)} edge(s)")
        unknown = given - set(self.base.edges)
        if unknown:
            raise InputError(f"cocycle defined on non-edges: {sorted_repr(unknown)}")

    @staticmethod
    def from_dict(base: LabeledGraph, p: int, values: dict) -> "CoverDescription":
        ix = base.vertex_index
        items = tuple(
            sorted(
                ((e, int(v) % p) for e, v in values.items()),
                key=lambda kv: (ix[kv[0][0]], ix[kv[0][1]], kv[0][2]),
            )
        )
        return CoverDescription(base, p, items)

    @cached_property
    def values(self) -> dict[Edge, int]:
        return {e: v % self.p for e, v in self.cocycle}

    @cached_property
    def shift(self) -> np.ndarray:
        """The cocycle as one value per edge of ``base.sorted_edges``."""
        return np.array([self.values[e] for e in self.base.sorted_edges], dtype=np.int64)


def sorted_repr(edges) -> str:
    return ", ".join(repr(e) for e in sorted(edges, key=repr))


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
    def components(self) -> np.ndarray:
        """The least vertex of each vertex's component."""
        return component_labels(self.size, [(self.src, self.dst)])

    @property
    def is_connected(self) -> bool:
        return not self.components.any()

    def component_ranks(self) -> list[int]:
        """E - V + 1 for each component, in the order of their least vertex,
        which is the order of ``graphs.component_ranks``."""
        roots, comp = np.unique(self.components, return_inverse=True)
        edges = np.bincount(comp[self.src], minlength=len(roots))
        return (edges - np.bincount(comp, minlength=len(roots)) + 1).tolist()


@dataclass(frozen=True, eq=False)
class IndexMorphism:
    """A graph morphism on indices: vertex a of ``domain`` goes to vertex
    ``vertices[a]`` of ``codomain``, and edge j to edge ``edges[j]``."""

    domain: IndexGraph
    codomain: IndexGraph
    vertices: np.ndarray
    edges: np.ndarray

    @staticmethod
    def of(f: GraphMorphism, codomain: IndexGraph) -> "IndexMorphism":
        """f on indices; ``codomain`` holds f.codomain."""
        vix = f.codomain.vertex_index
        eix = {e: j for j, e in enumerate(f.codomain.sorted_edges)}
        dom = f.domain
        return IndexMorphism(
            IndexGraph.of(dom),
            codomain,
            np.array([vix[f(v)] for v in dom.vertices], dtype=np.int64),
            np.array([eix[f.edge_image(e)] for e in dom.sorted_edges], dtype=np.int64),
        )

    @cached_property
    def morphism(self) -> GraphMorphism:
        dom, cod = self.domain.graph, self.codomain.graph
        images = map(cod.vertices.__getitem__, self.vertices.tolist())
        return GraphMorphism(dom, cod, tuple(zip(dom.vertices, images)))


# -- covers --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverGraph:
    """The Z/p cover of ``base_space`` whose cocycle takes the value
    ``shift[j]`` on base edge j. ``space`` is the total graph, and
    ``position[j·p + k]`` is the index in ``space`` of the lift of base
    edge j that starts on sheet k."""

    base_space: IndexGraph
    degree: int
    shift: np.ndarray
    space: IndexGraph
    position: np.ndarray

    @property
    def base(self) -> LabeledGraph:
        return self.base_space.graph

    @property
    def total(self) -> LabeledGraph:
        return self.space.graph

    @cached_property
    def description(self) -> CoverDescription:
        base = self.base
        return CoverDescription(
            base, self.degree, tuple(zip(base.sorted_edges, self.shift.tolist()))
        )

    @cached_property
    def projection(self) -> GraphMorphism:
        return GraphMorphism.from_dict(
            self.total, self.base, {v: v[0] for v in self.total.vertices}
        )

    def deck(self, shift: int = 1) -> GraphMorphism:
        """The deck transformation (v, k) -> (v, k + shift)."""
        p = self.degree
        return GraphMorphism.from_dict(
            self.total,
            self.total,
            {(v, k): (v, (k + shift) % p) for v, k in self.total.vertices},
        )

    def deck_automorphisms(self) -> list[GraphMorphism]:
        return [self.deck(j) for j in range(self.degree)]

    @property
    def is_connected(self) -> bool:
        return self.space.is_connected

    def lifted_edge(self, e: Edge, sheet: int = 0) -> Edge:
        u, v, i = e
        c = self.description.values[e]
        return ((u, sheet), (v, (sheet + c) % self.degree), i)


def require_cover_size(g: IndexGraph, p: int, depth: int = 1) -> None:
    """Refuse, before building anything, a p^depth-sheeted cover of g with
    more than COVER_CAP vertices or edges."""
    size = max(g.size, len(g.src), 1)
    for _ in range(depth):
        size *= p
        if size > COVER_CAP:
            raise ResourceCapError(
                f"{p}^{depth} sheets over {g.size} vertices and {len(g.src)} "
                f"edges exceed the cap of {COVER_CAP}",
                p=p,
                depth=depth,
            )


def _sheet_graph(base: IndexGraph, p: int, space: IndexGraph) -> LabeledGraph:
    """The labelled total space: vertex v·p + k is (v, k)."""
    verts = tuple((v, k) for v in base.graph.vertices for k in range(p))
    at = verts.__getitem__
    edges = zip(map(at, space.src.tolist()), map(at, space.dst.tolist()), space.letter.tolist())
    bp = None if space.basepoint is None else verts[space.basepoint]
    return LabeledGraph(space.n, verts, tuple(edges), bp)


def _cover(base: IndexGraph, p: int, shift: np.ndarray) -> CoverGraph:
    sheets = np.arange(p)
    src = (base.src[:, None] * p + sheets).ravel()
    dst = (base.dst[:, None] * p + (sheets + shift[:, None]) % p).ravel()
    letter = np.repeat(base.letter, p)
    order = np.lexsort((letter, dst, src))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    bp = None if base.basepoint is None else base.basepoint * p
    space = IndexGraph(
        base.n, base.size * p, src[order], dst[order], letter[order], bp,
        partial(_sheet_graph, base, p),
    )
    return CoverGraph(base, p, shift, space, position)


def build_cover(c: CoverDescription) -> CoverGraph:
    base = IndexGraph.of(c.base)
    require_cover_size(base, c.p)
    return _cover(base, c.p, c.shift)


# -- pull-backs -------------------------------------------------------------------


def _pull(f: IndexMorphism, cover: CoverGraph) -> tuple[CoverGraph, IndexMorphism]:
    p = cover.degree
    require_cover_size(f.domain, p)
    pulled = _cover(f.domain, p, cover.shift[f.edges])
    sheets = np.arange(p)
    edges = np.empty_like(pulled.position)
    edges[pulled.position] = cover.position[(f.edges[:, None] * p + sheets).ravel()]
    vertices = (f.vertices[:, None] * p + sheets).ravel()
    return pulled, IndexMorphism(pulled.space, cover.space, vertices, edges)


def pullback(
    f: GraphMorphism, cover: CoverGraph
) -> tuple[CoverGraph, IndexMorphism]:
    """Pull a cover back along a morphism into its base.

    Returns the induced cover of f's domain (cocycle = cocycle o f) and the
    lifted morphism (a, k) -> (f(a), k), which commutes with the projections.
    The total graph is canonically isomorphic to the fiber product of f with
    the cover projection via (a, k) <-> (a, (f(a), k)).
    """
    if f.codomain != cover.base:
        raise InputError("morphism codomain is not the cover's base")
    return _pull(IndexMorphism.of(f, cover.base_space), cover)


def pullback_as_fiber_product(f: GraphMorphism, cover: CoverGraph) -> FiberProduct:
    """The same pull-back presented on pair vertices (a, (f(a), k))."""
    return fiber_product_over(f, cover.projection)


# -- towers -----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverTower:
    """X_0 <- X_1 <- ... <- X_d with each step a connected Z/p cover;
    ``spaces[k]`` is X_k on vertex indices."""

    spaces: tuple[IndexGraph, ...]
    steps: tuple[CoverGraph, ...]

    @property
    def depth(self) -> int:
        return len(self.steps)

    @cached_property
    def levels(self) -> tuple[LabeledGraph, ...]:
        return tuple(x.graph for x in self.spaces)

    def degrees(self) -> list[int]:
        out = [1]
        for s in self.steps:
            out.append(out[-1] * s.degree)
        return out

    def composite_projection(self, level: int) -> GraphMorphism:
        """Morphism X_level -> X_0."""
        if not 0 <= level < len(self.spaces):
            raise InputError(f"no tower level {level}")
        if level == 0:
            return identity_morphism(self.levels[0])
        m = self.steps[level - 1].projection
        for k in range(level - 2, -1, -1):
            m = m.compose(self.steps[k].projection)
        return m


def _surjective_shift(
    g: IndexGraph, p: int, strategy: str, seed: int | None
) -> np.ndarray:
    """The values of ``surjective_cocycle`` on g's edges, in edge order."""
    require_prime(p)
    if not g.size or not g.is_connected:
        raise InputError("cover towers need a connected base")
    # Step slot of each edge at its ends: out along +i at src, in along -i at
    # dst; slots are numbered in LabeledGraph.neighbors order, +1, -1, +2, ...
    slots = np.concatenate(
        [(g.src * g.n + g.letter - 1) * 2, (g.dst * g.n + g.letter - 1) * 2 + 1]
    )
    if len(np.unique(slots)) < len(slots):
        raise PreconditionError("graph is not immersed")
    order = np.argsort(slots)
    far = np.concatenate([g.dst, g.src])[order].tolist()
    edge = (order % len(g.src)).tolist()
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.size)]
    for v, w, j in zip((slots[order] // (2 * g.n)).tolist(), far, edge):
        adjacency[v].append((w, j))
    root = 0 if g.basepoint is None else g.basepoint
    tree = np.zeros(len(g.src), dtype=bool)
    tree[[j for _, j, _ in bfs_edges(adjacency, root)]] = True
    chords = np.flatnonzero(~tree)
    if not len(chords):
        raise InputError("no surjective cocycle: the graph is a tree")
    shift = np.zeros(len(g.src), dtype=np.int64)
    if strategy == "first":
        # lexicographically first nonzero chord vector is (0, ..., 0, 1)
        shift[chords[-1]] = 1
    elif strategy == "random":
        rng = random.Random(seed)
        while True:
            draw = [rng.randrange(p) for _ in chords]
            if any(draw):
                break
        shift[chords] = draw
    else:
        raise InputError(f"unknown tower strategy {strategy!r}")
    return shift


def surjective_cocycle(
    g: LabeledGraph, p: int, strategy: str = "first", seed: int | None = None
) -> CoverDescription:
    """A spanning-tree-normalized cocycle whose pairing with the cycle space
    is surjective onto Z/p, so the resulting cover is connected.

    The cocycle vanishes on a BFS spanning tree (of the whole connected
    graph, from the basepoint or else the first vertex, in ``neighbors``
    order); its value on a chord equals its pairing with that chord's
    fundamental cycle, so surjectivity just needs one nonzero chord value.
    ``first`` takes the lexicographically first such assignment in chord
    order; ``random`` draws uniformly until surjective.
    """
    shift = _surjective_shift(IndexGraph.of(g), p, strategy, seed)
    return CoverDescription(g, p, tuple(zip(g.sorted_edges, shift.tolist())))


def cover_tower(
    x: LabeledGraph,
    p: int,
    depth: int,
    strategy: str = "first",
    seed: int | None = None,
) -> CoverTower:
    if depth < 0:
        raise InputError("tower depth must be >= 0")
    spaces = [IndexGraph.of(x)]
    steps: list[CoverGraph] = []
    for k in range(depth):
        step_seed = None if seed is None else seed + k
        shift = _surjective_shift(spaces[-1], p, strategy, step_seed)
        if k == 0:
            # x passed the checks that every later level inherits
            require_cover_size(spaces[0], p, depth)
        cov = _cover(spaces[-1], p, shift)
        if not cov.is_connected:
            raise PostconditionError("a surjective cocycle gave a disconnected cover", level=k + 1)
        steps.append(cov)
        spaces.append(cov.space)
    return CoverTower(tuple(spaces), tuple(steps))


def tower_pullbacks(
    f: GraphMorphism, tower: CoverTower
) -> list[tuple[CoverGraph, IndexMorphism]]:
    """Pull f's domain back along each tower step: returns, per level i >= 1,
    the cover of the previous pulled-back graph and the lift into X_i."""
    if f.codomain != tower.spaces[0].graph:
        raise InputError("morphism codomain is not the cover's base")
    lift = IndexMorphism.of(f, tower.spaces[0])
    if tower.depth:
        require_cover_size(lift.domain, tower.steps[0].degree, tower.depth)
    out: list[tuple[CoverGraph, IndexMorphism]] = []
    for step in tower.steps:
        cov, lift = _pull(lift, step)
        out.append((cov, lift))
    return out


# -- embeddings into covers ---------------------------------------------------------


def check_disconnected_embedding(
    a: LabeledGraph, cover: CoverGraph, embedding: GraphMorphism
) -> bool:
    """For a graph embedded in a cover of degree > 1, the fiber product of
    the graph with the total space is disconnected (the embedding lifts, and
    its graph is a full component). Returns the connectivity verdict (always
    False) after asserting disconnectedness."""
    if embedding.domain != a or embedding.codomain != cover.total:
        raise InputError("embedding must map the given graph into the cover total")
    if not embedding.is_vertex_injective:
        raise NotInjectiveError("embedding is not injective on vertices")
    to_base = embedding.compose(cover.projection)
    fp = fiber_product_over(to_base, cover.projection)
    connected = fp.product.is_connected
    if connected:
        raise PostconditionError("embedded graph produced a connected fiber product")
    return connected
