"""Regular Z/p covers of labeled graphs, built from edge cocycles.

A cocycle assigns an element of Z/p to every edge of the base graph; the
cover places p sheets over each vertex and routes the lift of an edge from
sheet k to sheet k + cocycle(e). Every regular Z/p cover arises this way,
and cocycles vanishing on a spanning tree give a canonical finite
enumeration. The deck transformation shifts sheets by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .arith import require_prime
from .errors import InputError, NotInjectiveError, PostconditionError, PreconditionError
from .fiber import FiberProduct, fiber_product_over
from .graphs import (
    Edge,
    GraphMorphism,
    LabeledGraph,
    bfs_edges,
    identity_morphism,
    make_graph,
)


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


def sorted_repr(edges) -> str:
    return ", ".join(repr(e) for e in sorted(edges, key=repr))


@dataclass(frozen=True)
class CoverGraph:
    description: CoverDescription
    total: LabeledGraph

    @property
    def base(self) -> LabeledGraph:
        return self.description.base

    @property
    def degree(self) -> int:
        return self.description.p

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
        return self.total.is_connected

    def lifted_edge(self, e: Edge, sheet: int = 0) -> Edge:
        u, v, i = e
        c = self.description.values[e]
        return ((u, sheet), (v, (sheet + c) % self.degree), i)


def build_cover(c: CoverDescription) -> CoverGraph:
    base, p = c.base, c.p
    verts = [(v, k) for v in base.vertices for k in range(p)]
    edges = []
    for e in base.edges:
        u, v, i = e
        shift = c.values[e]
        for k in range(p):
            edges.append(((u, k), (v, (k + shift) % p), i))
    bp = (base.basepoint, 0) if base.basepoint is not None else None
    return CoverGraph(c, make_graph(base.n, verts, edges, bp))


# -- pull-backs -------------------------------------------------------------------


def pullback(
    f: GraphMorphism, cover: CoverGraph
) -> tuple[CoverGraph, GraphMorphism]:
    """Pull a cover back along a morphism into its base.

    Returns the induced cover of f's domain (cocycle = cocycle o f) and the
    lifted morphism (a, k) -> (f(a), k), which commutes with the projections.
    The total graph is canonically isomorphic to the fiber product of f with
    the cover projection via (a, k) <-> (a, (f(a), k)).
    """
    if f.codomain != cover.base:
        raise InputError("morphism codomain is not the cover's base")
    vals = cover.description.values
    pulled = CoverDescription.from_dict(
        f.domain,
        cover.degree,
        {e: vals[f.edge_image(e)] for e in f.domain.edges},
    )
    total_cover = build_cover(pulled)
    lift = GraphMorphism.from_dict(
        total_cover.total,
        cover.total,
        {(a, k): (f(a), k) for a, k in total_cover.total.vertices},
    )
    return total_cover, lift


def pullback_as_fiber_product(f: GraphMorphism, cover: CoverGraph) -> FiberProduct:
    """The same pull-back presented on pair vertices (a, (f(a), k))."""
    return fiber_product_over(f, cover.projection)


# -- towers -----------------------------------------------------------------------


@dataclass(frozen=True)
class CoverTower:
    """X_0 <- X_1 <- ... <- X_d with each step a connected Z/p cover."""

    levels: tuple[LabeledGraph, ...]
    steps: tuple[CoverGraph, ...]

    @property
    def depth(self) -> int:
        return len(self.steps)

    def degrees(self) -> list[int]:
        out = [1]
        for s in self.steps:
            out.append(out[-1] * s.degree)
        return out

    def composite_projection(self, level: int) -> GraphMorphism:
        """Morphism X_level -> X_0."""
        if not 0 <= level < len(self.levels):
            raise InputError(f"no tower level {level}")
        if level == 0:
            return identity_morphism(self.levels[0])
        m = self.steps[level - 1].projection
        for k in range(level - 2, -1, -1):
            m = m.compose(self.steps[k].projection)
        return m


def surjective_cocycle(
    g: LabeledGraph, p: int, strategy: str = "first", seed: int | None = None
) -> CoverDescription:
    """A spanning-tree-normalized cocycle whose pairing with the cycle space
    is surjective onto Z/p, so the resulting cover is connected.

    The cocycle vanishes on a BFS spanning tree (of the whole connected
    graph); its value on a chord equals its pairing with that chord's
    fundamental cycle, so surjectivity just needs one nonzero chord value.
    ``first`` takes the lexicographically first such assignment in chord
    order; ``random`` draws uniformly until surjective.
    """
    require_prime(p)
    if not g.is_connected:
        raise InputError("cover towers need a connected base")
    if not g.is_immersed:
        raise PreconditionError("graph is not immersed")
    root = g.basepoint if g.basepoint is not None else g.vertices[0]
    tree = {(v, w, t) if t > 0 else (w, v, -t) for v, t, w in bfs_edges(g.neighbors, root)}
    chords = [e for e in g.sorted_edges if e not in tree]
    if not chords:
        raise InputError("no surjective cocycle: the graph is a tree")
    values: dict[Edge, int] = {e: 0 for e in g.edges}
    if strategy == "first":
        # lexicographically first nonzero chord vector is (0, ..., 0, 1)
        values[chords[-1]] = 1
    elif strategy == "random":
        rng = random.Random(seed)
        while True:
            draw = [rng.randrange(p) for _ in chords]
            if any(draw):
                break
        for e, v in zip(chords, draw):
            values[e] = v
    else:
        raise InputError(f"unknown tower strategy {strategy!r}")
    return CoverDescription.from_dict(g, p, values)


def cover_tower(
    x: LabeledGraph,
    p: int,
    depth: int,
    strategy: str = "first",
    seed: int | None = None,
) -> CoverTower:
    if depth < 0:
        raise InputError("tower depth must be >= 0")
    levels = [x]
    steps: list[CoverGraph] = []
    for k in range(depth):
        step_seed = None if seed is None else seed + k
        desc = surjective_cocycle(levels[-1], p, strategy, step_seed)
        cov = build_cover(desc)
        steps.append(cov)
        levels.append(cov.total)
    return CoverTower(tuple(levels), tuple(steps))


def tower_pullbacks(
    f: GraphMorphism, tower: CoverTower
) -> list[tuple[CoverGraph, GraphMorphism]]:
    """Pull f's domain back along each tower step: returns, per level i >= 1,
    the cover of the previous pulled-back graph and the lift into X_i."""
    out: list[tuple[CoverGraph, GraphMorphism]] = []
    cur = f
    for step in tower.steps:
        cov, lift = pullback(cur, step)
        out.append((cov, lift))
        cur = lift
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
