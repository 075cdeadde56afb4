"""Fiber products of immersed graphs over the wedge of n circles, with the
two decision procedures they support: malnormality and closure under l-th
roots.

The product of A and B has vertex set V(A) x V(B) and an i-edge
(a,b) -> (a',b') for every pair of i-edges a -> a', b -> b'. Reading a word
in the product reads it in both coordinates simultaneously, which is what
makes component fundamental groups compute intersections of conjugates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import (
    InputError,
    PostconditionError,
    PreconditionError,
    ResourceCapError,
)
from .graphs import (
    GraphMorphism,
    LabeledGraph,
    SubgroupGraph,
    Vertex,
    _orbit_labels,
    _shift,
    _signed_letters,
    core,
    cycle_basis,
    is_core,
    make_graph,
    path_words_from,
    relabel_canonical,
)
from .words import Word, maximal_root

TUPLE_CAP = 2_000_000


def _as_graph(g: LabeledGraph | SubgroupGraph) -> LabeledGraph:
    return g.graph if isinstance(g, SubgroupGraph) else g


def _check_product_input(g: LabeledGraph, side: str) -> None:
    if not g.is_immersed:
        raise PreconditionError(f"{side} factor is not immersed")
    if not is_core(g):
        raise PreconditionError(
            f"{side} factor has a degree-1 vertex off the basepoint; "
            "core-reduce it first"
        )


@dataclass(frozen=True)
class FiberProduct:
    left: LabeledGraph
    right: LabeledGraph
    product: LabeledGraph

    @cached_property
    def component_index(self) -> dict[Vertex, int]:
        comps = self.product.component_lists
        return {v: k for k, comp in enumerate(comps) for v in comp}

    @property
    def components(self) -> tuple[tuple[Vertex, ...], ...]:
        return self.product.component_lists

    @cached_property
    def diagonal(self) -> int | None:
        """Component id of the diagonal, when the two factors coincide."""
        if self.left != self.right:
            return None
        ix = self.component_index
        ids = {ix[(v, v)] for v in self.left.vertices}
        if len(ids) != 1:
            # can only happen for a disconnected factor
            return None
        return next(iter(ids))

    def component_vertices(self, cid: int) -> tuple[Vertex, ...]:
        return self.components[cid]

    @cached_property
    def _letter_counts(self) -> tuple[dict[int, int], ...]:
        """Per component, its number of edges of each letter, from one pass
        over the product edges."""
        ix = self.component_index
        counts = tuple(
            dict.fromkeys(range(1, self.product.n + 1), 0) for _ in self.components
        )
        for u, _, i in self.product.edges:
            counts[ix[u]][i] += 1
        return counts

    def component_edge_counts(self, cid: int) -> dict[int, int]:
        return dict(self._letter_counts[cid])

    def component_is_tree(self, cid: int) -> bool:
        e = sum(self._letter_counts[cid].values())
        return e == len(self.components[cid]) - 1

    def projection(self, side: str) -> GraphMorphism:
        target = self.left if side == "left" else self.right
        coord = 0 if side == "left" else 1
        return GraphMorphism.from_dict(
            self.product, target, {v: v[coord] for v in self.product.vertices}
        )

    def non_diagonal_edge_counts(self) -> dict[int, int]:
        """Per-letter edge counts outside the diagonal component."""
        d = self.diagonal
        if d is None:
            raise PreconditionError("no diagonal: the factors differ")
        diag = set(self.components[d])
        counts = {i: 0 for i in range(1, self.product.n + 1)}
        for u, _, i in self.product.edges:
            if u not in diag:
                counts[i] += 1
        return counts


def fiber_product(
    a: LabeledGraph | SubgroupGraph, b: LabeledGraph | SubgroupGraph
) -> FiberProduct:
    """The fiber product of two core immersed graphs over the wedge."""
    ga, gb = _as_graph(a), _as_graph(b)
    if ga.n != gb.n:
        raise InputError(f"alphabet mismatch: {ga.n} vs {gb.n}")
    _check_product_input(ga, "left")
    _check_product_input(gb, "right")
    verts = [(u, v) for u in ga.vertices for v in gb.vertices]
    by_letter: dict[int, list[tuple[Vertex, Vertex]]] = {}
    for u, v, i in gb.edges:
        by_letter.setdefault(i, []).append((u, v))
    edges = []
    for u1, u2, i in ga.edges:
        for v1, v2 in by_letter.get(i, ()):
            edges.append(((u1, v1), (u2, v2), i))
    bp = None
    if ga.basepoint is not None and gb.basepoint is not None:
        bp = (ga.basepoint, gb.basepoint)
    return FiberProduct(ga, gb, make_graph(ga.n, verts, edges, bp))


def fiber_product_over(f: GraphMorphism, g: GraphMorphism) -> FiberProduct:
    """Fiber product of two morphisms with a common codomain: vertices are
    pairs with equal image, edges are pairs of edges with equal image edge.
    Over the wedge this is exactly :func:`fiber_product`."""
    if f.codomain != g.codomain:
        raise InputError("fiber product needs a common codomain")
    ga, gb = f.domain, g.domain
    verts = [
        (u, v) for u in ga.vertices for v in gb.vertices if f(u) == g(v)
    ]
    edges = []
    by_image: dict[tuple, list] = {}
    for e in gb.edges:
        by_image.setdefault(g.edge_image(e), []).append(e)
    for e in ga.edges:
        for e2 in by_image.get(f.edge_image(e), ()):
            edges.append(((e[0], e2[0]), (e[1], e2[1]), e[2]))
    bp = None
    if ga.basepoint is not None and gb.basepoint is not None:
        cand = (ga.basepoint, gb.basepoint)
        if f(ga.basepoint) == g(gb.basepoint):
            bp = cand
    return FiberProduct(ga, gb, make_graph(ga.n, verts, edges, bp))


def component_pi1(
    fp: FiberProduct, a: Vertex, b: Vertex
) -> SubgroupGraph:
    """Core based graph of the product component at (a, b); its membership
    predicate is 'loop at a in the left factor AND loop at b in the right'."""
    v = (a, b)
    if v not in fp.product.vertex_index:
        raise InputError(f"({a!r}, {b!r}) is not a product vertex")
    comp = fp.product.component_of(v)
    sub = fp.product.restrict(comp, basepoint=v)
    cored = relabel_canonical(core(sub))
    return SubgroupGraph(cored, tuple(cycle_basis(cored)))


# -- malnormality ---------------------------------------------------------------


@dataclass(frozen=True)
class MalnormalityCertificate:
    """A non-tree non-diagonal component, witnessed by explicit words:
    ``conjugator`` lies outside the subgroup while ``element`` and
    ``conjugator * element * conjugator^-1`` both lie inside."""

    component_id: int
    component: tuple[Vertex, ...]
    conjugator: Word
    element: Word
    conjugated: Word


@dataclass(frozen=True)
class MalnormalityResult:
    malnormal: bool
    certificate: MalnormalityCertificate | None
    product: FiberProduct


def is_malnormal(h: SubgroupGraph) -> MalnormalityResult:
    """A subgroup is malnormal iff every non-diagonal component of the fiber
    product of its graph with itself is a tree."""
    fp = fiber_product(h, h)
    d = fp.diagonal
    paths = path_words_from(h.graph, h.graph.basepoint)
    for cid, comp in enumerate(fp.components):
        if cid == d or fp.component_is_tree(cid):
            continue
        x1, x2 = comp[0]
        w = cycle_basis(fp.product.restrict(comp, basepoint=comp[0]))[0]
        p1, p2 = paths[x1], paths[x2]
        cert = MalnormalityCertificate(
            component_id=cid,
            component=comp,
            conjugator=p1 * p2.inverse(),
            element=p2 * w * p2.inverse(),
            conjugated=p1 * w * p1.inverse(),
        )
        return MalnormalityResult(False, cert, fp)
    return MalnormalityResult(True, None, fp)


# -- closure under l-th roots -----------------------------------------------------


@dataclass(frozen=True)
class RootClosureResult:
    closed: bool
    witness: Word | None


def is_l_root_closed(h: SubgroupGraph, l: int) -> RootClosureResult:
    """True iff no word w has w^l in the subgroup but w outside it.

    The method depends on the rank of the subgroup.

    Rank 0: the trivial subgroup is closed, since free groups are
    torsion-free.

    Rank 1: the subgroup is <a^i>, where the single cycle-basis loop is
    a^i with a its maximal root. It is closed exactly when gcd(i, l) = 1;
    for d = gcd(i, l) > 1 the witness is a^(i/d), whose l-th power
    a^(i * l/d) lies in the subgroup. Proof of closure when d = 1: if
    w^l = a^(ij) with j != 0, then w centralizes a^(ij), and centralizers
    in a free group are cyclic, generated by the maximal root, so w = a^k
    with lk = ij; as gcd(i, l) = 1, i divides k and w lies in <a^i>. (For
    j = 0, w^l = 1 forces w = 1.) No vertex tuples are built, so
    ``TUPLE_CAP`` does not apply.

    Rank 2 and up: the l-fold product test of :func:`_product_root_closure`.
    """
    if l < 2:
        raise InputError("root index l must be at least 2")
    if h.rank() >= 2:
        return _product_root_closure(h, l)
    loops = cycle_basis(h.graph)
    if not loops:
        return RootClosureResult(True, None)
    a, i = maximal_root(loops[0])
    d = gcd(i, l)
    if d == 1:
        return RootClosureResult(True, None)
    return RootClosureResult(False, a ** (i // d))


def _product_root_closure(h: SubgroupGraph, l: int) -> RootClosureResult:
    """The l-fold product test, valid for every rank.

    The subgroup fails to be closed under l-th roots exactly when some
    component of the l-fold simultaneous product of its graph contains a
    non-constant vertex tuple together with its cyclic shift: a path word v
    between them reads t_0 -> t_1, ..., t_{l-1} -> t_0 in the graph, so v^l
    is a loop while v is not.

    Tuples are handled as the tuple codes of :func:`graphs._orbit_labels`;
    the product's components are the orbits of the positive letters. The
    tuples that meet their shift are closed under reversing their digits:
    reversal turns the shift of t into the inverse shift of the reversed t,
    and a word that carries a tuple to its inverse shift carries it to its
    shift when applied l - 1 times. So the least such code, read from its
    least significant digit, names one of them too; the witness comes from
    that tuple.
    """
    g = h.graph
    nv = len(g.vertices)
    if nv ** l > TUPLE_CAP:
        raise ResourceCapError(
            f"{nv}^{l} vertex tuples exceed the cap of {TUPLE_CAP}",
            vertices=nv,
            l=l,
        )
    maps = _letter_tables(g)  # int32: TUPLE_CAP < 2^31 bounds every tuple code
    labels = _orbit_labels(nv, l, maps[::2])
    codes = np.arange(nv**l, dtype=np.int32)
    shift = _shift(codes, nv, l)
    hits = codes[(shift != codes) & (labels == labels[shift])]
    if hits.size == 0:
        return RootClosureResult(True, None)

    first = int(hits.min())
    hit = [first // nv ** k % nv for k in range(l)]
    v_word = _tuple_path_word(g, maps.tolist(), hit, l)
    u = path_words_from(g, g.basepoint)[g.vertices[hit[0]]]
    witness = u * v_word * u.inverse()
    return RootClosureResult(False, witness)


def _letter_tables(g: LabeledGraph) -> np.ndarray:
    """Row k maps vertex indices along the k-th signed letter; -1 where the
    graph has no such edge."""
    signed = _signed_letters(g.n)
    row = {s: k for k, s in enumerate(signed)}
    idx = g.vertex_index
    maps = np.full((len(signed), len(g.vertices)), -1, dtype=np.int32)
    for (v, s), w in g.steps.items():
        maps[row[s], idx[v]] = idx[w]
    return maps


def _tuple_path_word(
    g: LabeledGraph, maps: list[list[int]], start_digits: list[int], l: int
) -> Word:
    """BFS path word in the l-fold product from a tuple to its cyclic shift."""
    signed = _signed_letters(g.n)
    start = tuple(start_digits)
    goal = tuple(start_digits[1:] + start_digits[:1])
    prev: dict[tuple, tuple | None] = {start: None}
    letter_to: dict[tuple, int] = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            letters = []
            node = cur
            while prev[node] is not None:
                letters.append(letter_to[node])
                node = prev[node]
            return Word(tuple(reversed(letters)), g.n)
        for k, s in enumerate(signed):
            m = maps[k]
            nxt = []
            ok = True
            for d in cur:
                md = m[d]
                if md < 0:
                    ok = False
                    break
                nxt.append(md)
            if not ok:
                continue
            nt = tuple(nxt)
            if nt not in prev:
                prev[nt] = cur
                letter_to[nt] = s
                queue.append(nt)
    raise PostconditionError(
        "the component labelling joined a tuple to its cyclic shift, "
        "but no path in the product links them",
        tuple=tuple(start_digits),
    )
