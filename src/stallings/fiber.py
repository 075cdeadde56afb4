"""Fiber products of graph morphisms, and the two decision procedures that
products over the wedge of n circles support: malnormality and closure
under l-th roots.

The product of A -> C and B -> C has a vertex for every pair (a, b) with
equal images and an edge for every pair of edges with equal images. Over
the wedge, reading a word in the product reads it in both coordinates
simultaneously, which is what makes component fundamental groups compute
intersections of conjugates. The morphisms are ``IndexMorphism``s, and the
product and its two factors are ``IndexGraph``s, the product in the pair
layout of ``graphs``; its labelled view, on pair vertices (a, b), is built
only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd

import numpy as np

from .errors import (
    InputError,
    PostconditionError,
    PreconditionError,
    ResourceCapError,
)
from .graphs import (
    IndexGraph,
    IndexMorphism,
    LabeledGraph,
    SubgroupGraph,
    Vertex,
    _orbit_labels,
    _pair_graph,
    _shift,
    _signed_letters,
    bfs_edges,
    core,
    cycle_basis,
    is_core,
    path_words_from,
    relabel_canonical,
    same_graph,
    to_wedge,
)
from .words import Word, maximal_root

# Most vertex tuples of an l-fold product, and most vertex pairs or edge
# pairs of a fiber product; it keeps every tuple code and pair index int32.
TUPLE_CAP = 2_000_000


def _check_product_input(g: LabeledGraph, side: str) -> None:
    try:
        g.table
    except PreconditionError:
        raise PreconditionError(f"{side} factor is not immersed") from None
    if not is_core(g):
        raise PreconditionError(
            f"{side} factor has a degree-1 vertex off the basepoint; "
            "core-reduce it first"
        )


@dataclass(frozen=True, eq=False)
class FiberProduct:
    """``left`` and ``right`` are the factors, the domains of the two
    morphisms, and their labels are read through ``.graph``. ``space`` is
    the product on indices, and ``pairs[k]`` is the pair index
    u·right.size + v of its vertex k."""

    left: IndexGraph
    right: IndexGraph
    space: IndexGraph
    pairs: np.ndarray

    @property
    def product(self) -> LabeledGraph:
        return self.space.graph

    @cached_property
    def diagonal(self) -> int | None:
        """Component id of the diagonal, when the two factors coincide."""
        if self.left.graph != self.right.graph:
            return None
        diag = np.arange(self.left.size) * (self.left.size + 1)
        at = np.searchsorted(self.pairs, diag)  # len(pairs) if past the end
        if not np.array_equal(np.append(self.pairs, -1)[at], diag):
            return None
        ids = np.unique(self.space.component_ids[at])
        # more than one id can only happen for a disconnected factor
        return int(ids[0]) if len(ids) == 1 else None

    @cached_property
    def letter_counts(self) -> np.ndarray:
        """Row c, column i - 1: the i-edges of component c."""
        g = self.space
        shape = (len(g.component_sizes), g.n)
        keys = g.component_ids[g.src] * g.n + g.letter - 1
        return np.bincount(keys, minlength=shape[0] * shape[1]).reshape(shape)

    @cached_property
    def trees(self) -> np.ndarray:
        """Whether each component is a tree."""
        return self.letter_counts.sum(axis=1) == self.space.component_sizes - 1

    def non_diagonal_edge_counts(self) -> dict[int, int]:
        """Per-letter edge counts outside the diagonal component."""
        d = self.diagonal
        if d is None:
            raise PreconditionError("no diagonal: the factors differ")
        counts = self.letter_counts.sum(axis=0) - self.letter_counts[d]
        return dict(enumerate(counts.tolist(), start=1))


def fiber_product_over(a: IndexMorphism, b: IndexMorphism) -> FiberProduct:
    """The fiber product of two morphisms with a common codomain: the pairs
    of vertices with equal image, and the pairs of edges with equal image.
    Over the wedge this is :func:`fiber_product`."""
    if not same_graph(a.codomain, b.codomain):
        raise InputError("fiber product needs a common codomain")
    ga, gb = a.domain, b.domain
    na = np.bincount(a.edges, minlength=len(a.codomain.src))
    nb = np.bincount(b.edges, minlength=len(a.codomain.src))
    edge_pairs = int(na @ nb)
    if ga.size * gb.size > TUPLE_CAP or edge_pairs > TUPLE_CAP:
        raise ResourceCapError(
            f"{ga.size}x{gb.size} vertex pairs or {edge_pairs} edge pairs exceed the cap "
            f"of {TUPLE_CAP}",
            vertex_pairs=ga.size * gb.size, edge_pairs=edge_pairs,
        )
    kept = (a.vertices[:, None] == b.vertices).ravel()
    pairs = np.flatnonzero(kept)
    number = np.cumsum(kept) - 1
    # edge j of A meets each B edge with its image, in B's edge order
    by_image = np.argsort(b.edges, kind="stable")
    reps = nb[a.edges]
    ea = np.repeat(np.arange(len(a.edges)), reps)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    eb = by_image[(np.cumsum(nb) - nb)[a.edges[ea]] + np.arange(len(ea)) - first]
    src = number[ga.src[ea] * gb.size + gb.src[eb]]
    dst = number[ga.dst[ea] * gb.size + gb.dst[eb]]
    letter = ga.letter[ea]
    order = np.lexsort((letter, dst, src))
    bp = None
    if ga.basepoint is not None and gb.basepoint is not None:
        if a.vertices[ga.basepoint] == b.vertices[gb.basepoint]:
            bp = int(number[ga.basepoint * gb.size + gb.basepoint])
    space = IndexGraph(
        ga.n, len(pairs), src[order], dst[order], letter[order], bp,
        partial(_pair_graph, ga, gb.graph.vertices, pairs),
    )
    return FiberProduct(ga, gb, space, pairs)


def fiber_product(
    a: LabeledGraph | SubgroupGraph, b: LabeledGraph | SubgroupGraph
) -> FiberProduct:
    """The fiber product of two core immersed graphs over the wedge."""
    ga, gb = (g.graph if isinstance(g, SubgroupGraph) else g for g in (a, b))
    if ga.n != gb.n:
        raise InputError(f"alphabet mismatch: {ga.n} vs {gb.n}")
    _check_product_input(ga, "left")
    _check_product_input(gb, "right")
    fa = a.wedge_map if isinstance(a, SubgroupGraph) else to_wedge(ga)
    return fiber_product_over(fa, fa if ga is gb else to_wedge(gb, fa.codomain))


def component_pi1(
    fp: FiberProduct, a: Vertex, b: Vertex
) -> SubgroupGraph:
    """Core based graph of the product component at (a, b); its membership
    predicate is 'loop at a in the left factor AND loop at b in the right'."""
    ia, ib = fp.left.graph.vertex_index.get(a), fp.right.graph.vertex_index.get(b)
    if ia is not None and ib is not None:
        pair = ia * fp.right.size + ib
        k = int(np.searchsorted(fp.pairs, pair))
        if k < len(fp.pairs) and fp.pairs[k] == pair:
            cored = relabel_canonical(core(_component_graph(fp, k)))
            return SubgroupGraph(cored, tuple(cycle_basis(cored)))
    raise InputError(f"({a!r}, {b!r}) is not a product vertex")


def _component_graph(fp: FiberProduct, k: int) -> LabeledGraph:
    """The component of product vertex k, labelled and based at k. Only the
    component's vertices and edges are labelled; its vertices and edges
    keep the product's order."""
    g = fp.space
    cid = g.component_ids[k]
    comp = np.flatnonzero(g.component_ids == cid)
    inside = g.component_ids[g.src] == cid
    src, dst = (np.searchsorted(comp, end[inside]) for end in (g.src, g.dst))
    sub = IndexGraph(
        g.n, len(comp), src, dst, g.letter[inside], int(np.searchsorted(comp, k)),
        partial(_pair_graph, fp.left, fp.right.graph.vertices, fp.pairs[comp]),
    )
    return sub.graph


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
    bad = ~fp.trees & (np.arange(len(fp.trees)) != fp.diagonal)
    if not bad.any():
        return MalnormalityResult(True, None, fp)
    cid = int(np.argmax(bad))
    sub = _component_graph(fp, int(np.argmax(fp.space.component_ids == cid)))
    x1, x2 = sub.basepoint
    w = cycle_basis(sub)[0]
    paths = path_words_from(h.graph, h.graph.basepoint)
    p1, p2 = paths[x1], paths[x2]
    cert = MalnormalityCertificate(
        component_id=cid,
        component=sub.vertices,
        conjugator=p1 * p2.inverse(),
        element=p2 * w * p2.inverse(),
        conjugated=p1 * w * p1.inverse(),
    )
    return MalnormalityResult(False, cert, fp)


# -- closure under l-th roots -----------------------------------------------------


@dataclass(frozen=True)
class RootClosureResult:
    closed: bool
    witness: Word | None


def is_l_root_closed(h: SubgroupGraph, l: int) -> RootClosureResult:
    """True iff no word w has w^l in the subgroup but w outside it.

    Rank 0 and 1: :func:`cyclic_root_closure` on the cycle-basis loop a^i,
    a its maximal root (the empty word for rank 0). Then g lies in the
    subgroup exactly when g = a^e with i | e, and the subgroup is closed
    exactly when gcd(i, l) = 1. No vertex tuples are built.

    Rank 2 and up: the l-fold product test of :func:`_product_root_closure`.
    """
    if l < 2:
        raise InputError("root index l must be at least 2")
    if h.rank() >= 2:
        return _product_root_closure(h, l)
    loops = cycle_basis(h.graph)
    return cyclic_root_closure(loops[0] if loops else Word((), h.n), l)


def cyclic_root_closure(c: Word, l: int) -> RootClosureResult:
    """Whether the cyclic subgroup <c> is closed under l-th roots, by
    :func:`power_root_closure` on c = a^i, a its maximal root. The trivial
    subgroup, c empty, is taken as c^1: it is closed, since free groups are
    torsion-free."""
    a, i = maximal_root(c) if c else (c, 1)
    return power_root_closure(a, i, l)


def power_root_closure(a: Word, i: int, l: int) -> RootClosureResult:
    """Whether <a^i> is closed under l-th roots, for a a maximal root (or
    empty) and i >= 1.

    The subgroup is closed exactly when gcd(i, l) = 1; for d = gcd(i, l) > 1
    the witness is a^(i/d), whose l-th power a^(i * l/d) lies in the
    subgroup. Proof of closure when d = 1: if w^l = a^(ij) with j != 0,
    then w centralizes a^(ij), and centralizers in a free group are cyclic,
    generated by the maximal root (Lyndon-Schupp, Combinatorial Group
    Theory, 1977), so w = a^k with lk = ij; as gcd(i, l) = 1, i divides k
    and w lies in <a^i>. (For j = 0, w^l = 1 forces w = 1.)
    """
    if l < 2:
        raise InputError("root index l must be at least 2")
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
    v_word = _tuple_path_word(g.n, maps.tolist(), hit)
    u = path_words_from(g, g.basepoint)[g.vertices[hit[0]]]
    witness = u * v_word * u.inverse()
    return RootClosureResult(False, witness)


def _letter_tables(g: LabeledGraph) -> np.ndarray:
    """Rows 2i - 2 and 2i - 1 map vertex indices along letters i and -i, the
    order of ``_signed_letters``; -1 where the graph has no such edge."""
    steps = g.table.steps
    rows = [[step.get(t, -1) for step in steps] for t in _signed_letters(g.n)]
    return np.array(rows, dtype=np.int32).reshape(2 * g.n, len(steps))


def _tuple_path_word(n: int, maps: list[list[int]], start_digits: list[int]) -> Word:
    """The walk's path word in the l-fold product from a tuple to its cyclic
    shift: ``bfs_edges`` over the product's steps, made as it goes, stopped
    at the shift."""
    rows = list(zip(_signed_letters(n), maps))

    def steps(cur):
        for t, m in rows:
            nxt = tuple(map(m.__getitem__, cur))
            if -1 not in nxt:
                yield t, nxt

    goal = tuple(start_digits[1:] + start_digits[:1])
    parent: dict[tuple, tuple[tuple, int]] = {}
    for v, t, w in bfs_edges(steps, tuple(start_digits)):
        parent[w] = v, t
        if w == goal:
            letters = []
            while w in parent:
                w, t = parent[w]
                letters.append(t)
            return Word(tuple(reversed(letters)), n)
    raise PostconditionError(
        "the component labelling joined a tuple to its cyclic shift, "
        "but no path in the product links them",
        tuple=tuple(start_digits),
    )
