"""Regular Z/p covers of graphs, built from edge cocycles, their towers,
and pull-backs of covers along morphisms.

A cocycle assigns an element of Z/p to every edge of the base graph: it is
one integer shift per base edge, in ``sorted_edges`` order. The cover places
p sheets over each vertex and routes the lift of edge j from sheet k to
sheet k + shift[j]. Every regular Z/p cover arises this way. Each cocycle
class has one cocycle that vanishes on the tree edges of
``graphs._spanning_forest``, the forest whose chords index the H1 basis of
``homology.h1_basis``. Such a cocycle is given by its chord values, and they
are its H1 coordinates: the fundamental cycle of chord c is 1 on c and 0 on
every other chord, so the cocycle pairs with it to shift[c]. The deck
transformation shifts sheets by one.

Bases, covers, towers and pull-backs are ``IndexGraph``s in the index
layout of ``graphs`` (sheet k over v is v·p + k): the projection is
v·p + k -> v, a deck shift by s sends v·p + k to v·p + (k + s) mod p, and a
lift along an ``IndexMorphism`` is index arithmetic. The labels (v, k) of
``.graph`` are made only when asked for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arith import require_prime
from .errors import InputError, PostconditionError, ResourceCapError
from .graphs import IndexGraph, IndexMorphism, _pair_graph, _spanning_forest, same_graph

# Most vertices, and most edges, that one cover may have. Every vertex index
# v·p + k then fits int32 (``component_labels``) with room to spare. The
# largest towers it admits, verify-counterexample at 2^18 and 3^11, took
# 2.5–4 s at 297 MB peak and 1.2–1.4 s at 170 MB peak, each in a fresh
# process on a 2-vCPU VM.
COVER_CAP = 2_000_000


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
    def is_connected(self) -> bool:
        return self.space.is_connected


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
        partial(_pair_graph, base, range(p), None),
    )
    return CoverGraph(base, p, shift, space, position)


def build_cover(base: IndexGraph, p: int, shift) -> CoverGraph:
    """The Z/p cover of ``base`` whose cocycle is ``shift``, one integer per
    edge of ``base`` in edge order, read mod p."""
    require_prime(p)
    shift = np.asarray(shift)
    if shift.shape != base.src.shape or (shift.size and shift.dtype.kind not in "iu"):
        raise InputError(f"a cocycle needs one integer per edge: {len(base.src)} edges")
    require_cover_size(base, p)
    return _cover(base, p, (shift % p).astype(np.int64, copy=False))


# -- pull-backs -------------------------------------------------------------------


def pullback(f: IndexMorphism, cover: CoverGraph) -> tuple[CoverGraph, IndexMorphism]:
    """Pull a cover back along a morphism f into its base (``same_graph``).

    Returns the induced cover of f's domain (cocycle = cocycle o f) and the
    lift a·p + k -> f(a)·p + k, which commutes with the projections. The
    pull-back is the fiber product of f with the projection v·p + k -> v,
    pair (a, f(a)·p + k) being vertex a·p + k.
    """
    if not same_graph(f.codomain, cover.base_space):
        raise InputError("morphism codomain is not the cover's base")
    p = cover.degree
    require_cover_size(f.domain, p)
    pulled = _cover(f.domain, p, cover.shift[f.edges])
    sheets = np.arange(p)
    edges = np.empty_like(pulled.position)
    edges[pulled.position] = cover.position[(f.edges[:, None] * p + sheets).ravel()]
    vertices = (f.vertices[:, None] * p + sheets).ravel()
    return pulled, IndexMorphism(pulled.space, cover.space, vertices, edges)


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


def surjective_cocycle(
    g: IndexGraph, p: int, strategy: str = "first", seed: int | None = None
) -> np.ndarray:
    """A cocycle on g's edges, in edge order, that vanishes on the tree of
    ``graphs._spanning_forest`` and is nonzero on some chord. Its pairing
    with H1 (its coordinates on the columns of ``h1_basis(g, p)``) is its
    vector of chord values, so it maps H1 onto Z/p, and g being connected,
    its cover is connected, whether g is immersed or not. ``first`` takes
    the lexicographically first nonzero chord vector, (0, ..., 0, 1) in
    chord order; ``random`` draws uniformly until some value is nonzero.
    """
    require_prime(p)
    if not g.is_connected:
        raise InputError("cover towers need a connected base")
    chords = np.flatnonzero(~_spanning_forest(g).is_tree)
    if not len(chords):
        raise InputError("no surjective cocycle: the graph is a tree")
    shift = np.zeros(len(g.src), dtype=np.int64)
    if strategy == "first":
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


def cover_tower(
    x: IndexGraph,
    p: int,
    depth: int,
    strategy: str = "first",
    seed: int | None = None,
) -> CoverTower:
    """The tower of ``depth`` connected Z/p covers over x, each step from
    :func:`surjective_cocycle` with the given strategy. Only the ``random``
    strategy reads ``seed``, level k from ``seed + k``: a random cocycle is
    its point, and ``tower --seed`` and the property suite ask for different ones."""
    require_prime(p)
    if depth < 0:
        raise InputError("tower depth must be >= 0")
    spaces = [x]
    steps: list[CoverGraph] = []
    for k in range(depth):
        step_seed = None if seed is None else seed + k
        shift = surjective_cocycle(spaces[-1], p, strategy, step_seed)
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
    f: IndexMorphism, tower: CoverTower
) -> list[tuple[CoverGraph, IndexMorphism]]:
    """Pull f's domain back along each step of a tower over f's codomain:
    returns, per level i >= 1, the cover of the previous pulled-back graph
    and the lift into X_i."""
    if not same_graph(f.codomain, tower.spaces[0]):
        raise InputError("morphism codomain is not the cover's base")
    if tower.depth:
        require_cover_size(f.domain, tower.steps[0].degree, tower.depth)
    out: list[tuple[CoverGraph, IndexMorphism]] = []
    for step in tower.steps:
        cov, f = pullback(f, step)
        out.append((cov, f))
    return out
