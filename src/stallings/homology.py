"""Chain groups and first homology of graphs with GF(p) coefficients,
induced maps, and the injectivity-lifting check for Z/p covers.

H_1 of a graph is the kernel of the boundary map C_1 -> C_0; we present it
by the fundamental cycles of spanning-tree chords, which makes every matrix
here deterministic. The lifting check follows the module-theoretic argument:
the chain group of a Z/p cover is a free module over (Z/p)[t]/(1 - t^p)
with t the deck shift, one basis element per base edge, and a module map
whose t->1 specialization is injective is itself injective because 1 - t
is nilpotent of index exactly p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .arith import require_prime
from .covers import CoverDescription, CoverGraph, build_cover
from .errors import InputError, PostconditionError, PreconditionError
from .graphs import Edge, GraphMorphism, LabeledGraph, Vertex, bfs_edges


# -- matrices over GF(p) -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Residues:
    """One int64 array with entries in range(p), the only state besides p.
    The constructor checks it with whole-array operations and makes it
    read-only; an int64 array is taken over as it is, not copied."""

    p: int
    array: np.ndarray
    _AXES = ("rows", "cols")

    def __post_init__(self):
        require_prime(self.p)
        arr = np.asarray(self.array)
        if (
            arr.dtype.kind not in "iu"
            or arr.ndim != len(self._AXES)
            or arr.shape[2:] not in ((), (self.p,))
        ):
            raise InputError(
                f"need an integer array of shape ({', '.join(self._AXES)}), "
                f"got {arr.dtype} {arr.shape}"
            )
        arr = arr.astype(np.int64, copy=False)
        if arr.size and (arr.min() < 0 or arr.max() >= self.p):
            raise InputError(f"entries not reduced mod {self.p}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


@dataclass(frozen=True, eq=False)
class FpMatrix(_Residues):
    """A matrix over GF(p); ``from_array`` reduces any integer array mod p."""

    @staticmethod
    def from_array(a, p: int) -> "FpMatrix":
        """Reduce mod p; a scalar or a vector becomes a single row."""
        arr = np.asarray(a, dtype=np.int64) % p
        return FpMatrix(p, arr.reshape(1, -1) if arr.ndim < 2 else arr)

    @staticmethod
    def identity(m: int, p: int) -> "FpMatrix":
        return FpMatrix(p, np.eye(m, dtype=np.int64))

    @staticmethod
    def zeros(rows: int, cols: int, p: int) -> "FpMatrix":
        return FpMatrix(p, np.zeros((rows, cols), dtype=np.int64))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise InputError("modulus mismatch")
        if self.cols != other.rows:
            raise InputError("shape mismatch in product")
        return FpMatrix.from_array(self.array @ other.array, self.p)

    @cached_property
    def _rref(self) -> tuple[np.ndarray, tuple[int, ...]]:
        return _row_reduce(self.array, self.p)

    @property
    def rank(self) -> int:
        return len(self._rref[1])

    @property
    def is_injective(self) -> bool:
        return self.rank == self.cols

    @property
    def is_isomorphism(self) -> bool:
        return self.rows == self.cols and self.rank == self.rows

    def solve(self, rhs: "FpMatrix") -> "FpMatrix | None":
        """An X with self @ X = rhs, free coordinates set to 0, or None."""
        if self.p != rhs.p:
            raise InputError("modulus mismatch")
        if self.rows != rhs.rows:
            raise InputError("shape mismatch in solve")
        p = self.p
        aug = np.concatenate([self.array, rhs.array], axis=1)
        red, pivots = _row_reduce(aug, p)
        ncols = self.cols
        if any(c >= ncols for c in pivots):
            return None
        x = np.zeros((ncols, rhs.cols), dtype=np.int64)
        for r, c in enumerate(pivots):
            x[c] = red[r, ncols:]
        return FpMatrix.from_array(x, p)

    def nullspace(self) -> "FpMatrix":
        """Columns form a basis of the kernel."""
        red, pivots = self._rref
        p = self.p
        free = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((self.cols, len(free)), dtype=np.int64)
        for j, c in enumerate(free):
            basis[c, j] = 1
            for r, pc in enumerate(pivots):
                basis[pc, j] = (-red[r, c]) % p
        return FpMatrix.from_array(basis, p)

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j].copy()


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p and its pivot columns. Rows from the
    current pivot row down are zero left of the current column, so each
    pivot clears its column with one update of the rows that are nonzero
    there, from that column on."""
    m = a % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        hit = r + below[0]
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), p - 2, p)) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


# -- chain complexes ----------------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    graph: LabeledGraph
    p: int
    vertex_order: tuple[Vertex, ...]
    edge_order: tuple[Edge, ...]
    boundary: FpMatrix


def chain_complex(g: LabeledGraph, p: int) -> ChainComplex:
    require_prime(p)
    verts = g.vertices
    edges = g.sorted_edges
    vix = g.vertex_index
    b = np.zeros((len(verts), len(edges)), dtype=np.int64)
    for j, (u, v, _) in enumerate(edges):
        b[vix[v], j] += 1
        b[vix[u], j] -= 1
    return ChainComplex(g, p, verts, edges, FpMatrix.from_array(b, p))


def _component_tree_data(g: LabeledGraph):
    """Per component: BFS tree edge set and per-vertex signed path vectors
    (indexed by position in sorted_edges), in deterministic order. Each
    vertex tries its edges in ``sorted_edges`` order."""
    edges = g.sorted_edges
    eix = {e: j for j, e in enumerate(edges)}
    adj: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in g.vertices}
    for u, v, i in edges:
        adj[u].append((v, i))
        if v != u:
            adj[v].append((u, -i))
    tree: set[Edge] = set()
    paths: dict[Vertex, np.ndarray] = {}
    for comp in g.component_lists:
        paths[comp[0]] = np.zeros(len(edges), dtype=np.int64)
        for v, t, w in bfs_edges(adj, comp[0]):
            e = (v, w, t) if t > 0 else (w, v, -t)
            vec = paths[v].copy()
            vec[eix[e]] += 1 if t > 0 else -1
            paths[w] = vec
            tree.add(e)
    return tree, paths


def h1_basis(g: LabeledGraph, p: int) -> FpMatrix:
    """Columns are the fundamental cycles of spanning-tree chords; they span
    the kernel of the boundary, E - V + 1 columns per component."""
    require_prime(p)
    edges = g.sorted_edges
    tree, paths = _component_tree_data(g)
    cols = []
    for j, e in enumerate(edges):
        if e in tree:
            continue
        u, v, _ = e
        z = paths[u].copy()
        z[j] += 1
        z -= paths[v]
        cols.append(z % p)
    mat = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((len(edges), 0), dtype=np.int64)
    )
    return FpMatrix.from_array(mat, p)


def edge_pushforward(f: GraphMorphism, p: int) -> FpMatrix:
    """Matrix of f on chain groups: each domain edge maps to its image edge
    with coefficient +1 (label-preserving morphisms preserve orientation)."""
    dom = f.domain.sorted_edges
    cod = f.codomain.sorted_edges
    cix = {e: j for j, e in enumerate(cod)}
    m = np.zeros((len(cod), len(dom)), dtype=np.int64)
    for j, e in enumerate(dom):
        m[cix[f.edge_image(e)], j] = 1
    return FpMatrix.from_array(m, p)


def induced_h1_map(f: GraphMorphism, p: int) -> FpMatrix:
    """Matrix of the induced map on first homology in the chord-cycle bases."""
    bx = h1_basis(f.domain, p)
    by = h1_basis(f.codomain, p)
    image = edge_pushforward(f, p) @ bx
    sol = by.solve(image)
    if sol is None:
        raise PostconditionError("image of a cycle fell outside the cycle space")
    return sol


# -- the twisted group ring (Z/p)[t] / (1 - t^p) --------------------------------------


def tw_convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(p, dtype=np.int64)
    for i, c in enumerate(a):
        if c:
            out += c * np.roll(b, i)
    return out % p


@cache
def _t_to_s(p: int) -> np.ndarray:
    """Basis change t^j = (1 - s)^j: entry [k, j] = C(j, k) (-1)^k mod p,
    the coefficient of s^k. With s = 1 - t the map is an involution, so the
    same matrix also takes s-coefficients back to t-coefficients. Built once
    per p by Pascal's rule mod p and shared read-only."""
    binom = np.zeros((p, p), dtype=np.int64)  # binom[j, k] = C(j, k) mod p
    binom[0, 0] = 1
    for j in range(1, p):
        binom[j, 0] = 1
        binom[j, 1:] = (binom[j - 1, 1:] + binom[j - 1, :-1]) % p
    sign = np.where(np.arange(p) % 2, p - 1, 1)
    m = binom.T * sign[:, None] % p
    m.setflags(write=False)
    return m


def one_minus_t_valuation(vec: np.ndarray, p: int) -> int:
    """Largest k <= p with vec divisible by (1-t)^k coordinatewise; p for 0.

    ``vec`` holds one length-p coefficient row per module coordinate.
    """
    vec = np.atleast_2d(np.asarray(vec, dtype=np.int64)) % p
    t2s = _t_to_s(p)
    val = p
    for row in vec:
        s_coeffs = (t2s @ row) % p
        nz = np.nonzero(s_coeffs)[0]
        if nz.size:
            val = min(val, int(nz[0]))
    return val


def one_minus_t_factor(vec: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """(k, w) with vec = (1-t)^k * w and k maximal (k = p for the zero vector,
    with w = 0)."""
    vec = np.atleast_2d(np.asarray(vec, dtype=np.int64)) % p
    k = one_minus_t_valuation(vec, p)
    if k >= p:
        return p, np.zeros_like(vec)
    t2s = _t_to_s(p)
    out = np.zeros_like(vec)
    for r, row in enumerate(vec):
        s_coeffs = (t2s @ row) % p
        shifted = np.zeros(p, dtype=np.int64)
        shifted[: p - k] = s_coeffs[k:]
        out[r] = (t2s @ shifted) % p
    return k, out


@dataclass(frozen=True, eq=False)
class TwistedMatrix(_Residues):
    """Matrix over (Z/p)[t]/(1 - t^p): ``array`` has shape (rows, cols, p),
    and entry [r, c, k] is the coefficient of t^k."""

    _AXES = ("rows", "cols", "p")

    @staticmethod
    def from_array(a, p: int) -> "TwistedMatrix":
        require_prime(p)
        return TwistedMatrix(p, np.asarray(a, dtype=np.int64) % p)

    def specialize(self) -> FpMatrix:
        """Set t = 1: sum the coefficient vectors."""
        return FpMatrix.from_array(self.array.sum(axis=2), self.p)

    def restriction(self) -> FpMatrix:
        """The same map as a GF(p)-matrix on coefficient columns: each entry
        becomes the p x p circulant of multiplication by it, whose [j, k]
        entry is the coefficient of t^((j - k) mod p)."""
        p = self.p
        shift = np.subtract.outer(np.arange(p), np.arange(p)) % p
        blocks = self.array[:, :, shift]  # [r, c, j, k]
        big = blocks.transpose(0, 2, 1, 3).reshape(self.rows * p, self.cols * p)
        return FpMatrix(p, big)

    @property
    def is_injective(self) -> bool:
        return self.restriction().is_injective

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a module vector of shape (cols, p)."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        out = np.zeros((self.rows, self.p), dtype=np.int64)
        for r in range(self.rows):
            for c in range(self.cols):
                out[r] += tw_convolve(self.array[r, c], vec[c], self.p)
        return out % self.p


# -- the lifting check ------------------------------------------------------------


@dataclass(frozen=True)
class GerstenReport:
    p: int
    f_star: FpMatrix
    lift_star: FpMatrix
    lift_star_injective: bool
    ranks: dict
    twisted_chain_map: TwistedMatrix
    valuations: tuple[tuple[int, int], ...]


def _twisted_coordinates(
    cover: CoverGraph, chain_vec: np.ndarray, edge_order: tuple[Edge, ...]
) -> np.ndarray:
    """Regroup a GF(p) chain vector of the total graph (indexed by its sorted
    edges) into module coordinates over the base edges: the lift of base edge
    e at source sheet k is t^k times the chosen lift at sheet 0."""
    p = cover.degree
    base_edges = cover.base.sorted_edges
    bix = {e: j for j, e in enumerate(base_edges)}
    out = np.zeros((len(base_edges), p), dtype=np.int64)
    for j, e in enumerate(edge_order):
        c = int(chain_vec[j])
        if not c:
            continue
        (u, k), (v, _), i = e
        out[bix[(u, v, i)], k] += c
    return out % p


def gersten_check(
    f: GraphMorphism,
    cover_x: CoverDescription,
    cover_y: CoverDescription,
    lift: GraphMorphism,
    p: int,
) -> GerstenReport:
    """Verify the homology-injectivity lifting across a commuting square of
    Z/p covers, and report the twisted-module data behind it.

    Raises PreconditionError when the base map is not injective on H_1 and
    InputError when the covers or the square are malformed.
    """
    require_prime(p)
    if cover_x.p != p or cover_y.p != p:
        raise InputError("cover degrees disagree with p")
    if cover_x.base != f.domain or cover_y.base != f.codomain:
        raise InputError("cover bases disagree with the morphism")
    xhat = build_cover(cover_x)
    yhat = build_cover(cover_y)
    if lift.domain != xhat.total or lift.codomain != yhat.total:
        raise InputError("lift endpoints disagree with the built covers")
    px, py = xhat.projection, yhat.projection
    for v in xhat.total.vertices:
        if py(lift(v)) != f(px(v)):
            raise InputError(f"square does not commute at {v!r}")

    f_star = induced_h1_map(f, p)
    if not f_star.is_injective:
        raise PreconditionError("base map is not injective on H_1")

    lift_star = induced_h1_map(lift, p)

    # twisted chain matrix of the lift: column per base edge of X
    bx_edges = cover_x.base.sorted_edges
    by_edges = cover_y.base.sorted_edges
    byix = {e: j for j, e in enumerate(by_edges)}
    coeffs = np.zeros((len(by_edges), len(bx_edges), p), dtype=np.int64)
    for j, e in enumerate(bx_edges):
        ehat = xhat.lifted_edge(e, 0)
        (_, sheet), _, _ = lift.edge_image(ehat)
        coeffs[byix[f.edge_image(e)], j, sheet] = 1
    twisted = TwistedMatrix.from_array(coeffs, p)

    bh = h1_basis(xhat.total, p)
    xhat_edges = xhat.total.sorted_edges
    vals = []
    for col in range(bh.cols):
        alpha = _twisted_coordinates(xhat, bh.column(col), xhat_edges)
        image = twisted.matvec(alpha)
        vals.append(
            (one_minus_t_valuation(alpha, p), one_minus_t_valuation(image, p))
        )

    report = GerstenReport(
        p=p,
        f_star=f_star,
        lift_star=lift_star,
        lift_star_injective=lift_star.is_injective,
        ranks={
            "h1_base_domain": f_star.cols,
            "h1_base_codomain": f_star.rows,
            "h1_cover_domain": lift_star.cols,
            "h1_cover_codomain": lift_star.rows,
        },
        twisted_chain_map=twisted,
        valuations=tuple(vals),
    )
    if not report.lift_star_injective:
        raise PostconditionError("injectivity failed to lift", p=p)
    return report
