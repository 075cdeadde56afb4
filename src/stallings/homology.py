"""Chain groups and first homology of graphs with GF(p) coefficients,
induced maps, and the injectivity-lifting check for Z/p covers.

H_1 of a graph is the kernel of the boundary map C_1 -> C_0; we present it
by the fundamental cycles of spanning-tree chords, which makes every matrix
here deterministic. In that basis each column is 1 on its own chord and 0 on
every other chord, so the coordinates of any cycle are its entries on the
chords: induced maps are read off the chord rows, with no elimination. The
lifting check follows the module-theoretic argument:
the chain group of a Z/p cover is a free module over (Z/p)[t]/(1 - t^p)
with t the deck shift, one basis element per base edge, and a module map
whose t->1 specialization is injective is itself injective because 1 - t
is nilpotent of index exactly p.

Both module kernels are closed forms and act on a stack of vectors at
once. A matrix acts by one gather and one sum per row: the term a t^k of
entry [r, c] adds a times coordinate c, rolled by k, to row r. The
(1-t)-valuation of a vector is found by exact division by 1 - t: a(t) is
divisible exactly when its coefficients sum to 0 mod p, and the quotient's
coefficients are the running sums of a's. ``one_minus_t_factor`` uses the
same division: it takes the valuation k, then divides k times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import require_prime
from .covers import CoverGraph
from .errors import InputError, PostconditionError, PreconditionError
from .graphs import IndexGraph, IndexMorphism, bfs_edges, same_graph


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
        """An X with self @ X = rhs, free coordinates set to 0, or None. No
        library code calls it; ``bench/tracing.py`` still wraps it."""
        if self.p != rhs.p:
            raise InputError("modulus mismatch")
        if self.rows != rhs.rows:
            raise InputError("shape mismatch in solve")
        red, pivots = _row_reduce(np.concatenate([self.array, rhs.array], axis=1), self.p)
        if pivots and pivots[-1] >= self.cols:
            return None
        x = np.zeros((self.cols, rhs.cols), dtype=np.int64)
        x[list(pivots)] = red[: len(pivots), self.cols :]
        return FpMatrix.from_array(x, self.p)

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j].copy()


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p and its pivot columns. Rows from the
    current pivot row down are zero mod p left of the current column, so
    each pivot clears its column with one update of the rows that are
    nonzero there, from that column on.

    Reduction is lazy: each step reduces only the current column and the
    pivot row mod p, so an update adds at most (p - 1)^2 to the size of an
    entry, and the whole matrix is reduced once at the end. It is reduced
    early whenever the next update could take an entry past 2^62, far
    inside int64."""
    m = a % p
    rows, cols = m.shape
    pivots = []
    size = p - 1  # no entry of m exceeds this in absolute value
    step = (p - 1) ** 2
    r = 0
    for c in range(cols):
        if r == rows:
            break
        m[:, c] %= p
        below = np.flatnonzero(m[r:, c])
        if not below.size:
            continue
        hit = r + below[0]
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        if size + step > 1 << 62:
            m %= p
            size = p - 1
        m[r, c:] = (m[r, c:] % p * pow(int(m[r, c]), p - 2, p)) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        m[others, c:] -= np.outer(m[others, c], m[r, c:])
        size += step
        pivots.append(c)
        r += 1
    return m % p, tuple(pivots)


# -- chain complexes ----------------------------------------------------------------


def boundary_matrix(x: IndexGraph, p: int) -> FpMatrix:
    """The boundary map C_1 -> C_0 of x over GF(p): column j is head minus
    tail of edge j, and zero for a loop."""
    require_prime(p)
    cols = np.arange(len(x.src))
    b = np.zeros((x.size, len(x.src)), dtype=np.int64)
    np.add.at(b, (x.dst, cols), 1)
    np.subtract.at(b, (x.src, cols), 1)
    return FpMatrix.from_array(b, p)


@dataclass(frozen=True)
class _SpanningForest:
    """A BFS tree per component, rooted at the component's first vertex, with
    each vertex trying its edges in ``sorted_edges`` order. Arrays are indexed
    by vertex index: the parent (-1 at a root), the depth, the index in
    ``sorted_edges`` of the tree edge to the parent, and its sign (+1 when
    the edge points away from the root). ``is_tree`` masks the tree edges."""

    parent: np.ndarray
    depth: np.ndarray
    edge: np.ndarray
    sign: np.ndarray
    is_tree: np.ndarray


def _spanning_forest(x: IndexGraph) -> _SpanningForest:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(x.size)]
    for j, (u, v) in enumerate(zip(x.src.tolist(), x.dst.tolist()), start=1):
        adj[u].append((j, v))
        if v != u:
            adj[v].append((-j, u))
    parent, depth, edge, sign = [-1] * x.size, [0] * x.size, [-1] * x.size, [0] * x.size
    for root in range(x.size):
        if edge[root] < 0:  # not reached from an earlier root
            for a, t, b in bfs_edges(adj.__getitem__, root):
                parent[b], depth[b] = a, depth[a] + 1
                edge[b], sign[b] = abs(t) - 1, 1 if t > 0 else -1
    parent, depth, edge, sign = (np.array(a, dtype=np.int64) for a in (parent, depth, edge, sign))
    is_tree = np.zeros(len(x.src), dtype=bool)
    is_tree[edge[edge >= 0]] = True
    return _SpanningForest(parent, depth, edge, sign, is_tree)


def h1_basis(x: IndexGraph, p: int) -> FpMatrix:
    """Columns are the fundamental cycles of spanning-tree chords; they span
    the kernel of the boundary, E - V + 1 columns per component. The cycle
    of chord (u, v) is +1 on the chord, plus the tree path from the root to
    u, minus the tree path to v; the two paths are walked up from u and v
    together until they meet, so the common part is never written."""
    require_prime(p)
    forest = _spanning_forest(x)
    chords = np.flatnonzero(~forest.is_tree)
    mat = np.zeros((len(forest.is_tree), len(chords)), dtype=np.int64)
    cols = np.arange(len(chords))
    mat[chords, cols] = 1
    u, v = x.src[chords], x.dst[chords]
    while cols.size:
        apart = u != v
        u, v, cols = u[apart], v[apart], cols[apart]
        up_u = forest.depth[u] >= forest.depth[v]
        up_v = forest.depth[v] >= forest.depth[u]
        mat[forest.edge[u[up_u]], cols[up_u]] = forest.sign[u[up_u]] % p
        mat[forest.edge[v[up_v]], cols[up_v]] = -forest.sign[v[up_v]] % p
        u = np.where(up_u, forest.parent[u], u)
        v = np.where(up_v, forest.parent[v], v)
    return FpMatrix(p, mat)


def induced_h1_map(f: IndexMorphism, p: int) -> FpMatrix:
    """Matrix of the induced map on first homology in the chord-cycle bases:
    each domain cycle is pushed forward edge by edge, checked to be a cycle,
    and read off the codomain's chord rows."""
    return _push_forward(f, h1_basis(f.domain, p))


def _push_forward(f: IndexMorphism, bx: FpMatrix) -> FpMatrix:
    """``induced_h1_map`` on the domain cycles given as the columns of bx."""
    p, y = bx.p, f.codomain
    image = np.zeros((len(y.src), bx.cols), dtype=np.int64)
    np.add.at(image, f.edges, bx.array)
    image %= p
    boundary = np.zeros((y.size, bx.cols), dtype=np.int64)
    np.add.at(boundary, y.dst, image)
    np.subtract.at(boundary, y.src, image)
    if np.any(boundary % p):
        raise PostconditionError("image of a cycle fell outside the cycle space")
    return FpMatrix(p, image[~_spanning_forest(y).is_tree])


# -- the twisted group ring (Z/p)[t] / (1 - t^p) --------------------------------------


def one_minus_t_valuation(vec: np.ndarray, p: int) -> int | np.ndarray:
    """Largest k <= p with vec divisible by (1-t)^k coordinatewise; p for 0.

    ``vec`` holds one length-p coefficient row per module coordinate. A
    stack (..., rows, p) of such vectors gives an array of shape (...), one
    valuation per vector. Each step divides every vector still divisible by
    1 - t and drops the others, so a vector of valuation k costs k + 1
    passes over its rows; every sum stays below p^2.
    """
    a = np.asarray(vec, dtype=np.int64)
    lead = a.shape[:-2]
    a = a.reshape((int(np.prod(lead)),) + a.shape[-2:] if a.ndim >= 2 else (1, 1, -1))
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    k = np.zeros(len(a), dtype=np.int64)
    live = np.arange(len(a))
    for _ in range(p):
        divisible = ~(a.sum(axis=2) % p).any(axis=1)
        live, a = live[divisible], a[divisible]
        if not live.size:
            break
        k[live] += 1
        a = np.cumsum(a, axis=2)  # a = (1 - t) * quotient
        a %= p
    return int(k[0]) if np.ndim(vec) <= 2 else k.reshape(lead)


def one_minus_t_factor(vec: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """(k, w) with vec = (1-t)^k * w and k maximal (k = p for the zero vector,
    with w = 0): k is the valuation, and w the k-th quotient of the same
    division by 1 - t, k running sums mod p of each row."""
    w = np.atleast_2d(np.asarray(vec, dtype=np.int64)) % p
    k = one_minus_t_valuation(w, p)
    for _ in range(k):
        w = np.cumsum(w, axis=1) % p
    return k, w


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
        """Apply to a module vector of shape (cols, p), or to each vector of
        a stack (..., cols, p). The nonzero terms come in row order, so
        each row's terms are one segment of one ``add.reduceat``."""
        p = self.p
        vec = np.asarray(vec, dtype=np.int64)
        if vec.size and (vec.min() < 0 or vec.max() >= p):
            vec = vec % p
        out = np.zeros(vec.shape[:-2] + (self.rows, p), dtype=np.int64)
        r, c, k = np.nonzero(self.array)
        if len(r):
            terms = vec[..., c[:, None], (np.arange(p) - k[:, None]) % p]
            terms *= self.array[r, c, k][:, None]
            starts = np.flatnonzero(np.diff(r, prepend=-1))
            out[..., r[starts], :] = np.add.reduceat(terms, starts, axis=-2)
        out %= p
        return out


# -- the lifting check ------------------------------------------------------------

# Most module entries (cycles x base edges x p) that gersten_check hands the
# stacked kernels at once.
STACK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class GerstenReport:
    p: int
    f_star: FpMatrix
    lift_star: FpMatrix
    lift_star_injective: bool
    ranks: dict
    twisted_chain_map: TwistedMatrix
    valuations: tuple[tuple[int, int], ...]


def gersten_check(
    f: IndexMorphism,
    xhat: CoverGraph,
    yhat: CoverGraph,
    lift: IndexMorphism,
    p: int,
) -> GerstenReport:
    """Verify the homology-injectivity lifting across a commuting square of
    Z/p covers, and report the twisted-module data behind it.

    ``xhat`` and ``yhat`` are built covers of f's domain and codomain, as
    ``same_graph`` compares graphs, and ``lift`` maps xhat's total space to
    yhat's; ``pullback(f, yhat)`` returns such an ``xhat`` and ``lift``.
    Raises PreconditionError when the base map is not injective on H_1 and
    InputError when the covers or the square are malformed.
    """
    require_prime(p)
    if xhat.degree != p or yhat.degree != p:
        raise InputError("cover degrees disagree with p")
    if not same_graph(xhat.base_space, f.domain) or not same_graph(yhat.base_space, f.codomain):
        raise InputError("cover bases disagree with the morphism")
    if lift.domain is not xhat.space or lift.codomain is not yhat.space:
        raise InputError("lift endpoints disagree with the built covers")
    apart = np.flatnonzero(lift.vertices // p != np.repeat(f.vertices, p))
    if len(apart):
        a, k = divmod(int(apart[0]), p)
        raise InputError(f"square does not commute at {(f.domain.graph.vertices[a], k)!r}")

    f_star = induced_h1_map(f, p)
    if not f_star.is_injective:
        raise PreconditionError("base map is not injective on H_1")

    bh = h1_basis(xhat.space, p)
    lift_star = _push_forward(lift, bh)

    # twisted chain matrix of the lift: column j for base edge j of X holds
    # t^k in the row of f(j), where k is the sheet that the lift of j
    # starting on sheet 0 is sent to
    cols = len(f.edges)
    coeffs = np.zeros((len(yhat.base_space.src), cols, p), dtype=np.int64)
    sheet = lift.vertices[xhat.base_space.src * p] % p
    coeffs[f.edges, np.arange(cols), sheet] = 1
    twisted = TwistedMatrix.from_array(coeffs, p)

    # module coordinates of the cover's cycles: the lift of base edge j
    # starting on sheet k is t^k times its lift at sheet 0, so slot
    # j·p + k holds the entry of total edge position[j·p + k]. The cycles
    # and their images go through the stacked kernels STACK_ENTRIES module
    # entries at a time; each valuation is found by exact division by 1 - t
    vals = np.zeros((bh.cols, 2), dtype=np.int64)
    step = max(1, STACK_ENTRIES // max(1, len(xhat.position)))
    for lo in range(0, bh.cols, step):
        alpha = bh.array[:, lo : lo + step].T.take(xhat.position, axis=1).reshape(-1, cols, p)
        vals[lo : lo + step, 0] = one_minus_t_valuation(alpha, p)
        vals[lo : lo + step, 1] = one_minus_t_valuation(twisted.matvec(alpha), p)

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
        valuations=tuple(map(tuple, vals.tolist())),
    )
    if not report.lift_star_injective:
        raise PostconditionError("injectivity failed to lift", p=p)
    return report
