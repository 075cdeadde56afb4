"""Hypertournaments, partial automorphisms, and the extension constructor.

For a set L of primes, an L-hypertournament carries one relation of arity l
per l in L such that every l-subset of distinct points supports the relation
in at least one arrangement, and no arrangement has all of its l cyclic
shifts in the relation. A family of partial automorphisms induces a labeled
graph on the universe (one letter per map). When that graph is a subtadpole
(no vertex of degree above 3, at most one of degree 3), the vertex group of
each component is trivial or cyclic, and the extension problem reduces to
separating finitely many cosets in one finite quotient G of the free group
on the letters. The extension is a disjoint union of G-orbits, one coset
space G/H_C per component C, where H_C is the image of C's vertex group.

Word actions on points compose right to left: ``w(x)`` follows the letters
of w from last to first, each letter moving along (or against) its edge. A
word therefore stabilizes a basepoint exactly when its letter reversal is a
loop in the graph, so vertex groups are read off cycle bases by reversal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .arith import is_prime, require_bound
from .errors import (
    ForcedCycleError,
    InputError,
    NotInjectiveError,
    NotPartialIsomorphismError,
    NotSubtadpoleError,
    PostconditionError,
    PreconditionError,
    ResourceCapError,
    RootClosureError,
    SearchCapError,
)
from .fiber import cyclic_root_closure
from .graphs import (
    LabeledGraph,
    _orbit_labels,
    _shift,
    _walk,
    make_graph,
)
from .separability import (
    CosetClause,
    CosetSystem,
    FiniteQuotient,
    Perm,
    left_coset,
    p_identity,
    p_mul,
    perm_order,
    separate_coset_system,
)
from .words import Word, empty_word

COSET_CAP = 10_000
TUPLE_CAP = 8_000_000


# -- hypertournaments ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Hypertournament:
    """Finite L-hypertournament; each relation is stored as tuple codes.

    ``codes[l]`` is the sorted, read-only array of the codes of the related
    l-tuples over the universe's positions (see :func:`validate` for the
    encoding and its order). The universe is a tuple in label order (by type
    name, then value), so code order is the order of label tuples. The
    constructor checks the universe and the codes; label tuples are parsed
    by :func:`make_hypertournament`. ``relations`` is the one label-tuple
    view, built from the codes on first use.
    """

    universe: tuple
    L: frozenset
    codes: dict  # {l: sorted array of tuple codes}

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise InputError("universe has repeated labels")
        if self.universe != _canonical_universe(self.universe):
            raise InputError("universe is not a tuple in label order")
        _check_arities(self.L)
        if not isinstance(self.codes, Mapping) or set(self.codes) != set(self.L):
            raise InputError("need exactly one relation per arity in L")
        codes = {l: _checked_codes(self.codes[l], self.universe, l) for l in sorted(self.L)}
        object.__setattr__(self, "codes", codes)

    def __eq__(self, other):
        if not isinstance(other, Hypertournament):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.L == other.L
            and all(np.array_equal(c, other.codes[l]) for l, c in self.codes.items())
        )

    def __hash__(self):
        return hash((self.universe, self.L))

    @cached_property
    def relations(self) -> tuple:
        """((l, frozenset of label tuples), ...) sorted by l, decoded from the
        codes; ``dict(h.relations)`` looks a relation up by its arity."""
        return tuple(
            (l, frozenset(zip(*code_labels(codes, self.universe, l).T.tolist())))
            for l, codes in self.codes.items()
        )

    @cached_property
    def position(self) -> dict:
        """Each label's position in the universe: its digit in a code."""
        return {v: i for i, v in enumerate(self.universe)}

    def holds(self, t: tuple) -> bool:
        """Whether the label tuple is related; False at an arity outside L
        or with a label outside the universe."""
        codes = self.codes.get(len(t))
        digits = [self.position.get(x) for x in t]
        if codes is None or None in digits:
            return False
        code = _encode(np.array([digits], dtype=np.int32), len(self.universe), codes.dtype)
        return bool(_contains(codes, code)[0])


def _check_arities(L: frozenset) -> None:
    for l in L:
        if not is_prime(l):
            raise InputError(f"arity {l} is not a prime")


def _checked_codes(codes, universe: tuple, l: int) -> np.ndarray:
    """A read-only copy, in the code dtype of the universe's size, of one
    relation's codes; InputError unless they are sorted, distinct, in
    [0, N^l) and free of repeated digits."""
    n = len(universe)
    raw = np.asarray(codes)
    if raw.ndim != 1 or (len(raw) and raw.dtype.kind not in "iuO"):
        raise InputError(f"arity-{l} codes must be a flat array of integers")
    if len(raw):
        if not (raw[1:] > raw[:-1]).all():
            raise InputError(f"arity-{l} codes are not sorted and distinct")
        if int(raw[0]) < 0 or int(raw[-1]) >= n**l:
            raise InputError(f"arity-{l} codes leave the range [0, {n}^{l})")
    out = raw.astype(_code_dtype(n, l))
    digits = _decode(out, n, l)
    repeated = np.zeros(len(out), dtype=bool)
    for i, j in itertools.combinations(range(l), 2):
        repeated |= digits[:, i] == digits[:, j]
    if repeated.any():
        t = tuple(universe[i] for i in digits[np.argmax(repeated)])
        raise InputError(f"tuple {t} has repeated entries")
    out.setflags(write=False)
    return out


def make_hypertournament(
    universe: Iterable, L: Iterable[int], relations: Mapping[int, Iterable[tuple]]
) -> Hypertournament:
    """The structure with the given label tuples related, each relation
    parsed into tuple codes; InputError names the first bad tuple."""
    L = frozenset(L)
    extra = set(relations) - L
    if extra:
        raise InputError(f"relations given for arities {sorted(extra)} outside L")
    universe = _canonical_universe(universe)
    _check_arities(L)
    index = {v: i for i, v in enumerate(universe)}
    codes = {l: _parse_tuples(list(relations.get(l, ())), index, l) for l in sorted(L)}
    return Hypertournament(universe, L, codes)


def _parse_tuples(rows: Sequence, index: Mapping, l: int) -> np.ndarray:
    """Sorted distinct codes of rows of labels of arity l, read in the given
    order; InputError names the first bad row."""
    n = len(index)
    digits = None
    if set(map(len, rows)) <= {l}:
        digits = np.fromiter(
            map(index.get, itertools.chain.from_iterable(rows), itertools.repeat(-1)),
            dtype=np.int32,
            count=l * len(rows),
        ).reshape(-1, l)
        ordered = np.sort(digits, axis=1)  # -1 marks a label outside the universe
        if (ordered[:, :1] < 0).any() or (ordered[:, 1:] == ordered[:, :-1]).any():
            digits = None
    if digits is None:
        for t in map(tuple, rows):
            if len(t) != l:
                raise InputError(f"tuple {t} has arity {len(t)}, expected {l}")
            if len(set(t)) != l:
                raise InputError(f"tuple {t} has repeated entries")
            if not set(t) <= index.keys():
                raise InputError(f"tuple {t} uses labels outside the universe")
    # sorting and dropping repeats, not np.unique, whose hash kernel faults
    # in about half a megabyte of numpy's library on first use
    codes = np.sort(_encode(digits, n, _code_dtype(n, l)))
    repeated = np.zeros(len(codes), dtype=bool)
    repeated[1:] = codes[1:] == codes[:-1]
    return codes[~repeated]


def _label_key(v):
    """The one order on labels: by type name, then by value, so that a
    universe mixing ints, strings and tuples still sorts."""
    return (str(type(v)), v)


def _canonical_universe(universe: Iterable) -> tuple:
    labels = list(universe)
    try:
        return tuple(sorted(set(labels), key=_label_key))
    except TypeError as exc:
        raise InputError("universe labels must be mutually orderable") from exc


# -- tuple codes ------------------------------------------------------------------


def _code_dtype(n: int, l: int):
    """int32 while n**l fits it, then int64, then Python ints."""
    if n**l < 2**31:
        return np.int32
    return np.int64 if n**l < 2**63 else object


def _encode(digits: np.ndarray, n: int, dtype) -> np.ndarray:
    """Codes of the rows of an (..., l) array of universe positions, the
    last axis read as the digits of one tuple."""
    digits = digits.astype(dtype, copy=False)
    codes = np.zeros(digits.shape[:-1], dtype=dtype)
    for k in range(digits.shape[-1]):
        codes = codes * n + digits[..., k]
    return codes


def _decode(codes: np.ndarray, n: int, l: int) -> np.ndarray:
    """The (m, l) int32 array of universe positions of each code, read from
    the last digit up."""
    out = np.empty((len(codes), l), dtype=np.int32)
    rest = codes
    for k in range(l - 1, 0, -1):
        out[:, k] = rest % n
        rest = rest // n
    out[:, 0] = rest
    return out


def _contains(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which of the query codes lie in the sorted codes. Both arrays share
    one dtype, so numpy casts neither of them."""
    k = np.searchsorted(codes, queries)
    found = k < len(codes)
    found[found] = codes[k[found]] == queries[found]
    return found


@lru_cache(maxsize=8)
def _permutation_digits(k: int, l: int) -> np.ndarray:
    """The read-only (m, l) int32 array of
    ``itertools.permutations(range(k), l)``, in its order, which is code
    order. It is built a column at a time: each row is followed by the
    digits it does not hold yet, in increasing order. The table is shared
    by every caller of one (k, l)."""
    rows = np.zeros((1, 0), dtype=np.int32)
    for _ in range(l):
        free = np.ones((len(rows), k), dtype=bool)
        free[np.arange(len(rows))[:, None], rows] = False
        row, digit = np.nonzero(free)
        rows = np.column_stack([rows[row], digit.astype(np.int32)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=8)
def _permutation_codes(k: int, l: int) -> np.ndarray:
    """The sorted, read-only codes of :func:`_permutation_digits` over k
    points, in the code dtype of k points."""
    codes = _encode(_permutation_digits(k, l), k, _code_dtype(k, l))
    codes.setflags(write=False)
    return codes


def _related(h: Hypertournament, positions: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether h relates each tuple ``positions[row]``, for the rows of an
    (m, l) index array, in one batched lookup."""
    codes = h.codes[rows.shape[1]]
    return _contains(codes, _encode(positions[rows], len(h.universe), codes.dtype))


def code_labels(codes: np.ndarray, labels: Sequence, l: int) -> np.ndarray:
    """The (m, l) object array holding ``labels[position]`` at every digit of
    every code: ``.tolist()`` gives one row per code, ``.T.tolist()`` one
    column per digit."""
    lookup = np.empty(len(labels), dtype=object)
    for i, v in enumerate(labels):  # element-wise: labels may be tuples or lists
        lookup[i] = v
    return lookup[_decode(codes, len(labels), l)]


@dataclass(frozen=True)
class Violation:
    """Certificate for a failed hypertournament invariant."""

    kind: str  # "unoriented" or "cycle"
    l: int
    witness: tuple


def validate(h: Hypertournament) -> tuple[bool, Violation | None]:
    """Check both defining conditions exhaustively.

    Orientation existence needs one related arrangement per l-subset; the
    cycle condition forbids any arrangement whose l cyclic shifts all lie in
    the relation (quantifying over permuted copies of the relation adds
    nothing beyond shift classes, so this scan is complete).

    Both scans run on tuple codes. With the universe in canonical order and
    N points, the l-tuple of positions (t_0, ..., t_{l-1}) has the code
    t_0 * N^(l-1) + ... + t_{l-1}: digit 0 is the most significant, so code
    order is the lexicographic order of tuples over the canonical universe,
    the order of ``itertools.combinations`` and ``permutations`` and of
    serialized relations. Each witness is the smallest violating tuple in
    that order, whatever the labels hash to.
    """
    n = len(h.universe)
    for l in sorted(h.L):
        codes = h.codes[l]
        cyclic = np.ones(len(codes), dtype=bool)
        shifted = codes
        for _ in range(l - 1):
            shifted = _shift(shifted, n, l)
            cyclic &= _contains(codes, shifted)
        if cyclic.any():
            witness = code_labels(codes[cyclic][:1], h.universe, l)[0]
            return False, Violation("cycle", l, tuple(witness))
        if n < l:
            continue
        subsets = np.sort(_encode(np.sort(_decode(codes, n, l), axis=1), n, codes.dtype))
        distinct = np.ones(len(subsets), dtype=bool)
        distinct[1:] = subsets[1:] != subsets[:-1]
        subsets = subsets[distinct]
        if len(subsets) < comb(n, l):
            # the first l-subset missing from the sorted subset codes is
            # among the first len(subsets) + 1 in combination order
            head = itertools.islice(itertools.combinations(range(n), l), len(subsets) + 1)
            first = np.array(list(head), dtype=np.int32).reshape(-1, l)
            listed = _encode(first, n, codes.dtype)
            gap = np.flatnonzero(listed[: len(subsets)] != subsets)
            k = int(gap[0]) if gap.size else len(subsets)
            witness = tuple(h.universe[i] for i in first[k])
            return False, Violation("unoriented", l, witness)
    return True, None


# -- partial automorphism families --------------------------------------------------


@dataclass(frozen=True)
class PartialAutomorphismFamily:
    """Injective partial maps on a hypertournament, each preserving and
    reflecting every relation on tuples inside its domain."""

    host: Hypertournament
    maps: tuple  # one tuple of sorted (x, y) pairs per map

    def __post_init__(self):
        points = set(self.host.universe)
        for index, pairs in enumerate(self.maps):
            seen_src: set = set()
            seen_dst: set = set()
            for x, y in pairs:
                if x not in points or y not in points:
                    raise InputError(f"map {index} uses labels outside the universe")
                if x in seen_src:
                    raise InputError(f"map {index} defines {x!r} twice")
                if y in seen_dst:
                    raise NotInjectiveError(
                        f"map {index} sends two points to {y!r}", map_index=index
                    )
                seen_src.add(x)
                seen_dst.add(y)
        for index, pairs in enumerate(self.maps):
            bad = _iso_violation(self.host, self.host, dict(pairs))
            if bad is not None:
                t, image = bad
                raise NotPartialIsomorphismError(
                    f"map {index} does not respect the relation on {t}",
                    map_index=index,
                    tuple=t,
                    image=image,
                )


def _iso_violation(
    source: Hypertournament, target: Hypertournament, m: Mapping
) -> tuple | None:
    """The first tuple over the domain of the injective map m, from source
    into target, whose relation status in source differs from its image's in
    target, with that image; None if m preserves and reflects every
    relation. The two structures carry the same L; each arity takes one
    batched lookup per side."""
    dom = sorted(m, key=_label_key)
    src = np.array([source.position[x] for x in dom], dtype=np.int32)
    dst = np.array([target.position[m[x]] for x in dom], dtype=np.int32)
    for l in sorted(source.L):
        rows = _permutation_digits(len(dom), l)
        bad = np.flatnonzero(_related(source, src, rows) != _related(target, dst, rows))
        if bad.size:
            t = tuple(dom[i] for i in rows[bad[0]])
            return t, tuple(m[x] for x in t)
    return None


def make_family(
    host: Hypertournament, maps: Sequence[Mapping]
) -> PartialAutomorphismFamily:
    canonical = tuple(
        tuple(sorted(m.items(), key=lambda kv: _label_key(kv[0])))
        for m in maps
    )
    return PartialAutomorphismFamily(host, canonical)


def family_graph(p: PartialAutomorphismFamily) -> LabeledGraph:
    """One letter per partial map, one edge x -> map(x) per defined point."""
    edges = []
    for index, pairs in enumerate(p.maps):
        for x, y in pairs:
            edges.append((x, y, index + 1))
    g = make_graph(max(len(p.maps), 1), p.host.universe, edges)
    try:
        g.table
    except PreconditionError:
        raise PostconditionError("injective maps induced a graph that is not immersed") from None
    return g


def is_subtadpole(g: LabeledGraph) -> bool:
    degree_three = 0
    for d in g.degrees.values():
        if d > 3:
            return False
        if d == 3:
            degree_three += 1
    return degree_three <= 1


# -- orbit structures ---------------------------------------------------------------


def _seed_orbits(
    seeds: Iterable, position: Mapping, labels: np.ndarray | None, l: int
) -> np.ndarray:
    """The union of the orbits of the seeds at arity l over the n**l codes,
    n the size of the universe. Raises on the first seed that completes a
    cycle, by the stage rule of :func:`orbit_structure`, or on the first
    bad seed, whichever comes first. Only the held codes and their shifts
    are looked at."""
    n = len(position)
    seeds = list(seeds)
    misfit = np.fromiter(map(len, seeds), dtype=np.int64, count=len(seeds)) != l
    m = int(misfit.argmax()) if misfit.any() else len(seeds)  # the seeds of length l first
    head = itertools.chain.from_iterable(itertools.islice(seeds, m))
    digits = np.fromiter(
        map(position.get, head, itertools.repeat(-1)),
        dtype=np.int32,
        count=l * m,
    ).reshape(-1, l)
    ordered = np.sort(digits, axis=1)  # -1 marks a label outside the universe
    wrong = (ordered[:, 0] < 0) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if wrong.any():
        m = int(wrong.argmax())
    positive = np.zeros(n**l, dtype=bool)
    if m:
        # each seed orbit, by its label, and its stage
        orbits, stage = np.unique(labels[_encode(digits[:m], n, np.int32)], return_index=True)
        positive[orbits] = True  # marks orbit labels, then the codes that carry them
        positive = positive[labels]
        cycle = np.flatnonzero(positive).astype(np.int32)
        latest = stage[np.searchsorted(orbits, labels[cycle])]
        for _ in range(l - 1):
            cycle = _shift(cycle, n, l)
            held = positive[cycle]
            cycle = cycle[held]
            latest = np.maximum(latest[held], stage[np.searchsorted(orbits, labels[cycle])])
        if len(latest):
            seed = tuple(seeds[latest.min()])
            raise ForcedCycleError(
                f"the orbit of seed {seed} closes a cycle at arity {l}",
                orbit_representative=seed,
                l=l,
            )
    if m < len(seeds):
        seed = tuple(seeds[m])
        if len(seed) != l or len(set(seed)) != l:
            raise InputError(f"seed {seed} is not an arity-{l} tuple of distinct points")
        raise InputError(f"seed {seed} uses labels outside the universe")
    return positive


def orbit_structure(
    universe: Iterable,
    generators: Iterable[Mapping | Iterable[tuple]],
    L: Iterable[int],
    seeds: Mapping[int, Iterable[tuple]] | None = None,
) -> Hypertournament:
    """An L-hypertournament on the set, invariant under the partial action.

    Each generator is a partial injection, given as a Mapping or as its
    (x, y) pairs; pairs that define a point twice are refused.

    Seed tuples are first closed under the action orbit by orbit; remaining
    l-subsets then receive the lexicographically least arrangement whose
    orbit closes no cycle. An l-subset all of whose arrangements force a
    cycle signals a root-closure failure in the acting group.

    Seeds are read in order, as if their orbits were added one at a time;
    a bad seed raises InputError unless an earlier seed closed a cycle. The
    stage of a seed orbit is the index of its first seed, and a cycle of
    shifts (t, shift t, ...) is complete once all of its tuples are held,
    at the latest stage among them. ForcedCycleError names the seed of the
    least stage at which some cycle completes: the first seed whose orbit,
    added to the orbits before it, would hold a whole cycle. So one pass
    over the held codes and their shifts stands for the seed-by-seed loop.

    Tuples are handled as tuple codes, whose order is the lexicographic one
    (see :func:`validate`), and orbits are labelled by their smallest code.
    An orbit closes a cycle by itself exactly when it holds a tuple t and
    its shift: a word carrying t to its shift carries each shift to the
    next. The orbit of an arrangement of an l-subset S meets an arrangement
    of every subset in the orbit of S under the action on subsets, and of
    no other subset; so related tuples always fill whole subset orbits.
    When S is reached uncovered, no tuple over its subset orbit is related
    yet, the choice for S depends on S alone, and S is the least subset of
    its subset orbit not covered by the seeds. All those choices are
    therefore made at once.
    """
    universe = _canonical_universe(universe)
    L = frozenset(L)
    _check_arities(L)
    position = {v: i for i, v in enumerate(universe)}
    n = len(universe)
    steps = []
    for index, g in enumerate(generators):
        pairs = g if isinstance(g, Mapping) else tuple(g)
        g = dict(pairs)
        if len(g) != len(pairs):
            xs = [x for x, _ in pairs]
            x = next(x for x in xs if xs.count(x) > 1)
            raise InputError(f"generator {index} defines {x!r} twice")
        for x, y in g.items():
            if x not in position or y not in position:
                raise InputError("generator moves labels outside the universe")
        if len(set(g.values())) != len(g):
            raise NotInjectiveError("generator is not injective")
        step = np.full(n, -1, dtype=np.int32)
        for x, y in g.items():
            step[position[x]] = position[y]
        steps.append(step)
    if L and n ** max(L) > TUPLE_CAP:
        raise ResourceCapError(f"{n} points at arity {max(L)} exceeds the tuple cap")

    codes = {}
    for l in sorted(L):
        # a valid seed needs n >= l, so the orbit arrays exist when one is met
        labels = _orbit_labels(n, l, steps) if n >= l else None
        positive = _seed_orbits((seeds or {}).get(l, ()), position, labels, l)
        if n >= l:
            subsets = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(n), l)),
                dtype=np.int32,
                count=comb(n, l) * l,
            ).reshape(-1, l)
            # column j: the j-th arrangement of each subset in code order
            arrangements = _encode(subsets[:, _permutation_digits(l, l)], n, np.int32)
            orbit_of = labels[arrangements]
            forced = np.zeros(n**l, dtype=bool)
            forced[orbit_of[labels[_shift(arrangements, n, l)] == orbit_of]] = True
            # The smallest code over a subset orbit is the sorted arrangement
            # of its least subset: keep those subsets the seeds leave uncovered.
            first = np.flatnonzero(orbit_of.min(axis=1) == arrangements[:, 0])
            first = first[~positive[arrangements[first]].any(axis=1)]
            allowed = ~forced[orbit_of[first]]
            stuck = ~allowed.any(axis=1)
            if stuck.any():
                subset = tuple(universe[i] for i in subsets[first[stuck][0]])
                raise ForcedCycleError(
                    f"every arrangement of {subset} closes a cycle at arity {l}",
                    orbit_representative=subset,
                    l=l,
                )
            chosen = np.zeros(n**l, dtype=bool)
            chosen[orbit_of[first, allowed.argmax(axis=1)]] = True
            positive |= chosen[labels]
            del labels, subsets, arrangements, orbit_of, forced, chosen
        codes[l] = np.flatnonzero(positive).astype(np.int32)
    return Hypertournament(universe, L, codes)


# -- the extension constructor ------------------------------------------------------


@dataclass(frozen=True)
class ExtensionResult:
    extended: Hypertournament
    embedding: tuple  # sorted (point, extended-point) pairs
    automorphisms: tuple  # one permutation dict (as sorted pairs) per input map

    @cached_property
    def embedding_map(self) -> dict:
        return dict(self.embedding)

    @cached_property
    def automorphism_maps(self) -> tuple:
        return tuple(dict(pairs) for pairs in self.automorphisms)


def eppa_extend(
    m: Hypertournament, p: PartialAutomorphismFamily, bound: int = 500_000
) -> ExtensionResult:
    """Extend every partial map of a subtadpole family to an automorphism of
    a finite hypertournament containing m.

    The letters are the input maps. Each component C of the family graph,
    based at its least point, has a vertex group H_C that is trivial or
    cyclic, and a point x of C stands for the coset w_x H_C of its path
    word. With a finite quotient G of the free group, of order prime to
    every l in L, that keeps the required cosets apart, the extension's
    universe is the disjoint union of the orbits G/H_C, laid out component
    by component. No group element carries one orbit to another, so only
    two points of one component need separating, and a related tuple only
    from the free tuples that pair its points, position by position, with
    points of the same components. Relations are carried over orbit-wise
    and completed. The result passes one full :func:`verify_extension`
    audit before it is returned; a failed audit or any other broken
    postcondition raises :class:`PostconditionError`.

    The coset system is built on arrays (:func:`_coset_system`): each
    constraint is a row of clause ids, the relation constraints come from
    one sort-and-search join of the free and the related tuples of each
    arity on their component patterns, and each clause word is built once.
    A constraint that no quotient separates is named from its index. The
    quotient, and so the extension, depends on the input alone.
    """
    if p.host != m:
        raise InputError("family is not over the given hypertournament")
    if not m.L:
        raise InputError("L must be a nonempty set of primes")
    require_bound(bound)
    ok, violation = validate(m)
    if not ok:
        raise PreconditionError(
            f"input is not a hypertournament: {violation.kind} at {violation.witness}",
            violation=violation,
        )
    graph = family_graph(p)
    if not is_subtadpole(graph):
        raise NotSubtadpoleError("family graph has too many branch vertices")
    k = graph.n
    points = m.universe  # in label order, so tuple codes list tuples in label order
    n = len(points)

    # per component, in the order of its least point: the path words from
    # that point, and the generator of its vertex group (None when trivial)
    component: dict = {}
    w: dict = {}
    loops: list[Word | None] = []
    for root, x in enumerate(graph.vertices):
        if x in component:
            continue
        words, _, basis = _walk(graph.table, root)
        if len(basis) > 1:
            raise PostconditionError("a subtadpole component has a vertex group of rank above 1")
        for v, path in words.items():
            component[graph.vertices[v]] = len(loops)
            w[graph.vertices[v]] = path.reversed()
        loops.append(basis[0].reversed() if basis else None)

    for loop in dict.fromkeys(loop for loop in loops if loop is not None):
        for l in sorted(m.L):
            res = cyclic_root_closure(loop, l)
            if not res.closed:
                raise RootClosureError(
                    f"a vertex group of the family graph is not closed under {l}-th roots",
                    witness=res.witness,
                    l=l,
                )

    system, label = _coset_system(m, k, component, w, loops)
    try:
        q = separate_coset_system(system, k, m.L, bound)
    except SearchCapError as exc:
        index = exc.details.get("constraint_index")
        if index is not None:
            raise SearchCapError(
                f"no quotient separates {label(index)}",
                constraint_index=index,
                label=label(index),
            ) from exc
        raise

    # one orbit per component, laid out in component order; components with
    # one vertex group share its coset space
    spaces = {loop: _coset_space(q, loop) for loop in dict.fromkeys(loops)}
    orbits = [spaces[loop] for loop in loops]
    offsets = list(itertools.accumulate((len(acts[0]) for acts, _ in orbits), initial=0))
    if offsets[-1] > COSET_CAP:
        raise ResourceCapError(
            f"coset spaces exceed {COSET_CAP} points", attempted_index=offsets[-1]
        )
    actions = [
        [start + j for (acts, _), start in zip(orbits, offsets) for j in acts[s]]
        for s in range(k)
    ]
    embed = {
        x: offsets[component[x]] + orbits[component[x]][1](q.evaluate(w[x])) for x in points
    }

    # no element of the acting group has order divisible by any l: its order
    # divides the certified quotient order, which separate_coset_system keeps
    # prime to L; the letter actions are checked directly as well
    for l in sorted(m.L):
        for row in actions:
            if perm_order(row) % l == 0:
                raise PostconditionError(f"letter action has order divisible by {l}", l=l)

    cosets = np.array(list(embed.values()), dtype=np.int32)  # in universe order
    seeds = {l: cosets[_decode(codes, n, l)].tolist() for l, codes in m.codes.items()}
    extended = orbit_structure(range(offsets[-1]), map(enumerate, actions), m.L, seeds)
    embedding = tuple(embed.items())
    autos = tuple(tuple(enumerate(row)) for row in actions[: len(p.maps)])
    result = ExtensionResult(extended, embedding, autos)
    if not verify_extension(result, m, p):
        raise PostconditionError("extension failed its own audit")
    return result


def _coset_system(
    m: Hypertournament, k: int, component: Mapping, w: Mapping, loops: Sequence[Word | None]
) -> tuple[CosetSystem, Callable[[int], tuple]]:
    """The coset system of :func:`eppa_extend` as rows of clause ids, and
    the label of each constraint by its index.

    The embedding constraints come first, one per pair x < y of points of
    one component: (w_x^-1 w_y, H) against (1, H), H the component's vertex
    group. A relation constraint pairs a free tuple zs with a related tuple
    ys whose points lie, position by position, in the same components; its
    clause j is the coset w_{z_j} w_{y_j}^-1 of the conjugate
    w_{y_j} H w_{y_j}^-1. Per arity, the pairs are a join of the free and
    the related tuples on the code of their component pattern: free tuple
    first, then related tuple, both in code order.

    A clause is first named by a raw id: the embedding pair's index, then
    one (1, H) clause per component, then n * y + z for the relation clause
    of (y, z). The raw ids that occur are numbered in increasing order, and
    only their clauses are built, each once."""
    points = m.universe
    n = len(points)
    comp = np.array([component[x] for x in points], dtype=np.int32)
    c = len(loops)
    first, second = np.nonzero(comp[:, None] == comp)
    first, second = first[first < second], second[first < second]  # x < y, in combinations order
    base = len(first) + c
    embedding = np.empty((len(first), 2), dtype=np.intp)
    embedding[:, 0] = np.arange(len(first))
    embedding[:, 1] = len(first) + comp[first]
    raw = [embedding]
    pairs = []
    for l, codes in m.codes.items():
        rows = _permutation_digits(n, l)
        free = np.ones(len(rows), dtype=bool)
        free[np.searchsorted(_permutation_codes(n, l), codes)] = False
        related = ~free
        pattern = _encode(comp[rows], c, _code_dtype(c, l))
        f, r = _pattern_join(pattern[free], pattern[related])
        ys, zs = rows[related][r], rows[free][f]
        pairs.append((ys, zs))
        raw.append(base + n * ys.astype(np.intp) + zs)
    named = np.zeros(base + n * n, dtype=bool)
    for ids in raw:
        named[ids] = True
    number = np.cumsum(named) - 1
    blocks = [number[ids] for ids in raw]

    # per point: its path word, the word's inverse and its stabilizer, the
    # conjugate of its component's vertex group
    wp = [w[x] for x in points]
    w_inv = [word.inverse() for word in wp]
    hp = [loops[j] for j in comp.tolist()]
    stabilizer = [word * h * inv if h is not None else None for word, h, inv in zip(wp, hp, w_inv)]
    empty = empty_word(k)

    def clause(i: int) -> CosetClause:
        if i < len(first):
            x, y = int(first[i]), int(second[i])
            return (w_inv[x] * wp[y], hp[x])
        if i < base:
            return (empty, loops[i - len(first)])
        y, z = divmod(i - base, n)
        return (wp[z] * w_inv[y], stabilizer[y])

    system = CosetSystem(map(clause, np.flatnonzero(named).tolist()), blocks)

    def label(index: int) -> tuple:
        if index < len(first):
            return ("embedding", points[int(first[index])], points[int(second[index])])
        index -= len(first)
        for ys, zs in pairs:
            if index < len(ys):
                return (
                    "relation",
                    tuple(points[y] for y in ys[index].tolist()),
                    tuple(points[z] for z in zs[index].tolist()),
                )
            index -= len(ys)
        raise IndexError("no such constraint")

    return system, label


def _pattern_join(free: np.ndarray, related: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (f, r) with ``free[f] == related[r]``, ordered by f and
    then by r: the related codes are sorted stably, and each free code
    finds its run of equal related codes by ``searchsorted``."""
    order = np.argsort(related, kind="stable")
    related = related[order]
    lo = np.searchsorted(related, free, "left")
    counts = np.searchsorted(related, free, "right") - lo
    f = np.repeat(np.arange(len(free)), counts)
    r = order[np.arange(len(f)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    return f, r


def _coset_space(
    q: FiniteQuotient, h: Word | None
) -> tuple[list[list[int]], Callable[[Perm], int]]:
    """The letter actions on the left cosets of the image of <h> in q, and
    the index of the coset of an element. ``actions[s][j]`` is the coset
    that letter s + 1 sends coset j to. A Schreier walk from the identity
    coset finds them; the quotient group is never listed, and the letter
    images alone reach every coset, since each has finite order."""
    shifts = q.cyclic_image(h) - {p_identity(q.degree)}

    def canon(perm: Perm) -> Perm:
        return min(left_coset(perm, shifts))

    reps = [canon(p_identity(q.degree))]
    coset_of = {reps[0]: 0}
    actions: list[list[int]] = [[] for _ in q.images]
    for r0 in reps:  # first in, first out: cosets found here join the walk
        for g, row in zip(q.images, actions):
            c = canon(p_mul(g, r0))
            j = coset_of.get(c)
            if j is None:
                if len(reps) >= COSET_CAP:
                    raise ResourceCapError(
                        f"coset space exceeds {COSET_CAP} points",
                        attempted_index=len(reps) + 1,
                    )
                j = coset_of[c] = len(reps)
                reps.append(c)
            row.append(j)
    return actions, lambda perm: coset_of[canon(perm)]


def verify_extension(
    r: ExtensionResult, m: Hypertournament, p: PartialAutomorphismFamily
) -> bool:
    """Re-check every claimed property from scratch; False on the first
    violation, never an exception. Relations are checked on tuple codes:
    the embedding by :func:`_iso_violation` from m into the extension, and
    each automorphism must carry the sorted codes of every relation onto
    themselves."""
    try:
        ext = r.extended
        if not validate(ext)[0] or ext.L != m.L:
            return False
        e = r.embedding_map
        if set(e) != set(m.universe) or len(set(e.values())) != len(e):
            return False
        points = set(ext.universe)
        if not set(e.values()) <= points:
            return False
        if _iso_violation(m, ext, e) is not None:
            return False
        if len(r.automorphisms) != len(p.maps):
            return False
        n = len(ext.universe)
        for auto, pairs in zip(r.automorphism_maps, p.maps):
            if set(auto) != points or set(auto.values()) != points:
                return False
            perm = np.array([ext.position[auto[v]] for v in ext.universe], dtype=np.int32)
            for l, codes in ext.codes.items():
                image = _encode(perm[_decode(codes, n, l)], n, codes.dtype)
                if not np.array_equal(np.sort(image), codes):
                    return False
            for x, y in pairs:
                if auto[e[x]] != e[y]:
                    return False
        return True
    except (KeyError, InputError):
        return False
