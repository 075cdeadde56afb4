"""Brute-force reference implementations used to validate the library.

Everything here works on plain tuples of signed ints (letter i, inverse -i)
and avoids the library's graph machinery entirely. The membership oracle is
asymmetric by design:

  * positive answers are proofs (the word was literally assembled as a
    product of generators),
  * negative answers are bounded (not expressible within ``max_factors``
    factors), so callers escalate the factor budget before treating a
    library/oracle mismatch as a failure.
"""

from __future__ import annotations


def inv(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def red_concat(a: tuple, b: tuple) -> tuple:
    """Free reduction of the concatenation of two reduced words."""
    la = list(a)
    j = 0
    nb = len(b)
    while la and j < nb and la[-1] == -b[j]:
        la.pop()
        j += 1
    return tuple(la) + b[j:]


def reduce_tuple(raw) -> tuple:
    out = []
    for x in raw:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def power(w: tuple, k: int) -> tuple:
    if k < 0:
        return power(inv(w), -k)
    acc: tuple = ()
    for _ in range(k):
        acc = red_concat(acc, w)
    return acc


def ball(n: int, radius: int) -> list[tuple]:
    """All reduced words of length <= radius, shortest first (includes ())."""
    letters = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    out: list[tuple] = [()]
    frontier: list[tuple] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for t in letters:
                if w and w[-1] == -t:
                    continue
                nxt.append(w + (t,))
        out.extend(nxt)
        frontier = nxt
    return out


def closure(gens, max_factors: int, lmax: int) -> set[tuple]:
    """Every element of <gens> expressible as a product of at most
    ``max_factors`` generators or inverse generators, pruned so that all
    words of length <= lmax among such products are present.

    A partial product longer than lmax + (remaining factors) * max|gen|
    cannot shrink back below lmax, so dropping it loses nothing.
    """
    gens = [tuple(g) for g in gens if len(g) > 0]
    if not gens:
        return {()}
    factors = gens + [inv(g) for g in gens]
    maxlen = max(len(g) for g in gens)
    best: dict[tuple, int] = {(): 0}
    frontier = [()]
    for used in range(1, max_factors + 1):
        cap = lmax + (max_factors - used) * maxlen
        nxt = []
        for w in frontier:
            for f in factors:
                p = red_concat(w, f)
                if len(p) > cap:
                    continue
                if p not in best:
                    best[p] = used
                    nxt.append(p)
        frontier = nxt
        if not frontier:
            break
    return set(best)


def smallest_period(w: tuple) -> int:
    """Smallest p with w[k] == w[k-p] for all k >= p (classic doubling trick)."""
    m = len(w)
    if m == 0:
        return 0
    doubled = (w + w)[1:-1]
    for start in range(m - 1):
        if doubled[start:start + m] == w:
            return start + 1
    return m


def naive_cyclic_core(w: tuple) -> tuple[tuple, tuple]:
    """(conjugator u, core c) with w = u c u^-1 and c cyclically reduced."""
    u: list[int] = []
    c = list(w)
    while len(c) >= 2 and c[0] == -c[-1]:
        u.append(c[0])
        c = c[1:-1]
    return tuple(u), tuple(c)


def oracle_maximal_root(w: tuple) -> tuple[tuple, int]:
    """Reference maximal root via the string-period of the cyclic core."""
    u, c = naive_cyclic_core(w)
    if not c:
        raise ValueError("no root of the empty word")
    p = smallest_period(c)
    if len(c) % p != 0:
        p = len(c)
    root = red_concat(red_concat(u, c[:p]), inv(u))
    return root, len(c) // p


def oracle_membership_table(gens, queries, max_factors: int) -> dict[tuple, bool]:
    """True entries are proofs of membership; False entries are bounded."""
    queries = [tuple(q) for q in queries]
    lmax = max((len(q) for q in queries), default=0)
    cl = closure(gens, max_factors, lmax)
    return {q: q in cl for q in queries}


def oracle_malnormality_violation(
    gens,
    n: int,
    library_contains,
    t_radius: int = 6,
    h_radius: int = 8,
    max_factors: int = 9,
    cl: set | None = None,
):
    """Search for (t, h): t outside the subgroup, h and t h t^-1 inside.

    ``library_contains`` supplies the membership filter for t; the closure
    set supplies membership proofs for h and the conjugate. Any t on which
    the filter and the closure disagree positively is surfaced separately
    by the membership comparison, so using both keeps this check sound.
    Returns (t, h) or None. ``cl`` may be a precomputed closure built with
    lmax >= h_radius + 2 * t_radius.
    """
    if cl is None:
        cl = closure(gens, max_factors, h_radius + 2 * t_radius)
    hs = sorted(
        (w for w in cl if 0 < len(w) <= h_radius), key=lambda w: (len(w), w)
    )
    for t in ball(n, t_radius):
        if not t or t in cl or library_contains(t):
            continue
        ti = inv(t)
        for h in hs:
            conj = red_concat(red_concat(t, h), ti)
            if conj in cl:
                return t, h
    return None


def oracle_root_violation(
    gens,
    n: int,
    ell: int,
    library_contains,
    w_radius: int = 6,
    max_factors: int = 9,
    cl: set | None = None,
):
    """Search for w with w^ell in the subgroup but w outside. Returns w or
    None. Same soundness contract as the malnormality search. ``cl`` may be
    a precomputed closure built with lmax >= w_radius * ell."""
    if cl is None:
        cl = closure(gens, max_factors, w_radius * ell)
    for w in ball(n, w_radius):
        if not w:
            continue
        if power(w, ell) in cl and w not in cl and not library_contains(w):
            return w
    return None


def all_small_generating_sets(n: int, max_len: int, max_gens: int):
    """Every nonempty set of at most max_gens nonempty reduced words of
    length <= max_len, as tuples of letter tuples, deterministic order."""
    assert 1 <= max_gens <= 2
    words = [w for w in ball(n, max_len) if w]
    sets = []
    for w in words:
        sets.append((w,))
    if max_gens >= 2:
        for i, w in enumerate(words):
            for v in words[i + 1:]:
                sets.append((w, v))
    return sets


def _tuple_orbit(t: tuple, forward: list[dict], backward: list[dict]) -> frozenset:
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for step in (*forward, *backward):
                if all(x in step for x in cur):
                    img = tuple(step[x] for x in cur)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def _shifts(t: tuple) -> list[tuple]:
    return [t[i:] + t[:i] for i in range(len(t))]


def oracle_orbit_structure(universe, generators, L, seeds=None) -> dict:
    """Tuple-at-a-time orbit completion, as the library did it before tuple
    codes: {l: frozenset of tuples}. ``universe`` must already be in
    canonical order. Raises the library's ForcedCycleError with the same
    ``orbit_representative`` the library reports."""
    import itertools

    from stallings.errors import ForcedCycleError

    forward = [dict(g) for g in generators]
    backward = [{y: x for x, y in g.items()} for g in forward]
    relations = {}
    for l in sorted(L):
        positive: set = set()

        def closes_cycle(orbit) -> bool:
            for t in orbit:
                if all(s in positive or s in orbit for s in _shifts(t)):
                    return True
            return False

        for seed in (seeds or {}).get(l, ()):
            seed = tuple(seed)
            if seed in positive:
                continue
            orbit = _tuple_orbit(seed, forward, backward)
            if closes_cycle(orbit):
                raise ForcedCycleError("seed orbit closes a cycle", orbit_representative=seed, l=l)
            positive |= orbit
        for subset in itertools.combinations(universe, l):
            if any(p in positive for p in itertools.permutations(subset)):
                continue
            chosen = None
            for arrangement in itertools.permutations(subset):
                orbit = _tuple_orbit(arrangement, forward, backward)
                if not closes_cycle(orbit):
                    chosen = orbit
                    break
            if chosen is None:
                raise ForcedCycleError("every arrangement closes a cycle", orbit_representative=subset, l=l)
            positive |= chosen
        relations[l] = frozenset(positive)
    return relations


def oracle_fold(g):
    """Folding as the library did it before worklists: rescan every edge
    after each single merge. Each class is named by its vertex of smallest
    index in ``g.vertices``."""
    from stallings.graphs import make_graph

    parent = {v: v for v in g.vertices}
    ix = g.vertex_index

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = list(g.sorted_edges)
    while True:
        out: dict = {}
        inn: dict = {}
        merge = None
        for u, v, i in edges:
            ru, rv = find(u), find(v)
            prev = out.get((ru, i))
            if prev is not None and prev != rv:
                merge = (prev, rv)
                break
            out[(ru, i)] = rv
            prev = inn.get((rv, i))
            if prev is not None and prev != ru:
                merge = (prev, ru)
                break
            inn[(rv, i)] = ru
        if merge is None:
            break
        ra, rb = sorted(map(find, merge), key=ix.__getitem__)
        parent[rb] = ra
    verts = tuple(dict.fromkeys(find(v) for v in g.vertices))
    folded = {(find(u), find(v), i) for u, v, i in edges}
    bp = find(g.basepoint) if g.basepoint is not None else None
    return make_graph(g.n, verts, folded, bp)


def oracle_core(g):
    """Core reduction as the library did it before the degree queue: the
    basepoint component, then one restricted graph per peeled layer of
    vertices of degree <= 1 other than the basepoint."""
    comp = {g.basepoint}
    grown = True
    while grown:
        grown = False
        for u, v, _ in g.edges:
            if (u in comp) != (v in comp):
                comp |= {u, v}
                grown = True
    cur = g.restrict(comp, g.basepoint)
    while True:
        leaves = {v for v in cur.vertices if v != cur.basepoint and cur.degrees[v] <= 1}
        if not leaves:
            return cur
        cur = cur.restrict((v for v in cur.vertices if v not in leaves), cur.basepoint)


def oracle_walk(n: int, vertices, edges, root):
    """Breadth-first search from ``root`` over an immersed graph, each vertex
    taking its steps in slot order +1, -1, +2, -2, ...: the path word of
    every vertex reached (in discovery order), the tree edges, and the loop
    word of every other edge of root's component, in the order of
    (index of source, index of target, letter)."""
    step = {}
    for u, v, i in edges:
        step[(u, i)] = v
        step[(v, -i)] = u
    words = {root: ()}
    tree = set()
    queue = [root]
    for v in queue:
        for i in range(1, n + 1):
            for t in (i, -i):
                w = step.get((v, t))
                if w is not None and w not in words:
                    words[w] = words[v] + (t,)
                    tree.add((v, w, i) if t > 0 else (w, v, i))
                    queue.append(w)
    ix = {v: k for k, v in enumerate(vertices)}
    chords = sorted(
        (e for e in set(edges) if e[0] in words and e not in tree),
        key=lambda e: (ix[e[0]], ix[e[1]], e[2]),
    )
    loops = [red_concat(red_concat(words[u], (i,)), inv(words[v])) for u, v, i in chords]
    return words, tree, loops


def oracle_tuple_path_word(n: int, maps, start_digits):
    """Breadth-first search over the l-fold product of a step table from a
    vertex tuple to its cyclic shift, on a dict of tuples: ``maps[k]`` takes
    each vertex along the k-th signed letter of +1, -1, +2, -2, ..., -1
    where it has no such step. The letters of the first path found, or None
    when the shift is out of reach."""
    from collections import deque

    signed = [t for i in range(1, n + 1) for t in (i, -i)]
    start = tuple(start_digits)
    goal = tuple(start_digits[1:] + start_digits[:1])
    prev = {start: None}
    letter_to = {}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            letters = []
            node = cur
            while prev[node] is not None:
                letters.append(letter_to[node])
                node = prev[node]
            return tuple(reversed(letters))
        for k, s in enumerate(signed):
            nxt = tuple(maps[k][d] for d in cur)
            if -1 in nxt:
                continue
            if nxt not in prev:
                prev[nxt] = cur
                letter_to[nxt] = s
                queue.append(nxt)
    return None


def oracle_least_root_hit(maps, nv: int, l: int):
    """The least l-tuple over 0..nv-1, in lexicographic order, that is not
    constant and lies in the orbit of its cyclic shift, or None. ``maps`` is
    a step table as in :func:`oracle_tuple_path_word`, of which only the
    positive letters are read; every orbit is a ``_tuple_orbit`` search
    over the whole l-fold product."""
    import itertools

    forward = [{x: y for x, y in enumerate(m) if y >= 0} for m in maps[::2]]
    backward = [{y: x for x, y in f.items()} for f in forward]
    orbit_of: dict = {}
    for t in itertools.product(range(nv), repeat=l):
        if t not in orbit_of:
            orbit = _tuple_orbit(t, forward, backward)
            orbit_of.update(dict.fromkeys(orbit, orbit))
        if len(set(t)) > 1 and t[1:] + t[:1] in orbit_of[t]:
            return t
    return None


def _oracle_library(p: int) -> list:
    """The p-group library as permutation element lists, in the order and
    with the element order the library searched before Cayley tables;
    Heis(p) acts on p^2 points, by matrices on row vectors."""
    import itertools

    def squared():
        return [
            tuple((x + k1) % p for x in range(p)) + tuple(p + (x + k2) % p for x in range(p))
            for k1 in range(p)
            for k2 in range(p)
        ]

    def heisenberg():
        # (a, b, c) is the matrix [[1, a, c], [0, 1, b], [0, 0, 1]], acting on
        # the row vectors (1, u, v) of F_p^2 by the matrix product; point
        # (u, v) is u * p + v
        def point(row, matrix):
            _, u, v = (sum(x * matrix[k][j] for k, x in enumerate(row)) % p for j in range(3))
            return u * p + v

        rows = [(1, u, v) for u in range(p) for v in range(p)]
        return [
            tuple(point(row, ((1, a, c), (0, 1, b), (0, 0, 1))) for row in rows)
            for a, b, c in itertools.product(range(p), repeat=3)
        ]

    def wreath():
        return [
            tuple(((i + s) % p) * p + (j + offsets[i]) % p for i in range(p) for j in range(p))
            for s in range(p)
            for offsets in itertools.product(range(p), repeat=p)
        ]

    entries = [
        (p, f"Z/{p}", p),
        (p**2, f"(Z/{p})^2", squared),
        (p**2, f"Z/{p ** 2}", p**2),
        (p**3, f"Heis({p})", heisenberg),
        (p**3, f"Z/{p ** 3}", p**3),
    ]
    if p <= 3:
        entries.append((p ** (p + 1), f"Z/{p} wr Z/{p}", wreath))
    entries.append((p**4, f"Z/{p ** 4}", p**4))
    entries.sort(key=lambda e: e[0])
    return [(name, data if isinstance(data, int) else data()) for _, name, data in entries]


def oracle_cyclic_satisfied(rows, q: int, shifts) -> bool:
    """Whether a constraint holds in Z/q with the given letter shifts, each
    clause given as (coset exponent sums, generator exponent sums or None).
    Each clause coset is an arithmetic progression a + gZ mod q, and the
    intersection is empty exactly when some pair of progressions disagrees
    modulo the gcd of their steps."""
    from math import gcd

    data = []
    for coset_sums, gen_sums in rows:
        a = sum(e * s for e, s in zip(coset_sums, shifts)) % q
        step = sum(e * s for e, s in zip(gen_sums or (), shifts)) % q
        data.append((a, gcd(step, q)))
    return any(
        (ai - aj) % gcd(gi, gj)
        for i, (ai, gi) in enumerate(data)
        for aj, gj in data[i + 1 :]
    )


def group_closure(perms) -> set[tuple]:
    """Every element of the permutation group the perms generate ("f, then
    g" is the tuple g[f[x]]), by a breadth-first search over products, with
    no cap."""
    identity = tuple(range(len(perms[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for f in frontier:
            for g in perms:
                h = tuple([g[x] for x in f])
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def oracle_group_order(images) -> int:
    """Order of the permutation group the images generate."""
    return len(group_closure(images))


def oracle_constraint_search(n: int, p: int, constraint, bound: int):
    """The library part of ``separability._constraint_search`` as it was
    before Cayley tables: every candidate in a non-cyclic group is built as
    permutations and checked with ``oracle_constraint_satisfied``. Returns
    (quotient, examined) for the first hit, its order that of the group its
    images generate, and None when the library is exhausted; raises
    SearchCapError past ``bound`` candidates."""
    import itertools

    from stallings.errors import SearchCapError
    from stallings.separability import (
        FiniteQuotient,
        _letter_sums,
        _occurring_letters,
        p_identity,
    )

    occurring = _occurring_letters(constraint)
    rows = tuple(
        (_letter_sums(c, n), _letter_sums(g, n) if g is not None else None)
        for c, g in constraint
    )
    library = _oracle_library(p)
    examined = 0
    for size in range(1, len(occurring) + 1):
        for name, data in library:
            for active in itertools.combinations(occurring, size):
                if isinstance(data, int):
                    choices = itertools.product(range(1, data), repeat=size)
                else:
                    choices = itertools.product(data[1:], repeat=size)
                for values in choices:
                    examined += 1
                    if examined > bound:
                        raise SearchCapError("search cap", examined=examined)
                    if isinstance(data, int):
                        shifts = [0] * n
                        for letter, v in zip(active, values):
                            shifts[letter - 1] = v
                        if oracle_cyclic_satisfied(rows, data, shifts):
                            images = [tuple((x + s) % data for x in range(data)) for s in shifts]
                            return FiniteQuotient(n, data, oracle_group_order(images), tuple(images), name), examined
                    else:
                        images = [p_identity(len(data[0]))] * n
                        for letter, g in zip(active, values):
                            images[letter - 1] = g
                        raw = FiniteQuotient(n, len(images[0]), len(data), tuple(images), name)
                        if oracle_constraint_satisfied(raw, constraint):
                            order = oracle_group_order(images)
                            return FiniteQuotient(n, raw.degree, order, raw.images, name), examined
    return None


def oracle_constraint_list(system) -> list:
    """The constraints of a ``separability.CosetSystem`` as the clause tuples
    its rows stand for: each row cut to its own width, each clause id
    replaced by its clause."""
    return [
        tuple(system.clauses[i] for i in row[:width])
        for row, width in zip(system.rows.tolist(), system.widths)
    ]


def oracle_constraint_satisfied(q, constraint) -> bool:
    """``separability.constraint_satisfied`` as it was before the coset
    memo: every clause's coset is built afresh from permutation products."""
    from stallings.separability import p_mul

    common = None
    for coset_word, generator in constraint:
        rep = q.evaluate(coset_word)
        sub = q.cyclic_image(generator)
        coset = frozenset(p_mul(rep, s) for s in sub)
        common = coset if common is None else common & coset
        if not common:
            return True
    return common is not None and not common


def oracle_z_obstructed(constraint) -> bool:
    """Whether the clause words of a constraint with trivial generators all
    have one exponent-sum vector, so that no abelian quotient tells them
    apart."""
    n = max(word.n for word, _ in constraint)

    def sums(word) -> tuple:
        out = [0] * n
        for t in word:
            out[abs(t) - 1] += 1 if t > 0 else -1
        return tuple(out)

    return len({sums(word) for word, _ in constraint}) < 2


def oracle_cyclic_quotient(constraints, n, L, max_q: int = 1_000):
    """The cyclic tier of ``separability.separate_coset_system`` by brute
    force, for systems on n letters whose clause generators are all
    trivial. None when some constraint is Z-obstructed
    (``oracle_z_obstructed``); else the first Z/q, q = 2, 3, ... prime to
    every l in L, with the first t = 0, ..., q - 1, whose letter shifts
    1, t, ..., t^(n-1) mod q satisfy every constraint. Each candidate is
    built as permutations and checked by ``oracle_constraint_satisfied``."""
    from stallings.separability import FiniteQuotient

    if any(oracle_z_obstructed(cons) for cons in constraints):
        return None
    for q in range(2, max_q + 1):
        if any(q % l == 0 for l in L):
            continue
        for t in range(q):
            images = tuple(tuple((x + pow(t, j, q)) % q for x in range(q)) for j in range(n))
            quotient = FiniteQuotient(n, q, q, images, f"Z/{q}")
            if all(oracle_constraint_satisfied(quotient, c) for c in constraints):
                return quotient
    raise ValueError(f"no cyclic quotient up to Z/{max_q}")


def oracle_eppa_constraints(points, w, h, component, relations) -> list:
    """The constraint list ``eppa_extend`` hands to ``separate_coset_system``,
    built as it was before the word memo: every word of every clause
    afresh. ``points`` are the input's points in canonical order; ``w`` maps
    each to its path word from the least point of its component, ``h`` to
    the loop of that component or None, and ``component`` to a name of the
    component; ``relations`` maps each arity to its set of tuples. Words
    are letter tuples. Two points are kept apart only inside one component,
    and a related tuple only from the free tuples whose points lie,
    position by position, in the same components as its own."""
    import itertools

    constraints = []
    for x, y in itertools.combinations(points, 2):
        if component[x] == component[y]:
            constraints.append(((red_concat(inv(w[x]), w[y]), h[x]), ((), h[x])))
    for l in sorted(relations):
        tuples = relations[l]
        if len(points) < l:
            continue
        for zs in itertools.permutations(points, l):
            if zs in tuples:
                continue
            for ys in sorted(tuples):
                if any(component[y] != component[z] for y, z in zip(ys, zs)):
                    continue
                constraints.append(tuple(
                    (
                        red_concat(w[z], inv(w[y])),
                        red_concat(red_concat(w[y], h[y]), inv(w[y])) if h[y] is not None else None,
                    )
                    for y, z in zip(ys, zs)
                ))
    return constraints


def oracle_row_reduce(a, p: int):
    """Reduced row echelon form mod p and its pivot columns, one row at a
    time: the loop that the vectorised ``homology._row_reduce`` replaced."""
    m = a % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = None
        for rr in range(r, rows):
            if m[rr, c]:
                hit = rr
                break
        if hit is None:
            continue
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def oracle_induced_h1_map(f, p: int):
    """The induced map on H_1 mod p by elimination, the way
    ``homology.induced_h1_map`` found it before it read the chord rows:
    push the domain's cycle basis forward through the dense edge matrix,
    row-reduce ``[by | image]`` and read the solution off the pivot rows.
    None when an image column is not a cycle."""
    import numpy as np
    from stallings.homology import h1_basis

    bx = h1_basis(f.domain, p).array
    by = h1_basis(f.codomain, p).array
    push = np.zeros((len(f.codomain.src), len(f.domain.src)), dtype=np.int64)
    for j, image in enumerate(f.edges.tolist()):
        push[image, j] = 1
    image = push @ bx % p
    red, pivots = oracle_row_reduce(np.concatenate([by, image], axis=1), p)
    ncols = by.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    x = np.zeros((ncols, image.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, ncols:]
    return x


def oracle_cover_edges(base_edges, size: int, p: int, values) -> list[tuple]:
    """Edges (src, dst, letter) of the Z/p cover of a graph on 0..size-1,
    one lift per base edge (u, v, letter) and sheet k, from sheet k of u to
    sheet k + value of v; sheet k over u is the vertex u * p + k."""
    return [
        (u * p + k, v * p + (k + c) % p, i)
        for (u, v, i), c in zip(base_edges, values)
        for k in range(p)
    ]


def oracle_component_of(size: int, edges) -> list[int]:
    """The component of each vertex of the graph on 0..size-1 with the
    (src, dst, ...) tuples ``edges``, by breadth-first search from each
    vertex not yet reached; components are numbered in the order of their
    least vertex."""
    adjacent = [[] for _ in range(size)]
    for u, v, *_ in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    where = [-1] * size
    count = 0
    for start in range(size):
        if where[start] >= 0:
            continue
        where[start] = count
        queue = [start]
        for u in queue:
            for w in adjacent[u]:
                if where[w] < 0:
                    where[w] = count
                    queue.append(w)
        count += 1
    return where


def oracle_spanning_forest(size: int, edges) -> dict[str, list]:
    """The spanning forest of the graph on 0..size-1 whose edge j is the
    (src, dst, ...) tuple edges[j]: an adjacency list in edge order (a loop
    listed once) and a breadth-first search from each least vertex not yet
    reached. Per vertex: the parent (-1 at a root), the depth, the tree edge
    to the parent (-1 at a root) and its sign (+1 when it points away from
    the root, 0 at a root); per edge, whether it is a tree edge."""
    adjacent = [[] for _ in range(size)]
    for j, (u, v, *_) in enumerate(edges):
        adjacent[u].append((j, 1, v))
        if v != u:
            adjacent[v].append((j, -1, u))
    parent, depth, edge, sign = [-1] * size, [0] * size, [-1] * size, [0] * size
    reached = [False] * size
    for root in range(size):
        if reached[root]:
            continue
        reached[root] = True
        queue = [root]
        for u in queue:
            for j, s, w in adjacent[u]:
                if not reached[w]:
                    reached[w] = True
                    parent[w], depth[w], edge[w], sign[w] = u, depth[u] + 1, j, s
                    queue.append(w)
    is_tree = [False] * len(edges)
    for j in edge:
        if j >= 0:
            is_tree[j] = True
    return {"parent": parent, "depth": depth, "edge": edge, "sign": sign, "is_tree": is_tree}


def oracle_components(size: int, edges) -> tuple[bool, list[int]]:
    """Connectivity and E - V + 1 per component, in the order of
    :func:`oracle_component_of`."""
    where = oracle_component_of(size, edges)
    ranks = [1] * (max(where) + 1 if where else 0)
    for k in where:
        ranks[k] -= 1
    for u, *_ in edges:
        ranks[where[u]] += 1
    return len(ranks) <= 1, ranks


def oracle_morphism(domain, codomain, vertices):
    """The ``IndexMorphism`` with the given vertex images, each edge's image
    looked up edge by edge in a dict of the codomain's edges; None when an
    edge has no image edge. It gives maps that the library does not make:
    a cover's projection v·p + k -> v, a fiber product's coordinates."""
    import numpy as np
    from stallings import IndexMorphism

    def triples(g):
        return zip(g.src.tolist(), g.dst.tolist(), g.letter.tolist())

    at = {e: j for j, e in enumerate(triples(codomain))}
    images = [int(v) for v in vertices]
    edges = [at.get((images[u], images[v], i)) for u, v, i in triples(domain)]
    if None in edges:
        return None
    return IndexMorphism(domain, codomain, np.array(images, dtype=np.int64), np.array(edges, dtype=np.int64))


def oracle_cover_projection(cover):
    """The projection v·p + k -> v of a built cover, as ``oracle_morphism``."""
    return oracle_morphism(cover.space, cover.base_space, [v // cover.degree for v in range(cover.space.size)])


def oracle_fiber_product(n: int, left, right) -> dict:
    """The fiber product of two maps into one graph, pair by pair.

    A factor is (vertex images, edges) on vertices 0..len(images)-1, each
    edge (src, dst, letter, image edge), images being any hashable names.
    Returns the kept pairs (u, v) in lexicographic order; the product edges
    (src, dst, letter) on the positions of those pairs, sorted; the
    component rows of the ``malnormal`` command; the diagonal
    component when the factors are equal and their diagonal pairs meet one
    component, else None; and the tree flags."""
    (fa, ea), (fb, eb) = left, right
    pairs = [(u, v) for u in range(len(fa)) for v in range(len(fb)) if fa[u] == fb[v]]
    at = {pair: k for k, pair in enumerate(pairs)}
    edges = sorted(
        (at[(u1, v1)], at[(u2, v2)], i)
        for u1, u2, i, x in ea
        for v1, v2, j, y in eb
        if x == y
    )
    where = oracle_component_of(len(pairs), edges)
    count = max(where) + 1 if where else 0
    sizes = [where.count(c) for c in range(count)]
    letters = [{i: 0 for i in range(1, n + 1)} for _ in range(count)]
    for u, _, i in edges:
        letters[where[u]][i] += 1
    trees = [sum(letters[c].values()) == sizes[c] - 1 for c in range(count)]
    diagonal = None
    if left == right:
        ids = {where[at[(v, v)]] for v in range(len(fa)) if (v, v) in at}
        if len(ids) == 1 and all((v, v) in at for v in range(len(fa))):
            diagonal = ids.pop()
    rows = [
        {
            "component": c,
            "vertices": sizes[c],
            "edges": letters[c],
            "tree": trees[c],
            "diagonal": c == diagonal,
        }
        for c in range(count)
    ]
    return {"pairs": pairs, "edges": edges, "rows": rows, "diagonal": diagonal, "trees": trees}


def tw_convolve(a, b, p: int):
    """Product in (Z/p)[t]/(1 - t^p) of two length-p coefficient vectors,
    one term of ``a`` at a time: each t^i rolls ``b`` by i."""
    import numpy as np

    out = np.zeros(p, dtype=np.int64)
    for i, c in enumerate(a):
        if c:
            out += c * np.roll(b, i)
    return out % p


def oracle_separate_coset_system(constraints, n, L, bound: int = 500_000):
    """``separability.separate_coset_system`` as it was before each pruning
    trial became one product: every trial and the final quotient are
    assembled by pairwise products from the trivial quotient on n letters.
    Returns the quotient and the keep flag of each factor found."""
    from stallings.arith import is_prime, smallest_prime_not_in
    from stallings.errors import InputError, PostconditionError, SearchCapError
    from stallings.separability import (
        FiniteQuotient,
        _constraint_search,
        constraint_satisfied,
        direct_product,
        prime_factors,
    )

    L = frozenset(L)
    for l in sorted(L):
        if not is_prime(l):
            raise InputError(f"{l} in L is not prime")
    q = FiniteQuotient.trivial(n)
    factors = []
    ladder = []
    seen_p = set()
    while len(ladder) < 3:
        p = smallest_prime_not_in(L | seen_p)
        ladder.append(p)
        seen_p.add(p)
    for index, cons in enumerate(constraints):
        if constraint_satisfied(q, cons):
            continue
        found = None
        for p in ladder:
            try:
                found, _ = _constraint_search(n, p, cons, bound, f"constraint {index}")
                break
            except SearchCapError:
                continue
        if found is None:
            raise SearchCapError(f"no quotient found for constraint {index}", constraint_index=index)
        factors.append(found)
        q = direct_product(q, found)

    def assemble(parts):
        out = FiniteQuotient.trivial(n)
        for part in parts:
            out = direct_product(out, part)
        return out

    keep = [True] * len(factors)
    for i in sorted(range(len(factors)), key=lambda j: -factors[j].order):
        if sum(keep) <= 1:
            break
        keep[i] = False
        trial = assemble([f for f, k in zip(factors, keep) if k])
        if not all(constraint_satisfied(trial, cons) for cons in constraints):
            keep[i] = True
    q = assemble([f for f, k in zip(factors, keep) if k])
    for index, cons in enumerate(constraints):
        if not constraint_satisfied(q, cons):
            raise SearchCapError(
                f"constraint {index} failed in the assembled product", constraint_index=index
            )
    if prime_factors(q.order) & L:
        raise PostconditionError("product order picked up an excluded prime", order=q.order)
    return q, keep
