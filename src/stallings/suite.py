"""Seeded randomized property suite.

run_property_suite draws every instance from a deterministic stream, so two
runs with the same seed and trial count produce identical reports. Each
invariant gets its own substream keyed by name; a failure message carries the
trial index, which is enough to regenerate the offending instance.

INVARIANTS is the one place these laws are stated: the test suite runs each
entry at DEFAULT_TRIALS, and draws from the exported instance generators where
it needs the same distributions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

import numpy as np

from .covers import build_cover, pullback, surjective_cocycle
from .errors import ForcedCycleError, InputError, SearchCapError, StallingsError
from .fiber import component_pi1, fiber_product, is_l_root_closed, is_malnormal
from .graphs import (
    LabeledGraph,
    SubgroupGraph,
    canonical_form,
    component_ranks,
    contains,
    core,
    cycle_basis,
    fold,
    make_graph,
    path_words_from,
    rank,
    subgroup_graph,
    to_wedge_morphism,
    wedge_graph,
)
from .homology import TwistedMatrix, _spanning_forest, chain_complex, h1_basis, induced_h1_map
from .hypertournaments import (
    Hypertournament,
    _iso_violation,
    eppa_extend,
    make_family,
    make_hypertournament,
    orbit_structure,
    validate,
    verify_extension,
)
from .separability import separate_from_cyclic, verify_witness
from .words import Word, empty_word, maximal_root, reduce_letters

# -- instance generators ---------------------------------------------------------


def random_reduced_word(
    rng: random.Random, n: int, min_len: int = 1, max_len: int = 5
) -> Word:
    length = rng.randint(min_len, max_len)
    signed = [s * i for i in range(1, n + 1) for s in (1, -1)]
    letters: list[int] = []
    while len(letters) < length:
        c = rng.choice(signed)
        if letters and c == -letters[-1]:
            continue
        letters.append(c)
    return Word(tuple(letters), n)


def random_subgroup(
    rng: random.Random, n: int = 2, max_gens: int = 2, max_len: int = 5
) -> SubgroupGraph:
    k = rng.randint(1, max_gens)
    gens = [random_reduced_word(rng, n, 1, max_len) for _ in range(k)]
    return subgroup_graph(gens, n)


def random_raw_graph(
    rng: random.Random, n: int = 2, max_vertices: int = 12
) -> LabeledGraph:
    nv = rng.randint(2, max_vertices)
    ne = rng.randint(nv - 1, 2 * nv)
    edges = [
        (rng.randrange(nv), rng.randrange(nv), rng.randint(1, n)) for _ in range(ne)
    ]
    return make_graph(n, range(nv), edges, basepoint=0)


def random_cover_of_wedge(rng: random.Random, n: int, degree: int) -> LabeledGraph:
    """Connected degree-k cover of the wedge of n circles: the Schreier graph
    of k points under n random permutations, resampled until connected."""
    while True:
        edges = []
        for letter in range(1, n + 1):
            perm = list(range(degree))
            rng.shuffle(perm)
            edges.extend((i, perm[i], letter) for i in range(degree))
        g = make_graph(n, range(degree), edges, basepoint=0)
        if g.is_connected:
            return g


def random_homology_iso_subgroup(
    rng: random.Random, p: int, max_vertices: int = 8, tries: int = 2000
) -> SubgroupGraph:
    """A rank-two subgroup of F_2 whose inclusion is an isomorphism on first
    homology mod p, with a core graph of bounded size."""
    for _ in range(tries):
        h = random_subgroup(rng, 2, 2, 4)
        if len(h.graph.vertices) > max_vertices or h.rank() != 2:
            continue
        f_star = induced_h1_map(to_wedge_morphism(h.graph), p)
        if f_star.is_isomorphism:
            return h
    raise SearchCapError("no homology isomorphism instance found", tries=tries)


def random_twisted_matrix(
    rng: random.Random, p: int, rows: int, cols: int
) -> TwistedMatrix:
    coeffs = [
        [[rng.randrange(p) for _ in range(p)] for _ in range(cols)]
        for _ in range(rows)
    ]
    return TwistedMatrix.from_array(coeffs, p)


def random_tournament(rng: random.Random, labels: Iterable) -> Hypertournament:
    labels = list(labels)
    pairs = set()
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            x, y = labels[i], labels[j]
            pairs.add((x, y) if rng.random() < 0.5 else (y, x))
    return make_hypertournament(labels, [2], {2: pairs})


def random_disjoint_partial_map(rng: random.Random, h: Hypertournament) -> dict:
    """One partial automorphism whose domain and range are disjoint point
    sets, found by rejection (a single-point map always qualifies)."""
    points = list(h.universe)
    top = max(1, len(points) // 2)
    while True:
        size = rng.randint(1, top)
        chosen = rng.sample(points, 2 * size)
        mapping = dict(zip(chosen[:size], chosen[size:]))
        if _iso_violation(h, mapping) is None:
            return mapping


# -- invariants --------------------------------------------------------------------

Failures = list[str]


def _inv_fold(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        g = random_raw_graph(rng, n=2, max_vertices=12)
        folded = fold(g)
        if fold(folded) != folded:
            failures.append(f"trial {t}: folding is not idempotent")
            continue
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)
        name = {v: ("x", perm[v]) for v in g.vertices}
        relabeled = make_graph(
            g.n,
            [name[v] for v in g.vertices],
            [(name[u], name[v], i) for u, v, i in g.edges],
            basepoint=name[g.basepoint],
        )
        left = canonical_form(core(folded))
        right = canonical_form(core(fold(relabeled)))
        if left != right:
            failures.append(f"trial {t}: fold result depends on vertex order")
    return trials, failures


def _enumerate_subgroup(gens, factors: int, lmax: int) -> set:
    """Letter tuples of every product of at most `factors` generators, pruned
    once a partial product is too long to ever shrink under the window."""
    steps = [tuple(w) for g in gens for w in (g.letters, g.inverse().letters)]
    maxlen = max((len(g) for g in gens), default=0)
    seen = {()}
    frontier = [()]
    for used in range(1, factors + 1):
        cap = lmax + (factors - used) * maxlen
        nxt = []
        for cur in frontier:
            for s in steps:
                w = reduce_letters(cur + s)
                if len(w) > cap or w in seen:
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return seen


def _schreier_factors(h: SubgroupGraph, w: Word) -> list[Word] | None:
    """Split a loop into fundamental-cycle factors (tree path, edge, tree
    path back). The caller re-multiplies them, so a wrong decomposition
    cannot certify anything."""
    g = h.graph
    paths = path_words_from(g, g.basepoint)
    v = g.basepoint
    factors = []
    for c in w.letters:
        u = g.steps.get((v, c))
        if u is None:
            return None
        f = paths[v] * Word((c,), g.n) * paths[u].inverse()
        if f:
            factors.append(f)
        v = u
    if v != g.basepoint:
        return None
    return factors


def _certify_member(h: SubgroupGraph, w: Word) -> str | None:
    """Cross-examine a positive membership verdict: w must trace a loop at
    the basepoint, and its fundamental-cycle factors must multiply back to w
    by word arithmetic. Returns the reason on a disagreement, None if both
    checks pass."""
    factors = _schreier_factors(h, w)
    if factors is None:
        return "claimed member does not trace a loop"
    prod = empty_word(w.n)
    for f in factors:
        prod = prod * f
    if prod != w:
        return "loop decomposition does not multiply back"
    return None


def _inv_membership(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        h = random_subgroup(rng, 2, 2, 4)
        gens = list(h.generators)
        words = _enumerate_subgroup(gens, 7, 6)

        prod = empty_word(2)
        for _ in range(rng.randint(1, 8)):
            g0 = rng.choice(gens)
            prod = prod * (g0 if rng.random() < 0.5 else g0.inverse())
        if not h.contains(prod):
            failures.append(f"trial {t}: generator product {prod} rejected")
            continue

        for _ in range(60):
            w = random_reduced_word(rng, 2, 1, 6)
            lib = h.contains(w)
            if w.letters in words and not lib:
                failures.append(f"trial {t}: enumerated member {w} rejected")
                break
            if lib and w.letters not in words:
                reason = _certify_member(h, w)
                if reason is not None:
                    failures.append(f"trial {t}: {reason} for {w}")
                    break
    return trials, failures


def _inv_cycle_basis(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        h = random_subgroup(rng, 2, 2, 5)
        basis = cycle_basis(h.graph)
        if len(basis) != h.rank():
            failures.append(f"trial {t}: basis size {len(basis)} != rank {h.rank()}")
        if not all(h.contains(w) for w in basis):
            failures.append(f"trial {t}: basis word escapes the subgroup")
        if canonical_form(subgroup_graph(basis, 2).graph) != canonical_form(h.graph):
            failures.append(f"trial {t}: basis generates another subgroup")
    return trials, failures


def _inv_roots(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        base = random_reduced_word(rng, 2, 1, 4)
        root, _ = maximal_root(base)
        k = rng.randint(1, 4)
        w = root**k
        if not w:
            continue
        found_root, exponent = maximal_root(w)
        if found_root**exponent != w:
            failures.append(f"trial {t}: root {found_root} ** {exponent} != {w}")
        if exponent % k != 0:
            failures.append(f"trial {t}: {w} = ({root}) ** {k} but exponent {exponent}")
    return trials, failures


def _inv_cover_rank(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        n = rng.randint(1, 3)
        k = rng.randint(1, 8)
        g = random_cover_of_wedge(rng, n, k)
        expected = 1 + k * (n - 1)
        if rank(g) != expected:
            failures.append(f"trial {t}: rank {rank(g)} != {expected} (n={n}, k={k})")
    return trials, failures


def _inv_fiber_counts(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        a = random_subgroup(rng, 2, 2, 4)
        b = random_subgroup(rng, 2, 2, 4)
        fp = fiber_product(a, b)
        va, vb = len(a.graph.vertices), len(b.graph.vertices)
        if len(fp.product.vertices) != va * vb:
            failures.append(f"trial {t}: vertex count is not {va * vb}")
        for letter in (1, 2):
            ea, eb = a.graph.edge_count(letter), b.graph.edge_count(letter)
            if fp.product.edge_count(letter) != ea * eb:
                failures.append(f"trial {t}: letter {letter} count is not {ea * eb}")
    return trials, failures


def _inv_intersection(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        a = random_subgroup(rng, 2, 2, 3)
        b = random_subgroup(rng, 2, 2, 3)
        fp = fiber_product(a, b)
        meet = component_pi1(fp, a.graph.basepoint, b.graph.basepoint)
        for _ in range(40):
            w = random_reduced_word(rng, 2, 1, 8)
            both = contains(a, w) and contains(b, w)
            if both != meet.contains(w):
                failures.append(f"trial {t}: intersection law fails on {w}")
                break
    return trials, failures


def _inv_malnormal_roots(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        h = random_subgroup(rng, 2, 2, 4)
        if not is_malnormal(h).malnormal:
            continue
        for l in (2, 3):
            result = is_l_root_closed(h, l)
            if not result.closed:
                failures.append(
                    f"trial {t}: malnormal subgroup not {l}-root closed "
                    f"(witness {result.witness})"
                )
    return trials, failures


def _inv_h1(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        g = random_raw_graph(rng, n=2, max_vertices=10)
        p = rng.choice((2, 3, 5))
        basis = h1_basis(g, p)
        expected = sum(component_ranks(g))
        if basis.cols != expected:
            failures.append(f"trial {t}: h1 dimension {basis.cols} != {expected}")
            continue
        chords = ~_spanning_forest(g).is_tree
        if basis.rank != expected or not np.array_equal(
            basis.array[chords], np.eye(expected)
        ):
            failures.append(f"trial {t}: h1 basis is not the identity on the chords")
        boundary = chain_complex(g, p).boundary
        product = boundary @ basis
        if product.array.any():
            failures.append(f"trial {t}: boundary of a cycle is nonzero")
    return trials, failures


def _inv_twisted(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        p = rng.choice((2, 3))
        rows = rng.randint(1, 4)
        cols = rng.randint(1, rows)
        m = random_twisted_matrix(rng, p, rows, cols)
        if m.specialize().is_injective and not m.is_injective:
            failures.append(f"trial {t}: specialization injective but module map not")
    return trials, failures


def _inv_pullback(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        p = rng.choice((2, 3, 5))
        h = random_homology_iso_subgroup(rng, p)
        desc = surjective_cocycle(wedge_graph(2), p, "random", rng.randrange(2**32))
        cover = build_cover(desc)
        pulled, _ = pullback(to_wedge_morphism(h.graph), cover)
        if not pulled.is_connected:
            failures.append(f"trial {t}: pull-back disconnected at p={p}")
            continue
        if pulled.space.component_ranks() != cover.space.component_ranks():
            failures.append(f"trial {t}: pull-back h1 rank differs at p={p}")
    return trials, failures


def _inv_deck(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        base = random_cover_of_wedge(rng, n, rng.randint(1, 3))
        desc = surjective_cocycle(base, p, "random", rng.randrange(2**32))
        cover = build_cover(desc)
        autos = cover.deck_automorphisms()
        if len(autos) != p:
            failures.append(f"trial {t}: {len(autos)} deck maps, wanted {p}")
            continue
        maps = {tuple(sorted(a.mapping.items())) for a in autos}
        if len(maps) != p:
            failures.append(f"trial {t}: deck maps are not distinct")
        proj = cover.projection
        if set(proj.mapping.values()) != set(cover.base.vertices):
            failures.append(f"trial {t}: projection misses a base vertex")
        for a in autos:
            if a.compose(proj).mapping != proj.mapping:
                failures.append(f"trial {t}: deck map does not cover the identity")
                break
        power = autos[1]
        for _ in range(p - 1):
            power = power.compose(autos[1])
        if power.mapping != {v: v for v in cover.total.vertices}:
            failures.append(f"trial {t}: deck generator ** {p} is not the identity")
    return trials, failures


def _inv_witness(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    done = 0
    while done < trials:
        c = random_reduced_word(rng, 2, 1, 4)
        _, exponent = maximal_root(c)
        if exponent != 1:
            continue
        h = subgroup_graph([c], 2)
        g = random_reduced_word(rng, 2, 1, 4)
        if h.contains(g):
            continue
        l = rng.choice((2, 3))
        witness = separate_from_cyclic(c, g, {l}, seed=rng.randrange(2**31))
        if not verify_witness(witness):
            failures.append(f"trial {done}: witness for {g} outside <{c}> fails to verify")
        if witness.quotient.order % l == 0:
            failures.append(f"trial {done}: witness order divisible by excluded prime {l}")
        done += 1
    return trials, failures


def _brute_validate(h: Hypertournament) -> bool:
    from itertools import combinations

    for l in sorted(h.L):
        rel = h.relation_map[l]
        for combo in combinations(h.universe, l):
            arranged = [t for t in permutations(combo) if t in rel]
            if not arranged:
                return False
        for t in rel:
            shifts = {t[k:] + t[:k] for k in range(len(t))}
            if shifts <= rel:
                return False
    return True


def _inv_validate(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    for t in range(trials):
        size = rng.randint(2, 5)
        labels = list(range(size))
        L = rng.choice(([2], [3], [2, 3]))
        relations = {}
        for l in L:
            if size < l:
                relations[l] = []
                continue
            tuples = set()
            for combo in permutations(labels, l):
                if rng.random() < 0.4:
                    tuples.add(combo)
            relations[l] = tuples
        h = make_hypertournament(labels, L, relations)
        verdict, violation = validate(h)
        if verdict != _brute_validate(h):
            failures.append(f"trial {t}: validation disagrees with brute force")
        if not verdict and violation is None:
            failures.append(f"trial {t}: invalid structure without a violation")
    return trials, failures


def _inv_orbits(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    done = 0
    attempts = 0
    while done < trials and attempts < 20 * trials:
        attempts += 1
        size = rng.randint(2, 6)
        labels = list(range(size))
        k = rng.randint(1, 2)
        gens = []
        for _ in range(k):
            m = rng.randint(1, max(1, size // 2))
            chosen = rng.sample(labels, 2 * m) if 2 * m <= size else labels[:]
            half = len(chosen) // 2
            gens.append(dict(zip(chosen[:half], chosen[half:])))
        try:
            h = orbit_structure(labels, gens, [2])
        except ForcedCycleError:
            continue
        t, done = done, done + 1
        ok, _ = validate(h)
        if not ok:
            failures.append(f"trial {t}: orbit completion is not a valid structure on {labels}")
            continue
        rel = h.relation_map[2]
        for g in gens:
            for x, y in rel:
                if x in g and y in g and (g[x], g[y]) not in rel:
                    failures.append(f"trial {t}: orbit structure not invariant under {g}")
                    break
    return done, failures


def _inv_eppa(rng: random.Random, trials: int) -> tuple[int, Failures]:
    failures = []
    runs = max(1, trials // 4)
    for t in range(runs):
        size = rng.randint(2, 5)
        m = random_tournament(rng, range(size))
        fam = make_family(m, [random_disjoint_partial_map(rng, m)])
        try:
            result = eppa_extend(m, fam, seed=rng.randrange(2**31))
        except StallingsError as exc:
            failures.append(f"trial {t}: extension failed with {exc}")
            continue
        if not verify_extension(result, m, fam):
            failures.append(f"trial {t}: extension does not verify")
    return runs, failures


INVARIANTS: tuple[tuple[str, Callable[[random.Random, int], tuple[int, Failures]]], ...] = (
    ("fold idempotent and label invariant", _inv_fold),
    ("membership matches word enumeration", _inv_membership),
    ("cycle basis inside subgroup with Nielsen-Schreier rank", _inv_cycle_basis),
    ("maximal root round trip", _inv_roots),
    ("wedge cover rank formula", _inv_cover_rank),
    ("fiber product sizes multiply", _inv_fiber_counts),
    ("intersection law on based components", _inv_intersection),
    ("malnormal implies root closed", _inv_malnormal_roots),
    ("h1 dimension and boundary kernel", _inv_h1),
    ("twisted specialization controls injectivity", _inv_twisted),
    ("pull-backs along h1 isomorphisms stay connected", _inv_pullback),
    ("deck transformations form Z/p", _inv_deck),
    ("separation witnesses verify", _inv_witness),
    ("hypertournament validation matches brute force", _inv_validate),
    ("orbit closures respect the generators", _inv_orbits),
    ("extensions verify end to end", _inv_eppa),
)


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    trials: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(not failures for _, _, failures in self.results)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sizes": {"trials": self.trials},
            "results": [
                {"invariant": name, "runs": runs, "failures": list(failures)}
                for name, runs, failures in self.results
            ],
            "passed": self.passed,
        }


DEFAULT_TRIALS = 12


def run_property_suite(seed: int = 0, trials: int = DEFAULT_TRIALS) -> SuiteReport:
    """Run every registered invariant on `trials` fresh seeded instances;
    identical (seed, trials) give identical reports."""
    if trials < 1:
        raise InputError(f"trials must be positive, got {trials}")
    results = []
    for name, check in INVARIANTS:
        rng = random.Random(f"{seed}:{name}")
        runs, failures = check(rng, trials)
        results.append((name, runs, tuple(failures)))
    return SuiteReport(seed=seed, trials=trials, results=tuple(results))
