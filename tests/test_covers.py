from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from stallings import (
    CoverTower,
    IndexGraph,
    InputError,
    PostconditionError,
    ResourceCapError,
    Word,
    build_cover,
    cover_tower,
    fiber_product_over,
    index_morphism,
    make_graph,
    pullback,
    rank,
    subgroup_graph,
    surjective_cocycle,
    to_wedge,
    tower_pullbacks,
    wedge_graph,
)
from stallings import covers, verify
from stallings.graphs import _spanning_forest
from stallings.homology import h1_basis
from stallings.suite import random_cover_of_wedge, random_raw_graph
from stallings.verify import verify_counterexample


def _sub(*texts: str, n: int = 2):
    return subgroup_graph([Word.parse(t, n) for t in texts], n)


def _wedge_cover(p: int, a_val: int, b_val: int):
    wedge = IndexGraph.of(wedge_graph(2))
    return build_cover(wedge, p, np.where(wedge.letter == 1, a_val, b_val))


def test_build_cover_counts_and_lifts():
    for p in (2, 3, 5):
        cov = _wedge_cover(p, 1, 0)
        base, total = cov.base_space.graph, cov.space.graph
        assert len(total.vertices) == p * len(base.vertices)
        assert len(total.edges) == p * len(base.edges)
        g = cov.space
        a_edge = base.sorted_edges.index(next(e for e in base.edges if e[2] == 1))
        for k in range(p):
            # the lift of the a-loop at sheet k, and its labelled view
            lift = cov.position[a_edge * p + k]
            assert (g.src[lift], g.dst[lift], g.letter[lift]) == (k, (k + 1) % p, 1)
            assert total.sorted_edges[lift] == ((0, k), (0, (k + 1) % p), 1)


def test_cocycle_must_cover_every_edge():
    wedge = IndexGraph.of(wedge_graph(2))
    with pytest.raises(InputError):
        build_cover(wedge, 2, [1])
    with pytest.raises(InputError):
        build_cover(wedge, 2, [1, 0.5])
    with pytest.raises(InputError):
        build_cover(wedge, 9, [0, 0])


def test_connectivity_tracks_the_cocycle():
    assert _wedge_cover(2, 1, 0).is_connected
    assert _wedge_cover(2, 0, 1).is_connected
    # the zero cocycle gives p disjoint copies
    assert not _wedge_cover(2, 0, 0).is_connected


def test_surjective_cocycle_vanishes_on_a_tree_and_connects():
    g = IndexGraph.of(_sub("abABa", "b").graph)
    for strategy, seed in (("first", None), ("random", 5)):
        shift = surjective_cocycle(g, 3, strategy, seed)
        assert build_cover(g, 3, shift).is_connected
        chords = len(g.src) - (g.size - 1)
        assert np.count_nonzero(shift) <= chords


def test_surjective_cocycle_determinism_and_errors():
    g = IndexGraph.of(_sub("aa", "b").graph)
    first = surjective_cocycle(g, 5, "random", 11)
    again = surjective_cocycle(g, 5, "random", 11)
    assert np.array_equal(first, again)
    with pytest.raises(InputError):
        surjective_cocycle(g, 5, "sideways")
    # a tree base has no chords to hit
    tree = IndexGraph.of(make_graph(2, [0, 1], [(0, 1, 1)], 0))
    with pytest.raises(InputError):
        surjective_cocycle(tree, 2)


def test_build_cover_refuses_a_non_integer_prime():
    # is_prime(3.0) was True, and building the cover crashed with a TypeError
    with pytest.raises(InputError, match="3.0 is not prime"):
        build_cover(IndexGraph.of(wedge_graph(2)), 3.0, [1, 0])


def _connected_bases(rng: random.Random) -> list[IndexGraph]:
    """Subgroup graphs, covers of the wedge, and raw graphs that need not be
    immersed, each connected and with a chord."""
    bases = [_sub("abABa", "b").graph, _sub("aab", "bA", "abab").graph, wedge_graph(3)]
    bases += [random_cover_of_wedge(rng, 2, rng.randint(1, 6)) for _ in range(10)]
    while len(bases) < 40:
        g = random_raw_graph(rng)
        if g.is_connected and len(g.edges) >= len(g.vertices):
            bases.append(g)
    return [IndexGraph.of(g) for g in bases]


def test_a_surjective_cocycle_pairs_with_h1_as_its_chord_values():
    # the cocycle vanishes on the tree whose chords index the H1 basis, so
    # its H1 coordinates are its values on the chords
    rng = random.Random(41)
    for g in _connected_bases(rng):
        is_tree = _spanning_forest(g).is_tree
        chords = np.flatnonzero(~is_tree)
        for p in (2, 3, 5):
            basis = h1_basis(g, p).array
            for strategy, seed in (("first", None), ("random", rng.randrange(2**32))):
                shift = surjective_cocycle(g, p, strategy, seed)
                assert not shift[is_tree].any()
                assert np.array_equal(basis.T @ shift % p, shift[chords] % p), (g, p, strategy)
            first = basis.T @ surjective_cocycle(g, p) % p
            assert first.tolist() == [0] * (len(chords) - 1) + [1]


def test_a_tower_over_a_base_that_is_not_immersed_is_connected():
    # the raw bouquet of abab and bb: two b-edges enter the basepoint. A
    # cocycle nonzero on one chord connects the cover all the same
    bouquet = make_graph(
        2, range(5), [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 4, 2), (4, 0, 2)], 0
    )
    x = IndexGraph.of(bouquet)
    r = rank(bouquet)
    for strategy, seed in (("first", None), ("random", 7)):
        for p in (2, 3):
            tower = cover_tower(x, p, 3, strategy, seed)
            for k, level in enumerate(tower.spaces):
                assert level.is_connected, (strategy, p, k)
                assert level.component_ranks() == [1 + p**k * (r - 1)], (strategy, p, k)


def test_pullback_commutes_with_projections():
    # lift, then project = project, then f, on vertices and on edges: over
    # the wedge, and along the identity of a base with five vertices
    cases = [(to_wedge(_sub("aa", "b").graph), _wedge_cover(3, 1, 1))]
    g = IndexGraph.of(_sub("abABa", "b").graph)
    for p in (2, 5):
        cov = build_cover(g, p, surjective_cocycle(g, p, "random", p))
        cases.append((index_morphism(cov.base_space, cov.base_space, range(5)), cov))
    for f, cov in cases:
        p = cov.degree
        pulled, lift = pullback(f, cov)
        assert pulled.base_space is f.domain and pulled.degree == p
        down, across = (oracles.oracle_cover_projection(c) for c in (cov, pulled))
        assert np.array_equal(down.vertices[lift.vertices], f.vertices[across.vertices])
        assert np.array_equal(down.edges[lift.edges], f.edges[across.edges])
        assert np.array_equal(lift.vertices % p, np.arange(pulled.space.size) % p)


def test_pullback_matches_fiber_product_presentation():
    # the pull-back along f is the fiber product of f with the cover
    # projection: pair (a, f(a)·p + k) is vertex a·p + k
    rng = random.Random(22)
    for gens in (("ab", "ba"), ("abABa", "b"), ("aab", "bA", "abab"), ("a",)):
        h = _sub(*gens)
        f = to_wedge(h.graph)
        for p in (2, 3, 5):
            cov = _wedge_cover(p, rng.randrange(p), rng.randrange(p))
            pulled, _ = pullback(f, cov)
            fp = fiber_product_over(f, oracles.oracle_cover_projection(cov))
            a, c = np.divmod(fp.pairs, cov.space.size)
            assert np.array_equal(c // p, f.vertices[a])
            vertex = a * p + c % p
            assert np.array_equal(vertex, np.arange(pulled.space.size))
            got = sorted(zip(vertex[fp.space.src].tolist(), vertex[fp.space.dst].tolist(), fp.space.letter.tolist()))
            space = pulled.space
            assert got == list(zip(space.src.tolist(), space.dst.tolist(), space.letter.tolist()))


def test_pullback_rejects_mismatched_bases():
    cov = _wedge_cover(2, 1, 0)
    with pytest.raises(InputError):
        pullback(to_wedge(wedge_graph(3)), cov)
    h = _sub("aa")
    g = IndexGraph.of(h.graph)
    two = build_cover(g, 2, np.ones(len(g.src), dtype=np.int64))
    with pytest.raises(InputError):
        pullback(to_wedge(h.graph), two)


def test_cover_tower_shape():
    for p in (2, 3):
        wedge = IndexGraph.of(wedge_graph(2))
        tower = cover_tower(wedge, p, 3)
        assert tower.spaces[0] is wedge and tower.depth == 3
        assert [step.degree for step in tower.steps] == [p] * 3
        for k, level in enumerate(tower.spaces):
            assert level.is_connected
            assert level.size == p**k
        for k, step in enumerate(tower.steps):
            assert step.base_space is tower.spaces[k] and step.space is tower.spaces[k + 1]
    with pytest.raises(InputError):
        cover_tower(wedge, 2, -1)


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_cover_tower_refuses_a_non_prime_at_depth_zero(p):
    # depth 0 draws no cocycle, so p is checked on entry
    with pytest.raises(InputError, match="not prime"):
        cover_tower(IndexGraph.of(wedge_graph(2)), p, 0)


def test_tower_pullbacks_keep_rank_and_connectivity():
    h = _sub("abABa", "b")
    f = to_wedge(h.graph)
    for p in (2, 3):
        tower = cover_tower(f.codomain, p, 2)
        pulls = tower_pullbacks(f, tower)
        assert len(pulls) == 2
        for k, (cov, lift) in enumerate(pulls, start=1):
            assert cov.is_connected
            assert rank(cov.space.graph) == p**k + 1
            assert lift.codomain is tower.spaces[k]


def test_disconnected_embedding_verdict():
    # A graph A embedded in a cover X^ -> X of degree p > 1 has a
    # disconnected fiber product with X^ over X: A -> X lifts, so the
    # product is p copies of A, and the embedding's graph is one of them.
    rng = random.Random(23)
    for trial in range(30):
        p = rng.choice((2, 3, 5))
        base = IndexGraph.of(_sub(*rng.sample(("ab", "aB", "abA", "bb", "aab"), 2)).graph)
        cov = build_cover(base, p, surjective_cocycle(base, p, "random", trial))
        g = cov.space
        # A: the part of the cover spanned by some of its vertices
        keep = sorted(rng.sample(range(g.size), rng.randint(1, g.size)))
        total = cov.space.graph
        a = IndexGraph.of(total.restrict(total.vertices[k] for k in keep))
        embedding = index_morphism(a, g, keep)
        down = index_morphism(a, cov.base_space, embedding.vertices // p)
        fp = fiber_product_over(down, oracles.oracle_cover_projection(cov))
        assert not fp.space.is_connected
        assert len(fp.space.component_sizes) == p * len(a.component_sizes)
        # the embedding's graph is a union of whole components
        ids = fp.space.component_ids
        graph = np.searchsorted(fp.pairs, np.arange(a.size) * g.size + embedding.vertices)
        assert np.isin(ids, ids[graph]).sum() == a.size


def test_a_disconnected_tower_step_is_a_postcondition_error(monkeypatch):
    # A surjective cocycle always gives a connected step; a zero one in its
    # place must raise, also under python -O, rather than build the tower.
    monkeypatch.setattr(
        covers, "surjective_cocycle", lambda g, p, strategy, seed: np.zeros(len(g.src), dtype=np.int64)
    )
    with pytest.raises(PostconditionError, match="disconnected cover"):
        cover_tower(IndexGraph.of(wedge_graph(2)), 3, 2)


def _coboundary(g: IndexGraph, p: int, rng: random.Random) -> np.ndarray:
    """delta h for a random h on the vertices: its cover is disconnected."""
    h = np.array([rng.randrange(p) for _ in range(g.size)], dtype=np.int64)
    return h[g.dst] - h[g.src]


def test_cover_components_match_the_bfs_oracle():
    rng = random.Random(20)
    bases = [
        wedge_graph(2),
        wedge_graph(3),
        _sub("abABa", "b").graph,
        _sub("aab", "bA", "abab").graph,
        random_raw_graph(rng),  # not immersed, and possibly disconnected
        random_raw_graph(rng, 3),
        # components of unequal rank, which pins the order of the ranks
        make_graph(2, [0, 1, 2], [(0, 0, 1), (0, 0, 2), (1, 2, 1)]),
    ]
    disconnected = 0
    for p in (2, 3, 5):
        for g in map(IndexGraph.of, bases):
            base_edges = list(zip(g.src.tolist(), g.dst.tolist(), g.letter.tolist()))
            for shift in (
                np.array([rng.randrange(p) for _ in base_edges], dtype=np.int64),
                np.zeros(len(base_edges), dtype=np.int64),
                _coboundary(g, p, rng),
            ):
                cov = build_cover(g, p, shift)
                space = cov.space
                want = oracles.oracle_cover_edges(base_edges, g.size, p, (shift % p).tolist())
                got = zip(space.src.tolist(), space.dst.tolist(), space.letter.tolist())
                assert list(got) == sorted(want)
                connected, ranks = oracles.oracle_components(space.size, want)
                assert cov.is_connected == connected
                assert space.component_ranks() == ranks
                disconnected += not connected
    # the zero cocycle and the coboundary split every cover
    assert disconnected >= 2 * 3 * len(bases)


def test_pullback_components_match_the_bfs_oracle():
    graphs = [_sub(*t).graph for t in (("a",), ("aa", "b"), ("abABa", "b"), ("ab", "ba"), ("bab", "a"))]
    verdicts = set()
    for p in (2, 3, 5):
        for strategy, seed in (("first", None), ("random", p)):
            tower = cover_tower(IndexGraph.of(wedge_graph(2)), p, 3, strategy, seed)
            for g in graphs:
                pulls = tower_pullbacks(to_wedge(g), tower)
                for level, (cov, lift) in enumerate(pulls, start=1):
                    assert lift.domain is cov.space and lift.codomain is tower.spaces[level]
                    space = cov.space
                    edges = list(zip(space.src.tolist(), space.dst.tolist()))
                    connected, ranks = oracles.oracle_components(space.size, edges)
                    assert cov.is_connected == connected
                    assert space.component_ranks() == ranks
                    verdicts.add(connected)
    assert verdicts == {True, False}


def test_verify_sums_the_ranks_of_a_disconnected_pullback(monkeypatch):
    # A tower whose one step is the zero cocycle (a coboundary) pulls G's
    # core back to p disjoint copies of rank 2: the row must say so.
    p = 3
    step = _wedge_cover(p, 0, 0)
    tower = CoverTower((step.base_space, step.space), (step,))
    monkeypatch.setattr(verify, "cover_tower", lambda x, p, depth: tower)
    report = verify_counterexample(p, 1)
    (row,) = report.as_dict()["tower"]
    assert row["connected"] is False
    assert row["pullback_h1_rank"] == 2 * p
    assert not report.passed
    failed = {name for name, ok, _ in report.checks if not ok}
    assert failed == {"level 1 pull-back connected", "level 1 homology rank"}


def test_verify_builds_the_tower_on_the_codomain_of_its_morphism(monkeypatch):
    bases = []
    real = verify.tower_pullbacks

    def spy(f, tower):
        bases.append(f.codomain is tower.spaces[0])
        return real(f, tower)

    monkeypatch.setattr(verify, "tower_pullbacks", spy)
    assert verify_counterexample(3, 2).passed
    assert bases == [True]


def test_counterexample_holds_deep_in_the_tower():
    for p, depth in ((3, 9), (2, 14)):
        report = verify_counterexample(p, depth)
        assert report.passed
        rows = report.as_dict()["tower"]
        assert [row["level"] for row in rows] == list(range(1, depth + 1))
        for row in rows:
            assert row["connected"]
            assert row["pullback_h1_rank"] == row["cover_h1_rank"] == p ** row["level"] + 1


def test_verify_refuses_oversized_pullbacks_before_building_the_tower(monkeypatch):
    monkeypatch.setattr(covers, "COVER_CAP", 50)
    assert verify_counterexample(2, 3).passed  # 48 pull-back edges at the top
    # 2^4: the tower's 32 edges fit, the pull-back's 96 do not; a call to
    # cover_tower would now fail with a TypeError instead
    monkeypatch.setattr(verify, "cover_tower", None)
    with pytest.raises(ResourceCapError):
        verify_counterexample(2, 4)


def test_covers_past_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(covers, "COVER_CAP", 50)
    wedge = IndexGraph.of(wedge_graph(2))
    assert len(_wedge_cover(23, 1, 1).space.src) == 46
    with pytest.raises(ResourceCapError):
        _wedge_cover(29, 1, 1)  # 58 edges
    assert cover_tower(wedge, 2, 4).depth == 4
    with pytest.raises(ResourceCapError):
        cover_tower(wedge, 2, 5)  # 64 edges at the top
    f = to_wedge(_sub("abABa", "b").graph)  # 5 vertices, 6 edges
    with pytest.raises(ResourceCapError):
        pullback(f, _wedge_cover(11, 1, 1))  # 66 edges
    with pytest.raises(ResourceCapError):
        tower_pullbacks(f, cover_tower(wedge, 2, 4))  # 96 edges at the top
