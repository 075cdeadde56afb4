from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from stallings import (
    CoverDescription,
    CoverTower,
    GraphMorphism,
    InputError,
    NotInjectiveError,
    PostconditionError,
    ResourceCapError,
    Word,
    build_cover,
    check_disconnected_embedding,
    cover_tower,
    make_graph,
    pullback,
    pullback_as_fiber_product,
    rank,
    subgroup_graph,
    surjective_cocycle,
    to_wedge_morphism,
    tower_pullbacks,
    wedge_graph,
)
from stallings import covers, verify
from stallings.suite import random_raw_graph
from stallings.verify import verify_counterexample


def _sub(*texts: str, n: int = 2):
    return subgroup_graph([Word.parse(t, n) for t in texts], n)


def _wedge_cover(p: int, a_val: int, b_val: int):
    wedge = wedge_graph(2)
    values = {e: (a_val if e[2] == 1 else b_val) for e in wedge.edges}
    return build_cover(CoverDescription.from_dict(wedge, p, values))


def test_build_cover_counts_and_lifts():
    for p in (2, 3, 5):
        cov = _wedge_cover(p, 1, 0)
        base = cov.base
        assert len(cov.total.vertices) == p * len(base.vertices)
        assert len(cov.total.edges) == p * len(base.edges)
        a_edge = next(e for e in base.edges if e[2] == 1)
        for k in range(p):
            (u, ku), (v, kv), i = cov.lifted_edge(a_edge, k)
            assert (u, v, i) == a_edge
            assert ku == k and kv == (k + 1) % p


def test_cocycle_must_cover_every_edge():
    wedge = wedge_graph(2)
    a_edge = next(e for e in wedge.edges if e[2] == 1)
    with pytest.raises(InputError):
        CoverDescription(wedge, 2, ((a_edge, 1),))
    with pytest.raises(InputError):
        CoverDescription.from_dict(wedge, 9, {e: 0 for e in wedge.edges})


def test_connectivity_tracks_the_cocycle():
    assert _wedge_cover(2, 1, 0).is_connected
    assert _wedge_cover(2, 0, 1).is_connected
    # the zero cocycle gives p disjoint copies
    wedge = wedge_graph(2)
    zero = CoverDescription.from_dict(wedge, 2, {e: 0 for e in wedge.edges})
    assert not build_cover(zero).is_connected


def test_surjective_cocycle_vanishes_on_a_tree_and_connects():
    h = _sub("abABa", "b")
    for strategy, seed in (("first", None), ("random", 5)):
        desc = surjective_cocycle(h.graph, 3, strategy, seed)
        assert build_cover(desc).is_connected
        nonzero = [e for e, v in desc.values.items() if v]
        chords = len(h.graph.edges) - (len(h.graph.vertices) - 1)
        assert len(nonzero) <= chords


def test_surjective_cocycle_determinism_and_errors():
    h = _sub("aa", "b")
    first = surjective_cocycle(h.graph, 5, "random", 11)
    again = surjective_cocycle(h.graph, 5, "random", 11)
    assert first == again
    with pytest.raises(InputError):
        surjective_cocycle(h.graph, 5, "sideways")
    # a tree base has no chords to hit
    from stallings import make_graph

    tree = make_graph(2, [0, 1], [(0, 1, 1)], 0)
    with pytest.raises(InputError):
        surjective_cocycle(tree, 2)


def test_pullback_commutes_with_projections():
    h = _sub("aa", "b")
    f = to_wedge_morphism(h.graph)
    cov = _wedge_cover(3, 1, 1)
    pulled, lift = pullback(f, cov)
    assert pulled.base == h.graph
    assert pulled.degree == 3
    left = lift.morphism.compose(cov.projection)
    right = pulled.projection.compose(f)
    assert left.mapping == right.mapping


def test_pullback_matches_fiber_product_presentation():
    h = _sub("ab", "ba")
    f = to_wedge_morphism(h.graph)
    cov = _wedge_cover(2, 1, 0)
    pulled, _ = pullback(f, cov)
    fp = pullback_as_fiber_product(f, cov)
    assert len(fp.product.vertices) == len(pulled.total.vertices)
    assert len(fp.product.edges) == len(pulled.total.edges)
    assert fp.product.component_lists and (
        len(fp.product.component_lists) == len(pulled.total.component_lists)
    )


def test_pullback_rejects_mismatched_bases():
    h = _sub("aa")
    cov = _wedge_cover(2, 1, 0)
    with pytest.raises(InputError):
        pullback(to_wedge_morphism(wedge_graph(3)), cov)


def test_cover_tower_shape():
    for p in (2, 3):
        tower = cover_tower(wedge_graph(2), p, 3)
        assert tower.depth == 3
        assert tower.degrees() == [1, p, p * p, p**3]
        for k, level in enumerate(tower.levels):
            assert level.is_connected
            assert len(level.vertices) == p**k
        proj = tower.composite_projection(3)
        assert proj.domain == tower.levels[3]
        assert proj.codomain == tower.levels[0]
    with pytest.raises(InputError):
        cover_tower(wedge_graph(2), 2, -1)
    with pytest.raises(InputError):
        tower.composite_projection(9)


def test_tower_pullbacks_keep_rank_and_connectivity():
    h = _sub("abABa", "b")
    f = to_wedge_morphism(h.graph)
    for p in (2, 3):
        tower = cover_tower(wedge_graph(2), p, 2)
        pulls = tower_pullbacks(f, tower)
        assert len(pulls) == 2
        for k, (cov, lift) in enumerate(pulls, start=1):
            assert cov.total.is_connected
            assert rank(cov.total) == p**k + 1
            assert lift.morphism.codomain == tower.levels[k]


def test_disconnected_embedding_verdict():
    cov = _wedge_cover(2, 0, 1)
    a = _sub("a").graph
    loop_vertex = next(v for v in cov.total.vertices if v[1] == 0)
    emb = GraphMorphism.from_dict(a, cov.total, {a.basepoint: loop_vertex})
    assert check_disconnected_embedding(a, cov, emb) is False


def test_disconnected_embedding_rejects_bad_maps():
    cov = _wedge_cover(2, 0, 1)
    a2 = _sub("aa").graph
    target = next(v for v in cov.total.vertices if v[1] == 0)
    squash = GraphMorphism.from_dict(a2, cov.total, {v: target for v in a2.vertices})
    with pytest.raises(NotInjectiveError):
        check_disconnected_embedding(a2, cov, squash)
    a = _sub("a").graph
    with pytest.raises(InputError):
        check_disconnected_embedding(a, cov, to_wedge_morphism(a))


def test_connected_embedding_product_is_a_postcondition_error(monkeypatch):
    # A connected fiber product would contradict the lifting argument; the
    # check must raise, also under python -O, instead of returning True.
    cov = _wedge_cover(2, 0, 1)
    a = _sub("a").graph
    loop_vertex = next(v for v in cov.total.vertices if v[1] == 0)
    emb = GraphMorphism.from_dict(a, cov.total, {a.basepoint: loop_vertex})
    connected = pullback_as_fiber_product(to_wedge_morphism(a), _wedge_cover(2, 1, 1))
    assert connected.product.is_connected
    monkeypatch.setattr(covers, "fiber_product_over", lambda f, g: connected)
    with pytest.raises(PostconditionError, match="connected fiber product"):
        check_disconnected_embedding(a, cov, emb)


def test_a_disconnected_tower_step_is_a_postcondition_error(monkeypatch):
    # A surjective cocycle always gives a connected step; a zero one in its
    # place must raise, also under python -O, rather than build the tower.
    monkeypatch.setattr(
        covers, "_surjective_shift", lambda g, p, strategy, seed: np.zeros(len(g.src), dtype=np.int64)
    )
    with pytest.raises(PostconditionError, match="disconnected cover"):
        cover_tower(wedge_graph(2), 3, 2)


def _coboundary(g, p: int, rng: random.Random) -> dict:
    """delta h for a random h on the vertices: its cover is disconnected."""
    h = {v: rng.randrange(p) for v in g.vertices}
    return {(u, v, i): h[v] - h[u] for u, v, i in g.edges}


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
        for g in bases:
            ix = g.vertex_index
            base_edges = [(ix[u], ix[v], i) for u, v, i in g.sorted_edges]
            for values in (
                {e: rng.randrange(p) for e in g.edges},
                {e: 0 for e in g.edges},
                _coboundary(g, p, rng),
            ):
                cov = build_cover(CoverDescription.from_dict(g, p, values))
                space = cov.space
                want = oracles.oracle_cover_edges(
                    base_edges, len(g.vertices), p, [values[e] % p for e in g.sorted_edges]
                )
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
            tower = cover_tower(wedge_graph(2), p, 3, strategy, seed)
            for g in graphs:
                pulls = tower_pullbacks(to_wedge_morphism(g), tower)
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
    wedge = wedge_graph(2)
    step = build_cover(CoverDescription.from_dict(wedge, p, {e: 0 for e in wedge.edges}))
    tower = CoverTower((step.base_space, step.space), (step,))
    monkeypatch.setattr(verify, "cover_tower", lambda x, p, depth: tower)
    report = verify_counterexample(p, 1)
    (row,) = report.as_dict()["tower"]
    assert row["connected"] is False
    assert row["pullback_h1_rank"] == 2 * p
    assert not report.passed
    failed = {name for name, ok, _ in report.checks if not ok}
    assert failed == {"level 1 pull-back connected", "level 1 homology rank"}


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
    wedge = wedge_graph(2)

    def wedge_desc(p):
        return CoverDescription.from_dict(wedge, p, {e: 1 for e in wedge.edges})

    assert len(build_cover(wedge_desc(23)).space.src) == 46
    with pytest.raises(ResourceCapError):
        build_cover(wedge_desc(29))  # 58 edges
    assert cover_tower(wedge, 2, 4).depth == 4
    with pytest.raises(ResourceCapError):
        cover_tower(wedge, 2, 5)  # 64 edges at the top
    f = to_wedge_morphism(_sub("abABa", "b").graph)  # 5 vertices, 6 edges
    with pytest.raises(ResourceCapError):
        pullback(f, build_cover(wedge_desc(11)))  # 66 edges
    with pytest.raises(ResourceCapError):
        tower_pullbacks(f, cover_tower(wedge, 2, 4))  # 96 edges at the top
