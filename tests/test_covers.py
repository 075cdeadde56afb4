from __future__ import annotations

import pytest

from stallings import (
    CoverDescription,
    GraphMorphism,
    InputError,
    NotInjectiveError,
    PostconditionError,
    Word,
    build_cover,
    check_disconnected_embedding,
    cover_tower,
    pullback,
    pullback_as_fiber_product,
    rank,
    subgroup_graph,
    surjective_cocycle,
    to_wedge_morphism,
    tower_pullbacks,
    wedge_graph,
)
from stallings import covers


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
    left = lift.compose(cov.projection)
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
            assert lift.codomain == tower.levels[k]


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
