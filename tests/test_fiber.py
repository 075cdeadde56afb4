from __future__ import annotations

import json
import random
import time
import tracemalloc
from math import gcd

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from stallings import (
    IndexGraph,
    InputError,
    LabeledGraph,
    ResourceCapError,
    Word,
    build_cover,
    component_pi1,
    fiber_product,
    fiber_product_over,
    graph_to_dict,
    index_morphism,
    is_l_root_closed,
    is_malnormal,
    maximal_root,
    subgroup_graph,
    to_wedge,
    wedge_graph,
)
from stallings import fiber
from stallings.cli import _component_stats, main
from stallings.fiber import TUPLE_CAP, _product_root_closure, cyclic_root_closure
from stallings.graphs import (
    SubgroupGraph,
    _orbit_labels,
    _shift,
    core,
    cycle_basis,
    make_graph,
    path_words_from,
    relabel_canonical,
)
from stallings.serialize import json_blocks
from stallings.suite import random_reduced_word
from stallings.verify import verify_counterexample


def _sub(*texts: str, n: int = 2):
    return subgroup_graph([Word.parse(t, n) for t in texts], n)


def test_projections_are_graph_maps():
    # pair index u·|V_B| + v: its quotient and remainder are the coordinates
    fp = fiber_product(_sub("ab", "ba"), _sub("aa", "b"))
    for factor, coordinate in zip((fp.left, fp.right), divmod(fp.pairs, fp.right.size)):
        proj = index_morphism(fp.space, factor, coordinate)
        assert [factor.graph.vertices[u] for u in proj.vertices.tolist()] == [
            v[factor is fp.right] for v in fp.product.vertices
        ]
        assert set(proj.edges.tolist()) <= set(range(len(factor.src)))


def test_malnormality_indexes_each_graph_once(monkeypatch):
    # the wedge and the subgroup's graph; verify-counterexample shares them
    built = []
    real = IndexGraph.of
    monkeypatch.setattr(IndexGraph, "of", staticmethod(lambda g: built.append(g) or real(g)))
    is_malnormal(_sub("abABa", "b"))
    assert len(built) <= 2
    built.clear()
    verify_counterexample(2, 3)
    assert len(built) <= 2


def test_diagonal_exists_only_for_equal_factors():
    h = _sub("aa", "ab")
    assert fiber_product(h, h).diagonal is not None
    other = fiber_product(h, _sub("b"))
    assert other.diagonal is None
    with pytest.raises(Exception):
        other.non_diagonal_edge_counts()


def test_component_pi1_is_the_intersection():
    ha = _sub("aa", "b")
    hb = _sub("ab", "ba")
    fp = fiber_product(ha, hb)
    meet = component_pi1(fp, ha.graph.basepoint, hb.graph.basepoint)
    for letters in oracles.ball(2, 6):
        w = Word(letters, 2)
        assert meet.contains(w) == (ha.contains(w) and hb.contains(w)), w


def test_component_pi1_rejects_unknown_vertex():
    h = _sub("a")
    fp = fiber_product(h, h)
    with pytest.raises(InputError):
        component_pi1(fp, "nope", h.graph.basepoint)


def test_fiber_product_over_mixes_targets():
    h = _sub("aa", "b")
    f = to_wedge(h.graph)
    fp = fiber_product_over(f, to_wedge(wedge_graph(2)))  # a second wedge, equal arrays
    assert len(fp.product.vertices) == len(h.graph.vertices)
    with pytest.raises(InputError, match="common codomain"):
        fiber_product_over(f, to_wedge(_sub("a", n=3).graph))


def _random_core(rng: random.Random, n: int = 2):
    """A subgroup graph none of whose vertices, the basepoint included, has
    degree below 2."""
    while True:
        gens = [random_reduced_word(rng, n, 1, 5) for _ in range(rng.randint(1, 3))]
        h = subgroup_graph(gens, n)
        if h.graph.edges and min(h.graph.degrees.values()) >= 2:
            return h


def _disjoint_union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    verts = tuple(("x", v) for v in g.vertices) + tuple(("y", v) for v in h.vertices)
    edges = tuple((("x", u), ("x", v), i) for u, v, i in g.edges)
    edges += tuple((("y", u), ("y", v), i) for u, v, i in h.edges)
    return LabeledGraph(g.n, verts, edges, ("x", g.basepoint))


def _factor(f):
    """The oracle's view of a morphism: vertex images, and edges on vertex
    positions with their image edges."""
    d = f.domain
    return f.vertices.tolist(), list(zip(*(a.tolist() for a in (d.src, d.dst, d.letter, f.edges))))


def _random_cover(rng: random.Random, base: LabeledGraph, p: int):
    g = IndexGraph.of(base)
    return build_cover(g, p, [rng.randrange(p) for _ in range(len(g.src))])


def _check_against_oracle(fp, f, g):
    want = oracles.oracle_fiber_product(f.domain.n, _factor(f), _factor(g))
    left, right = f.domain.graph.vertices, g.domain.graph.vertices
    assert fp.product.vertices == tuple((left[u], right[v]) for u, v in want["pairs"])
    space = fp.space
    assert list(zip(space.src.tolist(), space.dst.tolist(), space.letter.tolist())) == want["edges"]
    assert _component_stats(fp).tolist() == want["rows"]
    assert fp.diagonal == want["diagonal"]
    assert fp.trees.tolist() == want["trees"]
    # a component labelled alone is the labelled product's restriction
    ids = space.component_ids.tolist()
    for k in range(0, space.size, max(1, space.size // 4)):
        keep = [v for v, c in zip(fp.product.vertices, ids) if c == ids[k]]
        restricted = fp.product.restrict(keep, fp.product.vertices[k])
        assert fiber._component_graph(fp, k) == restricted
        assert component_pi1(fp, *fp.product.vertices[k]).graph == relabel_canonical(core(restricted))


def test_fiber_products_match_the_pairwise_oracle():
    rng = random.Random(41)
    kinds = set()
    dropped = 0
    for _ in range(12):
        a, b = _random_core(rng), _random_core(rng)
        disjoint = _disjoint_union(a.graph, b.graph)
        for x, y in ((a, a), (a, b), (disjoint, disjoint), (disjoint, a)):
            gx, gy = getattr(x, "graph", x), getattr(y, "graph", y)
            fp = fiber_product(x, y)
            _check_against_oracle(fp, to_wedge(gx), to_wedge(gy))
            kinds.add((gx is gy, gx.is_connected, fp.diagonal is None))
        # two covers of a's graph: a pair of vertices over different base
        # vertices is dropped
        base = a.graph
        f, g = (oracles.oracle_cover_projection(_random_cover(rng, base, p)) for p in (2, 3))
        fp = fiber_product_over(f, g)
        _check_against_oracle(fp, f, g)
        assert fp.space.size == 6 * len(base.vertices)
        dropped += len(base.vertices) > 1
        vertices = set(fp.product.vertices)
        for pair in ((u, v) for u in f.domain.graph.vertices for v in g.domain.graph.vertices):
            if pair not in vertices:
                with pytest.raises(InputError, match="not a product vertex"):
                    component_pi1(fp, *pair)
                break
        # a pull-back onto a cover of the wedge
        cov = _random_cover(rng, wedge_graph(2), 3)
        f = to_wedge(b.graph)
        g = oracles.oracle_cover_projection(cov)
        _check_against_oracle(fiber_product_over(f, g), f, g)
    # two maps of one graph that differ at every vertex keep no diagonal pair
    cycle = IndexGraph.of(LabeledGraph(2, (0, 1), ((0, 1, 1), (1, 0, 1)), 0))
    f, g = (index_morphism(cycle, cycle, [x, 1 - x]) for x in (0, 1))
    fp = fiber_product_over(f, g)
    _check_against_oracle(fp, f, g)
    assert fp.product.vertices == ((0, 1), (1, 0)) and fp.diagonal is None
    # (equal factors, connected, no diagonal): each kind of wedge product ran
    assert {(True, True, False), (False, True, True), (True, False, True), (False, False, True)} <= kinds
    assert dropped


def test_component_tables_are_written_as_the_oracle_rows():
    rng = random.Random(43)
    a, b = _random_core(rng), _random_core(rng)
    wide = _random_core(rng, 12)
    # two maps of a one-vertex graph onto the two loops of another: no pairs
    loops = IndexGraph.of(LabeledGraph(1, (0, 1), ((0, 0, 1), (1, 1, 1)), 0))
    point = IndexGraph.of(LabeledGraph(1, (0,), ((0, 0, 1),), 0))
    apart = [index_morphism(point, loops, [x]) for x in (0, 1)]
    cases = [
        (a.graph, a.graph),  # a self-product: the diagonal is set
        (a.graph, b.graph),  # distinct factors: no diagonal
        (_sub("aa", n=1).graph,) * 2,  # n = 1
        (wide.graph, wide.graph),  # keys 1..12 in numeric order
        (a.graph, wedge_graph(2)),  # a single component
    ]
    products = [(fiber_product(x, y), to_wedge(x), to_wedge(y)) for x, y in cases]
    products.append((fiber_product_over(*apart), *apart))  # zero rows
    for fp, f, g in products:
        rows = oracles.oracle_fiber_product(f.domain.n, _factor(f), _factor(g))["rows"]
        table = _component_stats(fp)
        assert table.tolist() == rows
        assert "".join(json_blocks(table)) == json.dumps(rows, indent=2, sort_keys=True)
    assert [fp.space.component_sizes.size for fp, _, _ in products[4:]] == [1, 0]
    assert products[0][0].diagonal is not None and products[1][0].diagonal is None
    text = "".join(json_blocks(_component_stats(products[3][0])))
    at = [text.index(f'"{k}": ') for k in range(1, 13)]
    assert at == sorted(at)


def test_fiber_products_past_the_cap_are_refused(monkeypatch):
    h = _sub("abABa", "b")  # 5 vertices, 3 edges of each letter
    monkeypatch.setattr(fiber, "TUPLE_CAP", 24)
    with pytest.raises(ResourceCapError):
        fiber_product(h, h)  # 25 vertex pairs
    monkeypatch.setattr(fiber, "TUPLE_CAP", 25)
    assert fiber_product(h, h).space.size == 25
    monkeypatch.setattr(fiber, "TUPLE_CAP", 5)
    with pytest.raises(ResourceCapError, match="6 edge pairs"):
        fiber_product(h, wedge_graph(2))  # 5 vertex pairs
    f = to_wedge(h.graph)
    with pytest.raises(ResourceCapError):
        fiber_product_over(f, f)


class _LabelsBuilt(Exception):
    pass


def test_array_readers_build_no_labelled_product(monkeypatch, tmp_path):
    def refuse(*args):
        raise _LabelsBuilt

    monkeypatch.setattr(fiber, "_pair_graph", refuse)
    for gens in (("abABa", "b"), ("a",), ("ab",)):
        assert is_malnormal(_sub(*gens)).malnormal
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(_sub("abABa", "b").graph)))
    assert CliRunner().invoke(main, ["malnormal", str(path)]).exit_code == 0
    assert verify_counterexample(3, 2).passed
    with pytest.raises(_LabelsBuilt):  # a certificate reads labels
        is_malnormal(_sub("aa"))


def test_malnormality_known_cases():
    assert is_malnormal(_sub("a")).malnormal
    assert is_malnormal(_sub("ab")).malnormal
    assert is_malnormal(_sub("abABa", "b")).malnormal
    assert not is_malnormal(_sub("aa")).malnormal
    assert not is_malnormal(_sub("aa", "b")).malnormal


def test_malnormality_certificate_words_check_out():
    res = is_malnormal(_sub("aa", "bb"))
    assert not res.malnormal
    cert = res.certificate
    h = _sub("aa", "bb")
    assert h.contains(cert.element)
    assert h.contains(cert.conjugated)
    assert not h.contains(cert.conjugator)
    assert (
        cert.conjugator * cert.element * cert.conjugator.inverse()
        == cert.conjugated
    )


def test_malnormality_against_oracle_sweep():
    rng = random.Random(5)
    pool = ["a", "b", "ab", "aa", "bb", "aba", "abA", "bab", "baB", "aab"]
    for _ in range(30):
        gens = rng.sample(pool, rng.randint(1, 2))
        h = _sub(*gens)
        res = is_malnormal(h)
        raw = {Word.parse(t, 2).letters for t in gens}
        cl = oracles.closure(raw, max_factors=6, lmax=14)
        hit = oracles.oracle_malnormality_violation(
            raw, 2, h.contains, t_radius=4, h_radius=6, max_factors=6, cl=cl
        )
        if hit is not None:
            assert not res.malnormal, gens
        if not res.malnormal:
            cert = res.certificate
            assert h.contains(cert.element) and h.contains(cert.conjugated)
            assert not h.contains(cert.conjugator)


def test_root_closure_powers_of_a():
    # a^2 has a as a square root outside; cube roots stay inside.
    h = _sub("aa")
    r2 = is_l_root_closed(h, 2)
    assert not r2.closed
    assert r2.witness is not None
    w = r2.witness
    assert not h.contains(w) and h.contains(w**2)
    assert is_l_root_closed(h, 3).closed


def test_root_closure_matches_divisibility_rule():
    # <a^i> is closed under l-th roots iff gcd(i, l) = 1; composite l counts
    for i in (2, 3, 4, 6):
        h = _sub("a" * i)
        for l in (2, 3, 4, 5, 6):
            res = is_l_root_closed(h, l)
            assert res.closed == (gcd(i, l) == 1), (i, l)
    assert is_l_root_closed(_sub("aaaa"), 6).witness == Word.parse("aa", 2)
    # redundant generators: the subgroup is <a^2>, not <a^4>
    assert is_l_root_closed(_sub("aa", "aaaa"), 2).witness == Word.parse("a", 2)
    # rank 1 builds no tuples, so sizes far past TUPLE_CAP are answered
    long_cycle = _sub("ab" * 20)
    assert len(long_cycle.graph.vertices) ** 12 > TUPLE_CAP
    res = is_l_root_closed(long_cycle, 12)
    assert res.witness == Word.parse("ab" * 5, 2)


def test_root_closure_witness_on_mixed_subgroup():
    h = _sub("abab", "bb")
    res = is_l_root_closed(h, 2)
    if not res.closed:
        w = res.witness
        assert not h.contains(w) and h.contains(w**2)


def test_root_closure_oracle_sweep():
    rng = random.Random(17)
    pool = ["a", "aa", "aaa", "ab", "abab", "bb", "abA", "bab"]
    for _ in range(20):
        gens = rng.sample(pool, rng.randint(1, 2))
        h = _sub(*gens)
        for l in (2, 3):
            res = is_l_root_closed(h, l)
            raw = {Word.parse(t, 2).letters for t in gens}
            cl = oracles.closure(raw, max_factors=6, lmax=16)
            hit = oracles.oracle_root_violation(
                raw, 2, l, h.contains, w_radius=4, max_factors=6, cl=cl
            )
            if hit is not None:
                assert not res.closed, (gens, l)
            if not res.closed:
                w = res.witness
                assert not h.contains(w) and h.contains(w**l), (gens, l)


def test_root_closure_rejects_silly_l_and_caps_blowups():
    h = _sub("aa")
    with pytest.raises(InputError):
        is_l_root_closed(h, 1)
    big = _sub("abABa", "b")
    with pytest.raises(ResourceCapError, match=r"^5\^12 vertex tuples exceed the cap of 2000000$"):
        is_l_root_closed(big, 12)
    # refused without computing 5^2000003, which took 0.36 s
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"^5\^2000003 vertex tuples exceed the cap"):
        is_l_root_closed(big, 2_000_003)
    assert time.perf_counter() - start < 0.1


# Witnesses of rank >= 2 subgroups as the per-tuple Python scan reported
# them; the numpy product must pick the same smallest tuple, hence the same
# word. The first pairs are the oracle-sweep pool above. In the last four
# the smallest such tuple starts no positive-letter edge of the product.
PINNED_PRODUCT_WITNESSES = {
    (("abab", "bb"), 2): "b",
    (("abab", "bb"), 3): None,
    (("a", "ab"), 2): None,
    (("a", "ab"), 3): None,
    (("a", "abab"), 2): "ba",
    (("a", "abab"), 3): None,
    (("a", "bb"), 2): "b",
    (("a", "bb"), 3): None,
    (("a", "abA"), 2): None,
    (("a", "abA"), 3): None,
    (("a", "bab"), 2): "ba",
    (("a", "bab"), 3): None,
    (("aa", "ab"), 2): "a",
    (("aa", "ab"), 3): None,
    (("aa", "abab"), 2): "a",
    (("aa", "abab"), 3): None,
    (("aa", "bb"), 2): "a",
    (("aa", "bb"), 3): None,
    (("aa", "abA"), 2): "a",
    (("aa", "abA"), 3): None,
    (("aa", "bab"), 2): "a",
    (("aa", "bab"), 3): None,
    (("aaa", "ab"), 2): None,
    (("aaa", "ab"), 3): "A",
    (("aaa", "abab"), 2): "ab",
    (("aaa", "abab"), 3): "A",
    (("aaa", "bb"), 2): "b",
    (("aaa", "bb"), 3): "A",
    (("aaa", "abA"), 2): None,
    (("aaa", "abA"), 3): "A",
    (("aaa", "bab"), 2): None,
    (("aaa", "bab"), 3): "A",
    (("ab", "bb"), 2): "abA",
    (("ab", "bb"), 3): None,
    (("ab", "abA"), 2): None,
    (("ab", "abA"), 3): None,
    (("ab", "bab"), 2): None,
    (("ab", "bab"), 3): None,
    (("abab", "abA"), 2): "aabA",
    (("abab", "abA"), 3): None,
    (("abab", "bab"), 2): "ba",
    (("abab", "bab"), 3): None,
    (("bb", "abA"), 2): "b",
    (("bb", "abA"), 3): None,
    (("bb", "bab"), 2): "b",
    (("bb", "bab"), 3): None,
    (("abA", "bab"), 2): None,
    (("abA", "bab"), 3): None,
    (("Ab", "Babb"), 2): "Aba",
    (("bAA", "abaB"), 4): "aaBA",
    (("Babba", "aBBA"), 4): "abA",
    (("BBBBB", "ABaa"), 5): "B",
    (("aBBB", "aBAb"), 5): None,
    (("BBBa", "bbAAA"), 5): None,
    (("bAbbAbbAb", "aba", "BaBBa"), 3): "bAb",
    (("BBBaaBBBaa", "ABBaba"), 2): "AAbbb",
    (("aCCac", "cAAcb", "c"), 2): "ccA",
    (("BabccBBabccB", "B"), 2): "abccBB",
}


def test_product_witnesses_are_pinned():
    for (gens, l), expected in PINNED_PRODUCT_WITNESSES.items():
        h = _sub(*gens, n=3 if any(c in "cC" for c in "".join(gens)) else 2)
        assert h.rank() >= 2, gens
        res = is_l_root_closed(h, l)
        assert res.closed == (expected is None), (gens, l)
        assert (None if res.witness is None else str(res.witness)) == expected, (gens, l)


def test_product_path_words_match_the_dict_bfs():
    # the walk over the l-fold product, stopped at the shift, against the
    # dict-of-tuples search it replaced: the smallest hit and a few others
    # of seeded non-closed subgroups of rank >= 2
    rng = random.Random(59)
    compared = dict.fromkeys((2, 3, 5), 0)
    long_words = 0
    while min(compared.values()) < 20 or long_words < 20:
        n = rng.choice((2, 3))
        h = subgroup_graph([random_reduced_word(rng, n, 1, 5) for _ in range(rng.randint(2, 3))], n)
        g, nv = h.graph, len(h.graph.vertices)
        if h.rank() < 2:
            continue
        for l in compared:
            if nv**l > 20_000 or is_l_root_closed(h, l).closed:
                continue
            maps = fiber._letter_tables(g)
            codes = np.arange(nv**l)
            shift = _shift(codes, nv, l)
            labels = _orbit_labels(nv, l, maps[::2])
            hits = codes[(shift != codes) & (labels == labels[shift])].tolist()
            for code in {hits[0], *rng.sample(hits, min(3, len(hits)))}:
                digits = [code // nv**k % nv for k in range(l)]
                word = fiber._tuple_path_word(n, maps.tolist(), digits)
                assert word.letters == oracles.oracle_tuple_path_word(n, maps.tolist(), digits), (g, l, digits)
                compared[l] += 1
                long_words += len(word) >= 3


def _permutation_subgroup(rng: random.Random, n: int, m: int, keep: float):
    """The subgroup graph of random partial permutations of 0..m-1, each point
    keeping its edge of each letter with probability ``keep``; None when the
    core is not connected. With keep = 1 the subgroup has finite index."""
    edges = []
    for i in range(1, n + 1):
        images = rng.sample(range(m), m)
        edges += [(u, images[u], i) for u in range(m) if rng.random() < keep]
    g = relabel_canonical(core(make_graph(n, range(m), edges, 0)))
    return SubgroupGraph(g, tuple(cycle_basis(g))) if g.is_connected else None


def _oracle_root_witness(h, l: int) -> str | None:
    """The witness of the least full-product hit, with the dict BFS of
    ``oracles.oracle_tuple_path_word``."""
    g = h.graph
    maps = fiber._letter_tables(g).tolist()
    t = oracles.oracle_least_root_hit(maps, len(g.vertices), l)
    if t is None:
        return None
    hit = list(reversed(t))  # the least code, read from its last digit
    v = Word(oracles.oracle_tuple_path_word(g.n, maps, hit), g.n)
    u = path_words_from(g, g.basepoint)[g.vertices[hit[0]]]
    return str(u * v * u.inverse())


def test_root_closure_matches_the_full_product_oracle():
    # verdict and witness text against the least hit over every l-tuple, on
    # random subgroups, some with a generator raised to the l-th power, and
    # on (partial) permutation graphs, where one pair-product component
    # holds nearly every pair of distinct vertices
    rng = random.Random(83)
    seen = set()
    for trial in range(120):
        kind = ("words", "power", "finite", "partial")[trial % 4]
        n, l = rng.choice((2, 3)), rng.choice((2, 3, 5, 7))
        if kind in ("words", "power"):
            gens = [random_reduced_word(rng, n, 1, 5) for _ in range(rng.randint(2, 3))]
            if kind == "power":
                gens[0] = gens[0] ** l
            h = subgroup_graph(gens, n)
        else:
            h = _permutation_subgroup(rng, n, rng.randint(2, int(20_000 ** (1 / l))), 1 if kind == "finite" else 0.85)
        if h is None or h.rank() < 2 or len(h.graph.vertices) ** l > 20_000:
            continue
        res = _product_root_closure(h, l)
        expected = _oracle_root_witness(h, l)
        assert res.closed == (expected is None), (h.graph, l)
        assert (None if res.witness is None else str(res.witness)) == expected, (h.graph, l)
        seen.add((kind, l, res.closed))
    # a non-closed case at l = 7 needs a 7-cycle of vertices, past the size bound
    assert {(l, v) for _, l, v in seen} == {(l, v) for l in (2, 3, 5, 7) for v in (True, False)} - {(7, False)}
    assert {k for k, _, v in seen if not v} == {"words", "power", "finite", "partial"}


def test_root_closure_near_the_cap_labels_no_l_fold_product():
    # two generators whose wedge is already folded: 125 vertices, 125^3 =
    # 1,953,125 tuples, closed at l = 3. Labelling every tuple peaked at
    # 35,159,748 traced bytes; the pair-product filter stays under half.
    rng = random.Random(1)
    words = []
    for letter, length in ((1, 62), (2, 64)):
        w = random_reduced_word(rng, 2, length, length)
        while w.letters[0] != letter or w.letters[-1] != letter:
            w = random_reduced_word(rng, 2, length, length)
        words.append(w)
    h = subgroup_graph(words, 2)
    assert len(h.graph.vertices) == 125 and h.rank() == 2
    tracemalloc.start()
    try:
        res = is_l_root_closed(h, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.closed
    assert peak < 35_159_748 // 2, peak


def _random_maximal_root(rng: random.Random, n: int, length: int) -> Word:
    while True:
        a = random_reduced_word(rng, n, length, length)
        if (length == 1 or a.letters[0] != -a.letters[-1]) and maximal_root(a)[1] == 1:
            return a


# The product is exponential in l, so it is compared only up to this many tuples.
CROSS_CHECK_TUPLES = 50_000


def test_closed_form_matches_product_on_cyclic_subgroups():
    rng = random.Random(29)
    compared = set()
    for n in (2, 3):
        for length in range(1, 5):
            for i in range(1, 7):
                a = _random_maximal_root(rng, n, length)
                u = random_reduced_word(rng, n, 1, 2) if rng.random() < 0.5 else Word((), n)
                c = u * a**i * u.inverse()
                gens = [c, c**2] if rng.random() < 0.3 else [c]
                h = subgroup_graph(gens, n)
                nv = len(h.graph.vertices)
                for l in (2, 3, 4, 5, 6):
                    closed_form = is_l_root_closed(h, l)
                    assert closed_form.closed == (gcd(i, l) == 1), (c, l)
                    on_word = cyclic_root_closure(c, l)
                    assert on_word.closed == closed_form.closed, (c, l)
                    results = [closed_form, on_word]
                    if nv**l <= CROSS_CHECK_TUPLES:
                        product = _product_root_closure(h, l)
                        assert product.closed == closed_form.closed, (c, l)
                        results.append(product)
                        compared.add((l, product.closed))
                    for res in results:
                        if not res.closed:
                            w = res.witness
                            assert h.contains(w**l) and not h.contains(w), (c, l, w)
    # both verdicts were cross-checked for every l
    assert compared == {(l, v) for l in (2, 3, 4, 5, 6) for v in (True, False)}
