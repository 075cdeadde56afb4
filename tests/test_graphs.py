from __future__ import annotations

import json
import random

import numpy as np
import pytest

import oracles
from stallings import (
    IndexGraph,
    InputError,
    PreconditionError,
    ResourceCapError,
    Word,
    core,
    fold,
    make_graph,
    index_morphism,
    is_l_root_closed,
    is_malnormal,
    rank,
    subgroup_graph,
    to_wedge,
    wedge_graph,
)
from stallings import graphs
from stallings.graphs import (
    LabeledGraph,
    SubgroupGraph,
    _spanning_forest,
    _walk,
    bfs_edges,
    cycle_basis,
    is_core,
    path_words_from,
    relabel_canonical,
    trace,
)
from stallings.serialize import graph_from_dict, graph_to_dict, read_graph, subgroup_from_dict
from stallings.suite import random_cover_of_wedge, random_raw_graph


def _words(*texts: str, n: int = 2) -> list[Word]:
    return [Word.parse(t, n) for t in texts]


def _counts(g):
    by_letter = {}
    for _, _, letter in g.edges:
        by_letter[letter] = by_letter.get(letter, 0) + 1
    return len(g.vertices), by_letter


def test_wedge_graph_shape():
    w = wedge_graph(3)
    assert len(w.vertices) == 1
    assert len(w.edges) == 3
    assert w.basepoint in w.vertices


def test_make_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        make_graph(2, [0, 1], [(0, 1, 3)], 0)
    with pytest.raises(InputError):
        make_graph(2, [0, 1], [(0, 1, -1)], 0)
    with pytest.raises(InputError):
        make_graph(2, [0, 1], [(0, 2, 1)], 0)


def test_fold_whole_group():
    # b = A * (ab), so these generators give back all of F2 and the
    # folded core must be the wedge itself.
    cl = oracles.closure({(1,), (1, 2)}, max_factors=6, lmax=3)
    assert (2,) in cl
    h = subgroup_graph(_words("a", "ab"), 2)
    assert len(h.graph.vertices) == 1
    assert len(h.graph.edges) == 2
    assert h.rank() == 2


def test_known_core_shape():
    h = subgroup_graph(_words("abABa", "b"), 2)
    v, by_letter = _counts(h.graph)
    assert v == 5
    assert by_letter == {1: 3, 2: 3}
    assert is_core(h.graph)


def test_core_prunes_hanging_trees():
    g = make_graph(2, [0, 1, 2], [(0, 0, 1), (0, 1, 2), (1, 2, 1)], 0)
    c = core(g)
    assert set(c.vertices) == {0}
    assert is_core(c)


def test_core_keeps_basepoint_even_if_degree_one():
    g = make_graph(2, [0, 1], [(0, 1, 1), (1, 1, 2)], 0)
    c = core(g)
    assert 0 in c.vertices
    assert len(c.vertices) == 2


def test_membership_against_oracle():
    gens = [_words("aa", "b"), _words("abA"), _words("ab", "ba"), _words("aba", "bb")]
    for gen_set in gens:
        h = subgroup_graph(gen_set, 2)
        raw = {w.letters for w in gen_set}
        cl = oracles.closure(raw, max_factors=6, lmax=12)
        for letters in oracles.ball(2, 5):
            w = Word(letters, 2)
            if letters in cl:
                assert h.contains(w), (gen_set, w)
            elif h.contains(w):
                # the oracle ball is bounded; confirm with a deeper pass
                deep = oracles.closure(raw, max_factors=10, lmax=12)
                assert letters in deep, (gen_set, w)


def _walk_tree(g: LabeledGraph, root) -> set:
    """The tree edges of the walk from root, on g's vertex labels."""
    _, tree, _ = _walk(g.table, g.vertex_index[root])
    return {(g.vertices[u], g.vertices[v], t) for u, v, t in tree}


def test_spanning_tree_and_path_words():
    g = subgroup_graph(_words("abABa", "b"), 2).graph
    words, tree, _ = oracles.oracle_walk(g.n, g.vertices, g.edges, g.basepoint)
    assert _walk_tree(g, g.basepoint) == tree
    assert len(tree) == len(g.vertices) - 1
    paths = path_words_from(g, g.basepoint)
    assert [(v, w.letters) for v, w in paths.items()] == list(words.items())
    for v, w in paths.items():
        assert trace(g, g.basepoint, w) == v
    folds = make_graph(2, [0, 1, 2], [(0, 1, 1), (0, 2, 1)], 0)
    with pytest.raises(PreconditionError):
        path_words_from(folds, 0)


def test_trace_missing_edge_is_none():
    w = wedge_graph(1)
    assert trace(w, w.basepoint, Word.parse("ab", 2)) is None


def test_relabel_canonical_refuses_graphs_it_cannot_number():
    two_parts = make_graph(2, [0, 1, 2], [(0, 0, 1), (1, 2, 1)], 0)
    for g in (two_parts, make_graph(2, [0, 1], [(0, 1, 1), (0, 0, 1)], 0), make_graph(2, [0], [])):
        with pytest.raises(PreconditionError):
            relabel_canonical(g)
    with pytest.raises(PreconditionError):
        relabel_canonical(fold(read_graph(graph_to_dict(two_parts))))


def test_relabel_canonical_is_stable():
    h = subgroup_graph(_words("ab", "aab"), 2)
    g1 = relabel_canonical(h.graph)
    g2 = relabel_canonical(g1)
    assert g1 == g2


def test_morphism_validation():
    h = subgroup_graph(_words("aab"), 2)
    f = to_wedge(h.graph)
    assert f.vertices.tolist() == [0] * len(h.graph.vertices)
    assert f.edges.tolist() == [i - 1 for _, _, i in h.graph.sorted_edges]
    with pytest.raises(InputError, match=r"edge \(2, 0, 2\) has no image edge \(0, 0, 2\)"):
        to_wedge(h.graph, IndexGraph.of(wedge_graph(1)))
    huge = IndexGraph.of(make_graph(2**61, [0, 1], [(0, 1, 2**61)]))
    with pytest.raises(ResourceCapError, match="overflow the edge keys"):
        index_morphism(huge, huge, [0, 1])


def test_index_morphism_matches_the_lookup_oracle():
    rng = random.Random(31)
    refused = 0
    for _ in range(200):
        y = IndexGraph.of(random_cover_of_wedge(rng, 2, rng.randint(1, 3)))
        x = IndexGraph.of(random_raw_graph(rng, 2, 5))
        images = [rng.randrange(y.size) for _ in range(x.size)]
        want = oracles.oracle_morphism(x, y, images)
        if want is None:
            refused += 1
            with pytest.raises(InputError, match="has no image edge"):
                index_morphism(x, y, images)
            continue
        got = index_morphism(x, y, images)
        assert got.vertices.tolist() == images and got.edges.tolist() == want.edges.tolist()
    assert 0 < refused < 200


_LABEL_KINDS = {
    "int": lambda k: k * 7 % 23,
    "str": lambda k: f"v{k}",
    "tuple": lambda k: (k % 3, str(k)),
}


def _random_raw_graph(rng: random.Random, kind: str):
    """A random labeled graph in scrambled vertex order, often with loops,
    parallel edges and several components; sometimes the basepoint hangs
    off the rest by one edge."""
    name = _LABEL_KINDS[kind]
    n = rng.randint(1, 3)
    names = [name(k) for k in range(rng.randint(1, 14))]
    rng.shuffle(names)
    edges = []
    for _ in range(rng.randint(0, 2 * len(names) + 2)):
        u = rng.choice(names)
        v = u if rng.random() < 0.15 else rng.choice(names)
        edges.append((u, v, rng.randint(1, n)))
        if rng.random() < 0.15:
            edges.append((u, v, rng.randint(1, n)))
    bp = rng.choice(names)
    if rng.random() < 0.4:
        bp = name(len(names))
        names.append(bp)
        edges.append((rng.choice(names[:-1]), bp, rng.randint(1, n)))
    return make_graph(n, names, edges, bp)


def test_fold_and_core_match_the_quadratic_reference():
    rng = random.Random(20261018)
    seen = {"loops": 0, "parallel": 0, "components": 0, "leaf_basepoint": 0}
    for case in range(600):
        g = _random_raw_graph(rng, sorted(_LABEL_KINDS)[case % 3])
        folded = fold(g)
        reference = oracles.oracle_fold(g)
        assert folded == reference
        assert graph_to_dict(folded) == graph_to_dict(reference)
        assert core(g) == oracles.oracle_core(g)
        assert relabel_canonical(core(folded)) == relabel_canonical(
            oracles.oracle_core(reference)
        )
        seen["loops"] += any(u == v for u, v, _ in g.edges)
        seen["parallel"] += len({(u, v) for u, v, _ in g.edges}) < len(g.edges)
        seen["components"] += len(folded.component_lists) > 1
        seen["leaf_basepoint"] += core(folded).degrees[folded.basepoint] == 1
    assert min(seen.values()) >= 20, seen


def _document(rng: random.Random, g) -> dict:
    """g as a graph document in the forms a reader meets: letters as
    letters, ints or digit strings, vertex ids repeated after their first
    place, repeated edges, tuple labels as lists (through a JSON round
    trip), and now and then no basepoint."""
    doc = graph_to_dict(g)
    for edge in doc["edges"]:
        i = ord(edge[2]) - ord("a") + 1
        edge[2] = rng.choice([edge[2], i, str(i)])
    vertices, edges = doc["vertices"], doc["edges"]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(vertices))
        vertices.insert(rng.randint(k + 1, len(vertices)), vertices[k])
    for _ in range(rng.randint(0, 2) if edges else 0):
        edges.insert(rng.randint(0, len(edges)), list(rng.choice(edges)))
    if rng.random() < 0.1:
        del doc["basepoint"]
    return json.loads(json.dumps(doc))


def _text(g) -> str:
    return json.dumps(graph_to_dict(g))


def test_read_fold_core_canonical_match_the_labelled_route():
    # the reader's int lists against make_graph, and fold, core and the
    # canonical numbering on them against the quadratic references and the
    # LabeledGraph route, as JSON text; the counts the tracer reads agree
    rng = random.Random(20261019)
    seen = {"loops": 0, "parallel": 0, "repeated ids": 0, "repeated edges": 0, "int letters": 0, "digit letters": 0,
            "leaf basepoint": 0}
    for case in range(600):
        g = _random_raw_graph(rng, sorted(_LABEL_KINDS)[case % 3])
        doc = _document(rng, g)
        if "basepoint" not in doc:
            g = make_graph(g.n, g.vertices, g.edges)
        lists = read_graph(doc)
        assert lists.graph == graph_from_dict(doc) == g
        assert len(lists.edges) == len(g.edges) and len(lists.vertices) == len(g.vertices)
        folded = fold(lists)
        reference = oracles.oracle_fold(g)
        assert _text(folded.graph) == _text(fold(g)) == _text(reference)
        assert len(folded.vertices) == len(reference.vertices)
        if g.basepoint is None:
            with pytest.raises(PreconditionError):
                core(folded)
            continue
        cored = core(folded)
        assert _text(cored.graph) == _text(core(fold(g))) == _text(oracles.oracle_core(reference))
        assert len(cored.vertices) == len(core(reference).vertices)
        assert _text(relabel_canonical(cored)) == _text(relabel_canonical(oracles.oracle_core(reference)))
        seen["loops"] += any(u == v for u, v, _ in g.edges)
        seen["parallel"] += len({(u, v) for u, v, _ in g.edges}) < len(g.edges)
        seen["repeated ids"] += len(doc["vertices"]) > len(g.vertices)
        seen["repeated edges"] += len(doc["edges"]) > len(g.edges)
        seen["int letters"] += any(type(e[2]) is int for e in doc["edges"])
        seen["digit letters"] += any(str(e[2]).isdigit() and type(e[2]) is str for e in doc["edges"])
        seen["leaf basepoint"] += g.degrees[g.basepoint] == 1
    assert min(seen.values()) >= 20, seen


def _bouquet(words, n: int):
    """The wedge of one loop per word as a LabeledGraph, built as
    subgroup_graph built it before its int lists."""
    vertices, edges = [0], []
    for w in words:
        prev = 0
        for k, t in enumerate(w.letters):
            nxt = 0 if k == len(w.letters) - 1 else len(vertices)
            if nxt:
                vertices.append(nxt)
            edges.append((prev, nxt, t) if t > 0 else (nxt, prev, -t))
            prev = nxt
    return make_graph(n, vertices, edges, 0)


def test_subgroup_graph_matches_the_quadratic_route():
    rng = random.Random(7)
    cases = [([], 2), ([""], 2), (["", "a", ""], 1), (["a", "a"], 2), (["aA"], 1)]
    for _ in range(300):
        n = rng.randint(1, 3)
        texts = []
        for _ in range(rng.randint(0, 4)):
            letters = [rng.choice([i for i in range(-n, n + 1) if i]) for _ in range(rng.randint(0, 8))]
            texts.append("".join(chr(ord("a" if t > 0 else "A") + abs(t) - 1) for t in letters))
        cases.append((texts, n))
    for texts, n in cases:
        words = [Word.parse(t, n) for t in texts]
        reference = relabel_canonical(oracles.oracle_core(oracles.oracle_fold(_bouquet(words, n))))
        assert _text(subgroup_graph(words, n).graph) == _text(reference), texts


def _random_immersed_graph(rng: random.Random) -> LabeledGraph:
    """One random partial injection per letter on shuffled mixed labels, no
    basepoint: loops, several components and isolated vertices all occur."""
    n, size = rng.randint(1, 3), rng.randint(1, 12)
    labels = rng.sample(list(range(40)) + [f"v{i}" for i in range(40)], size)
    edges = []
    for i in range(1, n + 1):
        dom = rng.sample(range(size), rng.randint(0, size))
        edges += [(labels[a], labels[b], i) for a, b in zip(dom, rng.sample(range(size), len(dom)))]
    rng.shuffle(edges)
    return LabeledGraph(n, tuple(labels), tuple(edges))


def test_walk_matches_a_slot_order_bfs():
    rng = random.Random(41)
    seen = dict.fromkeys(("components", "loop edge", "root not first", "several loops"), 0)
    for _ in range(400):
        g = _random_immersed_graph(rng)
        root = rng.choice(g.vertices)
        words, tree, loops = oracles.oracle_walk(g.n, g.vertices, g.edges, root)
        paths = path_words_from(g, root)
        assert [(v, w.letters) for v, w in paths.items()] == list(words.items()), (g, root)
        assert _walk_tree(g, root) == tree, (g, root)
        comp = g.restrict(words, root)
        assert [w.letters for w in cycle_basis(comp)] == loops, (g, root)
        if len(words) < len(g.vertices):
            with pytest.raises(InputError, match="connected"):
                cycle_basis(g, root)
        else:
            assert [w.letters for w in cycle_basis(g, root)] == loops
        number = {v: k for k, v in enumerate(words)}
        canon = relabel_canonical(comp)
        assert canon.vertices == tuple(range(len(words)))
        assert canon.edges == tuple(sorted((number[u], number[v], i) for u, v, i in comp.edges))
        seen["components"] += len(g.component_lists) > 1
        seen["loop edge"] += any(u == v for u, v, _ in comp.edges)
        seen["root not first"] += root != g.vertices[0]
        seen["several loops"] += len(loops) > 1
    assert min(seen.values()) >= 20, seen


def test_relabel_hands_on_the_walk_of_its_result():
    # the walk does not depend on the numbering, so the walk that numbered a
    # graph, renumbered, is a fresh walk of the graph it numbered
    rng = random.Random(47)
    seen = dict.fromkeys(("loop edge", "three letters"), 0)
    for _ in range(300):
        g = _random_immersed_graph(rng)
        root = rng.choice(g.vertices)
        comp = g.restrict(path_words_from(g, root), root)
        canon = relabel_canonical(comp).table
        assert "walk" in canon.__dict__, comp
        assert canon.walk == list(bfs_edges(canon.slot_steps.__getitem__, 0)), comp
        seen["loop edge"] += any(u == v for u, v, _ in comp.edges)
        seen["three letters"] += comp.n == 3 and len({i for *_, i in comp.edges}) == 3
    assert min(seen.values()) >= 20, seen


def test_a_subgroup_graph_is_walked_once(monkeypatch):
    # after relabel_canonical numbers a subgroup's graph, the connectivity
    # check, its cycle basis and its path words read the walk it handed on
    searches = []
    real = graphs.bfs_edges
    monkeypatch.setattr(graphs, "bfs_edges", lambda steps, root: searches.append(root) or real(steps, root))
    raw = {"n": 2, "vertices": [0, 1, 2, 3], "basepoint": 0,
           "edges": [[0, 1, "a"], [1, 0, "a"], [0, 2, "b"], [2, 0, "b"], [0, 3, "a"]]}
    h = subgroup_from_dict(raw)  # the core's search, then the walk that numbers it
    assert len(searches) == 2
    searches.clear()
    result = is_malnormal(h)
    assert result.certificate is not None
    assert len(searches) == 1  # the cycle basis of the bad component, not of h
    cyclic = subgroup_from_dict(graph_to_dict(subgroup_graph(_words("aa"), 2).graph))
    searches.clear()
    assert not is_l_root_closed(cyclic, 2).closed
    assert searches == []
    for table in (h.graph.table, cyclic.graph.table):
        assert "slot_steps" not in table.__dict__


def _raw_edge_graph(rng: random.Random) -> IndexGraph:
    """A graph with repeats allowed, on up to 12 vertices in up to three
    vertex classes that no edge joins: loops, repeated edges, isolated
    vertices and several components all occur."""
    nv = rng.randint(1, 12)
    tag = [rng.randrange(3) for _ in range(nv)]
    edges = []
    for _ in range(rng.randint(0, 2 * nv)):
        u = rng.randrange(nv)
        roll = rng.random()
        if roll < 0.15:
            edges.append((u, u, rng.randint(1, 2)))
        elif roll < 0.3 and edges:
            edges.append(rng.choice(edges))
        else:
            v = rng.choice([w for w in range(nv) if tag[w] == tag[u]])
            edges.append((u, v, rng.randint(1, 2)))
    return IndexGraph.of(LabeledGraph(2, tuple(range(nv)), tuple(sorted(edges))))


def test_spanning_forest_matches_the_adjacency_list_oracle():
    # the forest's steps are sliced from edge ends sorted by vertex; the
    # oracle lists each vertex's edges in a Python adjacency list instead
    rng = random.Random(40)
    seen = dict.fromkeys(("loop", "repeated edge", "isolated vertex", "several components"), 0)
    for _ in range(400):
        x = _raw_edge_graph(rng)
        forest = _spanning_forest(x)
        edges = list(zip(x.src.tolist(), x.dst.tolist(), x.letter.tolist()))
        want = oracles.oracle_spanning_forest(x.size, edges)
        for name, values in want.items():
            got = getattr(forest, name)
            assert np.array_equal(got, np.array(values, dtype=got.dtype)), (name, x.size, edges)
        seen["loop"] += any(u == v for u, v, _ in edges)
        seen["repeated edge"] += len(set(edges)) < len(edges)
        seen["isolated vertex"] += len({w for u, v, _ in edges for w in (u, v)}) < x.size
        seen["several components"] += len(x.component_sizes) > 1
    assert min(seen.values()) >= 40, seen


def test_walk_loops_equal_the_products_of_their_path_words():
    # each chord loop is written as one word: path(u) * t * path(w)^-1
    rng = random.Random(43)
    for _ in range(300):
        g = _random_immersed_graph(rng)
        words, tree, loops = _walk(g.table, rng.randrange(len(g.vertices)))
        chords = sorted(
            (u, w, t) for u in words for t, w in g.table.steps[u].items() if t > 0 and (u, w, t) not in tree
        )
        assert loops == [words[u] * Word((t,), g.n) * words[w].inverse() for u, w, t in chords], g


def test_walk_readers_refuse_a_root_that_is_not_a_vertex():
    g = subgroup_graph(_words("ab", "aBB"), 2).graph
    readers = (path_words_from, cycle_basis, lambda g, v: trace(g, v, Word((), 2)))
    for read in readers:
        with pytest.raises(InputError, match="99 is not a vertex"):
            read(g, 99)


def test_subgroup_graph_refuses_each_broken_invariant():
    a, b = _words("a", "b")
    loop_a = make_graph(2, [0], [(0, 0, 1)], 0)
    cases = [
        ("needs a basepoint", make_graph(2, [0], [(0, 0, 1)]), ()),
        ("must be immersed", make_graph(2, [0, 1], [(0, 0, 1), (0, 1, 1), (1, 1, 2)], 0), ()),
        ("must be immersed", LabeledGraph(2, (0,), ((0, 0, 1), (0, 0, 1)), 0), ()),
        ("must be connected", make_graph(2, [0, 1], [(0, 0, 1), (1, 1, 1)], 0), ()),
        ("must be core", make_graph(2, [0, 1], [(0, 0, 1), (0, 1, 2)], 0), ()),
        ("is not a loop at the basepoint", loop_a, (a, b)),
    ]
    for message, g, gens in cases:
        with pytest.raises(InputError, match=message):
            SubgroupGraph(g, gens)
    assert SubgroupGraph(loop_a, (a,)).rank() == 1


def test_core_and_canonical_numbering_ask_for_a_folded_graph():
    raw = read_graph(graph_to_dict(make_graph(1, [0, 1], [(0, 1, 1), (0, 0, 1)], 0)))
    for step in (core, relabel_canonical):
        with pytest.raises(PreconditionError, match="fold it first"):
            step(raw)
    assert relabel_canonical(core(fold(raw))) == wedge_graph(1)


def test_the_empty_graph_has_no_component():
    empty = make_graph(2, [], [])
    assert not empty.is_connected and not IndexGraph.of(empty).is_connected
    with pytest.raises(InputError, match="rank of the empty graph is undefined"):
        rank(empty)
    with pytest.raises(InputError, match="disconnected"):
        rank(make_graph(2, [0, 1], []))
    assert rank(make_graph(2, [0], [(0, 0, 1)])) == 1


def test_component_ranks_on_thousands_of_components():
    # four component shapes with known E - V + 1, their vertices shuffled,
    # so component order is the order of each component's first vertex
    shapes = {
        0: ([0], [], 0),
        1: ([0], [(0, 0, 1)], 1),
        2: ([0, 1], [(0, 1, 1), (1, 1, 2)], 1),
        3: ([0, 1], [(0, 1, 1), (0, 1, 2), (1, 1, 1)], 2),
    }
    rng = random.Random(3)
    kinds = [rng.randrange(4) for _ in range(4000)]
    vertices, edges = [], []
    for k, kind in enumerate(kinds):
        local, local_edges, _ = shapes[kind]
        vertices += [(k, x) for x in local]
        edges += [((k, u), (k, v), i) for u, v, i in local_edges]
    rng.shuffle(vertices)
    first = {}
    for v in vertices:
        first.setdefault(v[0], len(first))
    g = make_graph(2, vertices, edges)
    expected = [shapes[kinds[k]][2] for k in sorted(first, key=first.get)]
    assert IndexGraph.of(g).component_ranks() == expected
