from __future__ import annotations

import random
from math import comb

import numpy as np
import pytest

import oracles
from stallings import (
    CoverDescription,
    FpMatrix,
    GraphMorphism,
    InputError,
    LabeledGraph,
    PostconditionError,
    PreconditionError,
    TwistedMatrix,
    Word,
    build_cover,
    chain_complex,
    fiber_product,
    gersten_check,
    h1_basis,
    induced_h1_map,
    make_graph,
    one_minus_t_factor,
    one_minus_t_valuation,
    pullback,
    subgroup_graph,
    to_wedge_morphism,
    tw_convolve,
    wedge_graph,
)
from stallings import homology
from stallings.homology import _t_to_s


def _sub(*texts: str, n: int = 2):
    return subgroup_graph([Word.parse(t, n) for t in texts], n)


# -- plain GF(p) linear algebra ---------------------------------------------------


def test_fp_matrix_rank_hand_cases():
    assert FpMatrix.from_array([[1, 1], [1, 1]], 2).rank == 1
    assert FpMatrix.from_array([[1, 1], [1, 2]], 3).rank == 2
    assert FpMatrix.from_array([[2, 4], [1, 2]], 5).rank == 1
    assert FpMatrix.identity(4, 7).is_isomorphism
    assert FpMatrix.zeros(3, 2, 2).rank == 0


def test_fp_matrix_rejects_non_prime():
    with pytest.raises(InputError):
        FpMatrix.from_array([[1]], 4)


def test_fp_matrix_rejects_unreduced_and_non_2d_arrays():
    with pytest.raises(InputError, match="not reduced mod 3"):
        FpMatrix(3, np.array([[0, 3]], dtype=np.int64))
    with pytest.raises(InputError, match="not reduced mod 3"):
        FpMatrix(3, np.array([[-1]], dtype=np.int64))
    for bad in (np.arange(3), np.zeros((1, 1, 3), dtype=np.int64), np.zeros((2, 2))):
        with pytest.raises(InputError, match="shape"):
            FpMatrix(3, bad)
    with pytest.raises(InputError, match="shape"):
        TwistedMatrix(3, np.zeros((1, 1, 2), dtype=np.int64))


def test_matrix_arrays_are_read_only():
    m = FpMatrix.from_array([[1, 2], [3, 4]], 5)
    t = TwistedMatrix.from_array(np.ones((2, 1, 3), dtype=np.int64), 3)
    for arr in (m.array, t.array, FpMatrix.identity(2, 3).array, t.restriction().array):
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert (m.rows, m.cols, t.rows, t.cols) == (2, 2, 2, 1)


def test_solve_is_verified_by_multiplication():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = FpMatrix.from_array(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p
            )
            x = FpMatrix.from_array(
                [[rng.randrange(p)] for _ in range(cols)], p
            )
            b = a @ x
            sol = a.solve(b)
            assert sol is not None
            assert np.array_equal((a @ sol).array, b.array)


def _seeded_residue_matrices(rng, p: int, count: int):
    """Dense and sparse matrices up to 12x12, some with zero rows or
    columns, some empty."""
    for _ in range(count):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        density = rng.choice((0.1, 0.4, 1.0))
        a = np.array(
            [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)],
            dtype=np.int64,
        ).reshape(rows, cols)
        if rows and rng.random() < 0.3:
            a[rng.randrange(rows)] = 0
        if cols and rng.random() < 0.3:
            a[:, rng.randrange(cols)] = 0
        yield a


def test_row_reduce_matches_the_row_by_row_reference(monkeypatch):
    rng = random.Random(5)
    cases = [
        (p, a) for p in (2, 3, 5, 7, 31, 101) for a in _seeded_residue_matrices(rng, p, 60)
    ]
    got = []
    for p, a in cases:
        red, pivots = homology._row_reduce(a, p)
        want_red, want_pivots = oracles.oracle_row_reduce(a.copy(), p)
        assert pivots == want_pivots and np.array_equal(red, want_red), (p, a)
        m = FpMatrix(p, a)
        column = [[rng.randrange(p)] for _ in range(m.rows)]
        rhs = FpMatrix(p, np.array(column, dtype=np.int64).reshape(-1, 1))
        got.append((m.rank, m.solve(rhs), rhs))
    monkeypatch.setattr(homology, "_row_reduce", oracles.oracle_row_reduce)
    for (p, a), (rank, sol, rhs) in zip(cases, got):
        m = FpMatrix(p, a)
        want_sol = m.solve(rhs)
        assert rank == m.rank
        assert (sol is None) == (want_sol is None)
        assert sol is None or np.array_equal(sol.array, want_sol.array)


def test_solve_reports_unsolvable_systems():
    a = FpMatrix.from_array([[1], [1]], 2)
    b = FpMatrix.from_array([[0], [1]], 2)
    assert a.solve(b) is None


# -- graph homology ---------------------------------------------------------------


def test_chain_complex_boundary_shape():
    h = _sub("abABa", "b")
    cc = chain_complex(h.graph, 3)
    assert cc.boundary.array.shape == (5, 6)
    # every column has one +1 and one -1, or is zero for a loop
    for j in range(6):
        col = cc.boundary.column(j)
        assert int(col.sum()) % 3 == 0


def test_h1_basis_dimension_and_cycles():
    rng = random.Random(2)
    pool = ["a", "b", "ab", "aa", "abA", "bab", "aab", "bb"]
    for _ in range(25):
        h = _sub(*rng.sample(pool, rng.randint(1, 3)))
        g = h.graph
        for p in (2, 3, 5):
            basis = h1_basis(g, p)
            expected = len(g.edges) - len(g.vertices) + 1
            assert basis.array.shape == (len(g.edges), expected)
            bd = chain_complex(g, p).boundary
            assert not np.any((bd @ basis).array)
            assert basis.rank == expected
            # chord coordinates: each column is 1 on its own chord, 0 on the others
            chords = ~homology._spanning_forest(g).is_tree
            assert np.array_equal(basis.array[chords], np.eye(expected, dtype=np.int64))


def test_h1_basis_counts_a_repeated_edge():
    # two copies of one edge bound a cycle: tree edges are told apart by
    # position, not by their (tail, head, letter) triple
    g = LabeledGraph(1, (0, 1), ((0, 1, 1), (0, 1, 1)))
    assert h1_basis(g, 3).array.tolist() == [[2], [1]]


def test_induced_h1_map_known_isomorphism():
    h = _sub("abABa", "b")
    f = to_wedge_morphism(h.graph)
    for p in (2, 3, 5):
        assert induced_h1_map(f, p).is_isomorphism


def test_induced_h1_map_known_degenerate_case():
    # exponent vectors of a and bab agree mod 2, so the induced map
    # drops rank at p = 2 but not at p = 3
    h = _sub("a", "bab")
    f = to_wedge_morphism(h.graph)
    assert not induced_h1_map(f, 2).is_injective
    assert induced_h1_map(f, 3).is_isomorphism


def _induced_map_cases():
    """Morphisms whose codomains have tree edges, so that reading the wrong
    rows would show: lifts of ``gersten_check`` squares, projections of
    fiber products (domains with several components) and their pull-back
    lifts, with cocycle value 0 giving loops, and a codomain that is a tree."""
    rng = random.Random(14)
    pool = ["a", "b", "ab", "aa", "abA", "bab", "aab", "bb", "aBaB"]
    for p in (2, 3, 5, 7):
        for k in range(6):
            h = _sub(*rng.sample(pool, rng.randint(1, 3)))
            values = {1: 1, 2: 0} if k == 0 else {1: rng.randrange(p), 2: rng.randrange(p)}
            yield _square(h, p, values)[3], p
            proj = fiber_product(h, _sub(*rng.sample(pool, rng.randint(1, 3)))).projection("left")
            yield proj, p
            cover = CoverDescription.from_dict(
                h.graph, p, {e: rng.randrange(p) for e in h.graph.edges}
            )
            yield pullback(proj, build_cover(cover))[1], p
    # a cycle x -a-> y <-a- x' -b-> w <-b- x folded onto a tree
    square = make_graph(2, ["x", "X", "y", "w"], [("x", "y", 1), ("X", "y", 1), ("X", "w", 2), ("x", "w", 2)])
    tree = make_graph(2, [0, 1, 2], [(0, 1, 1), (0, 2, 2)])
    to_tree = GraphMorphism.from_dict(square, tree, {"x": 0, "X": 0, "y": 1, "w": 2})
    for p in (2, 3, 5, 7):
        yield to_tree, p


def test_induced_h1_map_matches_the_elimination_oracle():
    seen = {"several components": 0, "codomain loops": 0, "tree codomain": 0, "rank >= 2": 0}
    for f, p in _induced_map_cases():
        got = induced_h1_map(f, p).array
        want = oracles.oracle_induced_h1_map(f, p)
        assert want is not None and np.array_equal(got, want), (f, p)
        seen["several components"] += len(f.domain.component_lists) > 1
        seen["codomain loops"] += any(u == v for u, v, _ in f.codomain.edges)
        seen["tree codomain"] += got.shape[0] == 0
        seen["rank >= 2"] += got.shape[0] >= 2 and len(f.codomain.vertices) > 1
    assert all(seen.values()), seen


def test_induced_h1_map_rejects_an_image_that_is_not_a_cycle(monkeypatch):
    # two edges 0 -> 1 and 1 -> 0 form a cycle; sending both to 0 -> 1
    # gives twice that edge, whose boundary is not zero mod 3
    g = make_graph(1, [0, 1], [(0, 1, 1), (1, 0, 1)])
    f = GraphMorphism.from_dict(g, g, {0: 0, 1: 1})
    assert induced_h1_map(f, 3).is_isomorphism
    monkeypatch.setattr(GraphMorphism, "edge_image", lambda self, e: (0, 1, 1))
    with pytest.raises(PostconditionError, match="image of a cycle fell outside the cycle space"):
        induced_h1_map(f, 3)


# -- the twisted module -----------------------------------------------------------


def test_tw_convolve_is_cyclic():
    p = 5
    t = np.zeros(p, dtype=np.int64)
    t[1] = 1
    acc = np.zeros(p, dtype=np.int64)
    acc[0] = 1
    for _ in range(p):
        acc = tw_convolve(acc, t, p)
    assert acc[0] == 1 and not np.any(acc[1:])


def test_one_minus_t_is_nilpotent_of_index_p():
    for p in (2, 3, 5):
        omt = np.zeros(p, dtype=np.int64)
        omt[0], omt[1] = 1, p - 1
        acc = np.zeros(p, dtype=np.int64)
        acc[0] = 1
        for k in range(1, p + 1):
            acc = tw_convolve(acc, omt, p)
            expected = k if k < p else p
            assert one_minus_t_valuation(acc, p) == expected


def test_basis_change_matches_binomials_and_is_shared_read_only():
    for p in (2, 3, 5, 31):
        m = _t_to_s(p)
        expected = [[comb(j, k) * (-1) ** k % p for j in range(p)] for k in range(p)]
        assert m.tolist() == expected
        assert _t_to_s(p) is m
        with pytest.raises(ValueError):
            m[0, 0] = 0
        # t -> s -> t is the identity: the one matrix serves both ways
        assert np.array_equal(m @ m % p, np.eye(p, dtype=np.int64))


def test_one_minus_t_factor_round_trip():
    rng = random.Random(4)
    for p in (2, 3, 5):
        omt = np.zeros(p, dtype=np.int64)
        omt[0], omt[1] = 1, p - 1
        for _ in range(30):
            vec = np.array(
                [[rng.randrange(p) for _ in range(p)] for _ in range(2)],
                dtype=np.int64,
            )
            k, w = one_minus_t_factor(vec, p)
            if k >= p:
                assert not np.any(vec % p)
                continue
            rebuilt = w.copy()
            for _ in range(k):
                rebuilt = np.stack(
                    [tw_convolve(row, omt, p) for row in rebuilt]
                )
            assert np.array_equal(rebuilt % p, vec % p)
            assert one_minus_t_valuation(w, p) == 0


def test_twisted_identity_and_nilpotent():
    p = 3
    ident = np.zeros((2, 2, p), dtype=np.int64)
    ident[0, 0, 0] = ident[1, 1, 0] = 1
    m = TwistedMatrix.from_array(ident, p)
    assert m.is_injective
    assert m.specialize().is_isomorphism

    omt = np.zeros((1, 1, p), dtype=np.int64)
    omt[0, 0, 0], omt[0, 0, 1] = 1, p - 1
    nil = TwistedMatrix.from_array(omt, p)
    assert not nil.is_injective
    assert not nil.specialize().is_injective


def test_twisted_matvec_matches_restriction():
    rng = random.Random(6)
    for p in (2, 3):
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            coeffs = np.array(
                [
                    [[rng.randrange(p) for _ in range(p)] for _ in range(cols)]
                    for _ in range(rows)
                ],
                dtype=np.int64,
            )
            m = TwistedMatrix.from_array(coeffs, p)
            vec = np.array(
                [[rng.randrange(p) for _ in range(p)] for _ in range(cols)],
                dtype=np.int64,
            )
            direct = m.matvec(vec).reshape(-1)
            via_restriction = (
                m.restriction() @ FpMatrix.from_array(vec.reshape(-1, 1), p)
            ).array.reshape(-1)
            assert np.array_equal(direct, via_restriction)


def test_specialize_injective_implies_injective():
    rng = random.Random(8)
    seen = 0
    while seen < 25:
        p = rng.choice([2, 3])
        rows = rng.randint(1, 3)
        cols = rng.randint(1, rows)
        coeffs = np.array(
            [
                [[rng.randrange(p) for _ in range(p)] for _ in range(cols)]
                for _ in range(rows)
            ],
            dtype=np.int64,
        )
        m = TwistedMatrix.from_array(coeffs, p)
        if not m.specialize().is_injective:
            continue
        assert m.is_injective
        seen += 1


# -- the lifting check ------------------------------------------------------------


def _square(h, p: int, values: dict):
    f = to_wedge_morphism(h.graph)
    wedge = wedge_graph(2)
    cover_y = CoverDescription.from_dict(
        wedge, p, {e: values[e[2]] for e in wedge.edges}
    )
    cover_x, lift = pullback(f, build_cover(cover_y))
    return f, cover_x.description, cover_y, lift


def test_gersten_check_known_pass():
    h = _sub("abABa", "b")
    for p in (2, 3):
        f, cx, cy, lift = _square(h, p, {1: 1, 2: 0})
        report = gersten_check(f, cx, cy, lift, p)
        assert report.lift_star_injective
        assert report.p == p
        assert all(0 <= k <= p for _, k in report.valuations)


def test_gersten_check_refuses_degenerate_base_map():
    h = _sub("a", "bab")
    f, cx, cy, lift = _square(h, 2, {1: 1, 2: 0})
    with pytest.raises(PreconditionError):
        gersten_check(f, cx, cy, lift, 2)
    f3, cx3, cy3, lift3 = _square(h, 3, {1: 1, 2: 0})
    report = gersten_check(f3, cx3, cy3, lift3, 3)
    assert report.lift_star_injective


def test_gersten_check_validates_the_square():
    h = _sub("abABa", "b")
    f, cx, cy, lift = _square(h, 2, {1: 1, 2: 0})
    with pytest.raises(InputError):
        gersten_check(f, cx, cy, lift, 3)
    bad_lift = to_wedge_morphism(h.graph)
    with pytest.raises(InputError):
        gersten_check(f, cx, cy, bad_lift, 2)


def test_gersten_check_failed_lift_is_a_postcondition_error(monkeypatch):
    # A lift whose H_1 map is not injective contradicts the theorem; the
    # check must raise, also under python -O, instead of reporting it.
    h = _sub("abABa", "b")
    f, cx, cy, lift = _square(h, 3, {1: 1, 2: 0})
    real = homology.induced_h1_map

    def degenerate_on_the_lift(m, p):
        image = real(m, p)
        return image if m is f else FpMatrix.zeros(image.rows, image.cols, p)

    monkeypatch.setattr(homology, "induced_h1_map", degenerate_on_the_lift)
    with pytest.raises(PostconditionError, match="injectivity failed to lift"):
        gersten_check(f, cx, cy, lift, 3)
