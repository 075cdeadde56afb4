from __future__ import annotations

import json
import random

import numpy as np
import pytest

import oracles
from stallings import (
    FpMatrix,
    IndexGraph,
    IndexMorphism,
    InputError,
    LabeledGraph,
    PostconditionError,
    PreconditionError,
    TwistedMatrix,
    Word,
    boundary_matrix,
    build_cover,
    fiber_product,
    gersten_check,
    h1_basis,
    index_morphism,
    induced_h1_map,
    make_graph,
    one_minus_t_factor,
    one_minus_t_valuation,
    pullback,
    subgroup_graph,
    to_wedge,
    wedge_graph,
)
from click.testing import CliRunner

from stallings import covers, homology
from stallings.cli import main
from stallings.serialize import graph_to_dict


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


def test_row_reduce_reduces_early_for_a_prime_near_two_to_the_31():
    # At p = 2^31 - 1 one update takes an entry near 2^62, so every further
    # pivot must reduce the whole matrix first; without that int64 wraps.
    p = 2**31 - 1
    rng = random.Random(6)
    for rows, cols in ((6, 6), (9, 14), (14, 9), (12, 12)):
        a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
        a[rng.randrange(1, rows)] = a[0]  # a dependent row
        red, pivots = homology._row_reduce(a, p)
        want_red, want_pivots = oracles.oracle_row_reduce(a.copy(), p)
        assert pivots == want_pivots and np.array_equal(red, want_red), (rows, cols)
        assert len(pivots) >= 5


def test_solve_reports_unsolvable_systems():
    a = FpMatrix.from_array([[1], [1]], 2)
    b = FpMatrix.from_array([[0], [1]], 2)
    assert a.solve(b) is None


# -- graph homology ---------------------------------------------------------------


def test_chain_complex_boundary_shape():
    h = _sub("abABa", "b")
    boundary = boundary_matrix(IndexGraph.of(h.graph), 3)
    assert boundary.array.shape == (5, 6)
    # every column has one +1 and one -1, or is zero for a loop
    for j in range(6):
        col = boundary.column(j)
        assert int(col.sum()) % 3 == 0


def test_h1_basis_counts_a_repeated_edge():
    # two copies of one edge bound a cycle: tree edges are told apart by
    # position, not by their (tail, head, letter) triple
    g = LabeledGraph(1, (0, 1), ((0, 1, 1), (0, 1, 1)))
    assert h1_basis(IndexGraph.of(g), 3).array.tolist() == [[2], [1]]


def test_induced_h1_map_known_isomorphism():
    h = _sub("abABa", "b")
    f = to_wedge(h.graph)
    for p in (2, 3, 5):
        assert induced_h1_map(f, p).is_isomorphism


def test_induced_h1_map_known_degenerate_case():
    # exponent vectors of a and bab agree mod 2, so the induced map
    # drops rank at p = 2 but not at p = 3
    h = _sub("a", "bab")
    f = to_wedge(h.graph)
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
            fp = fiber_product(h, _sub(*rng.sample(pool, rng.randint(1, 3))))
            proj = oracles.oracle_morphism(fp.space, IndexGraph.of(h.graph), fp.pairs // fp.right.size)
            yield proj, p
            base = proj.codomain
            shift = [rng.randrange(p) for _ in range(len(base.src))]
            yield pullback(proj, build_cover(base, p, shift))[1], p
    # a cycle x -a-> y <-a- x' -b-> w <-b- x folded onto a tree
    square = make_graph(2, ["x", "X", "y", "w"], [("x", "y", 1), ("X", "y", 1), ("X", "w", 2), ("x", "w", 2)])
    tree = make_graph(2, [0, 1, 2], [(0, 1, 1), (0, 2, 2)])
    to_tree = index_morphism(IndexGraph.of(square), IndexGraph.of(tree), [0, 0, 1, 2])
    for p in (2, 3, 5, 7):
        yield to_tree, p


def test_induced_h1_map_matches_the_elimination_oracle():
    seen = {"several components": 0, "codomain loops": 0, "tree codomain": 0, "rank >= 2": 0}
    for f, p in _induced_map_cases():
        got = induced_h1_map(f, p).array
        want = oracles.oracle_induced_h1_map(f, p)
        assert want is not None and np.array_equal(got, want), (f, p)
        seen["several components"] += len(f.domain.component_sizes) > 1
        seen["codomain loops"] += bool((f.codomain.src == f.codomain.dst).any())
        seen["tree codomain"] += got.shape[0] == 0
        seen["rank >= 2"] += got.shape[0] >= 2 and f.codomain.size > 1
    assert all(seen.values()), seen


def test_induced_h1_map_rejects_an_image_that_is_not_a_cycle():
    # two edges 0 -> 1 and 1 -> 0 form a cycle; sending both to 0 -> 1
    # gives twice that edge, whose boundary is not zero mod 3
    g = IndexGraph.of(make_graph(1, [0, 1], [(0, 1, 1), (1, 0, 1)]))
    f = index_morphism(g, g, [0, 1])
    assert induced_h1_map(f, 3).is_isomorphism
    both = IndexMorphism(g, g, f.vertices, np.zeros(2, dtype=np.int64))
    with pytest.raises(PostconditionError, match="image of a cycle fell outside the cycle space"):
        induced_h1_map(both, 3)


# -- the twisted module -----------------------------------------------------------


def test_tw_convolve_is_cyclic():
    p = 5
    t = np.zeros(p, dtype=np.int64)
    t[1] = 1
    acc = np.zeros(p, dtype=np.int64)
    acc[0] = 1
    for _ in range(p):
        acc = oracles.tw_convolve(acc, t, p)
    assert acc[0] == 1 and not np.any(acc[1:])


def test_one_minus_t_is_nilpotent_of_index_p():
    for p in (2, 3, 5):
        omt = np.zeros(p, dtype=np.int64)
        omt[0], omt[1] = 1, p - 1
        acc = np.zeros(p, dtype=np.int64)
        acc[0] = 1
        for k in range(1, p + 1):
            acc = oracles.tw_convolve(acc, omt, p)
            expected = k if k < p else p
            assert one_minus_t_valuation(acc, p) == expected


def _times_one_minus_t(rows: np.ndarray, p: int) -> np.ndarray:
    omt = np.zeros(p, dtype=np.int64)
    omt[0], omt[1] = 1, p - 1
    return np.array([oracles.tw_convolve(omt, row, p) for row in rows]).reshape(rows.shape)


def _reference_valuation(rows: np.ndarray, p: int) -> int:
    """(Z/p)[t]/(1 - t^p) is Z/p[s]/(s^p) with s = 1 - t, so (1-t)^k divides
    a vector exactly when (1-t)^(p-k) annihilates it."""
    for j in range(p + 1):
        if not rows.any():
            return p - j
        rows = _times_one_minus_t(rows, p)
    raise AssertionError("(1 - t)^p is not zero")


def _random_module_vector(rng: random.Random, p: int, cols: int) -> np.ndarray:
    """A random power of 1 - t times random rows, with a row zeroed now and
    then; rows of length p, one per module coordinate."""
    vec = np.array([rng.randrange(p) for _ in range(cols * p)], dtype=np.int64).reshape(cols, p)
    for _ in range(rng.randint(0, p)):
        vec = _times_one_minus_t(vec, p)
    if cols and rng.random() < 0.3:
        vec[rng.randrange(cols)] = 0
    return vec


def test_one_minus_t_factor_round_trip():
    # the closed forms against the convolution reference, on the zero
    # vector, the empty vector and vectors with zero rows as well
    rng = random.Random(4)
    for p in (2, 3, 5, 31):
        for trial in range(30):
            vec = _random_module_vector(rng, p, rng.randint(0, 3))
            if trial == 0:
                vec[:] = 0
            k, w = one_minus_t_factor(vec, p)
            assert one_minus_t_valuation(vec, p) == k == _reference_valuation(vec, p)
            rebuilt = w
            for _ in range(k):
                rebuilt = _times_one_minus_t(rebuilt, p)
            assert np.array_equal(rebuilt, vec)
            assert _reference_valuation(w, p) == (0 if k < p else p)


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
    # sparse matrices, zero rows included, against the entry-by-entry
    # convolution and against the circulant restriction
    rng = random.Random(6)
    for p in (2, 3, 5, 31):
        for _ in range(15):
            rows, cols = rng.randint(0, 3), rng.randint(1, 3)
            coeffs = np.array(
                [rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(rows * cols * p)],
                dtype=np.int64,
            ).reshape(rows, cols, p)
            m = TwistedMatrix.from_array(coeffs, p)
            vec = _random_module_vector(rng, p, cols)
            want = np.zeros((rows, p), dtype=np.int64)
            for r in range(rows):
                for c in range(cols):
                    want[r] += oracles.tw_convolve(coeffs[r, c], vec[c], p)
            direct = m.matvec(vec)
            assert np.array_equal(direct, want % p)
            via_restriction = m.restriction() @ FpMatrix.from_array(vec.reshape(-1, 1), p)
            assert np.array_equal(direct.reshape(-1, 1), via_restriction.array)


def _stack(rng: random.Random, p: int, cols: int, depth: int) -> np.ndarray:
    """depth module vectors of cols coordinates: the zero vector, a vector
    of valuation p - 1 (multiples of 1 + t + ... + t^(p-1) = (1-t)^(p-1)),
    then random ones."""
    stack = np.array([_random_module_vector(rng, p, cols) for _ in range(depth)])
    stack[0] = 0
    if depth > 1:
        stack[1] = np.array([rng.randrange(p) for _ in range(cols)])[:, None]
        stack[1, 0] = 1
    return stack.reshape(depth, cols, p)


def test_stacked_valuations_match_the_basis_change():
    rng = random.Random(9)
    seen = set()
    for p in (2, 3, 5, 7, 31):
        for _ in range(25):
            cols, depth = rng.randint(1, 3), rng.randint(1, 6)
            stack = _stack(rng, p, cols, depth)
            want = [_reference_valuation(v, p) for v in stack]
            got = one_minus_t_valuation(stack, p)
            assert got.shape == (depth,) and got.tolist() == want
            assert one_minus_t_valuation(stack[None], p).tolist() == [want]
            assert one_minus_t_valuation(stack[:1], p).tolist() == want[:1]  # a stack of one
            assert [one_minus_t_valuation(v, p) for v in stack] == want
            # unreduced entries are reduced first
            assert one_minus_t_valuation(stack - p * 3, p).tolist() == want
            seen.update((p, k) for k in want)
    assert {(p, k) for p in (2, 3, 5, 7, 31) for k in (0, 1, p - 1, p)} <= seen


def test_stacked_matvec_matches_the_per_vector_product():
    rng = random.Random(10)
    for p in (2, 3, 5, 7, 31):
        for trial in range(12):
            rows, cols, depth = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 5)
            density = 0.0 if trial == 0 else 0.4  # the zero matrix first
            coeffs = np.array(
                [rng.randrange(p) if rng.random() < density else 0 for _ in range(rows * cols * p)],
                dtype=np.int64,
            ).reshape(rows, cols, p)
            m = TwistedMatrix.from_array(coeffs, p)
            stack = _stack(rng, p, cols, depth)
            got = m.matvec(stack)
            assert got.shape == (depth, rows, p)
            for vec, image in zip(stack, got):
                want = np.zeros((rows, p), dtype=np.int64)
                for r in range(rows):
                    for c in range(cols):
                        want[r] += oracles.tw_convolve(coeffs[r, c], vec[c], p)
                assert np.array_equal(image, want % p)
                assert np.array_equal(m.matvec(vec), image)
            assert np.array_equal(m.matvec(stack + p), got)
            assert np.array_equal(m.matvec(stack[None]), got[None])


# -- the lifting check ------------------------------------------------------------


def _square(h, p: int, values: dict):
    f = to_wedge(h.graph)
    wedge = f.codomain
    cover_y = build_cover(wedge, p, [values[i] for i in wedge.letter.tolist()])
    cover_x, lift = pullback(f, cover_y)
    return f, cover_x, cover_y, lift


def test_gersten_check_known_pass():
    h = _sub("abABa", "b")
    for p in (2, 3):
        f, cx, cy, lift = _square(h, p, {1: 1, 2: 0})
        report = gersten_check(f, cx, cy, lift, p)
        assert report.lift_star_injective
        assert report.p == p
        assert all(0 <= k <= p for _, k in report.valuations)


def test_gersten_check_values_each_cycle_and_its_image(monkeypatch):
    # a matvec that also multiplies by 1 - t raises each image's valuation
    # by one (up to p) and leaves the cycles' own valuations alone
    h = _sub("abABa", "b")
    real = TwistedMatrix.matvec
    for p in (3, 5):
        f, cx, cy, lift = _square(h, p, {1: 1, 2: 1})
        plain = gersten_check(f, cx, cy, lift, p).valuations
        monkeypatch.setattr(
            TwistedMatrix, "matvec", lambda m, vec: (real(m, vec) - np.roll(real(m, vec), 1, axis=-1)) % m.p
        )
        shifted = gersten_check(f, cx, cy, lift, p).valuations
        monkeypatch.setattr(TwistedMatrix, "matvec", real)
        assert plain and shifted == tuple((k, min(j + 1, p)) for k, j in plain)


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
    bad_lift = to_wedge(h.graph)
    with pytest.raises(InputError):
        gersten_check(f, cx, cy, bad_lift, 2)
    # over a base with five vertices, a lift that keeps each sheet but moves
    # every vertex to another fiber does not commute with the projections
    x = IndexGraph.of(h.graph)
    f = index_morphism(x, x, range(x.size))
    cy = build_cover(x, 2, np.ones(len(x.src), dtype=np.int64))
    cx, lift = pullback(f, cy)
    assert gersten_check(f, cx, cy, lift, 2).lift_star_injective
    moved = IndexMorphism(lift.domain, lift.codomain, np.roll(lift.vertices, 2), lift.edges)
    with pytest.raises(InputError, match="square does not commute"):
        gersten_check(f, cx, cy, moved, 2)


def test_gersten_check_failed_lift_is_a_postcondition_error(monkeypatch):
    # A lift whose H_1 map is not injective contradicts the theorem; the
    # check must raise, also under python -O, instead of reporting it.
    h = _sub("abABa", "b")
    f, cx, cy, lift = _square(h, 3, {1: 1, 2: 0})
    real = homology._push_forward

    def degenerate_on_the_lift(m, cycles):
        image = real(m, cycles)
        return FpMatrix.zeros(image.rows, image.cols, image.p) if m is lift else image

    monkeypatch.setattr(homology, "_push_forward", degenerate_on_the_lift)
    with pytest.raises(PostconditionError, match="injectivity failed to lift"):
        gersten_check(f, cx, cy, lift, 3)


def test_gersten_check_builds_the_cover_basis_once(monkeypatch):
    # the lift's H_1 map and the valuations read one basis of the domain
    # cover's cycles
    h = _sub("abABa", "b")
    f, cx, cy, lift = _square(h, 5, {1: 2, 2: 1})
    want = gersten_check(f, cx, cy, lift, 5)
    real, spaces = homology.h1_basis, []

    def counted(g, p):
        spaces.append(g)
        return real(g, p)

    monkeypatch.setattr(homology, "h1_basis", counted)
    got = gersten_check(f, cx, cy, lift, 5)
    assert sum(g is cx.space for g in spaces) == 1 and len(spaces) == 2
    assert (got.lift_star.array.tolist(), got.valuations) == (want.lift_star.array.tolist(), want.valuations)


class _LabelsBuilt(Exception):
    pass


def test_gersten_check_builds_no_labelled_cover(monkeypatch, tmp_path):
    def refuse(*args):
        raise _LabelsBuilt

    monkeypatch.setattr(covers, "_pair_graph", refuse)
    h = _sub("abABa", "b")
    for p in (2, 3, 5, 31):
        f, cx, cy, lift = _square(h, p, {1: 1, 2: 1})
        assert gersten_check(f, cx, cy, lift, p).lift_star_injective
    with pytest.raises(_LabelsBuilt):  # labels of a cover do go through the patched function
        cx.space.graph
    config = {
        "p": 7,
        "domain": graph_to_dict(h.graph),
        "codomain": graph_to_dict(wedge_graph(2)),
        "vertex_map": [[v, 0] for v in h.graph.vertices],
        "cocycle": {"a": 3, "b": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["gersten-check", str(path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["lift_star_injective"] is True
