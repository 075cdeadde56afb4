from __future__ import annotations

import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

import oracles

from stallings import (
    FiniteQuotient,
    InputError,
    PreconditionError,
    RootClosureError,
    Word,
    constraint_satisfied,
    direct_product,
    eppa_extend,
    hypertournaments,
    make_family,
    make_hypertournament,
    prime_factors,
    separate_coset_system,
    separate_from_cyclic,
    separate_maximal_cyclic,
    verify_witness,
)
from stallings import separability
from stallings.arith import valuation
from stallings.errors import NotPartialIsomorphismError, ResourceCapError, SearchCapError
from stallings.separability import CosetSystem, _constraint_search, group_library
from stallings.separability import closure as perm_closure
from stallings.separability import p_identity, p_inv, p_mul, perm_order
from stallings.words import empty_word


def _w(text: str, n: int = 2) -> Word:
    return Word.parse(text, n)


# -- permutation plumbing -----------------------------------------------------------


def test_perm_arithmetic():
    s = (1, 0, 2)
    c = (1, 2, 0)
    assert p_mul(s, p_inv(s)) == p_identity(3)
    assert perm_order(c) == 3
    assert perm_order(p_identity(5)) == 1
    assert len(perm_closure([s, c])) == 6


def test_p_mul_returns_tuples_at_every_degree():
    assert p_mul((0,), (0,)) == (0,)
    assert p_mul((1, 0), (1, 0)) == (0, 1)
    assert type(p_mul((0,), (0,))) is tuple and type(p_mul((1, 0), (0, 1))) is tuple
    rng = random.Random(7)
    for degree in range(1, 61):
        f, g = rng.sample(range(degree), degree), rng.sample(range(degree), degree)
        f, g = tuple(f), tuple(g)
        got = p_mul(f, g)
        assert type(got) is tuple and got == tuple(g[x] for x in f), degree
    assert FiniteQuotient.trivial(2).evaluate(_w("abA")) == (0,)


def test_prime_factors():
    assert prime_factors(12) == {2, 3}
    assert prime_factors(1) == set()
    assert prime_factors(125) == {5}


# -- group orders --------------------------------------------------------------------
#
# group_order against the set-BFS reference oracles.group_closure. Checks end
# in pytest.fail rather than assert, so that they hold under -O as well.


def _order_mismatches(cases) -> list:
    """(label, perms) cases whose group_order differs from the reference."""
    out = []
    for label, perms in cases:
        expected = len(oracles.group_closure(perms))
        got = separability.group_order(perms)
        if got != expected:
            out.append((label, got, expected))
    return out


def _library_sets(p: int, rng) -> list:
    """1 to 3 seeded elements of every library group for p, a table group's
    from its ``elements``: sets of each size, or of one seeded size for a
    group of 1,000 elements or more, whose reference closure is slow."""
    cases = []
    for name, kind, data in group_library(p):
        order = data if kind == "cyclic" else data.order
        for k in (1, 2, 3) if order < 1_000 else (rng.randint(1, 3),):
            if kind == "cyclic":
                perms = [separability._rotation(data, rng.randrange(data)) for _ in range(k)]
            else:
                perms = [tuple(data.elements[rng.randrange(data.order)].tolist()) for _ in range(k)]
            cases.append((f"{name}, {k} elements", perms))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_group_order_matches_the_set_closure_on_library_groups(p):
    mismatches = _order_mismatches(_library_sets(p, random.Random(40 + p)))
    if mismatches:
        pytest.fail(f"orders differ: {mismatches}")


def test_group_order_matches_the_set_closure_on_rotations():
    rotation = separability._rotation
    cases = [
        ("degree 12, shifts 4 and 8", [rotation(12, 4), rotation(12, 8)]),
        ("degree 12, shifts 6, 9 and 0", [rotation(12, 6), rotation(12, 9), rotation(12, 0)]),
        ("degree 30, shifts 12 and 18", [rotation(30, 12), rotation(30, 18)]),
        ("degree 30, shifts 10, 15 and 6", [rotation(30, 10), rotation(30, 15), rotation(30, 6)]),
        ("degree 9, the identity", [p_identity(9)]),
        ("degree 9, the identity and shift 3", [p_identity(9), rotation(9, 3)]),
        ("degree 1", [(0,)]),
        ("degree 1, twice", [(0,), (0,)]),
        ("degree 2, shift 1", [(1, 0)]),
        ("degree 0", [()]),
    ]
    mismatches = _order_mismatches(cases)
    if mismatches:
        pytest.fail(f"orders differ: {mismatches}")
    orders = [separability.group_order(perms) for _, perms in cases]
    if orders != [3, 4, 5, 30, 1, 3, 1, 1, 2, 1]:
        pytest.fail(f"orders {orders}")


@pytest.mark.parametrize("p, levels", [(2, 3), (3, 2), (5, 2)])
def test_group_order_matches_the_set_closure_on_tower_samples(p, levels):
    rng = random.Random(50 + p)
    nodes = sum(p**i for i in range(levels))
    cases = []
    for k in (1, 2, 2, 3):
        perms = [separability._tower_perm(p, levels, [rng.randrange(p) for _ in range(nodes)]) for _ in range(k)]
        cases.append((f"{k} samples", perms))
    mismatches = _order_mismatches(cases)
    if mismatches:
        pytest.fail(f"orders differ: {mismatches}")


def test_group_order_agrees_with_the_capped_closure_on_depth_three_samples():
    # Z/3 wr Z/3 wr Z/3 has 3^13 elements, too many for the uncapped
    # reference; pairs of the fallback's samples, some of them generating
    # subgroups of it and some past the cap, are checked against the capped
    # set-BFS, order for order and refusal for refusal
    def outcome(compute, perms):
        try:
            return compute(perms)
        except ResourceCapError as exc:
            return str(exc)

    rng = random.Random(53)
    outcomes = []
    for _ in range(12):
        perms = [separability._tower_perm(3, 3, [rng.randrange(3) for _ in range(13)]) for _ in range(2)]
        got = outcome(separability.group_order, perms)
        expected = outcome(lambda g: len(perm_closure(g)), perms)
        if got != expected:
            pytest.fail(f"group_order {got}, set closure {expected}")
        outcomes.append(got)
    kinds = {type(o) for o in outcomes}
    if kinds != {int, str}:
        pytest.fail(f"the samples do not reach both sides of the cap: {outcomes}")


def test_group_order_matches_the_set_closure_on_direct_products():
    rng = random.Random(61)
    cases = []
    for p in (2, 3):
        library = group_library(p)
        for _ in range(4):
            factors = []
            for name, kind, data in rng.sample(library, 2):
                if kind == "cyclic":
                    images = tuple(separability._rotation(data, rng.randrange(data)) for _ in range(2))
                    order = data
                else:
                    images = tuple(data.perm(rng.randrange(data.order)) for _ in range(2))
                    order = data.order
                factors.append(FiniteQuotient(2, len(images[0]), order, images, name))
            q = direct_product(*factors)
            cases.append((q.name, list(q.images)))
    mismatches = _order_mismatches(cases)
    if mismatches:
        pytest.fail(f"orders differ: {mismatches}")


def test_group_order_refuses_groups_past_the_cap_with_the_closure_message():
    message = f"permutation group exceeds {separability.GROUP_ORDER_CAP} elements"
    # the rotation closed form: Z/20011, prime, past the cap
    with pytest.raises(ResourceCapError) as info:
        separability.group_order([separability._rotation(20_011, 1)])
    if str(info.value) != message:
        pytest.fail(str(info.value))
    # the stabilizer chain: a pair in Z/7 wr Z/7, whose 7^8 elements the
    # set-BFS stops listing at the cap, refused as soon as the orbits pass it
    pair = [
        separability._tower_perm(7, 2, [1, 0, 0, 0, 0, 0, 0, 0]),
        separability._tower_perm(7, 2, [0, 1, 0, 0, 0, 0, 0, 0]),
    ]
    with pytest.raises(ResourceCapError) as info:
        perm_closure(pair)
    if str(info.value) != message:
        pytest.fail(str(info.value))
    start = time.perf_counter()
    with pytest.raises(ResourceCapError) as info:
        separability.group_order(pair)
    elapsed = time.perf_counter() - start
    if str(info.value) != message or elapsed >= 1:
        pytest.fail(f"{info.value} after {elapsed:.3f} s")
    with pytest.raises(InputError):
        separability.group_order([])


# -- finite quotients ---------------------------------------------------------------


_S3 = FiniteQuotient(2, 3, 6, ((1, 0, 2), (1, 2, 0)), "S3")


def test_quotient_evaluation():
    assert len(perm_closure(_S3.images)) == _S3.order
    assert _S3.evaluate(_w("ab")) == p_mul((1, 0, 2), (1, 2, 0))
    assert _S3.evaluate(_w("aA")) == p_identity(3)
    assert len(_S3.cyclic_image(_w("b"))) == 3
    assert _S3.cyclic_image(None) == frozenset([p_identity(3)])


def test_quotient_validation():
    with pytest.raises(InputError):
        FiniteQuotient(2, 3, 6, ((1, 0, 2),), "half")
    with pytest.raises(InputError):
        FiniteQuotient(1, 2, 2, ((0, 0),), "not a perm")
    trivial = FiniteQuotient.trivial(2)
    with pytest.raises(InputError):
        trivial.evaluate(Word.parse("c", 3))


def test_direct_product_orders_multiply():
    z2 = FiniteQuotient(2, 2, 2, ((1, 0), (0, 1)), "Z2")
    prod = direct_product(_S3, z2)
    assert prod.degree == 5
    assert prod.order == 12
    assert prod.evaluate(_w("a")) == (1, 0, 2, 4, 3)


# -- witnesses ----------------------------------------------------------------------


def test_separate_maximal_cyclic_known_case():
    wit = separate_maximal_cyclic(_w("a"), _w("b"), 2)
    assert verify_witness(wit)
    assert prime_factors(wit.quotient.order) == {2}
    q = wit.quotient
    assert q.evaluate(_w("b")) not in q.cyclic_image(_w("a"))


def test_separate_maximal_cyclic_preconditions():
    with pytest.raises(PreconditionError):
        separate_maximal_cyclic(_w("aa"), _w("b"), 2)
    with pytest.raises(PreconditionError):
        separate_maximal_cyclic(_w("a"), _w("aaa"), 2)
    with pytest.raises(InputError):
        separate_maximal_cyclic(_w("a"), _w("b"), 6)


def test_separate_from_cyclic_power_case():
    wit = separate_from_cyclic(_w("aa"), _w("a"), [3])
    assert verify_witness(wit)
    assert wit.quotient.order == 2
    assert not prime_factors(wit.quotient.order) & {3}


def test_separate_from_cyclic_generic_case():
    wit = separate_from_cyclic(_w("ab"), _w("ba"), [2, 3])
    assert verify_witness(wit)
    assert not prime_factors(wit.quotient.order) & {2, 3}
    q = wit.quotient
    assert q.evaluate(_w("ba")) not in q.cyclic_image(_w("ab"))


def test_separate_from_cyclic_refuses_open_roots():
    with pytest.raises(RootClosureError) as info:
        separate_from_cyclic(_w("aa"), _w("b"), [2])
    exc = info.value
    assert exc.details["l"] == 2
    witness = exc.details["witness"]
    assert witness is not None
    from stallings import subgroup_graph

    h = subgroup_graph([_w("aa")], 2)
    assert not h.contains(witness)
    assert h.contains(witness**2)

    with pytest.raises(RootClosureError):
        separate_from_cyclic(_w("abab"), _w("a"), [2])


def test_separate_from_cyclic_input_checks():
    with pytest.raises(InputError):
        separate_from_cyclic(_w("aa"), _w("b"), [4])
    with pytest.raises(InputError):
        separate_from_cyclic(empty_word(2), _w("b"), [3])
    with pytest.raises(PreconditionError):
        separate_from_cyclic(_w("aa"), _w("aaaa"), [3])


def test_separate_from_cyclic_power_sweep():
    for i in range(2, 9):
        c = Word((1,) * i, 2)
        L = [l for l in (2, 3, 5) if i % l]
        for m in range(1, i):
            g = Word((1,) * m, 2)
            wit = separate_from_cyclic(c, g, L)
            assert verify_witness(wit), (i, m)
            assert not prime_factors(wit.quotient.order) & set(L), (i, m)


def test_witness_tampering_is_caught():
    wit = separate_from_cyclic(_w("ab"), _w("ba"), [3])
    assert verify_witness(wit)
    fake = dataclasses.replace(wit, excluded=_w("abab"))
    assert not verify_witness(fake)
    lying = dataclasses.replace(
        wit, excluded_primes=frozenset(prime_factors(wit.quotient.order))
    )
    assert not verify_witness(lying)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_witnesses_act_on_p_squared_points_and_tampering_is_caught(p):
    # pytest.fail rather than assert, so that the verdicts are checked under
    # -O as well
    wit = separate_from_cyclic(_w("bbaa"), _w("bABa"), [l for l in (2, 3, 5) if l < p])
    q = wit.quotient
    if (q.name, q.degree, q.order) != (f"Heis({p})", p**2, p**3):
        pytest.fail(f"witness in {q.name}, degree {q.degree}, order {q.order}")
    if not verify_witness(wit):
        pytest.fail("the witness is rejected")
    tampered = {"order p^2": dataclasses.replace(q, order=p**2)}
    for letter, image in enumerate(q.images):
        swapped = list(image)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        images = q.images[:letter] + (tuple(swapped),) + q.images[letter + 1 :]
        tampered[f"entries 0 and 1 of image {letter} swapped"] = dataclasses.replace(q, images=images)
    forged = {what: dataclasses.replace(wit, quotient=quotient) for what, quotient in tampered.items()}
    for k in (-2, -1, 0, 1, 3):
        forged[f"excluded word c^{k}"] = dataclasses.replace(wit, excluded=wit.subgroup**k)
    accepted = [what for what, w in forged.items() if verify_witness(w)]
    if accepted:
        pytest.fail(f"tampered witnesses accepted: {accepted}")


def test_separation_is_deterministic():
    a = separate_from_cyclic(_w("ab"), _w("ba"), [2], seed=7)
    b = separate_from_cyclic(_w("ab"), _w("ba"), [2], seed=7)
    assert a.quotient.images == b.quotient.images
    assert a.quotient.order == b.quotient.order


# -- coset systems ------------------------------------------------------------------


def _non_membership(g: Word, h: Word):
    return ((g, h), (empty_word(max(g.n, h.n)), h))


def test_constraint_semantics_on_trivial_quotient():
    q = FiniteQuotient.trivial(2)
    assert not constraint_satisfied(q, _non_membership(_w("b"), _w("a")))


def test_coset_system_single_constraint():
    cons = [_non_membership(_w("b"), _w("a"))]
    q = separate_coset_system(cons, 2, [3])
    assert constraint_satisfied(q, cons[0])
    assert not prime_factors(q.order) & {3}


def test_coset_system_multiple_constraints():
    cons = [
        _non_membership(_w("b"), _w("a")),
        _non_membership(_w("a"), _w("b")),
        _non_membership(_w("ab"), _w("ba")),
    ]
    q = separate_coset_system(cons, 2, [5])
    for c in cons:
        assert constraint_satisfied(q, c)
    assert not prime_factors(q.order) & {5}


def test_coset_system_rejects_non_prime_l():
    with pytest.raises(InputError):
        separate_coset_system([_non_membership(_w("b"), _w("a"))], 2, [6])


def test_coset_system_takes_its_letter_count_from_the_caller():
    # an empty system has no words to count letters from
    q = separate_coset_system([], 3, [2])
    assert (q.n, q.order) == (3, 1) and q.evaluate(Word.parse("c", 3)) == p_identity(1)
    with pytest.raises(InputError, match="beyond the 1 given"):
        separate_coset_system([_non_membership(_w("b"), _w("a"))], 1, [3])


# -- the decider ---------------------------------------------------------------------


def _library_quotients(rng, p: int) -> list[FiniteQuotient]:
    """F_2 quotients on seeded elements of every library group of p, and
    the direct products of neighbouring ones."""
    out = []
    for name, kind, data in group_library(p):
        if kind == "cyclic":
            shifts = [rng.randrange(data) for _ in range(2)]
            images = tuple(tuple((x + s) % data for x in range(data)) for s in shifts)
            out.append(FiniteQuotient(2, data, data, images, name))
        else:
            images = tuple(data.perm(rng.randrange(data.order)) for _ in range(2))
            out.append(FiniteQuotient(2, len(images[0]), data.order, images, name))
    return out + [direct_product(a, b) for a, b in zip(out, out[1:])]


def _eppa_style_constraints(rng, points: int = 5) -> list:
    """Constraints shaped like those of ``eppa_extend``: a path word w[x]
    per point and a loop h; each clause is (w[z] w[y]^-1, w[y] h w[y]^-1),
    so clauses share few coset words and generators."""
    w = [_random_word(rng, 3) for _ in range(points)]
    h = _random_word(rng, 3) or _w("ab")
    out = []
    for _ in range(40):
        ys, zs = rng.sample(range(points), 3), rng.sample(range(points), 3)
        out.append(tuple((w[z] * w[y].inverse(), w[y] * h * w[y].inverse()) for y, z in zip(ys, zs)))
    out += [((w[x].inverse() * w[y], h), (empty_word(2), h)) for x, y in itertools.combinations(range(points), 2)]
    out.append(((w[0], None), (w[1], None)))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_decider_matches_the_oracle(p, monkeypatch):
    rng = random.Random(2000 + p)
    evaluated = []
    evaluate = FiniteQuotient.evaluate
    monkeypatch.setattr(FiniteQuotient, "evaluate", lambda q, w: evaluated.append(w) or evaluate(q, w))
    verdicts = set()
    for q in _library_quotients(rng, p):
        constraints = _eppa_style_constraints(rng)
        # the same clause words with trivial generators: one element per coset
        constraints += [tuple((w, None) for w, _ in c) for c in constraints[:10]]
        expected = [oracles.oracle_constraint_satisfied(q, c) for c in constraints]
        verdicts.update(expected)
        assert [constraint_satisfied(q, c) for c in constraints] == expected
        for part in (constraints, constraints[-10:]):
            system = CosetSystem.of(part)
            rows = np.arange(len(part))
            rng.shuffle(rows)
            rows = rows[: rng.randint(1, len(rows))]
            evaluated.clear()
            failing = separability._unsatisfied(q, system, rows)
            # each clause is evaluated once: in a system with a generator
            # each clause the rows name, and each distinct generator once
            # more for its cyclic image; otherwise every clause of the system
            named = [system.clauses[i] for i in np.unique(system.rows[rows]).tolist()]
            generators = {h for _, h in named if h is not None}
            if any(h is not None for _, h in system.clauses):
                assert len(evaluated) == len(named) + len(generators)
            else:
                assert len(evaluated) == len(system.clauses)
            assert failing.tolist() == [not oracles.oracle_constraint_satisfied(q, part[i]) for i in rows]
    assert verdicts == {True, False}


def test_equal_words_share_one_coset():
    q = FiniteQuotient(2, 3, 6, ((1, 2, 0), (1, 0, 2)), "S3")
    a, b = Word.parse("a", 2), Word.parse("b", 2)
    built = [
        Word.parse("abA"),
        a * b * a.inverse(),
        Word((1, 2, -1), 2),
        Word.parse("abbBA", 2) * Word.parse("aBbA"),
        (a * b.inverse() * a.inverse()).inverse(),
    ]
    assert len(set(built)) == 1 and len({hash(w) for w in built}) == 1
    assert built[0] != Word.parse("aBA") and built[0] != Word((1, 2, -1), 3)
    assert sorted([Word.parse("ba"), built[1], Word.parse("aB")]) == [Word.parse("aB"), built[0], Word.parse("ba")]
    # every pair of them shares its coset, with or without a generator
    pairs = [
        ((u, h), (v, h)) for u, v in itertools.combinations(built, 2) for h in (None, a, b * a)
    ]
    for constraints in (pairs, [c for c in pairs if c[0][1] is None]):
        rows = np.arange(len(constraints))
        assert separability._unsatisfied(q, CosetSystem.of(constraints), rows).all()
    assert not any(constraint_satisfied(q, c) for c in pairs)


def _coset_systems(monkeypatch, seed: int = 11) -> list:
    """The (constraints, letters, L) systems eppa_extend hands to
    separate_coset_system on seeded tournaments and 3-hypertournaments, each
    with the one-pair maps x -> y and y -> z: one three-point component
    under two letters, which gives each system at least ten constraints."""
    systems = []

    def record(constraints, n, L, bound, seed):
        systems.append((oracles.oracle_constraint_list(constraints), n, frozenset(L)))
        return separate_coset_system(constraints, n, L, bound, seed)

    monkeypatch.setattr(hypertournaments, "separate_coset_system", record)
    rng = random.Random(seed)
    for l, n in ((2, 5), (2, 6), (3, 4), (3, 5)):
        points = list(range(n))
        rows = []
        for subset in itertools.combinations(points, l):
            row = list(subset)
            rng.shuffle(row)
            rows.append(tuple(row))
        m = make_hypertournament(points, [l], {l: rows})
        x, y, z = rng.sample(points, 3)
        eppa_extend(m, make_family(m, [{x: y}, {y: z}]))
    monkeypatch.undo()
    return systems


def _product_tier(constraints, n, L):
    """The product tier of separate_coset_system alone, on any system."""
    rows = np.arange(len(constraints))
    return separability._product_tier(CosetSystem.of(constraints), rows, n, frozenset(L), 500_000, 0)


def _oracle_unsatisfied(q, system, rows):
    """``separability._unsatisfied`` by the oracle, one constraint at a time."""
    constraints = oracles.oracle_constraint_list(system)
    return np.array(
        [not oracles.oracle_constraint_satisfied(q, constraints[i]) for i in rows.tolist()], dtype=bool
    )


def test_product_tier_is_unchanged_by_the_decider(monkeypatch):
    systems = _coset_systems(monkeypatch) + _looped_systems(monkeypatch, 5)
    assert len(systems) == 6 and min(len(cons) for cons, _, _ in systems) >= 10
    got = [_product_tier(*system) for system in systems]
    monkeypatch.setattr(separability, "_unsatisfied", _oracle_unsatisfied)
    for system, q in zip(systems, got):
        expected = _product_tier(*system)
        assert (q.images, q.order, q.name) == (expected.images, expected.order, expected.name)


def _looped_systems(monkeypatch, seed: int) -> list:
    """The systems separate_coset_system hands to its product tier while
    eppa_extend runs on seeded 3-hypertournaments on four and five points,
    each with one map that swaps two points and sends a third to a fourth
    (the first such partial isomorphism in permutation order). The swap
    closes a loop, so the clause generators are not trivial and the
    product tier serves every constraint."""
    systems = []
    product_tier = separability._product_tier

    def record(system, rows, n, L, bound, seed):
        constraints = oracles.oracle_constraint_list(system)
        systems.append(([constraints[i] for i in rows.tolist()], n, L))
        return product_tier(system, rows, n, L, bound, seed)

    monkeypatch.setattr(separability, "_product_tier", record)
    rng = random.Random(seed)
    for n in (4, 5):
        rows = [rng.sample(t, 3) for t in itertools.combinations(range(n), 3)]
        m = make_hypertournament(range(n), [3], {3: rows})
        for x, y, z, w in itertools.permutations(range(n), 4):
            try:
                family = make_family(m, [{x: y, y: x, z: w}])
            except NotPartialIsomorphismError:
                continue
            eppa_extend(m, family)
            break
    monkeypatch.undo()
    return systems


def test_pruning_trials_match_the_pairwise_products(monkeypatch):
    # Each seed-11 system of two one-pair maps keeps both of its factors,
    # one per letter. Of the seed-5 looped systems, one has a single factor
    # and the other's pruning drops the first of its two.
    systems = _coset_systems(monkeypatch, 11) + _looped_systems(monkeypatch, 5)
    kept_all = set()
    for cons, n, L in systems:
        q = _product_tier(cons, n, L)
        expected, keep = oracles.oracle_separate_coset_system(cons, n, L)
        assert (q.images, q.degree, q.order, q.name) == (
            expected.images, expected.degree, expected.order, expected.name
        )
        if len(keep) > 1:
            kept_all.add(all(keep))
    assert kept_all == {True, False}


def _trivial_generator_system(rng) -> tuple[list, int]:
    """Up to eight constraints of two or three distinct random words over
    one to three letters, every clause generator trivial, and the letter
    count. Now and then a constraint is a word and that word times a
    commutator, which no abelian quotient tells apart."""
    n = rng.randint(1, 3)
    out = []
    for _ in range(rng.randint(1, 8)):
        w = _random_word(rng, 4, n)
        if n > 1 and rng.random() < 0.1:
            u, v = _random_word(rng, 2, n), _random_word(rng, 2, n)
            words = {w, w * u * v * u.inverse() * v.inverse()}
        else:
            size = rng.randint(2, 3)
            words = {w}
            while len(words) < size:
                words.add(_random_word(rng, 4, n))
        if len(words) > 1:
            out.append(tuple((w, None) for w in sorted(words)))
    return out or [((_w("a", n), None), (empty_word(n), None))], n


def test_cyclic_tier_matches_the_brute_force_oracle(monkeypatch):
    systems = _coset_systems(monkeypatch, 11)
    rng = random.Random(4001)
    systems += [
        (*_trivial_generator_system(rng), frozenset(rng.sample([2, 3, 5], rng.randint(0, 2))))
        for _ in range(60)
    ]
    kinds = set()
    for cons, n, L in systems:
        q = separate_coset_system(cons, n, L)
        expected = oracles.oracle_cyclic_quotient(cons, n, L)
        kind = "cyclic"
        if expected is None:
            # the product tier serves the Z-obstructed constraints, and a
            # cyclic factor those its product leaves unsatisfied
            obstructed = [c for c in cons if oracles.oracle_z_obstructed(c)]
            expected = _product_tier(obstructed, n, L)
            rest = [
                c for c in cons
                if not oracles.oracle_z_obstructed(c)
                and not oracles.oracle_constraint_satisfied(expected, c)
            ]
            if rest:
                expected = direct_product(expected, oracles.oracle_cyclic_quotient(rest, n, L))
            kind = "product x cyclic" if rest else "product"
        assert (q.images, q.degree, q.order, q.name) == (
            expected.images, expected.degree, expected.order, expected.name
        ), cons
        assert all(oracles.oracle_constraint_satisfied(q, c) for c in cons)
        assert not prime_factors(q.order) & L
        kinds.add(kind)
    assert kinds == {"cyclic", "product", "product x cyclic"}


def test_systems_outside_the_cyclic_tier_take_the_product_unchanged():
    # A clause generator sends every constraint to the product tier.
    with_generator = [_non_membership(_w("b"), _w("a")), ((_w("a"), None), (_w("b"), None))]
    q = separate_coset_system(with_generator, 2, [2])
    expected = _product_tier(with_generator, 2, [2])
    assert (q.images, q.order, q.name) == (expected.images, expected.order, expected.name)
    assert all(constraint_satisfied(q, c) for c in with_generator)
    # ab and ba have one exponent-sum vector, so no abelian quotient
    # separates them: the product tier serves that constraint alone. Its
    # Heis(3) also tells a from b, which Z/3 alone would serve; c stays
    # trivial in it, so c != 1 takes a cyclic factor.
    obstructed = [((_w("ab"), None), (_w("ba"), None)), ((_w("a"), None), (_w("b"), None))]
    q = separate_coset_system(obstructed, 2, [2])
    expected = _product_tier(obstructed[:1], 2, [2])
    assert (q.images, q.order, q.name) == (expected.images, expected.order, expected.name)
    assert "Heis(3)" in q.name and all(constraint_satisfied(q, c) for c in obstructed)
    assert separate_coset_system(obstructed[1:], 2, [2]).name == "Z/3"
    three = [((_w("ab", 3), None), (_w("ba", 3), None)), ((_w("c", 3), None), (empty_word(3), None))]
    q = separate_coset_system(three, 3, [2])
    assert q.name == _product_tier(three[:1], 3, [2]).name + " x Z/3" and q.order == 81


def test_coset_system_reads_as_its_constraint_list():
    e, a, b = empty_word(2), _w("a"), _w("b")
    constraints = [
        ((a, None), (e, None)),
        ((b, a), (e, a), (_w("ab"), None)),
        ((a, None),),
        (),
        ((b, None), (a, None)),
    ]
    system = CosetSystem.of(constraints)
    assert oracles.oracle_constraint_list(system) == constraints
    # one clause per distinct (word, generator) pair of objects, and each row
    # padded to width 3 by repeating its last clause (clause 0 for the empty one)
    assert len(system.clauses) == 6 and system.widths == [2, 3, 1, 0, 2]
    assert system.rows.tolist() == [[0, 1, 1], [2, 3, 4], [0, 0, 0], [0, 0, 0], [5, 0, 0]]
    # padding leaves each verdict as it is, also for a one-clause or an empty
    # constraint, which hold nowhere; without row 1 every generator is trivial
    for images in (((1, 0), (0, 1)), ((1, 0), (1, 0))):
        q = FiniteQuotient(2, 2, 2, images, "Z/2")
        for rows in (np.arange(5), np.array([4, 0, 2, 3])):
            expected = [not oracles.oracle_constraint_satisfied(q, constraints[i]) for i in rows]
            assert separability._unsatisfied(q, system, rows).tolist() == expected


def test_eppa_coset_systems_and_their_lists_give_one_quotient(monkeypatch):
    # eppa_extend numbers its clauses by raw id; a list of the same
    # constraints is numbered afresh by word identity
    handed = []

    def record(constraints, n, L, bound, seed):
        handed.append((constraints, n, L))
        return separate_coset_system(constraints, n, L, bound, seed)

    monkeypatch.setattr(hypertournaments, "separate_coset_system", record)
    rng = random.Random(4002)
    for l, n in ((2, 5), (2, 6), (3, 4), (3, 5), (3, 6)) * 3:
        rows = [tuple(rng.sample(t, l)) for t in itertools.combinations(range(n), l)]
        m = make_hypertournament(range(n), [l], {l: rows})
        x, y, z = rng.sample(range(n), 3)
        for maps in ([{x: y}, {y: z}], [{x: y, y: x}], [{x: y, y: z, z: x}]):
            try:
                eppa_extend(m, make_family(m, maps))
            except NotPartialIsomorphismError:
                pass
    monkeypatch.undo()
    # both branches: systems with trivial generators only, and looped ones
    looped = [any(g is not None for _, g in s.clauses) for s, _, _ in handed]
    assert len(handed) >= 20 and 0 < sum(looped) < len(looped)
    for system, n, L in handed:
        assert isinstance(system, CosetSystem)
        q = separate_coset_system(system, n, L)
        from_list = separate_coset_system(oracles.oracle_constraint_list(system), n, L)
        assert (q.images, q.order, q.name) == (from_list.images, from_list.order, from_list.name)


@pytest.mark.parametrize("tier", ["_cyclic_tier", "_product_tier"])
def test_final_check_names_the_first_failing_constraint(monkeypatch, tier):
    # a -> 1 and b -> 0 in Z/3: b != 1 and b != bb fail there. The clause
    # generator of the last constraint sends the system to the product tier.
    bad = FiniteQuotient(2, 3, 3, ((1, 2, 0), (0, 1, 2)), "Z/3")
    e = empty_word(2)
    constraints = [
        ((_w("a"), None), (e, None)),
        ((_w("b"), None), (e, None)),
        ((_w("a"), None), (_w("b"), None)),
        ((_w("b"), None), (_w("bb"), None)),
    ]
    if tier == "_product_tier":
        constraints.append(_non_membership(_w("a"), _w("aaa")))
    monkeypatch.setattr(separability, tier, lambda *args: bad)
    with pytest.raises(SearchCapError) as caught:
        separate_coset_system(constraints, 2, [2])
    assert caught.value.details == {"constraint_index": 1}


@pytest.mark.parametrize("p", [2, 3])
def test_direct_product_of_three_is_the_nested_product(p):
    factors = _library_quotients(random.Random(3000 + p), p)
    for a, b, c in zip(factors, factors[1:], factors[2:]):
        flat = direct_product(a, b, c)
        assert flat == direct_product(direct_product(a, b), c)
        assert flat == direct_product(a, direct_product(b, c))
        assert flat.degree == a.degree + b.degree + c.degree
        assert flat.order == a.order * b.order * c.order


# -- the Cayley-table search ----------------------------------------------------------


def _random_word(rng, max_len: int, n: int = 2) -> Word:
    signed = [t for k in range(1, n + 1) for t in (k, -k)]
    letters: list[int] = []
    for _ in range(rng.randint(0, max_len)):
        letters.append(rng.choice([t for t in signed if not letters or t != -letters[-1]]))
    return Word(tuple(letters), n)


def _commutator(rng) -> Word:
    u, v = _random_word(rng, 2), _random_word(rng, 2)
    return u * v * u.inverse() * v.inverse()


def _random_constraints(rng, count: int):
    """Two-clause non-membership constraints, then eppa-style ones: cosets
    of conjugates of one word h, one clause per coordinate. Each coset word
    is a power of h times a commutator, which abelian quotients cannot tell
    from a power of h, so many searches go on to the non-abelian groups."""
    out = []
    for _ in range(count):
        h = _random_word(rng, 3) or _w("a")
        out.append(_non_membership(h ** rng.randint(-1, 1) * _commutator(rng), h))
    for _ in range(count):
        h = _random_word(rng, 3) or _w("b")
        clauses = []
        for _ in range(rng.randint(2, 3)):
            v = _random_word(rng, 2)
            generator = v * h * v.inverse() if rng.random() < 0.8 else None
            clauses.append((h ** rng.randint(-1, 1) * _commutator(rng), generator))
        out.append(tuple(clauses))
    return out


def _search_outcome(search, *args):
    try:
        found = search(*args)
    except SearchCapError as exc:
        return ("cap", exc.details["examined"])
    if found is None:
        return None
    q, examined = found
    return (q.name, q.images, q.order, examined)


@pytest.mark.parametrize("p, count, bound", [(2, 12, 2_000), (3, 6, 2_000), (5, 3, 600)])
def test_table_search_matches_the_permutation_search(p, count, bound):
    rng = random.Random(1000 + p)
    compared = 0
    for constraint in _random_constraints(rng, count):
        expected = _search_outcome(oracles.oracle_constraint_search, 2, p, constraint, bound)
        if expected is None:  # the library is exhausted: the fallback takes over
            continue
        got = _search_outcome(_constraint_search, 2, p, constraint, bound, "test")
        assert got == expected, constraint
        compared += 1
    assert compared >= count // 2


# Three lines of Z^2 meeting pairwise in distinct points. In Z/p each coset
# is one point or the whole group, so no Z/p quotient keeps all three apart,
# nor does one active letter: the witness lands in (Z/p)^2.
_LINES = ((empty_word(2), _w("a")), (_w("a"), _w("b")), (_w("b"), _w("ab")))


@pytest.mark.parametrize(
    "p, constraint, bound, expected",
    [
        (3, _non_membership(_w("bbaa"), _w("ab")), 5_000, ("Z/3 wr Z/3", 1973)),
        (5, _LINES, 5_000, ("(Z/5)^2", 1869)),
        (7, _LINES, 10_000, ("(Z/7)^2", 6415)),
        (7, _non_membership(_w("bA"), _w("ab")), 250, ("cap", 251)),
    ],
)
def test_table_search_matches_the_permutation_search_on_fixed_cases(p, constraint, bound, expected):
    got = _search_outcome(_constraint_search, 2, p, constraint, bound, "test")
    assert got == _search_outcome(oracles.oracle_constraint_search, 2, p, constraint, bound)
    assert (got[0], got[-1]) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_cayley_tables_follow_the_permutation_product(p):
    rng = random.Random(p)
    for name, kind, group in group_library(p):
        if kind == "cyclic":
            continue
        order = group.order
        perms = [group.perm(i) for i in range(order)]
        assert len(set(perms)) == order == len(group.elements)
        # no group of order p^3 or more acts regularly: a witness carries
        # permutations of a small faithful action, Heis(p) that on F_p^2
        if order >= p**3:
            assert group.elements.shape[1] < order, name
        if name.startswith("Heis"):
            assert group.elements.shape[1] == p**2
        assert perms[0] == p_identity(len(perms[0]))
        if p <= 3:
            pairs = itertools.product(range(order), repeat=2)
        else:
            pairs = [(rng.randrange(order), rng.randrange(order)) for _ in range(400)]
        for i, j in pairs:
            assert perms[int(group.mul[i * order + j])] == p_mul(perms[i], perms[j]), (name, i, j)
        for i in range(order):
            k = int(group.inv[i])
            assert int(group.mul[i * order + k]) == 0
            assert perms[k] == p_inv(perms[i])
        for array in (group.elements, group.mul, group.inv):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        assert group.mul is group.mul and group.elements is group.elements
    assert group_library(p) is group_library(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_index_equals_the_table_scan(p):
    for name, kind, group in group_library(p):
        if kind != "cyclic":
            scan = np.flatnonzero(group.mul == 0) % group.order
            assert np.array_equal(group.inv, scan) and group.inv.dtype == group.mul.dtype, name


def test_library_search_checks_no_permutations(monkeypatch):
    def forbidden(q, constraint):
        raise AssertionError("permutation check in the library search")

    monkeypatch.setattr(separability, "constraint_satisfied", forbidden)
    q, examined = _constraint_search(2, 3, _non_membership(_w("ba"), _w("ab")), 10_000, "test")
    assert (q.name, examined) == ("Heis(3)", 653)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_table_groups_follow_their_cyclic_subgroup_orders(p):
    # a one-letter round in a table group of order p^m misses without being
    # built because every Z/p^k, k < m, comes earlier in the library
    cyclic_before = set()
    for name, kind, data in group_library(p):
        if kind == "cyclic":
            cyclic_before.add(data)
        else:
            m = valuation(data.order, p)
            assert p**m == data.order
            assert {p**k for k in range(1, m)} <= cyclic_before, name


def test_search_builds_only_the_groups_it_reaches():
    # <aB> and baB are never separated by one nontrivial letter image, and
    # Z/13 separates them with two, so the single-letter rounds pass over
    # (Z/13)^2 and Heis(13) without building them.
    wit = separate_from_cyclic(_w("aB"), _w("baB"), [2, 3, 5, 7, 11])
    assert wit.quotient.name == "Z/13"
    assert verify_witness(wit)
    for name, kind, group in group_library(13):
        if kind != "cyclic":
            assert "elements" not in vars(group) and "mul" not in vars(group), name


def test_one_letter_cyclic_first_hit_is_the_shift_one():
    # the closed form of the one-letter Z/q rounds: exponent sums that are
    # multiples of powers of p tell the gcd classes p^j apart, and some
    # constraints hold for no shift, which costs the round q - 1 assignments
    rng = random.Random(29)
    for q in (4, 8, 9, 25, 27, 169, 2401):
        p = min(prime_factors(q))
        scales = [p**j for j in range(valuation(q, p) + 1)]
        for _ in range(15):
            rows = tuple(
                (
                    tuple(rng.choice(scales) * rng.randint(-4, 4) for _ in range(2)),
                    tuple(rng.choice(scales) * rng.randint(-4, 4) for _ in range(2))
                    if rng.random() < 0.8
                    else None,
                )
                for _ in range(rng.randint(2, 3))
            )
            letter = rng.choice((1, 2))
            shifts = [[s if k == letter else 0 for k in (1, 2)] for s in range(1, q)]
            hits = [s for s, sh in enumerate(shifts, 1) if oracles.oracle_cyclic_satisfied(rows, q, sh)]
            # the search checks the shift 1 of each letter as one column of a
            # block, modulo q; (first hit, assignments examined)
            coset_sums = np.array([c for c, _ in rows])
            gen_sums = np.array([g or (0, 0) for _, g in rows])
            shift_one = separability._cyclic_block(coset_sums, gen_sums, np.array([q, q]), np.eye(2, dtype=int))
            closed_form = (1, 1) if shift_one[letter - 1] else (None, q - 1)
            assert closed_form == ((hits[0], hits[0]) if hits else (None, q - 1)), (q, rows)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_letter_search_matches_the_permutation_search(p):
    # one-letter constraints with sums scaled by powers of p: every Z/p^k
    # round is decided in closed form, and examined counts each round whole
    rng = random.Random(300 + p)
    compared = 0
    for _ in range(8):
        clauses = []
        for _ in range(rng.randint(2, 3)):
            coset = Word.parse("a" * (rng.choice((1, p, p * p)) * rng.randint(0, 3)), 1)
            generator = Word.parse("a" * (p ** rng.randint(0, 4)), 1) if rng.random() < 0.7 else None
            clauses.append((coset, generator))
        constraint = tuple(clauses)
        expected = _search_outcome(oracles.oracle_constraint_search, 1, p, constraint, 50_000)
        if expected is None:  # the library is exhausted: the fallback takes over
            continue
        assert _search_outcome(_constraint_search, 1, p, constraint, 50_000, "test") == expected
        compared += 1
    assert compared >= 4


@pytest.mark.parametrize("block", [3, 7])
@pytest.mark.parametrize("p, count, bound", [(2, 12, 2_000), (3, 6, 2_000), (5, 3, 600)])
def test_search_blocks_of_any_size_match_the_permutation_search(monkeypatch, block, p, count, bound):
    monkeypatch.setattr(separability, "SEARCH_BLOCK", block)
    test_table_search_matches_the_permutation_search(p, count, bound)


@pytest.mark.parametrize("block", [3, 7, separability.SEARCH_BLOCK])
def test_search_cap_falls_on_the_same_assignment_at_any_block_size(monkeypatch, block):
    # a table-group hit at assignment 653, and a one-letter Z/4 hit, decided
    # in closed form, at 5 (after Z/2 and the three skipped ones of (Z/2)^2)
    monkeypatch.setattr(separability, "SEARCH_BLOCK", block)
    cases = [
        (2, 3, _non_membership(_w("ba"), _w("ab")), "Heis(3)", 653),
        (1, 2, _non_membership(_w("aa", 1), _w("aaaa", 1)), "Z/4", 5),
    ]
    for n, p, constraint, name, at in cases:
        for bound in (at - 1, at, at + 1):
            got = _search_outcome(_constraint_search, n, p, constraint, bound, "test")
            assert (got[0], got[-1]) == (("cap", at) if bound < at else (name, at)), bound
