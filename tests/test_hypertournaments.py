from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import stallings
from stallings import (
    ForcedCycleError,
    InputError,
    NotInjectiveError,
    NotPartialIsomorphismError,
    NotSubtadpoleError,
    PreconditionError,
    eppa_extend,
    family_graph,
    hypertournament_to_dict,
    is_subtadpole,
    make_family,
    make_hypertournament,
    orbit_structure,
    validate,
    verify_extension,
)
from stallings.serialize import json_blocks
from stallings.suite import _brute_validate, random_tournament


def _transitive(k: int):
    rel = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return make_hypertournament(range(k), [2], {2: rel})


_SIX = [
    (0, 1), (2, 5), (4, 3), (0, 5), (3, 1),
    (0, 2), (0, 3), (0, 4), (1, 2), (1, 4),
    (1, 5), (2, 3), (2, 4), (3, 5), (4, 5),
]


def test_make_hypertournament_validation():
    # repeated universe labels are normalized away by the constructor helper
    deduped = make_hypertournament([0, 0, 1], [2], {2: [(0, 1)]})
    assert deduped.universe == (0, 1)
    from stallings import Hypertournament

    with pytest.raises(InputError):
        Hypertournament((0, 0, 1), frozenset([2]), ((2, frozenset([(0, 1)])),))
    with pytest.raises(InputError):
        make_hypertournament([0, 1], [4], {4: []})
    with pytest.raises(InputError):
        make_hypertournament([0, 1], [2], {2: [(0, 0)]})
    with pytest.raises(InputError):
        make_hypertournament([0, 1], [2], {2: [(0, 5)]})
    with pytest.raises(InputError):
        make_hypertournament([0, 1], [2], {3: [(0, 1, 2)]})


def test_validate_known_shapes():
    ok, _ = validate(_transitive(4))
    assert ok

    cyclic = make_hypertournament([0, 1], [2], {2: [(0, 1), (1, 0)]})
    ok, violation = validate(cyclic)
    assert not ok and violation.kind == "cycle"

    bare = make_hypertournament([0, 1, 2], [2], {2: [(0, 1)]})
    ok, violation = validate(bare)
    assert not ok and violation.kind == "unoriented"
    assert set(violation.witness) <= {0, 1, 2}


def test_arity_three_validation():
    h = make_hypertournament(
        range(3), [3], {3: [(0, 1, 2)]}
    )
    ok, violation = validate(h)
    # a single oriented triple: its three shifts are not all present
    assert ok

    spun = make_hypertournament(
        range(3), [3], {3: [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}
    )
    ok, violation = validate(spun)
    assert not ok and violation.kind == "cycle"


def test_family_graph_and_subtadpole():
    m = _transitive(4)
    fam = make_family(m, [{0: 1, 1: 2}])
    g = family_graph(fam)
    assert len(g.vertices) == 4
    assert len(g.edges) == 2
    assert is_subtadpole(g)

    # a two-branch star: two vertices of degree three
    host = make_hypertournament(range(6), [2], {2: _SIX})
    assert validate(host)[0]
    star = make_family(host, [{0: 2, 1: 5}, {0: 3, 5: 1}, {0: 4, 1: 3}])
    assert not is_subtadpole(family_graph(star))


def test_make_family_rejects_non_isomorphisms():
    m = make_hypertournament([0, 1], [2], {2: [(0, 1)]})
    with pytest.raises(NotPartialIsomorphismError):
        make_family(m, [{0: 1, 1: 0}])
    with pytest.raises(NotInjectiveError):
        make_family(_transitive(3), [{0: 2, 1: 2}])


def test_orbit_structure_invariance():
    rng = random.Random(21)
    for _ in range(20):
        k = rng.randint(3, 6)
        universe = list(range(k))
        pts = rng.sample(universe, rng.randint(2, k))
        shift = {x: y for x, y in zip(pts, pts[1:])}
        try:
            h = orbit_structure(universe, [shift], [2])
        except ForcedCycleError:
            continue
        assert validate(h)[0]
        rel = dict(h.relations)[2]
        for x, y in rel:
            if x in shift and y in shift:
                assert (shift[x], shift[y]) in rel


def test_orbit_structure_detects_forced_cycles():
    # swapping two points forces both orientations of their pair
    with pytest.raises(ForcedCycleError):
        orbit_structure([0, 1], [{0: 1, 1: 0}], [2])


def _forced_cycle_seed(universe, gens, l, seeds):
    with pytest.raises(ForcedCycleError) as caught:
        orbit_structure(universe, gens, [l], {l: seeds})
    assert caught.value.details["l"] == l
    return caught.value.details["orbit_representative"]


def test_a_cycle_closed_before_a_bad_seed_is_reported_first():
    swap = [{0: 1, 1: 0}]  # the orbit of (0, 1) holds its shift (1, 0)
    assert _forced_cycle_seed(range(4), swap, 2, [(2, 3), (0, 1), (0, 0)]) == (0, 1)
    assert _forced_cycle_seed(range(4), swap, 2, [(0, 1), (0, 9)]) == (0, 1)
    # the rotation's third tuple completes it: stage 2, before the bad seed
    rotations = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 1, 1)]
    assert _forced_cycle_seed(range(4), [], 3, rotations) == (2, 0, 1)


def test_a_bad_seed_before_the_cycle_raises_input_error():
    with pytest.raises(InputError, match="distinct"):
        orbit_structure(range(4), [{0: 1, 1: 0}], [2], {2: [(2, 3), (0, 0), (0, 1)]})
    with pytest.raises(InputError, match="outside"):
        orbit_structure(range(4), [], [3], {3: [(0, 1, 2), (1, 2, 0), (1, 2, 9), (2, 0, 1)]})
    with pytest.raises(InputError, match="arity-2"):
        orbit_structure(range(4), [{0: 1, 1: 0}], [2], {2: [(0, 1, 2), (0, 1)]})


def test_repeated_seeds_and_seeds_of_one_orbit_report_the_earlier_seed():
    swap = [{0: 1, 1: 0}]
    assert _forced_cycle_seed(range(4), swap, 2, [(2, 3), (1, 0), (2, 3), (0, 1)]) == (1, 0)
    assert _forced_cycle_seed(range(4), swap, 2, [(1, 0), (1, 0)]) == (1, 0)
    # (0, 2) and (1, 3) share an orbit under the pair map; repeats change nothing
    pair = [{0: 1, 2: 3}]
    once = orbit_structure(range(4), pair, [2], {2: [(0, 2)]})
    again = orbit_structure(range(4), pair, [2], {2: [(1, 3), (0, 2), (1, 3), (0, 2)]})
    assert again == once and {(0, 2), (1, 3)} <= dict(once.relations)[2]


def test_a_cycle_can_close_only_through_an_earlier_seed_orbit():
    # (2, 0) and its orbit-mate (3, 1) are the shifts of (0, 2) and (1, 3),
    # which the first seed's orbit holds: the later seed is reported
    pair = [{0: 1, 2: 3}]
    assert _forced_cycle_seed(range(4), pair, 2, [(1, 3), (0, 1), (3, 1)]) == (3, 1)
    assert _forced_cycle_seed(range(4), pair, 2, [(3, 1), (0, 1), (0, 2)]) == (0, 2)
    # at arity 3 a cycle needs three orbits: (2, 3, 1) never joins (1, 2, 3), (3, 1, 2)
    seeds = [(1, 2, 3), (0, 1, 2), (1, 2, 0), (0, 1, 3), (2, 0, 1), (3, 1, 2)]
    assert _forced_cycle_seed(range(4), [], 3, seeds) == (2, 0, 1)


def test_orbit_structure_input_checks():
    with pytest.raises(NotInjectiveError):
        orbit_structure([0, 1, 2], [{0: 2, 1: 2}], [2])
    with pytest.raises(InputError):
        orbit_structure([0, 1], [{0: 9}], [2])
    with pytest.raises(InputError):
        orbit_structure([0, 1, 2], [{}], [2], seeds={2: [(0, 0)]})


def test_orbit_structure_refuses_pairs_that_define_a_point_twice():
    # a dict of the pairs would keep only the last image of the point
    for pairs in ([(0, 1), (0, 2)], [(1, 2), (0, 1), (0, 1)], iter([(2, 0), (2, 0)])):
        with pytest.raises(InputError, match="generator 1 defines . twice") as caught:
            orbit_structure(range(3), [{}, pairs], [2])
        assert not isinstance(caught.value, NotInjectiveError)
    pairs = [(0, 1), (1, 2)]
    assert orbit_structure(range(3), [pairs], [2]) == orbit_structure(range(3), [dict(pairs)], [2])


def test_eppa_extend_single_map():
    m = _transitive(4)
    fam = make_family(m, [{0: 3}])
    result = eppa_extend(m, fam)
    assert verify_extension(result, m, fam)
    auto = result.automorphism_maps[0]
    e = result.embedding_map
    assert auto[e[0]] == e[3]


def test_eppa_extend_empty_family():
    m = _transitive(3)
    fam = make_family(m, [{}])
    result = eppa_extend(m, fam)
    assert verify_extension(result, m, fam)
    assert len(result.extended.universe) == 3


def test_eppa_extend_families_whose_coset_systems_are_empty():
    # Maps that only fix points leave every component a single point, so
    # no constraint arises and the trivial quotient gives each point an
    # orbit of its own. Two such maps give two components with loops.
    m = _transitive(4)
    for maps in ([{0: 0}], [{0: 0}, {1: 1}]):
        fam = make_family(m, maps)
        result = eppa_extend(m, fam)
        assert verify_extension(result, m, fam)
        assert len(result.extended.universe) == 4


def test_two_cyclic_triangles_under_one_rotation_map():
    # Both components are cycles with the loop aaa: one orbit each, walked
    # once for the shared vertex group.
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    m = make_hypertournament(range(6), [2], {2: triangles + [(i, j) for i in range(3) for j in range(3, 6)]})
    fam = make_family(m, [{0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3}])
    result = eppa_extend(m, fam)
    assert verify_extension(result, m, fam) and _brute_validate(result.extended)


def test_coset_cap_bounds_each_walk_and_the_total(monkeypatch):
    from stallings import ResourceCapError
    from stallings import hypertournaments as ht

    m = _transitive(4)
    fam = make_family(m, [{0: 3}])  # Z/3 on three components: 9 points
    for cap, attempted in ((8, 9), (2, 3)):
        monkeypatch.setattr(ht, "COSET_CAP", cap)
        with pytest.raises(ResourceCapError) as caught:
            eppa_extend(m, fam)
        assert caught.value.details == {"attempted_index": attempted}


def test_each_cyclic_vertex_group_is_checked_for_root_closure(monkeypatch):
    # No valid input is known to fail the check; a stand-in verdict shows
    # that each cyclic vertex group reaches it, and a tree's does not.
    import types

    from stallings import RootClosureError
    from stallings import hypertournaments as ht

    checked = []

    def not_closed(loop, l):
        checked.append(l)
        return types.SimpleNamespace(closed=False, witness=None)

    monkeypatch.setattr(ht, "cyclic_root_closure", not_closed)
    m = make_hypertournament(range(3), [2], {2: [(0, 1), (1, 2), (2, 0)]})
    eppa_extend(m, make_family(m, [{0: 1}]))  # a tree: nothing to check
    with pytest.raises(RootClosureError):
        eppa_extend(m, make_family(m, [{0: 1, 1: 2, 2: 0}]))
    assert checked == [2]


def test_eppa_extend_arity_three():
    m = make_hypertournament(
        range(4),
        [3],
        {3: [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]},
    )
    fam = make_family(m, [{0: 3}])
    result = eppa_extend(m, fam)
    assert verify_extension(result, m, fam)
    assert result.extended.L == frozenset([3])


def test_eppa_extend_over_mixed_label_types():
    # ints and strings have no common native order; relations are read in
    # code order, which follows the universe's label order
    m = make_hypertournament([1, "a", 2], [2], {2: [(1, "a"), ("a", 2), (1, 2)]})
    assert m.universe == (1, 2, "a")
    fam = make_family(m, [{1: 2}])
    result = eppa_extend(m, fam)
    assert verify_extension(result, m, fam)
    assert len(result.extended.universe) == 6  # Z/3 on the components {1, 2} and {"a"}


def test_eppa_extend_refuses_non_subtadpole_families():
    m = make_hypertournament(range(6), [2], {2: _SIX})
    fam = make_family(m, [{0: 2, 1: 5}, {0: 3, 5: 1}, {0: 4, 1: 3}])
    with pytest.raises(NotSubtadpoleError):
        eppa_extend(m, fam)


def test_eppa_extend_refuses_invalid_hosts():
    # bypass make_family validation by building the family on a valid host,
    # then handing eppa_extend a mismatched one
    m = _transitive(3)
    fam = make_family(m, [{0: 1}])
    with pytest.raises(InputError):
        eppa_extend(_transitive(4), fam)


def test_verify_extension_catches_tampering():
    m = _transitive(4)
    fam = make_family(m, [{0: 3}])
    result = eppa_extend(m, fam)
    import dataclasses

    e = result.embedding_map
    identity = tuple((x, x) for x in result.extended.universe)
    broken = dataclasses.replace(
        result, automorphisms=tuple(identity for _ in result.automorphisms)
    )
    assert not verify_extension(broken, m, fam)

    # a bijection that still extends the map but moves the relation:
    # swapping the images of two points other than e[0] composes the
    # automorphism with a transposition, which reverses the arc between them
    auto = dict(result.automorphisms[0])
    u, v = [x for x in result.extended.universe if x != e[0]][:2]
    auto[u], auto[v] = auto[v], auto[u]
    assert auto[e[0]] == e[3]
    swapped = dataclasses.replace(result, automorphisms=(tuple(sorted(auto.items())),))
    assert not verify_extension(swapped, m, fam)

    # an embedding that is injective and lands in the extension but swaps the
    # images of 1 and 2, which reverses the arc (1, 2) alone; the map 0 -> 3
    # still holds, so only the embedding check can refuse it
    assert verify_extension(result, m, fam)
    moved = dict(e)
    moved[1], moved[2] = e[2], e[1]
    reversed_arc = dataclasses.replace(result, embedding=tuple(sorted(moved.items())))
    assert not verify_extension(reversed_arc, m, fam)


def _tournament_with_a_map(seed: int, n: int = 10, pairs: int = 2):
    """A seeded tournament on n points and the first partial isomorphism of
    the given number of pairs that the same generator then draws."""
    rng = random.Random(seed)
    m = random_tournament(rng, range(n))
    while True:
        chosen = rng.sample(range(n), 2 * pairs)
        try:
            return m, make_family(m, [dict(zip(chosen[:pairs], chosen[pairs:]))])
        except NotPartialIsomorphismError:
            continue


@pytest.mark.parametrize("seed", range(12))
def test_z_obstructed_ten_point_tournaments_finish_under_the_caps(seed):
    # Each map sends x1 -> y1 and x2 -> y2. When one orbit held every point,
    # the translation taking x1 to x2 left constraints that no abelian
    # quotient serves on seeds 0, 2 and 11: a product of one library witness
    # per constraint exceeded COSET_CAP on seeds 0 and 11, gave 729 points on
    # seed 2 and 2,187 on seed 10. With one orbit per component, x1 and x2
    # lie in different orbits and each seed gives Z/3 on eight components.
    m, fam = _tournament_with_a_map(seed)
    result = eppa_extend(m, fam)
    assert len(result.extended.universe) < 50
    assert verify_extension(result, m, fam)


@pytest.mark.parametrize("seed", range(8))
def test_twenty_point_tournaments_with_a_three_pair_map_finish_quickly(seed):
    # One orbit for all the components took about 35 s, or exceeded
    # COSET_CAP, on these: a cyclic quotient of order about 1,000 over one
    # letter per component.
    m, fam = _tournament_with_a_map(seed, n=20, pairs=3)
    start = time.perf_counter()
    result = eppa_extend(m, fam)
    assert time.perf_counter() - start < 1.0
    assert verify_extension(result, m, fam)


def test_seeded_families_of_up_to_three_maps_extend_and_validate():
    # Maps of one to three pairs over the same points, so domains and
    # ranges overlap: components of several letters, cycles and fixed
    # points.
    rng = random.Random(29)
    outcomes = {"extended": 0, "looped": 0, "refused": 0}
    for trial in range(80):
        l = 2 if trial % 2 else 3
        universe = sorted(rng.sample(range(30), rng.randint(4, 6 if l == 2 else 5)))
        m = random_tournament(rng, universe) if l == 2 else _random_hypertournament3(rng, universe)
        maps = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 3)
            maps.append(dict(zip(rng.sample(universe, k), rng.sample(universe, k))))
        try:
            fam = make_family(m, maps)
        except NotPartialIsomorphismError:
            continue
        g = family_graph(fam)
        if not is_subtadpole(g):
            with pytest.raises(NotSubtadpoleError):
                eppa_extend(m, fam)
            outcomes["refused"] += 1
            continue
        result = eppa_extend(m, fam)
        assert verify_extension(result, m, fam), (m.relations, maps)
        assert _brute_validate(result.extended), (m.relations, maps)
        outcomes["extended"] += 1
        outcomes["looped"] += len(g.edges) - len(g.vertices) + len(g.component_lists) > 0
    assert outcomes["extended"] >= 30 and min(outcomes.values()) >= 3, outcomes


def _random_partial_injection(rng: random.Random, points: list) -> dict:
    k = rng.randint(0, len(points))
    return dict(zip(rng.sample(points, k), rng.sample(points, k)))


def test_orbit_structure_matches_the_tuple_at_a_time_reference():
    rng = random.Random(7)
    outcomes = {"built": 0, "seed_cycle": 0, "subset_cycle": 0}
    for trial in range(480):
        l = 2 if trial % 2 else 3
        k = rng.randint(l, 7 if l == 2 else 6)
        if trial % 3 == 0:
            universe = sorted(rng.sample("abcdefghij", k))
        else:
            universe = sorted(rng.sample(range(40), k))
        gens = [_random_partial_injection(rng, universe) for _ in range(rng.randint(0, 2))]
        seeds = {l: [tuple(rng.sample(universe, l)) for _ in range(rng.randint(0, 8))]}
        try:
            expected = oracles.oracle_orbit_structure(universe, gens, [l], seeds)
        except ForcedCycleError as exc:
            with pytest.raises(ForcedCycleError) as caught:
                orbit_structure(universe, gens, [l], seeds)
            rep = exc.details["orbit_representative"]
            assert caught.value.details == exc.details, (universe, gens, seeds)
            outcomes["seed_cycle" if rep in seeds[l] else "subset_cycle"] += 1
            continue
        h = orbit_structure(universe, gens, [l], seeds)
        assert dict(h.relations) == expected, (universe, gens, seeds)
        outcomes["built"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_validate_witness_is_the_smallest_and_ignores_hashing(tmp_path):
    # three 2-cycles on string labels: set iteration order used to pick one
    pairs = [("p", "q"), ("q", "p"), ("s", "r"), ("r", "s"), ("t", "u"), ("u", "t")]
    pairs += [(x, y) for x, y in itertools.combinations("pqrstu", 2) if {x, y} not in
              ({"p", "q"}, {"r", "s"}, {"t", "u"})]
    cyclic = {"L": [2], "universe": list("utsrqp"), "relations": {"2": pairs}}
    unoriented = {"L": [3], "universe": list("vwxyz"), "relations": {"3": [["z", "x", "w"]]}}
    script = (
        "import json, sys\n"
        "from stallings import hypertournament_from_dict, validate\n"
        "for d in json.load(open(sys.argv[1])):\n"
        "    ok, v = validate(hypertournament_from_dict(d))\n"
        "    print(v.kind, v.witness)\n"
    )
    data = tmp_path / "structures.json"
    data.write_text(json.dumps([cyclic, unoriented]))
    structure = tmp_path / "cyclic.json"
    structure.write_text(json.dumps(cyclic))
    src = str(Path(stallings.__file__).resolve().parents[1])
    seen = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script, str(data)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        seen.add(out)
        cli = subprocess.run(
            [sys.executable, "-m", "stallings.cli", "validate", str(structure)],
            env=env, capture_output=True, text=True,
        )
        assert cli.returncode == 1
        assert json.loads(cli.stdout)["violation"]["witness"] == ["p", "q"]
    assert seen == {"cycle ('p', 'q')\nunoriented ('v', 'w', 'x')\n"}


def _written_rows(h, l: int) -> list:
    """The rows of arity l as the emitted JSON text holds them."""
    text = "".join(json_blocks(hypertournament_to_dict(h)))
    return json.loads(text)["relations"][str(l)]


def test_serialized_rows_follow_the_label_order():
    universe = [3, 10, "a", "b", (0, 1), (1, 0)]
    rng = random.Random(5)
    rel = set()
    for subset in itertools.combinations(universe, 2):
        rel.add(tuple(rng.sample(subset, 2)))
    rel.add((10, 3) if (3, 10) in rel else (3, 10))  # both orders of one pair
    h = make_hypertournament(universe, [2], {2: rel})

    def key(t):
        return tuple((str(type(x)), x) for x in t)

    rows = _written_rows(h, 2)
    thaw = [[list(x) if isinstance(x, tuple) else x for x in t] for t in sorted(rel, key=key)]
    assert rows == thaw


def test_codes_past_64_bits():
    # 18 points at arity 17: 18**17 overflows int64, so codes are Python ints
    universe = list(range(18))
    rel = list(itertools.combinations(universe, 17))
    h = make_hypertournament(universe, [17], {17: rel})
    assert h.codes[17].dtype == object
    assert validate(h) == (True, None)
    assert _written_rows(h, 17) == [list(t) for t in rel]

    ok, violation = validate(make_hypertournament(universe, [17], {17: rel[:5] + rel[6:]}))
    assert not ok and violation.kind == "unoriented" and violation.witness == rel[5]
    spun = rel + [rel[0][k:] + rel[0][:k] for k in range(1, 17)]
    ok, violation = validate(make_hypertournament(universe, [17], {17: spun}))
    assert not ok and violation.kind == "cycle" and violation.witness == rel[0]


def _random_hypertournament3(rng: random.Random, universe: list):
    triples = []
    for subset in itertools.combinations(universe, 3):
        arrangement = list(subset)
        rng.shuffle(arrangement)
        triples.append(tuple(arrangement))
    return make_hypertournament(universe, [3], {3: triples})


def _seeded_orbit_structures():
    """Orbit structures at arity 2 and 3 over int, str and tuple labels."""
    rng = random.Random(11)
    pools = (list(range(50)), list("abcdefghij"), [(i, i % 3) for i in range(10)])
    built = []
    while len(built) < 36:
        l = (2, 3)[len(built) % 2]
        pool = pools[len(built) // 2 % 3]
        universe = sorted(rng.sample(pool, rng.randint(l, 7)))
        gens = [_random_partial_injection(rng, universe) for _ in range(rng.randint(0, 2))]
        try:
            built.append(orbit_structure(universe, gens, [l]))
        except ForcedCycleError:
            continue
    return built


def test_code_built_structure_equals_the_label_parsed_one():
    for h in _seeded_orbit_structures():
        (l,) = h.L
        parsed = make_hypertournament(h.universe, h.L, dict(h.relations))
        assert parsed == h
        assert parsed.codes[l].dtype == h.codes[l].dtype
        assert np.array_equal(parsed.codes[l], h.codes[l])
        assert parsed.relations == h.relations
        assert not h.codes[l].flags.writeable
        # relations are a view: one frozenset per arity, in arity order
        assert [k for k, _ in h.relations] == [l]
        assert type(h.relations[0][1]) is frozenset
        assert h.relations is h.relations  # decoded once, on first use


def test_holds_agrees_with_frozenset_membership():
    structures = _seeded_orbit_structures()[:12]
    structures.append(make_hypertournament([3, 10, "a", (0, 1)], [2, 3], {}))
    for h in structures:
        outside = ("zz", 99, (5, 5))
        points = list(h.universe) + [x for x in outside if x not in h.universe][:1]
        for k in range(1, 5):
            rel = dict(h.relations).get(k, frozenset())
            for t in itertools.product(points, repeat=k):
                assert h.holds(t) == (t in rel), (h.universe, t)


def test_code_constructor_refuses_bad_codes():
    from stallings import Hypertournament

    universe = (0, 1, 2)
    ok = Hypertournament(universe, frozenset([2]), {2: np.array([1, 5, 6])})
    assert dict(ok.relations)[2] == {(0, 1), (1, 2), (2, 0)}
    # unsorted, duplicate, below and above the range [0, 9)
    for codes in ([5, 1], [1, 1, 5], [-1, 5], [5, 9]):
        with pytest.raises(InputError):
            Hypertournament(universe, frozenset([2]), {2: np.array(codes)})
    with pytest.raises(InputError, match=r"tuple \(1, 1\) has repeated entries"):
        Hypertournament(universe, frozenset([2]), {2: np.array([1, 4])})  # 4 is (1, 1)
    with pytest.raises(InputError):
        Hypertournament(universe, frozenset([2]), {3: np.array([5])})
    with pytest.raises(InputError):
        Hypertournament(universe, frozenset([2]), {2: np.array([[1, 5]])})
    # the universe must be a tuple in label order: ints before strings
    for unsorted in ((1, 0, 2), [0, 1, 2], (0, "a", 1)):
        with pytest.raises(InputError, match="label order"):
            Hypertournament(unsorted, frozenset([2]), {2: np.array([1, 5, 6])})
    # a wider dtype is narrowed to the one the universe's size needs
    wide = Hypertournament(universe, frozenset([2]), {2: np.array([1, 5, 6], dtype=np.int64)})
    assert wide.codes[2].dtype == np.int32 and wide == ok


def test_relation_errors_name_the_first_bad_row_in_input_order():
    universe = ["a", "b", "c", "d"]
    rows = [["a", "b"], ["c", "c"], ["d", "d"], ["b", "b"], ["a", "zz"], ["zz", "a"]]
    with pytest.raises(InputError, match=r"^tuple \('c', 'c'\) has repeated entries$"):
        make_hypertournament(universe, [2], {2: rows})
    with pytest.raises(InputError, match=r"^tuple \('a', 'zz'\) uses labels outside the universe$"):
        make_hypertournament(universe, [2], {2: [rows[0], rows[4], rows[1]]})
    with pytest.raises(InputError, match=r"^tuple \('d',\) has arity 1, expected 2$"):
        make_hypertournament(universe, [2], {2: [("d",), rows[1]]})
    # repeated rows are one tuple, and rows may be lists or tuples
    m = make_hypertournament(universe, [2], {2: [["a", "b"], ("b", "c"), ("a", "b")]})
    assert dict(m.relations)[2] == {("a", "b"), ("b", "c")} and m.codes[2].tolist() == [1, 6]


def _eppa_inputs(rng: random.Random, l: int, cyclic: bool):
    """A seeded instance; with ``cyclic`` the map closes a loop (a swap at
    arity 3, the rotation of a cyclic triangle at arity 2) when one exists,
    so that the basepoint stabilizer is not trivial."""
    from stallings.suite import random_disjoint_partial_map

    universe = sorted(rng.sample(range(30), rng.randint(4, 5 if l == 3 else 6)))
    m = random_tournament(rng, universe) if l == 2 else _random_hypertournament3(rng, universe)
    if cyclic and l == 3:
        x, y = rng.sample(universe, 2)
        return m, make_family(m, [{x: y, y: x}])
    if cyclic:
        for x, y, z in itertools.permutations(universe, 3):
            if m.holds((x, y)) and m.holds((y, z)) and m.holds((z, x)):
                return m, make_family(m, [{x: y, y: z, z: x}])
    return m, make_family(m, [random_disjoint_partial_map(rng, m)])


def test_constraint_words_match_the_per_clause_reference(monkeypatch):
    from stallings import hypertournaments as ht
    from stallings.graphs import cycle_basis, path_words_from

    handed = []
    real = ht.separate_coset_system

    def spy(constraints, *args, **kwargs):
        handed.append(constraints)
        return real(constraints, *args, **kwargs)

    monkeypatch.setattr(ht, "separate_coset_system", spy)
    rng = random.Random(17)
    checked = 0
    loops = 0
    for trial in range(24):
        m, fam = _eppa_inputs(rng, 2 if trial % 2 else 3, cyclic=trial % 4 >= 2)
        if trial % 8 >= 4:  # a second letter: a one-pair map, which may join two components
            u, v = rng.sample(m.universe, 2)
            fam = make_family(m, [dict(fam.maps[0]), {u: v}])
        graph = family_graph(fam)
        if not is_subtadpole(graph):
            continue
        handed.clear()
        eppa_extend(m, fam)
        points = sorted(m.universe)
        w, h, component = {}, {}, {}
        for comp in graph.component_lists:
            base = min(comp)
            sub = graph.restrict(comp)
            basis = cycle_basis(sub, base)
            loop = basis[0].reversed().letters if basis else None
            for x, path in path_words_from(sub, base).items():
                w[x], h[x], component[x] = path.reversed().letters, loop, base
        loops += any(loop is not None for loop in h.values())
        expected = oracles.oracle_eppa_constraints(points, w, h, component, dict(m.relations))
        constraints = oracles.oracle_constraint_list(*handed)
        as_tuples = [
            tuple((c.letters, g.letters if g is not None else None) for c, g in clause)
            for clause in constraints
        ]
        assert as_tuples == expected, (m.universe, fam.maps)
        # the relation clauses share one word per (y, z) pair and per y
        pairs = sum(component[x] == component[y] for x, y in itertools.combinations(points, 2))
        relation_part = constraints[pairs:]
        words = {id(word) for clause in relation_part for pair in clause for word in pair}
        assert len(words) <= len(points) ** 2 + len(points) + 1
        checked += len(relation_part)
    assert checked > 500 and loops >= 4, (checked, loops)


def test_permutation_digits_match_itertools():
    from stallings.hypertournaments import _permutation_digits

    for k in range(10):
        for l in range(1, 5):
            got = _permutation_digits(k, l)
            want = np.array(list(itertools.permutations(range(k), l)), dtype=np.int32)
            assert got.dtype == np.int32 and got.shape == (len(want), l), (k, l)
            assert np.array_equal(got, want.reshape(-1, l)), (k, l)
            assert not got.flags.writeable
            assert _permutation_digits(k, l) is got  # one shared table per (k, l)
    assert _permutation_digits(2, 3).shape == (0, 3)


def test_pattern_join_matches_the_pair_loop():
    from stallings.hypertournaments import _pattern_join

    rng = random.Random(31)
    for _ in range(300):
        free = np.array([rng.randrange(5) for _ in range(rng.randint(0, 12))], dtype=np.intp)
        related = np.array([rng.randrange(5) for _ in range(rng.randint(0, 12))], dtype=np.intp)
        f, r = _pattern_join(free, related)
        want = [(i, j) for i, a in enumerate(free) for j, b in enumerate(related) if a == b]
        assert list(zip(f.tolist(), r.tolist())) == want


@pytest.mark.parametrize(
    "rows, maps, bound, label, index",
    [
        # the swap closes a loop, so the product tier serves the system and
        # gives up on the first embedding constraint at once
        ([(0, 2, 1)], [{0: 1, 1: 0}], 0, ("embedding", 0, 1), 0),
        # a bound of 3 lets the embedding constraint through and stops at
        # the first relation constraint
        ([(0, 1, 2)], [{2: 2}, {1: 1, 2: 0}], 3, ("relation", (0, 1, 2), (2, 1, 0)), 1),
    ],
)
def test_search_cap_names_the_constraint_it_gave_up_on(rows, maps, bound, label, index):
    from stallings.errors import SearchCapError

    m = make_hypertournament(range(3), [3], {3: rows})
    with pytest.raises(SearchCapError) as caught:
        eppa_extend(m, make_family(m, maps), bound=bound)
    assert str(caught.value) == f"no quotient separates {label}"
    assert caught.value.details == {"constraint_index": index, "label": label}
