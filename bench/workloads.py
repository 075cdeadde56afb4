"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of operations; one operation is one
invocation of the ``stallings`` command line. The generators here are the
benchmark's own and use no code from ``stallings``, so a change to the
library cannot change what the benchmark feeds it.

Operation cost in this library swings by orders of magnitude with small
changes to an instance (an ``eppa-extend`` call on seven points takes
0.01 s or 8 s depending on the partial map), so a seeded draw of instance
shapes would make the measured time of a short run depend mostly on the
seed. The seed therefore varies what leaves the work unchanged, and the
shapes that set the cost are fixed per workload, as is the order the
operations run in: peak memory depends on it (an eppa-t2 run peaks 25 MB
higher when its 729-point extension follows a 243-point one), and it
leaves the work unchanged.

- ``eppa-*``: the instances come from fixed per-instance seeds; the run
  seed draws order-preserving point labels.
- ``separate``: the (root length, exponent, L) grid is fixed; the seed
  draws the words, except where they alone set the cost.
- ``subgroups``: the sizes are fixed; the seed draws the graphs and words.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("eppa-t2", "eppa-h3", "separate", "subgroups")

# instances per point count; the shapes behind them never depend on the run seed.
# eppa-t2 keeps one shape at n=7: the library refuses the second with exit 3,
# resource_cap_exceeded (its coset space outgrows COSET_CAP), and every
# operation of a workload has to succeed; the third grows to 729 points, as
# n=8 already does, and would add about 15 s to every run.
EPPA_T2_SIZES = {5: 10, 6: 10, 7: 1, 8: 3}
EPPA_H3_SIZES = {4: 10, 5: 10, 6: 4, 7: 2}

SEPARATE_ROOT_LENGTHS = (2, 3, 4)
SEPARATE_EXPONENTS = (1, 2, 3, 4)
SEPARATE_PRIMES = (2, 3, 5)
SEPARATE_MAX_CYCLE = 12  # |c| = 16 with 5 in L scans 16^5 tuples, about 7 s per operation

SUBGROUP_INSTANCES = 2  # seeded instances per size below
FOLD_RAW_VERTICES = (400, 800, 1200)
FOLD_HAIR_LENGTHS = (400, 800, 1600)
MALNORMAL_LENGTHS = (40, 60)  # total generator length of a 3-generator subgroup
ROOT_CLOSED_SHAPES = ((3, 40), (5, 10))  # (l, vertices of the subgroup graph)
COUNTEREXAMPLE_TOWERS = ((2, 9), (3, 6), (11, 3))  # (p, depth): 512, 729, 1331 sheets
GERSTEN_PRIMES = (31, 61, 101)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``stallings <command> <args>``.

    ``files`` maps a file name used in ``args`` to the JSON it holds; the
    runner writes them and substitutes their paths. ``expect`` carries what
    the independent check needs to know about the input.
    """

    command: str
    args: tuple
    size: str
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# -- words ----------------------------------------------------------------------


def word_text(letters) -> str:
    """Signed letter indices as text: 1 -> "a", -1 -> "A"."""
    return "".join(chr(96 + t) if t > 0 else chr(64 - t) for t in letters)


def _signed(n: int) -> list[int]:
    return [s for i in range(1, n + 1) for s in (i, -i)]


def _reduced_path(rng: random.Random, n: int, length: int, first: int, last: int) -> list[int]:
    """A freely reduced word of the given length with fixed end letters."""
    while True:
        word = [first]
        for _ in range(length - 2):
            word.append(rng.choice([s for s in _signed(n) if s != -word[-1]]))
        if length > 1:
            if word[-1] == -last:
                continue
            word.append(last)
        if length == 1 and first != last:
            continue
        return word


def _is_proper_power(word: list[int]) -> bool:
    m = len(word)
    return any(m % d == 0 and word[:d] * (m // d) == word for d in range(1, m))


def cyclically_reduced_root(rng: random.Random, n: int, length: int) -> list[int]:
    """A cyclically reduced word that is not a proper power."""
    while True:
        first = rng.choice(_signed(n))
        last = rng.choice([s for s in _signed(n) if s != -first])
        word = _reduced_path(rng, n, length, first, last)
        if not _is_proper_power(word):
            return word


def unfolded_generators(rng: random.Random, n: int, lengths) -> list[list[int]]:
    """Words whose bouquet of loops is already folded and core.

    At the basepoint every loop leaves by its first letter and arrives by
    its last; when these 2k signed letters are distinct (k = n generators),
    no two edges fold, so the subgroup graph has sum(lengths) - k + 1
    vertices whatever the letters in between.
    """
    ends = _signed(n)
    rng.shuffle(ends)
    return [
        _reduced_path(rng, n, length, ends[2 * j], -ends[2 * j + 1])
        for j, length in enumerate(lengths)
    ]


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random lengths of at least 2 that add up to total."""
    while True:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if min(lengths) >= 2:
            return lengths


# -- graph JSON -----------------------------------------------------------------


def bouquet_json(n: int, words) -> dict:
    """The wedge of one loop per word, in the CLI's graph format."""
    vertices = [0]
    edges = []
    for word in words:
        prev = 0
        for k, t in enumerate(word):
            nxt = 0 if k == len(word) - 1 else len(vertices)
            if nxt:
                vertices.append(nxt)
            letter = chr(96 + abs(t))
            edges.append([prev, nxt, letter] if t > 0 else [nxt, prev, letter])
            prev = nxt
    return {"n": n, "vertices": vertices, "edges": edges, "basepoint": 0}


def random_raw_graph(rng: random.Random, vertices: int) -> dict:
    """Random based graph on two letters with twice as many edges as vertices."""
    edges = [
        [rng.randrange(vertices), rng.randrange(vertices), rng.choice("ab")]
        for _ in range(2 * vertices)
    ]
    return {"n": 2, "vertices": list(range(vertices)), "edges": edges, "basepoint": 0}


def hanging_hair(rng: random.Random, cycle_length: int, hair: int) -> dict:
    """An immersed cycle through the basepoint with an immersed path of
    ``hair`` edges hanging off one cycle vertex; its core is the cycle."""
    cycle = cyclically_reduced_root(rng, 2, cycle_length)
    graph = bouquet_json(2, [cycle])
    used = {}  # vertex -> signed letters leaving it
    for u, v, letter in graph["edges"]:
        i = ord(letter) - 96
        used.setdefault(u, set()).add(i)
        used.setdefault(v, set()).add(-i)
    at = rng.randrange(cycle_length)
    step = rng.choice([s for s in _signed(2) if s not in used[at]])
    for k in range(hair):
        nxt = cycle_length + k
        graph["vertices"].append(nxt)
        letter = chr(96 + abs(step))
        graph["edges"].append([at, nxt, letter] if step > 0 else [nxt, at, letter])
        at = nxt
        step = rng.choice([s for s in _signed(2) if s != -step])
    return graph


WEDGE_2 = {"n": 2, "vertices": [0], "edges": [[0, 0, "a"], [0, 0, "b"]], "basepoint": 0}


# -- hypertournaments -------------------------------------------------------------


def random_tournament(rng: random.Random, n: int) -> set:
    return {
        (x, y) if rng.random() < 0.5 else (y, x)
        for x, y in itertools.combinations(range(n), 2)
    }


def random_hypertournament3(rng: random.Random, n: int) -> set:
    out = set()
    for subset in itertools.combinations(range(n), 3):
        arrangement = list(subset)
        rng.shuffle(arrangement)
        out.add(tuple(arrangement))
    return out


def disjoint_partial_iso(rng: random.Random, n: int, relation: set, l: int) -> dict:
    """A random injective partial map with domain and image disjoint that
    preserves and reflects the relation on tuples inside its domain."""
    while True:
        k = rng.randint(1, n // 2)
        points = list(range(n))
        rng.shuffle(points)
        m = dict(zip(points[:k], points[k:2 * k]))
        if all(
            (t in relation) == (tuple(m[x] for x in t) in relation)
            for t in itertools.permutations(m, l)
        ):
            return m


def _eppa_ops(workload: str, rng: random.Random) -> list[Op]:
    l, sizes, make = (
        (2, EPPA_T2_SIZES, random_tournament)
        if workload == "eppa-t2"
        else (3, EPPA_H3_SIZES, random_hypertournament3)
    )
    ops = []
    for n, count in sizes.items():
        for k in range(count):
            shape = random.Random(f"{workload}/{n}/{k}")
            relation = make(shape, n)
            m = disjoint_partial_iso(shape, n, relation, l)
            labels = sorted(rng.sample(range(10 * n), n))  # order-preserving relabelling
            structure = {
                "L": [l],
                "universe": labels,
                "relations": {str(l): sorted([labels[x] for x in t] for t in relation)},
            }
            maps = [{"map": {str(labels[x]): labels[y] for x, y in sorted(m.items())}}]
            ops.append(
                Op(
                    "eppa-extend",
                    ("structure.json", "maps.json", "--L", str(l)),
                    f"n={n}",
                    {"structure.json": structure, "maps.json": maps},
                )
            )
    return ops


# -- separation ---------------------------------------------------------------------


def _separate_ops(rng: random.Random) -> list[Op]:
    """Per (root length, exponent) cell: one power of the root with every
    allowed prime in L, which makes root closure scan |c|^5 tuples, and two
    random words with 5 left out of L. When i = 1, L is all of {2, 3, 5},
    which forces the search into 7-groups; its cost depends on the words
    (0.4 s to 2.3 s), so those words come from fixed per-instance seeds."""
    ops = []
    for length in SEPARATE_ROOT_LENGTHS:
        for i in SEPARATE_EXPONENTS:
            if length * i > SEPARATE_MAX_CYCLE:
                continue
            allowed = tuple(p for p in SEPARATE_PRIMES if i % p)
            cases = [(True, allowed)] if i > 1 else []
            cases += [(False, allowed if i == 1 else allowed[:-1])] * 2
            for j, (power, L) in enumerate(cases):
                if i == 1:
                    rng_case = random.Random(f"separate/{length}/{j}")
                else:
                    rng_case = rng
                a = cyclically_reduced_root(rng_case, 2, length)
                c = a * i
                if power:
                    e = rng_case.choice([e for e in range(-2 * i, 2 * i + 1) if e % i])
                    g = a * e if e > 0 else [-t for t in reversed(a)] * -e
                else:
                    g = _word_outside_powers(rng_case, c)
                args = ["--cyclic", word_text(c), "--word", word_text(g)]
                for p in L:
                    args += ["--L", str(p)]
                ops.append(
                    Op(
                        "separate",
                        tuple(args),
                        f"c={len(c)},L={'.'.join(map(str, L))}",
                        expect={"cyclic": word_text(c), "word": word_text(g), "L": list(L)},
                    )
                )
    return ops


def _word_outside_powers(rng: random.Random, c: list[int]) -> list[int]:
    """A random reduced word that is not a power of the cyclically reduced c."""
    inverse = [-t for t in reversed(c)]
    while True:
        length = rng.randint(1, 6)
        word = [rng.choice(_signed(2))]
        for _ in range(length - 1):
            word.append(rng.choice([s for s in _signed(2) if s != -word[-1]]))
        k, rem = divmod(len(word), len(c))
        if rem or word not in (c * k, inverse * k):
            return word


# -- subgroups ------------------------------------------------------------------------


def _exponent_sums(word) -> tuple[int, int]:
    return (
        sum(1 if t > 0 else -1 for t in word if abs(t) == 1),
        sum(1 if t > 0 else -1 for t in word if abs(t) == 2),
    )


def _subgroup_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(SUBGROUP_INSTANCES):
        for v in FOLD_RAW_VERTICES:
            ops.append(
                Op("fold", ("graph.json", "--core"), f"V={v}", {"graph.json": random_raw_graph(rng, v)})
            )
        for hair in FOLD_HAIR_LENGTHS:
            ops.append(
                Op(
                    "fold",
                    ("graph.json", "--core"),
                    f"hair={hair}",
                    {"graph.json": hanging_hair(rng, 4, hair)},
                    {"core_vertices": 4},
                )
            )
        for total in MALNORMAL_LENGTHS:
            words = unfolded_generators(rng, 3, _split(rng, total, 3))
            ops.append(
                Op("malnormal", ("graph.json",), f"V={total - 2}", {"graph.json": bouquet_json(3, words)})
            )
        for l, vertices in ROOT_CLOSED_SHAPES:
            words = unfolded_generators(rng, 2, _split(rng, vertices + 1, 2))
            ops.append(
                Op(
                    "root-closed",
                    ("graph.json", "--l", str(l)),
                    f"V={vertices},l={l}",
                    {"graph.json": bouquet_json(2, words)},
                    {"l": l},
                )
            )
        for p in GERSTEN_PRIMES:
            ops.append(Op("gersten-check", ("config.json",), f"p={p}", {"config.json": _gersten_config(rng, p)}))
    for p, depth in COUNTEREXAMPLE_TOWERS:
        ops.append(
            Op("verify-counterexample", ("--p", str(p), "--depth", str(depth)), f"p^d={p}^{depth}")
        )
    return ops


def _gersten_config(rng: random.Random, p: int) -> dict:
    """A small immersion into the wedge that is injective on H_1 mod p,
    with a random cocycle on the wedge."""
    while True:
        words = unfolded_generators(rng, 2, _split(rng, 6, 2))
        (a1, b1), (a2, b2) = map(_exponent_sums, words)
        if (a1 * b2 - a2 * b1) % p:
            break
    domain = bouquet_json(2, words)
    return {
        "p": p,
        "domain": domain,
        "codomain": WEDGE_2,
        "vertex_map": [[v, 0] for v in domain["vertices"]],
        "cocycle": {"a": rng.randrange(1, p), "b": rng.randrange(p)},
    }


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operation list for a seed, in the order it runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/seed/{seed}")
    if workload.startswith("eppa-"):
        return _eppa_ops(workload, rng)
    if workload == "separate":
        return _separate_ops(rng)
    return _subgroup_ops(rng)


def op_json(op: Op) -> str:
    """Canonical text of an operation's inputs, for digests."""
    return json.dumps([op.command, list(op.args), op.files], sort_keys=True)
