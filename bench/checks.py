"""Independent checks of command outputs.

Each check reads the JSON a command printed and decides, without trusting
the command's own verdict, whether it is correct. Certificates are checked
directly: separation witnesses by plain permutation arithmetic, root and
malnormality certificates by membership, extensions by a fresh
``verify_extension`` on the reloaded output. A check returns None when the
output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json

from stallings.errors import StallingsError
from stallings.graphs import contains
from stallings.hypertournaments import verify_extension
from stallings.serialize import (
    extension_from_dict,
    family_from_list,
    hypertournament_from_dict,
    subgroup_from_dict,
)
from stallings.words import Word

# exit statuses that mean the command ran and reported a verdict
VERDICT_STATUSES = {"malnormal": (0, 1), "root-closed": (0, 1)}


def check(op, status: int, stdout: str) -> tuple[str | None, dict | None]:
    """(reason the output is wrong or None, the parsed output)."""
    if status not in VERDICT_STATUSES.get(op.command, (0,)):
        return f"exit status {status}", None
    try:
        payload = json.loads(stdout)
        return CHECKS[op.command](op, payload), payload
    except (ValueError, KeyError, TypeError, IndexError, StallingsError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", None


def check_extension(op, payload) -> str | None:
    host = hypertournament_from_dict(op.files["structure.json"])
    family = family_from_list(host, op.files["maps.json"])
    result = extension_from_dict(payload)
    if not verify_extension(result, host, family):
        return "extension fails verify_extension"
    if payload["size"] != len(result.extended.universe):
        return f"size {payload['size']} is not the universe size {len(result.extended.universe)}"
    return None


def _compose(f: tuple, g: tuple) -> tuple:
    """f first, then g."""
    return tuple(g[x] for x in f)


def _image(images: dict, text: str, degree: int) -> tuple:
    acc = tuple(range(degree))
    for ch in text:
        g = images[ch.lower()]
        if ch.isupper():
            inverse = [0] * degree
            for i, x in enumerate(g):
                inverse[x] = i
            g = tuple(inverse)
        acc = _compose(acc, g)
    return acc


def _group_order(gens: list, degree: int) -> int:
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = _compose(f, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def _primes(m: int) -> set:
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    return out | ({m} if m > 1 else set())


def check_witness(op, payload) -> str | None:
    expect = op.expect
    if (payload["subgroup"], payload["excluded"]) != (expect["cyclic"], expect["word"]):
        return "witness is about other words than the ones asked"
    images = {k: tuple(v) for k, v in payload["images"].items()}
    degree = len(next(iter(images.values())))
    if any(sorted(g) != list(range(degree)) for g in images.values()):
        return "an image is not a permutation"
    c = _image(images, expect["cyclic"], degree)
    powers = {tuple(range(degree))}
    cur = c
    while cur not in powers:
        powers.add(cur)
        cur = _compose(cur, c)
    if _image(images, expect["word"], degree) in powers:
        return "the word's image lies in the image of the cyclic subgroup"
    order = payload["order"]
    bad = _primes(order) & set(expect["L"])
    if bad:
        return f"quotient order {order} has primes {sorted(bad)} from L"
    actual = _group_order(list(images.values()), degree)
    if order % actual:
        return f"the images generate a group of order {actual}, not dividing {order}"
    return None


def check_core_graph(op, payload) -> str | None:
    vertices = payload["vertices"]
    out_seen, in_seen = set(), set()
    degree = {v: 0 for v in vertices}
    adjacent = {v: [] for v in vertices}
    for u, v, letter in payload["edges"]:
        if (u, letter) in out_seen or (v, letter) in in_seen:
            return f"two {letter}-edges meet at a vertex: not immersed"
        out_seen.add((u, letter))
        in_seen.add((v, letter))
        degree[u] += 1
        degree[v] += 1
        adjacent[u].append(v)
        adjacent[v].append(u)
    base = payload["basepoint"]
    if any(d < 2 for v, d in degree.items() if v != base):
        return "a vertex other than the basepoint has degree below 2: not core"
    reached, stack = {base}, [base]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(vertices):
        return "graph is not connected"
    want = op.expect.get("core_vertices")
    if want is not None and len(vertices) != want:
        return f"core has {len(vertices)} vertices, expected {want}"
    return None


def _subgroup(op):
    return subgroup_from_dict(op.files["graph.json"])


def check_malnormal(op, payload) -> str | None:
    cert = payload["certificate"]
    if payload["verdict"]:
        return None if cert is None else "malnormal verdict carries a certificate"
    h = _subgroup(op)
    n = h.graph.n
    conjugator, element, conjugated = (Word.parse(cert[k], n) for k in ("conjugator", "element", "conjugated"))
    if contains(h, conjugator):
        return "conjugator lies in the subgroup"
    if not element or not contains(h, element) or not contains(h, conjugated):
        return "element or its conjugate is trivial or outside the subgroup"
    if conjugator * element * conjugator.inverse() != conjugated:
        return "conjugated element is not the conjugate"
    return None


def check_root_closed(op, payload) -> str | None:
    l = op.expect["l"]
    if payload["l"] != l:
        return f"answered for l={payload['l']}, asked l={l}"
    if payload["verdict"]:
        return None if payload["certificate"] is None else "closed verdict carries a certificate"
    h = _subgroup(op)
    w = Word.parse(payload["certificate"], h.graph.n)
    if contains(h, w) or not contains(h, w ** l):
        return f"certificate {w} is not an {l}-th root outside the subgroup"
    return None


def check_counterexample(op, payload) -> str | None:
    if payload["passed"] is not True or not all(c["passed"] for c in payload["checks"]):
        return "verification did not pass"
    return None


def check_gersten(op, payload) -> str | None:
    return None if payload["lift_star_injective"] is True else "lift is not injective on H_1"


CHECKS = {
    "eppa-extend": check_extension,
    "separate": check_witness,
    "fold": check_core_graph,
    "malnormal": check_malnormal,
    "root-closed": check_root_closed,
    "verify-counterexample": check_counterexample,
    "gersten-check": check_gersten,
}
