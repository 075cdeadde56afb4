"""Command line front end.

Every subcommand prints one JSON document on stdout. Errors go to stderr as
{"error": code, "message": ...}. Exit status: 0 for success or a true
verdict, 1 for a false verdict, failed verification or a failed internal
postcondition (``postcondition_failed``), 2 for invalid input (including
violated preconditions), 3 for an exhausted search or resource cap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (
    InputError,
    ResourceCapError,
    SearchCapError,
    StallingsError,
)
from .covers import build_cover, cover_tower, pullback, require_cover_size, tower_pullbacks
from .fiber import fiber_product, is_l_root_closed, is_malnormal
from .graphs import (
    IndexGraph,
    core,
    fold,
    relabel_canonical,
    subgroup_graph,
    to_wedge,
)
from .homology import boundary_matrix, gersten_check, h1_basis
from .hypertournaments import eppa_extend, validate, verify_extension
from .separability import separate_from_cyclic, verify_witness
from .serialize import (
    RecordColumns,
    _integer,
    cocycle_from_value,
    extension_from_dict,
    extension_to_dict,
    family_from_list,
    graph_from_dict,
    graph_to_dict,
    hypertournament_from_dict,
    json_blocks,
    parse_cocycle_text,
    read_graph,
    read_morphism,
    subgroup_from_dict,
    witness_to_dict,
)
from .suite import DEFAULT_TRIALS, run_property_suite
from .verify import verify_counterexample
from .words import Word, maximal_root


def _echo(payload, file=None, out: str | None = None) -> None:
    """Print the payload's JSON; with ``out``, write each block to that file too."""
    # An explicit file: without one, click caches a wrapper per stream in a
    # WeakKeyDictionary whose value refers to its key, so every stream an
    # in-process caller (such as CliRunner) swaps in stays alive for good.
    file = file or sys.stdout
    with _out_file(out) as copy:
        for block in json_blocks(payload):
            click.echo(block, nl=False, file=file)
            if copy:
                copy.write(block)
        click.echo(file=file)
        if copy:
            copy.write("\n")


def _out_file(out: str | None):
    """The ``--out`` file of every command, opened for writing before the
    command prints anything, or a null context without one; a path that
    cannot be opened is invalid input."""
    try:
        return open(out, "w") if out else contextlib.nullcontext()
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _safe_details(details: dict) -> dict:
    return {
        k: v if isinstance(v, (int, float, str, bool, type(None))) else str(v)
        for k, v in details.items()
    }


def _fail(exc: StallingsError, status: int) -> None:
    payload = {"error": exc.code, "message": str(exc)}
    if exc.details:
        payload["details"] = _safe_details(exc.details)
    _echo(payload, sys.stderr)
    sys.exit(status)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SearchCapError, ResourceCapError) as exc:
            _fail(exc, 3)
        except InputError as exc:
            _fail(exc, 2)
        except StallingsError as exc:
            _fail(exc, 1)

    return wrapper


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _component_stats(fp) -> RecordColumns:
    ids = np.arange(len(fp.trees))
    return RecordColumns({
        "component": ids, "vertices": fp.space.component_sizes, "edges": fp.letter_counts,
        "tree": fp.trees, "diagonal": ids == fp.diagonal,
    })


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Subgroup graphs of free groups, their fiber products, homology of
    finite covers, separation witnesses, and hypertournament extensions."""


@main.command("fold")
@click.argument("graph", type=str)
@click.option("--core", "take_core", is_flag=True, help="Also trim to the based core.")
@click.option("--out", type=str, default=None)
@_guarded
def fold_cmd(graph: str, take_core: bool, out: str | None) -> None:
    """Fold a labeled graph; prints the folded graph as JSON."""
    g = fold(read_graph(_load_json(graph)))
    payload = graph_to_dict(relabel_canonical(core(g)) if take_core else g.graph)
    _echo(payload, out=out)


@main.command()
@click.argument("word", type=str)
@click.option("--graph", "graph_path", type=str, default=None)
@click.option("--generators", type=str, default=None, help="Comma separated words.")
@_guarded
def membership(word: str, graph_path: str | None, generators: str | None) -> None:
    """Decide whether WORD lies in the given subgroup; exit 0 iff it does."""
    if (graph_path is None) == (generators is None):
        raise InputError("give exactly one of --graph and --generators")
    if graph_path is not None:
        h = subgroup_from_dict(_load_json(graph_path))
    else:
        gens = [Word.parse(part.strip()) for part in generators.split(",") if part.strip()]
        if not gens:
            raise InputError("no generators given")
        n = max(w.n for w in gens)
        h = subgroup_graph([Word.parse(str(w), n) for w in gens], n)
    w = Word.parse(word, h.n)
    member = h.contains(w)
    _echo({"word": str(w), "member": member})
    sys.exit(0 if member else 1)


@main.command()
@click.argument("graph", type=str)
@_guarded
def basis(graph: str) -> None:
    """Free basis (cycle basis) of the subgroup read off a based graph."""
    h = subgroup_from_dict(_load_json(graph))
    _echo(
        {
            "n": h.n,
            "rank": h.rank(),
            "vertices": len(h.graph.vertices),
            "basis": [str(w) for w in h.generators],
        }
    )


@main.command()
@click.argument("word", type=str)
@_guarded
def root(word: str) -> None:
    """Maximal root of a word: the shortest u with WORD = u ** k."""
    w = Word.parse(word)
    r, k = maximal_root(w)
    _echo({"word": str(w), "root": str(r), "exponent": k})


@main.command("fiber-product")
@click.argument("left", type=str)
@click.argument("right", type=str)
@click.option("--out", type=str, default=None, help="Write the product graph here.")
@_guarded
def fiber_product_cmd(left: str, right: str, out: str | None) -> None:
    """Fiber product of two subgroup graphs over the wedge."""
    a = subgroup_from_dict(_load_json(left))
    b = subgroup_from_dict(_load_json(right))
    fp = fiber_product(a, b)
    payload = {
        "graph": graph_to_dict(fp.product),
        "diagonal": fp.diagonal,
        "component_stats": _component_stats(fp),
    }
    with _out_file(out) as copy:
        _echo(payload)
        if copy:
            _echo(payload["graph"], copy)


@main.command()
@click.argument("graph", type=str)
@_guarded
def malnormal(graph: str) -> None:
    """Is the subgroup malnormal? Exit 0 iff yes."""
    h = subgroup_from_dict(_load_json(graph))
    result = is_malnormal(h)
    cert = None
    if result.certificate is not None:
        c = result.certificate
        cert = {
            "component": c.component_id,
            "conjugator": str(c.conjugator),
            "element": str(c.element),
            "conjugated": str(c.conjugated),
        }
    _echo(
        {
            "verdict": result.malnormal,
            "certificate": cert,
            "component_stats": _component_stats(result.product),
        }
    )
    sys.exit(0 if result.malnormal else 1)


@main.command("root-closed")
@click.argument("graph", type=str)
@click.option("--l", "l", type=int, required=True)
@_guarded
def root_closed(graph: str, l: int) -> None:
    """Is the subgroup closed under l-th roots? Exit 0 iff yes."""
    h = subgroup_from_dict(_load_json(graph))
    result = is_l_root_closed(h, l)
    _echo(
        {
            "verdict": result.closed,
            "l": l,
            "certificate": None if result.witness is None else str(result.witness),
        }
    )
    sys.exit(0 if result.closed else 1)


@main.command()
@click.argument("graph", type=str)
@click.option("--p", type=int, required=True)
@_guarded
def h1(graph: str, p: int) -> None:
    """First homology with Z/p coefficients: dimension, basis, boundary."""
    x = IndexGraph.of(graph_from_dict(_load_json(graph)))
    basis_matrix = h1_basis(x, p)
    _echo(
        {
            "p": p,
            "dimension": basis_matrix.cols,
            "component_ranks": x.component_ranks(),
            "basis": basis_matrix.array.tolist(),
            "boundary": boundary_matrix(x, p).array.tolist(),
        }
    )


@main.command("gersten-check")
@click.argument("config", type=str)
@_guarded
def gersten_check_cmd(config: str) -> None:
    """Check that an H1-injective map stays injective after a Z/p cover.

    CONFIG is JSON with p, domain, codomain, vertex_map (pairs), and a
    cocycle on the codomain; the domain cover and lift are pulled back."""
    data = _load_json(config)
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    for key in ("p", "domain", "codomain", "vertex_map", "cocycle"):
        if key not in data:
            raise InputError(f"config is missing {key!r}")
    p = _integer(data["p"], "p")
    f = read_morphism(data)
    yhat = build_cover(f.codomain, p, cocycle_from_value(f.codomain, p, data["cocycle"]))
    xhat, lift = pullback(f, yhat)
    report = gersten_check(f, xhat, yhat, lift, p)
    _echo(
        {
            "p": report.p,
            "f_star": report.f_star.array.tolist(),
            "lift_star": report.lift_star.array.tolist(),
            "lift_star_injective": report.lift_star_injective,
            "ranks": dict(report.ranks),
            "valuations": [list(v) for v in report.valuations],
        }
    )


@main.command()
@click.argument("graph", type=str)
@click.option("--p", type=int, required=True)
@click.option("--cocycle", "cocycle_text", type=str, required=True)
@click.option("--out", type=str, default=None, help="Write the cover graph here.")
@_guarded
def cover(graph: str, p: int, cocycle_text: str, out: str | None) -> None:
    """Degree-p cover of a graph from a per-letter Z/p cocycle."""
    base = IndexGraph.of(graph_from_dict(_load_json(graph)))
    built = build_cover(base, p, cocycle_from_value(base, p, parse_cocycle_text(cocycle_text)))
    total = graph_to_dict(built.space.graph)
    payload = {
        "graph": total,
        "degree": built.degree,
        "connected": built.is_connected,
        "h1_ranks": built.space.component_ranks(),
    }
    with _out_file(out) as copy:
        _echo(payload)
        if copy:
            _echo(total, copy)


@main.command()
@click.argument("graph", type=str)
@click.option("--p", type=int, required=True)
@click.option("--depth", type=int, required=True)
@click.option("--pullback", "pullback_path", type=str, default=None)
@click.option(
    "--strategy",
    type=click.Choice(["first", "random"]),
    default="first",
    show_default=True,
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="Write the top cover here.")
@_guarded
def tower(
    graph: str,
    p: int,
    depth: int,
    pullback_path: str | None,
    strategy: str,
    seed: int,
    out: str | None,
) -> None:
    """Tower of degree-p covers from surjective cocycles, with an optional
    pull-back report for a based graph over a one-vertex base."""
    base = IndexGraph.of(graph_from_dict(_load_json(graph)))
    if pullback_path is not None:
        # the pull-back outgrows the tower, so it is checked first
        if base.size != 1:
            raise InputError("pull-back reports need a one-vertex base graph")
        a = graph_from_dict(_load_json(pullback_path))
        if a.basepoint is None:
            raise InputError("the pulled-back graph needs a basepoint")
        f = to_wedge(a, base)
        require_cover_size(f.domain, p, depth)
    built = cover_tower(base, p, depth, strategy=strategy, seed=seed)
    levels = []
    for k, level in enumerate(built.spaces):
        levels.append(
            {
                "level": k,
                "degree": p**k,
                "vertices": level.size,
                "edges": len(level.src),
                "connected": level.is_connected,
                "h1_ranks": level.component_ranks(),
            }
        )
    payload = {"p": p, "depth": depth, "levels": levels}
    if pullback_path is not None:
        rows = []
        for k, (pulled, _lift) in enumerate(tower_pullbacks(f, built), start=1):
            rows.append(
                {
                    "level": k,
                    "vertices": pulled.space.size,
                    "connected": pulled.is_connected,
                    "h1_ranks": pulled.space.component_ranks(),
                }
            )
        payload["pullbacks"] = rows
    with _out_file(out) as copy:
        _echo(payload)
        if copy:
            _echo(graph_to_dict(built.spaces[-1].graph), copy)


@main.command()
@click.option("--cyclic", "cyclic_text", type=str, required=True)
@click.option("--word", "word_text", type=str, required=True)
@click.option("--L", "ls", type=int, multiple=True, required=True)
@click.option("--n", "n_opt", type=int, default=2, show_default=True,
              help="Ambient free group rank.")
@click.option("--bound", type=int, default=500_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None)
@_guarded
def separate(
    cyclic_text: str,
    word_text: str,
    ls: tuple[int, ...],
    n_opt: int,
    bound: int,
    seed: int,
    out: str | None,
) -> None:
    """Finite quotient of order prime to every l in L in which WORD leaves
    the cyclic subgroup generated by --cyclic."""
    n = max(n_opt, Word.parse(cyclic_text).n, Word.parse(word_text).n)
    c = Word.parse(cyclic_text, n)
    g = Word.parse(word_text, n)
    witness = separate_from_cyclic(c, g, set(ls), bound=bound, seed=seed)
    payload = witness_to_dict(witness)
    payload["verified"] = verify_witness(witness)
    _echo(payload, out=out)
    sys.exit(0 if payload["verified"] else 1)


@main.command("validate")
@click.argument("structure", type=str)
@_guarded
def validate_cmd(structure: str) -> None:
    """Check the two hypertournament axioms; exit 0 iff both hold."""
    h = hypertournament_from_dict(_load_json(structure))
    ok, violation = validate(h)
    payload = {"valid": ok, "violation": None}
    if violation is not None:
        payload["violation"] = {
            "kind": violation.kind,
            "l": violation.l,
            "witness": list(violation.witness),
        }
    _echo(payload)
    sys.exit(0 if ok else 1)


@main.command("eppa-extend")
@click.argument("structure", type=str)
@click.argument("maps", type=str)
@click.option("--L", "ls", type=int, multiple=True)
@click.option("--bound", type=int, default=500_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None)
@_guarded
def eppa_extend_cmd(
    structure: str,
    maps: str,
    ls: tuple[int, ...],
    bound: int,
    seed: int,
    out: str | None,
) -> None:
    """Extend a subtadpole family of partial maps to automorphisms of a
    finite superstructure."""
    m = hypertournament_from_dict(_load_json(structure))
    if ls and set(ls) != set(m.L):
        raise InputError(
            f"--L gives {sorted(set(ls))} but the structure carries L={sorted(m.L)}"
        )
    fam = family_from_list(m, _load_json(maps))
    result = eppa_extend(m, fam, bound=bound, seed=seed)
    payload = extension_to_dict(result)
    payload["size"] = len(result.extended.universe)
    payload["verified"] = True  # eppa_extend raises unless its audit passed
    del result  # its relation sets are not needed to print the payload
    _echo(payload, out=out)


@main.command("verify-extension")
@click.argument("structure", type=str)
@click.argument("maps", type=str)
@click.argument("extension", type=str)
@_guarded
def verify_extension_cmd(structure: str, maps: str, extension: str) -> None:
    """Re-check a claimed extension from scratch; exit 0 iff it verifies."""
    m = hypertournament_from_dict(_load_json(structure))
    fam = family_from_list(m, _load_json(maps))
    result = extension_from_dict(_load_json(extension))
    ok = verify_extension(result, m, fam)
    _echo({"verified": ok, "size": len(result.extended.universe)})
    sys.exit(0 if ok else 1)


@main.command("verify-counterexample")
@click.option("--p", type=int, required=True)
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--out", type=str, default=None)
@_guarded
def verify_counterexample_cmd(p: int, depth: int, out: str | None) -> None:
    """Full verification of the distinguished malnormal subgroup; exit 0 iff
    every sub-check passes."""
    report = verify_counterexample(p, depth)
    payload = report.as_dict()
    _echo(payload, out=out)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", default=DEFAULT_TRIALS, show_default=True, help="Instances per invariant.")
@_guarded
def suite(seed: int, trials: int) -> None:
    """Seeded randomized property suite; exit 0 iff every invariant holds."""
    report = run_property_suite(seed, trials)
    _echo(report.as_dict())
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
