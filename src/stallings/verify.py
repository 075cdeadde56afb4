"""End-to-end verification of a distinguished rank-two subgroup of F_2.

The subgroup G generated by a b a^-1 b^-1 a and b has a five-vertex core
graph, is malnormal, and the inclusion into the wedge of two circles is an
isomorphism on first homology with Z/p coefficients for every prime p. As a
consequence the pull-back of G's core along any tower of degree-p covers of
the wedge built from surjective cocycles stays connected, with the same
Z/p homology rank as the cover itself, even though G has infinite index.
verify_counterexample checks all of this exactly and returns a report with
one row per sub-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import require_prime
from .covers import cover_tower, require_cover_size, tower_pullbacks
from .errors import InputError
from .fiber import is_malnormal
from .graphs import IndexGraph, subgroup_graph
from .homology import induced_h1_map
from .words import Word

GENERATOR_TEXTS = ("abABa", "b")


@dataclass(frozen=True)
class VerificationReport:
    p: int
    depth: int
    subgroup_counts: dict
    product_counts: dict
    component_trees: tuple
    malnormal: bool
    h1_isomorphism: bool
    tower_table: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "depth": self.depth,
            "generators": list(GENERATOR_TEXTS),
            "subgroup_counts": dict(self.subgroup_counts),
            "product_counts": dict(self.product_counts),
            "component_trees": [
                {"component": cid, "tree": tree} for cid, tree in self.component_trees
            ],
            "malnormal": self.malnormal,
            "h1_isomorphism": self.h1_isomorphism,
            "tower": [dict(row) for row in self.tower_table],
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
            "passed": self.passed,
        }


def _counts(g: IndexGraph) -> dict:
    return {
        "vertices": g.size,
        "a_edges": int((g.letter == 1).sum()),
        "b_edges": int((g.letter == 2).sum()),
    }


def verify_counterexample(p: int, depth: int = 2) -> VerificationReport:
    """Check every claimed property of G = <a b a^-1 b^-1 a, b> at the prime
    p, following covers down a tower of the given depth."""
    require_prime(p)
    if depth < 0:
        raise InputError(f"depth must be nonnegative, got {depth}")

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    gens = [Word.parse(text, 2) for text in GENERATOR_TEXTS]
    h = subgroup_graph(gens, 2)
    f = h.wedge_map  # is_malnormal's fiber product reuses it
    sub_counts = _counts(f.domain)
    check(
        "core graph size",
        sub_counts == {"vertices": 5, "a_edges": 3, "b_edges": 3},
        f"got {sub_counts}",
    )

    mal = is_malnormal(h)
    fp = mal.product
    prod_counts = _counts(fp.space)
    check(
        "fiber product size",
        prod_counts == {"vertices": 25, "a_edges": 9, "b_edges": 9},
        f"got {prod_counts}",
    )

    off_diag = fp.non_diagonal_edge_counts()
    check(
        "non-diagonal edges",
        off_diag == {1: 6, 2: 6},
        f"got {off_diag}",
    )

    diagonal = fp.diagonal
    trees = tuple(
        (cid, tree) for cid, tree in enumerate(fp.trees.tolist()) if cid != diagonal
    )
    check(
        "non-diagonal components are trees",
        all(tree for _, tree in trees),
        f"{sum(1 for _, t in trees if t)}/{len(trees)} components are trees",
    )

    check("malnormal", mal.malnormal, "no conjugate intersects nontrivially")

    f_star = induced_h1_map(f, p)
    h1_iso = f_star.is_isomorphism
    check(
        "H1 isomorphism mod p",
        h1_iso,
        f"induced map is {f_star.rows}x{f_star.cols} of rank {f_star.rank}",
    )

    # the pull-backs of G's core outgrow the wedge's tower, so an oversized
    # run is refused here, before either is built
    require_cover_size(f.domain, p, depth)
    tower = cover_tower(f.codomain, p, depth)
    table = []
    for level, (cover, _lift) in enumerate(tower_pullbacks(f, tower), start=1):
        ranks = cover.space.component_ranks()
        connected = len(ranks) == 1
        x = tower.spaces[level]
        level_rank = len(x.src) - x.size + 1  # cover_tower checks X_level is connected
        row = {
            "level": level,
            "degree": p**level,
            "connected": connected,
            "pullback_h1_rank": sum(ranks),
            "cover_h1_rank": level_rank,
        }
        table.append(row)
        check(
            f"level {level} pull-back connected",
            connected,
            f"degree {p ** level} cover",
        )
        check(
            f"level {level} homology rank",
            connected and ranks[0] == level_rank,
            f"pull-back rank {row['pullback_h1_rank']}, cover rank {level_rank}",
        )

    return VerificationReport(
        p=p,
        depth=depth,
        subgroup_counts=sub_counts,
        product_counts=prod_counts,
        component_trees=trees,
        malnormal=mal.malnormal,
        h1_isomorphism=h1_iso,
        tower_table=tuple(table),
        checks=tuple(checks),
    )
