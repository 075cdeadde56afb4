"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``stallings`` layers by replacing
the function object wherever a ``stallings.*`` module binds it (or on its
class, for methods), and the callbacks of the CLI commands on their click
command objects. Each wrapped call records a span; a layer's self time is
its span minus the spans of wrapped calls made inside it.

``words``, ``arith``, ``errors`` and ``suite`` are not wrapped, nor are the
permutation helpers of ``separability`` (``p_mul`` and friends): they run
once per letter or per point, so a wrapper would cost more than the work it
measures. Their time lands in their callers' self time.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import time
from dataclasses import dataclass, field


def _tuples_out(args, kwargs, result):
    return sum(len(tuples) for _, tuples in result.relations)


def _root_tuples(args, kwargs, result):
    h, l = args[0], args[1] if len(args) > 1 else kwargs["l"]
    return len(h.graph.vertices) ** l


# (module, attribute, {counter: fn(args, kwargs, result) -> number}).
# Counters named *_p50 report the median over calls; others are summed.
WRAPS = [
    ("hypertournaments", "orbit_structure", {"tuples_out": _tuples_out}),
    ("hypertournaments", "verify_extension", {}),
    ("hypertournaments", "validate", {}),
    ("hypertournaments", "eppa_extend", {"points_p50": lambda a, k, r: len(r.extended.universe)}),
    ("separability", "separate_coset_system", {"quotient_order_p50": lambda a, k, r: r.order}),
    ("separability", "direct_product", {}),
    ("separability", "constraint_satisfied", {}),
    ("separability", "closure", {}),
    ("separability", "separate_from_cyclic", {}),
    ("separability", "verify_witness", {}),
    ("fiber", "is_l_root_closed", {"tuples": _root_tuples}),
    ("fiber", "fiber_product", {"product_vertices": lambda a, k, r: len(r.product.vertices)}),
    ("fiber", "fiber_product_over", {}),
    ("fiber", "is_malnormal", {}),
    ("graphs", "fold", {"edges_in": lambda a, k, r: len(a[0].edges)}),
    ("graphs", "core", {"vertices_removed": lambda a, k, r: len(a[0].vertices) - len(r.vertices)}),
    ("graphs", "relabel_canonical", {}),
    ("graphs", "subgroup_graph", {}),
    ("homology", "gersten_check", {}),
    ("homology", "induced_h1_map", {}),
    ("homology", "h1_basis", {}),
    ("homology", "FpMatrix.solve", {}),
    ("covers", "build_cover", {}),
    ("covers", "pullback", {}),
    ("covers", "cover_tower", {}),
    ("covers", "tower_pullbacks", {}),
    ("verify", "verify_counterexample", {}),
    ("serialize", "extension_to_dict", {}),
    ("serialize", "hypertournament_from_dict", {}),
    ("serialize", "family_from_list", {}),
    ("serialize", "graph_from_dict", {}),
    ("serialize", "subgroup_from_dict", {}),
    ("serialize", "witness_to_dict", {}),
]
CLI_COMMANDS = (
    "eppa-extend",
    "separate",
    "fold",
    "malnormal",
    "root-closed",
    "verify-counterexample",
    "gersten-check",
)

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
METRICS = {
    "hypertournaments.orbit_structure.self_s": ("s", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.orbit_structure.calls": ("count", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.orbit_structure.tuples_out": ("count", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.verify_extension.self_s": ("s", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.verify_extension.calls": ("count", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.validate.self_s": ("s", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.validate.calls": ("count", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.eppa_extend.self_s": ("s", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "hypertournaments.eppa_extend.points_p50": ("count", "eppa-t2, eppa-h3: wall_s, op_tail_s"),
    "separability.separate_coset_system.self_s": ("s", "eppa-t2, eppa-h3: wall_s"),
    "separability.separate_coset_system.calls": ("count", "eppa-t2, eppa-h3: wall_s"),
    "separability.separate_coset_system.quotient_order_p50": ("count", "eppa-t2, eppa-h3: wall_s"),
    "separability.direct_product.calls": ("count", "eppa-t2, eppa-h3: wall_s"),
    "separability.constraint_satisfied.calls": ("count", "eppa-t2, eppa-h3: wall_s"),
    "separability.closure.self_s": ("s", "eppa-t2, eppa-h3: wall_s"),
    "separability.closure.calls": ("count", "eppa-t2, eppa-h3: wall_s"),
    "separability.separate_from_cyclic.self_s": ("s", "separate: wall_s"),
    "separability.verify_witness.self_s": ("s", "separate: wall_s"),
    "fiber.is_l_root_closed.self_s": ("s", "separate: wall_s, op_tail_s; subgroups: wall_s"),
    "fiber.is_l_root_closed.calls": ("count", "separate: wall_s, op_tail_s; subgroups: wall_s"),
    "fiber.is_l_root_closed.tuples": ("count", "separate: wall_s, op_tail_s; subgroups: wall_s"),
    "fiber.fiber_product.self_s": ("s", "subgroups: wall_s"),
    "fiber.fiber_product.product_vertices": ("count", "subgroups: wall_s"),
    "fiber.fiber_product_over.self_s": ("s", "subgroups: wall_s"),
    "fiber.is_malnormal.self_s": ("s", "subgroups: wall_s"),
    "graphs.fold.self_s": ("s", "subgroups: wall_s"),
    "graphs.fold.edges_in": ("count", "subgroups: wall_s"),
    "graphs.core.self_s": ("s", "subgroups: wall_s"),
    "graphs.core.vertices_removed": ("count", "subgroups: wall_s"),
    "graphs.relabel_canonical.self_s": ("s", "subgroups: wall_s"),
    "graphs.subgroup_graph.self_s": ("s", "separate: op_p50_s"),
    "graphs.subgroup_graph.calls": ("count", "separate: op_p50_s"),
    "homology.gersten_check.self_s": ("s", "subgroups: wall_s"),
    "homology.induced_h1_map.self_s": ("s", "subgroups: wall_s"),
    "homology.induced_h1_map.calls": ("count", "subgroups: wall_s"),
    "homology.h1_basis.self_s": ("s", "subgroups: wall_s"),
    "homology.FpMatrix.solve.self_s": ("s", "subgroups: wall_s"),
    "covers.build_cover.self_s": ("s", "subgroups: wall_s"),
    "covers.pullback.self_s": ("s", "subgroups: wall_s"),
    "covers.cover_tower.self_s": ("s", "subgroups: wall_s"),
    "covers.tower_pullbacks.self_s": ("s", "subgroups: wall_s"),
    "verify.verify_counterexample.self_s": ("s", "subgroups: wall_s"),
    "serialize.extension_to_dict.self_s": ("s", "eppa-t2, eppa-h3: wall_s"),
    "serialize.hypertournament_from_dict.self_s": ("s", "eppa-t2, eppa-h3: wall_s"),
    "serialize.family_from_list.self_s": ("s", "eppa-t2, eppa-h3: wall_s"),
    "serialize.graph_from_dict.self_s": ("s", "subgroups: wall_s"),
    "serialize.subgroup_from_dict.self_s": ("s", "subgroups: wall_s"),
    "serialize.witness_to_dict.self_s": ("s", "separate: wall_s"),
    **{
        f"cli.{name}.self_s": (
            "s",
            ("eppa-t2, eppa-h3" if name == "eppa-extend" else "separate" if name == "separate" else "subgroups")
            + ": wall_s",
        )
        for name in CLI_COMMANDS
    },
    "bench.trace_overhead_frac": ("ratio", "none: traced wall_s over untraced wall_s, minus 1"),
    "bench.absent_wraps": ("count", "none: wrapped names missing from the library"),
}


@dataclass
class _Stat:
    self_s: float = 0.0
    calls: int = 0
    sums: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


class Tracer:
    """Wraps the layers on ``install`` and records spans while ``recording``."""

    def __init__(self):
        self.recording = False
        self.op_id = None
        self.spans = []  # (op_id, span_id, parent_id, name, start, end)
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self._stack = []  # [span_id, child seconds]
        self._ids = itertools.count()
        self._undo = []

    def install(self, cli_main) -> None:
        modules = [m for name, m in sys.modules.items() if name == "stallings" or name.startswith("stallings.")]
        for module_name, attr, counters in WRAPS:
            name = f"{module_name}.{attr}"
            module = sys.modules.get(f"stallings.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counters)
            if owner_name:
                self._rebind(owner, method, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)
        for command in CLI_COMMANDS:
            cmd = cli_main.commands.get(command)
            if cmd is None:
                self.absent.append(f"cli.{command}")
                continue
            self._rebind(cmd, "callback", self._wrap(f"cli.{command}", cmd.callback, {}))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, original, counters):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                stat = tracer.stats.setdefault(name, _Stat())
                stat.self_s += duration - frame[1]
                stat.calls += 1
                tracer.spans.append((tracer.op_id, span_id, parent, name, start, end))
            for counter, fn in counters.items():
                value = fn(args, kwargs, result)
                if counter.endswith("_p50"):
                    stat.samples.setdefault(counter, []).append(value)
                else:
                    stat.sums[counter] = stat.sums.get(counter, 0) + value
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Per-layer numbers per traced round (medians for *_p50)."""
        out = {}
        for metric in METRICS:
            layer, _, qty = metric.rpartition(".")
            if layer == "bench":
                continue
            stat = self.stats.get(layer, _Stat())
            if qty == "self_s":
                value = stat.self_s / rounds
            elif qty == "calls":
                value = stat.calls / rounds
            elif qty.endswith("_p50"):
                samples = stat.samples.get(qty)
                value = statistics.median(samples) if samples else 0
            else:
                value = stat.sums.get(qty, 0) / rounds
            out[metric] = value
        out["bench.absent_wraps"] = len(self.absent)
        return out
