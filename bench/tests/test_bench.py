"""Tests of the benchmark itself: tiny workloads end to end, the checks
firing on tampered outputs, and the tracer.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "EPPA_T2_SIZES": {5: 1, 6: 1},
    "EPPA_H3_SIZES": {4: 1, 5: 1},
    "SEPARATE_ROOT_LENGTHS": (2,),
    "SEPARATE_EXPONENTS": (2, 3),
    "FOLD_RAW_VERTICES": (20,),
    "FOLD_HAIR_LENGTHS": (10,),
    "MALNORMAL_LENGTHS": (12,),
    "ROOT_CLOSED_SHAPES": ((3, 6),),
    "COUNTEREXAMPLE_TOWERS": ((2, 2),),
    "GERSTEN_PRIMES": (5,),
    "SUBGROUP_INSTANCES": 1,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.fixture(scope="module")
def cli_main():
    return run.import_cli()


def run_ops(cli_main, workload, tmp_path, seed=3, tracer=None):
    ops = workloads.build_ops(workload, seed)
    return run.Runner(cli_main, workload, ops, run.write_inputs(ops, tmp_path), tmp_path, tracer)


def one_round(runner):
    for k in range(len(runner.ops)):
        runner.invoke(k, 0)


def outputs_of(runner, command):
    return [
        (runner.ops[k], json.loads(path.read_text()))
        for (k, _), (_, path) in runner.outputs.items()
        if runner.ops[k].command == command
    ]


def test_generation_is_deterministic_and_follows_the_seed():
    for workload in workloads.WORKLOADS:
        a = run.inputs_digest(workloads.build_ops(workload, 1))
        assert a == run.inputs_digest(workloads.build_ops(workload, 1))
        assert a != run.inputs_digest(workloads.build_ops(workload, 2))


def test_unfolded_generators_give_the_promised_graph_size():
    from stallings.serialize import subgroup_from_dict

    rng = workloads.random.Random(0)
    for n, lengths in ((2, (4, 7)), (3, (5, 3, 9))):
        words = workloads.unfolded_generators(rng, n, lengths)
        h = subgroup_from_dict(workloads.bouquet_json(n, words))
        assert len(h.graph.vertices) == sum(lengths) - len(lengths) + 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_and_checks_at_tiny_size(tiny, cli_main, workload, tmp_path):
    runner = run_ops(cli_main, workload, tmp_path)
    one_round(runner)
    verdicts = runner.check_outputs()
    assert [row["failure"] for row in runner.rows] == [None] * len(runner.ops)
    assert len(verdicts) == len(runner.ops) and not any(verdicts.values())


def test_extension_check_fires_on_swapped_automorphism_images(tiny, cli_main, tmp_path):
    runner = run_ops(cli_main, "eppa-t2", tmp_path)
    one_round(runner)
    op, payload = outputs_of(runner, "eppa-extend")[0]
    assert checks.check_extension(op, payload) is None
    bad = copy.deepcopy(payload)
    images = bad["automorphisms"][0]
    # the first embedded domain point of the map must go where the map says
    source = next(v for x, v in bad["embedding"] if str(x) in op.files["maps.json"][0]["map"])
    i = next(i for i, (u, _) in enumerate(images) if u == source)
    j = (i + 1) % len(images)
    images[i][1], images[j][1] = images[j][1], images[i][1]
    assert checks.check_extension(op, bad) is not None
    bad = copy.deepcopy(payload)
    bad["size"] += 1
    assert checks.check_extension(op, bad) is not None


def test_witness_check_fires_on_edited_images_and_orders(tiny, cli_main, tmp_path):
    runner = run_ops(cli_main, "separate", tmp_path)
    one_round(runner)
    for op, payload in outputs_of(runner, "separate"):
        assert checks.check_witness(op, payload) is None
        degree = payload["degree"]
        bad = copy.deepcopy(payload)
        bad["images"] = {k: list(range(degree)) for k in bad["images"]}
        assert checks.check_witness(op, bad) is not None
        bad = copy.deepcopy(payload)
        bad["order"] *= op.expect["L"][0]
        assert checks.check_witness(op, bad) is not None
        bad = copy.deepcopy(payload)
        bad["excluded"] = op.expect["cyclic"]
        assert checks.check_witness(op, bad) is not None


def test_core_graph_check_fires_on_leaves_and_folds(tiny, cli_main, tmp_path):
    runner = run_ops(cli_main, "subgroups", tmp_path)
    one_round(runner)
    for op, payload in outputs_of(runner, "fold"):
        assert checks.check_core_graph(op, payload) is None
        leaf = copy.deepcopy(payload)
        leaf["vertices"].append("leaf")
        leaf["edges"].append([payload["basepoint"], "leaf", "b"])
        assert checks.check_core_graph(op, leaf) is not None
        folded = copy.deepcopy(payload)
        u, v, letter = folded["edges"][0]
        folded["vertices"].append("twin")
        folded["edges"].append([u, "twin", letter])
        assert checks.check_core_graph(op, folded) is not None


def test_certificate_checks_fire_on_edited_certificates(cli_main, tmp_path):
    cube = workloads.bouquet_json(1, [[1, 1, 1]])  # <a^3>: a is a cube root outside it
    ops = [
        workloads.Op("root-closed", ("graph.json", "--l", "3"), "V=3", {"graph.json": cube}, {"l": 3}),
        workloads.Op("malnormal", ("graph.json",), "V=3", {"graph.json": cube}),
    ]
    runner = run.Runner(cli_main, "subgroups", ops, run.write_inputs(ops, tmp_path), tmp_path)
    one_round(runner)
    (root_op, root), = outputs_of(runner, "root-closed")
    (mal_op, mal), = outputs_of(runner, "malnormal")
    assert root["verdict"] is False and checks.check_root_closed(root_op, root) is None
    assert mal["verdict"] is False and checks.check_malnormal(mal_op, mal) is None
    assert checks.check_root_closed(root_op, dict(root, certificate="aaa")) is not None
    assert checks.check_root_closed(root_op, dict(root, certificate="")) is not None
    bad = dict(mal, certificate=dict(mal["certificate"], conjugator="aaa"))
    assert checks.check_malnormal(mal_op, bad) is not None


def test_verdict_checks_and_exit_statuses():
    op = workloads.Op("gersten-check", ("config.json",), "p=5")
    assert checks.check_gersten(op, {"lift_star_injective": False}) is not None
    op = workloads.Op("verify-counterexample", (), "p^d=2^2")
    payload = {"passed": True, "checks": [{"passed": True}, {"passed": False}]}
    assert checks.check_counterexample(op, payload) is not None
    assert checks.check(op, 2, "{}")[0] == "exit status 2"
    assert checks.check(op, 0, "not json")[0].startswith("malformed output")


def test_operation_times_are_medians_and_the_tail_leaves_ten_above():
    runner = run.Runner.__new__(run.Runner)
    runner.rows = [{"traced": False, "op": k, "seconds": float(k)} for k in range(30)]
    runner.rows += [{"traced": False, "op": 29, "seconds": s} for s in (1.0, 2.0)]
    runner.rows.append({"traced": True, "op": 0, "seconds": 99.0})
    t = run.op_times(runner)
    assert t["op_count"] == 30 and t["wall_s"] == sum(range(29)) + 2.0
    assert t["op_tail_s"] == 18.0 and t["op_p50_s"] == 13.5
    assert abs(t["op_tail_percentile"] - 200 / 3) < 1e-9


def test_tracer_nests_spans_reports_absent_names_and_uninstalls(cli_main, tmp_path, monkeypatch):
    import stallings.cli
    import stallings.graphs

    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [("graphs", "no_such_function", {})])
    original = stallings.graphs.fold
    tracer = tracing.Tracer()
    tracer.install(cli_main)
    assert stallings.cli.fold is not original and stallings.graphs.fold is not original
    graph = workloads.bouquet_json(2, [[1, 2, 1], [1, 2, -1]])
    ops = [workloads.Op("fold", ("graph.json", "--core"), "V=4", {"graph.json": graph})]
    runner = run.Runner(cli_main, "subgroups", ops, run.write_inputs(ops, tmp_path), tmp_path, tracer)
    runner.invoke(0, 0, traced=True)
    tracer.uninstall()
    assert stallings.cli.fold is original and stallings.graphs.fold is original
    assert tracer.absent == ["graphs.no_such_function"]

    names = {span_id: name for _, span_id, _, name, _, _ in tracer.spans}
    parents = {name: names.get(parent) for _, _, parent, name, _, _ in tracer.spans}
    assert parents["graphs.fold"] == "cli.fold" and parents["cli.fold"] is None
    metrics = tracer.metrics(rounds=1)
    assert metrics["bench.absent_wraps"] == 1
    assert tracer.stats["graphs.fold"].calls == 1 and metrics["graphs.fold.edges_in"] == 6
    total = sum(end - start for _, _, parent, _, start, end in tracer.spans if parent is None)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= total + 1e-9


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.METRICS[m["name"]][0]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subgroups", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
