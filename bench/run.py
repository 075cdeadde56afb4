"""Benchmark of the ``stallings`` command line.

    python3 bench/run.py --workload eppa-t2 --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) in this process: one client that
invokes CLI commands back to back through click's ``CliRunner``, closed
loop. The operation list runs once in full and then again, operation by
operation, while the next one still fits in ``--seconds``; short operations
run in further rounds until they have enough samples. An operation's time
is the median of its invocations, and ``wall_s`` is the sum of those
medians, the time the list takes once. Times are rescaled to a reference
machine speed probed before and after each invocation and every second
during a long one (see ``speed_probe`` and ``SpeedSampler``). Outputs are
checked after timing, once per distinct output. The last line of stdout is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full report (environment, input digest, one row per invocation, spans)
goes to ``bench/out/<workload>-seed<seed>-trace<t>.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
operation untraced and traced and reports the per-layer metrics of
``tracing.py``, per pass over the list, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from click.testing import CliRunner

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Reported times are rescaled to a reference machine speed: on a shared
# 2-vCPU cloud VM the interpreter runs up to 1.7x slower for seconds at a
# time when neighbours are busy, so raw seconds from runs minutes apart
# differ by more than any useful bound. REFERENCE_SECONDS is what
# speed_probe() takes on such an Intel Xeon VM when it is quiet, with
# Python 3.11; raw seconds stay in the report's rows.
REFERENCE_SECONDS = 0.002
PROBE_INTERVAL = 1.0  # seconds between speed probes inside a long invocation
MIN_OP_SECONDS = 0.3
MAX_REPEATS = 6
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many operations above it
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


def speed_probe() -> float:
    """Seconds a fixed pure-Python kernel takes right now, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(10_000):
            table[(i, i + 1, i + 2)] = i
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Probes the machine's speed every PROBE_INTERVAL seconds while a long
    invocation runs, from a timer signal in this thread: the speed of a
    shared VM drifts within an operation of several seconds, which probes
    only before and after it miss. ``spent`` is the time the probes took,
    to be taken off the invocation's."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_cli():
    """The CLI entry point, imported from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import stallings.cli

    if Path(stallings.cli.__file__).resolve().parent != src / "stallings":
        raise SystemExit(f"stallings was imported from {stallings.cli.__file__}, not from {src}")
    return stallings.cli.main


def write_inputs(ops, work_dir: Path) -> list[list[str]]:
    """Write every input file; return each operation's argv after the command."""
    work_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, op in enumerate(ops):
        paths = {}
        for name, content in op.files.items():
            path = work_dir / f"{k:03d}-{name}"
            path.write_text(json.dumps(content))
            paths[name] = str(path)
        argvs.append([paths.get(a, a) for a in op.args])
    return argvs


def inputs_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(workloads.op_json(op).encode())
    return h.hexdigest()


def setup(workload: str, seed: int, work_dir: Path):
    """Import the program, generate the inputs and write them."""
    start = time.perf_counter()
    cli_main = import_cli()
    ops = workloads.build_ops(workload, seed)
    argvs = write_inputs(ops, work_dir)
    return cli_main, ops, argvs, time.perf_counter() - start


def timed_setups(workload: str, seed: int, work_root: Path) -> tuple[list[float], set]:
    """Set-up times of fresh interpreters, which pay the import each time,
    at reference speed."""
    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        work_dir = work_root / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-into", str(work_dir), "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        shutil.rmtree(work_dir, ignore_errors=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit status {proc.returncode}")
        record = json.loads(proc.stdout.splitlines()[-1])
        times.append(record["setup_s"])
        digests.add(record["inputs_digest"])
    return times, digests


class Runner:
    """Invokes operations and keeps one row per invocation."""

    def __init__(self, cli_main, workload: str, ops, argvs, output_dir: Path, tracer=None):
        self.cli_main = cli_main
        self.workload = workload
        self.ops = ops
        self.argvs = argvs
        self.tracer = tracer
        self.runner = CliRunner()
        self.rows = []
        self.outputs = {}  # (op index, output digest) -> (status, file holding stdout)
        self.output_dir = output_dir
        self._probe = None  # the machine's speed probed after the last invocation

    def invoke(self, k: int, round_: int, traced: bool = False) -> float:
        """Invoke operation k once, between two speed probes (the closing
        probe of one invocation opens the next); returns its seconds at
        reference speed."""
        op = self.ops[k]
        gc.collect()  # start each operation on a clean heap, as a fresh CLI process would
        before = self._probe or speed_probe()
        if traced:
            self.tracer.op_id = len(self.rows)
            self.tracer.recording = True
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            result = self.runner.invoke(self.cli_main, [op.command, *self.argvs[k]])
            seconds = time.perf_counter() - start - sampler.spent
        if traced:
            self.tracer.recording = False
        self._probe = speed_probe()
        probes = [before, *sampler.probes, self._probe]
        scaled = seconds * REFERENCE_SECONDS * len(probes) / sum(probes)
        failure = None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            failure = f"raised {type(result.exception).__name__}: {result.exception}"
        elif result.exit_code in (2, 3):
            failure = f"exit {result.exit_code}: {_error_code(result.stderr)}"
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        if failure is None and (k, digest) not in self.outputs:
            # kept on disk, so that memory held between operations does not
            # depend on the order they ran in
            path = self.output_dir / f"{k:03d}-{digest[:16]}.out"
            path.write_text(result.stdout)
            self.outputs[(k, digest)] = (result.exit_code, path)
        self.rows.append(
            {
                "workload": self.workload,
                "op": k,
                "command": op.command,
                "size": op.size,
                "round": round_,
                "traced": traced,
                "seconds": scaled,
                "raw_seconds": seconds,
                "status": result.exit_code,
                "failure": failure,
                "out_bytes": len(result.stdout),
                "out_sha256": digest,
            }
        )
        return scaled

    def check_outputs(self) -> dict:
        """Check every distinct output; returns {(op, digest): reason or None}
        and records failed checks and extension sizes on the rows."""
        import checks

        verdicts, points = {}, {}
        for (k, digest), (status, path) in self.outputs.items():
            reason, payload = checks.check(self.ops[k], status, path.read_text())
            verdicts[(k, digest)] = reason
            if payload is not None and self.ops[k].command == "eppa-extend":
                points[(k, digest)] = payload.get("size")
        for row in self.rows:
            key = (row["op"], row["out_sha256"])
            if row["failure"] is None and verdicts.get(key):
                row["failure"] = f"check: {verdicts[key]}"
            if key in points:
                row["points"] = points[key]
        return verdicts


def _error_code(stderr: str) -> str:
    try:
        return json.loads(stderr)["error"]
    except (ValueError, KeyError, TypeError):
        return stderr.strip().splitlines()[-1] if stderr.strip() else "no error payload"


def measure(runner: Runner, seconds: float) -> None:
    """Rounds over the operation list. The first runs every operation; later
    ones run an operation while it still fits in ``seconds``, or while it has
    run for under MIN_OP_SECONDS in total and fewer than MAX_REPEATS times, so
    that short operations get enough samples, spread over the run, for a
    steady median."""
    start = time.perf_counter()
    first = [runner.invoke(k, 0) for k in range(len(runner.ops))]
    spent, count = list(first), [1] * len(first)
    round_ = 1
    while True:
        ran = False
        for k in range(len(first)):
            short = spent[k] < MIN_OP_SECONDS and count[k] < MAX_REPEATS
            if short or time.perf_counter() - start + first[k] <= seconds:
                spent[k] += runner.invoke(k, round_)
                count[k] += 1
                ran = True
        if not ran:
            return
        round_ += 1


def measure_traced(runner: Runner, seconds: float) -> tuple[float, float, int]:
    """Rounds in which every operation runs untraced and traced back to back,
    in an order that alternates from one operation to the next, so that
    neither side always meets the heap the other one grew; more rounds while
    one still fits. Returns untraced and traced seconds and the rounds."""
    start = time.perf_counter()
    plain = traced = 0.0
    rounds = 0
    while True:
        for k in range(len(runner.ops)):
            for tracing_on in (False, True) if k % 2 == 0 else (True, False):
                spent = runner.invoke(k, rounds, traced=tracing_on)
                if tracing_on:
                    traced += spent
                else:
                    plain += spent
        rounds += 1
        if time.perf_counter() - start + (plain + traced) / rounds > seconds:
            return plain, traced, rounds


def op_times(runner: Runner) -> dict:
    """Per-operation median over its untraced invocations, and the list's
    wall time as their sum; the median and tail are taken over operations,
    so every operation counts once whatever the seed and the run length."""
    by_op = {}
    for row in runner.rows:
        if not row["traced"]:
            by_op.setdefault(row["op"], []).append(row["seconds"])
    times = sorted(statistics.median(v) for v in by_op.values())
    n = len(times)
    index = max(n - 1 - TAIL_BEYOND, 0)
    return {
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[index],
        "op_tail_percentile": 100.0 * (index + 1) / n,
        "op_count": n,
    }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **_git_state(),
    }


def _git_state() -> dict:
    """Commit and dirty flag when the benchmark runs from a git checkout."""

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        return {
            "commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    work_root = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_root, ignore_errors=True)
    setup_times, child_digests = timed_setups(workload, seed, work_root)
    cli_main, ops, argvs, _ = setup(workload, seed, work_root / "inputs")
    digest = inputs_digest(ops)
    if child_digests != {digest}:
        raise SystemExit("input generation is not deterministic for this seed")

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(cli_main)
    runner = Runner(cli_main, workload, ops, argvs, work_root, tracer)
    runner.runner.invoke(cli_main, ["--help"])  # warm click's lazy set-up

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        plain, traced, rounds = measure_traced(runner, seconds)
        tracer.uninstall()
        metrics = tracer.metrics(rounds)
        metrics["bench.trace_overhead_frac"] = traced / plain - 1
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
        report["per_layer_moves"] = {name: moves for name, (_, moves) in tracing.METRICS.items()}
        report["absent_wraps"] = tracer.absent
        report["spans"] = tracer.spans
    else:
        measure(runner, seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = op_times(runner)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": times["wall_s"],
            "op_p50_s": times["op_p50_s"],
            "op_tail_s": times["op_tail_s"],
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS
        report["setup_times_s"] = setup_times
        report["op_tail"] = {k: times[k] for k in ("op_tail_percentile", "op_count")}

    verdicts = runner.check_outputs()
    shutil.rmtree(work_root, ignore_errors=True)
    correct = not any(verdicts.values())
    failed = sum(1 for row in runner.rows if row["failure"])
    attempted = len(runner.rows)
    summary = {"failed_frac": failed / attempted}
    points = {row["op"]: row["points"] for row in runner.rows if "points" in row}
    if points:
        summary["ext_points_p50"] = statistics.median(points.values())

    report.update(
        environment=environment(),
        inputs_digest=digest,
        summary=summary,
        metrics=metrics,
        failures=sorted({row["failure"] for row in runner.rows if row["failure"]}),
        rows=runner.rows,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps({"workload": workload, "inputs_digest": digest, **summary, **report.get("op_tail", {})}))
    for failure in report["failures"]:
        print(f"failure: {failure}")
    return result, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into:
        # probed here, not in the parent: the two processes may run on
        # cores that are not equally busy
        before = speed_probe()
        _, ops, _, seconds = setup(args.workload, args.seed, Path(args.setup_into))
        seconds *= REFERENCE_SECONDS * 2 / (before + speed_probe())
        print(json.dumps({"setup_s": seconds, "inputs_digest": inputs_digest(ops)}))
        return 0
    result, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
