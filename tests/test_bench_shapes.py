"""The benchmark's ``separate`` operations, run as tier-1 tests.

The operations come from ``bench/workloads.py``, imported as it is; nothing
under ``bench/`` is changed or run. Each must succeed with a verified
witness, and quickly: one operation in an earlier version spent 1.6 s
listing the groups its search sampled.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from stallings.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", range(6301, 6311))
def test_bench_separate_ops_verify_within_half_a_second(seed):
    slow = []
    for op in workloads.build_ops("separate", seed):
        start = time.perf_counter()
        result = CliRunner().invoke(main, [op.command, *op.args])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, (op.args, result.output)
        assert json.loads(result.stdout)["verified"] is True, op.args
        if elapsed >= 0.5:
            slow.append((op.size, op.args, round(elapsed, 3)))
    assert not slow, slow
