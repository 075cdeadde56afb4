"""Each law of the property suite runs here once, at the default trial count,
on the substream that ``stallings suite --seed 0`` draws for it."""

from __future__ import annotations

import random

import pytest

from stallings import suite


# pytest.fail rather than assert, so that the check holds under -O as well.


@pytest.mark.parametrize(
    "name, check", suite.INVARIANTS, ids=[name for name, _ in suite.INVARIANTS]
)
def test_invariant_holds(name, check):
    runs, failures = check(random.Random(f"0:{name}"), suite.DEFAULT_TRIALS)
    if failures:
        pytest.fail("\n".join(failures))
    if runs == 0:
        pytest.fail(f"{name}: no instance was checked")
