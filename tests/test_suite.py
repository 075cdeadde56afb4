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


def test_forced_failures_carry_the_trial_index(monkeypatch):
    # the witness and orbit laws count trials by the instances they check,
    # not by a loop index; a forced failure on every instance must still
    # say which instance it was
    monkeypatch.setattr(suite, "verify_witness", lambda witness: False)
    monkeypatch.setattr(suite, "validate", lambda h: (False, None))
    for check, message in (
        (suite._inv_witness, "fails to verify"),
        (suite._inv_orbits, "orbit completion is not a valid structure"),
    ):
        runs, failures = check(random.Random("0:forced"), 3)
        ok = runs == len(failures) == 3 and all(
            f.startswith(f"trial {t}: ") and message in f for t, f in enumerate(failures)
        )
        if not ok:
            pytest.fail(f"{check.__name__}: {runs} runs, failures {failures}")
