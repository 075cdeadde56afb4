from __future__ import annotations

import json
import random

import pytest

from stallings import (
    InputError,
    family_from_list,
    family_to_list,
    make_family,
    make_hypertournament,
)
from stallings.hypertournaments import _iso_violation

_LABELS = [0, 1, 2, 10, "a", "b", "x1", (0, 1), (1, "a"), (2, 0, 1)]


def _random_family(rng: random.Random):
    labels = rng.sample(_LABELS, rng.randint(3, len(_LABELS)))
    pairs = set()
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            pairs.add((x, y) if rng.random() < 0.5 else (y, x))
    host = make_hypertournament(labels, [2], {2: pairs})
    maps = []
    while len(maps) < 3:
        k = rng.randint(1, 3)
        m = dict(zip(rng.sample(labels, k), rng.sample(labels, k)))
        if _iso_violation(host, m) is None:
            maps.append(m)
    return host, make_family(host, maps)


def test_family_round_trips_with_int_str_and_tuple_labels():
    rng = random.Random(5)
    for _ in range(40):
        host, fam = _random_family(rng)
        text = json.dumps(family_to_list(fam))
        assert family_from_list(host, json.loads(text)).maps == fam.maps


def test_family_to_list_refuses_keys_that_read_back_as_another_label():
    host = make_hypertournament([1, "1", 2], [2], {2: [(1, "1"), (1, 2), ("1", 2)]})
    # "1" is its own key and reads back verbatim
    fam = make_family(host, [{"1": 2}])
    assert family_from_list(host, family_to_list(fam)).maps == fam.maps
    # 1 would be written as "1" and read back as the string label
    for maps in ([{1: 2}], [{1: 2}, {"1": 2}]):
        with pytest.raises(InputError, match="read back"):
            family_to_list(make_family(host, maps))
