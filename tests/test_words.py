from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stallings import InputError, Word, cyclic_reduce, maximal_root, reduce, subgroup_graph
from stallings.words import empty_word, power_exponent

letters = st.integers(min_value=1, max_value=2).flatmap(
    lambda i: st.sampled_from([i, -i])
)
raw_words = st.lists(letters, max_size=12)


def test_parse_and_str_round_trip():
    for text in ["", "a", "ab", "abAB", "aBBa", "bbbA"]:
        assert str(Word.parse(text, 2)) == text


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        Word.parse("a-b", 2)
    with pytest.raises(InputError):
        Word.parse("abc", 2)


def test_reduce_examples():
    assert str(reduce([1, 2, -2, -1], 2)) == ""
    assert str(reduce([1, 2, -2, 1], 2)) == "aa"
    assert reduce([], 2) == empty_word(2)


@given(raw_words)
@settings(max_examples=200, deadline=None)
def test_reduce_matches_oracle(raw):
    assert reduce(raw, 2).letters == oracles.reduce_tuple(raw)


@given(raw_words, raw_words)
@settings(max_examples=200, deadline=None)
def test_product_reduces_concatenation(a, b):
    u, v = reduce(a, 2), reduce(b, 2)
    assert (u * v).letters == oracles.red_concat(u.letters, v.letters)


@given(raw_words)
@settings(max_examples=200, deadline=None)
def test_inverse_cancels(raw):
    w = reduce(raw, 2)
    assert not (w * w.inverse())
    assert w.inverse().inverse() == w


@given(raw_words, st.sampled_from([1, -1, 2, -2, 0, 3, -3, 1.0, None]))
@settings(max_examples=200, deadline=None)
def test_then_checks_only_the_new_letter(raw, t):
    w = reduce(raw, 2)
    try:
        built = Word(w.letters + (t,), 2)
    except InputError:
        with pytest.raises(InputError):
            w.then(t)
        return
    out = w.then(t)
    assert out == built and hash(out) == hash(built) and out.letters == built.letters


def test_power_and_conjugate():
    w = Word.parse("ab", 2)
    assert str(w**3) == "ababab"
    assert str(w**-2) == "BABA"
    b = Word.parse("b", 2)
    assert str(b * w * b.inverse()) == "ba"
    assert str(b * Word.parse("a", 2) * b.inverse()) == "baB"


def _seeded_words(rng: random.Random, count: int, n: int = 3):
    for _ in range(count):
        yield reduce([rng.choice((1, -1, 2, -2, 3, -3)[: 2 * n]) for _ in range(rng.randint(0, 9))], n)


def test_power_matches_repeated_multiplication():
    rng = random.Random(7)
    conjugated = 0
    for w, u in zip(_seeded_words(rng, 300), _seeded_words(rng, 300)):
        if rng.random() < 0.5:
            w = u * w * u.inverse()
        conjugated += len(cyclic_reduce(w)[0]) > 0
        for k in range(-6, 7):
            base, out = (w if k >= 0 else w.inverse()), empty_word(3)
            for _ in range(abs(k)):
                out = out * base
            assert w**k == out, (w, k)
    assert conjugated >= 120


def test_power_exponent_reads_powers_and_membership():
    rng = random.Random(11)
    found = 0
    for a in _seeded_words(rng, 300, n=2):
        if not a:
            continue
        for k in range(-6, 7):
            assert power_exponent(a**k, a) == k, (a, k)
        root, i = maximal_root(a)
        h = subgroup_graph([a], 2)
        for g in [root**e for e in range(-7, 8)] + list(_seeded_words(rng, 20, n=2)):
            e = power_exponent(g, root)
            assert e is None or root**e == g, (g, root)
            found += e is not None and e % i != 0
            # <a> = <root^i>: g lies in it exactly when g = root^e with i | e
            assert h.contains(g) == (e is not None and e % i == 0), (a, g)
    assert found >= 100


def test_cyclic_reduce_identity():
    w = Word.parse("Babab", 2)
    u, r = cyclic_reduce(w)
    assert u * r * u.inverse() == w
    assert not r or r.letters[0] != -r.letters[-1]


def test_maximal_root_against_oracle_exhaustively():
    for letters_tuple in oracles.ball(2, 6):
        if not letters_tuple:
            continue
        w = Word(letters_tuple, 2)
        root, k = maximal_root(w)
        oracle_root, oracle_k = oracles.oracle_maximal_root(letters_tuple)
        assert k == oracle_k, w
        assert root.letters == oracle_root, w
        assert root**k == w


def test_maximal_root_of_empty_word_rejected():
    with pytest.raises(InputError):
        maximal_root(empty_word(2))


def test_reversed_reverses():
    w = Word.parse("abA", 2)
    assert w.reversed().letters == (-1, 2, 1)
