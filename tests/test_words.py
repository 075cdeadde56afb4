from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stallings import InputError, Word, cyclic_reduce, maximal_root, reduce
from stallings.words import empty_word

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
