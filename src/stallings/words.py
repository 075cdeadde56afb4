"""Freely reduced words over a finite alphabet of generators.

A word is a sequence of nonzero signed generator indices: ``2`` is the second
generator, ``-2`` its inverse. The text form (used in JSON and on the command
line) writes generator i as the i-th lowercase ASCII letter and its inverse as
the uppercase letter, so ``"abA"`` is a * b * a^-1. The text form is only
available for alphabets of size <= 26; larger alphabets use the integer-list
form directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError, PostconditionError


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1 pairs)."""
    out: list[int] = []
    for t in letters:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


@dataclass(frozen=True, order=True)
class Word:
    """A freely reduced word. Use :func:`reduce` or :meth:`Word.parse` to build."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        for t in self.letters:
            if not isinstance(t, int) or t == 0 or abs(t) > self.n:
                raise InputError(
                    f"letter {t!r} out of range for alphabet of size {self.n}"
                )
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise InputError(
                    f"word {self.letters} is not freely reduced at {a}, {b}"
                )
        # words key dicts, such as a quotient's cyclic images of coset
        # generators, so the hash is computed once, not per lookup
        object.__setattr__(self, "_hash", hash((self.letters, self.n)))

    def then(self, t: int) -> "Word":
        """This word followed by the letter t. Only t is checked, for its
        range and against cancelling the last letter: the word's own
        letters were checked when it was built."""
        if not isinstance(t, int) or t == 0 or abs(t) > self.n or self.letters[-1:] == (-t,):
            raise InputError(f"letter {t!r} cannot follow {self.letters} over an alphabet of size {self.n}")
        out = object.__new__(Word)
        letters = self.letters + (t,)
        object.__setattr__(out, "letters", letters)
        object.__setattr__(out, "n", self.n)
        object.__setattr__(out, "_hash", hash((letters, self.n)))
        return out

    def __hash__(self) -> int:
        return self._hash

    # -- construction ----------------------------------------------------

    @staticmethod
    def parse(text: str, n: int | None = None) -> "Word":
        """Parse text like ``"abA"``; uppercase means inverse."""
        letters = []
        for ch in text.strip():
            if "a" <= ch <= "z":
                letters.append(ord(ch) - ord("a") + 1)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - ord("A") + 1))
            else:
                raise InputError(f"unexpected character {ch!r} in word {text!r}")
        if n is None:
            n = max((abs(t) for t in letters), default=1)
        return reduce(letters, n)

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise InputError(f"alphabet mismatch: {self.n} vs {other.n}")
        return Word(reduce_letters(self.letters + other.letters), self.n)

    def inverse(self) -> "Word":
        return Word(tuple(-t for t in reversed(self.letters)), self.n)

    def __pow__(self, k: int) -> "Word":
        """u * r^k * u^-1 for self = u * r * u^-1, r cyclically reduced, written once."""
        if k == 0 or not self:
            return Word((), self.n)
        u, r = cyclic_reduce(self)
        if k < 0:
            r, k = r.inverse(), -k
        return Word(u.letters + r.letters * k + u.inverse().letters, self.n)

    def reversed(self) -> "Word":
        """Letters in reverse order, *not* inverted (an anti-automorphism)."""
        return Word(tuple(reversed(self.letters)), self.n)

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        if self.n > 26:
            return str(list(self.letters))
        return "".join(
            chr(ord("a") + t - 1) if t > 0 else chr(ord("A") - t - 1)
            for t in self.letters
        )

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, n={self.n})"


def reduce(raw: Sequence[int] | str, n: int | None = None) -> Word:
    """Freely reduce a raw letter sequence (or text form) into a Word."""
    if isinstance(raw, str):
        return Word.parse(raw, n)
    letters = tuple(int(t) for t in raw)
    if n is None:
        n = max((abs(t) for t in letters), default=1)
    for t in letters:
        if t == 0 or abs(t) > n:
            raise InputError(f"letter {t} out of range for alphabet of size {n}")
    return Word(reduce_letters(letters), n)


def empty_word(n: int) -> Word:
    return Word((), n)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = u * r * u^-1 with r cyclically reduced; return (u, r)."""
    t = w.letters
    k = 0
    while len(t) - 2 * k >= 2 and t[k] == -t[-1 - k]:
        k += 1
    return Word(t[:k], w.n), Word(t[k : len(t) - k], w.n)


def power_exponent(g: Word, a: Word) -> int | None:
    """The e with g = a^e, or None when g is no power of the nontrivial a.

    With a = u * r * u^-1, r cyclically reduced, a^e is the reduced word
    u * r^e * u^-1, so g is read against that form once, in O(|g|).
    """
    if not g:
        return 0
    u, r = cyclic_reduce(a)
    body = g.letters[len(u) : len(g) - len(u)]
    if g.letters != u.letters + body + u.inverse().letters or len(body) % len(r):
        return None
    e = len(body) // len(r)
    if body == r.letters * e:
        return e
    return -e if body == r.inverse().letters * e else None


def maximal_root(w: Word) -> tuple[Word, int]:
    """Return (root, k) with root^k = w and root of minimal length.

    Non-cyclically-reduced input is handled through the conjugation form
    w = u r u^-1: the root of w is u * (root of r) * u^-1 with the same
    exponent, because conjugation is an automorphism.
    """
    if not w:
        raise InputError("the empty word has no maximal root")
    u, r = cyclic_reduce(w)
    m = len(r)
    for d in range(1, m + 1):
        if m % d:
            continue
        block = r.letters[:d]
        if block * (m // d) == r.letters:
            # u + block + u^-1 is reduced: block starts and ends as r does
            return Word(u.letters + block + u.inverse().letters, w.n), m // d
    raise PostconditionError("unreachable: d = len(r) always divides")
