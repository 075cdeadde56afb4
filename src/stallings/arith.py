"""Small number-theoretic helpers and input checks shared across modules."""

from __future__ import annotations

from numbers import Integral

from .errors import InputError, PostconditionError


def is_prime(m: int) -> bool:
    """False for anything that is not an integer (Python's or numpy's);
    ``int`` is tested first, since the ``Integral`` test costs more."""
    if not isinstance(m, (int, Integral)) or m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return p


def require_bound(bound: int) -> None:
    """InputError unless the search bound is at least 0."""
    if bound < 0:
        raise InputError(f"bound {bound} is negative")


def primes() :
    """All primes in increasing order."""
    m = 2
    while True:
        if is_prime(m):
            yield m
        m += 1


def smallest_prime_not_in(excluded) -> int:
    ex = set(excluded)
    for p in primes():
        if p not in ex:
            return p
    raise PostconditionError("unreachable: the primes never run out")


def valuation(m: int, p: int) -> int:
    """Largest k with p^k dividing m (m nonzero)."""
    if m == 0:
        raise InputError("valuation of 0 is infinite")
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k

