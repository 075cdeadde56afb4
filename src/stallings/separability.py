"""Constructive separation of cyclic subgroups in finite quotients.

Quotients are given as permutation actions: a homomorphism from the free
group assigns one permutation per letter, a word evaluates by composing
left to right, and the quotient order is that of the group the images
were drawn from, which contains the image. Witnesses certify that the
image of a word avoids the image of a cyclic subgroup, with the quotient
order constrained to prescribed primes. The search enumerates
homomorphisms into a small graded library of p-groups, so failures are
honest cap reports rather than non-constructive appeals to residual
properties.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import gcd, lcm, prod
from operator import itemgetter

import numpy as np

from .arith import is_prime, primes, require_prime, smallest_prime_not_in, valuation
from .errors import (
    InputError,
    PostconditionError,
    PreconditionError,
    ResourceCapError,
    RootClosureError,
    SearchCapError,
)
from .fiber import power_root_closure
from .words import Word, empty_word, maximal_root, power_exponent

Perm = tuple[int, ...]

GROUP_ORDER_CAP = 20_000


def p_identity(degree: int) -> Perm:
    return tuple(range(degree))


def p_mul(f: Perm, g: Perm) -> Perm:
    """Apply f first, then g. ``itemgetter`` gathers in C, but returns a bare
    item rather than a tuple when given one index."""
    if len(f) < 2:
        return tuple(g[x] for x in f)
    return itemgetter(*f)(g)


def _rotation(q: int, s: int) -> Perm:
    """The element s of Z/q, acting on 0, ..., q - 1 by adding s."""
    return tuple((x + s) % q for x in range(q))


def left_coset(rep: Perm, shifts: Iterable[Perm]) -> list[Perm]:
    """rep and rep * s for each s in shifts, the non-identity elements of a
    subgroup: rep stands for rep * 1, so a trivial subgroup costs no product."""
    return [rep, *(p_mul(rep, s) for s in shifts)]


def p_inv(f: Perm) -> Perm:
    out = [0] * len(f)
    for i, x in enumerate(f):
        out[x] = i
    return tuple(out)


def closure(perms: Iterable[Perm]) -> frozenset[Perm]:
    gens = [p for p in perms]
    if not gens:
        raise InputError("closure of an empty generator list has no degree")
    seen: set[Perm] = {p_identity(len(gens[0]))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = p_mul(f, g)
                if h not in seen:
                    if len(seen) >= GROUP_ORDER_CAP:
                        raise ResourceCapError(
                            f"permutation group exceeds {GROUP_ORDER_CAP} elements"
                        )
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class FiniteQuotient:
    """A quotient of F_n presented by letter images in a permutation group.

    ``order`` is the order of the group the images were drawn from: a
    library group, Z/q, a sampled group's closure, or for a direct product
    the product of its factors' orders. The image is a subgroup of it, so
    every order-theoretic guarantee (which primes can divide element
    orders) passes to the image by Lagrange; ``verify_witness`` computes the
    image's order, by the one closure a witness gets, and checks that it
    divides this one.
    """

    n: int
    degree: int
    order: int
    images: tuple[Perm, ...]
    name: str

    def __post_init__(self):
        if len(self.images) != self.n:
            raise InputError("need one image per letter")
        for g in self.images:
            if sorted(g) != list(range(self.degree)):
                raise InputError("images must be permutations of 0..degree-1")

    @staticmethod
    def trivial(n: int) -> "FiniteQuotient":
        return FiniteQuotient(n, 1, 1, tuple([(0,)] * n), "1")

    @cached_property
    def inverse_images(self) -> tuple[Perm, ...]:
        return tuple(p_inv(g) for g in self.images)

    def evaluate(self, w: Word) -> Perm:
        if w.n > self.n:
            raise InputError(f"word uses letters beyond the quotient's {self.n}")
        acc = p_identity(self.degree)
        for t in w:
            g = self.images[t - 1] if t > 0 else self.inverse_images[-t - 1]
            acc = p_mul(acc, g)
        return acc

    def cyclic_image(self, w: Word | None) -> frozenset[Perm]:
        """The subgroup generated by the image of one word."""
        if w is None:
            return frozenset([p_identity(self.degree)])
        g = self.evaluate(w)
        out = {p_identity(self.degree)}
        cur = g
        while cur not in out:
            out.add(cur)
            cur = p_mul(cur, g)
        return frozenset(out)


def _capped_quotient(n: int, images: Sequence[Perm], order: int, name: str) -> FiniteQuotient:
    """The quotient on images drawn from a group of the given order. A group
    past GROUP_ORDER_CAP is refused here, with the error that the closure in
    ``verify_witness`` raises on images that generate it."""
    if order > GROUP_ORDER_CAP:
        raise ResourceCapError(f"permutation group exceeds {GROUP_ORDER_CAP} elements")
    return FiniteQuotient(n, len(images[0]), order, tuple(images), name)


def perm_order(g: Perm) -> int:
    order = 1
    seen = [False] * len(g)
    for start in range(len(g)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = g[x]
            length += 1
        order = lcm(order, length)
    return order


def direct_product(*factors: FiniteQuotient) -> FiniteQuotient:
    """Product quotient acting on the disjoint union of the factors' points,
    in the order given.

    The image is a subgroup of the full direct product, so the certified
    order is the product of the factor orders; no closure is computed. One
    factor is its own product.
    """
    if len(factors) == 1:
        return factors[0]
    n = factors[0].n
    if any(f.n != n for f in factors):
        raise InputError("alphabet mismatch in product")
    offsets = list(itertools.accumulate((f.degree for f in factors), initial=0))
    images = tuple(
        tuple(x + d for g, d in zip(letter, offsets) for x in g)
        for letter in zip(*(f.images for f in factors))
    )
    return FiniteQuotient(
        n,
        offsets[-1],
        prod(f.order for f in factors),
        images,
        " x ".join(f.name for f in factors),
    )


def prime_factors(m: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


# -- the p-group library -------------------------------------------------------------


def _elementary_squared_elements(p: int) -> np.ndarray:
    """(Z/p)^2 on two disjoint p-cycles: element k1 * p + k2 rotates the
    first by k1 and the second by k2."""
    k1, k2 = np.divmod(np.arange(p * p)[:, None], p)
    x = np.arange(p)
    return np.hstack([(x + k1) % p, p + (x + k2) % p])


def _elementary_squared_table(p: int) -> np.ndarray:
    """(Z/p)^2 adds its digits k1, k2."""
    k1, k2 = np.divmod(np.arange(p * p), p)
    return (k1[:, None] + k1) % p * p + (k2[:, None] + k2) % p


def _heisenberg_elements(p: int) -> np.ndarray:
    """Heis(p) acting faithfully on F_p^2, point (u, v) at index u*p + v.
    (a,b,c) is the matrix [[1, a, c], [0, 1, b], [0, 0, 1]] acting on row
    vectors (1, u, v) from the right: it sends (u, v) to (u + a, v + b*u + c),
    and "element i, then element j" acts as the matrix product, which is the
    law of ``_heisenberg_table``."""
    a, b, c = (d[:, None] for d in np.unravel_index(np.arange(p**3), (p, p, p)))
    u, v = np.divmod(np.arange(p * p), p)
    return (u + a) % p * p + (v + b * u + c) % p


def _heisenberg_table(p: int) -> np.ndarray:
    """Order p^3, upper unitriangular 3x3 over Z/p, by its law
    (a,b,c) * (a',b',c') = (a+a', b+b', c+c'+a*b'), with (a,b,c) at index
    (a*p + b)*p + c. Every intermediate value stays below p^3, so the
    narrowest dtype holding an index will do."""
    digit = np.arange(p, dtype=np.min_scalar_type(p**3 - 1))
    a, b, c, a2, b2, c2 = np.ix_(*[digit] * 6)
    table = ((a + a2) % p * p + (b + b2) % p) * p + (c + c2 + a * b2) % p
    return table.reshape(p**3, p**3)


def _wreath_digits(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Z/p wr Z/p of order p^(p+1): the element index has base-p digits
    s, o_0, ..., o_(p-1); returns s and the rows o."""
    s, *offsets = np.unravel_index(np.arange(p ** (p + 1)), (p,) * (p + 1))
    return s, np.stack(offsets, axis=1)


def _wreath_elements(p: int) -> np.ndarray:
    """Z/p wr Z/p acting on the p x p grid: (i, j) -> (i + s, j + o_i),
    point (i, j) having index i*p + j."""
    s, o = _wreath_digits(p)
    i, j = np.divmod(np.arange(p * p), p)
    return (i + s[:, None]) % p * p + (j + o[:, i]) % p


def _wreath_table(p: int) -> np.ndarray:
    """f, then g, sends (i, j) to (i + s_f + s_g, j + o_f[i] + o_g[i + s_f])."""
    s, o = _wreath_digits(p)
    f, g = np.ix_(np.arange(len(s)), np.arange(len(s)))
    offsets = (o[f] + o[g[..., None], (np.arange(p) + s[f][..., None]) % p]) % p
    return np.ravel_multi_index(((s[f] + s[g]) % p, *np.moveaxis(offsets, -1, 0)), (p,) * (p + 1))


@dataclass(frozen=True, eq=False)
class TableGroup:
    """A non-cyclic library p-group, searched by index arithmetic.

    ``mul[i * order + j]`` is the index of "element i, then element j",
    written by ``law`` from the group's product law (index 0 is the
    identity). Element i is the permutation ``elements[i]``, listed by
    ``build`` in a faithful action on at most p^2 points. ``inv[i]`` is the
    index of the inverse of element i. Each is a read-only array built on
    first use.
    """

    order: int
    law: Callable[[], np.ndarray]
    build: Callable[[], np.ndarray]

    @cached_property
    def elements(self) -> np.ndarray:
        out = self.build()
        out = out.astype(np.min_scalar_type(out.shape[1] - 1), copy=False)
        out.flags.writeable = False
        return out

    @cached_property
    def mul(self) -> np.ndarray:
        out = self.law().astype(np.min_scalar_type(self.order - 1), copy=False).ravel()
        out.flags.writeable = False
        return out

    @cached_property
    def inv(self) -> np.ndarray:
        # x^-1 = x^(E-1) for the exponent E, the first power at which every
        # element is the identity: E column gathers, not a scan of the table
        prev = power = x = np.arange(self.order)
        while power.any():
            prev, power = power, self.mul[power * self.order + x].astype(np.intp)
        out = prev.astype(self.mul.dtype)
        out.flags.writeable = False
        return out

    def perm(self, i: int) -> Perm:
        return tuple(self.elements[i].tolist())


@cache
def group_library(p: int) -> tuple[tuple[str, str, object], ...]:
    """Candidate p-groups in increasing order: cyclic up to p^4, elementary
    abelian rank 2, mod-p Heisenberg, and (for p <= 3) the wreath product.

    Cyclic entries carry their modulus (("cyclic", q)) so searches can use
    integer arithmetic; the rest carry a ``TableGroup`` (("table", group)),
    which builds its Cayley table and its elements, as permutations of at
    most p^2 points, when a search first reaches it. One library per p
    serves every search in the process.
    """
    require_prime(p)
    squared = TableGroup(
        p**2, partial(_elementary_squared_table, p), partial(_elementary_squared_elements, p)
    )
    heisenberg = TableGroup(p**3, partial(_heisenberg_table, p), partial(_heisenberg_elements, p))
    entries: list[tuple[int, str, str, object]] = [
        (p, f"Z/{p}", "cyclic", p),
        (p**2, f"(Z/{p})^2", "table", squared),
        (p**2, f"Z/{p ** 2}", "cyclic", p**2),
        (p**3, f"Heis({p})", "table", heisenberg),
        (p**3, f"Z/{p ** 3}", "cyclic", p**3),
    ]
    if p <= 3:
        order = p ** (p + 1)
        wreath = TableGroup(order, partial(_wreath_table, p), partial(_wreath_elements, p))
        entries.append((order, f"Z/{p} wr Z/{p}", "table", wreath))
    entries.append((p**4, f"Z/{p ** 4}", "cyclic", p**4))
    entries.sort(key=lambda e: e[0])
    return tuple((name, kind, data) for _, name, kind, data in entries)


# -- witnesses ---------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationWitness:
    quotient: FiniteQuotient
    subgroup: Word
    excluded: Word
    allowed_primes: frozenset | None
    excluded_primes: frozenset
    transcript: tuple[str, ...]


def verify_witness(w: SeparationWitness) -> bool:
    """Re-evaluate everything inside the finite quotient; no exceptions,
    just a verdict."""
    try:
        q = w.quotient
        factors = prime_factors(q.order) if q.order > 1 else set()
        if w.allowed_primes is not None and not factors <= set(w.allowed_primes):
            return False
        if factors & set(w.excluded_primes):
            return False
        actual = len(closure(q.images))
        if actual == 0 or q.order % actual:
            return False
        sub_image = q.cyclic_image(w.subgroup)
        return q.evaluate(w.excluded) not in sub_image
    except (InputError, ResourceCapError):
        return False


# -- constraint search -------------------------------------------------------------
#
# A constraint is a conjunction of coset clauses (coset_word, generator); it is
# satisfied in a quotient when the intersection of the cosets
# evaluate(coset_word) * <evaluate(generator)> is empty. Non-membership of g in
# a cyclic subgroup <h> is the two-clause constraint ((g, h), (empty, h)).
# A coset system holds its constraints as rows of clause ids (CosetSystem),
# and one rule, _unsatisfied, says which rows fail in a quotient, evaluating
# each clause once: in a system whose generators are all trivial a row fails
# when its clause images are all equal, and in any other system when the
# cosets of its clauses share an element.
#
# The library search goes round by round: one round is one group and one set
# of active letters, and its assignments put non-identity values on those
# letters in itertools.product order. A round is checked SEARCH_BLOCK
# assignments at a time in numpy (_first_hit): in Z/q by exponent-sum
# arithmetic over the block (_cyclic_block), in a table group by gathers from
# its Cayley table (_table_block). A one-letter round needs no block of its
# own: in Z/q its first hit is the shift 1 or there is none, and one block
# per search checks the shift 1 of every letter in every Z/q; in a table
# group there is none.

CosetClause = tuple[Word, "Word | None"]
Constraint = tuple[CosetClause, ...]


def constraint_satisfied(q: FiniteQuotient, constraint: Constraint) -> bool:
    """True when the intersection of the clause cosets is empty in q."""
    identity = p_identity(q.degree)
    common: frozenset[Perm] | None = None
    for coset_word, generator in constraint:
        coset = frozenset(
            left_coset(q.evaluate(coset_word), q.cyclic_image(generator) - {identity})
        )
        common = coset if common is None else common & coset
        if not common:
            return True
    return common is not None and not common


def _letter_sums(w: Word, n: int) -> tuple[int, ...]:
    sums = [0] * n
    for t in w:
        sums[abs(t) - 1] += 1 if t > 0 else -1
    return tuple(sums)


def _occurring_letters(constraint: Constraint) -> tuple[int, ...]:
    letters: set[int] = set()
    for coset_word, generator in constraint:
        for w in (coset_word, generator):
            if w is not None:
                letters.update(abs(t) for t in w)
    return tuple(sorted(letters))


FALLBACK_SAMPLES = 2_000
FALLBACK_CLOSURE_TRIES = 40
FALLBACK_POOL = 10


def _tower_perm(p: int, levels: int, offsets: Sequence[int]) -> Perm:
    """One automorphism of the depth-``levels`` p-ary rooted tree, acting on
    its p^levels leaves; ``offsets`` gives the rotation at each internal
    node, level by level in prefix order."""
    degree = p ** levels
    perm = [0] * degree
    for x in range(degree):
        digits = []
        t = x
        for _ in range(levels):
            digits.append(t % p)
            t //= p
        digits.reverse()
        start = 0
        prefix = 0
        y = 0
        for level, d in enumerate(digits):
            y = y * p + (d + offsets[start + prefix]) % p
            start += p ** level
            prefix = prefix * p + d
        perm[x] = y
    return tuple(perm)


SEARCH_BLOCK = 1 << 12


def _first_hit(
    satisfied: Callable[[np.ndarray], np.ndarray], radix: int, size: int, stop: int
) -> int | None:
    """Index of the first of the assignments 0, ..., stop - 1 that satisfies
    the constraint, or None. Assignment k puts the values
    ``unravel_index(k, (radix - 1,) * size) + 1`` on the active letters,
    which is ``itertools.product(range(1, radix), repeat=size)`` order;
    ``satisfied`` takes a (size, block) array of values and returns one
    verdict per column. SEARCH_BLOCK assignments are checked at a time."""
    for start in range(0, stop, SEARCH_BLOCK):
        k = np.arange(start, min(start + SEARCH_BLOCK, stop))
        values = np.array(np.unravel_index(k, (radix - 1,) * size)) + 1
        found = np.flatnonzero(satisfied(values))
        if found.size:
            return start + int(found[0])
    return None


def _cyclic_block(
    coset_sums: np.ndarray, gen_sums: np.ndarray, q: int | np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Constraint check in Z/q by integer arithmetic, over a block of shift
    assignments: each clause coset is an arithmetic progression a + gZ mod
    q, and the intersection is empty exactly when some pair of progressions
    disagrees modulo the gcd of their steps. ``coset_sums`` and ``gen_sums``
    are the clauses' exponent sums in the active letters (a trivial
    generator has all sums 0, so its step is q), ``values`` the shifts, one
    assignment per column, and ``q`` one modulus or one per column."""
    a = coset_sums @ values % q
    step = np.gcd(gen_sums @ values, q)
    out = np.zeros(values.shape[1], dtype=bool)
    for i, j in itertools.combinations(range(len(a)), 2):
        out |= (a[i] - a[j]) % np.gcd(step[i], step[j]) != 0
    return out


def _table_block(
    group: TableGroup, clauses, active: Sequence[int], values: np.ndarray
) -> np.ndarray:
    """``constraint_satisfied`` over a block of assignments of element
    indices to the active letters, by gathers from the Cayley table: one
    index array per distinct word, each generator's cyclic subgroup as its
    powers up to the largest order in the block, each coset as the products
    of its representative with those powers, and the first clause's coset
    compared element by element with each other clause's."""

    def product(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return group.mul[i.astype(np.intp, copy=False) * group.order + j]

    look = {}
    for letter, v in zip(active, values):
        look[letter] = v
        look[-letter] = group.inv[v]
    images: dict[tuple[int, ...], np.ndarray] = {}

    def image(word: tuple[int, ...]) -> np.ndarray:
        found = images.get(word)
        if found is None:
            found = np.zeros(values.shape[1], dtype=int)
            for t in word:
                if t in look:  # inactive letters map to the identity, index 0
                    found = product(found, look[t])
            images[word] = found
        return found

    powers: dict[tuple[int, ...] | None, np.ndarray] = {None: np.zeros((values.shape[1], 1), int)}
    common = None
    for coset_word, generator in clauses:
        if generator not in powers:
            h = image(generator)
            column = [np.zeros_like(h), h]
            while (column[-1] != 0).any():
                column.append(product(column[-1], h))
            powers[generator] = np.stack(column[:-1], axis=1)
        coset = product(image(coset_word)[:, None], powers[generator])
        if common is None:
            first, common = coset, np.ones(coset.shape, dtype=bool)
        else:
            common &= (first[:, :, None] == coset[:, None, :]).any(axis=2)
    return ~common.any(axis=1)


def _constraint_search(
    n: int,
    p: int,
    constraint: Constraint,
    bound: int,
    context: str,
    seed: int = 0,
) -> tuple[FiniteQuotient, int]:
    """First quotient in the p-group library satisfying the constraint;
    returns (quotient, assignments examined). Deterministic order, then a
    seeded randomized fallback.

    Letters absent from the constraint cannot affect it, so assignments put
    non-identity elements on a subset of the occurring letters and the
    identity everywhere else. Subset size is the outer loop: small-support
    witnesses in any group are tried before any group's full enumeration.
    ``examined`` counts assignments in that order up to the first hit, as if
    each were checked alone, and past ``bound`` the search stops with
    SearchCapError at ``bound + 1``.

    A round (one group, one set of active letters) is checked a block of
    assignments at a time, and the first satisfying assignment of the first
    block that has one is the hit; only the hit becomes permutations, and
    its quotient's order is its group's, so no closure runs here. Cyclic
    groups are checked by exponent-sum arithmetic, the rest by gathers from
    their Cayley tables. With one active letter the image is cyclic: in
    Z/p^k the shift 1 is the first hit if any shift is one, and a
    non-cyclic group has no hit and is counted without being built.

    The library stops at nilpotency class 2 for p > 3, and some constraint
    systems (pairs of distinct conjugates of one word) are unsatisfiable in
    any class-2 group. The fallback samples letter images from the Sylow
    p-subgroup of the symmetric group on p^2 or p^3 points, the iterated
    wreath product that contains every p-group acting on that many points;
    a sample is accepted only when the generated group stays inside the
    certification cap, so witnesses remain checkable.
    """
    occurring = _occurring_letters(constraint)
    clauses = tuple(
        (tuple(coset_word), tuple(generator) if generator is not None else None)
        for coset_word, generator in constraint
    )
    # a trivial generator has exponent sums 0
    coset_sums = np.array([_letter_sums(c, n) for c, _ in clauses]).reshape(len(clauses), n)
    gen_sums = np.array([_letter_sums(g or (), n) for _, g in clauses]).reshape(len(clauses), n)
    library = group_library(p)
    # With one letter, on which the clauses have exponent sums c_i (coset
    # words) and g_i (generators), and q = p^k, some shift satisfies the
    # constraint exactly when the shift 1 does. Multiplying a shift by a unit
    # keeps the verdict, so take s = p^t: clauses i and j disagree when
    # v(c_i - c_j) + t < min(v(g_i) + t, v(g_j) + t, k), v the p-adic
    # valuation (infinite at 0), and that implies the same inequality at
    # t = 0. So one block decides every one-letter Z/q round: column
    # (letter, q) shifts that letter by 1 modulo q.
    moduli = [data for _, kind, data in library if kind == "cyclic"]
    units = np.repeat(np.eye(n, dtype=int), len(moduli), axis=1)
    verdicts = _cyclic_block(coset_sums, gen_sums, np.tile(moduli, n), units)
    shift_one = dict(zip(itertools.product(range(1, n + 1), moduli), verdicts))
    examined = 0
    for size in range(1, len(occurring) + 1):
        for name, kind, data in library:
            radix = data if kind == "cyclic" else data.order
            total = (radix - 1) ** size
            for active in itertools.combinations(occurring, size):
                stop = min(total, bound - examined)
                if kind == "cyclic" and size == 1:
                    hit = 0 if shift_one[active[0], data] else None
                elif kind == "cyclic":
                    columns = [letter - 1 for letter in active]
                    block = partial(
                        _cyclic_block, coset_sums[:, columns], gen_sums[:, columns], data
                    )
                    hit = _first_hit(block, radix, size, stop)
                elif size == 1:
                    # One letter's image in a non-cyclic group of order p^m
                    # is cyclic of order p^k, k < m, and satisfies the
                    # constraint exactly when a generator of Z/p^k does.
                    # That Z/p^k comes earlier in the library, and its
                    # one-letter round on this letter missed.
                    hit = None
                else:
                    block = partial(_table_block, data, clauses, active)
                    hit = _first_hit(block, radix, size, stop)
                if hit is not None and hit < stop:  # a closed-form hit may lie past the cap
                    values = np.unravel_index(hit, (radix - 1,) * size)
                    element = partial(_rotation, radix) if kind == "cyclic" else data.perm
                    images = [element(0)] * n
                    for letter, v in zip(active, values):
                        images[letter - 1] = element(int(v) + 1)
                    return _capped_quotient(n, images, radix, name), examined + hit + 1
                if total > stop:
                    raise SearchCapError(
                        f"search cap {bound} exhausted in {context}",
                        examined=bound + 1,
                        context=context,
                    )
                examined += total
    levels = 3 if p <= 3 else 2
    degree = p ** levels
    nodes = sum(p ** i for i in range(levels))
    rng = random.Random(seed * 1_000_003 + p * 1_009 + levels)
    name = " wr ".join([f"Z/{p}"] * levels) + " sample"
    identity = p_identity(degree)
    misses = 0
    attempts = 0
    best: tuple[int, int, tuple[Perm, ...]] | None = None
    pooled = 0
    while occurring and examined < bound and attempts < FALLBACK_SAMPLES:
        attempts += 1
        examined += 1
        images = [identity] * n
        for letter in occurring:
            offsets = [rng.randrange(p) for _ in range(nodes)]
            images[letter - 1] = _tower_perm(p, levels, offsets)
        # the iterated wreath product has one Z/p per internal node
        raw = FiniteQuotient(n, degree, p**nodes, tuple(images), name)
        if not constraint_satisfied(raw, constraint):
            continue
        try:
            order = len(closure(images))
        except ResourceCapError:
            misses += 1
            if misses >= FALLBACK_CLOSURE_TRIES:
                break
            continue
        # score by the smallest coset-space index this sample could give a
        # caller tracking cosets of a clause generator's cyclic image
        score = order
        for _, generator in constraint:
            if generator is not None:
                score = min(score, order // len(raw.cyclic_image(generator)))
        if best is None or (score, order) < (best[0], best[1]):
            best = (score, order, tuple(images))
        pooled += 1
        if pooled >= FALLBACK_POOL:
            break
    if best is not None:
        _, order, images = best
        return FiniteQuotient(n, degree, order, images, name), examined
    raise SearchCapError(
        f"p-group library and sampling exhausted in {context} (examined {examined})",
        examined=examined,
        context=context,
    )


def separate_maximal_cyclic(
    a: Word, g: Word, p: int, bound: int = 500_000, seed: int = 0
) -> SeparationWitness:
    """Witness that g avoids the maximal cyclic subgroup generated by a,
    inside a finite p-group."""
    require_prime(p)
    _, exponent = maximal_root(a)
    if exponent != 1:
        raise PreconditionError(f"{a} is a proper power, not a maximal root")
    if power_exponent(g, a) is not None:
        raise PreconditionError(f"{g} lies in the cyclic subgroup of {a}")
    return _separate_maximal_root(a, g, p, bound, seed)


def _separate_maximal_root(a: Word, g: Word, p: int, bound: int, seed: int) -> SeparationWitness:
    """:func:`separate_maximal_cyclic` once its preconditions are known."""
    n = max(a.n, g.n)
    constraint: Constraint = ((g, a), (empty_word(n), a))
    quotient, examined = _constraint_search(
        n, p, constraint, bound, "separate_maximal_cyclic", seed
    )
    transcript = (
        f"images in {quotient.name} (order {quotient.order})",
        f"cyclic image of {a} has {len(quotient.cyclic_image(a))} elements",
        f"image of {g} lies outside it ({examined} homomorphisms examined)",
    )
    return SeparationWitness(
        quotient, a, g, frozenset([p]), frozenset(), transcript
    )


def _prime_set(L: Iterable[int]) -> frozenset:
    """L as a set; InputError unless every l in L is prime."""
    L = frozenset(L)
    for l in sorted(L):
        if not is_prime(l):
            raise InputError(f"{l} in L is not prime")
    return L


def separate_from_cyclic(
    c: Word, g: Word, L: Iterable[int], bound: int = 500_000, seed: int = 0
) -> SeparationWitness:
    """Witness that g avoids the cyclic subgroup generated by c, in a finite
    quotient whose order avoids every prime in L. Requires that subgroup to
    be closed under l-th roots for each l in L.

    Both are decided on words: with c = a^i, a its maximal root, g lies in
    <c> exactly when g = a^e with i | e, and <c> is closed under l-th roots
    exactly when gcd(i, l) = 1 (:func:`fiber.power_root_closure`). The
    maximal root is taken once.
    """
    L = _prime_set(L)
    if not c:
        raise InputError("cyclic generator must be nontrivial")
    n = max(c.n, g.n)
    a, i = maximal_root(c)
    for l in sorted(L):
        res = power_root_closure(a, i, l)
        if not res.closed:
            raise RootClosureError(
                f"the subgroup of {c} is not closed under {l}-th roots",
                witness=res.witness,
                l=l,
            )
    e = power_exponent(g, a)
    if e is not None and e % i == 0:
        raise PreconditionError(f"{g} lies in the cyclic subgroup of {c}")

    if e is None:
        # Case 1: g avoids even the maximal cyclic subgroup
        p = smallest_prime_not_in(L)
        base = _separate_maximal_root(a, g, p, bound, seed)
        quotient = base.quotient
        _require_separated(quotient, c, g)
        transcript = base.transcript + (
            f"maximal root {a} separated; restriction to powers of {c} retained",
        )
        return SeparationWitness(
            quotient, c, g, frozenset([p]), L, transcript
        )

    # Case 2: g = a^e is a power of the maximal root a, c = a^i
    m = e % i
    p = None
    for cand in sorted(prime_factors(i)):
        if valuation(m, cand) < valuation(i, cand):
            p = cand
            break
    if p is None:
        raise PostconditionError(
            f"{i} does not divide {m}, yet no prime factor of {i} shows it", m=m, i=i
        )
    if p in L:
        raise PostconditionError(
            f"prime {p} divides the exponent {i} and lies in L, yet {c} passed "
            f"the root-closure check; by the gcd rule <{a}^{i}> is not closed "
            f"under {p}-th roots",
            p=p,
            i=i,
        )
    k = valuation(m, p) + 1
    q_order = p ** k
    quotient = _cyclic_quotient_killing(a, n, q_order)
    if quotient is None:
        # every exponent sum of a vanishes mod p: fall back to the library
        constraint: Constraint = ((g, c), (empty_word(n), c))
        quotient, examined = _constraint_search(
            n, p, constraint, bound, "separate_from_cyclic", seed
        )
        transcript = (
            f"power case: g = root^{e}, subgroup = root^{i} powers",
            f"abelian exponent sums of {a} all vanish mod {p}",
            f"library search found {quotient.name} ({examined} homomorphisms)",
        )
    else:
        transcript = (
            f"power case: g = root^{e}, subgroup = root^{i} powers",
            f"prime {p} divides {i} with excess over its share of {m}",
            f"cyclic quotient Z/{q_order} maps the root to a unit",
        )
    _require_separated(quotient, c, g)
    return SeparationWitness(quotient, c, g, frozenset([p]), L, transcript)


def _require_separated(quotient: FiniteQuotient, c: Word, g: Word) -> None:
    if quotient.evaluate(g) in quotient.cyclic_image(c):
        raise PostconditionError(
            f"the image of {g} in {quotient.name} lies in the image of <{c}>",
            quotient=quotient.name,
        )


def _cyclic_quotient_killing(a: Word, n: int, q: int) -> FiniteQuotient | None:
    """A homomorphism to Z/q sending a to 1, via exponent sums; None when
    impossible (all exponent sums share the relevant prime)."""
    sums = _letter_sums(a, n)
    unit_at = next((j for j, s in enumerate(sums) if gcd(s, q) == 1), None)
    if unit_at is None:
        return None
    shifts = [0] * n
    shifts[unit_at] = pow(sums[unit_at], -1, q)
    images = [_rotation(q, s) for s in shifts]
    return _capped_quotient(n, images, q, f"Z/{q}")


# -- coset systems -----------------------------------------------------------------


class CosetSystem:
    """A coset system held as rows of clause ids.

    ``clauses`` lists distinct (coset word, generator) clauses, each named
    by some constraint. The constraints are given as blocks, (m, width) int
    arrays whose rows are rows of clause ids, and are the blocks' rows in
    order. ``rows`` stacks them, each row padded to the widest by repeating
    its last clause, which leaves its coset intersection as it is, and
    ``widths`` keeps each row's own width. The rows are the only form of the
    constraints: :func:`_unsatisfied` decides them in a quotient. When every
    generator is trivial a row fails when its clause images are all equal,
    and otherwise when its clause cosets share an element.
    """

    def __init__(self, clauses: Sequence[CosetClause], blocks: Iterable[np.ndarray]):
        blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
        wide = max((b.shape[1] for b in blocks), default=0)
        self.clauses = tuple(clauses)
        padded = [np.zeros((0, wide), dtype=np.intp)]
        for b in blocks:
            if b.shape[1] < wide:
                last = b[:, -1:] if b.shape[1] else np.zeros((len(b), 1), dtype=np.intp)
                b = np.concatenate([b, last.repeat(wide - b.shape[1], axis=1)], axis=1)
            padded.append(b)
        self.rows = np.concatenate(padded)
        self.widths = [b.shape[1] for b in blocks for _ in range(len(b))]

    @classmethod
    def of(cls, constraints: Iterable[Constraint]) -> "CosetSystem":
        """The system of a list of constraints, clauses numbered by the
        identity of their words, one block per run of constraints of one
        width."""
        ids: dict[tuple[int, int], int] = {}
        clauses: list[CosetClause] = []

        def number(clause: CosetClause) -> int:
            key = (id(clause[0]), id(clause[1]))
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(clauses)
                clauses.append(clause)
            return i

        blocks = []
        for width, run in itertools.groupby(constraints, len):
            rows = [list(map(number, cons)) for cons in run]
            blocks.append(np.array(rows, dtype=np.intp).reshape(len(rows), width))
        return cls(clauses, blocks)


def _unsatisfied(q: FiniteQuotient, system: CosetSystem, rows: np.ndarray) -> np.ndarray:
    """Whether each of the given rows of the system fails in q, that is,
    whether the cosets of its clauses share an element of q.

    When every generator of the system is trivial a coset is one element:
    each clause of the system is evaluated once, and a row fails exactly
    when its clause images are all equal, decided over every row at once.
    Otherwise each clause the rows name is evaluated once and its coset
    built, each generator's cyclic image once, and the cosets are
    intersected row by row."""
    used = system.rows[rows]
    if all(generator is None for _, generator in system.clauses):
        image, _ = _values([word for word, _ in system.clauses], q.evaluate)
        return _all_equal(image[used])
    ids, inverse = np.unique(used, return_inverse=True)
    inverse = inverse.reshape(used.shape)
    clauses = [system.clauses[i] for i in ids.tolist()]
    identity = p_identity(q.degree)
    shifts = cache(lambda generator: q.cyclic_image(generator) - {identity})
    cosets = [frozenset(left_coset(q.evaluate(word), shifts(h))) for word, h in clauses]
    return np.array(
        [bool(cosets[first].intersection(*map(cosets.__getitem__, rest)))
         for first, *rest in inverse.tolist()],
        dtype=bool,
    )


def separate_coset_system(
    constraints: CosetSystem | Sequence[Constraint],
    n: int,
    L: Iterable[int],
    bound: int = 500_000,
    seed: int = 0,
) -> FiniteQuotient:
    """One finite quotient of the free group on n letters, of order prime to
    every l in L, in which every constraint's coset intersection is empty.
    An empty system gets the trivial quotient. The constraints may be a
    :class:`CosetSystem`, rows of clause ids, or any sequence of clause
    tuples, which is numbered into one.

    When there are constraints and every clause generator is trivial, each
    coset is one element and a constraint holds exactly when its clause
    words do not all have one image. In an abelian quotient a word's image
    depends only on its exponent-sum vector, so a constraint whose clause
    vectors are all equal over Z (it is Z-obstructed) holds in no abelian
    quotient. The quotient is then N x Z/q: N is the product tier run on
    the Z-obstructed constraints alone, and Z/q the cyclic tier run on the
    constraints N leaves unsatisfied (N alone, or Z/q alone, when the other
    has nothing left to do). A constraint satisfied in one factor stays
    satisfied in a product. Otherwise the product tier serves every
    constraint.

    Which rows a quotient leaves unsatisfied is decided by one rule,
    :func:`_unsatisfied`: all clause images equal when every generator is
    trivial, a common element of the clause cosets otherwise. It serves the
    product tier, the rows left after N, and the final check, which
    re-verifies every constraint against the returned quotient.
    """
    L = _prime_set(L)
    system = constraints if isinstance(constraints, CosetSystem) else CosetSystem.of(constraints)
    if any(w is not None and w.n > n for clause in system.clauses for w in clause):
        raise InputError(f"a constraint word uses letters beyond the {n} given")
    rows = np.arange(len(system.rows))
    if len(rows) and all(g is None for _, g in system.clauses):
        value, sums = _values([word for word, _ in system.clauses], partial(_letter_sums, n=n))
        obstructed = _all_equal(value[system.rows])
        rest = rows[~obstructed]
        factors = []
        if obstructed.any():
            factors.append(_product_tier(system, rows[obstructed], n, L, bound, seed))
            rest = rest[_unsatisfied(factors[0], system, rest)]
        if len(rest):
            factors.append(_cyclic_tier(value[system.rows[rest]], np.array(sums, np.int64), n, L))
        q = direct_product(*factors)
    else:
        q = _product_tier(system, rows, n, L, bound, seed)
    failing = np.flatnonzero(_unsatisfied(q, system, rows))
    if failing.size:
        index = int(failing[0])
        raise SearchCapError(f"constraint {index} fails in {q.name}", constraint_index=index)
    if prime_factors(q.order) & L:
        raise PostconditionError("quotient order picked up an excluded prime", order=q.order)
    return q


def _values(words: Sequence[Word], value: Callable[[Word], object]) -> tuple[np.ndarray, list]:
    """The id of each word's value, ids in order of first appearance, and
    the list of those values by id."""
    ids: dict = {}
    out = np.fromiter(
        (ids.setdefault(value(w), len(ids)) for w in words), dtype=np.intp, count=len(words)
    )
    return out, list(ids)


def _all_equal(rows: np.ndarray) -> np.ndarray:
    """Whether all entries of each row are equal; true for empty rows."""
    return (rows == rows[:, :1]).all(axis=1)


def _cyclic_tier(rows: np.ndarray, sums: np.ndarray, n: int, L: frozenset) -> FiniteQuotient:
    """The first Z/q on the moment curve in which every constraint holds,
    each given as a row of ids into ``sums``, the distinct exponent-sum
    vectors of the clause words, with at least two distinct ids per row.

    In Z/q with letter shifts s, a word maps to a . s, where a is its
    exponent-sum vector; a constraint holds exactly when some difference
    d = a_i - a_1 of its clause vectors has d . s != 0 mod q. q runs over
    2, 3, ... coprime to L, and the shifts over the moment curve
    s = (1, t, ..., t^(k-1)) mod q, t = 0, ..., q - 1, for k letters. A
    nonzero d makes d . s a polynomial in t of degree < k, nonzero mod a
    prime q above every |d_j|. With V distinct clause vectors there are at
    most V(V - 1)/2 such polynomials up to sign, so a prime q not in L above
    both (k - 1) * V(V - 1)/2 and every |d_j| leaves some t that is a root
    of none: the search ends there at the latest."""
    pairs = len(sums) * (len(sums) - 1) // 2
    limit = max((n - 1) * pairs, int(sums.max() - sums.min()))
    excluded = prod(L)
    for q in itertools.count(2):
        if gcd(q, excluded) > 1:
            continue
        t = np.arange(q if n > 1 else 1)  # with one letter every t gives the shift 1
        curve = np.ones((n, len(t)), dtype=np.int64)
        for j in range(1, n):
            curve[j] = curve[j - 1] * t % q
        # each clause vector's value at each t; a narrow dtype keeps the
        # gathers below small
        values = (sums @ curve % q).astype(np.min_scalar_type(q - 1))
        at = values[rows]
        t = t[(at != at[:, :1]).any(axis=1).all(axis=0)]
        if t.size:
            shifts = [pow(int(t[0]), j, q) for j in range(n)]
            return FiniteQuotient(n, q, q, tuple(_rotation(q, s) for s in shifts), f"Z/{q}")
        if q > limit and is_prime(q):
            raise PostconditionError(
                f"no shift on the moment curve mod the prime {q} past the bound {limit}",
                q=q,
            )


def _product_tier(
    system: CosetSystem, rows: np.ndarray, n: int, L: frozenset, bound: int, seed: int
) -> FiniteQuotient:
    """The product tier of :func:`separate_coset_system`, before its final
    check, on the given rows of the system; errors name a constraint by its
    row index.

    Row by row, a direct product of individual library witnesses: the first
    row the product so far leaves unsatisfied takes the next factor, found
    by :func:`_constraint_search` on that row's clauses, and satisfied rows
    stay satisfied under products. Factors made redundant by later,
    stronger ones are pruned, largest first."""
    ladder = list(itertools.islice((p for p in primes() if p not in L), 3))
    q = FiniteQuotient.trivial(n)
    factors: list[FiniteQuotient] = []
    todo = rows  # the trivial quotient satisfies no constraint
    while todo.size:
        index, todo = int(todo[0]), todo[1:]
        row = system.rows[index, : system.widths[index]].tolist()
        cons = tuple(map(system.clauses.__getitem__, row))
        for p in ladder:
            try:
                found, _ = _constraint_search(n, p, cons, bound, f"constraint {index}", seed)
                break
            except SearchCapError:
                continue
        else:
            raise SearchCapError(
                f"no quotient found for constraint {index}",
                constraint_index=index,
            )
        factors.append(found)
        q = direct_product(q, found)
        todo = todo[_unsatisfied(q, system, todo)]

    keep = [True] * len(factors)
    for i in sorted(range(len(factors)), key=lambda j: -factors[j].order):
        if sum(keep) <= 1:
            break
        keep[i] = False
        trial = direct_product(
            FiniteQuotient.trivial(n), *(f for f, k in zip(factors, keep) if k)
        )
        if not _unsatisfied(trial, system, rows).any():
            q = trial
        else:
            keep[i] = True
    return q
