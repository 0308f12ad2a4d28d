"""Numerical semigroups ⟨a1,…,an⟩: membership, Frobenius numbers, Apéry sets,
and canonical factorizations found by greedy search.

A semigroup is built only by :class:`SemigroupSpec` (also named
:func:`normalize`), which sorts its raw input, divides out the gcd and drops
duplicates, so every function here may assume sorted, distinct, coprime
generators.

Everything here is exact integer arithmetic. Membership lives in the Apéry
set Ap(S, q), the least member of S in each residue class mod q, stored as an
int64 array indexed by residue with q the least generator: m is in S iff
m >= Ap[m mod q], and the Frobenius number is max(Ap) - q. Ap is a
shortest-path problem over the residues mod q (Nijenhuis, Amer. Math. Monthly
1979), solved here by the round-robin algorithm of Böcker and Lipták
(Algorithmica 2007). Storage and work therefore grow with q and the number of
generators, never with the Frobenius number. Sub-semigroups (any subset of
the generators, any gcd) use the same representation after their gcd is
divided out.

There is one Apéry build, :func:`_apery`, and it takes many semigroups at
once: the Betti pass builds a whole run's tables as one array
(:func:`apery_run`), and every single table (:func:`apery_array`, hence
:class:`MembershipTable` and :func:`apery`) is the batch of one.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, OutOfRangeError

MAX_GENERATORS = 8

# Cap on the cells of one Apéry table (its modulus) and on the candidate
# degrees of a Betti computation (a1 * 2**(n-1)); larger work is refused with
# OutOfRangeError before anything is allocated. At the cap, `betti` and `gens`
# on four generators peak at about 86 MB of RSS, `betti` on eight at 70 MB.
MAX_CELLS = 1 << 22

# Apéry entry of a residue class holding no member (generators not coprime to
# the modulus); above every reachable entry, which check_size keeps below 2**61.
UNREACHABLE = 1 << 62
# Entry of the spare cell that padded rows of an Apéry build read: minus any
# t*b below 2**61 it stays above UNREACHABLE, so no real entry can undercut it.
_PAD = 3 << 61


class Factorization(NamedTuple):
    """Exponent vector of a monomial preimage of degree ``degree``.

    Invariant: sum(exponents[i] * generators[i]) == degree for the semigroup
    the factorization was built against.
    """

    exponents: tuple[int, ...]
    degree: int

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)


def canonical_key(exponents):
    """Tie-breaking order for factorizations of a common degree.

    Compares the exponent of the largest generator first, so the minimum
    prefers mass on the small generators (x1^b*x3^a over x4^k). This matches
    the representatives used by the shifted-family complete-intersection
    ideals, e.g. 5*32 = 3*30 + 2*35 for ⟨30,32,35,40⟩ rather than 4*40.
    """
    return tuple(reversed(exponents))


def as_integer(value, what):
    """``value`` as an int, NumPy integers included.

    Everything here is exact, so a float, a fraction or a string is refused
    with an error naming it, where int() would silently truncate it.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


def check_size(generators, cells, what):
    """Refuse work of more than MAX_CELLS cells, or with entries that overflow int64."""
    if cells > MAX_CELLS:
        raise OutOfRangeError(
            f"generators {tuple(generators)}: {what} would take {cells:,} cells, "
            f"above the cap of {MAX_CELLS:,}")
    if cells * max(generators, default=0) >= 1 << 61:
        raise OutOfRangeError(
            f"generators {tuple(generators)}: {what} would exceed 64-bit integers")


def _apery(generators, moduli):
    """(ap, base): Ap(⟨generators[i]⟩, moduli[i]) for each row i of a (k, n)
    int64 matrix, as one int64 array holding row i's table at
    ap[base[i]:base[i] + moduli[i]].

    Entry r of a table is the least member congruent to r mod its modulus q,
    or UNREACHABLE when the class holds none. Round-robin (Böcker and
    Lipták): the generators are folded in one column at a time, each b along
    the cycles r -> r+b mod q of the residues. With d = gcd(q, b), residue
    c < d starts a cycle of length L = q/d whose t-th residue is
    c + (t*b mod q), and the cycle settles to the least N[u] + (t-u)*b,
    going round it at most once: with w = N - t*b, that is the prefix
    minimum of w started at min(w[0], min(w) + L*b), plus t*b. So a column
    settles every cycle of the run at once, one matrix row per cycle, as
    wide as the longest (:func:`_bands`). A row of a shorter cycle is
    padded with the spare last cell, set to ``_PAD``; the run's check_size
    keeps t*b below 2**61, so every entry stays below 2**63 and no pad
    undercuts a real one.
    """
    base = np.add.accumulate(moduli) - moduli
    total = int(base[-1]) + int(moduli[-1])
    ap = np.full(total + 1, UNREACHABLE, dtype=np.int64)
    ap[base] = 0
    cycles = np.gcd(moduli[:, None], generators)
    lengths = moduli[:, None] // cycles
    wraps = lengths * generators
    columns = zip(np.maximum.reduce(lengths).tolist(), np.add.reduce(cycles).tolist())
    for j, (width, count) in enumerate(columns):
        if width == 1:
            continue
        for members, width, padded in _bands(lengths[:, j], cycles[:, j], width, count, total):
            if count == len(moduli):
                row, start = members, base[members]
            else:
                d = cycles[members, j]
                row = np.repeat(np.arange(len(moduli))[members], d)
                start = np.repeat(base[members] - np.add.accumulate(d) + d, d) + np.arange(len(row))
            steps = np.arange(width)
            kb = generators[row, j, None] * steps
            pos = kb % moduli[row, None]
            pos += start[:, None]
            if padded:
                pos[steps >= lengths[row, j, None]] = total
                ap[total] = _PAD
            w = ap[pos]
            w -= kb
            # the wrap term joins the prefix minimum through its first cell
            np.minimum(w[:, 0], np.minimum.reduce(w, axis=1) + wraps[row, j], out=w[:, 0])
            np.minimum.accumulate(w, axis=1, out=w)
            w += kb
            ap[pos] = w
    return ap[:total], base


def _bands(lengths, cycles, width, count, total):
    """(members, width, padded) groups of one column of :func:`_apery`: the
    members whose cycles share a matrix as wide as the longest of them, and
    whether one is shorter. The column's ``count`` cycles, the longest of
    ``width`` residues, hold ``total`` residues; they make one group when
    padding at most doubles that. Otherwise each group holds the cycles
    longer than half its width, taken longest first, and cycles of length 1,
    settled already, are left out."""
    if width * count <= 2 * total:
        return [(slice(None), width, width * count > total)]
    order = np.argsort(-lengths, kind="stable")
    descending = lengths[order]
    groups, lo = [], 0
    while lo < len(order) and descending[lo] > 1:
        width = int(descending[lo])
        hi = lo + int(np.searchsorted(-descending[lo:], -(width // 2)))
        groups.append((order[lo:hi], width, bool(descending[hi - 1] < width)))
        lo = hi
    return groups


def apery_array(generators, q):
    """Ap(⟨generators⟩, q) as an int64 array indexed by residue mod q: the
    batch of one of :func:`_apery`."""
    check_size(generators, q, f"the Apéry set mod {q}")
    return _apery(np.array([generators], dtype=np.int64), np.array([q], dtype=np.int64))[0]


def apery_run(specs):
    """(generators, ap, base) for semigroups with the same n: their (k, n)
    int64 generator matrix, and Ap(S, a1) of each, the i-th at
    ap[base[i]:base[i] + a1], built as one array by :func:`_apery`.

    A run whose members all have a membership table concatenates theirs;
    otherwise the run is built, after :func:`check_size` on its cells and its
    largest generator, and each member without a table gets one that views
    its part of the array, with its Frobenius number read by one
    ``np.maximum.reduceat``.
    """
    generators = np.array([S.generators for S in specs], dtype=np.int64)
    moduli = generators[:, 0]
    key = ("sub", tuple(range(generators.shape[1])))
    tables = [S._cache.get(key) for S in specs]
    if None not in tables:
        ap = np.concatenate([t.ap for t in tables])
        return generators, ap, np.add.accumulate(moduli) - moduli
    widest = generators[np.argmax(generators[:, -1])].tolist()
    check_size(widest, int(moduli.sum()), "the Apéry sets of its run")
    ap, base = _apery(generators, moduli)
    frobenius = (np.maximum.reduceat(ap, base) - moduli).tolist()
    for S, table, lo, q, f in zip(specs, tables, base.tolist(), moduli.tolist(), frobenius):
        if table is None:
            S._cache[key] = MembershipTable._of(1, q, ap[lo:lo + q], f)
    return generators, ap, base


class MembershipTable:
    """Membership in the semigroup T generated by ``generators``.

    The generators may be any subset of a semigroup's generators, with any
    gcd d (``content``). With q the least of the generators divided by d
    (``modulus``) and ``ap`` = Ap(T/d, q), m is in T iff d divides m and
    m/d >= ap[(m/d) mod q]. The empty set generates {0}. ``frobenius``, the
    largest integer outside ⟨generators/d⟩ (-1 if there is none), is read off
    ``ap`` once, when the table is built.
    """

    __slots__ = ("content", "modulus", "ap", "frobenius")

    def __init__(self, generators):
        generators = tuple(as_integer(a, "generator") for a in generators)
        if any(a <= 0 for a in generators):
            raise InvalidInputError(f"generators {generators}: must be positive integers")
        if generators:
            self.content = math.gcd(*generators)
            reduced = [a // self.content for a in generators]
            self.modulus = min(reduced)
        else:
            self.content, self.modulus, reduced = 0, 1, ()
        self.ap = apery_array(reduced, self.modulus)
        self.frobenius = int(self.ap.max()) - self.modulus

    @classmethod
    def _of(cls, content, modulus, ap, frobenius):
        """A table of coprime generators whose ``ap`` and ``frobenius`` are
        already known (:func:`apery_run`)."""
        table = object.__new__(cls)
        table.content, table.modulus, table.ap, table.frobenius = content, modulus, ap, frobenius
        return table

    def contains(self, m):
        if m == 0:
            return True
        if m < 0 or not self.content or m % self.content:
            return False
        m //= self.content
        return m >= int(self.ap[m % self.modulus])

    def least_cofactor(self, rem, a):
        """Least c >= 0 with rem - c*a in T, or None.

        The class of rem - c*a mod d*q repeats in c with period
        d*q / gcd(a, d*q), and a residue class of T is closed upwards, so one
        period of c decides.
        """
        if rem < 0:
            return None
        if not self.content:
            return rem // a if rem % a == 0 else None
        dq = self.content * self.modulus
        for c in range(min(rem // a + 1, dq // math.gcd(a, dq))):
            if self.contains(rem - c * a):
                return c
        return None


class SemigroupSpec:
    """A numerical semigroup, built from any raw tuple of positive integers.

    The defining ideal is insensitive to generator order, and joint scaling
    leaves it unchanged, so the constructor sorts, divides out the gcd and
    drops exact duplicates: ``generators`` is sorted, distinct and coprime
    for every spec, and ``content`` is the gcd divided out of the raw input
    (1 when it was already coprime). :func:`normalize` is this constructor.
    """

    __slots__ = ("generators", "content", "_cache")

    def __init__(self, raw):
        raw = tuple(as_integer(a, "generator") for a in raw)
        where = f"generators {raw}: "
        if len(raw) < 2:
            raise InvalidInputError(where + "need at least 2 generators")
        if any(a <= 0 for a in raw):
            raise InvalidInputError(where + "generators must be positive integers")
        d = math.gcd(*raw)
        kept = sorted({a // d for a in raw})
        if len(kept) < 2:
            raise InvalidInputError(where + "fewer than 2 distinct generators after normalization")
        if len(kept) > MAX_GENERATORS:
            raise InvalidInputError(where + f"more than {MAX_GENERATORS} distinct generators")
        self.generators = tuple(kept)
        self.content = d
        self._cache = {}

    def __repr__(self):
        return f"SemigroupSpec{self.generators}"

    def __eq__(self, other):
        return isinstance(other, SemigroupSpec) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    @property
    def n(self):
        return len(self.generators)

    @property
    def membership(self):
        """Membership table of the whole semigroup; its ``ap`` is Ap(S, a1)."""
        return self.subsemigroup(range(self.n))

    def subsemigroup(self, indices):
        """Membership table for the generators at the given 0-based indices."""
        key = ("sub", tuple(sorted(indices)))
        if key not in self._cache:
            self._cache[key] = MembershipTable(tuple(self.generators[i] for i in key[1]))
        return self._cache[key]


normalize = SemigroupSpec


def contains(S: SemigroupSpec, m) -> bool:
    """True iff m is a nonnegative integer combination of the generators."""
    m = as_integer(m, "m")
    if m < 0:
        raise InvalidInputError(f"m={m}: membership is defined for nonnegative integers")
    return S.membership.contains(m)


def frobenius(S: SemigroupSpec) -> int:
    """Largest integer not in S; -1 when S is all of the nonnegative integers."""
    return S.membership.frobenius


def apery(S: SemigroupSpec, x) -> set[int]:
    """The x least members of S in each residue class mod x (x in S, x > 0)."""
    x = as_integer(x, "x")
    if x <= 0 or not contains(S, x):
        raise InvalidInputError(f"{x} is not a positive member of the semigroup")
    return set(apery_array(S.generators, x).tolist())


def canonical_factorization(S: SemigroupSpec, m, allowed=None):
    """Minimal factorization of m under :func:`canonical_key`, or None.

    ``allowed`` restricts the support to the given 0-based indices. The search
    is greedy from the largest generator down: each exponent is the least one
    that leaves a residual in the subsemigroup of the remaining allowed
    generators, so it never enumerates the full fiber.
    """
    m = as_integer(m, "m")
    gens = S.generators
    n = len(gens)
    if allowed is None:
        allowed = range(n)
    allowed = sorted(allowed)
    v = [0] * n
    rem = m
    for pos in range(len(allowed) - 1, -1, -1):
        idx = allowed[pos]
        c = S.subsemigroup(allowed[:pos]).least_cofactor(rem, gens[idx])
        if c is None:
            return None
        v[idx] = c
        rem -= c * gens[idx]
    if rem != 0:
        return None
    return Factorization(tuple(v), m)
