"""Binomials of the defining ideal: lattice-kernel tests, critical binomials,
minimal generating sets with their count mu, and a test that a set generates
the ideal.

A binomial x^plus - x^minus lies in the defining ideal exactly when
plus - minus is in the kernel of the degree map v -> sum(v[i]*a[i]). Minimal
generators are found degreewise from the factorization graph: the vertices
are the factorizations of a degree, factorizations sharing a variable are
adjacent, and each degree contributes (components - 1) connecting binomials.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import betti
from .errors import InvalidInputError, MonocurveError
from .semigroup import (Factorization, SemigroupSpec, as_integer,
                        canonical_factorization, canonical_key)

LatticeVector = tuple[int, ...]


def _monomial_str(exponents):
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
             for i, e in enumerate(exponents) if e]
    return "*".join(parts) if parts else "1"


class Binomial(NamedTuple):
    """x^plus - x^minus with disjoint supports."""

    plus: Factorization
    minus: Factorization

    def vector(self) -> LatticeVector:
        return tuple(p - q for p, q in zip(self.plus.exponents, self.minus.exponents))

    def is_homogeneous(self):
        return self.plus.degree == self.minus.degree

    def __str__(self):
        return f"{_monomial_str(self.plus.exponents)} - {_monomial_str(self.minus.exponents)}"

    def to_json_dict(self):
        return {
            "vector": list(self.vector()),
            "plus": list(self.plus.exponents),
            "minus": list(self.minus.exponents),
            "degree": self.plus.degree,
            "text": str(self),
        }


def kernel_member(S: SemigroupSpec, v) -> bool:
    """True iff v is orthogonal to the generators."""
    v = tuple(as_integer(x, "vector entry") for x in v)
    if len(v) != S.n:
        raise InvalidInputError(f"generators {S.generators}: vector {v} does not match their count")
    return sum(x * a for x, a in zip(v, S.generators)) == 0


def binomial_from_vector(v, gens) -> Binomial:
    """Split a nonzero lattice vector into x^plus - x^minus.

    The positive part becomes plus, the negated negative part becomes minus,
    so supports are disjoint by construction and vector() round-trips exactly.
    """
    v = tuple(as_integer(x, "vector entry") for x in v)
    if len(v) != len(gens):
        raise InvalidInputError(f"generators {tuple(gens)}: vector {v} does not match their count")
    if not any(v):
        raise InvalidInputError("zero vector has no binomial")
    plus = tuple(max(x, 0) for x in v)
    minus = tuple(max(-x, 0) for x in v)
    return Binomial(
        plus=Factorization(plus, sum(e * a for e, a in zip(plus, gens))),
        minus=Factorization(minus, sum(e * a for e, a in zip(minus, gens))),
    )


def critical_exponent(S: SemigroupSpec, var) -> Binomial:
    """The critical binomial x_var^alpha - complement, alpha the least exponent
    with alpha*a_var in the span of the other generators.

    ``var`` is 1-based as in x1..xn; the complement has a zero in position
    var-1. alpha*a_var must be divisible by the gcd g of the other generators,
    so alpha runs through multiples of g/gcd(g, a_var) only; each candidate is
    a single lookup in the Apéry table of the other generators. The cap is
    provable: (a_j/gcd(a_i, a_j))*a_i = lcm(a_i, a_j) lies in <a_j>, so the
    least alpha is at most min_j a_j/gcd(a_i, a_j). Exceeding it means a bug.
    """
    var = as_integer(var, "var")
    if not 1 <= var <= S.n:
        raise InvalidInputError(f"variable number out of range: {var}")
    i = var - 1
    a_i = S.generators[i]
    others = tuple(j for j in range(S.n) if j != i)
    oracle = S.subsemigroup(others)
    g = oracle.content
    step = g // math.gcd(g, a_i)
    cap = min(S.generators[j] // math.gcd(S.generators[j], a_i) for j in others)
    alpha = step
    while alpha <= cap:
        if oracle.contains(alpha * a_i):
            where = f"generators {S.generators}, x{var}, degree {alpha * a_i}: "
            complement = canonical_factorization(S, alpha * a_i, allowed=others)
            if complement is None:
                raise MonocurveError(where + "membership certificate has no factorization")
            exps = tuple(alpha if j == i else 0 for j in range(S.n))
            b = Binomial(plus=Factorization(exps, alpha * a_i), minus=complement)
            if not b.is_homogeneous():
                raise MonocurveError(where + "critical binomial is not homogeneous")
            return b
        alpha += step
    raise MonocurveError(f"generators {S.generators}, x{var}: "
                         f"critical exponent search exceeded {cap}")


def full_critical_set(S: SemigroupSpec) -> list[Binomial]:
    """One critical binomial x_i^alpha_i - complement per variable."""
    return [critical_exponent(S, var) for var in range(1, S.n + 1)]


def _mask_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _skeleton_generators(S, bound):
    """Per disconnected degree, join the component of the canonical-least
    factorization to each of the others."""
    out = []
    for m, comps in betti.disconnected_degrees(S, bound):
        reps = []
        for mask in comps:
            rep = canonical_factorization(S, m, allowed=_mask_indices(mask))
            if rep is None:
                raise MonocurveError(f"generators {S.generators}, degree {m}: "
                                     "a component has no factorization")
            reps.append(rep)
        base, *others = sorted(reps, key=lambda f: canonical_key(f.exponents))
        out.extend(Binomial(plus=base, minus=other) for other in others)
    return out


def minimal_generators(S: SemigroupSpec, bound=None):
    """(minimal binomial generating set, mu) for the defining ideal.

    The component structure of each degree's factorization graph is read off
    the divisor-complex 1-skeleton, and one canonical representative per
    component is found by greedy search, without enumerating fibers. Degrees
    ascend and ties break by :func:`canonical_key`, so the emitted order is
    reproducible.
    """
    if bound is None:
        bound = betti.default_bound(S)
    gens = _skeleton_generators(S, bound)
    for g in gens:
        if not g.is_homogeneous() or not kernel_member(S, g.vector()):
            failed = "is not in the kernel"
        elif g.plus.support() & g.minus.support():
            failed = "has overlapping supports"
        else:
            continue
        raise MonocurveError(f"generators {S.generators}, degree {g.plus.degree}: "
                             f"emitted generator {g} {failed}")
    return gens, len(gens)


def generates(S: SemigroupSpec, binomials) -> bool:
    """True iff the binomials generate the defining ideal I.

    By graded Nakayama, (I/mI)_m has dimension c_m - 1, where c_m counts the
    components of the divisor-complex 1-skeleton at m, and x^u - x^v maps to
    [comp(u)] - [comp(v)] there (Briales, Campillo, Marijuán and Pisón, 1998).
    So the set generates I exactly when, at every disconnected degree, its
    binomials of that degree join all the components; binomials of other
    degrees map to zero. The skeleton is the one the Betti pass caches.
    """
    by_degree = {}
    for g in binomials:
        if not g.is_homogeneous():
            raise InvalidInputError(f"binomial {g} is not homogeneous")
        if not kernel_member(S, g.vector()):
            raise InvalidInputError(f"binomial {g} is not in the kernel")
        m = sum(e * a for e, a in zip(g.plus.exponents, S.generators))
        by_degree.setdefault(m, []).append(g)
    for m, comps in betti.disconnected_degrees(S, betti.default_bound(S)):
        comp = {i: k for k, mask in enumerate(comps) for i in _mask_indices(mask)}
        label = list(range(len(comps)))
        for g in by_degree.get(m, ()):
            keep = label[comp[min(g.plus.support())]]
            drop = label[comp[min(g.minus.support())]]
            label = [keep if x == drop else x for x in label]
        if len(set(label)) > 1:
            return False
    return True
