"""Brute-force oracles, implemented independently of the package internals.

Everything here favors obviousness over speed: membership by forward dynamic
programming over a list, factorizations by bare recursion, matrix rank by
Fraction Gaussian elimination, minimal-generator counts by building the full
factorization graph of every degree, and ideal membership by walking whole
fibers under the moves of a binomial set (``move_components``,
``reduces_to_zero``, ``ideal_equivalent``), the reference that
``binomials.generates`` is compared against.

Two oracles reuse package pieces. ``full_complex_ranks`` takes homology on
every face of the complex, with ranks by ``integer_matrix_rank`` (checked
against ``fraction_rank``). ``enumerate_generators`` builds the
factorization graph of every member degree from ``brute_factorizations`` and
returns package ``Binomial`` objects, so its output compares with
``minimal_generators`` as is.

The rest is API that only tests call, kept on the package's own routes:
divisor complexes of single degrees (``divisor_complex``, ``face``) and their
ranks (``reduced_homology_ranks``, through the package's rank route), mu from
1-skeleton components alone (``skeleton_mu``, independent of the ranks),
completeness of a binomial set (``verify_generates``), the family member
at a row label (``shift_sequence``), kernel membership cross-checked in the
shifted family's rearranged form (``shifted_kernel_member``), and a
membership table read out over 0..bound from its Apéry array
(``member_array``).
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from monocurve.betti import (_reduced_ranks, _skeleton_components,
                             default_bound, degree_patterns,
                             integer_matrix_rank)
from monocurve.binomials import Binomial, kernel_member
from monocurve.errors import InvalidInputError, MonocurveError
from monocurve.family import FamilySpec
from monocurve.semigroup import (Factorization, SemigroupSpec, canonical_key,
                                 normalize)


def brute_members(gens, bound):
    member = [False] * (bound + 1)
    member[0] = True
    for m in range(1, bound + 1):
        member[m] = any(m >= a and member[m - a] for a in gens)
    return member


def brute_frobenius(gens):
    bound = 2 * max(gens) ** 2
    member = brute_members(gens, bound)
    gaps = [m for m in range(bound + 1) if not member[m]]
    if not gaps:
        return -1
    last = gaps[-1]
    assert bound - last >= min(gens), "oracle bound too small"
    return last


def brute_factorizations(gens, m):
    n = len(gens)
    out = []

    def rec(i, rem, prefix):
        if i == n - 1:
            if rem % gens[i] == 0:
                out.append(prefix + (rem // gens[i],))
            return
        for k in range(rem // gens[i] + 1):
            rec(i + 1, rem - k * gens[i], prefix + (k,))

    rec(0, m, ())
    return out


def brute_apery(gens, x):
    frob = brute_frobenius(gens)
    bound = max(frob, 0) + x
    member = brute_members(gens, bound)
    best = {}
    for m in range(bound + 1):
        if member[m] and m % x not in best:
            best[m % x] = m
    return set(best.values())


def graph_components(facts):
    """Components of the shared-variable graph on a list of exponent tuples."""
    parent = list(range(len(facts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, u in enumerate(facts):
        for k in range(i):
            if any(a and b for a, b in zip(u, facts[k])):
                parent[find(i)] = find(k)
    groups = {}
    for i in range(len(facts)):
        groups.setdefault(find(i), []).append(facts[i])
    return list(groups.values())


def brute_generator_degrees(gens):
    """{degree: component count} wherever the factorization graph splits."""
    frob = brute_frobenius(gens)
    bound = frob + sum(gens)
    member = brute_members(gens, bound)
    split = {}
    for m in range(1, bound + 1):
        if not member[m]:
            continue
        facts = brute_factorizations(gens, m)
        comps = graph_components(facts)
        if len(comps) > 1:
            split[m] = len(comps)
    return split


def brute_mu(gens):
    return sum(c - 1 for c in brute_generator_degrees(gens).values())


def fraction_rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nr):
            if i != rank and m[i][c] != 0:
                factor = m[i][c] / m[rank][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def _full_boundary(lower, upper):
    """Boundary matrix from the k-faces ``upper`` to the (k-1)-faces ``lower``."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, f in enumerate(upper):
        vertices = [v for v in range(f.bit_length()) if f >> v & 1]
        for pos, v in enumerate(vertices):
            rows[index[f ^ (1 << v)]][col] = (-1) ** pos
    return rows


@functools.cache
def full_complex_ranks(nvars, faceset):
    """Reduced homology ranks over Q, dimensions -1..nvars-1, from every face.

    ``faceset`` has bit f set iff the face with variable bitmask f is in the
    complex; the empty face is included whenever the complex is not void.
    """
    by_count = [[] for _ in range(nvars + 1)]
    for f in range(1 << nvars):
        if faceset >> f & 1:
            by_count[f.bit_count()].append(f)
    counts = [len(fs) for fs in by_count]
    bd_rank = [0] * (nvars + 2)
    for k in range(1, nvars + 1):
        if counts[k] and counts[k - 1]:
            bd_rank[k] = integer_matrix_rank(_full_boundary(by_count[k - 1], by_count[k]))
    return tuple(counts[k] - bd_rank[k] - bd_rank[k + 1] for k in range(nvars + 1))


def enumerate_generators(S, bound=None):
    """(minimal generators, mu) from the factorization graph of every degree.

    Factorizations sharing a variable are joined; each degree with c > 1
    components emits c - 1 binomials from the canonical-least representative
    of the first component to those of the others, ordered by canonical_key.
    """
    if bound is None:
        bound = default_bound(S)
    out = []
    member = brute_members(S.generators, bound)
    for m in range(1, bound + 1):
        if not member[m]:
            continue
        facts = [Factorization(u, m) for u in brute_factorizations(S.generators, m)]
        parent = list(range(len(facts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # chain all factorizations using a variable; transitively this joins
        # exactly the pairs with non-disjoint support
        for var in range(S.n):
            using = [idx for idx, f in enumerate(facts) if f.exponents[var]]
            for idx in using[1:]:
                parent[find(idx)] = find(using[0])
        comps = {}
        for idx, f in enumerate(facts):
            comps.setdefault(find(idx), []).append(f)
        if len(comps) < 2:
            continue
        reps = sorted((min(group, key=lambda f: canonical_key(f.exponents))
                       for group in comps.values()),
                      key=lambda f: canonical_key(f.exponents))
        out.extend(Binomial(plus=reps[0], minus=other) for other in reps[1:])
    return out, len(out)


def move_components(S, moves, m):
    """Partition of the factorizations of m under the moves of a binomial set.

    A move replaces x^plus by x^minus (or back) inside a monomial whenever it
    divides; degreewise this is a walk on the fiber of m. Returns the
    factorizations, their index, and the union-find root of an index.
    """
    facts = brute_factorizations(S.generators, m)
    index = {u: i for i, u in enumerate(facts)}
    parent = list(range(len(facts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    shifts = []
    for g in moves:
        if not g.is_homogeneous():
            raise InvalidInputError(f"move {g} is not degree-preserving")
        p, q = g.plus.exponents, g.minus.exponents
        shifts += [(p, q), (q, p)]
    for u in facts:
        for p, q in shifts:
            if all(a >= b for a, b in zip(u, p)):
                w = tuple(a - b + c for a, b, c in zip(u, p, q))
                parent[find(index[u])] = find(index[w])
    return facts, index, find


def reduces_to_zero(S, gens, binomial):
    """Membership of a homogeneous binomial in the ideal the set generates."""
    if not binomial.is_homogeneous():
        raise InvalidInputError("binomial is not homogeneous")
    if binomial.plus.exponents == binomial.minus.exponents:
        return True
    _, index, find = move_components(S, gens, binomial.plus.degree)
    return find(index[binomial.plus.exponents]) == find(index[binomial.minus.exponents])


def ideal_equivalent(S, gens_a, gens_b):
    """Two homogeneous binomial sets generate the same ideal."""
    return (all(reduces_to_zero(S, gens_a, g) for g in gens_b)
            and all(reduces_to_zero(S, gens_b, g) for g in gens_a))


def face(*variables):
    """Bitmask for a face given 1-based variable numbers: face(1, 4) -> 0b1001."""
    return sum(1 << (v - 1) for v in variables)


@dataclass(frozen=True)
class DivisorComplex:
    """Squarefree divisor complex of one degree, faces as variable bitmasks."""

    degree: int
    nvars: int
    faces: frozenset[int]

    def is_downward_closed(self):
        for f in self.faces:
            g = f
            while g:
                v = g & -g
                if f ^ v not in self.faces:
                    return False
                g ^= v
        return True


def divisor_complex(S: SemigroupSpec, m) -> DivisorComplex:
    """Faces F with m - sum(a_i, i in F) in S; downward closure is verified."""
    m = int(m)
    if m < 0:
        raise InvalidInputError("degree must be nonnegative")
    n = S.n
    gens = S.generators
    faces = []
    for f in range(1 << n):
        s = sum(gens[i] for i in range(n) if f >> i & 1)
        if s <= m and S.membership.contains(m - s):
            faces.append(f)
    complex_ = DivisorComplex(degree=m, nvars=n, faces=frozenset(faces))
    if not complex_.is_downward_closed():
        raise MonocurveError("divisor complex is not downward closed")
    return complex_


def reduced_homology_ranks(C: DivisorComplex) -> tuple[int, ...]:
    """Ranks of reduced homology in dimensions -1..nvars-1, exactly over Q."""
    if not C.is_downward_closed():
        raise InvalidInputError("complex is not downward closed")
    faceset = 0
    for f in C.faces:
        faceset |= 1 << f
    return _reduced_ranks(C.nvars, faceset)


def skeleton_mu(S: SemigroupSpec, bound=None) -> int:
    """Minimal generator count via 1-skeleton components, no homology matrices.

    Independent of the boundary-matrix route: per degree the number of new
    generators is (connected components of the divisor-complex skeleton) - 1.
    """
    if bound is None:
        bound = default_bound(S)
    _, faces, inverse, _ = degree_patterns(S, bound)
    excess = np.array(
        [max(len(_skeleton_components(S.n, u)) - 1, 0) for u in faces], dtype=np.int64
    )
    return int(np.sum(excess[inverse]))


def verify_generates(S: SemigroupSpec, gens, bound=None) -> bool:
    """Completeness: every kernel binomial of degree <= bound reduces to zero.

    Equivalently, the moves of the generating set connect all factorizations
    of every member degree up to the bound.
    """
    if bound is None:
        bound = default_bound(S)
    members = member_array(S.membership, bound)
    for m in np.flatnonzero(members).tolist():
        facts, _, find = move_components(S, gens, m)
        if len(facts) < 2:
            continue
        root = find(0)
        if any(find(i) != root for i in range(1, len(facts))):
            return False
    return True


def shift_sequence(F: FamilySpec, j) -> SemigroupSpec:
    """Normalized member of the family at row label j (offset applied)."""
    j = int(j)
    if j < 1:
        raise InvalidInputError("shift index must be at least 1")
    return normalize(F.shifted(F.offset + j))


def member_array(table, bound):
    """Membership of 0..bound in a ``MembershipTable``, as a numpy bool array."""
    xs = np.arange(bound + 1, dtype=np.int64)
    if not table.content:  # the empty set generates {0}
        return xs == 0
    reduced = xs // table.content
    return (xs % table.content == 0) & (reduced >= table.ap[reduced % table.modulus])


def shifted_kernel_member(S: SemigroupSpec, v, shifted) -> bool:
    """``kernel_member`` for the shifted family ``shifted=(a, b, c, j)``.

    The generators must be (j, a+j, a+b+j, a+b+c+j), and the rearranged form
    j*sum(v) + a*v2 + (a+b)*v3 + (a+b+c)*v4 must agree with the plain dot
    product.
    """
    a, b, c, j = shifted
    expected = (j, a + j, a + b + j, a + b + c + j)
    if S.generators != expected:
        raise InvalidInputError(
            f"generators {S.generators} are not the shifted family {expected}")
    v = tuple(int(x) for x in v)
    rearranged = j * sum(v) + a * v[1] + (a + b) * v[2] + (a + b + c) * v[3]
    if (rearranged == 0) != kernel_member(S, v):
        raise MonocurveError("shifted-family rearrangement disagrees with dot product")
    return rearranged == 0
