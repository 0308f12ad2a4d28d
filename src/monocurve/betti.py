"""Graded Betti tables of semigroup rings via squarefree divisor complexes.

For a degree m, the divisor complex has a face F ⊆ {1..n} whenever
m - sum(a_i for i in F) stays in the semigroup. The rank of its reduced
homology in dimension i-1 (over the rationals) is the graded Betti number
beta_{i,m} of the quotient ring. Degrees above frobenius + sum(generators)
give the full simplex, which is acyclic, so the table is finite and the
bound is provable rather than heuristic.

Only a few degrees can carry a Betti number. t^a1 is a nonzerodivisor on
K[S], so beta_{i,m}(K[S]) = beta_{i,m}(K[S]/(t^a1)) over K[x2..xn], and the
Koszul complex of that quotient is zero in degree m unless m - a_F lies in
Ap(S, a1) for some F ⊆ {2..n} with |F| = i. Complexes are therefore only
evaluated at the candidate degrees w + a_F, w in Ap(S, a1): at most
a1 * 2**(n-1) of them, however large the Frobenius number.

The same reading shrinks the homology. The Koszul complex of K[S]/(t^a1) in
degree m has one basis cell per F ⊆ {2..n} with m - a_F in Ap(S, a1), that
is, per face F of the divisor complex without vertex 1 for which F ∪ {1} is
not a face. Those cells span the relative chains of (del_1, lk_1), the
deletion and link of vertex 1, and H(del_1, lk_1) = H~(Δ) for every
simplicial complex Δ by excision, since the star of vertex 1 is a cone. So
ranks are taken on at most C(n-1, k) x C(n-1, k-1) boundary matrices instead
of the whole complex.

Faces are encoded as variable bitmasks (bit i-1 set iff generator i in the
face); a whole complex on n vertices is one integer with 2**n face bits.
The complexes of all candidate degrees are built together as rows of
ceil(2**n / 64) uint64 words, deduplicated by row, and homology ranks are
memoized per face-set integer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MonocurveError, MustNormalizeError
from .semigroup import SemigroupSpec, check_size, frobenius

# degree x face cells tested in one membership pass of degree_patterns
_BLOCK_CELLS = 1 << 12

_RANKS_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}
_COMPONENTS_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}


@dataclass(frozen=True)
class GradedBettiTable:
    """Rows m -> (beta_{0,m},…,beta_{n,m}), all-zero rows omitted, and column totals."""

    rows: dict[int, tuple[int, ...]]
    totals: tuple[int, ...]

    @property
    def mu(self):
        return self.totals[1]


def integer_matrix_rank(rows) -> int:
    """Exact rank of an integer matrix by fraction-free Bareiss elimination."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, nr):
            mic = m[i][c]
            row_i, row_r = m[i], m[rank]
            for k in range(c + 1, nc):
                # exact by Sylvester's identity
                row_i[k] = (row_i[k] * pivot - mic * row_r[k]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank


@functools.cache
def _face_masks(nvars):
    """(faces without vertex 1, faces of even size) as face-set integers."""
    faces = range(1 << nvars)
    return (sum(1 << f for f in faces if not f & 1),
            sum(1 << f for f in faces if not f.bit_count() & 1))


def _boundary_matrix(lower, upper):
    """Boundary map from the ``upper`` cells to the ``lower`` ones; other targets are dropped."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, f in enumerate(upper):
        sign = 1
        g = f
        while g:
            v = g & -g
            row = index.get(f ^ v)
            if row is not None:
                rows[row][col] = sign
            sign = -sign
            g ^= v
    return rows


def _reduced_ranks(nvars, faceset) -> tuple[int, ...]:
    """Reduced homology ranks over Q, indexed by dimension -1..nvars-1.

    Computed as H(del_1, lk_1) (module docstring). Its cells are the faces F
    without vertex 1 (even masks) with F ∪ {1} not a face, ∅ included by the
    same rule: for the void complex there are none, and when vertex 1 is
    absent every face without it is a cell, which is the augmented complex.
    For a divisor complex the cells are the Koszul cells F ⊆ {2..n} with
    m - a_F in Ap(S, a1). Faces F and F ∪ {1} cancel in the Euler
    characteristic, so the cells must have that of the whole face set.
    """
    key = (nvars, faceset)
    memo = _RANKS_MEMO.get(key)
    if memo is not None:
        return memo
    without_1, even_size = _face_masks(nvars)
    cellset = faceset & ~(faceset >> 1) & without_1
    cells = [[] for _ in range(nvars + 1)]
    while cellset:
        low = cellset & -cellset
        f = low.bit_length() - 1
        cells[f.bit_count()].append(f)
        cellset ^= low
    counts = [len(fs) for fs in cells]
    euler = (faceset & even_size).bit_count() - (faceset & ~even_size).bit_count()
    if sum((-1) ** k * c for k, c in enumerate(counts)) != euler:
        raise MonocurveError("Euler characteristic of the cells differs from the complex's")
    bd_rank = [0] * (nvars + 2)
    for k in range(1, nvars + 1):
        if counts[k] and counts[k - 1]:
            bd_rank[k] = integer_matrix_rank(_boundary_matrix(cells[k - 1], cells[k]))
    ranks = []
    for k in range(nvars + 1):
        if bd_rank[k] + bd_rank[k + 1] > counts[k]:
            raise MonocurveError("boundary ranks violate rank-nullity")
        ranks.append(counts[k] - bd_rank[k] - bd_rank[k + 1])
    ranks = tuple(ranks)
    _RANKS_MEMO[key] = ranks
    return ranks


def _skeleton_components(nvars, faceset) -> tuple[int, ...]:
    """Connected components of the 1-skeleton, as vertex bitmasks (min vertex order)."""
    key = (nvars, faceset)
    memo = _COMPONENTS_MEMO.get(key)
    if memo is not None:
        return memo
    vertices = [i for i in range(nvars) if faceset >> (1 << i) & 1]
    parent = {i: i for i in vertices}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in range(len(vertices)):
        for q in range(p + 1, len(vertices)):
            i, k = vertices[p], vertices[q]
            if faceset >> ((1 << i) | (1 << k)) & 1:
                parent[find(i)] = find(k)
    masks: dict[int, int] = {}
    for i in vertices:
        r = find(i)
        masks[r] = masks.get(r, 0) | (1 << i)
    comps = tuple(sorted(masks.values(), key=lambda m: m & -m))
    _COMPONENTS_MEMO[key] = comps
    return comps


def _check_candidates(S: SemigroupSpec):
    check_size(S.generators, S.generators[0] << (S.n - 1), "candidate degrees")


def default_bound(S: SemigroupSpec) -> int:
    """Degrees above this give the full simplex, hence zero homology."""
    _check_candidates(S)
    return frobenius(S) + sum(S.generators)


def _unique_rows(words):
    """(distinct rows, inverse index, counts) of a 2-D array.

    Rows come out in np.lexsort order of the columns, so a single column is
    ascending. np.unique(axis=0) gives the same, but maps more of numpy's
    sorting code: about 0.5 MB more peak RSS in a fresh process.
    """
    order = np.lexsort(words.T)
    ordered = words[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.bitwise_or.reduce(ordered[1:] ^ ordered[:-1], axis=1) != 0
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    counts = np.diff(np.append(np.flatnonzero(first), len(ordered)))
    return ordered[first], inverse, counts


def degree_patterns(S: SemigroupSpec, bound):
    """(degrees, faces, inverse, counts) for the candidate degrees up to ``bound``.

    The candidates are w + a_F for w in Ap(S, a1) and F ⊆ {2..n}; every other
    degree has zero Betti numbers (module docstring). ``degrees`` ascends,
    degree ``degrees[k]`` has the face-set integer ``faces[inverse[k]]``, and
    ``counts[u]`` degrees share ``faces[u]``. Computed once per semigroup and
    bound.
    """
    cached = S._cache.get(("patterns", bound))
    if cached is not None:
        return cached
    _check_candidates(S)
    n = S.n
    gens = S.generators
    table = S.membership
    if table.content != 1:
        raise MustNormalizeError("Betti degrees require coprime generators")
    nfaces = 1 << n
    sums = np.array([sum(a for i, a in enumerate(gens) if f >> i & 1) for f in range(nfaces)],
                    dtype=np.int64)
    # even face masks are the subsets of {2..n}
    cand = (table.ap[:, None] + sums[None, 0::2]).ravel()
    degrees = _unique_rows(cand[cand <= bound, None])[0][:, 0]
    # faces are tested a block at a time; a block never straddles a word
    block = min(64, nfaces, max(1, _BLOCK_CELLS // max(len(degrees), 1)))
    block = 1 << (block.bit_length() - 1)
    shifts = (np.arange(nfaces) % 64).astype(np.uint64)
    words = np.zeros((len(degrees), (nfaces + 63) // 64), dtype=np.uint64)
    for f in range(0, nfaces, block):
        member = table.member_mask(degrees[:, None] - sums[f:f + block])
        words[:, f // 64] |= np.bitwise_or.reduce(
            member.astype(np.uint64) << shifts[f:f + block], axis=1)
    rows, inverse, counts = _unique_rows(words)
    faces = [sum(w << (64 * i) for i, w in enumerate(row)) for row in rows.tolist()]
    result = (degrees, faces, inverse, counts)
    S._cache[("patterns", bound)] = result
    return result


def _vertex_count(nvars, faceset):
    return sum(1 for i in range(nvars) if faceset >> (1 << i) & 1)


def graded_betti(S: SemigroupSpec, bound=None) -> GradedBettiTable:
    """Full graded Betti table of the quotient by the defining ideal.

    beta_{i,m} = rank of reduced homology of the divisor complex of m in
    dimension i-1, for every candidate degree m up to the Betti-degree bound.
    The homology rank in dimension 0 is cross-checked against the component
    count of the whole 1-skeleton for every distinct complex encountered; a
    failed per-complex check names the generators, a degree that carries the
    complex, and the check.
    """
    n = S.n
    provable = default_bound(S)
    if bound is None:
        bound = provable
    degrees, faces, inverse, counts = degree_patterns(S, bound)

    ranks_by_u = []
    for index, u in enumerate(faces):
        try:
            ranks = _reduced_ranks(n, u)
            if _vertex_count(n, u) >= 1 and ranks[1] != len(_skeleton_components(n, u)) - 1:
                raise MonocurveError("homology rank and skeleton components disagree")
        except MonocurveError as err:
            m = int(degrees[np.argmax(inverse == index)])
            raise MonocurveError(f"generators {S.generators}, degree {m}: {err}") from err
        ranks_by_u.append(ranks)

    totals = [0] * (n + 1)
    for ranks, c in zip(ranks_by_u, counts):
        for i, r in enumerate(ranks):
            totals[i] += r * int(c)

    interesting = np.array([any(r) for r in ranks_by_u], dtype=bool)
    rows: dict[int, tuple[int, ...]] = {}
    for pos in np.flatnonzero(interesting[inverse]):
        rows[int(degrees[pos])] = ranks_by_u[inverse[pos]]

    table = GradedBettiTable(rows=rows, totals=tuple(totals))

    if bound >= provable:
        if table.totals[0] != 1 or rows.get(0, (0,))[0] != 1:
            raise MonocurveError("degree-0 Betti number must be exactly 1")
        if any(r[0] for m, r in rows.items() if m != 0):
            raise MonocurveError("beta_0 supported away from degree 0")
        if sum((-1) ** i * b for i, b in enumerate(table.totals)) != 0:
            raise MonocurveError("alternating sum of Betti totals is nonzero")
        if table.totals[n] != 0:
            raise MonocurveError("projective dimension exceeds n-1")
    return table


def disconnected_degrees(S: SemigroupSpec, bound=None):
    """Degrees whose divisor complex is disconnected, with component masks."""
    if bound is None:
        bound = default_bound(S)
    degrees, faces, inverse, _ = degree_patterns(S, bound)
    comps_by_u = [_skeleton_components(S.n, u) for u in faces]
    split = np.array([len(c) >= 2 for c in comps_by_u], dtype=bool)
    out = []
    for pos in np.flatnonzero(split[inverse]):
        out.append((int(degrees[pos]), comps_by_u[inverse[pos]]))
    return out
