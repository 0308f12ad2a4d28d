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
a1 * 2**(n-1) of them, however large the Frobenius number. The largest Apéry
element is frobenius + a1, so every candidate is at most
frobenius + a1 + (a2 + ... + an), which is :func:`default_bound`: a pass
evaluates every candidate, and a caller's bound only filters its result.

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
ceil(2**n / 64) uint64 words, deduplicated a word at a time with each word
above the ones before it, so that for every n the distinct complexes ascend
as face-set integers; homology ranks are memoized per face-set integer.

Many small semigroups with the same n (a scan, a theorem check, the hs3
sweep) are evaluated as one batch per run of :func:`batches`, so numpy's
per-call cost is paid per batch rather than per semigroup. Their Apéry
tables are built together as one array with an offset each
(:func:`~monocurve.semigroup.apery_run`), and each member's membership
table views its part; the candidates carry their semigroup's index in the
int64 sort key index * span + degree; membership is tested a block of rows
at a time over the whole batch, with no modulo per (degree, face) cell, each
row's face bits padded to whole bytes so that one flat ``np.packbits`` packs
the block; the face words are deduplicated once for the batch and each
distinct complex is ranked and cross-checked once. Each semigroup caches, as
its patterns, views of the batch's degree and complex-index arrays with the
batch's faces; its table goes to the caller, and the per-table checks run on
every table. A batch of one is the same code, for every n <= 8.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import semigroup
from .errors import InvalidInputError, MonocurveError
from .semigroup import SemigroupSpec, apery_run, as_integer, check_size, frobenius

# candidate cells (a1 * 2**(n-1), summed over the semigroups) of one pass
_CHUNK_CELLS = 1 << 14
# degree x face cells tested in one membership step of a pass
_BLOCK_CELLS = 1 << 14

_RANKS_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}
_COMPONENTS_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}


class GradedBettiTable(NamedTuple):
    """Rows m -> (beta_{0,m},…,beta_{n,m}), all-zero rows omitted, and column totals."""

    rows: dict[int, tuple[int, ...]]
    totals: tuple[int, ...]

    @property
    def mu(self):
        return self.totals[1]

    @property
    def ci(self):
        """Complete intersection: mu = n - 1, the height of the defining ideal
        of a monomial curve in A^n (the totals run over beta_0..beta_n)."""
        return self.mu == len(self.totals) - 2


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
    # each vertex's neighbours in the 1-skeleton, as a bitmask
    vertices, neighbours = 0, [0] * nvars
    for i in range(nvars):
        if faceset >> (1 << i) & 1:
            for k in range(i):
                if vertices >> k & 1 and faceset >> ((1 << i) | (1 << k)) & 1:
                    neighbours[i] |= 1 << k
                    neighbours[k] |= 1 << i
            vertices |= 1 << i
    comps = []
    while vertices:
        # grow the component of the least vertex left by its members' neighbours
        comp = frontier = vertices & -vertices
        while frontier:
            low = frontier & -frontier
            reached = neighbours[low.bit_length() - 1] & ~comp
            comp |= reached
            frontier = (frontier ^ low) | reached
        comps.append(comp)
        vertices &= ~comp
    comps = tuple(comps)
    _COMPONENTS_MEMO[key] = comps
    return comps


def _candidate_cells(S: SemigroupSpec):
    """a1 * 2**(n-1), checked against ``MAX_CELLS``."""
    cells = S.generators[0] << (S.n - 1)
    check_size(S.generators, cells, "candidate degrees")
    return cells


def default_bound(S: SemigroupSpec) -> int:
    """Degrees above this give the full simplex, hence zero homology."""
    _candidate_cells(S)
    return frobenius(S) + sum(S.generators)


def batches(specs):
    """Consecutive runs of ``specs``, in order, each evaluated in one pass.

    Each semigroup is checked as it joins a run: it needs the first one's
    number of generators, and its candidate cells must stay within
    ``MAX_CELLS``. A run closes before its candidate cells would pass
    ``_CHUNK_CELLS`` (a larger semigroup runs alone), which keeps the arrays
    of a pass small; before its sort keys could reach 2**62: a semigroup's
    candidates lie below a1 * 2**(n-1) * an (an Apéry element is a sum of at
    most a1 - 1 generators), and a key is index * span + degree; and before
    its Apéry cells (the sum of its a1) would pass ``MAX_CELLS``, or times
    its largest generator reach 2**61: the bounds that
    :func:`~monocurve.semigroup.check_size` puts on the run's one Apéry build.
    """
    run, cells, reach, top = [], 0, 0, 0
    for S in specs:
        if run and S.n != run[0].n:
            raise InvalidInputError("a batch needs semigroups with the same number of generators")
        c = _candidate_cells(S)
        an = S.generators[-1]
        r, t = max(reach, c * an), max(top, an)
        apery_cells = (cells + c) >> (S.n - 1)
        if run and (cells + c > _CHUNK_CELLS or (len(run) + 1) * r >= 1 << 62
                    or apery_cells > semigroup.MAX_CELLS or apery_cells * t >= 1 << 61):
            yield run
            run, cells, r, t = [], 0, c * an, an
        run.append(S)
        cells += c
        reach, top = r, t
    if run:
        yield run


@functools.cache
def _face_bits(n):
    """(2**n, n) 0/1 matrix: row f holds the variables of face f."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def _distinct(ordered):
    """The distinct values of an ascending array, in order."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _ranked(values):
    """The distinct values of ``values``, ascending, and each value's index among them."""
    ordered = _distinct(np.sort(values))
    return ordered, np.searchsorted(ordered, values)


def _pattern_pass(specs):
    """Candidate degrees and their complexes for semigroups with the same n.

    Returns (owner, degrees, faces, inverse): the distinct candidate degrees,
    ordered by (semigroup index ``owner``, degree), the batch's distinct
    face-set integers, ascending, and the index into ``faces`` of each
    degree's complex; for n <= 6 a complex is one word, ranked by one sort.
    The batch's Apéry tables come from one build for the run, which gives
    each member without one its membership table (ap view, modulus,
    Frobenius number). m - a_F is in S iff m >= Ap[c] + a_F, where the
    class c is (m mod a1) - (a_F mod a1), plus a1 when that is negative:
    each degree's residue is taken once and each member's face residues
    once, so no modulo runs per (degree, face) cell, and a block gathers its
    members' face residues and sums a face row at a time. A degree's face
    bits fill a row of max(2**n, 8) bools, faces past 2**n staying 0, so a
    block of rows packs with one flat ``np.packbits`` into whole bytes per
    row, and a row of up to 64 bits is one word as wide as the row. Each
    semigroup's "patterns" entry is its views ``degrees[lo:hi]`` and
    ``inverse[lo:hi]`` with the batch's ``faces``; :func:`degree_patterns`
    compacts it.
    """
    n = specs[0].n
    nfaces = 1 << n
    generators, ap, base = apery_run(specs)
    sums = generators @ _face_bits(n).T
    moduli = generators[:, 0]
    # candidate keys index * span + degree, built in place; even face masks
    # are the subsets of {2..n}
    keys = np.repeat(sums[:, 0::2], moduli, axis=0)
    keys += ap[:, None]
    span = int(keys.max()) + 1
    keys += np.repeat(np.arange(len(specs)) * span, moduli)[:, None]
    keys = keys.ravel()
    keys.sort()
    keys = _distinct(keys)
    owner = keys // span
    # in place: the degrees take the keys' memory
    keys -= owner * span
    degrees = keys

    # degrees are tested a block of rows at a time, all faces together; F and
    # F ∪ {1} share a residue mod a1, so one Apéry lookup decides both. Row f
    # of ``lifts`` and ``residues`` holds each member's sum a_F of even face f
    # and its residue, so a block gathers whole face rows
    lifts = sums[:, 0::2].T.copy()
    residues = lifts % moduli
    step = max(1, _BLOCK_CELLS >> n)
    # whole bytes per row, the bits past face 2**n staying 0
    width = max(nfaces, 8)
    packed = np.zeros((len(degrees), width // 8), dtype=np.uint8)
    member = np.zeros((step, width), dtype=bool)
    for lo in range(0, len(degrees), step):
        rows = owner[lo:lo + step]
        q, m = moduli.take(rows), degrees[lo:lo + step]
        r = m % q
        at = residues.take(rows, axis=1)
        wrap = r < at
        np.subtract(base.take(rows) + r, at, out=at)
        np.add(at, q, out=at, where=wrap)
        least = ap.take(at)
        least += lifts.take(rows, axis=1)
        # face-major results, written through transposed views of the rows
        part = member[:len(rows)]
        np.greater_equal(m, least, out=part[:, 0:nfaces:2].T)
        np.greater_equal(m - q, least, out=part[:, 1:nfaces:2].T)
        packed[lo:lo + step] = np.packbits(
            part.ravel(), bitorder="little").reshape(len(rows), width // 8)
    # rank the first word, then fold each later word's rank in above the
    # ranks so far (pair keys stay below len(degrees)**2); ``words``, the
    # distinct rows so far, and ``inverse`` stay ordered as face-set integers
    columns = packed.view(f"<u{min(width // 8, 8)}").T
    words, inverse = _ranked(columns[0])
    words = words[:, None]
    for column in columns[1:]:
        ordered, rank = _ranked(column)
        pairs, inverse = _ranked(rank * len(words) + inverse)
        words = np.column_stack((words[pairs % len(words)], ordered[pairs // len(words)]))
    # face-set integers, folded in from the top word down
    faces = words[:, -1].tolist()
    for column in words.T[-2::-1].tolist():
        faces = [f << 64 | w for f, w in zip(faces, column)]

    starts = np.searchsorted(owner, np.arange(len(specs) + 1)).tolist()
    for S, lo, hi in zip(specs, starts, starts[1:]):
        S._cache["patterns"] = (degrees[lo:hi], faces, inverse[lo:hi])
    return owner, degrees, faces, inverse


def _read_bound(S: SemigroupSpec, bound) -> int:
    """A caller's degree bound as an int, after the size check; never negative."""
    bound = as_integer(bound, "bound")
    _candidate_cells(S)
    if bound < 0:
        raise InvalidInputError(f"generators {S.generators}: bound {bound} is negative")
    return bound


def degree_patterns(S: SemigroupSpec, bound):
    """(degrees, faces, inverse, counts) for the candidate degrees up to ``bound``.

    The candidates are w + a_F for w in Ap(S, a1) and F ⊆ {2..n}; every other
    degree has zero Betti numbers (module docstring). ``degrees`` ascends,
    degree ``degrees[k]`` has the face-set integer ``faces[inverse[k]]``, and
    ``counts[u]`` degrees share ``faces[u]``, which keep the batch's order.
    The pattern pass runs as a batch of one unless a batch already cached
    the semigroup's views of it (:func:`_pattern_pass`), and ``bound`` cuts
    its ascending degrees.
    """
    bound = _read_bound(S, bound)
    if "patterns" not in S._cache:
        _pattern_pass([S])
    degrees, faces, inverse = S._cache["patterns"]
    end = np.searchsorted(degrees, bound, side="right")
    degrees, inverse = degrees[:end], inverse[:end]
    counts = np.bincount(inverse, minlength=len(faces))
    ids = np.flatnonzero(counts)
    local = (np.cumsum(counts > 0) - 1)[inverse]
    return degrees, [faces[u] for u in ids.tolist()], local, counts[ids]


def _totals(n, rows):
    return tuple(map(sum, zip((0,) * (n + 1), *rows.values())))


def _table_pass(specs, owner, degrees, faces, inverse) -> list[GradedBettiTable]:
    """The full table of each of ``specs``, in order, from one pass's patterns, each checked."""
    n = specs[0].n
    ranks_by_u = []
    for index, u in enumerate(faces):
        try:
            ranks = _reduced_ranks(n, u)
            comps = _skeleton_components(n, u)
            if comps and ranks[1] != len(comps) - 1:
                raise MonocurveError("homology rank and skeleton components disagree")
        except MonocurveError as err:
            k = int(np.argmax(inverse == index))
            raise MonocurveError(f"generators {specs[owner[k]].generators}, "
                                 f"degree {int(degrees[k])}: {err}") from err
        ranks_by_u.append(ranks)

    nonzero = np.array([any(r) for r in ranks_by_u], dtype=bool)
    rows: list[dict[int, tuple[int, ...]]] = [{} for _ in specs]
    hit = np.flatnonzero(nonzero[inverse])
    for i, m, u in zip(owner[hit].tolist(), degrees[hit].tolist(), inverse[hit].tolist()):
        rows[i][m] = ranks_by_u[u]

    zero = (0,) * (n + 1)
    tables = []
    for S, r in zip(specs, rows):
        # column i is beta_i over the rows, after a leading 0
        columns = list(zip(zero, *r.values()))
        t = tuple(map(sum, columns))
        if t[0] != 1 or r.get(0, zero)[0] != 1:
            check = "degree-0 Betti number must be exactly 1"
        elif columns[0].count(0) != len(r):
            # beta_0 is 1 at degree 0, so every other entry of the column is 0
            check = "beta_0 supported away from degree 0"
        elif sum(t[0::2]) != sum(t[1::2]):
            check = "alternating sum of Betti totals is nonzero"
        elif t[n]:
            check = "projective dimension exceeds n-1"
        else:
            tables.append(GradedBettiTable(r, t))
            continue
        raise MonocurveError(f"generators {S.generators}: {check}")
    return tables


def tabled(specs):
    """(semigroup, full Betti table) for each of ``specs`` in order: each run of
    :func:`batches` goes through one pattern pass and one table pass as it
    forms, so only one run is alive at a time."""
    for run in batches(specs):
        yield from zip(run, _table_pass(run, *_pattern_pass(run)))


def betti_tables(specs) -> list[GradedBettiTable]:
    """Full :func:`graded_betti` of each semigroup, walked by :func:`tabled`: a
    member over ``MAX_CELLS`` is refused as its run forms, after the runs
    before it and before its own run's Apéry table."""
    return [table for _, table in tabled(specs)]


def graded_betti(S: SemigroupSpec, bound=None) -> GradedBettiTable:
    """Full graded Betti table of the quotient by the defining ideal.

    beta_{i,m} = rank of reduced homology of the divisor complex of m in
    dimension i-1, for every candidate degree m. The homology rank in
    dimension 0 is cross-checked against the component count of the whole
    1-skeleton for every distinct complex encountered; a failed per-complex
    check names the generators, a degree that carries the complex, and the
    check. A batch of one of :func:`betti_tables`, whose checks run on the
    full table; a ``bound`` then keeps the rows m <= bound and totals them.
    """
    if bound is None:
        return betti_tables([S])[0]
    bound = _read_bound(S, bound)
    rows = {m: r for m, r in betti_tables([S])[0].rows.items() if m <= bound}
    return GradedBettiTable(rows=rows, totals=_totals(S.n, rows))


def disconnected_degrees(S: SemigroupSpec, bound):
    """Degrees up to ``bound`` whose divisor complex is disconnected, with component masks."""
    degrees, faces, inverse, _ = degree_patterns(S, bound)
    comps_by_u = [_skeleton_components(S.n, u) for u in faces]
    split = np.array([len(c) >= 2 for c in comps_by_u], dtype=bool)
    return [(int(degrees[pos]), comps_by_u[inverse[pos]]) for pos in np.flatnonzero(split[inverse])]
