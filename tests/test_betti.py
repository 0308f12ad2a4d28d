import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import networkx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocurve import betti, semigroup
from monocurve.betti import (GradedBettiTable, batches, betti_tables,
                             default_bound, degree_patterns,
                             disconnected_degrees, graded_betti,
                             integer_matrix_rank)
from monocurve.binomials import minimal_generators
from monocurve.errors import InvalidInputError, MonocurveError, OutOfRangeError
from monocurve.family import FamilySpec, is_complete_intersection, verify_theorem_b
from monocurve.semigroup import MAX_CELLS, SemigroupSpec, frobenius, normalize

from oracles import (DivisorComplex, brute_apery, brute_frobenius,
                     brute_generator_degrees, brute_mu, divisor_complex,
                     enumerate_generators, face, fraction_rank,
                     full_complex_ranks, reduced_homology_ranks, skeleton_mu)


def test_divisor_complex_paper_degree():
    S = normalize((30, 32, 35, 40))
    C = divisor_complex(S, 70)
    assert C.faces == frozenset({0, face(1), face(3), face(4), face(1, 4)})


def test_divisor_complex_degree_zero():
    C = divisor_complex(normalize((30, 32, 35, 40)), 0)
    assert C.faces == frozenset({0})


def test_divisor_complex_above_bound_is_full_simplex():
    S = normalize((30, 32, 35, 40))
    m = frobenius(S) + sum(S.generators) + 1
    assert divisor_complex(S, m).faces == frozenset(range(16))


def test_divisor_complex_nonmember_is_void():
    S = normalize((30, 32, 35, 40))
    assert divisor_complex(S, 38).faces == frozenset()


def test_homology_full_simplex_acyclic():
    C = DivisorComplex(degree=0, nvars=4, faces=frozenset(range(16)))
    assert reduced_homology_ranks(C) == (0, 0, 0, 0, 0)


def test_homology_two_points():
    faces = frozenset({0, face(1), face(3), face(4), face(1, 4)})
    C = DivisorComplex(degree=70, nvars=4, faces=faces)
    assert reduced_homology_ranks(C) == (0, 1, 0, 0, 0)


def test_homology_hollow_triangle():
    faces = frozenset({0, face(1), face(2), face(3),
                       face(1, 2), face(1, 3), face(2, 3)})
    C = DivisorComplex(degree=0, nvars=3, faces=faces)
    assert reduced_homology_ranks(C) == (0, 0, 1, 0)


def test_homology_empty_face_only():
    C = DivisorComplex(degree=0, nvars=4, faces=frozenset({0}))
    assert reduced_homology_ranks(C) == (1, 0, 0, 0, 0)


def test_homology_void_complex():
    C = DivisorComplex(degree=38, nvars=4, faces=frozenset())
    assert reduced_homology_ranks(C) == (0, 0, 0, 0, 0)


def test_homology_rejects_non_complex():
    C = DivisorComplex(degree=0, nvars=3, faces=frozenset({face(1, 2)}))
    assert not C.is_downward_closed()
    with pytest.raises(InvalidInputError):
        reduced_homology_ranks(C)


def _closure(facets):
    faces = set()
    for F in facets:
        g = F
        while True:
            faces.add(g)
            if not g:
                break
            g = (g - 1) & F
    return frozenset(faces)


def _faceset(faces):
    return sum(1 << f for f in faces)


@st.composite
def _complexes(draw, max_vars=7):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    facets = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return n, _closure(facets)


@given(_complexes())
@settings(max_examples=200, deadline=None)
def test_homology_matches_full_complex_oracle(case):
    n, faces = case
    C = DivisorComplex(degree=0, nvars=n, faces=faces)
    assert reduced_homology_ranks(C) == full_complex_ranks(n, _faceset(faces))


@given(_complexes(max_vars=8))
@settings(max_examples=300, deadline=None)
def test_skeleton_components_match_networkx(case):
    n, faces = case
    graph = networkx.Graph()
    graph.add_nodes_from(i for i in range(n) if 1 << i in faces)
    graph.add_edges_from((i, k) for i, k in itertools.combinations(range(n), 2)
                         if (1 << i) | (1 << k) in faces)
    masks = [sum(1 << i for i in part) for part in networkx.connected_components(graph)]
    with mock.patch.object(betti, "_COMPONENTS_MEMO", {}):
        comps = betti._skeleton_components(n, _faceset(faces))
    assert comps == tuple(sorted(masks, key=lambda m: m & -m))


# the 6-vertex triangulation of the real projective plane
RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


@pytest.mark.parametrize("nvars, facets, expected", [
    (4, None, (0, 0, 0, 0, 0)),                                   # void
    (4, [()], (1, 0, 0, 0, 0)),                                   # {∅}
    (4, [(2, 3), (3, 4), (2, 4)], (0, 0, 1, 0, 0)),               # vertex 1 absent
    (4, [(1, 2, 3), (1, 3, 4), (1, 2, 4)], (0, 0, 0, 0, 0)),      # cone over vertex 1
    (4, [(1, 2), (3, 4)], (0, 1, 0, 0, 0)),                       # vertex 1 in one of two parts
    (6, RP2_FACETS, (0,) * 7),                                    # H~ = 0 over Q
])
def test_homology_fixed_complexes(nvars, facets, expected):
    faces = frozenset() if facets is None else _closure(face(*F) for F in facets)
    C = DivisorComplex(degree=0, nvars=nvars, faces=faces)
    assert reduced_homology_ranks(C) == expected
    assert full_complex_ranks(nvars, _faceset(faces)) == expected


def test_rp2_triangulation_is_a_closed_surface():
    faces = _closure(face(*F) for F in RP2_FACETS)
    edges = [f for f in faces if f.bit_count() == 2]
    assert len(edges) == 15
    assert all(sum(1 for F in RP2_FACETS if face(*F) & e == e) == 2 for e in edges)
    # 1 - 6 + 15 - 10 = 0: χ = 1, yet H_1 over Z is Z/2, which Q does not see
    assert sum((-1) ** f.bit_count() for f in faces) == 0


def test_integer_matrix_rank_against_fraction_oracle():
    import random
    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert integer_matrix_rank(m) == fraction_rank(m)
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0


def test_graded_betti_paper_rows():
    assert graded_betti(normalize((30, 32, 35, 40))).totals == (1, 3, 3, 1, 0)
    assert graded_betti(normalize((23, 25, 28, 33))).totals == (1, 6, 9, 4, 0)
    assert graded_betti(normalize((66, 78, 81, 82))).totals == (1, 5, 5, 1, 0)
    assert graded_betti(normalize((33, 36, 41, 43))).totals == (1, 10, 16, 7, 0)


def test_graded_betti_koszul_degrees():
    # complete intersection: generator degrees 70/120/160, pairwise sums, top
    t = graded_betti(normalize((30, 32, 35, 40)))
    assert {m for m, r in t.rows.items() if r[1]} == {70, 120, 160}
    assert {m for m, r in t.rows.items() if r[2]} == {190, 230, 280}
    assert {m for m, r in t.rows.items() if r[3]} == {350}
    # beta_1 twists with multiplicity, read from the rows
    assert [m for m, r in sorted(t.rows.items()) for _ in range(r[1])] == [70, 120, 160]


def test_graded_betti_two_generators():
    t = graded_betti(normalize((2, 3)))
    assert t.totals == (1, 1, 0)
    assert t.rows == {0: (1, 0, 0), 6: (0, 1, 0)}


def test_graded_betti_of_a_non_coprime_input():
    S = SemigroupSpec((2, 4))
    assert (S.generators, S.content) == ((1, 2), 2)
    assert graded_betti(S).rows == {0: (1, 0, 0), 2: (0, 1, 0)}


def test_structural_invariants():
    for gens in [(30, 32, 35, 40), (23, 25, 28, 33), (1, 2, 3, 4), (7, 11, 13),
                 (24, 36, 39, 40), (9, 10, 11, 12, 13)]:
        t = graded_betti(normalize(gens))
        assert t.totals[0] == 1
        assert sum((-1) ** i * b for i, b in enumerate(t.totals)) == 0
        assert t.totals[-1] == 0
        assert t.rows[0] == (1,) + (0,) * (len(t.totals) - 1)
        assert all(r[0] == 0 for m, r in t.rows.items() if m != 0)


def test_bound_saturation():
    S = normalize((23, 25, 28, 33))
    B = default_bound(S)
    wide = graded_betti(S, bound=B + 100)
    assert wide.rows == graded_betti(S).rows
    assert wide.totals == graded_betti(S).totals
    assert all(m <= B for m in wide.rows)


def test_bound_override_truncates():
    S = normalize((30, 32, 35, 40))
    t = graded_betti(S, bound=150)
    assert {m for m, r in t.rows.items() if r[1]} == {70, 120}


def test_negative_bound_is_refused_and_zero_is_legal():
    S = normalize((3, 5))
    for call in (lambda: graded_betti(S, bound=-5),
                 lambda: degree_patterns(S, -1),
                 lambda: disconnected_degrees(S, -1),
                 lambda: minimal_generators(S, bound=-1)):
        with pytest.raises(InvalidInputError, match=r"generators \(3, 5\): bound -\d+ is negative"):
            call()
    # the bound is read before any pass
    assert "table" not in S._cache and "patterns" not in S._cache
    assert graded_betti(S, bound=0) == GradedBettiTable(rows={0: (1, 0, 0)}, totals=(1, 0, 0))
    assert minimal_generators(S, bound=0) == ([], 0)
    assert degree_patterns(S, 0)[0].tolist() == [0]


@st.composite
def _bounded(draw):
    """Distinct generators (n in 2..8) and a bound in [0, default_bound + 50]."""
    n = draw(st.integers(min_value=2, max_value=8))
    gens = draw(st.lists(st.integers(min_value=2, max_value=30), min_size=n,
                         max_size=n, unique=True))
    return gens, draw(st.integers(min_value=0, max_value=default_bound(normalize(gens)) + 50))


@given(_bounded())
@settings(max_examples=60, deadline=None)
def test_bounded_results_are_the_full_results_filtered(case):
    gens, bound = case
    full = graded_betti(normalize(gens))
    kept = {m: r for m, r in full.rows.items() if m <= bound}
    table = graded_betti(normalize(gens), bound)
    assert list(table.rows.items()) == list(kept.items())
    assert table.totals == tuple(sum(r[i] for r in kept.values()) for i in range(len(full.totals)))
    full_gens, _ = minimal_generators(normalize(gens))
    kept_gens = [g for g in full_gens if g.plus.degree <= bound]
    assert minimal_generators(normalize(gens), bound) == (kept_gens, len(kept_gens))


@pytest.mark.parametrize("gens", [
    (3, 5), (5, 7, 9), (30, 32, 35, 40), (23, 25, 28, 33), (9, 10, 11, 12, 13),
    (7, 9, 11, 13, 15, 17), (8, 9, 10, 11, 12, 13, 15), (9, 10, 11, 12, 13, 14, 15, 17),
])
def test_default_bound_holds_every_candidate(gens):
    # the largest Apéry element is frobenius + a1, so the largest candidate
    # w + a_F is default_bound itself and the pass needs no bound of its own
    S = normalize(gens)
    candidates = {w + sum(F) for w in brute_apery(gens, gens[0])
                  for k in range(S.n) for F in itertools.combinations(gens[1:], k)}
    assert default_bound(S) == brute_frobenius(gens) + sum(gens) == max(candidates)
    assert degree_patterns(S, default_bound(S))[0].tolist() == sorted(candidates)
    assert _patterns(S, 10 ** 30) == _patterns(S, default_bound(S))


@pytest.mark.parametrize("bound", [0, 150, None])
def test_bounded_calls_run_the_table_checks(monkeypatch, bound):
    # every complex loses its beta_0, so the table has no degree-0 row; a
    # bound below the table's degrees must not skip the check
    original = betti._reduced_ranks
    monkeypatch.setattr(betti, "_reduced_ranks", lambda n, u: (0,) + original(n, u)[1:])
    with pytest.raises(MonocurveError, match=r"^generators \(30, 32, 35, 40\): "
                       r"degree-0 Betti number must be exactly 1$"):
        graded_betti(normalize((30, 32, 35, 40)), bound)


def test_b1_equals_components_minus_one():
    for gens in [(30, 32, 35, 40), (10, 13, 19, 21), (5, 7, 9)]:
        t = graded_betti(normalize(gens))
        expected = brute_generator_degrees(gens)
        got = {m: r[1] + 1 for m, r in t.rows.items() if r[1]}
        assert got == expected, gens


def test_skeleton_mu_agrees_with_homology():
    for gens in [(30, 32, 35, 40), (23, 25, 28, 33), (7, 11, 13), (1, 2, 3, 4)]:
        S = normalize(gens)
        assert skeleton_mu(S) == graded_betti(S).mu


def test_betti_invariant_under_permutation_and_scaling():
    base = graded_betti(normalize((23, 25, 28, 33)))
    assert graded_betti(normalize((33, 28, 25, 23))).totals == base.totals
    scaled = graded_betti(normalize((46, 50, 56, 66)))
    assert scaled.totals == base.totals
    assert scaled.rows == base.rows


def test_seven_generators_two_words():
    # n = 7: each complex spans two uint64 words (128 faces)
    gens = (8, 9, 10, 11, 12, 13, 15)
    S = normalize(gens)
    t = graded_betti(S)
    assert t.mu == brute_mu(gens)
    assert sum((-1) ** i * b for i, b in enumerate(t.totals)) == 0
    assert t.totals[-1] == 0


def test_five_generators_one_word():
    # n = 5: each complex is one uint64 word (32 faces)
    gens = (9, 10, 11, 12, 13)
    S = normalize(gens)
    assert graded_betti(S).mu == brute_mu(gens)


def test_eight_generators_four_words():
    # n = 8: each complex spans four uint64 words (256 faces)
    gens = (9, 10, 11, 12, 13, 14, 15, 17)
    S = normalize(gens)
    t = graded_betti(S)
    assert t.mu == enumerate_generators(S)[1]
    assert sum((-1) ** i * b for i, b in enumerate(t.totals)) == 0
    assert t.totals[-1] == 0


@st.composite
def _small_batches(draw):
    """1-4 raw generator lists with one n in 2..8 and generators below 15."""
    n = draw(st.integers(min_value=2, max_value=8))
    return draw(st.lists(st.lists(st.integers(min_value=2, max_value=14), min_size=n,
                                  max_size=n, unique=True), min_size=1, max_size=4))


@given(_small_batches())
# n = 2 and 3 pack a complex into one byte, past its faces for n = 2
@example([[2, 3]])
@example([[5, 7], [4, 9], [6, 14], [3, 10]])
@example([[3, 5, 7], [4, 6, 9], [6, 10, 14], [2, 7, 12]])
@example([[8, 9, 10, 11, 12, 13, 14]])
@example([[3, 5, 7, 8, 9, 10, 11, 13], [9, 10, 11, 12, 13, 14, 6, 7]])
@settings(max_examples=40, deadline=None)
def test_pass_gives_each_degree_its_complex(raws):
    # every candidate degree against the oracle's complex; with more than one
    # word per complex, merging two complexes that differ only in a lower
    # word gives one of their degrees the other's complex
    specs = [normalize(r) for r in raws]
    owner, degrees, faces, inverse = betti._pattern_pass(specs)
    assert all(a < b for a, b in zip(faces, faces[1:]))
    for i, m, u in zip(owner.tolist(), degrees.tolist(), inverse.tolist()):
        assert faces[u] == _faceset(divisor_complex(specs[i], m).faces), (raws[i], m)


@st.composite
def _mixed_runs(draw):
    """2-6 raw generator lists with one n in 2..8, each led by a generator up
    to 200 that its gcd may divide: the members' moduli differ."""
    n = draw(st.integers(min_value=2, max_value=8))
    raws = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        lead = draw(st.integers(min_value=2, max_value=200))
        raws.append([lead] + draw(st.lists(st.integers(min_value=lead + 1, max_value=lead + 90),
                                           min_size=n - 1, max_size=n - 1, unique=True)))
    return raws


@given(_mixed_runs())
# an hs3 run ⟨q, q+a, q+a+b⟩ over consecutive q
@example([[q, q + 2, q + 5] for q in range(30, 36)])
# two theorem-B rows of (1,5,6), a1 >= 1,024
@example([[1736, 1737, 1742, 1748], [1737, 1738, 1743, 1749]])
@settings(max_examples=30, deadline=None)
def test_pass_wraps_each_face_class_as_one_batch_per_member(raws):
    # the class of m - a_F is m's residue less F's, wrapped by a1 when that is
    # negative, as it is in every face column with a nonzero residue (degree 0
    # at least); the run's four outputs are those of one batch per member
    specs = [normalize(r) for r in raws]
    owner, degrees, faces, inverse = betti._pattern_pass(specs)
    alone = [betti._pattern_pass([normalize(r)]) for r in raws]
    assert owner.tolist() == [i for i, (_, d, _, _) in enumerate(alone) for _ in d]
    assert degrees.tolist() == [m for _, d, _, _ in alone for m in d.tolist()]
    assert faces == sorted({u for _, _, f, _ in alone for u in f})
    assert [faces[u] for u in inverse.tolist()] == [f[u] for _, _, f, inv in alone
                                                    for u in inv.tolist()]
    # each degree against the oracle's complex, a sample of them past 24
    rng = random.Random(0)
    starts = np.searchsorted(owner, np.arange(len(specs) + 1)).tolist()
    for S, raw, lo, hi in zip(specs, raws, starts, starts[1:]):
        picks = range(lo, hi) if hi - lo <= 24 else rng.sample(range(lo, hi), 24)
        for k in picks:
            m = int(degrees[k])
            assert faces[inverse[k]] == _faceset(divisor_complex(S, m).faces), (raw, m)


def test_runs_close_before_their_apery_cells_pass_the_cap(monkeypatch):
    # each member's 100 candidate cells are within the cap, but three a1 of
    # 50 are not: the run closes before them, where the run's one Apéry build
    # used to refuse it whole
    monkeypatch.setattr(semigroup, "MAX_CELLS", 100)
    raws = [(50, 51), (50, 53), (50, 57)]
    assert [len(run) for run in batches(map(normalize, raws))] == [2, 1]
    assert betti_tables(map(normalize, raws)) == [graded_betti(normalize(r)) for r in raws]


@given(st.sets(st.integers(min_value=2, max_value=45), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_random_tables_satisfy_invariants(gens):
    try:
        S = normalize(tuple(gens))
    except Exception:
        return
    t = graded_betti(S)
    assert sum((-1) ** i * b for i, b in enumerate(t.totals)) == 0
    assert t.totals[0] == 1
    assert t.totals[-1] == 0
    assert t.mu == skeleton_mu(S)


def _full_scan_rows(S, bound):
    """Betti rows from the whole divisor complex of every degree 0..bound."""
    rows = {}
    for m in range(bound + 1):
        ranks = full_complex_ranks(S.n, _faceset(divisor_complex(S, m).faces))
        if any(ranks):
            rows[m] = ranks
    return rows


def _assert_candidates_match_full_scan(S):
    bound = default_bound(S)
    full = _full_scan_rows(S, bound)
    t = graded_betti(S)
    assert list(t.rows.items()) == list(full.items())
    cut = bound // 2
    assert list(graded_betti(S, bound=cut).rows.items()) == \
        [(m, r) for m, r in full.items() if m <= cut]


@given(st.lists(st.integers(min_value=3, max_value=30), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_candidate_degrees_match_full_scan(raw):
    try:
        S = normalize(raw)
    except InvalidInputError:
        return
    _assert_candidates_match_full_scan(S)


def test_candidate_degrees_match_full_scan_wide():
    for gens in [(8, 9, 10, 11, 12, 13, 15), (9, 10, 11, 12, 13, 14, 15, 17),
                 (11, 12, 14, 15, 17, 19, 20, 23)]:
        _assert_candidates_match_full_scan(normalize(gens))


def test_candidate_count_is_bounded_by_apery_size():
    S = normalize((20000, 20002, 20005, 20010))
    degrees, faces, inverse, counts = degree_patterns(S, default_bound(S))
    assert len(degrees) <= 20000 * 8
    assert degrees.tolist() == sorted(set(degrees.tolist()))
    assert int(counts.sum()) == len(degrees) == len(inverse)
    assert len(set(faces)) == len(faces)
    assert graded_betti(S).totals == (1, 3, 3, 1, 0)


def test_candidate_cap_refuses_before_allocating(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("built an Apery table for refused work")

    monkeypatch.setattr(semigroup, "_apery", boom)
    a = MAX_CELLS // 8 + 1  # a1 * 2**(n-1) is just above the cap for n = 4
    S = normalize((a, a + 1, a + 3, a + 7))
    with pytest.raises(OutOfRangeError, match=f"{a}, {a + 1}") as err:
        graded_betti(S)
    assert f"{8 * a:,}" in str(err.value)
    with pytest.raises(OutOfRangeError):
        degree_patterns(S, 10)
    # in a batch, the member over the cap is refused as it joins its run,
    # before that run's Apéry table: here, before any member's table
    batch = [normalize((30, 32, 35, 40)), S, normalize((5, 7, 9, 11))]
    with pytest.raises(OutOfRangeError, match=rf"^generators \({a}, {a + 1}, {a + 3}, {a + 7}\)"):
        betti_tables(batch)


def test_batches_keep_sort_keys_below_2_62():
    # ⟨3, an⟩ with an near 2**58 has candidates up to about 3an, near
    # 2**59.6, so twelve of them in one pass would overflow index * span + degree
    specs = [normalize((3, (1 << 58) + 3 * k + 1)) for k in range(12)]
    assert [len(chunk) for chunk in batches(specs)] == [2] * 6
    assert betti_tables(specs) == [graded_betti(normalize(S.generators)) for S in specs]
    # a bound of 2**59 keeps each member's candidates 0 and an and filters out
    # 2an and 3an, from the views the paired passes cached
    bound = 1 << 59
    alone = [normalize(S.generators) for S in specs]
    assert [graded_betti(S, bound) for S in specs] == [graded_betti(S, bound) for S in alone]
    assert graded_betti(specs[0], bound).rows == {0: (1, 0, 0)}
    for S, single in zip(specs, alone):
        assert _patterns(S, bound) == _patterns(single, bound)
        assert _patterns(S, bound)[0] == [0, S.generators[1]]


def test_batches_keep_the_run_apery_build_below_2_61():
    # a run's one Apéry build keeps its a1s times its largest generator below
    # 2**61 (check_size): ⟨1021, 1022⟩ and ⟨3, an⟩ hold 1,024 Apéry cells, so
    # the edge is an = 2**51, well inside the sort keys' bound
    an = (1 << 51) - 1
    below = [normalize((1021, 1022)), normalize((3, an))]
    above = [normalize((1021, 1022)), normalize((3, an + 1))]
    assert [len(run) for run in batches(below)] == [2]
    assert [len(run) for run in batches(above)] == [1, 1]
    _, ap, base = semigroup.apery_run(below)
    assert ap[base[1]:].tolist() == [0, an, 2 * an]
    assert betti_tables(below) == [graded_betti(normalize(S.generators)) for S in below]
    assert betti_tables(above) == [graded_betti(normalize(S.generators)) for S in above]
    with pytest.raises(OutOfRangeError, match=rf"^generators \(3, {an + 1}\): .* 64-bit"):
        semigroup.apery_run([normalize(S.generators) for S in above])


def test_batch_refuses_mixed_generator_counts():
    with pytest.raises(InvalidInputError, match="same number of generators"):
        betti_tables([normalize((3, 5)), normalize((3, 5, 7))])


def test_patterns_decomposed_once_per_semigroup(monkeypatch):
    passes = []
    original = betti._pattern_pass

    def counted(specs):
        passes.append(len(specs))
        return original(specs)

    monkeypatch.setattr(betti, "_pattern_pass", counted)
    S = normalize((23, 25, 28, 33))
    assert not is_complete_intersection(S)  # generators, then graded_betti
    assert skeleton_mu(S) == 6
    assert passes == [1]
    # theorem-b rows of (1,1,2) from its threshold 64 have 512 to 552
    # candidate cells each: one pass covers all 6 rows, and each row's
    # is_complete_intersection finds its patterns and table cached
    passes.clear()
    assert len(verify_theorem_b(FamilySpec(1, 1, 2), 64, 69).rows) == 6
    assert passes == [6]
    passes.clear()
    monkeypatch.setattr(betti, "_CHUNK_CELLS", 1200)
    assert len(verify_theorem_b(FamilySpec(1, 1, 2), 64, 69).rows) == 6
    assert passes == [2, 2, 2]


@pytest.mark.parametrize("bound", [None, 40])
def test_partly_cached_batch_passes_only_its_uncached_members(monkeypatch, bound):
    raws = [(23, 25, 28, 33), (30, 32, 35, 40), (5, 7, 9, 11), (12, 13, 17, 19)]
    singles = [normalize(r) for r in raws]
    alone = [graded_betti(S) for S in singles]
    batch = [normalize(r) for r in raws]
    assert len(list(batches(batch))) == 1
    graded_betti(batch[0], bound)  # tabled in full, whatever the bound
    # patterns only: passed again with the members that have no table, to the same table
    minimal_generators(batch[2], bound)
    passes = []
    original = betti._pattern_pass

    def counted(specs):
        passes.append([S.generators for S in specs])
        return original(specs)

    monkeypatch.setattr(betti, "_pattern_pass", counted)
    assert betti_tables(batch) == alone
    assert passes == [[raws[1], raws[2], raws[3]]]
    for S, single in zip(batch, singles):
        b = default_bound(S) if bound is None else bound
        assert graded_betti(S, b) == graded_betti(single, b), S
        assert _patterns(S, b) == _patterns(single, b), S
    assert len(passes) == 1


def test_errors_name_generators_degree_and_check(monkeypatch):
    original = betti._skeleton_components
    monkeypatch.setattr(betti, "_skeleton_components", lambda n, u: original(n, u) + (0,))
    S = normalize((23, 25, 28, 33))
    with pytest.raises(MonocurveError, match=r"^generators \(23, 25, 28, 33\), degree \d+: "
                       r"homology rank and skeleton components disagree$") as err:
        graded_betti(S)
    m = int(re.search(r"degree (\d+)", str(err.value)).group(1))
    assert m in degree_patterns(S, default_bound(S))[0].tolist()
    assert any(f.bit_count() == 1 for f in divisor_complex(S, m).faces)


def test_batch_errors_name_a_member_carrying_the_complex(monkeypatch):
    # break the component check for one complex that only the second member
    # of the batch has; the error must name that member and one of its degrees
    first, second = (23, 25, 28, 33), (30, 32, 35, 40)
    own = set(degree_patterns(normalize(second), default_bound(normalize(second)))[1])
    own -= set(degree_patterns(normalize(first), default_bound(normalize(first)))[1])
    target = next(u for u in sorted(own) if betti._skeleton_components(4, u))
    original = betti._skeleton_components
    monkeypatch.setattr(betti, "_skeleton_components",
                        lambda n, u: original(n, u) + ((0,) if u == target else ()))
    monkeypatch.setattr(betti, "_COMPONENTS_MEMO", {})
    batch = [normalize(first), normalize(second)]
    with pytest.raises(MonocurveError, match=r"^generators \(30, 32, 35, 40\), degree \d+: "
                       r"homology rank and skeleton components disagree$") as err:
        betti_tables(batch)
    m = int(re.search(r"degree (\d+)", str(err.value)).group(1))
    assert _faceset(divisor_complex(batch[1], m).faces) == target


@pytest.mark.parametrize("patch, check", [
    # drop the empty cell: {∅} at degree 0 loses its Euler characteristic
    ("_face_masks", "Euler characteristic of the cells differs from the complex's"),
    ("integer_matrix_rank", "boundary ranks violate rank-nullity"),
])
def test_cell_check_errors_name_generators_degree_and_check(monkeypatch, patch, check):
    original = getattr(betti, patch)
    if patch == "_face_masks":
        monkeypatch.setattr(betti, patch, lambda n: (original(n)[0] & ~1, original(n)[1]))
    else:
        monkeypatch.setattr(betti, patch, lambda rows: original(rows) + len(rows))
    monkeypatch.setattr(betti, "_RANKS_MEMO", {})
    with pytest.raises(MonocurveError,
                       match=rf"^generators \(30, 32, 35, 40\), degree \d+: {check}$"):
        graded_betti(normalize((30, 32, 35, 40)))


def _opposite_beta0(S):
    """+1 and -1 in dimension -1 on two complexes of S away from degree 0 that
    carry equally many degrees: beta_0's total and its degree-0 entry stay 1.
    With ranks never negative the degree-0 check implies this one, so only a
    sign fault such as this reaches it."""
    _, faces, inverse, counts = degree_patterns(S, default_bound(S))
    by_count = {}
    for u, count in zip(faces, counts.tolist()):
        if u != faces[inverse[0]]:
            by_count.setdefault(count, []).append(u)
    up, down = next(us[:2] for us in by_count.values() if len(us) > 1)
    return lambda n, u: ((u == up) - (u == down),) + (0,) * n


# per check of a full table, given S, the ranks a fault adds to complex u's
# (dimensions -1..n-1)
_TABLE_FAULTS = {
    "beta_0 supported away from degree 0": _opposite_beta0,
    "alternating sum of Betti totals is nonzero": lambda S: lambda n, u: (0, 0, 1) + (0,) * (n - 2),
    # a class in two adjacent dimensions keeps the alternating sum
    "projective dimension exceeds n-1": lambda S: lambda n, u: (0,) * (n - 1) + (1, 1),
}


@pytest.mark.parametrize("check", sorted(_TABLE_FAULTS))
def test_table_check_errors_name_generators_and_check(monkeypatch, check):
    gens = (30, 32, 35, 40)
    added = _TABLE_FAULTS[check](normalize(gens))
    original = betti._reduced_ranks
    monkeypatch.setattr(betti, "_reduced_ranks",
                        lambda n, u: tuple(r + d for r, d in zip(original(n, u), added(n, u))))
    with pytest.raises(MonocurveError, match=rf"^generators \(30, 32, 35, 40\): {check}$"):
        graded_betti(normalize(gens))


def test_homology_cells_stay_within_apery_koszul_bound(monkeypatch):
    # counts, not timings: cells are F ⊆ {2..8}, so a boundary matrix has at
    # most C(7,3)·C(7,4) entries; the whole complexes would need 1.9 million
    cells = []
    original = betti.integer_matrix_rank

    def counted(rows):
        cells.append(len(rows) * len(rows[0]))
        return original(rows)

    monkeypatch.setattr(betti, "integer_matrix_rank", counted)
    monkeypatch.setattr(betti, "_RANKS_MEMO", {})
    t = graded_betti(normalize((26, 39, 40, 59, 61, 70, 73, 77)))
    assert t.totals == (1, 23, 103, 215, 250, 167, 60, 9, 0)
    assert cells
    assert max(cells) <= math.comb(7, 3) * math.comb(7, 4) == 1225
    assert sum(cells) < 20_000


@st.composite
def _raw_batches(draw):
    """Raw generator lists with one n in 2..8: common factors, duplicates, any order."""
    n = draw(st.integers(min_value=2, max_value=8))
    raws = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        gens = draw(st.lists(st.integers(min_value=2, max_value=24), min_size=n,
                             max_size=n, unique=True))
        factor = draw(st.sampled_from((1, 1, 2, 3)))
        raw = [factor * g for g in gens]
        if draw(st.booleans()):
            raw.append(draw(st.sampled_from(raw)))
        random.Random(draw(st.integers(0, 1 << 16))).shuffle(raw)
        raws.append(raw)
    return raws


def _patterns(S, bound):
    degrees, faces, inverse, counts = degree_patterns(S, bound)
    return degrees.tolist(), faces, inverse.tolist(), counts.tolist()


@given(_raw_batches(), st.sampled_from((None, 0, 40, 90)),
       st.sampled_from((1, 64, 1 << 14)))
@settings(max_examples=100, deadline=None)
def test_batch_of_many_equals_batches_of_one(raws, bound, budget):
    batch = [normalize(r) for r in raws]
    with mock.patch.object(betti, "_CHUNK_CELLS", budget):
        tables = betti_tables(batch)
        chunks = list(batches(batch))
    assert [S for chunk in chunks for S in chunk] == batch
    if budget == 1:
        assert all(len(chunk) == 1 for chunk in chunks)
    for raw, S, table in zip(raws, batch, tables):
        alone = normalize(raw)
        single = graded_betti(alone)
        assert list(table.rows.items()) == list(single.rows.items()), raw
        assert table.totals == single.totals, raw
        b = default_bound(alone) if bound is None else bound
        assert graded_betti(S, b) == graded_betti(alone, b), raw
        assert _patterns(S, b) == _patterns(alone, b), raw
    # against the whole-complex scan of every degree, on the small members
    for raw, S in zip(raws, batch):
        if S.n <= 4 and S.generators[0] <= 12:
            b = default_bound(S) if bound is None else bound
            rows = graded_betti(S, b).rows
            assert list(rows.items()) == list(_full_scan_rows(S, b).items()), raw


@pytest.mark.parametrize("gens", [
    (100000, 100002, 100005, 100010),
    (20000, 20002, 20005, 20009, 20014, 20020),
    (4096, 4097, 4098, 4099, 4100, 4101, 4102, 4103),
])
def test_pass_peak_memory_per_candidate_cell(gens):
    # the pass holds one candidate-sized int64 array at a time, with a byte
    # per cell of mask: about 12 bytes per cell for n = 4 and 10 for n = 6
    # and 8, where a second candidate-sized array would pass 16
    S = normalize(gens)
    default_bound(S)  # the Apéry table is built outside the measurement
    tracemalloc.start()
    try:
        graded_betti(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (S.generators[0] << (S.n - 1)) <= 16


def test_betti_tables_memory_is_flat_in_the_number_of_runs():
    # each run is evaluated as it forms and its members are dropped with it,
    # so the peak follows the largest run; forming every run first kept each
    # finished run's candidate arrays alive through its members' cached
    # pattern views, so the peak grew with the number of semigroups
    def peak(count):
        specs = (normalize((q, q + 1, q + 3)) for q in range(10, 10 + count))
        tracemalloc.start()
        try:
            betti_tables(specs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500), peak(2500)
    assert large < 3 * small, (small, large)
