import concurrent.futures
import os
from collections import Counter
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocurve import betti, family
from monocurve.betti import graded_betti
from monocurve.binomials import (binomial_from_vector, generates,
                                 kernel_member, minimal_generators)
from monocurve.errors import (HypothesisNotMetError, InvalidInputError,
                              OutOfRangeError)
from monocurve.family import (FamilyScanReport, FamilySpec, ScanRow,
                              TheoremReport, ci_check_3gen, detect_period,
                              hs3_sweep, is_complete_intersection,
                              reproduce_table, scan, verify_theorem_a,
                              verify_theorem_b, worker_count)
from monocurve.semigroup import MembershipTable, contains, normalize

from oracles import (brute_mu, ideal_equivalent, shift_sequence,
                     shifted_kernel_member)


def test_structure_flags():
    F = FamilySpec(2, 3, 5)
    assert (F.p_c, F.p_a) == (1, None)  # c = 1*(a+b)
    G = FamilySpec(12, 3, 1)
    assert (G.p_c, G.p_a) == (None, 3)  # a = 3*(b+c)
    H = FamilySpec(3, 5, 2)
    assert (H.p_c, H.p_a) == (None, None)
    assert F.period == 10 and G.period == 16


def test_family_spec_validation():
    with pytest.raises(InvalidInputError):
        FamilySpec(0, 3, 5)
    with pytest.raises(InvalidInputError):
        FamilySpec(2, 3, 5, offset=2)


def test_shift_sequence_examples():
    assert shift_sequence(FamilySpec(2, 3, 5, offset=1), 29).generators == (30, 32, 35, 40)
    assert shift_sequence(FamilySpec(2, 3, 5, offset=0), 10).generators == (10, 12, 15, 20)
    assert shift_sequence(FamilySpec(12, 3, 1, offset=1), 65).generators == (66, 78, 81, 82)
    with pytest.raises(InvalidInputError):
        shift_sequence(FamilySpec(2, 3, 5), 0)


def test_shift_sequence_records_content():
    # all entries even when the base is (2,2,2) and the shift is even
    S = shift_sequence(FamilySpec(2, 2, 2, offset=0), 4)
    assert S.generators == (2, 3, 4, 5)
    assert S.content == 2


def test_scan_rows_keep_raw_and_reduced_tuples():
    report = scan(FamilySpec(2, 2, 2, offset=0), 2, 5)
    by_j = {r.j: r for r in report.rows}
    assert by_j[2].raw_generators == (2, 4, 6, 8)
    assert by_j[2].generators == (1, 2, 3, 4)
    assert by_j[2].content == 2
    assert by_j[2].ci  # polynomial-ring image, three linear generators
    assert by_j[3].content == 1
    assert [by_j[j].content for j in (2, 3, 4, 5)] == [2, 1, 2, 1]


def test_is_complete_intersection():
    assert is_complete_intersection(normalize((30, 32, 35, 40)))
    assert not is_complete_intersection(normalize((23, 25, 28, 33)))
    assert is_complete_intersection(normalize((1, 2, 3, 4)))
    assert is_complete_intersection(normalize((2, 3)))  # mu = 1 = n - 1


@given(st.sets(st.integers(min_value=2, max_value=24), min_size=2, max_size=5))
@example({2, 3})
@example({8, 12, 18})
@example({3, 4, 5})
@example({30, 32, 35, 40})
@settings(max_examples=40, deadline=None)
def test_complete_intersection_is_mu_of_height_n_minus_1(raw):
    # the defining ideal of a monomial curve in A^n has height n - 1, and it
    # is a complete intersection iff it needs no more generators than that
    S = normalize(tuple(raw))
    ci = brute_mu(S.generators) == S.n - 1
    assert is_complete_intersection(S) == ci
    assert graded_betti(S).ci == ci


def test_ci_check_3gen_examples():
    assert ci_check_3gen(12, 1, 2)
    assert not ci_check_3gen(13, 1, 2)


def test_ci_check_3gen_out_of_range():
    with pytest.raises(OutOfRangeError):
        ci_check_3gen(5, 1, 2)  # below ab + b^2 = 6
    with pytest.raises(InvalidInputError):
        ci_check_3gen(12, 0, 2)


def test_ci_check_3gen_non_coprime_vs_pipeline():
    # gcd(a, b) > 1: the full criterion, checked against mu of the pipeline
    for q, a, b in [(45, 2, 4), (25, 2, 4), (27, 2, 4), (35, 2, 4), (33, 2, 4), (29, 2, 4)]:
        S = normalize((q, q + a, q + a + b))
        mu = brute_mu(S.generators)
        assert ci_check_3gen(q, a, b) == (mu == 2), (q, a, b, mu)


def test_ci_check_3gen_rejects_common_content():
    # with gcd(q, a, b) = 3 the criterion's arithmetic would wrongly report a
    # complete intersection for the reduced tuple (20, 21, 23)
    with pytest.raises(InvalidInputError):
        ci_check_3gen(60, 3, 6)


def test_ci_check_3gen_coprime_sweep_vs_pipeline():
    from monocurve.betti import graded_betti
    for a, b in [(1, 2), (2, 1), (2, 3), (1, 4)]:
        lo = max(a * b + b * b, a * b + a * a)
        for q in range(lo, lo + 15):
            S = normalize((q, q + a, q + a + b))
            assert ci_check_3gen(q, a, b) == (graded_betti(S).mu == 2), (q, a, b)


def test_scan_rows_and_invariants():
    report = scan(FamilySpec(2, 3, 5, offset=1), 22, 31)
    assert [r.j for r in report.rows] == list(range(22, 32))
    first = report.rows[0]
    assert first.raw_generators == (23, 25, 28, 33)
    assert first.generators == (23, 25, 28, 33)
    assert first.content == 1
    assert first.totals == (1, 6, 9, 4, 0)
    for r in report.rows:
        assert r.mu == r.totals[1]
        assert r.ci == (r.mu == 3)
        assert r.ci == (r.totals == (1, 3, 3, 1, 0))  # Koszul shape
        assert sum((-1) ** i * b for i, b in enumerate(r.totals)) == 0
        assert r.totals[4] == 0
    assert report.rows[7].j == 29 and report.rows[7].ci


def test_scan_jobs_do_not_change_rows():
    F = FamilySpec(2, 3, 5, offset=1)
    serial = scan(F, 22, 31, jobs=1)
    parallel = scan(F, 22, 31, jobs=2)
    assert serial.rows == parallel.rows


def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert worker_count(8, 3) == 3
    assert worker_count(8, 100) == 4
    assert worker_count(2, 100) == 2
    assert worker_count(1, 100) == 1
    assert worker_count(8, 0) == 1
    # taskset or a cpuset: 2 usable CPUs of the 4 the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert worker_count(8, 100) == 2
    # platforms without an affinity mask fall back to cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count(8, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 100) == 1


def test_scan_with_one_worker_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool for one worker")

    # _map_ordered imports the pool class from here when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    F = FamilySpec(2, 3, 5, offset=1)
    assert len(scan(F, 22, 22, jobs=8).rows) == 1  # one task
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert scan(F, 22, 31, jobs=8).rows == scan(F, 22, 31, jobs=1).rows


@pytest.mark.parametrize("jobs, message", [
    (1.5, "jobs must be an integer, got 1.5"),
    ("2", "jobs must be an integer, got '2'"),
    (0, "jobs must be at least 1, got 0"),
    (-1, "jobs must be at least 1, got -1"),
])
def test_bad_jobs_are_refused_before_any_pool(monkeypatch, jobs, message):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a process pool for a refused worker count")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    F = FamilySpec(2, 3, 5)
    for call in (lambda: scan(F, 22, 31, jobs=jobs),
                 lambda: verify_theorem_b(F, 1000, 1009, jobs=jobs),
                 lambda: reproduce_table(1, jobs=jobs)):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("example, message", [
    (1.0, "example must be an integer, got 1.0"),
    ("1", "example must be an integer, got '1'"),
    (0, "unknown example 0: the examples are 1, 2, 3"),
    (4, "unknown example 4: the examples are 1, 2, 3"),
])
def test_reproduce_table_refuses_unknown_examples(example, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        reproduce_table(example)


def test_scan_validates_range():
    with pytest.raises(InvalidInputError):
        scan(FamilySpec(2, 3, 5), 10, 5)
    with pytest.raises(InvalidInputError):
        scan(FamilySpec(2, 3, 5), 0, 5)


def test_period_unconfirmed_on_published_window():
    # rows 22..51 contain the pre-periodic row j=26, so the largest candidate
    # period 10 cannot be verified over 3*T entries inside this window
    report = scan(FamilySpec(2, 3, 5, offset=1), 22, 51)
    assert report.period is None


def test_period_detected_on_longer_window():
    report = scan(FamilySpec(2, 3, 5, offset=1), 22, 61)
    assert report.period is not None
    assert report.period.length == 10
    assert report.period.j0 == 27
    report3 = scan(FamilySpec(3, 5, 2, offset=1), 32, 71)
    assert (report3.period.length, report3.period.j0) == (10, 35)


def test_period_second_family():
    report = scan(FamilySpec(12, 3, 1, offset=1), 65, 128)
    assert (report.period.length, report.period.j0) == (16, 81)


def test_detect_period_constant_rows():
    F = FamilySpec(2, 3, 5)
    rows = [ScanRow(j=j, raw_generators=(1, 2, 3, 4), generators=(1, 2, 3, 4),
                    content=1, totals=(1, 3, 3, 1, 0), mu=3, ci=True)
            for j in range(1, 31)]
    report = FamilyScanReport(family=F, j_min=1, j_max=30, rows=rows)
    info = detect_period(report)
    assert (info.j0, info.length) == (1, 1)


def test_detect_period_window_too_small():
    F = FamilySpec(2, 3, 5)
    report = scan(F, 22, 40)
    with pytest.raises(InvalidInputError):
        detect_period(report)


def test_detected_period_divides_larger_lags():
    report = scan(FamilySpec(2, 3, 5, offset=1), 22, 81)
    T = report.period.length
    totals = {r.j: r.totals for r in report.rows}
    for lag in (T, 2 * T, 3 * T):
        assert lag % T == 0
        for j in range(report.period.j0, 82 - lag):
            assert totals[j] == totals[j + lag]


def test_verify_theorem_b_smoke():
    report = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1012)
    assert report.passed
    assert [r.j for r in report.rows if r.ci] == [1000, 1010]
    parallel = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1012, jobs=2)
    assert parallel.rows == report.rows


def test_verify_theorem_b_guards():
    with pytest.raises(OutOfRangeError):
        verify_theorem_b(FamilySpec(2, 3, 5), 999, 1100)
    with pytest.raises(HypothesisNotMetError):
        verify_theorem_b(FamilySpec(3, 5, 2), 1000, 1100)
    with pytest.raises(InvalidInputError):
        verify_theorem_b(FamilySpec(2, 3, 5), 1100, 1000)


def test_verify_theorem_a_ci_family():
    report = verify_theorem_a(FamilySpec(2, 3, 5), n_max=3)
    assert report.passed
    cases = {(r.case, r.n, r.t): r for r in report.rows}
    r = cases[("i", 3, None)]
    assert r.j == 30 and r.mu == 3 and r.ideal_matches is True
    r = cases[("ii", 3, 1)]
    assert r.j == 35 and r.mu == 4


def test_theorem_reports_share_one_type():
    a = verify_theorem_a(FamilySpec(12, 3, 1), n_max=2)
    b = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1012)
    assert type(a) is type(b) is TheoremReport
    for report in (a, b):
        assert report.counterexamples == [r for r in report.rows if not r.agrees]
        assert report.passed == (not report.counterexamples)
    assert a.counterexamples and not a.passed
    # a theorem-B row that disagrees is a counterexample as well
    flipped = b._replace(rows=[r._replace(ci=not r.ci) if r.j == 1000 else r
                               for r in b.rows])
    assert flipped.counterexamples == flipped.rows[:1] and not flipped.passed


def test_verify_theorem_a_counterexamples_reported_verbatim():
    # the two degenerate small shifts of the (12,3,1) family are genuine
    # mu = 3 points; the report must show them rather than assert the claim
    report = verify_theorem_a(FamilySpec(12, 3, 1), n_max=2)
    bad = {(r.n, r.t): r for r in report.counterexamples}
    assert set(bad) == {(1, 2), (2, 1)}
    assert bad[(1, 2)].j == 24 and bad[(1, 2)].mu == 3
    assert bad[(2, 1)].j == 36 and bad[(2, 1)].mu == 3
    assert not report.passed


def test_verify_theorem_a_include_t_false():
    report = verify_theorem_a(FamilySpec(12, 3, 1), n_max=2, include_t=False)
    assert all(r.t in (None, 1) for r in report.rows)


def test_verify_theorem_a_guards():
    with pytest.raises(HypothesisNotMetError):
        verify_theorem_a(FamilySpec(3, 5, 2), n_max=2)
    with pytest.raises(InvalidInputError):
        verify_theorem_a(FamilySpec(2, 3, 5), n_max=0)


def test_theorem_b_fails_on_flagged_triple_with_common_factor():
    # (3,3,6) is flagged (c = a+b) but gcd(a,b,c) = 3. Read without the
    # theorem gate, ⟨j, j+3, j+6, j+12⟩ is a complete intersection exactly
    # when 4 | j, not when 12 | j, at and above the (a+b+c)^3 threshold
    for j in range(1728, 1772):
        S = normalize((j, j + 3, j + 6, j + 12))
        assert is_complete_intersection(S) == (j % 4 == 0), j
    # and below it: mu = 3 by brute force although 12 does not divide j. With
    # j = 4m the ideal is cut out by x2^2 - x1*x3 (2(j+3) = j + (j+6)),
    # x3^2 - x1*x4 (2(j+6) = j + (j+12)) and x1^(m+3) - x4^m
    # ((m+3)j = m(j+12) = 4m(m+3))
    for j in (16, 20):
        raw = (j, j + 3, j + 6, j + 12)
        assert brute_mu(raw) == 3, j
        S = normalize(raw)
        m = j // 4
        vectors = [(-1, 2, -1, 0), (-1, 0, 2, -1), (m + 3, 0, 0, -m)]
        assert all(shifted_kernel_member(S, v, (3, 3, 6, j)) for v in vectors)
        explicit = [binomial_from_vector(v, S.generators) for v in vectors]
        assert ideal_equivalent(S, minimal_generators(S)[0], explicit), j
        assert generates(S, explicit), j


@pytest.mark.parametrize("abc", [(3, 3, 6), (6, 3, 3), (2, 4, 12)])
def test_theorem_checks_refuse_triples_with_common_factor(abc):
    F = FamilySpec(*abc)
    with pytest.raises(HypothesisNotMetError, match=r"gcd\(a,b,c\) = \d"):
        verify_theorem_b(F, F.period ** 3, F.period ** 3 + 1)
    with pytest.raises(HypothesisNotMetError, match=r"gcd\(a,b,c\) = \d"):
        verify_theorem_a(F, n_max=1)


@pytest.mark.parametrize("q_max, ab_max", [(200, 1), (-3, 12), (1, 12), (2, 1)])
def test_hs3_sweep_with_no_triple_is_refused(q_max, ab_max):
    # a + b <= 1 leaves no pair, and the least threshold, at a = b = 1, is 2
    with pytest.raises(InvalidInputError, match=f"ab_max={ab_max} .* q_max={q_max}"):
        hs3_sweep(q_max, ab_max)


def test_hs3_sweep_at_the_least_threshold_checks_one_triple():
    assert hs3_sweep(2, 2) == (1, [])


def test_hs3_sweep_memory_before_its_first_batch_is_flat_in_q_max(monkeypatch):
    # (1000, 12) and (4000, 12) share their first batch; a list of all the
    # triples would cost about 100 bytes per triple before it is evaluated
    class FirstBatch(Exception):
        pass

    def stop(run):
        raise FirstBatch(len(run))

    monkeypatch.setattr(family, "evaluate_run", stop)
    peaks = []
    for q_max in (1000, 4000):
        tracemalloc.start()
        try:
            with pytest.raises(FirstBatch) as first:
                hs3_sweep(q_max, 12)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert first.value.args[0] > 1
    assert peaks[1] < peaks[0] + 200_000, peaks


def test_a_sweep_checks_each_semigroup_once(monkeypatch):
    # a semigroup is checked against MAX_CELLS as it joins its run; the
    # batch's pass, and is_complete_intersection's table, bound and patterns
    # after it, find it checked
    checks = Counter()
    original = betti.check_size

    def counted(generators, cells, what):
        checks[tuple(generators)] += 1
        return original(generators, cells, what)

    monkeypatch.setattr(betti, "check_size", counted)
    checked, _ = hs3_sweep(40, 5)
    assert len(checks) == checked and set(checks.values()) == {1}
    checks.clear()
    report = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1011)
    assert sorted(checks) == sorted(r.generators for r in report.rows)
    assert set(checks.values()) == {1}


_REFUSALS = {
    "scan-order": (lambda: scan(FamilySpec(2, 3, 5), 5, 2), "j_min=5, j_max=2"),
    "scan-start": (lambda: scan(FamilySpec(2, 3, 5), 0, 2), "j_min=0, j_max=2"),
    "theorem-b": (lambda: verify_theorem_b(FamilySpec(2, 3, 5), 1001, 1000),
                  "j_min=1001, j_max=1000"),
    "theorem-a": (lambda: verify_theorem_a(FamilySpec(2, 3, 5), 0), "at least 1, got 0"),
    "hs3-sign": (lambda: ci_check_3gen(0, 3, 6), "q=0, a=3, b=6"),
    "hs3-gcd": (lambda: ci_check_3gen(60, 3, 6), "q=60, a=3, b=6"),
    "membership-table": (lambda: MembershipTable((3, 0, 5)), "generators (3, 0, 5)"),
    "contains": (lambda: contains(normalize((3, 5)), -4), "m=-4"),
    "kernel-member": (lambda: kernel_member(normalize((3, 5, 7)), (5, -3)),
                      "generators (3, 5, 7): vector (5, -3)"),
    "binomial": (lambda: binomial_from_vector((5, -3), (3, 5, 7)),
                 "generators (3, 5, 7): vector (5, -3)"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_refusals_name_their_input(case):
    call, names = _REFUSALS[case]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert names in str(info.value)
