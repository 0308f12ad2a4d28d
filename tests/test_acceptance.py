"""End-to-end acceptance checks: exact reproduction of the published tables,
theorem verification at scale, dual-route equivalence of mu, structural
invariants, the 3-generated criterion sweep, and byte determinism.

Each check prints one [acceptance] PASS/FAIL line (visible with pytest -s).
"""

import io
import math
import random
import time

from monocurve.betti import default_bound, graded_betti
from monocurve.binomials import (binomial_from_vector, generates,
                                 minimal_generators)
from monocurve.cli import run as cli_run
from monocurve.family import (FamilySpec, hs3_sweep, reproduce_table,
                              verify_theorem_a, verify_theorem_b)
from monocurve.semigroup import normalize

from oracles import (brute_mu, divisor_complex, enumerate_generators,
                     ideal_equivalent, shifted_kernel_member, verify_generates)

KOSZUL = (1, 3, 3, 1, 0)


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def _cli_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out, err)
    return code, out.getvalue()


def _check_table(example, expected_ci_rows, limit_s):
    start = time.perf_counter()
    check = reproduce_table(example)
    elapsed = time.perf_counter() - start
    ci_rows = [j for j in sorted(check.computed) if check.computed[j] == KOSZUL]
    ok = check.passed and ci_rows == expected_ci_rows and elapsed < limit_s
    _line(f"criterion {example}: table {example} reproduction "
          f"({len(check.expected)} rows)", ok, f"[{elapsed:.2f}s]")
    assert check.mismatches == [], check.mismatches
    assert ci_rows == expected_ci_rows
    assert elapsed < limit_s
    return check


def test_criterion_1_table_1():
    _check_table(1, [29, 39, 49], limit_s=10)


def test_criterion_2_table_2():
    _check_table(2, [79, 95, 111], limit_s=30)


def test_criterion_3_table_3():
    _check_table(3, [], limit_s=15)


def test_criterion_4_theorem_b_desk_scale():
    start = time.perf_counter()
    report = verify_theorem_b(FamilySpec(2, 3, 5), 1000, 1100)
    elapsed = time.perf_counter() - start
    ci_js = [r.j for r in report.rows if r.ci]
    expected = [j for j in range(1000, 1101) if j % 10 == 0]
    ok = report.passed and ci_js == expected and elapsed < 300
    _line("criterion 4: theorem B on (2,3,5), j in [1000,1100]", ok,
          f"[{elapsed:.2f}s]")
    assert report.counterexamples == []
    assert ci_js == expected
    assert elapsed < 300


# (12,3,1) at j = 24 and 36: complete intersections, each cut out by three
# binomials given as signed exponent vectors (x^plus - x^minus). Both are
# gluings of complete intersections (Delorme, Ann. Sci. ENS 1976), so mu = 3
# there although case iii claims mu = 4; the claim is made for large j only.
SMALL_CASE_III_CI = {
    24: [(3, -2, 0, 0), (5, 0, 0, -3), (5, 1, -4, 0)],
    36: [(4, -3, 0, 0), (3, 1, 0, -3), (3, 2, -4, 0)],
}


def test_criterion_5_theorem_a_spot_checks():
    failures = []

    rep = verify_theorem_a(FamilySpec(2, 3, 5), n_max=10)
    for r in rep.rows:
        if r.case == "i":
            if r.mu != 3 or r.ideal_matches is not True:
                failures.append(("i", r.n, r.t, r.j, r.mu, r.ideal_matches))
        elif r.case == "ii" and r.n <= 5:
            if r.mu != 4:
                failures.append(("ii", r.n, r.t, r.j, r.mu, None))

    # verify_theorem_a checks case iii from n = 1 without a threshold, so the
    # two small complete intersections must be reported, and nothing else
    rep = verify_theorem_a(FamilySpec(12, 3, 1), n_max=5)
    case_iii = [r for r in rep.rows if r.case == "iii"]
    assert len(case_iii) == 15
    for r in case_iii:
        expected = 3 if r.j in SMALL_CASE_III_CI else 4
        if r.mu != expected:
            failures.append(("iii", r.n, r.t, r.j, r.mu, None))
    reported = sorted((r.case, r.j, r.mu) for r in rep.counterexamples)
    if reported != [("iii", 24, 3), ("iii", 36, 3)]:
        failures.append(("iii counterexamples", reported))

    # confirm mu = 3 at the small shifts independently of the package route
    for j, vectors in SMALL_CASE_III_CI.items():
        S = normalize((j, 12 + j, 15 + j, 16 + j))
        if brute_mu(S.generators) != 3:
            failures.append(("iii brute_mu", j))
        if not all(shifted_kernel_member(S, v, (12, 3, 1, j)) for v in vectors):
            failures.append(("iii kernel_member", j))
        gens, mu = minimal_generators(S)
        binomials = [binomial_from_vector(v, S.generators) for v in vectors]
        if mu != 3 or not ideal_equivalent(S, gens, binomials):
            failures.append(("iii ideal_equivalent", j, mu))
        if not generates(S, binomials):
            failures.append(("iii generates", j))

    # case iii at the theorem's own scale: j = 16*256 + 4t >= (a+b+c)^3
    for t in (1, 2, 3):
        j = 16 * 256 + 4 * t
        S = normalize((j, 12 + j, 15 + j, 16 + j))
        _, mu = minimal_generators(S)
        if mu != 4 or graded_betti(S).mu != mu:
            failures.append(("iii large j", 256, t, j, mu, None))

    _line("criterion 5: theorem A spot checks", not failures,
          f"failing points: {failures}" if failures else "")
    assert not failures, failures


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(602026)
    tuples = []
    while len(tuples) < 50:
        raw = tuple(sorted(rng.sample(range(2, 61), 4)))
        if math.gcd(*raw) == 1:
            tuples.append(raw)
    for raw in tuples:
        S = normalize(raw)
        homology_mu = graded_betti(S).mu
        gens, graph_mu = enumerate_generators(S)
        assert homology_mu == graph_mu, (raw, homology_mu, graph_mu)
        assert verify_generates(S, gens), raw
    elapsed = time.perf_counter() - start
    _line("criterion 6: oracle equivalence on 50 random coprime 4-tuples",
          True, f"[{elapsed:.2f}s]")


def test_criterion_7_structural_invariants():
    rng = random.Random(72026)
    sample = [(23, 25, 28, 33), (30, 32, 35, 40), (66, 78, 81, 82),
              (113, 126, 129, 130), (33, 36, 41, 43), (62, 66, 71, 73),
              (1, 2, 3, 4), (2, 3)]
    while len(sample) < 16:
        raw = tuple(sorted(rng.sample(range(2, 61), 4)))
        if math.gcd(*raw) == 1:
            sample.append(raw)
    for raw in sample:
        S = normalize(raw)
        table = graded_betti(S)
        n = S.n
        assert sum((-1) ** i * b for i, b in enumerate(table.totals)) == 0, raw
        assert table.totals[0] == 1 and table.rows[0][0] == 1, raw
        assert all(r[0] == 0 for m, r in table.rows.items() if m != 0), raw
        assert table.totals[n] == 0, raw
        bound = default_bound(S)
        widened = graded_betti(S, bound=bound + 60)
        assert widened.rows == table.rows, raw
        assert all(m <= bound for m in widened.rows), raw
        probe = divisor_complex(S, bound + 17)
        assert probe.faces == frozenset(range(1 << n)), raw
    _line("criterion 7: structural invariants on every computed table", True)


def test_criterion_8_hs3_equivalence():
    # the library sweep that `verify hs3` runs: coprime a, b with a + b <= 12
    # and every q from max(ab+b^2, ab+a^2) to 200
    expected = sum(201 - max(a * b + b * b, a * b + a * a)
                   for s in range(2, 13) for a in range(1, s)
                   for b in [s - a] if math.gcd(a, b) == 1)
    start = time.perf_counter()
    checked, mismatches = hs3_sweep(200, 12)
    elapsed = time.perf_counter() - start
    ok = not mismatches and checked == expected == 6483 and elapsed < 120
    _line(f"criterion 8: 3-generated CI criterion vs pipeline "
          f"({checked} triples)", ok, f"[{elapsed:.2f}s]")
    assert not mismatches, mismatches[:10]
    assert checked == expected == 6483
    assert elapsed < 120


def test_criterion_9_determinism():
    scan_argv = ["scan", "--abc", "2,3,5", "--from", "22", "--to", "51"]
    for fmt in ("csv", "json"):
        outputs = set()
        for jobs in ("1", "2", "4"):
            code, text = _cli_bytes(scan_argv + ["--format", fmt, "--jobs", jobs])
            assert code == 0
            outputs.add(text)
        code, text = _cli_bytes(scan_argv + ["--format", fmt, "--jobs", "1"])
        outputs.add(text)
        assert len(outputs) == 1, f"{fmt} output varies"

    tb_argv = ["verify", "theorem-b", "--abc", "2,3,5",
               "--from", "1000", "--to", "1010", "--format", "json"]
    first = _cli_bytes(tb_argv + ["--jobs", "1"])
    second = _cli_bytes(tb_argv + ["--jobs", "2"])
    assert first == second
    _line("criterion 9: byte-identical CSV/JSON across runs and --jobs", True)
