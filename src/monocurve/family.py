"""Shifted families (j, a+j, a+b+j, a+b+c+j): scans over j, period detection,
complete-intersection classification, and empirical checks of the structure
theorems, the Herzog-Srinivasan 3-generator criterion and the published tables.

Two indexing conventions coexist in this domain and both are supported. Scan
rows are labeled so that row j holds the tuple (offset+j, a+offset+j, ...);
with the default offset 1 this reproduces the published tables, whose row 29
for the family (2,3,5) is ⟨30,32,35,40⟩. The theorem checks always speak of
the actual leading generator: the complete-intersection criterion divides the
first entry of the tuple itself, never a row label.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from importlib.resources import files
from typing import NamedTuple

from .betti import batches, evaluate_run, graded_betti
from .binomials import (Binomial, binomial_from_vector, generates,
                        kernel_member, minimal_generators)
from .errors import (HypothesisNotMetError, InvalidInputError,
                     MonocurveError, OutOfRangeError)
from .semigroup import SemigroupSpec, as_integer, normalize


class _Family(NamedTuple):
    a: int
    b: int
    c: int
    offset: int = 1


class FamilySpec(_Family):
    """Base triple (a, b, c) plus the row-labeling offset.

    Structure flags are recomputed from the triple: ``p_c`` is the integer p
    when c = p(a+b), ``p_a`` is p when a = p(b+c); both None otherwise. The
    conjectured period of the Betti data is a+b+c.
    """

    __slots__ = ()

    def __new__(cls, a, b, c, offset=1):
        a, b, c, offset = map(as_integer, (a, b, c, offset), ("a", "b", "c", "offset"))
        where = f"family {(a, b, c)}: "
        if min(a, b, c) < 1:
            raise InvalidInputError(where + "base entries must be positive")
        if offset not in (0, 1):
            raise InvalidInputError(where + f"offset must be 0 or 1, got {offset}")
        return super().__new__(cls, a, b, c, offset)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    @property
    def p_c(self):
        return self.c // (self.a + self.b) if self.c % (self.a + self.b) == 0 else None

    @property
    def p_a(self):
        return self.a // (self.b + self.c) if self.a % (self.b + self.c) == 0 else None

    @property
    def period(self):
        return self.a + self.b + self.c

    def shifted(self, s):
        """The raw tuple (s, a+s, a+b+s, a+b+c+s) with leading generator s."""
        return (s, self.a + s, self.a + self.b + s, self.a + self.b + self.c + s)


class ScanRow(NamedTuple):
    j: int
    raw_generators: tuple[int, ...]
    generators: tuple[int, ...]
    content: int
    totals: tuple[int, ...]
    mu: int
    ci: bool


class PeriodInfo(NamedTuple):
    j0: int
    length: int
    window: tuple[int, int]


class FamilyScanReport(NamedTuple):
    family: FamilySpec
    j_min: int
    j_max: int
    rows: list[ScanRow]
    period: PeriodInfo | None = None


def _tabled(specs):
    """(semigroup, Betti table) for each of ``specs`` in order, one pass per batch.

    Runs are evaluated as :func:`batches` forms and checks them, so only one
    is alive at a time and memory stays flat however long the sweep.
    """
    for run in batches(specs):
        yield from zip(run, evaluate_run(run))


def _scan_rows(F: FamilySpec, js) -> list[ScanRow]:
    raws = [F.shifted(F.offset + j) for j in js]
    return [ScanRow(j=j, raw_generators=raw, generators=S.generators,
                    content=S.content, totals=table.totals, mu=table.mu, ci=table.ci)
            for j, raw, (S, table) in zip(js, raws, _tabled(map(normalize, raws)))]


def worker_count(jobs, tasks):
    """Processes worth starting: no more than the tasks or the usable CPUs.

    A fork-started ProcessPoolExecutor launches all ``max_workers`` at its
    first submit, so asking for more than this only forks idle processes.
    Usable CPUs are those this process may run on (its affinity mask, which
    taskset or a cpuset narrows), not the host's count.
    """
    jobs = as_integer(jobs, "jobs")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, tasks, cpus))


def _map_ordered(fn, tasks, jobs):
    """fn(list of tasks) -> one row per task, over runs of consecutive tasks
    in worker processes; rows come back in task order."""
    tasks = list(tasks)
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return fn(tasks)
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    size = -(-len(tasks) // (4 * workers))
    runs = [tasks[k:k + size] for k in range(0, len(tasks), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(fn, runs) for row in rows]


def scan(F: FamilySpec, j_min, j_max, jobs=1) -> FamilyScanReport:
    """One row per j in [j_min, j_max], plus period detection when possible.

    Rows are independent; with jobs > 1 they are computed in worker processes
    and collected in j order, so the worker count never changes the result.
    """
    j_min, j_max = as_integer(j_min, "j_min"), as_integer(j_max, "j_max")
    if j_min < 1 or j_min > j_max:
        raise InvalidInputError(f"need 1 <= j_min <= j_max, got j_min={j_min}, j_max={j_max}")
    rows = _map_ordered(functools.partial(_scan_rows, F), range(j_min, j_max + 1), jobs)
    report = FamilyScanReport(family=F, j_min=j_min, j_max=j_max, rows=rows)
    if len(rows) >= 3 * F.period:
        report = report._replace(period=detect_period(report))
    return report


def detect_period(report: FamilyScanReport) -> PeriodInfo | None:
    """Least (j0, T), T minimal, with rows j and j+T equal for all j >= j0.

    A period is only reported when the verified span covers at least 3*T
    consecutive rows; aliased pseudo-periods over shorter evidence come back
    as None. Raises when the report has fewer than 3*(a+b+c) rows.
    """
    rows = report.rows
    if len(rows) < 3 * report.family.period:
        raise InvalidInputError(
            f"period detection needs at least {3 * report.family.period} rows, "
            f"got {len(rows)}")
    js = [r.j for r in rows]
    if any(js[i + 1] != js[i] + 1 for i in range(len(js) - 1)):
        raise InvalidInputError("scan rows are not consecutive in j")
    totals = [r.totals for r in rows]
    n = len(rows)
    t_max = (n - 1) // 3
    for T in range(1, t_max + 1):
        start = 0
        for k in range(n - T - 1, -1, -1):
            if totals[k] != totals[k + T]:
                start = k + 1
                break
        if n - start >= 3 * T:
            return PeriodInfo(j0=js[start], length=T, window=(js[start], js[-1]))
    return None


def is_complete_intersection(S: SemigroupSpec) -> bool:
    """Whether the defining ideal is a complete intersection: mu = n - 1
    (:attr:`GradedBettiTable.ci`), for any number of generators n.

    mu comes from the minimal-generator construction and is cross-checked
    against the first Betti total of the homology route.
    """
    return _checked_table(S).ci


def _checked_table(S: SemigroupSpec):
    """S's Betti table, its mu cross-checked against the minimal generators."""
    # the table's pass caches the patterns that minimal_generators reads
    table = graded_betti(S)
    _, mu = minimal_generators(S)
    if mu != table.mu:
        raise MonocurveError(f"mu={mu} disagrees with first Betti number {table.mu}")
    return table


def _hs3_min_q(a, b):
    return max(a * b + b * b, a * b + a * a)


def ci_check_3gen(q, a, b) -> bool:
    """Herzog-Srinivasan test for ⟨q, q+a, q+a+b⟩ being a complete intersection.

    Valid for q >= max(ab+b^2, ab+a^2): the ideal is a complete intersection
    iff x = gcd(q, a+b) is not 1 and x(q+a) = alpha*q + beta*(q+a+b) has a
    nonnegative integer solution. For coprime a, b this must collapse to
    (a+b) | q, which is asserted.
    """
    q, a, b = as_integer(q, "q"), as_integer(a, "a"), as_integer(b, "b")
    if min(q, a, b) < 1:
        raise InvalidInputError(f"q={q}, a={a}, b={b}: q, a, b must be positive")
    if math.gcd(q, a, b) != 1:
        # the criterion is stated for numerical semigroups; with common content
        # d > 1 its arithmetic answers for the unreduced tuple and disagrees
        # with the ideal of the reduced one (e.g. q,a,b = 60,3,6)
        raise InvalidInputError(f"q={q}, a={a}, b={b}: gcd(q, a, b) must be 1")
    if q < _hs3_min_q(a, b):
        raise OutOfRangeError(
            f"q={q} below max(ab+b^2, ab+a^2); the criterion makes no claim")
    x = math.gcd(q, a + b)
    if x == 1:
        result = False
    else:
        target = x * (q + a)
        result = any((target - beta * (q + a + b)) % q == 0
                     for beta in range(target // (q + a + b) + 1))
    if math.gcd(a, b) == 1 and result != (q % (a + b) == 0):
        raise MonocurveError("general criterion disagrees with the coprime special case")
    return result


def hs3_agree(q, a, b):
    """(criterion's CI answer, the pipeline's Betti table, whether the two CI
    verdicts agree) for ⟨q, q+a, q+a+b⟩."""
    lemma = ci_check_3gen(q, a, b)
    table = graded_betti(normalize((q, q + a, q + a + b)))
    return lemma, table, lemma == table.ci


def hs3_sweep(q_max, ab_max):
    """(triples checked, disagreements) of the :func:`hs3_agree` check over
    coprime a, b with a + b <= ab_max and every q from the criterion's
    threshold to q_max, the semigroups evaluated in batches; each
    disagreement is a dict with keys q, a, b, lemma_ci and mu. Triples are
    made as the batches consume them, so memory stays flat in q_max, and read
    back from the generators (q, q+a, q+a+b), which gcd(a, b) = 1 keeps. A
    sweep with no triple to check is refused rather than reported as a pass."""
    specs = (normalize((q, q + a, q + s)) for s in range(2, ab_max + 1) for a in range(1, s)
             if math.gcd(a, s - a) == 1 for q in range(_hs3_min_q(a, s - a), q_max + 1))
    checked, bad = 0, []
    for S, table in _tabled(specs):
        q, qa, qab = S.generators
        a, b = qa - q, qab - qa
        checked += 1
        lemma = ci_check_3gen(q, a, b)
        if lemma != table.ci:
            bad.append({"q": q, "a": a, "b": b, "lemma_ci": lemma, "mu": table.mu})
    if not checked:
        raise InvalidInputError(f"no triple to check: no coprime a, b with a + b <= "
                                f"ab_max={ab_max} has max(ab+b^2, ab+a^2) <= q_max={q_max}")
    return checked, bad


def _require_theorem_hypotheses(F: FamilySpec):
    """Theorems A and B need a structure flag and, found by computation rather
    than stated in ``PAPER.md``, gcd(a,b,c) = 1: theorem B fails for (3,3,6),
    where every j = 4, 8 (mod 12) is a complete intersection."""
    if F.p_c is None and F.p_a is None:
        raise HypothesisNotMetError(
            f"({F.a},{F.b},{F.c}) has neither c = p(a+b) nor a = p(b+c); "
            "the statement does not apply")
    d = math.gcd(F.a, F.b, F.c)
    if d != 1:
        raise HypothesisNotMetError(
            f"({F.a},{F.b},{F.c}) has gcd(a,b,c) = {d}; the statements are "
            "checked only for gcd(a,b,c) = 1")


class TheoremReport(NamedTuple):
    """The rows of a theorem check, each a :class:`TheoremARow` or a
    :class:`TheoremBRow`; a counterexample is a row that does not agree."""

    family: FamilySpec
    rows: list[TheoremARow] | list[TheoremBRow]

    @property
    def counterexamples(self):
        return [r for r in self.rows if not r.agrees]

    @property
    def passed(self):
        return not self.counterexamples


class TheoremBRow(NamedTuple):
    j: int
    generators: tuple[int, ...]
    ci: bool
    divisible: bool

    @property
    def agrees(self):
        return self.ci == self.divisible


def _tb_rows(F: FamilySpec, js) -> list[TheoremBRow]:
    # j leads; is_complete_intersection finds the batch's tables cached
    specs = (normalize(F.shifted(j)) for j in js)
    return [TheoremBRow(j=j, generators=S.generators, ci=is_complete_intersection(S),
                        divisible=j % F.period == 0)
            for j, (S, _) in zip(js, _tabled(specs))]


def verify_theorem_b(F: FamilySpec, j_min, j_max, jobs=1) -> TheoremReport:
    """Compare CI status against (a+b+c) | j across a range of true shifts.

    Here j is the leading generator itself. Requires the hypotheses of
    :func:`_require_theorem_hypotheses` and j_min >= (a+b+c)^3, the theorem's
    threshold; the report asserts nothing beyond the tested range and lists
    any counterexample verbatim.
    """
    _require_theorem_hypotheses(F)
    j_min, j_max = as_integer(j_min, "j_min"), as_integer(j_max, "j_max")
    cube = F.period ** 3
    if j_min < cube:
        raise OutOfRangeError(f"theorem threshold is j >= {cube}, got j_min={j_min}")
    if j_min > j_max:
        raise InvalidInputError(f"need j_min <= j_max, got j_min={j_min}, j_max={j_max}")
    rows = _map_ordered(functools.partial(_tb_rows, F), range(j_min, j_max + 1), jobs)
    return TheoremReport(family=F, rows=rows)


class TheoremARow(NamedTuple):
    case: str
    n: int
    t: int | None
    j: int
    generators: tuple[int, ...]
    mu: int
    expected_mu: int
    ideal_matches: bool | None

    @property
    def agrees(self):
        return self.mu == self.expected_mu and self.ideal_matches is not False


def _case_i_ideal(S: SemigroupSpec, n, p, a, b) -> list[Binomial]:
    """The explicit CI ideal at j = (a+b+c)n when c = p(a+b), gcd(a,b) = 1."""
    vectors = [
        (n + 1, 0, 0, -n),
        (-p, 0, p + 1, -1),
        (-b, a + b, -a, 0),
    ]
    for v in vectors:
        if not kernel_member(S, v):
            raise MonocurveError(f"expected ideal generator {v} is not in the kernel")
    return [binomial_from_vector(v, S.generators) for v in vectors]


def verify_theorem_a(F: FamilySpec, n_max, include_t=True) -> TheoremReport:
    """Spot-check the claimed mu values along the structured subfamilies.

    Case i: j = (a+b+c)n gives mu = 3; when c = p(a+b) with gcd(a,b) = 1 the
    published generators are additionally checked to generate the ideal by
    :func:`generates`. Case ii (c = p(a+b)): j = (a+b+c)n + (a+b)t gives
    mu = 4. Case iii (a = p(b+c)): j = (a+b+c)n + (b+c)t gives mu = 4.
    j is the leading generator, as in :func:`verify_theorem_b`.

    The paper makes these claims for large j; ``PAPER.md`` does not state
    theorem A's threshold. This function checks them from n = 1 with no
    threshold, so correct small shifts that break the pattern are listed as
    counterexamples rather than hidden, e.g. (12,3,1) at j = 24 and j = 36,
    which are complete intersections with mu = 3. Triples with
    gcd(a,b,c) > 1 are refused, as in :func:`verify_theorem_b`.
    """
    _require_theorem_hypotheses(F)
    n_max = as_integer(n_max, "n_max")
    if n_max < 1:
        raise InvalidInputError(f"n_max must be at least 1, got {n_max}")
    a, b, c = F.a, F.b, F.c
    s = F.period
    # (case, n, t, stride): case i has j = s*n, cases ii and iii j = s*n + stride*t
    cases = [("i", n, None, 0) for n in range(1, n_max + 1)]
    for case, p, stride in (("ii", F.p_c, a + b), ("iii", F.p_a, b + c)):
        if p is not None:
            ts = range(1, p + 1) if include_t else range(1, 2)
            cases += [(case, n, t, stride) for n in range(1, n_max + 1) for t in ts]
    js = [s * n + stride * (t or 0) for _, n, t, stride in cases]
    check_ideal = F.p_c is not None and math.gcd(a, b) == 1
    rows: list[TheoremARow] = []
    specs = (normalize(F.shifted(j)) for j in js)
    for (case, n, t, _), j, (S, _) in zip(cases, js, _tabled(specs)):
        mu = _checked_table(S).mu
        ideal_ok = None
        if case == "i" and check_ideal:
            ideal_ok = generates(S, _case_i_ideal(S, n, F.p_c, a, b))
        rows.append(TheoremARow(case=case, n=n, t=t, j=j, generators=S.generators,
                                mu=mu, expected_mu=3 if case == "i" else 4,
                                ideal_matches=ideal_ok))
    return TheoremReport(family=F, rows=rows)


# example id -> family triple; its published rows, labeled with the offset-1
# convention, are data/table<id>.csv
_EXAMPLES = {1: (2, 3, 5), 2: (12, 3, 1), 3: (3, 5, 2)}


class TableCheck(NamedTuple):
    example: int
    family: FamilySpec
    expected: dict[int, tuple[int, ...]]
    computed: dict[int, tuple[int, ...]]
    mismatches: list[tuple[int, tuple[int, ...], tuple[int, ...]]]

    @property
    def passed(self):
        return not self.mismatches


def load_expected_table(example: int) -> dict[int, tuple[int, ...]]:
    text = files("monocurve").joinpath("data", f"table{example}.csv").read_text()
    rows = {}
    for record in csv.DictReader(io.StringIO(text)):
        rows[int(record["j"])] = tuple(int(record[f"b{i}"]) for i in range(5))
    return rows


def reproduce_table(example: int, jobs: int = 1) -> TableCheck:
    """Scan the range of the embedded golden rows and diff against them."""
    example = as_integer(example, "example")
    if example not in _EXAMPLES:
        raise InvalidInputError(f"unknown example {example}: the examples are "
                                + ", ".join(map(str, _EXAMPLES)))
    expected = load_expected_table(example)
    F = FamilySpec(*_EXAMPLES[example], offset=1)
    computed = {r.j: r.totals for r in scan(F, min(expected), max(expected), jobs=jobs).rows}
    mismatches = [(j, expected[j], computed[j])
                  for j in sorted(expected) if expected[j] != computed[j]]
    return TableCheck(example=example, family=F, expected=expected,
                      computed=computed, mismatches=mismatches)
