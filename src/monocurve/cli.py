"""Command-line surface: single-semigroup queries, family scans, theorem
verification, and reproduction of the published tables.

Data goes to stdout, diagnostics (including timing) to stderr. Identical
inputs produce byte-identical stdout regardless of --jobs, so CSV/JSON
output can be diffed or checked into golden tests directly. Exit codes:
0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib.resources import files

from .betti import graded_betti
from .binomials import full_critical_set, minimal_generators
from .errors import MonocurveError
from .family import (FamilySpec, ci_check_3gen, scan, verify_theorem_a,
                     verify_theorem_b)
from .semigroup import frobenius, normalize

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# example id -> (family triple, first row, last row); rows are labeled with
# the offset-1 convention, under which the tables were published
_EXAMPLES = {
    1: ((2, 3, 5), 22, 51),
    2: ((12, 3, 1), 65, 112),
    3: ((3, 5, 2), 32, 61),
}


@dataclass
class OutputRecord:
    """Envelope for serialized command output.

    ``timing_ms`` is reported on the diagnostic stream only; keeping it out
    of stdout is what makes repeated runs byte-identical.
    """

    command: str
    payload: dict
    schema_version: str = SCHEMA_VERSION
    timing_ms: int = 0

    def to_json(self):
        doc = {
            "schema_version": self.schema_version,
            "command": self.command,
            "payload": self.payload,
        }
        return json.dumps(doc, indent=2) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_int_tuple(text, count=None):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if count is not None and len(values) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers, got {text!r}")
    return values


def _gens_arg(text):
    return _parse_int_tuple(text)


def _abc_arg(text):
    return _parse_int_tuple(text, count=3)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monocurve",
                     description="Betti tables and complete-intersection scans "
                                 "for shifted numerical semigroup families")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False, fmt=True):
        if fmt:
            p.add_argument("--format", choices=("csv", "json", "pretty"),
                           default="pretty")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default: $BETTI_JOBS or 1)")

    p_betti = sub.add_parser("betti", help="graded Betti table of one semigroup")
    p_betti.add_argument("--gens", type=_gens_arg, required=True)
    p_betti.add_argument("--bound-override", type=int, default=None)
    add_common(p_betti)

    p_gens = sub.add_parser("gens", help="minimal binomial generators and mu")
    p_gens.add_argument("--gens", type=_gens_arg, required=True)
    p_gens.add_argument("--bound-override", type=int, default=None)
    add_common(p_gens)

    p_crit = sub.add_parser("critical", help="full set of critical binomials")
    p_crit.add_argument("--gens", type=_gens_arg, required=True)
    add_common(p_crit)

    p_scan = sub.add_parser("scan", help="scan a shifted family over a j range")
    p_scan.add_argument("--abc", type=_abc_arg, required=True)
    p_scan.add_argument("--offset", type=int, choices=(0, 1), default=1)
    p_scan.add_argument("--from", dest="j_min", type=int, required=True)
    p_scan.add_argument("--to", dest="j_max", type=int, required=True)
    add_common(p_scan, jobs=True)

    p_verify = sub.add_parser("verify", help="empirical theorem checks")
    vsub = p_verify.add_subparsers(dest="verify_kind", required=True)

    p_va = vsub.add_parser("theorem-a", help="mu values along structured subfamilies")
    p_va.add_argument("--abc", type=_abc_arg, required=True)
    p_va.add_argument("--n-max", type=int, required=True)
    p_va.add_argument("--include-t", action=argparse.BooleanOptionalAction, default=True)
    add_common(p_va)

    p_vb = vsub.add_parser("theorem-b", help="CI iff (a+b+c) | j over a shift range")
    p_vb.add_argument("--abc", type=_abc_arg, required=True)
    p_vb.add_argument("--from", dest="j_min", type=int, required=True)
    p_vb.add_argument("--to", dest="j_max", type=int, required=True)
    add_common(p_vb, jobs=True)

    p_vh = vsub.add_parser("hs3", help="3-generated CI criterion vs the pipeline")
    p_vh.add_argument("--q", type=int, default=None)
    p_vh.add_argument("--a", type=int, default=None)
    p_vh.add_argument("--b", type=int, default=None)
    p_vh.add_argument("--q-max", type=int, default=200)
    p_vh.add_argument("--ab-max", type=int, default=12)
    add_common(p_vh)

    p_table = sub.add_parser("table", help="reproduce a published table and diff")
    p_table.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    add_common(p_table, jobs=True)

    return parser


def _effective_jobs(args):
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        raw = os.environ.get("BETTI_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise MonocurveError(f"BETTI_JOBS is not an integer: {raw!r}")
    if jobs < 1:
        raise MonocurveError("worker count must be at least 1")
    return jobs


def _cmd_betti(args):
    S = normalize(args.gens)
    table = graded_betti(S, bound=args.bound_override)
    payload = {
        "input": list(args.gens),
        "generators": list(S.generators),
        "content": S.content,
        "frobenius": frobenius(S),
        "totals": list(table.totals),
        "mu": table.mu,
        "rows": {str(m): list(r) for m, r in table.rows.items()},
    }
    pretty = [table.pretty_totals()]
    csv_rows = [[m, *r] for m, r in table.rows.items()]
    header = ["m"] + [f"b{i}" for i in range(S.n + 1)]
    return EXIT_OK, payload, pretty, _csv_text(header, csv_rows)


def _cmd_gens(args):
    S = normalize(args.gens)
    gens, mu = minimal_generators(S, bound=args.bound_override)
    payload = {
        "input": list(args.gens),
        "generators": list(S.generators),
        "content": S.content,
        "mu": mu,
        "binomials": [g.to_json_dict() for g in gens],
    }
    pretty = [f"mu = {mu}"] + [f"{g}    (degree {g.plus.degree})" for g in gens]
    csv_rows = [[g.plus.degree, str(g), " ".join(str(x) for x in g.vector())]
                for g in gens]
    return EXIT_OK, payload, pretty, _csv_text(["degree", "binomial", "vector"], csv_rows)


def _cmd_critical(args):
    S = normalize(args.gens)
    criticals = full_critical_set(S)
    payload = {
        "input": list(args.gens),
        "generators": list(S.generators),
        "criticals": [
            {
                "var": i + 1,
                "exponent": g.plus.exponents[i],
                "degree": g.plus.degree,
                "complement": list(g.minus.exponents),
                "text": str(g),
            }
            for i, g in enumerate(criticals)
        ],
    }
    pretty = [f"f{i + 1}: {g}    (degree {g.plus.degree})"
              for i, g in enumerate(criticals)]
    csv_rows = [[i + 1, g.plus.exponents[i], g.plus.degree, str(g)]
                for i, g in enumerate(criticals)]
    return EXIT_OK, payload, pretty, _csv_text(["var", "exponent", "degree", "binomial"], csv_rows)


def _family_dict(F: FamilySpec):
    return {"abc": [F.a, F.b, F.c], "offset": F.offset,
            "p_c": F.p_c, "p_a": F.p_a, "period_conjectured": F.period}


def _scan_csv(rows):
    header = ["j", "g1", "g2", "g3", "g4", "content",
              "b0", "b1", "b2", "b3", "b4", "mu", "ci"]
    data = [[r.j, *r.generators, r.content, *r.totals, r.mu,
             "true" if r.ci else "false"] for r in rows]
    return _csv_text(header, data)


def _totals_str(totals):
    return "(" + ", ".join(str(b) for b in totals) + ")"


def _cmd_scan(args):
    F = FamilySpec(*args.abc, offset=args.offset)
    report = scan(F, args.j_min, args.j_max, jobs=_effective_jobs(args))
    payload = {
        "family": _family_dict(F),
        "j_min": report.j_min,
        "j_max": report.j_max,
        "rows": [
            {
                "j": r.j,
                "raw": list(r.raw_generators),
                "generators": list(r.generators),
                "content": r.content,
                "totals": list(r.totals),
                "mu": r.mu,
                "ci": r.ci,
            }
            for r in report.rows
        ],
        "period": None if report.period is None else {
            "j0": report.period.j0,
            "T": report.period.length,
            "window": list(report.period.window),
        },
    }
    pretty = [f"family abc=({F.a},{F.b},{F.c}) offset={F.offset} "
              f"rows j={report.j_min}..{report.j_max}"]
    pretty += [f"j={r.j} -> {_totals_str(r.totals)}" for r in report.rows]
    if report.period is not None:
        p = report.period
        pretty.append(f"period: T={p.length} from j0={p.j0} "
                      f"(verified {p.window[0]}..{p.window[1]})")
    else:
        pretty.append("period: unconfirmed in this window")
    return EXIT_OK, payload, pretty, _scan_csv(report.rows)


def _cmd_verify_theorem_a(args):
    F = FamilySpec(*args.abc)
    report = verify_theorem_a(F, args.n_max, include_t=args.include_t)
    rows = [
        {
            "case": r.case, "n": r.n, "t": r.t, "j": r.j,
            "generators": list(r.generators),
            "mu": r.mu, "expected_mu": r.expected_mu,
            "ideal_matches": r.ideal_matches, "ok": r.agrees,
        }
        for r in report.rows
    ]
    payload = {
        "family": _family_dict(F),
        "n_max": args.n_max,
        "include_t": args.include_t,
        "rows": rows,
        "counterexamples": [r for r in rows if not r["ok"]],
        "passed": report.passed,
    }
    pretty = [f"theorem-a family=({F.a},{F.b},{F.c}) n_max={args.n_max}"]
    for r in report.rows:
        ideal = {None: "", True: " ideal=match", False: " ideal=MISMATCH"}[r.ideal_matches]
        status = "ok" if r.agrees else "COUNTEREXAMPLE"
        t_part = "" if r.t is None else f" t={r.t}"
        pretty.append(f"case {r.case} n={r.n}{t_part} j={r.j} mu={r.mu} "
                      f"expected={r.expected_mu}{ideal} {status}")
    pretty.append("passed" if report.passed
                  else f"FAILED: {len(report.counterexamples)} counterexample(s)")
    csv_rows = [[r.case, r.n, "" if r.t is None else r.t, r.j, r.mu, r.expected_mu,
                 "" if r.ideal_matches is None else str(r.ideal_matches).lower(),
                 str(r.agrees).lower()] for r in report.rows]
    code = EXIT_OK if report.passed else EXIT_VERIFICATION
    return code, payload, pretty, _csv_text(
        ["case", "n", "t", "j", "mu", "expected_mu", "ideal_matches", "ok"], csv_rows)


def _cmd_verify_theorem_b(args):
    F = FamilySpec(*args.abc)
    report = verify_theorem_b(F, args.j_min, args.j_max, jobs=_effective_jobs(args))
    rows = [
        {"j": r.j, "generators": list(r.generators), "ci": r.ci,
         "divisible": r.divisible, "ok": r.agrees}
        for r in report.rows
    ]
    payload = {
        "family": _family_dict(F),
        "j_min": report.j_min,
        "j_max": report.j_max,
        "rows": rows,
        "counterexamples": [r for r in rows if not r["ok"]],
        "passed": report.passed,
    }
    ci_at = [r.j for r in report.rows if r.ci]
    pretty = [
        f"theorem-b family=({F.a},{F.b},{F.c}) j={report.j_min}..{report.j_max}",
        f"checked {len(report.rows)} shifts, "
        + ("all agree with (a+b+c) | j" if report.passed
           else f"{len(report.counterexamples)} counterexample(s)"),
        "complete intersections at j: " + (", ".join(str(j) for j in ci_at) or "none"),
    ]
    for r in report.counterexamples:
        pretty.append(f"COUNTEREXAMPLE j={r.j} ci={r.ci} divisible={r.divisible}")
    csv_rows = [[r.j, str(r.ci).lower(), str(r.divisible).lower(),
                 str(r.agrees).lower()] for r in report.rows]
    code = EXIT_OK if report.passed else EXIT_VERIFICATION
    return code, payload, pretty, _csv_text(["j", "ci", "divisible", "ok"], csv_rows)


def _hs3_lower_bound(a, b):
    return max(a * b + b * b, a * b + a * a)


def _hs3_agree(q, a, b):
    lemma = ci_check_3gen(q, a, b)
    mu = graded_betti(normalize((q, q + a, q + a + b))).mu
    return lemma, mu, lemma == (mu == 2)


def _cmd_verify_hs3(args):
    triple = (args.q, args.a, args.b)
    if any(v is not None for v in triple):
        if any(v is None for v in triple):
            raise MonocurveError("hs3 single mode needs all of --q, --a, --b")
        q, a, b = triple
        lemma, mu, agree = _hs3_agree(q, a, b)
        payload = {"q": q, "a": a, "b": b, "lemma_ci": lemma, "mu": mu,
                   "pipeline_ci": mu == 2, "passed": agree}
        pretty = [f"hs3 q={q} a={a} b={b}: lemma={lemma} mu={mu} "
                  + ("agree" if agree else "DISAGREE")]
        code = EXIT_OK if agree else EXIT_VERIFICATION
        return code, payload, pretty, _csv_text(
            ["q", "a", "b", "lemma_ci", "mu", "ok"],
            [[q, a, b, str(lemma).lower(), mu, str(agree).lower()]])

    checked = 0
    bad = []
    for s in range(2, args.ab_max + 1):
        for a in range(1, s):
            b = s - a
            if math.gcd(a, b) != 1:
                continue
            for q in range(_hs3_lower_bound(a, b), args.q_max + 1):
                lemma, mu, agree = _hs3_agree(q, a, b)
                checked += 1
                if not agree:
                    bad.append({"q": q, "a": a, "b": b, "lemma_ci": lemma, "mu": mu})
    payload = {"q_max": args.q_max, "ab_max": args.ab_max,
               "checked": checked, "counterexamples": bad, "passed": not bad}
    pretty = [f"hs3 sweep q<= {args.q_max}, a+b <= {args.ab_max}: "
              f"checked {checked} triples, "
              + ("all agree" if not bad else f"{len(bad)} DISAGREE")]
    for r in bad:
        pretty.append(f"DISAGREE q={r['q']} a={r['a']} b={r['b']} "
                      f"lemma={r['lemma_ci']} mu={r['mu']}")
    code = EXIT_OK if not bad else EXIT_VERIFICATION
    return code, payload, pretty, _csv_text(
        ["q", "a", "b", "lemma_ci", "mu"],
        [[r["q"], r["a"], r["b"], str(r["lemma_ci"]).lower(), r["mu"]] for r in bad])


@dataclass
class TableCheck:
    example: int
    family: FamilySpec
    expected: dict[int, tuple[int, ...]]
    computed: dict[int, tuple[int, ...]]
    mismatches: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)

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
    """Scan the documented range and diff against the embedded golden rows."""
    if example not in _EXAMPLES:
        raise MonocurveError(f"unknown example: {example}")
    abc, j_min, j_max = _EXAMPLES[example]
    expected = load_expected_table(example)
    F = FamilySpec(*abc, offset=1)
    report = scan(F, j_min, j_max, jobs=jobs)
    computed = {r.j: r.totals for r in report.rows}
    mismatches = [(j, expected[j], computed[j])
                  for j in sorted(expected) if expected[j] != computed[j]]
    return TableCheck(example=example, family=F, expected=expected,
                      computed=computed, mismatches=mismatches)


def _cmd_table(args):
    check = reproduce_table(args.example, jobs=_effective_jobs(args))
    total = len(check.expected)
    good = total - len(check.mismatches)
    payload = {
        "example": check.example,
        "family": _family_dict(check.family),
        "rows": total,
        "matching": good,
        "mismatches": [
            {"j": j, "expected": list(e), "computed": list(c)}
            for j, e, c in check.mismatches
        ],
        "passed": check.passed,
    }
    if check.passed:
        pretty = [f"example {check.example}: PASS ({good}/{total} rows match)"]
    else:
        import difflib
        expected_lines = [f"j={j} -> {_totals_str(check.expected[j])}"
                          for j in sorted(check.expected)]
        computed_lines = [f"j={j} -> {_totals_str(check.computed[j])}"
                          for j in sorted(check.computed)]
        pretty = [f"example {check.example}: FAIL ({good}/{total} rows match)"]
        pretty += list(difflib.unified_diff(expected_lines, computed_lines,
                                            fromfile=f"table{check.example} (published)",
                                            tofile="computed", lineterm=""))
    csv_rows = [[j, *check.computed[j]] for j in sorted(check.computed)]
    code = EXIT_OK if check.passed else EXIT_VERIFICATION
    return code, payload, pretty, _csv_text(["j", "b0", "b1", "b2", "b3", "b4"], csv_rows)


_DISPATCH = {
    "betti": _cmd_betti,
    "gens": _cmd_gens,
    "critical": _cmd_critical,
    "scan": _cmd_scan,
    "table": _cmd_table,
}

_VERIFY_DISPATCH = {
    "theorem-a": _cmd_verify_theorem_a,
    "theorem-b": _cmd_verify_theorem_b,
    "hs3": _cmd_verify_hs3,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse and execute one command; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    if args.command == "verify":
        handler = _VERIFY_DISPATCH[args.verify_kind]
        command_name = f"verify {args.verify_kind}"
    else:
        handler = _DISPATCH[args.command]
        command_name = args.command

    start = time.perf_counter()
    try:
        code, payload, pretty, csv_text = handler(args)
    except MonocurveError as e:
        print(f"monocurve: error: {e}", file=stderr)
        return EXIT_USAGE
    record = OutputRecord(command=command_name, payload=payload,
                          timing_ms=int((time.perf_counter() - start) * 1000))

    fmt = getattr(args, "format", "pretty")
    if fmt == "json":
        stdout.write(record.to_json())
    elif fmt == "csv":
        stdout.write(csv_text)
    else:
        stdout.write("\n".join(pretty) + "\n")
    print(f"elapsed_ms={record.timing_ms}", file=stderr)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
