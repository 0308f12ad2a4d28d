"""Command-line surface for single-semigroup queries, family scans, theorem
verification and table reproduction: it parses arguments and renders reports,
and the library computes them. Every handler returns (exit code, payload,
pretty lines, CSV header, CSV rows), and :func:`execute` alone writes output.

Data goes to stdout, diagnostics (including timing) to stderr. Identical
inputs produce byte-identical stdout regardless of --jobs, so CSV/JSON
output can be diffed or checked into golden tests directly. Exit codes:
0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import importlib.util
import os
import sys
import time

from .errors import InvalidInputError, MonocurveError


def _lazy(name):
    """The package's module ``name``: the one in ``sys.modules`` if it is
    there, else a module that executes on its first attribute read, so that
    parsing, ``--help`` and a usage error load no numpy."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


semigroup, betti, binomials, family = map(_lazy, ("semigroup", "betti", "binomials", "family"))


def _load_engine():
    """Execute the engine's modules in dependency order, so that an import
    error names its own import rather than a later module's from-import."""
    for module in (semigroup, betti, binomials, family):
        module.__name__


SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


def _parse_int_tuple(text, count=None):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if count is not None and len(values) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers, got {text!r}")
    return values


_abc = functools.partial(_parse_int_tuple, count=3)


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

    def add_common(p, jobs=False):
        p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")

    for name, text in (("betti", "graded Betti table of one semigroup"),
                       ("gens", "minimal binomial generators and mu")):
        p_single = sub.add_parser(name, help=text)
        p_single.add_argument("--gens", type=_parse_int_tuple, required=True)
        p_single.add_argument("--bound-override", type=int, default=None)
        add_common(p_single)

    p_crit = sub.add_parser("critical", help="full set of critical binomials")
    p_crit.add_argument("--gens", type=_parse_int_tuple, required=True)
    add_common(p_crit)

    p_scan = sub.add_parser("scan", help="scan a shifted family over a j range")
    p_scan.add_argument("--abc", type=_abc, required=True)
    p_scan.add_argument("--offset", type=int, choices=(0, 1), default=1)
    p_scan.add_argument("--from", dest="j_min", type=int, required=True)
    p_scan.add_argument("--to", dest="j_max", type=int, required=True)
    add_common(p_scan, jobs=True)

    p_verify = sub.add_parser("verify", help="empirical theorem checks")
    vsub = p_verify.add_subparsers(dest="verify_kind", required=True)

    p_va = vsub.add_parser("theorem-a", help="mu values along structured subfamilies")
    p_va.add_argument("--abc", type=_abc, required=True)
    p_va.add_argument("--n-max", type=int, required=True)
    p_va.add_argument("--include-t", action=argparse.BooleanOptionalAction, default=True)
    add_common(p_va)

    p_vb = vsub.add_parser("theorem-b", help="CI iff (a+b+c) | j over a shift range")
    p_vb.add_argument("--abc", type=_abc, required=True)
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
    p_table.add_argument("--example", type=int, required=True)
    add_common(p_table, jobs=True)

    return parser


def _cmd_betti(args):
    S = semigroup.normalize(args.gens)
    table = betti.graded_betti(S, bound=args.bound_override)
    payload = {"input": list(args.gens), "generators": list(S.generators),
               "content": S.content, "frobenius": semigroup.frobenius(S),
               "totals": list(table.totals), "mu": table.mu,
               "rows": {str(m): list(r) for m, r in table.rows.items()}}
    header = ["m"] + [f"b{i}" for i in range(S.n + 1)]
    return (EXIT_OK, payload, [_totals_str(table.totals)],
            header, [[m, *r] for m, r in table.rows.items()])


def _cmd_gens(args):
    S = semigroup.normalize(args.gens)
    gens, mu = binomials.minimal_generators(S, bound=args.bound_override)
    payload = {"input": list(args.gens), "generators": list(S.generators),
               "content": S.content, "mu": mu,
               "binomials": [g.to_json_dict() for g in gens]}
    pretty = [f"mu = {mu}"] + [f"{g}    (degree {g.plus.degree})" for g in gens]
    csv_rows = [[g.plus.degree, str(g), " ".join(str(x) for x in g.vector())]
                for g in gens]
    return EXIT_OK, payload, pretty, ["degree", "binomial", "vector"], csv_rows


def _cmd_critical(args):
    S = semigroup.normalize(args.gens)
    rows = [{"var": i + 1, "exponent": g.plus.exponents[i], "degree": g.plus.degree,
             "complement": list(g.minus.exponents), "text": str(g)}
            for i, g in enumerate(binomials.full_critical_set(S))]
    payload = {"input": list(args.gens), "generators": list(S.generators),
               "criticals": rows}
    pretty = [f"f{r['var']}: {r['text']}    (degree {r['degree']})" for r in rows]
    return (EXIT_OK, payload, pretty, ["var", "exponent", "degree", "binomial"],
            [[r["var"], r["exponent"], r["degree"], r["text"]] for r in rows])


def _family_dict(F: family.FamilySpec):
    return {"abc": [F.a, F.b, F.c], "offset": F.offset,
            "p_c": F.p_c, "p_a": F.p_a, "period_conjectured": F.period}


def _totals_str(totals):
    return "(" + ", ".join(str(b) for b in totals) + ")"


def _columns(header, rows):
    return [[r[k] for k in header] for r in rows]


def _code(passed):
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_scan(args):
    F = family.FamilySpec(*args.abc, offset=args.offset)
    report = family.scan(F, args.j_min, args.j_max, jobs=args.jobs)
    p = report.period
    rows = [{"j": r.j, "raw": list(r.raw_generators), "generators": list(r.generators),
             "content": r.content, "totals": list(r.totals), "mu": r.mu, "ci": r.ci}
            for r in report.rows]
    payload = {"family": _family_dict(F), "j_min": report.j_min, "j_max": report.j_max,
               "rows": rows, "period": None if p is None else
               {"j0": p.j0, "T": p.length, "window": list(p.window)}}
    pretty = [f"family abc=({F.a},{F.b},{F.c}) offset={F.offset} "
              f"rows j={report.j_min}..{report.j_max}"]
    pretty += [f"j={r.j} -> {_totals_str(r.totals)}" for r in report.rows]
    pretty.append("period: unconfirmed in this window" if p is None else
                  f"period: T={p.length} from j0={p.j0} "
                  f"(verified {p.window[0]}..{p.window[1]})")
    header = ["j", "g1", "g2", "g3", "g4", "content",
              "b0", "b1", "b2", "b3", "b4", "mu", "ci"]
    csv_rows = [[r.j, *r.generators, r.content, *r.totals, r.mu, r.ci]
                for r in report.rows]
    return EXIT_OK, payload, pretty, header, csv_rows


def _theorem(report, head, pretty, header):
    """A theorem command's output: the handler's ``head`` payload fields,
    pretty lines and CSV header, with the rows and verdicts of ``report``."""
    rows = [{**r._asdict(), "ok": r.agrees} for r in report.rows]
    payload = {"family": _family_dict(report.family), **head, "rows": rows,
               "counterexamples": [r for r in rows if not r["ok"]],
               "passed": report.passed}
    return _code(report.passed), payload, pretty, header, _columns(header, rows)


def _cmd_verify_theorem_a(args):
    F = family.FamilySpec(*args.abc)
    report = family.verify_theorem_a(F, args.n_max, include_t=args.include_t)
    pretty = [f"theorem-a family=({F.a},{F.b},{F.c}) n_max={args.n_max}"]
    for r in report.rows:
        ideal = {None: "", True: " ideal=match", False: " ideal=MISMATCH"}[r.ideal_matches]
        status = "ok" if r.agrees else "COUNTEREXAMPLE"
        t_part = "" if r.t is None else f" t={r.t}"
        pretty.append(f"case {r.case} n={r.n}{t_part} j={r.j} mu={r.mu} "
                      f"expected={r.expected_mu}{ideal} {status}")
    pretty.append("passed" if report.passed
                  else f"FAILED: {len(report.counterexamples)} counterexample(s)")
    return _theorem(report, {"n_max": args.n_max, "include_t": args.include_t}, pretty,
                    ["case", "n", "t", "j", "mu", "expected_mu", "ideal_matches", "ok"])


def _cmd_verify_theorem_b(args):
    F = family.FamilySpec(*args.abc)
    report = family.verify_theorem_b(F, args.j_min, args.j_max, jobs=args.jobs)
    ci_at = [r.j for r in report.rows if r.ci]
    pretty = [
        f"theorem-b family=({F.a},{F.b},{F.c}) j={args.j_min}..{args.j_max}",
        f"checked {len(report.rows)} shifts, "
        + ("all agree with (a+b+c) | j" if report.passed
           else f"{len(report.counterexamples)} counterexample(s)"),
        "complete intersections at j: " + (", ".join(str(j) for j in ci_at) or "none"),
    ]
    for r in report.counterexamples:
        pretty.append(f"COUNTEREXAMPLE j={r.j} ci={r.ci} divisible={r.divisible}")
    return _theorem(report, {"j_min": args.j_min, "j_max": args.j_max}, pretty,
                    ["j", "ci", "divisible", "ok"])


def _cmd_verify_hs3(args):
    triple = (args.q, args.a, args.b)
    if any(v is not None for v in triple):
        if any(v is None for v in triple):
            raise InvalidInputError("hs3 single mode needs all of --q, --a, --b")
        q, a, b = triple
        lemma, table, agree = family.hs3_agree(q, a, b)
        payload = {"q": q, "a": a, "b": b, "lemma_ci": lemma, "mu": table.mu,
                   "pipeline_ci": table.ci, "passed": agree}
        pretty = [f"hs3 q={q} a={a} b={b}: lemma={lemma} mu={table.mu} "
                  + ("agree" if agree else "DISAGREE")]
        return (_code(agree), payload, pretty, ["q", "a", "b", "lemma_ci", "mu", "ok"],
                [[q, a, b, lemma, table.mu, agree]])

    checked, bad = family.hs3_sweep(args.q_max, args.ab_max)
    payload = {"q_max": args.q_max, "ab_max": args.ab_max,
               "checked": checked, "counterexamples": bad, "passed": not bad}
    pretty = [f"hs3 sweep q<= {args.q_max}, a+b <= {args.ab_max}: "
              f"checked {checked} triples, "
              + ("all agree" if not bad else f"{len(bad)} DISAGREE")]
    for r in bad:
        pretty.append(f"DISAGREE q={r['q']} a={r['a']} b={r['b']} "
                      f"lemma={r['lemma_ci']} mu={r['mu']}")
    header = ["q", "a", "b", "lemma_ci", "mu"]
    return _code(not bad), payload, pretty, header, _columns(header, bad)


def _cmd_table(args):
    check = family.reproduce_table(args.example, jobs=args.jobs)
    total = len(check.expected)
    good = total - len(check.mismatches)
    payload = {"example": check.example, "family": _family_dict(check.family),
               "rows": total, "matching": good,
               "mismatches": [{"j": j, "expected": list(e), "computed": list(c)}
                              for j, e, c in check.mismatches],
               "passed": check.passed}
    if check.passed:
        pretty = [f"example {check.example}: PASS ({good}/{total} rows match)"]
    else:
        import difflib

        def lines(table):
            return [f"j={j} -> {_totals_str(table[j])}" for j in sorted(table)]

        pretty = [f"example {check.example}: FAIL ({good}/{total} rows match)"]
        pretty += difflib.unified_diff(lines(check.expected), lines(check.computed),
                                       fromfile=f"table{check.example} (published)",
                                       tofile="computed", lineterm="")
    csv_rows = [[j, *check.computed[j]] for j in sorted(check.computed)]
    return (_code(check.passed), payload, pretty,
            ["j", "b0", "b1", "b2", "b3", "b4"], csv_rows)


# keyed by the command name the JSON output reports
_DISPATCH = {
    "betti": _cmd_betti,
    "gens": _cmd_gens,
    "critical": _cmd_critical,
    "scan": _cmd_scan,
    "table": _cmd_table,
    "verify theorem-a": _cmd_verify_theorem_a,
    "verify theorem-b": _cmd_verify_theorem_b,
    "verify hs3": _cmd_verify_hs3,
}


def _cell(value):
    # bools are spelled as in JSON; csv itself writes None as an empty cell
    return ("true" if value else "false") if isinstance(value, bool) else value


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse and execute one command, writing all output, argparse's help and
    usage errors included, to ``stdout``/``stderr``; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return execute(args, stdout, stderr)


def execute(args, stdout, stderr) -> int:
    """Run the parsed command ``args``, writing its output to
    ``stdout``/``stderr``; returns the exit code."""
    command = args.command
    if command == "verify":
        command += f" {args.verify_kind}"

    _load_engine()  # before the clock starts
    start = time.perf_counter()
    try:
        code, payload, pretty, header, rows = _DISPATCH[command](args)
    except MonocurveError as e:
        print(f"monocurve: error: {e}", file=stderr)
        return EXIT_USAGE
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    # each format imports its own writer, so no path loads the other's
    if args.format == "json":
        import json

        doc = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
        stdout.write(json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    else:
        stdout.write("\n".join(pretty) + "\n")
    print(f"elapsed_ms={elapsed_ms}", file=stderr)
    return code


def main():
    try:
        code = _main()
    except SystemExit as e:
        # argparse exits on --help and usage errors before the engine loads
        code = int(e.code or 0)
    except BrokenPipeError:
        # the reader has gone: exit 1 as Python does on EPIPE, before the
        # flush at exit can fail again
        os._exit(1)
    # every way main() ends passes here: the output is written, so the
    # process ends without the interpreter's teardown once the callback has
    # flushed it. Registered last, this runs first among the atexit
    # callbacks, after a wrapper such as cProfile has written its report;
    # the pool that --jobs starts is joined before execute returns
    atexit.register(_exit_now, code)
    sys.exit(code)


def _main():
    args = build_parser().parse_args()
    # numpy's bundled OpenBLAS starts a thread per CPU as it loads; the engine
    # never calls BLAS (its one matmul is int64), so it starts none
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # numpy by name first, so that its own error names it, then the engine;
    # that heap lives as long as the process, so no collection walks it while
    # it is built, and once frozen none walks it during the command
    gc.disable()
    try:
        import numpy  # noqa: F401
    except ImportError as e:
        print(f"monocurve: error: the engine needs numpy: {e}", file=sys.stderr)
        return EXIT_USAGE
    else:
        _load_engine()
        gc.freeze()
    finally:
        gc.enable()
    code = execute(args, sys.stdout, sys.stderr)
    sys.stdout.flush()
    return code


def _exit_now(code):
    try:
        sys.stdout.flush()
    except (BrokenPipeError, AttributeError):
        # the reader has gone before the buffered output, such as argparse's
        # help, was flushed; cProfile sets stdout to None once its report
        # has met the closed pipe
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
