"""Output checks that do not trust the code under test.

Every check here recomputes what it needs with its own arithmetic: the
normal form of the input, Frobenius numbers and critical exponents from
Apery sets found by a shortest-path search over residues (Nijenhuis 1979),
and the Betti-total invariants. A check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math

from workloads import hs3_count, shifted


class SchemaError(Exception):
    """The schema uses a keyword this validator does not implement."""


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "title", "description", "$defs"}


def validate(value, schema, root, where="$"):
    """Problems found validating ``value`` against a draft-07 subset.

    Raises SchemaError on a keyword it does not implement, so a schema change
    fails the check instead of being checked only in part.
    """
    problems = []
    for key, rule in schema.items():
        if key in _ANNOTATIONS or key in ("properties", "additionalProperties"):
            continue
        if key == "$ref":
            target = root
            for part in rule.removeprefix("#/").split("/"):
                target = target[part]
            problems += validate(value, target, root, where)
        elif key == "type":
            if not _TYPES[rule](value):
                problems.append(f"{where}: expected {rule}")
                return problems
        elif key == "const":
            if value != rule:
                problems.append(f"{where}: expected {rule!r}")
        elif key == "required":
            problems += [f"{where}: missing {k}" for k in rule if k not in value]
        elif key == "minLength":
            if len(value) < rule:
                problems.append(f"{where}: shorter than {rule}")
        elif key == "minItems":
            if len(value) < rule:
                problems.append(f"{where}: fewer than {rule} items")
        elif key == "maxItems":
            if len(value) > rule:
                problems.append(f"{where}: more than {rule} items")
        elif key == "minimum":
            if value < rule:
                problems.append(f"{where}: below {rule}")
        elif key == "items":
            for i, item in enumerate(value):
                problems += validate(item, rule, root, f"{where}[{i}]")
        else:
            raise SchemaError(f"unsupported schema keyword {key!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for k, v in value.items():
            if k in props:
                problems += validate(v, props[k], root, f"{where}.{k}")
            elif schema.get("additionalProperties", True) is False:
                problems.append(f"{where}: unexpected property {k}")
    return problems


def normal_form(raw):
    """(sorted distinct generators of raw/gcd, gcd), as `normalize` promises."""
    d = math.gcd(*raw)
    return sorted({a // d for a in raw}), d


def apery(gens):
    """(m, w): m = min(gens) and w[r] = least element of <gens> that is r mod m.

    Unreachable residues (gcd(gens) > 1) stay None.
    """
    m = min(gens)
    w = [None] * m
    w[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != w[r]:
            continue
        for g in gens:
            nd = d + g
            nr = nd % m
            if w[nr] is None or nd < w[nr]:
                w[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return m, w


def _member(x, m, w):
    return w[x % m] is not None and x >= w[x % m]


def betti_totals_problems(totals, n):
    problems = []
    if len(totals) != n + 1:
        problems.append(f"totals {totals} do not have {n + 1} entries")
    if not totals or totals[0] != 1:
        problems.append(f"b0 = {totals[:1]} != 1")
    if sum((-1) ** i * b for i, b in enumerate(totals)) != 0:
        problems.append(f"alternating sum of {totals} is not 0")
    if totals and totals[-1] != 0:
        problems.append(f"last Betti total of {totals} is not 0")
    return problems


def _check_normal(payload, raw):
    gens, d = normal_form(raw)
    problems = []
    if payload.get("generators") != gens:
        problems.append(f"generators {payload.get('generators')} != {gens}")
    if "content" in payload and payload["content"] != d:
        problems.append(f"content {payload['content']} != {d}")
    return problems, gens


def check_betti(payload, params):
    problems, gens = _check_normal(payload, params["raw"])
    totals = payload["totals"]
    problems += betti_totals_problems(totals, len(gens))
    m, w = apery(gens)
    if payload["frobenius"] != max(w) - m:
        problems.append(f"frobenius {payload['frobenius']} != {max(w) - m}")
    column = [0] * len(totals)
    for degree, row in payload["rows"].items():
        if not _member(int(degree), m, w):
            problems.append(f"Betti row at non-member degree {degree}")
        column = [x + y for x, y in zip(column, row)]
    if column != totals:
        problems.append(f"rows sum to {column}, totals are {totals}")
    if payload["mu"] != totals[1]:
        problems.append(f"mu {payload['mu']} != b1 {totals[1]}")
    return problems


def check_gens(payload, params):
    problems, gens = _check_normal(payload, params["raw"])
    binomials = payload["binomials"]
    if payload["mu"] != len(binomials):
        problems.append(f"mu {payload['mu']} != {len(binomials)} binomials")
    seen = set()
    for g in binomials:
        plus, minus = g["plus"], g["minus"]
        dp = sum(e * a for e, a in zip(plus, gens))
        dm = sum(e * a for e, a in zip(minus, gens))
        if min(plus + minus) < 0 or not any(plus) or not any(minus):
            problems.append(f"{g['text']}: bad exponents")
        if dp != dm or dp != g["degree"]:
            problems.append(f"{g['text']}: not homogeneous of degree {g['degree']}")
        if any(p and q for p, q in zip(plus, minus)):
            problems.append(f"{g['text']}: supports overlap")
        if g["vector"] != [p - q for p, q in zip(plus, minus)]:
            problems.append(f"{g['text']}: vector != plus - minus")
        key = tuple(g["vector"])
        if key in seen:
            problems.append(f"{g['text']}: repeated")
        seen.add(key)
    return problems


def check_critical(payload, params):
    problems, gens = _check_normal(payload, params["raw"])
    crit = payload["criticals"]
    if len(crit) != len(gens):
        return problems + [f"{len(crit)} critical binomials for {len(gens)} generators"]
    for i, c in enumerate(crit):
        a = gens[i]
        others = [g for k, g in enumerate(gens) if k != i]
        e, comp = c["exponent"], c["complement"]
        if c["var"] != i + 1 or c["degree"] != e * a:
            problems.append(f"f{i + 1}: var/degree do not match x{i + 1}^{e}")
        if comp[i] != 0 or min(comp) < 0 or sum(x * g for x, g in zip(comp, gens)) != e * a:
            problems.append(f"f{i + 1}: complement {comp} is not a factorization of {e * a}")
        # e must be the least alpha >= 1 with alpha*a in <others>
        d = math.gcd(*others)
        m, w = apery([g // d for g in others])
        least = next((alpha for alpha in range(1, e + 1)
                      if alpha * a % d == 0 and _member(alpha * a // d, m, w)), None)
        if least != e:
            problems.append(f"f{i + 1}: critical exponent {e}, least is {least}")
    return problems


def check_scan(payload, params, schema):
    problems = []
    a, b, c = params["abc"]
    js = list(range(params["from"], params["to"] + 1))
    rows = payload["rows"]
    if [r["j"] for r in rows] != js:
        return [f"scan rows {[r['j'] for r in rows]} != {js[0]}..{js[-1]}"]
    for r in rows:
        problems += validate(r, schema["$defs"]["scan_row"], schema, f"row {r['j']}")
        if r["raw"] != list(shifted(params["offset"] + r["j"], (a, b, c))):
            problems.append(f"row {r['j']}: raw {r['raw']} is not the shifted tuple")
        problems += [f"row {r['j']}: {p}" for p in
                     betti_totals_problems(r["totals"], len(r["generators"]))]
        if r["mu"] != r["totals"][1] or r["ci"] != (r["mu"] == 3):
            problems.append(f"row {r['j']}: mu/ci inconsistent with totals")
        gens, d = normal_form(r["raw"])
        if r["generators"] != gens or r["content"] != d:
            problems.append(f"row {r['j']}: generators {r['generators']} != {gens}")
    period = payload["period"]
    if period is not None:
        lo, hi = period["window"]
        if not (js[0] <= lo <= hi == js[-1]) or hi - lo + 1 < 3 * period["T"]:
            problems.append(f"period window {period['window']} is not a verified span")
        by_j = {r["j"]: r["totals"] for r in rows}
        if any(by_j[j] != by_j[j + period["T"]] for j in range(lo, hi - period["T"] + 1)):
            problems.append("rows are not periodic over the reported window")
    return problems


def check_theorem_b(payload, params):
    a, b, c = params["abc"]
    s = a + b + c
    js = list(range(params["from"], params["to"] + 1))
    rows = payload["rows"]
    if [r["j"] for r in rows] != js:
        return [f"theorem-b rows do not cover {js[0]}..{js[-1]}"]
    problems = []
    for r in rows:
        if r["divisible"] != (r["j"] % s == 0):
            problems.append(f"j={r['j']}: divisible={r['divisible']}")
        if r["ci"] != r["divisible"] or not r["ok"]:
            problems.append(f"j={r['j']}: ci={r['ci']} against (a+b+c) | j")
        if r["generators"] != normal_form(shifted(r["j"], (a, b, c)))[0]:
            problems.append(f"j={r['j']}: generators {r['generators']}")
    if payload["passed"] is not True or payload["counterexamples"]:
        problems.append("theorem-b did not report passed")
    return problems


def check_hs3(payload, params):
    problems = []
    expected = hs3_count(params["q_max"], params["ab_max"])
    if payload["checked"] != expected:
        problems.append(f"hs3 checked {payload['checked']} triples, expected {expected}")
    if payload["passed"] is not True or payload["counterexamples"]:
        problems.append("hs3 did not report passed")
    return problems


def check_table_csv(text, golden):
    rows = list(csv.DictReader(io.StringIO(text)))
    got = {int(r["j"]): tuple(int(r[f"b{i}"]) for i in range(5)) for r in rows}
    if got != golden:
        bad = sorted(j for j in set(got) | set(golden) if got.get(j) != golden.get(j))
        return [f"table rows differ from the golden table at j={bad[:5]}"]
    problems = []
    for j, totals in got.items():
        problems += [f"j={j}: {p}" for p in betti_totals_problems(list(totals), 4)]
    return problems


_COMMAND_NAMES = {"betti": "betti", "gens": "gens", "critical": "critical", "scan": "scan",
                  "theorem-b": "verify theorem-b", "hs3": "verify hs3"}


def check_output(cmd, stdout, schema, golden_tables):
    """Problems with one command's stdout (exit codes are checked by the caller)."""
    if cmd.kind == "table":
        return check_table_csv(stdout, golden_tables[cmd.params["example"]])
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON: {e}"]
    try:
        problems = validate(doc, schema, schema)
    except SchemaError as e:
        return [str(e)]
    if problems:
        return problems
    if doc["command"] != _COMMAND_NAMES[cmd.kind]:
        return [f"command {doc['command']!r} != {_COMMAND_NAMES[cmd.kind]!r}"]
    payload = doc["payload"]
    try:
        if cmd.kind == "betti":
            return check_betti(payload, cmd.params)
        if cmd.kind == "gens":
            return check_gens(payload, cmd.params)
        if cmd.kind == "critical":
            return check_critical(payload, cmd.params)
        if cmd.kind == "scan":
            return check_scan(payload, cmd.params, schema)
        if cmd.kind == "theorem-b":
            return check_theorem_b(payload, cmd.params)
        return check_hs3(payload, cmd.params)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        return [f"payload is missing or malforms a field: {e!r}"]
