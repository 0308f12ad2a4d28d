"""Seeded command lists for the three benchmark workloads.

Each workload is a short list of monocurve CLI invocations (one "cycle")
that the harness repeats for the length of a run. The seed chooses the
inputs; the structure of a cycle is fixed, so different seeds give inputs of
equal cost. That is what keeps a run's figures comparable from seed to seed:

* large-shift picks the shift j from a target Frobenius number F, using
  F ~ j^2/(a+b+c) for the shifted family (checked to within 2% for
  a+b+c <= 10). Work and memory in the current engine scale with F, so a
  fixed F ladder over fixed triples fixes the cost; the seed moves j within
  the class that keeps every common factor among the generators.
* family-sweep runs theorem-b on fixed flagged families from a seeded start
  near their (a+b+c)^3 threshold, and sizes the hs3 sweep to about 1000
  triples.
* wide-embedding runs one fixed semigroup per embedding dimension 5..8;
  the seed writes each one differently (order, a common factor, a
  duplicate entry), because the homology cost of fresh draws differs by
  half again.

The program only ever receives the generated argv.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

# every command that takes --jobs gets --jobs 1: see README.md
JOBS = ["--jobs", "1"]


@dataclass
class Command:
    """One CLI invocation and what the output checks need to know about it."""

    kind: str                 # betti, gens, critical, scan, table, theorem-b, hs3
    argv: list[str]
    semigroups: int           # pipelines this invocation completes
    params: dict = field(default_factory=dict)

    def label(self):
        return " ".join(self.argv)


def shifted(j, abc):
    a, b, c = abc
    return (j, a + j, a + b + j, a + b + c + j)


def _gens_text(values):
    return ",".join(str(v) for v in values)


def _single(kind, raw):
    return Command(kind, [kind, "--gens", _gens_text(raw), "--format", "json"], 1,
                   {"raw": list(raw)})


def _theorem_b(abc, j_min, j_max):
    argv = ["verify", "theorem-b", "--abc", _gens_text(abc), "--from", str(j_min),
            "--to", str(j_max), "--format", "json", *JOBS]
    return Command("theorem-b", argv, j_max - j_min + 1,
                   {"abc": list(abc), "from": j_min, "to": j_max})


def _scan(abc, r_min, r_max):
    argv = ["scan", "--abc", _gens_text(abc), "--offset", "1", "--from", str(r_min),
            "--to", str(r_max), "--format", "json", *JOBS]
    return Command("scan", argv, r_max - r_min + 1,
                   {"abc": list(abc), "offset": 1, "from": r_min, "to": r_max})


def _table(example, golden_rows):
    argv = ["table", "--example", str(example), "--format", "csv", *JOBS]
    return Command("table", argv, golden_rows, {"example": example})


def hs3_count(q_max, ab_max):
    """Triples (q, a, b) that `verify hs3 --q-max --ab-max` checks."""
    count = 0
    for s in range(2, ab_max + 1):
        for a in range(1, s):
            b = s - a
            if math.gcd(a, b) == 1:
                count += max(0, q_max - max(a * b + b * b, a * b + a * a) + 1)
    return count


def _hs3(q_max, ab_max):
    argv = ["verify", "hs3", "--q-max", str(q_max), "--ab-max", str(ab_max),
            "--format", "json"]
    return Command("hs3", argv, hs3_count(q_max, ab_max),
                   {"q_max": q_max, "ab_max": ab_max})


def triples(s_max=None, s_exact=None, flagged=False):
    out = []
    top = s_exact if s_exact is not None else s_max
    for a in range(1, top):
        for b in range(1, top - a):
            for c in range(1, top - a - b + 1):
                s = a + b + c
                if s_exact is not None and s != s_exact:
                    continue
                if flagged and c % (a + b) and a % (b + c):
                    continue
                out.append((a, b, c))
    return out


def _shift_for_frobenius(rng, abc, frobenius):
    """Leading generator j with F(<shifted(j, abc)>) within about 6% of ``frobenius``.

    The cost of `gens` and `critical` swings by a factor of five with the
    common factors that subsets of the generators share (they set the size
    of the sub-semigroup tables), and those are fixed by j modulo the lcm of
    the generators' differences. So the reference shift, the first coprime
    tuple at or above sqrt(F*(a+b+c)), fixes that class, and the seed moves j
    only by whole multiples of the lcm, staying within 3% of the reference.
    """
    a, b, c = abc
    j = math.isqrt(int(frobenius * (a + b + c)))
    while math.gcd(*shifted(j, abc)) != 1:
        j += 1
    step = math.lcm(a, b, c, a + b, b + c, a + b + c)
    reach = j * 3 // 100 // step
    return j + step * rng.randint(-reach, reach)


# (triple, target Frobenius number) per command; the triples are the paper's
# worked families and the smallest ones, a+b+c <= 10
LARGE_SHIFT_PAIRS = [((1, 1, 1), 1e6), ((2, 3, 5), 2e6), ((3, 5, 2), 4e6)]
# critical costs ~13 s at j = 8000 for (1,1,1), so its ladder stops lower
LARGE_SHIFT_CRITICAL = [((1, 2, 3), 0.75e6), ((2, 3, 5), 1.5e6)]


def large_shift(rng, golden_rows):
    cmds = []
    for abc, frob in LARGE_SHIFT_PAIRS:
        raw = shifted(_shift_for_frobenius(rng, abc, frob), abc)
        cmds += [_single("betti", raw), _single("gens", raw)]
    for abc, frob in LARGE_SHIFT_CRITICAL:
        cmds.append(_single("critical", shifted(_shift_for_frobenius(rng, abc, frob), abc)))
    abc = (2, 3, 5)                  # flagged: c = a + b
    j = _shift_for_frobenius(rng, abc, 0.75e6)
    cmds.append(_theorem_b(abc, j, j + 1))
    abc = (3, 5, 2)
    row = _shift_for_frobenius(rng, abc, 0.75e6) - 1     # offset 1: row r starts at r+1
    cmds.append(_scan(abc, row, row + 2))
    return cmds


# flagged families (c = p(a+b) or a = p(b+c)) and the periods theorem-b covers;
# a row near the (a+b+c)^3 threshold costs about (a+b+c)^5, and flagged
# triples of one sum still differ by up to 2x, so the triples are fixed
THEOREM_B_FAMILIES = [((6, 1, 1), 6), ((2, 3, 5), 4), ((1, 5, 6), 3)]


def family_sweep(rng, golden_rows):
    cmds = []
    for abc, periods in THEOREM_B_FAMILIES:
        s = sum(abc)
        j = s ** 3 + rng.randrange(s)
        cmds.append(_theorem_b(abc, j, j + periods * s - 1))
    # the critical binomials of the last family at its threshold; a seeded j
    # would change their cost by half again (see _shift_for_frobenius)
    cmds.append(_single("critical", shifted(s ** 3, abc)))
    abc = rng.choice(triples(s_exact=9))     # a fixed sum fixes the row count
    row = rng.randrange(20, 61)
    cmds.append(_scan(abc, row, row + 3 * sum(abc) - 1))   # long enough to detect a period
    cmds += [_table(k, golden_rows[k]) for k in sorted(golden_rows)]
    # a sweep of about 1000 triples; the seed picks the a+b limit
    ab_max = rng.choice((6, 7, 8))
    q_max = next(q for q in range(ab_max * ab_max, 1000) if hs3_count(q, ab_max) >= 1000)
    cmds.append(_hs3(q_max, ab_max))
    return cmds


# one minimal generating set per embedding dimension, drawn once from [15, 80]
# (the 6-generator set from [8, 26], so that it stays in range times 2 or 3).
# Their cost is typical of such draws: betti on the 8-generator set takes
# 2.8-3.1 s, where fresh draws ranged from 2.3 to 3.7 s, a spread that would
# swamp any change, so the seed changes only how each set is written.
WIDE_SETS = {
    5: (41, 42, 55, 73, 80),
    6: (15, 17, 22, 23, 25, 26),
    7: (24, 36, 42, 63, 67, 68, 76),
    8: (26, 39, 40, 59, 61, 70, 73, 77),
}


def wide_embedding(rng, golden_rows):
    cmds = []
    raws = {}
    for n, gens in WIDE_SETS.items():
        raw = list(gens)
        if n == 6:
            # raw input with a common factor: the CLI divides it out
            d = rng.choice((2, 3))
            raw = [d * g for g in raw]
        elif n == 7:
            raw.append(rng.choice(raw))        # a duplicate entry, dropped by normalize
        rng.shuffle(raw)
        raws[n] = raw
        cmds += [_single("betti", raw), _single("gens", raw)]
    cmds += [_single("critical", raws[6]), _single("critical", raws[8])]
    # a small theorem-b and scan keep the family layer measured here too
    s = 6
    abc = rng.choice(triples(s_exact=s, flagged=True))
    j = s ** 3 + rng.randrange(s)
    cmds.append(_theorem_b(abc, j, j + 2 * s - 1))
    abc = rng.choice(triples(s_exact=s))
    row = rng.randrange(10, 31)
    cmds.append(_scan(abc, row, row + 3 * sum(abc) - 1))
    return cmds


WORKLOADS = {
    "large-shift": large_shift,
    "family-sweep": family_sweep,
    "wide-embedding": wide_embedding,
}


def build(name, seed, golden_rows):
    """The cycle of commands for ``name``; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    cmds = WORKLOADS[name](rng, golden_rows)
    rng.shuffle(cmds)
    return cmds


def read_golden(path):
    """{j: (b0..b4)} from a published table CSV."""
    with open(path, newline="") as f:
        return {int(r["j"]): tuple(int(r[f"b{i}"]) for i in range(5))
                for r in csv.DictReader(f)}
