"""Per-layer metrics from the span files that traced_cli.py writes.

A span's self time is its duration minus the durations of its direct
children. The harness adds three segments the traced process cannot time
itself: ``process.start`` (spawn until the traced process's first clock read, i.e.
interpreter start-up), ``trace.flush`` (serializing the spans) and
``process.exit`` (from there until the process is reaped). With those, the
self times of one command sum exactly to its traced wall time, and every
span lies on the blocking path because each command runs in one thread.
"""

from __future__ import annotations

import json
import statistics

HARNESS_SPANS = ("trace.setup", "trace.install", "trace.flush")
ROW_PARENTS = ("family.scan", "family.verify_theorem_b")
MAXIMA = ("betti.max_boundary_cells", "semigroup.table_bytes", "semigroup.subtable_bytes")
ROW_SPANS = ("betti.graded_betti", "family.is_complete_intersection")


def tail(values, beyond=10):
    """(value, percentile): the highest percentile with ``beyond`` samples above it.

    With ``beyond`` samples or fewer the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


class CommandTrace:
    """Spans of one traced command, with self times per span name."""

    def __init__(self, path, spawn_ns, reap_ns):
        with open(path) as f:
            doc = json.load(f)
        names = doc["names"]
        spans = doc["spans"]
        self.counts = doc["counts"]
        self.rebound = doc["rebound"]
        self.wall_ns = reap_ns - spawn_ns
        child_ns = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns = {}
        self.calls = {}
        self.row_ns = []
        self.import_ns = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start) - child_ns[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "cli.import":
                self.import_ns = end - start
            if (name in ROW_SPANS and parent >= 0
                    and names[spans[parent][0]] in ROW_PARENTS):
                self.row_ns.append(end - start)
        root = next(s for s in spans if names[s[0]] == "process")
        flush_start, flush_end = doc["flush"]
        self.self_ns["process.start"] = root[1] - spawn_ns
        self.self_ns["trace.flush"] = flush_end - flush_start
        self.self_ns["process.exit"] = reap_ns - flush_end
        # time inside the process span but outside the flush: should be 0
        self.unaccounted_ns = self.wall_ns - sum(self.self_ns.values())


def layer_metrics(traces, untraced_wall_ns, passes):
    """Per-layer metrics for ``passes`` identical passes over a command list.

    Times and counts are per pass; ``untraced_wall_ns`` are the wall times of
    the same commands run without tracing.
    """
    self_ns, calls, counts = {}, {}, {}
    rows, imports = [], []
    max_cells = table_bytes = subtable_bytes = 0
    for t in traces:
        for k, v in t.self_ns.items():
            self_ns[k] = self_ns.get(k, 0) + v
        for k, v in t.calls.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t.counts.items():
            if k not in MAXIMA:
                counts[k] = counts.get(k, 0) + v
        rows += t.row_ns
        imports.append(t.import_ns)
        max_cells = max(max_cells, t.counts["betti.max_boundary_cells"])
        table_bytes = max(table_bytes, t.counts["semigroup.table_bytes"])
        subtable_bytes = max(subtable_bytes, t.counts["semigroup.subtable_bytes"])

    def s(name):
        return self_ns.get(name, 0) / 1e9 / passes

    def per_pass(value):
        return value // passes if value % passes == 0 else value / passes

    traced = sum(t.wall_ns for t in traces)
    untraced = sum(untraced_wall_ns)
    row_tail, row_tail_pct = tail(rows) if rows else (0, 0.0)
    metrics = {
        ("cli.import_s", "s"): statistics.median(imports) / 1e9,
        ("cli.render_s", "s"): s("cli.run"),
        ("semigroup.frobenius_s", "s"): s("semigroup.frobenius"),
        ("semigroup.frobenius_calls", "count"): per_pass(calls.get("semigroup.frobenius", 0)),
        ("semigroup.table_bytes", "bytes"): table_bytes,
        ("semigroup.subtable_bytes", "bytes"): subtable_bytes,
        ("semigroup.canonical_factorization_s", "s"): s("semigroup.canonical_factorization"),
        ("semigroup.canonical_factorization_calls", "count"):
            per_pass(calls.get("semigroup.canonical_factorization", 0)),
        ("betti.degree_patterns_s", "s"): s("betti.degree_patterns"),
        ("betti.degrees_scanned", "count"): per_pass(counts["betti.degrees_scanned"]),
        ("betti.distinct_complexes", "count"): per_pass(counts["betti.distinct_complexes"]),
        ("betti.useful_degree_ratio", "ratio"):
            counts["betti.useful_degrees"] / max(counts["betti.degrees_scanned"], 1),
        ("betti.degree_patterns_calls_per_semigroup", "calls/semigroup"):
            calls.get("betti.degree_patterns", 0) / max(counts["betti.pattern_semigroups"], 1),
        ("betti.graded_betti_s", "s"): s("betti.graded_betti"),
        ("betti.integer_matrix_rank_s", "s"): s("betti.integer_matrix_rank"),
        ("betti.integer_matrix_rank_calls", "count"):
            per_pass(calls.get("betti.integer_matrix_rank", 0)),
        ("betti.max_boundary_cells", "cells"): max_cells,
        ("betti.bareiss_ops", "ops"): per_pass(counts["betti.bareiss_ops"]),
        ("binomials.minimal_generators_s", "s"): s("binomials.minimal_generators"),
        ("binomials.full_critical_set_s", "s"): s("binomials.full_critical_set"),
        ("family.rows", "count"): per_pass(len(rows)),
        ("family.row_p50_ms", "ms"): statistics.median(rows) / 1e6 if rows else 0.0,
        ("family.row_tail_ms", "ms"): row_tail / 1e6,
        ("family.verify_theorem_b_s", "s"): s("family.verify_theorem_b"),
        ("family.scan_s", "s"): s("family.scan"),
        ("trace.overhead_ratio", "ratio"): (traced - untraced) / untraced,
    }
    harness = sum(self_ns.get(k, 0) for k in HARNESS_SPANS)
    layer_ns = sum(self_ns.values()) - harness
    overhead = (traced - untraced) / untraced
    coverage = layer_ns / untraced
    summary = {
        "self_s_per_pass": {k: v / 1e9 / passes for k, v in sorted(self_ns.items())},
        "calls_per_pass": {k: v / passes for k, v in sorted(calls.items())},
        "counts_per_pass": {k: v / passes for k, v in sorted(counts.items())},
        "family_rows_sampled": len(rows),
        "family_row_tail_percentile": row_tail_pct,
        "commands_traced": len(traces),
        "passes": passes,
        # self times outside the harness spans, over the untraced wall time
        "coverage_ratio": coverage,
        "coverage_within_overhead": abs(coverage - 1) <= abs(overhead),
        "unaccounted_s": sum(t.unaccounted_ns for t in traces) / 1e9,
        "bindings_wrapped": traces[0].rebound if traces else {},
    }
    return metrics, summary
