"""Run one monocurve CLI command in this process, with a span around every
call into a layer's public functions.

    python3 bench/traced_cli.py SPANS.json -- betti --gens 30,32,35,40

It imports ``monocurve.cli``, wraps the functions listed in ``LAYER_FUNCTIONS``
at every module that binds them (``family`` and ``cli`` bind their own names
through ``from .betti import graded_betti`` and the like), then calls
``monocurve.cli.run(argv)``. One fresh process per command keeps the memo
state the same as in an untraced ``python -m monocurve.cli`` run. Spans stay
in memory and are written to SPANS.json when the command has finished; stdout
and the exit code are the command's own.

A span is [name id, start ns, end ns, parent index], on the system-wide
monotonic clock, so the harness can line them up with its own spawn and reap
times. Counts are taken in the same wrappers.
"""

import time

T0 = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

_now = time.monotonic_ns

# (module, attribute, span name); a name the module no longer defines is
# skipped, and its figures read 0
LAYER_FUNCTIONS = [
    ("monocurve.semigroup", "frobenius", "semigroup.frobenius"),
    ("monocurve.semigroup", "canonical_factorization", "semigroup.canonical_factorization"),
    ("monocurve.betti", "degree_patterns", "betti.degree_patterns"),
    ("monocurve.betti", "graded_betti", "betti.graded_betti"),
    ("monocurve.betti", "disconnected_degrees", "betti.disconnected_degrees"),
    ("monocurve.betti", "integer_matrix_rank", "betti.integer_matrix_rank"),
    ("monocurve.binomials", "minimal_generators", "binomials.minimal_generators"),
    ("monocurve.binomials", "full_critical_set", "binomials.full_critical_set"),
    ("monocurve.family", "scan", "family.scan"),
    ("monocurve.family", "verify_theorem_b", "family.verify_theorem_b"),
    ("monocurve.family", "is_complete_intersection", "family.is_complete_intersection"),
    ("monocurve.cli", "run", "cli.run"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []
        self.stack = [-1]
        self.counts = {"betti.degrees_scanned": 0, "betti.useful_degrees": 0,
                       "betti.bareiss_ops": 0, "betti.max_boundary_cells": 0}
        self.pattern_keys = set()
        self.table_bytes = {}        # generators -> (main table, subtables)

    def begin(self, name, start=None):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, _now() if start is None else start, 0, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _now()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # --- counts, taken at the same boundaries as the spans ---

    def after_degree_patterns(self, args, kwargs, result):
        S, bound = args[0], args[1] if len(args) > 1 else kwargs["bound"]
        key = (S.generators, bound)
        if key not in self.pattern_keys:
            self.pattern_keys.add(key)
            self.counts["betti.degrees_scanned"] += bound + 1

    def after_rank(self, args, kwargs, rank):
        rows = args[0] if args else kwargs["rows"]
        cells = len(rows) * len(rows[0]) if rows and rows[0] else 0
        self.counts["betti.bareiss_ops"] += cells * rank
        if cells > self.counts["betti.max_boundary_cells"]:
            self.counts["betti.max_boundary_cells"] = cells

    def after_graded_betti(self, args, kwargs, table):
        self.counts["betti.useful_degrees"] += len(table.rows)
        self.after_pipeline(args, kwargs, table)

    def after_pipeline(self, args, kwargs, result):
        """Bytes of the semigroup's bit tables, computed from their bounds."""
        S = args[0] if args else kwargs["S"]
        table = getattr(S, "_table", None)
        main = (table.bound + 8) // 8 if table is not None else 0
        subs = sum((sub.table.bound + 8) // 8
                   for sub in getattr(S, "_subsemigroups", {}).values()
                   if getattr(sub, "table", None) is not None)
        old = self.table_bytes.get(S.generators, (0, 0))
        self.table_bytes[S.generators] = (max(old[0], main), max(old[1], subs))


def install(tracer):
    """Wrap every binding of each layer function; returns bindings per span name."""
    afters = {
        "betti.degree_patterns": tracer.after_degree_patterns,
        "betti.integer_matrix_rank": tracer.after_rank,
        "betti.graded_betti": tracer.after_graded_betti,
        "binomials.minimal_generators": tracer.after_pipeline,
        "binomials.full_critical_set": tracer.after_pipeline,
        "family.is_complete_intersection": tracer.after_pipeline,
    }
    wrappers = {}
    rebound = {}
    modules = [m for name, m in sys.modules.items()
               if name == "monocurve" or name.startswith("monocurve.")]
    for module_name, attr, span in LAYER_FUNCTIONS:
        fn = getattr(sys.modules[module_name], attr, None)
        rebound[span] = 0
        if fn is not None:
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, afters.get(span)), span)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound[hit[2]] += 1
    # handlers: cli.run minus this span is argument parsing and output rendering
    cli = sys.modules["monocurve.cli"]
    for table_name in ("_DISPATCH", "_VERIFY_DISPATCH"):
        table = getattr(cli, table_name, {})
        for key, fn in list(table.items()):
            table[key] = tracer.wrap("cli.handler", fn)
            rebound["cli.handler"] = rebound.get("cli.handler", 0) + 1
    return rebound


def main():
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        sys.exit("usage: traced_cli.py SPANS.json -- ARGV...")
    argv = sys.argv[3:]
    tracer = Tracer()
    root = tracer.begin("process", start=T0)
    idx = tracer.begin("trace.setup", start=T0)
    tracer.end(idx)
    idx = tracer.begin("cli.import")
    import monocurve.cli
    tracer.end(idx)
    idx = tracer.begin("trace.install")
    rebound = install(tracer)
    tracer.end(idx)
    code = monocurve.cli.run(argv)
    sys.stdout.flush()
    tracer.end(root)

    flush_start = _now()
    betti = sys.modules["monocurve.betti"]
    memo = getattr(betti, "_RANKS_MEMO", None)
    tracer.counts["betti.distinct_complexes"] = len(memo) if memo is not None else 0
    tables = list(tracer.table_bytes.values())
    tracer.counts["semigroup.table_bytes"] = max((t[0] for t in tables), default=0)
    tracer.counts["semigroup.subtable_bytes"] = max((t[1] for t in tables), default=0)
    tracer.counts["betti.pattern_semigroups"] = len({k[0] for k in tracer.pattern_keys})
    body = json.dumps({"names": tracer.names, "spans": tracer.spans,
                       "counts": tracer.counts, "rebound": rebound, "exit": code})
    with open(out_path, "w") as f:
        f.write(body[:-1] + f', "flush": [{flush_start}, {_now()}]}}')
    sys.exit(code)


if __name__ == "__main__":
    main()
