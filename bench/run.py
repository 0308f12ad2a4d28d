"""monocurve benchmark: seeded workloads of CLI commands, checked and timed.

    python3 bench/run.py --workload large-shift --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is `python3 -m
monocurve.cli` with `src/` on PYTHONPATH, so nothing needs installing. One
harness process runs one command at a time in a fresh child process (a
closed loop with one client), repeating the workload's seeded command list
for about --seconds. Every output is checked (checks.py); the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics, with times scaled to the speed
that a fixed probe task shows in the same run (see PROBE). --trace 1 runs
each command of the list both plainly and under traced_cli.py, which puts a
span around every call into a layer, and reports the per-layer metrics
(layers.py). A record of every run (machine, inputs, each invocation) goes
to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "monocurve" / "data"
RESULTS = HERE / "results"

MIN_INVOCATIONS = 20        # fewest commands in a run, so that every command repeats
TAIL_BEYOND = 10            # the tail percentile has this many samples above it
TAIL_PASSES = 5             # passes over the list that p50 and tail are taken over
SETUP_REPEATS = 3          # more follow, one after each pass over the list
STOP_STARTING_S = 120       # no new cycle after this, whatever the counts
KILL_AT_S = 165             # a command still running then is killed and fails

# A fixed task that runs no monocurve code: a fresh interpreter imports numpy
# and the standard modules the CLI imports, then runs a short pure-Python
# loop. Its wall time follows the host's speed, which on a shared VM moves by
# up to 40% between spells of a minute or more, for start-up and for
# computation alike. Every time metric is scaled by PROBE_REF_S over the
# probe's median in the same run, so that runs made in a slow spell and in a
# fast one read alike, while a change to monocurve moves them in full.
PROBE = """
import argparse, csv, dataclasses, importlib.resources, json, math, numpy
counts = {}
x = 1
for i in range(60000):
    x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    counts[x & 1023] = counts.get(x & 1023, 0) + 1
print(max(counts.values()))
"""
PROBE_REF_S = 0.2           # the probe's median wall time on the reference machine
PROBE_EVERY = 2             # one probe after this many commands


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_info():
    def first_line(path, prefix=""):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return None
        return None

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "loadavg": first_line("/proc/loadavg"),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Child:
    """Runs commands one at a time and measures each with os.wait4.

    os.wait4 gives the peak RSS of that one child; RUSAGE_CHILDREN would give
    the largest over all children so far and hide a drop.
    """

    def __init__(self, workdir, deadline_ns):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # an installed package has its bytecode compiled once; so here, even
        # where PYTHONDONTWRITEBYTECODE is set, bytecode is cached, inside
        # bench/results, and no timed command pays for compiling src/
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(RESULTS / "pycache")
        self.env = env
        self.deadline_ns = deadline_ns
        self.out = tempfile.TemporaryFile(dir=workdir)
        self.err = tempfile.TemporaryFile(dir=workdir)

    def close(self):
        self.out.close()
        self.err.close()

    def run(self, argv):
        """(spawn ns, reap ns, peak RSS in MB, exit code, stdout bytes)."""
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        start = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, *argv], stdout=self.out, stderr=self.err,
                                env=self.env, cwd=ROOT)
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(1.0, (self.deadline_ns - start) / 1e9), kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic_ns()
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.seek(0)
        return start, end, usage.ru_maxrss / 1024, proc.returncode, self.out.read()


class Checker:
    """Checks each command's first output in full and later ones by digest."""

    def __init__(self, schema, golden):
        self.schema = schema
        self.golden = golden
        self.first = {}            # command index -> (digest, problems)
        self.b1 = {}               # normalized generators -> beta_1 from betti
        self.mu = {}               # normalized generators -> mu from gens

    def check(self, index, cmd, code, stdout):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        digest = hashlib.sha256(stdout).hexdigest()
        if index in self.first:
            first_digest, problems = self.first[index]
            if digest != first_digest:
                return ["stdout differs from the first run of this command"]
            return problems
        problems = checks.check_output(cmd, stdout.decode(), self.schema, self.golden)
        if not problems and cmd.kind in ("betti", "gens"):
            payload = json.loads(stdout)["payload"]
            key = tuple(payload["generators"])
            if cmd.kind == "betti":
                self.b1[key] = payload["totals"][1]
            else:
                self.mu[key] = payload["mu"]
            if key in self.b1 and key in self.mu and self.b1[key] != self.mu[key]:
                problems = [f"beta_1 {self.b1[key]} from betti != mu {self.mu[key]} from gens"]
        self.first[index] = (digest, problems)
        return problems


def cli_argv(cmd):
    return ["-m", "monocurve.cli", *cmd.argv]


def time_setup(child):
    """Wall time of one fresh `monocurve --help`."""
    start, end, _, code, _ = child.run(["-m", "monocurve.cli", "--help"])
    if code != 0:
        die(f"`monocurve --help` exited with {code}")
    return (end - start) / 1e9


def time_probe(child):
    """Wall time of one run of PROBE."""
    start, end, _, code, _ = child.run(["-c", PROBE])
    if code != 0:
        die(f"the speed probe exited with {code}")
    return (end - start) / 1e9


def run_plain(cycle, child, checker, seconds, t0, setup_walls, probe_walls):
    """Repeat the whole cycle for about ``seconds``; one record per command.

    Only whole cycles run, so every command has the same number of repeats
    and the p50 and tail fall on the same commands from run to run. The run
    stops at the cycle boundary nearest to ``seconds``, once it has
    MIN_INVOCATIONS. A `--help` run after every cycle adds to
    ``setup_walls``, and a probe after every PROBE_EVERY commands to
    ``probe_walls``, so both are sampled across the whole run.
    """
    records = []
    while True:
        cycle_start = time.monotonic_ns()
        for index, cmd in enumerate(cycle):
            start, end, rss, code, out = child.run(cli_argv(cmd))
            problems = checker.check(index, cmd, code, out)
            records.append({"command": index, "wall_s": (end - start) / 1e9,
                            "peak_rss_mb": rss, "exit": code, "ok": not problems,
                            "problems": problems[:3]})
            if len(records) % PROBE_EVERY == 0:
                probe_walls.append(time_probe(child))
        setup_walls.append(time_setup(child))
        now = time.monotonic_ns()
        elapsed, last = (now - t0) / 1e9, (now - cycle_start) / 1e9
        if elapsed >= STOP_STARTING_S or (len(records) >= MIN_INVOCATIONS
                                          and elapsed + last / 2 >= seconds):
            return records


def end_to_end(records, cycle, setup_walls, probe_walls):
    """End-to-end metrics, each command timed by the median of its repeats.

    The machine's speed drifts by 10-20% over seconds, so every invocation
    of a command is timed by the median over that command's runs. p50 and
    tail are then taken over TAIL_PASSES passes of the list: with every
    command equally often, the tail (10 invocations beyond it) is always
    the third slowest command, however many passes fitted in the run.
    Times are then scaled to the probe's reference speed (see PROBE); the
    notes keep them as measured.
    """
    by_command = {}
    for r in records:
        by_command.setdefault(r["command"], []).append(r["wall_s"])
    typical = {k: statistics.median(v) for k, v in by_command.items()}
    failed_commands = {r["command"] for r in records if not r["ok"]}
    done = sum(cycle[k].semigroups for k in typical if k not in failed_commands)
    walls = [t for t in typical.values() for _ in range(TAIL_PASSES)]
    ok = sum(r["ok"] for r in records)
    tail_s, tail_pct = layers.tail(walls, TAIL_BEYOND)
    slowness = statistics.median(probe_walls) / PROBE_REF_S
    measured = {"setup_s": statistics.median(setup_walls),
                "semigroups_per_s": done / sum(typical.values()),
                "query_p50_s": statistics.median(walls), "query_tail_s": tail_s}
    metrics = {
        ("setup_s", "s"): measured["setup_s"] / slowness,
        ("semigroups_per_s", "1/s"): measured["semigroups_per_s"] * slowness,
        ("query_p50_s", "s"): measured["query_p50_s"] / slowness,
        ("query_tail_s", "s"): measured["query_tail_s"] / slowness,
        ("peak_rss_mb", "MB"): max(r["peak_rss_mb"] for r in records),
        ("ok_ratio", "ratio"): ok / len(records),
    }
    notes = {"invocations": len(records), "query_tail_percentile": tail_pct,
             "failed_ratio": 1 - ok / len(records), "setup_samples": len(setup_walls),
             "semigroups_per_cycle": done, "cycle_s": sum(typical.values()),
             "probe_samples": len(probe_walls), "probe_median_s": statistics.median(probe_walls),
             "slowness": slowness, "as_measured": measured}
    return metrics, notes


def run_traced(cycle, child, checker, seconds, t0, workdir):
    """Passes over the cycle, each command plain and traced, order alternating.

    Passes stop at the boundary nearest to ``seconds``, as in run_plain.
    """
    spans_path = os.path.join(workdir, "spans.json")
    traces, plain_walls, records = [], [], []
    passes = 0
    while True:
        pass_start = time.monotonic_ns()
        for index, cmd in enumerate(cycle):
            runs = {}
            for traced in ((False, True) if (index + passes) % 2 == 0 else (True, False)):
                argv = ([str(HERE / "traced_cli.py"), spans_path, "--", *cmd.argv]
                        if traced else cli_argv(cmd))
                runs[traced] = child.run(argv)
            (s0, e0, _, code0, out0), (s1, e1, _, code1, out1) = runs[False], runs[True]
            problems = checker.check(index, cmd, code0, out0)
            if (code1, out1) != (code0, out0):
                problems = problems + ["traced run changed stdout or exit code"]
            elif code1 == 0:
                traces.append(layers.CommandTrace(spans_path, s1, e1))
                plain_walls.append(e0 - s0)
            records.append({"command": index, "wall_s": (e0 - s0) / 1e9,
                            "traced_wall_s": (e1 - s1) / 1e9, "exit": code0,
                            "ok": not problems, "problems": problems[:3]})
        passes += 1
        now = time.monotonic_ns()
        elapsed, last = (now - t0) / 1e9, (now - pass_start) / 1e9
        if elapsed >= STOP_STARTING_S or elapsed + last / 2 >= seconds:
            break
    if not traces:
        return records, {}, {}
    # with a failed command the figures cover less than whole passes
    metrics, summary = layers.layer_metrics(traces, plain_walls, passes)
    return records, metrics, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (SRC / "monocurve" / "cli.py", DATA / "output_schema.json",
                   *(DATA / f"table{k}.csv" for k in (1, 2, 3))):
        if not needed.is_file():
            die(f"{needed.relative_to(ROOT)} is missing: run from a monocurve source checkout")
    schema = json.loads((DATA / "output_schema.json").read_text())
    golden = {k: workloads.read_golden(DATA / f"table{k}.csv") for k in (1, 2, 3)}
    cycle = workloads.build(args.workload, args.seed, {k: len(v) for k, v in golden.items()})

    RESULTS.mkdir(exist_ok=True)
    checker = Checker(schema, golden)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        t_setup = time.monotonic_ns()
        child = Child(workdir, t_setup + KILL_AT_S * 10**9)
        try:
            time_setup(child)                 # warm-up: fills the bytecode cache
            time_probe(child)
            setup_walls = [] if args.trace else [time_setup(child)
                                                 for _ in range(SETUP_REPEATS)]
            probe_walls = []
            t0 = time.monotonic_ns()
            if args.trace:
                records, metrics, notes = run_traced(cycle, child, checker, args.seconds, t0,
                                                     workdir)
            else:
                records = run_plain(cycle, child, checker, args.seconds, t0, setup_walls,
                                    probe_walls)
                metrics, notes = end_to_end(records, cycle, setup_walls, probe_walls)
        finally:
            child.close()

    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and bool(metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "commands": [{"argv": c.argv, "semigroups": c.semigroups} for c in cycle],
        "setup_walls_s": setup_walls, "probe_walls_s": probe_walls, "invocations": records,
        "metrics": {name: {"value": v, "unit": u} for (name, u), v in metrics.items()},
        "notes": notes,
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(records)} commands, "
          f"{failed} failed, cycle of {len(cycle)}; record in {out_path.relative_to(ROOT)}")
    for index in sorted({r["command"] for r in records if r["problems"]}):
        problems = next(r["problems"] for r in records if r["command"] == index)
        print(f"  FAILED {cycle[index].label()}: {'; '.join(problems)}")
    for (name, unit), value in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("  " + json.dumps({k: v for k, v in notes.items() if not isinstance(v, dict)}))
    if "as_measured" in notes:
        print("  as measured, before scaling: " + ", ".join(
            f"{name} = {value:.6g}" for name, value in notes["as_measured"].items()))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for (name, u), v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
