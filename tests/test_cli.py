import concurrent.futures
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
from importlib.resources import files

from monocurve import cli
from monocurve.family import worker_count


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def load_schema():
    return json.loads(files("monocurve").joinpath("data", "output_schema.json").read_text())


def test_betti_pretty():
    code, out, _ = run_cli(["betti", "--gens", "30,32,35,40"])
    assert code == 0
    assert out == "(1, 3, 3, 1, 0)\n"


def test_betti_normalizes_input():
    _, out_a, _ = run_cli(["betti", "--gens", "4,6,10"])
    _, out_b, _ = run_cli(["betti", "--gens", "2,3,5"])
    assert out_a == out_b


def test_betti_json_payload():
    code, out, _ = run_cli(["betti", "--gens", "30,32,35,40", "--format", "json"])
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == "betti"
    assert doc["payload"]["totals"] == [1, 3, 3, 1, 0]
    assert doc["payload"]["rows"]["70"] == [0, 1, 0, 0, 0]
    assert doc["payload"]["frobenius"] == 213


def test_gens_output():
    code, out, _ = run_cli(["gens", "--gens", "30,32,35,40"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu = 3"
    assert "x1^4 - x4^3" in out and "x2^5 - x1^3*x3^2" in out


def test_critical_output():
    code, out, _ = run_cli(["critical", "--gens", "30,32,35,40"])
    assert "f2: x2^5 - x1^3*x3^2" in out


def test_scan_csv_golden_rows():
    code, out, _ = run_cli(["scan", "--abc", "2,3,5", "--offset", "1",
                            "--from", "22", "--to", "24", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,g1,g2,g3,g4,content,b0,b1,b2,b3,b4,mu,ci"
    assert lines[1] == "22,23,25,28,33,1,1,6,9,4,0,6,false"
    assert lines[2] == "23,24,26,29,34,1,1,4,5,2,0,4,false"


def test_scan_pretty_matches_paper_row_style():
    _, out, _ = run_cli(["scan", "--abc", "2,3,5", "--from", "29", "--to", "29"])
    assert "j=29 -> (1, 3, 3, 1, 0)" in out


def test_scan_json_round_trips():
    code, out, _ = run_cli(["scan", "--abc", "2,3,5", "--from", "22", "--to", "25",
                            "--format", "json"])
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    row = doc["payload"]["rows"][0]
    jsonschema.validate(row, {**load_schema()["$defs"]["scan_row"],
                              "$defs": load_schema()["$defs"]})
    assert row["j"] == 22 and row["totals"] == [1, 6, 9, 4, 0]
    assert doc["payload"]["family"]["offset"] == 1
    assert json.loads(json.dumps(doc)) == doc


def test_scan_offset_zero():
    _, out, _ = run_cli(["scan", "--abc", "2,3,5", "--offset", "0",
                         "--from", "10", "--to", "10", "--format", "csv"])
    assert out.splitlines()[1].startswith("10,10,12,15,20,1,")


def test_repeated_runs_byte_identical():
    argv = ["scan", "--abc", "2,3,5", "--from", "22", "--to", "31", "--format", "json"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_jobs_do_not_change_bytes(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    base = ["scan", "--abc", "2,3,5", "--from", "22", "--to", "31"]
    for fmt in ("csv", "json"):
        outs = set()
        for jobs in ("1", "2"):
            _, out, _ = run_cli(base + ["--format", fmt, "--jobs", jobs])
            outs.add(out)
        assert len(outs) == 1, fmt
    # with 2 usable CPUs each --jobs 2 run went through a real pool
    assert pools == ([2, 2] if worker_count(2, 10) == 2 else [])


# Runs one command in a fresh interpreter, then prints as its last line the
# exit code, whether the command wrote a result, and which of the given
# modules it left loaded. argparse writes --help to sys.stdout directly.
_LOADED_AFTER = """
import io, json, sys
from monocurve import cli
out = io.StringIO()
code = cli.run(sys.argv[1:], out, io.StringIO())
names = {names!r}
print(json.dumps([code, bool(out.getvalue()), sorted(names & set(sys.modules))]))
"""


def test_default_commands_load_no_pool_or_diff_modules():
    names = {"concurrent.futures.process", "multiprocessing", "difflib"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = _LOADED_AFTER.format(names=names)
    for argv in (["--help"],
                 ["betti", "--gens", "30,32,35,40"],
                 ["scan", "--abc", "2,3,5", "--from", "22", "--to", "31",
                  "--jobs", "1"]):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, wrote, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, argv
        assert wrote or argv == ["--help"], argv
        assert loaded == [], (argv, loaded)


def test_betti_jobs_env_default(monkeypatch):
    argv = ["scan", "--abc", "2,3,5", "--from", "22", "--to", "25", "--format", "csv"]
    _, base, _ = run_cli(argv)
    monkeypatch.setenv("BETTI_JOBS", "2")
    _, with_env, _ = run_cli(argv)
    assert base == with_env
    monkeypatch.setenv("BETTI_JOBS", "zebra")
    code, _, err = run_cli(argv)
    assert code == 1 and "BETTI_JOBS" in err


def test_table_examples_pass():
    for example in ("1", "2", "3"):
        code, out, _ = run_cli(["table", "--example", example])
        assert code == 0, out
        assert "PASS" in out


def test_table_mismatch_exits_2(monkeypatch):
    fake = cli.load_expected_table(1)
    fake[29] = (1, 9, 9, 9, 0)
    monkeypatch.setattr(cli, "load_expected_table", lambda example: fake)
    code, out, _ = run_cli(["table", "--example", "1"])
    assert code == 2
    assert "FAIL" in out and "-j=29 -> (1, 9, 9, 9, 0)" in out
    assert "+j=29 -> (1, 3, 3, 1, 0)" in out


def test_verify_hs3_single_and_sweep():
    code, out, _ = run_cli(["verify", "hs3", "--q", "12", "--a", "1", "--b", "2"])
    assert code == 0 and "agree" in out
    code, out, _ = run_cli(["verify", "hs3", "--q-max", "30", "--ab-max", "5"])
    assert code == 0 and "all agree" in out
    code, _, err = run_cli(["verify", "hs3", "--q", "12"])
    assert code == 1


def test_verify_theorem_b_cli():
    code, out, _ = run_cli(["verify", "theorem-b", "--abc", "2,3,5",
                            "--from", "1000", "--to", "1005", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "1000,true,true,true"


def test_verify_theorem_a_counterexample_exit_code():
    code, out, _ = run_cli(["verify", "theorem-a", "--abc", "12,3,1", "--n-max", "2"])
    assert code == 2
    assert "COUNTEREXAMPLE" in out


def test_hypothesis_not_met_is_input_error():
    code, _, err = run_cli(["verify", "theorem-a", "--abc", "3,5,2", "--n-max", "2"])
    assert code == 1
    assert "does not apply" in err


def test_usage_errors_exit_1():
    code, _, _ = run_cli(["scan", "--abc", "nope", "--from", "1", "--to", "2"])
    assert code == 1
    code, _, _ = run_cli(["betti"])
    assert code == 1
    code, _, _ = run_cli(["nonsense"])
    assert code == 1


def test_help_exits_0():
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["scan", "--help"])[0] == 0
    assert run_cli(["verify", "theorem-b", "--help"])[0] == 0


def test_invalid_generators_exit_1():
    code, _, err = run_cli(["betti", "--gens", "0,3"])
    assert code == 1
    assert "error" in err


def test_oversized_work_is_refused_with_its_size():
    code, out, err = run_cli(["betti", "--gens", "3000000,3000001,3000002"])
    assert code == 1
    assert out == ""
    assert "(3000000, 3000001, 3000002)" in err and "12,000,000" in err


def test_diagnostics_on_stderr_only():
    code, out, err = run_cli(["betti", "--gens", "30,32,35,40"])
    assert "elapsed_ms=" in err
    assert "elapsed_ms" not in out


def test_bound_override():
    code, out, _ = run_cli(["betti", "--gens", "30,32,35,40", "--format", "json",
                            "--bound-override", "150"])
    rows = json.loads(out)["payload"]["rows"]
    assert set(rows) == {"0", "70", "120"}
