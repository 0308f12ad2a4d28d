import argparse
import concurrent.futures
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from importlib.resources import files

from monocurve import cli, family
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
# modules it left loaded.
_LOADED_AFTER = """
import io, json, sys
from monocurve import cli
out = io.StringIO()
code = cli.run(sys.argv[1:], out, io.StringIO())
names = {names!r}
print(json.dumps([code, bool(out.getvalue()), sorted(names & set(sys.modules))]))
"""


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_default_commands_load_no_pool_or_diff_modules():
    names = {"concurrent.futures.process", "multiprocessing", "difflib"}
    env = _src_env()
    script = _LOADED_AFTER.format(names=names)
    for argv in (["--help"],
                 ["betti", "--gens", "30,32,35,40"],
                 ["scan", "--abc", "2,3,5", "--from", "22", "--to", "31",
                  "--jobs", "1"]):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, wrote, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, argv
        assert wrote, argv
        assert loaded == [], (argv, loaded)


@pytest.mark.parametrize("argv, names", [
    ("verify hs3 --q-max 200 --ab-max 1", ["q_max=200", "ab_max=1"]),
    ("verify hs3 --q-max -3", ["q_max=-3", "ab_max=12"]),
    ("betti --gens 3,5 --bound-override -5", ["(3, 5)", "bound -5"]),
    ("gens --gens 3,5 --bound-override -5", ["(3, 5)", "bound -5"]),
    ("betti --gens 0,5", ["(0, 5)", "positive"]),
    ("betti --gens 3", ["(3,)", "at least 2"]),
    ("gens --gens 4,4", ["(4, 4)", "fewer than 2 distinct"]),
    ("betti --gens 10,11,12,13,14,15,16,17,18", ["(10, 11, 12, 13, 14, 15, 16, 17, 18)",
                                                 "more than 8"]),
    ("scan --abc 2,3,5 --from 22 --to 31 --jobs 0", ["jobs must be at least 1, got 0"]),
    ("verify theorem-b --abc 2,3,5 --from 1000 --to 1001 --jobs -2",
     ["jobs must be at least 1, got -2"]),
    ("table --example 1 --jobs 0", ["jobs must be at least 1, got 0"]),
    ("scan --abc 2,3,5 --from 5 --to 2", ["j_min=5", "j_max=2"]),
    ("verify theorem-b --abc 2,3,5 --from 1001 --to 1000", ["j_min=1001", "j_max=1000"]),
    ("verify theorem-a --abc 2,3,5 --n-max 0", ["n_max must be at least 1, got 0"]),
    ("verify hs3 --q 60 --a 3 --b 6", ["q=60", "a=3", "b=6"]),
])
def test_input_that_checks_nothing_exits_1(argv, names):
    for fmt in ("csv", "json", "pretty"):
        code, out, err = run_cli(argv.split() + ["--format", fmt])
        assert (code, out) == (1, ""), (argv, fmt)
        assert err.startswith("monocurve: error: ")
        assert all(name in err for name in names), err


def test_bound_override_zero_is_legal():
    assert run_cli(["betti", "--gens", "3,5", "--bound-override", "0"])[:2] == \
        (0, "(1, 0, 0)\n")
    assert run_cli(["gens", "--gens", "3,5", "--bound-override", "0"])[:2] == (0, "mu = 0\n")


def test_cli_import_adds_no_dataclasses_module():
    # numpy first, so that only what monocurve itself brings in is counted
    script = ("import json, sys, numpy\n"
              "before = set(sys.modules)\n"
              "import monocurve.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, check=True)
    added = json.loads(done.stdout)
    assert "monocurve.family" in added
    assert not [m for m in added if m.split(".")[0] == "dataclasses"], added


def test_table_examples_pass():
    for example in ("1", "2", "3"):
        code, out, _ = run_cli(["table", "--example", example])
        assert code == 0, out
        assert "PASS" in out


def test_table_mismatch_exits_2(monkeypatch):
    fake = family.load_expected_table(1)
    fake[29] = (1, 9, 9, 9, 0)
    monkeypatch.setattr(family, "load_expected_table", lambda example: fake)
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


def test_help_and_usage_errors_use_the_given_streams(capsys):
    code, out, err = run_cli(["--help"])
    assert code == 0 and out.startswith("usage: monocurve") and err == ""
    code, out, err = run_cli(["verify", "theorem-b", "--help"])
    assert code == 0 and "--abc" in out and err == ""
    code, out, err = run_cli(["betti"])
    assert code == 1 and out == ""
    assert err.startswith("usage: monocurve betti") and "error:" in err
    code, out, err = run_cli(["nonsense"])
    assert code == 1 and out == "" and "invalid choice" in err
    # nothing reached the process's own streams
    assert capsys.readouterr() == ("", "")


def test_theorem_checks_refuse_triples_with_common_factor():
    for argv in (["verify", "theorem-b", "--abc", "3,3,6", "--from", "1728", "--to", "1771"],
                 ["verify", "theorem-a", "--abc", "3,3,6", "--n-max", "2"]):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert "(3,3,6) has gcd(a,b,c) = 3" in err


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


def _traced_cli():
    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _command_names(parser, prefix=""):
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                names += _command_names(sub, f"{prefix}{name} ")
    return names or [prefix.strip()]


def test_tracer_bindings_exist():
    # the per-layer tracer wraps these names in place and skips any that are
    # gone, so a rename would silently zero its figures
    for module_name, attr, _ in _traced_cli().LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)
    assert sorted(_command_names(cli.build_parser())) == sorted(cli._DISPATCH)


def test_table_example_choices_follow_the_examples(monkeypatch):
    assert run_cli(["table", "--example", "4"])[:2] == (1, "")
    monkeypatch.setitem(family._EXAMPLES, 4, (2, 3, 5))
    assert cli.build_parser().parse_args(["table", "--example", "4"]).example == 4


def test_theorem_b_rows_call_is_complete_intersection_through_family(monkeypatch):
    calls = []
    original = family.is_complete_intersection

    def counted(S):
        calls.append(S.generators)
        return original(S)

    monkeypatch.setattr(family, "is_complete_intersection", counted)
    code, out, _ = run_cli(["verify", "theorem-b", "--abc", "2,3,5", "--from", "1000",
                            "--to", "1005", "--format", "json", "--jobs", "1"])
    assert code == 0
    assert len(calls) == len(json.loads(out)["payload"]["rows"]) == 6


def test_bound_override():
    code, out, _ = run_cli(["betti", "--gens", "30,32,35,40", "--format", "json",
                            "--bound-override", "150"])
    rows = json.loads(out)["payload"]["rows"]
    assert set(rows) == {"0", "70", "120"}


@pytest.mark.parametrize("command", ["betti", "gens"])
def test_bound_override_above_every_degree_gives_the_full_result(command):
    argv = [command, "--gens", "30,32,35,40", "--format", "json"]
    full = run_cli(argv)[:2]
    assert full[0] == 0
    assert run_cli(argv + ["--bound-override", str(10 ** 30)])[:2] == full


# exit code and sha256 of stdout of every report in every format; a change
# to how reports are rendered must not move a byte
GOLDEN_RENDERS = {
    "betti --gens 30,32,35,40": {
        "pretty": (0, "1320a8319f1d85f8f2653c1aaeb65cea31f85ce495a3799cde4999488380dd64"),
        "csv": (0, "5218237b1d178b2f59b594789c6b805e44c767a0c287e2bf9b6fce2ccbfaa775"),
        "json": (0, "39d348d0f9a6d2d47d1a9f77295054fa176a571d02e4799409170c587fcaed4b"),
    },
    "gens --gens 30,32,35,40": {
        "pretty": (0, "5d58df962387e66ea86f27276a250f910044f1f58add445ba9041ab8ba10399b"),
        "csv": (0, "d439503af44c41b446ee0cc397d893a6b599805fce8dd9842a07a4427bca1754"),
        "json": (0, "4a720008a334a6ed061d9f128904c2996287ccd8626c058d8275f329c4ec732a"),
    },
    "critical --gens 30,32,35,40": {
        "pretty": (0, "12fca6ee2a8c849e1165ff7ac1afac076a3615122f0ce6de898007d774dfcf24"),
        "csv": (0, "39daa30bc8dbd36fefa1ee63019e3888c58285059866b199a7550f5c28a69128"),
        "json": (0, "7aa2ce572c7be327446fff875453c98328d7c1fe130b7b78a55021d3a4b5312a"),
    },
    "scan --abc 2,3,5 --from 22 --to 51": {
        "pretty": (0, "25a75d078b8eeba6bee86107439a686fa4ab27be408d87311e43f9235857698c"),
        "csv": (0, "4f80aa5c81c00548f0c43f67c6798932fa239be9b65ab99ee8446ac382d5bcea"),
        "json": (0, "134f9463b8494bf898be7530093ca05a448e6adc27d253e2a041287c2b858e5a"),
    },
    "verify theorem-a --abc 2,3,5 --n-max 3": {
        "pretty": (0, "8ffa97a9cb1315c6cfe128d9eec3994bcce1e3aabcc8a96fdc79e63c966134cb"),
        "csv": (0, "edd6d7cc39682b258e5f4261a02f9d3eba45e748e41f51226707d66dfaa55445"),
        "json": (0, "389760aa3e9f36aff4c5b6068b52d36fec439c358dac16d8b30d4bd5ba89f821"),
    },
    "verify theorem-a --abc 12,3,1 --n-max 3": {
        "pretty": (2, "3860f1990a3f65aa11a3640b91477b19e74c22c0c5923a40364f252fef7d5535"),
        "csv": (2, "2e5daa9cc3878eb9c7e31609c42272fc43484daadddb0a2233b2e6981198b350"),
        "json": (2, "8ff9ab82c838ccbe116810a14aa6152fedcb745d01d6dc940797213d80d86856"),
    },
    "verify theorem-b --abc 2,3,5 --from 1000 --to 1005": {
        "pretty": (0, "3d6be0227fe6b67bd5940016889e6289b9affc254de8f6aa7c0dd102d1962985"),
        "csv": (0, "939920e8ddea78cfaa2988df9706bec3498ab59b4ce1f9202e144e084fcb87c0"),
        "json": (0, "1d52009300eb163e11759883d83c72f14d7e8b05142b3f385d308e1e198d3548"),
    },
    "verify hs3 --q 12 --a 1 --b 2": {
        "pretty": (0, "fd8a70babb164f6c87a030b27f1e1c01726bb806443bee944506f99e373a6c34"),
        "csv": (0, "8666d6de727395ca4e14ac856acd0dcb603b4396227789c97bf9900845727664"),
        "json": (0, "86fcf065774752b9456daaf6bc762899902a40a40607c8302adb89f84cfca0fd"),
    },
    "verify hs3 --q-max 30 --ab-max 5": {
        "pretty": (0, "64c2bb7abdd253f4a70c7c418122baa4f6b45cf89b3461c0c933e2462f9a8995"),
        "csv": (0, "d5dcbee8d18898b1bd6b153dd3942d315720d53a179bbe76596fcff71bfaaf47"),
        "json": (0, "2f0b6b095472173e2592d712657480f40863bb588a5a9b0f6419160a7e7f2bcf"),
    },
    "table --example 1": {
        "pretty": (0, "835535e4956301ff7e8ce8229b6732f613baa69c312d70b5305c5499348c0ff2"),
        "csv": (0, "54eab8da4b494e04fac446071a5733d014ba63f941ec2a402998e1312dabf84a"),
        "json": (0, "5e2993d1a85e440dd61cf2070a33407867b4ed1fd620776ae258632f98cda6e6"),
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RENDERS))
@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
def test_golden_render(command, fmt):
    code, out, _ = run_cli(command.split() + ["--format", fmt])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_RENDERS[command][fmt]


# the $defs entry that each GOLDEN_RENDERS command's json payload must match
PAYLOAD_DEFS = {
    "betti --gens 30,32,35,40": "payload_betti",
    "gens --gens 30,32,35,40": "payload_gens",
    "critical --gens 30,32,35,40": "payload_critical",
    "scan --abc 2,3,5 --from 22 --to 51": "payload_scan",
    "verify theorem-a --abc 2,3,5 --n-max 3": "payload_verify_theorem_a",
    "verify theorem-a --abc 12,3,1 --n-max 3": "payload_verify_theorem_a",
    "verify theorem-b --abc 2,3,5 --from 1000 --to 1005": "payload_verify_theorem_b",
    "verify hs3 --q 12 --a 1 --b 2": "payload_verify_hs3_single",
    "verify hs3 --q-max 30 --ab-max 5": "payload_verify_hs3_sweep",
    "table --example 1": "payload_table",
}


def test_every_payload_def_is_checked():
    assert set(PAYLOAD_DEFS) == set(GOLDEN_RENDERS)
    schema = load_schema()
    assert set(PAYLOAD_DEFS.values()) == {k for k in schema["$defs"]
                                          if k.startswith("payload_")}
    # the benchmark validates every document against this top-level rule
    assert schema["properties"]["payload"] == {"type": "object"}


@pytest.mark.parametrize("command", sorted(PAYLOAD_DEFS))
def test_json_payload_matches_its_command_schema(command, monkeypatch):
    _, out, _ = run_cli(command.split() + ["--format", "json"])
    doc = json.loads(out)
    schema = load_schema()
    schema["properties"]["payload"] = {"$ref": f"#/$defs/{PAYLOAD_DEFS[command]}"}
    jsonschema.validate(doc, schema)
    # the benchmark's validator raises SchemaError on a keyword it lacks
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    assert importlib.import_module("checks").validate(doc, schema, schema) == []


def test_main_freezes_the_import_heap_before_run(monkeypatch):
    for code in (0, 1, 2):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "run", lambda code=code: calls.append("run") or code)
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert calls == ["freeze", "run"]
        assert exit_info.value.code == code


def test_run_freezes_nothing():
    before = gc.get_freeze_count()
    assert run_cli(["betti", "--gens", "30,32,35,40"])[0] == 0
    assert gc.get_freeze_count() == before


def _entry_point(argv):
    """(exit code, stdout bytes, stderr text) of ``python -m monocurve.cli``."""
    done = subprocess.run([sys.executable, "-m", "monocurve.cli", *argv],
                          env=_src_env(), capture_output=True)
    return done.returncode, done.stdout, done.stderr.decode()


# through main() and the interpreter's exit, as the console script runs
@pytest.mark.parametrize("command, fmt, extra", [
    ("scan --abc 2,3,5 --from 22 --to 51", "json", ["--jobs", "1"]),
    ("scan --abc 2,3,5 --from 22 --to 51", "json", ["--jobs", "2"]),
    ("verify theorem-a --abc 12,3,1 --n-max 3", "pretty", []),
    ("table --example 1", "csv", []),
])
def test_entry_point_matches_golden_render(command, fmt, extra):
    code, out, err = _entry_point(command.split() + ["--format", fmt, *extra])
    assert (code, hashlib.sha256(out).hexdigest()) == GOLDEN_RENDERS[command][fmt]
    assert sum(line.startswith("elapsed_ms=") for line in err.splitlines()) == 1


def test_entry_point_usage_error():
    code, out, err = _entry_point(["betti"])
    assert code == 1 and out == b""
    assert "error:" in err and "elapsed_ms=" not in err
