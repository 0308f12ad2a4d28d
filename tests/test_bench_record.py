"""Shape of the committed benchmark records (BENCH_*.json at the repo root).

Only the layout, units and signs are checked, never a timing, so these
tests cannot flake on a slow or busy machine.
"""

import json
import numbers
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _positive(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and x > 0


def test_bench_records_exist():
    assert RECORDS


def test_bench_records_have_every_workload_and_metric():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    for path in RECORDS:
        doc = json.loads(path.read_text())
        assert {"change", "parent_commit", "command", "method", "machine",
                "workloads"} <= set(doc), path.name
        machine = doc["machine"]
        assert {"nproc", "cpus_usable", "cpu_model", "python", "numpy"} <= set(machine)
        assert _positive(machine["nproc"]) and _positive(machine["cpus_usable"])
        assert set(doc["workloads"]) == workloads, path.name
        for name, wl in doc["workloads"].items():
            where = f"{path.name} {name}"
            pairs = wl["pairs"]
            assert isinstance(pairs, int) and pairs > 0, where
            assert len(wl["seeds"]) == pairs and all(_positive(s) for s in wl["seeds"])
            assert set(wl["metrics"]) == set(metrics), where
            for metric, entry in wl["metrics"].items():
                spec = metrics[metric]
                assert entry["unit"] == spec["unit"], (where, metric)
                assert entry["better"] == spec["better"], (where, metric)
                assert isinstance(entry["change_wins"], int)
                assert 0 <= entry["change_wins"] <= pairs, (where, metric)
                for side in ("parent", "change"):
                    stats = entry[side]
                    values = [stats["q1"], stats["median"], stats["q3"], *stats["runs"]]
                    assert all(_positive(v) for v in values), (where, metric, side)
                    assert len(stats["runs"]) == pairs, (where, metric, side)
                    assert stats["q1"] <= stats["median"] <= stats["q3"]
