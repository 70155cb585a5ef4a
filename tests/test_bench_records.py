"""The committed benchmark records.

Each workload named in BENCHMARK.json has a BENCH_<workload>.json at the
root of the repository.  It holds the two records that
``perfbench/run.py --workload <workload> --seed 1 --seconds 20`` writes
under perfbench/out/: ``trace0``, the untraced run with the end-to-end
metrics, and ``trace1``, the traced run with the per-layer metrics.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_both_records_are_committed_and_correct(workload):
    bench = json.loads((ROOT / f"BENCH_{workload}.json").read_text(
        encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = bench[f"trace{trace}"]
        env = record["env"]
        assert (env["workload"], env["seed"], env["trace"]) == (workload, 1,
                                                                trace)
        assert record["result"]["correct"]
        assert record["result"]["failed"] == 0
        metrics = record["result"]["metrics"]
        for m in SPEC[section]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    end_to_end = bench["trace0"]["result"]["metrics"]
    assert all(end_to_end[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
