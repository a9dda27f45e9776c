"""Committed benchmark records (BENCH_*.json at the repository root) stay
readable against the benchmark they were measured with.

Each record carries its environment, its method and per-workload
end-to-end results. A workload there must be one BENCHMARK.json runs, and
each of its entries an end-to-end metric BENCHMARK.json declares, apart from
``failed_operations``: the count of failed operations the runner reports
next to the metrics, which the benchmark compares as a share. The summary
statistics must be those of the recorded runs, and a claimed gain must be
the one the record's runs show. BENCHMARK.json is only read.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[path.name for path in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_record_has_environment_method_and_end_to_end_blocks(record):
    for block in ("environment", "method", "end_to_end"):
        assert isinstance(record.get(block), dict) and record[block], block
    assert record["end_to_end"].keys() <= WORKLOADS


def test_workloads_name_only_declared_end_to_end_metrics(record):
    for workload, metrics in record["end_to_end"].items():
        assert metrics.keys() - {"failed_operations"} <= METRICS.keys(), workload
        for name, entry in metrics.items():
            if name != "failed_operations":
                assert entry["better"] == METRICS[name], (workload, name)


def test_summaries_are_those_of_the_runs(record):
    for workload, metrics in record["end_to_end"].items():
        for name, entry in metrics.items():
            if name == "failed_operations":
                continue
            for side in ("parent", "change"):
                stats, runs = entry[side], entry[side]["runs"]
                q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert len(runs) == entry["pairs"], (workload, name, side)
                assert stats["median"] == statistics.median(runs), (workload, name, side)
                assert (stats["q1"], stats["q3"]) == (q1, q3), (workload, name, side)
                assert stats["iqr"] == pytest.approx(q3 - q1, rel=1e-12, abs=1e-300)
            assert entry["change_wins"] + entry["ties"] <= entry["pairs"], (workload, name)


def test_claim_matches_the_recorded_runs(record):
    claim = record.get("claimed")
    if not claim:
        return
    entry = record["end_to_end"][claim["workload"]][claim["metric"]]
    assert claim["parent_median"] == entry["parent"]["median"]
    assert claim["change_median"] == entry["change"]["median"]
    assert claim["parent_iqr"] == entry["parent"]["iqr"]
    assert (claim["change_wins"], claim["pairs"]) == (entry["change_wins"], entry["pairs"])
