"""The BENCH_*.json merge of two checkouts' perfbench reports."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "merge_perfbench", ROOT / "tools" / "merge_perfbench.py")
merge_perfbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(merge_perfbench)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def report(sha, ops, p50, trace=0):
    metrics = {"ops_per_s": ops, "op_p50_ms": p50, "failed_ratio": 0.0,
               "inconclusive_ratio": 0.5}
    return {"meta": {"git_sha": sha, "src_sha256": sha * 2, "python": "3.11.7",
                     "nproc": 2, "trace": trace},
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def test_pairs_by_seed_and_counts_wins():
    parent = {("suites", s, 0): report("p", ops, 2.0)
              for s, ops in ((1, 10.0), (2, 12.0), (3, 11.0), (9, 50.0))}
    change = {("suites", s, 0): report("c", ops, p50)
              for s, ops, p50 in ((1, 20.0, 1.0), (2, 12.0, 2.0), (3, 9.0, 3.0))}
    parent[("suites", 42, 1)] = report("p", 1.0, 1.0, trace=1)
    change[("suites", 42, 1)] = report("c", 2.0, 1.0, trace=1)
    merged = merge_perfbench.merge(parent, change, END_TO_END)
    suites = merged["workloads"]["suites"]
    assert suites["seeds"] == [1, 2, 3]
    ops = suites["metrics"]["ops_per_s"]
    assert ops["parent"]["runs"] == [10.0, 12.0, 11.0]
    assert ops["parent"]["median"] == 11.0
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (10.5, 11.5)
    assert ops["change_wins"] == 1  # the tie at seed 2 counts for neither side
    assert suites["metrics"]["op_p50_ms"]["change_wins"] == 1
    assert suites["inconclusive_ratio"]["change"] == [0.5, 0.5, 0.5]
    assert merged["parent"]["git_sha"] == "p" and merged["change"]["git_sha"] == "c"
    assert merged["traced"]["suites"]["metrics"]["ops_per_s"] == {
        "unit": "u", "parent": 1.0, "change": 2.0}


def test_one_side_must_come_from_one_source_tree():
    parent = {("suites", 1, 0): report("p", 1.0, 1.0), ("suites", 2, 0): report("q", 1.0, 1.0)}
    change = {("suites", 1, 0): report("c", 1.0, 1.0)}
    with pytest.raises(SystemExit):
        merge_perfbench.merge(parent, change, END_TO_END)


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS_PER_WORKLOAD = 10


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_are_complete(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    parent, change = bench["parent"], bench["change"]
    for side in (parent, change):
        assert side["git_sha"] and side["src_sha256"]
    assert parent["python"] == change["python"]
    assert parent["nproc"] == change["nproc"]
    for workload in BENCHMARK["workloads"]:
        entry = bench["workloads"][workload["name"]]
        assert len(entry["seeds"]) == PAIRS_PER_WORKLOAD, workload["name"]
        for metric in BENCHMARK["end_to_end"]:
            runs = entry["metrics"][metric["name"]]
            assert runs["pairs"] == PAIRS_PER_WORKLOAD
            for side in ("parent", "change"):
                assert len(runs[side]["runs"]) == PAIRS_PER_WORKLOAD, (
                    workload["name"], metric["name"], side)
