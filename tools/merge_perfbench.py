"""Merge the perfbench reports of two checkouts into one BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/merge_perfbench.py --label LABEL --parent DIR --change DIR

DIR is the root of a checkout in which ``perfbench/run.py`` has run; its
reports are read from ``DIR/.perfbench/<workload>-seed<seed>-trace<t>.json``.
Untraced runs are paired by workload and seed, and only seeds present
on both sides count.  For each end-to-end metric of ``BENCHMARK.json``
the file records each side's runs, median and quartiles, and how many
pairs the change won (ties count for neither side); ``failed_ratio`` and
``inconclusive_ratio`` are listed per run.  Traced runs (``--trace 1``)
present on both sides add their per-layer metrics side by side.  Each
side's git SHA, source digest, Python version and processor count come
from the report metadata.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
RATIOS = ("failed_ratio", "inconclusive_ratio")
META_KEYS = ("git_sha", "src_sha256", "python", "mpmath", "nproc", "cpus_usable", "max_bits")


def load_reports(checkout: Path) -> dict:
    """(workload, seed, trace) -> report, for every report in the checkout."""
    reports = {}
    for path in sorted((checkout / ".perfbench").glob("*.json")):
        match = REPORT_NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            reports[key] = json.loads(path.read_text(encoding="utf-8"))
    return reports


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side_meta(reports: dict) -> dict:
    """The metadata of one side, whose reports must share one source tree."""
    metas = [r["meta"] for r in reports.values()]
    if len({m["src_sha256"] for m in metas}) > 1:
        raise SystemExit("error: reports of different sources on one side")
    return {key: metas[0].get(key) for key in META_KEYS}


def merge(parent: dict, change: dict, end_to_end: list) -> dict:
    workloads = {}
    for workload in sorted({w for w, _, t in parent if t == 0}):
        seeds = sorted(s for w, s, t in parent if w == workload and t == 0
                       and (w, s, 0) in change)
        if not seeds:
            continue
        sides = {"parent": [parent[(workload, s, 0)] for s in seeds],
                 "change": [change[(workload, s, 0)] for s in seeds]}
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            runs = {side: [r["metrics"][name]["value"] for r in reps]
                    for side, reps in sides.items()}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
            entry = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"]}
            entry.update({side: summary(values) for side, values in runs.items()})
            entry["change_wins"] = wins
            entry["pairs"] = len(seeds)
            entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
            metrics[name] = entry
        ratios = {name: {side: [r["metrics"][name]["value"] for r in reps]
                         for side, reps in sides.items()}
                  for name in RATIOS}
        workloads[workload] = {"seeds": seeds, "metrics": metrics, **ratios}

    traced = {}
    for workload, seed, trace in sorted(parent):
        if trace == 1 and (workload, seed, 1) in change:
            p, c = parent[(workload, seed, 1)]["metrics"], change[(workload, seed, 1)]["metrics"]
            traced[workload] = {
                "seed": seed,
                "metrics": {name: {"unit": p[name]["unit"], "parent": p[name]["value"],
                                   "change": c[name]["value"]}
                            for name in p if name in c},
            }
    return {"parent": side_meta(parent), "change": side_meta(change),
            "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED [--trace 1]",
            "workloads": workloads, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    args = parser.parse_args(argv)
    parent, change = load_reports(args.parent), load_reports(args.change)
    if not parent or not change:
        print("error: no perfbench reports on one side", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"label": args.label, **merge(parent, change, benchmark["end_to_end"])}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
