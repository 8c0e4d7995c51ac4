"""Smoke run of the benchmark: every workload at its smallest size.

Usage, from the root of a checkout: python3 perfbench/smoke.py

Runs one cycle of each workload, untraced and traced, and checks that
every metric named in BENCHMARK.json is printed with its unit, that
``failed_ratio`` is printed and 0, and that no op failed.  It also checks
that the suites workload, which runs one check case per op, replays
exactly the cases and verdicts of the harness's own suite runner.
Exits 1 on the first problem found.
"""

import json
import os
import re
import subprocess
import sys

from workloads import ROOT, SRC, WORKLOADS, Suites

sys.path.insert(0, str(SRC))
os.environ.pop("EIDOTHERMO_MAX_BITS", None)


def problem(message: str) -> None:
    print(f"smoke: {message}", file=sys.stderr)
    sys.exit(1)


def check_run(name: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--cycles", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        problem(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problem(f"{name} --trace {trace}: {lines[-1]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problem(f"{name} --trace {trace}: metrics {got} differ from BENCHMARK.json {wanted}")
    report = "\n".join(lines[:-1])
    for metric, unit in wanted.items():
        if not re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}$", report, re.M):
            problem(f"{name} --trace {trace}: {metric} not printed with unit {unit}")
    if not trace:
        if not re.search(r"^  failed_ratio +0 ratio$", report, re.M):
            problem(f"{name}: failed_ratio is not printed as 0")
        if not re.search(r"^  inconclusive_ratio +\S+ ratio$", report, re.M):
            problem(f"{name}: inconclusive_ratio is not printed")
    print(f"smoke: {name} --trace {trace}: {result['attempted']} ops, metrics ok")


def check_suite_replay(cases: int = 2) -> None:
    """Suites.op gives, case by case, what run_axiom_report and
    run_theorem_report give for the same models and suite seed."""
    from eidothermo import harness

    w = Suites(0, cases)
    fresh = Suites(0, cases)
    seed = w.suite_seed
    checks = harness.AXIOM_CHECKS + harness.THEOREM_CHECKS
    config = harness.SuiteConfig(cases_per_check=cases, seed=seed)
    for model_index, model in enumerate(w.models):
        expected = {}
        for report in (harness.run_axiom_report(model, config),
                       harness.run_theorem_report(model, config)):
            for result in report.results:
                found = {r.seed: ("counterexample", r.inputs, r.observed)
                         for r in result.counterexamples}
                found.update({s: ("inconclusive", note) for s, note in result.inconclusive})
                for index in range(cases):
                    s = harness._case_seed(seed, result.check_id, index)
                    expected[result.check_id, index] = found.get(s, ("pass",))
        for index in range(cases):
            for check_index, (check_id, _) in enumerate(checks):
                i = w.rounds.index(index) * w.cycle + model_index * w.n_checks + check_index
                if fresh.op(i) != expected[check_id, index]:
                    problem(f"suites op {i} ({model.name}, {check_id}, case {index}) "
                            "differs from the harness's own suite run")
    print("smoke: suites ops replay the harness's suite runs")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problem("BENCHMARK.json workloads differ from workloads.py")
    check_suite_replay()
    for name in WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec)
    print("smoke: ok")


if __name__ == "__main__":
    main()
