"""The eidothermo benchmark: three user-facing workloads and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is ``irrev-brackets``, ``suites``, ``cli-szilard`` or ``all`` (each
of the three in turn, in its own process).  The seed defaults to the
acceptance seed 42.  See ``workloads.py`` for what each workload runs
and which caches are warm within it.

With ``--trace 0`` the workload runs untraced for a fixed number of
whole cycles, about S seconds' worth at the commit that defined the
benchmark (see ``workloads.py``), and the end-to-end metrics are
reported: ``setup_s`` (median of several set-ups, each in a fresh
interpreter), ``ops_per_s`` (median over windows of whole cycles, about
five seconds each), ``op_p50_ms``, ``op_tail_ms`` (the highest percentile with at
least ten samples beyond it), ``peak_rss_mb``, ``failed_ratio`` and
``inconclusive_ratio``.

Times are CPU time (user plus system) of the process doing the work:
this process for in-process ops and set-ups, the child interpreter for
CLI ops and the CLI set-up.  On a shared machine the wall time of an
unchanged op also counts the time the process waits for a CPU, which
varies far more than the work does.  Wall-clock op times are in the
report's notes.

With ``--trace 1`` a fixed number of cycles (each workload's
``trace_cycles``) runs twice on fresh set-ups, untraced and with every
call into the package's layers wrapped in spans (``tracer.py``).  The
per-layer metrics come from the traced pass, the tracing overhead is
the ratio of the two passes' CPU times, and every traced output must
equal its untraced output.  The spans are written to ``.perfbench/``.
CLI commands run in this process in both passes, so that their handlers
can be traced.

``--cycles N`` overrides the cycle count of either mode; the smoke run
uses it to run each workload at its smallest size.

Every op's output is checked.  A full report with metadata goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark removes
``EIDOTHERMO_MAX_BITS`` from its environment, so comparisons stop at
the 4096-bit default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import ROOT, SRC, WORKLOADS, child_env, cycles_for

OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
WINDOW_S = 5.0
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="run this many cycles instead of the default count")
    return parser.parse_args(argv)


# -- measuring ----------------------------------------------------------


def children_cpu_s() -> float:
    """CPU time of all waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Pass:
    """CPU times, wall times, outputs and failures of one run of ops."""

    def __init__(self):
        self.times = []
        self.walls = []
        self.outputs = []
        self.failures = []
        self.labels = []


def run_one(w, op, clock, i, result: Pass, tracer=None) -> None:
    """Run and check op ``i``, timed on ``clock``; with a tracer, inside
    a root span."""
    if tracer is not None:
        tracer.op = i
        tracer.enter(tracer.name_id(w.span(i)))
    c0 = clock()
    t0 = time.perf_counter()
    try:
        output = op(i)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        output = None
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        reason = None
    wall = time.perf_counter() - t0
    elapsed = clock() - c0
    if tracer is not None:
        tracer.exit()
    if reason is None:
        reason = w.check(i, output)
    if reason is not None:
        result.failures.append((i, reason))
    result.times.append(elapsed)
    result.walls.append(wall)
    result.outputs.append(output)
    result.labels.append(w.label(i))


def run_ops(w) -> Pass:
    """Run ops 0 to ``w.ops - 1``."""
    result = Pass()
    clock = children_cpu_s if w.ops_in_children else time.process_time
    for i in range(w.ops):
        run_one(w, w.op, clock, i, result)
    return result


def failed_ops(failures, attempted) -> int:
    """Ops with at least one failure; a failure not tied to one op (an
    undetected mutant) counts as one op."""
    return min(attempted, len({i for i, _ in failures if i is not None})
               + sum(1 for i, _ in failures if i is None))


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def child_printed_seconds(argv) -> float:
    """What a child interpreter prints as its last line, as a float."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def child_cpu_seconds(argv) -> float:
    """CPU time of one child interpreter, start to exit."""
    start = children_cpu_s()
    subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                   timeout=PROBE_TIMEOUT_S, check=True)
    return children_cpu_s() - start


def setup_seconds(w, seed: int, cycles: int) -> float:
    """CPU time of one set-up of the workload in a fresh interpreter."""
    if w.ops_in_children:
        # What every CLI invocation pays before its command runs.
        return child_cpu_seconds([sys.executable, "-c", "import eidothermo.cli"])
    probe = str(ROOT / "perfbench" / "setup_probe.py")
    return child_printed_seconds([sys.executable, probe, w.name, str(seed), str(cycles)])


def cli_import_seconds() -> float:
    code = ("import time; t = time.process_time(); import eidothermo.cli; "
            "print(repr(time.process_time() - t))")
    return child_printed_seconds([sys.executable, "-c", code])


def peak_rss_mb(w) -> float:
    who = resource.RUSAGE_CHILDREN if w.ops_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def by_label(p: Pass) -> dict:
    groups = {}
    for label, t, wall in zip(p.labels, p.times, p.walls):
        groups.setdefault(label, []).append((t, wall))
    return {label: {"ops": len(ts),
                    "p50_ms": statistics.median(t for t, _ in ts) * 1e3,
                    "wall_p50_ms": statistics.median(wall for _, wall in ts) * 1e3,
                    "total_s": sum(t for t, _ in ts)}
            for label, ts in groups.items()}


# -- the two kinds of run -----------------------------------------------


def window_rates(p: Pass, w) -> list:
    """Ops per second in consecutive windows of whole cycles.  The run is
    cut into as many windows of about WINDOW_S nominal cycle time as it
    holds, the cycles shared out evenly, so the windows depend on the
    cycle count only and never on how fast the ops ran."""
    cycles = w.ops // w.cycle
    windows = max(1, cycles // max(1, round(WINDOW_S / w.nominal_cycle_s)))
    rates = []
    for j in range(windows):
        times = p.times[j * cycles // windows * w.cycle:(j + 1) * cycles // windows * w.cycle]
        rates.append(len(times) / sum(times))
    return rates


def untraced_run(name, seed, seconds, cycles):
    cls = WORKLOADS[name]
    cycles = cycles or cycles_for(cls, seconds)
    w = cls(seed, cycles)
    setups = [setup_seconds(w, seed, cycles) for _ in range(SETUP_SAMPLES)]
    p = run_ops(w)
    rates = window_rates(p, w)
    failures = p.failures + [(None, f) for f in w.final_failures()]
    n = len(p.times)
    value, percentile = tail(p.times)
    inconclusive = sum(1 for out in p.outputs if out is not None and w.inconclusive(out))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p.times) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(w), "MB"),
    }
    extra = {
        "failed_ratio": (failed_ops(failures, n) / n, "ratio"),
        "inconclusive_ratio": (inconclusive / n, "ratio"),
    }
    notes = {
        "ops": n,
        "cycles": cycles,
        "cpu_seconds_measured": sum(p.times),
        "wall_seconds_measured": sum(p.walls),
        "wall_op_p50_ms": statistics.median(p.walls) * 1e3,
        "window_ops_per_s": rates,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": TAIL_BEYOND if n > TAIL_BEYOND else 0,
        "setup_samples_s": setups,
        "by_label": by_label(p),
    }
    lines = [
        f"{name}: {n} ops ({cycles} cycles), {failed_ops(failures, n)} failed, "
        f"{inconclusive} inconclusive; times are CPU times",
        *(f"  {k:<19} {v:.6g} {u}" for k, (v, u) in {**metrics, **extra}.items()),
        f"  op_tail_ms is p{percentile:.2f} of {n} samples "
        f"({notes['op_tail_samples_beyond']} beyond)",
        f"  ops_per_s is the median of {len(rates)} windows of whole cycles; "
        f"wall-clock op p50 {notes['wall_op_p50_ms']:.6g} ms",
        f"  setup_s is the median of {SETUP_SAMPLES} set-ups in fresh interpreters",
    ]
    return metrics, extra, notes, failures, n, lines


def layer_metrics(tracer, ops, overhead, import_s) -> dict:
    from tracer import check_slug
    from workloads import CLI_COMMANDS, suite_model_classes
    from eidothermo import harness

    t = tracer
    m = {}

    def count(name, value):
        m[name] = (value, "count")

    def secs(name, value):
        m[name] = (value, "s")

    pf_calls = t.stat("states.prime_factorize", "calls")
    pfs_calls = t.stat("states.prime_factors", "calls")
    count("states.prime_factorize.calls", pf_calls)
    secs("states.prime_factorize.self_s", t.stat("states.prime_factorize", "self_s"))
    count("states.prime_factors.calls", pfs_calls)
    m["states.factor_cache_hit_ratio"] = (
        1 - pf_calls / pfs_calls if pfs_calls else 0.0, "ratio")
    count("states.combine.calls", t.stat("states.combine", "calls"))
    count("states.combine.members_out", t.counts["states.combine.members_out"])
    count("oracle.make_information_state.calls",
          t.stat("oracle.make_information_state", "calls"))
    secs("oracle.make_information_state.self_s",
         t.stat("oracle.make_information_state", "self_s"))
    count("oracle.make_information_state.members_out",
          t.counts["oracle.make_information_state.members_out"])
    for op in ("add", "mul"):
        count(f"exact.{op}.calls", t.stat(f"exact.{op}", "calls"))
        secs(f"exact.{op}.self_s", t.stat(f"exact.{op}", "self_s"))
    results = t.counts["exact.results"]
    m["exact.exponents_mean"] = (
        t.counts["exact.exponents_total"] / results if results else 0.0, "count")
    count("exact.exponents_max", t.exponents_max)
    count("exact.compare.calls", t.stat("exact.compare", "calls"))
    count("exact.compare.ladder_calls", t.counts["exact.compare.ladder_calls"])
    secs("exact.compare.self_s", t.stat("exact.compare", "self_s"))
    secs("exact.decimal_of.self_s", t.stat("exact.decimal_of", "self_s"))
    arrows = 0
    for model in ("macro", "quantum"):
        calls = t.stat(f"{model}.arrow_combined", "calls")
        arrows += calls
        count(f"{model}.arrow_combined.calls", calls)
        secs(f"{model}.arrow_combined.self_s", t.stat(f"{model}.arrow_combined", "self_s"))
    m["engine.arrows_per_op"] = (arrows / ops if ops else 0.0, "count")
    for fn in ("irreversibility_estimate", "min_information_to_transform",
               "shannon_decomposition", "entropy_uniform"):
        secs(f"engine.{fn}.self_s", t.stat(f"engine.{fn}", "self_s"))
    for check_id, _ in harness.AXIOM_CHECKS + harness.THEOREM_CHECKS:
        slug = f"harness.{check_slug(check_id)}"
        secs(f"{slug}.s", t.stat(slug, "s"))
    for cls in suite_model_classes():
        secs(f"harness.model.{cls.name}.s", t.stat(f"harness.model.{cls.name}", "s"))
    count("scenario.parse_scenario.calls", t.stat("scenario.parse_scenario", "calls"))
    secs("scenario.parse_scenario.self_s", t.stat("scenario.parse_scenario", "self_s"))
    secs("cli.import_s", import_s)
    for command in ["classify"] + sorted({c[0] for c in CLI_COMMANDS}):
        secs(f"cli.{command}.self_s", t.stat(f"cli.{command}", "self_s"))
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced_run(name, seed, seconds, cycles):
    import eidothermo.cli  # noqa: F401  (every layer is imported before any pass is timed)
    from tracer import Tracer

    # Each op runs untraced on one set-up and traced on another, the two
    # alternating op by op (and in turn first), so that both passes see
    # the same machine conditions and the same warmed module-level state.
    # The op count is fixed: ``seconds`` plays no part in a traced run.
    cls = WORKLOADS[name]
    cycles = cycles or cls.trace_cycles
    w, w2 = cls(seed, cycles), cls(seed, cycles)
    clock = time.process_time
    plain, traced = Pass(), Pass()
    tracer = Tracer()
    n = w.ops
    for i in range(n):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    run_one(w2, w2.trace_op, clock, i, traced, tracer)
                finally:
                    tracer.uninstall()
            else:
                run_one(w, w.trace_op, clock, i, plain)
    failures = plain.failures + [(None, f) for f in w.final_failures()]
    failures += [(i, f"traced: {reason}") for i, reason in traced.failures]
    failures += [(None, f"traced: {f}") for f in w2.final_failures()]
    mismatches = [i for i in range(n) if traced.outputs[i] != plain.outputs[i]]
    failures += [(i, "traced output differs from the untraced output") for i in mismatches]

    overhead = sum(traced.times) / sum(plain.times) - 1
    import_s = statistics.median(cli_import_seconds() for _ in range(IMPORT_SAMPLES))
    metrics = layer_metrics(tracer, n, overhead, import_s)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_path)
    notes = {
        "ops": n,
        "untraced_s": sum(plain.times),
        "traced_s": sum(traced.times),
        "spans": len(tracer.span_start),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    lines = [
        f"{name} traced: {n} ops, {failed_ops(failures, n)} failed, "
        f"{notes['spans']} spans in {notes['trace_file']}",
        f"  tracing overhead {overhead:.3f} ({notes['traced_s']:.3f} CPU s traced, "
        f"{notes['untraced_s']:.3f} CPU s untraced); traced outputs "
        + (f"of {len(mismatches)} ops DIFFER from" if mismatches else "equal")
        + " the untraced outputs",
        *(f"  {k:<45} {v:.6g} {u}" for k, (v, u) in metrics.items()),
    ]
    return metrics, {}, notes, failures, n, lines


# -- reporting ----------------------------------------------------------


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eidothermo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_metadata(args, max_bits_env) -> dict:
    from eidothermo.exact import max_precision_bits

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": args.cycles,
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "EIDOTHERMO_MAX_BITS": None,
        "EIDOTHERMO_MAX_BITS_removed": max_bits_env,
        "max_bits": max_precision_bits(),
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             *(["--cycles", str(args.cycles)] if args.cycles else [])],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eidothermo" / "__init__.py").is_file():
        print(f"error: no eidothermo sources under {SRC}", file=sys.stderr)
        return 2
    max_bits_env = os.environ.pop("EIDOTHERMO_MAX_BITS", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import eidothermo

    if not os.path.realpath(eidothermo.__file__).startswith(str(SRC) + os.sep):
        print(f"error: eidothermo imported from {eidothermo.__file__}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else untraced_run
    metrics, extra, notes, failures, attempted, lines = run(
        args.workload, args.seed, args.seconds, args.cycles)
    meta = run_metadata(args, max_bits_env)
    report = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "notes": notes,
        "failures": [{"op": i, "reason": f} for i, f in failures],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("\n".join(lines))
    for i, reason in failures[:10]:
        print(f"  FAILED op {i}: {reason}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops(failures, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
