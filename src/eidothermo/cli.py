"""Command-line surface over scenario files.

`eidothermo <command> --scenario FILE ...` parses the scenario, builds
the model it declares, and answers questions about named states and
eidostates: process classification, exact entropies, entropic
probabilities, irreversibility brackets, demon planning, the erasure
bound, and the axiom and theorem suites.

Output is plain text by default.  With `--format structured` each
command instead prints a JSON document with the fields command, inputs,
result, and diagnostics; every value is a string or an integer, keys
are sorted, and the same command on the same scenario (and seed)
produces byte-identical output.  Exit codes: 0 on success or a passing
suite, 1 when a suite finds counterexamples, 2 on any input error,
including inputs too large or too deep to process (`--qmax` above
MAX_QMAX, `--cases` above MAX_CASES, recursion or enumeration limits).
Error messages longer than MAX_ERROR_CHARS keep their start and end and
elide the middle.

Entropy comparisons climb a precision ladder capped by the
EIDOTHERMO_MAX_BITS environment variable (bits, default 4096).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import mpmath

from .engine import (
    DEFAULT_BITS,
    PROBABILITY_DIGITS,
    MinInfoStatus,
    SearchBoundExceeded,
    classify,
    entropic_probability,
    entropy_uniform,
    irreversibility_estimate,
    landauer_check,
    min_information_to_transform,
    shannon_decomposition,
)
from .exact import decimal_of
from .harness import SuiteConfig, SuiteReport, run_axiom_report, run_theorem_report
from .scenario import Scenario, member_names, parse_scenario
from .states import Process, ResourceCapError

__all__ = ["main"]

#: Upper bounds on the search and suite sizes the CLI accepts.
MAX_QMAX = 4096
MAX_CASES = 10_000

#: Longest error message printed whole.
MAX_ERROR_CHARS = 240


@dataclass
class CommandOutput:
    """What a handler produced: one payload, rendered two ways."""

    command: str
    inputs: Dict[str, object]
    result: Dict[str, object]
    text: List[str]
    diagnostics: List[str] = field(default_factory=list)
    exit_code: int = 0


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _mpf_decimal(value, bits: int = DEFAULT_BITS) -> str:
    with mpmath.workprec(bits):
        return mpmath.nstr(value, PROBABILITY_DIGITS, strip_zeros=False)


def _cmd_classify(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    a = sc.lookup_eidostate(args.a)
    b = sc.lookup_eidostate(args.b)
    kind = classify(Process(a, b), oracle)
    return CommandOutput(
        command="classify",
        inputs={"a": args.a, "b": args.b, "model": sc.model},
        result={"process_type": kind.label},
        text=[kind.label],
    )


def _cmd_entropy(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    e = sc.lookup_eidostate(args.e)
    value = entropy_uniform(e, oracle)
    exponents = [_frac(x) for x in value.exponents]
    decimal = decimal_of(value, PROBABILITY_DIGITS)
    return CommandOutput(
        command="entropy",
        inputs={"eidostate": args.e, "model": sc.model},
        result={
            "decimal": decimal,
            "exponents": exponents,
            "members": len(e),
            "rational": int(value.is_rational),
        },
        text=[
            "exponents: {" + ", ".join(exponents) + "}",
            f"decimal: {decimal}",
        ],
    )


def _cmd_prob(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    state = sc.lookup_state(args.a)
    e = sc.lookup_eidostate(args.e)
    decimal = _mpf_decimal(entropic_probability(state, e, oracle))
    return CommandOutput(
        command="prob",
        inputs={"eidostate": args.e, "model": sc.model, "state": args.a},
        result={"probability": decimal},
        text=[f"P({args.a} | {args.e}) = {decimal}"],
    )


def _cmd_prob_report(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    e = sc.lookup_eidostate(args.e)
    report = shannon_decomposition(e, oracle)
    names = dict(zip(e.members, member_names(sc, e)))
    probabilities = {}
    text = []
    for m in e:
        decimal = _mpf_decimal(report.support[m], report.bits)
        probabilities[names[m]] = decimal
        text.append(f"P({names[m]} | {args.e}) = {decimal}")
    summary = {
        "mean state entropy": _mpf_decimal(report.mean_state_entropy, report.bits),
        "shannon information": _mpf_decimal(report.shannon_term, report.bits),
        "total entropy": _mpf_decimal(report.entropy_total, report.bits),
        "residual": _mpf_decimal(report.residual(), report.bits),
    }
    text.extend(f"{label}: {value}" for label, value in summary.items())
    return CommandOutput(
        command="prob-report",
        inputs={"eidostate": args.e, "model": sc.model},
        result={
            "mean_state_entropy": summary["mean state entropy"],
            "probabilities": probabilities,
            "residual": summary["residual"],
            "shannon_information": summary["shannon information"],
            "total_entropy": summary["total entropy"],
        },
        text=text,
    )


def _cmd_irrev(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    a = sc.lookup_state(args.a)
    b = sc.lookup_state(args.b)
    est = irreversibility_estimate(a, b, args.qmax, oracle)
    return CommandOutput(
        command="irrev",
        inputs={"a": args.a, "b": args.b, "model": sc.model, "qmax": args.qmax},
        result={
            "lower": _frac(est.lower),
            "q_max": est.q_max,
            "upper": _frac(est.upper),
            "width": _frac(est.width),
        },
        text=[
            f"bracket: [{_frac(est.lower)}, {_frac(est.upper)}]",
            f"width: {_frac(est.width)}",
        ],
    )


def _cmd_demon(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    a = sc.lookup_eidostate(args.a)
    b = sc.lookup_eidostate(args.b)
    res = min_information_to_transform(a, b, args.nmax, oracle)
    if res.status is MinInfoStatus.FOUND:
        text = [f"minimal information-state size: {res.n}"]
    elif res.status is MinInfoStatus.BLOCKED:
        text = ["blocked"]
    else:
        text = [f"exhausted: no information state of size <= {args.nmax} helps"]
    return CommandOutput(
        command="demon",
        inputs={"a": args.a, "b": args.b, "model": sc.model, "nmax": args.nmax},
        result={"n": res.n if res.n is not None else 0,
                "status": res.status.value},
        text=text,
    )


def _cmd_landauer(args, sc: Scenario) -> CommandOutput:
    oracle = sc.oracle()
    a = sc.lookup_state(args.a)
    b = sc.lookup_state(args.b)
    verdict = landauer_check(a, b, oracle)
    if not verdict.applicable:
        return CommandOutput(
            command="landauer",
            inputs={"a": args.a, "b": args.b, "model": sc.model},
            result={"applicable": 0, "margin_decimal": "", "margin_exact": "",
                    "satisfied": 0},
            text=["inapplicable: the bit-assisted process is impossible"],
        )
    margin_exact = _frac(verdict.margin_exact) if verdict.margin_exact is not None else ""
    label = "satisfied" if verdict.satisfied else "violated"
    margin_line = f"margin: {verdict.margin_decimal}"
    if margin_exact:
        margin_line += f" (exactly {margin_exact})"
    return CommandOutput(
        command="landauer",
        inputs={"a": args.a, "b": args.b, "model": sc.model},
        result={
            "applicable": 1,
            "margin_decimal": verdict.margin_decimal,
            "margin_exact": margin_exact,
            "satisfied": int(verdict.satisfied),
        },
        text=[f"verdict: {label}", margin_line],
    )


def _suite_output(command: str, sc: Scenario, args, report: SuiteReport) -> CommandOutput:
    checks = []
    text = []
    diagnostics = []
    for res in report.results:
        checks.append({
            "cases": res.cases,
            "check": res.check_id,
            "counterexamples": [
                {"inputs": r.inputs, "observed": r.observed, "seed": r.seed}
                for r in res.counterexamples
            ],
            "inconclusive": len(res.inconclusive),
        })
        text.append(
            f"{res.check_id}: {res.cases} cases, "
            f"{len(res.counterexamples)} counterexamples, "
            f"{len(res.inconclusive)} inconclusive"
        )
        for record in res.counterexamples:
            text.append(f"  seed {record.seed}: {record.observed}")
        diagnostics.extend(
            f"{res.check_id} seed {seed}: {note}" for seed, note in res.inconclusive
        )
    failed = bool(report.counterexamples)
    text.append(f"result: {'FAIL' if failed else 'PASS'}")
    return CommandOutput(
        command=command,
        inputs={"cases": args.cases, "model": sc.model, "seed": args.seed},
        result={"checks": checks, "verdict": "fail" if failed else "pass"},
        text=text,
        diagnostics=diagnostics,
        exit_code=1 if failed else 0,
    )


def _cmd_check_axioms(args, sc: Scenario) -> CommandOutput:
    config = SuiteConfig(cases_per_check=args.cases, seed=args.seed)
    report = run_axiom_report(sc.oracle(), config)
    return _suite_output("check-axioms", sc, args, report)


def _cmd_check_theorems(args, sc: Scenario) -> CommandOutput:
    config = SuiteConfig(cases_per_check=args.cases, seed=args.seed)
    report = run_theorem_report(sc.oracle(), config)
    return _suite_output("check-theorems", sc, args, report)


_HANDLERS: Dict[str, Callable] = {
    "classify": _cmd_classify,
    "entropy": _cmd_entropy,
    "prob": _cmd_prob,
    "prob-report": _cmd_prob_report,
    "irrev": _cmd_irrev,
    "demon": _cmd_demon,
    "landauer": _cmd_landauer,
    "check-axioms": _cmd_check_axioms,
    "check-theorems": _cmd_check_theorems,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", metavar="FILE", help="scenario file defining the model"
    )
    common.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="eidothermo",
        description="Thermodynamic computations over scenario-defined models.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("classify", parents=[common],
                       help="classify the process from A to B")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("entropy", parents=[common],
                       help="exact and decimal entropy of a uniform eidostate")
    p.add_argument("e")

    p = sub.add_parser("prob", parents=[common],
                       help="entropic probability of a state within an eidostate")
    p.add_argument("a")
    p.add_argument("e")

    p = sub.add_parser("prob-report", parents=[common],
                       help="probabilities and the entropy decomposition")
    p.add_argument("e")

    p = sub.add_parser("irrev", parents=[common],
                       help="bracket the irreversibility of a singleton process")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--qmax", type=int, default=64,
                   help=f"copies of the process to compare "
                        f"(default: 64, at most {MAX_QMAX})")

    p = sub.add_parser("demon", parents=[common],
                       help="smallest information state enabling A -> B + J")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--nmax", type=int, default=1024,
                   help="largest information-state size to try (default: 1024)")

    p = sub.add_parser("landauer", parents=[common],
                       help="erasure bound on the bit-assisted process")
    p.add_argument("a")
    p.add_argument("b")

    for name, helptext in (
        ("check-axioms", "run the axiom suite against the scenario's model"),
        ("check-theorems", "run the theorem suite against the scenario's model"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--cases", type=int, default=500,
                       help=f"cases per check (default: 500, at most {MAX_CASES})")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed (default: 0)")

    return parser


def _check_bounds(args) -> None:
    for name, cap in (("qmax", MAX_QMAX), ("cases", MAX_CASES)):
        value = getattr(args, name, None)
        if value is not None and value > cap:
            raise ValueError(f"--{name} must be at most {cap}, got {value}")


def _bounded(message: str) -> str:
    """The message, with its middle elided when it is too long to print whole."""
    if len(message) <= MAX_ERROR_CHARS:
        return message
    keep = MAX_ERROR_CHARS // 2
    elided = len(message) - 2 * keep
    return f"{message[:keep]} ... [{elided} characters elided] ... {message[-keep:]}"


def _load_scenario(args) -> Scenario:
    if args.scenario is None:
        raise ValueError("a scenario file is required (--scenario FILE)")
    with open(args.scenario, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        scenario = _load_scenario(args)
        output = _HANDLERS[args.command](args, scenario)
    except (ValueError, KeyError, ArithmeticError, SearchBoundExceeded, OSError,
            RecursionError, ResourceCapError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {_bounded(str(message))}", file=sys.stderr)
        return 2
    if args.format == "structured":
        payload = {
            "command": output.command,
            "inputs": output.inputs,
            "result": output.result,
            "diagnostics": output.diagnostics,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in output.text:
            print(line)
    return output.exit_code


if __name__ == "__main__":
    sys.exit(main())
