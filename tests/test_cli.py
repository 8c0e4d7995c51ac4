"""Command-line behavior: frozen outputs, structured format, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from eidothermo import cli
from eidothermo.harness import CheckResult, CounterexampleRecord, SuiteReport
from eidothermo.scenario import MAX_EXPR_NESTING
from eidothermo.states import ResourceCapError

LADDER_SCENARIO = """\
model macro
atom s0 Q=1 S=0/1
atom s1 Q=1 S=1/1
state f4s1 = ((s1 + s1) + (s1 + s1))
state f4s0 = ((s0 + s0) + (s0 + s0))
eidostate Mix = { s0, s1 }
"""


@pytest.fixture(scope="module")
def szilard(tmp_path_factory):
    text = files("eidothermo").joinpath("scenarios", "szilard.txt").read_text()
    path = tmp_path_factory.mktemp("scenario") / "szilard.txt"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "ladder.txt"
    path.write_text(LADDER_SCENARIO)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_bit_process(capsys, szilard):
    code, out, _ = run_cli(capsys, "classify", "--scenario", szilard, "r", "Ib")
    assert code == 0
    assert out == "natural irreversible\n"
    code, out, _ = run_cli(capsys, "classify", "--scenario", szilard, "Ib", "r")
    assert code == 0
    assert out == "antinatural irreversible\n"


def test_classify_demon_cycle(capsys, szilard):
    expected = {
        ("vr", "Inserted"): "reversible",
        ("Inserted", "Measured"): "reversible",
        ("Measured", "Final"): "natural irreversible",
        ("vr", "Final"): "natural irreversible",
    }
    for (a, b), label in expected.items():
        code, out, _ = run_cli(capsys, "classify", "--scenario", szilard, a, b)
        assert code == 0
        assert out == label + "\n"


def test_entropy_bit_state(capsys, szilard):
    code, out, _ = run_cli(capsys, "entropy", "--scenario", szilard, "Ib")
    assert code == 0
    assert out == (
        "exponents: {1/1}\n"
        "decimal: 1.00000000000000000000000000000\n"
    )


def test_entropy_irrational(capsys, ladder):
    code, out, _ = run_cli(capsys, "entropy", "--scenario", ladder, "Mix")
    assert code == 0
    assert out == (
        "exponents: {0/1, 1/1}\n"
        "decimal: 1.58496250072115618145373894395\n"
    )


def test_prob(capsys, szilard):
    code, out, _ = run_cli(capsys, "prob", "--scenario", szilard, "v0", "Split")
    assert code == 0
    assert out == "P(v0 | Split) = 0.500000000000000000000000000000\n"


def test_prob_report(capsys, szilard):
    code, out, _ = run_cli(capsys, "prob-report", "--scenario", szilard, "Final")
    assert code == 0
    assert out == (
        "P(vr0 | Final) = 0.500000000000000000000000000000\n"
        "P(vr1 | Final) = 0.500000000000000000000000000000\n"
        "mean state entropy: 1.00000000000000000000000000000\n"
        "shannon information: 1.00000000000000000000000000000\n"
        "total entropy: 2.00000000000000000000000000000\n"
        "residual: 0.0\n"
    )


def test_irrev_bracket(capsys, ladder):
    code, out, _ = run_cli(
        capsys, "irrev", "--scenario", ladder, "--format", "structured",
        "s0", "s1", "--qmax", "64",
    )
    assert code == 0
    doc = json.loads(out)
    lo = Fraction(doc["result"]["lower"])
    hi = Fraction(doc["result"]["upper"])
    width = Fraction(doc["result"]["width"])
    # Bracket must contain S(s1) - S(s0) = 1 within the advertised width.
    assert lo <= 1 <= hi
    assert width <= Fraction(2, 64)
    assert 1 - Fraction(2, 64) <= lo and hi <= 1 + Fraction(2, 64)


def test_demon_outcomes(capsys, szilard, ladder):
    code, out, _ = run_cli(
        capsys, "demon", "--scenario", szilard, "r", "Ib", "--nmax", "8"
    )
    assert code == 0
    assert out == "minimal information-state size: 1\n"
    code, out, _ = run_cli(capsys, "demon", "--scenario", szilard, "Ib", "Split")
    assert code == 0
    assert out == "blocked\n"
    code, out, _ = run_cli(
        capsys, "demon", "--scenario", ladder, "f4s1", "f4s0", "--nmax", "8"
    )
    assert code == 0
    assert out == "exhausted: no information state of size <= 8 helps\n"
    code, out, _ = run_cli(
        capsys, "demon", "--scenario", ladder, "f4s1", "f4s0", "--nmax", "16"
    )
    assert code == 0
    assert out == "minimal information-state size: 16\n"


def test_landauer(capsys, szilard):
    code, out, _ = run_cli(capsys, "landauer", "--scenario", szilard, "v0", "v")
    assert code == 0
    assert out == "verdict: satisfied\nmargin: 0.0 (exactly 0/1)\n"
    code, out, _ = run_cli(capsys, "landauer", "--scenario", szilard, "v0", "v1")
    assert code == 0
    assert out == "inapplicable: the bit-assisted process is impossible\n"


def test_check_suites_pass(capsys, szilard):
    code, out, _ = run_cli(
        capsys, "check-axioms", "--scenario", szilard,
        "--cases", "30", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "result: PASS"
    assert len([l for l in lines if l.startswith("Axiom")]) == 9
    code, out, _ = run_cli(
        capsys, "check-theorems", "--scenario", szilard,
        "--cases", "30", "--seed", "7",
    )
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"
    assert "Theorem 3: 30 cases" in out


def test_check_failure_exit_code(capsys, szilard, monkeypatch):
    record = CounterexampleRecord("Axiom 3", 12345, "E = {r}", "subset arrow held")
    broken = SuiteReport(
        (CheckResult("Axiom 3", cases=30, counterexamples=[record]),)
    )
    monkeypatch.setattr(cli, "run_axiom_report", lambda oracle, config: broken)
    code, out, _ = run_cli(
        capsys, "check-axioms", "--scenario", szilard, "--cases", "30"
    )
    assert code == 1
    assert "result: FAIL" in out
    assert "seed 12345: subset arrow held" in out


def _walk(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _walk(v)
    elif isinstance(value, list):
        for v in value:
            yield from _walk(v)
    else:
        yield value


def test_structured_schema(capsys, szilard):
    code, out, _ = run_cli(
        capsys, "entropy", "--scenario", szilard, "--format", "structured", "Ib"
    )
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["command", "diagnostics", "inputs", "result"]
    assert doc["command"] == "entropy"
    assert doc["inputs"] == {"eidostate": "Ib", "model": "macro"}
    assert doc["result"]["exponents"] == ["1/1"]
    for leaf in _walk(doc):
        assert isinstance(leaf, (str, int)) and not isinstance(leaf, bool)


def test_structured_byte_identity(capsys, szilard):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "check-axioms", "--scenario", szilard,
            "--format", "structured", "--cases", "20", "--seed", "3",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["result"]["verdict"] == "pass"
    for leaf in _walk(doc):
        assert isinstance(leaf, (str, int)) and not isinstance(leaf, bool)


def test_missing_scenario_flag(capsys):
    code, _, err = run_cli(capsys, "classify", "a", "b")
    assert code == 2
    assert "scenario file is required" in err


def test_nonexistent_scenario_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "classify", "--scenario", str(tmp_path / "nope.txt"), "a", "b"
    )
    assert code == 2
    assert "error:" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("model macro\natom a Q=1 S=0.5\n")
    code, _, err = run_cli(capsys, "entropy", "--scenario", str(path), "a")
    assert code == 2
    assert "line 2" in err


def _nested_state(depth):
    expr = "v"
    for _ in range(depth):
        expr = f"(v + {expr})"
    return expr


def test_deep_expression_rejected_with_line(capsys, szilard, tmp_path):
    text = open(szilard).read()
    path = tmp_path / "deep.txt"
    path.write_text(text + f"state deep = {_nested_state(1200)}\n")
    line = len(text.splitlines()) + 1
    code, out, err = run_cli(capsys, "entropy", "--scenario", str(path), "Ib")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}: state expression nests deeper")


def test_expression_at_nesting_limit_accepted(capsys, szilard, tmp_path):
    text = open(szilard).read()
    path = tmp_path / "deep.txt"
    path.write_text(text + f"state deep = {_nested_state(MAX_EXPR_NESTING)}\n")
    code, out, _ = run_cli(capsys, "classify", "--scenario", str(path), "vr", "deep")
    assert code == 0
    assert out == "impossible\n"
    code, out, _ = run_cli(capsys, "irrev", "--scenario", str(path),
                           "deep", "deep", "--qmax", "2")
    assert code == 0


def test_long_error_line_keeps_both_ends(capsys, szilard, tmp_path):
    text = open(szilard).read()
    path = tmp_path / "deep.txt"
    path.write_text(
        text + f"state deep = {_nested_state(MAX_EXPR_NESTING)}\n"
        "eidostate E = { deep, v }\n"
    )
    code, out, err = run_cli(capsys, "prob", "--scenario", str(path), "deep", "E")
    assert code == 2
    assert out == ""
    assert err.startswith("error: eidostate {")
    assert err.endswith("is not uniform\n")
    assert "characters elided" in err
    assert len(err) <= cli.MAX_ERROR_CHARS + 100


def test_unknown_name(capsys, szilard):
    code, _, err = run_cli(capsys, "classify", "--scenario", szilard, "vr", "Nope")
    assert code == 2
    assert "Nope" in err


def test_not_uniform_rejected(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(
        "model macro\natom r Q=0 S=0/1\natom s1 Q=1 S=1/1\n"
        "eidostate Bad = { r, s1 }\n"
    )
    code, _, err = run_cli(capsys, "entropy", "--scenario", str(path), "Bad")
    assert code == 2
    assert "not uniform" in err


@pytest.mark.parametrize("scenario, a, b, bracket", [
    (None, "v0", "v", "[1/1, 1/1]"),
    ("dimensions.txt", "t", "f", "[41147/55833, 38320/51997]"),
])
def test_irrev_at_qmax_100000(capsys, szilard, scenario, a, b, bracket):
    path = szilard if scenario is None else str(Path(__file__).parent / "scenarios" / scenario)
    code, out, _ = run_cli(capsys, "irrev", "--scenario", path, a, b, "--qmax", "100000")
    assert code == 0
    assert out.splitlines()[0] == f"bracket: {bracket}"


def test_impossible_process_rejected(capsys, szilard):
    code, _, err = run_cli(capsys, "irrev", "--scenario", szilard, "r", "v")
    assert code == 2
    assert "error:" in err


def test_bad_qmax_rejected(capsys, szilard):
    code, _, err = run_cli(
        capsys, "irrev", "--scenario", szilard, "v0", "v", "--qmax", "0"
    )
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("argv", [
    ("irrev", "v0", "v", "--qmax", str(cli.MAX_QMAX + 1)),
    ("check-axioms", "--cases", str(cli.MAX_CASES + 1)),
    ("check-theorems", "--cases", str(cli.MAX_CASES + 1)),
])
def test_oversized_inputs_rejected(capsys, szilard, argv):
    code, out, err = run_cli(capsys, *argv, "--scenario", szilard)
    assert code == 2
    assert out == ""
    assert "must be at most" in err


@pytest.mark.parametrize("exc", [
    RecursionError("maximum recursion depth exceeded"),
    ResourceCapError("subset enumeration over 21 members exceeds the cap of 20"),
])
def test_resource_errors_exit_2(capsys, szilard, monkeypatch, exc):
    def handler(args, sc):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "classify", handler)
    code, out, err = run_cli(capsys, "classify", "--scenario", szilard, "r", "Ib")
    assert code == 2
    assert out == ""
    assert err == f"error: {exc.args[0]}\n"


def test_demon_huge_nmax(capsys, szilard):
    code, out, _ = run_cli(
        capsys, "demon", "--scenario", szilard, "r", "Ib",
        "--nmax", "4611686018427387904",
    )
    assert code == 0
    assert out == "minimal information-state size: 1\n"


def test_demon_nmax_ten_to_the_300(capsys, szilard):
    # Every entropy compared in this search lies at residue 0, so each
    # comparison is an exact integer one.
    code, out, _ = run_cli(
        capsys, "demon", "--scenario", szilard, "r", "Ib", "--nmax", str(10**300),
    )
    assert code == 0
    assert out == "minimal information-state size: 1\n"


def test_cli_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eidothermo.cli, eidothermo.quantum; "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exact_commands_load_no_mpmath_harness_or_quantum(szilard):
    # classify, irrev and demon decide szilard.txt with rational
    # arithmetic alone, so a cold command should import none of these.
    commands = [["classify", "vr", "Final"], ["irrev", "v0", "v"], ["demon", "r", "Ib"]]
    code = (
        "import sys\n"
        "from eidothermo import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main([*argv, '--scenario', sys.argv[1]]) == 0\n"
        "print([m for m in ('mpmath', 'eidothermo.harness', 'eidothermo.quantum')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, szilard], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["natural irreversible", "bracket: [1/1, 1/1]", "width: 0/1",
                         "minimal information-state size: 1"]
    assert lines[4:] == ["[]"]


def test_package_import_loads_no_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eidothermo; print('mpmath' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_argparse_exit_codes(szilard):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command", "--scenario", szilard])
    assert info.value.code == 2


def test_module_invocation(szilard):
    proc = subprocess.run(
        [sys.executable, "-m", "eidothermo.cli",
         "classify", "--scenario", szilard, "r", "Ib"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "natural irreversible\n"
