"""Command-line behavior: frozen outputs, structured format, exit codes."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo import cli, exact, harness
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


SCENARIOS = Path(__file__).resolve().parent / "scenarios"
DIGITS = str(SCENARIOS / "digits.txt")


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
    monkeypatch.setattr(harness, "run_axiom_report", lambda oracle, config: broken)
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


def test_exact_commands_load_no_harness_or_quantum(szilard):
    # classify, irrev and demon on szilard.txt need neither the suites nor
    # the quantum model, so a cold command should import neither.
    commands = [["classify", "vr", "Final"], ["irrev", "v0", "v"], ["demon", "r", "Ib"]]
    code = (
        "import sys\n"
        "from eidothermo import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main([*argv, '--scenario', sys.argv[1]]) == 0\n"
        "print([m for m in ('eidothermo.harness', 'eidothermo.quantum')"
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


def test_cli_and_harness_import_loads_no_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eidothermo.cli, eidothermo.harness; "
         "print('mpmath' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


# -- certified digits ----------------------------------------------------


def test_landauer_margin_below_128_bits(capsys):
    # log2(2*10^40 + 1) - log2(10^40) - 1 = 7.2e-41 lies below the
    # 128-bit accuracy of either entropy; a 128-bit difference printed
    # 0.0 here.
    code, out, _ = run_cli(capsys, "landauer", "--scenario", DIGITS, "a", "b")
    assert code == 0
    assert out == "verdict: satisfied\nmargin: 7.21347520444481703679962340501e-41\n"


def _forbid_intervals(monkeypatch):
    """Make every bound of 2^f and of log2, and so every interval, fail."""
    def no_intervals(*args):
        raise AssertionError("an interval was evaluated")

    monkeypatch.setattr(exact, "_pow2_bounds", no_intervals)
    monkeypatch.setattr(exact, "_log2_bounds", no_intervals)


def test_landauer_zero_margin_is_an_exact_equality(capsys, monkeypatch):
    # log2 6 = log2 3 + 1: the zero is the exact comparison's, with no
    # interval evaluated.
    _forbid_intervals(monkeypatch)
    path = str(SCENARIOS / "dimensions.txt")
    code, out, _ = run_cli(capsys, "landauer", "--scenario", path, "t", "x")
    assert code == 0
    assert out == "verdict: satisfied\nmargin: 0.0\n"


def test_shannon_term_digits_are_certified(capsys):
    # The 128-bit midpoint printed ...247; the value rounds to ...246.
    code, out, _ = run_cli(capsys, "prob-report", "--scenario", DIGITS, "Tilt")
    assert code == 0
    assert "shannon information: 0.00000000486211581790425967102259554246\n" in out


def test_rational_entropy_prints_without_intervals(capsys, monkeypatch, tmp_path):
    path = tmp_path / "third.txt"
    path.write_text("model macro\natom t Q=1 S=1/3\neidostate T = { t }\n")
    _forbid_intervals(monkeypatch)
    code, out, _ = run_cli(capsys, "entropy", "--scenario", str(path), "T")
    assert code == 0
    assert out == "exponents: {1/3}\ndecimal: 0.333333333333333333333333333333\n"


TIES = str(SCENARIOS / "ties.txt")


def test_rational_probability_on_a_rounding_tie(capsys, monkeypatch):
    # P(a | E) = 2^-44 exactly, whose 31st digit is a 5 that no interval
    # decides; the powers are proportional, so it is exact, and no
    # interval is evaluated.
    _forbid_intervals(monkeypatch)
    code, out, _ = run_cli(capsys, "prob", "--scenario", TIES, "a", "E")
    assert code == 0
    assert out == "P(a | E) = 5.68434188608080148696899414063e-14\n"


def test_prob_report_prints_rational_probabilities_on_ties(capsys):
    code, out, _ = run_cli(capsys, "prob-report", "--scenario", TIES, "E")
    assert code == 0
    assert "P(a | E) = 5.68434188608080148696899414063e-14\n" in out
    assert "P(m1 | E) = 1.13686837721616029739379882813e-13\n" in out
    assert out.endswith("total entropy: 44.3333333333333333333333333333\nresidual: 0.0\n")


#: Bits of the plain mpmath numbers the printed digits are checked against.
REFERENCE_BITS = 2048


def _reference_text(value) -> str:
    with mpmath.workprec(REFERENCE_BITS):
        return mpmath.nstr(value, 30, strip_zeros=False)


def _cli_lines(path, *argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--scenario", path]) == 0
    return out.getvalue().splitlines()


def _assert_digits(path, names, entropies, exact_margins):
    """Runs entropy, prob, prob-report and landauer on the eidostate E of
    the named members and checks every printed line against 2,048-bit
    numbers.  entropies maps each name to a function that gives its
    entropy as an mpmath number at the working precision; exact_margins
    maps each pair whose Landauer margin is known exactly to it."""
    with mpmath.workprec(REFERENCE_BITS):
        s = {n: f() for n, f in entropies.items()}
        weights = {n: mpmath.mpf(2) ** s[n] for n in names}
        total = sum(weights.values())
        p = {n: weights[n] / total for n in names}
        mean = sum(p[n] * s[n] for n in names)
        shannon = -sum(p[n] * mpmath.log(p[n], 2) for n in names)
        entropy = mpmath.log(total, 2)
    assert _cli_lines(path, "entropy", "E")[1] == f"decimal: {_reference_text(entropy)}"
    for n in names:
        line = f"P({n} | E) = {_reference_text(p[n])}"
        assert _cli_lines(path, "prob", n, "E") == [line]
    report = _cli_lines(path, "prob-report", "E")
    assert sorted(report[:-4]) == sorted(
        f"P({n} | E) = {_reference_text(p[n])}" for n in names
    )
    assert report[-4:] == [
        f"mean state entropy: {_reference_text(mean)}",
        f"shannon information: {_reference_text(shannon) if len(names) > 1 else '0.0'}",
        f"total entropy: {_reference_text(entropy)}",
        "residual: 0.0",
    ]
    for a, b in zip(names, names[1:] + names[:1]):
        lines = _cli_lines(path, "landauer", a, b)
        if lines[0].startswith("inapplicable"):
            continue
        margin = exact_margins.get((a, b))
        if margin is None:
            with mpmath.workprec(REFERENCE_BITS):
                want = _reference_text(s[b] - s[a] - 1)
        elif margin:
            want = _reference_text(mpmath.mpf(margin.numerator) / margin.denominator)
        else:
            want = "0.0"
        assert lines[0] == "verdict: satisfied"
        assert lines[1].split(" (exactly")[0] == f"margin: {want}", (a, b)


@pytest.fixture(scope="module")
def digits_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("digits")


dimensions = st.one_of(
    st.integers(1, 10**40),
    st.integers(1, 64),
    st.integers(0, 133).map(lambda k: 2**k),
)


@given(dims=st.lists(dimensions, min_size=1, max_size=4), twice=st.booleans(),
       extra=st.integers(0, 2**20))
@settings(max_examples=100, deadline=None)
def test_quantum_digits_match_a_2048_bit_reference(digits_dir, dims, twice, extra):
    # With twice set, the last member is twice the first plus a little,
    # so landauer runs at a tiny margin.
    if twice:
        dims = dims + [2 * dims[0] + extra]
    names = [f"x{i}" for i in range(len(dims))]
    lines = ["model quantum"]
    lines += [f"atom {n} dim={d} len={max(1, (d - 1).bit_length())}"
              for n, d in zip(names, dims)]
    lines.append("eidostate E = { " + ", ".join(names) + " }")
    path = digits_dir / "quantum.txt"
    path.write_text("\n".join(lines) + "\n")
    entropies = {n: (lambda d=d: mpmath.log(d, 2)) for n, d in zip(names, dims)}
    exact_margins = {
        (a, b): Fraction(0)
        for a, da in zip(names, dims) for b, db in zip(names, dims) if db == 2 * da
    }
    for a, da in zip(names, dims):
        for b, db in zip(names, dims):
            if da & (da - 1) == 0 and db & (db - 1) == 0 and db >= 2 * da:
                exact_margins[a, b] = Fraction(db.bit_length() - da.bit_length() - 1)
    _assert_digits(str(path), names, entropies, exact_margins)


fresh_lambdas = st.integers(3, 16).flatmap(
    lambda k: st.integers(0, 2**k).map(lambda n: Fraction(n, 2**k))
)


@given(data=st.data(), content=st.integers(1, 3), size=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_macro_digits_match_a_2048_bit_reference(digits_dir, data, content, size):
    lines = ["model macro", "atom r Q=0 S=0/1"]
    names, values = [], {}
    for i in range(size):
        lams = data.draw(st.lists(fresh_lambdas, min_size=content, max_size=content))
        leaves = []
        for j, lam in enumerate(lams):
            lines.append(f"atom a{i}_{j} Q=1 S={lam.numerator}/{lam.denominator}")
            leaves.append(f"a{i}_{j}")
        if data.draw(st.booleans()):
            leaves.append("r")
        name = expr = leaves[0]
        for leaf in leaves[1:]:
            name, expr = f"m{i}", f"({expr} + {leaf})"
        if expr != name:
            lines.append(f"state {name} = {expr}")
        names.append(name)
        values[name] = sum(lams, Fraction(0))
    lines.append("eidostate E = { " + ", ".join(names) + " }")
    path = digits_dir / "macro.txt"
    path.write_text("\n".join(lines) + "\n")
    entropies = {
        n: (lambda v=v: mpmath.mpf(v.numerator) / v.denominator)
        for n, v in values.items()
    }
    exact_margins = {(a, b): values[b] - values[a] - 1 for a in names for b in names}
    _assert_digits(str(path), names, entropies, exact_margins)
