"""Tests for the randomized verification suites."""

import dataclasses
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from eidothermo import harness
from eidothermo.engine import shannon_decomposition
from eidothermo.exact import Real
from eidothermo.harness import (
    AXIOM_CHECKS,
    THEOREM_CHECKS,
    MutantDropContentCriterion,
    MutantDropNonUniformCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
    SuiteConfig,
    _case_seed,
    _check_axiom_6,
    _check_axiom_7,
    _check_axiom_9,
    _check_theorem_17,
    _uniform_state,
    run_axiom_report,
    run_theorem_report,
)
from eidothermo.macro import MacroModel
from eidothermo.quantum import QuantumModel
from eidothermo.states import Atom, Pair, combine, singleton

FAST = SuiteConfig(cases_per_check=60, seed=42)

#: The axiom and theorem reports of the five models in ``_suite_rows`` at
#: SuiteConfig(20, seed=42), one row per model and check.  Any change to a
#: verdict, a counterexample or an inconclusive note moves a row.  Record
#: it again only for a change that is meant to move suite results:
#:
#:     PYTHONPATH=src python tests/test_harness.py
GOLDEN = Path(__file__).resolve().parent / "golden" / "suite_reports.json"


def test_config_validates_bounds():
    with pytest.raises(ValueError):
        SuiteConfig(cases_per_check=0)
    with pytest.raises(ValueError):
        SuiteConfig(max_state_depth=0)


def test_check_labels_are_stable():
    assert [check_id for check_id, _ in AXIOM_CHECKS] == [
        f"Axiom {n}" for n in range(1, 10)
    ]
    assert [check_id for check_id, _ in THEOREM_CHECKS] == [
        "Theorem 3",
        "Theorem 5",
        "Theorem 9",
        "Theorem 15",
        "Theorem 17",
        "Cancellation",
    ]


def test_macro_model_passes_fast_suites():
    model = MacroModel()
    assert run_axiom_report(model, FAST).counterexamples == []
    assert run_theorem_report(model, FAST).counterexamples == []


def test_quantum_model_passes_fast_suites():
    model = QuantumModel()
    assert run_axiom_report(model, FAST).counterexamples == []
    assert run_theorem_report(model, FAST).counterexamples == []


def test_report_covers_every_check():
    report = run_axiom_report(MacroModel(), SuiteConfig(cases_per_check=5, seed=1))
    assert [result.check_id for result in report.results] == [
        check_id for check_id, _ in AXIOM_CHECKS
    ]
    assert all(result.cases == 5 for result in report.results)


def test_runs_are_deterministic():
    config = SuiteConfig(cases_per_check=80, seed=7)
    first = run_axiom_report(MutantFlippedEntropyOrder(), config).counterexamples
    second = run_axiom_report(MutantFlippedEntropyOrder(), config).counterexamples
    assert first and first == second


def test_different_seeds_draw_different_inputs():
    one = run_axiom_report(MutantFlippedEntropyOrder(), SuiteConfig(80, seed=1))
    two = run_axiom_report(MutantFlippedEntropyOrder(), SuiteConfig(80, seed=2))
    assert {r.inputs for r in one.counterexamples} != {
        r.inputs for r in two.counterexamples
    }


class _StableUntil(MacroModel):
    """A stub oracle: A -> B fails, and n·A -> n·B + J holds exactly for
    the copy counts n below ``fails_from``."""

    def __init__(self, fails_from):
        super().__init__()
        self.fails_from = fails_from
        self.copies = []

    def arrow(self, a, b):
        return False

    def arrow_combined(self, parts_a, parts_b):
        ((_, n),) = parts_a
        self.copies.append(n)
        return n < self.fails_from


def test_axiom_7_passes_on_a_stability_witness():
    oracle = _StableUntil(2**12)
    assert _check_axiom_7(oracle, FAST, random.Random(0)) is None
    assert oracle.copies == [2**k for k in range(13)]


def test_axiom_7_is_inconclusive_when_stability_holds_to_the_bound():
    oracle = _StableUntil(float("inf"))
    with pytest.raises(harness.InconclusiveCase, match=r"2\^16"):
        _check_axiom_7(oracle, FAST, random.Random(0))
    assert oracle.copies[-1] == 2**harness.STABILITY_MAX_EXPONENT == 2**16


def test_criterion_12_draw_count_is_pinned(criterion_12_runs):
    """The draws of criterion 12 make a fixed number of member draws:
    a draw never asks a content class for more trees than it holds."""
    assert criterion_12_runs[1] == 48295


def test_bounded_demon_search_is_inconclusive_in_quantum():
    report = run_axiom_report(QuantumModel(), SuiteConfig(cases_per_check=300, seed=42))
    by_check = {result.check_id: result for result in report.results}
    notes = [note for _, note in by_check["Axiom 6"].inconclusive]
    assert any("bounded search" in note for note in notes)
    assert report.counterexamples == []


def test_drop_content_mutant_is_caught():
    config = SuiteConfig(cases_per_check=120, seed=42)
    records = run_axiom_report(MutantDropContentCriterion(), config).counterexamples
    records += run_theorem_report(MutantDropContentCriterion(), config).counterexamples
    assert records
    assert {r.check_id for r in records} >= {"Theorem 9"}


def test_flipped_entropy_mutant_is_caught():
    config = SuiteConfig(cases_per_check=120, seed=42)
    records = run_axiom_report(MutantFlippedEntropyOrder(), config).counterexamples
    assert records
    assert "Axiom 3" in {r.check_id for r in records}


def test_drop_nonuniform_mutant_is_caught():
    records = run_axiom_report(
        MutantDropNonUniformCriterion(), SuiteConfig(cases_per_check=20, seed=42)
    ).counterexamples
    assert "Axiom 3" in {r.check_id for r in records}


def test_weighted_records_mutant_is_caught_constructively():
    report = run_axiom_report(
        MutantWeightedRecords(), SuiteConfig(cases_per_check=5, seed=42)
    )
    by_check = {result.check_id: result for result in report.results}
    assert by_check["Axiom 5"].counterexamples
    observed = by_check["Axiom 5"].counterexamples[0].observed
    assert "record" in observed


def test_counterexample_records_carry_replay_data():
    model = MutantDropContentCriterion()
    config = SuiteConfig(cases_per_check=20, seed=42)
    record = next(r for r in run_axiom_report(model, config).counterexamples
                  if r.check_id == "Axiom 6")
    assert _check_axiom_6(model, config, random.Random(record.seed)) == (
        record.inputs, record.observed)

    # The printed inputs rebuild the arrow the record reports: the trees
    # from their reprs, and J from its size.
    assert "although a -> b + J holds" in record.observed
    a, b, n = re.fullmatch(r"a=(.*), b=(.*), \|J\|=(\d+)", record.inputs).groups()
    sa, sb = (singleton(eval(text, {"Atom": Atom, "Pair": Pair})) for text in (a, b))
    j = model.make_information_state(int(n))
    assert model.arrow_combined(((sa, 1),), ((sb, 1), (j, 1)))


def _suite_rows() -> dict:
    """Rows keyed "<model>: <check>": the check's case count,
    counterexamples and inconclusive cases, as JSON values."""
    config = SuiteConfig(cases_per_check=20, seed=42)
    rows = {}
    for cls in (
        MacroModel,
        QuantumModel,
        MutantDropContentCriterion,
        MutantFlippedEntropyOrder,
        MutantWeightedRecords,
    ):
        model = cls()
        for report in (run_axiom_report(model, config), run_theorem_report(model, config)):
            for result in report.results:
                rows[f"{cls.name}: {result.check_id}"] = {
                    "cases": result.cases,
                    "counterexamples": [
                        [c.seed, c.inputs, c.observed] for c in result.counterexamples
                    ],
                    "inconclusive": [list(case) for case in result.inconclusive],
                }
    return json.loads(json.dumps(rows))


def test_suite_reports_are_pinned():
    golden = json.loads(GOLDEN.read_text())
    rows = _suite_rows()
    assert sorted(rows) == sorted(golden)
    moved = [key for key in rows if rows[key] != golden[key]]
    assert not moved, f"suite rows moved: {moved}"


class OffByTwoToTheMinus40Macro(MacroModel):
    """State equivalences whose last atom of y sits 2^-40 above the exact
    one, well inside a tolerance of n/2^17 on the entropy."""

    def state_equivalence(self, e):
        eq = super().state_equivalence(e)
        *leaves, last = eq.y.leaves()
        y = self.registry.ensure_s_atom(self.registry.get(last.atom_id).s + Fraction(1, 2**40))
        for leaf in reversed(leaves):
            y = Pair(leaf, y)
        return dataclasses.replace(eq, y=y)


def test_axiom_9_flags_witnesses_off_by_two_to_the_minus_40():
    model = OffByTwoToTheMinus40Macro()
    config = SuiteConfig()
    outcomes = [_check_axiom_9(model, config, random.Random(seed)) for seed in range(100)]
    assert all(
        o is not None and o[1] == "witnesses fail E + x <-> e + y" for o in outcomes
    ), outcomes


def test_axiom_4_first_clause_is_live_in_every_macro_case():
    """The state-equivalence witnesses make E + x -> e + y hold, so the
    subset clause of Axiom 4 is tested in every case at seed 42."""
    model = MacroModel()
    config = SuiteConfig(seed=42)
    live = 0
    for index in range(config.cases_per_check):
        rng = random.Random(_case_seed(config.seed, "Axiom 4", index))
        e = _uniform_state(model, config, rng)
        eq = model.state_equivalence(e)
        live += model.arrow(combine(e, singleton(eq.x)), singleton(Pair(eq.e, eq.y)))
    assert live == config.cases_per_check


def test_theorem_17_flags_a_certified_residual_of_two_to_the_minus_100(monkeypatch):
    """A report whose entropy misses <S> + H by 2^-100 is a counterexample:
    its residual is not exactly 0.  A float tolerance of 1e-12 let such
    a report pass.  The message prints the residual from its enclosure."""
    config = SuiteConfig()
    offset = Fraction(1, 2**100)

    def off_by_offset(e, oracle):
        report = shannon_decomposition(e, oracle)
        assert report.residual.exact == 0
        residual = Real(lambda bits: report.residual.interval(bits) + offset)
        return dataclasses.replace(report, residual=residual)

    for model in (MacroModel(), QuantumModel()):
        assert _check_theorem_17(model, config, random.Random(7)) is None
        monkeypatch.setattr(harness, "shannon_decomposition", off_by_offset)
        outcome = _check_theorem_17(model, config, random.Random(7))
        monkeypatch.undo()
        assert outcome is not None
        assert outcome[1].endswith(" 7.8886091e-31 is certified nonzero"), outcome


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_suite_rows(), indent=1, sort_keys=True) + "\n")
