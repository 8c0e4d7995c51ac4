"""Tests for the randomized verification suites."""

import hashlib
import json

import pytest

from eidothermo.harness import (
    AXIOM_CHECKS,
    THEOREM_CHECKS,
    MutantDropContentCriterion,
    MutantDropNonUniformCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
    SuiteConfig,
    run_axiom_report,
    run_axiom_suite,
    run_theorem_report,
    run_theorem_suite,
)
from eidothermo.macro import MacroModel
from eidothermo.quantum import QuantumModel

FAST = SuiteConfig(cases_per_check=60, seed=42)

#: sha256 of the axiom and theorem reports of the five models in
#: ``test_suite_reports_are_pinned`` at SuiteConfig(20, seed=42).  Any
#: change to a verdict, a counterexample or an inconclusive note moves it.
PINNED_REPORT_DIGEST = "2a0d65981bf980f8e94d8fc9022bf1fd5117193ce83feede1345aef723d8da60"


def test_config_validates_bounds():
    with pytest.raises(ValueError):
        SuiteConfig(cases_per_check=0)
    with pytest.raises(ValueError):
        SuiteConfig(stability_n=0)


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
    assert run_axiom_suite(model, FAST) == []
    assert run_theorem_suite(model, FAST) == []


def test_quantum_model_passes_fast_suites():
    model = QuantumModel()
    assert run_axiom_suite(model, FAST) == []
    assert run_theorem_suite(model, FAST) == []


def test_report_covers_every_check():
    report = run_axiom_report(MacroModel(), SuiteConfig(cases_per_check=5, seed=1))
    assert [result.check_id for result in report.results] == [
        check_id for check_id, _ in AXIOM_CHECKS
    ]
    assert all(result.cases == 5 for result in report.results)


def test_runs_are_deterministic():
    config = SuiteConfig(cases_per_check=80, seed=7)
    first = run_axiom_suite(MutantFlippedEntropyOrder(), config)
    second = run_axiom_suite(MutantFlippedEntropyOrder(), config)
    assert first and first == second


def test_different_seeds_draw_different_inputs():
    one = run_axiom_suite(MutantFlippedEntropyOrder(), SuiteConfig(80, seed=1))
    two = run_axiom_suite(MutantFlippedEntropyOrder(), SuiteConfig(80, seed=2))
    assert {r.inputs for r in one} != {r.inputs for r in two}


def test_stability_anomalies_are_inconclusive_not_failures():
    report = run_axiom_report(MacroModel(), SuiteConfig(cases_per_check=200, seed=42))
    notes = [
        note
        for result in report.results
        for _, note in result.inconclusive
    ]
    assert any("finite-stability anomaly" in note for note in notes)
    assert report.counterexamples == []


def test_bounded_demon_search_is_inconclusive_in_quantum():
    report = run_axiom_report(QuantumModel(), SuiteConfig(cases_per_check=300, seed=42))
    by_check = {result.check_id: result for result in report.results}
    notes = [note for _, note in by_check["Axiom 6"].inconclusive]
    assert any("bounded search" in note for note in notes)
    assert report.counterexamples == []


def test_drop_content_mutant_is_caught():
    config = SuiteConfig(cases_per_check=120, seed=42)
    records = run_axiom_suite(MutantDropContentCriterion(), config)
    records += run_theorem_suite(MutantDropContentCriterion(), config)
    assert records
    assert {r.check_id for r in records} >= {"Theorem 9"}


def test_flipped_entropy_mutant_is_caught():
    config = SuiteConfig(cases_per_check=120, seed=42)
    records = run_axiom_suite(MutantFlippedEntropyOrder(), config)
    assert records
    assert "Axiom 3" in {r.check_id for r in records}


def test_drop_nonuniform_mutant_is_caught():
    records = run_axiom_suite(
        MutantDropNonUniformCriterion(), SuiteConfig(cases_per_check=20, seed=42)
    )
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
    config = SuiteConfig(cases_per_check=120, seed=42)
    records = run_axiom_suite(MutantFlippedEntropyOrder(), config)
    sample = records[0]
    assert sample.check_id.startswith("Axiom")
    assert sample.seed > 0
    assert sample.inputs
    assert sample.observed


def test_suite_reports_are_pinned():
    config = SuiteConfig(cases_per_check=20, seed=42)
    rows = []
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
                rows.append([
                    cls.name,
                    result.check_id,
                    result.cases,
                    [[c.seed, c.inputs, c.observed] for c in result.counterexamples],
                    [list(case) for case in result.inconclusive],
                ])
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORT_DIGEST
