"""Fixtures shared by more than one test module."""

import pytest

from eidothermo.harness import (
    MutantDropContentCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
    SuiteConfig,
    run_axiom_report,
    run_theorem_report,
)
from eidothermo.macro import MacroModel


@pytest.fixture(scope="session")
def criterion_12_runs():
    """Criterion 12's suites, run once: the axiom and theorem suites of the
    three mutants at SuiteConfig(500, seed=42).  Returns the counterexample
    records by mutant class name and the number of
    ``MacroModel.random_state_with_content`` calls the suites made."""
    calls = []
    draw = MacroModel.random_state_with_content
    records = {}
    config = SuiteConfig(cases_per_check=500, seed=42)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MacroModel, "random_state_with_content",
                      lambda *args: calls.append(1) or draw(*args))
        for mutant_cls in (MutantDropContentCriterion, MutantFlippedEntropyOrder,
                           MutantWeightedRecords):
            mutant = mutant_cls()
            records[mutant_cls.__name__] = (
                run_axiom_report(mutant, config).counterexamples
                + run_theorem_report(mutant, config).counterexamples
            )
    return records, len(calls)
