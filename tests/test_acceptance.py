"""Acceptance gate: twelve go/no-go checks at their stated tolerances.

Each test is one criterion, so a verbose run prints one pass/fail line
per criterion.  Tolerances, case counts, seeds, and time budgets are
asserted literally; nothing here is tuned to the implementation beyond
the documented bounds.
"""

import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from eidothermo.engine import (
    demonically_possible,
    entropic_probability,
    entropy_uniform,
    gibbs_gap,
    irreversibility_estimate,
    landauer_check,
    shannon_decomposition,
)
from eidothermo.exact import FIRST_BITS, ExactEntropy, decimal_of
from eidothermo.harness import (
    MutantDropContentCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
    SuiteConfig,
    run_axiom_report,
    run_theorem_report,
)
from eidothermo.macro import MacroModel
from eidothermo.quantum import QuantumModel
from eidothermo.states import Eidostate, Pair, singleton

SEED = 42
SUITE_CONFIG = SuiteConfig(cases_per_check=500, seed=SEED)


def _brief(records, limit: int = 3) -> str:
    lines = [f"{r.check_id} seed {r.seed}: {r.observed}" for r in records[:limit]]
    if len(records) > limit:
        lines.append(f"... and {len(records) - limit} more")
    return "\n".join(lines)


def test_criterion_01_macro_axiom_suite():
    start = time.monotonic()
    records = run_axiom_report(MacroModel(), SUITE_CONFIG).counterexamples
    elapsed = time.monotonic() - start
    assert records == [], _brief(records)
    assert elapsed <= 60.0, f"macro axiom suite took {elapsed:.1f}s"


def test_criterion_02_quantum_axiom_suite():
    start = time.monotonic()
    records = run_axiom_report(QuantumModel(), SUITE_CONFIG).counterexamples
    elapsed = time.monotonic() - start
    assert records == [], _brief(records)
    assert elapsed <= 60.0, f"quantum axiom suite took {elapsed:.1f}s"


def test_criterion_03_information_state_arrow_is_cardinality():
    model = MacroModel()
    rng = random.Random(SEED)
    for case in range(500):
        size_i = rng.randint(1, 64)
        size_j = rng.randint(1, 64)
        i = model.make_information_state(size_i)
        j = model.make_information_state(size_j)
        assert model.arrow(i, j) == (size_i <= size_j), (case, size_i, size_j)


def test_criterion_04_information_state_entropies():
    model = MacroModel()
    bit = model.make_bit_state()
    value = entropy_uniform(bit, model)
    assert value == ExactEntropy.from_rational(1)
    assert value.exponents == (Fraction(1),)
    for n in range(1, 65):
        value = entropy_uniform(model.make_information_state(n), model)
        if n & (n - 1) == 0:
            assert value == ExactEntropy.from_rational(n.bit_length() - 1), n
        else:
            text = decimal_of(value, 30)
            with mpmath.workprec(256):
                reported = mpmath.mpf(text)
                reference = mpmath.log(n) / mpmath.log(2)
                assert abs(reported - reference) <= mpmath.mpf(10) ** -28, n


def _disjoint_uniform_pair(model, rng):
    q = rng.randint(0, 3)
    wanted = rng.randint(1, 4) + rng.randint(1, 4)
    members = set()
    attempts = 0
    while len(members) < wanted and attempts < 200:
        members.add(model.random_state_with_content(rng, q))
        attempts += 1
    if len(members) < 2:
        return None
    ordered = sorted(members)
    cut = rng.randint(1, len(ordered) - 1)
    return Eidostate(ordered[:cut]), Eidostate(ordered[cut:])


def test_criterion_05_disjoint_union_entropy_multiset():
    model = MacroModel()
    rng = random.Random(SEED)
    done = 0
    while done < 200:
        pair = _disjoint_uniform_pair(model, rng)
        if pair is None:
            continue
        e1, e2 = pair
        union = Eidostate(e1.members + e2.members)
        expected = ExactEntropy.log2_sum_of_powers(
            [entropy_uniform(e1, model), entropy_uniform(e2, model)]
        )
        assert entropy_uniform(union, model) == expected, (e1, e2)
        done += 1


def test_criterion_06_entropy_decomposition_residual():
    model = MacroModel()
    rng = random.Random(SEED)
    for _ in range(200):
        e = model.random_uniform_eidostate(rng)
        report = shannon_decomposition(e, model)
        assert report.residual.exact == 0, e


def test_criterion_07_irreversibility_brackets():
    model = MacroModel()
    rng = random.Random(SEED)
    start = time.monotonic()
    for case in range(50):
        q = rng.randint(1, 3)
        a = model.random_state_with_content(rng, q)
        b = model.random_state_with_content(rng, q)
        est = irreversibility_estimate(a, b, 64, model)
        target = model.registry.s_value(b) - model.registry.s_value(a)
        assert est.lower <= target <= est.upper, (case, a, b)
        assert est.width <= Fraction(2, 64), (case, est.width)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"50 brackets took {elapsed:.1f}s"


def test_criterion_08_erasure_bound_exhaustive():
    model = MacroModel()
    reg = model.registry
    atoms = [model.make_record()]
    atoms += [reg.ensure_s_atom(Fraction(k, 8)) for k in range(9)]
    states = list(atoms) + [Pair(x, y) for x in atoms for y in atoms]
    bit = model.make_bit_state()
    applicable = 0
    for a in states:
        sa = singleton(a)
        for b in states:
            erases = model.arrow_combined(((sa, 1), (bit, 1)), ((singleton(b), 1),))
            if not erases:
                continue
            applicable += 1
            margin = reg.s_value(b) - reg.s_value(a) - 1
            assert margin >= 0, (a, b, margin)
    assert applicable > 0
    # The engine-level check must agree on the atom-only square.
    for a in atoms:
        for b in atoms:
            verdict = landauer_check(a, b, model)
            erases = model.arrow_combined(
                ((singleton(a), 1), (bit, 1)), ((singleton(b), 1),)
            )
            assert verdict.applicable == erases, (a, b)
            if verdict.applicable:
                assert verdict.satisfied
                assert verdict.margin.exact == reg.s_value(b) - reg.s_value(a) - 1


def test_criterion_09_quantum_isometries_and_mixtures():
    model = QuantumModel()
    for d_a in range(1, 9):
        for d_b in range(1, 9):
            atom_a = model.registry.ensure_dim(d_a)
            atom_b = model.registry.ensure_dim(d_b)
            both = Eidostate([atom_a, atom_b])
            real = model.realize(both, qubit_budget=3, seed=SEED)
            assert real.mixture_residual() <= 1e-10, (d_a, d_b)
            a = singleton(atom_a)
            b = singleton(atom_b)
            u = model.find_isometry(a, b, real)
            if d_a > d_b:
                assert u is None, (d_a, d_b)
                continue
            assert u is not None, (d_a, d_b)
            p_a = real.projector(a)
            p_b = real.projector(b)
            eye = np.eye(p_b.shape[0])
            residual = np.linalg.norm((eye - p_b) @ u @ p_a)
            assert residual <= 1e-10, (d_a, d_b, residual)
            assert np.max(np.abs(u.conj().T @ u - p_a)) <= 1e-10, (d_a, d_b)


def _rational_within(p) -> Fraction:
    if p.exact is not None:
        return p.exact
    box = p.interval(FIRST_BITS)
    return (box.lower + box.upper) / 2


def test_criterion_10_entropic_distribution_is_unique_minimum():
    model = MacroModel()
    rng = random.Random(SEED)
    done = rational = 0
    while done < 100:
        e = model.random_uniform_eidostate(rng, max_size=6)
        if len(e) < 2:
            continue
        probabilities = {m: entropic_probability(m, e, model) for m in e}
        # The weights are rationals: the probability itself where it is
        # rational, else the midpoint of its first-rung interval.
        entropic = {m: _rational_within(p) for m, p in probabilities.items()}
        gap = gibbs_gap(e, entropic, model)
        assert float(gap) <= 1e-12
        if all(p.exact is not None for p in probabilities.values()):
            assert gap.exact == 0, e
            rational += 1
        members = list(e)
        source = max(members, key=lambda m: entropic[m])
        target = rng.choice([m for m in members if m != source])
        delta = max(Fraction(1, 1000), entropic[source] / 2)
        perturbed = dict(entropic)
        perturbed[source] -= delta
        perturbed[target] += delta
        gap = gibbs_gap(e, perturbed, model)
        assert float(gap) > 0, (e, float(delta))
        done += 1
    assert rational == 28


def test_criterion_11_demonic_equivalence():
    model = MacroModel()
    rng = random.Random(SEED)
    for case in range(500):
        if rng.random() < 0.5:
            q = rng.randint(0, 3)
            a = model.random_state_with_content(rng, q)
            b = model.random_state_with_content(rng, q)
        else:
            a = model.random_state(rng)
            b = model.random_state(rng)
        direct = model.possible(singleton(a), singleton(b))
        assert demonically_possible(a, b, 1024, model) == direct, (case, a, b)


def test_criterion_12_fault_injection_sensitivity():
    for mutant_cls in (
        MutantDropContentCriterion,
        MutantFlippedEntropyOrder,
        MutantWeightedRecords,
    ):
        mutant = mutant_cls()
        records = run_axiom_report(mutant, SUITE_CONFIG).counterexamples
        records += run_theorem_report(mutant, SUITE_CONFIG).counterexamples
        assert records, f"{mutant_cls.__name__} went undetected"
        longest = max(len(r.inputs) for r in records)
        assert longest <= 4096, f"{mutant_cls.__name__}: {longest} characters of inputs"
