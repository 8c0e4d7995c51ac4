"""Tests for the model-generic engine."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo.engine import (
    ImpossibleProcessError,
    IrreversibilityEstimate,
    MinInfoStatus,
    NotUniformError,
    SearchBoundExceeded,
    _last_holding,
    adiabatically_accessible,
    classify,
    conditional_probability,
    demonically_possible,
    entropic_probability,
    entropy_uniform,
    gibbs_gap,
    info_balance_check,
    irreversibility_estimate,
    landauer_check,
    min_information_to_transform,
    process_equivalent,
    process_negate,
    process_sum,
    shannon_decomposition,
)
from eidothermo.exact import ExactEntropy
from eidothermo.macro import MacroModel
from eidothermo.oracle import ModelOracle
from eidothermo.quantum import QuantumModel
from eidothermo.states import (
    Atom,
    Eidostate,
    Pair,
    Process,
    ProcessType,
    combine,
    singleton,
)

R = Atom("r")
S0 = Atom("s_0")
SH = Atom("s_1/2")
S1 = Atom("s_1")


@pytest.fixture()
def macro():
    return MacroModel()


@pytest.fixture()
def quantum():
    return QuantumModel()


def test_classify_bit_creation(macro):
    bit = macro.make_bit_state()
    assert classify(Process(singleton(R), bit), macro) is ProcessType.NATURAL_IRREVERSIBLE
    assert classify(Process(bit, singleton(R)), macro) is ProcessType.ANTINATURAL_IRREVERSIBLE


def test_classify_reversible_and_impossible(macro):
    e = Eidostate([S0, S1])
    assert classify(Process(e, e), macro) is ProcessType.REVERSIBLE
    assert classify(Process(singleton(R), singleton(S1)), macro) is ProcessType.IMPOSSIBLE


def test_is_uniform_via_arrows(macro):
    assert macro.is_uniform(Eidostate([S0, S1]))
    assert not macro.is_uniform(Eidostate([R, S0]))
    # The generic pairwise-arrow default gives the same answers.
    assert ModelOracle.is_uniform(macro, Eidostate([S0, S1]))
    assert not ModelOracle.is_uniform(macro, Eidostate([R, S0]))


def test_entropy_uniform_information_state(macro):
    info = macro.make_information_state(8)
    assert entropy_uniform(info, macro) == ExactEntropy.from_rational(3)
    info = macro.make_information_state(6)
    assert entropy_uniform(info, macro) == ExactEntropy.log2_of_int(6)


def test_entropy_uniform_singleton_and_mixed(macro):
    assert entropy_uniform(singleton(SH), macro) == ExactEntropy.from_rational(
        Fraction(1, 2)
    )
    got = entropy_uniform(Eidostate([S0, S1]), macro)
    assert got == ExactEntropy([Fraction(0), Fraction(1)])


def test_entropy_uniform_rejects_non_uniform(macro):
    with pytest.raises(NotUniformError):
        entropy_uniform(Eidostate([R, S0]), macro)


def test_entropic_probability_values(macro):
    bit = macro.make_bit_state()
    assert entropic_probability(S1, bit, macro) == 0
    assert entropic_probability(R, bit, macro) == mpmath.mpf(1) / 2
    e = Eidostate([S0, S1])
    p = entropic_probability(S1, e, macro)
    with mpmath.workprec(130):
        assert abs(p - mpmath.mpf(2) / 3) < 1e-30


def test_conditional_probability_rules(macro):
    e = Eidostate([S0, SH, S1])
    members = list(e)
    assert conditional_probability(members, members, e, macro) == 1
    with pytest.raises(ValueError):
        conditional_probability([S0], [Atom("s_3/4")], e, macro)
    assert conditional_probability([S1], [S0, SH], e, macro) == 0


def test_conditional_probability_is_independent_of_hash_seed():
    # Weights must be summed in member order: summing them in set order
    # moved the last bits with PYTHONHASHSEED.
    script = (
        "from fractions import Fraction as F\n"
        "from eidothermo.engine import conditional_probability\n"
        "from eidothermo.macro import MacroModel\n"
        "from eidothermo.states import Eidostate\n"
        "m = MacroModel()\n"
        "lams = (F(1, 3), F(1, 7), F(2, 5), F(5, 9), F(1, 11), F(7, 13))\n"
        "atoms = [m.registry.ensure_s_atom(x) for x in lams]\n"
        "e = Eidostate(atoms)\n"
        "print(conditional_probability(atoms[:2], atoms, e, m)._mpf_)\n"
        "print(conditional_probability(atoms[1:4], atoms[:5], e, m)._mpf_)\n"
    )
    outputs = set()
    for seed in (1, 2, 3, 4):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_conditional_additivity(macro):
    e = Eidostate([S0, SH, S1])
    everyone = list(e)
    p_a = conditional_probability([S0], everyone, e, macro)
    p_b = conditional_probability([S1], everyone, e, macro)
    p_ab = conditional_probability([S0, S1], everyone, e, macro)
    with mpmath.workprec(130):
        assert abs(p_ab - (p_a + p_b)) < 1e-30


def test_probability_independence(macro):
    rng = random.Random(31)
    for _ in range(20):
        e = macro.random_uniform_eidostate(rng, 4, 3)
        f = macro.random_uniform_eidostate(rng, 4, 3)
        x = rng.choice(e.members)
        y = rng.choice(f.members)
        joint = entropic_probability(Pair(x, y), combine(e, f), macro)
        with mpmath.workprec(130):
            split = entropic_probability(x, e, macro) * entropic_probability(
                y, f, macro
            )
            assert abs(joint - split) < 1e-30


def test_shannon_decomposition_pure_information(macro):
    info = macro.make_information_state(8)
    report = shannon_decomposition(info, macro)
    assert abs(report.mean_state_entropy) < 1e-30
    assert abs(report.shannon_term - 3) < 1e-30
    assert report.residual() < 1e-30


def test_shannon_decomposition_singleton(macro):
    report = shannon_decomposition(singleton(SH), macro)
    assert abs(report.shannon_term) < 1e-30
    assert abs(report.mean_state_entropy - mpmath.mpf(1) / 2) < 1e-30


def test_shannon_decomposition_mixed(macro):
    e = Eidostate([S0, S1])
    report = shannon_decomposition(e, macro)
    with mpmath.workprec(130):
        assert abs(report.mean_state_entropy - mpmath.mpf(2) / 3) < 1e-30
    assert report.residual() < mpmath.mpf(10) ** -36
    total = float(report.entropy_total)
    assert total == pytest.approx(1.584962500721156, abs=1e-12)


def test_probabilities_sum_to_one(macro):
    rng = random.Random(32)
    for _ in range(20):
        e = macro.random_uniform_eidostate(rng, 5, 3)
        report = shannon_decomposition(e, macro)
        with mpmath.workprec(130):
            total = sum(report.support.values())
            assert abs(total - 1) < mpmath.mpf(10) ** -36


def test_tilted_entropy_gives_same_probabilities(macro):
    tilted = _TiltedMacro(macro, Fraction(3, 7))
    rng = random.Random(33)
    for _ in range(10):
        e = macro.random_uniform_eidostate(rng, 4, 3)
        member = rng.choice(e.members)
        base = entropic_probability(member, e, macro)
        shifted = entropic_probability(member, e, tilted)
        assert abs(base - shifted) < mpmath.mpf(10) ** -30


def test_gibbs_gap_zero_at_entropic(macro):
    e = Eidostate([S0, S1])
    report = shannon_decomposition(e, macro)
    gap = gibbs_gap(e, report.support, macro)
    assert abs(gap) < 1e-12


def test_gibbs_gap_uniform_distribution(macro):
    e = Eidostate([S0, S1])
    gap = gibbs_gap(e, {S0: Fraction(1, 2), S1: Fraction(1, 2)}, macro)
    want = 1.584962500721156 - 1.5
    assert float(gap) == pytest.approx(want, abs=1e-12)


def test_gibbs_gap_point_mass(macro):
    e = Eidostate([S0, S1])
    gap = gibbs_gap(e, {S1: 1}, macro)
    assert float(gap) == pytest.approx(0.584962500721156, abs=1e-12)


def test_gibbs_gap_validation(macro):
    e = Eidostate([S0, S1])
    with pytest.raises(ValueError):
        gibbs_gap(e, {S0: Fraction(2, 3)}, macro)
    with pytest.raises(ValueError):
        gibbs_gap(e, {S0: 1, SH: 0}, macro)


class PairwiseUniformMacro(MacroModel):
    """Macro model answering is_uniform by the generic pairwise-arrow
    default, counting the calls."""

    def __init__(self):
        super().__init__()
        self.uniform_calls = 0

    def is_uniform(self, e):
        self.uniform_calls += 1
        return ModelOracle.is_uniform(self, e)


def test_gibbs_gap_checks_uniformity_once():
    model = PairwiseUniformMacro()
    e = model.make_information_state(8)
    gap = gibbs_gap(e, {m: Fraction(1, 8) for m in e}, model)
    assert abs(gap) < 1e-12
    assert model.uniform_calls == 1


def test_irreversibility_reversible_process(macro):
    est = irreversibility_estimate(S0, S0, 16, macro)
    assert est.lower <= 0 <= est.upper
    assert est.width <= Fraction(2, 16)


def test_irreversibility_bit_gap(macro):
    est = irreversibility_estimate(S0, S1, 16, macro)
    assert est.lower <= 1 <= est.upper
    assert est.width <= Fraction(2, 16)


def test_irreversibility_half_gap(macro):
    est = irreversibility_estimate(SH, S1, 16, macro)
    assert est.lower <= Fraction(1, 2) <= est.upper
    assert est.width <= Fraction(2, 16)


def test_irreversibility_brackets_nest(quantum):
    coarse = irreversibility_estimate(Atom("q2"), Atom("q3"), 4, quantum)
    fine = irreversibility_estimate(Atom("q2"), Atom("q3"), 32, quantum)
    assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper
    assert fine.width < coarse.width


def test_irreversibility_impossible_pair(macro):
    with pytest.raises(ImpossibleProcessError):
        irreversibility_estimate(R, S1, 4, macro)


#: Brackets of the first 50 criterion-7 pairs (draw seed 42, q_max=64) as
#: computed by two cold bisections per copy count over the whole search
#: range.  Every bracket is exact: S(b) - S(a) is a multiple of 1/4.
CRITERION_7_BRACKETS = [
    (Fraction(5, 4), Fraction(5, 4)),
    (Fraction(-1, 4), Fraction(-1, 4)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1), Fraction(1)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-5, 4), Fraction(-5, 4)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(0), Fraction(0)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(-3, 4), Fraction(-3, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-1, 4), Fraction(-1, 4)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-3, 2), Fraction(-3, 2)),
    (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(0)),
    (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(0), Fraction(0)),
    (Fraction(-1, 4), Fraction(-1, 4)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(-3, 4), Fraction(-3, 4)),
    (Fraction(-1, 4), Fraction(-1, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(-3, 4), Fraction(-3, 4)),
    (Fraction(3, 2), Fraction(3, 2)),
    (Fraction(-3, 4), Fraction(-3, 4)),
    (Fraction(-3, 2), Fraction(-3, 2)),
]

#: Quantum brackets (a, b, q_max, lower, upper) from the same cold search.
QUANTUM_BRACKETS = [
    ("q2", "q3", 4, Fraction(1, 2), Fraction(2, 3)),
    ("q2", "q3", 16, Fraction(7, 12), Fraction(3, 5)),
    ("q2", "q3", 32, Fraction(7, 12), Fraction(17, 29)),
    ("q2", "q5", 4, Fraction(5, 4), Fraction(4, 3)),
    ("q2", "q5", 16, Fraction(21, 16), Fraction(4, 3)),
    ("q2", "q5", 32, Fraction(37, 28), Fraction(41, 31)),
]

#: Arrows the cold search made for the first 12 criterion-7 brackets.
COLD_SEARCH_ARROWS_12 = 12872


class CountingMacro(MacroModel):
    """Macro model counting its arrow_combined calls."""

    def __init__(self):
        super().__init__()
        self.arrow_calls = 0

    def arrow_combined(self, parts_a, parts_b):
        self.arrow_calls += 1
        return super().arrow_combined(parts_a, parts_b)


def _criterion_7_brackets(model, count):
    rng = random.Random(42)
    brackets = []
    for _ in range(count):
        q = rng.randint(1, 3)
        a = model.random_state_with_content(rng, q)
        b = model.random_state_with_content(rng, q)
        est = irreversibility_estimate(a, b, 64, model)
        brackets.append((est.lower, est.upper))
    return brackets


def test_irreversibility_brackets_pinned(macro):
    assert _criterion_7_brackets(macro, 50) == CRITERION_7_BRACKETS


def test_irreversibility_quantum_brackets_pinned(quantum):
    got = [
        (a, b, q_max, est.lower, est.upper)
        for a, b, q_max, _, _ in QUANTUM_BRACKETS
        for est in [irreversibility_estimate(Atom(a), Atom(b), q_max, quantum)]
    ]
    assert got == QUANTUM_BRACKETS


def test_irreversibility_search_is_warm_started():
    model = CountingMacro()
    assert _criterion_7_brackets(model, 12) == CRITERION_7_BRACKETS[:12]
    assert model.arrow_calls <= COLD_SEARCH_ARROWS_12 // 3, model.arrow_calls


def _bisect_last_holding(holds, lo, hi):
    """Reference: plain bisection for the largest p in [lo, hi) with holds(p)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


@given(st.data())
@settings(max_examples=300)
def test_last_holding_matches_bisection(data):
    lo = data.draw(st.integers(-100, 100), label="lo")
    hi = lo + data.draw(st.integers(1, 300), label="width")
    threshold = data.draw(
        st.one_of(st.just(lo), st.just(hi - 1), st.integers(lo, hi - 1)),
        label="threshold",
    )
    guess = data.draw(
        st.one_of(
            st.integers(threshold - 1, threshold + 1),
            st.integers(lo - 50, hi + 50),
            st.sampled_from([lo, hi - 1, hi, 0]),
        ),
        label="guess",
    )
    probed = []

    def holds(p):
        # Neither endpoint is evaluated: holds(lo) and not holds(hi) are given.
        assert lo < p < hi, p
        probed.append(p)
        return p <= threshold

    got = _last_holding(holds, lo, hi, guess)
    assert got == _bisect_last_holding(lambda p: p <= threshold, lo, hi) == threshold
    assert len(probed) == len(set(probed))
    if guess in (threshold, threshold + 1) and lo < guess < hi:
        assert len(probed) <= 2


class SearchStub(MacroModel):
    """Macro model whose search arrows starting from ``side`` fail for
    every copy count from ``from_q`` on: a forward relation that fails at
    the search floor (side a) or a backward one that fails at the
    search ceiling (side b)."""

    def __init__(self, side, from_q):
        super().__init__()
        self.side = singleton(side)
        self.from_q = from_q

    def arrow_combined(self, parts_a, parts_b):
        (first, q), *rest = parts_a
        if rest and first == self.side and q >= self.from_q:
            return False
        return super().arrow_combined(parts_a, parts_b)


@pytest.mark.parametrize("from_q", [1, 3])
def test_irreversibility_forward_fails_at_floor(from_q):
    with pytest.raises(ImpossibleProcessError) as info:
        irreversibility_estimate(S0, S1, 8, SearchStub(S0, from_q))
    assert str(info.value) == f"forward relation failed at the search floor for q={from_q}"


@pytest.mark.parametrize("from_q", [1, 3])
def test_irreversibility_backward_fails_at_ceiling(from_q):
    with pytest.raises(ImpossibleProcessError) as info:
        irreversibility_estimate(S0, S1, 8, SearchStub(S1, from_q))
    assert str(info.value) == f"backward relation failed at the search ceiling for q={from_q}"


def test_irreversibility_quantum(quantum):
    est = irreversibility_estimate(Atom("q2"), Atom("q5"), 16, quantum)
    gap = 2.321928094887362 - 1.0
    assert float(est.lower) <= gap <= float(est.upper)
    assert est.width <= Fraction(2, 16)


def test_information_process_rate(macro):
    # Combining with an information process shifts the arrow threshold
    # by exactly the bit count difference.
    rng = random.Random(34)
    for _ in range(30):
        q = rng.randint(0, 2)
        a = macro.random_state_with_content(rng, q)
        b = macro.random_state_with_content(rng, q)
        size_i = rng.randint(1, 16)
        size_j = rng.randint(1, 16)
        info_i = macro.make_information_state(size_i)
        info_j = macro.make_information_state(size_j)
        got = macro.arrow_combined(
            ((singleton(a), 1), (info_i, 1)), ((singleton(b), 1), (info_j, 1))
        )
        lhs = macro.state_entropy(a) + ExactEntropy.log2_of_int(size_i)
        rhs = macro.state_entropy(b) + ExactEntropy.log2_of_int(size_j)
        assert got == (lhs <= rhs)


def test_min_information_trivial(macro):
    found = min_information_to_transform(singleton(S0), singleton(S1), 16, macro)
    assert found.status is MinInfoStatus.FOUND and found.n == 1


def test_min_information_one_bit(macro):
    result = min_information_to_transform(singleton(S1), singleton(S0), 16, macro)
    assert result.status is MinInfoStatus.FOUND and result.n == 2


def test_min_information_blocked(macro):
    result = min_information_to_transform(singleton(R), singleton(S1), 1024, macro)
    assert result.status is MinInfoStatus.BLOCKED


def test_min_information_exhausted(macro):
    four_units = singleton(_fold(S1, 4))
    four_zero = singleton(_fold(S0, 4))
    result = min_information_to_transform(four_units, four_zero, 8, macro)
    assert result.status is MinInfoStatus.EXHAUSTED
    result = min_information_to_transform(four_units, four_zero, 16, macro)
    assert result.status is MinInfoStatus.FOUND and result.n == 16


def test_demonic_equivalence_samples(macro):
    rng = random.Random(35)
    for _ in range(60):
        a = macro.random_state(rng, 3)
        b = macro.random_state(rng, 3)
        demonic = demonically_possible(a, b, 1024, macro)
        direct = macro.possible(singleton(a), singleton(b))
        assert demonic == direct


def test_demonic_equivalence_quantum(quantum):
    rng = random.Random(36)
    for _ in range(40):
        a = quantum.random_state(rng, 2)
        b = quantum.random_state(rng, 2)
        assert demonically_possible(a, b, 1024, quantum)


def test_landauer_margin_zero(macro):
    verdict = landauer_check(S0, S1, macro)
    assert verdict.applicable and verdict.satisfied
    assert verdict.margin_exact == 0


def test_landauer_inapplicable_cases(macro):
    assert not landauer_check(S0, SH, macro).applicable
    assert not landauer_check(S0, S0, macro).applicable


def test_landauer_quantum(quantum):
    verdict = landauer_check(Atom("u"), Atom("q2"), quantum)
    assert verdict.applicable and verdict.satisfied
    assert verdict.margin_exact == 0
    verdict = landauer_check(Atom("u"), Atom("q3"), quantum)
    assert not verdict.applicable or verdict.satisfied


def test_info_balance_equality_at_erasure(macro):
    a = combine(singleton(S0), macro.make_bit_state())
    b = singleton(S1)
    verdict = info_balance_check(a, b, macro)
    assert verdict.satisfied
    assert abs(verdict.slack) < 1e-30
    assert float(verdict.delta_shannon) == pytest.approx(-1.0, abs=1e-30)


def test_info_balance_identity(macro):
    e = Eidostate([S0, S1])
    verdict = info_balance_check(e, e, macro)
    assert verdict.satisfied and abs(verdict.slack) < 1e-30


def test_info_balance_requires_natural(macro):
    with pytest.raises(ImpossibleProcessError):
        info_balance_check(singleton(S1), singleton(S0), macro)


def test_process_algebra_structural():
    p1 = Process(singleton(S0), singleton(S1))
    p2 = Process(singleton(SH), singleton(R))
    total = process_sum(p1, p2)
    assert total.initial == combine(p1.initial, p2.initial)
    assert process_negate(p1) == Process(singleton(S1), singleton(S0))


def test_process_equivalence_zero_element(macro):
    p = Process(singleton(S0), singleton(S1))
    zero = Process(singleton(SH), singleton(SH))
    padded = process_sum(p, zero)
    assert process_equivalent(padded, p, [SH, S0])


def test_process_plus_negation_is_zero():
    p = Process(singleton(S0), singleton(S1))
    total = process_sum(p, process_negate(p))
    zero = Process(singleton(Pair(S0, S1)), singleton(Pair(S0, S1)))
    assert process_equivalent(total, zero, [])


def test_process_equivalence_not_found_is_false():
    p1 = Process(singleton(S0), singleton(S1))
    p2 = Process(singleton(S1), singleton(S0))
    assert not process_equivalent(p1, p2, [])


def test_adiabatic_macro_reduction(macro):
    rng = random.Random(37)
    reg = macro.registry
    for _ in range(40):
        a = macro.random_state_with_content(rng, rng.randint(0, 3))
        b = macro.random_state_with_content(rng, rng.randint(0, 3))
        got = adiabatically_accessible(a, b, macro)
        assert got == (reg.s_value(a) <= reg.s_value(b))


def test_adiabatic_identity_and_blocked(macro):
    assert adiabatically_accessible(S1, S1, macro)
    assert not adiabatically_accessible(S1, S0, macro)
    with pytest.raises(SearchBoundExceeded):
        adiabatically_accessible(R, _fold(S1, 10), macro)


def test_adiabatic_quantum_is_dimension_order(quantum):
    assert adiabatically_accessible(Atom("q2"), Atom("q5"), quantum)
    assert not adiabatically_accessible(Atom("q5"), Atom("q2"), quantum)


def _fold(atom, n):
    expr = atom
    for _ in range(n - 1):
        expr = Pair(atom, expr)
    return expr


class _TiltedMacro(ModelOracle):
    """The base model with entropy shifted by a multiple of the content."""

    name = "macro-tilted"

    def __init__(self, base: MacroModel, c: Fraction):
        self.base = base
        self.c = c

    def arrow(self, a, b):
        return self.base.arrow(a, b)

    def arrow_combined(self, parts_a, parts_b):
        return self.base.arrow_combined(parts_a, parts_b)

    def state_entropy(self, a):
        shift = self.c * self.base.registry.q_value(a)
        return self.base.state_entropy(a) + shift

    def components(self, a):
        return self.base.components(a)

    def is_record(self, a):
        return self.base.is_record(a)

    def is_mechanical(self, a):
        return self.base.is_mechanical(a)

    def make_record(self):
        return self.base.make_record()

    def state_equivalence(self, e):
        return self.base.state_equivalence(e)

    def random_atom(self, rng):
        return self.base.random_atom(rng)
