"""Tests for the model-generic engine."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from eidothermo.engine import (
    ImpossibleProcessError,
    IrreversibilityEstimate,
    MinInfoStatus,
    NotUniformError,
    _gallop,
    _search_sides,
    classify,
    conditional_probability,
    demonically_possible,
    entropic_probability,
    entropy_uniform,
    gibbs_gap,
    irreversibility_estimate,
    landauer_check,
    min_information_to_transform,
    shannon_decomposition,
)
from eidothermo.exact import FIRST_BITS, ExactEntropy, Real, decimal_of, power_ratio
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
    assert entropic_probability(S1, bit, macro).exact == 0
    assert entropic_probability(R, bit, macro).exact == Fraction(1, 2)
    # 2^1 / (2^0 + 2^1): the powers are proportional, so it is exact.
    assert entropic_probability(S1, Eidostate([S0, S1]), macro).exact == Fraction(2, 3)


def test_conditional_probability_rules(macro):
    e = Eidostate([S0, SH, S1])
    members = list(e)
    assert conditional_probability(members, members, e, macro).exact == 1
    with pytest.raises(ValueError):
        conditional_probability([S0], [Atom("s_3/4")], e, macro)
    assert conditional_probability([S1], [S0, SH], e, macro).exact == 0


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
        "print(conditional_probability(atoms[:2], atoms, e, m).interval(128))\n"
        "print(conditional_probability(atoms[1:4], atoms[:5], e, m).interval(128))\n"
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
    assert 0 in p_ab.interval(FIRST_BITS) - (p_a.interval(FIRST_BITS) + p_b.interval(FIRST_BITS))


def test_probability_independence(macro):
    rng = random.Random(31)
    for _ in range(20):
        e = macro.random_uniform_eidostate(rng, 4, 3)
        f = macro.random_uniform_eidostate(rng, 4, 3)
        x = rng.choice(e.members)
        y = rng.choice(f.members)
        joint = entropic_probability(Pair(x, y), combine(e, f), macro).interval(FIRST_BITS)
        split = [entropic_probability(z, g, macro).interval(FIRST_BITS) for z, g in ((x, e), (y, f))]
        assert 0 in joint - split[0] * split[1]


def test_shannon_decomposition_pure_information(macro):
    info = macro.make_information_state(8)
    report = shannon_decomposition(info, macro)
    assert all(p.exact == Fraction(1, 8) for p in report.support.values())
    assert report.entropy_total.exact == 3
    assert 0 in report.mean_state_entropy.interval(FIRST_BITS)
    assert 3 in report.shannon_term.interval(FIRST_BITS)
    assert report.residual.exact == 0


def test_shannon_decomposition_singleton(macro):
    report = shannon_decomposition(singleton(SH), macro)
    assert report.shannon_term.exact == 0
    assert Fraction(1, 2) in report.mean_state_entropy.interval(FIRST_BITS)


def test_shannon_decomposition_mixed(macro):
    e = Eidostate([S0, S1])
    report = shannon_decomposition(e, macro)
    assert Fraction(2, 3) in report.mean_state_entropy.interval(FIRST_BITS)
    assert report.residual.exact == 0
    assert report.entropy_total.exact is None
    total = float(report.entropy_total)
    assert total == pytest.approx(1.584962500721156, abs=1e-12)


def test_probabilities_sum_to_one(macro):
    rng = random.Random(32)
    for _ in range(20):
        e = macro.random_uniform_eidostate(rng, 5, 3)
        report = shannon_decomposition(e, macro)
        assert 1 in sum(p.interval(FIRST_BITS) for p in report.support.values())


def test_tilted_entropy_gives_same_probabilities(macro):
    tilted = _TiltedMacro(macro, Fraction(3, 7))
    rng = random.Random(33)
    for _ in range(10):
        e = macro.random_uniform_eidostate(rng, 4, 3)
        member = rng.choice(e.members)
        base = entropic_probability(member, e, macro)
        shifted = entropic_probability(member, e, tilted)
        assert base.exact == shifted.exact
        assert 0 in base.interval(FIRST_BITS) - shifted.interval(FIRST_BITS)


#: Precision of the mpmath interval reference, in bits.
REFERENCE_BITS = 2048


def _reference(e, oracle):
    """Each member's probability, <S>, H and S(E) as 2,048-bit mpmath
    intervals, from the exponent multisets: 2^S(m) as a sum of powers,
    then probabilities and logarithms."""
    ctx = MPIntervalContext()
    ctx.prec = REFERENCE_BITS
    log2 = ctx.log(2)
    weights = []
    for m in e.members:
        weight = ctx.mpf(0)
        for x in oracle.state_entropy(m).exponents:
            weight += ctx.mpf(2) ** (ctx.mpf(x.numerator) / ctx.mpf(x.denominator))
        weights.append(weight)
    total = sum(weights, ctx.mpf(0))
    support = [w / total for w in weights]
    mean = sum((p * ctx.log(w) / log2 for p, w in zip(support, weights)), ctx.mpf(0))
    shannon = -sum((p * ctx.log(p) / log2 for p in support), ctx.mpf(0))
    return support, mean, shannon, ctx.log(total) / log2


def _assert_certifies(real, ref):
    """The Real's 4,096-bit interval meets the reference interval, as both
    contain the number, and wherever both ends of the reference round to
    the same 30 digits, decimal_of prints them."""
    with mpmath.workprec(REFERENCE_BITS):
        ends = [mpmath.mpf(ref.a), mpmath.mpf(ref.b)]
        texts = {mpmath.nstr(x, 30, strip_zeros=False) for x in ends}
    lo, hi = (Fraction(*to_rational(x._mpf_)) for x in ends)
    box = real.interval(4096)
    assert box.lower <= hi and lo <= box.upper, (real, ref)
    if len(texts) == 1:
        assert decimal_of(real) == texts.pop(), (real, ref)


def _assert_matches_reference(e, oracle):
    """Every probability and decomposition term is a Real certified by the
    reference: exact when it is rational, never a midpoint.  A member's
    probability is rational exactly when power_ratio finds the ratio."""
    support, mean, shannon, total = _reference(e, oracle)
    report = shannon_decomposition(e, oracle)
    entropy = entropy_uniform(e, oracle)
    for m, ref in zip(e.members, support):
        rational = power_ratio(oracle.state_entropy(m), entropy)
        for p in (report.support[m], entropic_probability(m, e, oracle)):
            assert p.exact == rational, (e, m)
            _assert_certifies(p, ref)
    assert report.entropy_total.exact == (entropy.as_fraction() if entropy.is_rational else None)
    _assert_certifies(report.entropy_total, total)
    _assert_certifies(report.mean_state_entropy, mean)
    _assert_certifies(report.shannon_term, shannon)
    assert report.residual.exact == 0, e


def _fresh_lambda_eidostate(model, rng):
    """A uniform eidostate of content q whose atoms take fresh lambdas
    (dyadic denominators up to 2^16), some members padded by a record."""
    q = rng.randint(1, 3)
    members = set()
    for _ in range(rng.randint(1, 5)):
        leaves = [model.registry.ensure_s_atom(model.fresh_lambda(rng)) for _ in range(q)]
        leaves += [model.make_record()] * rng.randint(0, 1)
        expr = leaves[0]
        for leaf in leaves[1:]:
            expr = Pair(expr, leaf)
        members.add(expr)
    return Eidostate(members)


# Each example evaluates every number at 4,096 bits: tens of milliseconds.
@given(seed=st.integers(0, 2**32 - 1), fresh=st.booleans())
@settings(max_examples=60, deadline=None)
def test_decomposition_matches_power_sum_reference_on_macro(seed, fresh):
    model = MacroModel()
    rng = random.Random(seed)
    if fresh:
        e = _fresh_lambda_eidostate(model, rng)
    else:
        e = model.random_uniform_eidostate(rng, 6, 4)
    assert model.is_uniform(e)
    _assert_matches_reference(e, model)


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sets(st.one_of(st.integers(1, 64), st.integers(1, 10**40)), min_size=1, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_decomposition_matches_power_sum_reference_on_quantum(seed, dims):
    model = QuantumModel()
    _assert_matches_reference(model.random_uniform_eidostate(random.Random(seed), 6, 4), model)
    _assert_matches_reference(
        Eidostate(model.registry.ensure_dim(d) for d in dims), model
    )


@given(dims=st.sets(st.integers(1, 10**40), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_decomposition_residual_is_certified_at_large_dimensions(dims):
    model = QuantumModel()
    e = Eidostate(model.registry.ensure_dim(d) for d in dims)
    report = shannon_decomposition(e, model)
    assert report.residual.exact == 0
    total = sum(p.interval(FIRST_BITS) for p in report.support.values())
    assert 1 in total and total.upper - total.lower < Fraction(1, 2**120)


class _EntropyTable:
    """The two oracle calls conditional_probability makes, from a table."""

    def __init__(self, entropies):
        self.entropies = entropies

    def is_uniform(self, e):
        return True

    def state_entropy(self, m):
        return self.entropies[m]


def _is_tie(q: Fraction, digits: int) -> bool:
    """q lies halfway between two roundings to the given significant digits."""
    q = abs(q)
    e = math.floor(math.log10(q))
    while Fraction(10) ** e > q:
        e -= 1
    while Fraction(10) ** (e + 1) <= q:
        e += 1
    return (q * Fraction(10) ** (digits - 1 - e)).denominator == 2


@given(
    hits=st.lists(st.fractions(-3, 3, max_denominator=12), min_size=1, max_size=4),
    shifts=st.lists(st.integers(-4, 4), max_size=3),
    scale=st.integers(1, 7),
)
@settings(max_examples=150, deadline=None)
def test_rational_probabilities_match_their_enclosure(hits, shifts, scale):
    """The other members repeat the hits' entropies shifted by integers,
    and by log2 of an integer, so the powers are proportional and P is
    the rational 1 / (1 + sum of 2^t + scale): the exact path gives it,
    and the interval path (the hits' weights over all weights) encloses
    it and prints the same digits away from rounding ties."""
    entropies = {}
    for i, h in enumerate(hits):
        entropies[Atom(f"h{i}")] = ExactEntropy.from_rational(h)
        for j, t in enumerate(shifts):
            entropies[Atom(f"s{j}_{i}")] = ExactEntropy.from_rational(h + t)
        if scale > 1:
            entropies[Atom(f"k{i}")] = ExactEntropy([h]) + ExactEntropy.log2_of_int(scale)
    hit_atoms = [Atom(f"h{i}") for i in range(len(hits))]
    e = Eidostate(entropies)
    p = conditional_probability(hit_atoms, e.members, e, _EntropyTable(entropies)).exact
    assert p == Fraction(1) / (1 + sum(Fraction(2) ** t for t in shifts) + (scale if scale > 1 else 0))

    def enclosure(bits):
        weights = {m: s.power_interval(bits) for m, s in entropies.items()}
        return sum(weights[m] for m in hit_atoms) / sum(weights.values())

    assert p in enclosure(FIRST_BITS)
    assume(not _is_tie(p, 30))
    assert decimal_of(p) == decimal_of(Real(enclosure))


def test_irrational_probability_is_an_enclosure(macro):
    # 1 / (1 + 2^(1/2)) is irrational: no Fraction stands for it.
    e = Eidostate([S0, SH])
    p = entropic_probability(S0, e, macro)
    assert p.exact is None
    assert float(p) == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
    # p = 2^(1/2) - 1, so (p + 1)^2 = 2.
    box = p.interval(FIRST_BITS) + 1
    assert 2 in box * box


def test_gibbs_gap_zero_at_entropic(macro):
    e = Eidostate([S0, S1])
    report = shannon_decomposition(e, macro)
    entropic = {m: p.exact for m, p in report.support.items()}
    assert entropic == {S0: Fraction(1, 3), S1: Fraction(2, 3)}
    assert gibbs_gap(e, entropic, macro).exact == 0


@pytest.mark.parametrize("offset", [Fraction(k, 2**n) for n in (64, 200) for k in (1, -1)])
def test_gibbs_gap_positive_near_entropic(macro, offset):
    # Near the minimum the gap is offset^2 (1/p0 + 1/p1) / (2 ln 2), with
    # p = {1/3, 2/3}: 9.5e-39 at 2^-64, far below a 128-bit interval.
    e = Eidostate([S0, S1])
    gap = gibbs_gap(e, {S0: Fraction(1, 3) + offset, S1: Fraction(2, 3) - offset}, macro)
    assert gap.exact is None
    assert float(gap) > 0
    assert float(gap) == pytest.approx(offset**2 * 9 / (4 * math.log(2)), rel=1e-9)


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
    with pytest.raises(ValueError):
        gibbs_gap(e, {S0: Fraction(-1, 2), S1: Fraction(3, 2)}, macro)


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
    assert gap.exact == 0
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

#: Arrows the Stern-Brocot descent makes for the first 12 criterion-7
#: brackets.
DESCENT_ARROWS_12 = 97


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


def test_irreversibility_descent_arrow_count():
    """The cold per-copy-count search made 12,872 arrows for these 12
    brackets, and its warm-started successor about 3,130."""
    model = CountingMacro()
    assert _criterion_7_brackets(model, 12) == CRITERION_7_BRACKETS[:12]
    assert model.arrow_calls <= DESCENT_ARROWS_12, model.arrow_calls


def _last_holding(holds, lo, hi, guess):
    """Largest p in [lo, hi) with holds(p), for a predicate that holds up
    to a threshold and fails beyond it; neither endpoint is evaluated.
    Probes the guess, gallops away from it with doubling steps, bisects."""
    yes, no = lo, hi
    guess = min(max(guess, lo), hi - 1)
    if guess > lo:
        if holds(guess):
            yes = guess
        else:
            no = guess
    step = 1
    if no == hi:
        while yes + step < no:
            if not holds(yes + step):
                no = yes + step
                break
            yes += step
            step *= 2
    else:
        while no - step > yes:
            if holds(no - step):
                yes = no - step
                break
            no -= step
            step *= 2
    while no - yes > 1:
        mid = (yes + no) // 2
        if holds(mid):
            yes = mid
        else:
            no = mid
    return yes


def _reference_bracket(a, b, q_max, oracle):
    """The search the descent replaced: for every copy count q up to q_max,
    the largest p with the forward relation and the smallest p with the
    backward one, each searched from the cut found with fewer copies
    within a bound taken from the float entropies."""
    sa, sb = singleton(a), singleton(b)
    bit = oracle.make_bit_state()
    srecord = singleton(oracle.make_record())
    ceiling = max([1] + [math.ceil(abs(float(oracle.state_entropy(x)))) for x in (a, b)])
    best_lower = best_upper = None
    for q in range(1, q_max + 1):
        bound = q * (ceiling + 1) + 8

        def forward(p):
            x, y = _search_sides(sa, sb, bit, srecord, q, p)
            return oracle.arrow_combined(x, y)

        def backward(p):
            x, y = _search_sides(sa, sb, bit, srecord, q, p)
            return oracle.arrow_combined(y, x)

        guess = 0 if best_lower is None else math.floor(q * best_lower)
        lower = _last_holding(forward, -bound, bound + 1, guess)
        assert lower > -bound or forward(lower)
        guess = 0 if best_upper is None else math.ceil(q * best_upper) - 1
        upper = _last_holding(lambda p: not backward(p), -bound - 1, bound, guess) + 1
        assert upper < bound or backward(upper)
        if best_lower is None or Fraction(lower, q) > best_lower:
            best_lower = Fraction(lower, q)
        if best_upper is None or Fraction(upper, q) < best_upper:
            best_upper = Fraction(upper, q)
    return best_lower, best_upper


def _assert_best_approximations(est):
    """The ends are the best approximations with denominator <= q_max from
    below and above: equal, or Stern-Brocot neighbours with no fraction
    of denominator <= q_max between them."""
    lower, upper = est.lower, est.upper
    assert max(lower.denominator, upper.denominator) <= est.q_max
    if lower < upper:
        assert upper.numerator * lower.denominator - lower.numerator * upper.denominator == 1
        assert lower.denominator + upper.denominator > est.q_max


@given(
    seed=st.integers(0, 2**32 - 1),
    content=st.integers(1, 3),
    q_max=st.one_of(st.sampled_from([1, 2, 3, 7, 16, 64]), st.integers(1, 300)),
)
@settings(max_examples=60, deadline=None)
def test_descent_matches_reference_on_macro_pairs(seed, content, q_max):
    model = MacroModel()
    rng = random.Random(seed)
    a = model.random_state_with_content(rng, content)
    b = model.random_state_with_content(rng, content)
    est = irreversibility_estimate(a, b, q_max, model)
    assert (est.lower, est.upper) == _reference_bracket(a, b, q_max, model)
    _assert_best_approximations(est)


@given(
    dims=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    q_max=st.one_of(st.sampled_from([1, 2, 3, 7, 16, 64]), st.integers(1, 64)),
)
@settings(max_examples=150, deadline=None)
def test_descent_matches_reference_on_quantum_atoms(dims, q_max):
    model = QuantumModel()
    a, b = (model.registry.ensure_dim(d) for d in dims)
    est = irreversibility_estimate(a, b, q_max, model)
    assert (est.lower, est.upper) == _reference_bracket(a, b, q_max, model)
    _assert_best_approximations(est)


def _assert_strictly_inside(est, da, db):
    """lower < log2(db/da) < upper, at 256 bits."""
    with mpmath.workprec(256):
        x = mpmath.log(mpmath.mpf(db) / da, 2)
        assert est.lower.numerator < x * est.lower.denominator
        assert x * est.upper.denominator < est.upper.numerator


@pytest.mark.parametrize("dims", [(3, 5), (2, 3), (7, 2), (12, 11)])
def test_quantum_bracket_at_large_qmax_is_certified(quantum, dims):
    a, b = (quantum.registry.ensure_dim(d) for d in dims)
    est = irreversibility_estimate(a, b, 10**5, quantum)
    _assert_best_approximations(est)
    _assert_strictly_inside(est, *dims)
    if dims == (3, 5):
        assert (est.lower, est.upper) == (Fraction(41147, 55833), Fraction(38320, 51997))


@pytest.mark.parametrize("forward", [True, False])
def test_irreversibility_bracket_with_large_entropy(quantum, forward):
    """|S| is about 1,000 on one side, far past any small fixed bound."""
    big = quantum.registry.ensure_dim(10**300)
    assert quantum.state_entropy(big) == ExactEntropy.log2_of_int(10**300)
    unit = quantum.registry.ensure_dim(1)
    a, b = (unit, big) if forward else (big, unit)
    est = irreversibility_estimate(a, b, 16, quantum)
    assert (est.lower, est.upper) == _reference_bracket(a, b, 16, quantum)
    est = irreversibility_estimate(a, b, 1000, quantum)
    _assert_best_approximations(est)
    _assert_strictly_inside(est, *((1, 10**300) if forward else (10**300, 1)))


def _homogeneity_breaks(oracle, a, b, q, p, k):
    """Whether either search relation at (k*q, k*p) differs from (q, p)."""
    args = (singleton(a), singleton(b), oracle.make_bit_state(),
            singleton(oracle.make_record()))
    scaled = _search_sides(*args, k * q, k * p)
    base = _search_sides(*args, q, p)
    return any(
        oracle.arrow_combined(*scaled[::step]) != oracle.arrow_combined(*base[::step])
        for step in (1, -1)
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_search_relations_are_homogeneous(data):
    """The descent needs each relation to depend on p/q alone."""
    if data.draw(st.booleans(), label="macro"):
        model = MacroModel()
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        content = data.draw(st.integers(1, 3), label="content")
        a = model.random_state_with_content(rng, content)
        b = model.random_state_with_content(rng, content)
    else:
        model = QuantumModel()
        a, b = (model.registry.ensure_dim(data.draw(st.integers(2, 12))) for _ in "ab")
    q = data.draw(st.integers(1, 8), label="q")
    p = data.draw(st.integers(-4 * q, 4 * q), label="p")
    k = data.draw(st.integers(2, 5), label="k")
    assert not _homogeneity_breaks(model, a, b, q, p, k)


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


@pytest.mark.parametrize("q_max", [1, 3, 8])
def test_irreversibility_forward_fails_at_floor(q_max):
    """The integer part is found with one copy, so the floor error names q=1."""
    with pytest.raises(ImpossibleProcessError) as info:
        irreversibility_estimate(S0, S1, q_max, SearchStub(S0, 1))
    assert str(info.value) == "forward relation failed at the search floor for q=1"


@pytest.mark.parametrize("q_max", [1, 3, 8])
def test_irreversibility_backward_fails_at_ceiling(q_max):
    """With no backward arrow, x = 1 is never certified exact, and the
    upper end left is (q_max + 1)/q_max."""
    with pytest.raises(ImpossibleProcessError) as info:
        irreversibility_estimate(S0, S1, q_max, SearchStub(S1, 1))
    assert str(info.value) == (
        f"backward relation failed at the search ceiling for q={q_max}"
    )


def test_homogeneity_check_flags_a_copy_count_stub():
    """Stubs whose arrows change from three copies on break homogeneity,
    so the descent owes them no right bracket."""
    assert not _homogeneity_breaks(MacroModel(), S0, S1, 1, 1, 3)
    assert _homogeneity_breaks(SearchStub(S0, 3), S0, S1, 1, 1, 3)
    assert _homogeneity_breaks(SearchStub(S1, 3), S0, S1, 1, 1, 3)


@given(st.data())
@settings(max_examples=300)
def test_gallop_matches_linear_scan(data):
    limit = data.draw(st.integers(0, 300), label="limit")
    threshold = data.draw(
        st.one_of(st.sampled_from([0, 1, limit]), st.integers(0, limit + 5)),
        label="threshold",
    )
    probed = []

    def holds(k):
        # holds(0) is given, and nothing past the limit is asked.
        assert 0 < k <= limit, k
        probed.append(k)
        return k <= threshold

    expected = max(k for k in range(limit + 1) if k <= threshold)
    assert _gallop(holds, limit) == expected
    assert len(probed) == len(set(probed))
    if expected <= 1:
        assert len(probed) <= 2


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
    assert verdict.margin.exact == 0


def test_landauer_inapplicable_cases(macro):
    assert not landauer_check(S0, SH, macro).applicable
    assert not landauer_check(S0, S0, macro).applicable


def test_landauer_quantum(quantum):
    verdict = landauer_check(Atom("u"), Atom("q2"), quantum)
    assert verdict.applicable and verdict.satisfied
    assert verdict.margin.exact == 0
    verdict = landauer_check(Atom("u"), Atom("q3"), quantum)
    assert not verdict.applicable or verdict.satisfied


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
