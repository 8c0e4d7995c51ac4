"""Tests for the macrostate model."""

import random
from fractions import Fraction

import pytest

from eidothermo import engine, states
from eidothermo.exact import Comparison, ExactEntropy, compare_entropy
from eidothermo.macro import (
    AtomDef,
    MacroModel,
    MacroRegistry,
    s_atom_id,
)
from eidothermo.harness import (
    MutantDropContentCriterion,
    MutantDropNonUniformCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
)
from eidothermo.oracle import InformationState, expand_factored
from eidothermo.states import Atom, Eidostate, Pair, combine, singleton

R = Atom("r")
S0 = Atom("s_0")
SQ = Atom("s_1/4")
SH = Atom("s_1/2")
S1 = Atom("s_1")


@pytest.fixture()
def model():
    return MacroModel()


def test_atom_def_validation():
    with pytest.raises(ValueError):
        AtomDef("x", -1, Fraction(0))
    with pytest.raises(ValueError):
        AtomDef("x", 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        AtomDef("x", 1, Fraction(-1, 2))


def test_record_atom_is_pinned():
    reg = MacroRegistry()
    with pytest.raises(ValueError):
        reg.register(AtomDef("r", 1, Fraction(0)))
    reg.register(AtomDef("r", 0, Fraction(0)))
    reg.register(AtomDef("r", 0, Fraction(0)))  # same definition is fine
    with pytest.raises(ValueError):
        reg.register(AtomDef("other", 0, Fraction(0)))
        reg.register(AtomDef("other", 1, Fraction(0)))


def test_s_atom_naming():
    assert s_atom_id(Fraction(1, 2)) == "s_1/2"
    assert s_atom_id(Fraction(0)) == "s_0"
    assert s_atom_id(Fraction(1)) == "s_1"


def test_unregistered_atom_errors(model):
    with pytest.raises(KeyError):
        model.registry.q_value(Atom("nope"))


def test_content_examples(model):
    reg = model.registry
    assert reg.q_value(R) == 0
    assert reg.q_value(Pair(S1, S0)) == 2
    assert reg.q_value(Pair(R, R)) == 0


def test_entropy_examples(model):
    reg = model.registry
    assert reg.s_value(Pair(S1, S0)) == 1
    assert reg.s_value(Pair(SH, SH)) == 1
    assert reg.s_value(R) == 0


def test_uniformity_examples(model):
    reg = model.registry
    assert reg.is_uniform(Eidostate([S0, S1]))
    assert not reg.is_uniform(Eidostate([R, S0]))
    assert reg.is_uniform(singleton(Pair(R, S1)))


def test_nu_decompose_uniform_has_no_n_part(model):
    nu = model.nu_decompose(Eidostate([S0, S1]))
    assert not nu.non_uniform
    assert sum(nu.uniform.values()) == 1


def test_nu_decompose_mixed_prime(model):
    e = Eidostate([R, S0])
    nu = model.nu_decompose(e)
    assert not nu.uniform
    assert nu.non_uniform == {e: 1}


def test_nu_decompose_product(model):
    e = combine(Eidostate([R, S0]), Eidostate([S0, S1]))
    nu = model.nu_decompose(e)
    assert nu.non_uniform == {Eidostate([R, S0]): 1}
    assert nu.uniform == {Eidostate([S0, S1]): 1}


def test_entropy_exact_bit_state(model):
    bit = model.make_bit_state()
    assert model.registry.entropy_exact(bit) == ExactEntropy.from_rational(1)


def test_entropy_exact_log2_3(model):
    e = model.registry.entropy_exact(Eidostate([S0, S1]))
    assert e.decimal(6) == "1.58496"


def test_entropy_exact_singleton(model):
    assert model.registry.entropy_exact(singleton(SH)) == ExactEntropy.from_rational(
        Fraction(1, 2)
    )


def test_entropy_exact_rejects_non_uniform(model):
    with pytest.raises(ValueError):
        model.registry.entropy_exact(Eidostate([R, S0]))


def test_arrow_record_to_bit(model):
    bit = model.make_bit_state()
    assert model.arrow(singleton(R), bit)
    assert not model.arrow(bit, singleton(R))


def test_arrow_reversible_pair(model):
    a = singleton(Pair(S0, S1))
    b = singleton(Pair(SH, SH))
    assert model.arrow(a, b) and model.arrow(b, a)


def test_arrow_content_mismatch_impossible(model):
    assert not model.arrow(singleton(R), singleton(S1))
    assert not model.arrow(singleton(S1), singleton(R))


def test_arrow_subset_blocked(model):
    bit = model.make_bit_state()
    assert not model.arrow(bit, singleton(R))
    assert model.arrow(singleton(Pair(R, R)), bit)


def test_record_and_mechanical_predicates(model):
    assert model.is_record(Pair(R, R))
    assert not model.is_record(Pair(R, S0))
    assert model.is_mechanical(Pair(S0, S0))
    assert not model.is_mechanical(S1)
    assert not model.is_record(S1)


def test_make_information_state(model):
    j = model.make_information_state(5)
    assert len(j) == 5
    assert all(model.is_record(m) for m in j)
    assert model.make_information_state(1).is_singleton


def test_state_equivalence_bit_state(model):
    bit = model.make_bit_state()
    se = model.state_equivalence(bit)
    assert se.exact
    assert se.e == R
    assert se.x == Pair(S0, S0)
    assert se.y == Pair(SH, SH)
    assert model.arrow(singleton(se.x), singleton(se.y))
    left = combine(bit, singleton(se.x))
    right = combine(singleton(se.e), singleton(se.y))
    assert model.arrow(left, right) and model.arrow(right, left)


def test_state_equivalence_singleton(model):
    se = model.state_equivalence(singleton(S0))
    assert se.exact
    assert se.e == S0 and se.x == S0 and se.y == S0


def test_state_equivalence_irrational_is_approximate(model):
    e = Eidostate([S0, S1])
    se = model.state_equivalence(e)
    assert not se.exact
    assert model.arrow(singleton(se.x), singleton(se.y))
    # The witnesses match contents exactly and entropy to the grid.
    sigma = float(model.registry.entropy_exact(e).interval(64).a)
    total = float(model.registry.s_value(se.y))
    assert model.registry.q_value(se.y) == model.registry.q_value(se.x)
    assert abs(sigma - total) < 2 / 2**16


def test_possible_iff_equal_content(model):
    rng = random.Random(11)
    for _ in range(100):
        a = model.random_state(rng)
        b = model.random_state(rng)
        possible = model.possible(singleton(a), singleton(b))
        assert possible == (model.registry.q_value(a) == model.registry.q_value(b))


def test_arrow_is_entropy_order_at_equal_content(model):
    rng = random.Random(12)
    reg = model.registry
    for _ in range(100):
        q = rng.randint(0, 3)
        a = model.random_state_with_content(rng, q)
        b = model.random_state_with_content(rng, q)
        assert model.arrow(singleton(a), singleton(b)) == (
            reg.s_value(a) <= reg.s_value(b)
        )


def test_arrow_additive_padding(model):
    rng = random.Random(13)
    for _ in range(60):
        a = model.random_eidostate(rng, 4, 3)
        b = model.random_eidostate(rng, 4, 3)
        c = model.random_eidostate(rng, 3, 2)
        plain = model.arrow(a, b)
        padded = model.arrow(combine(a, c), combine(b, c))
        assert plain == padded


def test_arrow_combined_matches_expansion(model):
    rng = random.Random(14)
    for _ in range(60):
        a = model.random_eidostate(rng, 3, 3)
        b = model.random_eidostate(rng, 3, 3)
        c = model.random_eidostate(rng, 2, 2)
        parts_a = [(a, 1), (c, rng.randint(0, 3))]
        parts_b = [(b, 1), (c, parts_a[1][1])]
        got = model.arrow_combined(parts_a, parts_b)
        want = model.arrow(expand_factored(parts_a), expand_factored(parts_b))
        assert got == want


MACRO_SUBCLASSES = [
    MacroModel,
    MutantDropContentCriterion,
    MutantFlippedEntropyOrder,
    MutantDropNonUniformCriterion,
    MutantWeightedRecords,
]


@pytest.mark.parametrize("model_cls", MACRO_SUBCLASSES, ids=lambda cls: cls.name)
def test_arrow_combined_matches_expansion_on_every_subclass(model_cls):
    # The one-pass walk feeds the criterion methods the mutants override;
    # size-only information states expand to make_information_state(n).
    model = model_cls()
    rng = random.Random(14)
    outcomes = set()
    for _ in range(40):
        a = model.random_eidostate(rng, 3, 3)
        b = a if rng.random() < 0.5 else model.random_eidostate(rng, 3, 3)
        c = model.random_eidostate(rng, 2, 2)
        k = rng.randint(0, 2)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        i, j = rng.randint(0, 1), rng.randint(0, 1)
        sized_a = [(a, 1), (c, k), (InformationState(n), i)]
        sized_b = [(b, 1), (c, k), (InformationState(m), j)]
        built_a = [(a, 1), (c, k), (model.make_information_state(n), i)]
        built_b = [(b, 1), (c, k), (model.make_information_state(m), j)]
        want = model.arrow(expand_factored(built_a), expand_factored(built_b))
        assert model.arrow_combined(built_a, built_b) == want, (a, b, c, k)
        assert model.arrow_combined(sized_a, sized_b) == want, (a, b, c, k, n, m, i, j)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_information_blocked_cases(model):
    assert model.information_blocked(singleton(R), singleton(S1))
    assert not model.information_blocked(singleton(S1), singleton(S0))
    assert not model.information_blocked(singleton(R), model.make_bit_state())


def test_information_blocked_matches_search(model):
    rng = random.Random(15)
    for _ in range(40):
        a = singleton(model.random_state(rng, 3))
        b = singleton(model.random_state(rng, 3))
        blocked = model.information_blocked(a, b)
        helped = any(
            model.arrow_combined([(a, 1)], [(b, 1), (model.make_information_state(n), 1)])
            for n in (1, 2, 4, 64, 1024)
        )
        assert blocked == (not helped)


@pytest.mark.parametrize("model_cls", [MacroModel, MutantWeightedRecords],
                         ids=lambda cls: cls.name)
def test_information_blocked_sums_no_entropy(model_cls, monkeypatch):
    # Blocking depends on contents and non-uniform parts only, so no
    # entropy is added or multiplied, however many exponents it carries.
    reference = model_cls()
    rng = random.Random(15)
    cases = [
        (singleton(R), singleton(S1)),
        (reference.make_information_state(5), reference.make_information_state(3)),
        (combine(reference.make_information_state(6), singleton(SH)), singleton(S1)),
    ]
    cases += [
        (reference.random_eidostate(rng, 4, 3), reference.random_eidostate(rng, 4, 3))
        for _ in range(30)
    ]
    want = [reference.information_blocked(a, b) for a, b in cases]

    def forbidden(*args):
        raise AssertionError("information_blocked computed an entropy")

    for attr in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(ExactEntropy, attr, forbidden)
    model = model_cls(reference.registry)
    assert [model.information_blocked(a, b) for a, b in cases] == want
    assert set(want) == {True, False}


def test_random_uniform_eidostate_is_uniform(model):
    rng = random.Random(16)
    for _ in range(50):
        e = model.random_uniform_eidostate(rng)
        assert model.registry.is_uniform(e)


def test_mechanical_family(model):
    family = model.mechanical_family()
    assert family
    assert all(model.is_mechanical(m) for m in family)
    assert len({model.registry.q_value(m) for m in family}) == len(family)


def test_components_vector(model):
    assert model.components(Pair(S1, SH)) == (Fraction(2),)
    assert model.components(R) == (Fraction(0),)


def test_entropy_comparison_irrational_vs_rational(model):
    three = model.registry.entropy_exact(Eidostate([S0, S1]))
    assert compare_entropy(three, ExactEntropy.from_rational(Fraction(3, 2))) is Comparison.GREATER
    assert compare_entropy(three, ExactEntropy.from_rational(Fraction(8, 5))) is Comparison.LESS


def test_entropy_total_needs_no_prime_lookups(monkeypatch):
    """Each uniform prime's entropy comes out of the walk with it, so
    summing entropies compares no eidostates.  One warm cycle over the
    12 pairs of the criterion-7 draw made 46,333 Eidostate comparisons
    when the sum looked every prime up again in the prime cache; the
    cache lookups of the walk itself make the 28,601 left."""
    model = MacroModel()
    draw = random.Random(42)
    pairs = []
    for _ in range(12):
        q = draw.randint(1, 3)
        pairs.append((model.random_state_with_content(draw, q),
                      model.random_state_with_content(draw, q)))
    for a, b in pairs:
        engine.irreversibility_estimate(a, b, 64, model)
    calls = [0]
    original = states.Eidostate.__eq__

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(states.Eidostate, "__eq__", counted)
    for a, b in pairs:
        engine.irreversibility_estimate(a, b, 64, model)
    assert calls[0] <= 28_601
