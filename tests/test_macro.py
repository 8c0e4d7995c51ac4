"""Tests for the macrostate model."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo import engine, exact, states
from eidothermo.exact import Comparison, ExactEntropy, compare_entropy, decimal_of
from eidothermo.macro import (
    AtomDef,
    MacroModel,
    MacroRegistry,
    as_exact,
    s_atom_id,
)
from eidothermo.harness import (
    MutantDropContentCriterion,
    MutantDropNonUniformCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
    SuiteConfig,
    _case_seed,
    _uniform_state,
)
from eidothermo.oracle import InformationState, ModelOracle, expand_factored
from eidothermo.states import Atom, Eidostate, Pair, StateExpr, combine, singleton

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


def test_atom_def_keeps_an_irrational_entropy_exact():
    """log2 3 - 1 lies in [0, 1] and stays an ExactEntropy; a rational
    ExactEntropy becomes its Fraction; log2 3 itself is out of range."""
    frac = ExactEntropy([-1, 0])
    atom = AtomDef(s_atom_id(frac), 1, frac)
    assert atom.atom_id == "s_log2(2^-1 + 2^0)"
    assert atom.s == frac
    assert AtomDef("x", 1, ExactEntropy.from_rational(Fraction(1, 2))).s == Fraction(1, 2)
    with pytest.raises(ValueError):
        AtomDef("x", 1, ExactEntropy.log2_of_int(3))
    reg = MacroRegistry([AtomDef("r", 0, Fraction(0))])
    state = Pair(reg.ensure_s_atom(frac), reg.ensure_s_atom(Fraction(1)))
    assert reg.s_value(state) == ExactEntropy.log2_of_int(3)
    assert reg.entropy_exact(singleton(state)) == ExactEntropy.log2_of_int(3)


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


def test_entropy_exact_bit_state(model):
    bit = model.make_bit_state()
    assert model.registry.entropy_exact(bit) == ExactEntropy.from_rational(1)


def test_entropy_exact_log2_3(model):
    e = model.registry.entropy_exact(Eidostate([S0, S1]))
    assert decimal_of(e, 6) == "1.58496"


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
    assert len(model.make_information_state(1)) == 1


def test_state_equivalence_bit_state(model):
    bit = model.make_bit_state()
    se = model.state_equivalence(bit)
    assert se.e == R
    assert se.x == Pair(S0, S0)
    assert se.y == Pair(S1, S0)
    assert model.arrow(singleton(se.x), singleton(se.y))
    left = combine(bit, singleton(se.x))
    right = combine(singleton(se.e), singleton(se.y))
    assert model.arrow(left, right) and model.arrow(right, left)


def test_state_equivalence_singleton(model):
    se = model.state_equivalence(singleton(S0))
    assert se.e == S0 and se.x == S0 and se.y == S0


def _no_ladder(cap):
    raise AssertionError("an interval decided a state-equivalence relation")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_state_equivalence_is_exact(data):
    """Every uniform eidostate gets exact witnesses: x -> y, and E + x
    and e + y carry equal contents and entropies of one coefficient
    form, so both arrows between them hold with no interval evaluated.
    The last atom of y carries the entropy left over in [0, 1).  (x -> y
    compares 0 with S(E), which may need the ladder.)"""
    model = MacroModel()
    source = data.draw(st.sampled_from(("uniform", "fresh", "suite")), label="source")
    if source == "suite":
        # The draws of the Axiom 4 and Axiom 9 checks at criterion 12's seed.
        check_id = data.draw(st.sampled_from(("Axiom 4", "Axiom 9")), label="check")
        index = data.draw(st.integers(0, 499), label="case")
        rng = random.Random(_case_seed(42, check_id, index))
        e = _uniform_state(model, SuiteConfig(seed=42), rng)
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # The generic draw builds members from random_atom, fresh lambdas included.
        draw = MacroModel if source == "uniform" else ModelOracle
        e = draw.random_uniform_eidostate(model, rng)
    se = model.state_equivalence(e)
    reg = model.registry
    *_, last = se.y.leaves()
    assert as_exact(reg.get(last.atom_id).s).floor() == 0
    assert reg.q_value(Pair(e.members[0], se.x)) == reg.q_value(Pair(se.e, se.y))
    sx, sy = singleton(se.x), singleton(se.y)
    assert model.arrow(sx, sy)
    left, right = combine(e, sx), combine(singleton(se.e), sy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_precision_ladder", _no_ladder)
        assert model.arrow(left, right) and model.arrow(right, left)


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


def _reference_walk(model, parts):
    """The walk the per-factor sums replaced: every factor, singletons
    included, is split into its primes, each uniform prime's entropy is
    an ``ExactEntropy`` read from the registry, and the records are
    checked again on every information state."""
    reg = model.registry
    non_uniform, uniform, entropies, content = Counter(), Counter(), {}, 0
    for factor, mult in parts:
        if mult == 0:
            continue
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if isinstance(factor, InformationState):
            record = model.make_record()
            if reg.q_value(record) == 0 and reg.s_value(record) == 0:
                primes = Counter({factor: 1})
            else:
                primes = states.prime_factors(model.make_information_state(factor.n))
        else:
            primes = states.prime_factors(factor)
        for prime, count in primes.items():
            count *= mult
            if isinstance(prime, InformationState):
                values = 0, ExactEntropy.log2_of_int(prime.n)
            elif reg.is_uniform(prime):
                values = reg.q_value(prime.members[0]), reg.entropy_exact(prime)
            else:
                non_uniform[prime] += count
                continue
            uniform[prime] += count
            entropies[prime] = values[1]
            content += values[0] * count
    if not non_uniform and not uniform:
        raise ValueError("empty product has no primes")
    return non_uniform, uniform, content, entropies


def _reference_entropy_total(uniform, entropies):
    total = None
    for prime, mult in uniform.items():
        part = entropies[prime] * mult
        total = part if total is None else total + part
    return total


def _reference_arrow(model, parts_a, parts_b):
    """``arrow_combined`` on the reference walk, through the model's own
    criterion methods (which the mutants override)."""
    n_a, u_a, qa, s_a = _reference_walk(model, parts_a)
    n_b, u_b, qb, s_b = _reference_walk(model, parts_b)
    if not model._n_criterion(n_a, n_b):
        return False
    if not model._q_criterion(qa if u_a else None, qb if u_b else None):
        return False
    return model._s_criterion(
        _reference_entropy_total(u_a, s_a) if u_a else None,
        _reference_entropy_total(u_b, s_b) if u_b else None,
    )


def _reference_information_blocked(model, a, b):
    n_a, _, qa, _ = _reference_walk(model, ((a, 1),))
    n_b, _, qb, _ = _reference_walk(model, ((b, 1),))
    return n_a != n_b or qa != qb


FACTOR_KINDS = ("atom", "singleton", "eidostate", "uniform", "sized", "information")


def _draw_factor(data, model, rng):
    kind = data.draw(st.sampled_from(FACTOR_KINDS), label="kind")
    if kind == "atom":
        return singleton(model.random_atom(rng))
    if kind == "singleton":
        return singleton(model.random_state(rng, 4))
    if kind == "eidostate":
        return model.random_eidostate(rng, 4, 3)
    if kind == "uniform":
        return model.random_uniform_eidostate(rng, 4, 3)
    n = data.draw(st.integers(1, 9), label="n")
    return InformationState(n) if kind == "sized" else model.make_information_state(n)


def _draw_parts(data, model, rng, shared, content):
    """The shared factors, most at their shared multiplicity, then a state
    of the given content and perhaps one more factor."""
    mult = st.integers(0, 3)
    parts = [(f, m if data.draw(st.integers(0, 4), label="same") else data.draw(mult))
             for f, m in shared]
    state = model.random_state_with_content(rng, content)
    parts.append((singleton(state), data.draw(st.integers(1, 2), label="mult")))
    if data.draw(st.booleans(), label="extra"):
        parts.append((_draw_factor(data, model, rng), data.draw(mult, label="mult")))
    return parts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("model_cls", MACRO_SUBCLASSES, ids=lambda cls: cls.name)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_walk_matches_reference_on_every_subclass(model_cls, data):
    model = model_cls()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shared = [(_draw_factor(data, model, rng), data.draw(st.integers(0, 3), label="mult"))
              for _ in range(data.draw(st.integers(0, 3), label="shared"))]
    content = data.draw(st.integers(0, 3), label="content")
    parts_a = _draw_parts(data, model, rng, shared, content)
    parts_b = _draw_parts(data, model, rng, shared, content)
    want = _outcome(_reference_arrow, model, parts_a, parts_b)
    # Twice: once with the prime cache cold, once warm.
    assert _outcome(model.arrow_combined, parts_a, parts_b) == want
    assert _outcome(model.arrow_combined, parts_a, parts_b) == want
    empty = [(f, 0) for f, _ in parts_a]
    assert _outcome(model.arrow_combined, empty, parts_b) == _outcome(
        _reference_arrow, model, empty, parts_b)
    eidostates = [f for f, _ in parts_a + parts_b if isinstance(f, Eidostate)]
    if len(eidostates) >= 2:
        a, b = eidostates[0], eidostates[-1]
        assert model.information_blocked(a, b) == _reference_information_blocked(model, a, b)


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
    """A warm criterion-7 cycle compares no eidostates.  Over the 12
    pairs of the criterion-7 draw it made 46,333 Eidostate comparisons
    when the entropy sum looked every prime up again in the prime cache,
    and 28,601 when only the walk's own lookups were left.  Singletons
    are now read from the registry, and the bit and the record enter by
    their size, so the prime cache is never asked about an eidostate.

    Every entropy of these 97 arrows is rational, so no arrow wraps a
    total in an ``ExactEntropy`` or compares one: the cycle made 97
    ``compare_entropy`` and 218 ``from_rational`` calls when each total
    became an exact value.  The ``from_rational`` calls left are the
    engine's two ``state_entropy`` reads per bracket for its search
    bound."""
    model = MacroModel()
    draw = random.Random(42)
    pairs = []
    for _ in range(12):
        q = draw.randint(1, 3)
        pairs.append((model.random_state_with_content(draw, q),
                      model.random_state_with_content(draw, q)))
    for a, b in pairs:
        engine.irreversibility_estimate(a, b, 64, model)
    eidostate_eqs = _count_calls(monkeypatch, states.Eidostate, "__eq__")
    arrows = _count_calls(monkeypatch, MacroModel, "arrow_combined")
    wraps = _count_calls(monkeypatch, ExactEntropy, "from_rational")
    compares = Counter()

    def compare(x, y):
        compares["calls"] += 1
        return compare_entropy(x, y)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("eidothermo") and \
                getattr(module, "compare_entropy", None) is compare_entropy:
            monkeypatch.setattr(module, "compare_entropy", compare)
    for a, b in pairs:
        engine.irreversibility_estimate(a, b, 64, model)
    assert eidostate_eqs["calls"] == 0
    assert arrows["calls"] == 97
    assert compares["calls"] == 0
    assert wraps["calls"] == 2 * len(pairs)


def _count_calls(monkeypatch, cls, name):
    """Count the calls of a method or classmethod defined on cls."""
    counts = Counter()
    original = cls.__dict__[name]
    function = original.__func__ if isinstance(original, classmethod) else original

    def counted(*args, **kwargs):
        counts["calls"] += 1
        return function(*args, **kwargs)

    wrapper = classmethod(counted) if isinstance(original, classmethod) else counted
    monkeypatch.setattr(cls, name, wrapper)
    return counts


def _reference_entropy_sum(model, terms):
    """The per-term sum the integer sum replaced: each rational term an
    ``ExactEntropy`` times its multiplicity, added one by one."""
    total = None
    for value, mult in terms:
        if isinstance(value, StateExpr):
            value = model.registry.s_value(value)
        if isinstance(value, Fraction):
            value = ExactEntropy.from_rational(value)
        part = value * mult
        total = part if total is None else total + part
    return total


def _reference_entropy_arrow(model, parts_a, parts_b):
    """``arrow_combined`` with the entropy criterion decided by
    ``compare_entropy`` on exact sums; the flipped-order mutant's
    comparison of two uniform parts runs backwards."""
    n_a, qa, u_a = model._walk(parts_a)
    n_b, qb, u_b = model._walk(parts_b)
    if not model._n_criterion(n_a, n_b):
        return False
    if not model._q_criterion(qa if u_a else None, qb if u_b else None):
        return False
    zero = ExactEntropy.from_rational(0)
    sa = _reference_entropy_sum(model, u_a) if u_a else None
    sb = _reference_entropy_sum(model, u_b) if u_b else None
    if sa is None and sb is None:
        return True
    if sb is None:
        return compare_entropy(sa, zero) is Comparison.EQUAL
    if sa is None:
        return compare_entropy(sb, zero) is not Comparison.LESS
    if isinstance(model, MutantFlippedEntropyOrder):
        return compare_entropy(sa, sb) is not Comparison.LESS
    return compare_entropy(sa, sb) is not Comparison.GREATER


#: A factor that is its own non-uniform prime: its members differ in content.
NON_UNIFORM = Eidostate([R, S1])

ENTROPY_FACTOR_KINDS = ("state", "lambdas", "eidostate", "sized")


def _draw_entropy_factor(data, model, rng, content):
    """A uniform factor of the given content."""
    kind = data.draw(st.sampled_from(ENTROPY_FACTOR_KINDS), label="kind")
    if kind == "state":
        return singleton(model.random_state_with_content(rng, content))
    if kind == "lambdas":
        # Atoms of any rational entropy, so the denominators of one sum
        # differ and need not divide one another.
        state = R
        for _ in range(content):
            lam = data.draw(st.fractions(0, 1, max_denominator=12), label="lambda")
            state = Pair(model.registry.ensure_s_atom(lam), state)
        return singleton(state)
    if kind == "eidostate":
        # Members of one content whose entropies differ in general, so
        # the factor's entropy is irrational.
        return Eidostate([model.random_state_with_content(rng, content)
                          for _ in range(data.draw(st.integers(2, 3), label="size"))])
    if content:
        # An information state carries no content.
        return singleton(model.random_state_with_content(rng, content))
    return InformationState(data.draw(st.integers(1, 9), label="n"))


def _draw_entropy_side(data, model, rng, skeleton, non_uniform):
    """A factored side: the non-uniform factor at the shared multiplicity,
    then one uniform factor per (content, multiplicity) of the skeleton,
    so both sides carry the same content, or no uniform part at all."""
    parts = [(NON_UNIFORM, non_uniform)]
    if not data.draw(st.integers(0, 4), label="uniform"):
        return parts
    return parts + [(_draw_entropy_factor(data, model, rng, content), mult)
                    for content, mult in skeleton]


@pytest.mark.parametrize("model_cls", MACRO_SUBCLASSES, ids=lambda cls: cls.name)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_entropy_criterion_matches_exact_sums(model_cls, data):
    """The integer sum of rational terms and the Fraction comparisons
    decide every arrow as the exact per-term sums and compare_entropy do."""
    model = model_cls()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    skeleton = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                                  min_size=1, max_size=3), label="skeleton")
    non_uniform = data.draw(st.integers(1, 2), label="non-uniform")
    parts_a = _draw_entropy_side(data, model, rng, skeleton, non_uniform)
    parts_b = _draw_entropy_side(data, model, rng, skeleton, non_uniform)
    want = _reference_entropy_arrow(model, parts_a, parts_b)
    # Twice: once with the prime cache cold, once warm.
    assert model.arrow_combined(parts_a, parts_b) == want
    assert model.arrow_combined(parts_a, parts_b) == want
