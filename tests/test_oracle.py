"""The oracle contract's generic defaults, and size-only information states
against the materialized ones they stand for."""

import random
from fractions import Fraction

import pytest

from eidothermo.engine import (
    MinInfoResult,
    MinInfoStatus,
    irreversibility_estimate,
    landauer_check,
    min_information_to_transform,
)
from eidothermo.harness import (
    MutantDropContentCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
)
from eidothermo.macro import MacroModel
from eidothermo.oracle import InformationState, ModelOracle
from eidothermo.quantum import QuantumModel
from eidothermo.states import Atom, Eidostate, Pair, singleton

MODELS = (
    MacroModel,
    QuantumModel,
    MutantDropContentCriterion,
    MutantFlippedEntropyOrder,
    MutantWeightedRecords,
)


def test_default_uniform_draws_are_uniform():
    model = MacroModel()
    for seed in range(200):
        e = ModelOracle.random_uniform_eidostate(model, random.Random(seed))
        assert model.registry.is_uniform(e), (seed, e)


@pytest.mark.parametrize("cls", (MacroModel, QuantumModel))
def test_is_uniform_matches_pairwise_default(cls):
    model = cls()
    rng = random.Random(5)
    verdicts = set()
    for _ in range(200):
        e = model.random_eidostate(rng, 5, 3)
        verdict = model.is_uniform(e)
        assert verdict == ModelOracle.is_uniform(model, e), e
        verdicts.add(verdict)
    assert verdicts == ({True, False} if cls is MacroModel else {True})


def _draw_pair(model, rng):
    """Two eidostates whose arrow, padded with information, can go either way.

    Macro-family pairs mostly share their content, so the entropy
    criterion (where information states act) decides the arrow.
    """
    if not isinstance(model, MacroModel):
        return model.random_eidostate(rng, 4, 3), model.random_eidostate(rng, 4, 3)
    q_a = rng.randint(0, 3)
    q_b = q_a if rng.random() < 0.8 else rng.randint(0, 3)

    def draw(q):
        size = rng.randint(1, 3)
        return Eidostate({model.random_state_with_content(rng, q) for _ in range(size)})

    return draw(q_a), draw(q_b)


def _trades(a, b, j_n, j_m, mult):
    """Information on the final side, on the initial side, and on both."""
    return (
        (((a, 1),), ((b, 1), (j_n, mult))),
        (((a, 1), (j_n, mult)), ((b, 1),)),
        (((a, 1), (j_n, 1)), ((b, 1), (j_m, 1))),
    )


def _materialized_min_info(a, b, n_max, model):
    """Reference demon search over materialized information states."""
    if model.information_blocked(a, b):
        return MinInfoResult(MinInfoStatus.BLOCKED)

    def helped(n):
        j = model.make_information_state(n)
        return model.arrow_combined(((a, 1),), ((b, 1), (j, 1)))

    if not helped(n_max):
        return MinInfoResult(MinInfoStatus.EXHAUSTED)
    lo, hi = 1, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if helped(mid):
            hi = mid
        else:
            lo = mid + 1
    return MinInfoResult(MinInfoStatus.FOUND, lo)


def test_information_state_is_a_size():
    assert len(InformationState(7)) == 7
    assert InformationState(7) == InformationState(7)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            InformationState(bad)


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.name)
def test_arrow_with_information_state_matches_materialized(model_cls):
    model = model_cls()
    rng = random.Random(20180115)
    outcomes = set()
    for _ in range(100):
        a, b = _draw_pair(model, rng)
        n, m = rng.randint(1, 64), rng.randint(1, 64)
        mult = rng.randint(1, 2)
        sized = _trades(a, b, InformationState(n), InformationState(m), mult)
        built = _trades(
            a, b, model.make_information_state(n), model.make_information_state(m), mult
        )
        for (got_a, got_b), (want_a, want_b) in zip(sized, built):
            want = model.arrow_combined(want_a, want_b)
            assert model.arrow_combined(got_a, got_b) == want, (a, b, n, m, mult)
            outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.name)
def test_min_information_matches_materialized_search(model_cls):
    model = model_cls()
    rng = random.Random(1801)
    statuses = set()
    for _ in range(40):
        a, b = _draw_pair(model, rng)
        n_max = rng.randint(1, 64)
        want = _materialized_min_info(a, b, n_max, model)
        assert min_information_to_transform(a, b, n_max, model) == want, (a, b, n_max)
        statuses.add(want.status)
    assert MinInfoStatus.FOUND in statuses


def test_macro_search_never_materializes(monkeypatch):
    model = MacroModel()

    def refuse(n):
        raise AssertionError(f"materialized an information state of size {n}")

    monkeypatch.setattr(model, "make_information_state", refuse)
    result = min_information_to_transform(
        singleton(Atom("s_1")), singleton(Atom("s_0")), 2**62, model
    )
    assert result == MinInfoResult(MinInfoStatus.FOUND, 2)


@pytest.mark.parametrize("model_cls", MODELS, ids=lambda cls: cls.name)
def test_bit_and_record_are_the_smallest_information_states(model_cls):
    # The engine passes the bit as InformationState(2) and the record as
    # InformationState(1).
    model = model_cls()
    assert model.make_information_state(2) == model.make_bit_state()
    assert model.make_information_state(1) == singleton(model.make_record())


def test_macro_bracket_and_erasure_never_materialize(monkeypatch):
    model = MacroModel()

    def refuse(*args):
        raise AssertionError("materialized a bit or an information state")

    monkeypatch.setattr(model, "make_bit_state", refuse)
    monkeypatch.setattr(model, "make_information_state", refuse)
    est = irreversibility_estimate(Pair(Atom("s_1/4"), Atom("r")), Atom("s_3/4"), 64, model)
    assert (est.lower, est.upper) == (Fraction(1, 2), Fraction(1, 2))
    verdict = landauer_check(Atom("s_0"), Atom("s_1"), model)
    assert verdict.applicable and verdict.satisfied


def test_entropy_carrying_records_take_the_materialized_path(monkeypatch):
    model = MutantWeightedRecords()
    sizes = []
    materialize = model.make_information_state

    def spy(n):
        sizes.append(n)
        return materialize(n)

    monkeypatch.setattr(model, "make_information_state", spy)
    a, b = singleton(Atom("s_1")), singleton(Atom("s_0"))
    model.arrow_combined(((a, 1),), ((b, 1), (InformationState(5), 1)))
    assert sizes == [5]
