"""Tests for the quantum model and its matrix realizations."""

import random
from fractions import Fraction

import pytest

from eidothermo.exact import ExactEntropy
from eidothermo.oracle import expand_factored
from eidothermo.quantum import (
    QAtomDef,
    QuantumModel,
    QuantumRegistry,
    RealizationBudgetError,
    Sqrt2Matrix,
)
from eidothermo.states import Atom, Eidostate, Pair, combine, singleton


@pytest.fixture()
def model():
    return QuantumModel()


def test_atom_def_validation():
    QAtomDef("ok", 4, 2)
    with pytest.raises(ValueError):
        QAtomDef("bad", 5, 2)
    with pytest.raises(ValueError):
        QAtomDef("bad", 0, 1)
    with pytest.raises(ValueError):
        QAtomDef("bad", 1, 0)


def test_standard_registry_covers_dims(model):
    dims = {model.registry.get(label).dim for label in model.registry.atom_ids()}
    assert dims == set(range(1, 9))


def test_dim_multiplicative_length_additive(model):
    reg = model.registry
    q3, q5 = Atom("q3"), Atom("q5")
    assert reg.dim(Pair(q3, q5)) == 15
    assert reg.length(Pair(q3, q5)) == reg.length(q3) + reg.length(q5)
    u = Atom("u")
    assert reg.dim(Pair(u, q5)) == 5


def test_eidostate_dim_sums(model):
    reg = model.registry
    u = Atom("u")
    assert reg.eidostate_dim(Eidostate([u, Pair(u, u)])) == 2
    j = model.make_information_state(7)
    assert reg.eidostate_dim(j) == 7
    a = Eidostate([Atom("q2"), Atom("q3")])
    b = singleton(Atom("q4"))
    assert reg.eidostate_dim(combine(a, b)) == reg.eidostate_dim(a) * reg.eidostate_dim(b)


def test_arrow_is_dimension_comparison(model):
    a = singleton(Atom("q2"))
    b = singleton(Atom("q3"))
    assert model.arrow(a, b)
    assert not model.arrow(b, a)
    assert model.arrow(a, a)


def test_every_pair_is_possible(model):
    rng = random.Random(21)
    for _ in range(40):
        a = model.random_eidostate(rng, 4, 3)
        b = model.random_eidostate(rng, 4, 3)
        assert model.possible(a, b)


def test_state_entropy_is_log_dim(model):
    assert model.state_entropy(Atom("q8")) == ExactEntropy.from_rational(3)
    assert model.state_entropy(Atom("q5")) == ExactEntropy.log2_of_int(5)
    assert model.state_entropy(Atom("u")) == ExactEntropy.from_rational(0)


def test_eidostate_entropy_matches_member_aggregation(model):
    rng = random.Random(22)
    for _ in range(60):
        e = model.random_eidostate(rng, 5, 3)
        via_dim = ExactEntropy.log2_of_int(model.registry.eidostate_dim(e))
        via_members = ExactEntropy.log2_sum_of_powers(
            model.state_entropy(m) for m in e
        )
        assert via_dim == via_members


def test_records_are_dimension_one(model):
    u = Atom("u")
    assert model.is_record(u)
    assert model.is_record(Pair(u, u))
    assert not model.is_record(Atom("q2"))
    assert not model.is_mechanical(u)
    assert model.mechanical_family() == ()


def test_state_equivalence_relations(model):
    rng = random.Random(23)
    for _ in range(30):
        e = model.random_eidostate(rng, 4, 2)
        se = model.state_equivalence(e)
        assert model.arrow(singleton(se.x), singleton(se.y))
        left = combine(e, singleton(se.x))
        right = combine(singleton(se.e), singleton(se.y))
        assert model.arrow(left, right) and model.arrow(right, left)


def test_arrow_combined_matches_expansion(model):
    rng = random.Random(24)
    for _ in range(60):
        a = model.random_eidostate(rng, 3, 2)
        b = model.random_eidostate(rng, 3, 2)
        c = model.random_eidostate(rng, 2, 2)
        mult = rng.randint(0, 3)
        parts_a = [(a, 1), (c, mult)]
        parts_b = [(b, 1), (c, mult)]
        got = model.arrow_combined(parts_a, parts_b)
        want = model.arrow(expand_factored(parts_a), expand_factored(parts_b))
        assert got == want


#: 1/sqrt 2 as a 1 x 1 matrix.
HALF_SQRT2 = Sqrt2Matrix((1, 1), {(0, 0): (0, 1)}, 2)


def test_sqrt2_matrix_arithmetic_is_exact():
    assert HALF_SQRT2 @ HALF_SQRT2 == Sqrt2Matrix((1, 1), {(0, 0): (1, 0)}, 2)
    # Common factors cancel and zeros drop, so equal values compare equal.
    assert Sqrt2Matrix((1, 2), {(0, 0): (2, 4), (0, 1): (0, 0)}, 6) == Sqrt2Matrix(
        (1, 2), {(0, 0): (1, 2)}, 3
    )
    m = Sqrt2Matrix((2, 2), {(0, 0): (1, 1), (0, 1): (3, 0), (1, 1): (0, -1)}, 2)
    assert m.T.entries == {(0, 0): (1, 1), (1, 0): (3, 0), (1, 1): (0, -1)}
    assert m.trace() == (Fraction(1, 2), 0)
    assert m + m == Sqrt2Matrix((2, 2), m.entries, 1)
    assert m.columns(1) == Sqrt2Matrix((2, 1), {(0, 0): (1, 1)}, 2)
    with pytest.raises(ValueError):
        m @ m.columns(1).T


def _member_projectors(real):
    return [real.projector(singleton(m)) for m in real.eidostate]


def _assert_isometry(model, a, b, real):
    """U^T U = P_a and U maps a's subspace into b's: (I - P_b) U P_a = 0."""
    u = model.find_isometry(a, b, real)
    assert u is not None
    p_a = real.projector(a)
    assert u.T @ u == p_a
    assert real.projector(b) @ u @ p_a == u @ p_a


def test_realization_invariants(model):
    e = Eidostate([Atom("q2"), Atom("q3"), Atom("u")])
    real = model.realize(e, seed=5)
    assert real.agent_dim == 3
    for m, p in zip(e, _member_projectors(real)):
        assert p @ p == p
        assert p.T == p
        assert p.trace() == (real.dims[m], 0)
    assert real.projector(e).trace() == (6, 0)


def test_realization_mixture_identity(model):
    # The normalized total projector is the dimension-weighted mixture of
    # the member density operators because the members are orthogonal.
    e = Eidostate([Atom("q2"), Atom("q5")])
    real = model.realize(e, seed=6)
    p, q = _member_projectors(real)
    assert (p @ q).entries == {}
    total = real.projector(e)
    assert total == p + q
    assert total @ total == total


def test_entangled_vector_membership(model):
    e = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(e, seed=7)
    psi = real.entangled_vector
    assert psi is not None
    assert real.projector(e) @ psi == psi
    # The vector has no definite member: each member projector keeps
    # exactly half the weight.
    for p in _member_projectors(real):
        assert (psi.T @ p @ psi).trace() == (Fraction(1, 2), 0)
        assert p @ psi != psi


def test_demo_overlap_is_half_power(model):
    e = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(e, seed=8)
    # Agent labels are orthogonal, so compare the anchored first columns
    # of the member bases on the qubit register.
    first, second = (real.bases[m].columns(1) for m in e)
    overlap = first.T @ second
    assert overlap == HALF_SQRT2
    assert (overlap @ overlap).trace() == (Fraction(1, 2), 0)


def test_singleton_realization_rank_one(model):
    real = model.realize(singleton(Atom("u")), seed=9)
    assert real.projector(real.eidostate).trace() == (1, 0)
    assert real.entangled_vector is None


def test_find_isometry_small_cases(model):
    a = singleton(Atom("q2"))
    b = singleton(Atom("q3"))
    both = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(both, seed=10)
    _assert_isometry(model, a, b, real)
    assert model.find_isometry(b, a, real) is None


def test_find_isometry_identity_case(model):
    a = singleton(Atom("q4"))
    real = model.realize(a, seed=11)
    _assert_isometry(model, a, a, real)


def test_isometry_preserves_norm_on_subspace(model):
    a = singleton(Atom("q3"))
    b = singleton(Atom("q5"))
    both = Eidostate([Atom("q3"), Atom("q5")])
    real = model.realize(both, seed=12)
    _assert_isometry(model, a, b, real)


def test_isometry_between_multi_member_eidostates(model):
    e = Eidostate([Atom("q2"), Atom("q3"), Atom("q8"), Atom("u")])
    real = model.realize(e, seed=14)
    a = Eidostate([Atom("q2"), Atom("q3"), Atom("u")])
    b = Eidostate([Atom("q8"), Atom("u")])
    _assert_isometry(model, a, b, real)
    assert model.find_isometry(b, a, real) is None


def test_budget_errors(model):
    with pytest.raises(RealizationBudgetError):
        model.realize(model.make_information_state(9))
    model.registry.ensure_dim(16)
    with pytest.raises(RealizationBudgetError):
        model.realize(singleton(Atom("q16")))
    big = Eidostate([Atom("q16"), Atom("q8"), Atom("q7"), Atom("q6"), Atom("q5")])
    with pytest.raises(RealizationBudgetError):
        model.realize(big, qubit_budget=4)


def test_projector_requires_covered_members(model):
    real = model.realize(singleton(Atom("q2")), seed=13)
    with pytest.raises(ValueError):
        real.projector(singleton(Atom("q3")))
