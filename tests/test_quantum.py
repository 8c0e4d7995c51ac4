"""Tests for the quantum model and its matrix realizations."""

import random

import numpy as np
import pytest

from eidothermo.exact import ExactEntropy
from eidothermo.oracle import expand_factored
from eidothermo.quantum import (
    QAtomDef,
    QuantumModel,
    QuantumRegistry,
    RealizationBudgetError,
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


def test_realization_invariants(model):
    e = Eidostate([Atom("q2"), Atom("q3"), Atom("u")])
    real = model.realize(e, seed=5)
    checks = real.self_check()
    assert checks["idempotence"] <= 1e-12
    assert checks["orthogonality"] <= 1e-12
    assert checks["trace"] <= 1e-9
    assert real.agent_dim == 3
    assert float(np.trace(real.total_projector).real) == pytest.approx(6.0, abs=1e-9)


def test_realization_mixture_identity(model):
    e = Eidostate([Atom("q2"), Atom("q5")])
    real = model.realize(e, seed=6)
    assert real.mixture_residual() <= 1e-10


def test_entangled_vector_membership(model):
    e = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(e, seed=7)
    psi = real.entangled_vector
    assert psi is not None
    total = real.total_projector
    assert np.linalg.norm(total @ psi - psi) <= 1e-10
    # The vector has no definite member: each member projector keeps
    # only half the weight.
    for m in e:
        keep = psi.conj() @ (real.projectors[m] @ psi)
        assert keep.real == pytest.approx(0.5, abs=1e-10)
        assert np.linalg.norm(real.projectors[m] @ psi - psi) > 0.5


def test_demo_overlap_is_half_power(model):
    e = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(e, seed=8)
    first, second = e.members
    va = real.member_vectors[first]
    vb = real.member_vectors[second]
    # Agent labels are orthogonal, so compare the qubit parts through
    # the anchored reference coordinates.
    qubit_dim = 2**real.total_qubits
    qa = va.reshape(real.agent_dim, qubit_dim)[0]
    qb = vb.reshape(real.agent_dim, qubit_dim)[1]
    assert abs(qa.conj() @ qb) == pytest.approx(2 ** -0.5, abs=1e-10)


def test_singleton_realization_rank_one(model):
    real = model.realize(singleton(Atom("u")), seed=9)
    assert float(np.trace(real.total_projector).real) == pytest.approx(1.0, abs=1e-12)
    assert real.entangled_vector is None


def test_find_isometry_small_cases(model):
    a = singleton(Atom("q2"))
    b = singleton(Atom("q3"))
    both = Eidostate([Atom("q2"), Atom("q3")])
    real = model.realize(both, seed=10)
    u = model.find_isometry(a, b, real)
    assert u is not None
    assert model.isometry_residual(u, a, b, real) <= 1e-10
    assert model.find_isometry(b, a, real) is None


def test_find_isometry_identity_case(model):
    a = singleton(Atom("q4"))
    real = model.realize(a, seed=11)
    u = model.find_isometry(a, a, real)
    assert u is not None
    assert model.isometry_residual(u, a, a, real) <= 1e-10


def test_isometry_preserves_norm_on_subspace(model):
    a = singleton(Atom("q3"))
    b = singleton(Atom("q5"))
    both = Eidostate([Atom("q3"), Atom("q5")])
    real = model.realize(both, seed=12)
    u = model.find_isometry(a, b, real)
    p_a = real.projector(a)
    product = u.conj().T @ u
    assert np.max(np.abs(product - p_a)) <= 1e-10


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
