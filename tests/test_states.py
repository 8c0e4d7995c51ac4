"""Tests for the state-expression and eidostate algebra."""

import copy
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo import states
from eidothermo.states import (
    Atom,
    Eidostate,
    Pair,
    ProcessType,
    ResourceCapError,
    combine,
    disjoint_partition_check,
    is_prime,
    n_copies,
    prime_factorize,
    prime_factors,
    similar,
    singleton,
    subsets_of,
)

A = Atom("a")
B = Atom("b")
C = Atom("c")
D = Atom("d")


def atoms(ids="abcd"):
    return st.sampled_from([Atom(i) for i in ids])


def exprs(max_depth=3):
    return st.recursive(
        atoms(),
        lambda children: st.builds(Pair, children, children),
        max_leaves=2 ** (max_depth - 1),
    )


def eidostates(max_size=4, max_depth=3):
    return st.builds(
        Eidostate, st.lists(exprs(max_depth), min_size=1, max_size=max_size)
    )


def shapes(max_leaves=8):
    """Tree descriptions: an atom name, or a (left, right) tuple of shapes."""
    return st.recursive(
        st.sampled_from("abcd"),
        lambda children: st.tuples(children, children),
        max_leaves=max_leaves,
    )


def build(shape):
    if isinstance(shape, str):
        return Atom(shape)
    return Pair(build(shape[0]), build(shape[1]))


class _Hashed:
    """Stands in a tuple for a child whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def reference_hash(shape) -> int:
    """The hash formulas of structurally compared trees: ("a", id) for an
    atom and ("p", left, right) for a pair."""
    if isinstance(shape, str):
        return hash(("a", shape))
    left, right = shape
    return hash(("p", _Hashed(reference_hash(left)), _Hashed(reference_hash(right))))


@given(shapes())
def test_equal_trees_are_one_object(shape):
    assert build(shape) is build(shape)


@given(shapes())
def test_hash_keeps_the_structural_formula(shape):
    assert hash(build(shape)) == reference_hash(shape)


@given(shapes(), shapes())
def test_identity_agrees_with_structural_equality(x, y):
    # Nested tuples of names compare structurally.
    assert (build(x) == build(y)) == (x == y)
    assert (build(x) != build(y)) == (x != y)


def test_intern_tables_hold_only_live_trees():
    rng = random.Random(13)
    gc.collect()
    before = len(states._ATOMS), len(states._PAIRS)
    trees = []
    for _ in range(10**4):
        tree = Atom(f"t{rng.randrange(500)}")
        for _ in range(rng.randint(1, 4)):
            leaf = Atom(f"t{rng.randrange(500)}")
            tree = Pair(tree, leaf) if rng.random() < 0.5 else Pair(leaf, tree)
        trees.append(tree)
    assert len(states._PAIRS) > before[1]
    del trees, tree, leaf
    gc.collect()
    assert (len(states._ATOMS), len(states._PAIRS)) == before


def test_threads_building_the_same_new_trees_get_one_object():
    built = [[] for _ in range(4)]
    start = threading.Barrier(len(built))

    def build_all(out):
        start.wait()
        for i in range(300):
            leaf = Atom(f"thread{i}")
            expr = leaf
            for _ in range(8):
                expr = Pair(expr, leaf)
            out.append(expr)

    threads = [threading.Thread(target=build_all, args=(out,)) for out in built]
    interval = sys.getswitchinterval()
    # Switch threads as often as possible, so that two of them are likely
    # to miss the table for the same tree at the same time.
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for out in built[1:]:
        assert all(x is y for x, y in zip(out, built[0]))


def test_hostile_depth_hashes_and_compares_without_recursion():
    depth = 50_000

    def right_comb():
        expr = A
        for _ in range(depth):
            expr = Pair(A, expr)
        return expr

    first, second = right_comb(), right_comb()
    leaf = _Hashed(hash(("a", "a")))
    expected = leaf.h
    for _ in range(depth):
        expected = hash(("p", leaf, _Hashed(expected)))
    assert hash(first) == hash(second) == expected
    assert first == second
    assert {first: "comb"}[second] == "comb"


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_return_the_same_tree(clone):
    tree = Pair(A, Pair(B, A))
    assert clone(A) is A
    assert clone(tree) is tree
    e = Eidostate([tree, C])
    got = clone(e)
    assert got == e and hash(got) == hash(e)
    assert all(x is y for x, y in zip(got.members, e.members))


def test_atom_identity_and_order():
    assert Atom("a") == Atom("a")
    assert Atom("a") != Atom("b")
    assert Atom("a") < Atom("b") < Pair(A, A)
    assert hash(Atom("a")) == hash(A)


def test_pair_structural_equality():
    assert Pair(A, B) == Pair(A, B)
    assert Pair(A, B) != Pair(B, A)
    assert Pair(A, Pair(B, C)) != Pair(Pair(A, B), C)


def test_expr_is_immutable():
    with pytest.raises(AttributeError):
        A.atom_id = "z"
    with pytest.raises(AttributeError):
        Pair(A, B).left = B


def test_expr_text_form():
    assert str(Pair(A, Pair(B, C))) == "(a + (b + c))"
    assert str(A) == "a"


def test_leaves_and_depth():
    t = Pair(A, Pair(B, C))
    assert [leaf.atom_id for leaf in t.leaves()] == ["a", "b", "c"]
    assert t.depth == 3
    assert t.n_leaves == 3
    assert A.depth == 1


def test_eidostate_is_a_set():
    e = Eidostate([B, A, B])
    assert len(e) == 2
    assert e == Eidostate([A, B])
    assert hash(e) == hash(Eidostate([B, A]))
    assert A in e and C not in e


def test_eidostate_rejects_empty():
    with pytest.raises(ValueError):
        Eidostate([])


def test_singleton_access():
    s = singleton(A)
    assert s.is_singleton and s.single == A
    with pytest.raises(ValueError):
        Eidostate([A, B]).single


def test_combine_singletons():
    assert combine(singleton(A), singleton(B)) == Eidostate([Pair(A, B)])


def test_combine_cardinality_example():
    got = combine(Eidostate([A, B]), singleton(C))
    assert got == Eidostate([Pair(A, C), Pair(B, C)])
    assert len(got) == 2


def test_combine_not_associative_as_sets():
    left = combine(combine(singleton(A), singleton(B)), singleton(C))
    right = combine(singleton(A), combine(singleton(B), singleton(C)))
    assert left != right


@given(eidostates(), eidostates())
def test_combine_product_cardinality(x, y):
    assert len(combine(x, y)) == len(x) * len(y)


def test_n_copies_base_and_unfold():
    e = Eidostate([A, B])
    assert n_copies(e, 1) == e
    assert n_copies(singleton(A), 3) == Eidostate([Pair(A, Pair(A, A))])
    assert len(n_copies(e, 3)) == 8


def test_n_copies_right_nesting():
    e = singleton(A)
    assert n_copies(e, 3) == combine(e, n_copies(e, 2))


def test_n_copies_rejects_zero():
    with pytest.raises(ValueError):
        n_copies(singleton(A), 0)


def test_prime_factorize_singleton_pair():
    pf = prime_factorize(Eidostate([Pair(A, B)]))
    assert pf.factors == (singleton(A), singleton(B))


def test_prime_factorize_full_product():
    e = Eidostate([Pair(A, C), Pair(A, D), Pair(B, C), Pair(B, D)])
    pf = prime_factorize(e)
    assert set(pf.factors) == {Eidostate([A, B]), Eidostate([C, D])}


def test_diagonal_is_prime():
    e = Eidostate([Pair(A, C), Pair(B, D)])
    assert is_prime(e)
    assert prime_factorize(e).factors == (e,)


def test_atom_sets_are_prime():
    assert is_prime(Eidostate([A, B]))
    assert is_prime(singleton(A))


@given(eidostates())
def test_factorization_recombines_exactly(e):
    assert prime_factorize(e).recombine() == e


@given(eidostates())
def test_factors_are_prime(e):
    for f in prime_factorize(e).factors:
        assert is_prime(f)


@given(eidostates())
def test_similar_reflexive(e):
    assert similar(e, e)


@given(eidostates(), eidostates())
def test_similar_symmetric(x, y):
    assert similar(x, y) == similar(y, x)


@settings(max_examples=60)
@given(eidostates(max_size=3), eidostates(max_size=3), eidostates(max_size=3))
def test_similar_transitive(x, y, z):
    if similar(x, y) and similar(y, z):
        assert similar(x, z)


@given(eidostates(), eidostates())
def test_similar_implies_equal_size(x, y):
    if similar(x, y):
        assert len(x) == len(y)


def test_similarity_under_rearrangement():
    e1, e2, e3 = Eidostate([A, B]), Eidostate([C]), Eidostate([D])
    left = combine(combine(e1, e2), e3)
    right = combine(e2, combine(e1, e3))
    assert left != right
    assert similar(left, right)


@given(eidostates(max_size=3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=50)
def test_copies_add_up_to_similarity(e, m, n):
    assert similar(combine(n_copies(e, m), n_copies(e, n)), n_copies(e, m + n))


def test_prime_factors_multiset():
    e = combine(Eidostate([A, B]), Eidostate([A, B]))
    counts = prime_factors(e)
    assert counts == {Eidostate([A, B]): 2}


def test_subsets_counts():
    assert len(list(subsets_of(singleton(A)))) == 1
    assert len(list(subsets_of(Eidostate([A, B])))) == 3
    assert len(list(subsets_of(Eidostate([A, B, C])))) == 7


def test_subsets_cap():
    big = Eidostate([Pair(Atom(f"x{i}"), A) for i in range(21)])
    with pytest.raises(ResourceCapError):
        next(subsets_of(big))


def test_disjoint_partition_check():
    e = Eidostate([A, B])
    assert disjoint_partition_check(e, [singleton(A), singleton(B)])
    assert not disjoint_partition_check(e, [singleton(A), Eidostate([A, B])])
    assert not disjoint_partition_check(Eidostate([A, B, C]), [singleton(A), singleton(B)])
    assert not disjoint_partition_check(e, [])


def test_process_type_labels():
    assert ProcessType.NATURAL_IRREVERSIBLE.label == "natural irreversible"
    assert ProcessType.IMPOSSIBLE.label == "impossible"
