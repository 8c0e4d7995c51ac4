"""Tests for the state-expression and eidostate algebra."""

import copy
import gc
import operator
import pickle
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eidothermo import states
from eidothermo.macro import AtomDef, MacroModel, MacroRegistry
from eidothermo.oracle import expand_factored
from eidothermo.quantum import QAtomDef, QuantumRegistry
from eidothermo.states import (
    Atom,
    Eidostate,
    Pair,
    ProcessType,
    ResourceCapError,
    combine,
    fold,
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


# -- the recursive algebra that the walks replaced, kept as references --


def reference_sort_key(expr):
    """The sort key recomputed from the children's at every call."""
    if isinstance(expr, Atom):
        return ("a", expr.atom_id)
    return ("p", reference_sort_key(expr.left), reference_sort_key(expr.right))


def reference_factorize(e):
    """Prime factors left to right: split along the pairing and factor
    each side recursively."""
    lefts, rights = set(), set()
    for m in e:
        if not isinstance(m, Pair):
            return (e,)
        lefts.add(m.left)
        rights.add(m.right)
    if len(lefts) * len(rights) != len(e):
        return (e,)
    return reference_factorize(Eidostate(lefts)) + reference_factorize(Eidostate(rights))


def reference_value(expr, cache, leaf, join):
    """The registries' recursive memo: ``leaf`` at atoms, ``join`` at pairs."""
    cached = cache.get(expr)
    if cached is None:
        if isinstance(expr, Atom):
            cached = leaf(expr)
        else:
            cached = join(reference_value(expr.left, cache, leaf, join),
                          reference_value(expr.right, cache, leaf, join))
        cache[expr] = cached
    return cached


def products():
    """Eidostates built as nested products, so that most factor."""
    return st.recursive(
        eidostates(max_size=3, max_depth=2),
        lambda children: st.builds(combine, children, children),
        max_leaves=4,
    )


@given(st.lists(exprs(max_depth=5), min_size=1, max_size=8))
def test_member_order_matches_the_recursive_sort_key(members):
    want = tuple(sorted(set(members), key=reference_sort_key))
    assert Eidostate(members).members == want
    assert Eidostate(reversed(members)).members == want


@given(products(), products())
def test_combined_member_order_matches_the_recursive_sort_key(x, y):
    pairs = {Pair(a, b) for a in x for b in y}
    assert combine(x, y).members == tuple(sorted(pairs, key=reference_sort_key))


@given(st.one_of(eidostates(max_size=6, max_depth=4), products()))
def test_factorization_matches_the_recursive_reference(e):
    assert prime_factorize(e) == reference_factorize(e)


@given(st.lists(exprs(max_depth=6), min_size=1, max_size=4), st.data())
def test_registry_values_match_the_recursive_reference(trees, data):
    def draw(strategy):
        return {i: data.draw(strategy, label=i) for i in "abcd"}

    qs = draw(st.integers(0, 5))
    ss = draw(st.fractions(0, 1, max_denominator=12))
    dims = draw(st.integers(1, 16))
    lengths = draw(st.integers(4, 6))
    macro = MacroRegistry(AtomDef(i, qs[i], ss[i]) for i in "abcd")
    quantum = QuantumRegistry(QAtomDef(i, dims[i], lengths[i]) for i in "abcd")
    cases = [
        (macro.q_value, macro._q_cache, lambda x: qs[x.atom_id], operator.add),
        (macro.s_value, macro._s_cache, lambda x: ss[x.atom_id], operator.add),
        (quantum.dim, quantum._dim_cache, lambda x: dims[x.atom_id], operator.mul),
        (quantum.length, quantum._length_cache, lambda x: lengths[x.atom_id], operator.add),
    ]
    for value, cache, leaf, join in cases:
        reference_cache = {}
        for tree in trees:
            assert value(tree) == reference_value(tree, reference_cache, leaf, join)
            assert cache == reference_cache


def test_fold_values_shared_subtrees_once():
    shared = Pair(A, A)
    tree = Pair(Pair(shared, B), Pair(shared, shared))
    calls = []

    def leaf(atom):
        calls.append(atom)
        return 1

    def join(x, y):
        calls.append((x, y))
        return x + y

    cache = {}
    assert fold(tree, cache, leaf, join) == 7
    assert calls == [A, (1, 1), B, (2, 1), (2, 2), (3, 4)]
    assert set(cache) == {A, B, shared, Pair(shared, B), Pair(shared, shared), tree}
    assert fold(tree, cache, leaf, join) == 7 and len(calls) == 6


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


HOSTILE_DEPTH = 50_000


def right_comb(leaf, depth=HOSTILE_DEPTH):
    """(leaf + (leaf + (... + leaf))) with ``depth`` pairs."""
    expr = leaf
    for _ in range(depth):
        expr = Pair(leaf, expr)
    return expr


def test_hostile_depth_hashes_and_compares_without_recursion():
    first, second = right_comb(A), right_comb(A)
    leaf = _Hashed(hash(("a", "a")))
    expected = leaf.h
    for _ in range(HOSTILE_DEPTH):
        expected = hash(("p", leaf, _Hashed(expected)))
    assert hash(first) == hash(second) == expected
    assert first == second
    assert {first: "comb"}[second] == "comb"


def test_hostile_depth_enters_factors_values_and_prints():
    n = HOSTILE_DEPTH
    comb = right_comb(A)
    e = singleton(comb)
    assert e.members == (comb,)
    assert Eidostate([comb, B, comb, A]).members == (A, B, comb)
    assert str(comb) == "(a + " * n + "a" + ")" * n
    assert prime_factors(e) == Counter({singleton(A): n + 1})

    macro = MacroRegistry([AtomDef("a", 2, Fraction(1, 3))])
    assert macro.q_value(comb) == 2 * (n + 1)
    assert macro.s_value(comb) == Fraction(n + 1, 3)
    quantum = QuantumRegistry([QAtomDef("a", 3, 2)])
    assert quantum.dim(comb) == 3 ** (n + 1)
    assert quantum.length(comb) == 2 * (n + 1)

    model = MacroModel()
    s = singleton(right_comb(model.registry.ensure_s_atom(Fraction(1, 2))))
    assert model.arrow(s, s)


def test_hostile_depth_pickles_to_the_same_tree():
    comb = right_comb(A)
    data = pickle.dumps(comb)
    assert pickle.loads(data) is comb
    e = Eidostate([comb, B])
    assert pickle.loads(pickle.dumps(e)).members[1] is comb
    digest, text = hash(comb), str(comb)
    del comb, e
    rebuilt = pickle.loads(data)
    assert hash(rebuilt) == digest and str(rebuilt) == text


def test_pickle_writes_each_shared_subtree_once():
    tree = A
    for _ in range(64):
        tree = Pair(tree, tree)  # 2**64 leaves, 65 distinct subtrees
    data = pickle.dumps(tree)
    assert len(data) < 2_000
    assert pickle.loads(data) is tree


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


def test_leaves_left_to_right():
    t = Pair(Pair(A, B), Pair(C, A))
    assert [leaf.atom_id for leaf in t.leaves()] == ["a", "b", "c", "a"]
    assert list(A.leaves()) == [A]


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
    assert s.members == (A,) and len(s) == 1


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
    assert prime_factorize(Eidostate([Pair(A, B)])) == (singleton(A), singleton(B))


def test_prime_factorize_full_product():
    e = Eidostate([Pair(A, C), Pair(A, D), Pair(B, C), Pair(B, D)])
    assert prime_factorize(e) == (Eidostate([A, B]), Eidostate([C, D]))


def test_diagonal_is_prime():
    e = Eidostate([Pair(A, C), Pair(B, D)])
    assert is_prime(e)
    assert prime_factorize(e) == (e,)


def test_atom_sets_are_prime():
    assert is_prime(Eidostate([A, B]))
    assert is_prime(singleton(A))


@given(eidostates())
def test_factors_expand_to_a_similar_eidostate(e):
    assert similar(expand_factored(tuple((f, 1) for f in prime_factorize(e))), e)


@given(eidostates())
def test_factors_are_prime(e):
    for f in prime_factorize(e):
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


def test_process_type_labels():
    assert ProcessType.NATURAL_IRREVERSIBLE.label == "natural irreversible"
    assert ProcessType.IMPOSSIBLE.label == "impossible"
