"""Model-independent state expressions and eidostate algebra.

A state expression is a finite binary tree whose leaves are named atoms;
pairing is the only combination form and is deliberately non-commutative
and non-associative, so ``(a + b)`` and ``(b + a)`` are distinct trees.
Trees are hash-consed: ``Atom(...)`` and ``Pair(...)`` return the one
live object for their tree, looked up in weak tables (atoms by name,
pairs by the identities of their children), so a table holds only the
trees still in use.  Equality of trees is therefore identity, and each
node stores its hash and its sort key when it is built, from its
children's.  Its leaves, its texts (``str`` and ``repr``) and any
bottom-up value a model assigns to it (``fold``) are read by walks that
keep their own stack, so trees of any depth enter eidostates, factor,
fold and print.
An eidostate is a finite nonempty set of state expressions; combining two
eidostates forms the Cartesian product of their members.  On top of that
sit prime factorization with respect to the product, the similarity
relation (equal prime-factor multisets), and small utilities (copies,
subsets) used by the models and the test harness.

Atom names are opaque strings here; their meaning (conserved content,
entropy, dimension, ...) lives in the model registries.
"""

from __future__ import annotations

import enum
import itertools
import operator
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

#: Largest eidostate for which exhaustive enumeration (subsets, brute
#: force product checks) is permitted.
ENUMERATION_CAP = 20


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration was requested beyond the configured cap."""


class StateExpr:
    """Base class for state expression trees.  Instances are immutable and
    unique per tree, so ``==`` is ``is``."""

    __slots__ = ()

    def leaves(self) -> Iterator["Atom"]:
        """The atoms of the tree, left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Pair):
                stack += (node.right, node.left)
            else:
                yield node

    # Total order via sort keys keeps eidostate storage canonical.
    def __lt__(self, other: "StateExpr") -> bool:
        return self._key < other._key

    def __le__(self, other: "StateExpr") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "StateExpr") -> bool:
        return self._key > other._key

    def __ge__(self, other: "StateExpr") -> bool:
        return self._key >= other._key


class Atom(StateExpr):
    """A leaf state named by an opaque string identifier."""

    __slots__ = ("atom_id", "_key", "_hash", "__weakref__")

    def __new__(cls, atom_id: str):
        if not isinstance(atom_id, str) or not atom_id:
            raise TypeError("atom_id must be a nonempty string")
        atom = _ATOMS.get(atom_id)
        if atom is None:
            with _INTERN_LOCK:
                atom = _ATOMS.get(atom_id)
                if atom is None:
                    atom = object.__new__(cls)
                    key = ("a", atom_id)
                    object.__setattr__(atom, "atom_id", atom_id)
                    object.__setattr__(atom, "_key", key)
                    object.__setattr__(atom, "_hash", hash(key))
                    _ATOMS[atom_id] = atom
        return atom

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        return Atom, (self.atom_id,)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.atom_id!r})"

    def __str__(self) -> str:
        return self.atom_id


class Pair(StateExpr):
    """The ordered combination of two state expressions."""

    __slots__ = ("left", "right", "_key", "_hash", "__weakref__")

    def __new__(cls, left: StateExpr, right: StateExpr):
        if not isinstance(left, StateExpr) or not isinstance(right, StateExpr):
            raise TypeError("Pair components must be StateExpr")
        ids = (id(left), id(right))
        pair = _PAIRS.get(ids)
        if pair is None:
            with _INTERN_LOCK:
                pair = _PAIRS.get(ids)
                if pair is None:
                    pair = object.__new__(cls)
                    object.__setattr__(pair, "left", left)
                    object.__setattr__(pair, "right", right)
                    object.__setattr__(pair, "_key", ("p", left._key, right._key))
                    object.__setattr__(pair, "_hash", hash(("p", left, right)))
                    _PAIRS[ids] = pair
        return pair

    def __setattr__(self, name, value):
        raise AttributeError("Pair is immutable")

    def __reduce__(self):
        """Pickled flat, so a tree of any depth pickles: its distinct
        subtrees in post-order, an atom by its name and a pair by the
        positions of its two children.  Loading rebuilds the tree through
        ``Atom`` and ``Pair``, which return the live tree if there is one."""
        nodes = []

        def position(entry) -> int:
            nodes.append(entry)
            return len(nodes) - 1

        fold(self, {}, lambda atom: position(atom.atom_id),
             lambda left, right: position((left, right)))
        return _unpickle_tree, (tuple(nodes),)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        """``Pair(left, right)`` with the children's reprs, written
        without recursion."""
        return _write(self, "Pair(", ", ", repr)

    def __str__(self) -> str:
        """The grammar form ``(left + right)``, written without recursion."""
        return _write(self, "(", " + ", str)


def _write(expr: StateExpr, opening: str, separator: str, leaf) -> str:
    """The text of ``expr``: ``leaf(atom)`` at each atom, and
    ``opening``, the left text, ``separator``, the right text and ``)``
    at each pair.  The walk keeps its own stack, so any depth prints."""
    parts = []
    stack = [expr]
    while stack:
        node = stack.pop()
        while isinstance(node, Pair):
            parts.append(opening)
            stack += (")", node.right, separator)
            node = node.left
        parts.append(node if isinstance(node, str) else leaf(node))
    return "".join(parts)


def _unpickle_tree(nodes: tuple) -> StateExpr:
    """The tree ``Pair.__reduce__`` wrote as a post-order node list."""
    built = []
    for node in nodes:
        built.append(Atom(node) if isinstance(node, str) else Pair(built[node[0]], built[node[1]]))
    return built[-1]


def fold(expr: StateExpr, cache: dict, leaf, join):
    """The value of ``expr`` built bottom-up: ``leaf(atom)`` at each atom
    and ``join(left value, right value)`` at each pair.

    Every subtree's value is computed once and stored in ``cache``, and
    subtrees already there are not walked again.  The walk keeps its own
    stack, so a tree of any depth folds without recursion.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in cache:
            continue
        if isinstance(node, Pair):
            left = cache.get(node.left)
            right = cache.get(node.right)
            if left is None or right is None:
                stack.append(node)
                if right is None:
                    stack.append(node.right)
                if left is None:
                    stack.append(node.left)
                continue
            cache[node] = join(left, right)
        else:
            cache[node] = leaf(node)
    return cache[expr]


#: The live trees, one object each: atoms by name, and pairs by the ids
#: of their two (themselves unique) children.  The values are weak, so a
#: tree leaves its table when its last reference goes.  A pair's entry
#: is removed before the pair releases its children, so the ids in a
#: present key always belong to live children and cannot be reused.
#: A miss re-checks and inserts under the lock, so that threads building
#: the same new tree at once still get one object.
_ATOMS: weakref.WeakValueDictionary[str, Atom] = weakref.WeakValueDictionary()
_PAIRS: weakref.WeakValueDictionary[tuple, Pair] = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()

_sort_key = operator.attrgetter("_key")


class Eidostate:
    """A finite nonempty set of state expressions in canonical order.

    Equality and hashing are set equality; members are stored sorted
    under the deterministic total order on trees so that equal sets are
    structurally identical.
    """

    __slots__ = ("_members", "_hash", "_primes")

    def __init__(self, members: Iterable[StateExpr]):
        unique = list(dict.fromkeys(members))
        if not unique:
            raise ValueError("an eidostate must be nonempty")
        for m in unique:
            if not isinstance(m, StateExpr):
                raise TypeError("eidostate members must be StateExpr")
        unique.sort(key=_sort_key)
        object.__setattr__(self, "_members", tuple(unique))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_primes", None)

    def __setattr__(self, name, value):
        raise AttributeError("Eidostate is immutable")

    def __reduce__(self):
        return Eidostate, (self._members,)

    @property
    def members(self) -> tuple:
        return self._members

    def __iter__(self) -> Iterator[StateExpr]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, item) -> bool:
        return item in self._members

    def __eq__(self, other) -> bool:
        return isinstance(other, Eidostate) and self._members == other._members

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._members))
        return self._hash

    def __repr__(self) -> str:
        return f"Eidostate([{', '.join(map(repr, self._members))}])"

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self._members)) + "}"

    def as_set(self) -> frozenset:
        return frozenset(self._members)

    def issubset(self, other: "Eidostate") -> bool:
        return self.as_set() <= other.as_set()


def singleton(state: StateExpr) -> Eidostate:
    """Wrap one state expression as a singleton eidostate."""
    return Eidostate([state])


def combine(a: Eidostate, b: Eidostate) -> Eidostate:
    """Cartesian combination: every member of ``a`` paired with every member of ``b``."""
    return Eidostate(Pair(x, y) for x in a for y in b)


def n_copies(a: Eidostate, n: int) -> Eidostate:
    """Right-nested n-fold combination a + (a + (... + a))."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    result = a
    for _ in range(n - 1):
        result = combine(a, result)
    return result


def _try_split(e: Eidostate):
    """Return (X, Y) with e = X x Y for the unique candidate split, else None."""
    lefts = set()
    rights = set()
    for m in e:
        if not isinstance(m, Pair):
            return None
        lefts.add(m.left)
        rights.add(m.right)
    # e is always a subset of lefts x rights, so a cardinality match
    # means exact equality.
    if len(lefts) * len(rights) != len(e):
        return None
    return Eidostate(lefts), Eidostate(rights)


def prime_factorize(e: Eidostate) -> tuple:
    """The prime factors of an eidostate with respect to combination, left
    to right.

    A set of pairs splits only along the pairing itself (lefts times
    rights); splitting each part in turn ends at sets admitting no split.
    """
    factors = []
    stack = [e]
    while stack:
        part = stack.pop()
        split = _try_split(part)
        if split is None:
            factors.append(part)
        else:
            stack += (split[1], split[0])
    return tuple(factors)


def prime_factors(e: Eidostate) -> Counter:
    """Multiset of prime factors, cached on the eidostate."""
    if e._primes is None:
        object.__setattr__(e, "_primes", Counter(prime_factorize(e)))
    return e._primes


def is_prime(e: Eidostate) -> bool:
    return _try_split(e) is None


def similar(a: Eidostate, b: Eidostate) -> bool:
    """True when both eidostates are built from the same prime factors."""
    if a == b:
        return True
    if len(a) != len(b):
        return False
    return prime_factors(a) == prime_factors(b)


def subsets_of(e: Eidostate) -> Iterator[Eidostate]:
    """All nonempty subsets, smallest first; capped at ENUMERATION_CAP members."""
    if len(e) > ENUMERATION_CAP:
        raise ResourceCapError(
            f"subset enumeration over {len(e)} members exceeds the cap of {ENUMERATION_CAP}"
        )
    for size in range(1, len(e) + 1):
        for chosen in itertools.combinations(e.members, size):
            yield Eidostate(chosen)


@dataclass(frozen=True)
class Process:
    """An ordered pair of eidostates: what the agent starts and ends with."""

    initial: Eidostate
    final: Eidostate


class ProcessType(enum.Enum):
    NATURAL_IRREVERSIBLE = "natural irreversible"
    ANTINATURAL_IRREVERSIBLE = "antinatural irreversible"
    REVERSIBLE = "reversible"
    IMPOSSIBLE = "impossible"

    @property
    def label(self) -> str:
        return self.value
