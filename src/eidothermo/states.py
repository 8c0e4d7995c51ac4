"""Model-independent state expressions and eidostate algebra.

A state expression is a finite binary tree whose leaves are named atoms;
pairing is the only combination form and is deliberately non-commutative
and non-associative, so ``(a + b)`` and ``(b + a)`` are distinct trees.
An eidostate is a finite nonempty set of state expressions; combining two
eidostates forms the Cartesian product of their members.  On top of that
sit prime factorization with respect to the product, the similarity
relation (equal prime-factor multisets), and small utilities (copies,
subsets, disjoint partitions) used by the models and the test harness.

Atom names are opaque strings here; their meaning (conserved content,
entropy, dimension, ...) lives in the model registries.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

#: Largest eidostate for which exhaustive enumeration (subsets, brute
#: force product checks) is permitted.
ENUMERATION_CAP = 20


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration was requested beyond the configured cap."""


class StateExpr:
    """Base class for state expression trees.  Instances are immutable."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def leaves(self) -> Iterator["Atom"]:
        raise NotImplementedError

    @property
    def depth(self) -> int:
        raise NotImplementedError

    @property
    def n_leaves(self) -> int:
        raise NotImplementedError

    # Total order via sort keys keeps eidostate storage canonical.
    def __lt__(self, other: "StateExpr") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "StateExpr") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "StateExpr") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "StateExpr") -> bool:
        return self.sort_key() >= other.sort_key()


class Atom(StateExpr):
    """A leaf state named by an opaque string identifier."""

    __slots__ = ("atom_id", "_key")

    def __init__(self, atom_id: str):
        if not isinstance(atom_id, str) or not atom_id:
            raise TypeError("atom_id must be a nonempty string")
        object.__setattr__(self, "atom_id", atom_id)
        object.__setattr__(self, "_key", ("a", atom_id))

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def sort_key(self) -> tuple:
        return self._key

    def leaves(self) -> Iterator["Atom"]:
        yield self

    @property
    def depth(self) -> int:
        return 1

    @property
    def n_leaves(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Atom) and self.atom_id == other.atom_id

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Atom({self.atom_id!r})"

    def __str__(self) -> str:
        return self.atom_id


class Pair(StateExpr):
    """The ordered combination of two state expressions."""

    __slots__ = ("left", "right", "_key", "_hash")

    def __init__(self, left: StateExpr, right: StateExpr):
        if not isinstance(left, StateExpr) or not isinstance(right, StateExpr):
            raise TypeError("Pair components must be StateExpr")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Pair is immutable")

    def sort_key(self) -> tuple:
        if self._key is None:
            key = ("p", self.left.sort_key(), self.right.sort_key())
            object.__setattr__(self, "_key", key)
        return self._key

    def leaves(self) -> Iterator[Atom]:
        stack = [self.right, self.left]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                yield node
            else:
                stack.append(node.right)
                stack.append(node.left)

    @property
    def depth(self) -> int:
        return 1 + max(self.left.depth, self.right.depth)

    @property
    def n_leaves(self) -> int:
        return self.left.n_leaves + self.right.n_leaves

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pair):
            return False
        if self is other:
            return True
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("p", self.left, self.right)))
        return self._hash

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


class Eidostate:
    """A finite nonempty set of state expressions in canonical order.

    Equality and hashing are set equality; members are stored sorted
    under the deterministic total order on trees so that equal sets are
    structurally identical.
    """

    __slots__ = ("_members", "_hash", "_primes")

    def __init__(self, members: Iterable[StateExpr]):
        seen = set()
        unique = []
        for m in members:
            if not isinstance(m, StateExpr):
                raise TypeError("eidostate members must be StateExpr")
            if m not in seen:
                seen.add(m)
                unique.append(m)
        if not unique:
            raise ValueError("an eidostate must be nonempty")
        unique.sort(key=lambda m: m.sort_key())
        object.__setattr__(self, "_members", tuple(unique))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_primes", None)

    def __setattr__(self, name, value):
        raise AttributeError("Eidostate is immutable")

    @property
    def members(self) -> tuple:
        return self._members

    def __iter__(self) -> Iterator[StateExpr]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, item) -> bool:
        return item in set(self._members)

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

    @property
    def is_singleton(self) -> bool:
        return len(self._members) == 1

    @property
    def single(self) -> StateExpr:
        if len(self._members) != 1:
            raise ValueError("eidostate is not a singleton")
        return self._members[0]

    def as_set(self) -> frozenset:
        return frozenset(self._members)

    def union(self, other: "Eidostate") -> "Eidostate":
        return Eidostate(self._members + other._members)

    def isdisjoint(self, other: "Eidostate") -> bool:
        return self.as_set().isdisjoint(other.as_set())

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


#: A recombination shape: either an int index into the factor list or a
#: two-tuple (left shape, right shape).
Shape = Union[int, tuple]


@dataclass(frozen=True)
class PrimeFactorization:
    """Prime factors of an eidostate plus the tree shape that recombines them."""

    factors: tuple
    shape: Shape

    def recombine(self) -> Eidostate:
        return _recombine(self.factors, self.shape)


def _recombine(factors: tuple, shape: Shape) -> Eidostate:
    if isinstance(shape, int):
        return factors[shape]
    left, right = shape
    return combine(_recombine(factors, left), _recombine(factors, right))


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


def prime_factorize(e: Eidostate) -> PrimeFactorization:
    """Factor an eidostate into prime factors with respect to combination.

    A set of pairs splits only along the pairing itself (lefts times
    rights); the recursion bottoms out at sets admitting no such split.
    """
    split = _try_split(e)
    if split is None:
        return PrimeFactorization(factors=(e,), shape=0)
    x, y = split
    fx = prime_factorize(x)
    fy = prime_factorize(y)
    offset = len(fx.factors)
    shifted = _shift_shape(fy.shape, offset)
    return PrimeFactorization(
        factors=fx.factors + fy.factors,
        shape=(fx.shape, shifted),
    )


def _shift_shape(shape: Shape, offset: int) -> Shape:
    if isinstance(shape, int):
        return shape + offset
    left, right = shape
    return (_shift_shape(left, offset), _shift_shape(right, offset))


def prime_factors(e: Eidostate) -> Counter:
    """Multiset of prime factors, cached on the eidostate."""
    if e._primes is None:
        object.__setattr__(e, "_primes", Counter(prime_factorize(e).factors))
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


def disjoint_partition_check(e: Eidostate, parts: Iterable[Eidostate]) -> bool:
    """True when the parts are pairwise disjoint and their union is exactly e."""
    parts = list(parts)
    if not parts:
        return False
    total = 0
    union = set()
    for p in parts:
        total += len(p)
        union.update(p.members)
    if total != len(union):
        return False
    return union == set(e.members)


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
