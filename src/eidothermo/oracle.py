"""The model oracle contract consumed by the engine and the test harness.

A model supplies the arrow relation, per-state entropy and conserved
components, the record/mechanical predicates, and constructors for the
special states the theory quantifies over (records, bit states,
information states, state equivalences).  It also supplies seeded random
generators so suites are reproducible.  A model implements
``arrow_combined`` and gets ``arrow`` from it; it may override
``is_uniform`` (by default O(n^2) arrows between members) and
``information_blocked`` with cheaper exact answers:

* ``arrow_combined`` decides the arrow between products given as
  (eidostate, multiplicity) factor lists, so many-fold paddings with
  information states never materialize exponentially large member sets;
  a factor may also be an ``InformationState(n)``, which stands for an
  n-element information state by its size alone (the theory sees an
  information state only through its cardinality, with entropy log2 n),
  so searches over information-state sizes cost O(1) per arrow;
* ``information_blocked`` reports when no amount of added information
  can enable a transformation, letting searches distinguish "not yet"
  from "never".
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .exact import ExactEntropy
from .states import Eidostate, Pair, StateExpr, combine, n_copies, singleton


@dataclass(frozen=True)
class InformationState:
    """An n-element information state known only by its size.

    Models decide arrows on it as they would on the materialized
    ``ModelOracle.make_information_state(n)``, without building it.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")

    def __len__(self) -> int:
        return self.n


#: Draws ``random_uniform_eidostate`` makes before settling for a singleton.
UNIFORM_DRAW_ATTEMPTS = 20

#: A product in factored form: pairs of (factor, multiplicity), where a
#: factor is an eidostate or a size-only information state.
FactoredState = Sequence[Tuple[Union[Eidostate, InformationState], int]]


@dataclass(frozen=True)
class StateEquivalence:
    """Witnesses e, x, y with x -> y and E + x <-> e + y.

    ``exact`` is False when the witnesses only satisfy the relations up
    to the numeric precision of the model (the equality constraint has
    no exact solution in the model's atom family).  ``tolerance`` then
    bounds how far the entropies of the two sides may sit apart.
    """

    e: StateExpr
    x: StateExpr
    y: StateExpr
    exact: bool
    tolerance: Fraction = Fraction(0)


class ModelOracle(ABC):
    """Interface every concrete model implements."""

    name: str = "abstract"

    # -- relations ----------------------------------------------------

    def arrow(self, a: Eidostate, b: Eidostate) -> bool:
        """True when a may be transformed into b with no other net change."""
        return self.arrow_combined(((a, 1),), ((b, 1),))

    def possible(self, a: Eidostate, b: Eidostate) -> bool:
        return self.arrow(a, b) or self.arrow(b, a)

    @abstractmethod
    def arrow_combined(self, parts_a: FactoredState, parts_b: FactoredState) -> bool:
        """Arrow between products given in factored form.

        Factors may be ``InformationState`` sizes as well as eidostates.
        """

    def is_uniform(self, e: Eidostate) -> bool:
        """Every pair of members connected by a possible process."""
        members = e.members
        for i, a in enumerate(members):
            sa = singleton(a)
            for b in members[i + 1 :]:
                if not self.possible(sa, singleton(b)):
                    return False
        return True

    # -- state functions ----------------------------------------------

    @abstractmethod
    def state_entropy(self, a: StateExpr) -> ExactEntropy:
        """Entropy of a single state, additive over pairing."""

    @abstractmethod
    def components(self, a: StateExpr) -> tuple:
        """Conserved content of a single state; may be empty."""

    # -- special states -----------------------------------------------

    @abstractmethod
    def is_record(self, a: StateExpr) -> bool:
        ...

    @abstractmethod
    def is_mechanical(self, a: StateExpr) -> bool:
        ...

    @abstractmethod
    def make_record(self) -> StateExpr:
        """A fresh record state (entropy-free, content-free memory unit)."""

    def make_bit_state(self) -> Eidostate:
        """A two-element eidostate of record states."""
        r = self.make_record()
        return Eidostate([r, Pair(r, r)])

    def make_information_state(self, n: int) -> Eidostate:
        """An n-element eidostate of structurally distinct record states."""
        if n < 1:
            raise ValueError("n must be positive")
        # Reusing instances keeps their factorizations cached across the
        # harness checks that draw information states again and again.
        cache = self.__dict__.setdefault("_information_state_cache", {})
        state = cache.get(n)
        if state is None:
            bit = self.make_bit_state()
            copies = max(1, (n - 1).bit_length())
            pool = n_copies(bit, copies)
            state = Eidostate(pool.members[:n])
            cache[n] = state
        return state

    def mechanical_family(self) -> tuple:
        """A bounded family of mechanical states to search over; may be empty."""
        return ()

    @abstractmethod
    def state_equivalence(self, e: Eidostate) -> StateEquivalence:
        """The singleton-equivalence witnesses for a uniform eidostate."""

    def information_blocked(self, a: Eidostate, b: Eidostate) -> bool:
        """True when a -> b + J fails for every information state J."""
        return False

    # -- seeded generation --------------------------------------------

    @abstractmethod
    def random_atom(self, rng: random.Random) -> StateExpr:
        ...

    def random_state(self, rng: random.Random, max_depth: int = 4) -> StateExpr:
        if max_depth <= 1 or rng.random() < 0.4:
            return self.random_atom(rng)
        return Pair(
            self.random_state(rng, max_depth - 1),
            self.random_state(rng, max_depth - 1),
        )

    def random_eidostate(
        self, rng: random.Random, max_size: int = 6, max_depth: int = 4
    ) -> Eidostate:
        # A slice of the draws are true products so factorization paths
        # get exercised; plain random member sets are almost always prime.
        if max_size >= 4 and max_depth >= 2 and rng.random() < 0.3:
            left = self.random_eidostate(rng, max_size // 2, max_depth - 1)
            right = self.random_eidostate(rng, max_size // 2, max_depth - 1)
            return combine(left, right)
        size = rng.randint(1, max_size)
        members = set()
        attempts = 0
        while len(members) < size and attempts < 20 * size:
            members.add(self.random_state(rng, max_depth))
            attempts += 1
        return Eidostate(members)

    def random_uniform_eidostate(
        self, rng: random.Random, max_size: int = 6, max_depth: int = 4
    ) -> Eidostate:
        """A random eidostate whose members are pairwise possible.

        Redraws until ``is_uniform`` holds; after a bounded number of
        attempts falls back to a singleton of a drawn member.
        """
        for _ in range(UNIFORM_DRAW_ATTEMPTS):
            e = self.random_eidostate(rng, max_size, max_depth)
            if self.is_uniform(e):
                return e
        return singleton(rng.choice(e.members))


def expand_factored(parts: FactoredState) -> Eidostate:
    """Materialize a factored product of eidostates (for small cases and
    cross-checks)."""
    result: Optional[Eidostate] = None
    for factor, mult in parts:
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        for _ in range(mult):
            result = factor if result is None else combine(result, factor)
    if result is None:
        raise ValueError("empty product has no eidostate")
    return result
