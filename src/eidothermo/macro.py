"""The macrostate model: atoms carrying integer content and rational entropy.

Atoms are a record atom (content 0, entropy 0) and a family of unit
content atoms with entropy values in [0,1].  Content and entropy extend
additively over pairing.  The arrow relation between eidostates is
decided on their prime factorizations.  ``MacroModel._walk`` makes one
pass over each side's (factor, multiplicity) list and its primes: it
builds the non-uniform part, collects the uniform primes and sums their
content, reading each prime's (content, entropy), or None for a
non-uniform prime, from one per-model cache, and carries each uniform
prime's entropy out with it.  The arrow holds when three criteria do,
each one method:

* ``_n_criterion``: the non-uniform parts are identical multisets;
* ``_q_criterion``: both uniform parts absent, or only one present with
  content zero, or both present with equal content;
* ``_s_criterion``: both absent, or only the initial present with entropy
  zero, or only the final present with nonnegative entropy, or both
  present with initial entropy <= final entropy.

The entropy totals of the uniform parts are summed only once the first
two criteria have passed.

All comparisons are exact (``exact.compare_entropy``); undecided
entropy comparisons surface as errors rather than guesses.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

import mpmath

from .exact import Comparison, ExactEntropy, _precision_ladder, compare_entropy, max_precision_bits
from .oracle import FactoredState, InformationState, ModelOracle, StateEquivalence
from .states import Atom, Eidostate, Pair, StateExpr, prime_factors

#: Default cap on the denominator of entropy values accepted from scenarios.
LAMBDA_DENOMINATOR_CAP = 2**16

RECORD_ATOM_ID = "r"
MECHANICAL_ATOM_ID = "s_0"

ZERO = ExactEntropy.from_rational(0)

#: A prime factor: an eidostate, or an information state known by its size.
Prime = Union[Eidostate, InformationState]


@dataclass(frozen=True)
class AtomDef:
    """A named atom with its content and entropy values."""

    atom_id: str
    q: int
    s: Fraction

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 0:
            raise ValueError(f"atom {self.atom_id!r}: q must be a nonnegative integer")
        s = Fraction(self.s)
        object.__setattr__(self, "s", s)
        if not 0 <= s <= 1:
            raise ValueError(f"atom {self.atom_id!r}: s must lie in [0, 1]")


def s_atom_id(lam: Fraction) -> str:
    """Canonical identifier for the unit-content atom with entropy lam."""
    lam = Fraction(lam)
    if lam.denominator == 1:
        return f"s_{lam.numerator}"
    return f"s_{lam.numerator}/{lam.denominator}"


class MacroRegistry:
    """Mutable atom table; all model arithmetic reads through it."""

    def __init__(self, atoms: Iterable[AtomDef] = ()):  # noqa: D107
        self._atoms: Dict[str, AtomDef] = {}
        self._q_cache: Dict[StateExpr, int] = {}
        self._s_cache: Dict[StateExpr, Fraction] = {}
        for a in atoms:
            self.register(a)

    def register(self, atom: AtomDef) -> None:
        if atom.atom_id in self._atoms:
            if self._atoms[atom.atom_id] == atom:
                return
            raise ValueError(f"atom {atom.atom_id!r} already registered differently")
        if atom.atom_id == RECORD_ATOM_ID and (atom.q != 0 or atom.s != 0):
            raise ValueError(f"the record atom {RECORD_ATOM_ID!r} must have q=0, s=0")
        self._atoms[atom.atom_id] = atom

    def get(self, atom_id: str) -> AtomDef:
        try:
            return self._atoms[atom_id]
        except KeyError:
            raise KeyError(f"unregistered atom {atom_id!r}") from None

    def atom_ids(self) -> tuple:
        return tuple(self._atoms)

    def ensure_s_atom(self, lam: Fraction) -> Atom:
        """The unit-content atom with entropy lam, registering it if new."""
        lam = Fraction(lam)
        atom_id = s_atom_id(lam)
        if atom_id not in self._atoms:
            self.register(AtomDef(atom_id, 1, lam))
        return Atom(atom_id)

    @classmethod
    def standard(cls) -> "MacroRegistry":
        """The record atom plus unit atoms at entropy 0, 1/4, 1/2, 3/4, 1."""
        reg = cls([AtomDef(RECORD_ATOM_ID, 0, Fraction(0))])
        for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            reg.ensure_s_atom(lam)
        return reg

    # -- additive state functions -------------------------------------

    def q_value(self, a: StateExpr) -> int:
        cached = self._q_cache.get(a)
        if cached is None:
            if isinstance(a, Atom):
                cached = self.get(a.atom_id).q
            else:
                cached = self.q_value(a.left) + self.q_value(a.right)
            self._q_cache[a] = cached
        return cached

    def s_value(self, a: StateExpr) -> Fraction:
        cached = self._s_cache.get(a)
        if cached is None:
            if isinstance(a, Atom):
                cached = self.get(a.atom_id).s
            else:
                cached = self.s_value(a.left) + self.s_value(a.right)
            self._s_cache[a] = cached
        return cached

    def is_uniform(self, e: Eidostate) -> bool:
        """True when every member carries the same content."""
        values = iter(e)
        q0 = self.q_value(next(values))
        return all(self.q_value(m) == q0 for m in values)

    def entropy_exact(self, e: Eidostate) -> ExactEntropy:
        """Entropy of a uniform eidostate from its member entropies."""
        if not self.is_uniform(e):
            raise ValueError(f"eidostate {e} is not uniform")
        return ExactEntropy(self.s_value(m) for m in e)


@dataclass(frozen=True)
class NUDecomposition:
    """Prime factors split into non-uniform and uniform multisets."""

    non_uniform: Counter
    uniform: Counter


def _right_comb(leaf: Atom, n: int) -> StateExpr:
    expr: StateExpr = leaf
    for _ in range(n - 1):
        expr = Pair(leaf, expr)
    return expr


class MacroModel(ModelOracle):
    """Oracle over a macro registry."""

    name = "macro"

    def __init__(self, registry: Optional[MacroRegistry] = None):
        self.registry = registry if registry is not None else MacroRegistry.standard()
        #: prime -> (content, entropy) when the prime is uniform, else None.
        self._prime_cache: Dict[Prime, Optional[Tuple[int, ExactEntropy]]] = {}

    # -- decomposition ------------------------------------------------

    def _prime_values(self, prime: Prime) -> Optional[Tuple[int, ExactEntropy]]:
        """Content and entropy of a uniform prime; None for a non-uniform one."""
        if isinstance(prime, InformationState):
            # Content-free, with entropy log2 n (see _information_primes).
            return 0, ExactEntropy.log2_of_int(prime.n)
        if not self.registry.is_uniform(prime):
            return None
        return self.registry.q_value(prime.members[0]), self.registry.entropy_exact(prime)

    def _walk(
        self, parts: FactoredState
    ) -> Tuple[Counter, Counter, int, Dict[Prime, ExactEntropy]]:
        """One pass over the primes of a factored product.

        Returns the non-uniform part, the uniform part (both as prime
        multisets), the total content of the uniform part and the
        entropy of each uniform prime, keyed by the same prime objects
        as the uniform part so that summing needs no cache lookup.
        """
        cache = self._prime_cache
        non_uniform: Counter = Counter()
        uniform: Counter = Counter()
        entropies: Dict[Prime, ExactEntropy] = {}
        content = 0
        for factor, mult in parts:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if isinstance(factor, InformationState):
                primes = self._information_primes(factor)
            else:
                primes = prime_factors(factor)
            for prime, count in primes.items():
                try:
                    values = cache[prime]
                except KeyError:
                    values = cache[prime] = self._prime_values(prime)
                count *= mult
                if values is None:
                    non_uniform[prime] += count
                else:
                    uniform[prime] += count
                    entropies[prime] = values[1]
                    content += values[0] * count
        if not non_uniform and not uniform:
            raise ValueError("empty product has no primes")
        return non_uniform, uniform, content, entropies

    @staticmethod
    def _entropy_total(uniform: Counter, entropies: Dict[Prime, ExactEntropy]) -> ExactEntropy:
        """Total entropy of a nonempty multiset of uniform primes."""
        total: Optional[ExactEntropy] = None
        for prime, mult in uniform.items():
            part = entropies[prime] * mult
            total = part if total is None else total + part
        return total

    def nu_decompose(self, e: Eidostate) -> NUDecomposition:
        non_uniform, uniform, _, _ = self._walk(((e, 1),))
        return NUDecomposition(non_uniform, uniform)

    # -- the arrow ----------------------------------------------------

    def arrow_combined(self, parts_a: FactoredState, parts_b: FactoredState) -> bool:
        n_a, u_a, qa, s_a = self._walk(parts_a)
        n_b, u_b, qb, s_b = self._walk(parts_b)
        if not self._n_criterion(n_a, n_b):
            return False
        # Content first: no entropy is summed or compared when content
        # fails.  None marks an absent uniform part.
        if not self._q_criterion(qa if u_a else None, qb if u_b else None):
            return False
        return self._s_criterion(
            self._entropy_total(u_a, s_a) if u_a else None,
            self._entropy_total(u_b, s_b) if u_b else None,
        )

    def _n_criterion(self, n_a: Counter, n_b: Counter) -> bool:
        return n_a == n_b

    def _q_criterion(self, qa: Optional[int], qb: Optional[int]) -> bool:
        """Content is conserved; an absent uniform part (None) carries none."""
        return (qa or 0) == (qb or 0)

    def _s_criterion(
        self, sa: Optional[ExactEntropy], sb: Optional[ExactEntropy]
    ) -> bool:
        """Entropy does not decrease; None marks an absent uniform part."""
        if sa is None and sb is None:
            return True
        if sb is None:
            # Only the initial side has a uniform part: it must be
            # entropy-free to be absorbable.
            return compare_entropy(sa, ZERO) is Comparison.EQUAL
        if sa is None:
            return compare_entropy(sb, ZERO) is not Comparison.LESS
        return compare_entropy(sa, sb) is not Comparison.GREATER

    def _information_primes(self, info: InformationState) -> Counter:
        """The primes a size-only information state stands for.

        Built from content-free, entropy-free records, an information
        state's primes are all uniform, carry no content, and have
        entropies summing to log2 n, so the size itself serves as one
        uniform prime.  Records that carry content or entropy break
        that identity, and the materialized state is factored instead.
        """
        record = self.make_record()
        if self.registry.q_value(record) == 0 and self.registry.s_value(record) == 0:
            return Counter({info: 1})
        return prime_factors(self.make_information_state(info.n))

    # -- oracle contract ----------------------------------------------

    def state_entropy(self, a: StateExpr) -> ExactEntropy:
        return ExactEntropy.from_rational(self.registry.s_value(a))

    def components(self, a: StateExpr) -> tuple:
        return (Fraction(self.registry.q_value(a)),)

    def is_record(self, a: StateExpr) -> bool:
        record = self.registry.get(RECORD_ATOM_ID)
        return all(leaf.atom_id == record.atom_id for leaf in a.leaves())

    def is_mechanical(self, a: StateExpr) -> bool:
        if MECHANICAL_ATOM_ID not in self.registry.atom_ids():
            return False
        return all(leaf.atom_id == MECHANICAL_ATOM_ID for leaf in a.leaves())

    def make_record(self) -> StateExpr:
        self.registry.register(AtomDef(RECORD_ATOM_ID, 0, Fraction(0)))
        return Atom(RECORD_ATOM_ID)

    def mechanical_family(self, max_leaves: int = 8) -> tuple:
        leaf = self.registry.ensure_s_atom(Fraction(0))
        return tuple(_right_comb(leaf, n) for n in range(1, max_leaves + 1))

    def state_equivalence(self, e: Eidostate) -> StateEquivalence:
        """Witnesses for E + x <-> e' + y with x -> y, built from the model atoms.

        When the entropy of E is irrational the equality constraint has
        no exact solution with rational atom entropies; the nearest
        dyadic-rational construction is returned flagged approximate.
        """
        if not self.registry.is_uniform(e):
            raise ValueError("state equivalence requires a uniform eidostate")
        q = self.registry.q_value(e.members[0])
        sigma = self.registry.entropy_exact(e)
        record = self.make_record()
        s_zero = self.registry.ensure_s_atom(Fraction(0))
        if sigma.is_rational:
            value = sigma.as_fraction()
            n = int(value) + 1 if value >= 0 else 0
            while Fraction(n) <= value:
                n += 1
            lam = value / n
            exact = True
        else:
            lo, hi = _integer_bracket(sigma)
            # When the bracket is ambiguous take the safe larger candidate.
            n = lo if lo == hi else hi
            lam = _nearest_on_grid(sigma, n, LAMBDA_DENOMINATOR_CAP)
            exact = False
        e_state = record if q == 0 else _right_comb(s_zero, q)
        x = _right_comb(s_zero, n)
        y = _right_comb(self.registry.ensure_s_atom(lam), n)
        # Each of the n atoms sits at most half a grid step off.
        tolerance = Fraction(0) if exact else Fraction(n, 2 * LAMBDA_DENOMINATOR_CAP)
        return StateEquivalence(e=e_state, x=x, y=y, exact=exact, tolerance=tolerance)

    def information_blocked(self, a: Eidostate, b: Eidostate) -> bool:
        """No information state can help when contents or non-uniform parts differ."""
        n_a, _, qa, _ = self._walk(((a, 1),))
        n_b, _, qb, _ = self._walk(((b, 1),))
        return n_a != n_b or qa != qb

    def is_uniform(self, e: Eidostate) -> bool:
        return self.registry.is_uniform(e)

    # -- generation ---------------------------------------------------

    def fresh_lambda(self, rng: random.Random) -> Fraction:
        denominator = 2 ** rng.randint(3, 16)
        return Fraction(rng.randint(0, denominator), denominator)

    def random_atom(self, rng: random.Random) -> StateExpr:
        roll = rng.random()
        if roll < 0.2:
            return Atom(RECORD_ATOM_ID)
        if roll < 0.85:
            lam = rng.choice(
                [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
            )
        else:
            lam = self.fresh_lambda(rng)
        return self.registry.ensure_s_atom(lam)

    def random_state_with_content(
        self, rng: random.Random, q: int, extra_records: int = 2
    ) -> StateExpr:
        """A random state carrying exactly the given content."""
        leaves = [self.registry.ensure_s_atom(rng.choice(
            [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        )) for _ in range(q)]
        leaves += [Atom(RECORD_ATOM_ID)] * rng.randint(0 if leaves else 1, extra_records)
        rng.shuffle(leaves)
        return _random_shape(rng, leaves)

    def random_uniform_eidostate(
        self, rng: random.Random, max_size: int = 6, max_depth: int = 4
    ) -> Eidostate:
        q = rng.randint(0, max(1, max_depth - 1))
        size = rng.randint(1, max_size)
        members = set()
        attempts = 0
        while len(members) < size and attempts < 30 * size:
            members.add(self.random_state_with_content(rng, q))
            attempts += 1
        return Eidostate(members)


def _random_shape(rng: random.Random, leaves) -> StateExpr:
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return Pair(_random_shape(rng, leaves[:cut]), _random_shape(rng, leaves[cut:]))


def _integer_bracket(value: ExactEntropy) -> Tuple[int, int]:
    """Candidates for the smallest integer exceeding the value, as a range."""
    for bits in _precision_ladder(max_precision_bits()):
        box = value.interval(bits)
        with mpmath.workprec(bits):
            lo = int(mpmath.floor(mpmath.mpf(box.a))) + 1
            hi = int(mpmath.floor(mpmath.mpf(box.b))) + 1
        if lo == hi:
            return lo, hi
    return lo, hi


def _nearest_on_grid(value: ExactEntropy, n: int, denominator: int) -> Fraction:
    """The fraction k/denominator nearest to value/n, clamped to [0, 1]."""
    box = value.interval(256)
    with mpmath.workprec(256):
        mid = (mpmath.mpf(box.a) + mpmath.mpf(box.b)) / 2
        numerator = int(mpmath.nint(mid / n * denominator))
    return Fraction(min(max(numerator, 0), denominator), denominator)
