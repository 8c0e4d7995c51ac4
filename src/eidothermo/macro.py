"""The macrostate model: atoms with integer content and entropy in [0, 1].

Atoms are a record atom (content 0, entropy 0) and a family of unit
content atoms with entropy values in [0,1], rational except for those
the state equivalence below builds.  Content and entropy extend
additively over pairing.  The arrow relation between eidostates is
decided on their prime factorizations.  ``MacroModel._walk`` makes one
pass over each side's (factor, multiplicity) list.  A singleton factor
is not factored: its primes are its atoms, all uniform, so it adds its
member's content from the registry cache and one entropy term, the
member's registry entropy.  Any other factor is factored, and each
prime's (content, entropy), or None for a non-uniform prime, is read
from one per-model cache: the walk builds the non-uniform part, sums
the content and carries each uniform prime's entropy out with it.  A
size-only information state is one uniform prime of entropy log2 n
when records carry neither content nor entropy, which is decided once
per model.  The arrow holds when three criteria do, each one method:

* ``_n_criterion``: the non-uniform parts are identical multisets;
* ``_q_criterion``: both uniform parts absent, or only one present with
  content zero, or both present with equal content;
* ``_s_criterion``: both absent, or only the initial present with entropy
  zero, or only the final present with nonnegative entropy, or both
  present with initial entropy <= final entropy.

The entropy totals of the uniform parts are summed only once the first
two criteria have passed: the rational terms as one integer numerator
over their least common denominator, which becomes one ``Fraction``,
and the irrational ones, such as log2 3 of ``InformationState(3)``,
added to it as exact values.  A total is a ``Fraction`` exactly when it
is rational.

All comparisons are exact: two rational totals, or a rational total
and zero, compare as ``Fraction``s, and only an irrational total goes
to ``exact.compare_entropy``, whose undecided comparisons surface as
errors rather than guesses.

The state equivalence of a uniform eidostate is exact: its last atom
carries the entropy left over in [0, 1), an ``ExactEntropy`` when it is
irrational.  Such atoms exist only inside a model, named from their
exact value; scenarios declare rational entropies only.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Dict, Iterable, Optional, Tuple, Union

from .exact import Comparison, ExactEntropy, compare_entropy
from .oracle import FactoredState, InformationState, ModelOracle, StateEquivalence
from .states import Atom, Eidostate, Pair, StateExpr, fold, prime_factors

#: Default cap on the denominator of entropy values accepted from scenarios.
LAMBDA_DENOMINATOR_CAP = 2**16

RECORD_ATOM_ID = "r"
MECHANICAL_ATOM_ID = "s_0"

ZERO = ExactEntropy.from_rational(0)
ONE = ExactEntropy.from_rational(1)

#: Entropies of the standard unit-content atoms, in the order the
#: generators draw from.
STANDARD_LAMBDAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

#: A prime factor: an eidostate, or an information state known by its size.
Prime = Union[Eidostate, InformationState]

#: An entropy value: a ``Fraction`` when rational.
Entropy = Union[Fraction, ExactEntropy]


def as_exact(value: Entropy) -> ExactEntropy:
    """An entropy value as the ``ExactEntropy`` that ``compare_entropy`` takes."""
    return value if isinstance(value, ExactEntropy) else ExactEntropy.from_rational(value)


def as_entropy(value: ExactEntropy) -> Entropy:
    """An exact value as an entropy value: its ``Fraction`` when rational."""
    return value.as_fraction() if value.is_rational else value


@dataclass(frozen=True)
class AtomDef:
    """A named atom with its content and entropy values.

    The entropy is stored as a ``Fraction`` when rational and as an
    ``ExactEntropy`` otherwise; either way it must lie in [0, 1].
    """

    atom_id: str
    q: int
    s: Entropy

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 0:
            raise ValueError(f"atom {self.atom_id!r}: q must be a nonnegative integer")
        s = as_entropy(self.s) if isinstance(self.s, ExactEntropy) else Fraction(self.s)
        object.__setattr__(self, "s", s)
        # ExactEntropy compares only with ExactEntropy, and only an
        # irrational value needs to.
        if not (ZERO <= s <= ONE if isinstance(s, ExactEntropy) else 0 <= s <= 1):
            raise ValueError(f"atom {self.atom_id!r}: s must lie in [0, 1]")


def s_atom_id(lam: Entropy) -> str:
    """Canonical identifier for the unit-content atom with entropy lam:
    ``s_<p>/<q>`` for a rational, ``s_log2(...)`` for an irrational."""
    if isinstance(lam, ExactEntropy):
        return f"s_{lam}"
    lam = Fraction(lam)
    if lam.denominator == 1:
        return f"s_{lam.numerator}"
    return f"s_{lam.numerator}/{lam.denominator}"


class MacroRegistry:
    """Mutable atom table; all model arithmetic reads through it."""

    def __init__(self, atoms: Iterable[AtomDef] = ()):  # noqa: D107
        self._atoms: Dict[str, AtomDef] = {}
        self._q_cache: Dict[StateExpr, int] = {}
        self._s_cache: Dict[StateExpr, Entropy] = {}
        self._s_atoms: Dict[Entropy, Atom] = {}
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

    def ensure_s_atom(self, lam: Entropy) -> Atom:
        """The unit-content atom with entropy lam, registering it if new.

        An irrational lam is an ``ExactEntropy``; a rational one a ``Fraction``.
        """
        atom = self._s_atoms.get(lam)
        if atom is None:
            if not isinstance(lam, ExactEntropy):
                lam = Fraction(lam)
            atom_id = s_atom_id(lam)
            if atom_id not in self._atoms:
                self.register(AtomDef(atom_id, 1, lam))
            atom = self._s_atoms[lam] = Atom(atom_id)
        return atom

    @classmethod
    def standard(cls) -> "MacroRegistry":
        """The record atom plus unit atoms at entropy 0, 1/4, 1/2, 3/4, 1."""
        reg = cls([AtomDef(RECORD_ATOM_ID, 0, Fraction(0))])
        for lam in STANDARD_LAMBDAS:
            reg.ensure_s_atom(lam)
        return reg

    # -- additive state functions -------------------------------------

    def q_value(self, a: StateExpr) -> int:
        cached = self._q_cache.get(a)
        if cached is None:
            cached = fold(a, self._q_cache, lambda x: self.get(x.atom_id).q, operator.add)
        return cached

    def s_value(self, a: StateExpr) -> Entropy:
        cached = self._s_cache.get(a)
        if cached is None:
            cached = fold(a, self._s_cache, lambda x: self.get(x.atom_id).s, operator.add)
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
        return ExactEntropy.log2_sum_of_powers(as_exact(self.s_value(m)) for m in e)


def _right_comb(leaf: Atom, n: int, last: Optional[Atom] = None) -> StateExpr:
    """n atoms paired to the right: n - 1 copies of leaf, then last
    (leaf again by default)."""
    expr: StateExpr = leaf if last is None else last
    for _ in range(n - 1):
        expr = Pair(leaf, expr)
    return expr


class MacroModel(ModelOracle):
    """Oracle over a macro registry."""

    name = "macro"

    def __init__(self, registry: Optional[MacroRegistry] = None):
        self.registry = registry if registry is not None else MacroRegistry.standard()
        #: prime -> (content, entropy) when the prime is uniform, else None.
        self._prime_cache: Dict[Prime, Optional[Tuple[int, Entropy]]] = {}
        #: Whether records carry neither content nor entropy; set on first use.
        self._records_free: Optional[bool] = None

    # -- decomposition ------------------------------------------------

    def _prime_values(self, prime: Prime) -> Optional[Tuple[int, Entropy]]:
        """Content and entropy of a uniform prime; None for a non-uniform one.

        A rational entropy is kept as its ``Fraction``.
        """
        if isinstance(prime, InformationState):
            # Content-free, with entropy log2 n (see _information_primes).
            content, entropy = 0, ExactEntropy.log2_of_int(prime.n)
        elif not self.registry.is_uniform(prime):
            return None
        else:
            content = self.registry.q_value(prime.members[0])
            entropy = self.registry.entropy_exact(prime)
        return content, as_entropy(entropy)

    def _walk(self, parts: FactoredState) -> Tuple[Dict[Prime, int], int, list]:
        """One pass over the factors of a factored product.

        Returns the non-uniform part as a prime multiset, the total
        content of the uniform part, and the uniform part's entropy
        terms as (value, multiplicity) pairs, empty when the uniform
        part is absent.  A singleton factor is not factored: its primes
        are its atoms, all uniform, so it adds its member's registry
        content and one term whose value is the member's registry
        entropy, read only when the entropy is summed.  Every other
        prime's entropy comes out of the prime cache with it.
        """
        cache = self._prime_cache
        q_value = self.registry.q_value
        non_uniform: Dict[Prime, int] = {}
        terms = []
        content = 0
        for factor, mult in parts:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if isinstance(factor, InformationState):
                primes = self._information_primes(factor)
            elif len(factor) == 1:
                member = factor.members[0]
                content += q_value(member) * mult
                terms.append((member, mult))
                continue
            else:
                primes = prime_factors(factor).items()
            for prime, count in primes:
                try:
                    values = cache[prime]
                except KeyError:
                    values = cache[prime] = self._prime_values(prime)
                count *= mult
                if values is None:
                    non_uniform[prime] = non_uniform.get(prime, 0) + count
                else:
                    content += values[0] * count
                    terms.append((values[1], count))
        if not non_uniform and not terms:
            raise ValueError("empty product has no primes")
        return non_uniform, content, terms

    def _entropy_total(self, terms: list) -> Entropy:
        """Total entropy of a nonempty uniform part: a ``Fraction`` when
        every term is rational, else an ``ExactEntropy``.

        The rational terms are summed as one integer numerator over
        their least common denominator, so at most one ``Fraction`` is
        built; the irrational ones are added to it as exact values.
        """
        s_value = self.registry.s_value
        num, den = 0, 1
        irrational: Optional[ExactEntropy] = None
        for value, mult in terms:
            if isinstance(value, StateExpr):
                value = s_value(value)
            if type(value) is not Fraction:
                part = value * mult
                irrational = part if irrational is None else irrational + part
                continue
            d = value.denominator
            if den % d:
                scale = d // gcd(den, d)
                num *= scale
                den *= scale
            num += value.numerator * mult * (den // d)
        if irrational is None:
            return Fraction(num, den)
        return irrational + Fraction(num, den) if num else irrational

    # -- the arrow ----------------------------------------------------

    def arrow_combined(self, parts_a: FactoredState, parts_b: FactoredState) -> bool:
        n_a, qa, u_a = self._walk(parts_a)
        n_b, qb, u_b = self._walk(parts_b)
        if not self._n_criterion(n_a, n_b):
            return False
        # Content first: no entropy is summed or compared when content
        # fails.  None marks an absent uniform part.
        if not self._q_criterion(qa if u_a else None, qb if u_b else None):
            return False
        return self._s_criterion(
            self._entropy_total(u_a) if u_a else None,
            self._entropy_total(u_b) if u_b else None,
        )

    def _n_criterion(self, n_a: Dict[Prime, int], n_b: Dict[Prime, int]) -> bool:
        return n_a == n_b

    def _q_criterion(self, qa: Optional[int], qb: Optional[int]) -> bool:
        """Content is conserved; an absent uniform part (None) carries none."""
        return (qa or 0) == (qb or 0)

    def _s_criterion(self, sa: Optional[Entropy], sb: Optional[Entropy]) -> bool:
        """Entropy does not decrease; None marks an absent uniform part.

        Rational totals are decided as ``Fraction``s; only an irrational
        one goes to ``compare_entropy``.
        """
        if sa is None and sb is None:
            return True
        if sb is None:
            # Only the initial side has a uniform part: it must be
            # entropy-free to be absorbable.
            if type(sa) is Fraction:
                return sa == 0
            return compare_entropy(sa, ZERO) is Comparison.EQUAL
        if sa is None:
            if type(sb) is Fraction:
                return sb >= 0
            return compare_entropy(sb, ZERO) is not Comparison.LESS
        if type(sa) is Fraction and type(sb) is Fraction:
            return sa <= sb
        return compare_entropy(as_exact(sa), as_exact(sb)) is not Comparison.GREATER

    def _information_primes(self, info: InformationState):
        """The (prime, count) items a size-only information state stands for.

        Built from content-free, entropy-free records, an information
        state's primes are all uniform, carry no content, and have
        entropies summing to log2 n, so the size itself serves as one
        uniform prime.  Records that carry content or entropy break
        that identity, and the materialized state is factored instead.
        Which case holds is decided once per model.
        """
        if self._records_free is None:
            record = self.make_record()
            self._records_free = (
                self.registry.q_value(record) == 0 and self.registry.s_value(record) == 0
            )
        if self._records_free:
            return ((info, 1),)
        return prime_factors(self.make_information_state(info.n)).items()

    # -- oracle contract ----------------------------------------------

    def state_entropy(self, a: StateExpr) -> ExactEntropy:
        return as_exact(self.registry.s_value(a))

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
        """Exact witnesses for E + x <-> e' + y with x -> y.

        With S the entropy of E and n = floor(S) + 1, x is n atoms
        ``s_0`` and y is n - 1 atoms ``s_1`` then one atom of entropy
        S + 1 - n, in [0, 1): both carry content n, and y entropy S.
        """
        if not self.registry.is_uniform(e):
            raise ValueError("state equivalence requires a uniform eidostate")
        q = self.registry.q_value(e.members[0])
        sigma = self.registry.entropy_exact(e)
        n = sigma.floor() + 1
        rest = sigma + (1 - n)
        s_zero = self.registry.ensure_s_atom(Fraction(0))
        last = self.registry.ensure_s_atom(as_entropy(rest))
        e_state = self.make_record() if q == 0 else _right_comb(s_zero, q)
        x = _right_comb(s_zero, n)
        y = _right_comb(self.registry.ensure_s_atom(Fraction(1)), n, last)
        return StateEquivalence(e=e_state, x=x, y=y)

    def information_blocked(self, a: Eidostate, b: Eidostate) -> bool:
        """No information state can help when contents or non-uniform parts differ."""
        n_a, qa, _ = self._walk(((a, 1),))
        n_b, qb, _ = self._walk(((b, 1),))
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
            lam = rng.choice(STANDARD_LAMBDAS)
        else:
            lam = self.fresh_lambda(rng)
        return self.registry.ensure_s_atom(lam)

    def random_state_with_content(
        self, rng: random.Random, q: int, extra_records: int = 2
    ) -> StateExpr:
        """A random state carrying exactly the given content."""
        leaves = [
            self.registry.ensure_s_atom(rng.choice(STANDARD_LAMBDAS)) for _ in range(q)
        ]
        leaves += [Atom(RECORD_ATOM_ID)] * rng.randint(0 if leaves else 1, extra_records)
        rng.shuffle(leaves)
        return _random_shape(rng, leaves)

    def random_uniform_eidostate(
        self, rng: random.Random, max_size: int = 6, max_depth: int = 4
    ) -> Eidostate:
        q = rng.randint(0, max(1, max_depth - 1))
        # Content 0 reaches only r and (r + r): never ask for more members
        # than the content class holds.
        size = min(rng.randint(1, max_size), reachable_states(q))
        members = set()
        attempts = 0
        while len(members) < size and attempts < 30 * size:
            members.add(self.random_state_with_content(rng, q))
            attempts += 1
        return Eidostate(members)


def reachable_states(q: int) -> int:
    """The number of distinct trees ``random_state_with_content`` can
    return for content q with its default two extra records: over the
    allowed record counts k, C(q + k, k) placements of the records among
    q + k leaves, |L|^q choices of the standard atoms and
    Catalan(q + k - 1) shapes."""
    total = 0
    for k in range(0 if q else 1, 3):
        n = q + k
        total += comb(n, k) * len(STANDARD_LAMBDAS) ** q * comb(2 * n - 2, n - 1) // n
    return total


def _random_shape(rng: random.Random, leaves) -> StateExpr:
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return Pair(_random_shape(rng, leaves[:cut]), _random_shape(rng, leaves[cut:]))

