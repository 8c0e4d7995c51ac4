"""Randomized verification suites for the nine axioms and key theorems.

Every check transcribes one axiom or theorem clause and runs it against a
model oracle on seeded random inputs.  Case seeds are derived from the
master seed with sha256, so identical configurations always replay the
identical inputs and verdicts, on any platform, in any order.  An
information state in a counterexample prints by its size, as ``|J|=n``,
and ``make_information_state(n)`` rebuilds it, since a model builds the
same state for the same n.

Three kinds of outcome exist per case: pass, counterexample (recorded
with the case seed and serialized inputs), and inconclusive.  A case is
inconclusive when deciding it would need more than the bounded resources
the suite allows: an entropy comparison exhausts its precision ladder, a
bounded existential search for an information state comes up empty, or
the stability antecedent holds at every searched copy count n = 2^k,
k <= STABILITY_MAX_EXPONENT, while the consequent fails (the clause
quantifies over unbounded n, so no finite search disproves it).
Inconclusive cases are reported but are not counterexamples.

Two checks can never catch a faulty model.  Axiom 7 can only pass or be
inconclusive: a failing antecedent is a witness, and one that holds at
every searched n is not a disproof.  Theorem 17 can fail only through
the interval arithmetic, because S(E) = <S> + H holds for any state
entropies; a counterexample there would mean that an enclosure excluded
the exact residual 0, a fault of the arithmetic and not of the model.

The module also provides four deliberately broken oracles.  They exist
so the sensitivity tests can confirm the suites catch a model that drops
content conservation, orders entropy the wrong way round, ignores the
non-uniform parts, or hands out record states that silently carry
entropy.  Each overrides one method of the macro model: one arrow
criterion, or the record constructor.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .engine import entropy_uniform, shannon_decomposition
from .exact import (
    Comparison,
    ExactEntropy,
    PrecisionExhausted,
    compare_entropy,
    decimal_of,
)
from .macro import ZERO, AtomDef, MacroModel, as_exact
from .oracle import ModelOracle, expand_factored
from .states import (
    Atom,
    Eidostate,
    Pair,
    StateExpr,
    combine,
    is_prime,
    prime_factors,
    similar,
    singleton,
    subsets_of,
)

MAX_INFO_EXPONENT = 10
#: Axiom 7 searches copy counts n = 2^k up to this k.  The quantum arrow
#: raises dimensions to the n-th power, and on the harness's dimensions
#: (1 to 8 per atom) this bound keeps that power below about 2 Mbit.
STABILITY_MAX_EXPONENT = 16
THEOREM_3_MAX_SIZE = 64

#: Outcome of one case: None for a pass, (inputs, observed) for a violation.
CheckOutcome = Optional[Tuple[str, str]]
CheckFunction = Callable[[ModelOracle, "SuiteConfig", random.Random], CheckOutcome]


class InconclusiveCase(Exception):
    """A case the suite cannot decide within its resource bounds."""


@dataclass(frozen=True)
class SuiteConfig:
    """Bounds and seed for one suite run."""

    cases_per_check: int = 500
    max_eidostate_size: int = 6
    max_state_depth: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("cases_per_check", "max_eidostate_size", "max_state_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CounterexampleRecord:
    """A reproducible violation: replaying the seed regenerates it."""

    check_id: str
    seed: int
    inputs: str
    observed: str


@dataclass
class CheckResult:
    check_id: str
    cases: int = 0
    counterexamples: List[CounterexampleRecord] = field(default_factory=list)
    inconclusive: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class SuiteReport:
    results: Tuple[CheckResult, ...]

    @property
    def counterexamples(self) -> List[CounterexampleRecord]:
        return [r for result in self.results for r in result.counterexamples]


def _case_seed(master: int, check_id: str, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{check_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_checks(
    oracle: ModelOracle,
    config: SuiteConfig,
    checks: Sequence[Tuple[str, CheckFunction]],
) -> SuiteReport:
    results = []
    for check_id, fn in checks:
        result = CheckResult(check_id=check_id)
        for index in range(config.cases_per_check):
            seed = _case_seed(config.seed, check_id, index)
            rng = random.Random(seed)
            result.cases += 1
            try:
                outcome = fn(oracle, config, rng)
            except InconclusiveCase as exc:
                result.inconclusive.append((seed, str(exc)))
            except PrecisionExhausted as exc:
                result.inconclusive.append((seed, f"precision exhausted: {exc}"))
            else:
                if outcome is not None:
                    inputs, observed = outcome
                    result.counterexamples.append(
                        CounterexampleRecord(check_id, seed, inputs, observed)
                    )
        results.append(result)
    return SuiteReport(results=tuple(results))


# -- shared generators ------------------------------------------------


def _uniform_state(oracle, config, rng, min_size=1) -> Eidostate:
    for _ in range(8):
        e = oracle.random_uniform_eidostate(
            rng, config.max_eidostate_size, config.max_state_depth
        )
        if len(e.members) >= min_size:
            return e
    raise InconclusiveCase(f"no uniform eidostate with {min_size}+ members drawn")


def _singleton_pair(oracle, config, rng) -> Tuple[StateExpr, StateExpr]:
    """Half the draws come from one uniform eidostate so arrows are live."""
    if rng.random() < 0.5:
        e = oracle.random_uniform_eidostate(
            rng, config.max_eidostate_size, config.max_state_depth
        )
        if len(e.members) >= 2:
            a, b = rng.sample(e.members, 2)
            return a, b
    return (
        oracle.random_state(rng, config.max_state_depth),
        oracle.random_state(rng, config.max_state_depth),
    )


def _eidostate_pair(oracle, config, rng) -> Tuple[Eidostate, Eidostate]:
    """Pairs biased toward shared membership so arrows are live."""
    if rng.random() < 0.6:
        e = oracle.random_uniform_eidostate(
            rng, config.max_eidostate_size, config.max_state_depth
        )
        members = e.members
        if len(members) >= 2:
            first = rng.sample(members, rng.randint(1, len(members)))
            second = rng.sample(members, rng.randint(1, len(members)))
            return Eidostate(first), Eidostate(second)
    return (
        oracle.random_eidostate(rng, config.max_eidostate_size, config.max_state_depth),
        oracle.random_eidostate(rng, config.max_eidostate_size, config.max_state_depth),
    )


def _info_state(oracle, rng) -> Eidostate:
    return oracle.make_information_state(2 ** rng.randint(0, MAX_INFO_EXPONENT))


def _components_total(oracle, parts: Sequence[StateExpr]) -> tuple:
    total = None
    for part in parts:
        comp = oracle.components(part)
        total = comp if total is None else tuple(x + y for x, y in zip(total, comp))
    return total


# -- axiom checks -----------------------------------------------------


def _check_axiom_1(oracle, config, rng) -> CheckOutcome:
    """Closure of the eidostate collection under products, factorization,
    and nonempty subsets."""
    e = oracle.random_eidostate(rng, config.max_eidostate_size, config.max_state_depth)
    factors = prime_factors(e)
    for factor in factors:
        if not is_prime(factor):
            return (f"E={e!r}", f"factor {factor!r} of the factorization is not prime")
    rebuilt = expand_factored(tuple(factors.items()))
    if not similar(rebuilt, e):
        return (f"E={e!r}", "product of prime factors is not similar to E")

    small = oracle.random_eidostate(rng, 3, config.max_state_depth)
    product = combine(e, small)
    if len(product.members) != len(e.members) * len(small.members):
        return (f"A={e!r}, B={small!r}", "product does not have |A||B| members")
    probe = rng.choice(product.members)
    if probe.left not in e.as_set() or probe.right not in small.as_set():
        return (f"A={e!r}, B={small!r}", "product member is not a pair of members")

    subsets = tuple(subsets_of(e))
    if len(subsets) != 2 ** len(e.members) - 1:
        return (f"E={e!r}", "subset enumeration has the wrong cardinality")
    sub = rng.choice(subsets)
    if not sub.as_set() <= e.as_set():
        return (f"E={e!r}", f"subset {sub!r} is not contained in E")
    return None


def _check_axiom_2(oracle, config, rng) -> CheckOutcome:
    """Similarity implies the arrow; transitivity; padding; cancellation
    of a shared singleton."""
    x = oracle.random_eidostate(rng, 2, 2)
    y = oracle.random_eidostate(rng, 2, 2)
    z = oracle.random_eidostate(rng, 2, 2)
    left = combine(combine(x, y), z)
    right = combine(x, combine(y, z))
    if not similar(left, right):
        return (f"X={x!r}, Y={y!r}, Z={z!r}", "reassociated products are not similar")
    if not (oracle.arrow(left, right) and oracle.arrow(right, left)):
        return (f"A={left!r}, B={right!r}", "similar eidostates lack the arrow")
    swapped = combine(y, x)
    base = combine(x, y)
    if not oracle.arrow(base, swapped):
        return (f"A={base!r}, B={swapped!r}", "similar eidostates lack the arrow")

    e = _uniform_state(oracle, config, rng)
    member = singleton(rng.choice(e.members))
    # Checks below materialize products, so only small information
    # states join the pool.
    small_info = oracle.make_information_state(2 ** rng.randint(0, 3))
    pool = [x, y, base, e, member, combine(e, small_info)]
    a, b, c = (rng.choice(pool) for _ in range(3))
    if oracle.arrow(a, b) and oracle.arrow(b, c) and not oracle.arrow(a, c):
        return (f"A={a!r}, B={b!r}, C={c!r}", "arrow is not transitive on this triple")

    if oracle.arrow(a, b):
        pad = rng.choice([x, y, member])
        if not oracle.arrow(combine(a, pad), combine(b, pad)):
            return (
                f"A={a!r}, B={b!r}, C={pad!r}",
                "arrow is not preserved by combining with C",
            )

    s = oracle.random_state(rng, config.max_state_depth)
    padded_a = combine(a, singleton(s))
    padded_b = combine(b, singleton(s))
    if oracle.arrow(padded_a, padded_b) and not oracle.arrow(a, b):
        return (f"A={a!r}, B={b!r}, s={s!r}", "shared singleton does not cancel")
    return None


def _check_axiom_3(oracle, config, rng) -> CheckOutcome:
    """No arrow from an eidostate to a proper subset of itself."""
    e = oracle.random_eidostate(rng, config.max_eidostate_size, config.max_state_depth)
    if len(e.members) < 2:
        return None
    size = rng.randint(1, len(e.members) - 1)
    sub = Eidostate(rng.sample(e.members, size))
    if oracle.arrow(e, sub):
        return (f"A={e!r}, B={sub!r}", "arrow holds into a proper subset")
    return None


def _check_axiom_4(oracle, config, rng) -> CheckOutcome:
    """Conditional processes: subsets inherit arrows into singletons, and
    arrows combine across disjoint unions of uniform eidostates."""
    e = _uniform_state(oracle, config, rng)
    equivalence = oracle.state_equivalence(e)
    a = combine(e, singleton(equivalence.x))
    b = singleton(Pair(equivalence.e, equivalence.y))
    if oracle.arrow(a, b):
        size = rng.randint(1, len(a.members))
        sub = Eidostate(rng.sample(a.members, size))
        if not oracle.arrow(sub, b):
            return (
                f"A={a!r}, A'={sub!r}, b={b!r}",
                "subset lost the arrow into the singleton",
            )

    e = _uniform_state(oracle, config, rng, min_size=2)
    members = list(e.members)
    rng.shuffle(members)
    cut = rng.randint(1, len(members) - 1)
    part_one, part_two = members[:cut], members[cut:]

    def _sub(pool):
        return Eidostate(rng.sample(pool, rng.randint(1, len(pool))))

    a1, b1 = _sub(part_one), _sub(part_one)
    a2, b2 = _sub(part_two), _sub(part_two)
    if oracle.arrow(a1, b1) and oracle.arrow(a2, b2):
        union_a = Eidostate(a1.members + a2.members)
        union_b = Eidostate(b1.members + b2.members)
        if not oracle.arrow(union_a, union_b):
            return (
                f"A1={a1!r}, A2={a2!r}, B1={b1!r}, B2={b2!r}",
                "disjoint-union composition of arrows failed",
            )
    return None


def _check_axiom_5(oracle, config, rng) -> CheckOutcome:
    """Constructive: a bit state of two genuine record states exists and
    the bit process is possible."""
    bit = oracle.make_bit_state()
    if len(bit.members) != 2:
        return (f"I_b={bit!r}", "bit state does not have exactly two members")
    witness = oracle.random_state(rng, config.max_state_depth)
    sw = singleton(witness)
    for member in bit:
        if not oracle.is_record(member):
            return (f"I_b={bit!r}", f"member {member!r} is not a record state")
        padded = combine(sw, singleton(member))
        if not (oracle.arrow(sw, padded) and oracle.arrow(padded, sw)):
            return (
                f"I_b={bit!r}, a={witness!r}",
                f"member {member!r} fails the record property a <-> a+r",
            )
    record = singleton(bit.members[0])
    if not (oracle.arrow(record, bit) or oracle.arrow(bit, record)):
        return (f"I_b={bit!r}", "the bit process is not possible")
    return None


def _check_axiom_6(oracle, config, rng) -> CheckOutcome:
    """Demons: if a -> b + J then some information state reverses the
    trade, and every information state lands on one side or the other."""
    a, b = _singleton_pair(oracle, config, rng)
    sa, sb = singleton(a), singleton(b)
    j = _info_state(oracle, rng)
    if not oracle.arrow_combined(((sa, 1),), ((sb, 1), (j, 1))):
        return None

    if oracle.information_blocked(sb, sa):
        return (
            f"a={a!r}, b={b!r}, |J|={len(j)}",
            "model declares b -> a + I blocked although a -> b + J holds",
        )
    for k in range(MAX_INFO_EXPONENT + 1):
        i = oracle.make_information_state(2 ** k)
        if oracle.arrow_combined(((sb, 1),), ((sa, 1), (i, 1))):
            break
    else:
        raise InconclusiveCase(
            "bounded search found no reversing information state "
            f"(sizes up to 2^{MAX_INFO_EXPONENT})"
        )

    probe = _info_state(oracle, rng)
    forward = oracle.arrow_combined(((sa, 1),), ((sb, 1), (probe, 1)))
    backward = oracle.arrow_combined(((sb, 1), (probe, 1)), ((sa, 1),))
    if not (forward or backward):
        return (
            f"a={a!r}, b={b!r}, |I|={len(probe)}",
            "information state falls on neither side of the trade",
        )
    return None


def _check_axiom_7(oracle, config, rng) -> CheckOutcome:
    """Stability: if n·A -> n·B + J holds for every n, then A -> B.

    A direct arrow passes the case.  Otherwise the first searched
    n = 2^k at which the antecedent fails is a witness that it does not
    hold for every n, and the case passes too.
    """
    a, b = _eidostate_pair(oracle, config, rng)
    j = _info_state(oracle, rng)
    if oracle.arrow(a, b):
        return None
    for k in range(STABILITY_MAX_EXPONENT + 1):
        n = 2 ** k
        if not oracle.arrow_combined(((a, n),), ((b, n), (j, 1))):
            return None
    raise InconclusiveCase(
        "stability search: n·A -> n·B + J held for every n = 2^k up to "
        f"2^{STABILITY_MAX_EXPONENT} but A -> B fails; the clause quantifies "
        "over unbounded n, so this is not a disproof"
    )


def _check_axiom_8(oracle, config, rng) -> CheckOutcome:
    """Mechanical states: closed under combination, arrows symmetric."""
    family = oracle.mechanical_family()
    if not family:
        return None
    l = rng.choice(family)
    m = rng.choice(family)
    if not oracle.is_mechanical(Pair(l, m)):
        return (f"l={l!r}, m={m!r}", "combination of mechanical states left the set")
    sl, sm = singleton(l), singleton(m)
    if oracle.arrow(sl, sm) and not oracle.arrow(sm, sl):
        return (f"l={l!r}, m={m!r}", "arrow between mechanical states is one-way")
    return None


def _check_axiom_9(oracle, config, rng) -> CheckOutcome:
    """State equivalence: witnesses satisfy x -> y and E + x <-> e + y."""
    e = _uniform_state(oracle, config, rng)
    eq = oracle.state_equivalence(e)
    sx, sy = singleton(eq.x), singleton(eq.y)
    if not oracle.arrow(sx, sy):
        return (f"E={e!r}, x={eq.x!r}, y={eq.y!r}", "witnesses fail x -> y")
    lhs = combine(e, sx)
    rhs = combine(singleton(eq.e), sy)
    if not (oracle.arrow(lhs, rhs) and oracle.arrow(rhs, lhs)):
        return (
            f"E={e!r}, e={eq.e!r}, x={eq.x!r}, y={eq.y!r}",
            "witnesses fail E + x <-> e + y",
        )
    return None


# -- theorem checks ---------------------------------------------------


def _check_theorem_3(oracle, config, rng) -> CheckOutcome:
    """Arrows between information states follow their cardinalities."""
    n_i = rng.randint(1, THEOREM_3_MAX_SIZE)
    n_j = rng.randint(1, THEOREM_3_MAX_SIZE)
    i = oracle.make_information_state(n_i)
    j = oracle.make_information_state(n_j)
    got = oracle.arrow(i, j)
    if got != (n_i <= n_j):
        return (
            f"|I|={n_i}, |J|={n_j}",
            f"arrow(I, J) is {got}, cardinality comparison says {n_i <= n_j}",
        )
    return None


def _check_theorem_5(oracle, config, rng) -> CheckOutcome:
    """Possibility of singleton processes is transitive through a shared
    endpoint."""
    e = _uniform_state(oracle, config, rng, min_size=2)
    a, b = rng.sample(e.members, 2)
    if len(e.members) >= 3 and rng.random() < 0.6:
        c = rng.choice([m for m in e.members if m not in (a, b)])
    else:
        c = oracle.random_state(rng, config.max_state_depth)
    sa, sb, sc = singleton(a), singleton(b), singleton(c)
    if oracle.possible(sa, sb) and oracle.possible(sa, sc):
        if not oracle.possible(sb, sc):
            return (f"a={a!r}, b={b!r}, c={c!r}", "comparison fails through a")
    return None


def _check_theorem_9(oracle, config, rng) -> CheckOutcome:
    """Entropy and content characterize the singleton arrow: both are
    additive, the arrow is exactly (entropy <=, content =), mechanical
    states carry zero entropy."""
    a, b = _singleton_pair(oracle, config, rng)
    ea, eb = oracle.state_entropy(a), oracle.state_entropy(b)
    if oracle.state_entropy(Pair(a, b)) != ea + eb:
        return (f"a={a!r}, b={b!r}", "entropy is not additive over the pair")
    if oracle.components(Pair(a, b)) != _components_total(oracle, (a, b)):
        return (f"a={a!r}, b={b!r}", "content is not additive over the pair")

    got = oracle.arrow(singleton(a), singleton(b))
    expected = (
        compare_entropy(ea, eb) is not Comparison.GREATER
        and oracle.components(a) == oracle.components(b)
    )
    if got != expected:
        return (
            f"a={a!r}, b={b!r}",
            f"arrow is {got} but the entropy/content characterization says "
            f"{expected}",
        )

    family = oracle.mechanical_family()
    if family:
        m = rng.choice(family)
        if compare_entropy(oracle.state_entropy(m), ZERO) is not Comparison.EQUAL:
            return (f"m={m!r}", "mechanical state has nonzero entropy")
    return None


def _check_theorem_15(oracle, config, rng) -> CheckOutcome:
    """Entropy of a disjoint union of uniform parts aggregates their
    entropies exactly (log-sum of powers, zero tolerance)."""
    e = _uniform_state(oracle, config, rng, min_size=2)
    members = list(e.members)
    rng.shuffle(members)
    cut = rng.randint(1, len(members) - 1)
    part_one = Eidostate(members[:cut])
    part_two = Eidostate(members[cut:])
    whole = entropy_uniform(e, oracle)
    merged = ExactEntropy.log2_sum_of_powers(
        [entropy_uniform(part_one, oracle), entropy_uniform(part_two, oracle)]
    )
    if whole != merged:
        return (
            f"E={e!r}, E1={part_one!r}, E2={part_two!r}",
            "union entropy differs from the aggregated part entropies",
        )
    return None


def _check_theorem_17(oracle, config, rng) -> CheckOutcome:
    """Entropy splits into mean state entropy plus Shannon information:
    the residual is exactly 0, as its certified interval contains 0."""
    e = _uniform_state(oracle, config, rng)
    report = shannon_decomposition(e, oracle)
    if report.residual.exact == 0:
        return None
    residual = decimal_of(report.residual, 8)
    return (f"E={e!r}", f"decomposition residual {residual} is certified nonzero")


def _check_cancellation(oracle, config, rng) -> CheckOutcome:
    """An information state appearing on both sides of an arrow cancels."""
    a, b = _eidostate_pair(oracle, config, rng)
    i = _info_state(oracle, rng)
    if oracle.arrow_combined(((a, 1), (i, 1)), ((b, 1), (i, 1))):
        if not oracle.arrow(a, b):
            return (
                f"A={a!r}, B={b!r}, |I|={len(i)}",
                "A + I -> B + I holds but A -> B fails",
            )
    return None


AXIOM_CHECKS: Tuple[Tuple[str, CheckFunction], ...] = (
    ("Axiom 1", _check_axiom_1),
    ("Axiom 2", _check_axiom_2),
    ("Axiom 3", _check_axiom_3),
    ("Axiom 4", _check_axiom_4),
    ("Axiom 5", _check_axiom_5),
    ("Axiom 6", _check_axiom_6),
    ("Axiom 7", _check_axiom_7),
    ("Axiom 8", _check_axiom_8),
    ("Axiom 9", _check_axiom_9),
)

THEOREM_CHECKS: Tuple[Tuple[str, CheckFunction], ...] = (
    ("Theorem 3", _check_theorem_3),
    ("Theorem 5", _check_theorem_5),
    ("Theorem 9", _check_theorem_9),
    ("Theorem 15", _check_theorem_15),
    ("Theorem 17", _check_theorem_17),
    ("Cancellation", _check_cancellation),
)


def run_axiom_report(oracle: ModelOracle, config: SuiteConfig) -> SuiteReport:
    return _run_checks(oracle, config, AXIOM_CHECKS)


def run_theorem_report(oracle: ModelOracle, config: SuiteConfig) -> SuiteReport:
    return _run_checks(oracle, config, THEOREM_CHECKS)


# -- deliberately broken oracles for sensitivity testing ---------------


class MutantDropContentCriterion(MacroModel):
    """Deliberate fault: the arrow ignores content conservation.

    Entropy comparison alone decides the uniform part, so transfers
    between states of different content are wrongly allowed.
    """

    name = "macro-mutant-no-content"

    def _q_criterion(self, qa, qb) -> bool:
        return True


class MutantFlippedEntropyOrder(MacroModel):
    """Deliberate fault: the entropy clause of the arrow runs backwards.

    Transfers are allowed only when entropy does not increase.
    """

    name = "macro-mutant-flipped-entropy"

    def _s_criterion(self, sa, sb) -> bool:
        if sa is not None and sb is not None:
            return compare_entropy(as_exact(sa), as_exact(sb)) is not Comparison.LESS
        return super()._s_criterion(sa, sb)


class MutantDropNonUniformCriterion(MacroModel):
    """Deliberate fault: the arrow ignores the non-uniform parts.

    Only the uniform parts are compared, so an eidostate may turn into
    one with different non-uniform factors, such as a proper subset of
    itself.
    """

    name = "macro-mutant-no-nonuniform"

    def _n_criterion(self, n_a, n_b) -> bool:
        return True


class MutantWeightedRecords(MacroModel):
    """Deliberate fault: record states silently carry entropy.

    Erasing such a "record" is no longer free, so the record property
    a <-> a + r breaks in the backward direction.
    """

    name = "macro-mutant-weighted-records"

    def make_record(self):
        self.registry.register(AtomDef("r_w", 0, Fraction(1, 64)))
        return Atom("r_w")
