"""Model-generic computations over any model oracle.

Everything here is phrased purely in terms of the oracle contract:
process classification, uniform entropy, entropic probabilities and the
entropy decomposition, the Gibbs gap, the Dedekind-cut irreversibility
estimator, demon planning (minimum information to enable a
transformation) and the Landauer check.

Probabilities and the decomposition read the weights 2^S(m) from the
exact integer enclosures and are evaluated in the interval arithmetic of
exact.Interval.  A probability is decided exactly when it is rational,
that is when the powers it divides are proportional; any other library
number is read at the first rung as the exact midpoint of its certified
interval, or exactly 0 when the interval contains 0, and the residual of
S(E) = <S> + H is certified.  For exact.decimal_of the same intervals
are evaluated at any rung, and the Landauer margin is a difference of
entropies.  The Gibbs gap is the midpoint of its interval at the first
rung.  The Landauer verdict is an exact comparison.

The irreversibility estimator deliberately uses only the arrow relation;
entropy differences appear in these functions only as search bounds or
as independent cross-checks in the tests.  Its bracket is the best
rational approximation of the cut from below and from above with
denominator at most q_max.  Those two fractions are Stern-Brocot
neighbours, and a descent that gallops along each continued-fraction
term finds them with O(log q_max) arrows; an arrow certifies each end.
The search floor for the integer part comes from the exact floors of
the two entropies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, Iterable, Mapping, Optional

from .exact import (
    FIRST_BITS,
    Comparison,
    ExactEntropy,
    Interval,
    compare_entropy,
    decimal_of,
    difference,
    point,
    power_ratio,
)
from .oracle import InformationState, ModelOracle
from .states import (
    Eidostate,
    Process,
    ProcessType,
    StateExpr,
    singleton,
)

class NotUniformError(ValueError):
    """An operation requiring a uniform eidostate received a non-uniform one."""


class ImpossibleProcessError(ValueError):
    """An operation requiring a possible process received an impossible one."""


def classify(process: Process, oracle: ModelOracle) -> ProcessType:
    """One of the four mutually exclusive process types."""
    forward = oracle.arrow(process.initial, process.final)
    backward = oracle.arrow(process.final, process.initial)
    if forward and backward:
        return ProcessType.REVERSIBLE
    if forward:
        return ProcessType.NATURAL_IRREVERSIBLE
    if backward:
        return ProcessType.ANTINATURAL_IRREVERSIBLE
    return ProcessType.IMPOSSIBLE


def entropy_uniform(e: Eidostate, oracle: ModelOracle) -> ExactEntropy:
    """Entropy of a uniform eidostate aggregated from member entropies."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    return ExactEntropy.log2_sum_of_powers(oracle.state_entropy(m) for m in e)


# -- probabilities ----------------------------------------------------


def entropic_probability(a: StateExpr, e: Eidostate, oracle: ModelOracle) -> Fraction:
    """P(a | e) = 2^(S(a) - S(e)) for members, 0 otherwise."""
    return conditional_probability((a,), e.members, e, oracle)


def probability_enclosure(
    b: Iterable[StateExpr],
    a: Iterable[StateExpr],
    e: Eidostate,
    oracle: ModelOracle,
):
    """P(b | a within e): the Fraction itself when it is rational, else a
    function from a working precision in bits to an Interval containing
    it.  Both weights are exact sums, so neither depends on set order."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    set_a, set_b = set(a), set(b)
    given = [m for m in e.members if m in set_a]
    if not given:
        raise ValueError("conditioning set does not meet the eidostate")
    hits = [m for m in given if m in set_b]
    if not hits:
        return Fraction(0)
    numer = ExactEntropy.log2_sum_of_powers(oracle.state_entropy(m) for m in hits)
    denom = ExactEntropy.log2_sum_of_powers(oracle.state_entropy(m) for m in given)
    ratio = power_ratio(numer, denom)
    if ratio is not None:
        return ratio
    return lambda bits: numer.power_interval(bits) / denom.power_interval(bits)


def conditional_probability(
    b: Iterable[StateExpr],
    a: Iterable[StateExpr],
    e: Eidostate,
    oracle: ModelOracle,
) -> Fraction:
    """P(b | a within e), with empty sets carrying probability zero."""
    p = probability_enclosure(b, a, e, oracle)
    return point(p(FIRST_BITS) if callable(p) else p)


@dataclass(frozen=True)
class ProbabilityReport:
    """Entropic probabilities of a uniform eidostate and the split of its
    entropy into mean member entropy plus Shannon information.

    Each number is a Fraction: a rational probability itself, anything
    else read from its certified interval at the first rung by
    ``exact.point``.  ``residual_interval`` encloses S(E) - (<S> + H).
    ``enclosure`` gives the intervals at any rung for ``exact.decimal_of``:
    the probabilities in member order (the rational ones exact), <S>, H,
    S(E) and the residual, exactly 0 when its interval contains 0, as
    the identity is exact.
    """

    support: Dict[StateExpr, Fraction]
    entropy_total: Fraction
    mean_state_entropy: Fraction
    shannon_term: Fraction
    residual_interval: Interval
    enclosure: Callable[[int], tuple] = field(repr=False, compare=False)

    def residual(self) -> Fraction:
        """|S(E) - (<S> + H)|: exactly 0 when its interval contains 0."""
        return abs(point(self.residual_interval))


def shannon_decomposition(e: Eidostate, oracle: ModelOracle) -> ProbabilityReport:
    """Probabilities plus the identity S(E) = <S> + H in interval
    arithmetic, evaluated once per rung and read at the first."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    members = e.members
    entropies = [oracle.state_entropy(m) for m in members]
    entropy = ExactEntropy.log2_sum_of_powers(entropies)
    rational = [power_ratio(s, entropy) for s in entropies]

    @cache
    def intervals(bits: int) -> tuple:
        total_weight = entropy.power_interval(bits)
        probabilities = [s.power_interval(bits) / total_weight for s in entropies]
        mean = shannon = 0
        for s, p in zip(entropies, probabilities):
            mean += p * s.interval(bits)
            shannon -= p * p.log2()
        if len(members) == 1:
            shannon = 0  # p = 1 exactly, which w / w does not certify
        total = total_weight.log2()
        probabilities = [p if x is None else x for x, p in zip(rational, probabilities)]
        return (*probabilities, mean, shannon, total, total - (mean + shannon))

    def enclosure(bits: int) -> tuple:
        *numbers, residual = intervals(bits)
        return (*numbers, 0 if 0 in residual else residual)

    *probabilities, mean, shannon, total, residual = intervals(FIRST_BITS)
    return ProbabilityReport(
        support={m: point(p) for m, p in zip(members, probabilities)},
        entropy_total=point(total),
        mean_state_entropy=point(mean),
        shannon_term=point(shannon),
        residual_interval=residual,
        enclosure=enclosure,
    )


def gibbs_gap(
    e: Eidostate,
    distribution: Mapping[StateExpr, object],
    oracle: ModelOracle,
) -> Fraction:
    """S(E) minus the decomposition value under an arbitrary distribution,
    read at the first rung from its certified interval.

    Nonnegative always; zero exactly at the entropic distribution.  The
    weights are taken as exact rationals (ints, Fractions or floats).
    """
    entropy = entropy_uniform(e, oracle)
    members = set(e.members)
    if not set(distribution) <= members:
        raise ValueError("distribution assigns weight outside the eidostate")
    probs = {m: Fraction(distribution.get(m, 0)) for m in e}
    if any(p < Fraction(-1, 10**12) for p in probs.values()):
        raise ValueError("distribution has a negative weight")
    if abs(sum(probs.values()) - 1) > Fraction(1, 10**9):
        raise ValueError("distribution does not sum to one")
    gap = entropy.interval(FIRST_BITS)
    for m, p in probs.items():
        if p > 0:
            mean = p * oracle.state_entropy(m).interval(FIRST_BITS)
            gap -= mean - p * Interval.of(p, FIRST_BITS).log2()
    return point(gap)


# -- irreversibility --------------------------------------------------


@dataclass(frozen=True)
class IrreversibilityEstimate:
    """A bracket on the irreversibility of a singleton process, built by
    comparing many copies of the process against bit processes."""

    lower: Fraction
    upper: Fraction
    q_max: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bracket is inverted")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def _search_sides(sa, sb, bit, record, q, p) -> tuple:
    """The two factored eidostates of q copies of <a,b> alongside p bit
    processes: a's side and b's side."""
    if p >= 0:
        return ((sa, q), (bit, p)), ((sb, q), (record, p))
    return ((sa, q), (record, -p)), ((sb, q), (bit, -p))


def _gallop(holds, limit: int) -> int:
    """Largest k in [0, limit] with holds(k), for a predicate that holds up
    to a threshold and fails beyond it.

    holds(0) is taken to be true and is not evaluated.  The search probes
    k = 1, 2, 4, ... until one fails or the next would pass the limit,
    then bisects; an answer of 0 or 1 costs at most two probes.
    """
    yes, no = 0, limit + 1
    k = 1
    while k < no:
        if not holds(k):
            no = k
            break
        yes = k
        k *= 2
    while no - yes > 1:
        mid = (yes + no) // 2
        if holds(mid):
            yes = mid
        else:
            no = mid
    return yes


def irreversibility_estimate(
    a: StateExpr, b: StateExpr, q_max: int, oracle: ModelOracle
) -> IrreversibilityEstimate:
    """Tightest bracket on the irreversibility x found with up to q_max copies.

    The ends are the best approximations of x from below and above with
    denominator at most q_max: the largest p/q such that q copies of the
    process drive p bit processes, and the smallest p/q such that p bit
    processes drive q copies back.  A Stern-Brocot descent keeps
    neighbours L < R, the forward relation holding at L and failing at
    R; while den(L) + den(R) <= q_max it gallops the end that their
    mediant replaces toward the other.  A backward arrow at each new L
    asks whether x = L, which gives [L, L]; otherwise one at R certifies
    the upper end of [L, R].

    The descent assumes that the relations depend on p/q alone: q copies
    drive p bit processes exactly when kq copies drive kp.  Cancellation
    gives that homogeneity in every model of the axioms; an oracle that
    breaks it can get a wrong bracket.
    """
    if q_max < 1:
        raise ValueError("q_max must be positive")
    sa, sb = singleton(a), singleton(b)
    if not oracle.possible(sa, sb):
        raise ImpossibleProcessError(f"process {a} -> {b} is impossible")
    # The bit and the record enter every arrow by their size, which the
    # oracle decides as it would the states make_information_state
    # builds, so the search materializes neither.
    bit, record = InformationState(2), InformationState(1)

    def forward(q: int, p: int) -> bool:
        """q copies of <a,b> drive p bit processes."""
        x, y = _search_sides(sa, sb, bit, record, q, p)
        return oracle.arrow_combined(x, y)

    def backward(q: int, p: int) -> bool:
        """p bit processes drive q copies of <a,b> in reverse."""
        x, y = _search_sides(sa, sb, bit, record, q, p)
        return oracle.arrow_combined(y, x)

    # The integer part, by galloping from p = 0 with one copy.  Each |S|
    # is below |floor(S)| + 1, so for a bit process of one unit the cut
    # lies strictly between -bound and +bound: the forward relation must
    # hold at -bound (the search floor, probed if the gallop reaches it)
    # and is taken to fail at +bound.
    bound = sum(abs(oracle.state_entropy(x).floor()) + 1 for x in (a, b))
    if forward(1, 0):
        n = _gallop(lambda j: forward(1, j), bound - 1)
    else:
        k = _gallop(lambda j: not forward(1, -j), bound)
        if k == bound:
            raise ImpossibleProcessError(
                "forward relation failed at the search floor for q=1"
            )
        n = -1 - k
    # L = lp/lq and R = rp/rq are Stern-Brocot neighbours: lq*rp - lp*rq = 1.
    lp, lq, rp, rq = n, 1, n + 1, 1
    exact = backward(lq, lp)
    left = None
    while not exact and lq + rq <= q_max:
        p, q = lp + rp, lq + rq
        if left is None:
            left = forward(q, p)
        if left:
            k = _gallop(lambda j: forward(q + j * rq, p + j * rp), (q_max - q) // rq)
            lp, lq = p + k * rp, q + k * rq
            exact = backward(lq, lp)
        else:
            k = _gallop(lambda j: not forward(q + j * lq, p + j * lp), (q_max - q) // lq)
            rp, rq = p + k * lp, q + k * lq
        # A gallop that stops short of its limit has probed the next
        # mediant, one step past its end, and seen the relation turn;
        # one that reaches its limit ends the descent.
        left = not left
    lower = Fraction(lp, lq)
    if exact:
        return IrreversibilityEstimate(lower, lower, q_max)
    if not backward(rq, rp):
        raise ImpossibleProcessError(
            f"backward relation failed at the search ceiling for q={rq}"
        )
    return IrreversibilityEstimate(lower, Fraction(rp, rq), q_max)


# -- demon planning ---------------------------------------------------


class MinInfoStatus(enum.Enum):
    FOUND = "found"
    BLOCKED = "blocked"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class MinInfoResult:
    status: MinInfoStatus
    n: Optional[int] = None


def min_information_to_transform(
    a: Eidostate, b: Eidostate, n_max: int, oracle: ModelOracle
) -> MinInfoResult:
    """Smallest information-state size enabling a -> b + J, if any.

    Distinguishes a genuinely blocked transformation (no information
    state can ever help) from exhausting the search bound.  J enters
    each arrow by its size alone, so the binary search costs
    O(log n_max) arrows of constant size.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if oracle.information_blocked(a, b):
        return MinInfoResult(MinInfoStatus.BLOCKED)

    def helped(n: int) -> bool:
        return oracle.arrow_combined(((a, 1),), ((b, 1), (InformationState(n), 1)))

    if not helped(n_max):
        return MinInfoResult(MinInfoStatus.EXHAUSTED)
    lo, hi = 1, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if helped(mid):
            hi = mid
        else:
            lo = mid + 1
    return MinInfoResult(MinInfoStatus.FOUND, lo)


def demonically_possible(
    a: StateExpr, b: StateExpr, n_max: int, oracle: ModelOracle
) -> bool:
    """A transformation an information-gathering agent could realize,
    in either direction."""
    sa, sb = singleton(a), singleton(b)
    forward = min_information_to_transform(sa, sb, n_max, oracle)
    if forward.status is MinInfoStatus.FOUND:
        return True
    backward = min_information_to_transform(sb, sa, n_max, oracle)
    return backward.status is MinInfoStatus.FOUND


# -- the erasure bound ------------------------------------------------


@dataclass(frozen=True)
class LandauerVerdict:
    """Outcome of the erasure-bound check on a singleton pair."""

    applicable: bool
    satisfied: Optional[bool]
    margin_exact: Optional[Fraction]
    margin_decimal: Optional[str]


def landauer_check(a: StateExpr, b: StateExpr, oracle: ModelOracle) -> LandauerVerdict:
    """If a plus a bit state reaches b, the entropy of b must exceed that
    of a by at least one unit; reports the margin."""
    sa, sb = singleton(a), singleton(b)
    erases = oracle.arrow_combined(((sa, 1), (InformationState(2), 1)), ((sb, 1),))
    if not erases:
        return LandauerVerdict(False, None, None, None)
    ea = oracle.state_entropy(a)
    eb = oracle.state_entropy(b)
    bound = ea + 1
    satisfied = compare_entropy(eb, bound) is not Comparison.LESS
    margin = difference(eb, bound)  # exactly 0 when the comparison says EQUAL
    margin_exact = margin if ea.is_rational and eb.is_rational else None
    return LandauerVerdict(True, satisfied, margin_exact, decimal_of(margin))
