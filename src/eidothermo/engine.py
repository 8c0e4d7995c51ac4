"""Model-generic computations over any model oracle.

Everything here is phrased purely in terms of the oracle contract:
process classification, uniform entropy, entropic probabilities and the
entropy decomposition, the Gibbs gap, the Dedekind-cut irreversibility
estimator, demon planning (minimum information to enable a
transformation) and the Landauer check.

Probabilities, the decomposition, the Gibbs gap and the Landauer margin
are exact.Real numbers: the Fraction itself when the number is known to
be rational, otherwise an enclosure evaluated in the interval arithmetic
of exact.Interval, at any rung of the precision ladder.  A probability
is rational exactly when the powers it divides are proportional.  The
residual of S(E) = <S> + H is exactly 0 when its interval at the first
rung contains 0, as the identity is exact; the Gibbs gap is exactly 0
when every weight is its member's rational probability.  The Landauer
verdict is an exact comparison.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, Mapping, Optional

from .exact import (
    FIRST_BITS,
    Comparison,
    ExactEntropy,
    Interval,
    Real,
    compare_entropy,
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


def entropic_probability(a: StateExpr, e: Eidostate, oracle: ModelOracle) -> Real:
    """P(a | e) = 2^(S(a) - S(e)) for members, 0 otherwise."""
    return conditional_probability((a,), e.members, e, oracle)


def conditional_probability(
    b: Iterable[StateExpr],
    a: Iterable[StateExpr],
    e: Eidostate,
    oracle: ModelOracle,
) -> Real:
    """P(b | a within e), with empty sets carrying probability zero:
    exact when it is rational, else the ratio of the two weights'
    enclosures.  Both weights are exact sums, so neither depends on set
    order."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    set_a, set_b = set(a), set(b)
    given = [m for m in e.members if m in set_a]
    if not given:
        raise ValueError("conditioning set does not meet the eidostate")
    hits = [m for m in given if m in set_b]
    if not hits:
        return Real(0)
    numer = ExactEntropy.log2_sum_of_powers(oracle.state_entropy(m) for m in hits)
    denom = ExactEntropy.log2_sum_of_powers(oracle.state_entropy(m) for m in given)
    ratio = power_ratio(numer, denom)
    if ratio is not None:
        return Real(ratio)
    return Real(lambda bits: numer.power_interval(bits) / denom.power_interval(bits))


@dataclass(frozen=True)
class ProbabilityReport:
    """Entropic probabilities of a uniform eidostate and the split of its
    entropy into mean member entropy plus Shannon information.

    Each number is a Real: a rational probability or entropy exactly,
    anything else read from one set of intervals per rung.  The residual
    S(E) - (<S> + H) is exactly 0 when its first-rung interval contains
    0, as the identity is exact, and otherwise its enclosure.
    """

    support: Dict[StateExpr, Real]
    entropy_total: Real
    mean_state_entropy: Real
    shannon_term: Real
    residual: Real


def shannon_decomposition(e: Eidostate, oracle: ModelOracle) -> ProbabilityReport:
    """Probabilities plus the identity S(E) = <S> + H in interval
    arithmetic, evaluated once per rung."""
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
        return (*probabilities, mean, shannon, total, total - (mean + shannon))

    def item(i: int) -> Real:
        return Real(lambda bits: intervals(bits)[i])

    residual = intervals(FIRST_BITS)[-1]
    return ProbabilityReport(
        support={m: item(i) if x is None else Real(x)
                 for i, (m, x) in enumerate(zip(members, rational))},
        entropy_total=Real(entropy.as_fraction()) if entropy.is_rational else item(-2),
        mean_state_entropy=item(-4),
        shannon_term=Real(0) if len(members) == 1 else item(-3),
        residual=Real(0) if 0 in residual else item(-1),
    )


def gibbs_gap(
    e: Eidostate,
    distribution: Mapping[StateExpr, object],
    oracle: ModelOracle,
) -> Real:
    """S(E) minus the decomposition value under an arbitrary distribution.

    Nonnegative (Gibbs' inequality) when the weights are nonnegative and
    sum to exactly 1.  The checks below accept a sum within 10^-9 of 1
    and weights down to -10^-12, and inside that slack the gap can be
    certified negative: {1/3, 2/3 + 10^-10} on {s_0, s_1} gives about
    -1.4e-11.  Zero exactly at the entropic distribution, which is
    decided exactly: every weight equals its member's probability, which
    is then rational.  Any other gap is its enclosure.  The weights are
    taken as exact rationals (ints, Fractions or floats).
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
    weighted = [(p, oracle.state_entropy(m)) for m, p in probs.items()]
    if all(p == power_ratio(s, entropy) for p, s in weighted):
        return Real(0)

    def gap(bits: int) -> Interval:
        total = entropy.interval(bits)
        for p, s in weighted:
            if p > 0:
                total -= p * s.interval(bits) - p * Interval.of(p, bits).log2()
        return total

    return Real(gap)


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
    """Outcome of the erasure-bound check on a singleton pair.  The
    margin S(b) - S(a) - 1 is exact when both entropies are rational."""

    applicable: bool
    satisfied: Optional[bool]
    margin: Optional[Real]


def landauer_check(a: StateExpr, b: StateExpr, oracle: ModelOracle) -> LandauerVerdict:
    """If a plus a bit state reaches b, the entropy of b must exceed that
    of a by at least one unit; reports the margin."""
    sa, sb = singleton(a), singleton(b)
    erases = oracle.arrow_combined(((sa, 1), (InformationState(2), 1)), ((sb, 1),))
    if not erases:
        return LandauerVerdict(False, None, None)
    ea = oracle.state_entropy(a)
    eb = oracle.state_entropy(b)
    bound = ea + 1
    satisfied = compare_entropy(eb, bound) is not Comparison.LESS
    if ea.is_rational and eb.is_rational:
        margin = Real(eb.as_fraction() - bound.as_fraction())
    elif eb == bound:
        margin = Real(lambda bits: Interval(0, 0, 0, bits))
    else:
        margin = Real(lambda bits: eb.interval(bits) - bound.interval(bits))
    return LandauerVerdict(True, satisfied, margin)
