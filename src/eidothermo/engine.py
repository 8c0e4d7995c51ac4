"""Model-generic computations over any model oracle.

Everything here is phrased purely in terms of the oracle contract:
process classification, uniform entropy, entropic probabilities and the
entropy decomposition, the Gibbs gap, the Dedekind-cut irreversibility
estimator, demon planning (minimum information to enable a
transformation) and the Landauer check.

Probabilities and the decomposition read the weights 2^S(m) from the
exact integer enclosures and are evaluated once in interval arithmetic
at a fixed DEFAULT_BITS (128); each number is the midpoint of its
certified interval, or exactly 0 when the interval contains 0, and the
residual of S(E) = <S> + H is certified.  The Gibbs gap and the
Landauer margin are mpmath numbers at the same precision.  The
functions that compute these load mpmath, so classification, the
irreversibility bracket and demon planning never do.  The Landauer
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
from typing import Dict, Iterable, Mapping, Optional, Sequence

from .exact import (
    Comparison,
    ExactEntropy,
    _context,
    compare_entropy,
    entropy_mpf,
    point,
)
from .oracle import InformationState, ModelOracle
from .states import (
    Eidostate,
    Process,
    ProcessType,
    StateExpr,
    singleton,
)

DEFAULT_BITS = 128
PROBABILITY_DIGITS = 30


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


def _to_mpf(value):
    import mpmath

    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _weights(members: Sequence[StateExpr], oracle: ModelOracle) -> list:
    """Certified intervals of 2^S(m) for each member, in the given order."""
    return [oracle.state_entropy(m).power_interval(DEFAULT_BITS) for m in members]


def entropic_probability(a: StateExpr, e: Eidostate, oracle: ModelOracle):
    """P(a | e) = 2^(S(a) - S(e)) for members, 0 otherwise."""
    return conditional_probability((a,), e.members, e, oracle)


def conditional_probability(
    b: Iterable[StateExpr],
    a: Iterable[StateExpr],
    e: Eidostate,
    oracle: ModelOracle,
):
    """P(b | a within e), with empty sets carrying probability zero.

    Weights are summed in e's member order, so results do not depend on
    set iteration order.
    """
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    set_a, set_b = set(a), set(b)
    given = [m for m in e.members if m in set_a]
    if not given:
        raise ValueError("conditioning set does not meet the eidostate")
    zero = _context(DEFAULT_BITS).mpf(0)
    weights = _weights(given, oracle)
    numer = sum((w for m, w in zip(given, weights) if m in set_b), zero)
    return point(numer / sum(weights, zero), DEFAULT_BITS)


@dataclass(frozen=True)
class ProbabilityReport:
    """Entropic probabilities of a uniform eidostate and the split of its
    entropy into mean member entropy plus Shannon information.

    Each number is read from its certified interval by ``exact.point``;
    ``residual_interval`` encloses S(E) - (<S> + H).
    """

    support: Dict[StateExpr, object]
    entropy_total: object
    mean_state_entropy: object
    shannon_term: object
    residual_interval: object

    def residual(self):
        """|S(E) - (<S> + H)|: exactly 0 when its interval contains 0."""
        return abs(point(self.residual_interval, DEFAULT_BITS))


def shannon_decomposition(e: Eidostate, oracle: ModelOracle) -> ProbabilityReport:
    """Probabilities plus the identity S(E) = <S> + H, each evaluated once
    in interval arithmetic at DEFAULT_BITS."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    ctx = _context(DEFAULT_BITS)
    members = e.members
    weights = _weights(members, oracle)
    total_weight = sum(weights, ctx.mpf(0))
    log2 = ctx.log(2)
    support = {}
    mean = shannon = ctx.mpf(0)
    for m, w in zip(members, weights):
        p = w / total_weight
        support[m] = point(p, DEFAULT_BITS)
        mean += p * (ctx.log(w) / log2)
        shannon -= p * (ctx.log(p) / log2)
    total = ctx.log(total_weight) / log2
    return ProbabilityReport(
        support=support,
        entropy_total=point(total, DEFAULT_BITS),
        mean_state_entropy=point(mean, DEFAULT_BITS),
        shannon_term=point(shannon, DEFAULT_BITS),
        residual_interval=total - (mean + shannon),
    )


def gibbs_gap(
    e: Eidostate,
    distribution: Mapping[StateExpr, object],
    oracle: ModelOracle,
):
    """S(E) minus the decomposition value under an arbitrary distribution.

    Nonnegative always; zero exactly at the entropic distribution.
    """
    import mpmath

    entropy = entropy_uniform(e, oracle)
    members = set(e.members)
    if not set(distribution) <= members:
        raise ValueError("distribution assigns weight outside the eidostate")
    with mpmath.workprec(DEFAULT_BITS):
        probs = {m: _to_mpf(distribution.get(m, 0)) for m in e}
        total = mpmath.mpf(0)
        for p in probs.values():
            if p < -mpmath.mpf(10) ** -12:
                raise ValueError("distribution has a negative weight")
            total += p
        if abs(total - 1) > mpmath.mpf(10) ** -9:
            raise ValueError("distribution does not sum to one")
        mean = mpmath.mpf(0)
        shannon = mpmath.mpf(0)
        for m, p in probs.items():
            if p > 0:
                mean += p * entropy_mpf(oracle.state_entropy(m), DEFAULT_BITS)
                shannon -= p * mpmath.log(p, 2)
        return entropy_mpf(entropy, DEFAULT_BITS) - (mean + shannon)


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


def _forward_holds(oracle, sa, sb, bit, srecord, q, p) -> bool:
    """q copies of <a,b> drive p bit processes."""
    if p >= 0:
        parts_a = ((sa, q), (bit, p))
        parts_b = ((sb, q), (srecord, p))
    else:
        parts_a = ((sa, q), (srecord, -p))
        parts_b = ((sb, q), (bit, -p))
    return oracle.arrow_combined(parts_a, parts_b)


def _backward_holds(oracle, sa, sb, bit, srecord, q, p) -> bool:
    """p bit processes drive q copies of <a,b> in reverse."""
    if p >= 0:
        parts_a = ((sb, q), (srecord, p))
        parts_b = ((sa, q), (bit, p))
    else:
        parts_a = ((sb, q), (bit, -p))
        parts_b = ((sa, q), (srecord, -p))
    return oracle.arrow_combined(parts_a, parts_b)


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
    # One eidostate per operand for the whole search, so each one's
    # cached prime factorization serves every arrow below.
    bit = oracle.make_bit_state()
    srecord = singleton(oracle.make_record())

    def forward(q: int, p: int) -> bool:
        return _forward_holds(oracle, sa, sb, bit, srecord, q, p)

    def backward(q: int, p: int) -> bool:
        return _backward_holds(oracle, sa, sb, bit, srecord, q, p)

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
    import mpmath

    bit = oracle.make_bit_state()
    sa, sb = singleton(a), singleton(b)
    erases = oracle.arrow_combined(((sa, 1), (bit, 1)), ((sb, 1),))
    if not erases:
        return LandauerVerdict(False, None, None, None)
    ea = oracle.state_entropy(a)
    eb = oracle.state_entropy(b)
    satisfied = compare_entropy(eb, ea + 1) is not Comparison.LESS
    margin_exact = None
    if ea.is_rational and eb.is_rational:
        margin_exact = eb.as_fraction() - ea.as_fraction() - 1
    with mpmath.workprec(DEFAULT_BITS):
        margin = entropy_mpf(eb, DEFAULT_BITS) - entropy_mpf(ea, DEFAULT_BITS) - 1
        margin_decimal = mpmath.nstr(margin, PROBABILITY_DIGITS, strip_zeros=False)
    return LandauerVerdict(True, satisfied, margin_exact, margin_decimal)
