"""Model-generic computations over any model oracle.

Everything here is phrased purely in terms of the oracle contract:
process classification, uniform entropy, entropic probabilities and the
entropy decomposition, the Gibbs gap, the Dedekind-cut irreversibility
estimator, demon planning (minimum information to enable a
transformation), Landauer and information-balance checks, process
algebra, and adiabatic accessibility.

The irreversibility estimator deliberately uses only the arrow relation;
entropy differences appear in these functions only as search bounds or
as independent cross-checks in the tests.  For each copy count q it runs
two threshold searches over the bit-process count p (``_last_holding``):
each probes a guess taken from the cut found for smaller q (q times the
bracket end, rounded), gallops outward with doubling steps until the
threshold is bracketed, and bisects.  Since the threshold for q copies is
q times the irreversibility, rounded, most searches end after two arrows.
The search floor (forward) and ceiling (backward) are evaluated only
when a search reaches them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import mpmath

from .exact import Comparison, ExactEntropy, compare_entropy, entropy_mpf
from .oracle import InformationState, ModelOracle
from .states import (
    Eidostate,
    Process,
    ProcessType,
    StateExpr,
    combine,
    similar,
    singleton,
)

DEFAULT_BITS = 128
PROBABILITY_DIGITS = 30


class NotUniformError(ValueError):
    """An operation requiring a uniform eidostate received a non-uniform one."""


class ImpossibleProcessError(ValueError):
    """An operation requiring a possible process received an impossible one."""


class SearchBoundExceeded(RuntimeError):
    """A bounded search ended without covering the space of candidates."""


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


def _power_sum(value: ExactEntropy):
    """2 raised to the value, summed under the ambient working precision."""
    total = mpmath.mpf(0)
    for x in value.exponents:
        if x.denominator == 1:
            total += mpmath.mpf(2) ** int(x)
        else:
            total += mpmath.mpf(2) ** (mpmath.mpf(x.numerator) / x.denominator)
    return total


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _weights(members: Sequence[StateExpr], oracle: ModelOracle) -> list:
    """2^S(m) for each member, in the given order, at the ambient precision."""
    return [_power_sum(oracle.state_entropy(m)) for m in members]


def entropic_probability(
    a: StateExpr, e: Eidostate, oracle: ModelOracle, bits: int = DEFAULT_BITS
):
    """P(a | e) = 2^(S(a) - S(e)) for members, 0 otherwise."""
    return conditional_probability((a,), e.members, e, oracle, bits)


def conditional_probability(
    b: Iterable[StateExpr],
    a: Iterable[StateExpr],
    e: Eidostate,
    oracle: ModelOracle,
    bits: int = DEFAULT_BITS,
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
    with mpmath.workprec(bits):
        weights = _weights(given, oracle)
        numer = sum((w for m, w in zip(given, weights) if m in set_b), mpmath.mpf(0))
        return numer / sum(weights, mpmath.mpf(0))


@dataclass(frozen=True)
class ProbabilityReport:
    """Entropic probabilities of a uniform eidostate and the split of its
    entropy into mean member entropy plus Shannon information."""

    support: Dict[StateExpr, object]
    entropy_total: object
    mean_state_entropy: object
    shannon_term: object
    bits: int

    def residual(self):
        with mpmath.workprec(self.bits):
            return abs(
                self.entropy_total - (self.mean_state_entropy + self.shannon_term)
            )


def shannon_decomposition(
    e: Eidostate, oracle: ModelOracle, bits: int = DEFAULT_BITS
) -> ProbabilityReport:
    """Probabilities plus the identity S(E) = <S> + H evaluated at the
    given working precision."""
    if not oracle.is_uniform(e):
        raise NotUniformError(f"eidostate {e} is not uniform")
    members = e.members
    with mpmath.workprec(bits):
        weights = _weights(members, oracle)
        total_weight = sum(weights, mpmath.mpf(0))
        support = {m: w / total_weight for m, w in zip(members, weights)}
        mean = mpmath.mpf(0)
        shannon = mpmath.mpf(0)
        for m, p in support.items():
            mean += p * entropy_mpf(oracle.state_entropy(m), bits)
            if p > 0:
                shannon -= p * mpmath.log(p, 2)
        total = mpmath.log(total_weight, 2)
    return ProbabilityReport(
        support=support,
        entropy_total=total,
        mean_state_entropy=mean,
        shannon_term=shannon,
        bits=bits,
    )


def gibbs_gap(
    e: Eidostate,
    distribution: Mapping[StateExpr, object],
    oracle: ModelOracle,
    bits: int = DEFAULT_BITS,
):
    """S(E) minus the decomposition value under an arbitrary distribution.

    Nonnegative always; zero exactly at the entropic distribution.
    """
    entropy = entropy_uniform(e, oracle)
    members = set(e.members)
    if not set(distribution) <= members:
        raise ValueError("distribution assigns weight outside the eidostate")
    with mpmath.workprec(bits):
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
                mean += p * entropy_mpf(oracle.state_entropy(m), bits)
                shannon -= p * mpmath.log(p, 2)
        return entropy_mpf(entropy, bits) - (mean + shannon)


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


def _entropy_ceiling(oracle: ModelOracle, a: StateExpr, b: StateExpr) -> int:
    bound = 1
    for x in (a, b):
        value = float(entropy_mpf(oracle.state_entropy(x), 64))
        bound = max(bound, int(math.ceil(abs(value))))
    return bound


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


def _last_holding(holds, lo: int, hi: int, guess: int) -> int:
    """Largest p in [lo, hi) with holds(p), for a predicate that holds up
    to a threshold and fails beyond it.

    holds(lo) is taken to be true and holds(hi) false; neither endpoint
    is evaluated.  The search probes the guess, gallops away from it
    with doubling steps until the threshold is bracketed, then bisects.
    A guess at the threshold or one above it costs two predicate calls.
    """
    yes, no = lo, hi
    guess = min(max(guess, lo), hi - 1)
    if guess > lo:
        if holds(guess):
            yes = guess
        else:
            no = guess
    step = 1
    if no == hi:
        while yes + step < no:
            if not holds(yes + step):
                no = yes + step
                break
            yes += step
            step *= 2
    else:
        while no - step > yes:
            if holds(no - step):
                yes = no - step
                break
            no -= step
            step *= 2
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
    """Tightest bracket on the irreversibility found with up to q_max copies.

    For each copy count q the largest p with "q processes drive p bit
    processes" joins the lower cut, and the smallest p with the reverse
    joins the upper cut.  Both are threshold searches that rely only on
    the arrow oracle and monotonicity in p; each starts from the cut
    already found for smaller q, since the threshold for q copies is
    q times the irreversibility, rounded.
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
    ceiling = _entropy_ceiling(oracle, a, b)
    best_lower: Optional[Fraction] = None
    best_upper: Optional[Fraction] = None
    for q in range(1, q_max + 1):
        bound = q * (ceiling + 1) + 8

        def forward(p: int) -> bool:
            return _forward_holds(oracle, sa, sb, bit, srecord, q, p)

        def backward(p: int) -> bool:
            return _backward_holds(oracle, sa, sb, bit, srecord, q, p)

        # Largest p with the forward relation: it must hold at -bound
        # (checked only when the search lands there) and fails beyond
        # +bound.
        guess = 0 if best_lower is None else math.floor(q * best_lower)
        lower = _last_holding(forward, -bound, bound + 1, guess)
        if lower == -bound and not forward(lower):
            raise ImpossibleProcessError(
                f"forward relation failed at the search floor for q={q}"
            )

        # Smallest p with the backward relation, one past the largest p
        # without it: it must hold at +bound (checked only when the
        # search lands there).
        guess = 0 if best_upper is None else math.ceil(q * best_upper) - 1
        upper = _last_holding(lambda p: not backward(p), -bound - 1, bound, guess) + 1
        if upper == bound and not backward(upper):
            raise ImpossibleProcessError(
                f"backward relation failed at the search ceiling for q={q}"
            )

        lower_candidate, upper_candidate = Fraction(lower, q), Fraction(upper, q)
        if best_lower is None or lower_candidate > best_lower:
            best_lower = lower_candidate
        if best_upper is None or upper_candidate < best_upper:
            best_upper = upper_candidate
    return IrreversibilityEstimate(lower=best_lower, upper=best_upper, q_max=q_max)


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


# -- bookkeeping checks -----------------------------------------------


@dataclass(frozen=True)
class LandauerVerdict:
    """Outcome of the erasure-bound check on a singleton pair."""

    applicable: bool
    satisfied: Optional[bool]
    margin_exact: Optional[Fraction]
    margin_decimal: Optional[str]


def landauer_check(
    a: StateExpr, b: StateExpr, oracle: ModelOracle, bits: int = DEFAULT_BITS
) -> LandauerVerdict:
    """If a plus a bit state reaches b, the entropy of b must exceed that
    of a by at least one unit; reports the margin."""
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
    with mpmath.workprec(bits):
        margin = entropy_mpf(eb, bits) - entropy_mpf(ea, bits) - 1
        margin_decimal = mpmath.nstr(margin, PROBABILITY_DIGITS, strip_zeros=False)
    return LandauerVerdict(True, satisfied, margin_exact, margin_decimal)


@dataclass(frozen=True)
class InfoBalanceVerdict:
    """Outcome of the information-balance inequality on a natural process."""

    satisfied: bool
    delta_mean: object
    delta_shannon: object
    slack: object


def info_balance_check(
    a: Eidostate, b: Eidostate, oracle: ModelOracle, bits: int = DEFAULT_BITS
) -> InfoBalanceVerdict:
    """Any decrease in Shannon information along a natural process is
    paid for by a rise in mean state entropy."""
    if not oracle.arrow(a, b):
        raise ImpossibleProcessError("the process is not natural")
    report_a = shannon_decomposition(a, oracle, bits)
    report_b = shannon_decomposition(b, oracle, bits)
    with mpmath.workprec(bits):
        delta_mean = report_b.mean_state_entropy - report_a.mean_state_entropy
        delta_shannon = report_b.shannon_term - report_a.shannon_term
        slack = delta_mean + delta_shannon
        satisfied = slack >= -mpmath.mpf(10) ** -9
    return InfoBalanceVerdict(
        satisfied=bool(satisfied),
        delta_mean=delta_mean,
        delta_shannon=delta_shannon,
        slack=slack,
    )


# -- process algebra --------------------------------------------------


def process_sum(p1: Process, p2: Process) -> Process:
    return Process(
        initial=combine(p1.initial, p2.initial),
        final=combine(p1.final, p2.final),
    )


def process_negate(p: Process) -> Process:
    return Process(initial=p.final, final=p.initial)


def process_equivalent(
    p1: Process, p2: Process, pad_candidates: Sequence[StateExpr]
) -> bool:
    """Bounded search for paddings making both endpoints similar.

    True is conclusive; False only means no witness was found among the
    candidates (plus the direct no-padding comparison).
    """
    choices: Tuple = (None,) + tuple(pad_candidates)
    for x, y in ((x, y) for x in choices for y in choices):
        left_i = p1.initial if x is None else combine(p1.initial, singleton(x))
        left_f = p1.final if x is None else combine(p1.final, singleton(x))
        right_i = p2.initial if y is None else combine(p2.initial, singleton(y))
        right_f = p2.final if y is None else combine(p2.final, singleton(y))
        if similar(left_i, right_i) and similar(left_f, right_f):
            return True
    return False


def adiabatically_accessible(
    a: StateExpr, b: StateExpr, oracle: ModelOracle
) -> bool:
    """Reachability with only mechanical assistance on either side."""
    family: Tuple = (None,) + tuple(oracle.mechanical_family())
    sa, sb = singleton(a), singleton(b)
    compensable = False
    comp_a = oracle.components(a)
    comp_b = oracle.components(b)
    for left in family:
        left_comp = _padded_components(oracle, comp_a, left)
        for right in family:
            right_comp = _padded_components(oracle, comp_b, right)
            if left_comp != right_comp:
                continue
            compensable = True
            parts_a = ((sa, 1),) if left is None else ((sa, 1), (singleton(left), 1))
            parts_b = ((sb, 1),) if right is None else ((sb, 1), (singleton(right), 1))
            if oracle.arrow_combined(parts_a, parts_b):
                return True
    if not compensable:
        raise SearchBoundExceeded(
            "no mechanical padding in the bounded family matches the contents"
        )
    return False


def _padded_components(oracle, base: tuple, pad: Optional[StateExpr]) -> tuple:
    if pad is None:
        return base
    extra = oracle.components(pad)
    return tuple(x + y for x, y in zip(base, extra))
