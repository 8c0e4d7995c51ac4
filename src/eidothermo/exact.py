"""Exact arithmetic for entropies of the form log2(sum of 2^x) with rational x.

Values are carried as canonical multisets of rational exponents.  The
canonical form merges dyadic pairs: whenever two exponents are equal,
the pair ``x, x`` is replaced by the single exponent ``x + 1`` (smallest
pair first) until all exponents are distinct.  Two values are equal
exactly when their canonical multisets coincide; this is sound and
complete because powers of two with distinct rational exponents are
linearly independent over the rationals.  In particular a value is
rational exactly when its canonical multiset is a singleton.

Sums and integer multiples of rational values have closed forms,
``{x} + {y} = {x + y}`` and ``n * {x} = {n * x}``, whose one-exponent
results are canonical as built; values with several exponents take the
general path (all pairwise exponent sums, and double-and-add).

Comparisons of distinct canonical forms fall back to interval arithmetic
at escalating precision (128 bits doubling up to a cap, default 4096,
overridable via the ``EIDOTHERMO_MAX_BITS`` environment variable).  An
overlap at the cap raises ``PrecisionExhausted`` rather than guessing.
"""

from __future__ import annotations

import enum
import os
from bisect import insort
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import mpmath
from mpmath.ctx_iv import MPIntervalContext

#: Environment variable naming the interval-precision cap in bits.
MAX_BITS_ENV_VAR = "EIDOTHERMO_MAX_BITS"
DEFAULT_MAX_BITS = 4096
FIRST_BITS = 128


class PrecisionExhausted(ArithmeticError):
    """A comparison stayed undecided at the configured precision cap."""


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def max_precision_bits() -> int:
    """The current interval-precision cap in bits."""
    raw = os.environ.get(MAX_BITS_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_BITS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if bits < FIRST_BITS:
        raise ValueError(f"{MAX_BITS_ENV_VAR} must be at least {FIRST_BITS}")
    return bits


def _canonical(exponents: Iterable[Fraction]) -> tuple:
    """Sorted exponent list with equal pairs merged upward until distinct."""
    items = sorted(exponents)
    i = 0
    while i < len(items) - 1:
        if items[i] == items[i + 1]:
            merged = items[i] + 1
            del items[i : i + 2]
            insort(items, merged)
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(items)


def _from_canonical(exponents: tuple) -> "ExactEntropy":
    """An ExactEntropy over exponents already in canonical form."""
    value = object.__new__(ExactEntropy)
    object.__setattr__(value, "_exponents", exponents)
    return value


class ExactEntropy:
    """The value log2(2^x1 + ... + 2^xn) for rational exponents xi."""

    __slots__ = ("_exponents",)

    def __init__(self, exponents: Iterable):
        exps = []
        for x in exponents:
            if isinstance(x, Fraction):
                exps.append(x)
            elif isinstance(x, int):
                exps.append(Fraction(x))
            else:
                raise TypeError(f"exponents must be rational, got {type(x).__name__}")
        if not exps:
            raise ValueError("at least one exponent is required")
        object.__setattr__(self, "_exponents", _canonical(exps))

    def __setattr__(self, name, value):
        raise AttributeError("ExactEntropy is immutable")

    @classmethod
    def from_rational(cls, value) -> "ExactEntropy":
        """The exact rational value itself (a one-term sum log2 2^value)."""
        return cls([Fraction(value)])

    @classmethod
    def log2_of_int(cls, n: int) -> "ExactEntropy":
        """log2(n) for a positive integer, via the binary expansion of n."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        return cls(Fraction(i) for i in range(n.bit_length()) if n >> i & 1)

    @classmethod
    def log2_sum_of_powers(cls, values: Iterable["ExactEntropy"]) -> "ExactEntropy":
        """log2 of the sum of 2^v over the given values: concatenate multisets."""
        exps = []
        for v in values:
            exps.extend(v._exponents)
        return cls(exps)

    @property
    def exponents(self) -> tuple:
        return self._exponents

    @property
    def is_rational(self) -> bool:
        return len(self._exponents) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self._exponents[0]

    def __add__(self, other) -> "ExactEntropy":
        """Sum of values: log2 of the product, i.e. all pairwise exponent sums.

        Two rational values add in closed form: {x} + {y} = {x + y}.
        """
        if isinstance(other, ExactEntropy):
            if len(self._exponents) == 1 and len(other._exponents) == 1:
                return _from_canonical((self._exponents[0] + other._exponents[0],))
            return ExactEntropy(
                x + y for x in self._exponents for y in other._exponents
            )
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return ExactEntropy(x + q for x in self._exponents)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, n) -> "ExactEntropy":
        """Integer multiple of the value, by double-and-add with remerging.

        A rational value multiplies in closed form: n * {x} = {n * x}.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 1:
            raise ValueError("only positive integer multiples are defined")
        if len(self._exponents) == 1:
            return _from_canonical((self._exponents[0] * n,))
        result = None
        power = self
        while n:
            if n & 1:
                result = power if result is None else result + power
            n >>= 1
            if n:
                power = power + power
        return result

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactEntropy) and self._exponents == other._exponents

    def __hash__(self) -> int:
        return hash(self._exponents)

    def __repr__(self) -> str:
        return f"ExactEntropy([{', '.join(str(x) for x in self._exponents)}])"

    def __str__(self) -> str:
        return "log2(" + " + ".join(f"2^{x}" for x in self._exponents) + ")"

    def compare(self, other: "ExactEntropy") -> Comparison:
        return compare_entropy(self, other)

    def __lt__(self, other) -> bool:
        return self.compare(other) is Comparison.LESS

    def __le__(self, other) -> bool:
        return self.compare(other) is not Comparison.GREATER

    def __gt__(self, other) -> bool:
        return self.compare(other) is Comparison.GREATER

    def __ge__(self, other) -> bool:
        return self.compare(other) is not Comparison.LESS

    def interval(self, bits: int):
        """Enclosing interval of the value at the given working precision."""
        return _interval_value(_context(bits), self._exponents)

    def decimal(self, digits: int = 30) -> str:
        """The value as a decimal string with the given significant digits."""
        return decimal_of(self, digits)

    def __float__(self) -> float:
        box = self.interval(64)
        with mpmath.workprec(64):
            return float((mpmath.mpf(box.a) + mpmath.mpf(box.b)) / 2)


#: Interval contexts are immutable after creation here; reusing them
#: avoids per-comparison construction cost.
_CONTEXTS: dict = {}


def _context(bits: int):
    ctx = _CONTEXTS.get(bits)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = bits
        _CONTEXTS[bits] = ctx
    return ctx


def _interval_pow2(ctx, exponent: Fraction):
    if exponent.denominator == 1:
        return ctx.mpf(2) ** ctx.mpf(exponent.numerator)
    ix = ctx.mpf(exponent.numerator) / ctx.mpf(exponent.denominator)
    return ctx.mpf(2) ** ix


def _interval_value(ctx, exponents: Sequence[Fraction]):
    total = ctx.mpf(0)
    for x in exponents:
        total += _interval_pow2(ctx, x)
    return ctx.log(total) / ctx.log(2)


def _precision_ladder(cap: int) -> Iterator[int]:
    bits = FIRST_BITS
    while bits < cap:
        yield bits
        bits *= 2
    yield cap


def compare_entropy(x: ExactEntropy, y: ExactEntropy) -> Comparison:
    """Trichotomy on exact entropy values.

    Equal canonical multisets decide equality outright; otherwise the
    values differ and escalating interval precision separates them, or
    PrecisionExhausted is raised at the cap.
    """
    if x.exponents == y.exponents:
        return Comparison.EQUAL
    if x.is_rational and y.is_rational:
        return Comparison.LESS if x.as_fraction() < y.as_fraction() else Comparison.GREATER
    cap = max_precision_bits()
    for bits in _precision_ladder(cap):
        ctx = _context(bits)
        ix = _interval_value(ctx, x.exponents)
        iy = _interval_value(ctx, y.exponents)
        if ix.b < iy.a:
            return Comparison.LESS
        if iy.b < ix.a:
            return Comparison.GREATER
    raise PrecisionExhausted(
        f"comparison of {x} and {y} undecided at {cap} bits"
    )


def decimal_of(value: ExactEntropy, digits: int = 30) -> str:
    """Decimal rendering of an exact entropy to the given significant digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    cap = max_precision_bits()
    # Target enough slack that the interval width cannot disturb the
    # requested digits.
    for bits in _precision_ladder(cap):
        box = _interval_value(_context(bits), value.exponents)
        with mpmath.workprec(bits):
            lo = mpmath.mpf(box.a)
            hi = mpmath.mpf(box.b)
            width = hi - lo
            scale = max(abs(lo), abs(hi), mpmath.mpf(1))
            if width <= scale * mpmath.mpf(10) ** (-(digits + 5)):
                mid = (lo + hi) / 2
                return mpmath.nstr(mid, digits, strip_zeros=False)
    raise PrecisionExhausted(
        f"cannot render {value} to {digits} digits within {cap} bits"
    )


def entropy_mpf(value: ExactEntropy, bits: int):
    """The value as an mpmath float computed at the given precision."""
    box = value.interval(bits)
    with mpmath.workprec(bits):
        return (mpmath.mpf(box.a) + mpmath.mpf(box.b)) / 2
