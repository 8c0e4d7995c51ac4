"""Exact arithmetic for entropies of the form log2(sum of 2^x) with rational x.

Write each exponent as x = k + f with k an integer and 0 <= f < 1.  Then
2^value = sum over residues f of N_f * 2^f, where each coefficient N_f is
a positive dyadic rational (a sum of powers of two).  A value is stored
by these coefficients: a common denominator d of the residues, a shift
s, and for each residue r/d an integer m_r with N_f = m_r * 2^s.  The
form is canonical (d the least common denominator, the common factors of
two moved into s), so two values are equal exactly when their forms
coincide; this is sound and complete because powers of two with
distinct exponents in [0, 1) are linearly independent over the
rationals.  The canonical exponent multiset of the value, in which no
exponent repeats because the pair ``x, x`` merges to ``x + 1``, is the
set bits of each N_f, which is binary carrying within one residue; it
is built on demand for ``exponents``, ``str``, ``repr`` and the
interval evaluation.

A value is rational exactly when it has one residue whose coefficient
is a power of two.  A rational value is stored as one ``Fraction``, and
sums, integer multiples and comparisons of rational values take closed
forms (``{x} + {y} = {x + y}``, ``n * {x} = {n * x}``).  Otherwise a
sum (the log of a product) is the product of the coefficient sums, with
a carry into the next power of two when two residues add past 1; an
integer multiple is a power by squaring; ``log2_sum_of_powers`` adds
coefficients.

A comparison subtracts the coefficients residue by residue, so shared
terms cancel exactly.  A difference whose coefficients all have one
sign, such as one left only at residue 0, decides the comparison
outright, as every 2^f is positive.  Otherwise the sign of
sum c_f * 2^f is bounded with one integer enclosure of 2^f per residue
(memoized by precision and residue) at escalating precision: 128 bits
doubling up to a cap, default 4096, overridable via the
``EIDOTHERMO_MAX_BITS`` environment variable.  An undecided sign at the
cap raises ``PrecisionExhausted`` rather than guessing.
"""

from __future__ import annotations

import enum
import os
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
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


# -- coefficient forms ---------------------------------------------------
#
# A form (d, s, terms) stands for 2^value = 2^s * sum of m * 2^(r/d) over
# the (r, m) pairs of terms, with 0 <= r < d and every m a positive
# integer; the arithmetic below accepts any form.  A non-rational value
# stores its canonical form (see _canonical_value) as one flat tuple
# (d, s, r1, m1, r2, m2, ...), which models keep by the thousand in
# their per-prime caches: it takes less than half the memory of nested
# pairs.


def _form(v):
    """The coefficient form of a stored value (a Fraction or a flat tuple)."""
    if type(v) is Fraction:
        n, d = v.numerator, v.denominator
        k = n // d
        return d, k, ((n - k * d, 1),)
    return v[0], v[1], tuple(zip(v[2::2], v[3::2]))


def _canonical_value(d: int, s: int, coeffs: dict):
    """The stored value of a form: a Fraction when rational, else the flat
    canonical form (least denominator, coefficients not all even, terms
    sorted by residue)."""
    g = gcd(d, *coeffs)
    if g > 1:
        d //= g
        coeffs = {r // g: m for r, m in coeffs.items()}
    bits = 0
    for m in coeffs.values():
        bits |= m
    twos = (bits & -bits).bit_length() - 1
    if twos:
        s += twos
        coeffs = {r: m >> twos for r, m in coeffs.items()}
    if len(coeffs) == 1:
        ((r, m),) = coeffs.items()
        if m == 1:
            return Fraction(s * d + r, d)
    return (d, s, *chain.from_iterable(sorted(coeffs.items())))


def _product(a, b):
    """The sum of two values as (d, s, coefficients by residue): the
    product of their powers, carrying into the shift when two residues
    add past 1."""
    da, sa, ta = a
    db, sb, tb = b
    d = lcm(da, db)
    fa, fb = d // da, d // db
    coeffs: dict = {}
    for ra, ma in ta:
        ra *= fa
        for rb, mb in tb:
            r = ra + rb * fb
            m = ma * mb
            if r >= d:
                r -= d
                m <<= 1
            coeffs[r] = coeffs.get(r, 0) + m
    return d, sa + sb, coeffs


def _sum_of_powers(forms: list):
    """The stored value of log2 of the sum of 2^v over the given forms."""
    d = lcm(*(f[0] for f in forms))
    s = min(f[1] for f in forms)
    coeffs: dict = {}
    for df, sf, terms in forms:
        scale, up = d // df, sf - s
        for r, m in terms:
            r *= scale
            coeffs[r] = coeffs.get(r, 0) + (m << up)
    return _canonical_value(d, s, coeffs)


def _new(v) -> "ExactEntropy":
    value = object.__new__(ExactEntropy)
    _set_value(value, v)
    return value


class ExactEntropy:
    """The value log2(2^x1 + ... + 2^xn) for rational exponents xi."""

    #: A Fraction (rational values) or the flat canonical form.
    __slots__ = ("_v",)

    def __init__(self, exponents: Iterable):
        forms = []
        for x in exponents:
            if isinstance(x, (int, Fraction)):
                forms.append(_form(Fraction(x)))
            else:
                raise TypeError(f"exponents must be rational, got {type(x).__name__}")
        if not forms:
            raise ValueError("at least one exponent is required")
        _set_value(self, _sum_of_powers(forms))

    def __setattr__(self, name, value):
        raise AttributeError("ExactEntropy is immutable")

    @classmethod
    def from_rational(cls, value) -> "ExactEntropy":
        """The exact rational value itself (a one-term sum log2 2^value)."""
        return _new(Fraction(value))

    @classmethod
    def log2_of_int(cls, n: int) -> "ExactEntropy":
        """log2(n) for a positive integer: the single coefficient n at residue 0."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer")
        return _new(_canonical_value(1, 0, {0: n}))

    @classmethod
    def log2_sum_of_powers(cls, values: Iterable["ExactEntropy"]) -> "ExactEntropy":
        """log2 of the sum of 2^v over the given values: add coefficients."""
        forms = [_form(v._v) for v in values]
        if not forms:
            raise ValueError("at least one exponent is required")
        return _new(_sum_of_powers(forms))

    @property
    def exponents(self) -> tuple:
        """The canonical exponent multiset, ascending (distinct exponents)."""
        v = self._v
        if type(v) is Fraction:
            return (v,)
        d, s = v[0], v[1]
        numerators = []
        for r, m in zip(v[2::2], v[3::2]):
            k = s
            while m:
                if m & 1:
                    numerators.append(k * d + r)
                m >>= 1
                k += 1
        numerators.sort()
        return tuple(Fraction(n, d) for n in numerators)

    @property
    def is_rational(self) -> bool:
        return type(self._v) is Fraction

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self._v

    def __add__(self, other) -> "ExactEntropy":
        """Sum of values: log2 of the product of the powers.

        Two rational values add in closed form: {x} + {y} = {x + y}.
        """
        if isinstance(other, ExactEntropy):
            b = other._v
        elif isinstance(other, (int, Fraction)):
            b = Fraction(other)
        else:
            return NotImplemented
        a = self._v
        if type(a) is Fraction and type(b) is Fraction:
            return _new(a + b)
        return _new(_canonical_value(*_product(_form(a), _form(b))))

    __radd__ = __add__

    def __mul__(self, n) -> "ExactEntropy":
        """Integer multiple of the value: the n-th power, by squaring.

        A rational value multiplies in closed form: n * {x} = {n * x}.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 1:
            raise ValueError("only positive integer multiples are defined")
        v = self._v
        if type(v) is Fraction:
            return _new(v * n)
        if n == 1:
            return self
        result = None
        power = _form(v)
        while True:
            if n & 1:
                if result is None:
                    result = power
                else:
                    d, s, coeffs = _product(result, power)
                    result = d, s, coeffs.items()
            n >>= 1
            if not n:
                break
            d, s, coeffs = _product(power, power)
            power = d, s, coeffs.items()
        d, s, terms = result
        return _new(_canonical_value(d, s, dict(terms)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactEntropy):
            return False
        a, b = self._v, other._v
        return type(a) is type(b) and a == b

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"ExactEntropy([{', '.join(str(x) for x in self.exponents)}])"

    def __str__(self) -> str:
        return "log2(" + " + ".join(f"2^{x}" for x in self.exponents) + ")"

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
        return _interval_value(_context(bits), self.exponents)

    def decimal(self, digits: int = 30) -> str:
        """The value as a decimal string with the given significant digits."""
        return decimal_of(self, digits)

    def __float__(self) -> float:
        box = self.interval(64)
        with mpmath.workprec(64):
            return float((mpmath.mpf(box.a) + mpmath.mpf(box.b)) / 2)


#: Writes the ``_v`` slot past the immutability guard of ``__setattr__``.
_set_value = ExactEntropy._v.__set__


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


def _scaled(endpoint, bits: int, ceiling: bool) -> int:
    """A positive mpf endpoint times 2^bits, rounded down or up to an integer."""
    _, man, exp, _ = endpoint
    man = int(man)
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return -(-man >> -shift) if ceiling else man >> -shift


@lru_cache(maxsize=4096)
def _pow2_bounds(bits: int, r: int, d: int) -> tuple:
    """Integers lo <= 2^(bits + r/d) <= hi for a residue 0 < r/d < 1 in
    lowest terms, a few units apart."""
    a, b = _interval_pow2(_context(bits), Fraction(r, d))._mpi_
    return _scaled(a, bits, False), _scaled(b, bits, True)


def _precision_ladder(cap: int) -> Iterator[int]:
    bits = FIRST_BITS
    while bits < cap:
        yield bits
        bits *= 2
    yield cap


def compare_entropy(x: ExactEntropy, y: ExactEntropy) -> Comparison:
    """Trichotomy on exact entropy values.

    Rational values compare as fractions.  Otherwise the difference of
    the two powers is taken residue by residue: a difference whose
    coefficients all have one sign (in particular one left at a single
    residue, such as residue 0) is decided exactly, and any other is
    bounded at escalating precision until its sign is certain, or
    PrecisionExhausted is raised at the cap.
    """
    a, b = x._v, y._v
    if type(a) is type(b) and a == b:
        return Comparison.EQUAL
    if type(a) is Fraction and type(b) is Fraction:
        return Comparison.LESS if a < b else Comparison.GREATER
    da, sa, ta = _form(a)
    db, sb, tb = _form(b)
    # With L the bit length of its coefficient sum, 2^x lies in
    # [2^(s + L - 1), 2^(s + L + 1)), as each 2^f is in [1, 2).
    la = sa + sum(m for _, m in ta).bit_length()
    lb = sb + sum(m for _, m in tb).bit_length()
    if la + 2 <= lb:
        return Comparison.LESS
    if lb + 2 <= la:
        return Comparison.GREATER
    d = lcm(da, db)
    s = min(sa, sb)
    diff: dict = {}
    for r, m in ta:
        diff[r * (d // da)] = m << (sa - s)
    for r, m in tb:
        r *= d // db
        diff[r] = diff.get(r, 0) - (m << (sb - s))
    # Every 2^f is positive, so coefficients of one sign decide exactly.
    if all(c >= 0 for c in diff.values()):
        return Comparison.GREATER
    if all(c <= 0 for c in diff.values()):
        return Comparison.LESS
    exact = diff.pop(0, 0)
    rest = []
    for r, c in diff.items():
        if c:
            g = gcd(r, d)
            rest.append((r // g, d // g, c))
    cap = max_precision_bits()
    for bits in _precision_ladder(cap):
        lo = hi = exact << bits
        for r, dr, c in rest:
            low, high = _pow2_bounds(bits, r, dr)
            if c > 0:
                lo += c * low
                hi += c * high
            else:
                lo += c * high
                hi += c * low
        if hi < 0:
            return Comparison.LESS
        if lo > 0:
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
