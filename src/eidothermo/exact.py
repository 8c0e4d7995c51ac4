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
is built on demand for ``exponents``, ``str``, ``repr`` and ``hash``.

A value is rational exactly when it has one residue whose coefficient
is a power of two.  A rational value is stored as one ``Fraction``, and
sums, integer multiples and comparisons of rational values take closed
forms (``{x} + {y} = {x + y}``, ``n * {x} = {n * x}``).  Otherwise a
sum (the log of a product) is the product of the coefficient sums, with
a carry into the next power of two when two residues add past 1; an
integer multiple is a power by squaring; ``log2_sum_of_powers`` adds
coefficients.

Every numeric reading of a value goes through one enclosure: integers
lo <= 2^bits * sum c_f * 2^f <= hi for signed coefficients c_f, built
from one memoized integer enclosure of 2^f per residue.  A comparison
subtracts the coefficients residue by residue, so shared terms cancel
exactly.  A difference whose coefficients all have one sign, such as
one left only at residue 0, is decided outright, as every 2^f is
positive, and so is one whose sign the bounds 1 <= 2^f <= 1 + f fix.
Otherwise the sign is read from the enclosure at escalating precision:
128 bits doubling up to a cap, default 4096, overridable via the
``EIDOTHERMO_MAX_BITS`` environment variable.  An undecided sign at the
cap raises ``PrecisionExhausted`` rather than guessing.  ``floor`` is
one such comparison against an integer; ``power_interval`` is the
enclosure of 2^value as an ``Interval`` and ``interval`` its logarithm.
A ``Real`` is a computed number that may be irrational: an exact
``Fraction``, or a function from a working precision to an enclosing
``Interval``.  ``decimal_of``, the one printer of decimals, rounds a
rational exactly and any other number once its enclosure, evaluated up
the same ladder, fixes every printed digit; ``float`` climbs the ladder
the same way to the correctly rounded double.  ``power_ratio`` decides
when a ratio of powers is rational and gives it exactly.

All of it is arithmetic on Python integers (Brent and Zimmermann,
*Modern Computer Arithmetic*, ch. 4).  2^(r/d) is bounded by the
exponential series of (r/d) ln 2 after k halvings, squared k times, and
log2 by a table of ln(1 + i/256) and the series of atanh; each series
is summed with floor divisions, which bound it from below, and a count
of the truncations bounds it from above.  An ``Interval`` is a pair of
integers over one power of two, rounded outward to its precision.
"""

from __future__ import annotations

import enum
import os
from decimal import ROUND_HALF_UP, Context
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator

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


def _magnitude(s: int, terms) -> int:
    """The k with 2^value in [2^(k - 1), 2^(k + 1)) for a form with shift
    s: k - s is the bit length of the coefficient sum, as each 2^f is in
    [1, 2)."""
    return s + sum(m for _, m in terms).bit_length()


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
        """The exact rational value itself (a one-term sum log2 2^value).

        A ``Fraction`` is stored as it is; any other rational is converted.
        """
        return _new(value if type(value) is Fraction else Fraction(value))

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

    def floor(self) -> int:
        """The largest integer not above the value, decided exactly."""
        v = self._v
        if type(v) is Fraction:
            return v.numerator // v.denominator
        # The value lies in [k - 1, k + 1) and, not being rational, is
        # no integer: one comparison with k decides.
        _, s, terms = _form(v)
        k = _magnitude(s, terms)
        if compare_entropy(self, _new(Fraction(k))) is Comparison.LESS:
            return k - 1
        return k

    def power_interval(self, bits: int) -> "Interval":
        """Enclosing interval of 2^value at the given working precision:
        the integer enclosure scaled by 2^(s - bits)."""
        d, s, terms = _form(self._v)
        lo, hi = _enclosure(bits, d, terms)
        return Interval(lo, hi, s - bits, bits)

    def interval(self, bits: int) -> "Interval":
        """Enclosing interval of the value at the given working precision:
        the rational itself enclosed, or the log of the enclosure of
        2^value."""
        v = self._v
        if type(v) is Fraction:
            return Interval.of(v, bits)
        return self.power_interval(bits).log2()

    def __float__(self) -> float:
        """The correctly rounded double."""
        v = self._v
        return float(Real(v if type(v) is Fraction else self.interval))


#: Writes the ``_v`` slot past the immutability guard of ``__setattr__``.
_set_value = ExactEntropy._v.__set__


# -- the integer kernel ----------------------------------------------------
#
# A fixed-point number is an integer X standing for X / 2^p.  Each series
# below is summed with floor divisions, so its computed sum is a lower
# bound, and a count of the truncations bounds it from above.

#: Bits the series carry beyond the precision they are asked for.
_GUARD = 12
#: ln(t) is read from a table of ln(1 + i/2^_TABLE_BITS) and a short series.
_TABLE_BITS = 8


def _atanh(num: int, den: int, p: int) -> tuple:
    """Integers lo <= 2^p * atanh(num/den) <= hi for 0 <= num/den <= 1/3.

    The series of z^(2k+1)/(2k+1) runs at p + _GUARD bits.  Each power
    of z is the floor of the previous one times z^2, so it trails the
    true power by less than 9/8 units and each term by less than 17/8;
    once a power reaches 0, the rest of the series is below 2 units.
    """
    if not num:
        return 0, 0
    q = p + _GUARD
    power = (num << q) // den
    n2, d2 = num * num, den * den
    total = terms = 0
    while power:
        terms += 1
        total += power // (2 * terms - 1)
        power = power * n2 // d2
    return total >> _GUARD, -(-(total + 3 * terms + 2) >> _GUARD)


@lru_cache(maxsize=64)
def _ln2(p: int) -> tuple:
    """Integers lo <= 2^p * ln 2 <= hi: ln 2 = 2 atanh(1/3)."""
    lo, hi = _atanh(1, 3, p)
    return 2 * lo, 2 * hi


@lru_cache(maxsize=4096)
def _ln_table(i: int, p: int) -> tuple:
    """Integers lo <= 2^p * ln(1 + i/2^_TABLE_BITS) <= hi."""
    lo, hi = _atanh(i, (2 << _TABLE_BITS) + i, p)
    return 2 * lo, 2 * hi


def _log2_bounds(m: int, e: int, p: int) -> tuple:
    """Integers lo <= 2^p * log2(m * 2^e) <= hi for a positive integer m.

    With m = 2^n * t, 1 <= t < 2, and i/2^_TABLE_BITS the first bits of
    t - 1: ln t = ln(1 + i/2^_TABLE_BITS) + 2 atanh(z) for the exact
    z = (a - b)/(a + b) below 2^-(_TABLE_BITS + 1), where a/b is t over
    1 + i/2^_TABLE_BITS; log2 t is ln t over ln 2.
    """
    n = m.bit_length() - 1
    a = m << _TABLE_BITS
    i = (a >> n) - (1 << _TABLE_BITS)
    b = ((1 << _TABLE_BITS) + i) << n
    q = p + _GUARD
    table_lo, table_hi = _ln_table(i, q)
    z_lo, z_hi = _atanh(a - b, a + b, q)
    ln2_lo, ln2_hi = _ln2(q)
    whole = (n + e) << p
    return (
        whole + ((table_lo + 2 * z_lo) << p) // ln2_hi,
        whole - (-((table_hi + 2 * z_hi) << p) // ln2_lo),
    )


def _exp(x: int, p: int, k: int) -> tuple:
    """Integers lo <= 2^p * exp(x / 2^p) <= hi for 0 <= x < 2^p and k >= 1.

    The Taylor series runs at x / 2^(p + k), below 1/2, so its terms
    fall at least twofold: each computed term trails by less than 2
    units and the cut-off tail is below 4.  The sum is then squared k
    times, rounding down for lo and up for hi.
    """
    s = p + k
    total = term = 1 << p
    n = 0
    while term:
        n += 1
        term = (term * x >> s) // n
        total += term
    lo, hi = total, total + 2 * n + 4
    for _ in range(k):
        lo = lo * lo >> p
        hi = -(-hi * hi >> p)
    return lo, hi


@lru_cache(maxsize=4096)
def _pow2_bounds(bits: int, r: int, d: int) -> tuple:
    """Integers lo <= 2^(bits + r/d) <= hi for a residue 0 < r/d < 1 in
    lowest terms, a few units apart: exp of (r/d) ln 2, whose k halvings
    and squarings cost about k + _GUARD bits of guard."""
    k = isqrt(bits) // 3 + 1
    p = bits + k + _GUARD
    ln2_lo, ln2_hi = _ln2(p)
    x_lo, x_hi = r * ln2_lo // d, -(-r * ln2_hi // d)
    lo, hi = _exp(x_lo, p, k)
    # e^t <= 1 + 2t for 0 <= t <= 1 bounds exp(x_hi) by exp(x_lo).
    hi += -(-hi * 2 * (x_hi - x_lo) >> p)
    g = p - bits
    return lo >> g, -(-hi >> g)


def _fraction(n: int, e: int) -> Fraction:
    """n * 2^e as a Fraction."""
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


class Interval:
    """The closed interval [lo * 2^exp, hi * 2^exp] at a working precision
    of prec bits.

    Arithmetic rounds each result outward to prec significant bits, so
    it encloses every value the operands can take; a rational operand
    is enclosed first, and the result takes the larger precision.
    """

    __slots__ = ("lo", "hi", "exp", "prec")

    def __init__(self, lo: int, hi: int, exp: int, prec: int):
        shift = max(abs(lo), abs(hi)).bit_length() - prec
        if shift > 0:
            lo >>= shift
            hi = -(-hi >> shift)
            exp += shift
        self.lo, self.hi, self.exp, self.prec = lo, hi, exp, prec

    @classmethod
    def of(cls, x, prec: int) -> "Interval":
        """The enclosure of a rational: exact when it is dyadic and fits."""
        n, d = x.numerator, x.denominator
        if not d & (d - 1):
            return cls(n, n, 1 - d.bit_length(), prec)
        s = max(0, prec + 2 + d.bit_length() - n.bit_length())
        return cls((n << s) // d, -((-n << s) // d), -s, prec)

    @property
    def lower(self) -> Fraction:
        return _fraction(self.lo, self.exp)

    @property
    def upper(self) -> Fraction:
        return _fraction(self.hi, self.exp)

    def __contains__(self, x) -> bool:
        return self.lower <= x <= self.upper

    def __repr__(self) -> str:
        return f"Interval([{self.lower}, {self.upper}])"

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.exp, self.prec)

    def __add__(self, other) -> "Interval":
        if type(other) is not Interval:
            if not other:
                return self
            other = Interval.of(other, self.prec)
        prec = max(self.prec, other.prec)
        ea, eb = self.exp, other.exp
        # Align at the lower exponent, but no lower than 2 bits past the
        # precision of the larger operand: a smaller one is rounded out.
        top = max(
            max(abs(self.lo), abs(self.hi)).bit_length() + ea,
            max(abs(other.lo), abs(other.hi)).bit_length() + eb,
        )
        e = max(min(ea, eb), top - prec - 2)
        lo = _shifted(self.lo, ea - e, False) + _shifted(other.lo, eb - e, False)
        hi = _shifted(self.hi, ea - e, True) + _shifted(other.hi, eb - e, True)
        return Interval(lo, hi, e, prec)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + -other

    def __rsub__(self, other) -> "Interval":
        return -self + other

    def __mul__(self, other) -> "Interval":
        if type(other) is not Interval:
            other = Interval.of(other, self.prec)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a >= 0 and c >= 0:
            lo, hi = a * c, b * d
        else:
            ends = (a * c, a * d, b * c, b * d)
            lo, hi = min(ends), max(ends)
        return Interval(lo, hi, self.exp + other.exp, max(self.prec, other.prec))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c <= 0 <= d:
            raise ZeroDivisionError("division by an interval that contains 0")
        if d < 0:
            a, b, c, d = -b, -a, -d, -c
        prec = max(self.prec, other.prec)
        s = max(0, prec + 2 + d.bit_length() - max(-a, b).bit_length())
        lo = (a << s) // (d if a >= 0 else c)
        hi = -((-b << s) // (c if b >= 0 else d))
        return Interval(lo, hi, self.exp - other.exp - s, prec)

    def log2(self) -> "Interval":
        """The enclosure of log2 over a positive interval: the kernel's
        bounds at the lower end, plus 3/2 of the relative width, which
        bounds log2(hi / lo) from above."""
        lo, hi = self.lo, self.hi
        if lo <= 0:
            raise ValueError("log2 of an interval that is not positive")
        p = self.prec + _GUARD
        low, high = _log2_bounds(lo, self.exp, p)
        if hi != lo:
            high += -(-(3 * (hi - lo) << p) // (2 * lo))
        return Interval(low, high, -p, self.prec)


def _shifted(n: int, k: int, ceiling: bool) -> int:
    """n * 2^k, rounded down or up to an integer."""
    if k >= 0:
        return n << k
    return -(-n >> -k) if ceiling else n >> -k


def _enclosure(bits: int, d: int, terms) -> tuple:
    """Integers lo <= 2^bits * sum of c * 2^(r/d) <= hi over the (r, c)
    pairs of terms, for residues 0 <= r < d and signed integers c."""
    lo = hi = 0
    for r, c in terms:
        if not r:
            lo += c << bits
            hi += c << bits
            continue
        g = gcd(r, d)
        low, high = _pow2_bounds(bits, r // g, d // g)
        if c > 0:
            lo += c * low
            hi += c * high
        else:
            lo += c * high
            hi += c * low
    return lo, hi


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
    residue, such as residue 0) is decided exactly, and so is one whose
    sign the bounds 1 <= 2^f <= 1 + f fix; any other is bounded at
    escalating precision until its sign is certain, or
    PrecisionExhausted is raised at the cap.
    """
    a, b = x._v, y._v
    if type(a) is type(b) and a == b:
        return Comparison.EQUAL
    if type(a) is Fraction and type(b) is Fraction:
        return Comparison.LESS if a < b else Comparison.GREATER
    da, sa, ta = _form(a)
    db, sb, tb = _form(b)
    la, lb = _magnitude(sa, ta), _magnitude(sb, tb)
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
    # Mixed signs: 1 <= 2^f <= 1 + f, with equality only at f = 0, and
    # some residue is not 0, so d times the difference lies strictly
    # between these two integers.
    low = high = 0
    for r, c in diff.items():
        if c > 0:
            low += c * d
            high += c * (d + r)
        else:
            low += c * (d + r)
            high += c * d
    if high <= 0:
        return Comparison.LESS
    if low >= 0:
        return Comparison.GREATER
    terms = [(r, c) for r, c in diff.items() if c]
    cap = max_precision_bits()
    for bits in _precision_ladder(cap):
        lo, hi = _enclosure(bits, d, terms)
        if hi < 0:
            return Comparison.LESS
        if lo > 0:
            return Comparison.GREATER
    raise PrecisionExhausted(
        f"comparison of {x} and {y} undecided at {cap} bits"
    )


def _rounded(n: int, d: int, digits: int) -> str:
    """n/d rounded half away from zero to the given significant digits,
    written as mpmath's nstr writes it with strip_zeros=False."""
    q = Context(prec=digits, rounding=ROUND_HALF_UP).divide(n, d)
    if not q:
        return "0.0"
    sign = "-" if q.is_signed() else ""
    text = "".join(map(str, q.as_tuple().digits)).ljust(digits, "0")
    e = q.adjusted()
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            return f"{sign}0.{'0' * (-e - 1)}{text}"
        return f"{sign}{text[:e + 1]}.{text[e + 1:]}"
    return f"{sign}{text[0]}.{text[1:]}e{'+' if e > 0 else ''}{e}"


def _decided(box: Interval, digits: int):
    """The rounding both ends of an interval share, else None."""
    lo, hi = (_rounded(x.numerator, x.denominator, digits) for x in (box.lower, box.upper))
    return lo if lo == hi else None


def _float_of(box: Interval):
    """The double both ends of an interval round to, else None."""
    lo, hi = float(box.lower), float(box.upper)
    return lo if lo == hi else None


def _climb(enclosure, read, what: str):
    """The first reading read(enclosure(bits)) that is not None, up the
    precision ladder, or PrecisionExhausted at the cap."""
    cap = max_precision_bits()
    for bits in _precision_ladder(cap):
        result = read(enclosure(bits))
        if result is not None:
            return result
    raise PrecisionExhausted(f"cannot {what} within {cap} bits")


class Real:
    """A certified real number: the ``Fraction`` itself when it is known
    to be rational, otherwise a function from a working precision in bits
    to an ``Interval`` that contains it.

    ``exact`` is the ``Fraction`` or None.  A Real has no arithmetic and
    no comparisons: read it with ``interval``, ``float`` or ``decimal_of``.
    """

    __slots__ = ("exact", "_enclosure")

    def __init__(self, value):
        if isinstance(value, (int, Fraction)):
            exact, enclosure = Fraction(value), None
        elif callable(value):
            exact, enclosure = None, value
        else:
            raise TypeError(f"a Real is a rational or an enclosure, got {type(value).__name__}")
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_enclosure", enclosure)

    def __setattr__(self, name, value):
        raise AttributeError("Real is immutable")

    def interval(self, bits: int) -> Interval:
        """An interval containing the number, at the given working precision."""
        if self.exact is not None:
            return Interval.of(self.exact, bits)
        return self._enclosure(bits)

    def __float__(self) -> float:
        """The correctly rounded double."""
        if self.exact is not None:
            return float(self.exact)
        return _climb(self._enclosure, _float_of, "round to a float")

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"Real({self.exact})"
        return f"Real({self.interval(FIRST_BITS)!r})"


def decimal_of(value, digits: int = 30) -> str:
    """A rational, an ExactEntropy or a Real rounded to the given
    significant digits, in mpmath's nstr format with trailing zeros kept.

    Rationals round exactly; any other number's intervals are evaluated
    up the ladder until both ends round alike (Ziv's test), so every
    printed digit is certified, or PrecisionExhausted is raised at the cap.
    """
    if isinstance(value, ExactEntropy):
        value = Real(value._v if value.is_rational else value.interval)
    elif isinstance(value, (int, Fraction)):
        value = Real(value)
    elif not isinstance(value, Real):
        raise TypeError(f"decimal_of cannot read a {type(value).__name__}")
    if value.exact is not None:
        return _rounded(value.exact.numerator, value.exact.denominator, digits)
    return _climb(value.interval, lambda box: _decided(box, digits), f"round to {digits} digits")


def power_ratio(x: ExactEntropy, y: ExactEntropy):
    """2^x / 2^y as a Fraction when it is rational, else None.

    It is rational exactly when the two coefficient forms are
    proportional, the same residues with one ratio of coefficients, as
    powers of two with distinct exponents in [0, 1) are linearly
    independent over the rationals.
    """
    dx, sx, tx = _form(x._v)
    dy, sy, ty = _form(y._v)
    if dx != dy or len(tx) != len(ty):
        return None
    m0, n0 = tx[0][1], ty[0][1]
    for (rx, m), (ry, n) in zip(tx, ty):
        if rx != ry or m * n0 != n * m0:
            return None
    return Fraction(m0, n0) * _fraction(1, sx - sy)
