"""Tests for exact entropy values and the interval comparator."""

import contextlib
import decimal
import hashlib
import math
from bisect import insort
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from eidothermo import exact
from eidothermo.exact import (
    MAX_BITS_ENV_VAR,
    Comparison,
    ExactEntropy,
    PrecisionExhausted,
    compare_entropy,
    FIRST_BITS,
    Interval,
    Real,
    decimal_of,
    max_precision_bits,
    power_ratio,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


def values(max_terms=5):
    return st.builds(
        ExactEntropy, st.lists(rationals, min_size=1, max_size=max_terms)
    )


def test_bit_state_merge():
    assert ExactEntropy([0, 0]).exponents == (Fraction(1),)


def test_cascading_merge():
    assert ExactEntropy([0, 0, 1]).exponents == (Fraction(2),)
    assert ExactEntropy([0, 0, 0, 0]).exponents == (Fraction(2),)


def test_merge_keeps_distinct_values():
    e = ExactEntropy([0, Fraction(1, 2)])
    assert e.exponents == (Fraction(0), Fraction(1, 2))


@given(rationals)
def test_equal_pair_merges_up(x):
    assert ExactEntropy([x, x]).exponents == (x + 1,)


@given(st.lists(rationals, min_size=1, max_size=6), st.randoms())
def test_canonical_form_order_insensitive(xs, rng):
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert ExactEntropy(xs) == ExactEntropy(shuffled)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_canonical_form_is_strictly_sorted(xs):
    exps = ExactEntropy(xs).exponents
    assert all(a < b for a, b in zip(exps, exps[1:]))


@given(st.integers(1, 200))
def test_count_of_units_is_log2(n):
    assert ExactEntropy([Fraction(0)] * n) == ExactEntropy.log2_of_int(n)


def test_log2_of_int_bits():
    assert ExactEntropy.log2_of_int(6).exponents == (Fraction(1), Fraction(2))
    assert ExactEntropy.log2_of_int(1).exponents == (Fraction(0),)
    with pytest.raises(ValueError):
        ExactEntropy.log2_of_int(0)


@given(st.integers(1, 64), st.integers(1, 64))
def test_addition_is_log_of_product(m, n):
    got = ExactEntropy.log2_of_int(m) + ExactEntropy.log2_of_int(n)
    assert got == ExactEntropy.log2_of_int(m * n)


def test_addition_of_rational_shift():
    e = ExactEntropy([0, 1]) + Fraction(1, 2)
    assert e.exponents == (Fraction(1, 2), Fraction(3, 2))


def test_log2_sum_of_powers_concatenates():
    parts = [ExactEntropy([0]), ExactEntropy([0])]
    assert ExactEntropy.log2_sum_of_powers(parts) == ExactEntropy([1])


def test_rationality_detection():
    assert ExactEntropy([Fraction(3, 2)]).is_rational
    assert ExactEntropy([Fraction(3, 2)]).as_fraction() == Fraction(3, 2)
    assert not ExactEntropy([0, Fraction(1, 2)]).is_rational
    with pytest.raises(ValueError):
        ExactEntropy([0, Fraction(1, 2)]).as_fraction()


def test_compare_examples():
    assert compare_entropy(ExactEntropy([0, 0]), ExactEntropy([1])) is Comparison.EQUAL
    # log2 3 > 3/2 because 3^2 > 2^3
    assert (
        compare_entropy(ExactEntropy([0, 1]), ExactEntropy([Fraction(3, 2)]))
        is Comparison.GREATER
    )
    v = ExactEntropy([Fraction(1, 3), 2])
    assert compare_entropy(v, v) is Comparison.EQUAL


@given(values(), values())
@settings(max_examples=80)
def test_compare_antisymmetric(x, y):
    forward = compare_entropy(x, y)
    backward = compare_entropy(y, x)
    assert forward.value == -backward.value


@given(values(), values())
@settings(max_examples=80)
def test_compare_matches_floats(x, y):
    fx, fy = float(x), float(y)
    got = compare_entropy(x, y)
    if abs(fx - fy) > 1e-9:
        assert got is (Comparison.LESS if fx < fy else Comparison.GREATER)
    else:
        assert got is Comparison.EQUAL


def test_ordering_operators():
    three = ExactEntropy([0, 1])
    assert ExactEntropy([1]) < three < ExactEntropy([2])
    assert three <= ExactEntropy([0, 1])
    assert ExactEntropy([2]) >= three


def test_decimal_against_independent_log():
    ctx = decimal.Context(prec=45)
    want = ctx.divide(ctx.ln(decimal.Decimal(3)), ctx.ln(decimal.Decimal(2)))
    got = decimal.Decimal(decimal_of(ExactEntropy([0, 1]), 30))
    assert abs(got - want) < decimal.Decimal("1e-28")


def test_decimal_pads_exact_values():
    assert decimal_of(ExactEntropy([0, 0]), 30) == "1." + "0" * 29


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 40))
@settings(max_examples=300)
def test_decimal_of_rationals_matches_nstr(x, digits):
    # A float is an exact dyadic rational, so nstr reads its exact value.
    want = mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
    assert decimal_of(Fraction(x), digits) == want


@pytest.mark.parametrize("value, text", [
    (Fraction(0), "0.0"),
    (Fraction(-3, 2), "-1.50000000000000000000000000000"),
    (Fraction(1, 10**9), "0.00000000100000000000000000000000000000"),
    (Fraction(1, 10**10), "1.00000000000000000000000000000e-10"),
    (Fraction(10**29), "100000000000000000000000000000."),
    (Fraction(10**30), "1.00000000000000000000000000000e+30"),
    (Fraction(10**30 - 1, 10**29) + Fraction(95, 10**31), "10.0000000000000000000000000000"),
])
def test_decimal_of_rational_formats(value, text):
    assert decimal_of(value, 30) == text
    assert decimal_of(ExactEntropy.from_rational(value), 30) == text


def test_interval_brackets_value():
    box = ExactEntropy([0, 1]).interval(128)
    assert float(box.lower) <= 1.584962500721156 <= float(box.upper)
    assert box.upper - box.lower < Fraction(1, 2**120)


def test_real_is_a_fraction_or_an_enclosure():
    third = Real(Fraction(1, 3))
    assert third.exact == Fraction(1, 3)
    assert Fraction(1, 3) in third.interval(FIRST_BITS)
    assert (float(third), decimal_of(third, 5)) == (1 / 3, "0.33333")
    assert type(Real(2).exact) is Fraction
    log3 = ExactEntropy([0, 1])
    real = Real(log3.interval)
    assert real.exact is None
    assert real.interval(256).lower == log3.interval(256).lower
    assert float(real) == float(log3)
    assert decimal_of(real) == decimal_of(log3)
    assert repr(Real(Fraction(-1, 2))) == "Real(-1/2)"
    for bad in ("1/2", 0.5, None):
        with pytest.raises(TypeError):
            Real(bad)


def test_real_is_immutable_and_has_no_arithmetic():
    real = Real(1)
    with pytest.raises(AttributeError):
        real.exact = Fraction(2)
    for op in (lambda: real + real, lambda: real * 2, lambda: real < Real(2), lambda: -real):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("value", [
    lambda bits: Interval.of(Fraction(1, 3), bits),
    (Fraction(1, 3),),
    Interval.of(Fraction(1, 3), FIRST_BITS),
    0.5,
])
def test_decimal_of_reads_only_rationals_entropies_and_reals(value):
    with pytest.raises(TypeError):
        decimal_of(value)


def test_rational_values_always_decided(monkeypatch):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "128")
    x = ExactEntropy([Fraction(1, 3)])
    y = ExactEntropy([Fraction(1, 3) + Fraction(1, 2**200)])
    assert compare_entropy(x, y) is Comparison.LESS


def _pell_near_tie():
    """log2 p against log2 q + 1/2 for the first convergent p/q of sqrt 2
    with p >= 2^199: p^2 - 2q^2 = 1, so the values differ by about 2^-400."""
    p, q = 1, 1
    while p < 2**199:
        p, q = p + 2 * q, p + q
    return ExactEntropy.log2_of_int(p), ExactEntropy.log2_of_int(q) + Fraction(1, 2)


def test_precision_exhausted_on_tiny_gap(monkeypatch):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "128")
    x, y = _pell_near_tie()
    with pytest.raises(PrecisionExhausted):
        compare_entropy(x, y)


def test_wider_cap_resolves_tiny_gap(monkeypatch):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "512")
    x, y = _pell_near_tie()
    assert compare_entropy(x, y) is Comparison.GREATER
    assert compare_entropy(y, x) is Comparison.LESS


# -- the integer kernel against mpmath --------------------------------------

kernel_bits = st.sampled_from((64, 128, 256, 1024))
#: The kernel's guard bits only narrow its bounds, so the bounds must hold
#: without them too, where a missing error term shows.
guards = st.sampled_from((0, exact._GUARD))


@contextlib.contextmanager
def _guard_bits(guard):
    caches = (exact._pow2_bounds, exact._ln2, exact._ln_table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_GUARD", guard)
        for cache in caches:
            cache.cache_clear()
        try:
            yield
        finally:
            for cache in caches:
                cache.cache_clear()


@given(
    num=st.integers(1, 10**40),
    den_factor=st.integers(3, 10**6),
    p=kernel_bits,
    guard=guards,
)
@example(num=694, den_factor=52, p=256, guard=exact._GUARD)
@settings(max_examples=150, deadline=None)
def test_atanh_bounds_enclose_mpmath(num, den_factor, p, guard):
    den = num * den_factor // 3 + num * 3
    with _guard_bits(guard):
        lo, hi = exact._atanh(num, den, p)
    with mpmath.workprec(p + 200):
        value = mpmath.atanh(mpmath.mpf(num) / den) * mpmath.mpf(2) ** p
    assert lo <= value <= hi
    if guard:
        # Less than one unit apart before the floor and the ceiling.
        assert hi - lo <= 2


def _atanh_reference(z: Fraction, p: int) -> tuple:
    """Fractions below and above 2^p * atanh(z) for 0 <= z <= 1/3, less
    than 2^-64 apart: a partial sum of the series, and that plus a bound
    z^(2k+1) / (1 - z^2) on the rest."""
    z2, power, total, k = z * z, z, Fraction(0), 0
    while power / (1 - z2) >= Fraction(1, 2 ** (p + 64)):
        total += power / (2 * k + 1)
        power *= z2
        k += 1
    return total * 2**p, (total + power / (1 - z2)) * 2**p


@given(
    den=st.integers(3, 2**300),
    share=st.integers(0, 2**64),
    p=st.integers(1, 48),
    guard=guards,
)
@example(den=2**300 - 1, share=2**64, p=1, guard=0)
@settings(max_examples=150, deadline=None)
def test_atanh_rounds_wide_operands_outward(den, share, p, guard):
    # A den^2 wider than p + guard bits takes the path that rounds z^2.
    num = (den // 3) * share >> 64
    with _guard_bits(guard):
        lo, hi = exact._atanh(num, den, p)
    below, above = _atanh_reference(Fraction(num, den), p)
    assert lo <= below and above <= hi


@given(
    bits=kernel_bits,
    d=st.one_of(st.sampled_from((2, 3, 7, 240240, 2**16)), st.integers(2, 10**6)),
    guard=guards,
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_pow2_bounds_enclose_mpmath(bits, d, guard, data):
    r = data.draw(st.integers(1, d - 1))
    g = math.gcd(r, d)
    r, d = r // g, d // g
    with _guard_bits(guard):
        lo, hi = exact._pow2_bounds(bits, r, d)
    with mpmath.workprec(bits + 200):
        value = mpmath.mpf(2) ** (bits + mpmath.mpf(r) / d)
    assert lo <= value <= hi
    if guard:
        assert hi - lo <= 3


def test_pow2_bounds_at_the_cap():
    # The least common denominator of 1/16, 1/15, 1/13, 1/11 and 1/7.
    for r, d in ((1, 240240), (240239, 240240), (1, 2**16), (1, 3)):
        lo, hi = exact._pow2_bounds(4096, r, d)
        with mpmath.workprec(4096 + 64):
            value = mpmath.mpf(2) ** (4096 + mpmath.mpf(r) / d)
        assert lo <= value <= hi and hi - lo <= 3


@given(
    m=st.integers(1, 2**300),
    e=st.integers(-2000, 2000),
    p=kernel_bits,
    guard=guards,
)
@settings(max_examples=150, deadline=None)
def test_log2_bounds_enclose_mpmath(m, e, p, guard):
    with _guard_bits(guard):
        lo, hi = exact._log2_bounds(m, e, p)
    with mpmath.workprec(p + 400):
        value = (mpmath.log(mpmath.mpf(m), 2) + e) * mpmath.mpf(2) ** p
    assert lo <= value <= hi
    if guard:
        assert hi - lo <= 4


def _no_ladder(cap):
    raise AssertionError("the comparison climbed the ladder")


def test_mixed_signs_decided_by_coefficient_bounds(monkeypatch):
    monkeypatch.setattr(exact, "_precision_ladder", _no_ladder)
    # 0 against log2(2^(1/4) + 2^(1/2)) leaves {0: +1, 1/4: -1, 1/2: -1},
    # at most 1 - 1 - 1 < 0 as every 2^f is at least 1.
    zero = ExactEntropy.from_rational(0)
    two = ExactEntropy([Fraction(1, 4), Fraction(1, 2)])
    assert compare_entropy(zero, two) is Comparison.LESS
    assert compare_entropy(two, zero) is Comparison.GREATER
    # log2 3 against 3/2 leaves {0: 3, 1/2: -2}, at least 3 - 2 * 3/2 = 0
    # with 2^(1/2) < 1 + 1/2, so the difference is positive.
    three = ExactEntropy.log2_of_int(3)
    assert compare_entropy(three, ExactEntropy.from_rational(Fraction(3, 2))) is Comparison.GREATER


def test_power_ratio_is_exact_on_proportional_forms():
    x = ExactEntropy([Fraction(1, 3), Fraction(5, 6)])
    assert power_ratio(x + 2, x) == 4
    assert power_ratio(x, x + ExactEntropy.log2_of_int(3)) == Fraction(1, 3)
    assert power_ratio(ExactEntropy([Fraction(1, 3)]), ExactEntropy([Fraction(-5, 3)])) == 4
    # Different residues, or one residue with another coefficient ratio.
    assert power_ratio(x, ExactEntropy([Fraction(1, 3)])) is None
    assert power_ratio(x, ExactEntropy([Fraction(1, 3), Fraction(5, 6), Fraction(5, 6)])) is None
    assert power_ratio(ExactEntropy([0]), ExactEntropy([0, Fraction(1, 2)])) is None


def test_gap_at_residue_zero_is_exact(monkeypatch):
    # Both values lie at residue 0 and differ by 2^-300 in their powers:
    # the difference is an exact rational, decided at any cap.
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "128")
    x = ExactEntropy([0, 1])
    y = ExactEntropy([0, 1, Fraction(-300)])
    assert compare_entropy(x, y) is Comparison.LESS


def _forbid_intervals(monkeypatch):
    """Make every bound of 2^f and of log2, and so every interval, fail."""
    def no_intervals(*args):
        raise AssertionError("an interval was evaluated")

    monkeypatch.setattr(exact, "_pow2_bounds", no_intervals)
    monkeypatch.setattr(exact, "_log2_bounds", no_intervals)


def test_integer_logs_compare_without_intervals(monkeypatch):
    _forbid_intervals(monkeypatch)
    x = ExactEntropy.log2_of_int(10**300)
    y = ExactEntropy.log2_of_int(10**300 + 1)
    assert compare_entropy(x, y) is Comparison.LESS
    assert compare_entropy(y + Fraction(1, 3), x + Fraction(1, 3)) is Comparison.GREATER


def test_multiple_of_three_residues():
    # Double-and-add over pairwise exponent sums took about a second here.
    value = ExactEntropy([0, Fraction(1, 3), Fraction(7, 2)]) * 32
    assert len(value.exponents) == 324
    digest = hashlib.sha256(repr(value).encode()).hexdigest()
    assert digest == "4951c3e8a22331ca0faf5662c55523204eaa54c854e6ca95ae70391ac4a7d31e"


def test_max_bits_env_validation(monkeypatch):
    monkeypatch.delenv(MAX_BITS_ENV_VAR, raising=False)
    assert max_precision_bits() == 4096
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        max_precision_bits()
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "64")
    with pytest.raises(ValueError):
        max_precision_bits()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ExactEntropy([])
    with pytest.raises(TypeError):
        ExactEntropy([0.5])


def test_immutability():
    e = ExactEntropy([0])
    with pytest.raises(AttributeError):
        e._exponents = ()


# -- differential tests against the exponent-multiset reference ---------
#
# The reference is the representation this module used before coefficient
# forms, as plain functions on tuples of Fractions: canonical exponent
# tuples built by sorting and merging equal pairs upward, sums as all
# pairwise exponent sums, multiples by double-and-add, and comparisons by
# one interval power of two per exponent and a logarithm.

def ref_canonical(exponents):
    items = sorted(Fraction(x) for x in exponents)
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


def ref_add(xs, ys):
    return ref_canonical(a + b for a in xs for b in ys)


def ref_shift(xs, q):
    return ref_canonical(x + q for x in xs)


def ref_mul(xs, n):
    result = None
    power = xs
    while n:
        if n & 1:
            result = power if result is None else ref_add(result, power)
        n >>= 1
        if n:
            power = ref_add(power, power)
    return result


def ref_sum_of_powers(parts):
    return ref_canonical(x for xs in parts for x in xs)


def _ref_log2(bits, xs):
    ctx = MPIntervalContext()
    ctx.prec = bits
    total = ctx.mpf(0)
    for x in xs:
        total += ctx.mpf(2) ** (ctx.mpf(x.numerator) / ctx.mpf(x.denominator))
    return ctx.log(total) / ctx.log(2)


def ref_compare(xs, ys, cap=4096):
    """-1, 0 or 1; None when the intervals still overlap at the cap."""
    if xs == ys:
        return 0
    if len(xs) == 1 and len(ys) == 1:
        return -1 if xs[0] < ys[0] else 1
    bits = 128
    while True:
        ix, iy = _ref_log2(bits, xs), _ref_log2(bits, ys)
        if ix.b < iy.a:
            return -1
        if iy.b < ix.a:
            return 1
        if bits >= cap:
            return None
        bits = min(2 * bits, cap)


def ref_decimal(xs, digits=30):
    bits = 128
    while True:
        box = _ref_log2(bits, xs)
        with mpmath.workprec(bits):
            lo, hi = mpmath.mpf(box.a), mpmath.mpf(box.b)
            scale = max(abs(lo), abs(hi), mpmath.mpf(1))
            if hi - lo <= scale * mpmath.mpf(10) ** (-(digits + 5)):
                return mpmath.nstr((lo + hi) / 2, digits, strip_zeros=False)
        bits *= 2


wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
exponent_lists = st.lists(rationals, min_size=1, max_size=5)


def _assert_same(got, want_exponents):
    """got is the value whose canonical exponent tuple is want_exponents."""
    assert got.exponents == want_exponents
    assert all(type(e) is Fraction for e in got.exponents)
    assert got == ExactEntropy(want_exponents)
    assert hash(got) == hash(want_exponents)
    assert got.is_rational == (len(want_exponents) == 1)
    assert str(got) == "log2(" + " + ".join(f"2^{x}" for x in want_exponents) + ")"
    assert repr(got) == f"ExactEntropy([{', '.join(str(x) for x in want_exponents)}])"


@given(exponent_lists)
def test_constructor_matches_reference(xs):
    _assert_same(ExactEntropy(xs), ref_canonical(xs))


@given(wide_rationals, wide_rationals)
def test_rational_sum_closed_form(x, y):
    got = ExactEntropy([x]) + ExactEntropy([y])
    assert got.is_rational and got.as_fraction() == x + y
    _assert_same(got, ref_add((x,), (y,)))


@given(wide_rationals, st.integers(1, 200))
def test_rational_multiple_closed_form(x, n):
    value = ExactEntropy([x])
    assert (value * n).as_fraction() == n * x
    _assert_same(n * value, ref_mul((x,), n))


@given(exponent_lists, exponent_lists)
@settings(max_examples=80)
def test_general_sum_matches_reference(xs, ys):
    _assert_same(ExactEntropy(xs) + ExactEntropy(ys), ref_add(ref_canonical(xs), ref_canonical(ys)))


@given(exponent_lists, wide_rationals)
@settings(max_examples=80)
def test_rational_shift_matches_reference(xs, q):
    want = ref_shift(ref_canonical(xs), q)
    _assert_same(ExactEntropy(xs) + q, want)
    _assert_same(q + ExactEntropy(xs), want)
    _assert_same(ExactEntropy(xs) + ExactEntropy.from_rational(q), want)


@given(st.lists(rationals, min_size=1, max_size=3), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_general_multiple_matches_reference(xs, n):
    value = ExactEntropy(xs)
    want = ref_mul(ref_canonical(xs), n)
    _assert_same(value * n, want)
    _assert_same(n * value, want)


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=1, max_size=3),
       st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_multiple_matches_repeated_addition(xs, n):
    value = ExactEntropy(xs)
    total = value
    for _ in range(n - 1):
        total = total + value
    assert value * n == total
    assert n * value == total


@given(st.lists(exponent_lists, min_size=1, max_size=4))
def test_sum_of_powers_matches_reference(parts):
    canon = [ref_canonical(xs) for xs in parts]
    got = ExactEntropy.log2_sum_of_powers(ExactEntropy(xs) for xs in parts)
    _assert_same(got, ref_sum_of_powers(canon))


@given(st.integers(1, 2**80), st.integers(1, 2**80))
def test_log2_of_int_matches_reference(m, n):
    want = ref_canonical(i for i in range(m.bit_length()) if m >> i & 1)
    _assert_same(ExactEntropy.log2_of_int(m), want)
    assert compare_entropy(ExactEntropy.log2_of_int(m), ExactEntropy.log2_of_int(n)).value == (
        (m > n) - (m < n))


@given(exponent_lists, exponent_lists)
@settings(max_examples=150)
def test_compare_matches_reference(xs, ys):
    want = ref_compare(ref_canonical(xs), ref_canonical(ys))
    assert compare_entropy(ExactEntropy(xs), ExactEntropy(ys)).value == want


@given(exponent_lists, st.lists(rationals, min_size=0, max_size=3), exponent_lists)
@settings(max_examples=80)
def test_compare_shared_terms_matches_reference(common, extra, other):
    # Values sharing most terms: their difference cancels residue by residue.
    xs, ys = common + extra, common + other
    want = ref_compare(ref_canonical(xs), ref_canonical(ys))
    assert compare_entropy(ExactEntropy(xs), ExactEntropy(ys)).value == want


@given(exponent_lists, exponent_lists)
@settings(max_examples=80)
def test_equality_matches_reference(xs, ys):
    x, y = ExactEntropy(xs), ExactEntropy(ys)
    same = ref_canonical(xs) == ref_canonical(ys)
    assert (x == y) is same
    assert (compare_entropy(x, y) is Comparison.EQUAL) is same
    if same:
        assert hash(x) == hash(y)


@given(exponent_lists)
@settings(max_examples=40, deadline=None)
def test_decimal_matches_reference(xs):
    assert decimal_of(ExactEntropy(xs), 30) == ref_decimal(ref_canonical(xs), 30)


# -- the enclosure and the floor against the interval reference ----------

wide_exponent_lists = st.one_of(
    exponent_lists, st.lists(wide_rationals, min_size=1, max_size=4)
)


def _endpoints(box, bits):
    """The ends of an mpmath interval, or of an exact.Interval, as mpf."""
    if isinstance(box, exact.Interval):
        return tuple(_mpf(x) for x in (box.lower, box.upper))
    with mpmath.workprec(bits):
        return mpmath.mpf(box.a), mpmath.mpf(box.b)


def _mpf(x):
    """A dyadic Fraction as an mpf, exactly."""
    with mpmath.workprec(max(53, x.numerator.bit_length())):
        return mpmath.mpf(x.numerator) / x.denominator


@given(wide_exponent_lists)
@settings(max_examples=60, deadline=None)
def test_interval_matches_reference(xs):
    value, ref = ExactEntropy(xs), ref_canonical(xs)
    for bits in (64, 128, 192):
        lo, hi = _endpoints(value.interval(bits), bits)
        ref_lo, ref_hi = _endpoints(_ref_log2(bits, ref), bits)
        # Both enclose the value, so they meet.
        assert lo <= ref_hi and ref_lo <= hi
        with mpmath.workprec(bits):
            assert hi - lo <= mpmath.mpf(2) ** (8 - bits) * max(1, abs(lo), abs(hi))


def _reference(xs):
    """log2 of the sum of 2^x as the midpoint of a 2,048-bit interval."""
    ref_lo, ref_hi = _endpoints(_ref_log2(2048, xs), 2048)
    with mpmath.workprec(2048):
        return (ref_lo + ref_hi) / 2


def _reference_float(xs) -> float:
    """The double nearest the 2,048-bit value: its exact rational, then
    Fraction's correct rounding."""
    return float(Fraction(*to_rational(_reference(xs)._mpf_)))


# ref_decimal accepts a 128-bit interval once it is narrower than
# 10^-35, which near 0 can be twice the value (log2(1 + 2^-129)), so the
# digits are held to the 2,048-bit value here.
@given(wide_exponent_lists)
@example([Fraction(0), Fraction(-129)])
@settings(max_examples=60, deadline=None)
def test_float_and_decimal_match_reference(xs):
    value, ref = ExactEntropy(xs), ref_canonical(xs)
    if value.is_rational:
        assert float(value) == float(value.as_fraction())
    else:
        assert float(value) == _reference_float(ref)
    with mpmath.workprec(2048):
        assert decimal_of(value, 30) == mpmath.nstr(_reference(ref), 30, strip_zeros=False)


#: Halfway between the doubles 1.5 and 1.5 + 2^-52.
HALFWAY = Fraction(3, 2) + Fraction(1, 2**53)


@pytest.mark.parametrize("xs, want", [
    # log2(2^h + 2^(h - k)) = h + log2(1 + 2^-k), just above the halfway
    # point h: it rounds up, though a float read from the 128-bit
    # rung's midpoint would round to even when k = 200.
    ((HALFWAY, HALFWAY - 100), 1.5 + 2**-52),
    ((HALFWAY, HALFWAY - 200), 1.5 + 2**-52),
    # Just below it: rounds down.
    ((HALFWAY - Fraction(1, 2**90), HALFWAY - Fraction(1, 2**90) - 100), 1.5),
    # Exact values round as their Fractions: the halfway point itself to
    # even, and [x, x] is x + 1.
    ((HALFWAY,), 1.5),
    ((Fraction(1, 3), Fraction(1, 3)), float(Fraction(4, 3))),
])
def test_float_is_correctly_rounded_near_halfway(xs, want):
    value = ExactEntropy(xs)
    assert float(value) == want
    assert float(Real(value.interval)) == want
    if not value.is_rational:
        assert _reference_float(ref_canonical(xs)) == want


@given(wide_exponent_lists)
@settings(max_examples=100, deadline=None)
def test_floor_matches_reference(xs):
    value = ExactEntropy(xs)
    lo, hi = _endpoints(_ref_log2(512, ref_canonical(xs)), 512)
    assert int(mpmath.floor(lo)) <= value.floor() <= int(mpmath.floor(hi))
    if value.is_rational:
        assert value.floor() == math.floor(value.as_fraction())


def test_floor_pinned_cases():
    for k in range(1, 301):
        assert ExactEntropy.log2_of_int(2**k).floor() == k
        assert ExactEntropy.log2_of_int(2**k + 1).floor() == k
        assert ExactEntropy.log2_of_int(2**k - 1).floor() == k - 1
        if k >= 3:
            # k - 1/3 < log2(2^k - 1) < k
            assert (ExactEntropy.log2_of_int(2**k - 1) + Fraction(1, 3)).floor() == k
    assert ExactEntropy([-3, Fraction(-7, 2)]).floor() == -3
    assert ExactEntropy([Fraction(-1, 3), Fraction(-1, 2)]).floor() == 0
    assert ExactEntropy([-5, -6]).floor() == -5
    assert ExactEntropy.from_rational(Fraction(-7, 3)).floor() == -3
    assert ExactEntropy.from_rational(Fraction(7, 3)).floor() == 2
    assert ExactEntropy.from_rational(-5).floor() == -5
    assert ExactEntropy.from_rational(0).floor() == 0
    assert ExactEntropy.from_rational(5).floor() == 5


def test_from_rational_keeps_a_fraction_and_converts_other_rationals():
    value = Fraction(7, 3)
    assert ExactEntropy.from_rational(value).as_fraction() is value
    three = ExactEntropy.from_rational(3).as_fraction()
    assert type(three) is Fraction and three == 3
    assert ExactEntropy.from_rational(3) == ExactEntropy([3])
