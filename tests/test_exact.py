"""Tests for exact entropy values and the interval comparator."""

import decimal
import hashlib
from bisect import insort
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from eidothermo import exact
from eidothermo.exact import (
    MAX_BITS_ENV_VAR,
    Comparison,
    ExactEntropy,
    PrecisionExhausted,
    compare_entropy,
    decimal_of,
    entropy_mpf,
    max_precision_bits,
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


def test_entropy_mpf_close():
    approx = entropy_mpf(ExactEntropy([0, 1]), 128)
    assert abs(float(approx) - 1.584962500721156) < 1e-12


def test_interval_brackets_value():
    box = ExactEntropy([0, 1]).interval(128)
    assert float(box.a) <= 1.584962500721156 <= float(box.b)


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


def test_gap_at_residue_zero_is_exact(monkeypatch):
    # Both values lie at residue 0 and differ by 2^-300 in their powers:
    # the difference is an exact rational, decided at any cap.
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "128")
    x = ExactEntropy([0, 1])
    y = ExactEntropy([0, 1, Fraction(-300)])
    assert compare_entropy(x, y) is Comparison.LESS


def test_integer_logs_compare_without_intervals(monkeypatch):
    def no_intervals(bits):
        raise AssertionError("an interval was evaluated")

    exact._pow2_bounds.cache_clear()
    monkeypatch.setattr(exact, "_context", no_intervals)
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
    assert ExactEntropy(xs).decimal(30) == ref_decimal(ref_canonical(xs), 30)
