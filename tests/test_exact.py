"""Tests for exact entropy values and the interval comparator."""

import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_precision_exhausted_on_tiny_gap(monkeypatch):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "128")
    x = ExactEntropy([0, 1])
    y = ExactEntropy([0, 1, Fraction(-300)])
    with pytest.raises(PrecisionExhausted):
        compare_entropy(x, y)


def test_wider_cap_resolves_tiny_gap(monkeypatch):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, "512")
    x = ExactEntropy([0, 1])
    y = ExactEntropy([0, 1, Fraction(-300)])
    assert compare_entropy(x, y) is Comparison.LESS


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


# -- rational closed forms against the general path ---------------------

wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


def _reference_add(x, y):
    """The general sum: every pairwise exponent sum, canonicalized."""
    return ExactEntropy(a + b for a in x.exponents for b in y.exponents)


def _reference_mul(x, n):
    """n * x by double-and-add over the general sum."""
    result = None
    power = x
    while n:
        if n & 1:
            result = power if result is None else _reference_add(result, power)
        n >>= 1
        if n:
            power = _reference_add(power, power)
    return result


def _assert_same(got, want):
    assert got == want
    assert got.exponents == want.exponents
    assert all(type(e) is Fraction for e in got.exponents)
    assert hash(got) == hash(want)


@given(wide_rationals, wide_rationals)
def test_rational_sum_closed_form(x, y):
    got = ExactEntropy([x]) + ExactEntropy([y])
    _assert_same(got, ExactEntropy([x + y]))
    _assert_same(got, _reference_add(ExactEntropy([x]), ExactEntropy([y])))


@given(wide_rationals, st.integers(1, 200))
def test_rational_multiple_closed_form(x, n):
    value = ExactEntropy([x])
    _assert_same(value * n, ExactEntropy([n * x]))
    _assert_same(n * value, _reference_mul(value, n))


@given(values(), values())
@settings(max_examples=80)
def test_general_sum_matches_reference(x, y):
    _assert_same(x + y, _reference_add(x, y))


@given(values(max_terms=3), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_general_multiple_matches_reference(x, n):
    _assert_same(x * n, _reference_mul(x, n))
