import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pifinite import INFINITE, PT, InputError, ResourceBudgetError, binom_ext, connectivity, vp
from pifinite.rationals import (MAX_DIGITS, _int_valuation, fits_digits, is_prime,
                                power_may_fit, require_digits, require_int, require_numeral,
                                require_prime)


def division_loop_valuation(n: int, p: int) -> int:
    """Oracle: divide by p once per power."""
    v, n = 0, abs(n)
    while n % p == 0:
        n, v = n // p, v + 1
    return v


class TestValuation:
    def test_integer_valuation(self):
        assert vp(18, 3) == 2
        assert vp(-48, 2) == 4
        assert vp(7, 5) == 0

    def test_rational_valuation_is_num_minus_den(self):
        assert vp(Fraction(2, 3), 2) == 1
        assert vp(Fraction(2, 3), 3) == -1
        assert vp(Fraction(9, 8), 2) == -3

    def test_zero_is_infinite(self):
        v = vp(0, 5)
        assert v == INFINITE
        assert v > 10 ** 100
        assert not v < 0
        assert v >= 0

    def test_zero_is_the_one_infinity(self):
        for p in (2, 3, 5):
            assert vp(0, p) == INFINITE == connectivity(PT) == math.inf
            assert vp(0, p) > 10 ** 4300

    def test_int_valuation_matches_division_loop(self):
        rng = random.Random(5)
        for _ in range(2000):
            p = rng.choice((2, 3, 5, 7, 11))
            n = rng.choice((1, -1)) * rng.randrange(1, 10 ** 6) * p ** rng.randrange(301)
            assert _int_valuation(n, p) == division_loop_valuation(n, p)

    def test_large_valuation_by_squaring(self):
        # the division loop took 2.4 s here
        start = time.perf_counter()
        assert vp(2 ** 100000 * 3, 2) == 100000
        assert time.perf_counter() - start < 0.1

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            vp(10, 4)
        with pytest.raises(InputError):
            vp(10, 1)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(bool),
           st.integers(min_value=-10**6, max_value=10**6).filter(bool),
           st.sampled_from([2, 3, 5, 7]))
    def test_multiplicative(self, x, y, p):
        assert vp(x * y, p) == vp(x, p) + vp(y, p)

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=10**4).filter(bool),
           st.fractions(min_value=-100, max_value=100, max_denominator=10**4).filter(bool),
           st.sampled_from([2, 3, 5]))
    def test_ultrametric(self, x, y, p):
        if x + y == 0:
            return
        vx, vy = vp(x, p), vp(y, p)
        assert vp(x + y, p) >= min(vx, vy)
        if vx != vy:
            assert vp(x + y, p) == min(vx, vy)


class TestBinomExt:
    def test_ordinary_values(self):
        assert binom_ext(3, 2) == 3
        assert binom_ext(2, 5) == 0
        assert binom_ext(0, 0) == 1

    def test_minus_one_row_alternates(self):
        assert [binom_ext(-1, k) for k in range(6)] == [1, -1, 1, -1, 1, -1]

    def test_below_minus_one_rejected(self):
        with pytest.raises(InputError):
            binom_ext(-2, 0)
        with pytest.raises(InputError):
            binom_ext(1, -1)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
    def test_pascal(self, n, k):
        assert binom_ext(n, k) == binom_ext(n - 1, k) + binom_ext(n - 1, k - 1)


class TestRequireDigits:
    @pytest.mark.parametrize("max_digits", [MAX_DIGITS])
    def test_boundary(self, max_digits):
        top = 10 ** max_digits
        assert require_digits(1 - top, "x") == 1 - top
        for k in (top, -top):
            with pytest.raises(ResourceBudgetError, match=f"x exceeds the {max_digits}-digit"):
                require_digits(k, "x")

    def test_one_budget(self):
        with pytest.raises(TypeError):
            require_digits(10, "x", 1)
        with pytest.raises(TypeError):
            require_digits(10, "x", max_digits=1)

    def test_default_is_the_print_budget(self):
        assert require_digits(10 ** MAX_DIGITS - 1, "x") == 10 ** MAX_DIGITS - 1
        with pytest.raises(ResourceBudgetError):
            require_digits(10 ** MAX_DIGITS, "x")


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    @given(st.integers(min_value=-10, max_value=10 ** 6))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == _trial_division(n)

    def test_small_numbers(self):
        assert [n for n in range(50) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    @pytest.mark.parametrize("n", [
        561,                            # a Carmichael number
        3825123056546413051,            # a strong pseudoprime to the bases 2..23
        318665857834031151167461,       # a strong pseudoprime to the bases 2..37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(10 ** 18 + 3)
        assert not is_prime(10 ** 18 + 1)

    def test_refused_where_the_bases_stop_being_exact(self):
        bound = 3317044064679887385961981
        assert not is_prime(bound - 1)
        for n in (bound, bound + 2, 10 ** 5000):
            with pytest.raises(ResourceBudgetError, match="primality"):
                is_prime(n)


class TestPowerPrecheck:
    def test_exact_for_the_em_atom(self):
        # 2^14284 has 4300 digits and 2^14285 has 4301
        assert power_may_fit(2, 14284) and fits_digits(2 ** 14284)
        assert not power_may_fit(2, 14285) and not fits_digits(2 ** 14285)
        assert power_may_fit(1, 10 ** 500) and power_may_fit(0, 10 ** 500)
        # an exponent past any float compares exactly
        assert not power_may_fit(2, 10 ** 500)

    def test_divisor(self):
        # 10^4305 / 10^5 has 4301 digits; 10^4304 / 10^5 has 4300
        assert not power_may_fit(10, 4305, 10 ** 5)
        assert power_may_fit(10, 4304, 10 ** 5)


class TestNumerals:
    def test_within_budget(self):
        for text in ("7" * MAX_DIGITS, "-12/35", "1.5e3", "2e-4300", "1_000"):
            assert require_numeral(text, "x") == text

    @pytest.mark.parametrize("text", ["7" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1),
                                      "1e4301", "1E-4301", "7_" * MAX_DIGITS + "7"])
    def test_past_budget(self, text):
        with pytest.raises(ResourceBudgetError, match=f"x exceeds the {MAX_DIGITS}-digit budget"):
            require_numeral(text, "x")


NON_INTS = [2.5, 2.0, True, "3"]


class TestIntegerInputs:
    """One rule, ``require_int``, takes every integer argument: a non-bool
    int at least its bound.  ``3.0 == 3`` and ``True == 1`` pass every range
    check an int passes, so each is refused by type first."""

    @pytest.mark.parametrize("value", NON_INTS, ids=repr)
    @pytest.mark.parametrize("call", [
        is_prime, lambda v: binom_ext(v, 1), lambda v: binom_ext(3, v), require_prime,
        lambda v: vp(12, v), lambda v: require_int(v, "x"), lambda v: require_int(v, "x", 0),
    ], ids=["is_prime", "binom_ext n", "binom_ext k", "require_prime", "vp prime",
            "require_int", "require_int with a bound"])
    def test_non_ints_refused(self, call, value):
        with pytest.raises(InputError):
            call(value)

    def test_messages(self):
        with pytest.raises(InputError, match=r"^count must be an int, got 2\.0$"):
            require_int(2.0, "count", 0)
        with pytest.raises(InputError, match="^count must be an int, got True$"):
            require_int(True, "count")
        with pytest.raises(InputError, match="^count must be >= 0, got -1$"):
            require_int(-1, "count", 0)
        assert require_int(-5, "m") == -5 and require_int(0, "count", 0) == 0

    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_is_prime_takes_only_ints(self, n):
        # both answered True
        with pytest.raises(InputError):
            is_prime(n)


class TestRationalInputs:
    """A rational argument is an int or a Fraction: anything else would be
    converted, a float to the binary fraction nearest it."""

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "3"], ids=repr)
    def test_vp_refuses_non_rationals(self, value):
        with pytest.raises(InputError):
            vp(value, 5)

    def test_float_valuation_refused(self):
        # 0.1 is 3602879701896397/2^55, whose 5-adic valuation 0 was answered
        # for 1/10, whose valuation is -1
        with pytest.raises(InputError, match=r"^a non-Fraction value must be an int, got 0\.1$"):
            vp(0.1, 5)
        assert vp(Fraction(1, 10), 5) == -1 and vp(10, 5) == 1
