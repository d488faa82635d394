from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pifinite import INFINITE, InputError, ResourceBudgetError, binom_ext, vp
from pifinite.rationals import MAX_DIGITS, require_digits


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
    @pytest.mark.parametrize("max_digits", [1, 15, MAX_DIGITS])
    def test_boundary(self, max_digits):
        top = 10 ** max_digits
        assert require_digits(1 - top, "x", max_digits) == 1 - top
        for k in (top, -top):
            with pytest.raises(ResourceBudgetError, match=f"x exceeds the {max_digits}-digit"):
                require_digits(k, "x", max_digits)

    def test_default_is_the_print_budget(self):
        assert require_digits(10 ** MAX_DIGITS - 1, "x") == 10 ** MAX_DIGITS - 1
        with pytest.raises(ResourceBudgetError):
            require_digits(10 ** MAX_DIGITS, "x")
