"""Exact rational arithmetic, p-adic valuations and extended binomials.

Every quantity in this package is an ``ExactRational`` (an alias of
``fractions.Fraction``): arbitrary precision, always in lowest terms with a
positive denominator, and with exact field operations.  Nothing in the
package ever rounds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

from .errors import InputError, ResourceBudgetError

ExactRational = Fraction

# The largest answer, in decimal digits of its numerator or denominator, that
# the CLI prints (CPython's default limit on int -> str conversion);
# ``height_cardinality`` refuses an EM power past it before taking it.
MAX_DIGITS = 4300

RationalLike = Union[int, Fraction]


@functools.total_ordering
class _InfiniteValuation:
    """Valuation of zero.  Compares strictly greater than every integer."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InfiniteValuation)

    def __lt__(self, other: object) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("pifinite.INFINITE")

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = _InfiniteValuation()

Valuation = Union[int, _InfiniteValuation]


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (n is small in practice)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def require_digits(k: int, what: str, max_digits: int = MAX_DIGITS) -> int:
    """Return k, or refuse it if it has more than max_digits decimal digits."""
    # below 3 bits per digit k is in budget; only near the limit is the
    # power of ten built
    if k.bit_length() > 3 * max_digits and abs(k) >= 10 ** max_digits:
        raise ResourceBudgetError(f"{what} exceeds the {max_digits}-digit budget")
    return k


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"expected a prime, got {p!r}")
    return p


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: RationalLike, p: int) -> Valuation:
    """p-adic valuation of a rational, extended by vp(0) = INFINITE.

    For x = a/b in lowest terms, vp(x) = vp(a) - vp(b).
    """
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITE
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def binom_ext(n: int, k: int) -> int:
    """Binomial coefficient extended to the row n = -1.

    For n >= 0 this is the ordinary C(n, k) (zero when k > n); the extra row
    is C(-1, k) = (-1)**k, the unique extension satisfying Pascal's rule at
    n = 0.
    """
    if k < 0:
        raise InputError(f"binom_ext requires k >= 0, got k={k}")
    if n == -1:
        return -1 if k % 2 else 1
    if n < -1:
        raise InputError(f"binom_ext requires n >= -1, got n={n}")
    return math.comb(n, k)
