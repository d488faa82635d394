"""Exact rational arithmetic, p-adic valuations and extended binomials.

Every quantity in this package is an ``ExactRational`` (an alias of
``fractions.Fraction``): arbitrary precision, always in lowest terms with a
positive denominator, and with exact field operations.  Nothing in the
package ever rounds.

Exact answers have no natural size limit, so one digit budget,
``MAX_DIGITS``, bounds every number the package reads, computes toward or
prints, and every rule for it lives here: ``require_digits`` refuses a
number past it, ``power_may_fit`` refuses a power that would certainly pass
it before the power is taken, and ``require_numeral`` refuses such a number
in input text before it is read.  One value budget, ``MAX_VALUES``, bounds
how many values one answer holds, and ``require_values`` refuses a larger
answer before its first value is computed.  One integer rule,
``require_int``, takes every height, count, order and degree in the
package: an int, not a bool, at least its bound.  ``is_prime`` is exact
and quick below about 3.3 * 10^24 and refuses larger numbers.

The package has one infinity, ``math.inf``: ``vp(0)`` is ``INFINITE``,
which is ``math.inf``, and so is the connectivity of a contractible space.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError, ResourceBudgetError

ExactRational = Fraction

# The one digit budget: the largest number, in decimal digits of its
# numerator or denominator, that the package reads, computes toward or
# prints (CPython's default limit on int <-> str conversion).
MAX_DIGITS = 4300

# The one value budget: the most exact values one answer may hold.  Each
# value is held to the digit budget on its own, but a profile or a table of
# small values grows with its range and no digit budget stops it.
MAX_VALUES = 2 ** 17

RationalLike = int | Fraction


# the valuation of 0, which exceeds every integer
INFINITE = math.inf

Valuation = int | float


# Miller-Rabin to the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)); at it, it is refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division by the 13 Miller-Rabin bases,
    which answers every n below 43^2, then Miller-Rabin to those bases.
    Refused at or above ``_MR_BOUND``, where the test is no longer exact."""
    if require_int(n, "a primality candidate") < 2:
        return False
    if n >= _MR_BOUND:
        raise ResourceBudgetError(f"primality is decided only below {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fits_digits(k: int) -> bool:
    """Whether k has at most MAX_DIGITS decimal digits."""
    # below 3 bits per digit k fits; only near the limit is the power of ten
    # built
    return k.bit_length() <= 3 * MAX_DIGITS or abs(k) < 10 ** MAX_DIGITS


def require_digits(k: int, what: str) -> int:
    """Return k, or refuse it if it has more than MAX_DIGITS decimal digits."""
    if not fits_digits(k):
        raise ResourceBudgetError(f"{what} exceeds the {MAX_DIGITS}-digit budget")
    return k


def require_values(count: int, what: str) -> int:
    """Return count, or refuse an answer of more than MAX_VALUES values,
    before the first of them is computed."""
    if count > MAX_VALUES:
        raise ResourceBudgetError(f"{what} exceeds the {MAX_VALUES}-value budget")
    return count


def power_may_fit(base: int, exponent: int, over: int = 1) -> bool:
    """False when base**exponent / over (base >= 0, exponent >= 0, over >= 1)
    certainly has more than MAX_DIGITS digits, decided without taking the
    power, so that a caller can refuse before it would run for minutes."""
    # an int compares with a float exactly, so no exponent can overflow here
    return base <= 1 or exponent < (MAX_DIGITS + math.log10(over)) / math.log10(base)


def require_numeral(text: str, what: str) -> str:
    """Return the text of a number, or refuse it by the digit budget before
    int() or Fraction() reads it: a run of more than MAX_DIGITS digits (int()
    raises ValueError past CPython's limit), or an exponent past MAX_DIGITS
    (Fraction() takes the power of ten before anything else)."""
    for exp, digits in re.findall(r"([eE][-+]?)?(\d[\d_]*)", text):
        if len(digits.replace("_", "")) > MAX_DIGITS or (exp and int(digits) > MAX_DIGITS):
            raise ResourceBudgetError(f"{what} exceeds the {MAX_DIGITS}-digit budget")
    return text


def _is_int(x) -> bool:
    """Whether ``x`` is an int and not a bool.  ``3.0 == 3`` and ``True == 1``
    pass every range check an int passes, so a size, order or prime taken
    without this test can carry a float or a bool into an exact answer."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(value: int, what: str, low: int | None = None) -> int:
    """Return value, or refuse it unless it is an int, not a bool, and (when
    ``low`` is given) at least ``low``: the one rule for every height,
    count, order and degree the package takes."""
    if not _is_int(value):
        raise InputError(f"{what} must be an int, got {value!r}")
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    return value


def require_prime(p: int) -> int:
    if not _is_int(p) or not is_prime(p):
        raise InputError(f"expected a prime, got {p!r}")
    return p


def _int_valuation(n: int, p: int) -> int:
    """The exponent of p in n != 0.  p, p^2, p^4, ... are divided out while
    each divides, then the powers are walked back down, so a valuation v
    costs about 2 log2(v) divisions, and an n prime to p one."""
    n = abs(n)
    if n % p:
        return 0
    v, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << len(powers) - 1
        powers.append(powers[-1] * powers[-1])
    for i in reversed(range(len(powers) - 1)):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def vp(x: RationalLike, p: int) -> Valuation:
    """p-adic valuation of a rational, extended by vp(0) = INFINITE, which
    is ``math.inf``.

    For x = a/b in lowest terms, vp(x) = vp(a) - vp(b).
    """
    require_prime(p)
    x = Fraction(x if isinstance(x, Fraction) else require_int(x, "a non-Fraction value"))
    if x == 0:
        return INFINITE
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def binom_ext(n: int, k: int) -> int:
    """Binomial coefficient extended to the row n = -1.

    For n >= 0 this is the ordinary C(n, k) (zero when k > n); the extra row
    is C(-1, k) = (-1)**k, the unique extension satisfying Pascal's rule at
    n = 0.
    """
    require_int(k, "k", 0)
    if require_int(n, "n", -1) == -1:
        return -1 if k % 2 else 1
    return math.comb(n, k)
