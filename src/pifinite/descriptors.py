"""Group descriptors: the groups the text grammar names, as records, with
their orders, names and limits, and the count of commuting p-tuples each
gives without a table.

A descriptor is a cyclic group ``C_n``, a symmetric group ``S_m``, a
dihedral group ``D_2m`` (named by its order), a direct product, or a wreath
product ``G wr C_c``, C_c cycling c coordinates.  ``descriptor_order``
reads its order without building anything, ``descriptor_name`` prints it
in the grammar, and ``checked_order`` applies the limits on a table build:
the symmetric degree, ``MAX_SYMMETRIC_DEGREE``, and the order cap,
``DEFAULT_ORDER_CAP`` or ``PIFINITE_ORDER_CAP``, which one function reads.

``hom_count`` gives |Hom(Z_p^n, G)|, the number of pairwise-commuting
n-tuples of p-power-order elements, whose quotient by |G| is the height-n
cardinality of B(G) (Hopkins-Kuhn-Ravenel), from the descriptor alone:

* ``C_m``: q^n, for q the p-part of m;
* ``S_m``: the exponential formula (Wohlfahrt, *Arch. Math.* 29, 1977).
  Z_p^n has a_k = [n+k-1, k]_p subgroups of index p^k, the coefficient of
  x^k in prod_{i<n} 1/(1 - p^i x), and a map to S_m is its orbits, so
  N_m = sum_k (m-1)!/(m-p^k)! a_k N_{m-p^k}, the sum over the orbit of m;
* ``D_2m``: (the p-part of m)^n for odd p; at p = 2, with 2^a the 2-part
  of m, 2^(an) + m (2^n - 1) for odd m and 2^(an) + (m/2)(4^n - 2^n) for
  even m, a tuple that holds a reflection lying in its centralizer;
* ``G x H``: the product of the factors' counts;
* ``G wr C_c``: sum over p^j | c of s_j (|G|^(p^j - 1) h)^(c/p^j), for h
  the count of G and s_j = p^(jn) - p^((j-1)n) the maps onto C_(p^j).

Every term is nonnegative and counts tuples of the group, so the values a
count forms are at most the count, or a small factor past it: each is held
to the count's digit budget as it is formed, and a power certainly past
that budget is refused before it is taken.
``groups.count_commuting_p_tuples`` counts the same tuples on a table; the
tests hold the two routes equal.  Nothing here builds a table, and this
module loads no table engine.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Union

from .errors import InputError, ResourceBudgetError
from .rationals import (MAX_DIGITS, _int_valuation, fits_digits, power_may_fit, require_int,
                        require_prime)
from .records import frozen

DEFAULT_ORDER_CAP = 10_000
ORDER_CAP_ENV = "PIFINITE_ORDER_CAP"


def _require_order(order: Optional[int]) -> int:
    """Return order, or refuse it past the cap: PIFINITE_ORDER_CAP, else
    DEFAULT_ORDER_CAP.  None stands for an order past the digit budget,
    which no cap admits and no message prints."""
    cap, env = DEFAULT_ORDER_CAP, os.environ.get(ORDER_CAP_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise InputError(f"{ORDER_CAP_ENV} must be an integer, got {env!r}") from exc
    if order is None or order > cap:
        shown = f"past the {MAX_DIGITS}-digit budget" if order is None else order
        raise ResourceBudgetError(f"group of order {shown} exceeds the cap {cap}")
    return order


@frozen
class Cyclic:
    n: int


@frozen
class Symmetric:
    n: int


@frozen
class Dihedral:
    order: int


@frozen
class DirectProduct:
    left: "GroupDescriptor"
    right: "GroupDescriptor"


@frozen
class Wreath:
    base: "GroupDescriptor"
    p: int


GroupDescriptor = Union[Cyclic, Symmetric, Dihedral, DirectProduct, Wreath]

MAX_SYMMETRIC_DEGREE = 6


def descriptor_order(d: GroupDescriptor) -> Optional[int]:
    """Order of the described group, computed without building anything, or
    None when it has more than MAX_DIGITS digits.  Every part of ``d`` is
    checked whatever the order, and no power is taken past that size."""
    if isinstance(d, Cyclic):
        return _printable(require_int(d.n, "Cyclic order", 1))
    if isinstance(d, Symmetric):
        if not 1 <= require_int(d.n, "Symmetric degree") <= MAX_SYMMETRIC_DEGREE:
            raise InputError(f"Symmetric degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {d.n}")
        return math.factorial(d.n)
    if isinstance(d, Dihedral):
        if require_int(d.order, "Dihedral order") < 2 or d.order % 2:
            raise InputError(f"Dihedral order must be even and >= 2, got {d.order}")
        return _printable(d.order)
    if isinstance(d, DirectProduct):
        left, right = descriptor_order(d.left), descriptor_order(d.right)
        return None if left is None or right is None else _printable(left * right)
    if isinstance(d, Wreath):
        require_int(d.p, "wreath degree", 2)
        base = descriptor_order(d.base)
        return None if base is None else _wreath_order(base, d.p)
    raise InputError(f"unknown group descriptor {d!r}")


# every record answers .order, as a table does; a Dihedral holds it as its field
Cyclic.order = Symmetric.order = DirectProduct.order = Wreath.order = property(descriptor_order)


def _printable(order: int) -> Optional[int]:
    return order if fits_digits(order) else None


def _wreath_order(m: int, c: int) -> Optional[int]:
    """|G wr C_c| = m^c c for |G| = m, as ``descriptor_order`` gives it."""
    return _printable(m ** c * c) if power_may_fit(m, c) else None


def descriptor_name(d: GroupDescriptor) -> str:
    if isinstance(d, Cyclic):
        return f"C{d.n}"
    if isinstance(d, Symmetric):
        return f"S{d.n}"
    if isinstance(d, Dihedral):
        return f"D{d.order}"
    if isinstance(d, DirectProduct):
        # "x" groups to the left, so a product on the right needs parentheses
        right = descriptor_name(d.right)
        if isinstance(d.right, DirectProduct):
            right = f"({right})"
        return f"{descriptor_name(d.left)} x {right}"
    if isinstance(d, Wreath):
        base = descriptor_name(d.base)
        if isinstance(d.base, (DirectProduct, Wreath)):
            base = f"({base})"
        return f"{base} wr C{d.p}"
    raise InputError(f"unknown group descriptor {d!r}")


def checked_order(d: GroupDescriptor) -> int:
    """Order of the described group; refuses it, as ``groups.build_group``
    would, when the descriptor is invalid or the order exceeds the cap."""
    return _require_order(descriptor_order(d))


# -- commuting tuples from the descriptor ---------------------------------------------

class _Past(Exception):
    """A value at most the count has passed the digit budget, so the count has."""


class _Homs:
    """|Hom(Z_p^n, H)| for H a part of one described group G, n >= 1.  Every
    value formed is at most the count for G, so each is held to the budget
    that count is held to: count // |G| within MAX_DIGITS digits."""

    def __init__(self, p: int, n: int, order: int):
        self.p, self.n, self.order = p, n, order

    def check(self, x: int) -> int:
        if not fits_digits(x // self.order):
            raise _Past
        return x

    def power(self, base: int, e: int) -> int:
        # decided before the power is taken, with a factor 2 of slack for
        # the float test, then checked exactly
        if not power_may_fit(base, e, 2 * self.order):
            raise _Past
        return self.check(base ** e)

    def count(self, d: GroupDescriptor) -> int:
        p, n = self.p, self.n
        if isinstance(d, Cyclic):
            return self.power(p ** _int_valuation(d.n, p), n)
        if isinstance(d, DirectProduct):
            return self.check(self.count(d.left) * self.count(d.right))
        if isinstance(d, Dihedral):
            m = d.order // 2
            rotations = self.power(p ** _int_valuation(m, p), n)
            if p > 2:
                return rotations
            t = self.power(2, n)            # at most m (2^n - 1) + 1
            if m % 2:
                return self.check(rotations + m * (t - 1))
            return self.check(rotations + m // 2 * t * (t - 1))
        if isinstance(d, Symmetric):
            return self.symmetric(d.n)
        return self.wreath(d.base, d.p)

    def symmetric(self, m: int) -> int:
        p, n = self.p, self.n
        # p^(n-1) <= a_1 = (p^n - 1)/(p - 1), and a_k (p^k - 1)! maps are
        # transitive on p^k points, so a_k is at most the count
        top = self.power(p, n - 1) if m >= p else 0
        orbits = []                     # (p^k, a_k) for p^k <= m
        size, k = 1, 0
        while size <= m:
            a = 1
            for i in range(1, k + 1):   # [n+k-1, i]_p, an integer at every step
                a = a * (top * p ** (k - i + 1) - 1) // (p ** i - 1)
            orbits.append((size, self.check(a)))
            size, k = size * p, k + 1
        counts = [1]
        for j in range(1, m + 1):
            counts.append(self.check(sum(math.perm(j - 1, size - 1) * a * counts[j - size]
                                         for size, a in orbits if size <= j)))
        return counts[m]

    def wreath(self, base: GroupDescriptor, c: int) -> int:
        p, n = self.p, self.n
        order, h = descriptor_order(base), self.count(base)
        total = self.power(h, c)        # j = 0: the tuples in G^c
        q, previous = p, 1              # q = p^j, previous = p^((j-1)n)
        while c % q == 0:
            # p^n - 1 = s_1, and p^n, no multiple of 10^MAX_DIGITS, passes
            # the budget only where p^n - 1 does
            pn = self.power(p, n)
            surjections = self.check(previous * (pn - 1))
            u = self.check(self.power(order, q - 1) * h)
            total = self.check(total + self.check(surjections * self.power(u, c // q)))
            q, previous = q * p, previous * pn
        return total


def _count_within_budget(d: GroupDescriptor, p: int, n: int, order: int) -> Optional[int]:
    if not n:
        return 1
    try:
        return _Homs(p, n, order).count(d)
    except _Past:
        return None


def hom_count(d: GroupDescriptor, p: int, n: int) -> int:
    """|Hom(Z_p^n, G)| for the group ``d`` describes: its pairwise-commuting
    n-tuples of p-power-order elements, n = 0 counting the empty tuple.

    Refused as ``groups.count_commuting_p_tuples`` refuses it, with its
    message: once count // |G| passes the digit budget, naming the first
    length past it.  Counts never fall as n grows, so that length is found
    by bisection, each probe decided as the count is."""
    require_prime(p)
    require_int(n, "tuple length", 0)
    order = checked_order(d)
    count = _count_within_budget(d, p, n, order)
    if count is None:
        fits, past = 0, n
        while past - fits > 1:
            mid = (fits + past) // 2
            if _count_within_budget(d, p, mid, order) is None:
                past = mid
            else:
                fits = mid
        raise ResourceBudgetError(f"{p}-tuple counts in {descriptor_name(d)} at length {past} "
                                  f"exceed the {MAX_DIGITS}-digit budget")
    return count
