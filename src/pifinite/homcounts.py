"""Commuting p-tuples counted from a group descriptor, with no table.

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
tests hold the two routes equal.  Only a height count of a described
group, ``spaces._height_cardinality``, imports this module, so no other
CLI answer compiles it.
"""

from __future__ import annotations

import math

from .descriptors import (Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric,
                          checked_order, descriptor_name, descriptor_order)
from .errors import ResourceBudgetError
from .rationals import (MAX_DIGITS, _int_valuation, fits_digits, power_may_fit, require_int,
                        require_prime)


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


def _count_within_budget(d: GroupDescriptor, p: int, n: int, order: int) -> int | None:
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
