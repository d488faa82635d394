"""Described groups on encoded elements: the p-adic loop of ``B(G)`` for a
described G, with no Cayley table of G.

A loop needs, of G, only its p-classes and their centralizers
(``spaces.p_adic_loop``), a few products per element where the whole table
holds |G|^2 of them.  Here every element is the index the table builders
of ``groups`` give it, and ``EncodedGroup.mul`` multiplies two indices by
the rule of the descriptor's kind:

* ``C_n``: ``a + b`` mod n;
* ``D_2m``: ``r^i s^j`` at ``j m + i``, with ``s r s = r^-1``;
* ``S_m``: a permutation at its rank among the sorted permutations, and
  ``g s`` the permutation ``x -> g[s[x]]``;
* ``G x H``: ``(a, b)`` at ``a |H| + b``, multiplied factor by factor;
* ``G wr C_c``: ``(g_0, ..., g_{c-1}; s)`` at ``v c + s`` with
  ``v = sum g_i |G|^i``, and ``(gs; s)(hs; t) = (w; s + t)`` with
  ``w_i = g_i h_{i-s}``, indices mod c.

The identity is index 0 in every kind.  A wreath reads its base's
products from the base's rows, |G|^2 <= |G wr C_c| of them.
Orders, inverses, greedy generators and the commuting test are the walks
of ``walks``, which ``FiniteGroup`` runs on its rows and this module on
``mul``, and one pass over G per p-class representative g gives its
class, ``{x g x^-1}``, and its centralizer, ``{x : x g x^-1 = g}``, at two
products per element.  A centralizer is classified before anything is
built for it: the whole group stays the described group, an abelian one
(its greedy generators commute) is its invariant factors, read off the
ambient element orders, and only a non-abelian proper one gets a table, the
closure (``groups._closure``) of its greedy generators' rows, which
``mul`` computes: the rows and the name ``C_{G}(g)`` that
``FiniteGroup.subgroup`` gives the same set in the built table.  So a loop
whose centralizers are whole or abelian loads no table engine.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import partial
from operator import itemgetter

from .descriptors import (Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric,
                          checked_order, descriptor_name)
from .errors import InvariantError
from .rationals import require_prime
from .walks import abelian_invariant_factors, commute, greedy_generators, orders_and_inverses

Mul = Callable[[int, int], int]


def _encoding(d: GroupDescriptor) -> tuple[int, Mul]:
    """(order, mul) of the valid descriptor ``d`` on its builder's indices."""
    if isinstance(d, Cyclic):
        n = d.n
        return n, lambda a, b: (a + b) % n
    if isinstance(d, Dihedral):
        # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j + l), and i -+ k = a -+ b mod m
        m = d.order // 2
        return d.order, lambda a, b: (a // m ^ b // m) * m + (a - b if a >= m else a + b) % m
    if isinstance(d, Symmetric):
        perms = sorted(itertools.permutations(range(d.n)))
        rank = {s: i for i, s in enumerate(perms)}.__getitem__
        # itemgetter(*s)(g) is g after s; n = 1 has the one identity
        after = [itemgetter(*s) if d.n > 1 else lambda g: g for s in perms]
        return len(perms), lambda a, b: rank(after[b](perms[a]))
    if isinstance(d, DirectProduct):
        # no atom's descriptor is a product, only a wreath's base
        (n, left), (h, right) = _encoding(d.left), _encoding(d.right)
        return n * h, lambda a, b: left(a // h, b // h) * h + right(a % h, b % h)
    # m^2 <= m^c c: the base's products are read from its rows
    (m, base), c = _encoding(d.base), d.p
    rows = [tuple(base(g, h) for h in range(m)) for g in range(m)]
    units = [m ** i for i in range(c)]
    digits = [tuple(v // unit % m for unit in units) for v in range(m ** c)]
    rows_of = [tuple(map(rows.__getitem__, gs)) for gs in digits]
    # shifted[s][v]: the coordinates h_{i-s}, indices mod c, of v's h_i
    shifted = [[hs[-s:] + hs[:-s] for hs in digits] for s in range(c)]

    def wreath(a: int, b: int) -> int:
        v, s = divmod(a, c)
        u, t = divmod(b, c)
        w = 0
        for row, h, unit in zip(rows_of[v], shifted[s][u], units):
            w += row[h] * unit
        return w * c + (s + t) % c
    return len(digits) * c, wreath


class EncodedGroup:
    """A described group on the indices its table builder gives them,
    multiplied by ``mul`` with no table; orders and inverses are walked at
    construction."""

    identity = 0

    def __init__(self, d: GroupDescriptor):
        checked_order(d)
        self.descriptor = d
        self.order, self.mul = _encoding(d)
        self.name = descriptor_name(d)
        self.element_orders, self.inverses = orders_and_inverses(
            self._row, self.identity, self.order, InvariantError)

    def _row(self, a: int) -> Callable[[int], int]:
        """The row accessor of ``walks``: the map b -> a b."""
        return partial(self.mul, a)

    def p_classes(self, p: int) -> list[tuple[int, tuple[int, ...]]]:
        """(representative, centralizer indices) for each class of
        p-power-order elements, by least member, the representative, so the
        identity class comes first: one pass over the group per class."""
        mul, n = self.mul, self.order
        powers = {p ** k for k in range(n.bit_length())}     # every p-power up to n
        seen = bytearray(n)
        classes = []
        for g in range(n):
            if seen[g] or self.element_orders[g] not in powers:
                continue
            if g == self.identity:
                seen[g] = 1
                classes.append((g, tuple(range(n))))
                continue
            # x g x^-1 for every x
            conjugates = list(map(mul, map(mul, range(n), itertools.repeat(g, n)), self.inverses))
            for y in conjugates:
                seen[y] = 1
            classes.append((g, tuple(itertools.compress(range(n), map(g.__eq__, conjugates)))))
        return classes

    def centralizer(self, g: int, elems: tuple[int, ...]):
        """C(g) on its ascending indices ``elems``: the descriptor when it
        is the whole group, the tuple of its invariant factors when its
        greedy generators commute, and otherwise its table, named
        ``C_{G}(g)``."""
        if len(elems) == self.order:
            return self.descriptor
        gens = list(greedy_generators(self._row, self.identity, elems))
        if commute(self._row, gens):
            return abelian_invariant_factors(list(map(self.element_orders.__getitem__, elems)))
        from .groups import FiniteGroup, _closure
        pos = dict(zip(elems, range(len(elems))))
        rows = [[pos[self.mul(a, b)] for b in elems] for a in gens]
        return FiniteGroup(_closure(rows, 0, len(elems)), name=f"C_{{{self.name}}}({g})",
                           validate=False)


def p_loop_decomposition(d: GroupDescriptor, p: int) -> list[tuple[int, object]]:
    """One (representative, centralizer) pair per class of p-power-order
    elements of the described group ``d``, the identity class first, as
    ``groups.p_loop_decomposition`` gives them from the table: each
    centralizer as ``EncodedGroup.centralizer`` gives it, one object per
    index set, so classes with equal centralizers share it, named by the
    first of them."""
    require_prime(p)
    group = EncodedGroup(d)
    held: dict = {}
    pairs = []
    for g, elems in group.p_classes(p):
        if elems not in held:
            held[elems] = group.centralizer(g, elems)
        pairs.append((g, held[elems]))
    return pairs
