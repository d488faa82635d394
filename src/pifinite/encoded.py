"""Described groups on encoded elements: the p-adic loop of ``B(G)`` for a
described G, with no Cayley table of G.

A loop needs, of G, only its p-classes and their centralizers
(``walks.p_loop_decomposition``), a few products per element where the
whole table holds |G|^2 of them.  Here every element is the index the table
builders of ``groups`` give it, and ``EncodedGroup.mul`` multiplies two
indices by the rule of the descriptor's kind:

* ``C_n``: ``a + b`` mod n;
* ``D_2m``: ``r^i s^j`` at ``j m + i``, with ``s r s = r^-1``;
* ``S_m``: a permutation at its rank among the sorted permutations, and
  ``g s`` the permutation ``x -> g[s[x]]``;
* ``G x H``: ``(a, b)`` at ``a |H| + b``, multiplied factor by factor;
* ``G wr C_c``: ``(g_0, ..., g_{c-1}; s)`` at ``v c + s`` with
  ``v = sum g_i |G|^i``, and ``(gs; s)(hs; t) = (w; s + t)`` with
  ``w_i = g_i h_{i-s}``, indices mod c.

The identity is index 0 in every kind.  A wreath reads its base's
products from the base's rows, |G|^2 <= |G wr C_c| of them.  Orders,
inverses, greedy generators, the commuting test and the class walk are the
walks of ``walks``, which ``FiniteGroup`` runs on its rows and this module
on ``mul``: a class costs two products per element, x g and (x g) x^-1.
The walk classifies each centralizer before anything is built for it, so a
loop whose centralizers are whole or abelian loads no table engine; a
non-abelian proper one gets the table, and the name ``C_{G}(g)``, that the
walk gives the same set in the built table.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import partial
from operator import itemgetter

from .descriptors import (Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric,
                          checked_order, descriptor_name)
from .errors import InvariantError
from .walks import orders_and_inverses

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
    construction, and the class walk's pairs held per prime."""

    identity = 0

    def __init__(self, d: GroupDescriptor):
        checked_order(d)
        self.descriptor = d
        self.order, self.mul = _encoding(d)
        self.name = descriptor_name(d)
        self.element_orders, self.inverses = orders_and_inverses(
            self._row, self.identity, self.order, InvariantError)
        self._p_loops: dict = {}    # p -> the class walk's pairs

    def _row(self, a: int) -> Callable[[int], int]:
        """The row accessor of ``walks``: the map b -> a b."""
        return partial(self.mul, a)

    def conjugates(self, g: int) -> list[int]:
        """The primitive of the class walk: x g x^-1 for every x."""
        mul, n = self.mul, self.order
        return list(map(mul, map(mul, range(n), itertools.repeat(g, n)), self.inverses))
