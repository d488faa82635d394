"""Described groups on encoded elements, and the one layout and
multiplication rule of each kind of group: the p-adic loop of ``B(G)`` for
a described G, with no Cayley table of G, and the rule every table of
``groups`` is built from.

A loop needs, of G, only its p-classes and their centralizers
(``walks.p_loop_decomposition``), a few products per element where the
whole table holds |G|^2 of them.  Here every element is an index, and
``_encoding`` gives the descriptor's ``(order, identity, mul)``, ``mul``
multiplying two indices by the rule of the descriptor's kind:

* ``C_n``: ``a + b`` mod n;
* ``D_2m``: ``r^i s^j`` at ``j m + i``, with ``s r s = r^-1``;
* ``S_m``: a permutation at its rank among the sorted permutations, and
  ``g s`` the permutation ``x -> g[s[x]]``;
* ``G x H``: ``(a, b)`` at ``a |H| + b``, multiplied factor by factor
  (``_product_rule``);
* ``G wr C_c``: ``(g_0, ..., g_{c-1}; s)`` at ``v c + s`` with
  ``v = sum g_i |G|^i``, and ``(gs; s)(hs; t) = (w; s + t)`` with
  ``w_i = g_i h_{i-s}``, indices mod c (``_wreath_rule``).

The identity of a described group is index 0.  The product and wreath
rules take their factors as such triples, so a factor may also be a
table, with its identity at any index: ``groups`` builds the tables of
descriptors, products and wreaths alike from these rules.  A wreath reads
its base's products from the base's rows, |G|^2 <= |G wr C_c| of them, and
each coordinate of its elements from one flat tuple per coordinate.
Orders, inverses, greedy generators, the commuting test and the class walk
are the walks of ``walks``, which ``FiniteGroup`` runs on its rows and
this module on ``mul``: a class costs two products per element, x g and
(x g) x^-1.  The walk classifies each centralizer before anything is built
for it, so a loop whose centralizers are whole or abelian loads no table
engine; a non-abelian proper one gets the table, and the name ``C_{G}(g)``,
that the walk gives the same set in the built table.
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
Rule = tuple[int, int, Mul]     # (order, identity, mul)


def _encoding(d: GroupDescriptor) -> Rule:
    """(order, identity, mul) of the valid descriptor ``d``."""
    if isinstance(d, Cyclic):
        n = d.n
        return n, 0, lambda a, b: (a + b) % n
    if isinstance(d, Dihedral):
        # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j + l), and i -+ k = a -+ b mod m
        m = d.order // 2
        return d.order, 0, lambda a, b: (a // m ^ b // m) * m + (a - b if a >= m else a + b) % m
    if isinstance(d, Symmetric):
        perms = sorted(itertools.permutations(range(d.n)))
        rank = {s: i for i, s in enumerate(perms)}.__getitem__
        # itemgetter(*s)(g) is g after s; n = 1 has the one identity
        after = [itemgetter(*s) if d.n > 1 else lambda g: g for s in perms]
        return len(perms), 0, lambda a, b: rank(after[b](perms[a]))
    if isinstance(d, DirectProduct):
        return _product_rule(_encoding(d.left), _encoding(d.right))
    return _wreath_rule(_encoding(d.base), d.p)


def _product_rule(left: Rule, right: Rule) -> Rule:
    """G x H from the rules of G and H: (a, b) at a |H| + b."""
    (n, e, times), (h, f, by) = left, right
    return n * h, e * h + f, lambda a, b: times(a // h, b // h) * h + by(a % h, b % h)


def _wreath_rule(base: Rule, c: int) -> Rule:
    """G wr C_c from the rule of G."""
    m, e, times = base
    # m^2 <= m^c c: the base's products are read from its rows
    rows = [tuple(times(g, h) for h in range(m)) for g in range(m)]
    units = [m ** i for i in range(c)]
    # digit[i][v] = g_i of v = sum g_i m^i: one flat tuple per coordinate
    digit = [tuple(v // unit % m for v in range(m ** c)) for unit in units]
    # shifted[s]: the coordinates h_{i-s}, indices mod c, in order of i
    shifted = [digit[-s:] + digit[:-s] for s in range(c)]

    def wreath(a: int, b: int) -> int:
        v, s = divmod(a, c)
        u, t = divmod(b, c)
        w = 0
        for gs, hs, unit in zip(digit, shifted[s], units):
            w += rows[gs[v]][hs[u]] * unit
        return w * c + (s + t) % c
    return m ** c * c, sum(e * unit for unit in units) * c, wreath


class EncodedGroup:
    """A described group on the indices of its encoding, multiplied by
    ``mul`` with no table; orders and inverses are walked at construction,
    and the class walk's pairs held per prime."""

    def __init__(self, d: GroupDescriptor):
        checked_order(d)
        self.descriptor = d
        self.order, self.identity, self.mul = _encoding(d)
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
