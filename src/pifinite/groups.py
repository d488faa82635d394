"""Finite groups as validated Cayley tables, plus the counting primitives
(conjugacy classes, centralizers, commuting tuples of p-power-order elements)
that drive every classifying-space cardinality in this package.

Groups are deliberately plain multiplication tables, so every count is
exact and independently checkable by brute force.  Orders go up to the
order cap (``DEFAULT_ORDER_CAP``, or ``PIFINITE_ORDER_CAP``); building and
validating a table is the costly step, and its cost grows quickly with the
order.  numpy is imported inside the functions that touch tables, so that
answers needing no table never load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import InputError, ResourceBudgetError
from .rationals import require_prime

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ORDER_CAP = 10_000
ORDER_CAP_ENV = "PIFINITE_ORDER_CAP"


def resolve_order_cap(cap: Optional[int] = None) -> int:
    """Explicit cap, else the PIFINITE_ORDER_CAP env var, else the default."""
    if cap is not None:
        return cap
    env = os.environ.get(ORDER_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"{ORDER_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_ORDER_CAP


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


class FiniteGroup:
    """A finite group on elements 0..order-1 given by its multiplication table.

    The table is validated at construction (identity, inverses, Latin square,
    associativity); orders, inverses and conjugacy classes are cached up
    front, centralizer subgroups on first use.  Instances are immutable and
    compare (and hash) by table equality.
    """

    def __init__(self, table, name: str = "G", *, descriptor=None, validate: bool = True,
                 ambient_indices: Optional[tuple[int, ...]] = None):
        import numpy as np
        tab = np.asarray(table, dtype=np.int64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or tab.shape[0] == 0:
            raise InputError("multiplication table must be a nonempty square matrix")
        n = tab.shape[0]
        if tab.min() < 0 or tab.max() >= n:
            raise InputError("table entries must be element indices in range")
        self.order: int = n
        self.table: np.ndarray = tab
        self.table.setflags(write=False)
        self.name = name
        self.descriptor = descriptor
        self.ambient_indices = ambient_indices  # for subgroups: indices in the parent
        self.identity: int = self._find_identity()
        if validate:
            self._validate()
        self.inverses: np.ndarray = self._compute_inverses()
        self.element_orders: tuple[int, ...] = self._compute_orders()
        self._classes: Optional[tuple[ConjugacyClass, ...]] = None
        self._centralizer_cache: dict = {}
        self._hash = hash(self.table.tobytes())

    # -- construction-time checks -------------------------------------------

    def _find_identity(self) -> int:
        import numpy as np
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise InputError("table has no two-sided identity")

    def _validate(self) -> None:
        import numpy as np
        n = self.order
        idx = np.arange(n)
        # rows and columns are permutations (cancellation laws)
        if not (np.array_equal(np.sort(self.table, axis=1), np.tile(idx, (n, 1)))
                and np.array_equal(np.sort(self.table, axis=0), np.tile(idx[:, None], (1, n)))):
            raise InputError("table rows/columns are not permutations")
        # every element has an inverse
        if not np.all((self.table == self.identity).any(axis=1)):
            raise InputError("table has an element without an inverse")
        # associativity, chunked so large tables stay within memory
        t = self.table
        chunk = max(1, (2 ** 22) // max(n * n, 1))
        for start in range(0, n, chunk):
            rows = t[start:start + chunk]          # (c, n)
            left = t[rows][:, :, :]                # (a b) c: t[t[a,b], c]
            right = rows[:, t]                     # a (b c): t[a, t[b,c]]
            if not np.array_equal(left, right):
                raise InputError("table is not associative")

    def _compute_inverses(self) -> np.ndarray:
        inv = (self.table == self.identity).argmax(axis=1)
        inv.setflags(write=False)
        return inv

    def _compute_orders(self) -> tuple[int, ...]:
        orders = []
        for g in range(self.order):
            k, x = 1, g
            while x != self.identity:
                x = self.table[x, g]
                k += 1
            orders.append(k)
        return tuple(orders)

    # -- protocol ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.order == other.order
                and bool((self.table == other.table).all()))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- class structure -------------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        if self._classes is None:
            import numpy as np
            t, inv = self.table, self.inverses
            xs = np.arange(self.order)
            seen = np.zeros(self.order, dtype=bool)
            classes = []
            for g in range(self.order):
                if seen[g]:
                    continue
                members = np.unique(t[t[xs, g], inv[xs]])
                seen[members] = True
                classes.append(ConjugacyClass(g, tuple(int(m) for m in members)))
            # identity class first, then by smallest member
            classes.sort(key=lambda c: (c.representative != self.identity, c.members[0]))
            self._classes = tuple(classes)
        return self._classes

    def centralizer_indices(self, elems: Iterable[int]) -> tuple[int, ...]:
        """Indices of elements commuting with every element of ``elems``."""
        import numpy as np
        mask = np.ones(self.order, dtype=bool)
        for s in elems:
            if not (0 <= s < self.order):
                raise InputError(f"element index {s} out of range")
            mask &= self.table[:, s] == self.table[s, :]
        return tuple(int(i) for i in np.nonzero(mask)[0])

    def subgroup(self, elems: Sequence[int], name: str = "H") -> "FiniteGroup":
        """The subgroup on the given closed element set, with the induced table."""
        import numpy as np
        elems = tuple(sorted(set(int(e) for e in elems)))
        pos = {e: i for i, e in enumerate(elems)}
        m = len(elems)
        tab = np.empty((m, m), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                prod = int(self.table[a, b])
                if prod not in pos:
                    raise InputError("element set is not closed under multiplication")
                tab[i, j] = pos[prod]
        return FiniteGroup(tab, name=name, validate=False, ambient_indices=elems)

    def centralizer_subgroup(self, g: int) -> "FiniteGroup":
        """C_G(g), cached per element."""
        got = self._centralizer_cache.get(g)
        if got is None:
            if g == self.identity:
                got = self
            else:
                got = self.subgroup(self.centralizer_indices([g]),
                                    name=f"C_{{{self.name}}}({g})")
            self._centralizer_cache[g] = got
        return got

    # -- p-structure -----------------------------------------------------------

    def is_p_element(self, g: int, p: int) -> bool:
        """p-power order, the identity included."""
        n = self.element_orders[g]
        while n % p == 0:
            n //= p
        return n == 1

    def p_elements(self, p: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.order) if self.is_p_element(g, p))


# -- descriptors ---------------------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Symmetric:
    n: int


@dataclass(frozen=True)
class Dihedral:
    order: int


@dataclass(frozen=True)
class DirectProduct:
    left: "GroupDescriptor"
    right: "GroupDescriptor"


@dataclass(frozen=True)
class Wreath:
    base: "GroupDescriptor"
    p: int


GroupDescriptor = Union[Cyclic, Symmetric, Dihedral, DirectProduct, Wreath]

MAX_SYMMETRIC_DEGREE = 6


def descriptor_order(d: GroupDescriptor) -> int:
    """Order of the described group, computed without building anything."""
    if isinstance(d, Cyclic):
        if d.n < 1:
            raise InputError(f"Cyclic order must be >= 1, got {d.n}")
        return d.n
    if isinstance(d, Symmetric):
        if not 1 <= d.n <= MAX_SYMMETRIC_DEGREE:
            raise InputError(f"Symmetric degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {d.n}")
        return math.factorial(d.n)
    if isinstance(d, Dihedral):
        if d.order < 2 or d.order % 2:
            raise InputError(f"Dihedral order must be even and >= 2, got {d.order}")
        return d.order
    if isinstance(d, DirectProduct):
        return descriptor_order(d.left) * descriptor_order(d.right)
    if isinstance(d, Wreath):
        if d.p < 2:
            raise InputError(f"wreath degree must be >= 2, got {d.p}")
        return descriptor_order(d.base) ** d.p * d.p
    raise InputError(f"unknown group descriptor {d!r}")


def descriptor_name(d: GroupDescriptor) -> str:
    if isinstance(d, Cyclic):
        return f"C{d.n}"
    if isinstance(d, Symmetric):
        return f"S{d.n}"
    if isinstance(d, Dihedral):
        return f"D{d.order}"
    if isinstance(d, DirectProduct):
        return f"{descriptor_name(d.left)} x {descriptor_name(d.right)}"
    if isinstance(d, Wreath):
        base = descriptor_name(d.base)
        if isinstance(d.base, (DirectProduct, Wreath)):
            base = f"({base})"
        return f"{base} wr C{d.p}"
    raise InputError(f"unknown group descriptor {d!r}")


def checked_order(d: GroupDescriptor, order_cap: Optional[int] = None) -> int:
    """Order of the described group; refuses it, as ``build_group`` would,
    when the descriptor is invalid or the order exceeds the cap."""
    cap = resolve_order_cap(order_cap)
    order = descriptor_order(d)
    if order > cap:
        raise ResourceBudgetError(f"group of order {order} exceeds the cap {cap}")
    return order


def build_group(d: GroupDescriptor, order_cap: Optional[int] = None) -> FiniteGroup:
    """Materialize a descriptor as a validated Cayley-table group."""
    cap = resolve_order_cap(order_cap)
    checked_order(d, cap)
    if isinstance(d, Cyclic):
        g = _cyclic_group(d.n)
    elif isinstance(d, Symmetric):
        g = _symmetric_group(d.n)
    elif isinstance(d, Dihedral):
        g = _dihedral_group(d.order)
    elif isinstance(d, DirectProduct):
        g = direct_product(build_group(d.left, cap), build_group(d.right, cap))
    elif isinstance(d, Wreath):
        g = wreath_cyclic(build_group(d.base, cap), d.p, order_cap=cap)
    else:
        raise InputError(f"unknown group descriptor {d!r}")
    g.name = descriptor_name(d)
    g.descriptor = d
    return g


def _cyclic_group(n: int) -> FiniteGroup:
    import numpy as np
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def _symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    pos = {s: i for i, s in enumerate(perms)}
    tab = [[pos[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms]
    return FiniteGroup(tab, name=f"S{n}")


def _dihedral_group(order: int) -> FiniteGroup:
    import numpy as np
    n = order // 2
    # element (i, j) = r^i s^j at index j*n + i;  s r s = r^-1
    def mul(i1, j1, i2, j2):
        return ((i1 + (i2 if j1 == 0 else -i2)) % n, (j1 + j2) % 2)
    tab = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        i1, j1 = a % n, a // n
        for b in range(order):
            i2, j2 = b % n, b // n
            i, j = mul(i1, j1, i2, j2)
            tab[a, b] = j * n + i
    return FiniteGroup(tab, name=f"D{order}")


def direct_product(g: FiniteGroup, h: FiniteGroup, order_cap: Optional[int] = None) -> FiniteGroup:
    """G x H with elements a*|H| + b."""
    cap = resolve_order_cap(order_cap)
    if g.order * h.order > cap:
        raise ResourceBudgetError(
            f"group of order {g.order * h.order} exceeds the cap {cap}")
    tab = (h.order * g.table[:, None, :, None] + h.table[None, :, None, :])
    tab = tab.reshape(g.order * h.order, g.order * h.order)
    return FiniteGroup(tab, name=f"{g.name} x {h.name}", validate=False)


def wreath_cyclic(g: FiniteGroup, c: int, order_cap: Optional[int] = None) -> FiniteGroup:
    """The wreath product G wr C_c: tuples in G^c with C_c cycling coordinates."""
    import numpy as np
    cap = resolve_order_cap(order_cap)
    if c < 2:
        raise InputError(f"wreath degree must be >= 2, got {c}")
    m = g.order
    order = m ** c * c
    if order > cap:
        raise ResourceBudgetError(f"group of order {order} exceeds the cap {cap}")
    coords = list(itertools.product(range(m), repeat=c))  # tuple (g_0, ..., g_{c-1})
    tab = np.empty((order, order), dtype=np.int64)

    def encode(tup, t):
        v = 0
        for x in reversed(tup):
            v = v * m + x
        return v * c + t

    for gs in coords:
        for s in range(c):
            a = encode(gs, s)
            for hs in coords:
                w = tuple(g.table[gs[i], hs[(i - s) % c]] for i in range(c))
                for t in range(c):
                    tab[a, encode(hs, t)] = encode(w, (s + t) % c)
    name = g.name if " " not in g.name else f"({g.name})"
    return FiniteGroup(tab, name=f"{name} wr C{c}", validate=False)


# -- counting operations ---------------------------------------------------------

def conjugacy_classes(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    return g.conjugacy_classes()


def centralizer(g: FiniteGroup, elems: Iterable[int]) -> FiniteGroup:
    """The centralizer of an element set, as a group with the induced table."""
    elems = tuple(elems)
    if len(elems) == 1:
        return g.centralizer_subgroup(elems[0])
    return g.subgroup(g.centralizer_indices(elems), name=f"C_{{{g.name}}}{elems}")


def p_loop_decomposition(g: FiniteGroup, p: int) -> list[tuple[int, FiniteGroup]]:
    """One (representative, centralizer) pair per conjugacy class of
    p-power-order elements; the identity class comes first.

    This is the component decomposition of the space of maps from a circle
    (p-adically completed) into the classifying space of g: components are
    indexed by classes of p-elements, each contributing the classifying space
    of its centralizer.
    """
    require_prime(p)
    return [(cls.representative, g.centralizer_subgroup(cls.representative))
            for cls in g.conjugacy_classes()
            if g.is_p_element(cls.representative, p)]


@functools.lru_cache(maxsize=4096)
def _commuting_tuple_count(g: FiniteGroup, p: int, n: int) -> int:
    if n == 0:
        return 1
    if n == 1:
        return len(g.p_elements(p))
    if n == 2:
        # direct pair count, independent of the class/centralizer route
        import numpy as np
        mask = np.fromiter((g.is_p_element(x, p) for x in range(g.order)),
                           dtype=bool, count=g.order)
        idx = np.nonzero(mask)[0]
        commute = g.table[np.ix_(idx, idx)] == g.table[np.ix_(idx, idx)].T
        return int(commute.sum())
    total = 0
    for cls in g.conjugacy_classes():
        rep = cls.representative
        if g.is_p_element(rep, p):
            total += len(cls) * _commuting_tuple_count(g.centralizer_subgroup(rep), p, n - 1)
    return total


def count_commuting_p_tuples(g: FiniteGroup, p: int, n: int) -> int:
    """Number of pairwise-commuting n-tuples of p-power-order elements.

    Equivalently the number of homomorphisms from the free abelian pro-p
    group on n generators into g.  n = 0 counts the empty tuple.  For n >= 3
    the count recurses over centralizers of p-element classes, which keeps
    large groups cheap; n <= 2 is counted directly.
    """
    require_prime(p)
    if n < 0:
        raise InputError(f"tuple length must be >= 0, got {n}")
    return _commuting_tuple_count(g, p, n)
