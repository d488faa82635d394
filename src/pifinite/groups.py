"""Finite groups as validated Cayley tables, plus the counting primitives
(conjugacy classes, centralizers, commuting tuples of p-power-order elements)
that drive every classifying-space cardinality in this package.  Commuting
tuples are counted on centralizers held as bitmasks over the p-elements,
with no subgroup table; centralizer subgroups are built only on request, as
the p-adic loop space makes them to print its components.  The groups are
named by the descriptors of ``descriptors``, which also holds the order cap
and the limits every build applies.

Groups are deliberately plain multiplication tables, so every count is
exact and independently checkable by brute force.  A table is a tuple of
rows, each a tuple of Python ints that all rows share (one int object per
element, so a cell costs one 8-byte pointer), and every primitive works by
composing rows, ``itemgetter(*other)(row)`` being row composed with other;
no numpy is needed.  A table is checked by the group axioms alone: an
identity, found in every row, and associativity by Light's test over a
greedy generating set, at n^2 cells per generator; commutativity is read
from the same set.  Symmetric and wreath tables are built as the closure
of their generators' rows, one row composition per element.  Orders go up
to the order cap (``descriptors.DEFAULT_ORDER_CAP``, or
``PIFINITE_ORDER_CAP``), applied to every build: a descriptor is checked
whole before anything is built, and ``direct_product`` and
``wreath_cyclic`` check the order they would build.  Building a table is
the costly step, and its cost grows with the square of the order; a height
count of a described group builds none (``homcounts.hom_count``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import and_, eq, itemgetter, mul

from .descriptors import (Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric,
                          _require_order, _wreath_order, checked_order, descriptor_name)
from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import MAX_DIGITS, fits_digits, require_int, require_prime, vp
from .records import frozen

Rows = tuple[tuple[int, ...], ...]


@frozen
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def _getter(idx: Sequence[int]):
    """The function taking a row to the tuple of its entries at ``idx``
    (nonempty), in C: ``itemgetter`` alone returns a bare entry for one index."""
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


def _shared_rows(table) -> Rows:
    """A table from outside the package as row tuples whose entries are the
    same int objects in every row: a sequence of sequences or an ndarray."""
    if hasattr(table, "tolist"):            # an ndarray, without importing numpy
        table = table.tolist()
    try:
        rows = list(table)
        n = len(rows)
        square = n > 0 and all(len(row) == n for row in rows)
    except TypeError:
        square = False
    if not square:
        raise InputError("multiplication table must be a nonempty square matrix")
    ints = tuple(range(n))
    try:
        if min(map(min, rows)) >= 0:
            return tuple(_getter(row)(ints) for row in rows)
    except (IndexError, TypeError):
        pass
    raise InputError("table entries must be element indices in range")


class _ClosedRows(tuple):
    """Rows a builder or ``FiniteGroup.subgroup`` made from one shared int per
    element, every entry in range (a subgroup checks closure): the constructor
    keeps them as built, so a table exists once, instead of re-sharing a copy."""
    __slots__ = ()


def _generators(rows: Rows, identity: int):
    """Greedy generators of a table, yielded one at a time: each is the
    least element not yet reached from the identity by right multiplication
    by the generators before it, and the reached set is closed under them
    before the next is picked, until it holds every element.  In a group the
    reached set is the subgroup the generators generate, so each generator at
    least doubles it and there are at most log2(n) + 1 of them."""
    seen, reached, gens = {identity}, [identity], []
    for a in range(len(rows)):
        if a not in seen:
            yield a
            gens.append(a)
            for x in reached:           # the list grows while it is walked
                for y in map(rows[x].__getitem__, gens):
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)


def _passes_light_test(rows: Rows, identity: int) -> bool:
    """Light's associativity test.

    Right multiplication by the greedy generators (``_generators``) reaches
    every element from the identity, and each generator a must satisfy
    (x a) y == x (a y) for all x and y.  The elements that satisfy
    this contain the identity and are closed under products (if a and b do,
    then (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y)), so they
    include every reached element, which is every element, and the table is
    associative; with the identity in every row, checked first, it is a
    group.  Each generator costs n^2 cells.  A right inverse b of a passing
    a gives (xa)b = x(ab) = x, so right multiplication by a is injective:
    the reached set is then a subgroup, each passing generator at least
    doubles it, and at most log2(n) + 1 generators are tested.  Without
    right inverses a monoid passes every generator, at n^3 cells.
    """
    # row x a against row x composed with row a, for each generator a
    return all(rows[row[a]] == _getter(rows[a])(row)
               for a in _generators(rows, identity) for row in rows)


def _closure(gen_rows: Sequence[Sequence[int]], identity: int) -> _ClosedRows:
    """The rows of the group that the left-multiplication rows ``gen_rows``
    generate, as tuples over one shared int per element.  The walk starts at
    the identity, and each element g x, when first reached, gets row g
    composed after row x, since (g x) z = g (x z): one gather in C per
    element."""
    ints = tuple(range(len(gen_rows[0])))
    gen_rows = [_getter(gen)(ints) for gen in gen_rows]
    rows: list = [None] * len(ints)
    rows[identity], reached = ints, [identity]
    for x in reached:                   # the list grows while it is walked
        compose = _getter(rows[x])
        for gen in gen_rows:
            y = gen[x]
            if rows[y] is None:
                rows[y] = compose(gen)
                reached.append(y)
    if len(reached) < len(ints):        # rows from a table that is not a group
        raise InputError("the generators' rows do not reach every element")
    return _ClosedRows(rows)


class FiniteGroup:
    """A finite group on elements 0..order-1 given by its multiplication table.

    The table is validated at construction (two-sided identity, identity in
    every row, and associativity by Light's test); orders and inverses are
    computed up front, centralizers and tuple counts on first use, and
    conjugacy classes on each call.  Instances are immutable and compare
    (and hash) by their rows, which normal forms sort by too, held once
    (see ``_ClosedRows``).  ``table`` is a read-only int64 ndarray copy for
    outside callers, built on first access; nothing here reads it.
    """

    def __init__(self, table, name: str = "G", *, validate: bool = True,
                 ambient_indices: tuple[int, ...] | None = None):
        # a plain tuple, so row lookups stay on the exact-tuple fast path
        self._rows: Rows = tuple(table) if type(table) is _ClosedRows else _shared_rows(table)
        self.order: int = len(self._rows)
        self.name = name
        self.descriptor = None      # the descriptor a table is built for, set by _build
        self.ambient_indices = ambient_indices  # for subgroups: indices in the parent
        self.identity: int = self._find_identity()
        if validate:
            self._validate()
        self.element_orders, self.inverses = self._orders_and_inverses()
        self._centralizer_cache: dict = {}  # by element and by index tuple
        self._tuple_counts: dict = {}   # p -> the counts at n = 0, 1, ... reached
        self._hash = hash(self._rows)
        self._array: np.ndarray | None = None

    # -- construction-time checks -------------------------------------------

    def _find_identity(self) -> int:
        rows = self._rows
        idx = tuple(range(self.order))
        for e, row in enumerate(rows):
            if row == idx and tuple(map(itemgetter(e), rows)) == idx:
                return e
        raise InputError("table has no two-sided identity")

    def _validate(self) -> None:
        rows, e = self._rows, self.identity
        if any(e not in row for row in rows):   # right inverses, before Light's test
            raise InputError("table rows/columns are not permutations")
        if not _passes_light_test(rows, e):
            raise InputError("table is not associative")

    def _orders_and_inverses(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Walk the powers g, g^2, ..., g^m = e of each element not yet
        reached: g^k has order m / gcd(k, m) and inverse g^(m-k).  An
        unvalidated table in which the powers of g miss the identity for
        ``order`` steps is refused, as it is no group."""
        rows, e, n = self._rows, self.identity, self.order
        orders = [0] * n
        inverses = [e] * n
        for g in range(n):
            if orders[g]:
                continue
            row, powers, x = rows[g], [g], g
            while x != e:
                if len(powers) == n:
                    raise InputError(f"the powers of element {g} never reach the identity")
                x = row[x]              # g g^k = g^(k+1)
                powers.append(x)
            m = len(powers)
            for k, x in enumerate(powers, 1):
                if not orders[x]:
                    orders[x] = m // math.gcd(k, m)
                    inverses[x] = powers[m - k - 1]
        return tuple(orders), tuple(inverses)

    # -- protocol ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        """Whether the greedy generators of the group commute pairwise."""
        gens = _generators(self._rows, self.identity)
        return all(self.mul(a, b) == self.mul(b, a) for a, b in itertools.combinations(gens, 2))

    @property
    def table(self) -> np.ndarray:
        """The multiplication table as a read-only int64 ndarray."""
        if self._array is None:
            import numpy as np
            tab = np.array(self._rows, dtype=np.int64)
            tab.setflags(write=False)
            self._array = tab
        return self._array

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- class structure -------------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        return tuple(self._classes_of(range(self.order)))

    def _classes_of(self, elements: Iterable[int]) -> list[ConjugacyClass]:
        """The classes of the ascending union of classes ``elements``: the
        identity class first, then by smallest member, the representative."""
        rows, inv = self._rows, self.inverses
        seen = [False] * self.order
        classes = []
        for g in elements:
            if seen[g]:
                continue
            # x g x^-1 for every x: row x gives x g, row x g gives (x g) x^-1
            members = sorted({rows[row[g]][i] for row, i in zip(rows, inv)})
            for m in members:
                seen[m] = True
            classes.append(ConjugacyClass(g, tuple(members)))
        classes.sort(key=lambda c: c.representative != self.identity)
        return classes

    def centralizer_indices(self, elems: Iterable[int]) -> tuple[int, ...]:
        """Indices of elements commuting with every element of ``elems``."""
        rows = self._rows
        mask = [True] * self.order
        for s in elems:
            if require_int(s, "element index", 0) >= self.order:
                raise InputError(f"element index {s} out of range")
            # s x == x s, against row s and column s
            mask = list(map(and_, mask, map(eq, rows[s], map(itemgetter(s), rows))))
        return tuple(itertools.compress(range(self.order), mask))

    def subgroup(self, elems: Sequence[int], name: str = "H") -> "FiniteGroup":
        """The subgroup on the given closed element set, with the induced table."""
        elems = tuple(sorted({require_int(e, "element index", 0) for e in elems}))
        if not elems:
            raise InputError("a subgroup needs at least one element")
        if elems[-1] >= self.order:
            raise InputError("element index out of range")
        pos = [-1] * self.order
        for i, e in enumerate(elems):
            pos[e] = i
        restrict = _getter(elems)
        tab = []
        for a in elems:
            row = _getter(restrict(self._rows[a]))(pos)
            if min(row) < 0:
                raise InputError("element set is not closed under multiplication")
            tab.append(row)
        return FiniteGroup(_ClosedRows(tab), name=name, validate=False, ambient_indices=elems)

    def centralizer_subgroup(self, g: int) -> "FiniteGroup":
        """C_G(g): the group itself if g is central, else one table per element set."""
        # checked before the cache, where True and 1.0 would find the entry of 1
        got = self._centralizer_cache.get(require_int(g, "element index", 0))
        if got is None:
            idx = self.centralizer_indices([g])
            got = self._centralizer_cache.get(idx)
            if got is None:
                got = self if len(idx) == self.order else self.subgroup(
                    idx, name=f"C_{{{self.name}}}({g})")
            self._centralizer_cache[idx] = self._centralizer_cache[g] = got
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


# -- tables from descriptors -----------------------------------------------------

def build_group(d: GroupDescriptor) -> FiniteGroup:
    """Materialize a descriptor as a validated Cayley-table group."""
    checked_order(d)
    return _build(d)


def _build(d: GroupDescriptor) -> FiniteGroup:
    if isinstance(d, Cyclic):
        g = _cyclic_group(d.n)
    elif isinstance(d, Symmetric):
        g = _symmetric_group(d.n)
    elif isinstance(d, Dihedral):
        g = _dihedral_group(d.order)
    elif isinstance(d, DirectProduct):
        g = direct_product(_build(d.left), _build(d.right))
    else:
        g = wreath_cyclic(_build(d.base), d.p)
    g.name = descriptor_name(d)
    g.descriptor = d
    return g


def _cyclic_group(n: int) -> FiniteGroup:
    ints = tuple(range(n))
    return FiniteGroup(_ClosedRows(ints[i:] + ints[:i] for i in range(n)))


def _symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    pos = {s: i for i, s in enumerate(perms)}
    # row g, column s: the composite g after s, with entries g[s[x]]; a
    # transposition and an n-cycle generate S_n (both are the identity at n = 1)
    e = perms[0]
    gens = (e[1::-1] + e[2:], e[1:] + e[:1])
    return FiniteGroup(_closure([[pos[_getter(s)(g)] for s in perms] for g in gens], 0))


def _dihedral_group(order: int) -> FiniteGroup:
    n = order // 2
    # element (i, j) = r^i s^j at index j*n + i;  s r s = r^-1, so
    # r^i1 * r^i2 s^j = r^(i1+i2) s^j and r^i1 s * r^i2 s^j = r^(i1-i2) s^(1+j)
    ints = tuple(range(order))
    rots, refls = ints[:n], ints[n:]
    tab = [rots[i:] + rots[:i] + refls[i:] + refls[:i] for i in range(n)]
    tab += [refls[i::-1] + refls[:i:-1] + rots[i::-1] + rots[:i:-1] for i in range(n)]
    return FiniteGroup(_ClosedRows(tab))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with elements a*|H| + b."""
    m = h.order
    ints = tuple(range(_require_order(g.order * m)))
    # shifted[u][b]: the elements (u, b d) for every d in H, at indices u*|H| + b d
    shifted = [tuple(_getter(hrow)(ints[u * m:(u + 1) * m]) for hrow in h._rows)
               for u in range(g.order)]
    tab = [tuple(itertools.chain.from_iterable(shifted[u][b] for u in grow))
           for grow in g._rows for b in range(m)]
    return FiniteGroup(_ClosedRows(tab), name=f"{g.name} x {h.name}", validate=False)


def wreath_cyclic(g: FiniteGroup, c: int) -> FiniteGroup:
    """The wreath product G wr C_c: tuples in G^c with C_c cycling coordinates.

    The element (g_0, ..., g_{c-1}; s) has index v*c + s with
    v = sum g_i |G|^i, and (gs; s)(hs; t) = (w; s + t) with
    w_i = g_i h_{i-s}, indices mod c.
    """
    require_int(c, "wreath degree", 2)
    m = g.order
    _require_order(_wreath_order(m, c))
    vs, ts, top = range(m ** c), range(c), m ** (c - 1)
    # (a, e, ..., e; 0)(h; t) = (a h_0, h_1, ..., h_{c-1}; t) for each
    # greedy generator a of G, and (e, ..., e; 1)(h; t) = (h_{c-1}, h_0, ...,
    # h_{c-2}; t + 1): together they generate G wr C_c
    gens = [[(v - v % m + row[v % m]) * c + t for v in vs for t in ts]
            for row in map(g._rows.__getitem__, _generators(g._rows, g.identity))]
    gens.append([(v % top * m + v // top) * c + (t + 1) % c for v in vs for t in ts])
    tab = _closure(gens, sum(g.identity * m ** i for i in range(c)) * c)
    name = g.name if " " not in g.name else f"({g.name})"
    return FiniteGroup(tab, name=f"{name} wr C{c}", validate=False)


# -- counting operations ---------------------------------------------------------

def _abelian_invariant_factors(g: FiniteGroup) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of an abelian group, ascending,
    read off its element orders with nothing factored.  In C_{d_1} x ... x
    C_{d_k}, x^d = e has prod gcd(d, d_i) solutions: so d_k is the exponent,
    and each next factor is the least d dividing the last one found at which
    the solutions, over prod gcd(d, f) for the factors f found, are the
    order not yet accounted for."""
    counts = Counter(g.element_orders)
    found = [max(counts)]
    left = g.order // found[0]
    while left > 1:
        for d in range(2, found[-1] + 1):
            if found[-1] % d == 0:
                share, rest = divmod(sum(c for o, c in counts.items() if d % o == 0),
                                     math.prod(math.gcd(d, f) for f in found))
                if rest or share == left:
                    break
        if rest or share != left or left % d:
            raise InvariantError("x^d = e has prod gcd(d, d_i) solutions in an abelian group")
        found.append(d)
        left //= d
    return tuple(reversed(found)) if found[0] > 1 else ()


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
            for cls in g._classes_of(g.p_elements(p))]


# 0/1 byte flags to and from the binary digits that int(..., 2) reads and bin() writes
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def count_commuting_p_tuples(g: FiniteGroup, p: int, n: int) -> int:
    """Number of pairwise-commuting n-tuples of p-power-order elements.

    Equivalently the number of homomorphisms from the free abelian pro-p
    group on n generators into g.  n = 0 counts the empty tuple.

    A commuting n-tuple generates an abelian p-subgroup A, and the n-tuples
    that generate A number Hall's Eulerian function sum_{B <= A} mu(B, A)
    |B|^n (P. Hall, Quart. J. Math. 7, 1936).  So with p^e the p-part of
    |G| each count is sum_{a <= e} c_a p^(a n), and each count past e
    follows from the e + 1 before it by the recurrence whose characteristic
    polynomial is prod_{a=0..e} (t - p^a).  The counts up to e are walked on
    bitmasks over the p-elements P, with no subgroup table and no conjugacy
    class: level k maps each common centralizer C(x_1..x_k) & P to the
    number of k-tuples that have it (level 0 is all of P, weight 1), and the
    count at k + 1 sums weight times popcount over level k.  Level k + 1
    sends each set S to S & C(x) for every x in S; where S goes is found
    once, when a level first reaches S, so a level that reaches no new set
    only moves weights.  By Cauchy's theorem a prime that does not divide
    |G| leaves the identity the only p-element, so every count is 1;
    otherwise the all-identity tuple's centralizer holds all of P, so each
    count exceeds the one before.  The group keeps, per prime, the tuple of
    counts reached so far, replaced whole by each call that goes further.
    Counts never fall as n grows, so one with count // |G| past the digit
    budget is refused.
    """
    require_prime(p)
    require_int(n, "tuple length", 0)
    if g.order % p:
        return 1
    counts = g._tuple_counts.get(p, ())
    if n < len(counts):
        return counts[n]
    e = vp(g.order, p)
    if not counts:
        pelts = g.p_elements(p)
        if n < 2:
            return len(pelts) if n else 1
        counts, level, steps = [1, len(pelts)], {(1 << len(pelts)) - 1: 1}, {}
        if e > 1:
            # C(x) & P for x in P: row x against column x of the P-by-P square
            square = list(map(_getter(pelts), _getter(pelts)(g._rows)))
            masks = [int(bytes(map(eq, row, col)).translate(_DIGITS)[::-1], 2)
                     for row, col in zip(square, zip(*square))]
        # the counts to e, at most |G|^e, fit the digit budget
        while len(counts) <= e:
            nxt: Counter[int] = Counter()
            for s, w in level.items():
                if s not in steps:
                    steps[s] = Counter(map(s.__and__, itertools.compress(
                        masks, bin(s)[:1:-1].encode().translate(_FLAGS))))
                for t, k in steps[s].items():
                    nxt[t] += w * k
            level = nxt
            counts.append(sum(w * s.bit_count() for s, w in level.items()))
    counts = list(counts)
    # prod_{a=0..e} (t - p^a), lowest degree first: its top 1 meets no count
    poly = [1]
    for a in range(e + 1):
        poly = [lo - p ** a * hi for lo, hi in zip([0] + poly, poly + [0])]
    for m in range(len(counts), n + 1):
        counts.append(-sum(map(mul, poly, counts[-e - 1:])))
        if not fits_digits(counts[-1] // g.order):
            raise ResourceBudgetError(f"{p}-tuple counts in {g.name} at length {m} "
                                      f"exceed the {MAX_DIGITS}-digit budget")
    g._tuple_counts[p] = tuple(counts)
    return counts[n]

