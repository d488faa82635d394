"""Finite groups as validated Cayley tables, plus the counting primitive,
commuting tuples of p-power-order elements, that drives every
classifying-space cardinality of a table in this package.  Commuting tuples
are counted on centralizers held as bitmasks over the p-elements, with no
subgroup table.  Conjugacy classes and the p-adic loop's components are the
class walk of ``walks``, which a table feeds the conjugates of an element
read off its rows (``FiniteGroup.conjugates``), and which hands the table
builder the generators of each non-abelian proper centralizer, the one
table a loop builds; ``encoded`` runs the same walk on a described group's
encoded elements, with no table of the group.  The groups are named by the
descriptors of ``descriptors``, which also holds the order cap and the
limits every build applies.

Groups are deliberately plain multiplication tables, so every count is
exact and independently checkable by brute force.  A table is a tuple of
rows, each a tuple of Python ints that all rows share (one int object per
element, so a cell costs one 8-byte pointer), and every primitive works by
composing rows, ``itemgetter(*other)(row)`` being row composed with other;
no numpy is needed.  A table is checked by the group axioms alone: an
identity, found in every row, and associativity by Light's test over the
generators the table holds, at n^2 cells each: the generators whose rows
its closure read, or a caller's table's greedy ones, walked once at
construction.  Greedy generators, the commuting test, the p-element rule,
the power walk for orders and inverses and the class walk are the
``walks`` that ``encoded`` shares.

Every table is built one way (``_group_on``): the group on an ascending
index set of a group read through a row accessor, as the closure of its
generators' rows (``_closure``), one row composition per element.  A
described group is read through the multiplication rule of its encoding
(``encoded``), the one home of each kind's layout; a product or wreath of
tables through the product and wreath rules, with the tables as factors;
a subgroup, of a caller's table or a loop's centralizer, through the rows
of its group.  Light's test checks a built C, S or D table and every
caller's table.  Orders go up to the order cap
(``descriptors.DEFAULT_ORDER_CAP``, or ``PIFINITE_ORDER_CAP``), applied to
every build: a descriptor is checked whole before anything is built, and
``direct_product`` and ``wreath_cyclic`` check the order they would build.
Building a table is the costly step, and its cost grows with the square of
the order; a height count of a described group builds none
(``homcounts.hom_count``), and neither does its loop, past its non-abelian
proper centralizers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from operator import and_, eq, itemgetter, mul

from .descriptors import (DirectProduct, GroupDescriptor, Wreath, _require_order, _wreath_order,
                          checked_order, descriptor_name)
from .encoded import Rule, _encoding, _product_rule, _wreath_rule
from .errors import InputError, ResourceBudgetError
from .rationals import MAX_DIGITS, fits_digits, require_int, require_prime, vp
from .records import frozen
# p_loop_decomposition is public here: a table's loop components are the class walk's
from .walks import (Row, classes, commute, greedy_generators, orders_and_inverses,
                    p_elements, p_loop_decomposition)

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
    """Rows ``_closure`` made from one shared int per element, every entry in
    range, and ``gens``, the positions of the generators whose rows it
    closed: the constructor keeps both as built, so a table exists once,
    instead of re-sharing a copy, and its generators are walked once."""
    gens: tuple[int, ...]


def _passes_light_test(g: FiniteGroup) -> bool:
    """Light's associativity test over the generators the table holds.

    Each generator a must satisfy (x a) y == x (a y) for all x and y.  The
    elements that satisfy this contain the identity and are closed under
    products (if a and b do, then (x(ab))y = ((xa)b)y = (xa)(by) =
    x(a(by)) = x((ab)y)), so they include every element that products of
    generators reach from the identity.  A caller's table holds its greedy
    generators (``walks``), whose right multiplications reach every element.
    A table ``_closure`` built holds the generators whose rows it closed,
    each given its own row first; every other element was first reached as
    a x, for a generator a and an element x reached before it, and given
    row a composed after row x, so it is the product a x in the built table
    too, and left multiplications reach every element.  Either way every
    element passes, and the table is
    associative; with the identity in every row, checked first, it is a
    group.  Each generator costs n^2 cells.  A right inverse b of a passing
    a gives (xa)b = x(ab) = x, so multiplication by a is injective: in a
    group each greedy generator at least doubles the subgroup the ones
    before it generate, so at most log2(n) + 1 are tested, for a closure's
    generators too, which are greedy in the group it was read from.
    Without right inverses a monoid passes every generator, at n^3 cells.
    """
    rows = g._rows
    # row x a against row x composed with row a, for each generator a
    return all(rows[row[a]] == _getter(rows[a])(row) for a in g._gens for row in rows)


def _closure(elems: Sequence[int], row: Row, identity: int, gens: Iterable[int]) -> _ClosedRows:
    """The rows of the group on the ascending index set ``elems`` of a
    group read through the row accessor ``row``, whose identity is
    ``identity``, that the elements ``gens`` generate, each product at its
    position in ``elems`` and the rows over one shared int per element.
    The generators' rows are read first: the set must hold the identity,
    and no generator's row may leave it.  The identity and the generators,
    which are distinct and not the identity, get their own rows first, and
    the walk starts at them: each element g x, when first reached, gets row
    g composed after row x, since (g x) z = g (x z): one gather in C per
    element.  The generators' positions are held with the rows, for
    ``_passes_light_test`` and ``FiniteGroup.is_abelian``."""
    ints = tuple(range(len(elems)))
    pos = dict(zip(elems, ints))
    held = tuple(map(pos.get, gens))    # each generator is in the set
    gen_rows = [tuple(map(pos.get, map(row(elems[i]), elems))) for i in held]
    start = pos.get(identity)
    del pos     # freed before the table is built: a build peaks at one table
    if start is None or any(None in r for r in gen_rows):
        raise InputError("element set is not closed under multiplication")
    rows: list = [None] * len(ints)
    reached = [start, *held]
    for x, r in zip(reached, (ints, *gen_rows)):
        rows[x] = r
    for x in reached:                   # the list grows while it is walked
        compose = _getter(rows[x])
        for gen in gen_rows:
            y = gen[x]
            if rows[y] is None:
                rows[y] = compose(gen)
                reached.append(y)
    if len(reached) < len(ints):        # rows from a table that is not a group
        raise InputError("the generators' rows do not reach every element")
    closed = _ClosedRows(rows)
    closed.gens = held
    return closed


class FiniteGroup:
    """A finite group on elements 0..order-1 given by its multiplication table.

    The table is validated at construction (two-sided identity, identity in
    every row, and associativity by Light's test).  Its generators are held
    from construction: those whose rows ``_closure`` closed, or a caller's
    table's greedy ones, walked once; Light's test and ``is_abelian`` read
    them.  Orders and inverses are computed up front, the class walk's pairs
    and the tuple counts per prime on first use, and conjugacy classes on
    each call.  Instances are immutable and compare (and hash) by their rows,
    which normal forms sort by too, held once (see ``_ClosedRows``).
    ``table`` is a read-only int64 ndarray copy for outside callers, built
    on first access; nothing here reads it.
    """

    def __init__(self, table, name: str = "G", *, validate: bool = True):
        closed = type(table) is _ClosedRows
        # a plain tuple, so row lookups stay on the exact-tuple fast path
        self._rows: Rows = tuple(table) if closed else _shared_rows(table)
        self.order: int = len(self._rows)
        self.name = name
        self.descriptor = None      # the descriptor a table is built for, set by build_group
        self.identity: int = self._find_identity()
        self._gens: tuple[int, ...] = table.gens if closed else tuple(
            greedy_generators(self._row, self.identity, self.elements()))
        if validate:
            self._validate()
        # refused in an unvalidated table that is no group
        self.element_orders, self.inverses = orders_and_inverses(
            self._row, self.identity, self.order, InputError)
        self._p_loops: dict = {}        # p -> the class walk's pairs
        self._tuple_counts: dict = {}   # p -> the counts at n = 0, 1, ... reached
        self._hash: int | None = None   # hash(rows), taken on first use
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
        if not _passes_light_test(self):
            raise InputError("table is not associative")

    # -- protocol ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def _row(self, a: int) -> Callable[[int], int]:
        """The row accessor of ``walks``: the map b -> a b, read off row a."""
        return self._rows[a].__getitem__

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        """Whether the generators the table holds commute pairwise."""
        return commute(self._row, self._gens)

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
        if self._hash is None:
            self._hash = hash(self._rows)
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- class structure -------------------------------------------------------

    def conjugates(self, g: int) -> list[int]:
        """The primitive of the class walk: x g x^-1 for every x, where row
        x gives x g and row x g gives (x g) x^-1."""
        rows = self._rows
        return [rows[row[g]][i] for row, i in zip(rows, self.inverses)]

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Every class, the identity class first, then by least member."""
        return tuple(ConjugacyClass(g, tuple(members))
                     for g, members, _ in classes(self, range(self.order)))

    def subgroup(self, elems: Sequence[int], name: str = "H") -> "FiniteGroup":
        """The subgroup on the given closed element set, with the induced
        table (``_group_on``)."""
        elems = tuple(sorted({require_int(e, "element index", 0) for e in elems}))
        if not elems:
            raise InputError("a subgroup needs at least one element")
        if elems[-1] >= self.order:
            raise InputError("element index out of range")
        return _group_on(elems, self._row, self.identity, name)

    # -- p-structure -----------------------------------------------------------

    def is_p_element(self, g: int, p: int) -> bool:
        """p-power order, the identity included: the p-element rule of
        ``walks`` on the one order."""
        return bool(p_elements((self.element_orders[g],), p))

    def p_elements(self, p: int) -> tuple[int, ...]:
        return p_elements(self.element_orders, p)


# -- the one table builder ---------------------------------------------------------

def _group_on(elems: Sequence[int], row: Row, identity: int, name: str, *,
              gens: Iterable[int] | None = None, validate: bool = False) -> FiniteGroup:
    """The group on the ascending index set ``elems`` of a group read
    through the row accessor ``row`` of ``walks``, whose identity is
    ``identity``: the closure of its generators' rows.  The generators are
    ``gens``, or else its greedy ones; either way they reach every element
    of the set, so it is closed exactly when it holds the identity and no
    generator's row leaves it.  The table holds them."""
    if gens is None:
        gens = greedy_generators(row, identity, elems)
    return FiniteGroup(_closure(elems, row, identity, gens), name=name, validate=validate)


def _from_rule(rule: Rule, name: str, *, validate: bool = False) -> FiniteGroup:
    """The table of the group ``encoded`` gives as (order, identity, mul)."""
    order, identity, times = rule
    # the row accessor a -> (b -> a b)
    return _group_on(range(order), partial(partial, times), identity, name, validate=validate)


def _rule(g: FiniteGroup) -> Rule:
    """A table as a factor of the product and wreath rules."""
    return g.order, g.identity, g.mul


def build_group(d: GroupDescriptor) -> FiniteGroup:
    """Materialize a descriptor as a Cayley-table group on the indices of
    its encoding; Light's test checks a C, S or D table."""
    checked_order(d)
    g = _from_rule(_encoding(d), descriptor_name(d),
                   validate=not isinstance(d, (DirectProduct, Wreath)))
    g.descriptor = d
    return g


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with elements a*|H| + b."""
    _require_order(g.order * h.order)
    return _from_rule(_product_rule(_rule(g), _rule(h)), f"{g.name} x {h.name}")


def wreath_cyclic(g: FiniteGroup, c: int) -> FiniteGroup:
    """The wreath product G wr C_c: tuples in G^c with C_c cycling
    coordinates, (g_0, ..., g_{c-1}; s) at index v*c + s with
    v = sum g_i |G|^i."""
    require_int(c, "wreath degree", 2)
    _require_order(_wreath_order(g.order, c))
    name = g.name if " " not in g.name else f"({g.name})"
    return _from_rule(_wreath_rule(_rule(g), c), f"{name} wr C{c}")


# -- counting operations ---------------------------------------------------------

def conjugacy_classes(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    return g.conjugacy_classes()


def centralizer(g: FiniteGroup, elems: Iterable[int]) -> FiniteGroup:
    """The centralizer of an element set, as a group with the induced table:
    ``g`` itself when the set is central.  An element s commutes with x
    where x s x^-1 = s, read off ``conjugates(s)``."""
    mask, named = [True] * g.order, []
    for s in elems:
        if require_int(s, "element index", 0) >= g.order:
            raise InputError(f"element index {s} out of range")
        mask = list(map(and_, mask, map(s.__eq__, g.conjugates(s))))
        named.append(str(s))
    idx = tuple(itertools.compress(range(g.order), mask))
    return g if len(idx) == g.order else g.subgroup(
        idx, name=f"C_{{{g.name}}}({', '.join(named)})")


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

