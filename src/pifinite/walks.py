"""The walks both group engines read a group through: greedy generators,
the power walk for element orders and inverses, the commuting test, the
p-elements and an abelian group's invariant factors, both read off the
element orders, and the class walk that gives the p-adic loop its
components.  Each walk reads products through a row accessor ``row(a)``,
the map ``b -> a b``: ``rows[a].__getitem__`` on a Cayley table
(``groups``), at row speed, and ``mul`` with ``a`` fixed on encoded
elements (``encoded``).  The class walk reads one more primitive of each
engine, ``conjugates(g)``, the list of x g x^-1 over every x, which a table
reads off its rows.  The identity may be any index."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import InvariantError
from .rationals import require_prime

Row = Callable[[int], Callable[[int], int]]


def greedy_generators(row: Row, identity: int, elements: Iterable[int]) -> Iterator[int]:
    """Greedy generators of the ascending ``elements``, yielded one at a
    time: each is the least element not yet reached from the identity by
    right multiplication by the generators before it.  The reached set is
    closed under the generators before the next is picked, walking the old
    elements by the newest generator only.  In a group it is the subgroup
    they generate, so each at least doubles it: at most log2(n) + 1."""
    seen, reached, gens = {identity}, [identity], []
    for a in elements:
        if a not in seen:
            yield a
            gens.append(a)
            old = len(reached)
            for i, x in enumerate(reached):     # the list grows while it is walked
                for y in map(row(x), gens if i >= old else gens[-1:]):
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)


def orders_and_inverses(row: Row, identity: int, n: int,
                        error: type[Exception]) -> tuple[tuple[int, ...], ...]:
    """(orders, inverses) of the n elements: walk the powers g, g^2, ...,
    g^m = e of each element not yet reached, and g^k has order m / gcd(k, m)
    and inverse g^(m-k).  Powers that miss the identity for n steps, in no
    group, raise ``error``."""
    orders, inverses = [0] * n, [identity] * n
    for g in range(n):
        if orders[g]:
            continue
        times_g, powers, x = row(g), [g], g
        while x != identity:
            if len(powers) == n:
                raise error(f"the powers of element {g} never reach the identity")
            x = times_g(x)              # g g^k = g^(k+1)
            powers.append(x)
        m = len(powers)
        for k, x in enumerate(powers, 1):
            if not orders[x]:
                orders[x] = m // math.gcd(k, m)
                inverses[x] = powers[m - k - 1]
    return tuple(orders), tuple(inverses)


def commute(row: Row, gens: Iterable[int]) -> bool:
    """Whether the elements ``gens`` commute pairwise: for greedy
    generators, whether the group they generate is abelian."""
    return all(row(a)(b) == row(b)(a) for a, b in itertools.combinations(gens, 2))


def abelian_invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of an abelian group, ascending,
    read off the orders of its elements with nothing factored.  In C_{d_1}
    x ... x C_{d_k}, x^d = e has prod gcd(d, d_i) solutions: so d_k is the
    exponent, and each next factor is the least d dividing the last one
    found at which the solutions, over prod gcd(d, f) for the factors f
    found, are the order not yet accounted for."""
    counts = Counter(orders)
    found = [max(counts)]
    left = len(orders) // found[0]
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


def p_elements(orders: Sequence[int], p: int) -> tuple[int, ...]:
    """The indices, ascending, whose ``orders`` are powers of the prime
    ``p``, the identity's order 1 included: the one p-element rule."""
    require_prime(p)
    powers = {p ** k for k in range(max(orders).bit_length())}    # up to the largest order
    return tuple(itertools.compress(range(len(orders)), map(powers.__contains__, orders)))


def classes(group, elements: Iterable[int]) -> Iterator[tuple[int, list[int], tuple[int, ...]]]:
    """(representative, members, centralizer) of each conjugacy class: the
    identity class first, wherever the identity sits, then each class in
    ``elements``, an ascending union of classes, by least member, the
    representative.  One pass over the group per class past the identity's:
    of the list ``group.conjugates(g)`` of x g x^-1 over every x, the
    distinct values are the class, ascending, and the x at which it is g
    are the indices of C(g) = {x : x g = g x}."""
    n, e = group.order, group.identity
    seen = bytearray(n)
    seen[e] = 1
    yield e, [e], tuple(range(n))          # {e}, and C(e) = G, with no pass
    for g in elements:
        if not seen[g]:
            conjugates = group.conjugates(g)
            members = sorted(set(conjugates))
            for y in members:
                seen[y] = 1
            yield g, members, tuple(itertools.compress(range(n), map(g.__eq__, conjugates)))


def p_loop_decomposition(group, p: int) -> list[tuple[int, object]]:
    """One (representative, centralizer) pair per class of p-power-order
    elements, the identity class first: the components B(C(g)) of the
    p-adic free loop space of B(G), by the class walk.  Each centralizer is
    classified by its index set before anything is built for it: ``group``
    itself when it is the whole group, the tuple of its invariant factors,
    read off the element orders, when its greedy generators commute, and
    otherwise the table that ``groups._group_on`` builds from those
    generators, named ``C_{G}(g)``, which holds them, so its abelian test
    walks nothing.  Classes with equal centralizers share one object, named
    by the first of them.  The group holds the pairs per prime, as a table
    holds its tuple counts."""
    require_prime(p)    # before the lookup, where 2.0 would find 2's pairs
    held = group._p_loops
    if p not in held:
        cents: dict = {}
        pairs = []
        for g, _, elems in classes(group, p_elements(group.element_orders, p)):
            if elems not in cents:
                cents[elems] = _classified(group, g, elems)
            pairs.append((g, cents[elems]))
        held[p] = tuple(pairs)
    return list(held[p])


def _classified(group, g: int, elems: tuple[int, ...]):
    """C(g) on its ascending indices ``elems``, as ``p_loop_decomposition``
    gives it: ``group``, invariant factors or a table, which holds the
    greedy generators walked here."""
    if len(elems) == group.order:
        return group
    row = group._row
    gens = list(greedy_generators(row, group.identity, elems))
    if commute(row, gens):
        return abelian_invariant_factors(list(map(group.element_orders.__getitem__, elems)))
    from .groups import _group_on
    return _group_on(elems, row, group.identity, f"C_{{{group.name}}}({g})", gens=gens)
