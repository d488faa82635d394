"""Shared helpers: small group zoo, random expression generator, and
brute-force oracles that stay independent of the library's own recursions."""

from __future__ import annotations

import functools
import itertools
import random

import pytest

import pifinite as pf
import pifinite.groups
import pifinite.walks

GROUP_TEXTS = ("C2", "C3", "C4", "C6", "S3", "D8", "C2 x C2")
ABELIAN_POOL = ((2,), (3,), (4,), (2, 2), (6,), (2, 4))


@functools.lru_cache(maxsize=None)
def named_group(text: str) -> pf.FiniteGroup:
    return pf.build_group(pf.parse_group(text))


def builtin_groups() -> list[pf.FiniteGroup]:
    return [named_group(t) for t in GROUP_TEXTS]


def random_space_expr(rng: random.Random, depth: int = 2) -> pf.SpaceExpr:
    """Random expression over a small atom pool; sizes stay loop-friendly."""
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        kind = rng.randrange(3)
        if kind == 0:
            return pf.finite_set(rng.randint(1, 3))
        if kind == 1:
            # the raw atom: an abelian table stays a table that counts tuples
            return pf.Classifying(named_group(rng.choice(GROUP_TEXTS)))
        return pf.em_space(rng.choice(ABELIAN_POOL), rng.randint(1, 3))
    if roll < 0.8:
        return pf.disjoint_union(*(random_space_expr(rng, depth - 1)
                                   for _ in range(rng.randint(2, 3))))
    return pf.product(random_space_expr(rng, depth - 1),
                      random_space_expr(rng, depth - 1))


def random_space_text(rng: random.Random, depth: int = 2) -> str:
    return pf.space_text(random_space_expr(rng, depth))


@pytest.fixture
def build_calls(monkeypatch):
    """Descriptors passed to ``groups.build_group``, in call order."""
    calls = []
    build = pf.groups.build_group

    def counting_build(desc, *args, **kwargs):
        calls.append(desc)
        return build(desc, *args, **kwargs)
    monkeypatch.setattr(pf.groups, "build_group", counting_build)
    return calls


# -- oracles -------------------------------------------------------------------------

def oracle_commuting_tuples(g: pf.FiniteGroup, p: int, n: int) -> int:
    """Direct tuple enumeration: no classes, no centralizers, no recursion."""
    pelts = [x for x in g.elements() if g.is_p_element(x, p)]
    count = 0
    for tup in itertools.product(pelts, repeat=n):
        if all(g.mul(a, b) == g.mul(b, a)
               for a, b in itertools.combinations(tup, 2)):
            count += 1
    return count


@functools.lru_cache(maxsize=None)
def oracle_centralizer_tuples(g: pf.FiniteGroup, p: int, n: int) -> int:
    """The class/centralizer recursion on subgroup tables: a tuple is a
    p-element x followed by an (n-1)-tuple in C(x), and conjugate x have
    isomorphic centralizers, so the count is the sum over p-classes of
    |class| times the count in C(rep); n = 2 is a direct pair count."""
    pelts = g.p_elements(p)
    if n < 2:
        return len(pelts) if n else 1
    if n == 2:
        return sum(g.mul(a, b) == g.mul(b, a) for a in pelts for b in pelts)
    return sum(size * oracle_centralizer_tuples(cent, p, n - 1)
               for size, cent in _oracle_p_centralizers(g, p))


@functools.lru_cache(maxsize=None)
def _oracle_p_centralizers(g: pf.FiniteGroup, p: int) -> tuple:
    """(class size, centralizer table) per p-class, for counts, which read
    no name."""
    return tuple((len(cls), oracle_centralizer_subgroup(g, cls.representative))
                 for cls in oracle_classes_of(g, g.p_elements(p)))


def abelian_p_subgroups(g: pf.FiniteGroup, p: int) -> set[frozenset[int]]:
    """Every abelian p-subgroup of g, as its element set: from the trivial
    group, each found A grows by each p-element x outside it that commutes
    with all of A, to <A, x> = the union of A x^j."""
    pelts = g.p_elements(p)
    found = {frozenset([g.identity])}
    todo = list(found)
    while todo:
        a = todo.pop()
        for x in pelts:
            if x in a or any(g.mul(x, y) != g.mul(y, x) for y in a):
                continue
            grown, power = set(a), x
            while power not in a:
                grown.update(g.mul(y, power) for y in a)
                power = g.mul(power, x)
            grown = frozenset(grown)
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    return found


def oracle_census_coefficients(g: pf.FiniteGroup, p: int) -> list[int]:
    """The c_a of count_n = sum c_a p^(a n) by Hall's Eulerian function:
    commuting p-tuples are the generating tuples of the abelian p-subgroups
    A, and in A the Moebius function is (-1)^s p^C(s,2) on the B with A/B
    elementary abelian of rank s, 0 elsewhere.  So each A, of order
    p^(e_A) and with A/pA of rank r, adds [r, s]_p (-1)^s p^C(s,2) to
    c_(e_A - s)."""
    def gaussian(r: int, s: int) -> int:
        num = den = 1
        for i in range(s):
            num *= p ** (r - i) - 1
            den *= p ** (i + 1) - 1
        return num // den

    coefficients = [0] * (pf.vp(g.order, p) + 1)
    for a in abelian_p_subgroups(g, p):
        e_a = pf.vp(len(a), p)
        powers = set()
        for y in a:
            z = y
            for _ in range(p - 1):
                z = g.mul(z, y)
            powers.add(z)
        r = e_a - pf.vp(len(powers), p)
        for s in range(r + 1):
            coefficients[e_a - s] += gaussian(r, s) * (-1) ** s * p ** (s * (s - 1) // 2)
    return coefficients


def oracle_looped_cardinality(x: pf.SpaceExpr, p: int, n: int):
    """The height-n cardinality by the loop recursion: loop p-adically n
    times (B(G) splitting into centralizer tables, EM atoms picking up their
    p-part one degree down), then take the homotopy cardinality."""
    for _ in range(n):
        x = pf.p_adic_loop(x, p)
    return pf.homotopy_cardinality(x)


def oracle_conjugacy_classes(g: pf.FiniteGroup) -> list[frozenset[int]]:
    """Orbit computation from scratch."""
    classes = []
    seen: set[int] = set()
    for x in g.elements():
        if x in seen:
            continue
        orbit = frozenset(g.mul(g.mul(a, x), g.inv(a)) for a in g.elements())
        seen |= orbit
        classes.append(orbit)
    return classes


# -- the table route: classes collected as sets off a table's rows, and each
# centralizer's subgroup table, sharing no code with the class walk of walks

def oracle_classes_of(g: pf.FiniteGroup, elements) -> list[pf.ConjugacyClass]:
    """The classes of the ascending union of classes ``elements``, each
    orbit collected as a set off the rows: the identity class first, then
    by smallest member, the representative."""
    rows, inv = g._rows, g.inverses
    seen = [False] * g.order
    classes = []
    for x in elements:
        if seen[x]:
            continue
        members = sorted({rows[row[x]][i] for row, i in zip(rows, inv)})
        for m in members:
            seen[m] = True
        classes.append(pf.ConjugacyClass(x, tuple(members)))
    classes.sort(key=lambda c: c.representative != g.identity)
    return classes


def oracle_centralizer_indices(g: pf.FiniteGroup, elems) -> tuple[int, ...]:
    """The ascending indices of the elements that commute with each of
    ``elems``, row against column."""
    return tuple(x for x in g.elements() if all(g.mul(s, x) == g.mul(x, s) for s in elems))


def oracle_centralizer_subgroup(g: pf.FiniteGroup, x: int, name: str = "H") -> pf.FiniteGroup:
    """C(x): ``g`` itself if x is central, else its induced subgroup table."""
    idx = oracle_centralizer_indices(g, [x])
    return g if len(idx) == g.order else g.subgroup(idx, name=name)


def oracle_p_loop_decomposition(g: pf.FiniteGroup, p: int) -> list[tuple[int, pf.FiniteGroup]]:
    """One (representative, centralizer table) pair per class of p-elements,
    the identity class first: ``g`` itself for a whole centralizer, and one
    table per index set, named ``C_{G}(x)`` by the first class that has it."""
    tables: dict = {}
    pairs = []
    for cls in oracle_classes_of(g, g.p_elements(p)):
        x = cls.representative
        idx = oracle_centralizer_indices(g, [x])
        if idx not in tables:
            tables[idx] = oracle_centralizer_subgroup(g, x, name=f"C_{{{g.name}}}({x})")
        pairs.append((x, tables[idx]))
    return pairs


def held_to_the_oracle(g: pf.FiniteGroup, group, pairs, p: int) -> None:
    """The class walk's ``pairs`` of ``group``, the table ``g`` or its
    encoding, against the table route at p: the same representatives, the
    whole group as ``group`` itself, an abelian centralizer as the invariant
    factors of its table, a non-abelian one as the same rows and name, and
    one object per index set."""
    def sharing(objects) -> list[int]:
        first: dict = {}
        return [first.setdefault(id(c), len(first)) for c in objects]

    oracle = oracle_p_loop_decomposition(g, p)
    assert [r for r, _ in pairs] == [r for r, _ in oracle]
    for (_, c), (_, t) in zip(pairs, oracle):
        if t is g:
            assert c is group
        elif t.is_abelian():
            assert c == pf.walks.abelian_invariant_factors(t.element_orders)
        else:
            assert (c._rows, c.name) == (t._rows, t.name)
    assert sharing(c for _, c in pairs) == sharing(t for _, t in oracle)


def relabelled(g: pf.FiniteGroup, seed: int) -> pf.FiniteGroup:
    """``g`` on shuffled element indices, its identity off index 0 when
    the order is above 1."""
    rng = random.Random(seed)
    perm = list(g.elements())
    while g.order > 1 and perm[g.identity] == 0:
        rng.shuffle(perm)
    table = [[0] * g.order for _ in g.elements()]
    for a, b in itertools.product(g.elements(), repeat=2):
        table[perm[a]][perm[b]] = perm[g.mul(a, b)]
    return pf.FiniteGroup(table, name=f"{g.name}'")


def oracle_cyclic_table(n: int) -> list[list[int]]:
    """C_n on 0..n-1: row a, column b holds a + b mod n."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def oracle_dihedral_table(order: int) -> list[list[int]]:
    """D_2m with r^i s^j at index j m + i: since s r = r^-1 s, the
    product r^i s^j r^k s^l is r^(i + (-1)^j k) s^(j + l)."""
    m = order // 2
    elems = [(i, j) for j in range(2) for i in range(m)]
    return [[(i + (-1) ** j * k) % m + (j + l) % 2 * m for k, l in elems] for i, j in elems]


def oracle_symmetric_table(m: int) -> list[list[int]]:
    """S_m on the sorted permutations: row s, column t holds the index of
    s after t, the permutation x -> s[t[x]]."""
    perms = sorted(itertools.permutations(range(m)))
    pos = {s: i for i, s in enumerate(perms)}
    return [[pos[tuple(s[x] for x in t)] for t in perms] for s in perms]


def oracle_product_table(g: pf.FiniteGroup, h: pf.FiniteGroup) -> list[list[int]]:
    """G x H by the pair rule (a, b)(c, d) = (a c, b d), with (a, b) at
    index a |H| + b."""
    m = h.order
    pairs = [divmod(x, m) for x in range(g.order * m)]
    return [[g.mul(a, c) * m + h.mul(b, d) for c, d in pairs] for a, b in pairs]


def oracle_generated(g: pf.FiniteGroup, gens) -> tuple[int, ...]:
    """The ascending elements of the subgroup ``gens`` generate, by
    multiplying out from the identity until nothing new is reached."""
    reached, todo = {g.identity}, [g.identity]
    while todo:
        x = todo.pop()
        for y in (g.mul(x, a) for a in gens):
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return tuple(sorted(reached))


def oracle_subgroup_table(g: pf.FiniteGroup, elems) -> list[list[int]]:
    """The rows of ``g`` at the ascending subgroup ``elems`` restricted to
    its columns, each product at its position in ``elems``."""
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[g.mul(a, b)] for b in elems] for a in elems]


def oracle_wreath_table(g: pf.FiniteGroup, c: int) -> list[list[int]]:
    """G wr C_c by the rule (gs; s)(hs; t) = (w; s + t) with w_i =
    g_i h_{i-s}, indices mod c, and (g_0, ..., g_{c-1}; s) at index
    v c + s with v = sum g_i |G|^i."""
    m = g.order
    elems = [([v // m ** i % m for i in range(c)], s) for v in range(m ** c) for s in range(c)]

    def index(ws: list[int], s: int) -> int:
        return sum(w * m ** i for i, w in enumerate(ws)) * c + s % c
    return [[index([g.mul(gs[i], hs[(i - s) % c]) for i in range(c)], s + t) for hs, t in elems]
            for gs, s in elems]


def oracle_described_table(d) -> list[list[int]]:
    """The table of the descriptor ``d`` by the oracles above, a product
    and a wreath over the caller tables of their factors' oracle tables."""
    if isinstance(d, pf.Cyclic):
        return oracle_cyclic_table(d.n)
    if isinstance(d, pf.Dihedral):
        return oracle_dihedral_table(d.order)
    if isinstance(d, pf.Symmetric):
        return oracle_symmetric_table(d.n)
    if isinstance(d, pf.DirectProduct):
        return oracle_product_table(pf.FiniteGroup(oracle_described_table(d.left)),
                                    pf.FiniteGroup(oracle_described_table(d.right)))
    return oracle_wreath_table(pf.FiniteGroup(oracle_described_table(d.base)), d.p)
