"""Shared helpers: small group zoo, random expression generator, and
brute-force oracles that stay independent of the library's own recursions."""

from __future__ import annotations

import functools
import itertools
import random

import pytest

import pifinite as pf
import pifinite.groups

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
    return sum(len(cls) * oracle_centralizer_tuples(g.centralizer_subgroup(cls.representative),
                                                    p, n - 1)
               for cls in g.conjugacy_classes() if g.is_p_element(cls.representative, p))


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
