"""Reference answers owned by the benchmark.

Nothing here calls pifinite.  Group descriptors are the benchmark's own
tuples, ``("C", m)``, ``("S", k)``, ``("D", order)``, ``("x", a, b)`` and
``("wr", base, c)``; groups that need a table get one from the benchmark's
own constructions, and commuting tuples are counted on that table by brute
force.  Closed forms cover the rest: cyclic groups and EM atoms
(``p^C(n-1, k)``), multiplicativity over direct products, the
Gaussian-binomial kernel count, and the documented beta/alpha profiles.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def group_text(d) -> str:
    """Render a descriptor in the library's text grammar."""
    kind = d[0]
    if kind == "x":
        return f"{group_text(d[1])} x {group_text(d[2])}"
    if kind == "wr":
        return f"{group_text(d[1])} wr C{d[2]}"
    return f"{kind}{d[1]}"


def group_order(d) -> int:
    kind = d[0]
    if kind in ("C", "D"):
        return d[1]
    if kind == "S":
        return math.factorial(d[1])
    if kind == "x":
        return group_order(d[1]) * group_order(d[2])
    return group_order(d[1]) ** d[2] * d[2]


def p_part(m: int, p: int) -> int:
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


# -- tables -------------------------------------------------------------------------
# Identity is element 0 in every table built here.

def _table_from_perms(perms: np.ndarray) -> np.ndarray:
    """Cayley table of a permutation group given as all its elements (rows)."""
    n, deg = perms.shape
    weights = deg ** np.arange(deg, dtype=np.int64)
    codes = perms.astype(np.int64) @ weights
    order = np.argsort(codes)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        composed = perms[i][perms]                  # (perms[i] o perms[j])
        table[i] = order[np.searchsorted(codes[order], composed.astype(np.int64) @ weights)]
    return table


def _symmetric_table(k: int) -> np.ndarray:
    return _table_from_perms(np.array(list(itertools.permutations(range(k))), dtype=np.int64))


def _dihedral_table(order: int) -> np.ndarray:
    m = order // 2
    idx = np.arange(order)
    rot, refl = idx % m, idx // m                 # element r^rot s^refl
    sign = np.where(refl[:, None] == 0, 1, -1)
    new_rot = (rot[:, None] + sign * rot[None, :]) % m
    new_refl = (refl[:, None] + refl[None, :]) % 2
    return new_refl * m + new_rot


def _cyclic_table(m: int) -> np.ndarray:
    idx = np.arange(m)
    return (idx[:, None] + idx[None, :]) % m


def _wreath_table(base: np.ndarray, c: int) -> np.ndarray:
    """(g; s)(h; t) = (g_i h_{i-s}; s+t), element index = tuple code * c + s."""
    m = len(base)
    coords = np.array(list(itertools.product(range(m), repeat=c)), dtype=np.int64)
    weights = m ** np.arange(c - 1, -1, -1, dtype=np.int64)  # product() order
    n = len(coords) * c
    shift = np.arange(n) % c
    tup = coords[np.arange(n) // c]               # (n, c)
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        s = shift[a]
        rolled = tup[:, (np.arange(c) - s) % c]   # h_{i-s}
        prod = base[tup[a][None, :], rolled]      # g_i h_{i-s}
        table[a] = (prod @ weights) * c + (s + shift) % c
    return table


def _direct_product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = len(a), len(b)
    table = n * a[:, None, :, None] + b[None, :, None, :]
    return table.reshape(m * n, m * n)


@functools.lru_cache(maxsize=None)
def group_table(d) -> np.ndarray:
    kind = d[0]
    if kind == "x":
        return _direct_product_table(group_table(d[1]), group_table(d[2]))
    if kind == "C":
        return _cyclic_table(d[1])
    if kind == "S":
        return _symmetric_table(d[1])
    if kind == "D":
        return _dihedral_table(d[1])
    return _wreath_table(group_table(d[1]), d[2])


# -- counting -------------------------------------------------------------------------

def _p_element_mask(table: np.ndarray, p: int) -> np.ndarray:
    n = len(table)
    power = np.arange(n)
    mask = power == 0
    # g is a p-element iff g^(p^j) is the identity for some p^j <= n
    for _ in range(max(1, n.bit_length())):
        q = power.copy()
        for _ in range(p - 1):
            q = table[q, power]
        power = q
        mask |= power == 0
    return mask


def _hom_count_on_table(table: np.ndarray, p: int, n: int) -> int:
    """Pairwise-commuting n-tuples of p-power-order elements, by brute force."""
    if n == 0:
        return 1
    pel = _p_element_mask(table, p)
    commute = table == table.T
    memo: dict = {}

    def count(mask: np.ndarray, k: int) -> int:
        sel = np.nonzero(mask & pel)[0]
        if k == 1:
            return len(sel)
        if k == 2:
            return int(commute[np.ix_(sel, sel)].sum())
        key = (mask.tobytes(), k)
        if key not in memo:
            memo[key] = sum(count(mask & commute[x], k - 1) for x in sel)
        return memo[key]

    return count(np.ones(len(table), dtype=bool), n)


@functools.lru_cache(maxsize=None)
def hom_count(d, p: int, n: int) -> int:
    """|Hom(Z_p^n, G)| for a descriptor."""
    kind = d[0]
    if kind == "C":
        return p_part(d[1], p) ** n
    if kind == "x":
        return hom_count(d[1], p, n) * hom_count(d[2], p, n)
    return _hom_count_on_table(group_table(d), p, n)


def bg_value(d, p: int, n: int) -> Fraction:
    """Height-n cardinality of B(G)."""
    return Fraction(hom_count(d, p, n), group_order(d))


def binom_ext(n: int, k: int) -> int:
    if n == -1:
        return -1 if k % 2 else 1
    return math.comb(n, k) if 0 <= k <= n else 0


def em_value(factors, degree: int, p: int, n: int) -> Fraction:
    """Height-n cardinality of B^degree(prod C_f): p^C(n-1, k) on the p-part."""
    order = math.prod(factors)
    pp = math.prod(p_part(f, p) for f in factors)
    sign = 1 if degree % 2 == 0 else -1
    return Fraction(pp) ** binom_ext(n - 1, degree) * Fraction(order // pp) ** sign


def space_value(expr, p: int, n: int) -> Fraction:
    """Expression trees: ("set", k), ("B", d), ("EM", factors, k), ("+", ...), ("*", ...)."""
    kind = expr[0]
    if kind == "set":
        return Fraction(expr[1])
    if kind == "B":
        return bg_value(expr[1], p, n)
    if kind == "EM":
        return em_value(expr[1], expr[2], p, n)
    parts = [space_value(e, p, n) for e in expr[1:]]
    return sum(parts, Fraction(0)) if kind == "+" else math.prod(parts, start=Fraction(1))


def space_text(expr) -> str:
    kind = expr[0]
    if kind == "set":
        return str(expr[1])
    if kind == "B":
        return f"B({group_text(expr[1])})"
    if kind == "EM":
        return f"B^{expr[2]}({' x '.join(f'C{f}' for f in expr[1])})"
    if kind == "+":
        return " + ".join(space_text(e) for e in expr[1:])
    return " * ".join(f"({space_text(e)})" if e[0] == "+" else space_text(e)
                      for e in expr[1:])


# -- the p-derivation and splitting elements --------------------------------------------

def delta(a: Fraction, p: int) -> Fraction:
    return (a - a ** p) / p


def delta_iter(a, p: int, k: int) -> Fraction:
    a = Fraction(a)
    for _ in range(k):
        a = delta(a, p)
    return a


def beta_values(p: int, k: int, top: int) -> list[Fraction]:
    """Layer values of beta(p, k): p[BC_p] - 1 for k = 0, else
    delta^(k-1)[BC_p] - b with b the layer-k residue in 1..p-1."""
    bc_p = [Fraction(1, p)] + [Fraction(p) ** (n - 1) for n in range(1, top + 1)]
    if k == 0:
        return [p * v - 1 for v in bc_p]
    b = int(delta_iter(p ** (k - 1), p, k - 1)) % p
    return [delta_iter(v, p, k - 1) - b for v in bc_p]


def alpha_values(p: int, k: int, top: int) -> list[Fraction]:
    out = [Fraction(1)] * (top + 1)
    for j in range(k + 1):
        out = [a * b for a, b in zip(out, beta_values(p, j, top))]
    return out


def vp(x: Fraction, p: int):
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def layer_class(value: Fraction, n: int, p: int) -> str:
    if value == 0:
        return "zero"
    if n == 0 or vp(value, p) == 0:
        return "divisible"
    return "complete"


# -- 2-forms ----------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def null_square_kernel(p: int, n: int) -> tuple[int, int]:
    """(kernel count, total forms): every form when n < 4, else the zero form
    plus p-1 multiples of u ^ v per plane."""
    total = p ** math.comb(n, 2)
    if n < 4:
        return total, total
    return 1 + (p - 1) * gaussian_binomial(n, 2, p), total
