"""Counting alternating 2-forms over F_p with vanishing wedge square, and the
closed-form cardinality of the fiber of the cup-square map between EM spaces
in degrees 2 and 4.

This is the one corner of the package where a nontrivial Postnikov
invariant enters; everything reduces to exact counting over F_p plus one
explicit rational formula, and the formula follows from the count.
H*(BZ_p^n; F_p) is the exterior algebra on n degree-1 classes (Z_p the
p-adic integers), and the cup square of a degree-2 class is its wedge
square.  Mapping BZ_p^n into the fiber sequence
F -> K(Z/p, 2) -> K(Z/p, 4) therefore gives one family of components per
2-form omega on F_p^n with omega ^ omega = 0.  Each component weighs
p^(1-n) from the degree-2 side (pi_1 = H^1, pi_2 = H^0) and
p^(C(n,3) - C(n,2) + n - 1) from the loops of the degree-4 side (pi_0 = H^3
down to pi_3 = H^0), so the height-n cardinality is

    |F|_n = N(p, n) * p^(C(n,3) - C(n,2)),

N the number of such forms.  ``verify`` holds
``cup_square_fiber_cardinality`` against this with N from
``count_null_square_two_forms``, so the height-4 counterexample rests on an
enumeration as well as on the formula.

The count decides every form by the Pluecker relations themselves, in
pure Python with Python ints as bitsets.  It splits each form on vertex 0,
so that a form on the other n-1 vertices that fails their own relations
discards its whole block at once, and tests one pair per scaling class of
the two halves, which the relations treat alike.  Each relation through
vertex 0 is the dot product of three coordinates of the first half with
three coordinates (one negated) of the second, so whether it holds depends
only on the scaling classes of those two vectors of F_p^3: it is the
incidence of a point and a line of the projective plane, or a zero vector.
``_plane`` holds that plane per prime, built from its definition: the
class of every vector, found by scaling each class representative, and
the classes of the points of each line, enumerated from the
representatives of F_p^2.  What a count reads depends on (p, n) alone,
and ``_plan`` holds it per (p, n), built by the first count once the
checks pass: the total, and the masks each outer representative ANDs, one
bit per kernel representative one dimension down.  Every call checks its
arguments' types and the budget, ANDs the held masks for every outer
representative and takes the popcount; no count is held.
``decomposable_form_count`` is the Gaussian-binomial closed form, which
the enumeration never consults.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, partial, reduce
from fractions import Fraction
from itertools import combinations, compress, count, product
from operator import and_, itemgetter
from typing import Iterator

from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import (MAX_DIGITS, ExactRational, _is_int, binom_ext, fits_digits,
                        is_prime, power_may_fit, require_int)
from .records import frozen

DEFAULT_ENUMERATION_BUDGET = 10_000_000


def _budget_pairs() -> tuple[tuple[int, int], ...]:
    """Every (p, n) with n >= 4 whose p^C(n,2) forms fit
    ``DEFAULT_ENUMERATION_BUDGET``, by n and then by p."""
    pairs, n = [], 4
    while 3 ** math.comb(n, 2) <= DEFAULT_ENUMERATION_BUDGET:
        p = 3
        while p ** math.comb(n, 2) <= DEFAULT_ENUMERATION_BUDGET:
            if is_prime(p):
                pairs.append((p, n))
            p += 2
        n += 1
    return tuple(pairs)


# the pairs that ``verify`` and the tests count in full
DEFAULT_BUDGET_PAIRS = _budget_pairs()


def _require_odd_prime(p: int) -> int:
    if not _is_int(p):
        raise InputError(f"expected an odd prime, got {p!r}")
    if p == 2:
        raise InputError("p = 2 is unsupported here (the construction needs an odd prime)")
    if not is_prime(p):
        raise InputError(f"expected an odd prime, got {p!r}")
    return p


@frozen
class FormCountReport:
    """Result of counting 2-forms omega on F_p^n with omega ^ omega = 0."""
    prime: int
    dimension: int
    kernel_count: int
    total_forms: int

    def __post_init__(self):
        if not 1 <= self.kernel_count <= self.total_forms:
            raise InvariantError("kernel count out of range")
        # the zero form plus (p-1)-orbits of decomposables
        if self.dimension >= 4 and self.kernel_count % (self.prime - 1) != 1:
            raise InvariantError("kernel count must be 1 mod p-1")
        # the class weights make every count 1 mod p-1, so the check above
        # cannot catch a relation test that passes everything; this one can,
        # since e0^e1 + e2^e3 has a nonzero square once n >= 4
        if self.dimension >= 4 and self.kernel_count == self.total_forms:
            raise InvariantError("kernel count must miss a form with nonzero square")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    require_int(n, "n")
    require_int(q, "q", 2)
    if require_int(k, "k") < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantError(f"Gaussian binomial [{n} choose {k}]_{q} is not an integer")
    return num // den


def decomposable_form_count(p: int, n: int) -> int:
    """Closed-form count of {omega : omega ^ omega = 0}: the zero form plus
    p-1 nonzero multiples of u ^ v per 2-dimensional subspace <u, v>."""
    _require_odd_prime(p)
    require_int(n, "dimension", 1)
    return 1 + (p - 1) * gaussian_binomial(n, 2, p)


def count_null_square_two_forms(p: int, n: int) -> FormCountReport:
    """Exhaustive count of alternating 2-forms with zero wedge square.

    Forms are strictly-upper-triangular coefficient vectors; the wedge square
    vanishes iff every Pluecker-style coordinate
    w_ab*w_cd - w_ac*w_bd + w_ad*w_bc (a<b<c<d) vanishes mod p (odd p makes
    the overall factor 2 invertible).

    The enumeration splits each form on vertex 0 into u = (w_01, ..., w_0,n-1)
    and the form v on vertices 1..n-1.  The relations that avoid vertex 0 are
    exactly those of dimension n-1 and involve v alone, so a v outside the
    (n-1)-dimensional kernel rejects its whole block of p^(n-1) forms; that
    kernel comes from the same enumeration one dimension down.  Every
    relation through vertex 0, u_b*v_cd - u_c*v_bd + u_d*v_bc, is bilinear
    in (u, v), and the kernel one dimension down is closed under scaling
    (its relations are homogeneous), so (u, v) and (a*u, b*v) pass or fail
    together for all a, b != 0.  Only one representative per scaling class
    is tested on each side: the zero vector and the vectors whose first
    nonzero coordinate is 1.  The v that pass with one u are the set bits
    of one Python int, zero form at bit 0, and the count is a weighted
    popcount of those masks: a passing pair of nonzero representatives
    stands for (p-1)^2 forms, a pair with exactly one zero side for p-1,
    and (0, 0) for itself.

    Every n >= 4 takes the one route of ``_plan``: the v are the
    leading-one rows of ``_null_square_kernel(p, n-1)``, one bit each, and
    each u ANDs, over the relations through vertex 0, the masks of the v
    that pass with its classes.  The masks depend on (p, n) alone and
    ``_plan`` holds them, so a call checks that p and n are ints, which the
    plan's cache key cannot (it takes 3.0 and True for 3 and 1), holds the
    plan's total to the budget, ANDs the held masks for every u and takes
    the weighted popcount: 14 masks at (3,4), 471 ANDs of 807-bit ints at
    (5,5).  Each form is decided by the relations themselves, never by the
    closed form of ``decomposable_form_count``, which stays an independent
    cross-check.  ``DEFAULT_ENUMERATION_BUDGET`` counts all p^C(n,2) forms,
    pruned or not, and has no per-call override.
    """
    if type(p) is not int or type(n) is not int:
        _require_odd_prime(p)
        require_int(n, "dimension")
    total, columns = _plan(p, n)
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, math.comb(n, 2), total)
    if not columns:
        # no 4-subsets, the wedge square lives in Lambda^4 = 0
        return FormCountReport(p, n, total, total)
    q = p - 1
    zero_u, *rest = _alive(columns)
    zero_v = sum(map((1).__and__, rest))
    kernel = ((zero_u & 1) + q * (zero_u.bit_count() - (zero_u & 1))
              + q * zero_v + q * q * (sum(map(int.bit_count, rest)) - zero_v))
    return FormCountReport(p, n, kernel, total)


def _over_budget(p: int, e: int, total) -> ResourceBudgetError:
    # p^e is shown only where it fits the digit budget
    shown = total if total is not None and fits_digits(total) else f"{p}^{e}"
    return ResourceBudgetError(f"{shown} forms exceed the enumeration budget "
                               f"{DEFAULT_ENUMERATION_BUDGET}")


_Plan = namedtuple("_Plan", "total columns")


@cache
def _plan(p: int, n: int) -> _Plan:
    """What every count at (p, n) reads, built by the first one once the
    prime, dimension and budget checks pass, and held for the process: the
    total p^C(n,2), and per relation through vertex 0 (a triple of the
    outer vertices) the column of ``_columns`` masks the outer
    representatives ``_representatives(p, n-1)`` pick, in order.  No
    column for n < 4, which has no relation.  Bit j of a mask is the j-th
    leading-one row of ``_null_square_kernel(p, n-1)``, so the zero form is
    bit 0 and every bit is a kernel representative: p^2+p+2 bits at n = 4,
    131 at (3,5) and 807 at (5,5), whose plans take 4.1 kB and 22 kB by
    ``sys.getsizeof``."""
    _require_odd_prime(p)
    e = math.comb(require_int(n, "dimension", 1), 2)
    # p^e is taken only where it may fit the digit budget
    total = p ** e if power_may_fit(p, e) else None
    if total is None or total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, e, total)
    if n < 4:
        return _Plan(total, ())
    # the kernel rows are in lexicographic order, so the zero form leads
    forms = [v for v in _null_square_kernel(p, n - 1) if next(filter(None, v), 1) == 1]
    return _Plan(total, tuple(map(tuple, _columns(p, _representatives(p, n - 1), forms))))


_Plane = namedtuple("_Plane", "lines index")


@cache
def _plane(p: int) -> _Plane:
    """The projective plane over F_p as every plan at p reads it, built by
    the first plan at p and held for the process, both fields tuples.
    ``index[(x*p + y)*p + z]`` is the row of ``classes =
    _representatives(p, 3)`` whose scaling class holds (x, y, z), set by
    scaling every row by 1..p-1.  ``lines[k]`` is an ``itemgetter`` of the
    rows l with classes[k] . classes[l] = 0 mod p: every row for the zero
    class, else the classes of the p+2 vectors w of the plane
    a . w = 0, a = classes[k], whose other two coordinates run over
    ``_representatives(p, 2)``; a's leading 1 at position i gives w_i.
    Only ``_plan`` reaches it from a count, after the checks, so it holds
    at most the primes the enumeration budget admits."""
    classes = _representatives(p, 3)
    index = [0] * p ** 3
    for s in range(1, p):
        for k, (x, y, z) in enumerate(classes):
            index[(s * x % p * p + s * y % p) * p + s * z % p] = k
    lines = [itemgetter(*range(len(classes)))]
    pairs, weights = _representatives(p, 2), (p * p, p, 1)
    for a in classes[1:]:
        # a's leading 1 is at i, so a . w = 0 gives w_i from the other two
        i = a.index(1)
        j, l = (c for c in range(3) if c != i)
        aj, al, wi, wj, wl = a[j], a[l], weights[i], weights[j], weights[l]
        lines.append(itemgetter(*[index[s * wj + t * wl + -(aj * s + al * t) % p * wi]
                                  for s, t in pairs]))
    return _Plane(tuple(lines), tuple(index))


def _null_square_kernel(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """The forms on F_p^n with zero wedge square, coordinates in
    ``combinations(range(n), 2)`` order, generated in lexicographic order,
    so that a caller that keeps some of them never holds them all: 3225
    forms at (5,4), of which ``_plan`` keeps 807."""
    if n < 4:
        return product(range(p), repeat=math.comb(n, 2))
    us = _all_vectors(p, n - 1)
    inner = list(_null_square_kernel(p, n - 1))
    return (u + inner[j] for u, mask in zip(us, _alive(_columns(p, us, inner)))
            for j in _bits(mask))


def _columns(p: int, us: list, forms: list) -> list[list[int]]:
    """Per triple b<c<d of the m = len(us[0]) outer vertices, in
    ``combinations`` order, the mask each u of ``us`` reads: bit j set when
    (u, forms[j]), forms[j] a form on those m vertices, passes the relation
    through vertex 0 for that triple, u_b*v_cd - u_c*v_bd + u_d*v_bc = 0
    mod p.  That is the dot product of (u_b, u_c, u_d) with the w of
    ``_line_tables``, so u reads the line table at its class."""
    columns = list(zip(*us))
    return [[table[k] for k in _classes(p, columns[b], columns[c], columns[d])]
            for table, (b, c, d) in zip(_line_tables(p, len(columns), forms),
                                        combinations(range(len(columns)), 3))]


# per vector u, the AND over the columns of the mask each gives u: what
# passes every relation with u
_alive = partial(reduce, partial(map, and_))


def _line_tables(p: int, size: int, forms: list) -> list[list[int]]:
    """Per triple b<c<d of ``combinations(range(size), 3)``, bit j of
    ``tables[t][k]`` set when w = (w_cd, -w_bd, w_bc) of forms[j], a form on
    ``size`` vertices, lies on the line of class k: a . w = 0 mod p for
    every a in class k.  That depends only on the scaling classes of a and
    of w, so each form goes to the bucket of its w's class and the buckets
    are ORed along the lines.  The classes on a line are disjoint, so the
    OR of their buckets is their sum."""
    lines = _plane(p).lines
    pos = {pair: i for i, pair in enumerate(combinations(range(size), 2))}
    columns = list(zip(*forms))
    tables = []
    for b, c, d in combinations(range(size), 3):
        buckets = [0] * len(lines)
        for j, k in enumerate(_classes(p, columns[pos[c, d]],
                                       [-y % p for y in columns[pos[b, d]]],
                                       columns[pos[b, c]])):
            buckets[k] |= 1 << j
        tables.append([sum(line(buckets)) for line in lines])
    return tables


def _classes(p: int, xs, ys, zs) -> list[int]:
    """The class rows, by the plane's index, of the vectors (x, y, z) of
    F_p^3 given column by column."""
    index = _plane(p).index
    return [index[(x * p + y) * p + z] for x, y, z in zip(xs, ys, zs)]


def _all_vectors(p: int, k: int) -> list[tuple[int, ...]]:
    """Every vector of F_p^k, first coordinate leading (one empty row for k = 0)."""
    return list(product(range(p), repeat=k))


def _representatives(p: int, k: int) -> list[tuple[int, ...]]:
    """One vector of F_p^k per scaling class: the zero vector first, then
    every vector whose first nonzero coordinate is 1, one block per leading
    position; 1 + (p^k - 1)/(p - 1) rows."""
    reps = [(0,) * k]
    for i in range(k):
        reps += product(*[(0,)] * i, (1,), *[range(p)] * (k - 1 - i))
    return reps


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_FLAGS)))


def cup_square_fiber_cardinality(p: int, n: int) -> ExactRational:
    """Height-n cardinality of the fiber of the cup-square map from the
    degree-2 to the degree-4 EM space of C_p (odd p):

        p^C(n-1, 3) * (p^(3-n) + p^n - p - 1) / (p^2 - 1).

    For n >= 4 the value exceeds p^(C(n-1, 3) + n - 2) / 2, so one past the
    ``MAX_DIGITS`` budget by that bound is refused before any power is taken.
    """
    _require_odd_prime(p)
    require_int(n, "height", 0)
    if n >= 4 and not power_may_fit(p, math.comb(n - 1, 3) + n - 2, 2):
        raise ResourceBudgetError(f"the fiber at height {n} exceeds the {MAX_DIGITS}-digit budget")
    lead = Fraction(p) ** binom_ext(n - 1, 3)
    return lead * (Fraction(p) ** (3 - n) + p ** n - p - 1) / (p ** 2 - 1)


@frozen
class MultiplicativityReport:
    """Fiber-times-base against total-space cardinality at height 4."""
    prime: int
    lhs: ExactRational   # |fiber| * |base|
    rhs: ExactRational   # |total space|
    multiplicative: bool


def amenability_failure_report(p: int) -> MultiplicativityReport:
    """The height-4 counterexample to multiplicativity for a non-principal
    fibration: fiber times base gives p^3 + p - 1, the total space gives p^3."""
    _require_odd_prime(p)
    base_card = Fraction(p) ** binom_ext(3, 4)   # degree-4 EM space at height 4: exponent 0
    lhs = cup_square_fiber_cardinality(p, 4) * base_card
    rhs = Fraction(p) ** binom_ext(3, 2)         # degree-2 EM space at height 4
    return MultiplicativityReport(p, lhs, rhs, lhs == rhs)
