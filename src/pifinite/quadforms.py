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

The kernel count has two routes that cross-check each other.
``count_null_square_two_forms`` decides every form by the Pluecker
relations themselves, in pure Python with Python ints as bitsets; it
enumerates the forms split on one vertex, so that a form on the other n-1
vertices that fails their own relations discards its whole block at once,
and tests one pair per scaling class of the two halves, which the
relations treat alike.  Each relation through vertex 0 is the dot product
of three coordinates of the first half with three coordinates (one
negated) of the second, so whether it holds depends only on the scaling
classes of those two vectors of F_p^3: it is the incidence of a point and
a line of the projective plane, or a zero vector.  The lines are solved in
one place, ``_incidence``, which gives each of the p^2+p+2 classes the int
mask of the classes incident to it; the list of those classes is read off
the mask, and every level of the split reads its relations from them
through a p^3-entry class index, all held per prime by ``_plane``.  What a
count reads depends on (p, n) alone, and ``_plan`` holds it per (p, n),
built by the first count once the checks pass: the total, and the masks
each outer representative ANDs, one bit per kernel representative one
dimension down.  Every call checks its arguments' types and the budget,
ANDs the held masks for every outer representative and takes the
popcount; no count is held.  ``decomposable_form_count`` is the
Gaussian-binomial closed form, which the enumeration never consults.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import cache, partial, reduce
from fractions import Fraction
from itertools import combinations, compress, count, product
from operator import add, and_, itemgetter

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

    For n = 4 the one relation through vertex 0 reads all of u and of v, so
    the masks are the rows of ``_incidence``: v -> (v_23, -v_13, v_12) is a
    linear bijection of F_p^3 that commutes with scaling, so it permutes the
    scaling classes, zero class first.  For n >= 5 the v are the kernel
    representatives one dimension down, one bit each, and each u ANDs, over
    the relations through vertex 0, the masks of those that pass with its
    classes (``_representative_tables``).  The masks depend on (p, n)
    alone and ``_plan`` holds them, so a call checks that p and n are ints,
    which the plan's cache key cannot (it takes 3.0 and True for 3 and 1),
    holds the plan's total to the budget, ANDs the held masks for every u
    and takes the weighted popcount: 14 masks at (3,4), 471 ANDs of 807-bit
    ints at (5,5).  Each form is decided by the relations themselves, never
    by the closed form of ``decomposable_form_count``, which stays an
    independent cross-check.  ``DEFAULT_ENUMERATION_BUDGET`` counts all
    p^C(n,2) forms, pruned or not, and has no per-call override.
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
    total p^C(n,2), and per relation through vertex 0 the column of masks
    the outer representatives ``_representatives(p, n-1)`` pick, in order.
    That is no column for n < 4, the plane's incidence for n = 4, and for
    n >= 5 one column of ``_representative_tables(p, n-1)`` masks per
    triple: 4.1 kB at (3,5) and 22 kB at (5,5) by ``sys.getsizeof``."""
    _require_odd_prime(p)
    e = math.comb(require_int(n, "dimension", 1), 2)
    # p^e is taken only where it may fit the digit budget
    total = p ** e if power_may_fit(p, e) else None
    if total is None or total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, e, total)
    if n < 5:
        return _Plan(total, (_plane(p).incidence,) if n == 4 else ())
    picks = _picks(p, _representatives(p, n - 1))
    return _Plan(total, tuple(tuple(map(table.__getitem__, rows))
                              for table, rows in zip(_representative_tables(p, n - 1), picks)))


_Plane = namedtuple("_Plane", "incidence lines index negated scaled square")


@cache
def _plane(p: int) -> _Plane:
    """The projective plane over F_p as every plan at p reads it, solved by
    the first plan at p and held for the process, every field a tuple:
    the ``_incidence`` masks; per class row of ``_representatives(p, 3)``,
    an ``itemgetter`` of the rows incident to it, read off its mask; the
    ``_class_index``; and the offsets ``_classes`` adds into that index,
    ``negated[y]`` = (-y mod p)*p, ``scaled[y]`` = y*p and ``square[x]`` =
    x*p^2.  Only ``_plan`` reaches it from a count, after the checks, so
    it holds at most the primes the enumeration budget admits."""
    incidence = tuple(_incidence(p))
    return _Plane(incidence, tuple(itemgetter(*_bits(mask)) for mask in incidence),
                  tuple(_class_index(p)), tuple(-y % p * p for y in range(p)),
                  tuple(y * p for y in range(p)), tuple(x * p * p for x in range(p)))


def _null_square_kernel(p: int, n: int) -> list[tuple[int, ...]]:
    """The forms on F_p^n with zero wedge square, coordinates in
    ``combinations(range(n), 2)`` order."""
    if n < 4:
        return _all_vectors(p, math.comb(n, 2))
    us = _all_vectors(p, n - 1)
    inner = _null_square_kernel(p, n - 1)
    alive = _vertex_zero_test(p, us, inner)
    return [u + inner[j] for u, mask in zip(us, alive) for j in _bits(mask)]


def _representative_split(p: int, n: int) -> tuple[list, list, list[int], list]:
    """``(us, inner, alive, forms)`` for the kernel representatives on
    F_p^n (n >= 4), split on vertex 0.  ``us`` are the representatives of
    F_p^(n-1) and ``inner`` the kernel one dimension down; the
    representatives are the ``forms`` us[i] + inner[j] for the set bits j
    of ``alive[i]``, in (i, j) order, the zero form first.  That is (0, v)
    with v a leading-one row of ``inner``, or (u, v) with u a leading-one
    vector and v any form of ``inner`` that passes the relations through
    vertex 0, so only class rows of u are tested.  ``inner`` is in
    lexicographic order, so its leading-one rows with the leading 1 at
    position i are the run from (0,..,0,1,0,..) up to (0,..,0,2,0,..)."""
    us = _representatives(p, n - 1)
    inner = _null_square_kernel(p, n - 1)
    alive = _vertex_zero_test(p, us, inner)
    size = len(inner[0])
    alive[0] = 1        # the zero form
    for i in range(size):
        zeros = (0,) * i, (0,) * (size - 1 - i)
        alive[0] += ((1 << bisect_left(inner, zeros[0] + (2,) + zeros[1]))
                     - (1 << bisect_left(inner, zeros[0] + (1,) + zeros[1])))
    forms = [us[i] + inner[j] for i, mask in enumerate(alive) for j in _bits(mask)]
    return us, inner, alive, forms


def _representative_tables(p: int, m: int) -> list[list[int]]:
    """The kernel representatives on F_p^m (m >= 4) as the count one
    dimension up reads them: the ``_line_tables`` of the forms of
    ``_representative_split``, one bit each in order, so the zero form is
    bit 0, every bit is a representative and no bit is wasted: 131 bits at
    m = 4, p = 3, and 807 at m = 4, p = 5."""
    return _line_tables(p, m, _representative_split(p, m)[3])


def _vertex_zero_test(p: int, us: list, inner: list) -> list[int]:
    """``alive[i]`` holds the rows j of ``inner`` (forms on vertices
    1..n-1, relabelled 0..n-2) for which (us[i], inner[j]) passes every
    relation through vertex 0 on F_p^n.  The relation for b<c<d,
    u_b*v_cd - u_c*v_bd + u_d*v_bc, is the dot product of a = (u_b, u_c, u_d)
    with the w of ``_line_tables``, so ``_alive`` ANDs, over the triples,
    the line tables of ``inner`` at each u's classes."""
    tables = _line_tables(p, len(us[0]), inner)
    return list(_alive([map(table.__getitem__, rows)
                        for table, rows in zip(tables, _picks(p, us))]))


def _line_tables(p: int, size: int, forms: list) -> list[list[int]]:
    """Per triple b<c<d of ``combinations(range(size), 3)``, bit j of
    ``tables[t][k]`` set when w = (w_cd, -w_bd, w_bc) of forms[j], a form on
    ``size`` vertices, lies on the line of class k: a . w = 0 mod p for
    every a in class k.  That depends only on the scaling classes of a and
    of w, so each form goes to the bucket of its w's class and the buckets
    are ORed along the lines.  The classes on a line are disjoint, so the
    OR of their buckets is their sum."""
    plane = _plane(p)
    pos = {pair: i for i, pair in enumerate(combinations(range(size), 2))}
    columns = list(zip(*forms))
    tables = []
    for b, c, d in combinations(range(size), 3):
        buckets = [0] * len(plane.lines)
        for j, k in enumerate(_classes(p, columns[pos[c, d]],
                                       map(plane.negated.__getitem__, columns[pos[b, d]]),
                                       columns[pos[b, c]])):
            buckets[k] |= 1 << j
        tables.append([sum(line(buckets)) for line in plane.lines])
    return tables


def _picks(p: int, us: list) -> list:
    """Per triple t = (b, c, d), the class rows of (u_b, u_c, u_d) for the
    vectors u of ``us``, in order."""
    columns = list(zip(*us))
    scaled = _plane(p).scaled
    return [_classes(p, columns[b], map(scaled.__getitem__, columns[c]), columns[d])
            for b, c, d in combinations(range(len(columns)), 3)]


# per vector u, the AND over the columns of the mask each gives u: what
# passes every relation with u
_alive = partial(reduce, partial(map, and_))


def _classes(p: int, firsts, middles, lasts):
    """The class rows, by the plane's index, of the vectors (x, y, z) of
    F_p^3 given column by column: x from ``firsts``, p*y from ``middles``
    and z from ``lasts``, so that a caller can fold a sign into the middle
    column."""
    plane = _plane(p)
    return map(plane.index.__getitem__,
               map(add, map(plane.square.__getitem__, firsts), map(add, middles, lasts)))


def _incidence(p: int) -> list[int]:
    """The lines of the projective plane over F_p, the one place they are
    solved: one int per class row of ``classes = _representatives(p, 3)``,
    bit l of ``incidence[k]`` set when classes[k] . classes[l] = 0 mod p.
    That is every row for the zero class, else the zero row and the p+1
    points of a line.  The rows (1, x, y) sit at 1 + x*p + y, the affine
    plane of the chart w_0 = 1, one p-bit segment per x, then (0, 1, y) at
    1 + p^2 + y and (0, 0, 1), the line at infinity, which is the line of
    (1, 0, 0).  Each other line is an affine line with its point at
    infinity, solved from its equation: x = x0, one whole segment, is the
    line of (1, -1/x0, 0), or of (0, 1, 0) for x0 = 0, through (0, 0, 1);
    y = mu*x + beta is that of (1, mu/beta, -1/beta), or of (0, 1, -1/mu) or
    (0, 0, 1) for beta = 0, through (0, 1, mu), and its mask is that of
    y = mu*x with every segment rotated by beta."""
    inv = [0] + [pow(a, -1, p) for a in range(1, p)]
    one, last = 1 + p * p, 1 + p * p + p
    segment = (1 << p) - 1
    firsts = sum(1 << 1 + x * p for x in range(p))      # column 0 of every segment
    ends = 1 | 1 << last
    masks = [(1 << last + 1) - 1] * (last + 1)
    masks[1] = ends | segment << one
    for x in range(p):
        masks[1 + (p - inv[x]) * p if x else one] = ends | segment << 1 + x * p
    low = [((1 << beta) - 1) * firsts for beta in range(p)]    # columns < beta
    high = [segment * firsts ^ mask for mask in low]
    for mu in range(p):
        line = sum(1 << 1 + x * p + mu * x % p for x in range(p))
        ends = 1 | 1 << one + mu
        masks[one + p - inv[mu] if mu else last] = ends | line
        for beta in range(1, p):
            masks[1 + mu * inv[beta] % p * p + p - inv[beta]] = (
                ends | line << beta & high[beta] | line >> p - beta & low[beta])
    return masks


def _class_index(p: int) -> list[int]:
    """The p^3-entry class index of F_p^3: ``index[(a0*p + a1)*p + a2]`` is
    the row of ``_representatives(p, 3)`` whose scaling class holds
    (a0, a1, a2), found by dividing by the first nonzero coordinate."""
    inv = [0] + [pow(a, -1, p) for a in range(1, p)]
    one, last = 1 + p * p, 1 + p * p + p
    index = [0] + [last] * (p - 1)
    for a1 in range(1, p):
        index += [one + inv[a1] * a2 % p for a2 in range(p)]
    for a0 in range(1, p):
        scaled = [inv[a0] * a % p for a in range(p)]
        for a1 in scaled:
            start = 1 + a1 * p
            index += [start + a2 for a2 in scaled]
    return index


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
