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
the two halves, which the relations treat alike.  What a count reads
depends on (p, n) alone, and ``_plan`` holds it per (p, n), built from
the relations themselves by the first count once the checks pass: the
total, and per relation through vertex 0 one int that packs the mask of
every outer representative into its own byte-aligned slot, one bit per
kernel representative one dimension down.  Every call checks its
arguments' types and the budget, ANDs the held columns and reads the
count off three popcounts; no count is held.
``decomposable_form_count`` is the Gaussian-binomial closed form, which
the enumeration never consults.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, reduce
from fractions import Fraction
from itertools import combinations, product
from operator import and_, itemgetter

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
    (n-1)-dimensional kernel rejects its whole block of p^(n-1) forms.  Every
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
    rows of ``_kernel_rows(p, n-1)``, one bit each, and
    each u ANDs, over the relations through vertex 0, the masks of the v
    that pass with it.  The masks depend on (p, n) alone and
    ``_plan`` holds them, every u's mask of one relation in its own slot of
    one packed int, so a call checks that p and n are ints, which the
    plan's cache key cannot (it takes 3.0 and True for 3 and 1), holds the
    plan's total to the budget and ANDs the packed columns at once: one
    int of 14 slots at (3,4), 3 ANDs of 157-slot ints at (5,5).  The
    weights come from three popcounts of the result: slot 0 (u = 0) under
    ``first``, bit 0 of every slot (v = 0) under ``lows``, and the whole
    int.  Each form is decided by the relations themselves, never by the
    closed form of ``decomposable_form_count``, which stays an independent
    cross-check.  ``DEFAULT_ENUMERATION_BUDGET`` counts all p^C(n,2) forms,
    pruned or not, and has no per-call override.
    """
    if type(p) is not int or type(n) is not int:
        _require_odd_prime(p)
        require_int(n, "dimension")
    total, columns, first, lows = _plan(p, n)
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, math.comb(n, 2), total)
    if not columns:
        # no 4-subsets, the wedge square lives in Lambda^4 = 0
        return FormCountReport(p, n, total, total)
    q = p - 1
    alive = reduce(and_, columns)
    z0 = alive & 1
    zero_u = (alive & first).bit_count()
    zero_v = (alive & lows).bit_count() - z0
    kernel = (z0 + q * (zero_u - z0) + q * zero_v
              + q * q * (alive.bit_count() - zero_u - zero_v))
    return FormCountReport(p, n, kernel, total)


def _over_budget(p: int, e: int, total) -> ResourceBudgetError:
    # p^e is shown only where it fits the digit budget
    shown = total if total is not None and fits_digits(total) else f"{p}^{e}"
    return ResourceBudgetError(f"{shown} forms exceed the enumeration budget "
                               f"{DEFAULT_ENUMERATION_BUDGET}")


_Plan = namedtuple("_Plan", "total columns first lows")


@cache
def _plan(p: int, n: int) -> _Plan:
    """What every count at (p, n) reads, built by the first one once the
    prime, dimension and budget checks pass, and held for the process: the
    total p^C(n,2), and per relation through vertex 0 (a triple of the
    outer vertices) the column of ``_columns`` masks the outer
    representatives ``_representatives(p, n-1)`` pick, packed in order into
    one int: slot i, the mask of representative i, is bytes
    [i*size, (i+1)*size), low byte first, size = ceil(bits/8), so the
    zero u is slot 0.  ``first`` is all of slot 0 and ``lows`` bit 0 of
    every slot.  No column for n < 4, which has no relation, and both
    masks 0.  Bit j of a mask is row j of
    ``_kernel_rows(p, n-1)``, so the zero form is bit 0 and every
    bit is a kernel representative: p^2+p+2 bits at n = 4, 131 at (3,5)
    and 807 at (5,5), whose plans take 4.0 kB and 85 kB by
    ``sys.getsizeof``."""
    _require_odd_prime(p)
    e = math.comb(require_int(n, "dimension", 1), 2)
    # p^e is taken only where it may fit the digit budget
    total = p ** e if power_may_fit(p, e) else None
    if total is None or total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, e, total)
    if n < 4:
        return _Plan(total, (), 0, 0)
    forms = _kernel_rows(p, n - 1)
    columns = _columns(p, _representatives(p, n - 1), forms)
    size = -(-len(forms) // 8)
    lows = int.from_bytes(b"\1".ljust(size, b"\0") * len(columns[0]), "little")
    return _Plan(total, tuple(_packed(column, size) for column in columns),
                 (1 << len(forms)) - 1, lows)


def _packed(masks: list[int], size: int) -> int:
    """``masks`` as one int, mask i in bytes [i*size, (i+1)*size), low byte first."""
    return int.from_bytes(b"".join(mask.to_bytes(size, "little") for mask in masks), "little")


def _kernel_rows(p: int, m: int) -> list[tuple[int, ...]]:
    """The representatives of the forms on F_p^m with zero wedge square,
    coordinates in ``combinations(range(m), 2)`` order, sorted, so the
    zero form leads: each row of ``_representatives(p, C(m,2))`` that
    passes every relation of dimension m, 807 of 3907 at (5,4)."""
    pos = {pair: i for i, pair in enumerate(combinations(range(m), 2))}
    rows = _representatives(p, len(pos))
    for a, b, c, d in combinations(range(m), 4):
        i, j, k, l, s, t = pos[a, b], pos[c, d], pos[a, c], pos[b, d], pos[a, d], pos[b, c]
        rows = [v for v in rows if (v[i] * v[j] - v[k] * v[l] + v[s] * v[t]) % p == 0]
    return sorted(rows)


def _columns(p: int, us: list, forms: list) -> list[list[int]]:
    """Per triple b<c<d of the m = len(us[0]) outer vertices, in
    ``combinations`` order, the mask each u of ``us`` reads: bit j set when
    (u, forms[j]), forms[j] a form on those m vertices, passes the relation
    through vertex 0 for that triple, u_b*v_cd - u_c*v_bd + u_d*v_bc = 0
    mod p.  The forms are bucketed by (v_cd, v_bd, v_bc), and each
    distinct (u_b, u_c, u_d) ORs the buckets that pass with it once; the
    buckets are disjoint, so the OR is their sum."""
    m = len(us[0])
    pos = {pair: i for i, pair in enumerate(combinations(range(m), 2))}
    columns = []
    for b, c, d in combinations(range(m), 3):
        buckets, pick = {}, itemgetter(b, c, d)
        for j, w in enumerate(map(itemgetter(pos[c, d], pos[b, d], pos[b, c]), forms)):
            buckets[w] = buckets.get(w, 0) | 1 << j
        masks = {(x, y, z): sum(mask for (cd, bd, bc), mask in buckets.items()
                                if (x * cd - y * bd + z * bc) % p == 0)
                 for x, y, z in set(map(pick, us))}
        columns.append([masks[a] for a in map(pick, us)])
    return columns


def _representatives(p: int, k: int) -> list[tuple[int, ...]]:
    """One vector of F_p^k per scaling class: the zero vector first, then
    every vector whose first nonzero coordinate is 1, one block per leading
    position; 1 + (p^k - 1)/(p - 1) rows."""
    reps = [(0,) * k]
    for i in range(k):
        reps += product(*[(0,)] * i, (1,), *[range(p)] * (k - 1 - i))
    return reps


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
