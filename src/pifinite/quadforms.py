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
total, the weight of the pairs with a zero side, which pass every
relation through vertex 0 since those relations are bilinear, the weight
(p-1)^2 of each nonzero pair, and per such relation one int that packs
the mask of every nonzero outer representative into its own byte-aligned
slot, one bit per nonzero kernel representative one dimension down.
Every call checks its arguments' types and the budget, ANDs the held
columns, reads the count off one popcount and returns it in a
``FormCountReport``, a tuple that checks the count as it is built; no
count or report is held.
``decomposable_form_count`` is the Gaussian-binomial closed form, which
the enumeration never consults.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
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


_tuple_new = tuple.__new__


def _checked_report(cls, prime: int, dimension: int, kernel_count: int, total_forms: int):
    """The report ``cls(prime, dimension, kernel_count, total_forms)``,
    once the count passes the invariants of ``FormCountReport``: the one
    site of its checks, which ``FormCountReport.__new__`` and the form count
    both call, the count without the type call's path."""
    if not 1 <= kernel_count <= total_forms:
        raise InvariantError("kernel count out of range")
    if dimension >= 4:
        # the zero form plus (p-1)-orbits of decomposables
        if kernel_count % (prime - 1) != 1:
            raise InvariantError("kernel count must be 1 mod p-1")
        # the class weights make every count 1 mod p-1, so the check
        # above cannot catch a relation test that passes everything;
        # this one can, since e0^e1 + e2^e3 has a nonzero square once n >= 4
        if kernel_count == total_forms:
            raise InvariantError("kernel count must miss a form with nonzero square")
    return _tuple_new(cls, (prime, dimension, kernel_count, total_forms))


class FormCountReport(tuple):
    """Result of counting 2-forms omega on F_p^n with omega ^ omega = 0:
    the tuple (prime, dimension, kernel_count, total_forms), built only
    through ``_checked_report``, which checks it.

    Every form count builds one, so it is a checked tuple rather than a
    ``@frozen`` record: one Python frame and one ``tuple.__new__``, where a
    record sets each field through ``object.__setattr__`` and runs
    ``__post_init__`` in a frame of its own.  It keeps the record contract:
    keyword or positional construction, read-only fields, equality with its
    own class only (a plain tuple is unequal on either side), the hash of
    its field tuple, the record repr, and pickles and copies that call the
    class, so they rerun the checks.  It is no ``namedtuple``, whose
    ``_make`` and ``_replace`` build an instance without them.
    """
    __slots__ = ()

    def __new__(cls, prime: int, dimension: int, kernel_count: int, total_forms: int):
        return _checked_report(cls, prime, dimension, kernel_count, total_forms)

    prime = property(itemgetter(0))
    dimension = property(itemgetter(1))
    kernel_count = property(itemgetter(2))
    total_forms = property(itemgetter(3))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return ("FormCountReport(prime={!r}, dimension={!r}, kernel_count={!r}, "
                "total_forms={!r})".format(*self))

    def __reduce__(self):
        # every pickle protocol and copy call the class on the fields; a
        # __getnewargs__ would serve protocols 2 and up only, and 0 and 1
        # would rebuild through tuple.__new__, past the checks
        return FormCountReport, tuple(self)


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
    nonzero coordinate is 1.  A pair with a zero side passes every
    relation through vertex 0, so only the nonzero pairs are tested: the
    nonzero v that pass with one nonzero u are the set bits of one Python
    int, and each stands for (p-1)^2 forms.  The pairs with a zero side
    weigh 1 for (0, 0) and p-1 for each other, by the sizes of the two
    representative lists alone.

    Every n >= 4 takes the one route of ``_plan``: the nonzero v are the
    rows of ``_kernel_rows(p, n-1)`` after the zero form, one bit each,
    and each nonzero u ANDs, over the relations through vertex 0, the
    masks of the v that pass with it.  The masks depend on (p, n) alone
    and ``_plan`` holds them, every u's mask of one relation in its own
    slot of one packed int, so a call checks that p and n are ints, which
    the plan's cache key cannot (it takes 3.0 and True for 3 and 1), holds
    the plan's total to the budget, ANDs the packed columns at once (one
    int of 13 slots at (3,4), 3 ANDs of 156-slot ints at (5,5)) and adds
    the plan's weight (p-1)^2 times the one popcount of the result to its
    zero-side weight.  Every call builds its report anew through
    ``_checked_report``, which holds the count to the invariants of
    ``FormCountReport``: in range, and for n >= 4, 1 mod p-1 and short of
    every form.  No count or report is held.  Each form is decided by the
    relations themselves, never by the closed form of
    ``decomposable_form_count``, which stays an independent cross-check.
    ``DEFAULT_ENUMERATION_BUDGET`` counts all p^C(n,2) forms, pruned or
    not, and has no per-call override.
    """
    if type(p) is not int or type(n) is not int:
        _require_odd_prime(p)
        require_int(n, "dimension")
    total, columns, zero_side, weight = _plan(p, n)
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, math.comb(n, 2), total)
    if not columns:
        # no 4-subsets, the wedge square lives in Lambda^4 = 0
        return _checked_report(FormCountReport, p, n, total, total)
    return _checked_report(FormCountReport, p, n,
                           zero_side + weight * reduce(and_, columns).bit_count(), total)


def _over_budget(p: int, e: int, total) -> ResourceBudgetError:
    # p^e is shown only where it fits the digit budget
    shown = total if total is not None and fits_digits(total) else f"{p}^{e}"
    return ResourceBudgetError(f"{shown} forms exceed the enumeration budget "
                               f"{DEFAULT_ENUMERATION_BUDGET}")


_Plan = namedtuple("_Plan", "total columns zero_side weight")


@cache
def _plan(p: int, n: int) -> _Plan:
    """What every count at (p, n) reads, built by the first one once the
    prime, dimension and budget checks pass, and held for the process: the
    total p^C(n,2); the weight of the pairs with a zero side,
    1 + (p-1)*(forms-1) + (p-1)*(outer-1), from the sizes of the two
    representative lists; the weight (p-1)^2 of each nonzero pair, which
    a call multiplies the popcount by; and per relation through vertex 0
    (a triple of the outer vertices) the column of ``_columns`` masks that
    the outer representatives ``_representatives(p, n-1)`` after the zero
    vector pick, packed in order into one int: slot i, the mask of the
    i-th, is bytes [i*size, (i+1)*size), low byte first,
    size = ceil(bits/8).  No column for n < 4, which has no relation, and
    zero weights.  Bit j of a mask is row j+1 of ``_kernel_rows(p, n-1)``,
    so every bit is a nonzero kernel representative: p^2+p+1 bits at
    n = 4, 130 at (3,5) and 806 at (5,5), whose plans take 3.2 kB and
    67 kB by ``sys.getsizeof``."""
    _require_odd_prime(p)
    e = math.comb(require_int(n, "dimension", 1), 2)
    # p^e is taken only where it may fit the digit budget
    total = p ** e if power_may_fit(p, e) else None
    if total is None or total > DEFAULT_ENUMERATION_BUDGET:
        raise _over_budget(p, e, total)
    if n < 4:
        return _Plan(total, (), 0, 0)
    _, *forms = _kernel_rows(p, n - 1)
    _, *us = _representatives(p, n - 1)
    size = -(-len(forms) // 8)
    return _Plan(total, tuple(_packed(column, size) for column in _columns(p, us, forms)),
                 1 + (p - 1) * (len(forms) + len(us)), (p - 1) ** 2)


def _packed(masks: list[int], size: int) -> int:
    """``masks`` as one int, mask i in bytes [i*size, (i+1)*size), low byte first."""
    return int.from_bytes(b"".join(mask.to_bytes(size, "little") for mask in masks), "little")


def _kernel_rows(p: int, m: int) -> list[tuple[int, ...]]:
    """The representatives of the forms on F_p^m with zero wedge square,
    coordinates in ``combinations(range(m), 2)`` order, sorted, so the
    zero form leads: each row ``_representatives(p, C(m,2))`` yields that
    passes every relation of dimension m, 807 of 3907 at (5,4).  The first
    relation filters the rows as they are generated, so only those it
    keeps are held."""
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


def _representatives(p: int, k: int) -> Iterator[tuple[int, ...]]:
    """One vector of F_p^k per scaling class: the zero vector first, then
    every vector whose first nonzero coordinate is 1, one block per leading
    position; 1 + (p^k - 1)/(p - 1) rows, yielded one at a time."""
    yield (0,) * k
    for i in range(k):
        yield from product(*[(0,)] * i, (1,), *[range(p)] * (k - 1 - i))


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
