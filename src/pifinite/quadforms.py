"""Counting alternating 2-forms over F_p with vanishing wedge square, and the
closed-form cardinality of the fiber of the cup-square map between EM spaces
in degrees 2 and 4.

This is the one corner of the package where a nontrivial Postnikov
invariant enters; everything reduces to exact counting over F_p plus one
explicit rational formula.  The kernel count has two routes that
cross-check each other.  ``count_null_square_two_forms`` decides every form
by the Pluecker relations themselves; it enumerates the forms split on one
vertex, so that a form on the other n-1 vertices that fails their own
relations discards its whole block at once, and tests one pair per scaling
class of the two halves, which the relations treat alike.  Each relation
through vertex 0 is the dot product of three coordinates of the first half
with three coordinates (one negated) of the second, so whether it holds
depends only on the scaling classes of those two vectors of F_p^3: it is
the incidence of a point and a line of the projective plane, or a zero
vector.  One boolean table over the p^2+p+2 class rows of F_p^3, built once
per count, holds every such outcome, and every level of the split reads
its relations from it through a p^3-entry class index.
``decomposable_form_count`` is the Gaussian-binomial closed form.  The
enumeration never consults the closed form or any rank formula.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import ExactRational, binom_ext, is_prime
from .records import frozen

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUMERATION_BUDGET = 10_000_000
_CHUNK_CELLS = 1 << 18   # (u, v) pairs tested per chunk


def _require_odd_prime(p: int) -> int:
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
    if k < 0 or k > n:
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
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    return 1 + (p - 1) * gaussian_binomial(n, 2, p)


def count_null_square_two_forms(p: int, n: int,
                                budget: int = DEFAULT_ENUMERATION_BUDGET) -> FormCountReport:
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
    nonzero coordinate is 1; those of the kernel come from
    ``_kernel_representatives``.  A passing pair of nonzero representatives
    stands for (p-1)^2 forms, a pair with exactly one zero side for p-1,
    and (0, 0) for itself.

    For n = 4 the one relation through vertex 0 reads all of u and of v, so
    the pairs are the cells of the incidence table of ``_incidence``:
    v -> (v_23, -v_13, v_12) is a linear bijection of F_p^3 that commutes
    with scaling, so it permutes the scaling classes, zero class first.
    Each form is therefore decided by the relations themselves, never by
    the closed form of ``decomposable_form_count``, which stays an
    independent cross-check.  The budget counts all p^C(n,2) forms, pruned
    or not.
    """
    _require_odd_prime(p)
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    total = p ** math.comb(n, 2)
    if total > budget:
        raise ResourceBudgetError(
            f"{total} forms exceed the enumeration budget {budget}")
    if n < 4:
        # no 4-subsets, the wedge square lives in Lambda^4 = 0
        return FormCountReport(p, n, total, total)
    import numpy as np
    if n == 4:
        blocks = [_incidence(p, _representatives(p, 3))]
    else:
        ctx = _scaling_classes(p)
        splits = _vertex_zero_splits(p, n, _representatives(p, n - 1),
                                     _kernel_representatives(p, n - 1, ctx), ctx)
        blocks = (alive for _, alive in splits)
    q = p - 1
    kernel = 0
    lead = 1        # the first block starts with the zero u
    for alive in blocks:
        zero_u, rest = alive[:lead], alive[lead:]
        kernel += int(np.count_nonzero(zero_u[:, :1])
                      + q * (np.count_nonzero(zero_u[:, 1:]) + np.count_nonzero(rest[:, :1]))
                      + q * q * np.count_nonzero(rest[:, 1:]))
        lead = 0
    return FormCountReport(p, n, kernel, total)


def _scaling_classes(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(classes, incidence, index)`` for F_p^3, which every level of the
    split shares: the class rows ``_representatives(p, 3)``, their
    ``_incidence`` table and their ``_class_index``.  Built once per count
    and kept by none."""
    classes = _representatives(p, 3)
    return classes, _incidence(p, classes), _class_index(p, classes)


def _null_square_kernel(p: int, n: int, ctx: tuple | None = None) -> np.ndarray:
    """The forms on F_p^n with zero wedge square, one per row, coordinates in
    ``combinations(range(n), 2)`` order.  ``ctx`` is ``_scaling_classes(p)``,
    built here when not given."""
    if n < 4:
        return _all_vectors(p, math.comb(n, 2))
    ctx = ctx or _scaling_classes(p)
    return _vertex_zero_forms(p, n, _all_vectors(p, n - 1),
                              _null_square_kernel(p, n - 1, ctx), ctx)


def _kernel_representatives(p: int, n: int, ctx: tuple | None = None) -> np.ndarray:
    """One form per scaling class of the forms on F_p^n (n >= 4) with zero
    wedge square: the zero form first, then those whose first nonzero
    coordinate is 1.  Such a form is (0, v) with v a representative one
    dimension down, or (u, v) with u a leading-one vector and v any form
    of the kernel one dimension down, so only class rows of u are tested.
    For n = 4 every vector of F_p^3 is a form, and both sides' classes are
    the class rows of ``ctx``, which is ``_scaling_classes(p)``, built here
    when not given."""
    import numpy as np
    ctx = ctx or _scaling_classes(p)
    inner = _null_square_kernel(p, n - 1, ctx)
    zero_u, us = ((ctx[0], ctx[0][1:]) if n == 4 else
                  (_leading_one_rows(inner), _representatives(p, n - 1)[1:]))
    return np.concatenate([
        np.hstack([np.zeros((len(zero_u), n - 1), dtype=inner.dtype), zero_u]),
        _vertex_zero_forms(p, n, us, inner, ctx)])


def _vertex_zero_forms(p: int, n: int, us: np.ndarray, inner: np.ndarray,
                       ctx: tuple) -> np.ndarray:
    """The forms (u, v) on F_p^n, u a row of ``us`` and v of ``inner``, that
    pass every relation through vertex 0, one per row."""
    import numpy as np
    parts = []
    for u, alive in _vertex_zero_splits(p, n, us, inner, ctx):
        i, j = np.nonzero(alive)
        parts.append(np.hstack([u[i], inner[j]]))
    return np.concatenate(parts)


def _vertex_zero_splits(p: int, n: int, us: np.ndarray, inner: np.ndarray,
                        ctx: tuple) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(u, alive)`` over consecutive row chunks ``u`` of ``us``
    (vectors of F_p^(n-1)), where ``alive[i, j]`` says whether the form
    (u[i], inner[j]) on F_p^n passes every relation through vertex 0.

    ``_null_square_kernel`` passes every u and every kernel row, to list
    the forms themselves, and ``_kernel_representatives`` the leading-one u
    and every kernel row, to list one form per scaling class.
    ``count_null_square_two_forms`` passes, for n >= 5, only the zero vector
    and the vectors whose first nonzero coordinate is 1, on both sides, and
    weights each pair by the size of its scaling class; the test here is
    the same for all three.

    Relabelling vertices 1..n-1 as 0..n-2 keeps the pair order, so the rows
    of ``inner`` are forms on vertices 1..n-1.  The relation for b<c<d,
    u_b*v_cd - u_c*v_bd + u_d*v_bc, is the dot product of a = (u_b, u_c, u_d)
    and w = (v_cd, -v_bd, v_bc).  It is bilinear, so whether a.w = 0 mod p
    depends only on the scaling classes of a and of w, and ``ctx``, which
    is ``_scaling_classes(p)``, holds the answer for every pair of classes
    in its incidence table.  Its class index sends each row of ``us`` to
    the class of its a, and each row of ``inner`` to the class of its w,
    per triple.  The table's columns at the classes of w give each triple
    one pass/fail row per class of a, and a chunk of u gathers the rows of
    its classes and ANDs them over the triples: no sum is formed for any
    (u, v) pair.  The columns are taken with ``take``, which returns them
    row-major; ``incidence[:, cols]`` returns a column-major array, whose
    row gathers measured several times slower.
    """
    import numpy as np
    _, incidence, index = ctx
    pos = {pair: i for i, pair in enumerate(combinations(range(n - 1), 2))}
    # per triple b<c<d (relabelled), the columns of inner that hold v_cd, v_bd, v_bc
    b, c, d, cd, bd, bc = np.array([(b, c, d, pos[c, d], pos[b, d], pos[b, c])
                                    for b, c, d in combinations(range(n - 1), 3)]).T
    # cls[t, i]: the class of the a that triple t reads from us[i];
    # wcls[t, j]: the class of the w that triple t reads from inner[j]
    cls = index[(us[:, b] * p + us[:, c]) * p + us[:, d]].T
    wcls = index[(inner[:, cd] * p + -inner[:, bd] % p) * p + inner[:, bc]].T
    passing = [incidence.take(row, axis=1) for row in wcls]
    rows = max(1, _CHUNK_CELLS // len(inner))
    for start in range(0, len(us), rows):
        alive = passing[0].take(cls[0, start:start + rows], axis=0)
        for table, row in zip(passing[1:], cls[1:, start:start + rows]):
            alive &= table.take(row, axis=0)
        yield us[start:start + rows], alive


def _incidence(p: int, classes: np.ndarray) -> np.ndarray:
    """``incidence[k, l]``: whether classes[k] . classes[l] = 0 mod p, for the
    class rows ``classes`` of F_p^3; symmetric, with an all-True zero row and
    column.  Each product term is a row gather from a table of the p
    multiples of a column of ``classes``, and each sum, in [0, 3(p-1)^2]
    since entries lie in [0, p), is tested by a lookup in a table of the
    values that are zero mod p, which costs less than an int64 ``% p``."""
    import numpy as np
    # multiples[i][a] = a * (column i of classes), for every a in [0, p)
    multiples = np.arange(p)[None, :, None] * classes.T[:, None, :]
    dots = multiples[0].take(classes[:, 0], axis=0)
    dots += multiples[1].take(classes[:, 1], axis=0)
    dots += multiples[2].take(classes[:, 2], axis=0)
    return (np.arange(3 * (p - 1) ** 2 + 1) % p == 0).take(dots)


def _class_index(p: int, classes: np.ndarray) -> np.ndarray:
    """The p^3-entry class index of F_p^3: ``index[(a0*p + a1)*p + a2]`` is
    the row of ``classes``, which are ``_representatives(p, 3)``, whose
    scaling class holds (a0, a1, a2).  Built in plain Python from each row
    and its p-1 nonzero multiples, which costs less than numpy at this size."""
    import numpy as np
    index = [0] * p ** 3
    for row, (x, y, z) in enumerate(classes.tolist()):
        for a in range(1, p):
            index[(a * x % p * p + a * y % p) * p + a * z % p] = row
    return np.array(index)


def _all_vectors(p: int, k: int) -> np.ndarray:
    """Every vector of F_p^k, one per row (one empty row for k = 0)."""
    import numpy as np
    return np.indices((p,) * k, dtype=np.int64).reshape(k, p ** k).T


def _representatives(p: int, k: int) -> np.ndarray:
    """One vector of F_p^k per scaling class: the zero vector first, then
    every vector whose first nonzero coordinate is 1, one block per leading
    position; 1 + (p^k - 1)/(p - 1) rows.  Read as base-p numbers with the
    first coordinate leading, the block for position i is [p^j, 2 p^j) with
    j = k-1-i, so the rows are the digits of those numbers."""
    import numpy as np
    codes = np.concatenate([[0], *(np.arange(p ** j, 2 * p ** j) for j in reversed(range(k)))])
    return codes[:, None] // p ** np.arange(k - 1, -1, -1) % p


def _leading_one_rows(rows: np.ndarray) -> np.ndarray:
    """The zero row, then the rows whose first nonzero entry is 1: one per
    scaling class of a set of vectors closed under scaling."""
    import numpy as np
    leading = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return np.concatenate([np.zeros((1, rows.shape[1]), dtype=rows.dtype),
                           rows[leading == 1]])


def cup_square_fiber_cardinality(p: int, n: int) -> ExactRational:
    """Height-n cardinality of the fiber of the cup-square map from the
    degree-2 to the degree-4 EM space of C_p (odd p):

        p^C(n-1, 3) * (p^(3-n) + p^n - p - 1) / (p^2 - 1).
    """
    _require_odd_prime(p)
    if n < 0:
        raise InputError(f"height must be >= 0, got {n}")
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
