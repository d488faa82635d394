"""Symbolic pi-finite spaces and their exact cardinality evaluators.

The expression grammar is deliberately small: finite sets, classifying
spaces of finite groups, Eilenberg-MacLane spaces of finite abelian groups,
disjoint unions and products.  Every space it denotes has finitely many
components and finite homotopy groups, and three walks over an expression
answer every question asked of it, exactly:

* ``normal_form``, the sum of products of atoms, from whose atom degrees
  connectivity and truncation are read; its algebra is ``normalforms``,
  imported when a normal form is first taken;
* ``p_adic_loop``, the p-adic free loop space, again in the grammar;
* ``_height_cardinality``, the height-n cardinality at a prime p, the
  classical cardinality of the n-fold loop space, which each atom gives in
  closed form: a binomial power for an EM atom, a commuting-tuple count for
  B(G), read off the descriptor of a described group by
  ``homcounts.hom_count`` (no table is built) and counted on the table of
  any other.  Height 0 reads no prime and is
  the homotopy cardinality, each component weighted by
  1/|pi_1| * |pi_2| / ...

An EM atom's coefficient group is held as its invariant factors
``d_1 | d_2 | ...``, folded from any cyclic orders by
``C_a x C_b = C_gcd(a,b) x C_lcm(a,b)`` in ``_invariant_factors``, so no
order is factored into primes: height cardinalities and loops read only
``|A|`` and the p-part of each factor.  Each identity that makes normal
forms unique is applied in one function:

* ``classifying``, the one route from a group, table or descriptor, to a
  space: ``B(1) = pt``, ``B(A) = B^1(A)`` for abelian A, and
  ``B(G x H) = B(G) * B(H)``.  A descriptor, or the one a table was built
  for, is read with no table: each abelian direct factor is the EM atom of
  the cyclic orders it names, and each other factor the ``Classifying`` atom
  of its canonical descriptor, so isomorphic spellings such as ``D6`` and
  ``S3`` are one atom.  Only a table with no descriptor, a centralizer or a
  caller's, is a table atom;
* ``normalforms._component``, the one component builder, where the EM
  atoms of one degree multiply, ``B^k(A) * B^k(B) = B^k(A x B)``.

An atom is printed in one place, ``atom_text``, which the parser's printer
shares and which holds each printed order to the digit budget; a normal
form's repr is that printer's text.  A normal form, the sum of products
of atoms that looping prints, is held to ``normalforms.MAX_COMPONENTS``
components, decided before a product is expanded.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import reduce

from .errors import InputError, ResourceBudgetError
from .rationals import (MAX_DIGITS, ExactRational, _int_valuation, binom_ext, power_may_fit,
                        require_digits, require_int, require_prime, vp)
from .records import frozen


# -- expression grammar ----------------------------------------------------------

@frozen
class Empty:
    """The empty space."""


@frozen
class FinSet:
    """A finite discrete space with ``size`` points (size >= 1)."""
    size: int

    def __post_init__(self):
        require_int(self.size, "FinSet size", 1)


@frozen
class Classifying:
    """The classifying space of a finite group: one component, fundamental
    group ``group``, nothing above degree 1.  ``group`` is a canonical
    descriptor or a table with no descriptor, neither abelian nor a direct
    product, as ``classifying`` gives it.  Height counts and normal forms
    read a descriptor itself; ``p_adic_loop`` reads ``table``, which builds
    a descriptor's table once and holds it."""
    group: FiniteGroup | GroupDescriptor
    degree = 1
    _table = None

    def __post_init__(self):
        # refused as build_group refuses it, so the order a count reads is in
        # range; a spelling other than the canonical one would print, and
        # compare, as a second space
        from .descriptors import GroupDescriptor, checked_order, descriptor_name
        if isinstance(self.group, GroupDescriptor):
            checked_order(self.group)
            if _canonical_factors(self.group) != [self.group]:
                raise InputError(f"{descriptor_name(self.group)} is not a canonical atom "
                                 "descriptor; pifinite.classifying gives the space")
        else:
            # a table exists only once groups is loaded, so a described
            # atom's check loads no table engine
            groups = sys.modules.get(f"{__package__}.groups")
            if groups is None or not isinstance(self.group, groups.FiniteGroup):
                raise InputError(f"expected a FiniteGroup or a group descriptor, "
                                 f"got {self.group!r}")

    @property
    def table(self) -> FiniteGroup:
        if self._table is None:
            from .groups import FiniteGroup, build_group
            group = self.group
            object.__setattr__(self, "_table", group if isinstance(group, FiniteGroup)
                               else build_group(group))
        return self._table


@frozen
class EM:
    """A single finite abelian group in one degree k >= 1.

    ``factors`` is any list of cyclic orders; it is canonicalized to the
    invariant factors ``d_1 | d_2 | ...``, ascending, so isomorphic
    coefficient groups yield equal atoms.
    """
    factors: tuple[int, ...]
    degree: int

    def __post_init__(self):
        require_int(self.degree, "EM degree", 1)
        canon = _invariant_factors(self.factors)
        if not canon:
            raise InputError("EM needs a nontrivial coefficient group")
        object.__setattr__(self, "factors", canon)

    @property
    def group_order(self) -> int:
        return math.prod(self.factors)


@frozen
class Disjoint:
    parts: tuple[SpaceExpr, ...]

    def __post_init__(self):
        _require_spaces(self.parts)
        if len(self.parts) < 2:
            raise InputError("Disjoint needs at least two parts (use the helper)")


@frozen
class Product:
    factors: tuple[SpaceExpr, ...]

    def __post_init__(self):
        _require_spaces(self.factors)
        if len(self.factors) < 2:
            raise InputError("Product needs at least two factors (use the helper)")


SpaceExpr = Empty | FinSet | Classifying | EM | Disjoint | Product


def _require_spaces(parts: tuple) -> tuple:
    """``parts``, refused before any is read unless each is a space
    expression, as the walks refuse one."""
    for part in parts:
        if not isinstance(part, SpaceExpr):
            raise InputError(f"not a space expression: {part!r}")
    return parts

EMPTY = Empty()
PT = FinSet(1)


def _invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """The invariant factors of the product of cyclic groups of the given
    orders, ascending, 1s dropped.  Each order folds into the chain from the
    top down by ``C_a x C_b = C_gcd(a,b) x C_lcm(a,b)``; nothing is factored."""
    chain: list[int] = []       # descending, each entry a multiple of the next
    for m in orders:
        require_int(m, "cyclic factor orders", 1)
        for i, d in enumerate(chain):
            chain[i], m = math.lcm(d, m), math.gcd(d, m)
        if m > 1:
            chain.append(m)
    return tuple(reversed(chain))


# -- smart constructors ------------------------------------------------------------

def finite_set(k: int) -> SpaceExpr:
    return EMPTY if require_int(k, "finite set size", 0) == 0 else FinSet(k)


def classifying(group: FiniteGroup | GroupDescriptor) -> SpaceExpr:
    """B of a group, the one atom rule.  A descriptor, or the one a table
    was built for, is checked whole, as ``build_group`` checks it, and split
    by ``B(G x H) = B(G) * B(H)``, equal at every height since a commuting
    tuple in G x H is a pair of commuting tuples, into the atoms of
    ``_canonical_factors`` in written order, with no table built: the EM
    atom of an abelian factor's cyclic orders, or the point, and the
    ``Classifying`` atom of each other factor.  An atom that is the whole of
    a table's group keeps that table.  A table with no descriptor gives the
    point if trivial, its degree-1 EM atom if abelian (``B(A) = B^1(A)``),
    and its table atom otherwise."""
    d = getattr(group, "descriptor", group)     # None for a table with no descriptor
    if d is None:
        if group.order == 1:
            return PT
        if group.is_abelian():
            from .groups import _abelian_invariant_factors
            return EM(_abelian_invariant_factors(group), 1)
        return Classifying(group)
    from .descriptors import checked_order
    checked_order(d)
    x = product(*(em_space(f, 1) if isinstance(f, tuple) else Classifying(f)
                  for f in _canonical_factors(d)))
    if isinstance(x, Classifying) and d is not group:
        object.__setattr__(x, "_table", group)
    return x


def _canonical_factors(d: GroupDescriptor) -> list:
    """The direct factors of the valid descriptor ``d``, left to right, the
    one rule by which isomorphic spellings meet.  An abelian factor, read
    off the descriptor (C_n, S1, S2, D2, D4, and G wr C_c for trivial G), is
    the tuple of its cyclic orders; each other factor is its canonical
    descriptor: ``D6`` is ``S3``, and a wreath base is the invariant-factor
    ``C``s of its abelian factors, then its other factors sorted by name."""
    from .descriptors import Cyclic, Dihedral, DirectProduct, Symmetric, Wreath, descriptor_name
    if isinstance(d, DirectProduct):
        return _canonical_factors(d.left) + _canonical_factors(d.right)
    if isinstance(d, Cyclic) or (isinstance(d, Symmetric) and d.n <= 2):
        return [(d.n,)]
    if isinstance(d, Dihedral) and d.order <= 6:
        return [(2,) * (d.order // 2) if d.order < 6 else Symmetric(3)]
    if isinstance(d, Wreath):
        base = _canonical_factors(d.base)
        orders = _invariant_factors(q for x in base if isinstance(x, tuple) for q in x)
        groups = sorted((x for x in base if not isinstance(x, tuple)), key=descriptor_name)
        if not orders and not groups:
            return [(d.p,)]
        return [Wreath(reduce(DirectProduct, [*map(Cyclic, orders), *groups]), d.p)]
    return [d]


def em_space(factors: Iterable[int], degree: int) -> SpaceExpr:
    """EM atom with normalization: degree 0 collapses to the underlying finite
    set, a trivial coefficient group collapses to a point.  Neither needs
    the orders folded; ``EM`` folds them, once."""
    require_int(degree, "EM degree", 0)
    factors = tuple(require_int(m, "cyclic factor orders", 1) for m in factors)
    if degree > 0 and any(m != 1 for m in factors):
        return EM(factors, degree)
    return FinSet(math.prod(factors))


def disjoint_union(*parts: SpaceExpr) -> SpaceExpr:
    flat: list[SpaceExpr] = []
    for part in _require_spaces(parts):
        if isinstance(part, Disjoint):
            flat.extend(part.parts)
        elif not isinstance(part, Empty):
            flat.append(part)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Disjoint(tuple(flat))


def product(*factors: SpaceExpr) -> SpaceExpr:
    flat: list[SpaceExpr] = []
    for f in _require_spaces(factors):
        if isinstance(f, Empty):
            return EMPTY
        if isinstance(f, Product):
            flat.extend(f.factors)
        elif f != PT:
            flat.append(f)
    if not flat:
        return PT
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


# -- normal form -------------------------------------------------------------------

Atom = Classifying | EM


def atom_text(atom: Atom) -> str:
    """The one printer of an atom, in the parser's grammar: ``B^k(C.. x C..)``
    for an EM atom, ``B(name)`` for a group.  An invariant factor can pass
    every order it was folded from, so each is held to the digit budget."""
    if isinstance(atom, EM):
        inside = " x ".join(f"C{require_digits(q, 'a cyclic order')}" for q in atom.factors)
        return f"B^{atom.degree}({inside})"
    from .descriptors import GroupDescriptor, descriptor_name
    group = atom.group
    return f"B({descriptor_name(group) if isinstance(group, GroupDescriptor) else group.name})"


def normal_form(x: SpaceExpr) -> NormalForm:
    """Distribute products over disjoint unions.  A table atom is read by
    ``classifying`` first, so a caller's trivial, abelian or described table
    takes the atom rule; a described atom is taken as it is, and no table is
    built.  A union whose fold, or a product whose expansion, would pass
    ``MAX_COMPONENTS`` components is refused, a product before it expands."""
    from .normalforms import NormalForm, _product, _sum
    if isinstance(x, Classifying) and hasattr(x.group, "descriptor"):
        x = classifying(x.group)        # a table atom, as a caller may build it
    if isinstance(x, Empty):
        return NormalForm.zero()
    if isinstance(x, FinSet):
        return NormalForm.scalar(x.size)
    if isinstance(x, Atom):
        return NormalForm({(x,): 1})
    if isinstance(x, Disjoint):
        return _sum(normal_form(part) for part in x.parts)
    if isinstance(x, Product):
        return _product([normal_form(f) for f in x.factors])
    raise InputError(f"not a space expression: {x!r}")


# -- cardinality evaluators -----------------------------------------------------------

def homotopy_cardinality(x: SpaceExpr) -> ExactRational:
    """The alternating-product count: components weighted by
    prod_k |pi_k|^((-1)^k).  Always a non-negative rational.  This is the
    height-0 cardinality, which reads no prime."""
    return _height_cardinality(x, None, 0)


def _p_part(factors: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The cyclic factors of the p-primary part: p^vp(d) for each factor d
    that p divides."""
    return tuple(p ** _int_valuation(d, p) for d in factors if d % p == 0)


def p_adic_loop(x: SpaceExpr, p: int) -> SpaceExpr:
    """The space of maps from the p-completed circle.

    Finite sets are fixed; the operator passes through disjoint unions and
    products; a classifying space splits into classifying spaces of
    centralizers, one per conjugacy class of p-power-order elements, and is
    its own loop, with no table built, when p does not divide the order; an EM
    atom picks up its p-primary part one degree down (loops based anywhere
    are a torsor over based loops, and based loops only see p-torsion).
    """
    require_prime(p)
    if isinstance(x, (Empty, FinSet)):
        return x
    if isinstance(x, Disjoint):
        return disjoint_union(*(p_adic_loop(part, p) for part in x.parts))
    if isinstance(x, Product):
        return product(*(p_adic_loop(f, p) for f in x.factors))
    if isinstance(x, Classifying):
        if x.group.order % p:
            return x        # by Cauchy's theorem e is the only p-element: C(e) = G
        from .groups import p_loop_decomposition
        cents = [c for _, c in p_loop_decomposition(x.table, p)]
        # equal centralizers share one table object, classified once
        atoms = {id(c): classifying(c) for c in {id(c): c for c in cents}.values()}
        return disjoint_union(*(atoms[id(c)] for c in cents))
    if isinstance(x, EM):
        return product(x, em_space(_p_part(x.factors, p), x.degree - 1))
    raise InputError(f"not a space expression: {x!r}")


def _height_cardinality(x: SpaceExpr, p: int | None, n: int) -> Fraction:
    # the one cardinality recursion; p is read only at n >= 1
    if isinstance(x, Empty):
        return Fraction(0)
    if isinstance(x, FinSet):
        return Fraction(x.size)
    if isinstance(x, Disjoint):
        return sum((_height_cardinality(part, p, n) for part in x.parts), Fraction(0))
    if isinstance(x, Product):
        return math.prod((_height_cardinality(f, p, n) for f in x.factors),
                         start=Fraction(1))
    if isinstance(x, EM):
        # at n = 0 nothing is p-primary and the count is |A|^((-1)^k)
        base = math.prod(_p_part(x.factors, p)) if n else 1
        rest = x.group_order // base
        sign = 1 if x.degree % 2 == 0 else -1
        if base == 1:
            return Fraction(rest) ** sign
        # for 1 <= k < n-1, C(n-1, k) >= n-1: refused on that before the
        # binomial is taken, which alone takes seconds at n near 10^6
        if ((x.degree < n - 1 and not power_may_fit(base, n - 1))
                or not power_may_fit(base, exponent := binom_ext(n - 1, x.degree))):
            raise ResourceBudgetError(f"{atom_text(x)} at height {n} exceeds "
                                      f"the {MAX_DIGITS}-digit budget")
        return Fraction(base) ** exponent * Fraction(rest) ** sign
    if isinstance(x, Classifying):
        group = x.group
        if not n:
            return Fraction(1, group.order)
        from .descriptors import GroupDescriptor
        if isinstance(group, GroupDescriptor):
            # counted from the descriptor, with no table
            from .homcounts import hom_count
            return Fraction(hom_count(group, p, n), group.order)
        from .groups import count_commuting_p_tuples
        return Fraction(count_commuting_p_tuples(group, p, n), group.order)
    raise InputError(f"not a space expression: {x!r}")


def height_cardinality(x: SpaceExpr, p: int, n: int) -> ExactRational:
    """Cardinality at chromatic height n: the homotopy cardinality of the
    n-fold p-adic loop space, computed atom by atom without looping.

    Height 0 is the plain homotopy cardinality.  An EM atom contributes its
    p-part to the power C(n-1, k) and its prime-to-p part by the alternating
    count; B(G) contributes |Hom(Z_p^n, G)| / |G|, from the commuting-tuple
    count, which a described group gives from its descriptor
    (``homcounts.hom_count``) and a table from its tuples.  Both agree
    with looping n times and counting, which the tests and ``verify``
    check.  An EM atom whose p-power would pass the
    ``MAX_DIGITS`` budget is refused before the power, or the binomial in
    its exponent, is taken.
    """
    require_prime(p)
    return _height_cardinality(x, p, require_int(n, "height", 0))


def is_amenable_at_height(x: SpaceExpr, p: int, n: int) -> bool:
    """Whether the height-n cardinality is a p-adic unit, i.e. invertible in
    the height-n layer, so that averaging over x is possible there.  Every
    nonempty space counts positively, so a value of 0 is the empty space."""
    require_prime(p)
    require_int(n, "amenability height", 1)
    value = height_cardinality(x, p, n)
    if value == 0:
        raise InputError("the empty space has no amenability")
    return vp(value, p) == 0
