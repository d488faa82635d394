"""Symbolic pi-finite spaces and their exact cardinality evaluators.

The expression grammar is deliberately small: finite sets, classifying
spaces of finite groups, Eilenberg-MacLane spaces of finite abelian groups,
disjoint unions and products.  Every space it denotes has finitely many
components and finite homotopy groups, and three walks over an expression
answer every question asked of it, exactly:

* ``normal_form``, the sum of products of atoms, from whose atom degrees
  connectivity and truncation are read;
* ``p_adic_loop``, the p-adic free loop space, again in the grammar;
* ``_height_cardinality``, the height-n cardinality at a prime p, the
  classical cardinality of the n-fold loop space, which each atom gives in
  closed form: a binomial power for an EM atom, a commuting-tuple count for
  B(G).  Height 0 reads no prime and is the homotopy cardinality, each
  component weighted by 1/|pi_1| * |pi_2| / ...

An integer is factored into primes in one place, ``_prime_factors``, which
counts each prime's power by the ``rationals`` valuation and trial-divides
no further than ``TRIAL_DIVISION_BOUND``; an EM atom's orders are factored
once, by ``EM`` itself.  ``B(G x H)`` of a described group is
``B(G) * B(H)`` by one rule, ``described_classifying``, which the parser
and normal forms share.  An atom is printed in one place, ``atom_text``,
which the parser's printer shares.  A normal form, the sum of products of
atoms that looping prints, is held to ``MAX_COMPONENTS`` components,
decided before a product is expanded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import (MAX_DIGITS, ExactRational, _int_valuation, binom_ext, is_prime,
                        power_may_fit, require_prime, vp)
from .records import frozen

if TYPE_CHECKING:
    from .groups import FiniteGroup, GroupDescriptor


# -- expression grammar ----------------------------------------------------------

@frozen
class Empty:
    """The empty space."""


@frozen
class FinSet:
    """A finite discrete space with ``size`` points (size >= 1)."""
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"FinSet needs size >= 1, got {self.size} (use EMPTY for 0)")


@frozen
class Classifying:
    """The classifying space of a finite group: one component, fundamental
    group ``group``, nothing above degree 1."""
    group: FiniteGroup


@frozen
class EM:
    """A single finite abelian group in one degree k >= 1.

    ``factors`` is the cyclic decomposition; it is canonicalized to the
    sorted tuple of prime-power orders, so isomorphic coefficient groups
    yield equal atoms.
    """
    factors: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InputError(f"EM needs degree >= 1, got {self.degree}")
        canon = _canonical_cyclic_factors(self.factors)
        if not canon:
            raise InputError("EM needs a nontrivial coefficient group")
        object.__setattr__(self, "factors", canon)

    @property
    def group_order(self) -> int:
        return math.prod(self.factors)


@frozen
class Disjoint:
    parts: tuple["SpaceExpr", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise InputError("Disjoint needs at least two parts (use the helper)")


@frozen
class Product:
    factors: tuple["SpaceExpr", ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise InputError("Product needs at least two factors (use the helper)")


SpaceExpr = Union[Empty, FinSet, Classifying, EM, Disjoint, Product]

EMPTY = Empty()
PT = FinSet(1)


# Trial division stops here, so every order below its square is factored
# in full and no order costs more divisions than this, three integer roots
# and one primality test: about 10 ms for the worst order, where 10^6 costs
# about 80 ms and 10^7 about 0.8 s (CPython 3.11, 2 vCPUs)
TRIAL_DIVISION_BOUND = 100_000


def _prime_factors(m: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of m >= 1, primes ascending.  What trial
    division up to ``TRIAL_DIVISION_BOUND`` leaves is settled by
    ``_prime_power``."""
    out = []
    d = 2
    while d * d <= m:
        if d > TRIAL_DIVISION_BOUND:
            out.append(_prime_power(m))
            return out
        if m % d == 0:
            e = _int_valuation(m, d)
            out.append((d, e))
            m //= d ** e
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _integer_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(m: int) -> tuple[int, int]:
    """(q, e) with m = q^e, q prime, for an m with no prime factor up to
    ``TRIAL_DIVISION_BOUND``.  ``is_prime`` decides every m below about
    3.3 * 10^24, under the fifth power of that bound, and there such an m
    has at most four prime factors, so the roots e = 2, 3, 4 find every
    prime power; any other m is refused."""
    for e in (2, 3, 4):
        q = _integer_root(m, e)
        if q ** e == m and is_prime(q):
            return q, e
    if not is_prime(m):
        raise ResourceBudgetError(f"cannot factor a composite order with no prime "
                                  f"factor up to {TRIAL_DIVISION_BOUND}")
    return m, 1


def _canonical_cyclic_factors(factors: Iterable[int]) -> tuple[int, ...]:
    canon: list[int] = []
    for m in factors:
        if m < 1:
            raise InputError(f"cyclic factor orders must be >= 1, got {m}")
        canon.extend(q ** e for q, e in _prime_factors(m))
    return tuple(sorted(canon))


# -- smart constructors ------------------------------------------------------------

def finite_set(k: int) -> SpaceExpr:
    if k < 0:
        raise InputError(f"finite set size must be >= 0, got {k}")
    return EMPTY if k == 0 else FinSet(k)


def classifying(group: FiniteGroup) -> SpaceExpr:
    return PT if group.order == 1 else Classifying(group)


def _direct_factors(d: GroupDescriptor) -> list[GroupDescriptor]:
    """The factors of ``d`` that are not direct products, left to right."""
    from .groups import DirectProduct
    if isinstance(d, DirectProduct):
        return _direct_factors(d.left) + _direct_factors(d.right)
    return [d]


def described_classifying(d: GroupDescriptor) -> SpaceExpr:
    """B of a described group, the one product rule: ``B(G x H)`` is
    ``B(G) * B(H)``, equal at every height since a commuting tuple in G x H
    is a pair of commuting tuples.  The abelian factors gather into one
    degree-1 EM atom, a cyclic one without a table, and each other factor
    is built as its own table.  The whole descriptor is checked first, so a
    product is refused exactly as ``build_group`` would refuse its table."""
    from .groups import Cyclic, build_group, checked_order
    checked_order(d)
    orders: list[int] = []
    tables: list[SpaceExpr] = []
    for f in _direct_factors(d):
        if isinstance(f, Cyclic):
            orders.append(f.n)
            continue
        g = build_group(f)
        if g.is_abelian():
            orders.extend(_abelian_primary_factors(g))
        else:
            tables.append(Classifying(g))
    return product(em_space(orders, 1), *tables)


def em_space(factors: Iterable[int], degree: int) -> SpaceExpr:
    """EM atom with normalization: degree 0 collapses to the underlying finite
    set, a trivial coefficient group collapses to a point.  Neither needs
    the orders factored; ``EM`` checks and factors them, once."""
    factors = tuple(factors)
    if degree < 0:
        raise InputError(f"EM degree must be >= 0, got {degree}")
    if degree > 0 and any(m != 1 for m in factors):
        return EM(factors, degree)
    if min(factors, default=1) < 1:
        raise InputError(f"cyclic factor orders must be >= 1, got {min(factors)}")
    return FinSet(math.prod(factors))


def disjoint_union(*parts: SpaceExpr) -> SpaceExpr:
    flat: list[SpaceExpr] = []
    for part in parts:
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
    for f in factors:
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

def _abelian_primary_factors(g: FiniteGroup) -> tuple[int, ...]:
    """Invariant prime-power cyclic factors of an abelian group, recovered
    from its element-order statistics."""
    factors: list[int] = []
    for q, k in _prime_factors(g.order):
        # e_j = log_q #{x : order(x) divides q^j}; the successive differences
        # m_j = e_j - e_{j-1} form the conjugate of the type partition.
        exps = [0]
        while exps[-1] < k:
            qj = q ** len(exps)
            c = sum(1 for o in g.element_orders if qj % o == 0)
            e = _int_valuation(c, q)
            if q ** e != c:
                raise InvariantError("element-order counts of an abelian group are q-powers")
            exps.append(e)
        m = [exps[i] - exps[i - 1] for i in range(1, len(exps))]
        for i in range(1, (m[0] if m else 0) + 1):
            lam = sum(1 for mj in m if mj >= i)
            factors.append(q ** lam)
    return tuple(sorted(factors))


Atom = Union[Classifying, EM]

# The one bound on the size of a normal form: a union whose fold, or a
# product whose expansion, would pass this many components is refused
MAX_COMPONENTS = 2048


def atom_text(atom: Atom) -> str:
    """The one printer of an atom, in the parser's grammar: ``B^k(C.. x C..)``
    for an EM atom, ``B(name)`` for a group."""
    if isinstance(atom, EM):
        inside = " x ".join(f"C{q}" for q in atom.factors)
        return f"B^{atom.degree}({inside})"
    return f"B({atom.group.name})"


def _require_components(n: int) -> None:
    if n > MAX_COMPONENTS:
        raise ResourceBudgetError(f"a normal form expanding to {n} components exceeds "
                                  f"the {MAX_COMPONENTS}-component budget")


def _atom_key(atom: Atom):
    # a group by (order, rows), what FiniteGroup equality reads: no copy of
    # the table is made to sort it
    if isinstance(atom, EM):
        return ("em", atom.degree, atom.factors)
    return ("cls", atom.group.order, atom.group._rows)


def _canonical_atoms(atom: Atom) -> tuple[Atom, ...]:
    """The sorted component an atom stands for.  Unit atoms drop out;
    abelian classifying spaces unify with their degree-1 Eilenberg-MacLane
    form; a table built for a direct product splits as
    ``described_classifying`` reads ``B(G x H)``, so its printed name parses
    back to the same normal form."""
    if isinstance(atom, Classifying):
        from .groups import DirectProduct
        g = atom.group
        if g.order == 1:
            return ()
        if g.is_abelian():
            return (EM(_abelian_primary_factors(g), 1),)
        if isinstance(g.descriptor, DirectProduct):
            (comp,) = normal_form(described_classifying(g.descriptor))._counts
            return comp
    return (atom,)


class NormalForm:
    """Multiset of components, each a sorted multiset of connected atoms.

    Finite-set factors are absorbed into component multiplicities, disjoint
    unions and products are flattened and distributed, so this is the free
    commutative semiring on the connected atoms: two expressions with equal
    normal form get equal values under every cardinality evaluator.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[dict[tuple[Atom, ...], int]] = None):
        self._counts = {c: m for c, m in (counts or {}).items() if m}

    @classmethod
    def zero(cls) -> "NormalForm":
        return cls()

    @classmethod
    def one(cls) -> "NormalForm":
        return cls({(): 1})

    @classmethod
    def scalar(cls, k: int) -> "NormalForm":
        return cls({(): k} if k else {})

    @classmethod
    def atom(cls, atom: Atom) -> "NormalForm":
        return cls({_canonical_atoms(atom): 1})

    @property
    def components(self) -> tuple[tuple[tuple[Atom, ...], int], ...]:
        return tuple(sorted(self._counts.items(),
                            key=lambda item: tuple(_atom_key(a) for a in item[0])))

    def sort_key(self) -> tuple:
        """A total order on normal forms that is exact: group atoms compare
        by order, then by their rows as tuples of ints, not by their names."""
        return tuple((tuple(_atom_key(a) for a in comp), mult)
                     for comp, mult in self.components)

    def __add__(self, other: "NormalForm") -> "NormalForm":
        return _sum((self, other))

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        _require_components(len(self._counts) * len(other._counts))
        counts: dict[tuple[Atom, ...], int] = {}
        for c1, m1 in self._counts.items():
            for c2, m2 in other._counts.items():
                comp = tuple(sorted(c1 + c2, key=_atom_key))
                counts[comp] = counts.get(comp, 0) + m1 * m2
        return NormalForm(counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NormalForm) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        if not self._counts:
            return "NormalForm(0)"
        bits = []
        for comp, mult in self.components:
            atoms = " * ".join(atom_text(a) for a in comp) or "pt"
            bits.append(f"{mult} x [{atoms}]" if mult > 1 else f"[{atoms}]")
        return "NormalForm(" + " + ".join(bits) + ")"

    def to_expr(self) -> SpaceExpr:
        parts = []
        for comp, mult in self.components:
            factors: list[SpaceExpr] = [finite_set(mult)] if mult > 1 else []
            factors.extend(comp)
            parts.append(product(*factors) if factors else PT)
        return disjoint_union(*parts)


def _sum(forms: Iterable[NormalForm]) -> NormalForm:
    # one dict for the whole fold: adding the parts pairwise would copy it
    # once per part
    counts: dict[tuple[Atom, ...], int] = {}
    for nf in forms:
        for comp, mult in nf._counts.items():
            counts[comp] = counts.get(comp, 0) + mult
        _require_components(len(counts))
    return NormalForm(counts)


def _product(forms: list[NormalForm]) -> NormalForm:
    # The factors of one component join in one sort before the others fold
    # in: folding k single atoms one at a time re-sorts the component k
    # times, and folding them after the unions re-sorts every component.
    atoms: list[Atom] = []
    scale, unions = 1, []
    for nf in forms:
        if len(nf._counts) == 1:
            (comp, mult), = nf._counts.items()
            atoms.extend(comp)
            scale *= mult
        else:
            unions.append(nf)
    out = NormalForm({tuple(sorted(atoms, key=_atom_key)): scale})
    for nf in unions:
        out = out * nf
    return out


def normal_form(x: SpaceExpr) -> NormalForm:
    """Distribute products over disjoint unions and canonicalize atoms.  A
    union whose fold, or a product whose expansion, would pass
    ``MAX_COMPONENTS`` components is refused, a product before it expands."""
    if isinstance(x, Empty):
        return NormalForm.zero()
    if isinstance(x, FinSet):
        return NormalForm.scalar(x.size)
    if isinstance(x, (Classifying, EM)):
        return NormalForm.atom(x)
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


def _p_part(factors: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pp = tuple(q for q in factors if q % p == 0)
    rest = tuple(q for q in factors if q % p != 0)
    return pp, rest


def p_adic_loop(x: SpaceExpr, p: int) -> SpaceExpr:
    """The space of maps from the p-completed circle.

    Finite sets are fixed; the operator passes through disjoint unions and
    products; a classifying space splits into classifying spaces of
    centralizers, one per conjugacy class of p-power-order elements; an EM
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
        from .groups import p_loop_decomposition
        return disjoint_union(*(classifying(c)
                                for _, c in p_loop_decomposition(x.group, p)))
    if isinstance(x, EM):
        pp, _ = _p_part(x.factors, p)
        return product(x, em_space(pp, x.degree - 1))
    raise InputError(f"not a space expression: {x!r}")


def _height_cardinality(x: SpaceExpr, p: Optional[int], n: int) -> Fraction:
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
        pp, rest = _p_part(x.factors, p) if n else ((), x.factors)
        sign = 1 if x.degree % 2 == 0 else -1
        if not pp:
            return Fraction(math.prod(rest)) ** sign
        # for 1 <= k < n-1, C(n-1, k) >= n-1: refused on that before the
        # binomial is taken, which alone takes seconds at n near 10^6
        base = math.prod(pp)
        if ((x.degree < n - 1 and not power_may_fit(base, n - 1))
                or not power_may_fit(base, exponent := binom_ext(n - 1, x.degree))):
            raise ResourceBudgetError(f"{atom_text(x)} at height {n} exceeds "
                                      f"the {MAX_DIGITS}-digit budget")
        return Fraction(base) ** exponent * Fraction(math.prod(rest)) ** sign
    if isinstance(x, Classifying):
        if not n:
            return Fraction(1, x.group.order)
        from .groups import count_commuting_p_tuples
        return Fraction(count_commuting_p_tuples(x.group, p, n), x.group.order)
    raise InputError(f"not a space expression: {x!r}")


def height_cardinality(x: SpaceExpr, p: int, n: int) -> ExactRational:
    """Cardinality at chromatic height n: the homotopy cardinality of the
    n-fold p-adic loop space, computed atom by atom without looping.

    Height 0 is the plain homotopy cardinality.  An EM atom contributes its
    p-part to the power C(n-1, k) and its prime-to-p part by the alternating
    count; B(G) contributes |Hom(Z_p^n, G)| / |G|, from the commuting-tuple
    count.  Both agree with looping n times and counting, which the tests
    and ``verify`` check.  An EM atom whose p-power would pass the
    ``MAX_DIGITS`` budget is refused before the power, or the binomial in
    its exponent, is taken.
    """
    require_prime(p)
    if n < 0:
        raise InputError(f"height must be >= 0, got {n}")
    return _height_cardinality(x, p, n)


# -- finiteness structure ------------------------------------------------------------

def _degree(atom: Atom) -> int:
    return atom.degree if isinstance(atom, EM) else 1


def connectivity(x: SpaceExpr) -> Union[int, float]:
    """Largest c with trivial homotopy in degrees <= c, read off the normal
    form: one component of multiplicity 1 is (d - 1)-connected for d the
    lowest degree of its atoms, and with no atoms it is the point.

    Contractible expressions return math.inf.  The empty space is graded -1
    here: it has a finite (empty) set of components and nothing above, and
    its cardinality is 0 at every height.
    """
    comps = normal_form(x).components
    if len(comps) != 1 or comps[0][1] != 1:
        return -1
    return min(map(_degree, comps[0][0]), default=math.inf) - 1


def is_m_finite(x: SpaceExpr, m: int) -> bool:
    """Truncation test: finitely many components with homotopy concentrated
    in degrees <= m, that is every atom of the normal form in degree <= m.
    m = -2 means contractible; m = -1 means a finite (possibly empty) set."""
    if m < -2:
        return False
    nf = normal_form(x)
    if m == -2:
        return nf == NormalForm.one()
    return all(_degree(a) <= m for comp, _ in nf.components for a in comp)


def is_amenable_at_height(x: SpaceExpr, p: int, n: int) -> bool:
    """Whether the height-n cardinality is a p-adic unit, i.e. invertible in
    the height-n layer, so that averaging over x is possible there.  Every
    nonempty space counts positively, so a value of 0 is the empty space."""
    require_prime(p)
    if n < 1:
        raise InputError(f"amenability is a height >= 1 question, got n={n}")
    value = height_cardinality(x, p, n)
    if value == 0:
        raise InputError("the empty space has no amenability")
    return vp(value, p) == 0
