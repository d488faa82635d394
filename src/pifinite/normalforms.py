"""The normal form of a space expression: the free commutative semiring on
its connected atoms, as a multiset of components, each a sorted multiset of
atoms, and what is read off it.

``spaces.normal_form`` builds a ``NormalForm`` from an expression and
imports this module when it first runs, so a CLI answer that takes no
normal form (``card``, ``profile``, ``classify``, ``beta``, ``table``)
never compiles it.  ``NormalForm.__mul__`` is the one place two forms
multiply, and a product of many is a fold of it (``_product``).  It holds
the product to ``MAX_COMPONENTS`` components before expanding it, and
forms each component with ``_component``, where the EM atoms of one
degree multiply, ``B^k(A) * B^k(B) = B^k(A x B)``.  Equal tables of
different names are one atom, and a form prints each by the least of their
names, so equal forms print alike.  ``connectivity`` and ``is_m_finite``
read the atom degrees of a normal form.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import chain

from .errors import ResourceBudgetError
from .rationals import MAX_DIGITS, require_int
from .spaces import EM, PT, Atom, SpaceExpr, disjoint_union, finite_set, normal_form, product

# The one bound on the size of a normal form: a union whose fold, or a
# product whose expansion, would pass this many components is refused
MAX_COMPONENTS = 2048


def _require_components(n: int) -> None:
    if n > MAX_COMPONENTS:
        raise ResourceBudgetError(f"a normal form expanding to {n} components exceeds "
                                  f"the {MAX_COMPONENTS}-component budget")


def _atom_key(atom: Atom):
    # a described group by (order, 0, name), a table by (order, 1, rows),
    # what FiniteGroup equality reads: no copy of the table is made to sort
    # it, and no name is compared with rows
    if isinstance(atom, EM):
        return ("em", atom.degree, atom.factors)
    from .descriptors import GroupDescriptor, descriptor_name
    group = atom.group
    if isinstance(group, GroupDescriptor):
        return ("cls", group.order, 0, descriptor_name(group))
    return ("cls", group.order, 1, group._rows)


def _least(a: Atom, b: Atom) -> Atom:
    # of two equal atoms, the one printed least: equal tables may carry
    # different names, and every other atom has one text
    if a is b or isinstance(a, EM) or not hasattr(a.group, "descriptor"):
        return a
    return a if a.group.name <= b.group.name else b


def _least_atoms(comps: Iterable[tuple[Atom, ...]]) -> dict[Atom, Atom]:
    # each atom of the components -> the least-printed of its equal atoms
    least: dict[Atom, Atom] = {}
    for comp in comps:
        for atom in comp:
            least[atom] = _least(least.get(atom, atom), atom)
    return least


def _add(counts: dict, merged: list, items: Iterable[tuple[tuple[Atom, ...], int]]) -> None:
    # add each (component, multiplicity) into counts, and each component an
    # equal one already held takes in to merged
    for comp, mult in items:
        m = counts.get(comp)
        if m is None:
            counts[comp] = mult
        else:
            counts[comp] = m + mult
            merged.append(comp)


def _merged(counts: dict, merged: list) -> "NormalForm":
    """The form of ``counts``, where ``merged`` holds each component that
    ``_add`` added into an equal one already held.  A dict keeps the first
    of two equal keys, so a merged-away atom may carry the least name of an
    equal table: the keys are renamed by the least name among both, so the
    text ``to_expr`` prints does not depend on the order of the parts."""
    if merged:
        least = _least_atoms(chain(counts, merged))
        counts = {tuple(map(least.__getitem__, c)): m for c, m in counts.items()}
    return NormalForm(counts)


def _component(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The sorted component of a product of atoms, the one place a component
    is formed.  The EM atoms of one degree, adjacent in the order, multiply
    into one: ``B^k(A) * B^k(B) = B^k(A x B)``."""
    out: list[Atom] = []
    for atom in sorted(atoms, key=_atom_key):
        last = out[-1] if out else None
        if isinstance(atom, EM) and isinstance(last, EM) and last.degree == atom.degree:
            out[-1] = EM(last.factors + atom.factors, atom.degree)
        else:
            out.append(atom)
    return tuple(out)


class NormalForm:
    """Multiset of components, each a sorted multiset of connected atoms.

    Finite-set factors are absorbed into component multiplicities, disjoint
    unions and products are flattened and distributed, so this is the free
    commutative semiring on the connected atoms: two expressions with equal
    normal form get equal values under every cardinality evaluator.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[tuple[Atom, ...], int] | None = None):
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

    @property
    def components(self) -> tuple[tuple[tuple[Atom, ...], int], ...]:
        return tuple(sorted(self._counts.items(),
                            key=lambda item: tuple(_atom_key(a) for a in item[0])))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        return _sum((self, other))

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        _require_components(len(self._counts) * len(other._counts))
        counts: dict[tuple[Atom, ...], int] = {}
        merged = []
        for c1, m1 in self._counts.items():
            _add(counts, merged, ((_component(c1 + c2), m1 * m2)
                                  for c2, m2 in other._counts.items()))
        return _merged(counts, merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NormalForm) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        # the text parses back to this form; one the printer refuses names
        # the budget, so that a repr never raises
        from .parser import space_text
        try:
            return f"NormalForm({space_text(self.to_expr())})"
        except ResourceBudgetError:
            return f"NormalForm(<past the {MAX_DIGITS}-digit budget>)"

    def to_expr(self) -> SpaceExpr:
        # equal tables of different names are one atom, printed by the
        # least name among the equal atoms of the form: equal forms print alike
        least = _least_atoms(self._counts)
        parts = []
        for comp, mult in self.components:
            factors: list[SpaceExpr] = [finite_set(mult)] if mult > 1 else []
            factors.extend(map(least.__getitem__, comp))
            parts.append(product(*factors) if factors else PT)
        return disjoint_union(*parts)


def _sum(forms: Iterable[NormalForm]) -> NormalForm:
    # one dict for the whole fold: adding the parts pairwise would copy it
    # once per part
    counts: dict[tuple[Atom, ...], int] = {}
    merged = []
    for nf in forms:
        _add(counts, merged, nf._counts.items())
        _require_components(len(counts))
    return _merged(counts, merged)


def _product(forms: list[NormalForm]) -> NormalForm:
    # one-component forms (atoms, scalars, the zero form) fold in first:
    # each then re-sorts the one component, where after a union it would
    # re-sort every component of the expansion
    out = NormalForm.one()
    for nf in sorted(forms, key=lambda nf: len(nf._counts) > 1):
        out = out * nf
    return out


def connectivity(x: SpaceExpr) -> int | float:
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
    return min((a.degree for a in comps[0][0]), default=math.inf) - 1


def is_m_finite(x: SpaceExpr, m: int) -> bool:
    """Truncation test: finitely many components with homotopy concentrated
    in degrees <= m, that is every atom of the normal form in degree <= m.
    m = -2 means contractible; m = -1 means a finite (possibly empty) set."""
    if require_int(m, "m") < -2:
        return False
    nf = normal_form(x)
    if m == -2:
        return nf == NormalForm.one()
    return all(a.degree <= m for comp, _ in nf.components for a in comp)
