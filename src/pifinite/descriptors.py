"""Group descriptors: the groups the text grammar names, as records, with
their orders, names and limits.

A descriptor is a cyclic group ``C_n``, a symmetric group ``S_m``, a
dihedral group ``D_2m`` (named by its order), a direct product, or a wreath
product ``G wr C_c``, C_c cycling c coordinates.  ``descriptor_order``
reads its order without building anything, ``descriptor_name`` prints it
in the grammar, and ``checked_order`` applies the limits on a table build:
the symmetric degree, ``MAX_SYMMETRIC_DEGREE``, and the order cap,
``DEFAULT_ORDER_CAP`` or ``PIFINITE_ORDER_CAP``, which one function reads.
The count of commuting p-tuples each descriptor gives without a table is
``homcounts.hom_count``, in its own module because only a height count of
a described group reads it.  Nothing here builds a table, and this module
loads no table engine.
"""
from __future__ import annotations

import math
import os

from .errors import InputError, ResourceBudgetError
from .rationals import MAX_DIGITS, fits_digits, power_may_fit, require_int
from .records import frozen

DEFAULT_ORDER_CAP = 10_000
ORDER_CAP_ENV = "PIFINITE_ORDER_CAP"


def _require_order(order: int | None) -> int:
    """Return order, or refuse it past the cap: PIFINITE_ORDER_CAP, else
    DEFAULT_ORDER_CAP.  None stands for an order past the digit budget,
    which no cap admits and no message prints."""
    cap, env = DEFAULT_ORDER_CAP, os.environ.get(ORDER_CAP_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise InputError(f"{ORDER_CAP_ENV} must be an integer, got {env!r}") from exc
    if order is None or order > cap:
        shown = f"past the {MAX_DIGITS}-digit budget" if order is None else order
        raise ResourceBudgetError(f"group of order {shown} exceeds the cap {cap}")
    return order


@frozen
class Cyclic:
    n: int


@frozen
class Symmetric:
    n: int


@frozen
class Dihedral:
    order: int


@frozen
class DirectProduct:
    left: "GroupDescriptor"
    right: "GroupDescriptor"


@frozen
class Wreath:
    base: "GroupDescriptor"
    p: int


GroupDescriptor = Cyclic | Symmetric | Dihedral | DirectProduct | Wreath

MAX_SYMMETRIC_DEGREE = 6


def descriptor_order(d: GroupDescriptor) -> int | None:
    """Order of the described group, computed without building anything, or
    None when it has more than MAX_DIGITS digits.  Every part of ``d`` is
    checked whatever the order, and no power is taken past that size."""
    if isinstance(d, Cyclic):
        return _printable(require_int(d.n, "Cyclic order", 1))
    if isinstance(d, Symmetric):
        if not 1 <= require_int(d.n, "Symmetric degree") <= MAX_SYMMETRIC_DEGREE:
            raise InputError(f"Symmetric degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {d.n}")
        return math.factorial(d.n)
    if isinstance(d, Dihedral):
        if require_int(d.order, "Dihedral order") < 2 or d.order % 2:
            raise InputError(f"Dihedral order must be even and >= 2, got {d.order}")
        return _printable(d.order)
    if isinstance(d, DirectProduct):
        left, right = descriptor_order(d.left), descriptor_order(d.right)
        return None if left is None or right is None else _printable(left * right)
    if isinstance(d, Wreath):
        require_int(d.p, "wreath degree", 2)
        base = descriptor_order(d.base)
        return None if base is None else _wreath_order(base, d.p)
    raise InputError(f"unknown group descriptor {d!r}")


# every record answers .order, as a table does; a Dihedral holds it as its field
Cyclic.order = Symmetric.order = DirectProduct.order = Wreath.order = property(descriptor_order)


def _printable(order: int) -> int | None:
    return order if fits_digits(order) else None


def _wreath_order(m: int, c: int) -> int | None:
    """|G wr C_c| = m^c c for |G| = m, as ``descriptor_order`` gives it."""
    return _printable(m ** c * c) if power_may_fit(m, c) else None


def descriptor_name(d: GroupDescriptor) -> str:
    if isinstance(d, Cyclic):
        return f"C{d.n}"
    if isinstance(d, Symmetric):
        return f"S{d.n}"
    if isinstance(d, Dihedral):
        return f"D{d.order}"
    if isinstance(d, DirectProduct):
        # "x" groups to the left, so a product on the right needs parentheses
        right = descriptor_name(d.right)
        if isinstance(d.right, DirectProduct):
            right = f"({right})"
        return f"{descriptor_name(d.left)} x {right}"
    if isinstance(d, Wreath):
        base = descriptor_name(d.base)
        if isinstance(d.base, (DirectProduct, Wreath)):
            base = f"({base})"
        return f"{base} wr C{d.p}"
    raise InputError(f"unknown group descriptor {d!r}")


def checked_order(d: GroupDescriptor) -> int:
    """Order of the described group; refuses it, as ``groups.build_group``
    would, when the descriptor is invalid or the order exceeds the cap."""
    return _require_order(descriptor_order(d))
