"""Semi-delta-ring arithmetic on height profiles.

A height profile records, for one formal element, its exact rational image
at each chromatic layer n = 0, 1, 2, ...  On p-integral values the layers
carry the p-derivation delta(a) = (a - a^p)/p, and the p-adic valuation of
a layer decides how the element acts there: a unit acts invertibly
(DIVISIBLE), positive valuation forces completeness (COMPLETE), and an
exact zero is its own class (ZERO).

The splitting elements built here are one-term records, ``R1Element``:
a coefficient times delta^j of one space symbol, plus an integer constant,
read at layer n through the symbol's height-n cardinality.
beta_element(p, k), built on [BC_p] as the EM atom B^1(C_p), is a unit at
every layer above k and dies at layer k, and alpha_splitter multiplies the
first k+1 of them, layer by layer, into a profile that separates layers
<= k from layers > k; k is at most DEFAULT_BETA_MAX_K.

Every delta step, checked or at layer 0, is held to the one digit budget
``MAX_DIGITS``: a step whose result would certainly pass it is refused
before a^p is taken, and every iterate is checked exactly once it exists.
A profile, of a space or of an element, is built in one place and held to
the value budget ``MAX_VALUES`` before any layer is computed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction

from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import (MAX_DIGITS, ExactRational, RationalLike,
                        fits_digits, power_may_fit, require_digits, require_int,
                        require_prime, require_values, vp)
from .records import frozen

# spaces and groups are imported by the functions that read them, so a
# process that only iterates delta compiles neither

DEFAULT_BETA_MAX_K = 4


class LayerClass(Enum):
    DIVISIBLE = "divisible"
    COMPLETE = "complete"
    ZERO = "zero"


# -- the p-derivation ---------------------------------------------------------------

def delta(a: RationalLike, p: int) -> ExactRational:
    """The additive p-derivation (a - a^p)/p on p-integral rationals.

    Fermat's little theorem keeps integers integral; more generally any
    rational with vp(a) >= 0 maps to another such.  Negative valuation is
    rejected: there the formula leaves the p-integral subring.  This is
    ``delta_iter`` at one step, so the same digit budget bounds it.
    """
    return delta_iter(a, p, 1)


def _require_p_integral(a: Fraction, p: int) -> None:
    require_prime(p)
    v = vp(a, p)
    if v < 0:
        # a value past the digit budget is named by the budget, not printed
        shown = (f"a={a}" if fits_digits(a.numerator) and fits_digits(a.denominator)
                 else f"a value past the {MAX_DIGITS}-digit budget")
        raise InputError(f"delta needs vp(a) >= 0, got vp={v} for {shown}")


def _iterate(a: Fraction, p: int, k: int) -> Fraction:
    # k steps of the formula, each held to the digit budget, with no
    # valuation check: layer 0, where values need not be p-integral,
    # iterates here too.  On single group symbols it agrees with the formal
    # expansion: delta(1/|G|) = 1/(p|G|) - 1/(p|G|^p) exactly.  An orbit
    # that repeats is periodic from there on, so the step of each iterate is
    # kept and a repeat answers at once, read off the cycle.
    seen: dict[Fraction, int] = {}
    for j in range(k):
        i = seen.setdefault(a, j)
        if i < j:
            return list(seen)[i + (k - i) % (j - i)]
        # Refused before a^p is taken when the result certainly passes the
        # digit budget.  With a = u/v in lowest terms, a - a^p =
        # (u v^(p-1) - u^p)/v^p is in lowest terms too, so the result has a
        # denominator of at least v^p, and for |u| > 2v a numerator of at
        # least |u|^p / 2p; with M = max(|u|, v), one of them is at least
        # (M // 2)^p / 2p.
        if not power_may_fit(max(abs(a.numerator), a.denominator) // 2, p, 2 * p):
            raise ResourceBudgetError(f"delta iterate exceeds the {MAX_DIGITS}-digit budget")
        a = (a - a ** p) / p
        require_digits(a.numerator, "delta iterate")
        require_digits(a.denominator, "delta iterate")
    return a


def _layer_iterate(a: Fraction, p: int, n: int, k: int) -> Fraction:
    # layer 0 is rational, so delta there skips the p-integrality check
    return _iterate(a, p, k) if n == 0 else delta_iter(a, p, k)


def delta_iter(a: RationalLike, p: int, k: int) -> ExactRational:
    """k-fold iterate of delta; k = 0 is the identity.  An iterate past the
    ``MAX_DIGITS`` budget is refused as soon as it appears."""
    require_int(k, "iteration count", 0)
    a = Fraction(a if isinstance(a, Fraction) else require_int(a, "a non-Fraction value"))
    if k:
        _require_p_integral(a, p)   # delta keeps vp >= 0, so once is enough
    return _iterate(a, p, k)


# -- height profiles -----------------------------------------------------------------

@frozen
class HeightProfile:
    """Exact layer values a_0, ..., a_N of one element at a fixed prime."""
    prime: int
    values: tuple[ExactRational, ...]

    def __post_init__(self):
        require_prime(self.prime)
        object.__setattr__(self, "values", tuple(
            Fraction(v if isinstance(v, Fraction) else require_int(v, "a non-Fraction value"))
            for v in self.values))

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> ExactRational:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _profile(p: int, top: int, value: Callable[[int], ExactRational]) -> HeightProfile:
    # the one profile builder: the range is checked, and held to the value
    # budget, before any layer is computed
    require_values(require_int(top, "profile range", 0) + 1, "the profile")
    return HeightProfile(p, tuple(value(n) for n in range(top + 1)))


def height_profile(x: SpaceExpr, p: int, top: int) -> HeightProfile:
    """Profile of a space: layer n holds its height-n cardinality."""
    from .spaces import height_cardinality
    return _profile(p, top, lambda n: height_cardinality(x, p, n))


def classify_layer(profile: HeightProfile, n: int) -> LayerClass:
    """How the element acts on layer n.

    Layers n >= 1 classify by valuation (unit: DIVISIBLE, positive: COMPLETE,
    exact zero: ZERO).  Layer 0 is rational, where only vanishing matters:
    zero acts as zero, anything else invertibly.
    """
    if not 0 <= require_int(n, "layer") < len(profile):
        raise InputError(f"layer {n} outside profile range 0..{profile.top}")
    a = profile[n]
    if a == 0:
        return LayerClass.ZERO
    if n == 0:
        return LayerClass.DIVISIBLE
    v = vp(a, profile.prime)
    if v == 0:
        return LayerClass.DIVISIBLE
    if v > 0:
        return LayerClass.COMPLETE
    raise InputError(f"layer {n} value {a} is not p-integral")


# -- splitting elements ------------------------------------------------------------------

@frozen
class R1Element:
    """One term plus a constant: coefficient * delta^delta_power [symbol] + constant.

    The symbol is a space, and evaluation sends it at layer n to its
    height-n cardinality, then applies delta numerically ``delta_power``
    times, which is exactly what the formal delta does to the layer values.
    Both splitting elements, p[BC_p] - 1 and delta^(k-1)[BC_p] - b, have
    this shape.
    """
    symbol: SpaceExpr
    delta_power: int
    coefficient: int
    constant: int

    def __post_init__(self):
        from .spaces import _require_spaces
        _require_spaces((self.symbol,))
        require_int(self.delta_power, "delta power", 0)
        require_int(self.coefficient, "coefficient")
        require_int(self.constant, "constant")

    def value_at(self, p: int, n: int) -> ExactRational:
        """Image of this element on the height-n layer at the prime p."""
        from .spaces import height_cardinality
        require_prime(p)
        value = height_cardinality(self.symbol, p, require_int(n, "layer", 0))
        return self.coefficient * _layer_iterate(value, p, n, self.delta_power) + self.constant

    def profile(self, p: int, top: int) -> HeightProfile:
        return _profile(p, top, lambda n: self.value_at(p, n))


def beta_element(p: int, k: int) -> R1Element:
    """The layer-k splitting element, for 0 <= k <= DEFAULT_BETA_MAX_K.

    k = 0 is the formal p[BC_p] - 1, which vanishes on the rational layer
    and is the unit p^n - 1 at every layer n >= 1.  For k >= 1 the element
    is delta^(k-1)[BC_p] - b with b the representative of the layer-k value
    mod p in 1..p-1: the layer-n value of delta^(k-1)[BC_p] is the (k-1)-fold
    delta iterate of p^(n-1), whose valuation is n - k for n >= k, so the
    difference has positive valuation exactly at layer k and is a unit at
    every layer above.

    b is read off residues, never off the layer-k value itself, which can
    pass the digit budget where the profile asked for stops short of layer
    k: if x = y mod p^m with m >= 1 then x^p = y^p mod p^(m+1), so
    delta(x) = delta(y) mod p^(m-1), and k-1 steps from p^(k-1) mod p^k
    leave the layer-k value mod p.
    """
    require_prime(p)
    if require_int(k, "k", 0) > DEFAULT_BETA_MAX_K:
        raise ResourceBudgetError(f"k={k} exceeds the iterate budget {DEFAULT_BETA_MAX_K}")
    from .spaces import em_space
    bc_p = em_space([p], 1)
    if k == 0:
        return R1Element(bc_p, 0, p, -1)
    b = p ** (k - 1)
    for m in range(k, 1, -1):
        b = (b - pow(b, p, p ** m)) % p ** m // p
    if b == 0:
        raise InvariantError(f"the layer-{k} value is not a p-adic unit")
    return R1Element(bc_p, k - 1, 1, -b)


def alpha_splitter(p: int, k: int, top: int) -> HeightProfile:
    """Pointwise product of the beta profiles for 0..k: COMPLETE or ZERO on
    every layer <= k and DIVISIBLE on every layer in (k, top]."""
    if require_int(k, "k", 0) > require_int(top, "profile range"):
        raise InputError(f"need k <= top, got k={k}, top={top}")
    betas = [beta_element(p, j) for j in range(k + 1)]
    return _profile(p, top, lambda n: math.prod(beta.value_at(p, n) for beta in betas))


# -- consistency reports ----------------------------------------------------------------

@frozen
class WreathReport:
    """Both sides of the wreath-product identity for delta at one layer."""
    group: str
    prime: int
    layer: int
    lhs: ExactRational          # delta of the classifying-space value
    rhs: ExactRational          # wreath-product value minus direct-product value
    sign: int | None            # +1 / -1 when one relates them, None if both vanish
    magnitudes_match: bool


def verify_wreath_identity(group: FiniteGroup, p: int, n: int) -> WreathReport:
    """Compare delta(|BG|_n) against |B(G wr C_p)|_n - |B(C_p x G)|_n.

    The left side applies the p-derivation formula to the layer value; the
    right side is computed independently from commuting-tuple counts in the
    wreath and direct product groups.  Every side reads the tuple counts of
    the tables built here, |Hom(Z_p^n, H)| / |H|, never the EM closed form
    that ``classifying`` gives an abelian table, so the identity is checked
    on those tables.
    """
    require_prime(p)
    require_int(n, "layer", 0)
    from .descriptors import Cyclic
    from .groups import build_group, count_commuting_p_tuples, direct_product, wreath_cyclic

    def bg_value(h: FiniteGroup) -> Fraction:
        return Fraction(count_commuting_p_tuples(h, p, n), h.order)

    lhs = _layer_iterate(bg_value(group), p, n, 1)
    wreath = wreath_cyclic(group, p)
    direct = direct_product(build_group(Cyclic(p)), group)
    rhs = bg_value(wreath) - bg_value(direct)

    if lhs == rhs == 0:
        sign, match = None, True
    elif lhs == rhs:
        sign, match = 1, True
    elif lhs == -rhs:
        sign, match = -1, True
    else:
        sign, match = None, False
    return WreathReport(group.name, p, n, lhs, rhs, sign, match)
