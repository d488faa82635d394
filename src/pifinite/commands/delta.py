"""``delta``: the iterated p-derivation of a rational."""

from __future__ import annotations

from fractions import Fraction

from . import _emit, _rat_json, _rat_text
from ..errors import InputError
from ..rationals import require_digits, require_numeral


def handle(args) -> int:
    from ..heights import delta_iter
    if not args.value.isascii():        # Fraction() also reads other scripts' digits
        raise InputError(f"not a rational: {args.value!r}")
    try:
        value = Fraction(require_numeral(args.value, "the value"))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {args.value!r}") from exc
    require_digits(value.numerator, "the value")
    require_digits(value.denominator, "the value")
    out = delta_iter(value, args.prime, args.iterations)
    _emit(args, _rat_text(out), {
        "value": args.value,
        "prime": args.prime,
        "iterations": args.iterations,
        "result": _rat_json(out),
    })
    return 0
