"""``beta``: the height profile of a layer-k splitting element."""

from __future__ import annotations

from .profile import _emit_profile


def handle(args) -> int:
    from ..heights import beta_element
    prof = beta_element(args.prime, args.k).profile(args.prime, args.range)
    return _emit_profile(args, prof, {"prime": args.prime, "k": args.k}, True)
