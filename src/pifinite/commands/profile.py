"""``profile`` and ``classify``: a space's cardinalities over heights
0..N, with each layer's class for ``classify``."""

from __future__ import annotations

from . import _emit_profile


def handle(args) -> int:
    from ..parser import parse_space
    space = parse_space(args.space)
    from ..heights import height_profile
    prof = height_profile(space, args.prime, args.range)
    return _emit_profile(args, prof, {"space": args.space, "prime": args.prime},
                         args.command == "classify")
