"""``card``: the height-n cardinality of a space."""

from __future__ import annotations

from . import _emit, _rat_json, _rat_text


def handle(args) -> int:
    from ..parser import parse_space
    space = parse_space(args.space)     # a refused text loads no space algebra
    from ..spaces import height_cardinality
    value = height_cardinality(space, args.prime, args.height)
    _emit(args, _rat_text(value), {
        "space": args.space,
        "prime": args.prime,
        "height": args.height,
        "cardinality": _rat_json(value),
    })
    return 0
