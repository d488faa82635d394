"""``profile`` and ``classify``: a space's cardinalities over heights
0..N, with each layer's class for ``classify``."""

from __future__ import annotations

from . import _emit, _rat_json, _rat_text


def handle(args) -> int:
    from ..parser import parse_space
    space = parse_space(args.space)
    from ..heights import height_profile
    prof = height_profile(space, args.prime, args.range)
    return _emit_profile(args, prof, {"space": args.space, "prime": args.prime},
                         args.command == "classify")


def _emit_profile(args, prof, payload: dict, classify: bool) -> int:
    """Print a height profile one layer a line, with each layer's class if
    ``classify``; the payload gains its ``values`` (and ``classes``)."""
    from ..heights import classify_layer
    classes = [classify_layer(prof, n).value for n in range(len(prof))] if classify else []
    plain = "\n".join(f"{n}: {_rat_text(v)}" + (f" ({classes[n]})" if classify else "")
                      for n, v in enumerate(prof.values))
    payload["values"] = [_rat_json(v) for v in prof.values]
    if classify:
        payload["classes"] = classes
    _emit(args, plain, payload)
    return 0
