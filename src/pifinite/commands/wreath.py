"""``wreath``: the wreath-product identity report for a group."""

from __future__ import annotations

from . import _emit, _rat_json, _rat_text


def handle(args) -> int:
    from ..parser import parse_group
    descriptor = parse_group(args.group)    # a refused group loads no table engine
    from ..groups import build_group
    from ..heights import verify_wreath_identity
    group = build_group(descriptor)
    report = verify_wreath_identity(group, args.prime, args.height)
    sign = "either" if report.sign is None and report.magnitudes_match else report.sign
    lhs, rhs = _rat_text(report.lhs), _rat_text(report.rhs)
    plain = (f"lhs {lhs}, rhs {rhs}, sign {sign}" if report.magnitudes_match
             else f"lhs {lhs}, rhs {rhs}, MISMATCH")
    _emit(args, plain, {
        "group": args.group,
        "prime": args.prime,
        "height": args.height,
        "lhs": _rat_json(report.lhs),
        "rhs": _rat_json(report.rhs),
        "sign": report.sign,
        "magnitudes_match": report.magnitudes_match,
    })
    return 0
