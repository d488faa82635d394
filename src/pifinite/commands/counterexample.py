"""``counterexample``: the height-4 multiplicativity failure for the
cup-square fiber."""

from __future__ import annotations

from . import _emit, _rat_json, _rat_text


def handle(args) -> int:
    from ..quadforms import amenability_failure_report
    report = amenability_failure_report(args.prime)
    verdict = "multiplicativity holds" if report.multiplicative else "multiplicativity fails"
    _emit(args, f"lhs {_rat_text(report.lhs)}, rhs {_rat_text(report.rhs)}, {verdict}", {
        "prime": args.prime,
        "lhs": _rat_json(report.lhs),
        "rhs": _rat_json(report.rhs),
        "multiplicative": report.multiplicative,
    })
    return 0
