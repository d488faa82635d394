"""``verify``: re-check the reference number table, one line a check.

A check that raises fails its own label, and every later check still runs.
"""

from __future__ import annotations


def handle(args) -> int:
    from ..checks import _VERIFY_TABLE
    failures = 0
    results = []
    for label, check in _VERIFY_TABLE:
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        results.append({"check": label, "pass": ok, "detail": detail})
        if args.format != "json":
            print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if args.format == "json":
        from .jsontext import dumps
        print(dumps({"results": results, "failures": failures}))
    return 3 if failures else 0
