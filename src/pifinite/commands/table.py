"""``table``: a grid of EM-space cardinalities."""

from __future__ import annotations

from . import _emit, _rat_json, _rat_text
from ..rationals import require_int, require_values


def handle(args) -> int:
    require_int(args.kmax, "kmax", 0)
    require_int(args.nmax, "nmax", 0)
    require_values((args.kmax + 1) * (args.nmax + 1), "the table")
    from ..spaces import em_space, height_cardinality
    p = args.prime
    rows = [[height_cardinality(em_space([p], k), p, n) for k in range(args.kmax + 1)]
            for n in range(args.nmax + 1)]
    lines = ["n\\k " + " ".join(f"{k:>8}" for k in range(args.kmax + 1))]
    lines += [f"{n:>3} " + " ".join(f"{_rat_text(v):>8}" for v in row)
              for n, row in enumerate(rows)]
    _emit(args, "\n".join(lines), {
        "prime": p,
        "kmax": args.kmax,
        "nmax": args.nmax,
        "values": [[_rat_json(v) for v in row] for row in rows],
    })
    return 0
