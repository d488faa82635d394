"""``loop``: the p-adic free loop space, iterated, in normal form."""

from __future__ import annotations

from . import _emit, _require_printable
from ..rationals import require_int


def handle(args) -> int:
    require_int(args.iterations, "iteration count", 0)
    from ..parser import parse_space, space_text
    from ..spaces import normal_form, p_adic_loop
    # looping the normal form keeps each iteration as small as the answer;
    # looping the raw expression doubles it with every iteration
    nf = normal_form(parse_space(args.space))
    for _ in range(args.iterations):
        given, nf = nf, normal_form(p_adic_loop(nf.to_expr(), args.prime))
        # looping never lowers a multiplicity, so a large one can stop here
        for _, count in nf.components:
            _require_printable(count)
        # an iteration that returns the form it was given returns it again
        if nf == given:
            break
    text = space_text(nf.to_expr())
    _emit(args, text, {
        "space": args.space,
        "prime": args.prime,
        "iterations": args.iterations,
        "loop": text,
    })
    return 0
