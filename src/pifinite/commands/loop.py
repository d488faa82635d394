"""``loop``: the p-adic free loop space, iterated, in normal form.

Each iteration's output is held to its input at heights 0 and 1,
``|L_p X|_n = |X|_(n+1)``, through ``spaces.height_cardinality``, which
counts each atom in closed form and shares no code with the class walk that
loops it; a mismatch raises ``InvariantError``."""

from __future__ import annotations

from . import _emit, _require_printable
from ..errors import InvariantError
from ..rationals import require_int


def handle(args) -> int:
    require_int(args.iterations, "iteration count", 0)
    from ..parser import parse_space, space_text
    space = parse_space(args.space)     # a refused text loads no space algebra
    from ..spaces import height_cardinality, normal_form, p_adic_loop
    p = args.prime
    # looping the normal form keeps each iteration as small as the answer;
    # looping the raw expression doubles it with every iteration
    nf = normal_form(space)
    x, height_1 = nf.to_expr(), None
    for _ in range(args.iterations):
        given, nf = nf, normal_form(p_adic_loop(x, p))
        # looping never lowers a multiplicity, so a large one can stop here
        for _, count in nf.components:
            _require_printable(count)
        x, before = nf.to_expr(), x
        height_0 = height_cardinality(x, p, 0)
        # the input's height-1 count is the last output's, counted there
        if height_1 is None:
            height_1 = height_cardinality(before, p, 1)
        if height_0 != height_1:
            raise InvariantError("the loop's height-0 cardinality differs from "
                                 "its input's height-1 cardinality")
        height_1 = height_cardinality(x, p, 1)
        if height_1 != height_cardinality(before, p, 2):
            raise InvariantError("the loop's height-1 cardinality differs from "
                                 "its input's height-2 cardinality")
        # an iteration that returns the form it was given returns it again
        if nf == given:
            break
    text = space_text(x)
    _emit(args, text, {
        "space": args.space,
        "prime": p,
        "iterations": args.iterations,
        "loop": text,
    })
    return 0
