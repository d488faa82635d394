"""Command line surface.

Exit codes: 0 success, 1 input error, 2 resource-budget error, 3 when
``verify`` finds a mismatch.  All numeric output is exact: rationals print
as ``a/b`` in lowest terms (integers without the ``/1``), and the JSON
format carries numerator and denominator as decimal strings.  An answer
with more than ``MAX_DIGITS`` digits in either is refused with exit 2.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import InputError, ResourceBudgetError
from .rationals import (binom_ext, require_digits, require_int, require_numeral,
                        require_prime, require_values, vp)

# Each handler and check imports the library modules it calls when it runs:
# the CLI answers one query per process, and a module that answer does not
# use would only add its import (and, without bytecode caches, its
# compilation) to the start-up of every call.


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        raise InputError(message)


def _require_printable(k: int) -> int:
    # checked before str(): past MAX_DIGITS digits, str() raises ValueError
    return require_digits(k, "the answer")


def _rat_text(x: Fraction) -> str:
    x = Fraction(x)
    _require_printable(x.numerator)
    _require_printable(x.denominator)
    return str(x)


def _rat_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(_require_printable(x.numerator)),
            "den": str(_require_printable(x.denominator))}


def _emit(args, plain: str, payload: dict) -> None:
    if args.format == "json":
        import json
        print(json.dumps(payload))
    else:
        print(plain)


# -- subcommand handlers -----------------------------------------------------------


def _cmd_card(args) -> int:
    from .parser import parse_space
    from .spaces import height_cardinality
    space = parse_space(args.space)
    value = height_cardinality(space, args.prime, args.height)
    _emit(args, _rat_text(value), {
        "space": args.space,
        "prime": args.prime,
        "height": args.height,
        "cardinality": _rat_json(value),
    })
    return 0


def _cmd_loop(args) -> int:
    require_int(args.iterations, "iteration count", 0)
    from .parser import parse_space, space_text
    from .spaces import normal_form, p_adic_loop
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


def _emit_profile(args, prof, payload: dict, classify: bool) -> int:
    """Print a height profile one layer a line, with each layer's class if
    ``classify``; the payload gains its ``values`` (and ``classes``)."""
    from .heights import classify_layer
    classes = [classify_layer(prof, n).value for n in range(len(prof))] if classify else []
    plain = "\n".join(f"{n}: {_rat_text(v)}" + (f" ({classes[n]})" if classify else "")
                      for n, v in enumerate(prof.values))
    payload["values"] = [_rat_json(v) for v in prof.values]
    if classify:
        payload["classes"] = classes
    _emit(args, plain, payload)
    return 0


def _cmd_profile(args) -> int:
    # serves ``profile`` and ``classify``, which adds each layer's class
    from .heights import height_profile
    from .parser import parse_space
    prof = height_profile(parse_space(args.space), args.prime, args.range)
    return _emit_profile(args, prof, {"space": args.space, "prime": args.prime},
                         args.command == "classify")


def _cmd_delta(args) -> int:
    from .heights import delta_iter
    try:
        value = Fraction(require_numeral(args.value, "the value"))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {args.value!r}") from exc
    require_digits(value.numerator, "the value")
    require_digits(value.denominator, "the value")
    out = delta_iter(value, args.prime, args.iterations)
    _emit(args, _rat_text(out), {
        "value": args.value,
        "prime": args.prime,
        "iterations": args.iterations,
        "result": _rat_json(out),
    })
    return 0


def _cmd_beta(args) -> int:
    from .heights import beta_element
    prof = beta_element(args.prime, args.k).profile(args.prime, args.range)
    return _emit_profile(args, prof, {"prime": args.prime, "k": args.k}, True)


def _cmd_wreath(args) -> int:
    from .groups import build_group
    from .heights import verify_wreath_identity
    from .parser import parse_group
    group = build_group(parse_group(args.group))
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


def _cmd_counterexample(args) -> int:
    from .quadforms import amenability_failure_report
    report = amenability_failure_report(args.prime)
    verdict = "multiplicativity holds" if report.multiplicative else "multiplicativity fails"
    _emit(args, f"lhs {_rat_text(report.lhs)}, rhs {_rat_text(report.rhs)}, {verdict}", {
        "prime": args.prime,
        "lhs": _rat_json(report.lhs),
        "rhs": _rat_json(report.rhs),
        "multiplicative": report.multiplicative,
    })
    return 0


def _cmd_table(args) -> int:
    require_int(args.kmax, "kmax", 0)
    require_int(args.nmax, "nmax", 0)
    require_values((args.kmax + 1) * (args.nmax + 1), "the table")
    from .spaces import em_space, height_cardinality
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


# -- the verification table ----------------------------------------------------------

def _looped_cardinality(x, p: int, n: int) -> Fraction:
    """The height-n cardinality by its definition: loop p-adically n times,
    then count.  ``height_cardinality`` answers atom by atom in closed form
    instead, so this is the independent route that ``verify`` checks it by."""
    from .spaces import homotopy_cardinality, p_adic_loop
    for _ in range(n):
        x = p_adic_loop(x, p)
    return homotopy_cardinality(x)


def _check_em_grid() -> tuple[bool, str]:
    from .spaces import em_space
    bad = 0
    for p in (2, 3, 5):
        for k in range(5):
            for n in range(6):
                got = _looped_cardinality(em_space([p], k), p, n)
                if got != Fraction(p) ** binom_ext(n - 1, k):
                    bad += 1
    return bad == 0, f"90 EM values via loop recursion, {bad} mismatches"


def _check_symmetric3() -> tuple[bool, str]:
    from .parser import parse_space
    from .spaces import height_cardinality
    bs3 = parse_space("B(S3)")
    value = height_cardinality(bs3, 2, 1)
    ok = value == Fraction(2, 3) == _looped_cardinality(bs3, 2, 1)
    return ok, f"|B(S3)| at p=2 height 1 is {value}"


def _check_coset_composition() -> tuple[bool, str]:
    from .parser import parse_space
    from .spaces import height_cardinality
    s3 = height_cardinality(parse_space("B(S3)"), 2, 1)
    lhs = 3 * s3
    rhs = height_cardinality(parse_space("B(C2)"), 2, 1)
    ok = lhs == 2 and rhs == 1 and lhs != rhs
    return ok, f"3 * {s3} = {lhs} differs from |B(C2)| = {rhs}"


def _check_fiber_formula() -> tuple[bool, str]:
    # the fiber's value follows from the forms counted: |F|_n = N(p, n) *
    # p^(C(n,3) - C(n,2)) (see quadforms), with N enumerated, not in closed form
    from .quadforms import (DEFAULT_BUDGET_PAIRS, amenability_failure_report,
                            count_null_square_two_forms, cup_square_fiber_cardinality)
    ok = True
    for p in (3, 5, 7):
        report = amenability_failure_report(p)
        ok &= report.lhs == p ** 3 + p - 1 and not report.multiplicative
    pairs = DEFAULT_BUDGET_PAIRS + tuple((p, n) for p in (3, 5) for n in (1, 2, 3))
    for p, n in pairs:
        forms = count_null_square_two_forms(p, n).kernel_count
        ok &= cup_square_fiber_cardinality(p, n) == \
            forms * Fraction(p) ** (binom_ext(n, 3) - binom_ext(n, 2))
    return ok, ("fiber value p^3 + p - 1 beats p^3 at p = 3, 5, 7; |F|_n = "
                f"N * p^(C(n,3) - C(n,2)) with N counted at {len(pairs)} (p, n)")


def _check_form_kernel() -> tuple[bool, str]:
    from .quadforms import (DEFAULT_BUDGET_PAIRS, count_null_square_two_forms,
                            decomposable_form_count)
    counts = {(p, n): count_null_square_two_forms(p, n).kernel_count
              for p, n in DEFAULT_BUDGET_PAIRS}
    ok = counts[3, 4] == 261
    ok &= all(c == decomposable_form_count(p, n) for (p, n), c in counts.items())
    for p in (3, 5):
        for n in (1, 2, 3):
            r = count_null_square_two_forms(p, n)
            ok &= r.kernel_count == r.total_forms
    return ok, (f"kernel count at (3, 4) is {counts[3, 4]}; all {len(counts)} "
                "default-budget (p, n) with n >= 4 match the closed form")


def _check_wreath_grid() -> tuple[bool, str]:
    from .groups import build_group
    from .heights import verify_wreath_identity
    from .parser import parse_group
    grid = [("C2", 2), ("C2 x C2", 2), ("S3", 2), ("C3", 3)]
    signs = set()
    ok = True
    d8_rhs = []
    for text, p in grid:
        group = build_group(parse_group(text))
        for n in (1, 2, 3):
            report = verify_wreath_identity(group, p, n)
            ok &= report.magnitudes_match
            if report.sign is not None:
                signs.add(report.sign)
            if text == "C2":
                d8_rhs.append(report.rhs)
    ok &= len(signs) == 1 and d8_rhs == [0, 1, 6]
    return ok, f"uniform sign {sorted(signs)}, D8 row rhs {[str(v) for v in d8_rhs]}"


def _check_splitting() -> tuple[bool, str]:
    from .heights import alpha_splitter, beta_element, classify_layer
    ok = True
    for p in (2, 3):
        for k in range(4):
            prof = beta_element(p, k).profile(p, 6)
            ok &= vp(prof[k], p) > 0 or prof[k] == 0
            ok &= all(vp(prof[n], p) == 0 for n in range(k + 1, 7))
            alpha = alpha_splitter(p, k, 6)
            ok &= all(classify_layer(alpha, n).value in ("complete", "zero")
                      for n in range(k + 1))
            ok &= all(classify_layer(alpha, n).value == "divisible"
                      for n in range(k + 1, 7))
    return ok, "beta and alpha layer classes for p = 2, 3 and k <= 3"


def _check_pk_relations() -> tuple[bool, str]:
    from .heights import pk_relation_check
    ok = all(pk_relation_check(p, n, 6) for p in (2, 3, 5) for n in range(4))
    return ok, "p_(k) = p_(n)^((-1)^(k-n)) for n <= 3, k <= 6"


_VERIFY_TABLE = [
    ("em-grid", _check_em_grid),
    ("symmetric-3", _check_symmetric3),
    ("coset-composition", _check_coset_composition),
    ("cup-square-fiber", _check_fiber_formula),
    ("null-form-kernel", _check_form_kernel),
    ("wreath-identity", _check_wreath_grid),
    ("splitting-elements", _check_splitting),
    ("height-relations", _check_pk_relations),
]


def _cmd_verify(args) -> int:
    failures = 0
    results = []
    for label, check in _VERIFY_TABLE:
        ok, detail = check()
        failures += not ok
        results.append({"check": label, "pass": ok, "detail": detail})
        if args.format != "json":
            print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if args.format == "json":
        import json
        print(json.dumps({"results": results, "failures": failures}))
    return 3 if failures else 0


# -- wiring ------------------------------------------------------------------------


def build_arg_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="pifinite",
                          description="exact cardinality calculator for pi-finite spaces")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=handler)
        cmd.add_argument("--format", choices=("plain", "json"), default="plain")
        return cmd

    cmd = add("card", _cmd_card, "height-n cardinality of a space")
    cmd.add_argument("--space", required=True)
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--height", type=int, required=True)

    cmd = add("loop", _cmd_loop, "p-adic free loop space, in normal form")
    cmd.add_argument("--space", required=True)
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--iterations", type=int, default=1)

    cmd = add("profile", _cmd_profile, "cardinality profile over heights 0..N")
    cmd.add_argument("--space", required=True)
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--range", type=int, required=True)

    cmd = add("delta", _cmd_delta, "iterated p-derivation of a rational")
    cmd.add_argument("value")
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--iterations", type=int, default=1)

    cmd = add("beta", _cmd_beta, "layer-k splitting element profile")
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--range", type=int, default=6)

    cmd = add("classify", _cmd_profile, "divisible/complete/zero per layer")
    cmd.add_argument("--space", required=True)
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--range", type=int, required=True)

    cmd = add("wreath", _cmd_wreath, "wreath-product identity report for a group")
    cmd.add_argument("group")
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--height", type=int, required=True)

    cmd = add("counterexample", _cmd_counterexample,
              "height-4 multiplicativity failure for the cup-square fiber")
    cmd.add_argument("--prime", type=int, required=True)

    add("verify", _cmd_verify, "re-check the reference number table")

    cmd = add("table", _cmd_table, "grid of EM-space cardinalities")
    cmd.add_argument("--prime", type=int, required=True)
    cmd.add_argument("--kmax", type=int, default=4)
    cmd.add_argument("--nmax", type=int, default=5)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "prime", None) is not None:
            require_prime(args.prime)   # refuse before any table is built
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
