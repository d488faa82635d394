"""Command line surface.

Exit codes: 0 success, 1 input error, 2 resource-budget error, 3 when
``verify`` finds a mismatch.  All numeric output is exact: rationals print
as ``a/b`` in lowest terms (integers without the ``/1``), and the JSON
format carries numerator and denominator as decimal strings.  An answer
with more than ``MAX_DIGITS`` digits in either is refused with exit 2.

Arguments are read against one table, ``_COMMANDS``: exact long flags as
``--flag value`` or ``--flag=value``, each at most once; positionals, where
a word such as ``-3/4`` is a value, not a flag; ``--`` ends the options.
An integer is an optional ``-`` and ASCII digits, and ``delta``'s VALUE is
ASCII text.  Every usage error is an ``InputError``, raised before any
library module loads.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import InputError, ResourceBudgetError
from .rationals import (require_digits, require_int, require_numeral, require_prime,
                        require_values)

# Each handler imports the library modules it calls when it runs, and
# ``verify`` its checks: the CLI answers one query per process, and a module
# that answer does not use would only add its import (and, without bytecode
# caches, its compilation) to the start-up of every call.  For the same
# reason the arguments are read here rather than by argparse, whose import
# and parser set-up cost each call more than reading its answer's arguments.


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
    if not args.value.isascii():        # Fraction() also reads other scripts' digits
        raise InputError(f"not a rational: {args.value!r}")
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


def _cmd_verify(args) -> int:
    from .checks import _VERIFY_TABLE
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

# name -> (handler, help, options).  An option is (name, kind) when it is
# required and (name, kind, default) when it is not; a name without the
# leading "--" is a positional.  A kind is str, int, or the tuple of the
# values it takes.  Every subcommand also takes _FORMAT.
_SPACE, _PRIME = ("--space", str), ("--prime", int)
_FORMAT = ("--format", ("plain", "json"), "plain")
_COMMANDS = {
    "card": (_cmd_card, "height-n cardinality of a space",
             (_SPACE, _PRIME, ("--height", int))),
    "loop": (_cmd_loop, "p-adic free loop space, in normal form",
             (_SPACE, _PRIME, ("--iterations", int, 1))),
    "profile": (_cmd_profile, "cardinality profile over heights 0..N",
                (_SPACE, _PRIME, ("--range", int))),
    "delta": (_cmd_delta, "iterated p-derivation of a rational",
              (("value", str), _PRIME, ("--iterations", int, 1))),
    "beta": (_cmd_beta, "layer-k splitting element profile",
             (_PRIME, ("--k", int), ("--range", int, 6))),
    "classify": (_cmd_profile, "divisible/complete/zero per layer",
                 (_SPACE, _PRIME, ("--range", int))),
    "wreath": (_cmd_wreath, "wreath-product identity report for a group",
               (("group", str), _PRIME, ("--height", int))),
    "counterexample": (_cmd_counterexample,
                       "height-4 multiplicativity failure for the cup-square fiber", (_PRIME,)),
    "verify": (_cmd_verify, "re-check the reference number table", ()),
    "table": (_cmd_table, "grid of EM-space cardinalities",
              (_PRIME, ("--kmax", int, 4), ("--nmax", int, 5))),
}


def _usage(names) -> str:
    lines = ["usage: pifinite COMMAND [options]",
             "exact cardinality calculator for pi-finite spaces", ""]
    for name in names:
        _, help_text, options = _COMMANDS[name]
        words = [name]
        for option, kind, *default in options + (_FORMAT,):
            meta = "|".join(kind) if isinstance(kind, tuple) else option.strip("-").upper()
            word = f"{option} {meta}" if option.startswith("--") else meta
            words.append(f"[{word}]" if default else word)
        lines += ["  " + " ".join(words), "      " + help_text]
    return "\n".join(lines)


def _integer(text: str, option: str) -> int:
    """The integer ``text`` writes as an optional "-" and ASCII digits, held
    to the digit budget before int() reads it; int() alone also takes
    "1_0", "+2", " 2" and other scripts' digits."""
    require_numeral(text, option)
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise InputError(f"{option} must be an integer, got {text!r}")
    return int(text)


def _parse(argv: list[str]):
    """(handler, arguments) read from ``argv``, or None once ``-h`` or
    ``--help`` has printed the usage."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_usage(_COMMANDS))
        return None
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise InputError(f"expected a subcommand, one of {', '.join(_COMMANDS)}{got}")
    command, words = argv[0], argv[1:]
    handler, _, options = _COMMANDS[command]
    options += (_FORMAT,)
    given, loose, i = {}, [], 0
    while i < len(words):
        word, i = words[i], i + 1
        if word == "--":
            loose += words[i:]
            break
        if word in ("-h", "--help"):
            print(_usage([command]))
            return None
        if not word.startswith("--"):
            loose.append(word)
            continue
        flag, has_value, text = word.partition("=")
        if all(flag != option[0] for option in options):
            raise InputError(f"{command} takes no option {flag}")
        if flag in given:
            raise InputError(f"{flag} is given twice")
        if not has_value:
            if i == len(words):
                raise InputError(f"{flag} needs a value")
            text, i = words[i], i + 1
        given[flag] = text
    slots = [option[0] for option in options if not option[0].startswith("--")]
    if len(loose) > len(slots):
        raise InputError(f"{command} takes no argument {loose[len(slots)]!r}")
    given.update(zip(slots, loose))
    args = SimpleNamespace(command=command)
    for option, kind, *default in options:
        if option in given:
            text = given[option]
            if isinstance(kind, tuple) and text not in kind:
                raise InputError(f"{option} must be one of {', '.join(kind)}, got {text!r}")
            value = _integer(text, option) if kind is int else text
        elif default:
            value = default[0]
        else:
            raise InputError(f"{command} needs {option if option not in slots else option.upper()}")
        setattr(args, option.strip("-"), value)
    return handler, args


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return 0
        handler, args = parsed
        if getattr(args, "prime", None) is not None:
            require_prime(args.prime)   # refuse before any table is built
        code = handler(args)
        sys.stdout.flush()      # so that a closed stdout raises here
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the flush at
        # exit from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
