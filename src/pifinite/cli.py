"""Command line surface.

Exit codes: 0 success, 1 input error, 2 resource-budget error, 3 when a
check fails: ``verify`` finds a mismatch or one of its checks raises, or
any subcommand meets an ``InvariantError``, which is printed as
``invariant error: <message>`` without a traceback.  All numeric output is
exact: rationals print as ``a/b`` in lowest terms (integers without the
``/1``), and the JSON format carries numerator and denominator as decimal
strings.  An answer with more than ``MAX_DIGITS`` digits in either is
refused with exit 2.

Arguments are read against one table, ``_COMMANDS``: exact long flags as
``--flag value`` or ``--flag=value``, each at most once; positionals, where
a word such as ``-3/4`` is a value, not a flag; ``--`` ends the options.
An integer is an optional ``-`` and ASCII digits, and ``delta``'s VALUE is
ASCII text.  Every usage error is an ``InputError``, raised before any
library module loads.
"""

from __future__ import annotations

import atexit
import importlib
import os
import sys
from types import SimpleNamespace

from .errors import InputError, InvariantError, ResourceBudgetError
from .rationals import require_numeral, require_prime

# Each subcommand's handler is its own module in ``pifinite.commands``
# (``profile`` and ``classify`` share one), imported once the arguments are
# read, and each handler imports the library modules it calls when it runs:
# the CLI answers one query per process, and a module, or a function, that
# answer does not use would only add its import and, without bytecode
# caches, its compilation to the start-up of every call.  The library is cut
# the same way: ``spaces.normal_form`` imports the normal-form algebra from
# ``normalforms``, and a height count of a described group imports
# ``homcounts.hom_count``, each when first run.  ``-h`` builds its text in
# ``commands.usage``.  No module imports this one, which ``python -m`` runs
# as ``__main__``, so it is compiled once.  For the same reason the
# arguments are read here rather than by argparse, whose import and parser
# set-up cost each call more than reading its answer's arguments.
#
# For the same reason a process ends in ``run`` without the interpreter's
# teardown, whose final collections walk every object the operating system
# is about to reclaim.  On a 2-vCPU machine with Python 3.11 that took 15 ms
# after ``card`` or ``verify`` printed its answer: 3.4 ms for a bare
# interpreter, 5 ms more for the objects a site start-up hook left alive,
# and the rest for the modules the query loaded.  The hard exit takes 1.4 ms.
# ``run`` flushes the answer and runs the registered exit handlers first;
# what it skips is module teardown, the ``__del__`` of objects still alive
# and the final collection, and the CLI holds no resource but its streams.


# -- wiring ------------------------------------------------------------------------

# name -> (handler module in ``pifinite.commands``, help, options).  An
# option is (name, kind) when it is required and (name, kind, default) when
# it is not; a name without the leading "--" is a positional.  A kind is
# str, int, or the tuple of the values it takes.  Every subcommand also
# takes _FORMAT.
_SPACE, _PRIME = ("--space", str), ("--prime", int)
_FORMAT = ("--format", ("plain", "json"), "plain")
_COMMANDS = {
    "card": ("card", "height-n cardinality of a space",
             (_SPACE, _PRIME, ("--height", int))),
    "loop": ("loop", "p-adic free loop space, in normal form",
             (_SPACE, _PRIME, ("--iterations", int, 1))),
    "profile": ("profile", "cardinality profile over heights 0..N",
                (_SPACE, _PRIME, ("--range", int))),
    "delta": ("delta", "iterated p-derivation of a rational",
              (("value", str), _PRIME, ("--iterations", int, 1))),
    "beta": ("beta", "layer-k splitting element profile",
             (_PRIME, ("--k", int), ("--range", int, 6))),
    "classify": ("profile", "divisible/complete/zero per layer",
                 (_SPACE, _PRIME, ("--range", int))),
    "wreath": ("wreath", "wreath-product identity report for a group",
               (("group", str), _PRIME, ("--height", int))),
    "counterexample": ("counterexample",
                       "height-4 multiplicativity failure for the cup-square fiber", (_PRIME,)),
    "verify": ("verify", "re-check the reference number table", ()),
    "table": ("table", "grid of EM-space cardinalities",
              (_PRIME, ("--kmax", int, 4), ("--nmax", int, 5))),
}


def _integer(text: str, option: str) -> int:
    """The integer ``text`` writes as an optional "-" and ASCII digits, held
    to the digit budget before int() reads it; int() alone also takes
    "1_0", "+2", " 2" and other scripts' digits."""
    require_numeral(text, option)
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise InputError(f"{option} must be an integer, got {text!r}")
    return int(text)


def _print_usage(names) -> None:
    from .commands.usage import usage
    print(usage(_COMMANDS, names, _FORMAT))


def _parse(argv: list[str]):
    """(handler module name, arguments) read from ``argv``, or None once
    ``-h`` or ``--help`` has printed the usage."""
    if argv[:1] in (["-h"], ["--help"]):
        _print_usage(_COMMANDS)
        return None
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise InputError(f"expected a subcommand, one of {', '.join(_COMMANDS)}{got}")
    command, words = argv[0], argv[1:]
    module, _, options = _COMMANDS[command]
    options += (_FORMAT,)
    given, loose, i = {}, [], 0
    while i < len(words):
        word, i = words[i], i + 1
        if word == "--":
            loose += words[i:]
            break
        if word in ("-h", "--help"):
            _print_usage([command])
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
    return module, args


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return 0
        module, args = parsed
        if getattr(args, "prime", None) is not None:
            require_prime(args.prime)   # refuse before any table is built
        code = importlib.import_module(f"pifinite.commands.{module}").handle(args)
        sys.stdout.flush()      # so that a closed stdout raises here
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout; pointing it at devnull keeps the flush at
        # exit from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:     # the reader closed the pipe; main points a closed stdout at devnull
            pass


def run():
    """The ``pifinite`` command: ``main`` on ``sys.argv``, then the end of
    the process with its exit code, after flushing stdout and stderr and
    running the exit handlers registered with ``atexit``, but without the
    interpreter's teardown.  In-process callers use ``main``, which returns
    the code."""
    code = main()
    _flush_std_streams()
    atexit._run_exitfuncs()
    _flush_std_streams()    # what an exit handler printed
    os._exit(code)


if __name__ == "__main__":
    run()
