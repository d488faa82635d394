"""The CLI's subcommand handlers, one module each, and the printing
helpers they share.  ``profile`` and ``classify`` share ``profile``, whose
profile printer ``beta`` imports too.

``pifinite.cli`` reads the arguments and imports the one module its
subcommand names, whose ``handle(args)`` prints the answer and returns the
exit code.  A process thus compiles only its own handler: without bytecode
caches every module a process imports is compiled from source each time.
No module here imports ``pifinite.cli``, which ``python -m`` runs as
``__main__``: importing it would compile it a second time.  A JSON answer
is written by ``jsontext``, which only ``--format json`` loads, in place of
``json``.
"""

from __future__ import annotations

from fractions import Fraction

from ..rationals import require_digits


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
        from .jsontext import dumps
        print(dumps(payload))
    else:
        print(plain)
