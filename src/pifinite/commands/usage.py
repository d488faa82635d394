"""The text ``-h`` and ``--help`` print, built from the CLI's subcommand
table, which ``pifinite.cli`` passes in."""

from __future__ import annotations


def usage(commands: dict, names, format_option: tuple) -> str:
    """Each of ``names`` with its options, ``format_option`` last, and its
    help line; ``commands`` maps a name to (handler module, help, options)."""
    lines = ["usage: pifinite COMMAND [options]",
             "exact cardinality calculator for pi-finite spaces", ""]
    for name in names:
        _, help_text, options = commands[name]
        words = [name]
        for option, kind, *default in options + (format_option,):
            meta = "|".join(kind) if isinstance(kind, tuple) else option.strip("-").upper()
            word = f"{option} {meta}" if option.startswith("--") else meta
            words.append(f"[{word}]" if default else word)
        lines += ["  " + " ".join(words), "      " + help_text]
    return "\n".join(lines)
