"""Write ``tests/data/cli_corpus.jsonl``: one JSON row per argv, with the
exit code, stdout and stderr that ``pifinite.cli.main`` gives it on the
current tree.  ``tests/test_cli_corpus.py`` compares every row exactly.

Run from the checkout root, after a change that alters output on purpose:

    python tests/write_cli_corpus.py

The argvs are ``-h`` and each subcommand's ``-h``; the distinct argvs of the
benchmark's cli-session seeds 7 and 11, three rounds each, with its expected
refusals; lexical, syntax, nesting, digit and group refusals of ``card``,
``loop`` and ``wreath``; and a few more cases that end within a second.
Rows are run in-process, in order, with ``PIFINITE_ORDER_CAP`` unset.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CORPUS = os.path.join(ROOT, "tests", "data", "cli_corpus.jsonl")
SEEDS, ROUNDS = (7, 11), 3

# (space text, group text) refused at each stage of reading
REFUSED_TEXTS = (
    ("B(S3) $", "C2 $"),                            # lexical
    ("B(C٣)", "C٣"),
    ("B(S3) +", "C2 x"),                            # syntax
    ("B(S3))", "C2)"),
    ("(" * 400 + "pt" + ")" * 400, "(" * 400 + "C2" + ")" * 400),      # nesting
    ("B(C1" + " wr C2" * 1500 + ")", "C1" + " wr C2" * 1500),
    ("B(C" + "7" * 4301 + ")", "C" + "7" * 4301),   # digits
    ("B(S7)", "S7"),                                # groups
    ("B(Q8)", "Q8"),
    ("B(C5 wr C5)", "C5 wr C5"),
    ("B(C0)", "C0"),
)


# a large described group, a refusal at the order cap, loops that print
# centralizers' names (which pin the element indexing of S_m and wreath
# tables), loops at primes that do not divide the order (no table
# is built), every reference check, and table counts past the height where
# the p-part of the order stops the walk
MORE_CASES = (
    ["card", "--space", "B(D10000)", "--prime", "2", "--height", "2"],
    ["card", "--space", "B(S6 x S6 x S6)", "--prime", "3", "--height", "500"],
    ["loop", "--space", "B(S4)", "--prime", "2"],
    ["loop", "--space", "B(D10000)", "--prime", "3"],
    ["loop", "--space", "B(S6)", "--prime", "7"],
    ["loop", "--space", "B(S4 wr C2)", "--prime", "3"],
    ["loop", "--space", "B(D8 wr C2)", "--prime", "2"],
    ["loop", "--space", "B(S5)", "--prime", "2"],
    ["verify"],
    ["wreath", "S4", "--prime", "2", "--height", "30"],
    ["wreath", "C2 x C2", "--prime", "2", "--height", "12", "--format", "json"],
)


def help_argvs(commands) -> list[list[str]]:
    return [["-h"]] + [[command, "-h"] for command in commands]


def session_argvs() -> list[list[str]]:
    """The argvs of the cli-session workload for ``SEEDS``, in order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import CliSession

    session = CliSession()
    session.runner = lambda argv: argv      # an op's run() then returns its argv
    return [op.run() for seed in SEEDS for ops in session.setup(seed, ROUNDS) for op in ops]


def refusal_argvs() -> list[list[str]]:
    out = []
    for space, group in REFUSED_TEXTS:
        out += [["card", "--space", space, "--prime", "2", "--height", "1"],
                ["loop", "--space", space, "--prime", "2"],
                ["wreath", group, "--prime", "2", "--height", "1"]]
    return out


def answer(argv: list[str]) -> dict:
    from pifinite.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("PIFINITE_ORDER_CAP", None)
    from pifinite.cli import _COMMANDS

    argvs, seen = [], set()
    for argv in help_argvs(_COMMANDS) + session_argvs() + refusal_argvs() + list(MORE_CASES):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            argvs.append(argv)
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for argv in argvs:
            fh.write(json.dumps(answer(argv)) + "\n")
    print(f"{len(argvs)} rows written to {os.path.relpath(CORPUS)}")


if __name__ == "__main__":
    main()
