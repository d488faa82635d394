"""The four workloads, each generated from a seed.

A workload is a sequence of rounds.  Every round has the same composition
(the same groups, kinds and cost tiers); the seed picks the concrete inputs
inside each tier, the relabellings and the order, so seeds measure the same
amount of work.  ``NOMINAL_ROUND_S`` is the time of one round on the
reference machine (2 vCPU Xeon, Python 3.11, numpy 2.4), from which the
worker derives how many rounds fill ``--seconds``; ``MIN_ROUNDS`` keeps at
least 100 ops in a run, so that ten lie beyond p90.

An op is ``Op(kind, run, digest, expect)``: ``run()`` is the timed call,
``digest(result)`` reduces its answer to a comparable value right after the
op, and ``expect()`` gives the reference from ``oracle`` in the check phase.
The library sees only the generated text, descriptors and tables.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import oracle

Op = namedtuple("Op", "kind run digest expect")

CLI_TIMEOUT_S = 60


def _lib():
    # Imported on first use, so that the cli-session worker never loads the library.
    import pifinite.groups
    import pifinite.heights
    import pifinite.parser
    import pifinite.quadforms
    import pifinite.spaces
    return pifinite


def nf_value(nf) -> Fraction:
    """Height-0 cardinality of a normal form, from its components."""
    total = Fraction(0)
    for atoms, mult in nf.components:
        value = Fraction(mult)
        for atom in atoms:
            if hasattr(atom, "group"):
                value /= atom.group.order
            else:
                value *= Fraction(math.prod(atom.factors)) ** (-1 if atom.degree % 2 else 1)
        total += value
    return total


# -- parse-build ------------------------------------------------------------------------
# Every op parses text and builds its tables again, as a CLI call does.

# Every tier has fixed counts per round and cycles through one fixed pattern of
# (kind, p, n); the seed picks the concrete light groups, the context atoms and
# the order, never the mix, so each quantile falls in the same tier for every
# seed.  p50 is read inside the light tier; p90 inside the mid tier, whose
# groups cost about the same (20-40 ms) and which is wide enough that the heavy
# and upper ops above it cannot push p90 out of it.
HEAVY = (  # (group, kind, p, n); each appears once per round
    (("D", 600), "card", 5, 1),
    (("S", 6), "card", 5, 1),
    (("wr", ("S", 4), 2), "loop", 3, 1),
)
UPPER = (("D", 240), ("wr", ("D", 12), 2))
MID = (("S", 5), ("D", 120), ("wr", ("C", 2), 5), ("wr", ("D", 8), 2),
       ("wr", ("wr", ("C", 2), 2), 2))


def _cheap_atom(rng: random.Random):
    """An atom that builds no group table: an EM space or a finite set."""
    if rng.random() < 0.8:
        factors = tuple(rng.choice((2, 3, 4, 5, 6, 9)) for _ in range(rng.randrange(1, 3)))
        return ("EM", factors, rng.randrange(1, 5))
    return ("set", rng.randrange(1, 5))


PRODUCT_FACTORS = (("C", 2), ("C", 3), ("C", 4), ("C", 5), ("S", 3), ("D", 8), ("D", 10))
LIGHT = {  # stratum -> (ops per round, atom maker), cheapest first
    "em": (60, _cheap_atom),
    "cyclic": (50, lambda rng: ("B", ("C", rng.randrange(2, 41)))),
    "small": (40, lambda rng: ("B", rng.choice((("S", 3), ("S", 4), ("wr", ("C", 2), 2),
                                               ("wr", ("C", 3), 2))))),
    "dihedral": (50, lambda rng: ("B", ("D", 2 * rng.randrange(2, 21)))),
    "product": (50, lambda rng: ("B", ("x", rng.choice(PRODUCT_FACTORS),
                                       rng.choice(PRODUCT_FACTORS)))),
}
UPPER_COUNT, MID_COUNT = 5, 9        # mid: per group
KIND_PATTERN = (("card", 2, 1), ("card", 2, 2), ("loop", 2, 1), ("card", 3, 1),
                ("card", 3, 2), ("loop", 3, 1), ("card", 5, 1), ("card", 5, 2), ("loop", 5, 1))


def _with_context(rng: random.Random, atom):
    """Wrap an atom in a small union/product of cheap atoms."""
    roll = rng.random()
    if roll < 0.3:
        return atom
    if roll < 0.65:
        return ("*", atom, _cheap_atom(rng))
    if roll < 0.85:
        return ("+", atom, _cheap_atom(rng))
    return ("+", ("*", atom, _cheap_atom(rng)), _cheap_atom(rng))


def _parse_op(expr, kind: str, p: int, n: int) -> Op:
    lib = _lib()
    text = oracle.space_text(expr)
    spaces, parser = lib.spaces, lib.parser
    if kind == "card":
        return Op("card", lambda: spaces.height_cardinality(parser.parse_space(text), p, n),
                  lambda r: r, lambda: oracle.space_value(expr, p, n))
    return Op("loop", lambda: spaces.normal_form(spaces.p_adic_loop(parser.parse_space(text), p)),
              nf_value, lambda: oracle.space_value(expr, p, 1))


class ParseBuild:
    NOMINAL_ROUND_S, MIN_ROUNDS = 15.0, 1

    def setup(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(seed)
        return [self._round(rng) for _ in range(rounds)]

    @staticmethod
    def _round(rng: random.Random) -> list[Op]:
        ops = []
        tiers = [(UPPER_COUNT, lambda rng: ("B", rng.choice(UPPER)))]
        tiers += [(MID_COUNT, lambda rng, g=g: ("B", g)) for g in MID]
        for count, make in tiers + list(LIGHT.values()):
            for i in range(count):
                ops.append(_parse_op(_with_context(rng, make(rng)),
                                     *KIND_PATTERN[i % len(KIND_PATTERN)]))
        rng.shuffle(ops)
        # Heavy ops sit at fixed places, so the tables alive at the peak, and
        # with them peak_rss_mb, do not depend on the seed.
        for i, (g, kind, p, n) in enumerate(HEAVY):
            ops.insert((i + 1) * len(ops) // (len(HEAVY) + 1),
                       _parse_op(_with_context(rng, ("B", g)), kind, p, n))
        return ops


# -- deep-heights -----------------------------------------------------------------------
# Groups are built once in set-up.  Each session then takes a freshly relabelled
# copy: a copy with the same table would answer every query from the height and
# tuple caches after the first round, and the workload would stop measuring the
# centralizer and recursion work it exists for.  The relabelling keeps the
# identity at 0, so small centralizers get the same induced tables whatever the
# labels; with the identity moved too, how often the height cache hits, and so
# the work done, changed by a third from seed to seed.

# (descriptor, primes, top height, loop iterations, sessions per round).  The
# first height query of a session does most of its work; three sessions of
# C2 wr C2 wr C2 per round put p90 inside a block of such queries of one cost,
# rather than at the edge between two groups, where labels moved it by half.
DEEP_GROUPS = (
    (("x", ("D", 16), ("D", 8)), (2,), 4, 1, 1),
    (("wr", ("wr", ("C", 2), 2), 2), (2,), 5, 2, 3),
    (("x", ("S", 4), ("S", 4)), (2, 3), 4, 1, 1),
    (("x", ("wr", ("C", 3), 3), ("S", 3)), (2, 3), 3, 1, 1),
    (("x", ("D", 32), ("C", 4)), (2,), 5, 1, 1),
)


def relabel(table, perm):
    """The table of the same group with element i renamed perm[i]."""
    import numpy as np
    inverse = np.argsort(perm)
    return perm[table[np.ix_(inverse, inverse)]]


class DeepHeights:
    NOMINAL_ROUND_S, MIN_ROUNDS = 5.0, 2

    def setup(self, seed: int, rounds: int) -> list[list[Op]]:
        import numpy as np
        lib = _lib()
        rng, np_rng = random.Random(seed), np.random.default_rng(seed)
        built = [lib.groups.build_group(lib.parser.parse_group(oracle.group_text(d)))
                 for d, *_ in DEEP_GROUPS]
        out = []
        for _ in range(rounds):
            sessions = [(spec, base) for spec, base in zip(DEEP_GROUPS, built)
                        for _ in range(spec[4])]
            rng.shuffle(sessions)
            ops: list[Op] = []
            for (desc, primes, top, loops, _), base in sessions:
                perm = np.concatenate(([0], 1 + np_rng.permutation(base.order - 1)))
                table = relabel(base.table, perm)
                group = lib.groups.FiniteGroup(table, name=base.name, validate=False)
                ops.extend(self._session(lib, rng, desc, group, primes, top, loops))
            out.append(ops)
        return out

    @staticmethod
    def _session(lib, rng, desc, group, primes, top, loops) -> list[Op]:
        spaces, heights, groups = lib.spaces, lib.heights, lib.groups
        space = spaces.classifying(group)
        ops = []
        for p in primes:
            for n in range(2, top + 1):
                ops.append(Op("card", lambda p=p, n=n: spaces.height_cardinality(space, p, n),
                              lambda r: r, lambda p=p, n=n: oracle.bg_value(desc, p, n)))
            ops.append(Op("profile", lambda p=p: heights.height_profile(space, p, top),
                          lambda r: tuple(r.values),
                          lambda p=p: tuple(oracle.bg_value(desc, p, n) for n in range(top + 1))))
            n = rng.randrange(2, top + 1)
            ops.append(Op("tuples", lambda p=p, n=n: groups.count_commuting_p_tuples(group, p, n),
                          lambda r: r, lambda p=p, n=n: oracle.hom_count(desc, p, n)))

            def loop(p=p):
                x = space
                for _ in range(loops):
                    x = spaces.p_adic_loop(x, p)
                return spaces.normal_form(x)
            ops.append(Op("loop", loop, nf_value, lambda p=p: oracle.bg_value(desc, p, loops)))
        p, k = rng.choice((2, 3, 5)), rng.randrange(4)
        ops.append(Op("beta", lambda: heights.beta_element(p, k).profile(p, 6),
                      lambda r: tuple(r.values), lambda: tuple(oracle.beta_values(p, k, 6))))
        p, k = rng.choice((2, 3, 5)), rng.randrange(4)
        ops.append(Op("alpha", lambda: heights.alpha_splitter(p, k, 6),
                      lambda r: tuple(r.values), lambda: tuple(oracle.alpha_values(p, k, 6))))
        return ops


# -- form-kernels -----------------------------------------------------------------------

FORM_ROUND = {(3, 4): 12, (5, 4): 8, (3, 5): 6, (7, 4): 4, (11, 4): 2, (13, 4): 1, (5, 5): 1}


class FormKernels:
    NOMINAL_ROUND_S, MIN_ROUNDS = 4.7, 3
    CALIBRATION = "array"       # the ops are numpy array kernels

    def setup(self, seed: int, rounds: int) -> list[list[Op]]:
        quadforms = _lib().quadforms
        rng = random.Random(seed)
        out = []
        for _ in range(rounds):
            ops = [Op(f"forms-{p}-{n}",
                      lambda p=p, n=n: quadforms.count_null_square_two_forms(p, n),
                      lambda r: (r.kernel_count, r.total_forms),
                      lambda p=p, n=n: oracle.null_square_kernel(p, n))
                   for (p, n), count in FORM_ROUND.items() for _ in range(count)]
            rng.shuffle(ops)
            out.append(ops)
        return out


# -- cli-session ------------------------------------------------------------------------
# One op is one `python -m pifinite.cli` process run to exit.

CARD_SPACES = (("B", ("S", 3)), ("B", ("S", 4)), ("B", ("D", 8)), ("B", ("C", 6)),
               ("EM", (3,), 2), ("B", ("wr", ("C", 2), 2)),
               ("*", ("B", ("S", 3)), ("EM", (2,), 1)), ("+", ("B", ("D", 12)), ("set", 2)))
# spaces whose loop prints only parseable names (centralizers abelian or whole)
LOOP_SPACES = ((("B", ("S", 3)), (2, 3)), (("B", ("S", 4)), (3,)), (("B", ("D", 10)), (2, 5)),
               (("B", ("D", 12)), (3,)), (("EM", (4, 3), 2), (2, 3)),
               (("+", ("*", ("B", ("S", 3)), ("EM", (2,), 2)), ("set", 3)), (2, 3)))
WREATH_GROUPS = (("C", 2), ("C", 3), ("S", 3), ("x", ("C", 2), ("C", 2)))
REFUSALS = ((["card", "--space", "B(S7)", "--prime", "2", "--height", "1"], 1),
            (["card", "--space", "B(C5 wr C5)", "--prime", "5", "--height", "1"], 2),
            (["card", "--space", "B(S3) +", "--prime", "2", "--height", "1"], 1),
            (["loop", "--space", "B(Q8)", "--prime", "2"], 1),
            (["profile", "--space", "B(S3)", "--prime", "4", "--range", "2"], 1))


def _rat(x) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _group_text_order(text: str) -> int:
    order = 1
    for factor in text.split(" x "):
        parts = factor.split(" wr C")
        value = {"C": int, "D": int, "S": lambda k: math.factorial(int(k))}[parts[0][0]](parts[0][1:])
        for c in parts[1:]:
            value = value ** int(c) * int(c)
        order *= value
    return order


def printed_value(text: str) -> Fraction:
    """Height-0 cardinality of a printed normal form such as
    ``B(S3) + 2 * B^1(C2) * B^2(C3)``."""
    total = Fraction(0)
    for term in text.split(" + "):
        value = Fraction(1)
        for factor in term.split(" * "):
            em = re.fullmatch(r"B\^(\d+)\((.*)\)", factor)
            if em:
                order = math.prod(int(c[1:]) for c in em.group(2).split(" x "))
                value *= Fraction(order) ** (-1 if int(em.group(1)) % 2 else 1)
            elif factor.startswith("B("):
                value /= _group_text_order(factor[2:-1])
            else:
                value *= 1 if factor == "pt" else int(factor)
        total += value
    return total


def _classes(values, p):
    return [oracle.layer_class(v, n, p) for n, v in enumerate(values)]


def _layers(values, classes=None) -> str:
    if classes is None:
        return "\n".join(f"{n}: {v}" for n, v in enumerate(values))
    return "\n".join(f"{n}: {v} ({c})" for n, (v, c) in enumerate(zip(values, classes)))


def _wreath_sides(d, p, n):
    """delta(|BG|_n) against |B(G wr C_p)|_n - |B(C_p x G)|_n, and the sign
    relating them (n >= 1)."""
    lhs = oracle.delta(oracle.bg_value(d, p, n), p)
    rhs = oracle.bg_value(("wr", d, p), p, n) - oracle.bg_value(("x", ("C", p), d), p, n)
    sign = None if lhs == rhs == 0 else 1 if lhs == rhs else -1
    return lhs, rhs, sign


def _cli_case(rng: random.Random, command: str, fmt: str):
    """(argv, expected answer) for one subcommand.  The expected answer is the
    whole JSON payload, or the exact plain text, except for ``loop`` whose
    printed space is compared by value."""
    json_out = fmt == "json"
    if command in ("card", "profile", "classify"):
        expr = rng.choice(CARD_SPACES)
        text, p = oracle.space_text(expr), rng.choice((2, 3))
        if command == "card":
            n = rng.randrange(0, 4)
            value = oracle.space_value(expr, p, n)
            return (["card", "--space", text, "--prime", str(p), "--height", str(n)],
                    {"space": text, "prime": p, "height": n, "cardinality": _rat(value)}
                    if json_out else str(value))
        top = rng.randrange(1, 4)
        values = [oracle.space_value(expr, p, n) for n in range(top + 1)]
        if command == "classify" and any(v and oracle.vp(v, p) < 0 for v in values[1:]):
            return _cli_case(rng, command, fmt)     # classify refuses non-p-integral layers
        argv = [command, "--space", text, "--prime", str(p), "--range", str(top)]
        if command == "profile":
            return argv, ({"space": text, "prime": p, "values": [_rat(v) for v in values]}
                          if json_out else _layers(values))
        classes = _classes(values, p)
        return argv, ({"space": text, "prime": p, "values": [_rat(v) for v in values],
                       "classes": classes} if json_out else _layers(values, classes))
    if command == "loop":
        expr, primes = rng.choice(LOOP_SPACES)
        text, p = oracle.space_text(expr), rng.choice(primes)
        value = oracle.space_value(expr, p, 1)
        return (["loop", "--space", text, "--prime", str(p)],
                {"space": text, "prime": p, "iterations": 1, "loop": value}
                if json_out else value)
    if command == "beta":
        p, k = rng.choice((2, 3, 5)), rng.randrange(4)
        values = oracle.beta_values(p, k, 6)
        classes = _classes(values, p)
        return (["beta", "--prime", str(p), "--k", str(k)],
                {"prime": p, "k": k, "values": [_rat(v) for v in values], "classes": classes}
                if json_out else _layers(values, classes))
    if command == "delta":
        a, p, k = rng.randrange(-20, 50), rng.choice((2, 3, 5)), rng.randrange(1, 4)
        value = oracle.delta_iter(a, p, k)
        return (["delta", str(a), "--prime", str(p), "--iterations", str(k)],
                {"value": str(a), "prime": p, "iterations": k, "result": _rat(value)}
                if json_out else str(value))
    if command == "wreath":
        d = rng.choice(WREATH_GROUPS)
        p = rng.choice([q for q in (2, 3) if q in (2, oracle.group_order(d))])
        n = rng.randrange(1, 3)
        lhs, rhs, sign = _wreath_sides(d, p, n)
        text = oracle.group_text(d)
        shown = "either" if sign is None else sign
        return (["wreath", text, "--prime", str(p), "--height", str(n)],
                {"group": text, "prime": p, "height": n, "lhs": _rat(lhs), "rhs": _rat(rhs),
                 "sign": sign, "magnitudes_match": True}
                if json_out else f"lhs {lhs}, rhs {rhs}, sign {shown}")
    if command == "counterexample":
        p = rng.choice((3, 5, 7))
        lhs, rhs = p ** 3 + p - 1, p ** 3
        return (["counterexample", "--prime", str(p)],
                {"prime": p, "lhs": _rat(lhs), "rhs": _rat(rhs), "multiplicative": False}
                if json_out else f"lhs {lhs}, rhs {rhs}, multiplicativity fails")
    if command == "table":
        p, kmax, nmax = rng.choice((2, 3, 5)), rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[oracle.em_value((p,), k, p, n) for k in range(kmax + 1)] for n in range(nmax + 1)]
        return (["table", "--prime", str(p), "--kmax", str(kmax), "--nmax", str(nmax)],
                {"prime": p, "kmax": kmax, "nmax": nmax,
                 "values": [[_rat(v) for v in row] for row in rows]}
                if json_out else rows)
    return ["verify"], {"failures": 0, "all_pass": True} if json_out else "all PASS"


def _cli_digest(command: str, json_out: bool, out: str):
    """Reduce CLI output to the form ``_cli_case`` predicts."""
    if json_out:
        payload = json.loads(out)
        if command == "loop":
            payload["loop"] = printed_value(payload["loop"])
        if command == "verify":
            return {"failures": payload["failures"],
                    "all_pass": bool(payload["results"]) and all(r["pass"] for r in payload["results"])}
        return payload
    text = out.strip()
    if command == "loop":
        return printed_value(text)
    if command == "table":
        return [[Fraction(v) for v in line.split()[1:]] for line in text.splitlines()[1:]]
    if command == "verify":
        lines = text.splitlines()
        return "all PASS" if lines and all(line.startswith("PASS") for line in lines) else text
    return text


CLI_ROUND = {"card": 6, "loop": 5, "profile": 4, "classify": 3, "beta": 2, "delta": 3,
             "wreath": 3, "counterexample": 1, "table": 2, "verify": 1}


class CliSession:
    NOMINAL_ROUND_S, MIN_ROUNDS = 11.0, 3

    def __init__(self):
        self.runner = None      # set by the worker: argv -> (code, stdout, stderr)

    def setup(self, seed: int, rounds: int) -> list[list[Op]]:
        rng = random.Random(seed)
        out = []
        for _ in range(rounds):
            ops = []
            for command, count in CLI_ROUND.items():
                for _ in range(count):
                    fmt = rng.choice(("json", "plain"))
                    argv, expected = _cli_case(rng, command, fmt)
                    ops.append(self._op(command, argv + ["--format", fmt], fmt == "json",
                                        expected))
            for argv, code in REFUSALS:
                ops.append(self._op("refusal", argv, None, ("refused", code)))
            rng.shuffle(ops)
            out.append(ops)
        return out

    def _op(self, command, argv, json_out, expected) -> Op:
        def digest(result):
            code, out, err = result
            if "Traceback" in err:
                return ("traceback", err.strip().splitlines()[-1])
            if command == "refusal":
                prefix = "error:" if code == 1 else "resource error:"
                return ("refused", code) if err.startswith(prefix) and not out else (code, out, err)
            if code != 0:
                return (code, err.strip())
            return _cli_digest(command, json_out, out)
        return Op(command, lambda: self.runner(argv), digest, lambda: expected)


def run_cli(argv: list[str], prefix: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(prefix + argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


CLI_PREFIX = [sys.executable, "-m", "pifinite.cli"]

WORKLOADS = {
    "parse-build": ParseBuild,
    "deep-heights": DeepHeights,
    "cli-session": CliSession,
    "form-kernels": FormKernels,
}
