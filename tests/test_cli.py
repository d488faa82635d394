import ast
import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pifinite.encoded
import pifinite.parser
from pifinite.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_floats(pairs):
    d = dict(pairs)
    for v in d.values():
        assert not isinstance(v, float), f"float leaked into JSON: {v!r}"
    return d


class TestCard:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "card", "--space", "B(S3)", "--prime", "2", "--height", "1")
        assert code == 0 and out.strip() == "2/3"

    def test_integer_prints_without_denominator(self, capsys):
        code, out, _ = run(capsys, "card", "--space", "B^2(C3)", "--prime", "3", "--height", "0")
        assert code == 0 and out.strip() == "3"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "card", "--space", "B(S3)", "--prime", "2",
                           "--height", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out, object_pairs_hook=_no_floats)
        assert payload == {"space": "B(S3)", "prime": 2, "height": 1,
                           "cardinality": {"num": "2", "den": "3"}}
        assert int(payload["cardinality"]["num"]) == 2


def _one_class_short(count, bad):
    """``count``, a 2-form kernel count, short by one scaling class (p - 1
    forms) at the (p, n) pair ``bad``."""
    def miscount(p, n):
        report = count(p, n)
        return pifinite.FormCountReport(p, n, report.kernel_count - (p - 1) * ((p, n) == bad),
                                        report.total_forms)
    return miscount


def _one_pair_dropped(plan, bad):
    """``plan``, the held 2-form count plan, with one bit flipped at the
    (p, n) pair ``bad``: in the first packed column, a pair of nonzero
    representatives that passes every relation, so the count drops."""
    def tampered(p, n):
        held = plan(p, n)
        if (p, n) != bad:
            return held
        # every bit is a pair of nonzero representatives
        passing = functools.reduce(operator.and_, held.columns)
        return held._replace(columns=(held.columns[0] ^ passing & -passing,)
                             + held.columns[1:])
    return tampered


class TestSubcommands:
    def test_loop(self, capsys):
        code, out, _ = run(capsys, "loop", "--space", "B(S3)", "--prime", "2")
        assert code == 0 and out.strip() == "B(S3) + B^1(C2)"

    def test_profile(self, capsys):
        code, out, _ = run(capsys, "profile", "--space", "B(C2)", "--prime", "2", "--range", "3")
        assert code == 0
        assert out.splitlines() == ["0: 1/2", "1: 1", "2: 2", "3: 4"]

    def test_delta(self, capsys):
        code, out, _ = run(capsys, "delta", "6", "--prime", "3")
        assert code == 0 and out.strip() == "-70"
        code, out, _ = run(capsys, "delta", "4", "--prime", "2", "--iterations", "2")
        assert code == 0 and out.strip() == str((-6 - (-6) ** 2) // 2)

    def test_beta(self, capsys):
        code, out, _ = run(capsys, "beta", "--prime", "2", "--k", "0", "--range", "3")
        assert code == 0
        assert out.splitlines() == ["0: 0 (zero)", "1: 1 (divisible)",
                                    "2: 3 (divisible)", "3: 7 (divisible)"]

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--space", "B(C2)", "--prime", "2", "--range", "2")
        assert code == 0
        assert out.splitlines() == ["0: 1/2 (divisible)", "1: 1 (divisible)", "2: 2 (complete)"]

    def test_wreath(self, capsys):
        code, out, _ = run(capsys, "wreath", "C2", "--prime", "2", "--height", "2")
        assert code == 0 and out.strip() == "lhs -1, rhs 1, sign -1"

    def test_loop_of_a_table_beside_a_described_group_of_its_order(self, capsys):
        # C_{S4}(7) is a table of order 8 and D8 a described group: their
        # sort keys are tagged, so a name is never compared with rows
        code, out, err = run(capsys, "loop", "--space", "B(S4) + B(D8)", "--prime", "2")
        assert (code, err) == (0, "")
        assert sorted(out.strip().split(" + ")) == sorted(
            ["B(C_{S4}(7))", "2 * B(D8)", "B(S4)", "3 * B^1(C2 x C2)", "2 * B^1(C4)"])

    def test_loop_output_parses_back(self, capsys):
        for space, prime in (("B(C2 wr C2 wr C2)", "3"), ("B((C2 x C2) wr C2)", "3"),
                             ("B(S3 x (C2 x S3))", "5"), ("B(S4 x S4)", "3")):
            code, out, _ = run(capsys, "loop", "--space", space, "--prime", prime)
            assert code == 0 and "C_{" not in out
            # looping the printed text goes where a second loop goes
            again = run(capsys, "loop", "--space", out.strip(), "--prime", prime)
            assert again == run(capsys, "loop", "--space", space, "--prime", prime,
                                "--iterations", "2")
        code, out, _ = run(capsys, "loop", "--space", "B(C2 wr C2 wr C2)", "--prime", "3")
        assert out.strip() == "B((C2 wr C2) wr C2)"

    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--prime", "3")
        assert code == 0 and out.strip() == "lhs 29, rhs 27, multiplicativity fails"

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", "--prime", "3", "--kmax", "3", "--nmax", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        values = payload["values"]
        assert len(values) == 5 and len(values[0]) == 4
        assert values[4][2] == {"num": "27", "den": "1"}
        assert values[0][1] == {"num": "1", "den": "3"}

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    def test_verify_checks_run_under_optimize(self):
        # no check rests on an assert, so python -O runs every one of them
        proc = subprocess.run([sys.executable, "-O", "-m", "pifinite.cli", "verify",
                               "--format", "json"],
                              capture_output=True, text=True, env=_probe_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["failures"] == 0 and len(payload["results"]) == 8

    # one row a production route: (module, route, a wrong version of the
    # route, the labels that must fail); every other label must still pass
    WRONG_ROUTES = [
        pytest.param("spaces", "p_adic_loop", lambda loop: lambda x, p: x,
                     {"em-grid", "symmetric-3", "height-relations"},
                     id="spaces.p_adic_loop"),
        pytest.param("spaces", "homotopy_cardinality", lambda count: lambda x: count(x) + 1,
                     {"em-grid", "symmetric-3", "height-relations"},
                     id="spaces.homotopy_cardinality"),
        pytest.param("spaces", "height_cardinality",
                     lambda count: lambda x, p, n: count(x, p, n) + 1,
                     {"symmetric-3", "coset-composition", "splitting-elements"},
                     id="spaces.height_cardinality"),
        pytest.param("homcounts", "hom_count", lambda count: lambda d, p, n: count(d, p, n) + 1,
                     {"symmetric-3", "coset-composition"}, id="homcounts.hom_count"),
        # one tuple more leaves |B(H)|_n off p-integrality, so delta raises
        pytest.param("groups", "count_commuting_p_tuples",
                     lambda count: lambda h, p, n: count(h, p, n) + 1,
                     {"wreath-identity"}, id="groups.count_commuting_p_tuples"),
        pytest.param("quadforms", "count_null_square_two_forms",
                     lambda count: _one_class_short(count, (5, 5)),
                     {"cup-square-fiber", "null-form-kernel"},
                     id="null_square_forms-(5, 5)"),
        pytest.param("quadforms", "count_null_square_two_forms",
                     lambda count: _one_class_short(count, (3, 2)),
                     {"cup-square-fiber", "null-form-kernel"},
                     id="null_square_forms-(3, 2)"),
        pytest.param("quadforms", "_plan", lambda plan: _one_pair_dropped(plan, (5, 5)),
                     {"cup-square-fiber", "null-form-kernel"}, id="packed_plan-(5, 5)"),
        pytest.param("quadforms", "cup_square_fiber_cardinality",
                     lambda value: lambda p, n: value(p, n) + 1,
                     {"cup-square-fiber"}, id="quadforms.cup_square_fiber_cardinality"),
        pytest.param("heights", "delta_iter", lambda step: lambda a, p, k: step(a, p, k) + 1,
                     {"wreath-identity", "splitting-elements"}, id="heights.delta_iter"),
    ]

    @pytest.mark.parametrize("module, name, wrong, failing", WRONG_ROUTES)
    def test_wrong_route_fails_exactly_its_labels(self, capsys, monkeypatch,
                                                  module, name, wrong, failing):
        target = importlib.import_module(f"pifinite.{module}")
        monkeypatch.setattr(target, name, wrong(getattr(target, name)))
        code, out, _ = run(capsys, "verify", "--format", "json")
        results = json.loads(out)["results"]
        assert code == 3
        assert {r["check"] for r in results if not r["pass"]} == failing
        assert len(results) == 8

    def test_every_label_has_a_wrong_route(self):
        import pifinite.checks as checks
        guarded = set().union(*(row.values[3] for row in self.WRONG_ROUTES))
        assert guarded == {label for label, _ in checks._VERIFY_TABLE}

    def test_verify_exit_three_on_mismatch(self, capsys, monkeypatch):
        import pifinite.checks as checks

        def raising():
            raise RuntimeError("forced raise")

        table = checks._VERIFY_TABLE
        for check, last in ((lambda: (False, "forced failure"), "FAIL  forced: forced failure"),
                            (raising, "FAIL  forced: raised RuntimeError: forced raise")):
            monkeypatch.setattr(checks, "_VERIFY_TABLE", table + [("forced", check)])
            code, out, _ = run(capsys, "verify")
            assert code == 3
            assert len(out.splitlines()) == 9 and out.splitlines()[-1] == last
            code, out, _ = run(capsys, "verify", "--format", "json")
            payload = json.loads(out)
            assert code == 3
            assert len(payload["results"]) == 9 and payload["failures"] >= 1
            assert payload["results"][-1] == {"check": "forced", "pass": False,
                                              "detail": last.removeprefix("FAIL  forced: ")}


class TestLargeHeights:
    def test_card_at_height_2000(self, capsys):
        # |Hom(Z_2^n, S3)| = 3 * 2^n - 2, over |S3| = 6
        code, out, err = run(capsys, "card", "--space", "B(S3)", "--prime", "2",
                             "--height", "2000")
        assert (code, err) == (0, "")
        assert out.strip() == str(Fraction(2) ** 1999 - Fraction(1, 3))

    def test_profile_to_height_300(self, capsys):
        code, out, err = run(capsys, "profile", "--space", "B(S4) + B(D8)", "--prime", "2",
                             "--range", "300")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 301 and lines[1] == "1: 5/3"
        # fresh groups asked for height 300 alone agree with the profile's last line
        fresh = pifinite.parser.parse_space("B(S4) + B(D8)")
        assert lines[300] == f"300: {pifinite.spaces.height_cardinality(fresh, 2, 300)}"


# answers and inputs past the digit budget, which would run for minutes or end
# in a traceback if a budget were decided only after the work
def union_product_text(k: int) -> str:
    """(B(C2) + B(C3)) * (B(C5) + B(C7)) * ...: k two-atom unions over
    distinct primes, whose normal form has 2^k components."""
    primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))][:2 * k]
    return " * ".join(f"(B(C{a}) + B(C{b}))" for a, b in zip(primes[::2], primes[1::2]))


UNIONS_16 = union_product_text(16)

LARGE_ANSWERS = [
    ("card", "--space", "B^3(C2)", "--prime", "2", "--height", "50"),
    ("card", "--space", "B(S3)", "--prime", "2", "--height", "20000"),
    ("card", "--space", "B^20(C2)", "--prime", "2", "--height", "60"),
    ("table", "--prime", "2", "--kmax", "10", "--nmax", "40"),
    # C(1999, 500) is about 10^486: past any float, so compared as an int
    ("card", "--space", "B^500(C2)", "--prime", "2", "--height", "2000"),
    # a delta step is refused before it takes a^p
    ("delta", "10", "--prime", "100000007"),
    ("beta", "--prime", "10000019", "--k", "2", "--range", "2"),
    ("delta", "10", "--prime", "10000019"),
    # an order is bounded before it is multiplied out, and never printed past the budget
    ("card", "--space", "B(C2 wr C100000)", "--prime", "2", "--height", "1"),
    ("wreath", "S3", "--prime", "1000003", "--height", "1"),
    ("card", "--space", "B(C6 wr C10000000)", "--prime", "2", "--height", "1"),
    ("card", "--space", "B((C6 wr C1000) wr C1000000)", "--prime", "2", "--height", "1"),
    # numbers in the input text are refused before int() reads them
    ("card", "--space", f"B(C{'7' * 5000})", "--prime", "2", "--height", "1"),
    ("card", "--space", "7" * 5000, "--prime", "2", "--height", "1"),
    ("card", "--space", f"B^{'7' * 5000}(C2)", "--prime", "2", "--height", "1"),
    ("delta", "7" * 5000, "--prime", "2"),
    ("delta", "1e10000000", "--prime", "2"),
    # 2^16 components, refused before the product expands
    ("loop", "--space", UNIONS_16, "--prime", "2"),
    # the tuple count stops at the level whose count // |G| passes the budget
    ("card", "--space", "B(S3)", "--prime", "2", "--height", "100000"),
    # refused before C(999999, 500000) is taken
    ("card", "--space", "B^500000(C2)", "--prime", "2", "--height", "1000000"),
    ("card", "--space", "B^1000000(C2)", "--prime", "2", "--height", "2000000"),
    # the tuple count of a wreath table stops at the budget; it once ran for hours
    ("wreath", "C2", "--prime", "3", "--height", "100000000"),
]


class TestLargeAnswers:
    def test_forty_loop_iterations(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "loop", "--space", "B(S3)", "--prime", "2",
                             "--iterations", "40")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.strip() == "B(S3) + 1099511627775 * B^1(C2)"

    def test_loop_of_a_thousand_components(self, capsys):
        # 2^10 components, which a pairwise fold took seconds to add up; the
        # atoms of each multiply into one B^1(C<order>), and at p = 2 only
        # an even order loops, to 2 * B^1(C<order>)
        text = union_product_text(10)
        start = time.perf_counter()
        code, out, err = run(capsys, "loop", "--space", text, "--prime", "2")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        pairs = [[int(q) for q in re.findall(r"C(\d+)", u)] for u in text.split(" * ")]
        orders = sorted(math.prod(c) for c in itertools.product(*pairs))
        assert out.strip() == " + ".join(
            ("2 * " if m % 2 == 0 else "") + f"B^1(C{m})" for m in orders)

    def test_em_atoms_of_one_degree_print_as_one(self, capsys):
        code, out, err = run(capsys, "loop", "--space", "B(C6) + B^1(C2) * B^1(C3)",
                             "--prime", "2", "--iterations", "2")
        assert (code, out, err) == (0, "8 * B^1(C6)\n", "")

    def test_folded_order_past_the_budget_is_not_printed(self):
        # C(2^14000) x C(3^9000) is one cyclic factor of 8509 digits: its
        # height-1 count at p = 2 prints, its loop at p = 3 would print it
        a, b = 2 ** 14000, 3 ** 9000
        space = f"B^2(C{a} x C{b})"
        looped = subprocess.run([sys.executable, "-m", "pifinite.cli", "loop", "--space", space,
                                 "--prime", "3"], env=_probe_env(), capture_output=True,
                                text=True, timeout=60)
        assert (looped.returncode, looped.stdout) == (2, "")
        assert looped.stderr.startswith("resource error:") and "digit budget" in looped.stderr
        assert "Traceback" not in looped.stderr
        card = subprocess.run([sys.executable, "-m", "pifinite.cli", "card", "--space", space,
                               "--prime", "2", "--height", "1"], env=_probe_env(),
                              capture_output=True, text=True, timeout=60)
        assert (card.returncode, card.stderr) == (0, "")
        assert card.stdout == f"{b}\n"

    def test_loop_stops_at_a_fixed_point(self, capsys):
        # B(C3) has no 2-torsion, so every loop at p = 2 returns it unchanged
        once = run(capsys, "loop", "--space", "B(C3)", "--prime", "2", "--iterations", "1")
        start = time.perf_counter()
        many = run(capsys, "loop", "--space", "B(C3)", "--prime", "2",
                   "--iterations", "1000000000")
        assert time.perf_counter() - start < 1
        assert many == once == (0, "B^1(C3)\n", "")
        code, out, _ = run(capsys, "loop", "--space", "B(C3)", "--prime", "2",
                           "--iterations", "1000000000", "--format", "json")
        assert code == 0 and json.loads(out)["iterations"] == 1000000000

    def test_delta_stops_iterating_at_the_print_budget(self, capsys):
        code, out, err = run(capsys, "delta", "5", "--prime", "7", "--iterations", "5")
        assert (code, out) == (2, "")
        assert err.startswith("resource error: delta iterate exceeds the 4300-digit budget")

    @pytest.mark.parametrize("value, p, out", [("0", 2, "0"), ("1", 2, "0"), ("-1", 2, "-1"),
                                               ("2", 3, "2")])
    def test_periodic_delta_orbit_answers_at_once(self, value, p, out):
        # 2 -> -2 -> 2 at p = 3; the others reach a fixed point
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pifinite.cli", "delta", "--prime", str(p),
                               "--iterations", "1000000000", "--", value], env=_probe_env(),
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{out}\n", "")

    def test_prime_to_p_atom_at_a_huge_exponent(self, capsys):
        # the 2-part of B^500(C3) is 1 to the power C(1999, 500)
        code, out, err = run(capsys, "card", "--space", "B^500(C3)", "--prime", "2",
                             "--height", "2000")
        assert (code, out, err) == (0, "3\n", "")

    @pytest.mark.parametrize("argv", LARGE_ANSWERS)
    def test_refused_in_under_a_second(self, argv):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", *argv], env=_probe_env(),
                             capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (out.returncode, out.stdout) == (2, "")
        budget = "component budget" if argv[0] == "loop" else "digit budget"
        assert out.stderr.startswith("resource error:") and budget in out.stderr
        assert "Traceback" not in out.stderr

    def test_em_atom_with_no_p_part_takes_no_binomial(self):
        # 3^((-1)^k) at every height; C(999999, 500000) took 10 s, and
        # C(1999999, 1000000) 40 s
        for k, n in (("500000", "1000000"), ("1000000", "2000000")):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, "-m", "pifinite.cli", "card", "--space",
                                  f"B^{k}(C3)", "--prime", "2", "--height", n],
                                 env=_probe_env(), capture_output=True, text=True, timeout=60)
            assert time.perf_counter() - start < 1
            assert (out.returncode, out.stdout, out.stderr) == (0, "3\n", "")

    def test_long_profile_refused_at_the_tuple_budget(self):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", "profile", "--space",
                              "B(S3)", "--prime", "2", "--range", "100000"],
                             env=_probe_env(), capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("resource error:") and "digit budget" in out.stderr

    @pytest.mark.parametrize("argv", [
        ("profile", "--space", "B^1(C3)", "--prime", "2", "--range", "10000000"),
        ("classify", "--space", "B(C3)", "--prime", "2", "--range", "10000000"),
        ("beta", "--prime", "2", "--k", "1", "--range", "10000000"),
        ("table", "--prime", "3", "--kmax", "1000000", "--nmax", "3"),
    ])
    def test_value_budget_refused_in_under_a_second(self, argv):
        # every value is a small constant, so no digit budget stops these:
        # a tenth of each ran for 9-20 s and took 176-437 MB
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", *argv], env=_probe_env(),
                             capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("resource error:") and "131072-value budget" in out.stderr

    @pytest.mark.parametrize("argv", [
        ("card", "--space", "(" * 400 + "pt" + ")" * 400, "--prime", "2", "--height", "1"),
        ("card", "--space", "B(C1" + " wr C2" * 1500 + ")", "--prime", "2", "--height", "1"),
        # the order cap refused this one only after recursing 1500 deep
        ("card", "--space", "B(C2" + " x C2" * 1500 + ")", "--prime", "2", "--height", "1"),
        ("wreath", "C2" + " x C2" * 1500, "--prime", "2", "--height", "1"),
    ])
    def test_deep_nesting_refused_in_under_a_second(self, argv):
        # each ended in a RecursionError traceback
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", *argv], env=_probe_env(),
                             capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("resource error:") and "100-level bound" in out.stderr
        assert "Traceback" not in out.stderr

    def test_nesting_just_inside_the_bound_answers(self, capsys):
        for space in ("(" * 100 + "pt" + ")" * 100, "B(C1" + " x C1" * 99 + ")"):
            assert run(capsys, "card", "--space", space, "--prime", "2", "--height", "1") \
                == (0, "1\n", "")
            assert run(capsys, "loop", "--space", space, "--prime", "2") == (0, "pt\n", "")

    def test_tuple_budget_refuses_nothing_printable(self, capsys):
        # (3 * 2^n - 2) / 6 prints up to n = 14283; the count is refused later
        code, out, err = run(capsys, "card", "--space", "B(S3)", "--prime", "2",
                             "--height", "14283")
        assert (code, err) == (0, "")
        assert out.strip() == str(Fraction(3 * 2 ** 14283 - 2, 6))
        code, out, err = run(capsys, "card", "--space", "B(S3)", "--prime", "2",
                             "--height", "14284")
        assert (code, out) == (2, "")
        assert err.startswith("resource error: the answer exceeds the 4300-digit budget")

    def test_large_prime_answers_in_under_a_second(self):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", "card", "--space", "B(S3)",
                              "--prime", "1000000000000000003", "--height", "1"],
                             env=_probe_env(), capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (out.returncode, out.stdout, out.stderr) == (0, "1/6\n", "")

    @pytest.mark.parametrize("order, code, out", [
        ("1000000000000000003", 0, "1000000000000000003\n"),
        ("10000600009", 0, "10000600009\n"),          # 100003^2
        # (10^9 + 7)(10^9 + 9), which no small trial division factors
        ("1000000016000000063", 0, "1000000016000000063\n"),
        ("618970019642690137449562111", 0, "618970019642690137449562111\n"),   # 2^89 - 1
    ])
    def test_large_em_order_is_settled_in_under_a_second(self, order, code, out):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pifinite.cli", "card", "--space",
                               f"B^2(C{order})", "--prime", "2", "--height", "1"],
                              env=_probe_env(), capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout) == (code, out)
        assert "Traceback" not in done.stderr

    def test_beta_needs_no_unprinted_iterate(self, capsys):
        # the constant b comes from residues, so layers below k print even
        # where the layer-k value would pass the digit budget
        def delta(a):
            return (a - a ** 41) / 41
        code, out, err = run(capsys, "beta", "--prime", "41", "--k", "3", "--range", "2")
        assert (code, err) == (0, "")
        values = [delta(delta(Fraction(1, 41))) - 1, Fraction(-1), delta(delta(Fraction(41))) - 1]
        assert [line.split(" (")[0] for line in out.splitlines()] == \
            [f"{n}: {v}" for n, v in enumerate(values)]

    @pytest.mark.parametrize("argv", [
        LARGE_ANSWERS[0] + ("--format", "json"),
        ("profile", "--space", "B^2(C2)", "--prime", "2", "--range", "200"),
        ("classify", "--space", "B^2(C2)", "--prime", "2", "--range", "200"),
        ("wreath", "C2", "--prime", "2", "--height", "8000"),
        ("card", "--space", "B(S3) * B(S3)", "--prime", "2", "--height", "8000"),
        ("delta", "5", "--prime", "7", "--iterations", "5"),
        # each loop doubles the multiplicity 8 times: refused after about 1786
        ("loop", "--space", "B(C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2)", "--prime", "2",
         "--iterations", "10000000"),
    ])
    def test_every_printed_value_is_budgeted(self, capsys, argv):
        # past the budget str() would raise ValueError; each exits 2 instead
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("resource error:") and "digit budget" in err


class TestExitCodes:
    def test_bad_expression_is_input_error(self, capsys):
        code, _, err = run(capsys, "card", "--space", "B(Q8)", "--prime", "2", "--height", "1")
        assert code == 1 and "position" in err

    def test_usage_error_is_input_error(self, capsys):
        code, _, err = run(capsys, "card", "--space", "pt")
        assert code == 1 and err

    def test_bad_delta_value(self, capsys):
        code, _, err = run(capsys, "delta", "one", "--prime", "2")
        assert code == 1 and "rational" in err

    def test_order_cap_is_resource_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "10")
        code, _, err = run(capsys, "card", "--space", "B(S4)", "--prime", "2", "--height", "1")
        assert code == 2 and "cap" in err

    def test_order_cap_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "ten")
        assert run(capsys, "card", "--space", "B(S3)", "--prime", "2", "--height", "1") == (
            1, "", "error: PIFINITE_ORDER_CAP must be an integer, got 'ten'\n")

    @pytest.mark.parametrize("space, code", [("B(S7 x C2)", 1), ("B(S4 x S4 x S4)", 2),
                                             ("B(C5 wr C5)", 2)])
    def test_groups_refused_whole(self, capsys, space, code):
        # a product is refused as its table would be, not factor by factor
        assert run(capsys, "card", "--space", space, "--prime", "2", "--height", "1")[:2] == \
            (code, "")

    @pytest.mark.parametrize("route, argv", [
        ("height_cardinality", ["card", "--space", "B(S3)", "--prime", "2", "--height", "1"]),
        ("p_adic_loop", ["loop", "--space", "B(S3)", "--prime", "2"]),
    ], ids=["card", "loop"])
    def test_failed_invariant_exits_three(self, capsys, monkeypatch, route, argv):
        # a defect in the package, not in the input: one stderr line and no
        # traceback, in every subcommand, not only in verify
        def broken(*args):
            raise pifinite.InvariantError(f"{route} broke")
        monkeypatch.setattr(pifinite.spaces, route, broken)
        for extra in ([], ["--format", "json"]):
            assert run(capsys, *argv, *extra) == (3, "", f"invariant error: {route} broke\n")

    def test_power_walk_failure_exits_three(self, capsys, monkeypatch):
        # element 1 of an encoding squares to itself, so its powers miss the
        # identity: the power walk refuses it as a defect of the package,
        # not of the input, on a described atom's encoded elements
        encoding = pifinite.encoded._encoding

        def broken(d):
            n, e, mul = encoding(d)
            return n, e, lambda a, b: 1 if a == b == 1 else mul(a, b)
        monkeypatch.setattr(pifinite.encoded, "_encoding", broken)
        for extra in ([], ["--format", "json"]):
            assert run(capsys, "loop", "--space", "B(S3)", "--prime", "2", *extra) == (
                3, "", "invariant error: the powers of element 1 never reach the identity\n")

    @pytest.mark.parametrize("iterations, wrong", [
        ("1", lambda decompose: lambda g, p: decompose(g, p)[:-1]),
        ("1", lambda decompose: lambda g, p: decompose(g, p) + decompose(g, p)[-1:]),
        # only a centralizer table's loop goes wrong, in the second iteration
        ("2", lambda decompose: lambda g, p: decompose(g, p)[:None if getattr(g, "descriptor", g)
                                                           else -1]),
    ], ids=["a class dropped", "a class counted twice", "a centralizer's class dropped"])
    def test_loop_checks_each_iteration_against_its_input(self, capsys, monkeypatch,
                                                          iterations, wrong):
        # |L_p X|_n = |X|_(n+1) at n = 0 and 1, counted with no class walk,
        # for the one class walk on a described atom's encoded elements and on
        # a centralizer's table
        import pifinite.walks
        monkeypatch.setattr(pifinite.walks, "p_loop_decomposition",
                            wrong(pifinite.walks.p_loop_decomposition))
        for extra in ([], ["--format", "json"]):
            code, out, err = run(capsys, "loop", "--space", "B(S4)", "--prime", "2",
                                 "--iterations", iterations, *extra)
            assert (code, out) == (3, "")
            assert err.startswith("invariant error: the loop's height-0 cardinality")
            assert len(err.splitlines()) == 1

    def test_loop_checks_the_height_1_count(self, capsys, monkeypatch):
        # B^1(C6) for the whole group's class keeps |B(S3)|_0 = 1/6, so only
        # the height-1 check sees the wrong loop: 2/6 against |B(S3)|_1 = 4/6
        import pifinite.walks
        decompose = pifinite.walks.p_loop_decomposition

        def whole_group_abelian(g, p):
            (e, _), *rest = decompose(g, p)
            return [(e, (g.order,)), *rest]

        monkeypatch.setattr(pifinite.walks, "p_loop_decomposition", whole_group_abelian)
        for extra in ([], ["--format", "json"]):
            assert run(capsys, "loop", "--space", "B(S3)", "--prime", "2", *extra) == (
                3, "", "invariant error: the loop's height-1 cardinality differs from its "
                       "input's height-2 cardinality\n")

    def test_nonprime_rejected(self, capsys):
        code, _, err = run(capsys, "card", "--space", "pt", "--prime", "6", "--height", "1")
        assert code == 1 and "prime" in err

    def test_bad_prime_refused_before_any_table(self, capsys, monkeypatch):
        def no_build(desc, *args, **kwargs):
            raise AssertionError(f"built {desc}")
        monkeypatch.setattr(pifinite.groups, "build_group", no_build)
        code, _, err = run(capsys, "profile", "--space", "B(D600)", "--prime", "4",
                           "--range", "2")
        assert code == 1 and err == "error: expected a prime, got 4\n"

    @pytest.mark.parametrize("space, p, out", [
        ("B(D10000)", "2", "2 * B(D10000) + 2 * B^1(C2 x C2) + 3 * B^1(C5000)"),
        ("B(S4)", "3", "B(S4) + B^1(C3)"),
    ])
    def test_described_loop_builds_no_table(self, capsys, monkeypatch, space, p, out):
        # every centralizer is whole or abelian: the loop multiplies encoded
        # elements, and neither the group nor a centralizer gets a table
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pifinite.groups, "build_group", no_table)
        monkeypatch.setattr(pifinite.groups.FiniteGroup, "__init__", no_table)
        assert run(capsys, "loop", "--space", space, "--prime", p) == (0, out + "\n", "")

    def test_abelian_refusals_unchanged(self, capsys, monkeypatch):
        # the abelian route checks descriptors and the cap as build_group does
        code, _, err = run(capsys, "card", "--space", "B(C0)", "--prime", "2", "--height", "1")
        assert code == 1 and err == "error: Cyclic order must be >= 1, got 0\n"
        code, _, err = run(capsys, "card", "--space", "B(C20000)", "--prime", "2",
                           "--height", "1")
        assert (code, err) == (2, "resource error: group of order 20000 exceeds the cap 10000\n")
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "10")
        for space in ("B(C12)", "B(C2 x C6)"):
            code, _, err = run(capsys, "card", "--space", space, "--prime", "2", "--height", "1")
            assert (code, err) == (2, "resource error: group of order 12 exceeds the cap 10\n")

    @pytest.mark.parametrize("argv, message", [
        (["loop", "--space", "B(S3)", "--prime", "2", "--iterations", "-1"],
         "iteration count must be >= 0, got -1"),
        (["table", "--prime", "3", "--kmax", "-1"], "kmax must be >= 0, got -1"),
        (["table", "--prime", "3", "--nmax", "-1"], "nmax must be >= 0, got -1"),
        (["table", "--prime", "3", "--kmax", "-2", "--nmax", "-1", "--format", "json"],
         "kmax must be >= 0, got -2"),
    ])
    def test_negative_counts_refused(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, code, message", [
        # a flag is named in full and given once
        (["card", "--space", "B(S3)", "--pri", "2", "--height", "1"], 1,
         "card takes no option --pri"),
        (["loop", "--space", "B(S3)", "--prime", "2", "--it", "2"], 1,
         "loop takes no option --it"),
        (["card", "--space", "B(S3)", "--prime", "2", "--prime", "3", "--height", "1"], 1,
         "--prime is given twice"),
        (["delta", "6", "--prime=3", "--iterations", "1", "--prime", "3"], 1,
         "--prime is given twice"),
        # an integer is an optional "-" and ASCII digits, which int() alone
        # widens to underscores, a "+", spaces and other scripts' digits
        (["card", "--space", "B(S3)", "--prime", "2", "--height", "1_0"], 1,
         "--height must be an integer, got '1_0'"),
        (["card", "--space", "B(S3)", "--prime", "+2", "--height", "1"], 1,
         "--prime must be an integer, got '+2'"),
        (["card", "--space", "B(S3)", "--prime", "2", "--height", "\u0661"], 1,
         "--height must be an integer, got '\u0661'"),
        (["card", "--space", "B(S3)", "--prime", "2", "--height", " 1"], 1,
         "--height must be an integer, got ' 1'"),
        (["table", "--prime", "3", "--kmax", "-"], 1, "--kmax must be an integer, got '-'"),
        # and past the digit budget it is refused as every numeral is
        (["card", "--space", "B(S3)", "--prime", "2", "--height", "7" * 5000], 2,
         "--height exceeds the 4300-digit budget"),
        (["table", "--prime", "3", "--nmax=-" + "7" * 4301], 2,
         "--nmax exceeds the 4300-digit budget"),
        (["delta", "6", "--prime", "1" * 4301], 2, "--prime exceeds the 4300-digit budget"),
        # space text and delta's VALUE read ASCII digits only
        (["card", "--space", "B(C\u0663)", "--prime", "3", "--height", "1"], 1,
         "unexpected character '\u0663' (at position 3)"),
        (["delta", "\u0663", "--prime", "2"], 1, "not a rational: '\u0663'"),
        # a described group is read by the atom rule, B(S2) as B^1(C2)
        (["card", "--space", "B(S2)", "--prime", "2", "--height", "1000000"], 2,
         "B^1(C2) at height 1000000 exceeds the 4300-digit budget"),
        # a group is refused where it is read, before a later syntax error
        (["card", "--space", "B(C5 wr C5) + )", "--prime", "2", "--height", "1"], 2,
         "group of order 15625 exceeds the cap 10000"),
        (["card", "--space", "B(S7) * (", "--prime", "2", "--height", "1"], 1,
         "Symmetric degree must be in 1..6, got 7"),
        # C2's count at p = 3 is 1 at every length and answers at once; the
        # wreath product's count is what passes the budget
        (["wreath", "C2", "--prime", "3", "--height", "100000000"], 2,
         "3-tuple counts in C2 wr C3 at length 9015 exceed the 4300-digit budget"),
        # an option at the end of the argv with no value after it
        (["card", "--space", "pt", "--prime", "2", "--height"], 1, "--height needs a value"),
    ])
    def test_argument_refusals(self, capsys, argv, code, message):
        prefix = "error" if code == 1 else "resource error"
        assert run(capsys, *argv) == (code, "", f"{prefix}: {message}\n")

    def test_negative_rational_needs_no_separator(self, capsys):
        # a word with one leading "-" is a value, not a flag
        assert run(capsys, "delta", "-3/4", "--prime", "3") == \
            run(capsys, "delta", "--prime", "3", "--", "-3/4") == (0, "-7/64\n", "")

    def test_help_is_built_from_the_table(self, capsys):
        code, out, err = run(capsys, "-h")
        usages = [line.split()[0] for line in out.splitlines() if line.startswith("  ")
                  and not line.startswith("   ")]
        assert (code, err) == (0, "")
        assert usages == ["card", "loop", "profile", "delta", "beta", "classify", "wreath",
                          "counterexample", "verify", "table"]
        assert run(capsys, "card", "--space", "pt", "--help") == run(capsys, "card", "-h")
        code, out, _ = run(capsys, "delta", "-h")
        assert code == 0 and "  delta VALUE --prime PRIME [--iterations ITERATIONS]" in out
        assert "  card " not in out

    @pytest.mark.parametrize("argv, codes", [
        # more than a pipe holds, so the write after the close fails
        (["profile", "--space", "B^1(C3)", "--prime", "2", "--range", "20000"], (1,)),
        # each line is written as it is printed, unless the close comes after the last
        (["verify"], (0, 1)),
    ])
    def test_closed_stdout_ends_without_a_traceback(self, argv, codes):
        proc = subprocess.Popen([sys.executable, "-m", "pifinite.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=_probe_env({"PYTHONUNBUFFERED": "1"}))
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert first.startswith(("0: 1/3", "PASS  em-grid"))
        assert code in codes and err == ""

    def test_closed_stdout_at_the_last_flush(self, monkeypatch):
        # a buffered answer meets the closed pipe only when it is flushed,
        # which must come before the interpreter's own flush at exit
        read_end, write_end = os.pipe()

        class Closed(io.StringIO):
            def flush(self):
                raise BrokenPipeError

            def fileno(self):
                return write_end

        try:
            monkeypatch.setattr(sys, "stdout", Closed())
            assert main(["delta", "6", "--prime", "3"]) == 1
            # the handler pointed the stream's descriptor at devnull
            assert os.fstat(write_end).st_ino == os.stat(os.devnull).st_ino
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_zero_counts_still_answer(self, capsys):
        assert run(capsys, "loop", "--space", "B(S3)", "--prime", "2",
                   "--iterations", "0") == (0, "B(S3)\n", "")
        code, out, _ = run(capsys, "table", "--prime", "3", "--kmax", "0", "--nmax", "0")
        assert code == 0 and out.split() == ["n\\k", "0", "0", "3"]


# the options each subcommand reads; a name without "--" is a positional
OPTIONS = {"card": ["--space", "--prime", "--height"],
           "loop": ["--space", "--prime", "--iterations"],
           "profile": ["--space", "--prime", "--range"],
           "delta": ["value", "--prime", "--iterations"],
           "beta": ["--prime", "--k", "--range"],
           "classify": ["--space", "--prime", "--range"],
           "wreath": ["group", "--prime", "--height"],
           "counterexample": ["--prime"],
           "verify": [],
           "table": ["--prime", "--kmax", "--nmax"]}
FLAGS = sorted({option for options in OPTIONS.values() for option in options
                if option.startswith("--")} | {"--format"})
INTS = st.integers(-3, 12).map(str)
# cheap spaces and groups, and the numerals no integer argument takes
TEXTS = st.sampled_from(["pt", "B(S3)", "B(C6) * B^2(C3)", "B(Q8)", "C2 x C2"])
VALUES = st.one_of(INTS, TEXTS, st.sampled_from(["1_0", "+2", "\u0661", "7" * 4301,
                                                 "json", "plain"]))
WORDS = st.one_of(VALUES, st.sampled_from([*OPTIONS, *FLAGS, "--", "-h"]),
                  st.builds("{}={}".format, st.sampled_from(FLAGS), VALUES))


@st.composite
def argvs(draw):
    """Mostly a subcommand with each of its options given or left out, most
    with a value of their kind, and sometimes a loose word after them; else
    loose words alone."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(WORDS, max_size=8))
    command = draw(st.sampled_from(list(OPTIONS)))
    argv = [command]
    for option in OPTIONS[command] + ["--format"]:
        kind = (TEXTS if option in ("--space", "group") else
                st.sampled_from(["json", "plain"]) if option == "--format" else INTS)
        value = draw(st.one_of(kind, kind, kind, VALUES))
        if not option.startswith("--"):
            argv.append(value)
        elif draw(st.integers(0, 4)):
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(WORDS))
    return argv


# any str, with surrogates, controls, quotes and backslashes drawn often
_JSON_TEXT = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr),
                               st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028')))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10, 10), _JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=12)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_is_json_dumps(self, value):
        from pifinite.commands.jsontext import dumps
        assert dumps(value) == json.dumps(value)

    def test_refuses_what_json_would_not_write(self):
        from pifinite.commands.jsontext import dumps
        for value in (1.5, {1: 2}, {"a": object()}):
            with pytest.raises(TypeError):
                dumps(value)


class TestArgumentFuzz:
    @settings(max_examples=200, deadline=2000)
    @given(argvs())
    def test_every_argv_ends_in_an_exit_code(self, argv):
        # the argument layer is under test: an order cap of 1000 refuses the
        # one costly answer these words reach, the wreath of C2 x C2 at p = 5
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"PIFINITE_ORDER_CAP": "1000"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert (code == 0) == (err.getvalue() == "")


# Run in a fresh interpreter: which modules are loaded is process-wide state.
# A None argv only imports the CLI.  The arguments and results travel as
# Python literals (repr, then eval), so that the probe itself imports no json.
_MODULE_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    modules, argvs = eval(sys.argv[1])
    import pifinite.cli
    results = []
    for argv in argvs:
        code = None
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = pifinite.cli.main(argv)
        results.append([code, any(m in sys.modules for m in modules),
                        sorted(m for m in sys.modules if m.partition(".")[0] == "pifinite")])
    print(repr(results))
""")


def _probe_env(env=None):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _probe(modules, argvs, env=None, flags=()):
    proc = subprocess.run([sys.executable, *flags, "-c", _MODULE_PROBE,
                           repr([modules, list(argvs)])],
                          capture_output=True, text=True, env=_probe_env(env), timeout=120,
                          check=True)
    return ast.literal_eval(proc.stdout)


def _module_probe(modules, *argvs, env=None, flags=()):
    """[exit code, whether any of ``modules`` is loaded] after each argv,
    all run in turn in one fresh interpreter started with ``flags``."""
    return [result[:2] for result in _probe(modules, argvs, env, flags)]


def _library_modules(argv):
    """[exit code, the sorted ``pifinite`` modules loaded] after ``argv``
    alone in a fresh interpreter."""
    (code, _, loaded), = _probe([], [argv])
    return [code, loaded]


def _loaded_at_bare_start(modules):
    """The ``modules`` that an interpreter running nothing has loaded (site
    hooks may load some)."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, env=_probe_env(), timeout=120,
                          check=True)
    return set(modules) & set(proc.stdout.split())


class TestNumpyIsLazy:
    def test_table_free_answers_do_not_load_numpy(self):
        results = _module_probe(
            ["numpy"],
            ["delta", "6", "--prime", "3"],
            ["table", "--prime", "3"],
            ["counterexample", "--prime", "5"],
            ["beta", "--prime", "3", "--k", "2"],
            ["card", "--space", "B(C6) * B^2(C3)", "--prime", "3", "--height", "2"],
            ["card", "--space", "B(S3)", "--prime", "2", "--height", "1"],
            ["loop", "--space", "B(S4)", "--prime", "2"],
            ["classify", "--space", "B(S3) * B^1(C2)", "--prime", "2", "--range", "3"],
            ["wreath", "C2 x C2", "--prime", "2", "--height", "2"],
            ["profile", "--space", "B(C3 wr C3)", "--prime", "3", "--range", "2"],
            ["profile", "--space", "B(D600)", "--prime", "4", "--range", "2"],
            ["card", "--space", "B(S6) +", "--prime", "2", "--height", "1"],
            ["card", "--space", "B(C0)", "--prime", "2", "--height", "1"],
            ["card", "--space", "B(C20000)", "--prime", "2", "--height", "1"])
        assert results == [[0, False]] * 10 + [[1, False]] * 3 + [[2, False]]

    def test_order_cap_refusal_does_not_load_numpy(self):
        results = _module_probe(
            ["numpy"], ["card", "--space", "B(C12)", "--prime", "2", "--height", "1"],
            env={"PIFINITE_ORDER_CAP": "10"})
        assert results == [[2, False]]

    def test_verify_loads_no_numpy(self):
        # group tables and the 2-form kernel in verify both run on Python ints
        results = _module_probe(["numpy"],
                                ["card", "--space", "B(S3)", "--prime", "2", "--height", "1"],
                                ["verify"])
        assert results == [[0, False], [0, False]]

    def test_verify_passes_without_numpy(self):
        # a None entry in sys.modules makes every import of numpy fail
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "import pifinite.cli\n"
                "sys.exit(pifinite.cli.main(['verify']))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_probe_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)


def _child(*args):
    """(exit code, stdout, stderr) of a fresh interpreter run with ``args``,
    its stdout buffered as a pipe is by default, so that a flush left out
    loses output."""
    env = _probe_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessEnd:
    """A CLI process flushes its answer, runs the registered exit handlers
    and ends with ``os._exit``, skipping the interpreter's teardown; what a
    reader sees is what ``main`` writes in-process."""

    @pytest.mark.parametrize("argv, code", [
        (["card", "--space", "B(S3)", "--prime", "2", "--height", "1"], 0),
        (["-h"], 0),    # the one answer main returns without flushing
        (["card", "--space", "pt"], 1),
        (["card", "--space", "B(C5 wr C5)", "--prime", "5", "--height", "1"], 2),
    ])
    def test_exit_codes_through_the_module(self, capsys, argv, code):
        result = _child("-m", "pifinite.cli", *argv)
        assert result == run(capsys, *argv)
        assert result[0] == code and "Traceback" not in result[2]

    def test_verify_exit_three_through_run(self):
        script = textwrap.dedent("""
            import sys
            import pifinite.checks as checks
            import pifinite.cli

            def raising():
                raise RuntimeError("forced raise")

            check = {"fails": lambda: (False, "forced failure"), "raises": raising}
            checks._VERIFY_TABLE.append(("forced", check[sys.argv[1]]))
            sys.argv[1:] = ["verify", "--format", sys.argv[2]]
            pifinite.cli.run()
            """)
        for kind, last in (("fails", "FAIL  forced: forced failure"),
                           ("raises", "FAIL  forced: raised RuntimeError: forced raise")):
            code, out, err = _child("-c", script, kind, "plain")
            assert (code, err) == (3, "")
            lines = out.splitlines()
            assert len(lines) == 9 and lines[-1] == last
            code, out, err = _child("-c", script, kind, "json")
            payload = json.loads(out)
            assert (code, err) == (3, "")
            assert len(payload["results"]) == 9 and payload["failures"] >= 1

    @pytest.mark.parametrize("argv", [
        ["card", "--space", "B(S3)", "--prime", "2", "--height", "1"], ["-h"]])
    def test_exit_handlers_run_after_the_answer(self, capsys, argv):
        # a handler registered before the CLI starts writes past Python's
        # buffer, then into it: the answer is flushed before it runs, and
        # what it prints is flushed after
        code, out, err = _child("-c", textwrap.dedent("""
            import atexit, os, runpy
            atexit.register(lambda: (os.write(1, b"written\\n"), print("printed")))
            runpy.run_module("pifinite.cli", run_name="__main__")
            """), *argv)
        answer = run(capsys, *argv)[1]
        assert (code, out, err) == (0, answer + "written\nprinted\n", "")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_a_long_answer_arrives_whole_on_a_pipe(self, capsys, fmt):
        # about 1.4 MB, many times what a pipe holds
        argv = ["profile", "--space", "B(S3)", "--prime", "2", "--range", "3000",
                "--format", fmt]
        result = _child("-m", "pifinite.cli", *argv)
        assert result == run(capsys, *argv)
        assert result[0] == 0 and len(result[1].splitlines()) == (3001 if fmt == "plain" else 1)

    def test_the_installed_script_is_what_the_module_runs(self):
        # read as text: Python 3.10 has no tomllib
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            scripts = re.findall(r'^pifinite = "pifinite\.cli:(\w+)"$', fh.read(), re.M)
        with open(os.path.join(root, "src", "pifinite", "cli.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        main_block, = [node for node in tree.body if isinstance(node, ast.If)
                       and ast.unparse(node.test) == "__name__ == '__main__'"]
        called = [node.func.id for node in ast.walk(main_block) if isinstance(node, ast.Call)]
        assert scripts == called == ["run"]

    def test_the_script_entry_names_no_unimported_type(self):
        import typing
        assert typing.get_type_hints(importlib.import_module("pifinite.cli").run) == {}


# one answer from every subcommand
EVERY_SUBCOMMAND = (
    ["card", "--space", "B(S4)", "--prime", "2", "--height", "2"],
    ["loop", "--space", "B(S3)", "--prime", "2"],
    ["profile", "--space", "B(S3)", "--prime", "2", "--range", "2"],
    ["classify", "--space", "B(S3)", "--prime", "2", "--range", "2"],
    ["delta", "6", "--prime", "3"],
    ["beta", "--prime", "3", "--k", "1"],
    ["wreath", "C2", "--prime", "2", "--height", "2"],
    ["counterexample", "--prime", "3"],
    ["verify"],
    ["table", "--prime", "3", "--kmax", "1", "--nmax", "1"],
)

# more paths through the handlers, each answered in a fresh process
MORE_PATHS = (
    # the per-call loop memo, subgroup tables by closure and the height
    # check of each iteration
    ["loop", "--space", "B(S4) * B(S4) + B(D8)", "--prime", "2", "--iterations", "2"],
    # a described loop on encoded elements, with no table of D10000
    ["loop", "--space", "B(D10000)", "--prime", "2"],
    # a product of unions holding centralizer tables, through the one
    # product fold and the generators each table holds
    ["loop", "--space", "(pt + B(S4)) * (pt + B(D8)) * B^2(C6)", "--prime", "2",
     "--iterations", "2"],
    ["loop", "--space", "(pt + B(S4)) * (pt + B(D8)) * B^2(C6)", "--prime", "2",
     "--iterations", "2", "--format", "json"],
    # the encoding a described atom holds and the generators each
    # centralizer table holds, reused across iterations
    ["loop", "--space", "B(S4 wr C2)", "--prime", "2", "--iterations", "3"],
    ["loop", "--space", "B(S4 wr C2)", "--prime", "2", "--iterations", "3", "--format", "json"],
    ["classify", "--space", "B(S3)", "--prime", "2", "--range", "2", "--format", "json"],
    # a validated non-abelian base through Light's test and the closure, a
    # dihedral table and a wreath of a wreath, each built by the one builder
    # from its encoding's multiplication rule
    ["wreath", "S3", "--prime", "2", "--height", "2"],
    ["wreath", "D10", "--prime", "2", "--height", "2"],
    ["wreath", "C2 wr C2", "--prime", "2", "--height", "2"],
    # JSON answers, written by commands.jsontext
    ["card", "--space", "B(S4)", "--prime", "2", "--height", "2", "--format", "json"],
    ["wreath", "C2", "--prime", "2", "--height", "2", "--format", "json"],
    ["verify", "--format", "json"],
)


class TestCompiledOnce:
    """``python -m pifinite.cli`` runs cli.py as ``__main__``, so a module
    that imported ``pifinite.cli`` would compile it a second time: no
    handler, and no library module a handler loads, may import it, nor
    numpy, so each path also runs where numpy is not installed.  Each
    process must also answer, with exit 0 and no traceback; under
    ``PYTHONDONTWRITEBYTECODE=1`` in a fresh checkout, as CI runs the suite,
    the child inherits the setting and compiles every module it loads."""

    @pytest.mark.parametrize("argv", [
        *EVERY_SUBCOMMAND, *(pytest.param(argv, id=" ".join(argv)) for argv in MORE_PATHS)],
        ids=lambda argv: argv[0])
    def test_no_module_imports_the_cli(self, argv):
        # -X importtime lists what import statements load; -v also lists a
        # submodule that ``from package import name`` or importlib loads
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-v", "-m", "pifinite.cli", *argv],
            capture_output=True, text=True, env=_probe_env(), timeout=120)
        timed = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")]
        loaded = re.findall(r"^import '([\w.]+)' # ", proc.stderr, re.M)
        # the library's own imports are listed, so a missing line means no import
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert "pifinite.rationals" in timed
        assert any(name.startswith("pifinite.commands.") for name in loaded)
        assert "pifinite.cli" not in timed + loaded
        # no CLI path loads numpy, on an interpreter that has it or not
        assert "numpy" not in timed + loaded


class TestStartupIsLean:
    """The CLI answers one query per process, so what it imports, and the
    interpreter's teardown of it at exit (which ``run`` skips, see
    ``TestProcessEnd``), is paid on every call: value classes are built
    without ``dataclasses``, whose import loads ``inspect``, ``ast``, ``dis``
    and ``tokenize``."""

    ARGVS = (None,              # the import alone
             ["card", "--space", "B(S4)", "--prime", "2", "--height", "2"],
             ["loop", "--space", "B(S3)", "--prime", "3"],
             ["delta", "6", "--prime", "3"])

    def test_no_dataclasses(self):
        if _loaded_at_bare_start(["dataclasses"]):
            pytest.skip("a site hook loads dataclasses at start-up")
        results = _module_probe(["dataclasses"], *self.ARGVS, ["verify"])
        assert results == [[None, False]] + [[0, False]] * 4

    def test_no_inspect_without_numpy(self):
        # numpy imports inspect, and no subcommand imports numpy
        if _loaded_at_bare_start(["inspect"]):
            pytest.skip("a site hook loads inspect at start-up")
        results = _module_probe(["inspect"], *self.ARGVS, ["verify"])
        assert results == [[None, False]] + [[0, False]] * 4

    def test_no_argparse(self):
        # the arguments are read against the subcommand table; argparse
        # imports gettext, which imports locale
        modules = ["argparse", "gettext", "locale"]
        unloaded = sorted(set(modules) - _loaded_at_bare_start(modules))
        if not unloaded:
            pytest.skip("a site hook loads argparse, gettext and locale at start-up")
        results = _module_probe(unloaded, *self.ARGVS, ["verify"])
        assert results == [[None, False]] + [[0, False]] * 4

    def test_no_typing(self):
        # annotations are text and the public unions are PEP 604 types; -S
        # leaves out the site hooks, which may import typing themselves
        argvs = [["-h"], *EVERY_SUBCOMMAND]
        results = _module_probe(["typing"], None, *argvs, flags=["-S"])
        assert results == [[None, False]] + [[0, False]] * len(argvs)


_BASE = ["pifinite", "pifinite.cli", "pifinite.errors", "pifinite.rationals"]
_SPACES = ["pifinite.records", "pifinite.spaces"]
_PARSER = ["pifinite.descriptors", "pifinite.parser", "pifinite.records"]
_EXPRESSIONS = _SPACES + ["pifinite.descriptors", "pifinite.parser"]
_HEIGHTS = _EXPRESSIONS + ["pifinite.heights"]
# every table is built from the multiplication rule of ``encoded``
_TABLES = ["pifinite.encoded", "pifinite.groups", "pifinite.walks"]
_ENCODED = ["pifinite.encoded", "pifinite.walks"]
_NORMAL_FORMS = ["pifinite.normalforms"]
_HOMS = ["pifinite.homcounts"]


def _handler(module):
    return ["pifinite.commands", f"pifinite.commands.{module}"]


class TestLoadsOnlyWhatItRuns:
    """Each subcommand imports its own handler module, and that handler the
    library modules it calls when it runs, so a process pays only for the
    modules its answer uses: without bytecode caches, every module a process
    loads is compiled from source.  No subcommand loads another's handler,
    only ``loop`` takes a normal form (``normalforms``), and only a height
    count of a non-abelian described group loads ``homcounts``."""

    @pytest.mark.parametrize("argv, code, extra", [
        (None, None, []),
        # a non-abelian described group is counted from its descriptor
        (["card", "--space", "B(S4)", "--prime", "2", "--height", "2"], 0,
         _EXPRESSIONS + _HOMS + _handler("card")),
        # the loop's shift check counts B(S3) at heights 1 and 2 from its
        # descriptor, and B(S3) loops on encoded elements, its centralizers
        # whole or abelian, with no table
        (["loop", "--space", "B(S3)", "--prime", "3"], 0,
         _EXPRESSIONS + _ENCODED + _NORMAL_FORMS + _HOMS + _handler("loop")),
        # a group the parser refuses loads no space algebra
        (["card", "--space", "B(S7)", "--prime", "2", "--height", "1"], 1,
         _PARSER + _handler("card")),
        (["card", "--space", "B(C5 wr C5)", "--prime", "5", "--height", "1"], 2,
         _PARSER + _handler("card")),
        (["loop", "--space", "B(Q8)", "--prime", "2"], 1, _PARSER + _handler("loop")),
        (["table", "--prime", "3"], 0, _SPACES + _handler("table")),
        (["profile", "--space", "B(C2)", "--prime", "2", "--range", "2"], 0,
         _HEIGHTS + _handler("profile")),
        (["classify", "--space", "B(C2)", "--prime", "2", "--range", "2"], 0,
         _HEIGHTS + _handler("profile")),
        (["delta", "6", "--prime", "3"], 0,
         ["pifinite.heights", "pifinite.records"] + _handler("delta")),
        # beta prints through profile's printer
        (["beta", "--prime", "3", "--k", "1"], 0,
         _SPACES + ["pifinite.heights", "pifinite.commands.profile"] + _handler("beta")),
        (["wreath", "C2", "--prime", "2", "--height", "2"], 0,
         _PARSER + ["pifinite.heights"] + _TABLES + _handler("wreath")),
        (["counterexample", "--prime", "5"], 0,
         ["pifinite.quadforms", "pifinite.records"] + _handler("counterexample")),
        # the symmetric-3 and coset checks count B(S3) from its descriptor;
        # the symmetric-3 check loops S3's table, whose abelian centralizer
        # reads its invariant factors from walks, with no encoded group
        # (``encoded`` loads for the rule S3's table is built from)
        (["verify"], 0, _HEIGHTS + _TABLES + _HOMS
         + ["pifinite.checks", "pifinite.quadforms"] + _handler("verify")),
        # refused before any library module loads: a bad prime or a usage
        # error before the handler too
        (["profile", "--space", "B(S3)", "--prime", "4", "--range", "2"], 1, []),
        (["loop", "--space", "B(S3)", "--prime", "2", "--iterations", "-1"], 1,
         _handler("loop")),
        (["table", "--prime", "3", "--nmax", "-1"], 1, _handler("table")),
        (["card", "--space", "pt"], 1, []),
        (["card", "--space", "B(S6) * B(D2000) * B(S4 wr C2)", "--prime", "2", "--height", "40"],
         0, _EXPRESSIONS + _HOMS + _handler("card")),
        (["profile", "--space", "B(S4 wr C2)", "--prime", "2", "--range", "2"], 0,
         _HEIGHTS + _HOMS + _handler("profile")),
        (["classify", "--space", "B(D12)", "--prime", "3", "--range", "2"], 0,
         _HEIGHTS + _HOMS + _handler("profile")),
        # an abelian described group is the EM atom its descriptor names
        (["card", "--space", "B(S2)", "--prime", "2", "--height", "2"], 0,
         _EXPRESSIONS + _handler("card")),
        (["-h"], 0, ["pifinite.commands", "pifinite.commands.usage"]),
        # a group or space the parser refuses loads no engine behind it
        (["wreath", "Q8", "--prime", "2", "--height", "2"], 1, _PARSER + _handler("wreath")),
        (["classify", "--space", "B(S3) +", "--prime", "2", "--range", "2"], 1,
         _EXPRESSIONS + _handler("profile")),
    ])
    def test_module_sets(self, argv, code, extra):
        assert _library_modules(argv) == [code, sorted(_BASE + extra)]

    def test_json_only_for_json_output(self):
        if _loaded_at_bare_start(["json"]):
            pytest.skip("a site hook loads json at start-up")
        results = _module_probe(
            ["json"], None,
            ["card", "--space", "B(S3)", "--prime", "2", "--height", "1"],
            ["table", "--prime", "2", "--kmax", "1", "--nmax", "1"],
            ["counterexample", "--prime", "3"],
            ["delta", "6", "--prime", "3"],
            ["card", "--space", "B(S3) +", "--prime", "2", "--height", "1", "--format", "json"],
            ["card", "--space", "B(S3)", "--prime", "2", "--height", "1", "--format", "json"])
        # a JSON answer is written by commands.jsontext
        assert results == [[None, False]] + [[0, False]] * 4 + [[1, False], [0, False]]
