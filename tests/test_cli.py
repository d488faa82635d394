import ast
import contextlib
import io
import itertools
import json
import math
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

    def test_verify_loop_route_is_independent(self, monkeypatch):
        # em-grid loops and counts without height_cardinality, and symmetric-3
        # needs both routes to agree, so breaking either route shows
        import pifinite.checks as checks
        import pifinite.spaces as spaces
        with monkeypatch.context() as m:
            m.setattr(spaces, "height_cardinality", lambda x, p, n: Fraction(-1))
            assert checks._check_em_grid()[0] and not checks._check_symmetric3()[0]
        with monkeypatch.context() as m:
            m.setattr(spaces, "p_adic_loop", lambda x, p: x)
            assert not checks._check_em_grid()[0] and not checks._check_symmetric3()[0]

    def test_height_relations_reads_the_looped_count(self, capsys, monkeypatch):
        # height-relations counts B^k(C_p) after looping it, so a count off
        # by one fails it
        import pifinite.spaces as spaces
        count = spaces.homotopy_cardinality
        monkeypatch.setattr(spaces, "homotopy_cardinality", lambda x: count(x) + 1)
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert "FAIL  height-relations" in out

    def test_fiber_check_reads_the_enumerated_count(self, monkeypatch):
        # cup-square-fiber holds the fiber formula against the kernel count, so
        # a count short by one scaling class at any checked (p, n) fails it
        import pifinite.checks as checks
        import pifinite.quadforms as quadforms
        count = quadforms.count_null_square_two_forms
        assert checks._check_fiber_formula()[0]
        for bad in ((5, 5), (3, 2)):
            def miscount(p, n, bad=bad):
                report = count(p, n)
                return quadforms.FormCountReport(
                    p, n, report.kernel_count - (p - 1) * ((p, n) == bad),
                    report.total_forms)
            with monkeypatch.context() as m:
                m.setattr(quadforms, "count_null_square_two_forms", miscount)
                assert not checks._check_fiber_formula()[0]

    def test_verify_exit_three_on_mismatch(self, capsys, monkeypatch):
        import pifinite.checks as checks
        broken = checks._VERIFY_TABLE + [("forced", lambda: (False, "forced failure"))]
        monkeypatch.setattr(checks, "_VERIFY_TABLE", broken)
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert "FAIL  forced" in out


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
        # 3^((-1)^500000) at every height; C(999999, 500000) took 10 s
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pifinite.cli", "card", "--space",
                              "B^500000(C3)", "--prime", "2", "--height", "1000000"],
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

    @pytest.mark.parametrize("space, code", [("B(S7 x C2)", 1), ("B(S4 x S4 x S4)", 2),
                                             ("B(C5 wr C5)", 2)])
    def test_groups_refused_whole(self, capsys, space, code):
        # a product is refused as its table would be, not factor by factor
        assert run(capsys, "card", "--space", space, "--prime", "2", "--height", "1")[:2] == \
            (code, "")

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


def _probe(modules, argvs, env=None):
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, repr([modules, list(argvs)])],
                          capture_output=True, text=True, env=_probe_env(env), timeout=120,
                          check=True)
    return ast.literal_eval(proc.stdout)


def _module_probe(modules, *argvs, env=None):
    """[exit code, whether any of ``modules`` is loaded] after each argv,
    all run in turn in one fresh interpreter."""
    return [result[:2] for result in _probe(modules, argvs, env)]


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


class TestStartupIsLean:
    """The CLI answers one query per process, so what it imports is paid on
    every call: value classes are built without ``dataclasses``, whose import
    loads ``inspect``, ``ast``, ``dis`` and ``tokenize``."""

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


_BASE = ["pifinite", "pifinite.cli", "pifinite.errors", "pifinite.rationals"]
_SPACES = ["pifinite.records", "pifinite.spaces"]
_EXPRESSIONS = _SPACES + ["pifinite.descriptors", "pifinite.parser"]
_HEIGHTS = _EXPRESSIONS + ["pifinite.heights"]
_TABLES = ["pifinite.groups"]


class TestLoadsOnlyWhatItRuns:
    """Each subcommand imports the library modules it calls when it runs, so
    a process pays only for the modules its answer uses."""

    @pytest.mark.parametrize("argv, code, extra", [
        (None, None, []),
        # a non-abelian described group is counted from its descriptor
        (["card", "--space", "B(S4)", "--prime", "2", "--height", "2"], 0, _EXPRESSIONS),
        (["loop", "--space", "B(S3)", "--prime", "3"], 0, _EXPRESSIONS + _TABLES),
        (["card", "--space", "B(S7)", "--prime", "2", "--height", "1"], 1, _EXPRESSIONS),
        (["card", "--space", "B(C5 wr C5)", "--prime", "5", "--height", "1"], 2, _EXPRESSIONS),
        (["loop", "--space", "B(Q8)", "--prime", "2"], 1, _EXPRESSIONS),
        (["table", "--prime", "3"], 0, _SPACES),
        (["profile", "--space", "B(C2)", "--prime", "2", "--range", "2"], 0, _HEIGHTS),
        (["classify", "--space", "B(C2)", "--prime", "2", "--range", "2"], 0, _HEIGHTS),
        (["delta", "6", "--prime", "3"], 0, ["pifinite.heights", "pifinite.records"]),
        (["beta", "--prime", "3", "--k", "1"], 0, _SPACES + ["pifinite.heights"]),
        (["wreath", "C2", "--prime", "2", "--height", "2"], 0, _HEIGHTS + _TABLES),
        (["counterexample", "--prime", "5"], 0, ["pifinite.quadforms", "pifinite.records"]),
        (["verify"], 0, _HEIGHTS + _TABLES + ["pifinite.checks", "pifinite.quadforms"]),
        # refused before any library module loads
        (["profile", "--space", "B(S3)", "--prime", "4", "--range", "2"], 1, []),
        (["loop", "--space", "B(S3)", "--prime", "2", "--iterations", "-1"], 1, []),
        (["table", "--prime", "3", "--nmax", "-1"], 1, []),
        (["card", "--space", "pt"], 1, []),
        (["card", "--space", "B(S6) * B(D2000) * B(S4 wr C2)", "--prime", "2", "--height", "40"],
         0, _EXPRESSIONS),
        (["profile", "--space", "B(S4 wr C2)", "--prime", "2", "--range", "2"], 0, _HEIGHTS),
        (["classify", "--space", "B(D12)", "--prime", "3", "--range", "2"], 0, _HEIGHTS),
        # an abelian described group is the EM atom its descriptor names
        (["card", "--space", "B(S2)", "--prime", "2", "--height", "2"], 0, _EXPRESSIONS),
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
        assert results == [[None, False]] + [[0, False]] * 4 + [[1, False], [0, True]]
