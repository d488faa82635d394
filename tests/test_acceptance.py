"""Acceptance suite: every numbered criterion as one test, exact arithmetic
throughout, one printed pass/fail line per criterion (run with -v -s to see
them inline)."""

import json
import random
from fractions import Fraction

from conftest import (named_group, oracle_commuting_tuples, oracle_looped_cardinality,
                      random_space_expr)

import pifinite as pf
from pifinite import checks, vp
from pifinite.cli import main as cli_main


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_em_grid_by_recursion():
    _report("1 EM grid (90 exact equalities, by the loop recursion)",
            checks._check_em_grid()[0])


def test_criterion_2_symmetric_3_cancellation():
    bs3 = pf.classifying(named_group("S3"))
    value = pf.height_cardinality(bs3, 2, 1)
    coset = pf.height_cardinality(pf.finite_set(3), 2, 1)
    bc2 = pf.height_cardinality(pf.classifying(named_group("C2")), 2, 1)
    ok = (value == Fraction(2, 3)
          and coset * value == 2
          and bc2 == 1
          and coset * value != bc2)
    _report("2 symmetric-3 value 2/3 and composition failure 2 != 1", ok)


def test_criterion_3_cup_square_fiber():
    ok = checks._check_fiber_formula()[0] and checks._check_form_kernel()[0]
    ok &= all(pf.amenability_failure_report(p).rhs == p ** 3 for p in (3, 5, 7))
    _report("3 cup-square fiber closed form, failure report, kernel counts", ok)


def test_criterion_4_delta_laws():
    rng = random.Random(2024)

    def unit(p):
        while True:
            s = rng.randint(1, 99999) * rng.choice((1, -1))
            if s % p:
                return s

    ok = True
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        v = rng.randint(1, 6)
        a = Fraction(p) ** v * Fraction(unit(p), unit(p))
        ok &= vp(pf.delta(a, p), p) == v - 1
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        x = Fraction(p) ** rng.randint(0, 5) * Fraction(unit(p), unit(p))
        y = Fraction(p) ** rng.randint(0, 5) * Fraction(unit(p), unit(p))
        deviation = Fraction(x ** p + y ** p - (x + y) ** p, p)
        ok &= pf.delta(x + y, p) == pf.delta(x, p) + pf.delta(y, p) + deviation
    _report("4 delta valuation drop and additive-deviation law (2 x 1000 samples)", ok)


def test_criterion_5_wreath_identity():
    ok = checks._check_wreath_grid()[0]

    # D8 row against a direct tuple-enumeration oracle
    d8 = pf.wreath_cyclic(named_group("C2"), 2)
    c2sq = pf.direct_product(named_group("C2"), named_group("C2"))
    oracle_rhs = [Fraction(oracle_commuting_tuples(d8, 2, n), 8)
                  - Fraction(oracle_commuting_tuples(c2sq, 2, n), 4)
                  for n in (1, 2, 3)]
    ok &= oracle_rhs == [0, 1, 6]
    reported = [pf.verify_wreath_identity(named_group("C2"), 2, n).rhs for n in (1, 2, 3)]
    ok &= reported == oracle_rhs
    _report("5 wreath identity, uniform sign, D8 row (0, 1, 6) vs oracle", ok)


def test_criterion_6_beta_alpha_splitting():
    _report("6 beta/alpha splitting for p in {2,3}, k in {0..3}, layers <= 6",
            checks._check_splitting()[0])


def test_criterion_7_semiring_homomorphism():
    rng = random.Random(77)
    ok = True
    for i in range(200):
        x = random_space_expr(rng, depth=1)
        y = random_space_expr(rng, depth=1)
        p = (2, 3)[i % 2]
        for n in (0, 1, 2):
            hx = pf.height_cardinality(x, p, n)
            hy = pf.height_cardinality(y, p, n)
            ok &= pf.height_cardinality(pf.disjoint_union(x, y), p, n) == hx + hy
            ok &= pf.height_cardinality(pf.product(x, y), p, n) == hx * hy
    _report("7 semiring homomorphism on 200 random pairs, heights 0..2", ok)


def test_criterion_8_loop_recursion_consistency():
    rng = random.Random(88)
    ok = True
    for i in range(200):
        x = random_space_expr(rng, depth=1)
        p = (2, 3)[i % 2]
        looped = pf.p_adic_loop(x, p)
        for n in (1, 2, 3):
            ok &= pf.height_cardinality(x, p, n) == oracle_looped_cardinality(looped, p, n - 1)
    _report("8 loop-recursion consistency on 200 random expressions", ok)


def test_criterion_9_height_relations():
    # B^k(C_p) trivializes above the height: |B^k(C_p)|_n = 1 for 1 <= n <= k
    ok = checks._check_pk_relations()[0]
    for p in (2, 3, 5):
        values = [pf.height_cardinality(pf.em_space([p], k), p, 0) for k in range(4)]
        ok &= values == [p, Fraction(1, p), p, Fraction(1, p)]
    _report("9 height relation |B^k(C_p)|_n = 1 for n <= k, alternation at n=0", ok)


def test_criterion_10_parser_roundtrip_and_schema(capsys):
    rng = random.Random(1010)
    corpus = [pf.space_text(random_space_expr(rng)) for _ in range(500)]
    ok = True
    for text in corpus:
        parsed = pf.parse_space(text)
        ok &= pf.normal_form(pf.parse_space(pf.space_text(parsed))) == pf.normal_form(parsed)

    def reject_float(_):
        raise AssertionError("float in JSON output")

    for text in corpus[:100]:
        code = cli_main(["card", "--space", text, "--prime", "2", "--height", "1",
                         "--format", "json"])
        out = capsys.readouterr().out
        ok &= code == 0
        payload = json.loads(out, parse_float=reject_float)
        ok &= set(payload) == {"space", "prime", "height", "cardinality"}
        ok &= set(payload["cardinality"]) == {"num", "den"}
        num, den = int(payload["cardinality"]["num"]), int(payload["cardinality"]["den"])
        ok &= Fraction(num, den) == pf.height_cardinality(pf.parse_space(text), 2, 1)
    with capsys.disabled():
        _report("10 parser round-trip (500 expressions) and JSON schema stability", ok)