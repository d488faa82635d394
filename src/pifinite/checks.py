"""The reference checks that ``verify`` runs, one labelled function each.

Each check recomputes a value of the paper's reference table by the
library and compares it with the closed form, or with a second route that
shares no code with the first, and returns whether it passed and a line of
detail.  Only ``verify`` imports this module, so no other subcommand
compiles it; the checks call the library through its modules, so a route
patched on a module is the route they run.
"""

from __future__ import annotations

from fractions import Fraction

from . import groups, heights, parser, quadforms, spaces
from .rationals import binom_ext, vp


def _looped_cardinality(x, p: int, n: int) -> Fraction:
    """The height-n cardinality by its definition: loop p-adically n times,
    then count.  ``height_cardinality`` answers atom by atom in closed form
    instead, so this is the independent route that ``verify`` checks it by."""
    for _ in range(n):
        x = spaces.p_adic_loop(x, p)
    return spaces.homotopy_cardinality(x)


def _check_em_grid() -> tuple[bool, str]:
    bad = 0
    for p in (2, 3, 5):
        for k in range(5):
            for n in range(6):
                got = _looped_cardinality(spaces.em_space([p], k), p, n)
                if got != Fraction(p) ** binom_ext(n - 1, k):
                    bad += 1
    return bad == 0, f"90 EM values via loop recursion, {bad} mismatches"


def _check_symmetric3() -> tuple[bool, str]:
    bs3 = parser.parse_space("B(S3)")
    value = spaces.height_cardinality(bs3, 2, 1)
    ok = value == Fraction(2, 3) == _looped_cardinality(bs3, 2, 1)
    return ok, f"|B(S3)| at p=2 height 1 is {value}"


def _check_coset_composition() -> tuple[bool, str]:
    s3 = spaces.height_cardinality(parser.parse_space("B(S3)"), 2, 1)
    lhs = 3 * s3
    rhs = spaces.height_cardinality(parser.parse_space("B(C2)"), 2, 1)
    ok = lhs == 2 and rhs == 1 and lhs != rhs
    return ok, f"3 * {s3} = {lhs} differs from |B(C2)| = {rhs}"


def _check_fiber_formula() -> tuple[bool, str]:
    # the fiber's value follows from the forms counted: |F|_n = N(p, n) *
    # p^(C(n,3) - C(n,2)) (see quadforms), with N enumerated, not in closed form
    ok = True
    for p in (3, 5, 7):
        report = quadforms.amenability_failure_report(p)
        ok &= report.lhs == p ** 3 + p - 1 and not report.multiplicative
    pairs = quadforms.DEFAULT_BUDGET_PAIRS + tuple((p, n) for p in (3, 5) for n in (1, 2, 3))
    for p, n in pairs:
        forms = quadforms.count_null_square_two_forms(p, n).kernel_count
        ok &= quadforms.cup_square_fiber_cardinality(p, n) == \
            forms * Fraction(p) ** (binom_ext(n, 3) - binom_ext(n, 2))
    return ok, ("fiber value p^3 + p - 1 beats p^3 at p = 3, 5, 7; |F|_n = "
                f"N * p^(C(n,3) - C(n,2)) with N counted at {len(pairs)} (p, n)")


def _check_form_kernel() -> tuple[bool, str]:
    counts = {(p, n): quadforms.count_null_square_two_forms(p, n).kernel_count
              for p, n in quadforms.DEFAULT_BUDGET_PAIRS}
    ok = counts[3, 4] == 261
    ok &= all(c == quadforms.decomposable_form_count(p, n) for (p, n), c in counts.items())
    for p in (3, 5):
        for n in (1, 2, 3):
            r = quadforms.count_null_square_two_forms(p, n)
            ok &= r.kernel_count == r.total_forms
    return ok, (f"kernel count at (3, 4) is {counts[3, 4]}; all {len(counts)} "
                "default-budget (p, n) with n >= 4 match the closed form")


def _check_wreath_grid() -> tuple[bool, str]:
    grid = [("C2", 2), ("C2 x C2", 2), ("S3", 2), ("C3", 3)]
    signs = set()
    ok = True
    d8_rhs = []
    for text, p in grid:
        group = groups.build_group(parser.parse_group(text))
        for n in (1, 2, 3):
            report = heights.verify_wreath_identity(group, p, n)
            ok &= report.magnitudes_match
            if report.sign is not None:
                signs.add(report.sign)
            if text == "C2":
                d8_rhs.append(report.rhs)
    ok &= len(signs) == 1 and d8_rhs == [0, 1, 6]
    return ok, f"uniform sign {sorted(signs)}, D8 row rhs {[str(v) for v in d8_rhs]}"


def _check_splitting() -> tuple[bool, str]:
    ok = True
    for p in (2, 3):
        for k in range(4):
            prof = heights.beta_element(p, k).profile(p, 6)
            ok &= vp(prof[k], p) > 0 or prof[k] == 0
            ok &= all(vp(prof[n], p) == 0 for n in range(k + 1, 7))
            alpha = heights.alpha_splitter(p, k, 6)
            ok &= all(heights.classify_layer(alpha, n).value in ("complete", "zero")
                      for n in range(k + 1))
            ok &= all(heights.classify_layer(alpha, n).value == "divisible"
                      for n in range(k + 1, 7))
    return ok, "beta and alpha layer classes for p = 2, 3 and k <= 3"


def _check_pk_relations() -> tuple[bool, str]:
    # B^k(C_p) trivializes above the height: |B^k(C_p)|_n = p^C(n-1, k) is 1
    # for 1 <= n <= k, here read by looping n times, then counting
    ok = all(_looped_cardinality(spaces.em_space([p], k), p, n) == 1
             for p in (2, 3, 5) for k in range(1, 7) for n in range(1, k + 1))
    return ok, "|B^k(C_p)|_n = 1 for 1 <= n <= k <= 6, p = 2, 3, 5, via loop recursion"


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
