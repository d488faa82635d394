"""The count of commuting p-tuples from a descriptor, against the tuple count
on the built table: the independent route that keeps the formulas honest."""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import pifinite as pf
import pifinite.homcounts as homcounts
from pifinite.descriptors import descriptor_name, descriptor_order
from pifinite.walks import abelian_invariant_factors

# S1-S6, D2-D80, and the wreaths of five bases by C2, C3 and C4 up to order 3000
ROUTE_GROUPS = ([pf.Symmetric(m) for m in range(1, 7)]
                + [pf.Dihedral(order) for order in range(2, 82, 2)]
                + [w for base in ("C2", "C3", "S3", "C2 x C2", "D8") for c in (2, 3, 4)
                   if descriptor_order(w := pf.Wreath(pf.parse_group(base), c)) <= 3000])
ROUTE_PRIMES, ROUTE_HEIGHTS = (2, 3, 5), range(5)


def route_mismatches(d):
    """The (p, n) at which the descriptor's count, or the height count of its
    parsed atom, differs from the tuple count on its table."""
    table = pf.build_group(d)
    atom = pf.parse_space(f"B({descriptor_name(d)})")
    bad = []
    for p in ROUTE_PRIMES:
        for n in ROUTE_HEIGHTS:
            tuples = pf.count_commuting_p_tuples(table, p, n)
            if (homcounts.hom_count(d, p, n) != tuples
                    or pf.height_cardinality(atom, p, n) != Fraction(tuples, table.order)):
                bad.append((p, n))
    return bad


@pytest.mark.parametrize("read", [pf.groups.checked_order, descriptor_name],
                         ids=["checked_order", "descriptor_name"])
def test_a_non_descriptor_is_refused(read):
    with pytest.raises(pf.InputError, match="^unknown group descriptor 5$"):
        read(5)


class TestIndependentRoute:
    def test_the_groups(self):
        names = [descriptor_name(d) for d in ROUTE_GROUPS]
        assert len(names) == 59 and names[-1] == "D8 wr C3"
        assert "S3 wr C4" not in names and "D8 wr C4" not in names

    @pytest.mark.parametrize("d", ROUTE_GROUPS, ids=descriptor_name)
    def test_count_matches_the_table(self, d):
        assert route_mismatches(d) == []

    @pytest.mark.parametrize("text", ["S3", "S5", "D12", "D10", "C2 wr C2", "S3 wr C3"])
    def test_guard_a_wrong_count_fails(self, text, monkeypatch):
        # a route compared with itself would pass whatever the count gives
        right = homcounts.hom_count
        monkeypatch.setattr(homcounts, "hom_count", lambda d, p, n: right(d, p, n) + 1)
        assert len(route_mismatches(pf.parse_group(text))) == \
            len(ROUTE_PRIMES) * len(ROUTE_HEIGHTS)

    def test_products_multiply(self):
        d = pf.parse_group("S3 x D8 x C4")
        for p in (2, 3):
            for n in range(4):
                assert homcounts.hom_count(d, p, n) == \
                    pf.count_commuting_p_tuples(pf.build_group(d), p, n)

    def test_nested_wreath(self):
        d = pf.parse_group("C2 wr C2 wr C2")
        table = pf.build_group(d)
        for n in range(6):
            assert homcounts.hom_count(d, 2, n) == pf.count_commuting_p_tuples(table, 2, n)

    @pytest.mark.parametrize("d", [pf.Symmetric(1), pf.Symmetric(2), pf.Dihedral(2),
                                   pf.Dihedral(4), pf.Wreath(pf.Cyclic(1), 3),
                                   pf.Wreath(pf.DirectProduct(pf.Cyclic(1), pf.Symmetric(1)), 2),
                                   pf.DirectProduct(pf.Cyclic(2), pf.Symmetric(2))],
                             ids=descriptor_name)
    def test_abelian_descriptors(self, d):
        # read off the descriptor, an abelian group is EM atoms, and no
        # table; their normal form is the one the table's element orders give
        table = pf.build_group(d)
        assert table.is_abelian()
        space = pf.classifying(d)
        atoms = space.factors if isinstance(space, pf.Product) else (space,)
        assert not any(isinstance(atom, pf.Classifying) for atom in atoms)
        expected = pf.em_space(abelian_invariant_factors(table.element_orders), 1)
        assert pf.normal_form(space) == pf.normal_form(expected)

    @pytest.mark.parametrize("text", ["S3", "D6", "C2 wr C2", "S3 x C2", "C2 x C2 wr C3"])
    def test_non_abelian_descriptors(self, text):
        d = pf.parse_group(text)
        space = pf.classifying(d)
        atoms = space.factors if isinstance(space, pf.Product) else (space,)
        assert any(isinstance(atom, pf.Classifying) for atom in atoms)
        assert not pf.build_group(d).is_abelian()


class TestDigitBudget:
    def test_boundary_is_the_tuple_counts(self):
        # |Hom(Z_2^n, S3)| = 3 * 2^n - 2, whose sixth passes 4300 digits at
        # n = 14286, where the tuple count on the table refuses too
        bs3 = pf.parse_space("B(S3)")
        assert pf.height_cardinality(bs3, 2, 14285) == Fraction(3 * 2 ** 14285 - 2, 6)
        with pytest.raises(pf.ResourceBudgetError,
                           match="^2-tuple counts in S3 at length 14286 exceed the 4300-digit"):
            pf.height_cardinality(bs3, 2, 14286)
        # past the boundary the message names the first length past it, as
        # the tuple count does
        with pytest.raises(pf.ResourceBudgetError, match="at length 14286 exceed"):
            pf.height_cardinality(bs3, 2, 10 ** 9)

    @pytest.mark.parametrize("text, p, first", [("S4 wr C2", 2, 3573), ("S6", 3, 4509),
                                                 ("D2000", 2, 4766), ("C3 wr C3", 3, 3006)])
    def test_refused_before_a_power_is_taken(self, text, p, first):
        # 2^(10^18) alone would need 10^17 bytes
        start = time.perf_counter()
        for n in (first, 10 ** 9, 10 ** 18):
            with pytest.raises(pf.ResourceBudgetError, match=f"at length {first} exceed"):
                homcounts.hom_count(pf.parse_group(text), p, n)
        assert time.perf_counter() - start < 1
        assert homcounts.hom_count(pf.parse_group(text), p, first - 1) > 0

    def test_validated_as_the_tuple_count(self):
        with pytest.raises(pf.InputError, match="expected a prime"):
            homcounts.hom_count(pf.Symmetric(3), 4, 1)
        with pytest.raises(pf.InputError, match="tuple length must be >= 0"):
            homcounts.hom_count(pf.Symmetric(3), 2, -1)
        with pytest.raises(pf.InputError, match="Symmetric degree"):
            homcounts.hom_count(pf.Symmetric(7), 2, 1)
        with pytest.raises(pf.ResourceBudgetError, match="exceeds the cap"):
            homcounts.hom_count(pf.Wreath(pf.Cyclic(5), 5), 5, 1)


def _cli(*argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pifinite.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - start


class TestNoTable:
    """Described groups are counted without a table, so sizes whose tables
    took seconds to minutes answer at once."""

    def test_large_dihedral(self):
        # 34 s and 809 MB when the order-10000 table was built
        proc, seconds = _cli("card", "--space", "B(D10000)", "--prime", "2", "--height", "2")
        assert (proc.returncode, proc.stderr) == (0, "")
        # 2^(an) + (m/2)(4^n - 2^n) over 2m, for m = 5000 = 2^3 * 625
        assert Fraction(proc.stdout.strip()) == Fraction(2 ** 6 + 2500 * (4 ** 2 - 2 ** 2), 10000)
        assert seconds < 1

    def test_deep_wreath(self):
        # 39.8 s when the tuple count walked 3000 levels of its table
        proc, seconds = _cli("card", "--space", "B(S4 wr C2)", "--prime", "2",
                             "--height", "3000")
        assert proc.returncode == 0 and proc.stderr == ""
        assert seconds < 1
        d = pf.parse_group("S4 wr C2")
        assert Fraction(proc.stdout.strip()) == Fraction(homcounts.hom_count(d, 2, 3000), 1152)
        table = pf.build_group(d)
        for n in range(61):
            assert homcounts.hom_count(d, 2, n) == pf.count_commuting_p_tuples(table, 2, n)

    def test_deep_wreath_past_the_budget(self):
        proc, seconds = _cli("card", "--space", "B(S4 wr C2)", "--prime", "2",
                             "--height", "1000000000")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("resource error:") and "digit budget" in proc.stderr
        assert seconds < 1

    def test_heights_build_no_table(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)
        x = pf.parse_space("B(S6) * B(D2000) * B(S4 wr C2) + B(S3 x D8) * B(C2 wr C3)")
        prof = pf.height_profile(x, 3, 6)
        assert [pf.classify_layer(prof, n).value for n in range(7)] == \
            ["divisible", "complete"] + ["divisible"] * 5
        assert pf.height_cardinality(x, 2, 40) > 0
