import gc
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from conftest import (GROUP_TEXTS, builtin_groups, named_group, oracle_centralizer_tuples,
                      oracle_commuting_tuples, oracle_looped_cardinality,
                      oracle_p_loop_decomposition, random_space_expr, relabelled)

import pifinite as pf
import pifinite.walks
from pifinite import EMPTY, PT, InputError, InvariantError, ResourceBudgetError
from pifinite.rationals import MAX_DIGITS
from pifinite.normalforms import MAX_COMPONENTS
from pifinite.walks import abelian_invariant_factors


class TestNormalForm:
    def test_product_distributes_over_disjoint(self):
        x = pf.product(pf.disjoint_union(pf.finite_set(2), pf.classifying(named_group("C2"))), PT)
        nf = pf.normal_form(x)
        comps = dict(nf.components)
        assert comps[()] == 2
        assert comps[(pf.EM((2,), 1),)] == 1

    def test_degree_one_em_equals_abelian_classifying(self):
        assert pf.normal_form(pf.em_space([2], 1)) == pf.normal_form(pf.classifying(named_group("C2")))
        assert pf.normal_form(pf.classifying(named_group("C6"))) == \
            pf.normal_form(pf.em_space([6], 1)) == pf.normal_form(pf.em_space([2, 3], 1))

    def test_abelian_invariants_from_table(self):
        # C2 x C4 and C8 have equal order but different atom keys; C2 x C3 = C6
        a = pf.normal_form(pf.classifying(pf.build_group(pf.DirectProduct(pf.Cyclic(2), pf.Cyclic(4)))))
        b = pf.normal_form(pf.classifying(pf.build_group(pf.Cyclic(8))))
        assert a != b
        assert a == pf.normal_form(pf.em_space([2, 4], 1))

    def test_empty_absorbs(self):
        x = pf.product(EMPTY, pf.classifying(named_group("S3")))
        assert x == EMPTY
        assert pf.normal_form(x) == pf.NormalForm.zero()

    def test_semiring_laws_structurally(self):
        rng = random.Random(7)
        for _ in range(25):
            x, y = (random_space_expr(rng) for _ in range(2))
            assert pf.normal_form(pf.disjoint_union(x, y)) == pf.normal_form(x) + pf.normal_form(y)
            assert pf.normal_form(pf.product(x, y)) == pf.normal_form(x) * pf.normal_form(y)

    def test_idempotent_via_roundtrip(self):
        rng = random.Random(8)
        for _ in range(25):
            x = random_space_expr(rng)
            nf = pf.normal_form(x)
            assert pf.normal_form(nf.to_expr()) == nf

    def test_repr_parses_back(self):
        rng = random.Random(19)
        for _ in range(200):
            nf = pf.normal_form(random_space_expr(rng))
            text = repr(nf)
            assert text.startswith("NormalForm(") and text.endswith(")")
            assert pf.normal_form(pf.parse_space(text[len("NormalForm("):-1])) == nf

    def test_repr_is_the_printed_text(self):
        nf = pf.normal_form(pf.parse_space("2 * B(S3) * B^1(C2) + pt"))
        assert repr(nf) == "NormalForm(pt + 2 * B(S3) * B^1(C2))"
        assert repr(pf.NormalForm.zero()) == "NormalForm(0)"

    def test_repr_past_the_digit_budget_names_it(self):
        # an 8509-digit order, which the printer refuses
        text = repr(pf.normal_form(pf.em_space([2 ** 14000 * 3 ** 9000], 2)))
        assert text.startswith("NormalForm(") and f"{MAX_DIGITS}-digit" in text
        big = pf.finite_set(10 ** 3000)
        assert f"{MAX_DIGITS}-digit" in repr(pf.normal_form(pf.product(big, big)))

    @pytest.mark.parametrize("join", [" + ", " * "])
    def test_equal_forms_print_alike(self, join):
        # C_{S4}(7) and C_{S5}(7) are equal tables of order 8: the form kept,
        # and printed, whichever came first
        forms = [pf.normal_form(pf.p_adic_loop(pf.parse_space(join.join(parts)), 2))
                 for parts in (("B(S4)", "B(S5)"), ("B(S5)", "B(S4)"))]
        assert forms[0] == forms[1] and hash(forms[0]) == hash(forms[1])
        assert repr(forms[0]) == repr(forms[1])
        assert "C_{S4}(7)" in repr(forms[0]) and "C_{S5}(7)" not in repr(forms[0])

    @pytest.mark.parametrize("unions_first", [True, False], ids=["unions first", "atoms first"])
    def test_product_does_not_depend_on_the_order_of_its_factors(self, unions_first):
        # unions holding equal centralizer tables of different names, beside
        # described atoms, EM atoms of one degree that multiply, and a scalar
        unions = [pf.parse_space("pt + B(S4)"), pf.parse_space("pt + B(D8)"),
                  pf.p_adic_loop(pf.parse_space("B(S4)"), 2),
                  pf.p_adic_loop(pf.parse_space("B(S5)"), 2)]
        atoms = [pf.parse_space(t) for t in ("B(S3)", "B^1(C2)", "B^1(C3)", "B^2(C6)", "3")]
        rng = random.Random(52)
        seen = set()
        for _ in range(6):
            rng.shuffle(unions)
            rng.shuffle(atoms)
            nf = pf.normal_form(pf.Product(tuple(unions + atoms if unions_first
                                                 else atoms + unions)))
            seen.add((nf, pf.space_text(nf.to_expr())))
        (nf, text), = seen
        assert "C_{S4}(7)" in text and "C_{S5}(7)" not in text
        # the multiplicities add up as the factors' do
        assert sum(m for _, m in nf.components) == 3 * math.prod(
            sum(m for _, m in pf.normal_form(u).components) for u in unions)

    def test_sorting_a_group_copies_no_table(self):
        # table atoms sort by (order, rows); an int64 key of D1000's table
        # kept 8 MB.  A product table has no descriptor, so it stays a table.
        x = pf.classifying(pf.direct_product(named_group("C1"), named_group("D1000")))
        assert isinstance(x.group, pf.FiniteGroup)
        gc.collect()
        tracemalloc.start()
        try:
            comps = pf.normal_form(x).components
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert comps == (((x,), 1),)
        assert kept < 10 ** 6

    def test_groups_of_equal_order_sort_by_rows(self):
        # two tables of order 272, past the 256 entries one byte holds, with
        # no descriptor, so each stays a table atom; a described group of
        # that order sorts before both, and no name is compared with rows
        groups = [pf.direct_product(named_group("C2"), named_group("D136")),
                  pf.direct_product(named_group("D136"), named_group("C2"))]
        assert groups[0].descriptor is groups[1].descriptor is None
        assert groups[0] != groups[1]
        described = pf.classifying(named_group("D272"))
        expected = [((described,), 1)] + [((pf.Classifying(g),), 1)
                                           for g in sorted(groups, key=lambda g: g._rows)]
        for pair in (groups, groups[::-1]):
            union = pf.disjoint_union(*map(pf.classifying, pair), described)
            assert list(pf.normal_form(union).components) == expected


class TestHomotopyCardinality:
    def test_atoms(self):
        assert pf.homotopy_cardinality(pf.classifying(named_group("S3"))) == Fraction(1, 6)
        assert pf.homotopy_cardinality(pf.em_space([3], 2)) == 3
        assert pf.homotopy_cardinality(pf.em_space([3], 3)) == Fraction(1, 3)
        assert pf.homotopy_cardinality(EMPTY) == 0
        assert pf.homotopy_cardinality(PT) == 1

    def test_disjoint_sum(self):
        x = pf.disjoint_union(pf.finite_set(2), pf.classifying(named_group("C2")))
        assert pf.homotopy_cardinality(x) == Fraction(5, 2)


class TestLoop:
    def test_classifying_s3_at_2(self):
        looped = pf.p_adic_loop(pf.classifying(named_group("S3")), 2)
        expected = pf.disjoint_union(pf.classifying(named_group("S3")),
                                     pf.classifying(named_group("C2")))
        assert pf.normal_form(looped) == pf.normal_form(expected)

    def test_em_p_group_rule(self):
        for p in (2, 3):
            for k in (2, 3):
                looped = pf.p_adic_loop(pf.em_space([p], k), p)
                expected = pf.product(pf.em_space([p], k), pf.em_space([p], k - 1))
                assert pf.normal_form(looped) == pf.normal_form(expected)

    def test_em_degree_one_drops_to_finite_set(self):
        looped = pf.p_adic_loop(pf.em_space([2], 1), 2)
        expected = pf.product(pf.em_space([2], 1), pf.finite_set(2))
        assert pf.normal_form(looped) == pf.normal_form(expected)

    def test_finite_sets_fixed(self):
        assert pf.p_adic_loop(pf.finite_set(3), 2) == pf.finite_set(3)
        assert pf.p_adic_loop(EMPTY, 2) == EMPTY

    def test_prime_to_p_part_contributes_no_loop_factor(self):
        looped = pf.p_adic_loop(pf.em_space([6], 2), 2)
        expected = pf.product(pf.em_space([6], 2), pf.em_space([2], 1))
        assert pf.normal_form(looped) == pf.normal_form(expected)
        assert pf.p_adic_loop(pf.em_space([3], 2), 2) == pf.em_space([3], 2)

    def test_loop_reads_no_class_list(self, monkeypatch):
        # a loop walks the classes of the p-elements only, never all of them
        cases = [(text, p) for text in ("B(D12)", "B(S4)", "B(D8 wr C2)") for p in (2, 3)]
        expected = {(text, p): pf.normal_form(pf.p_adic_loop(pf.parse_space(text), p))
                    for text, p in cases}

        def no_classes(self):
            raise AssertionError("conjugacy classes read")

        monkeypatch.setattr(pf.FiniteGroup, "conjugacy_classes", no_classes)
        for text, p in cases:
            assert pf.normal_form(pf.p_adic_loop(pf.parse_space(text), p)) == expected[text, p]

    def test_prime_not_dividing_the_order_builds_no_table(self, build_calls):
        # by Cauchy's theorem the identity is the only p-element, and C(e) = G
        x = pf.parse_space("B(S6)")
        assert pf.p_adic_loop(x, 7) is x
        assert build_calls == []

    def test_cli_loop_at_a_prime_not_dividing_the_order(self, build_calls, capsys):
        assert pf.cli.main(["loop", "--space", "B(D10000)", "--prime", "3"]) == 0
        assert capsys.readouterr().out == "B(D10000)\n"
        assert build_calls == []

    def test_one_abelian_test_per_centralizer_table(self, monkeypatch):
        # the 12 rotation classes of D200 at p = 5 share one order-100
        # centralizer: abelian, it gets no table and no table test, on
        # encoded elements and on the table alike
        tested = []
        is_abelian = pf.FiniteGroup.is_abelian

        def counting_is_abelian(self):
            tested.append(self.order)
            return is_abelian(self)

        monkeypatch.setattr(pf.FiniteGroup, "is_abelian", counting_is_abelian)
        expected = pf.normal_form(pf.parse_space("B(D200) + 12 * B^1(C100)"))
        looped = pf.p_adic_loop(pf.parse_space("B(D200)"), 5)
        assert tested == []
        assert pf.normal_form(looped) == expected
        looped = pf.p_adic_loop(pf.Classifying(pf.build_group(pf.Dihedral(200))), 5)
        assert tested == []
        assert pf.normal_form(looped) == expected

    def test_a_table_atom_walks_its_generators_once(self, monkeypatch):
        # normal_form reads every table atom through classifying, and the
        # table holds its abelian verdict: a second normal form of the same
        # tables walks no greedy generators.  A centralizer table comes with
        # its verdict, so a caller's table is the one walked first
        looped = pf.product(pf.p_adic_loop(pf.parse_space("B(S4) * B(S5)"), 2),
                            pf.Classifying(relabelled(named_group("S4"), 1)))
        walked = []
        greedy = pf.groups.greedy_generators

        def counting(row, identity, elements):
            walked.append(identity)
            return greedy(row, identity, elements)

        monkeypatch.setattr(pf.groups, "greedy_generators", counting)
        first = pf.normal_form(looped)
        assert walked
        walked.clear()
        assert pf.normal_form(looped) == first
        assert walked == []

    def test_a_centralizer_table_holds_its_verdict(self, monkeypatch):
        # the class walk found each non-abelian centralizer's generators not
        # to commute, and its table holds that verdict: normal-forming each
        # of two loops, as the loop subcommand does, walks no generators
        # through is_abelian (42 walks before the table held it); the first
        # loop walks encoded elements, the second centralizer tables
        walked = []
        greedy = pf.walks.greedy_generators

        def counting(row, identity, elements):
            walked.append(identity)
            return greedy(row, identity, elements)

        x = pf.parse_space("B(S4 wr C2)")
        for _ in range(2):
            looped = pf.p_adic_loop(x, 2)
            with monkeypatch.context() as patch:
                for module in (pf.walks, pf.groups):
                    patch.setattr(module, "greedy_generators", counting)
                x = pf.normal_form(looped).to_expr()
        assert walked == []
        assert "B(C_{C_{S4 wr C2}" in pf.space_text(x)

    @staticmethod
    def _counted_decompositions(monkeypatch) -> list[str]:
        # a table, or a described group's encoding, by its name
        walked = []

        def counting(g, p, decompose=pf.walks.p_loop_decomposition):
            walked.append(g.name)
            return decompose(g, p)

        monkeypatch.setattr(pf.walks, "p_loop_decomposition", counting)
        return walked

    def test_each_distinct_atom_walked_once(self, monkeypatch):
        # equal described atoms are one atom, however many parts hold them
        text = "B(S4) * B(S4) + B(S4) * B(D8)"
        expected = pf.normal_form(pf.disjoint_union(
            *(pf.p_adic_loop(pf.parse_space(part), 2) for part in text.split(" + "))))
        walked = self._counted_decompositions(monkeypatch)
        looped = pf.p_adic_loop(pf.parse_space(text), 2)
        assert sorted(walked) == ["D8", "S4"]
        assert pf.normal_form(looped) == expected

    def test_a_table_atom_in_several_components_walked_once(self, monkeypatch):
        # the form's centralizer tables each sit in several components: alone,
        # and beside the atoms of the other factor's loop
        nf = pf.normal_form(pf.p_adic_loop(pf.parse_space("(pt + B(S4)) * (pt + B(S5))"), 2))
        x = nf.to_expr()
        comps = [part.factors if isinstance(part, pf.Product) else (part,) for part in x.parts]
        groups = [a.group for c in comps for a in c if isinstance(a, pf.Classifying)]
        tables = {id(g): g.name for g in groups if isinstance(g, pf.FiniteGroup)}
        described = {pf.groups.descriptor_name(g) for g in groups
                     if not isinstance(g, pf.FiniteGroup)}
        assert len(groups) > len(tables) + len(described) and len(tables) > 1
        expected = pf.normal_form(pf.disjoint_union(*(pf.p_adic_loop(part, 2)
                                                      for part in x.parts)))
        text = pf.space_text(expected.to_expr())
        walked = self._counted_decompositions(monkeypatch)
        looped = pf.normal_form(pf.p_adic_loop(x, 2))
        assert sorted(walked) == sorted([*tables.values(), *described])
        assert looped == expected and pf.space_text(looped.to_expr()) == text

    def test_equal_tables_of_different_names_are_walked_apart(self):
        # C_{S4}(7) and C_{S5}(7) are equal tables: matched by identity, each
        # loops under its own name, so the least name is printed whichever
        # part comes first
        a, b = (pf.Classifying(pf.centralizer(pf.parse_space(t).table, [7]))
                for t in ("B(S4)", "B(S5)"))
        assert a == b and a.group.name != b.group.name
        for pair in ((a, b), (b, a)):
            looped = pf.normal_form(pf.p_adic_loop(pf.disjoint_union(*pair), 2))
            assert pf.space_text(looped.to_expr()) == (
                "4 * B(C_{S4}(7)) + 4 * B^1(C2 x C2) + 2 * B^1(C4)")


class TestHeightCardinality:
    def test_em_grid_against_binomial(self):
        for p in (2, 3, 5):
            for k in range(5):
                for n in range(6):
                    expected = Fraction(p) ** pf.binom_ext(n - 1, k)
                    assert pf.height_cardinality(pf.em_space([p], k), p, n) == expected

    def test_fast_path_matches_recursion(self):
        for p in (2, 3, 5):
            for k in range(5):
                for n in range(6):
                    slow = oracle_looped_cardinality(pf.em_space([p], k), p, n)
                    fast = pf.height_cardinality(pf.em_space([p], k), p, n)
                    assert slow == fast
        mixed = pf.em_space([6, 4], 2)
        for n in range(4):
            assert pf.height_cardinality(mixed, 2, n) == oracle_looped_cardinality(mixed, 2, n)

    def test_symmetric_3_values(self):
        bs3 = pf.classifying(named_group("S3"))
        assert pf.height_cardinality(bs3, 2, 1) == Fraction(2, 3)
        assert pf.height_cardinality(bs3, 2, 2) == Fraction(5, 3)

    def test_classifying_matches_tuple_counts(self):
        for g in builtin_groups():
            for p in (2, 3):
                for n in range(1, 4):
                    value = pf.height_cardinality(pf.classifying(g), p, n)
                    assert value == Fraction(oracle_commuting_tuples(g, p, n), g.order)
                    assert value == Fraction(oracle_centralizer_tuples(g, p, n), g.order)
                    assert value == oracle_looped_cardinality(pf.classifying(g), p, n)

    def test_classifying_builds_no_subgroup_table(self, monkeypatch):
        s4 = pf.build_group(pf.Symmetric(4))
        expected = Fraction(oracle_commuting_tuples(s4, 2, 3), s4.order)
        built = []
        init = pf.FiniteGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(pf.FiniteGroup, "__init__", counting_init)
        assert pf.height_cardinality(pf.classifying(s4), 2, 3) == expected
        assert built == []

    def test_component_additivity(self):
        rng = random.Random(9)
        for _ in range(15):
            x = random_space_expr(rng)
            for n in range(3):
                total = pf.height_cardinality(x, 2, n)
                by_parts = sum(
                    (mult * math.prod((pf.height_cardinality(a, 2, n) for a in comp),
                                      start=Fraction(1))
                     for comp, mult in pf.normal_form(x).components),
                    Fraction(0))
                assert total == by_parts

    def test_normal_form_atoms_against_oracles(self):
        # every component contributes mult * prod of its atom values, each
        # atom valued here: B(G) by tuple enumeration, an EM atom in closed form
        def atom_value(atom, p, n):
            if isinstance(atom, pf.Classifying):
                return Fraction(oracle_commuting_tuples(atom.table, p, n), atom.table.order)
            order, sign = math.prod(atom.factors), (-1) ** atom.degree
            if n == 0:
                return Fraction(order) ** sign
            pp = p ** pf.vp(order, p)
            return Fraction(pp) ** math.comb(n - 1, atom.degree) * Fraction(order // pp) ** sign

        rng = random.Random(16)
        for _ in range(50):
            x = random_space_expr(rng)
            comps = pf.normal_form(x).components
            for p in (2, 3):
                for n in range(4):
                    expected = sum((mult * math.prod((atom_value(a, p, n) for a in comp),
                                                     start=Fraction(1))
                                    for comp, mult in comps), Fraction(0))
                    assert pf.height_cardinality(x, p, n) == expected
                    if n == 0:
                        assert pf.homotopy_cardinality(x) == expected

    def test_semiring_homomorphism(self):
        rng = random.Random(10)
        for _ in range(40):
            x, y = (random_space_expr(rng, depth=1) for _ in range(2))
            for p, n in ((2, 0), (2, 1), (2, 2), (3, 1), (3, 3)):
                hx, hy = (pf.height_cardinality(z, p, n) for z in (x, y))
                assert pf.height_cardinality(pf.disjoint_union(x, y), p, n) == hx + hy
                assert pf.height_cardinality(pf.product(x, y), p, n) == hx * hy

    def test_loop_consistency(self):
        rng = random.Random(11)
        for _ in range(40):
            x = random_space_expr(rng, depth=1)
            for p in (2, 3):
                looped = pf.p_adic_loop(x, p)
                for n in (1, 2, 3):
                    value = pf.height_cardinality(x, p, n)
                    assert value == oracle_looped_cardinality(looped, p, n - 1)
                    assert value == pf.height_cardinality(looped, p, n - 1)

    def test_principal_fibration_products(self):
        # consecutive EM-space values multiply to 1 up to the lower degree
        for p in (2, 3, 5):
            for k in range(5):
                for n in range(k + 1):
                    prod = (pf.height_cardinality(pf.em_space([p], k), p, n)
                            * pf.height_cardinality(pf.em_space([p], k + 1), p, n))
                    assert prod == 1

    def test_height_zero_alternation(self):
        for p in (2, 3, 5):
            for k in range(1, 6):
                assert pf.height_cardinality(pf.em_space([p], k), p, 0) == \
                    Fraction(p) ** pf.binom_ext(-1, k)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            pf.height_cardinality(PT, 4, 1)
        with pytest.raises(InputError):
            pf.height_cardinality(PT, 2, -1)


class TestIntegerInputs:
    @pytest.fixture(autouse=True)
    def no_table_built(self, monkeypatch):
        named_group("S3")       # held before the guard
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)

    # 2.5 made a 2.5-point set whose height cardinality was 5/2, and True a
    # one-point set; normal_form(finite_set(2.5)) raised a bare AttributeError
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("build", [
        pf.FinSet, lambda v: pf.EM((v,), 1), lambda v: pf.EM((2, v), 1),
        lambda v: pf.EM((2,), v), pf.finite_set, lambda v: pf.em_space([v], 1),
        lambda v: pf.em_space([v], 0), lambda v: pf.em_space([2], v),
        lambda v: pf.height_cardinality(pf.classifying(named_group("S3")), 2, v),
        lambda v: pf.height_cardinality(pf.parse_space("B(S3)"), 2, v),
        lambda v: pf.height_cardinality(pf.em_space([2], 1), 2, v),
        lambda v: pf.is_amenable_at_height(pf.classifying(named_group("S3")), 2, v),
        lambda v: pf.is_m_finite(PT, v),
    ], ids=["FinSet", "EM order", "EM second order", "EM degree", "finite_set",
            "em_space order", "em_space order at degree 0", "em_space degree",
            "height_cardinality of B(S3)", "height_cardinality of described B(S3)",
            "height_cardinality of B^1(C2)",
            "is_amenable_at_height", "is_m_finite"])
    def test_non_ints_refused(self, build, value):
        with pytest.raises(InputError, match="int"):
            build(value)

    def test_float_height_of_a_group_is_an_input_error(self):
        # failed on a list index
        with pytest.raises(InputError, match=r"^height must be an int, got 2\.0$"):
            pf.height_cardinality(pf.classifying(named_group("S3")), 2, 2.0)

    def test_ranges_kept(self):
        with pytest.raises(InputError, match="^FinSet size must be >= 1, got 0$"):
            pf.FinSet(0)
        with pytest.raises(InputError, match="^EM degree must be >= 1, got 0$"):
            pf.EM((2,), 0)
        with pytest.raises(InputError, match="^amenability height must be >= 1, got 0$"):
            pf.is_amenable_at_height(PT, 2, 0)
        # one pass over the orders names the first bad one
        with pytest.raises(InputError, match="^cyclic factor orders must be >= 1, got 0$"):
            pf.em_space([2, 0, -1], 0)
        assert not pf.is_m_finite(PT, -3)


class TestNonSpaceParts:
    PARTS = [5, "B(S3)", None, named_group("C2"), pf.Cyclic(2)]

    # each was built, or returned as it was, and refused only where a walk
    # read it: product(5, PT) returned 5
    @pytest.mark.parametrize("part", PARTS, ids=repr)
    @pytest.mark.parametrize("build", [
        lambda x: pf.product(x, PT), lambda x: pf.disjoint_union(x, PT),
        lambda x: pf.Product((x, PT)), lambda x: pf.Disjoint((PT, x)),
        lambda x: pf.R1Element(x, 0, 1, 0),
    ], ids=["product", "disjoint_union", "Product", "Disjoint", "R1Element"])
    def test_refused_at_construction(self, build, part):
        with pytest.raises(InputError, match=f"^not a space expression: {re.escape(repr(part))}$"):
            build(part)

    @pytest.mark.parametrize("part", PARTS, ids=repr)
    @pytest.mark.parametrize("walk", [
        pf.normal_form, lambda x: pf.p_adic_loop(x, 2), lambda x: pf.height_cardinality(x, 2, 1),
        pf.space_text,
    ], ids=["normal_form", "p_adic_loop", "height_cardinality", "space_text"])
    def test_refused_by_each_walk(self, walk, part):
        with pytest.raises(InputError, match=f"^not a space expression: {re.escape(repr(part))}$"):
            walk(part)


class TestDigitBudget:
    def test_em_power_refused_before_it_is_taken(self):
        # 2^C(169, 2) has 4274 digits, 2^C(170, 2) 4325
        b2 = pf.em_space([2], 2)
        assert pf.height_cardinality(b2, 2, 170) == 2 ** math.comb(169, 2)
        with pytest.raises(ResourceBudgetError, match="digit budget"):
            pf.height_cardinality(b2, 2, 171)
        # 2^C(59, 20) would take about 3.5e14 bytes: refused without trying
        with pytest.raises(ResourceBudgetError):
            pf.height_cardinality(pf.em_space([2], 20), 2, 60)

    def test_prime_to_p_part_is_not_budgeted(self):
        # a C3 atom at p = 2 is 1/3 or 3 at every height
        assert pf.height_cardinality(pf.em_space([3], 1), 2, 10 ** 6) == Fraction(1, 3)
        assert pf.height_cardinality(pf.em_space([3], 2), 2, 10 ** 6) == 3
        # 1^C(1999, 500), an exponent past any float, is not refused
        assert pf.height_cardinality(pf.em_space([3], 500), 2, 2000) == 3

    def test_em_budget_decided_before_the_binomial(self):
        # C(10^6 - 1, 5 * 10^5) alone took 10 s; C(n-1, k) >= n-1 for
        # 1 <= k < n-1 refuses the 2-part and the 3-part needs no exponent
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="digit budget"):
            pf.height_cardinality(pf.em_space([2], 500_000), 2, 10 ** 6)
        assert pf.height_cardinality(pf.em_space([3], 500_000), 2, 10 ** 6) == 3
        assert pf.height_cardinality(pf.em_space([5], 500_001), 3, 10 ** 6) == Fraction(1, 5)
        assert time.perf_counter() - start < 1
        # at k >= n-1 the exponent is 0 or 1 and nothing is refused
        assert pf.height_cardinality(pf.em_space([2], 10 ** 6 - 1), 2, 10 ** 6) == 2
        assert pf.height_cardinality(pf.em_space([2], 10 ** 6), 2, 10 ** 6) == 1


class TestFiniteness:
    def test_connectivity_examples(self):
        assert pf.connectivity(pf.em_space([3], 2)) == 1
        assert pf.connectivity(pf.disjoint_union(PT, PT)) == -1
        assert pf.connectivity(EMPTY) == -1
        assert pf.connectivity(PT) == math.inf
        assert pf.connectivity(pf.classifying(named_group("S3"))) == 0

    def test_connectivity_of_products_is_min(self):
        x = pf.product(pf.em_space([3], 2), pf.em_space([3], 4))
        assert pf.connectivity(x) == 1
        assert pf.connectivity(pf.product(x, pf.classifying(named_group("C2")))) == 0

    def test_is_m_finite(self):
        assert pf.is_m_finite(pf.classifying(named_group("S3")), 1)
        assert not pf.is_m_finite(pf.classifying(named_group("S3")), 0)
        assert pf.is_m_finite(pf.em_space([3], 2), 2)
        assert not pf.is_m_finite(pf.em_space([3], 2), 1)
        assert pf.is_m_finite(pf.finite_set(4), -1)
        assert not pf.is_m_finite(pf.finite_set(4), -2)
        assert pf.is_m_finite(PT, -2)
        assert pf.is_m_finite(EMPTY, -1)
        assert not pf.is_m_finite(EMPTY, -2)
        assert pf.is_m_finite(pf.product(PT, PT), -2)

    def test_predicate_laws_on_random_expressions(self):
        rng = random.Random(17)
        connected = []
        for _ in range(200):
            x = random_space_expr(rng)
            c = pf.connectivity(x)
            assert pf.is_m_finite(x, -2) == (c == math.inf)
            finite = [pf.is_m_finite(x, m) for m in range(-3, 5)]
            assert finite == sorted(finite)     # monotone in m
            if c >= 0:
                connected.append((x, c))
        assert len(connected) >= 20
        for (x, cx), (y, cy) in zip(connected, connected[1:]):
            assert pf.connectivity(pf.product(x, y)) == min(cx, cy)

    def test_amenability(self):
        for p in (2, 3, 5):
            assert pf.is_amenable_at_height(pf.em_space([p], 2), p, 2)
        assert not pf.is_amenable_at_height(pf.classifying(named_group("S3")), 2, 1)
        assert pf.is_amenable_at_height(pf.classifying(named_group("C2")), 2, 1)
        with pytest.raises(InputError):
            pf.is_amenable_at_height(EMPTY, 2, 1)
        with pytest.raises(InputError):
            pf.is_amenable_at_height(PT, 2, 0)


def test_em_canonicalization():
    assert pf.EM((6,), 2) == pf.EM((2, 3), 2)
    assert pf.em_space([4, 2], 2).factors == (2, 4)
    assert pf.em_space([4, 2, 12, 9], 2).factors == (2, 12, 36)
    assert pf.em_space([1], 3) == PT
    assert pf.em_space([5], 0) == pf.finite_set(5)
    with pytest.raises(InputError):
        pf.FinSet(0)
    with pytest.raises(InputError, match="orders must be >= 1"):
        pf.em_space([2, 0], 1)


def test_no_order_is_factored():
    assert pf.em_space([6, 10], 2).factors == (2, 30)
    # an odd 4300-digit composite prime to 5, past any factoring
    m = (10 ** 2150 + 1) * (10 ** 2149 + 7)
    atom = pf.em_space([m, 6], 2)
    assert atom.group_order == 6 * m
    assert pf.height_cardinality(atom, 5, 1) == 6 * m
    assert pf.normal_form(pf.p_adic_loop(atom, 2)) == \
        pf.normal_form(pf.product(atom, pf.em_space([2], 1)))


class TestLargeOrders:
    """Orders that no trial division settles answer at once: nothing is factored."""

    @pytest.mark.parametrize("m", [
        10 ** 18 + 3,                       # prime
        (10 ** 9 + 7) * (10 ** 9 + 9),      # two large primes
        2 ** 89 - 1,                        # a prime past is_prime's bound
        100_003 ** 2 * 100_019,             # a square of a large prime times another
    ])
    def test_order_answers_at_once(self, m):
        start = time.perf_counter()
        assert pf.em_space([m], 2).factors == (m,)
        assert pf.em_space([12 * m], 2).factors == (12 * m,)
        assert pf.em_space([2, m], 1).factors == (2 * m,)      # every m here is odd
        assert pf.height_cardinality(pf.em_space([m], 2), 2, 1) == m
        assert pf.height_cardinality(pf.em_space([12 * m], 3), 2, 4) == Fraction(4, 3 * m)
        assert pf.em_space([m], 0) == pf.finite_set(m)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_prime_power_order_answers_at_once(self, e):
        q = 100_003
        assert pf.em_space([q ** e], 2).factors == (q ** e,)
        assert pf.em_space([6 * q ** e, q], 1).factors == (q, 6 * q ** e)
        assert pf.p_adic_loop(pf.em_space([q ** e], 2), q) == pf.product(
            pf.em_space([q ** e], 2), pf.em_space([q ** e], 1))


def prime_power_parts(orders) -> list[int]:
    """The prime-power parts of a list of orders by trial division, sorted."""
    out = []
    for m in orders:
        d = 2
        while d * d <= m:
            q = 1
            while m % d == 0:
                q, m = q * d, m // d
            if q > 1:
                out.append(q)
            d += 1
        if m > 1:
            out.append(m)
    return sorted(out)


def test_em_factors_match_trial_division():
    # the invariant factors are a divisibility chain holding the same
    # prime-power parts as the orders folded into it
    rng = random.Random(18)
    for _ in range(400):
        orders = [rng.randrange(1, 10 ** 4) for _ in range(rng.randint(1, 5))]
        factors = pf.em_space(orders, 1).factors if any(m > 1 for m in orders) else ()
        assert all(f > 1 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert prime_power_parts(factors) == prime_power_parts(orders), orders


def test_em_atoms_of_one_degree_multiply_into_one():
    rng = random.Random(19)
    for _ in range(100):
        a, b = ([rng.randrange(2, 100) for _ in range(rng.randint(1, 3))] for _ in range(2))
        k = rng.randint(1, 3)
        assert pf.normal_form(pf.product(pf.em_space(a, k), pf.em_space(b, k))) == \
            pf.normal_form(pf.em_space(a + b, k))
    # atoms of different degrees stay apart
    x = pf.product(pf.em_space([2], 1), pf.em_space([3], 2), pf.em_space([5], 1))
    assert pf.normal_form(x).components == (((pf.EM((10,), 1), pf.EM((3,), 2)), 1),)


# the invariant factors of every abelian table in the zoo
ZOO_ABELIAN_FACTORS = {"C2": (2,), "C3": (3,), "C4": (4,), "C6": (6,), "C2 x C2": (2, 2)}


class TestAbelianInvariants:
    def test_zoo_lists_every_abelian_table(self):
        assert [t for t in GROUP_TEXTS if named_group(t).is_abelian()] == list(ZOO_ABELIAN_FACTORS)

    @pytest.mark.parametrize("text, factors", ZOO_ABELIAN_FACTORS.items())
    def test_zoo_tables(self, text, factors):
        assert abelian_invariant_factors(named_group(text).element_orders) == factors

    def test_table_of_mixed_exponents(self):
        g = pf.build_group(pf.parse_group("C2 x C4 x C8 x C3 x C9"))
        assert abelian_invariant_factors(g.element_orders) == (2, 12, 72)

    @pytest.mark.parametrize("text", ["S3", "D8", "S4"])
    def test_a_table_that_is_not_abelian_is_refused(self, text):
        with pytest.raises(InvariantError):
            abelian_invariant_factors(named_group(text).element_orders)


# the zoo, the trivial group and three larger non-abelian tables; the atom
# rule reads each and each of their centralizers at p = 2, 3
ATOM_RULE_TEXTS = GROUP_TEXTS + ("C1", "S4", "C2 wr C2", "S3 wr C2")


class TestAtomRule:
    @staticmethod
    def check(g: pf.FiniteGroup) -> None:
        atom = pf.classifying(g)
        (comp, mult), = pf.normal_form(atom).components
        assert mult == 1
        if g.order == 1:
            assert atom == PT
        elif g.is_abelian():
            assert comp == (pf.EM(abelian_invariant_factors(g.element_orders), 1),)
        elif g.descriptor is None:
            assert atom == pf.Classifying(g)
        else:
            # a built table is its descriptor's atom, which keeps the table
            assert atom == pf.classifying(g.descriptor) and atom.table is g
        assert pf.normal_form(pf.Classifying(g)) == pf.normal_form(atom)

    @pytest.mark.parametrize("text", ATOM_RULE_TEXTS)
    def test_group_and_centralizers(self, text):
        g = named_group(text)
        self.check(g)
        for p in (2, 3):
            for _, c in oracle_p_loop_decomposition(g, p):
                self.check(c)

    @pytest.mark.parametrize("d, error", [
        (pf.Dihedral(20000), ResourceBudgetError),
        (pf.Wreath(pf.Cyclic(6), 100000), ResourceBudgetError),
        (pf.Dihedral(7), InputError),
    ], ids=["past the cap", "past the digit budget", "invalid"])
    def test_a_caller_built_described_atom_is_checked(self, d, error):
        # a height-0 count reads the order alone; an order past the digit
        # budget is None, and Fraction(1, None) is 1
        with pytest.raises(error):
            pf.homotopy_cardinality(pf.Classifying(d))

    # each spelling that is not a canonical atom descriptor, and its text
    @pytest.mark.parametrize("text, printed", [
        ("D6", "B(S3)"), ("C2", "B^1(C2)"), ("S2", "B^1(C2)"), ("D4", "B^1(C2 x C2)"),
        ("S3 x S3", "B(S3) * B(S3)"), ("(S3 x C2) wr C2", "B((C2 x S3) wr C2)"),
    ])
    def test_a_caller_built_atom_takes_only_the_canonical_descriptor(self, text, printed):
        # B(D6) built directly printed, and compared, as a second space beside B(S3)
        d = pf.parse_group(text)
        with pytest.raises(InputError, match="pifinite.classifying"):
            pf.Classifying(d)
        assert pf.space_text(pf.classifying(d)) == printed
        assert pf.space_text(pf.parse_space(f"B({text})")) == printed
        for atom in pf.normal_form(pf.classifying(d)).components[0][0]:
            if isinstance(atom, pf.Classifying):
                assert pf.Classifying(atom.group) == atom

    def test_a_trivial_table_is_the_point(self):
        assert pf.classifying(pf.FiniteGroup([[0]])) is PT

    @pytest.mark.parametrize("group", [5, None, "S3", (3,)], ids=repr)
    def test_an_atom_of_no_group_is_refused(self, group):
        # refused where the atom is made, not where it is first counted
        with pytest.raises(InputError, match="a FiniteGroup or a group descriptor"):
            pf.Classifying(group)

    def test_table_of_a_direct_product(self):
        g = pf.build_group(pf.parse_group("C2 x C2"))
        self.check(g)
        assert pf.normal_form(pf.Classifying(g)) == pf.normal_form(pf.EM((2, 2), 1))
        # a non-abelian product splits into its factors' atoms, neither of
        # which is the whole group, so neither keeps its table
        g = pf.build_group(pf.parse_group("S3 x D8"))
        atom = pf.classifying(g)
        assert atom == pf.product(pf.Classifying(pf.Symmetric(3)),
                                  pf.Classifying(pf.Dihedral(8)))
        assert all(f._table is None for f in atom.factors)


# spellings of one group, each keyed by its canonical descriptor: D6 is S3,
# a trivial factor drops out, a wreath base's abelian factors become
# invariant-factor Cs and its other factors are sorted by name
SPELLINGS = (("D6", "S3"), ("(S3 x D8) wr C2", "(D8 x S3) wr C2"),
             ("(C1 x S3) wr C2", "S3 wr C2"),
             ("D4 wr C2", "(C2 x C2) wr C2", "(S2 x D2) wr C2"))


class TestCanonicalKey:
    @pytest.mark.parametrize("texts", SPELLINGS, ids=" = ".join)
    def test_spellings_give_one_atom(self, texts, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)
        spaces = [pf.parse_space(f"B({t})") for t in texts]
        assert len({pf.normal_form(x) for x in spaces}) == 1
        assert len({pf.space_text(x) for x in spaces}) == 1
        assert pf.normal_form(pf.disjoint_union(*spaces)).components == \
            (((spaces[-1],), len(texts)),)

    # the zoo and every spelling above that is not its own canonical form;
    # (S3 x D8) wr C2 builds a table of order 4608, in about 4 s
    @pytest.mark.parametrize("text", GROUP_TEXTS + (
        "D6", "(S3 x D8) wr C2", "(C1 x S3) wr C2", "D4 wr C2", "(S2 x D2) wr C2"))
    def test_canonical_descriptor_counts_the_written_group(self, text):
        # the canonical atom's count, against the written group's table
        written = pf.parse_group(text)
        table = pf.build_group(written)
        atom = pf.classifying(written)
        for p in (2, 3):
            for n in range(4):
                count = pf.count_commuting_p_tuples(table, p, n)
                if isinstance(atom, pf.Classifying):
                    assert pf.homcounts.hom_count(atom.group, p, n) == count
                assert pf.height_cardinality(atom, p, n) == Fraction(count, table.order)


def union_product(k: int) -> pf.SpaceExpr:
    """(B(C2) + B(C3)) * (B(C5) + B(C7)) * ...: k two-atom unions over
    distinct primes, whose normal form has 2^k components."""
    primes = [q for q in range(2, 200) if all(q % d for d in range(2, q))][:2 * k]
    return pf.product(*(pf.disjoint_union(pf.em_space([a], 1), pf.em_space([b], 1))
                        for a, b in zip(primes[::2], primes[1::2])))


class TestComponentBudget:
    def test_largest_product_is_admitted(self):
        k = MAX_COMPONENTS.bit_length() - 1
        assert len(pf.normal_form(union_product(k)).components) == MAX_COMPONENTS == 2 ** k

    def test_product_refused_before_it_expands(self):
        k = MAX_COMPONENTS.bit_length()
        with pytest.raises(ResourceBudgetError,
                           match=f"{2 ** k} components exceeds the {MAX_COMPONENTS}-component"):
            pf.normal_form(union_product(k))
        # the refusal reads the two sizes only: 2^20 components are never built
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="component budget"):
            pf.normal_form(union_product(20))
        assert time.perf_counter() - start < 1

    def test_a_zero_factor_expands_nothing(self):
        # the zero form folds in before the unions, wherever it is written
        unions = union_product(MAX_COMPONENTS.bit_length()).factors
        for factors in (unions + (EMPTY,), (EMPTY,) + unions):
            assert pf.normal_form(pf.Product(factors)) == pf.NormalForm.zero()

    def test_finiteness_reads_the_bounded_normal_form(self):
        x = union_product(MAX_COMPONENTS.bit_length())
        with pytest.raises(ResourceBudgetError, match="component budget"):
            pf.connectivity(x)
        with pytest.raises(ResourceBudgetError, match="component budget"):
            pf.is_m_finite(x, 1)

    def test_equal_components_merge_before_the_budget(self):
        # (A + B)^12 folds to 13 components; its factor sizes multiply to 4096
        a_or_b = pf.disjoint_union(pf.em_space([2], 1), pf.em_space([3], 1))
        nf = pf.normal_form(pf.product(*[a_or_b] * 12))
        assert sorted(m for _, m in nf.components) == sorted(math.comb(12, i) for i in range(13))

    def test_union_fold_is_bounded(self):
        parts = [pf.em_space([2], k) for k in range(1, MAX_COMPONENTS + 2)]
        assert len(pf.normal_form(pf.disjoint_union(*parts[:-1])).components) == MAX_COMPONENTS
        with pytest.raises(ResourceBudgetError, match="component budget"):
            pf.normal_form(pf.disjoint_union(*parts))
        # repeated components merge, so only distinct ones count
        assert pf.normal_form(pf.disjoint_union(*[parts[0]] * (2 * MAX_COMPONENTS))) == \
            pf.normal_form(pf.product(pf.finite_set(2 * MAX_COMPONENTS), parts[0]))
