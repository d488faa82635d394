import gc
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import (GROUP_TEXTS, builtin_groups, held_to_the_oracle, named_group,
                      oracle_census_coefficients, oracle_centralizer_indices,
                      oracle_centralizer_tuples, oracle_classes_of, oracle_commuting_tuples,
                      oracle_conjugacy_classes, oracle_cyclic_table, oracle_described_table,
                      oracle_dihedral_table, oracle_generated, oracle_p_loop_decomposition,
                      oracle_product_table, oracle_subgroup_table, oracle_symmetric_table,
                      oracle_wreath_table, relabelled)

import pifinite as pf
import pifinite.encoded
import pifinite.walks
from pifinite import InputError, ResourceBudgetError, homcounts


# a non-associative loop of order 5: Latin square with identity,
# but (1*1)*2 = 2 while 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]

BUILDER_TEXTS = ("C1", "C7", "S1", "S3", "S4", "D2", "D8", "D12", "C2 x S3", "S3 x C3",
                 "C2 wr C2", "C3 wr C2", "S3 wr C2", "C2 wr C3", "(C2 x C2) wr C2",
                 "C2 wr C2 wr C2")


class TestBuild:
    def test_symmetric_3(self):
        assert named_group("S3").order == 6

    def test_wreath_order(self):
        assert pf.build_group(pf.Wreath(pf.Cyclic(2), 2)).order == 8
        assert pf.build_group(pf.Wreath(pf.Cyclic(3), 3)).order == 81

    def test_direct_product_order(self):
        assert pf.build_group(pf.DirectProduct(pf.Cyclic(2), pf.Cyclic(2))).order == 4

    def test_order_cap(self, monkeypatch):
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "100")
        with pytest.raises(ResourceBudgetError, match="order 720 exceeds the cap 100"):
            pf.build_group(pf.Symmetric(6))
        assert pf.build_group(pf.Symmetric(4)).order == 24

    def test_one_cap_for_every_builder(self, monkeypatch):
        # cyclic, product and wreath builds all read the same cap
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "10")
        for d, order in ((pf.Cyclic(12), 12), (pf.DirectProduct(pf.Cyclic(3), pf.Cyclic(4)), 12),
                         (pf.Wreath(pf.Cyclic(2), 3), 24)):
            with pytest.raises(ResourceBudgetError, match=f"order {order} exceeds the cap 10"):
                pf.build_group(d)
        c3 = pf.build_group(pf.Cyclic(3))
        with pytest.raises(ResourceBudgetError, match="order 12 exceeds the cap 10"):
            pf.direct_product(c3, pf.build_group(pf.Cyclic(4)))
        with pytest.raises(ResourceBudgetError, match="order 18 exceeds the cap 10"):
            pf.wreath_cyclic(c3, 2)

    def test_order_bounded_before_it_is_multiplied_out(self):
        # 2^100000 * 100000 and a power by 10^6 of a 781-digit order: each is
        # refused at once, and neither order is printed
        for d in (pf.Wreath(pf.Cyclic(2), 100000),
                  pf.Wreath(pf.Wreath(pf.Cyclic(6), 1000), 10 ** 6),
                  pf.DirectProduct(pf.Cyclic(10 ** 4300), pf.Cyclic(10))):
            with pytest.raises(ResourceBudgetError,
                               match="^group of order past the 4300-digit budget exceeds"):
                pf.groups.checked_order(d)
        with pytest.raises(ResourceBudgetError, match="past the 4300-digit budget"):
            pf.wreath_cyclic(named_group("C2"), 10 ** 6)
        # an order of up to 4300 digits is printed in full
        with pytest.raises(ResourceBudgetError, match=f"^group of order {10 ** 4299} exceeds"):
            pf.groups.checked_order(pf.DirectProduct(pf.Cyclic(10 ** 4298), pf.Cyclic(10)))

    def test_every_part_checked_past_the_budget(self):
        huge = pf.Wreath(pf.Cyclic(2), 100000)
        for bad in (pf.Symmetric(7), pf.Cyclic(0), pf.Wreath(pf.Cyclic(2), 1)):
            for d in (pf.DirectProduct(huge, bad), pf.DirectProduct(bad, huge),
                      pf.Wreath(pf.DirectProduct(huge, bad), 2)):
                with pytest.raises(InputError):
                    pf.build_group(d)

    @pytest.mark.parametrize("call", [
        lambda: pf.build_group(pf.Cyclic(2), order_cap=100),
        lambda: pf.build_group(pf.Cyclic(2), 100),
        lambda: pf.groups.checked_order(pf.Cyclic(2), order_cap=100),
        lambda: pf.direct_product(named_group("C2"), named_group("C2"), order_cap=100),
        lambda: pf.wreath_cyclic(named_group("C2"), 2, order_cap=100),
    ])
    def test_no_per_call_cap(self, call):
        with pytest.raises(TypeError):
            call()

    def test_order_cap_env(self, monkeypatch):
        monkeypatch.setenv("PIFINITE_ORDER_CAP", "5")
        with pytest.raises(ResourceBudgetError):
            pf.build_group(pf.Symmetric(3))

    def test_bad_descriptors(self):
        with pytest.raises(InputError):
            pf.build_group(pf.Symmetric(7))
        with pytest.raises(InputError):
            pf.build_group(pf.Dihedral(7))
        with pytest.raises(InputError):
            pf.build_group(pf.Cyclic(0))

    def test_validation_rejects_broken_tables(self):
        with pytest.raises(InputError):
            pf.FiniteGroup([[0, 1], [1, 1]])           # not a Latin square
        with pytest.raises(InputError):
            pf.FiniteGroup([[1, 0], [1, 0]])           # no identity
        # a non-associative loop of order 5: Latin square with identity,
        # but (1*1)*2 = 2 while 1*(1*2) = 4
        with pytest.raises(InputError):
            pf.FiniteGroup(LOOP5)

    def test_unvalidated_powers_missing_identity_refused_promptly(self):
        # 1 * 1 = 1, so the powers of 1 never reach the identity 0; run in a
        # child with a timeout, so that a walk that never stops fails the test
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                "try:\n"
                "    pf.FiniteGroup([[0, 1], [1, 1]], validate=False)\n"
                "except pf.InputError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=30)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "the powers of element 1 never reach the identity\n"

    def test_wreath_of_an_unvalidated_non_group_is_an_input_error(self):
        # the identity is in every row and every element's powers reach it,
        # but rows 1 and 3 are no permutations: the closure of the wreath's
        # generator rows misses elements, which is refused, not left empty
        g = pf.FiniteGroup([[0, 1, 2, 3], [1, 3, 2, 0], [2, 1, 3, 0], [3, 2, 0, 3]],
                           validate=False)
        with pytest.raises(InputError, match="do not reach every element"):
            pf.wreath_cyclic(g, 2)

    def test_builders_produce_valid_tables(self):
        for g in [named_group("D8"), named_group("C6"),
                  pf.build_group(pf.Wreath(pf.Cyclic(2), 2)),
                  pf.direct_product(named_group("C2"), named_group("S3"))]:
            revalidated = pf.FiniteGroup(g.table)   # validate=True path
            assert revalidated.order == g.order

    def test_equality_by_table(self):
        assert named_group("C2") == pf.build_group(pf.Cyclic(2))
        assert named_group("C2") != named_group("C3")


class TestClasses:
    def test_symmetric_3_class_sizes(self):
        sizes = sorted(len(c) for c in pf.conjugacy_classes(named_group("S3")))
        assert sizes == [1, 2, 3]

    def test_dihedral_8_has_five_classes(self):
        assert len(pf.conjugacy_classes(named_group("D8"))) == 5

    def test_cyclic_classes_are_singletons(self):
        for n in (1, 2, 5, 6):
            g = pf.build_group(pf.Cyclic(n))
            assert [len(c) for c in pf.conjugacy_classes(g)] == [1] * n

    def test_against_orbit_oracle(self):
        for g in builtin_groups():
            ours = {frozenset(c.members) for c in pf.conjugacy_classes(g)}
            assert ours == set(oracle_conjugacy_classes(g))

    def test_class_equation(self):
        for g in builtin_groups():
            classes = pf.conjugacy_classes(g)
            assert sum(len(c) for c in classes) == g.order
            for c in classes:
                cent = pf.centralizer(g, [c.representative])
                assert len(c) * cent.order == g.order


class TestCentralizer:
    def test_transposition_in_s3(self):
        s3 = named_group("S3")
        transposition = next(x for x in s3.elements() if s3.element_orders[x] == 2)
        assert pf.centralizer(s3, [transposition]).order == 2

    def test_identity_centralizer_is_whole_group(self):
        for g in builtin_groups():
            assert pf.centralizer(g, [g.identity]) is g

    def test_order_four_rotation_in_d8(self):
        d8 = named_group("D8")
        rot = next(x for x in d8.elements() if d8.element_orders[x] == 4)
        assert pf.centralizer(d8, [rot]).order == 4

    def test_centralizer_order_divides_group_order(self):
        for g in builtin_groups():
            for x in g.elements():
                assert g.order % pf.centralizer(g, [x]).order == 0


    def test_central_element_centralizer_is_the_group(self):
        d200 = pf.build_group(pf.Dihedral(200))
        central = [x for x in d200.elements() if pf.centralizer(d200, [x]) is d200]
        assert central == [x for x in d200.elements()
                           if len(oracle_centralizer_indices(d200, [x])) == d200.order]
        assert len(central) == 2
        rot = next(x for x in central if x != d200.identity)
        assert (rot, d200) in [(r, c) for r, c in pf.p_loop_decomposition(d200, 2)]

    def test_equal_centralizers_share_one_table(self, monkeypatch):
        # at p = 5 the 12 non-identity 5-classes of D200 are rotation pairs,
        # each centralized by the same order-100 rotation subgroup, which is
        # abelian: one tuple of invariant factors, and no table.  In S4 x C2
        # at p = 2, (x, 0) and (x, 1) are two classes with one centralizer,
        # C(x) x C2, a non-abelian one when C(x) is D8: one table each
        d200, s4c2 = pf.build_group(pf.Dihedral(200)), pf.build_group(pf.parse_group("S4 x C2"))
        built = []
        init = pf.FiniteGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(pf.FiniteGroup, "__init__", counting_init)
        decomp = pf.p_loop_decomposition(d200, 5)
        assert built == [] and len(decomp) == 13
        assert decomp[0][1] is d200
        rotations = {id(c) for _, c in decomp[1:]}
        assert len(rotations) == 1 and decomp[1][1] == (100,)
        decomp = pf.p_loop_decomposition(s4c2, 2)
        tables = {id(c): c for _, c in decomp if isinstance(c, pf.FiniteGroup) and c is not s4c2}
        assert len(tables) < sum(isinstance(c, pf.FiniteGroup) and c is not s4c2
                                 for _, c in decomp)
        assert built == [c.name for c in tables.values()] == [
            f"C_{{S4 x C2}}({next(r for r, c in decomp if c is t)})" for t in tables.values()]
        monkeypatch.undo()
        held_to_the_oracle(s4c2, s4c2, decomp, 2)


class TestCommutingTuples:
    def test_symmetric_3_examples(self):
        s3 = named_group("S3")
        assert pf.count_commuting_p_tuples(s3, 2, 1) == 4
        assert pf.count_commuting_p_tuples(s3, 2, 2) == 10

    def test_cyclic_2_powers(self):
        c2 = named_group("C2")
        for n in range(6):
            assert pf.count_commuting_p_tuples(c2, 2, n) == 2 ** n

    def test_dihedral_8_pairs_match_centralizer_sum(self):
        d8 = named_group("D8")
        assert pf.count_commuting_p_tuples(d8, 2, 2) == 40
        assert sum(pf.centralizer(d8, [c.representative]).order * len(c)
                   for c in pf.conjugacy_classes(d8)) == 40

    def test_empty_tuple(self):
        assert pf.count_commuting_p_tuples(named_group("S3"), 5, 0) == 1

    @pytest.mark.parametrize("text", GROUP_TEXTS)
    @pytest.mark.parametrize("p", [2, 3])
    def test_against_enumeration_oracle(self, text, p):
        g = named_group(text)
        for n in range(4):
            assert pf.count_commuting_p_tuples(g, p, n) == oracle_commuting_tuples(g, p, n)

    def test_burnside_consistency(self):
        # pair count equals the class-weighted count of p-elements downstairs
        for g in builtin_groups():
            for p in (2, 3):
                rhs = sum(len(c) * len(pf.centralizer(g, [c.representative]).p_elements(p))
                          for c in pf.conjugacy_classes(g)
                          if g.is_p_element(c.representative, p))
                assert pf.count_commuting_p_tuples(g, p, 2) == rhs

    def test_loop_recursion_at_group_level(self):
        for g in builtin_groups():
            for p in (2, 3):
                decomp = pf.p_loop_decomposition(g, p)
                class_size = {c.representative: len(c) for c in pf.conjugacy_classes(g)}
                for n in range(3):
                    # an abelian centralizer, as its invariant factors A, has
                    # |A_p|^n commuting n-tuples of p-elements
                    lhs = pf.count_commuting_p_tuples(g, p, n + 1)
                    rhs = sum(class_size[rep] * (
                        math.prod(p ** pf.vp(d, p) for d in cent) ** n
                        if isinstance(cent, tuple) else pf.count_commuting_p_tuples(cent, p, n))
                        for rep, cent in decomp)
                    assert lhs == rhs

    @pytest.mark.parametrize("text", ["S5", "D200", "S3 wr C2", "S4 x S4", "C2 wr C2 wr C2"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_against_centralizer_oracle(self, text, p):
        g = named_group(text)
        for n in range(5):
            assert pf.count_commuting_p_tuples(g, p, n) == oracle_centralizer_tuples(g, p, n)

    def test_count_refused_at_the_digit_budget(self):
        # |Hom(Z_2^n, S3)| = 3 * 2^n - 2, whose sixth passes 4300 digits at n = 14286
        s3 = pf.build_group(pf.Symmetric(3))
        assert pf.count_commuting_p_tuples(s3, 2, 14285) == 3 * 2 ** 14285 - 2
        with pytest.raises(ResourceBudgetError, match="length 14286 exceed the 4300-digit"):
            pf.count_commuting_p_tuples(s3, 2, 14286)
        with pytest.raises(ResourceBudgetError, match="digit budget"):
            pf.count_commuting_p_tuples(pf.build_group(pf.Symmetric(3)), 2, 10 ** 9)

    @pytest.mark.parametrize("text, p", [("C2", 3), ("S3", 5), ("D8", 3), ("C3 wr C3", 2)])
    def test_prime_not_dividing_the_order_answers_at_once(self, text, p):
        # by Cauchy's theorem only the identity is a p-element, so every
        # count is 1, answered before any level is walked or kept
        g = named_group(text)
        start = time.perf_counter()
        assert [pf.count_commuting_p_tuples(g, p, n) for n in (10 ** 8, 0, 5, 10 ** 12)] == [1] * 4
        assert time.perf_counter() - start < 1
        assert p not in g._tuple_counts

    def test_counts_read_no_classes(self, monkeypatch):
        # the walk starts from all of P and stops at e, and the recurrence
        # gives every count past it: no class is read, only counts are kept
        cases = [(text, p, pf.vp(named_group(text).order, p))
                 for text in GROUP_TEXTS + ("C2 wr C2 wr C2",) for p in (2, 3)]
        expected = {(text, p): [oracle_centralizer_tuples(named_group(text), p, n)
                                for n in range(e + 4)] for text, p, e in cases}

        def no_classes(self):
            raise AssertionError("conjugacy classes read")

        monkeypatch.setattr(pf.FiniteGroup, "conjugacy_classes", no_classes)
        for text, p, e in cases:
            g = pf.build_group(pf.parse_group(text))
            assert [pf.count_commuting_p_tuples(g, p, n) for n in range(e + 4)] == \
                expected[text, p]
            if g.order % p == 0:
                counts = g._tuple_counts[p]
                assert type(counts) is tuple and all(type(c) is int for c in counts)

    def test_long_count_on_a_wreath_table(self):
        # the order-1152 table walks to e = 7 at p = 2, then recurs to n = 3000
        d = pf.parse_group("S4 wr C2")
        g = pf.build_group(d)
        start = time.perf_counter()
        count = pf.count_commuting_p_tuples(g, 2, 3000)
        assert time.perf_counter() - start < 2
        assert count == homcounts.hom_count(d, 2, 3000)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("tables", ["S4 centralizers", "relabelled D8 wr C2", "S3 wr C2"])
    def test_counts_past_e_match_the_centralizer_oracle(self, tables, p):
        # tables from centralizers, a relabelling and wreath_cyclic, counted
        # past e against the oracle, which uses no recurrence
        if tables == "S4 centralizers":
            # past the identity's, which is S4 itself
            groups = [c for _, c in oracle_p_loop_decomposition(named_group("S4"), 2)[1:]]
        elif tables == "relabelled D8 wr C2":
            g = named_group("D8 wr C2")
            perm = list(range(g.order))
            random.Random(5).shuffle(perm)
            table = [[0] * g.order for _ in g.elements()]
            for a in g.elements():
                for b in g.elements():
                    table[perm[a]][perm[b]] = perm[g.mul(a, b)]
            groups = [pf.FiniteGroup(table, validate=False)]
        else:
            groups = [pf.wreath_cyclic(pf.build_group(pf.Symmetric(3)), 2)]
        for g in groups:
            for n in range(pf.vp(g.order, p) + 5):
                assert pf.count_commuting_p_tuples(g, p, n) == oracle_centralizer_tuples(g, p, n)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("text", GROUP_TEXTS + ("S4", "D8 wr C2"))
    def test_counts_match_the_abelian_subgroup_census(self, text, p):
        # a second route past e: the c_a of count_n = sum c_a p^(a n) summed
        # over the abelian p-subgroups, with no walk and no recurrence
        g = named_group(text)
        coefficients = oracle_census_coefficients(g, p)
        for n in range(len(coefficients) + 4):
            assert pf.count_commuting_p_tuples(g, p, n) == \
                sum(c * p ** (a * n) for a, c in enumerate(coefficients))

    @pytest.mark.parametrize("text, p, coefficients", [("S4", 2, [0, -6, 7, 0]),
                                                       ("D8 wr C2", 2, [0, 16, -36, 12, 9, 0, 0, 0])])
    def test_census_coefficients_pinned(self, text, p, coefficients):
        assert oracle_census_coefficients(named_group(text), p) == coefficients

    def test_counts_kept_per_group_match_fresh_groups(self):
        # each count is asked of a group that has answered other heights
        # before, and of a group built for it alone
        for text, p in (("S4", 2), ("S3 wr C2", 3), ("D8", 2)):
            d = pf.parse_group(text)
            g = pf.build_group(d)
            for n in (5, 2, 7, 0, 6):
                assert pf.count_commuting_p_tuples(g, p, n) == \
                    pf.count_commuting_p_tuples(pf.build_group(d), p, n)

    @pytest.mark.parametrize("text", ["S3 wr C2", "C2 wr C2 wr C2"])
    def test_concurrent_counts_agree(self, text):
        # threads that share a group all extend the counts it stored at n = 2,
        # walked to e = 3 or 7; a stored tuple changed by one of them would
        # give another a wrong count
        d = pf.parse_group(text)
        expected = {n: pf.count_commuting_p_tuples(pf.build_group(d), 2, n) for n in range(8)}
        heights = [3, 4, 5, 6, 7, 3, 4, 5]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                g = pf.build_group(d)
                pf.count_commuting_p_tuples(g, 2, 2)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda n: pf.count_commuting_p_tuples(g, 2, n),
                                        heights, timeout=60))
                assert got == [expected[n] for n in heights]
        finally:
            sys.setswitchinterval(interval)

    # |Hom(Z_p^n, G wr C_p)| = h^p + (p^n - 1) |G|^(p-1) h with h = |Hom(Z_p^n, G)|:
    # tuples in the base G^p, plus tuples with a component outside it
    @pytest.mark.parametrize("text, p", [(t, p) for t in ("C2", "C3", "C4", "S3", "C2 x C2", "D8")
                                         for p in (2, 3, 5)
                                         if named_group(t).order ** p * p <= 1000])
    def test_wreath_count_formula(self, text, p):
        g = named_group(text)
        wreath = pf.wreath_cyclic(g, p)
        for n in range(4):
            h = oracle_centralizer_tuples(g, p, n)
            expected = h ** p + (p ** n - 1) * g.order ** (p - 1) * h
            assert pf.count_commuting_p_tuples(wreath, p, n) == expected


class TestLoopDecomposition:
    # the whole group is the group itself, and an abelian centralizer its
    # invariant factors
    def test_symmetric_3_at_2(self):
        s3 = named_group("S3")
        decomp = pf.p_loop_decomposition(s3, 2)
        assert decomp[0][0] == s3.identity and decomp[0][1] is s3
        assert [cent for _, cent in decomp[1:]] == [(2,)]

    def test_symmetric_3_at_3(self):
        s3 = named_group("S3")
        assert [cent for _, cent in pf.p_loop_decomposition(s3, 3)] == [s3, (3,)]

    def test_cyclic_p_is_p_singletons(self):
        for p in (2, 3, 5):
            g = pf.build_group(pf.Cyclic(p))
            decomp = pf.p_loop_decomposition(g, p)
            assert len(decomp) == p
            assert all(cent is g for _, cent in decomp)

    def test_identity_class_always_present(self):
        for g in builtin_groups():
            decomp = pf.p_loop_decomposition(g, 5)
            assert decomp[0][0] == g.identity

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_the_class_list_filtered_to_p_elements(self, p):
        # the walk over the p-elements alone gives the classes the full list
        # gives, in its order, and the table route's centralizers; a
        # caller's relabelled S4 puts the identity away from index 0
        s4 = named_group("S4")
        perm = list(range(s4.order))
        random.Random(3).shuffle(perm)
        assert perm[s4.identity] != 0
        table = [[0] * s4.order for _ in s4.elements()]
        for a in s4.elements():
            for b in s4.elements():
                table[perm[a]][perm[b]] = perm[s4.mul(a, b)]
        for g in builtin_groups() + [pf.FiniteGroup(table)]:
            decomp = pf.p_loop_decomposition(g, p)
            assert [r for r, _ in decomp] == [c.representative for c in g.conjugacy_classes()
                                              if g.is_p_element(c.representative, p)]
            held_to_the_oracle(g, g, decomp, p)

    @pytest.mark.parametrize("text", ["S4", "D8 wr C2", "S3 wr C2", "C3 wr C3"])
    def test_a_relabelled_table_loops_as_its_group(self, text):
        # off index 0, the identity class still comes first, the walk is the
        # table route's, and the loop is the described group's, atom for
        # atom up to the labels of its centralizer tables
        g = relabelled(named_group(text), 8)
        assert g.identity != 0
        for p in (2, 3):
            decomp = pf.p_loop_decomposition(g, p)
            assert decomp[0] == (g.identity, g)
            held_to_the_oracle(g, g, decomp, p)
            for iterations in (1, 2):
                expected = isomorphism_invariants(looped(pf.parse_space(f"B({text})"), p,
                                                         iterations))
                for x in (pf.Classifying(named_group(text)), pf.Classifying(g)):
                    assert isomorphism_invariants(looped(x, p, iterations)) == expected


def looped(x: pf.SpaceExpr, p: int, iterations: int) -> pf.NormalForm:
    for _ in range(iterations):
        x = pf.normal_form(pf.p_adic_loop(x, p)).to_expr()
    return pf.normal_form(x)


def isomorphism_invariants(nf: pf.NormalForm) -> dict:
    """The components of ``nf``, each group atom read by the orders of its
    elements and its commuting-tuple counts, which no relabelling moves,
    with their multiplicities summed: isomorphic tables with other labels
    are apart in a form, which merges only equal tables."""
    def atom(a) -> str:
        if isinstance(a, pf.EM):
            return repr(a)
        g = a.table
        return repr((sorted(g.element_orders),
                     [pf.count_commuting_p_tuples(g, p, 2) for p in (2, 3)]))
    counts: Counter = Counter()
    for comp, count in nf.components:
        counts[tuple(sorted(map(atom, comp)))] += count
    return counts


def test_subgroup_relabels_consistently():
    d8 = named_group("D8")
    rot = next(x for x in d8.elements() if d8.element_orders[x] == 4)
    cent = pf.centralizer(d8, [rot])
    # the centralizer of an order-4 rotation is cyclic of order 4
    assert sorted(cent.element_orders) == [1, 2, 4, 4]
    assert np.array_equal(np.sort(cent.table[0]), np.arange(4))


# -- associativity: Light's test against the n^3 sweep ---------------------------------

def sweep_is_associative(table) -> bool:
    """The n^3 oracle: (x y) z == x (y z) for every triple."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def light_verdict(table) -> bool:
    """The library's verdict on a Latin square with an identity."""
    try:
        pf.FiniteGroup(table)
    except InputError as exc:
        assert str(exc) == "table is not associative"
        return False
    return True


def principal_isotope(table, f: int, g: int):
    """x o y = (x g^-1)(f^-1 y), a loop with identity f g.  By Albert's
    theorem a loop isotopic to a group is isomorphic to it, so these are
    associative, with the identity moved off 0 for most f, g."""
    n = len(table)
    e = next(x for x in range(n) if table[x] == list(range(n)))
    inv = [table[x].index(e) for x in range(n)]
    return [[table[table[x][inv[g]]][table[inv[f]][y]] for y in range(n)] for x in range(n)]


def swap_intercalate(table):
    """Exchange the two symbols of the first 2x2 subsquare that avoids the
    identity row and column; the result is a Latin square with the same
    identity, and usually not associative."""
    n = len(table)
    e = next(x for x in range(n) if table[x] == list(range(n)))
    others = [x for x in range(n) if x != e]
    for a, b in itertools.combinations(others, 2):
        for c, d in itertools.combinations(others, 2):
            x, y = table[a][c], table[a][d]
            if table[b][c] == y and table[b][d] == x:
                out = [list(row) for row in table]
                out[a][c], out[a][d], out[b][c], out[b][d] = y, x, x, y
                return out
    return None


def random_loop(n: int, rng: random.Random):
    """A random reduced Latin square (identity 0), filled by randomised
    backtracking."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell: int) -> bool:
        if cell == (n - 1) * (n - 1):
            return True
        r, c = 1 + cell // (n - 1), 1 + cell % (n - 1)
        used = set(table[r][:c]) | {table[i][c] for i in range(r)}
        for v in rng.sample(range(n), n):
            if v not in used:
                table[r][c] = v
                if fill(cell + 1):
                    return True
        table[r][c] = None
        return False

    assert fill(0)
    return table


class TestLightAssociativity:
    def test_loop5(self):
        assert not sweep_is_associative(LOOP5)
        assert not light_verdict(LOOP5)

    @pytest.mark.parametrize("text", BUILDER_TEXTS)
    def test_builder_tables(self, text):
        table = named_group(text).table.tolist()
        assert sweep_is_associative(table) and light_verdict(table)

    @pytest.mark.parametrize("text", ["C6", "S3", "D8"])
    def test_principal_isotopes(self, text):
        table = named_group(text).table.tolist()
        for f, g in itertools.product(range(len(table)), repeat=2):
            iso = principal_isotope(table, f, g)
            assert sweep_is_associative(iso) and light_verdict(iso)

    @pytest.mark.parametrize("text", ["C6", "S3", "D8", "C2 x C2 x C2", "C2 x S3"])
    def test_intercalate_swaps(self, text):
        table = named_group(text).table.tolist()
        for square in (table, principal_isotope(table, 1, 2)):
            swapped = swap_intercalate(square)
            assert not sweep_is_associative(swapped)
            assert not light_verdict(swapped)

    def test_random_loops(self):
        rng = random.Random(4)
        verdicts = []
        for n in (4, 5, 6, 6, 7, 8) * 6:
            loop = random_loop(n, rng)
            verdicts.append(sweep_is_associative(loop))
            assert light_verdict(loop) == verdicts[-1]
        assert verdicts.count(False) > len(verdicts) // 2

    def test_a_closure_table_is_accepted_only_when_associative(self):
        # build_group tests the table its closure built over the generators
        # whose rows the closure read, with no walk of the built table: a
        # rule with an identity row, Latin rows or not and its identity
        # column kept or not, gives a table only when it is associative
        rng = random.Random(7)
        verdicts = Counter()
        for _ in range(1500):
            n = rng.randint(4, 8)
            table = [list(range(n))] + [rng.sample(range(n), n) if rng.random() < 0.5
                                        else [x] + rng.choices(range(n), k=n - 1)
                                        for x in range(1, n)]
            try:
                g = pf.groups._from_rule((n, 0, lambda a, b: table[a][b]), "X", validate=True)
            except InputError as exc:
                verdicts[str(exc)] += 1
            else:
                assert sweep_is_associative(rows_of(g))
                verdicts["built"] += 1
        assert verdicts["table is not associative"] > 0 and verdicts["built"] > 0

    def test_axioms_accept_what_the_latin_sweep_oracle_accepts(self):
        # every magma of order <= 3 with identity 0, and random order-4..6
        # tables with the identity in every row, relabelled so that it moves:
        # the identity in every row plus Light's test accepts exactly the
        # associative Latin squares, and a table that fails only the sweep is
        # refused as not associative
        def latin(table):
            n = len(table)
            return all(len(set(line)) == n for line in table + [list(c) for c in zip(*table)])

        def verdict(table):
            try:
                pf.FiniteGroup(table)
            except InputError as exc:
                return str(exc)
            return None

        tables = []
        for n in (1, 2, 3):
            for cells in itertools.product(range(n), repeat=(n - 1) ** 2):
                tables.append([list(range(n))] + [[x] + list(cells[(x - 1) * (n - 1):x * (n - 1)])
                                                  for x in range(1, n)])
        rng = random.Random(43)
        for _ in range(6000):
            n = rng.randint(4, 6)
            table = [list(range(n))] + [[x] + rng.choices(range(n), k=n - 1) for x in range(1, n)]
            for row in table[1:]:
                row[rng.randrange(1, n)] = 0
            perm = rng.sample(range(n), n)
            tables.append([[0] * n for _ in range(n)])
            for x, y in itertools.product(range(n), repeat=2):
                tables[-1][perm[x]][perm[y]] = perm[table[x][y]]
        accepted = 0
        for table in tables:
            e = next(x for x in range(len(table)) if table[x] == list(range(len(table))))
            group = latin(table) and sweep_is_associative(table)
            if group:
                accepted += 1
                expected = None
            elif any(e not in row for row in table):
                expected = "table rows/columns are not permutations"
            else:
                expected = "table is not associative"
            assert verdict(table) == expected, table
        assert len(tables) == 6084 and accepted >= 3

    def test_swapped_entries_refused_as_not_associative_promptly(self):
        # two entries of one non-identity row of D4000 exchanged: each row
        # still holds the identity, so Light's test alone refuses the table,
        # after at most log2(n) + 1 generators, not the n^3 of a sweep
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                "rows = list(pf.build_group(pf.Dihedral(4000))._rows)\n"
                "row = list(rows[2001])\n"
                "row[5], row[9] = row[9], row[5]\n"
                "rows[2001] = row\n"
                "try:\n"
                "    pf.FiniteGroup(rows)\n"
                "except pf.InputError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "table is not associative\n"

    def test_bad_tables_refused_under_optimize(self):
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                f"for table in ({LOOP5!r}, [[0, 1], [1, 1]]):\n"
                "    try:\n"
                "        pf.FiniteGroup(table)\n"
                "    except pf.InputError as exc:\n"
                "        print(__debug__, exc)\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["False table is not associative",
                                           "False table rows/columns are not permutations"]


# -- builders cell by cell against the oracles ------------------------------------------

def rows_of(g: pf.FiniteGroup) -> list[list[int]]:
    return [list(row) for row in g._rows]


class TestCellOracles:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_symmetric_tables(self, m):
        assert rows_of(pf.build_group(pf.Symmetric(m))) == oracle_symmetric_table(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_cyclic_tables(self, n):
        assert rows_of(pf.build_group(pf.Cyclic(n))) == oracle_cyclic_table(n)

    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10, 24])
    def test_dihedral_tables(self, order):
        assert rows_of(pf.build_group(pf.Dihedral(order))) == oracle_dihedral_table(order)

    @pytest.mark.parametrize("text", ["S3 wr C2", "D8 x S3", "(C2 x C2) wr C2"])
    def test_a_described_build_constructs_one_table(self, text, monkeypatch):
        # a product or wreath is built from its encoding, with no table of
        # its factors
        built = []
        init = pf.FiniteGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(pf.FiniteGroup, "__init__", counting_init)
        g = pf.build_group(pf.parse_group(text))
        assert built == [g]

    @pytest.mark.parametrize("left, right", [("C1", "S3"), ("S3", "C4"), ("D8", "S3"),
                                             ("C2 x C2", "C3"), ("S4", "C1")])
    def test_direct_products(self, left, right):
        for g, h in ((named_group(left), named_group(right)),
                     (relabelled(named_group(left), 1), relabelled(named_group(right), 2))):
            assert rows_of(pf.direct_product(g, h)) == oracle_product_table(g, h)

    @pytest.mark.parametrize("text, c", [("C1", 2), ("S3", 2), ("D8", 2), ("C3", 2), ("C1", 3),
                                         ("C3", 3), ("C2 x C2", 3), ("C2", 4), ("C3", 4),
                                         ("C2", 5)])
    def test_wreaths(self, text, c):
        # the relabelled base puts its identity off index 0, so the
        # wreath's identity is off index 0 too
        for g in (named_group(text), relabelled(named_group(text), c)):
            assert rows_of(pf.wreath_cyclic(g, c)) == oracle_wreath_table(g, c)

    def test_named_wreaths_and_products(self):
        for text in ("S3 wr C2", "C2 wr C2 wr C2", "C2 x S3", "(C2 x C2) wr C2"):
            g = named_group(text)
            d = g.descriptor
            if isinstance(d, pf.DirectProduct):
                expected = oracle_product_table(pf.build_group(d.left), pf.build_group(d.right))
            else:
                expected = oracle_wreath_table(pf.build_group(d.base), d.p)
            assert rows_of(g) == expected

    SUBGROUP_TEXTS = GROUP_TEXTS + ("C1", "S4", "D12", "C2 x S3", "S3 wr C2", "C2 wr C2 wr C2")

    @pytest.mark.parametrize("text", SUBGROUP_TEXTS)
    def test_centralizer_subgroups(self, text):
        # every proper centralizer a loop at p = 2, 3 or 5 builds
        for g in (named_group(text), relabelled(named_group(text), 3)):
            for p in (2, 3, 5):
                for rep, _ in pf.p_loop_decomposition(g, p):
                    elems = oracle_centralizer_indices(g, [rep])
                    if len(elems) < g.order:
                        assert rows_of(g.subgroup(elems)) == oracle_subgroup_table(g, elems)

    @pytest.mark.parametrize("text", SUBGROUP_TEXTS)
    def test_subgroups_of_random_pairs(self, text):
        # the relabelled group puts its identity off index 0; a pair of
        # identities generates the trivial subgroup, which has no generator
        rng = random.Random(text)
        for g in (named_group(text), relabelled(named_group(text), 4)):
            pairs = [(g.identity, g.identity)]
            pairs += [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(12)]
            for pair in pairs:
                elems = oracle_generated(g, pair)
                assert rows_of(g.subgroup(elems)) == oracle_subgroup_table(g, elems)

    @pytest.mark.parametrize("text", ["S3", "D8", "D12", "S4", "C2 wr C2"])
    def test_subgroup_refuses_sets_that_are_not_subgroups(self, text):
        # a centralizer less its identity, a coset of it, and it with one
        # element more: no subgroup of order |H| + 1 holds H when |H| > 1
        for g in (named_group(text), relabelled(named_group(text), 6)):
            for x in g.elements():
                h = oracle_centralizer_indices(g, [x])
                if len(h) == g.order:
                    continue
                outside = next(y for y in g.elements() if y not in h)
                for elems in ([y for y in h if y != g.identity], [g.mul(outside, y) for y in h],
                              h + (outside,), [x]):
                    with pytest.raises(InputError, match="^element set is not closed under "
                                                         "multiplication$"):
                        g.subgroup(elems)

    def test_is_abelian_is_the_transpose(self):
        groups = [named_group(t) for t in GROUP_TEXTS + ("C1", "S1", "S4", "D12", "C2 x C4",
                                                         "C3 x C3", "C2 x S3", "C2 wr C2",
                                                         "C1 wr C2", "C2 wr C3", "D8 wr C2")]
        groups += [relabelled(g, 5) for g in groups]
        for g in list(groups):
            for p in (2, 3, 5):
                groups += [c for _, c in oracle_p_loop_decomposition(g, p)]
        verdicts = [g.is_abelian() for g in groups]
        assert verdicts == [bool(np.array_equal(g.table, g.table.T)) for g in groups]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("text", GROUP_TEXTS + ("C1", "S4", "S5", "D12", "C2 x C2 x C2",
                                                    "C3 wr C2", "C2 wr C2 wr C2"))
    def test_greedy_generators_reach_every_element(self, text):
        for g in (named_group(text), relabelled(named_group(text), 7)):
            gens = list(pf.walks.greedy_generators(g._row, g.identity, g.elements()))
            assert len(gens) <= math.log2(g.order) + 1
            reached, todo = {g.identity}, [g.identity]
            while todo:
                x = todo.pop()
                for y in (g.mul(x, a) for a in gens):
                    if y not in reached:
                        reached.add(y)
                        todo.append(y)
            assert len(reached) == g.order


# -- generators held from construction ---------------------------------------------------

def counted_walks(monkeypatch) -> list[int]:
    """The identity of each greedy-generator walk, under either module's name."""
    walked = []
    greedy = pf.walks.greedy_generators

    def counting(row, identity, elements):
        walked.append(identity)
        return greedy(row, identity, elements)

    for module in (pf.groups, pf.walks):
        monkeypatch.setattr(module, "greedy_generators", counting)
    return walked


class TestHeldGenerators:
    @pytest.mark.parametrize("text", ["S4", "D8", "C2 wr C2"])
    def test_a_build_walks_its_generators_once(self, monkeypatch, text):
        # the builder's one walk gives the closure its generators, which
        # Light's test (S4, D8) and the abelian test read from the table
        walked = counted_walks(monkeypatch)
        g = pf.build_group(pf.parse_group(text))
        assert len(walked) == 1
        walked.clear()
        assert [g.is_abelian(), g.is_abelian()] == [False, False]
        assert walked == []

    @pytest.mark.parametrize("validate", [True, False])
    def test_a_caller_table_walks_its_generators_once(self, monkeypatch, validate):
        cells = relabelled(named_group("S4"), 3).table.tolist()
        walked = counted_walks(monkeypatch)
        g = pf.FiniteGroup(cells, validate=validate)
        assert walked == [g.identity]
        walked.clear()
        assert [g.is_abelian(), g.is_abelian()] == [False, False]
        assert walked == []

    @pytest.mark.parametrize("text", BUILDER_TEXTS + ("S5", "D8 wr C2", "C3 wr C3"))
    def test_held_generators_generate_the_table(self, text):
        # greedy in the group each table was read from: at most log2(n) + 1
        g = named_group(text)
        tables = [g, relabelled(g, 5)] + [c for p in (2, 3)
                                        for _, c in pf.p_loop_decomposition(g, p)
                                        if isinstance(c, pf.FiniteGroup)]
        for t in tables:
            assert len(t._gens) <= math.log2(t.order) + 1
            assert t.identity not in t._gens and len(set(t._gens)) == len(t._gens)
            assert oracle_generated(t, t._gens) == tuple(t.elements())


class TestPElements:
    @pytest.mark.parametrize("p", [0, 1, 4, 2.0, True], ids=repr)
    def test_a_non_prime_is_refused(self, p):
        # p = 1 divided the order forever, 0 by zero, and 4 answered
        g = named_group("S4")
        for call in (g.p_elements, partial(g.is_p_element, 1),
                     partial(pf.walks.p_elements, g.element_orders)):
            with pytest.raises(InputError, match=f"^expected a prime, got {p!r}$"):
                call(p)

    @pytest.mark.parametrize("text", GROUP_TEXTS + ("C1", "S4", "D12", "C3 wr C2"))
    def test_p_power_orders_by_repeated_products(self, text):
        g = named_group(text)
        for p in (2, 3, 5, 7):
            pelts = []
            for x in g.elements():
                power, k = x, 1
                while power != g.identity:
                    power, k = g.mul(power, x), k + 1
                while k % p == 0:
                    k //= p
                if k == 1:
                    pelts.append(x)
            assert g.p_elements(p) == tuple(pelts)
            assert [x for x in g.elements() if g.is_p_element(x, p)] == pelts


# -- the walks both engines share, against repeated multiplication ------------------------

def _engines(text):
    """The table of ``text``, a relabelled copy with its identity off index
    0, and the encoding, each read by the walks through its ``_row``."""
    g = named_group(text)
    return [g, relabelled(g, 11), pf.encoded.EncodedGroup(g.descriptor)]


class TestWalks:
    @pytest.mark.parametrize("text", BUILDER_TEXTS)
    def test_greedy_generators_are_least_outside_and_reach_every_element(self, text):
        for g in _engines(text):
            gens = list(pf.walks.greedy_generators(g._row, g.identity, range(g.order)))
            assert len(gens) <= math.log2(g.order) + 1
            for i, a in enumerate(gens):
                assert a == min(set(range(g.order)) - set(oracle_generated(g, gens[:i])))
            assert oracle_generated(g, gens) == tuple(range(g.order))

    @pytest.mark.parametrize("text", BUILDER_TEXTS)
    def test_orders_and_inverses_are_repeated_products(self, text):
        for g in _engines(text):
            orders, inverses = pf.walks.orders_and_inverses(g._row, g.identity, g.order,
                                                            AssertionError)
            assert (orders, inverses) == (tuple(g.element_orders), tuple(g.inverses))
            for x in range(g.order):
                power, k = x, 1
                while power != g.identity:
                    power, k = g.mul(power, x), k + 1
                assert orders[x] == k
                assert g.mul(x, inverses[x]) == g.identity == g.mul(inverses[x], x)

    @pytest.mark.parametrize("text", BUILDER_TEXTS)
    def test_commute_is_one_class_per_element(self, text):
        g = named_group(text)
        abelian = len(oracle_conjugacy_classes(g)) == g.order
        assert [pf.walks.commute(h._row, pf.walks.greedy_generators(h._row, h.identity,
                                                                    range(h.order)))
                for h in _engines(text)] == [abelian] * 3


# -- described groups on encoded elements against their tables --------------------------

# every kind, products on both sides of the flat-rows bound, and wreaths of
# degree 2 to 5
ENCODED_TEXTS = BUILDER_TEXTS + ("D10", "S5", "D8 x S3", "S3 x C4", "C2 x C2 x C3",
                                 "(C2 wr C2) x S3", "S4 x C1", "D8 wr C2", "C3 wr C3",
                                 "C2 wr C4", "C3 wr C4", "(C2 x C2) wr C3", "C2 wr C5",
                                 "C1 wr C5")
ENCODED_ZOO = GROUP_TEXTS + ("C1", "S4", "S5", "D10", "D12", "C2 x S3", "S3 wr C2",
                             "C2 wr C2 wr C2", "D8 wr C2", "C3 wr C3")


class TestEncodedElements:
    @pytest.mark.parametrize("text", ENCODED_TEXTS)
    def test_mul_is_the_table(self, text):
        # against the oracle table: the built table is read off mul itself
        g = named_group(text)
        e = pf.encoded.EncodedGroup(g.descriptor)
        assert (e.order, e.identity) == (g.order, g.identity)
        assert [[e.mul(a, b) for b in g.elements()] for a in g.elements()] == \
            oracle_described_table(g.descriptor)

    @pytest.mark.parametrize("text", ENCODED_ZOO)
    def test_orders_classes_and_centralizers_are_the_tables(self, text):
        # the class walk on encoded elements and on the table, against the
        # table route: members, representatives and centralizer index sets
        g = named_group(text)
        e = pf.encoded.EncodedGroup(g.descriptor)
        assert (tuple(e.element_orders), tuple(e.inverses)) == (g.element_orders, g.inverses)
        for p in (2, 3, 5):
            oracle = [(c.representative, list(c.members),
                       oracle_centralizer_indices(g, [c.representative]))
                      for c in oracle_classes_of(g, g.p_elements(p))]
            for group in (e, g):
                assert list(pf.walks.classes(group, g.p_elements(p))) == oracle

    @pytest.mark.parametrize("text", ENCODED_ZOO)
    def test_decomposition_is_the_tables(self, text):
        # the group itself, an abelian centralizer's invariant factors, or
        # the rows and name the table route gives a non-abelian one, on
        # encoded elements and on the table alike
        g = named_group(text)
        for p in (2, 3, 5):
            e = pf.encoded.EncodedGroup(g.descriptor)
            held_to_the_oracle(g, e, pf.walks.p_loop_decomposition(e, p), p)
            held_to_the_oracle(g, g, pf.p_loop_decomposition(g, p), p)


# -- the table format ------------------------------------------------------------------

class TestTableFormat:
    @pytest.mark.parametrize("text", BUILDER_TEXTS + ("D272", "C2 x D136"))
    def test_builder_rows_are_the_table_in_shared_ints(self, text):
        # a builder's rows reach the group as built: plain tuples sharing one
        # int per element, row-major as the ndarray copy has them
        g = pf.build_group(pf.parse_group(text))
        assert type(g._rows) is tuple and all(type(row) is tuple for row in g._rows)
        assert len({id(v) for row in g._rows for v in row}) == g.order
        assert g._rows == tuple(map(tuple, g.table.tolist()))

    @pytest.mark.parametrize("text", ["D1000", "S4 wr C2", "S6", "C3 wr C3"])
    def test_build_peak_is_one_table(self, text):
        # one pointer per cell, with no second copy of the table while it is
        # built (re-sharing the builder's rows peaked at 16 bytes per cell);
        # a closure holds only its generator rows beside the table
        d = pf.parse_group(text)
        gc.collect()
        tracemalloc.start()
        try:
            g = pf.build_group(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * g.order ** 2

    def test_table_is_a_read_only_ndarray(self):
        g = named_group("S3")
        assert isinstance(g.table, np.ndarray) and g.table.dtype == np.int64
        assert not g.table.flags.writeable
        with pytest.raises(ValueError):
            g.table[0, 0] = 1

    @pytest.mark.parametrize("text", ["S3", "D8", "C2 wr C2", "S4"])
    def test_ndarray_round_trip_and_relabel(self, text):
        g = named_group(text)
        assert pf.FiniteGroup(g.table) == g
        assert pf.FiniteGroup(g.table.tolist(), validate=False) == g
        # the relabelling that tools outside the library apply to tables
        perm = np.concatenate(([0], 1 + np.random.default_rng(3).permutation(g.order - 1)))
        inverse = np.argsort(perm)
        relabelled = pf.FiniteGroup(perm[g.table[np.ix_(inverse, inverse)]], validate=False)
        assert pf.FiniteGroup(relabelled.table) == relabelled
        assert sorted(relabelled.element_orders) == sorted(g.element_orders)
        for p in (2, 3):
            for n in range(4):
                assert (pf.count_commuting_p_tuples(relabelled, p, n)
                        == pf.count_commuting_p_tuples(g, p, n))

    def test_malformed_tables_are_input_errors(self):
        for table in ([], [[0, 1]], [[0, 1], [1]], [[0, 2], [2, 0]], [[0, -1], [-1, 0]],
                      [[0.0, 1.0], [1.0, 0.0]], [0, 1], np.zeros((2, 2, 2), dtype=int)):
            with pytest.raises(InputError):
                pf.FiniteGroup(table, validate=False)

    def test_subgroup_refuses_open_sets(self):
        s3 = named_group("S3")
        transposition = next(x for x in s3.elements() if s3.element_orders[x] == 2)
        with pytest.raises(InputError, match="not closed"):
            s3.subgroup([s3.identity, transposition, 1 if transposition != 1 else 2])
        for elems in ([0, 6], [-1, 0], []):
            with pytest.raises(InputError):
                s3.subgroup(elems)

    @pytest.mark.parametrize("text", ["S4", "D12", "C2 x S3", "S3 wr C2"])
    def test_subgroup_rows_are_shared_plain_tuples(self, text):
        # closure-checked rows reach the constructor as built: plain tuples
        # sharing one int per element, the same group a validated
        # construction from outside gives
        g = named_group(text)
        for x in g.elements():
            # sorted: element i of the subgroup is elems[i] of g
            elems = oracle_centralizer_indices(g, [x])
            sub = g.subgroup(elems)
            rows = sub._rows
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert len({id(v) for row in rows for v in row}) == sub.order
            assert pf.FiniteGroup(sub.table) == sub
            assert all(g.mul(elems[a], elems[b]) == elems[sub.mul(a, b)]
                       for a in sub.elements() for b in sub.elements())

    def test_large_subgroup_rows_share_ints(self):
        # above 256 elements Python has no cached small ints, so only
        # deliberate sharing leaves one int object per element
        d600 = named_group("D600")
        rotation = max(d600.elements(), key=d600.element_orders.__getitem__)
        sub = d600.subgroup(oracle_centralizer_indices(d600, [rotation]))
        assert sub.order == 300
        assert len({id(v) for row in sub._rows for v in row}) == 300

    def test_hash_taken_on_first_use(self):
        # a loop of a described group hashes its centralizer tables, which
        # normal forms key by, never the group's own table
        x = pf.parse_space("B(S4)")
        looped = pf.normal_form(pf.p_adic_loop(x, 2))
        assert repr(looped) == "NormalForm(B(C_{S4}(7)) + B(S4) + B^1(C2 x C2) + B^1(C4))"
        centralizer = looped.components[0][0][0].group
        assert x.table._hash is None and centralizer._hash == hash(centralizer._rows)
        g = pf.FiniteGroup(x.table.table)
        assert g._hash is None
        assert hash(g) == hash(x.table) == hash(g._rows) == g._hash

    def test_table_memory(self):
        # one pointer per cell; every row shares the same int objects, so
        # there is no int object per cell (that would cost about 4x)
        gc.collect()
        tracemalloc.start()
        try:
            g = pf.build_group(pf.Dihedral(1000))
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.order == 1000
        assert kept <= 8 * g.order ** 2 + 128 * g.order


class TestIntegerInputs:
    """Every order, degree and tuple length is a non-bool int, refused by
    type before any table is built: ``3.0 == 3`` and ``True == 1`` pass
    every range check an int passes."""

    @pytest.fixture(autouse=True)
    def no_table_built(self, monkeypatch):
        named_group("S3")       # held before the guard
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: pf.build_group(pf.Cyclic(v)),
        lambda v: pf.build_group(pf.Symmetric(v)),
        lambda v: pf.build_group(pf.Dihedral(v)),
        lambda v: pf.build_group(pf.Wreath(pf.Cyclic(2), v)),
        lambda v: pf.build_group(pf.DirectProduct(pf.Cyclic(2), pf.Cyclic(v))),
        lambda v: pf.wreath_cyclic(named_group("S3"), v),
        lambda v: pf.count_commuting_p_tuples(named_group("S3"), 2, v),
    ], ids=["Cyclic", "Symmetric", "Dihedral", "Wreath degree", "DirectProduct factor",
            "wreath_cyclic", "count_commuting_p_tuples"])
    def test_non_ints_refused(self, call, value):
        with pytest.raises(InputError):
            call(value)

    def test_bool_cyclic_order_refused(self):
        # built an order-1 group named CTrue
        with pytest.raises(InputError, match="^Cyclic order must be an int, got True$"):
            pf.build_group(pf.Cyclic(True))

    def test_float_cyclic_order_is_an_input_error(self):
        # raised a bare AttributeError ('float' has no 'bit_length')
        with pytest.raises(InputError, match=r"^Cyclic order must be an int, got 2\.0$"):
            pf.build_group(pf.Cyclic(2.0))

    def test_bool_tuple_length_refused(self):
        # answered 4, the count at length 1
        with pytest.raises(InputError, match="^tuple length must be an int, got True$"):
            pf.count_commuting_p_tuples(named_group("S3"), 2, True)

    # subgroup read 0.0 and 1.9 as 0 and 1; centralizer of 1.0 or "1" raised
    # a bare TypeError, and of True built C_{S3}(True), which the element
    # cache then handed to 1.0.  The ids of the two methods the centralizer
    # was read through name its reads of an iterator and of a second table
    @pytest.mark.parametrize("value", [1.0, 1.9, True, "1"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: named_group("S3").subgroup([0, v]),
        lambda v: pf.centralizer(named_group("S3"), iter([v])),
        lambda v: pf.centralizer(named_group("D8"), (v,)),
        lambda v: pf.centralizer(named_group("S3"), [v]),
        lambda v: pf.centralizer(named_group("S3"), [0, v]),
    ], ids=["subgroup", "centralizer_indices", "centralizer_subgroup", "centralizer of one",
            "centralizer of two"])
    def test_element_indices_refused(self, call, value):
        with pytest.raises(InputError, match="^element index must be an int, got "):
            call(value)

    def test_range_messages_kept(self):
        with pytest.raises(InputError, match=r"^Symmetric degree must be in 1\.\.6, got 7$"):
            pf.build_group(pf.Symmetric(7))
        with pytest.raises(InputError, match="^Dihedral order must be even and >= 2, got 7$"):
            pf.build_group(pf.Dihedral(7))
        with pytest.raises(InputError, match="^wreath degree must be >= 2, got 1$"):
            pf.wreath_cyclic(named_group("S3"), 1)
        with pytest.raises(InputError, match="^element index 6 out of range$"):
            pf.centralizer(named_group("S3"), [6])


class TestTablesOnly:
    """The entry points that read a table refuse anything else with
    ``InputError``, as every other public entry point refuses bad input: a
    descriptor or an int raised a bare AttributeError.  A table's name is a
    str, refused otherwise where it is given, not later where a product or
    wreath is named from it."""

    @pytest.mark.parametrize("value", [pf.Symmetric(3), 5], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda g: pf.count_commuting_p_tuples(g, 2, 1),
        pf.conjugacy_classes,
        lambda g: pf.centralizer(g, [0]),
        lambda g: pf.p_loop_decomposition(g, 2),
        lambda g: pf.wreath_cyclic(g, 2),
        lambda g: pf.direct_product(g, named_group("C2")),
        lambda g: pf.direct_product(named_group("C2"), g),
        lambda g: pf.verify_wreath_identity(g, 2, 1),
    ], ids=["count_commuting_p_tuples", "conjugacy_classes", "centralizer",
            "p_loop_decomposition", "wreath_cyclic", "direct_product left",
            "direct_product right", "verify_wreath_identity"])
    def test_non_tables_refused(self, call, value):
        message = f"^expected a FiniteGroup, got {re.escape(repr(value))}$"
        with pytest.raises(InputError, match=message):
            call(value)

    @pytest.mark.parametrize("name", [5, None, b"G"], ids=repr)
    def test_non_str_names_refused(self, name):
        # a name of 5 was held, and wreath_cyclic and verify_wreath_identity
        # then raised a bare TypeError from its test for a space
        message = f"^a group's name must be a str, got {name!r}$"
        with pytest.raises(InputError, match=message):
            pf.FiniteGroup([[0, 1], [1, 0]], name=name)
        with pytest.raises(InputError, match=message):
            named_group("S3").subgroup([named_group("S3").identity], name=name)


def test_constructor_takes_no_descriptor():
    # the descriptor is set by the builder alone
    with pytest.raises(TypeError):
        pf.FiniteGroup([[0]], descriptor=pf.Cyclic(1))
    assert pf.FiniteGroup([[0]]).descriptor is None
    assert pf.build_group(pf.Cyclic(3)).descriptor == pf.Cyclic(3)
