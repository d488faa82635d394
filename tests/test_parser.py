import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from conftest import GROUP_TEXTS, named_group, random_space_expr
from hypothesis import given, settings
from hypothesis import strategies as st

import pifinite as pf
from pifinite import ParseError, parse_group, parse_space, space_text
from pifinite.groups import descriptor_name


class TestGrammar:
    def test_em_times_set(self):
        x = parse_space("B^2(C3) * 2")
        assert pf.normal_form(x) == pf.normal_form(
            pf.product(pf.em_space([3], 2), pf.finite_set(2)))

    def test_classifying_plus_point(self):
        x = parse_space("B(S3) + pt")
        assert pf.normal_form(x) == pf.normal_form(
            pf.disjoint_union(pf.classifying(named_group("S3")), pf.PT))

    def test_em_of_product_group(self):
        x = parse_space("B^3(C2 x C4)")
        assert x == pf.em_space([2, 4], 3)

    def test_zero_and_point(self):
        assert parse_space("0") == pf.EMPTY
        assert parse_space("pt") == pf.PT
        assert parse_space("1") == pf.PT

    def test_degree_zero_collapses(self):
        assert parse_space("B^0(C3)") == pf.finite_set(3)
        assert parse_space("B^0(C2 x C3)") == pf.finite_set(6)

    def test_degree_one_matches_classifying(self):
        assert pf.normal_form(parse_space("B^1(C2)")) == pf.normal_form(parse_space("B(C2)"))
        assert pf.normal_form(parse_space("B(C6)")) == pf.normal_form(parse_space("B^1(C2 x C3)"))

    def test_precedence(self):
        x = parse_space("B(C2) + 2 * B^2(C3)")
        assert isinstance(x, pf.Disjoint)
        y = parse_space("(B(C2) + 2) * 2")
        assert isinstance(y, pf.Product)
        assert pf.height_cardinality(y, 2, 0) == 5

    def test_wreath_groups(self):
        x = parse_space("B(C2 wr C2)")
        assert isinstance(x, pf.Classifying) and x.table.order == 8
        nested = parse_space("B(C2 wr C2 wr C2)")
        assert nested.table.order == 8 ** 2 * 2

    def test_wreath_binds_tighter_than_product(self):
        x = parse_space("B(C2 x C2 wr C2)")
        assert x == pf.product(pf.em_space([2], 1), pf.Classifying(pf.Wreath(pf.Cyclic(2), 2)))
        assert pf.normal_form(x) == pf.normal_form(
            pf.product(pf.em_space([2], 1), pf.classifying(named_group("C2 wr C2"))))

    def test_dihedral_and_symmetric(self):
        assert parse_space("B(D8)").table.order == 8
        assert parse_space("B(S4)").table.order == 24


ABELIAN_TEXTS = tuple(f"C{n}" for n in range(2, 13)) + ("C2 x C4", "C2 x C2 x C3")


class TestAbelianRoute:
    def test_parses_to_em_atom_without_a_table(self, build_calls):
        assert parse_space("B(C6)") == pf.em_space([2, 3], 1)
        whole = parse_space("B(C2 x C2 x C3)")
        assert whole == pf.product(pf.em_space([2], 1), pf.em_space([2], 1), pf.em_space([3], 1))
        assert pf.normal_form(whole) == pf.normal_form(pf.em_space([2, 2, 3], 1))
        assert parse_space("B(C1)") == pf.PT
        assert build_calls == []
        x = parse_space("B(C2 wr C2) * B(C2 x S3)")
        pf.normal_form(x)
        assert build_calls == []
        # a described atom loops on encoded elements
        pf.p_adic_loop(x, 2)
        assert build_calls == []

    @pytest.mark.parametrize("text", ABELIAN_TEXTS)
    def test_matches_table_route(self, text):
        parsed = parse_space(f"B({text})")
        # the raw atom, so the table side counts tuples, not the EM formula
        table = pf.Classifying(pf.build_group(pf.parse_group(text)))
        for p in (2, 3, 5):
            for n in range(4):
                assert pf.height_cardinality(parsed, p, n) == pf.height_cardinality(table, p, n)
            assert pf.normal_form(pf.p_adic_loop(parsed, p)) == \
                pf.normal_form(pf.p_adic_loop(table, p))


PRODUCT_TEXTS = GROUP_TEXTS + ("S4",)


class TestProductRule:
    @pytest.mark.parametrize("g, h", itertools.combinations_with_replacement(PRODUCT_TEXTS, 2))
    def test_product_of_classifying_spaces(self, g, h):
        whole = parse_space(f"B({g} x {h})")
        split = parse_space(f"B({g}) * B({h})")
        table = pf.Classifying(pf.build_group(pf.parse_group(f"{g} x {h}")))
        for p in (2, 3):
            assert pf.height_profile(whole, p, 3) == pf.height_profile(split, p, 3) == \
                pf.height_profile(table, p, 3)
        assert pf.normal_form(whole) == pf.normal_form(table) == pf.normal_form(split)

    def test_builds_only_the_factors(self, build_calls):
        whole = parse_space("B(D200 x S4)")
        assert build_calls == []
        # each factor is counted from its descriptor: D200, with m = 100 = 4 * 25,
        # gives (2^2 + 50 (4 - 2)) / 200, and S4 its 16 2-elements over 24
        assert pf.height_cardinality(whole, 2, 1) == Fraction(104, 200) * Fraction(16, 24)
        pf.normal_form(whole)
        assert build_calls == []
        pf.p_adic_loop(whole, 2)
        assert build_calls == []
        mixed = parse_space("B(C2 x S3 x C3)")
        assert mixed == pf.product(pf.em_space([2], 1), pf.Classifying(pf.Symmetric(3)),
                                   pf.em_space([3], 1))
        assert pf.normal_form(mixed) == pf.normal_form(
            pf.product(pf.em_space([2, 3], 1), pf.classifying(named_group("S3"))))
        # an abelian factor is the EM atom its descriptor names, merged in
        # the normal form
        abelian = parse_space("B(S2 x C3 x D4)")
        assert abelian == pf.product(pf.em_space([2], 1), pf.em_space([3], 1),
                                     pf.em_space([2, 2], 1))
        assert pf.normal_form(abelian) == pf.normal_form(pf.em_space([2, 3, 2, 2], 1))

    def test_whole_product_checked_before_any_table(self, build_calls):
        with pytest.raises(pf.ResourceBudgetError, match="order 13824 exceeds the cap"):
            parse_space("B(S4 x S4 x S4)")
        with pytest.raises(pf.InputError, match="Symmetric degree"):
            parse_space("B(S7 x C2)")
        assert build_calls == []


class TestLazyTables:
    """Parsing builds no table, and neither does a height count or a loop of
    a parsed atom; a table is built when ``Classifying.table`` is first
    read, and held."""

    def test_parsing_builds_no_table(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)
        x = parse_space("B(S6) * B(D200 x S4) + B(C2 wr C2)")
        assert space_text(x) == "B(S6) * B(D200) * B(S4) + B(C2 wr C2)"

    def test_each_atom_built_once(self, build_calls):
        # a height count reads a non-abelian descriptor, not its table
        pf.height_profile(parse_space("B(S4) * B(D8)"), 2, 5)
        pf.height_cardinality(parse_space("B(S6) + B(C2 wr C3)"), 3, 4)
        assert build_calls == []
        atom = parse_space("B(S4)")
        pf.normal_form(atom)
        pf.p_adic_loop(atom, 3)
        assert build_calls == []
        assert atom.table is atom.table
        assert [descriptor_name(d) for d in build_calls] == ["S4"]

    def test_equal_atoms_share_one_table(self, build_calls):
        x = parse_space("B(S4) * B(S4) + B(S4 x D8) + B(D8)")
        pf.normal_form(x)
        pf.normal_form(pf.p_adic_loop(x, 2))
        assert build_calls == []
        pf.p_adic_loop(parse_space("B(S4)"), 2)
        assert build_calls == []

    def test_isomorphic_spellings_share_one_table(self, build_calls):
        # B(D6) is B(S3); each loop's whole-group component is the atom it
        # was read from, and three loops build no table
        x = parse_space("B(S4) * B(S4) + B(D6) + B(S3)")
        for _ in range(3):
            x = pf.normal_form(pf.p_adic_loop(x, 3)).to_expr()
        assert build_calls == []

    @pytest.mark.parametrize("text, error, message", [
        ("B(C5 wr C5) + )", pf.ResourceBudgetError, "order 15625 exceeds the cap"),
        ("B(S7) * (", pf.InputError, "Symmetric degree"),
    ])
    def test_a_refused_group_before_a_syntax_error(self, text, error, message, build_calls):
        with pytest.raises(error, match=message):
            parse_space(text)
        assert build_calls == []


class TestErrors:
    def test_syntax_error_builds_no_table(self, build_calls):
        with pytest.raises(ParseError, match="expected a factor"):
            parse_space("B(S6) +")
        with pytest.raises(ParseError, match="trailing input"):
            parse_space("B(S3) * B(D8))")
        assert build_calls == []

    @pytest.mark.parametrize("text,pos", [
        ("B(", 2),
        ("2 +", 3),
        ("B^(C2)", 2),
        ("B(Q8)", 2),
        ("B(C2))", 5),
        ("", 0),
        ("B(C2) @ pt", 6),
        ("B^\u00b2(C2)", 2),          # a superscript two is a digit that int() refuses
    ])
    def test_position_reported(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_space(text)
        assert err.value.position == pos
        assert f"position {pos}" in str(err.value)

    @pytest.mark.parametrize("text,pos", [
        ("7" * 4301, 0), (f"B(C{'7' * 4301})", 3), (f"B^{'7' * 4301}(C2)", 2),
        (f"B(S3) + B(C2 wr C{'7' * 4301})", 17),
    ])
    def test_long_numbers_are_refused_before_int(self, text, pos):
        with pytest.raises(pf.ResourceBudgetError,
                           match=f"^the number at position {pos} exceeds the 4300-digit budget"):
            parse_space(text)
        assert parse_space("7" * 4300) == pf.finite_set(int("7" * 4300))

    @pytest.mark.parametrize("text", [5, b"B(S3)", ["B(S3)"], None])
    @pytest.mark.parametrize("parse", [parse_space, parse_group])
    def test_text_that_is_not_a_str_is_refused(self, parse, text):
        with pytest.raises(pf.InputError, match="must be a str"):
            parse(text)

    def test_bad_group_sizes_are_input_errors(self):
        with pytest.raises(pf.InputError):
            parse_space("B(S9)")
        with pytest.raises(pf.InputError):
            parse_space("B(D7)")


# text that nests 101 levels, one past the bound: parentheses, "wr" links,
# "x" links, and mixes of them
TOO_DEEP = {
    "parentheses": "(" * 101 + "pt" + ")" * 101,
    "wr links": "B(C1" + " wr C2" * 100 + ")",
    "x links": "B(C2" + " x C2" * 100 + ")",
    "group parentheses": "B(" + "(" * 100 + "C1" + ")" * 100 + ")",
    "x links in parentheses": "B(" + "(C1 x " * 50 + "C1" + ")" * 50 + ")",
}


class TestNesting:
    @pytest.mark.parametrize("name", TOO_DEEP)
    def test_past_the_bound_is_refused_before_any_table(self, name, build_calls):
        with pytest.raises(pf.ResourceBudgetError, match="100-level bound"):
            parse_space(TOO_DEEP[name])
        assert build_calls == []

    def test_just_inside_the_bound_answers(self):
        assert parse_space("(" * 100 + "pt" + ")" * 100) == pf.PT
        assert parse_space("B(C1" + " x C1" * 99 + ")") == pf.PT
        assert parse_space("B(" + "(C1 x " * 49 + "C1" + ")" * 49 + ")") == pf.PT
        assert parse_space("B(" + "(" * 99 + "C2" + ")" * 99 + ")") == pf.em_space([2], 1)
        # the links of one group end with it: siblings do not add up
        assert parse_space(" * ".join(["B(C1" + " x C1" * 98 + ")"] * 3)) == pf.PT
        # a group alone has no "B(" around it
        for link, kind in ((" x C1", pf.DirectProduct), (" wr C2", pf.Wreath)):
            assert isinstance(parse_group("C1" + link * 100), kind)
            with pytest.raises(pf.ResourceBudgetError, match="100-level bound"):
                parse_group("C1" + link * 101)

    def test_flat_lists_are_not_bounded(self):
        # EM factor lists and "+" and "*" chains build no nested value
        assert pf.height_cardinality(parse_space("B^1(C1" + " x C1" * 500 + ")"), 2, 1) == 1
        assert pf.height_cardinality(parse_space(" + ".join(["pt"] * 500)), 2, 1) == 500
        assert pf.height_cardinality(parse_space(" * ".join(["2"] * 500)), 2, 0) == 2 ** 500


# fuzzed text: well-formed groups and spaces, and strings of pieces, which
# are the grammar's tokens and whitespace, characters outside the grammar,
# digit runs up to past the digit budget, chains that nest past
# MAX_NESTING, and well-formed groups and spaces
_GROUP_TEXT = st.recursive(
    st.sampled_from(["C1", "C2", "C9973", "S3", "S7", "D6", "D8"]),
    lambda g: st.one_of(st.builds("{} x {}".format, g, g), st.builds("({})".format, g),
                        st.builds("{} wr C{}".format, g, st.integers(1, 5))),
    max_leaves=6)
_SPACE_TEXT = st.recursive(
    st.one_of(st.sampled_from(["pt", "0", "2", "B^2(C2 x C4)", "B^0(C3)"]),
              _GROUP_TEXT.map("B({})".format)),
    lambda x: st.one_of(st.builds("{} + {}".format, x, x), st.builds("{} * {}".format, x, x),
                        st.builds("({})".format, x)),
    max_leaves=4)
_PIECES = st.one_of(
    st.sampled_from(["B", "(", ")", "^", "C", "S", "D", "x", "wr", "pt", "+", "*",
                     " ", "\t", "\u3000"]),
    st.sampled_from(["@", "_", "\u0663", "\u00b2", "p", "w", "Q", "\u00e9"]),
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(["9973", "7" * 4300, "7" * 4301]),
    st.builds(lambda link, n: link * n, st.sampled_from(["(", ")", " wr C2", " x C1", "(C1 x "]),
              st.integers(95, 105)),
    _GROUP_TEXT, _SPACE_TEXT)
_FUZZ_TEXTS = st.one_of(_GROUP_TEXT, _SPACE_TEXT, st.lists(_PIECES, max_size=8).map("".join))


def _refuse_table(self, *args, **kwargs):
    raise AssertionError("a table was built")


class TestFuzz:
    """Any text parses or is refused with an InputError or a
    ResourceBudgetError, and builds no table."""

    @staticmethod
    def parse(parse, text):
        try:
            return parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        except (pf.InputError, pf.ResourceBudgetError):
            pass
        return None

    @settings(max_examples=150, deadline=None)
    @given(_FUZZ_TEXTS)
    def test_space_text(self, text):
        with mock.patch.object(pf.FiniteGroup, "__init__", _refuse_table):
            x = self.parse(parse_space, text)
            if x is not None:
                assert pf.normal_form(parse_space(space_text(x))) == pf.normal_form(x)

    @settings(max_examples=150, deadline=None)
    @given(_FUZZ_TEXTS)
    def test_group_text(self, text):
        with mock.patch.object(pf.FiniteGroup, "__init__", _refuse_table):
            self.parse(parse_group, text)


def _loop_output(text: str, p: int) -> pf.SpaceExpr:
    """What `loop` prints for B(text) at p, as an expression."""
    return pf.normal_form(pf.p_adic_loop(pf.classifying(named_group(text)), p)).to_expr()


# one expression per atom kind, then the `loop` output of every zoo group at
# p = 2 and 3, each of which prints only descriptor names
ROUNDTRIP_CASES = {
    "EM atom": lambda: pf.em_space([4, 6], 2),
    "abelian table": lambda: pf.classifying(named_group("C2 x C2")),
    **{f"B({t})": (lambda t=t: pf.classifying(named_group(t)))
       for t in ("S3", "D8", "C2 x S3", "C2 wr C2", "(C2 x C2) wr C2")},
    **{f"loop B({t}) at {p}": (lambda t=t, p=p: _loop_output(t, p))
       for t in GROUP_TEXTS for p in (2, 3)},
}


class TestPrinting:
    @pytest.mark.parametrize("case", ROUNDTRIP_CASES)
    def test_printed_space_parses_back(self, case):
        x = ROUNDTRIP_CASES[case]()
        text = space_text(x)
        assert "C_{" not in text
        assert pf.normal_form(parse_space(text)) == pf.normal_form(x)

    def test_examples(self):
        assert space_text(parse_space("B^2(C3) * 2")) == "B^2(C3) * 2"
        assert space_text(parse_space("B(S3) + pt")) == "B(S3) + pt"
        assert space_text(pf.EMPTY) == "0"
        assert space_text(pf.PT) == "pt"

    def test_parenthesizes_sums_inside_products(self):
        x = pf.product(pf.disjoint_union(pf.PT, pf.PT), pf.classifying(named_group("C2")))
        text = space_text(x)
        assert pf.normal_form(parse_space(text)) == pf.normal_form(x)

    def test_roundtrip_small_corpus(self):
        rng = random.Random(12)
        for _ in range(60):
            x = random_space_expr(rng)
            text = space_text(x)
            reparsed = parse_space(text)
            assert pf.normal_form(reparsed) == pf.normal_form(x)
            assert pf.normal_form(parse_space(space_text(reparsed))) == pf.normal_form(x)

    def test_group_names_parse_back(self):
        c2, s3, d8 = pf.Cyclic(2), pf.Symmetric(3), pf.Dihedral(8)
        prod, wr = pf.DirectProduct, pf.Wreath
        for d in (wr(wr(c2, 2), 2), wr(prod(c2, c2), 2), wr(prod(s3, wr(c2, 2)), 3),
                  prod(c2, prod(s3, d8)), prod(prod(c2, s3), d8), prod(wr(c2, 2), prod(c2, c2)),
                  wr(wr(prod(c2, prod(c2, c2)), 2), 3), prod(wr(wr(c2, 3), 2), s3)):
            assert parse_group(descriptor_name(d)) == d
        assert parse_group("((C2)) wr C2") == wr(c2, 2)

    def test_normal_form_expr_is_printable(self):
        x = parse_space("B(S3) * B(D8) + 4")
        nf = pf.normal_form(x)
        assert pf.normal_form(parse_space(space_text(nf.to_expr()))) == nf
