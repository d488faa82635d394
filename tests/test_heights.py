import random
from fractions import Fraction

import pytest
from conftest import named_group, oracle_looped_cardinality

import pifinite as pf
import pifinite.checks as checks
from pifinite import InputError, LayerClass, ResourceBudgetError, vp
from pifinite.rationals import MAX_DIGITS, MAX_VALUES


def random_p_integral(rng: random.Random, p: int, v: int) -> Fraction:
    """Random rational with exact valuation v."""
    def unit():
        while True:
            s = rng.randint(1, 9999) * rng.choice((1, -1))
            if s % p:
                return s
    return Fraction(p) ** v * Fraction(unit(), unit() * rng.choice((1, 1, -1)))


class TestDelta:
    def test_fixed_points_and_values(self):
        for p in (2, 3, 5):
            assert pf.delta(1, p) == 0
            assert pf.delta(0, p) == 0
        assert pf.delta(2, 2) == -1
        assert pf.delta(6, 3) == -70
        assert pf.delta(Fraction(2, 3), 2) == Fraction(1, 9)

    def test_rejects_negative_valuation(self):
        with pytest.raises(InputError):
            pf.delta(Fraction(1, 2), 2)
        with pytest.raises(InputError):
            pf.delta(Fraction(5, 9), 3)

    def test_integers_stay_integers(self):
        rng = random.Random(0)
        for _ in range(50):
            a = rng.randint(-500, 500)
            out = pf.delta(a, 3)
            assert out.denominator == 1

    def test_valuation_drop(self):
        rng = random.Random(1)
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            v = rng.randint(1, 6)
            a = random_p_integral(rng, p, v)
            assert vp(a, p) == v
            assert vp(pf.delta(a, p), p) == v - 1

    def test_additive_deviation_law(self):
        rng = random.Random(2)
        for _ in range(300):
            p = rng.choice((2, 3))
            x = random_p_integral(rng, p, rng.randint(0, 4))
            y = random_p_integral(rng, p, rng.randint(0, 4))
            deviation = Fraction(x ** p + y ** p - (x + y) ** p, p)
            assert pf.delta(x + y, p) == pf.delta(x, p) + pf.delta(y, p) + deviation


class TestDeltaIter:
    def test_values(self):
        assert pf.delta_iter(4, 2, 1) == -6
        assert pf.delta_iter(Fraction(7, 5), 3, 0) == Fraction(7, 5)

    def test_gamma_valuation_pattern(self):
        for p in (2, 3):
            for k in range(1, 4):
                for n in range(k, 7):
                    gamma = pf.delta_iter(p ** (n - 1), p, k - 1)
                    assert vp(gamma, p) == n - k

    def test_spot_value(self):
        assert pf.delta_iter(2 ** 3, 2, 1) == -28
        assert vp(-28, 2) == 2

    def test_digit_budget(self):
        with pytest.raises(ResourceBudgetError):
            pf.delta_iter(10 ** 40, 2, 9)
        # the budget counts decimal digits: at p = 2, delta(a) = (a - a^2)/2,
        # so a = 10^k + 1 gives -(10^k + 1) 10^k / 2, of 2k digits
        for k in (MAX_DIGITS // 2, MAX_DIGITS // 2 + 1):
            a = 10 ** k + 1
            if 2 * k <= MAX_DIGITS:
                assert pf.delta_iter(a, 2, 1) == -(a * 10 ** k // 2)
            else:
                with pytest.raises(ResourceBudgetError,
                                   match=f"delta iterate exceeds the {MAX_DIGITS}-digit budget"):
                    pf.delta_iter(a, 2, 1)
        # a denominator counts too: delta(1/3) at p = 2 is 1/9
        assert pf.delta_iter(Fraction(1, 3), 2, 1) == Fraction(1, 9)
        with pytest.raises(InputError):
            pf.delta_iter(2, 2, -1)

    def test_step_refused_before_the_power(self):
        # 10^100000007 would take minutes; each of these is refused at once
        for a, p in ((10, 100000007), (Fraction(1, 7), 10000019), (Fraction(7, 3), 10007)):
            with pytest.raises(ResourceBudgetError, match="delta iterate exceeds"):
                pf.delta_iter(a, p, 1)
        with pytest.raises(ResourceBudgetError, match="delta iterate exceeds"):
            pf.delta(10, 100000007)

    def test_delta_is_one_checked_step(self):
        # delta(1/v) has denominator v^2: 4303 digits here, refused by delta
        # as delta_iter refuses it
        a = Fraction(1, 3 * 10 ** 2150 + 1)
        for step in (lambda: pf.delta(a, 2), lambda: pf.delta_iter(a, 2, 1)):
            with pytest.raises(ResourceBudgetError,
                               match=f"delta iterate exceeds the {MAX_DIGITS}-digit budget"):
                step()

    def test_refusal_never_prints_an_unprintable_value(self):
        # str() of 1/2^15000 would raise ValueError past the digit budget
        a = Fraction(1, 2 ** 15000)
        for step in (lambda: pf.delta(a, 2), lambda: pf.delta_iter(a, 2, 3)):
            with pytest.raises(InputError) as info:
                step()
            assert str(info.value) == ("delta needs vp(a) >= 0, got vp=-15000 for a value "
                                       f"past the {MAX_DIGITS}-digit budget")
        # a printable value keeps its message
        with pytest.raises(InputError) as info:
            pf.delta(Fraction(5, 9), 3)
        assert str(info.value) == "delta needs vp(a) >= 0, got vp=-2 for a=5/9"

    def test_periodic_orbit_matches_stepping(self):
        # 0 and 1 fall to the fixed point 0, -1 is fixed at p = 2, and
        # 2 -> -2 -> 2 at p = 3; a repeat answers from the cycle
        for a, p in ((0, 2), (1, 2), (-1, 2), (2, 3), (1, 5), (Fraction(1, 2), 3)):
            stepped = Fraction(a)
            for k in range(8):
                assert pf.delta_iter(a, p, k) == stepped, (a, p, k)
                stepped = (stepped - stepped ** p) / p
        for a, p, value in ((0, 2, 0), (1, 2, 0), (-1, 2, -1), (2, 3, 2), (-2, 3, -2)):
            assert pf.delta_iter(a, p, 10 ** 9) == value
        assert pf.delta_iter(2, 3, 10 ** 9 + 1) == -2

    def test_no_per_call_budget(self):
        with pytest.raises(TypeError):
            pf.delta_iter(5, 2, 1, max_digits=2)


class TestProfilesAndClasses:
    def test_space_profiles(self):
        prof = pf.height_profile(pf.classifying(named_group("C2")), 2, 4)
        assert prof.values == (Fraction(1, 2), 1, 2, 4, 8)
        prof = pf.height_profile(pf.classifying(named_group("S3")), 2, 2)
        assert prof.values == (Fraction(1, 6), Fraction(2, 3), Fraction(5, 3))
        prof = pf.height_profile(pf.PT, 5, 3)
        assert prof.values == (1, 1, 1, 1)

    def test_classify_constant_p(self):
        prof = pf.HeightProfile(3, (3,) * 5)
        assert pf.classify_layer(prof, 0) is LayerClass.DIVISIBLE
        for n in range(1, 5):
            assert pf.classify_layer(prof, n) is LayerClass.COMPLETE

    def test_classify_bc2(self):
        prof = pf.height_profile(pf.classifying(named_group("C2")), 2, 4)
        assert pf.classify_layer(prof, 1) is LayerClass.DIVISIBLE
        assert pf.classify_layer(prof, 3) is LayerClass.COMPLETE

    def test_layer_zero_rules(self):
        prof = pf.HeightProfile(2, (0, 4, Fraction(1, 3)))
        assert pf.classify_layer(prof, 0) is LayerClass.ZERO
        assert pf.classify_layer(prof, 2) is LayerClass.DIVISIBLE
        with pytest.raises(InputError):
            pf.classify_layer(prof, 3)
        with pytest.raises(InputError):
            pf.classify_layer(pf.HeightProfile(2, (1, Fraction(1, 2))), 1)

    def test_zero_layer_above_zero(self):
        prof = pf.HeightProfile(2, (1, 0, 1))
        assert pf.classify_layer(prof, 1) is LayerClass.ZERO

    def test_value_budget_decided_before_any_layer(self, monkeypatch):
        # layers 0..131071 are 2^17 values, the budget; one more is refused
        # before the first layer is computed; heights reads the height
        # cardinality from spaces when it runs
        import pifinite.spaces as spaces
        assert MAX_VALUES == 131072
        assert pf.height_profile(pf.PT, 2, 131071).values == (1,) * 131072
        assert pf.R1Element(pf.PT, 0, 1, 0).profile(2, 131071).values == (1,) * 131072

        def no_layer(*args):
            raise AssertionError("a layer was computed")
        monkeypatch.setattr(spaces, "height_cardinality", no_layer)
        for build in (lambda: pf.height_profile(pf.PT, 2, 131072),
                      lambda: pf.beta_element(2, 1).profile(2, 131072),
                      lambda: pf.alpha_splitter(2, 1, 131072)):
            with pytest.raises(ResourceBudgetError, match="131072-value budget"):
                build()


# Reference profiles at p = 5 for k <= 3 over layers 0..4, computed with the
# Cayley-table symbol [BC_5] in place of the EM atom B^1(C5).
BETA_P5 = {
    0: ("0", "4", "24", "124", "624"),
    1: ("-4/5", "0", "4", "24", "124"),
    2: ("-15001/15625", "-1", "-625", "-1953121", "-6103515601"),
    3: ("-4619419669344478518749/4656612873077392578125", "-1", "18921385937999",
        "5684269126877187728883056249375",
        "1694065859814131442817596253007652759550779296879"),
}
ALPHA_P5 = {
    0: ("0", "4", "24", "124", "624"),
    1: ("0", "0", "96", "2976", "77376"),
    2: ("0", "0", "-60000", "-5812488096", "-472265623142976"),
    3: ("0", "0", "-1135283156279940000",
        "-33039746634433967328090039825590594940000",
        "-800049068930362210418926226957413396126940145725595111367571904"),
}

# Reference profiles at p = 2 and 3 for every k <= DEFAULT_BETA_MAX_K over
# layers 0..6, the range ``beta`` prints by default.
BETA_P2 = {
    0: ("0", "1", "3", "7", "15", "31", "63"),
    1: ("-1/2", "0", "1", "3", "7", "15", "31"),
    2: ("-7/8", "-1", "-2", "-7", "-29", "-121", "-497"),
    3: ("-121/128", "-1", "-2", "-22", "-407", "-7261", "-123257"),
    4: ("-31921/32768", "-1", "-2", "-232", "-82622", "-26357431", "-7596082397"),
}
BETA_P3 = {
    0: ("0", "2", "8", "26", "80", "242", "728"),
    1: ("-2/3", "0", "2", "8", "26", "80", "242"),
    2: ("-73/81", "-1", "-9", "-241", "-6553", "-177121", "-4782889"),
    3: ("-1542347/1594323", "-1", "167", "4607919", "93756287351", "1852173029316959",
        "36471143388361222727"),
    4: ("-12025689854165542873/12157665459056928801", "-1", "-1580489", "-32613209240369493361",
        "-274713466760782395373997301556953", "-2117987598728714153612949020246666000670739681",
        "-16170627831498520726804193659298853432719471420417973983209"),
}
ALPHA_P2 = {
    0: ("0", "1", "3", "7", "15", "31", "63"),
    1: ("0", "0", "3", "21", "105", "465", "1953"),
    2: ("0", "0", "-6", "-147", "-3045", "-56265", "-970641"),
    3: ("0", "0", "12", "3234", "1239315", "408540165", "119638297737"),
    4: ("0", "0", "-24", "-750288", "-102394683930", "-10768069209716115",
        "-908782367447070635589"),
}
ALPHA_P3 = {
    0: ("0", "2", "8", "26", "80", "242", "728"),
    1: ("0", "0", "16", "208", "2080", "19360", "176176"),
    2: ("0", "0", "-144", "-50128", "-13630240", "-3429062560", "-842630252464"),
    3: ("0", "0", "-24048", "-230985763632", "-1277920698103094240",
        "-6351217189472566479955040", "-30731688760985561505679744549328"),
    4: ("0", "0", "38007599472", "7533187040876946065827539247152",
        "351062025221260213795918725512239632079258886250720",
        "13451799244135533824413804470431541735972864887033935695656336423942240",
        "49695070158734341168995393362079345435670261494656623836075910306890469851215223"
        "0744233552"),
}
REFERENCE = {2: (BETA_P2, ALPHA_P2), 3: (BETA_P3, ALPHA_P3)}


class TestBeta:
    @pytest.mark.parametrize("k", range(4))
    def test_p5_profiles_unchanged(self, k):
        assert pf.beta_element(5, k).profile(5, 4).values == \
            tuple(Fraction(v) for v in BETA_P5[k])
        assert pf.alpha_splitter(5, k, 4).values == tuple(Fraction(v) for v in ALPHA_P5[k])

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", range(5))
    def test_small_prime_profiles_unchanged(self, p, k):
        betas, alphas = REFERENCE[p]
        assert pf.beta_element(p, k).profile(p, 6).values == \
            tuple(Fraction(v) for v in betas[k])
        assert pf.alpha_splitter(p, k, 6).values == tuple(Fraction(v) for v in alphas[k])

    def test_symbol_is_the_em_atom(self):
        # beta is built from B^1(C_p); the group symbol [BC_p] is the same symbol
        assert pf.beta_element(3, 0) == pf.R1Element(pf.em_space([3], 1), 0, 3, -1)
        assert pf.beta_element(3, 2) == pf.R1Element(pf.em_space([3], 1), 1, 1, -1)
        assert pf.beta_element(3, 0).symbol == pf.classifying(named_group("C3"))

    def test_k_zero_profile(self):
        prof = pf.beta_element(2, 0).profile(2, 5)
        assert prof.values == (0, 1, 3, 7, 15, 31)
        prof3 = pf.beta_element(3, 0).profile(3, 3)
        assert prof3.values == (0, 2, 8, 26)

    def test_k_one(self):
        el = pf.beta_element(2, 1)
        assert el.constant == -1
        prof = el.profile(2, 3)
        assert prof.values[1:] == (0, 1, 3)

    def test_k_two(self):
        el = pf.beta_element(2, 2)
        assert el.constant == -1
        prof = el.profile(2, 4)
        assert prof.values[2:] == (-2, -7, -29)
        assert [vp(v, 2) for v in prof.values[2:]] == [1, 0, 0]

    def test_separation(self):
        for p in (2, 3):
            for k in range(4):
                prof = pf.beta_element(p, k).profile(p, 6)
                assert prof[k] == 0 or vp(prof[k], p) > 0
                for n in range(k + 1, 7):
                    assert vp(prof[n], p) == 0

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            pf.beta_element(2, 5)
        with pytest.raises(InputError):
            pf.beta_element(2, -1)
        with pytest.raises(TypeError):
            pf.beta_element(2, 5, max_k=5)
        with pytest.raises(TypeError):
            pf.alpha_splitter(2, 5, 6, max_k=5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 41, 101])
    def test_constant_from_residues(self, p):
        # b = gamma_k mod p, read off residues, matches gamma_k itself wherever
        # gamma_k fits the digit budget
        for k in range(1, pf.heights.DEFAULT_BETA_MAX_K + 1):
            try:
                gamma = pf.delta_iter(p ** (k - 1), p, k - 1)
            except ResourceBudgetError:
                continue
            assert pf.beta_element(p, k).constant == -(int(gamma) % p)


class TestAlpha:
    def test_example_profile(self):
        prof = pf.alpha_splitter(2, 1, 3)
        assert prof.values == (0, 0, 3, 21)
        classes = [pf.classify_layer(prof, n) for n in range(4)]
        assert classes == [LayerClass.ZERO, LayerClass.ZERO,
                           LayerClass.DIVISIBLE, LayerClass.DIVISIBLE]

    def test_k_zero(self):
        for p in (2, 3):
            prof = pf.alpha_splitter(p, 0, 4)
            assert prof[0] == 0
            assert prof.values[1:] == tuple(p ** n - 1 for n in range(1, 5))

    def test_splits_layers(self):
        for p in (2, 3):
            for k in range(4):
                prof = pf.alpha_splitter(p, k, 6)
                for n in range(k + 1):
                    assert pf.classify_layer(prof, n) in (LayerClass.COMPLETE, LayerClass.ZERO)
                for n in range(k + 1, 7):
                    assert pf.classify_layer(prof, n) is LayerClass.DIVISIBLE

    def test_range_check(self):
        with pytest.raises(InputError):
            pf.alpha_splitter(2, 4, 3)


class TestWreathIdentity:
    def test_c2_rows(self):
        c2 = named_group("C2")
        rows = [pf.verify_wreath_identity(c2, 2, n) for n in (1, 2, 3)]
        assert [(r.lhs, r.rhs) for r in rows] == [(0, 0), (-1, 1), (-6, 6)]
        assert [r.sign for r in rows] == [None, -1, -1]
        assert all(r.magnitudes_match for r in rows)

    def test_uniform_sign_on_grid(self):
        signs = set()
        for text, p in (("C2", 2), ("C2 x C2", 2), ("S3", 2), ("C3", 3)):
            g = named_group(text)
            for n in (1, 2, 3):
                report = pf.verify_wreath_identity(g, p, n)
                assert report.magnitudes_match
                if report.sign is not None:
                    signs.add(report.sign)
        assert signs == {-1}

    def test_rational_layer_agrees(self):
        # delta(1/|G|) = 1/(p|G|) - 1/(p|G|^p) exactly, same sign as layers >= 1
        for text, p in (("C2", 2), ("S3", 2), ("C3", 3)):
            report = pf.verify_wreath_identity(named_group(text), p, 0)
            assert report.magnitudes_match and report.sign == -1

    def test_cap_applies(self):
        with pytest.raises(ResourceBudgetError):
            pf.verify_wreath_identity(named_group("S3"), 5, 1)

    def test_every_side_counts_tuples_on_its_table(self, monkeypatch):
        # an abelian G and its C_p x G would be valued by the EM formula
        # through the space route; the identity is checked on the tables
        import pifinite.spaces as spaces
        cases = [(named_group(t), n) for t in ("C2", "C2 x C2", "S3") for n in range(4)]
        expected = [pf.verify_wreath_identity(g, 2, n) for g, n in cases]
        monkeypatch.setattr(spaces, "height_cardinality", lambda x, p, n: Fraction(-1))
        assert [pf.verify_wreath_identity(g, 2, n) for g, n in cases] == expected


class TestPkRelations:
    def test_alternation_at_height_zero(self):
        values = [Fraction(3) ** pf.binom_ext(-1, k) for k in range(6)]
        assert values == [3, Fraction(1, 3), 3, Fraction(1, 3), 3, Fraction(1, 3)]
        assert [pf.height_cardinality(pf.em_space([3], k), 3, 0) for k in range(6)] == values

    def test_higher_layers(self):
        # B^k(C_p) trivializes above the height, by the loop recursion too
        for p in (2, 3, 5):
            for k in range(1, 7):
                for n in range(1, k + 1):
                    x = pf.em_space([p], k)
                    assert pf.height_cardinality(x, p, n) == 1
                    assert oracle_looped_cardinality(x, p, n) == 1
        assert checks._check_pk_relations()[0]


BC2 = pf.em_space([2], 1)


class TestIntegerInputs:
    """Every layer, count, range and power is a non-bool int, refused by
    type before any table is built or any layer computed."""

    @pytest.fixture(autouse=True)
    def no_table_built(self, monkeypatch):
        named_group("S3")       # held before the guard
        def refuse(self, *args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr(pf.FiniteGroup, "__init__", refuse)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: pf.delta_iter(3, 2, v),
        lambda v: pf.height_profile(pf.PT, 2, v),
        lambda v: pf.R1Element(BC2, v, 1, 0),
        lambda v: pf.R1Element(BC2, 0, v, 0),
        lambda v: pf.R1Element(BC2, 0, 1, v),
        lambda v: pf.R1Element(BC2, 0, 1, 0).value_at(2, v),
        lambda v: pf.R1Element(BC2, 0, 1, 0).profile(2, v),
        lambda v: pf.beta_element(2, v),
        lambda v: pf.alpha_splitter(2, v, 3),
        lambda v: pf.alpha_splitter(2, 1, v),
        lambda v: pf.verify_wreath_identity(named_group("S3"), 2, v),
        lambda v: pf.classify_layer(pf.HeightProfile(2, (1, 2, 3, 4)), v),
    ], ids=["delta_iter k", "height_profile top", "R1Element delta power",
            "R1Element coefficient", "R1Element constant", "value_at n", "profile top",
            "beta_element k", "alpha_splitter k", "alpha_splitter top",
            "verify_wreath_identity n", "classify_layer n"])
    def test_non_ints_refused(self, call, value):
        with pytest.raises(InputError):
            call(value)

    def test_bool_iteration_count_refused(self):
        # answered as if k = 1
        with pytest.raises(InputError, match="^iteration count must be an int, got True$"):
            pf.delta_iter(3, 2, True)

    def test_bool_beta_layer_refused(self):
        # returned the k = 1 element
        with pytest.raises(InputError, match="^k must be an int, got True$"):
            pf.beta_element(2, True)

    def test_negative_alpha_layer_refused(self):
        # answered a profile of 1s, the empty product
        with pytest.raises(InputError, match="^k must be >= 0, got -1$"):
            pf.alpha_splitter(2, -1, 3)

    def test_range_messages_kept(self):
        with pytest.raises(InputError, match="^need k <= top, got k=2, top=1$"):
            pf.alpha_splitter(2, 2, 1)
        with pytest.raises(InputError, match=r"^layer 4 outside profile range 0\.\.3$"):
            pf.classify_layer(pf.HeightProfile(2, (1, 2, 3, 4)), 4)


class TestRationalInputs:
    """A rational argument is an int or a Fraction; a float, a bool or a
    string is refused, not converted."""

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: pf.delta(v, 3),
        lambda v: pf.delta_iter(v, 3, 1),
        lambda v: pf.delta_iter(v, 3, 0),
        lambda v: pf.HeightProfile(2, (v,)),
        lambda v: pf.HeightProfile(2, (Fraction(1, 2), v)),
    ], ids=["delta", "delta_iter", "delta_iter at k = 0", "HeightProfile",
            "HeightProfile second value"])
    def test_non_rationals_refused(self, call, value):
        with pytest.raises(InputError):
            call(value)

    def test_float_delta_refused(self):
        # answered a 49-digit fraction, the delta of 0.1's binary expansion
        with pytest.raises(InputError, match=r"^a non-Fraction value must be an int, got 0\.1$"):
            pf.delta_iter(0.1, 3, 1)

    def test_float_profile_value_refused(self):
        # held 3602879701896397/36028797018963968
        with pytest.raises(InputError, match=r"^a non-Fraction value must be an int, got 0\.1$"):
            pf.HeightProfile(2, [0.1])
        assert pf.HeightProfile(2, [1, Fraction(1, 10)]).values == (1, Fraction(1, 10))
