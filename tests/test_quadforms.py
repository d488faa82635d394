import functools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from operator import and_
from pathlib import Path

import numpy as np
import pytest

import pifinite as pf
from pifinite import InputError, InvariantError, ResourceBudgetError
from pifinite.quadforms import DEFAULT_BUDGET_PAIRS, _kernel_rows, _plan, _representatives


@functools.lru_cache(maxsize=None)
def sweep_kernel(p: int, n: int) -> frozenset:
    """Independent oracle: every form, tested against every 4-subset relation."""
    pairs = list(combinations(range(n), 2))
    quads = list(combinations(range(n), 4))
    kernel = set()
    for w in product(range(p), repeat=len(pairs)):
        f = dict(zip(pairs, w))
        if all((f[a, b] * f[c, d] - f[a, c] * f[b, d] + f[a, d] * f[b, c]) % p == 0
               for a, b, c, d in quads):
            kernel.add(w)
    return frozenset(kernel)


def leading_one_rows(rows: list) -> list:
    """The zero row, then the nonzero rows whose first nonzero entry is 1:
    one per scaling class of a set of vectors closed under scaling."""
    return [(0,) * len(rows[0])] + [row for row in rows if next(filter(None, row), 0) == 1]


def passes_relations(p: int, n: int, forms: np.ndarray) -> np.ndarray:
    """Whether each row of ``forms`` (coordinates in ``combinations(range(n), 2)``
    order) passes every relation of dimension n, tested directly mod p."""
    w = {pair: forms[:, i] for i, pair in enumerate(combinations(range(n), 2))}
    ok = np.ones(len(forms), dtype=bool)
    for a, b, c, d in combinations(range(n), 4):
        ok &= (w[a, b] * w[c, d] - w[a, c] * w[b, d] + w[a, d] * w[b, c]) % p == 0
    return ok


def full_enumeration_count(p: int, n: int) -> int:
    """Oracle without scaling classes or the library's kernel: every u in
    F_p^(n-1) against every form v on vertices 1..n-1 that passes its own
    relations, each (u, v) pair tested against every relation through
    vertex 0 and counted once."""
    k = n - 1
    vs = np.indices((p,) * math.comb(k, 2), dtype=np.int16).reshape(math.comb(k, 2), -1).T
    vs = vs[passes_relations(p, k, vs)]
    us = np.indices((p,) * k, dtype=np.int16).reshape(k, -1).T
    pos = {pair: i for i, pair in enumerate(combinations(range(1, n), 2))}
    count = 0
    step = max(1, (1 << 20) // len(vs))
    for start in range(0, len(us), step):
        u = us[start:start + step, :, None]
        alive = np.ones((len(u), len(vs)), dtype=bool)
        for b, c, d in combinations(range(1, n), 3):
            s = u[:, b - 1] * vs[:, pos[c, d]]
            s -= u[:, c - 1] * vs[:, pos[b, d]]
            s += u[:, d - 1] * vs[:, pos[b, c]]
            s %= p
            alive &= s == 0
        count += int(alive.sum())
    return count


def kernel_width(p: int, n: int) -> int:
    """Bits per mask of the plan at (p, n): one per kernel representative
    on F_p^(n-1), counted by the closed form."""
    return 1 + (pf.decomposable_form_count(p, n - 1) - 1) // (p - 1)


def slot_bits(width: int) -> int:
    """A packed slot's width: ``width`` bits rounded up to whole bytes."""
    return 8 * -(-width // 8)


def unpacked(column: int, slots: int, width: int) -> list[int]:
    """The ``slots`` masks packed into ``column``, slot 0 lowest, each
    ``slot_bits(width)`` wide; no bit may lie past the last slot."""
    size = slot_bits(width)
    assert column >> slots * size == 0
    return [column >> i * size & (1 << size) - 1 for i in range(slots)]


def weighted_popcount(p: int, n: int, plan) -> int:
    """The count as one mask per outer representative reads it: AND each
    representative's masks over the relations, then weigh its passing v,
    (0, 0) as itself, one zero side as p-1 forms, none as (p-1)^2."""
    slots, width = len(_representatives(p, n - 1)), kernel_width(p, n)
    per_relation = [unpacked(column, slots, width) for column in plan.columns]
    zero_u, *rest = [functools.reduce(and_, masks) for masks in zip(*per_relation)]
    q, zero_v = p - 1, sum(mask & 1 for mask in rest)
    return ((zero_u & 1) + q * (zero_u.bit_count() - (zero_u & 1)) + q * zero_v
            + q * q * (sum(mask.bit_count() for mask in rest) - zero_v))


@pytest.fixture
def fresh_plans():
    """No plan held before the test, and none it builds (from tampered or
    spied kernel rows) held after it."""
    _plan.cache_clear()
    yield
    _plan.cache_clear()


class TestKernelCounts:
    def test_low_dimensions_are_everything(self):
        assert pf.count_null_square_two_forms(3, 2).kernel_count == 3
        assert pf.count_null_square_two_forms(3, 3).kernel_count == 27
        for p in (3, 5):
            for n in (1, 2, 3):
                report = pf.count_null_square_two_forms(p, n)
                assert report.kernel_count == report.total_forms == p ** (n * (n - 1) // 2)

    def test_dimension_four_at_three(self):
        report = pf.count_null_square_two_forms(3, 4)
        assert report.kernel_count == 261
        assert report.total_forms == 3 ** 6

    def test_gaussian_binomial(self):
        assert pf.gaussian_binomial(4, 2, 3) == 130
        assert pf.gaussian_binomial(2, 2, 5) == 1
        assert pf.gaussian_binomial(1, 2, 5) == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_closed_form_cross_check(self, p):
        # zero form plus (p-1) decomposables per plane, against brute force
        top = 5 if p == 3 else 4
        for n in range(2, top + 1):
            assert pf.count_null_square_two_forms(p, n).kernel_count == \
                pf.decomposable_form_count(p, n)

    def test_closed_form_cross_check_5_5(self):
        # the big case: ~9.8M forms, still exact
        assert pf.count_null_square_two_forms(5, 5).kernel_count == \
            pf.decomposable_form_count(5, 5)

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (3, 5), (7, 4)])
    def test_matches_sweep_oracle(self, p, n):
        assert pf.count_null_square_two_forms(p, n).kernel_count == len(sweep_kernel(p, n))

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (3, 5)])
    def test_kernel_forms_match_sweep_oracle(self, p, n):
        # a plan one dimension up reads these rows, so the forms themselves
        # (and their coordinate order) must be right, not just the count:
        # their nonzero multiples are the whole kernel, each once
        rows = _kernel_rows(p, n)
        multiples = [tuple(a * x % p for x in v) for v in rows[1:] for a in range(1, p)]
        assert len(multiples) + 1 == len(sweep_kernel(p, n))
        assert set(multiples) | {rows[0]} == sweep_kernel(p, n)
        # a plan numbers the rows in this order, zero form first
        assert not any(rows[0]) and rows == sorted(rows)

    @pytest.mark.parametrize("p,n,budget", [(p, n, pf.quadforms.DEFAULT_ENUMERATION_BUDGET)
                                            for p, n in DEFAULT_BUDGET_PAIRS]
                             + [(3, 6, 3 ** 15)])
    def test_matches_closed_form(self, p, n, budget, monkeypatch):
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", budget)
        report = pf.count_null_square_two_forms(p, n)
        assert report.kernel_count == pf.decomposable_form_count(p, n)
        assert report.total_forms == p ** (n * (n - 1) // 2)

    def test_general_dimension_builds_its_kernel_rows_directly(self, monkeypatch,
                                                               fresh_plans):
        # (3, 6) lays out the representatives of the kernel on F_3^5, tested
        # against the relations of dimension 5 with no lower dimension built
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 3 ** 15)
        levels = []
        rows = pf.quadforms._kernel_rows
        monkeypatch.setattr(pf.quadforms, "_kernel_rows",
                            lambda p, m: levels.append(m) or rows(p, m))
        report = pf.count_null_square_two_forms(3, 6)
        assert report.kernel_count == pf.decomposable_form_count(3, 6)
        assert report.total_forms == 3 ** 15
        assert levels == [5]

    @pytest.mark.parametrize("p,n", [(17, 4), (7, 5), (3, 6)])
    def test_default_budget_refuses(self, p, n):
        with pytest.raises(ResourceBudgetError):
            pf.count_null_square_two_forms(p, n)

    def test_kernel_is_one_mod_p_minus_one(self):
        for p, n in ((3, 4), (3, 5), (5, 4)):
            assert pf.count_null_square_two_forms(p, n).kernel_count % (p - 1) == 1

    def test_errors(self, monkeypatch):
        with pytest.raises(InputError):
            pf.count_null_square_two_forms(2, 4)
        with pytest.raises(InputError):
            pf.count_null_square_two_forms(9, 4)
        with pytest.raises(InputError):
            pf.count_null_square_two_forms(3, 0)
        with pytest.raises(ResourceBudgetError):
            pf.count_null_square_two_forms(3, 8)
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 1000)
        with pytest.raises(ResourceBudgetError):
            pf.count_null_square_two_forms(5, 5)

    def test_budget_decided_before_the_power(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 1000)
            with pytest.raises(ResourceBudgetError,
                               match="^59049 forms exceed the enumeration budget 1000$"):
                pf.count_null_square_two_forms(3, 5)
        # 3^C(200, 2) has 9495 digits and 3^C(3000, 2) over two million:
        # neither is printed, and the second is never taken
        for n in (200, 3000):
            with pytest.raises(ResourceBudgetError,
                               match=f"^3\\^{math.comb(n, 2)} forms exceed"):
                pf.count_null_square_two_forms(3, n)


    def test_no_per_call_budget(self):
        with pytest.raises(TypeError):
            pf.count_null_square_two_forms(3, 4, budget=10 ** 9)


class TestScalingClasses:
    @pytest.mark.parametrize("p,n,budget", [(p, n, pf.quadforms.DEFAULT_ENUMERATION_BUDGET)
                                            for p, n in DEFAULT_BUDGET_PAIRS]
                             + [(7, 5, 7 ** 10), (3, 6, 3 ** 15)])
    def test_class_weights_match_full_enumeration(self, p, n, budget, monkeypatch):
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", budget)
        report = pf.count_null_square_two_forms(p, n)
        assert type(report.kernel_count) is int     # JSON output needs a Python int
        assert report.kernel_count == full_enumeration_count(p, n)
        assert report.kernel_count == pf.decomposable_form_count(p, n)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_representatives_one_per_class(self, p):
        for k in range(1, 6):
            reps = np.array(_representatives(p, k))
            assert reps.shape == (1 + (p ** k - 1) // (p - 1), k)
            assert not reps[0].any()                      # the zero vector first
            nonzero = reps[reps.any(axis=1)]
            assert len(nonzero) == len(reps) - 1          # the zero vector, once
            leading = nonzero[np.arange(len(nonzero)), (nonzero != 0).argmax(axis=1)]
            assert (leading == 1).all()
            weights = p ** np.arange(k)
            is_rep = np.zeros(p ** k, dtype=bool)
            is_rep[reps @ weights] = True
            vectors = np.indices((p,) * k).reshape(k, -1).T
            vectors = vectors[vectors.any(axis=1)]
            hits = sum(is_rep[(a * vectors) % p @ weights].astype(int) for a in range(1, p))
            assert (hits == 1).all()

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (7, 4), (3, 5)])
    def test_kernel_representatives_pick_one_per_class(self, p, n):
        # a plan one dimension up numbers the leading-one rows of the
        # kernel in its row order: the sweep's, sorted, zero form first
        kernel = sweep_kernel(p, n)
        picked = _kernel_rows(p, n)
        assert picked == leading_one_rows(sorted(kernel))
        assert not any(picked[0])         # the zero form first, as the count needs
        assert len(picked) == 1 + (len(kernel) - 1) // (p - 1)
        # every nonzero form of the kernel, divided by its first nonzero
        # entry, is a picked row
        inverse = {a: pow(a, -1, p) for a in range(1, p)}
        scaled = {tuple(inverse[next(filter(None, w))] * x % p for x in w)
                  for w in kernel if any(w)}
        assert scaled == set(picked[1:])

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_leading_one_rows_pick_the_representatives(self, p):
        for k in range(1, 5):
            picked = leading_one_rows(list(product(range(p), repeat=k)))
            reps = _representatives(p, k)
            assert len(picked) == len(reps)
            assert set(picked) == set(reps)
        # the kernel rows are representatives already: the helper keeps each
        kernel = _kernel_rows(p, 4)
        assert leading_one_rows(kernel) == kernel
        assert len(kernel) == kernel_width(p, 5)


class TestHeldLevels:
    """What a count at (p, n) reads, its ``_plan``, is built once, by the
    first count at (p, n) after the checks, and every count ANDs the held
    packed columns and takes three popcounts."""

    @pytest.mark.parametrize("p,n", DEFAULT_BUDGET_PAIRS)
    def test_columns_are_the_relations(self, p, n):
        # rebuilt from the definition, reading no builder: bit j of the mask
        # the outer representative u reads for the triple b<c<d is set when
        # v, the j-th leading-one row of the sweep's kernel one dimension
        # down, sorted, passes u_b*v_cd - u_c*v_bd + u_d*v_bc = 0 mod p
        m = n - 1
        vs = leading_one_rows(sorted(sweep_kernel(p, m)))
        pos = {pair: i for i, pair in enumerate(combinations(range(m), 2))}
        expected = tuple(
            tuple(sum(1 << j for j, v in enumerate(vs)
                      if (u[b] * v[pos[c, d]] - u[c] * v[pos[b, d]]
                          + u[d] * v[pos[b, c]]) % p == 0)
                  for u in _representatives(p, m))
            for b, c, d in combinations(range(m), 3))
        slots, width = len(_representatives(p, m)), len(vs)
        assert tuple(tuple(unpacked(column, slots, width))
                     for column in _plan(p, n).columns) == expected

    def test_built_once_per_pair(self, monkeypatch, fresh_plans):
        pairs = ((5, 5), (3, 5), (3, 4), (5, 5), (3, 5), (3, 4))
        expected = [pf.decomposable_form_count(p, n) for p, n in pairs]
        checked, built = [], []
        check = pf.quadforms._require_odd_prime
        build = pf.quadforms._kernel_rows
        monkeypatch.setattr(pf.quadforms, "_require_odd_prime",
                            lambda p: checked.append(p) or check(p))
        monkeypatch.setattr(pf.quadforms, "_kernel_rows",
                            lambda p, m: built.append((p, m)) or build(p, m))
        assert [pf.count_null_square_two_forms(p, n).kernel_count for p, n in pairs] == expected
        # the prime is tested and the kernel rows one dimension down listed
        # by the first count only
        assert checked == [5, 3, 3]
        assert built == [(5, 4), (3, 4), (3, 3)]
        assert _plan.cache_info().currsize == 3

    def test_counts_read_the_kernel_rows(self, monkeypatch, fresh_plans):
        # a (5,5) plan built from the (5,4) kernel rows less one nonzero
        # row must change the count
        rows = pf.quadforms._kernel_rows
        monkeypatch.setattr(pf.quadforms, "_kernel_rows",
                            lambda p, m: rows(p, m)[:-1] if (p, m) == (5, 4) else rows(p, m))
        try:
            count = pf.count_null_square_two_forms(5, 5).kernel_count
        except InvariantError:
            return
        assert count != pf.decomposable_form_count(5, 5)

    def test_default_plans_build_in_under_a_second(self, monkeypatch, fresh_plans):
        # every default plan and (3,6), from cold, take about 40 ms; a build
        # that tested every (u, v) pair, or every form per triple, would not
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 3 ** 15)
        start = time.perf_counter()
        for p, n in DEFAULT_BUDGET_PAIRS + ((3, 6),):
            _plan(p, n)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p,n", DEFAULT_BUDGET_PAIRS + ((3, 3),))
    def test_holds_only_tuples_and_ints(self, p, n):
        def held(value):
            if type(value) is tuple:
                return all(map(held, value))
            return type(value) is int
        plan = _plan(p, n)
        assert isinstance(plan, tuple) and held(tuple(plan))
        assert plan.total == p ** math.comb(n, 2)
        if n < 4:
            assert (plan.columns, plan.first, plan.lows) == ((), 0, 0)
            return
        # dense: one bit per kernel representative on F_p^(n-1), every one
        # of which passes with the zero u
        width = kernel_width(p, n)
        assert width == (p * p + p + 2 if n == 4 else {3: 131, 5: 807}[p])
        # one column per triple of the outer vertices, one slot per outer
        # representative, each starting on a byte; v = 0 passes with every
        # u, so the last slot is not empty
        slots, size = len(_representatives(p, n - 1)), slot_bits(width)
        assert len(plan.columns) == math.comb(n - 1, 3)
        assert all(column.bit_length() > (slots - 1) * size for column in plan.columns)
        masks = [unpacked(column, slots, width) for column in plan.columns]
        # every padding bit is 0
        assert all(mask >> width == 0 for column in masks for mask in column)
        assert plan.first == (1 << width) - 1
        assert plan.lows == sum(1 << i * size for i in range(slots))
        # the zero u is slot 0, all ones after the AND
        alive = functools.reduce(and_, plan.columns)
        assert alive & (1 << size) - 1 == (1 << width) - 1

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    @pytest.mark.parametrize("p,n", DEFAULT_BUDGET_PAIRS)
    def test_packed_count_is_the_weighted_popcount(self, p, n, held, fresh_plans):
        if held:
            pf.count_null_square_two_forms(p, n)
        assert pf.count_null_square_two_forms(p, n).kernel_count == \
            weighted_popcount(p, n, _plan(p, n))

    def test_held_counts_walk_no_representative(self, monkeypatch):
        # _columns walks every outer representative; a held count reads the
        # packed columns, so it answers with _columns gone
        for p, n in DEFAULT_BUDGET_PAIRS:
            pf.count_null_square_two_forms(p, n)

        def walked(p, us, forms):
            raise AssertionError("a count walked the representatives")
        monkeypatch.setattr(pf.quadforms, "_columns", walked)
        for p, n in DEFAULT_BUDGET_PAIRS:
            assert pf.count_null_square_two_forms(p, n).kernel_count == \
                pf.decomposable_form_count(p, n)

    def test_interleaved_primes_match_the_oracles(self, fresh_plans):
        # the brute-force sweep where it is quick; past 10^5 forms, the
        # numpy enumeration, which reads no scaling class either
        for p, n in ((5, 5), (3, 5), (5, 5), (13, 4), (3, 4)):
            expected = (len(sweep_kernel(p, n)) if p ** math.comb(n, 2) <= 10 ** 5
                        else full_enumeration_count(p, n))
            assert pf.count_null_square_two_forms(p, n).kernel_count == expected

    def test_first_and_later_counts_match_the_oracles(self, fresh_plans):
        expected = {(3, 5): len(sweep_kernel(3, 5)), (5, 5): full_enumeration_count(5, 5)}
        for p, n in ((3, 5), (5, 5), (3, 5), (5, 5)):
            assert pf.count_null_square_two_forms(p, n).kernel_count == expected[p, n]

    def test_counts_and_the_held_tables(self, monkeypatch):
        # clear one bit v != 0 of u's alive mask, u != 0, in u's slot of
        # the first column: the pair weighs (p-1)^2, so every call moves
        # by 16
        plan = _plan(5, 5)
        kernel = pf.count_null_square_two_forms(5, 5).kernel_count
        slots, width = len(_representatives(5, 4)), kernel_width(5, 5)
        alive = unpacked(functools.reduce(and_, plan.columns), slots, width)
        i = next(i for i in range(1, len(alive)) if alive[i] >> 1)
        above_zero = alive[i] >> 1
        bit = (above_zero & -above_zero) << 1
        first = plan.columns[0] ^ bit << i * slot_bits(width)
        tampered = plan._replace(columns=(first,) + plan.columns[1:])
        monkeypatch.setattr(pf.quadforms, "_plan",
                            lambda p, n: tampered if (p, n) == (5, 5) else _plan(p, n))
        for _ in range(2):
            assert pf.count_null_square_two_forms(5, 5).kernel_count == kernel - 16
        monkeypatch.undo()
        assert pf.count_null_square_two_forms(5, 5).kernel_count == kernel

    @pytest.mark.parametrize("p,n", [(3.0, 4), (3, 4.0), (True, 4), (3, True), ("3", 5)])
    def test_non_ints_refused_with_plans_held(self, p, n):
        # a cache key takes 3.0 and True for 3 and 1: the count must refuse
        # them before it looks a plan up, so no plan is read or added
        pf.count_null_square_two_forms(3, 4)
        pf.count_null_square_two_forms(3, 5)
        before = _plan.cache_info()
        with pytest.raises(InputError):
            pf.count_null_square_two_forms(p, n)
        assert _plan.cache_info() == before

    def test_budget_refuses_held_plans(self, monkeypatch):
        # the budget is compared on every call, so one lowered after a plan
        # is held still refuses, with the message a first call gives
        for p, n in ((3, 5), (5, 5)):
            pf.count_null_square_two_forms(p, n)
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 1000)
        for p, n, total in ((3, 5, 59049), (5, 5, 9765625)):
            with pytest.raises(ResourceBudgetError,
                               match=f"^{total} forms exceed the enumeration budget 1000$"):
                pf.count_null_square_two_forms(p, n)

    @pytest.mark.parametrize("p,n,error", [(2, 4, InputError), (9, 4, InputError),
                                           (17, 4, ResourceBudgetError),
                                           (7, 5, ResourceBudgetError)])
    def test_refused_pairs_hold_no_plan(self, p, n, error, fresh_plans):
        for _ in range(2):
            with pytest.raises(error):
                pf.count_null_square_two_forms(p, n)
        assert _plan.cache_info().currsize == 0


class TestInputTypes:
    """Only a non-bool int is a prime, dimension or height: ``3.0 == 3`` and
    ``True == 1`` are refused before any plan is built."""

    @pytest.fixture(autouse=True)
    def no_plan_held(self):
        _plan.cache_clear()
        yield
        assert _plan.cache_info().currsize == 0

    @pytest.mark.parametrize("p,n", [(3.0, 4), (3, 4.0), (True, 4), (3, True), ("3", 4)])
    def test_count_null_square_two_forms(self, p, n):
        with pytest.raises(InputError):
            pf.count_null_square_two_forms(p, n)

    @pytest.mark.parametrize("p,n", [(3.0, 4), (3, 4.0), (True, 4), (3, True)])
    def test_decomposable_form_count(self, p, n):
        with pytest.raises(InputError):
            pf.decomposable_form_count(p, n)

    @pytest.mark.parametrize("p,n", [(3.0, 4), (3, 4.0), (True, 4), (3, False)])
    def test_cup_square_fiber_cardinality(self, p, n):
        with pytest.raises(InputError):
            pf.cup_square_fiber_cardinality(p, n)

    @pytest.mark.parametrize("n,k,q", [(4.0, 2, 3), (4, 2.0, 3), (4, 2, 3.0), (4, 2, True),
                                       (4, 2, 1), (4, 2, 0), (4, 2, -1)])
    def test_gaussian_binomial(self, n, k, q):
        # a float answered a float, and q = 1 or -1 divided by zero
        with pytest.raises(InputError):
            pf.gaussian_binomial(n, k, q)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda v: pf.count_null_square_two_forms(3, v),
        lambda v: pf.decomposable_form_count(3, v),
        lambda v: pf.cup_square_fiber_cardinality(3, v),
        lambda v: pf.gaussian_binomial(4, 2, v),
        lambda v: pf.gaussian_binomial(v, 2, 3),
        lambda v: pf.gaussian_binomial(4, v, 3),
    ], ids=["count dimension", "closed-form dimension", "fiber height", "gaussian q",
            "gaussian n", "gaussian k"])
    def test_integer_arguments(self, call, value):
        with pytest.raises(InputError):
            call(value)

    @pytest.mark.parametrize("p", [3.0, True, Fraction(3)])
    def test_amenability_failure_report(self, p):
        with pytest.raises(InputError):
            pf.amenability_failure_report(p)

    def test_messages(self):
        with pytest.raises(InputError, match=r"^expected an odd prime, got 3\.0$"):
            pf.count_null_square_two_forms(3.0, 4)
        with pytest.raises(InputError, match="^dimension must be an int, got True$"):
            pf.count_null_square_two_forms(3, True)
        with pytest.raises(InputError, match="^height must be >= 0, got -1$"):
            pf.cup_square_fiber_cardinality(3, -1)
        with pytest.raises(InputError, match="^q must be >= 2, got 1$"):
            pf.gaussian_binomial(4, 2, 1)
        with pytest.raises(InputError, match=r"^n must be an int, got 4\.0$"):
            pf.gaussian_binomial(4.0, 2, 3)


class TestBudgetPairs:
    def test_pinned(self):
        assert DEFAULT_BUDGET_PAIRS == ((3, 4), (5, 4), (7, 4), (11, 4), (13, 4), (3, 5), (5, 5))

    def test_derived_from_the_budget(self, monkeypatch):
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 3 ** 15)
        assert pf.quadforms._budget_pairs() == DEFAULT_BUDGET_PAIRS[:5] + ((3, 5), (5, 5), (3, 6))
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 3 ** 6 - 1)
        assert pf.quadforms._budget_pairs() == ()


class TestInvariants:
    @pytest.mark.parametrize("kernel_count", [0, 730, 2])
    def test_bad_report_is_an_invariant_error(self, kernel_count):
        with pytest.raises(InvariantError) as info:
            pf.FormCountReport(3, 4, kernel_count, 729)
        assert not isinstance(info.value, InputError)

    def test_report_check_survives_optimize(self):
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                "try:\n"
                "    pf.FormCountReport(3, 4, 0, 729)\n"
                "except pf.InvariantError:\n"
                "    print(__debug__, 'raised')\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "raised"]

    def test_report_counting_every_form_is_an_invariant_error(self):
        # 729 is 1 mod p-1 and in range: only the nonzero square of
        # e0^e1 + e2^e3 rules it out, under -O as without it
        with pytest.raises(InvariantError):
            pf.FormCountReport(3, 4, 729, 729)
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                "try:\n"
                "    pf.FormCountReport(3, 4, 729, 729)\n"
                "except pf.InvariantError:\n"
                "    print(__debug__, 'raised')\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "raised"]


class TestFiberCardinality:
    def test_height_four_value(self):
        for p in (3, 5, 7):
            assert pf.cup_square_fiber_cardinality(p, 4) == p ** 3 + p - 1

    def test_small_heights(self):
        for p in (3, 5, 7):
            assert pf.cup_square_fiber_cardinality(p, 0) == 1
            assert pf.cup_square_fiber_cardinality(p, 1) == 1
            assert pf.cup_square_fiber_cardinality(p, 2) == 1
            assert pf.cup_square_fiber_cardinality(p, 3) == p

    def test_positive_rational_through_height_eight(self):
        for p in (3, 5, 7):
            for n in range(9):
                value = pf.cup_square_fiber_cardinality(p, n)
                assert isinstance(value, Fraction) and value > 0

    def test_p_two_unsupported(self):
        with pytest.raises(InputError):
            pf.cup_square_fiber_cardinality(2, 4)

    def test_refused_before_any_power(self):
        # p^C(9999, 3), about 1.7e11 in the exponent, never returned
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="digit budget"):
            pf.cup_square_fiber_cardinality(3, 10 ** 4)
        assert time.perf_counter() - start < 1
        # about 82,000 digits at n = 40
        with pytest.raises(ResourceBudgetError, match="digit budget"):
            pf.cup_square_fiber_cardinality(10 ** 9 + 7, 40)

    def test_budget_boundary(self):
        # at p = 3 the value is about 3^(C(n-1, 3) + n - 2): 4043 digits at
        # n = 39, 4379 at n = 40
        assert len(str(pf.cup_square_fiber_cardinality(3, 39))) == 4043
        with pytest.raises(ResourceBudgetError):
            pf.cup_square_fiber_cardinality(3, 40)

    @pytest.mark.parametrize("p,n", DEFAULT_BUDGET_PAIRS
                             + tuple((p, n) for p in (3, 5) for n in (1, 2, 3)))
    def test_fiber_is_the_form_count_times_a_power(self, p, n):
        # |F|_n = N(p, n) * p^(C(n,3) - C(n,2)), N the enumerated kernel count
        forms = pf.count_null_square_two_forms(p, n).kernel_count
        assert pf.cup_square_fiber_cardinality(p, n) == \
            forms * Fraction(p) ** (math.comb(n, 3) - math.comb(n, 2))


class TestFailureReport:
    @pytest.mark.parametrize("p,lhs,rhs", [(3, 29, 27), (5, 129, 125), (7, 349, 343)])
    def test_values(self, p, lhs, rhs):
        report = pf.amenability_failure_report(p)
        assert (report.lhs, report.rhs) == (lhs, rhs)
        assert not report.multiplicative

    def test_lhs_is_fiber_times_base(self):
        # the degree-4 EM factor is 1 at height 4, so lhs is the fiber value
        for p in (3, 5, 7):
            report = pf.amenability_failure_report(p)
            base = pf.height_cardinality(pf.em_space([p], 4), p, 4)
            total = pf.height_cardinality(pf.em_space([p], 2), p, 4)
            assert report.lhs == pf.cup_square_fiber_cardinality(p, 4) * base
            assert report.rhs == total
