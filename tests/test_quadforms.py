import functools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

import pifinite as pf
from pifinite import InputError, InvariantError, ResourceBudgetError
from pifinite.quadforms import (DEFAULT_BUDGET_PAIRS, _alive, _all_vectors, _line_tables,
                                _null_square_kernel, _plan, _plane, _representatives)


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


@pytest.fixture
def fresh_plans():
    """No plan held before the test, and none it builds (from a tampered
    or spied plane or table) held after it."""
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
        # the recursion feeds these rows one dimension up, so the forms
        # themselves (and their coordinate order) must be right, not just the count
        rows = list(_null_square_kernel(p, n))
        assert len(rows) == len(sweep_kernel(p, n))
        assert set(rows) == sweep_kernel(p, n)
        # a plan numbers the leading-one rows in this order, zero form first
        assert rows == sorted(rows)

    @pytest.mark.parametrize("p,n,budget", [(p, n, pf.quadforms.DEFAULT_ENUMERATION_BUDGET)
                                            for p, n in DEFAULT_BUDGET_PAIRS]
                             + [(3, 6, 3 ** 15)])
    def test_matches_closed_form(self, p, n, budget, monkeypatch):
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", budget)
        report = pf.count_null_square_two_forms(p, n)
        assert report.kernel_count == pf.decomposable_form_count(p, n)
        assert report.total_forms == p ** (n * (n - 1) // 2)

    def test_general_dimension_counts_through_the_kernel_recursion(self, monkeypatch,
                                                                   fresh_plans):
        # (3, 6) lays out the representatives of the kernel on F_3^5, which
        # the enumeration reaches from the kernels on F_3^4 and F_3^3
        monkeypatch.setattr(pf.quadforms, "DEFAULT_ENUMERATION_BUDGET", 3 ** 15)
        levels = []
        kernel = pf.quadforms._null_square_kernel
        monkeypatch.setattr(pf.quadforms, "_null_square_kernel",
                            lambda p, n: levels.append(n) or kernel(p, n))
        report = pf.count_null_square_two_forms(3, 6)
        assert report.kernel_count == pf.decomposable_form_count(3, 6)
        assert report.total_forms == 3 ** 15
        assert levels == [5, 4, 3]

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

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_class_index_maps_each_vector_to_its_representative(self, p):
        reps = np.array(_representatives(p, 3))
        index = np.array(_plane(p).index)
        assert index.shape == (p ** 3,)
        vectors = np.indices((p,) * 3).reshape(3, -1).T
        rep = reps[index[(vectors[:, 0] * p + vectors[:, 1]) * p + vectors[:, 2]]]
        zero = ~vectors.any(axis=1)
        assert (index[zero] == 0).all()
        # every nonzero vector is a nonzero multiple of the representative it is sent to
        scaled = np.stack([a * rep % p for a in range(1, p)], axis=1)
        assert (scaled == vectors[:, None, :]).all(axis=2).any(axis=1)[~zero].all()

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_incidence_table_tests_each_pair_of_classes(self, p):
        # the classes each held line lists are those orthogonal to its class
        classes = np.array(_representatives(p, 3))
        size = p * p + p + 2
        lines = [line(range(size)) for line in _plane(p).lines]
        assert len(lines) == size
        table = np.zeros((size, size), dtype=bool)
        for k, line in enumerate(lines):
            table[k, list(line)] = True
        assert (table == (classes @ classes.T % p == 0)).all()
        assert (table == table.T).all()
        assert table[0].all() and table[:, 0].all()
        # a line of the projective plane over F_p holds p + 1 points, and
        # the lists the kernel sums along name each of them, and zero, once
        assert (table[1:, 1:].sum(axis=1) == p + 1).all()
        assert lines[0] == tuple(range(size))
        assert all(len(line) == len(set(line)) == p + 2 for line in lines[1:])

    @pytest.mark.parametrize("p,n", [(3, 4), (5, 4), (7, 4), (3, 5)])
    def test_kernel_representatives_pick_one_per_class(self, p, n):
        # a plan one dimension up numbers the leading-one rows of the
        # kernel in its row order: the sweep's, sorted, zero form first
        kernel = sweep_kernel(p, n)
        picked = leading_one_rows(list(_null_square_kernel(p, n)))
        assert picked == leading_one_rows(sorted(kernel))
        assert not any(picked[0])         # the zero form first, as the count needs
        assert len(picked) == 1 + (len(kernel) - 1) // (p - 1)
        # every nonzero form of the kernel, divided by its first nonzero
        # entry, is a picked row
        inverse = {a: pow(a, -1, p) for a in range(1, p)}
        scaled = {tuple(inverse[next(filter(None, w))] * x % p for x in w)
                  for w in kernel if any(w)}
        assert scaled == set(picked[1:])

    @pytest.mark.parametrize("p,m", [(3, 4), (5, 4), (3, 5)])
    def test_representative_tables_hold_the_passing_representatives(self, p, m):
        # tables[t][k] holds exactly the representatives whose w for the
        # t-th triple is orthogonal to class k, tested directly mod p; the
        # representatives are numbered consecutively, in kernel row order
        forms = dict(enumerate(leading_one_rows(list(_null_square_kernel(p, m)))))
        tables = _line_tables(p, m, list(forms.values()))
        classes = _representatives(p, 3)
        pos = {pair: i for i, pair in enumerate(combinations(range(m), 2))}
        triples = list(combinations(range(m), 3))
        assert len(tables) == len(triples)
        for table, (b, c, d) in zip(tables, triples):
            for a, mask in zip(classes, table):
                expected = sum(
                    1 << position for position, x in forms.items()
                    if (a[0] * x[pos[c, d]] - a[1] * x[pos[b, d]] + a[2] * x[pos[b, c]]) % p == 0)
                assert mask == expected

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_leading_one_rows_pick_the_representatives(self, p):
        for k in range(1, 5):
            picked = leading_one_rows(_all_vectors(p, k))
            reps = _representatives(p, k)
            assert len(picked) == len(reps)
            assert set(picked) == set(reps)
        kernel = list(_null_square_kernel(p, 4))
        picked = leading_one_rows(kernel)
        assert len(picked) == 1 + (len(kernel) - 1) // (p - 1)
        assert set(picked) <= set(kernel)


class TestHeldPlane:
    """Each prime's projective plane is solved once, by the first plan at
    that prime, and every later plan at it reads the held one."""

    def test_solved_once_per_prime(self, fresh_plans):
        _plane.cache_clear()
        for p, n in ((5, 4), (5, 5), (5, 4)):
            assert pf.count_null_square_two_forms(p, n).kernel_count == \
                pf.decomposable_form_count(p, n)
        info = _plane.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("p", sorted({p for p, _ in DEFAULT_BUDGET_PAIRS}))
    def test_holds_only_tuples(self, p):
        plane = _plane(p)
        assert isinstance(plane, tuple)
        assert all(type(field) is tuple for field in plane)
        assert all(type(row) is int for row in plane.index)

    @pytest.mark.parametrize("p", sorted({p for p, _ in DEFAULT_BUDGET_PAIRS}))
    def test_held_plane_equals_one_solved_fresh(self, p):
        plane, fresh = _plane(p), _plane.__wrapped__(p)
        size = p * p + p + 2
        assert plane.index == fresh.index
        assert [line(range(size)) for line in plane.lines] == \
            [line(range(size)) for line in fresh.lines]

    def test_interleaved_primes_match_the_oracles(self, fresh_plans):
        # the brute-force sweep where it is quick; past 10^5 forms, the
        # numpy enumeration, which reads no scaling class either
        _plane.cache_clear()
        for p, n in ((5, 5), (3, 5), (5, 5), (13, 4), (3, 4)):
            expected = (len(sweep_kernel(p, n)) if p ** math.comb(n, 2) <= 10 ** 5
                        else full_enumeration_count(p, n))
            assert pf.count_null_square_two_forms(p, n).kernel_count == expected
        assert _plane.cache_info().currsize == 3

    def test_counts_read_the_held_plane(self, monkeypatch, fresh_plans):
        # class 2, (1, 0, 1), is off the line of class 1, (1, 0, 0): a plane
        # held with that pair incident must change both counts at p = 5
        held = _plane(5)
        lines = list(held.lines)
        line = lines[1](range(5 * 5 + 5 + 2))
        assert 2 not in line
        lines[1] = itemgetter(*line, 2)
        tampered = held._replace(lines=tuple(lines))
        monkeypatch.setattr(pf.quadforms, "_plane", lambda p: tampered if p == 5 else _plane(p))
        for n in (4, 5):
            try:
                count = pf.count_null_square_two_forms(5, n).kernel_count
            except InvariantError:
                continue
            assert count != pf.decomposable_form_count(5, n)


class TestHeldLevels:
    """What a count at (p, n) reads, its ``_plan``, is built once, by the
    first count at (p, n) after the checks, and every count ANDs the held
    masks for every outer representative and takes the popcount."""

    @pytest.mark.parametrize("p,n", DEFAULT_BUDGET_PAIRS)
    def test_columns_are_the_relations(self, p, n):
        # rebuilt from the definition, reading no plane: bit j of the mask
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
        assert _plan(p, n).columns == expected

    def test_built_once_per_pair(self, monkeypatch, fresh_plans):
        pairs = ((5, 5), (3, 5), (3, 4), (5, 5), (3, 5), (3, 4))
        expected = [pf.decomposable_form_count(p, n) for p, n in pairs]
        checked, built = [], []
        check = pf.quadforms._require_odd_prime
        build = pf.quadforms._null_square_kernel
        monkeypatch.setattr(pf.quadforms, "_require_odd_prime",
                            lambda p: checked.append(p) or check(p))
        monkeypatch.setattr(pf.quadforms, "_null_square_kernel",
                            lambda p, n: built.append((p, n)) or build(p, n))
        assert [pf.count_null_square_two_forms(p, n).kernel_count for p, n in pairs] == expected
        # the prime is tested and the kernel one dimension down enumerated,
        # down to its base case, by the first count only
        assert checked == [5, 3, 3]
        assert built == [(5, 4), (5, 3), (3, 4), (3, 3), (3, 3)]
        assert _plan.cache_info().currsize == 3

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
            assert plan.columns == ()
            return
        # one column per triple of the outer vertices, one mask per outer
        # representative
        us = _representatives(p, n - 1)
        assert [len(column) for column in plan.columns] == \
            [len(us)] * math.comb(n - 1, 3)
        # dense: one bit per kernel representative on F_p^(n-1), every one
        # of which passes with the zero u
        width = 1 + (pf.decomposable_form_count(p, n - 1) - 1) // (p - 1)
        assert width == (p * p + p + 2 if n == 4 else {3: 131, 5: 807}[p])
        assert all(mask >> width == 0 for column in plan.columns for mask in column)
        assert next(iter(_alive(plan.columns))) == (1 << width) - 1

    def test_first_and_later_counts_match_the_oracles(self, fresh_plans):
        expected = {(3, 5): len(sweep_kernel(3, 5)), (5, 5): full_enumeration_count(5, 5)}
        for p, n in ((3, 5), (5, 5), (3, 5), (5, 5)):
            assert pf.count_null_square_two_forms(p, n).kernel_count == expected[p, n]

    def test_counts_and_the_held_tables(self, monkeypatch):
        # clear one bit v != 0 of u's alive mask, u != 0, in the mask u
        # picks from the first table: the pair weighs (p-1)^2, so every
        # call moves by 16
        plan = _plan(5, 5)
        kernel = pf.count_null_square_two_forms(5, 5).kernel_count
        alive = list(_alive(plan.columns))
        i = next(i for i in range(1, len(alive)) if alive[i] >> 1)
        above_zero = alive[i] >> 1
        bit = (above_zero & -above_zero) << 1
        first = list(plan.columns[0])
        first[i] ^= bit
        tampered = plan._replace(columns=(tuple(first),) + plan.columns[1:])
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
    ``True == 1`` are refused before any plan is built or plane solved."""

    @pytest.fixture(autouse=True)
    def no_plane_held(self):
        _plan.cache_clear()
        _plane.cache_clear()
        yield
        assert _plan.cache_info().currsize == 0
        assert _plane.cache_info().currsize == 0

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
