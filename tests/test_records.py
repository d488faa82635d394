"""The contract of the library's frozen value classes (group descriptors,
space atoms, reports): construction, equality, hashing, repr, immutability
and the checks their constructors run."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pifinite as pf
from pifinite import InputError, InvariantError, records
from pifinite.records import frozen


class _Counted:
    """A field that counts the calls to its ``__hash__``."""
    calls = 0

    def __hash__(self):
        _Counted.calls += 1
        return 7


@frozen
class _One:
    key: object


@frozen
class _Two:
    key: object
    tag: int


class TestEqualityAndHash:
    def test_equal_fields_equal_records(self):
        assert pf.Cyclic(3) == pf.Cyclic(3)
        assert pf.EM((4, 2), 2) == pf.EM((2, 4), 2)       # factors canonicalised
        assert pf.Empty() == pf.EMPTY
        assert pf.DirectProduct(pf.Cyclic(2), pf.Dihedral(8)) \
            == pf.DirectProduct(pf.Cyclic(2), pf.Dihedral(8))

    def test_other_classes_never_equal(self):
        assert pf.Cyclic(3) != pf.Symmetric(3)
        assert pf.Cyclic(3) != (3,)
        assert (3,) != pf.Cyclic(3)
        assert pf.Cyclic(3) != pf.Cyclic(4)
        assert pf.Cyclic(3).__eq__((3,)) is NotImplemented

    def test_hash_is_hash_of_field_tuple(self):
        assert hash(pf.Cyclic(3)) == hash((3,))
        d = pf.DirectProduct(pf.Cyclic(2), pf.Wreath(pf.Symmetric(3), 2))
        assert hash(d) == hash((pf.Cyclic(2), pf.Wreath(pf.Symmetric(3), 2)))
        assert hash(pf.EM((2, 4), 2)) == hash(((2, 4), 2))
        assert hash(pf.Empty()) == hash(())

    @pytest.mark.parametrize("build", [lambda key: _One(key), lambda key: _Two(key, 2)])
    def test_hash_is_taken_once(self, build):
        key = _Counted()
        record = build(key)
        _Counted.calls = 0
        table = {record: "a"}
        for _ in range(100):
            assert table[record] == "a"
            assert record in table
        assert _Counted.calls == 1
        held = hash(record)
        assert held == hash(tuple(getattr(record, name) for name in type(record).__record__[0]))
        # an equal record has its own hash to take, and finds the entry
        _Counted.calls = 0
        assert table[build(key)] == "a"
        assert _Counted.calls == 1

    @pytest.mark.parametrize("build", [lambda key: _One(key), lambda key: _Two(key, 2)])
    def test_unhashable_field_raises_on_every_call(self, build):
        record = build([1, 2])
        for _ in range(3):
            with pytest.raises(TypeError):
                hash(record)
            with pytest.raises(TypeError):
                {record: 1}

    def test_pickles_leave_the_held_hash_out(self):
        # a held hash is not pickled: a str field hashes differently in
        # another process
        def build():
            return pf.DirectProduct(pf.Cyclic(2), pf.Wreath(pf.Symmetric(3), 2))
        record = build()
        held = hash(record)
        assert pickle.dumps(record) == pickle.dumps(build())
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and hash(clone) == held

    def test_usable_as_keys(self):
        keys = {pf.Cyclic(2): "a", pf.Symmetric(2): "b", pf.EM((2,), 1): "c"}
        assert keys[pf.Cyclic(2)] == "a" and keys[pf.EM((2,), 1)] == "c"
        assert len({pf.Cyclic(2), pf.Cyclic(2), pf.Dihedral(2)}) == 2


class TestRepr:
    def test_pinned(self):
        assert repr(pf.Cyclic(6)) == "Cyclic(n=6)"
        assert repr(pf.DirectProduct(pf.Cyclic(2), pf.Dihedral(8))) \
            == "DirectProduct(left=Cyclic(n=2), right=Dihedral(order=8))"
        assert repr(pf.EM((2, 4), 2)) == "EM(factors=(2, 4), degree=2)"
        assert repr(pf.Empty()) == "Empty()"
        assert repr(pf.R1Element(pf.PT, 0, 2, -1)) \
            == "R1Element(symbol=FinSet(size=1), delta_power=0, coefficient=2, constant=-1)"


class TestImmutability:
    @pytest.mark.parametrize("record, field", [
        (pf.Cyclic(3), "n"), (pf.EM((2,), 1), "degree"),
        (pf.HeightProfile(2, (1, 2)), "values"), (pf.R1Element(pf.PT, 0, 1, 1), "constant")])
    def test_fields_cannot_be_assigned_or_deleted(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.new_attribute = 0
        assert getattr(record, field) == before


class TestConstruction:
    def test_keywords_and_positions_agree(self):
        assert pf.EM(degree=2, factors=(6,)) == pf.EM((6,), 2) == pf.EM((6,), degree=2)
        assert pf.Wreath(base=pf.Cyclic(2), p=3) == pf.Wreath(pf.Cyclic(2), 3)
        report = pf.FormCountReport(kernel_count=261, total_forms=729, prime=3, dimension=4)
        assert report == pf.FormCountReport(3, 4, 261, 729) and report.kernel_count == 261

    def test_post_init_normalises(self):
        assert pf.EM((4, 2), 1).factors == (2, 4)
        assert pf.HeightProfile(2, (1, 2)).values == (Fraction(1), Fraction(2))
        assert type(pf.HeightProfile(2, (1,)).values[0]) is Fraction

    @pytest.mark.parametrize("build", [
        lambda: pf.Cyclic(),
        lambda: pf.Cyclic(1, 2),
        lambda: pf.Cyclic(m=1),
        lambda: pf.Cyclic(1, n=1),
        lambda: pf.EM((2,)),
        lambda: pf.R1Element(pf.PT, 0, 1),
        lambda: pf.R1Element(constant=1),
        lambda: pf.Empty(1),
    ])
    def test_bad_arguments_are_type_errors(self, build):
        with pytest.raises(TypeError):
            build()

    def test_post_init_checks_fire(self):
        with pytest.raises(InputError):
            pf.FinSet(0)
        with pytest.raises(InputError):
            pf.EM((2,), 0)
        with pytest.raises(InputError):
            pf.EM((1,), 1)
        with pytest.raises(InputError):
            pf.Disjoint((pf.PT,))
        with pytest.raises(InputError):
            pf.Product((pf.PT,))
        with pytest.raises(InputError):
            pf.HeightProfile(4, (1,))
        with pytest.raises(InvariantError):
            pf.FormCountReport(3, 4, 0, 729)         # kernel count out of range
        with pytest.raises(InvariantError):
            pf.FormCountReport(3, 4, 2, 729)         # not 1 mod p - 1
        with pytest.raises(InputError):
            pf.R1Element(pf.PT, -1, 1, 0)             # negative delta power
        with pytest.raises(InputError):
            pf.R1Element(pf.PT, 0, 2.5, 0)            # a float coefficient is not exact

    def test_post_init_checks_fire_under_optimize(self):
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import pifinite as pf\n"
                "for build in (lambda: pf.FinSet(0), lambda: pf.EM((2,), 0),\n"
                "              lambda: pf.Disjoint((pf.PT,)), lambda: pf.HeightProfile(4, (1,)),\n"
                "              lambda: pf.R1Element(pf.PT, -1, 1, 0),\n"
                "              lambda: pf.FormCountReport(3, 4, 2, 729)):\n"
                "    try:\n"
                "        build()\n"
                "    except pf.PifiniteError as exc:\n"
                "        print(__debug__, type(exc).__name__)\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["False InputError"] * 5 + ["False InvariantError"]


class TestCompiledConstructor:
    """Each class compiles its own ``__init__`` on its first construction."""

    @pytest.mark.parametrize("build, message", [
        (lambda: pf.Cyclic(), "Cyclic.__init__() missing 1 required positional argument: 'n'"),
        (lambda: pf.Cyclic(1, n=1), "Cyclic.__init__() got multiple values for argument 'n'"),
        (lambda: pf.EM((2,), depth=1),
         "EM.__init__() got an unexpected keyword argument 'depth'"),
        (lambda: pf.Empty(1), "Empty.__init__() takes 1 positional argument but 2 were given"),
    ])
    def test_bad_call_names_the_class(self, build, message):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message

    def test_second_construction_compiles_nothing(self, monkeypatch):
        compiled = []

        def counted_exec(source, namespace):
            compiled.append(source)
            exec(source, namespace)
        monkeypatch.setattr(records, "exec", counted_exec, raising=False)

        @frozen
        class Fresh:
            key: object
            tag: int

            def __post_init__(self):
                if self.tag < 0:
                    raise InputError("negative tag")

        assert Fresh.__dict__["__init__"] is records._init
        # the first construction compiles, then binds as every later one
        with pytest.raises(TypeError, match=r"Fresh\.__init__\(\) missing 1 required "
                                            r"positional argument: 'tag'"):
            Fresh("a")
        first = Fresh("a", 1)
        init = Fresh.__dict__["__init__"]
        assert init is not records._init and len(compiled) == 1
        assert init.__module__ == __name__ and init.__qualname__.endswith("Fresh.__init__")
        assert Fresh(key="a", tag=1) == first and repr(first).endswith(".Fresh(key='a', tag=1)")
        with pytest.raises(InputError):
            Fresh("a", -1)
        assert Fresh.__dict__["__init__"] is init and len(compiled) == 1

    @pytest.mark.parametrize("field", ["self", "_set", "_post_init"])
    def test_field_named_like_a_helper_is_refused(self, field):
        namespace = {"__annotations__": {"key": int, field: int}}
        with pytest.raises(TypeError, match=f"cannot have a field named '{field}'"):
            frozen(type("Clash", (), namespace))

    def test_import_compiles_only_module_constants(self):
        # EMPTY and PT are the only records built at import
        src = str(Path(pf.__file__).resolve().parent.parent)
        code = ("import importlib, pkgutil, pifinite\n"
                "from pifinite import records\n"
                "mods = [importlib.import_module(f'pifinite.{m.name}')\n"
                "        for m in pkgutil.iter_modules(pifinite.__path__)]\n"
                "classes = {c for m in mods for c in vars(m).values()\n"
                "           if isinstance(c, type) and '__record__' in c.__dict__}\n"
                "print(len(mods), len(classes))\n"
                "print(*sorted(c.__name__ for c in classes\n"
                "              if c.__dict__['__init__'] is not records._init))\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        counts, compiled = out.stdout.splitlines()
        modules, classes = map(int, counts.split())
        assert modules >= 10 and classes >= 16
        assert compiled == "Empty FinSet"


class TestFormCountReport:
    """``FormCountReport`` is a checked tuple, not a ``@frozen`` record: every
    form count builds one, and the tuple costs one allocation.  It keeps the
    record contract, and every way to build one runs its checks."""

    REPORT = (3, 4, 261, 729)

    def test_equal_to_its_own_class_only(self):
        report = pf.FormCountReport(*self.REPORT)
        assert report == pf.FormCountReport(*self.REPORT)
        assert not report != pf.FormCountReport(*self.REPORT)
        assert report != pf.FormCountReport(3, 4, 263, 729)
        # a plain tuple of the same fields is unequal on either side, and
        # the report answers itself rather than deferring to the tuple
        assert report != self.REPORT and self.REPORT != report
        assert not report == self.REPORT and not self.REPORT == report
        assert report.__eq__(self.REPORT) is False
        assert report.__ne__(self.REPORT) is True
        assert report != pf.MultiplicativityReport(3, Fraction(1), Fraction(1), True)

    def test_hash_is_hash_of_field_tuple(self):
        report = pf.FormCountReport(*self.REPORT)
        assert hash(report) == hash(self.REPORT)
        assert len({report, pf.FormCountReport(*self.REPORT)}) == 1

    def test_pinned_repr(self):
        assert repr(pf.FormCountReport(*self.REPORT)) \
            == "FormCountReport(prime=3, dimension=4, kernel_count=261, total_forms=729)"
        assert repr(pf.count_null_square_two_forms(3, 2)) \
            == "FormCountReport(prime=3, dimension=2, kernel_count=3, total_forms=3)"

    def test_keyword_and_positional_construction(self):
        report = pf.FormCountReport(*self.REPORT)
        assert pf.FormCountReport(3, 4, kernel_count=261, total_forms=729) == report
        assert pf.FormCountReport(total_forms=729, kernel_count=261, dimension=4,
                                  prime=3) == report
        assert (report.prime, report.dimension, report.kernel_count, report.total_forms) \
            == self.REPORT
        assert tuple(report) == self.REPORT
        with pytest.raises(TypeError):
            pf.FormCountReport(3, 4, 261)
        with pytest.raises(TypeError):
            pf.FormCountReport(3, 4, 261, 729, prime=3)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_rerun_the_checks(self, protocol):
        report = pf.FormCountReport(*self.REPORT)
        clone = pickle.loads(pickle.dumps(report, protocol))
        assert type(clone) is pf.FormCountReport and clone == report
        # a report forged past __new__ is refused when it is rebuilt
        forged = tuple.__new__(pf.FormCountReport, (3, 4, 0, 729))
        with pytest.raises(InvariantError, match="kernel count out of range"):
            pickle.loads(pickle.dumps(forged, protocol))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copies_rerun_the_checks(self, clone):
        report = pf.FormCountReport(*self.REPORT)
        assert clone(report) == report and type(clone(report)) is pf.FormCountReport
        forged = tuple.__new__(pf.FormCountReport, (3, 4, 729, 729))
        with pytest.raises(InvariantError, match="must miss a form with nonzero square"):
            clone(forged)

    @pytest.mark.parametrize("field", ["prime", "dimension", "kernel_count", "total_forms"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        report = pf.FormCountReport(*self.REPORT)
        before = getattr(report, field)
        with pytest.raises(AttributeError):
            setattr(report, field, 0)
        with pytest.raises(AttributeError):
            delattr(report, field)
        with pytest.raises(AttributeError):
            report.new_attribute = 0
        assert getattr(report, field) == before and tuple(report) == self.REPORT

    def test_no_unchecked_builders(self):
        # namedtuple's _make and _replace would build a report past __new__
        report = pf.FormCountReport(*self.REPORT)
        assert not hasattr(report, "_make") and not hasattr(report, "_replace")
        assert not hasattr(report, "__dict__")
