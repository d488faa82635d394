"""The package namespace: every public name reads through to its submodule,
which is imported on first use.  Each check runs in a fresh interpreter,
because which modules are loaded is process-wide state."""

import ast
import os
import subprocess
import sys
import textwrap

# the public names and the submodule that defines each
EXPORTS = {
    "descriptors": ("Cyclic", "Dihedral", "DirectProduct", "GroupDescriptor", "Symmetric",
                    "Wreath"),
    "errors": ("InputError", "InvariantError", "PifiniteError", "ResourceBudgetError"),
    "groups": ("ConjugacyClass", "FiniteGroup", "build_group", "centralizer",
               "conjugacy_classes", "count_commuting_p_tuples", "direct_product",
               "p_loop_decomposition", "wreath_cyclic"),
    "heights": ("HeightProfile", "LayerClass", "R1Element", "WreathReport",
                "alpha_splitter", "beta_element", "classify_layer", "delta",
                "delta_iter", "height_profile", "verify_wreath_identity"),
    "normalforms": ("NormalForm", "connectivity", "is_m_finite"),
    "parser": ("ParseError", "parse_group", "parse_space", "space_text"),
    "quadforms": ("FormCountReport", "MultiplicativityReport",
                  "amenability_failure_report", "count_null_square_two_forms",
                  "cup_square_fiber_cardinality", "decomposable_form_count",
                  "gaussian_binomial"),
    "rationals": ("INFINITE", "ExactRational", "Valuation", "binom_ext", "is_prime", "vp"),
    "spaces": ("EM", "EMPTY", "PT", "Classifying", "Disjoint", "Empty", "FinSet",
               "Product", "SpaceExpr", "classifying", "disjoint_union", "em_space",
               "finite_set", "height_cardinality", "homotopy_cardinality",
               "is_amenable_at_height", "normal_form", "p_adic_loop", "product"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = sorted(EXPORTS) + ["checks", "cli", "homcounts", "records"]


def fresh(code: str):
    """The Python literal that ``code``, run in a fresh interpreter, prints last."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert fresh("""
        import sys
        import pifinite
        print(repr([pifinite.__version__,
                    sorted(m for m in sys.modules if m.startswith("pifinite"))]))
    """) == ["0.1.0", ["pifinite"]]


def test_a_descriptor_loads_no_table_engine():
    assert fresh("""
        import sys
        import pifinite
        pifinite.Cyclic(2), pifinite.Wreath(pifinite.Symmetric(3), 2)
        print(repr(sorted(m for m in sys.modules if m.startswith("pifinite"))))
    """) == ["pifinite", "pifinite.descriptors", "pifinite.errors", "pifinite.rationals",
             "pifinite.records"]


def test_a_normal_form_loads_no_table_engine():
    # a normal form keys a described group by its descriptor
    assert fresh("""
        import sys
        import pifinite as pf
        x = pf.parse_space("B(S6) * B(D2000) * B(S4 wr C2) + B(D6) + B(S3)")
        print(repr([repr(pf.normal_form(x)), pf.connectivity(x), pf.is_m_finite(x, 1),
                    "pifinite.groups" in sys.modules]))
    """) == ["NormalForm(2 * B(S3) + B(S6) * B(S4 wr C2) * B(D2000))", -1, True, False]


def test_all_lists_the_public_names():
    assert fresh("import pifinite; print(repr(sorted(pifinite.__all__)))") == NAMES


def test_every_name_is_its_submodules_object():
    # the first read imports the submodule; the package keeps no copy, so a
    # name replaced in its submodule reads the same through the package
    assert fresh(f"""
        import importlib
        import pifinite
        exports = {EXPORTS!r}
        wrong = [name for module, names in exports.items() for name in names
                 if getattr(pifinite, name)
                 is not getattr(importlib.import_module("pifinite." + module), name)]
        pifinite.spaces.height_cardinality = marker = object()
        print(repr([wrong, pifinite.height_cardinality is marker]))
    """) == [[], True]


def test_from_import_and_star_import():
    assert fresh("""
        import pifinite
        from pifinite import FiniteGroup, vp
        namespace = {}
        exec("from pifinite import *", namespace)
        del namespace["__builtins__"]
        print(repr([sorted(namespace),
                    all(namespace[n] is getattr(pifinite, n) for n in namespace),
                    FiniteGroup is pifinite.groups.FiniteGroup,
                    vp(12, 2)]))
    """) == [NAMES, True, True, 2]


def test_dir_lists_names_and_submodules():
    listed = fresh("import pifinite; print(repr(dir(pifinite)))")
    assert listed == sorted(listed)
    assert set(NAMES) | set(SUBMODULES) | {"__version__"} <= set(listed)
    # and in this process, with submodules already loaded
    import pifinite
    assert set(NAMES) | set(SUBMODULES) | {"__version__"} <= set(dir(pifinite))


def test_submodules_reachable_after_bare_import():
    assert fresh(f"""
        import pifinite
        print(repr([getattr(pifinite, m).__name__ for m in {SUBMODULES!r}]))
    """) == [f"pifinite.{m}" for m in SUBMODULES]


def test_unknown_name_is_an_attribute_error():
    assert fresh("""
        import pifinite
        outcomes = []
        try:
            pifinite.no_such_name
        except AttributeError as exc:
            outcomes.append(str(exc))
        try:
            from pifinite import no_such_name
        except ImportError:
            outcomes.append("ImportError")
        print(repr(outcomes))
    """) == ["module 'pifinite' has no attribute 'no_such_name'", "ImportError"]


def test_public_unions_are_types():
    # PEP 604 unions, which isinstance reads in C and which need no typing;
    # Atom and RationalLike are read from their submodules
    assert fresh("""
        import types
        import pifinite as pf
        from pifinite.rationals import RationalLike
        from pifinite.spaces import Atom
        unions = [pf.GroupDescriptor, pf.SpaceExpr, pf.Valuation, RationalLike, Atom]
        print(repr([[type(u) is types.UnionType for u in unions],
                    isinstance(pf.Wreath(pf.Symmetric(3), 2), pf.GroupDescriptor),
                    isinstance(pf.PT, pf.SpaceExpr), isinstance(pf.Cyclic(2), pf.SpaceExpr)]))
    """) == [[True] * 5, True, True, False]
