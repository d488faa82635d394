"""Exact homotopy and chromatic-height cardinality arithmetic for pi-finite
spaces: finite groups as Cayley tables, a symbolic space calculus with its
p-adic loop operator, the p-derivation on height profiles, and the
layer-splitting elements, all over exact rationals.

The public names below load their submodule on first access (PEP 562), so
``import pifinite`` alone imports nothing else, and a CLI process loads only
the modules its answer uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
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
_SUBMODULES = frozenset(_EXPORTS) | {"checks", "cli", "homcounts", "records"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Nothing is cached here: every read goes to the submodule, so a name
    # replaced there (by a test or a tracer) reads the same through the package.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
