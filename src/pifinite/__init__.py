"""Exact homotopy and chromatic-height cardinality arithmetic for pi-finite
spaces: finite groups as Cayley tables, a symbolic space calculus with its
p-adic loop operator, the p-derivation on height profiles, and the
layer-splitting elements, all over exact rationals."""

from .errors import InputError, InvariantError, PifiniteError, ResourceBudgetError
from .groups import (ConjugacyClass, Cyclic, Dihedral, DirectProduct, FiniteGroup,
                     GroupDescriptor, Symmetric, Wreath, build_group, centralizer,
                     conjugacy_classes, count_commuting_p_tuples, direct_product,
                     p_loop_decomposition, wreath_cyclic)
from .heights import (HeightProfile, LayerClass, R1Element, WreathReport,
                      alpha_splitter, beta_element, classify_layer, delta,
                      delta_iter, height_profile, pk_relation_check,
                      verify_wreath_identity)
from .parser import ParseError, parse_group, parse_space, space_text
from .quadforms import (FormCountReport, MultiplicativityReport,
                        amenability_failure_report, count_null_square_two_forms,
                        cup_square_fiber_cardinality, decomposable_form_count,
                        gaussian_binomial)
from .rationals import (INFINITE, ExactRational, Valuation, binom_ext, is_prime,
                        vp)
from .spaces import (EM, EMPTY, PT, Classifying, Disjoint, Empty, FinSet,
                     NormalForm, Product, SpaceExpr, classifying, connectivity,
                     disjoint_union, em_space, finite_set, height_cardinality,
                     homotopy_cardinality, is_amenable_at_height, is_m_finite,
                     normal_form, p_adic_loop, product)

__version__ = "0.1.0"
