"""Ext-algebras of connected graded algebras and their graded skew extensions.

Exact (rational or prime-field) computation of truncated noncommutative
Groebner bases, minimal free resolutions of the trivial module, Yoneda
products on Ext, and certification that the Ext-algebra of a skew extension
A[z; sigma] is a twisted tensor product of the Ext-algebras of A and of the
polynomial algebra on z.
"""

from .linalg import Mod, PrimeField, RationalField, field_by_name
from .freealg import (
    FreeAlgebra,
    Generator,
    ParseError,
    Presentation,
    format_presentation,
    parse_automorphism,
    parse_poly,
    parse_presentation,
)
from .algebra import (
    GradedAlgebra,
    GradedMorphism,
    GroebnerBasis,
    MorphismError,
    NotInvertibleError,
    TruncationError,
    buchberger_truncated,
    certify_morphism,
    identity_morphism,
    morphism_from_images,
    polynomial_algebra_presentation,
    skew_extension,
)
from .complexes import (
    ComplexMap,
    FreeComplex,
    NotAChainMap,
    induce_up,
    internal_shift,
    mapping_cone,
    minimal_resolution,
    shift_complex,
    twist_complex,
    verify_exactness,
)
from .cone import ConeResolution, build_cone_resolution, cross_validate, verify_cone_exactness
from .ext import (
    ExtAlgebra,
    ExtClass,
    ExtMap,
    canonical_z_class,
    compose_ext_maps,
    ext_functor_map,
    induced_ext_automorphism,
    lift_chain_map,
)
from .smash import (
    NotAFactorization,
    ProductTable,
    SmashTwist,
    algebra_table,
    certify_smash,
    ext_product_table,
    flip_twist,
    skew_commutation_twist,
    skew_smash_transport_report,
    smash_multiply,
    transport_check,
    twist_from_factorization,
)
from .verify import (
    FactorizationReport,
    FinitenessVerdict,
    FrobeniusVerdict,
    GenerationVerdict,
    expected_twist_from_tau,
    frobenius_check,
    frobenius_form_crosscheck,
    is_finite_certified,
    low_degree_generation_check,
    verify_ext_factorization,
)

__version__ = "0.1.0"
