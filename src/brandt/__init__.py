"""Finite semigroup kernel, Brandt extensions, and their homomorphisms."""

from .core import (
    AlgebraError,
    BadIdentity,
    BadZero,
    BudgetExceeded,
    ConformanceError,
    FiniteSemigroup,
    FunctionSemigroup,
    HypothesisUnmet,
    IllFormedTriple,
    MaximalSubgroup,
    Mismatch,
    NoIdentity,
    NonAssociative,
    NotHomomorphism,
    NotIdempotent,
    NoZero,
    ParseError,
    ShapeError,
    TrivialInput,
    build_semigroup,
    maximal_subgroup,
    subsemigroup,
    with_adjoined_identity,
    with_adjoined_zero,
)
from .search import (
    congruence_closure,
    congruence_lattice,
    excludes_b2,
    find_matrix_unit_copy,
    is_congruence,
    is_congruence_free,
    iso_search,
    matrix_unit_exclusion,
)
from .classify import (
    PropertyReport,
    classify,
    idempotents_central,
    is_regular,
)
from .construct import (
    BrandtExtension,
    bicyclic_with_zero,
    brandt_extension,
    double_extension_witness,
    function_brandt_extension,
    matrix_units,
    matrix_units_extension,
    orthogonal_sum,
)
from .homs import (
    Homomorphism,
    check_homomorphism,
    compose_homs,
    enumerate_homs,
)
from .category import (
    MorphismTriple,
    NotClassifiable,
    check_block_separation,
    compose_and_check,
    compose_triples,
    enumerate_triples,
    extension_homs,
    identity_triple,
    image_decomposition,
    induced_hom,
    make_triple,
    recover_triple,
)
from .sgpfile import parse_sgp, read_extension, write_extension, write_sgp

__version__ = "0.1.0"
