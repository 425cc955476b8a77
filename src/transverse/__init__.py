"""Exact homological algebra for products of transverse monomial ideals.

Star-product resolutions, Koszul homology with explicit representatives,
the Golod resolution of the residue field, degree-one DG products and
Koszul module actions, and Avramov obstruction certificates — all over
graded polynomial rings with exact arithmetic.
"""

from .complexes import (
    BettiTable,
    GradedFreeComplex,
    betti_table,
    is_minimal,
    star_product,
    strand_homology,
    stupid_truncation,
    tensor_complexes,
    validate_complex,
    verify_resolution,
)
from .fields import QQ, PrimeField
from .golod import (
    golod_poincare,
    golod_resolution,
    koszul_homology,
    kunneth_map,
    massey_mu,
    verify_golod,
)
from .ideals import (
    MonomialIdeal,
    degree_basis_mod_ideal,
    ideal_intersection,
    ideal_product,
    is_sequentially_transverse,
    is_transverse,
    minimalize_generators,
)
from .obstructions import (
    avramov_obstruction,
    tate_resolution,
    tor_over_quotient,
    verify_injectivity,
)
from .poly import (
    Monomial,
    PolyMatrix,
    Polynomial,
    Ring,
)
from .resolutions import (
    betti_numbers,
    koszul_complex,
    lift_comparison_map,
    minimize_complex,
    taylor_complex,
    tor_independence,
)

__version__ = "0.1.0"
