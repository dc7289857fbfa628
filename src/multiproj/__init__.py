"""Exact classification of products of complex projective spaces.

The package decides when two multiprojective spaces P^{n_1} x ... x P^{n_r}
are isomorphic by comparing the characters of their cohomology as
sl(2,C)-modules under the Lefschetz operators, and exposes the supporting
machinery: an exact character ring with a tensor-factorization oracle,
explicit matrix realizations of the sl(2)-action with bracket and
irreducibility checks, and the Betti-number calculators for symmetric
products of curves that show why the method is specific to genus zero.

All arithmetic is exact (big integers and rationals); there is no floating
point anywhere in the package.
"""

from .classifier import (
    ClassificationVerdict,
    Partition,
    ProjPoint,
    Reason,
    Verdict,
    classify,
    cohomology_character,
    parse_partition,
    poincare_of_multiprojective,
    sym2_p1_map,
)
from .exactalg import LaurentPoly, binom
from .lefschetz import (
    BracketReport,
    RatMatrix,
    RelationCheck,
    Sl2MatrixModule,
    build_cohomology_module,
    highest_weight_multiplicities,
    is_irreducible,
    module_character,
    tensor_modules,
    verify_brackets,
)
from .sl2rep import (
    Character,
    FactorizationError,
    IrrepMultiset,
    clebsch_gordan_decompose,
    factor_tensor_of_irreps,
    irrep_character,
    partitions,
    tensor_character,
    tensor_irreps_character,
)
from .symcurve import (
    DimensionComparison,
    DimRelation,
    PoincarePolynomial,
    betti_closed,
    compare_dimensions,
    dim_sym_of_cohomology,
    genus_obstruction_report,
    poincare_genus_zero,
    poincare_polynomial,
    poincare_via_series,
    total_dim_cohomology,
)

__version__ = "0.1.0"

__all__ = [
    "BracketReport",
    "Character",
    "ClassificationVerdict",
    "DimensionComparison",
    "DimRelation",
    "FactorizationError",
    "IrrepMultiset",
    "LaurentPoly",
    "Partition",
    "PoincarePolynomial",
    "ProjPoint",
    "RatMatrix",
    "Reason",
    "RelationCheck",
    "Sl2MatrixModule",
    "Verdict",
    "betti_closed",
    "binom",
    "build_cohomology_module",
    "classify",
    "clebsch_gordan_decompose",
    "cohomology_character",
    "compare_dimensions",
    "dim_sym_of_cohomology",
    "factor_tensor_of_irreps",
    "genus_obstruction_report",
    "highest_weight_multiplicities",
    "irrep_character",
    "is_irreducible",
    "module_character",
    "parse_partition",
    "partitions",
    "poincare_genus_zero",
    "poincare_of_multiprojective",
    "poincare_polynomial",
    "poincare_via_series",
    "sym2_p1_map",
    "tensor_character",
    "tensor_irreps_character",
    "tensor_modules",
    "total_dim_cohomology",
    "verify_brackets",
]
