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

``import multiproj`` runs no submodule.  Each public name, and each of the
five submodules, is imported on first access (PEP 562) and then bound here,
so a caller pays only for the submodules it uses.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_SUBMODULES = {
    "classifier": "ClassificationVerdict Partition ProjPoint Reason Verdict classify"
                  " cohomology_character parse_partition poincare_of_multiprojective sym2_p1_map",
    "exactalg": "LaurentPoly binom",
    "lefschetz": "BracketReport RatMatrix RelationCheck Sl2MatrixModule build_cohomology_module"
                 " highest_weight_multiplicities is_irreducible module_character tensor_modules"
                 " verify_brackets",
    "sl2rep": "Character FactorizationError IrrepMultiset clebsch_gordan_decompose"
              " factor_tensor_of_irreps irrep_character partitions tensor_character"
              " tensor_irreps_character",
    "symcurve": "DimensionComparison DimRelation PoincarePolynomial betti_closed"
                " compare_dimensions dim_sym_of_cohomology genus_obstruction_report"
                " poincare_genus_zero poincare_polynomial poincare_via_series"
                " total_dim_cohomology",
}
_OWNER = {name: module for module, names in _SUBMODULES.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name):
    owner = name if name in _SUBMODULES else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    __import__(f"{__name__}.{owner}")
    value = sys.modules[f"{__name__}.{owner}"]
    if name != owner:
        value = getattr(value, name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__all__})
