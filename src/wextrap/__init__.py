"""Numerical laboratory for multilinear Muckenhoupt weight classes,
constructive interpolation certificates, and commutator compactness
contrast experiments on weighted grids."""

__version__ = "0.1.0"

from .grids import (Cube, CubeFamily, Grid, GridFunction, average,
                    build_cube_family, family_averages, weighted_lp_norm)
from .weights import (ClassConstant, ConstantWeight, Exponents,
                      LogBlowupWeight, MembershipReport, PowerOfWeight,
                      PowerWeight, ProductWeight, Verdict, WeightSpec,
                      as_fraction, bmo_norm, composite_weight, conjugate,
                      exponents, membership, muckenhoupt_constant,
                      muckenhoupt_pq_constant, multilinear_constant,
                      multilinear_limited_range_constant,
                      multilinear_offdiag_constant)

__all__ = [
    "Cube", "CubeFamily", "Grid", "GridFunction", "average",
    "build_cube_family", "family_averages", "weighted_lp_norm",
    "ClassConstant", "ConstantWeight", "Exponents", "LogBlowupWeight",
    "MembershipReport", "PowerOfWeight", "PowerWeight", "ProductWeight",
    "Verdict", "WeightSpec", "as_fraction", "bmo_norm",
    "composite_weight", "conjugate", "exponents", "membership",
    "muckenhoupt_constant", "muckenhoupt_pq_constant", "multilinear_constant",
    "multilinear_limited_range_constant", "multilinear_offdiag_constant",
    "__version__",
]
