"""Exact arithmetic core: rational polynomials, matrices, mod-p factorization,
Hensel lifting, truncated p-adics, Newton polygons."""

from .intmat import QMat, berkowitz_charpoly_mod, hnf_rows, primitive_vector
from .newton import NewtonPolygon, newton_polygon
from .padic import (PadicTruncated, crt_integers, factor_int, vp_fraction,
                    vp_int)
from .poly import (QPoly, cyclotomic, cyclotomic_indices_up_to_degree,
                   euler_phi, poly_gcd, squarefree_decomposition)

__all__ = [
    "QMat", "QPoly", "PadicTruncated", "NewtonPolygon",
    "berkowitz_charpoly_mod", "hnf_rows", "primitive_vector",
    "newton_polygon", "crt_integers", "factor_int", "vp_fraction", "vp_int",
    "cyclotomic", "cyclotomic_indices_up_to_degree", "euler_phi",
    "poly_gcd", "squarefree_decomposition",
]
