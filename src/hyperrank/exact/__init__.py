"""Exact arithmetic core: rational polynomials, matrices, mod-p factorization,
Hensel lifting, integer and p-adic helpers, Newton polygons."""

from .intmat import QMat, berkowitz_charpoly_mod, hnf_rows, primitive_vector
from .newton import NewtonPolygon, newton_polygon
from .padic import crt_integers, factor_int, vp_fraction, vp_int
from .poly import (QPoly, cyclotomic, cyclotomic_indices_up_to_degree,
                   euler_phi, poly_gcd, squarefree_decomposition)
