"""warpfill: warped half-line fillings over finite carriers.

Exact l1 warped distances and Gromov products;
hyperbolicity defect estimation; visual boundary metrics with snowflake
checks; and discrete global Sobolev-Poincare verification including the
sharpness probe at the threshold p = beta/alpha.
"""

__version__ = "0.1.0"

from .errors import (DomainError, PreconditionError, ResourceCapError, SchemaError,
                     UnboundedError, ValidationError)
from .profiles import FMinResult, WarpProfile, minimize_F, minimize_F_batch, sup_G_batch
from .spaces import (CarrierSpace, approx_length_check, circle, from_graph,
                     from_matrix, load_space, save_space, validate_matrix)
from .warped import (WarpedPoint, distance, distance_batch, gromov_product,
                     gromov_product_batch)
from .hyperbolicity import (BoundaryMetric, DeltaReport, boundary_metric, default_eps,
                            delta_bound, estimate_delta, snowflake_check)
from .poincare import (CounterexampleReport, FillingGraph, SPReport,
                       build_filling_graph, builtin_filling_family,
                       builtin_halfline_family, counterexample_suite,
                       discrete_upper_gradient, filling_verifier,
                       halfline_constant_exp, halfline_constant_general,
                       halfline_graph, halfline_verifier, lp_norm,
                       optimal_constant_and_ratio, optimal_subtracted_constant)

__all__ = [name for name in dir() if not name.startswith("_")]
