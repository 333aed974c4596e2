"""Geodesic flow on spherical-harmonic surfaces.

Numerical side: geodesic integration on perturbed spheres, equatorial
Poincare sections, closed-geodesic search and linear stability.

Exact side: the normal variational equation of the equatorial geodesic on a
sectoral surface, derived in rational arithmetic, and a Kovacic-style decision
procedure for Liouvillian solvability of second-order ODEs with rational
coefficients over quadratic number fields.
"""

from .algebra import Poly, QuadExt, RatFunc, partial_fractions
from .geodesic import (
    Trajectory,
    clairaut_values,
    integrate,
    lemma1_critical_eps,
    lemma1_poly,
    normalize_speed,
    nve_dual_residual,
    sphere_closure_error,
)
from .kovacic import (
    FuchsianODE,
    KovacicResult,
    candidate_census,
    census_table_text,
    run_kovacic,
)
from .nve import NVEData, equatorial_nve, standard_form
from .poincare import (
    ClosedGeodesic,
    SectionData,
    equator_monodromy,
    find_closed_geodesics,
    generate_section,
    max_trajectory_occupancy,
    occupancy,
    return_map,
)
from .surface import Metric2, PoleError, PolarSurface

__version__ = "0.1.0"

__all__ = [
    "ClosedGeodesic",
    "FuchsianODE",
    "KovacicResult",
    "Metric2",
    "NVEData",
    "PolarSurface",
    "PoleError",
    "Poly",
    "QuadExt",
    "RatFunc",
    "SectionData",
    "Trajectory",
    "candidate_census",
    "census_table_text",
    "clairaut_values",
    "equator_monodromy",
    "equatorial_nve",
    "find_closed_geodesics",
    "generate_section",
    "integrate",
    "lemma1_critical_eps",
    "lemma1_poly",
    "max_trajectory_occupancy",
    "normalize_speed",
    "nve_dual_residual",
    "occupancy",
    "partial_fractions",
    "return_map",
    "run_kovacic",
    "sphere_closure_error",
    "standard_form",
]
