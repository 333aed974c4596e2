"""Geodesic flow on spherical-harmonic surfaces.

Numerical side: geodesic integration on perturbed spheres, equatorial
Poincare sections, closed-geodesic search and linear stability.

Exact side: the normal variational equation of the equatorial geodesic on a
sectoral surface, derived in rational arithmetic, and a Kovacic-style decision
procedure for Liouvillian solvability of second-order ODEs with rational
coefficients over quadratic number fields.

The names below and the submodules load on first access (PEP 562), so that
the exact side, which needs the standard library alone, never imports NumPy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Poly": "algebra",
    "QuadExt": "algebra",
    "RatFunc": "algebra",
    "partial_fractions": "algebra",
    "Trajectory": "geodesic",
    "clairaut_values": "geodesic",
    "integrate": "geodesic",
    "lemma1_critical_eps": "geodesic",
    "lemma1_poly": "geodesic",
    "normalize_speed": "geodesic",
    "nve_dual_residual": "geodesic",
    "sphere_closure_error": "geodesic",
    "FuchsianODE": "kovacic",
    "KovacicResult": "kovacic",
    "candidate_census": "kovacic",
    "census_table_text": "kovacic",
    "run_kovacic": "kovacic",
    "NVEData": "nve",
    "equatorial_nve": "nve",
    "standard_form": "nve",
    "ClosedGeodesic": "poincare",
    "SectionData": "poincare",
    "equator_monodromy": "poincare",
    "find_closed_geodesics": "poincare",
    "generate_section": "poincare",
    "max_trajectory_occupancy": "poincare",
    "occupancy": "poincare",
    "return_map": "poincare",
    "Metric2": "surface",
    "PoleError": "surface",
    "PolarSurface": "surface",
}

_SUBMODULES = frozenset(
    {"algebra", "cli", "dop853", "geodesic", "kernels", "kovacic", "nve", "poincare",
     "surface", "trigring"}
)

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
