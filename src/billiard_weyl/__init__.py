"""Mode-density asymptotics for planar billiards.

Smooth-expansion coefficients from geometry, closed-orbit Green functions,
bounce-map monodromy algebra, image-path corner ledgers, and exact-spectrum
verification harnesses.

Importing the package loads no submodule: each top-level name is imported
from its home module on first access (PEP 562), so a process that needs
only the exact, numpy-free modules never loads numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# home module of every top-level name
_HOMES = {
    "errors": ("BilliardError", "DomainError", "NonConvergence"),
    "geometry": ("Boundary", "Corner", "GeometricMeasures", "Segment",
                 "frame_at", "measures", "parse_geometry", "serialize_geometry"),
    "weyl": ("BoundaryCondition", "CornerCoefficients", "SpectralExpansion",
             "corner_coeffs", "smooth_counting", "weyl_expansion"),
    "birkhoff": ("BirkhoffCoord", "Mat2", "OrbitSpec", "bounce_map", "jacobian_r_p",
                 "linearized_bounce_map", "monodromy", "transverse_jacobians"),
    "orbit_terms": ("acute_corner_orbit", "corner_orbit_propagator", "green_stationary",
                    "length_term_density", "single_reflection_factors",
                    "single_reflection_green", "single_reflection_propagator"),
    "ledger": ("PathContribution", "SignSignature", "signature_ledger"),
    "folding": ("broken_path_propagator", "obtuse_corner_constant"),
    "spectra": ("Spectrum", "disk_spectrum", "rectangle_spectrum", "staircase_residual"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str):
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
