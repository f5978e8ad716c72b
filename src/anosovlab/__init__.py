"""Desk-scale laboratory for the resonance band structure of geodesic flows
on negatively curved surfaces: flow backends on the Bolza surface, band
edges from extremal time averages, the exact constant-curvature resonance
catalog, correlation functions with harmonic inversion, and counting and
concentration statistics.

The top level re-exports the entry points of the main pipelines; everything
else is imported from its submodule.
"""

__version__ = "0.1.0"

from .birkhoff import SamplingPlan, band_edges_upto
from .correlation import correlation_series, mean_zero
from .flow import verify_anosov
from .inversion import harmonic_inversion
from .model import ObservableSpec, PotentialSpec, build_model

__all__ = [
    "ObservableSpec",
    "PotentialSpec",
    "SamplingPlan",
    "band_edges_upto",
    "build_model",
    "correlation_series",
    "harmonic_inversion",
    "mean_zero",
    "verify_anosov",
]
