"""Federated learning simulator over exchanged Gaussian posteriors.

Clients train mean-field Gaussian posteriors with a variational
online-Newton optimizer; a server fuses them with closed-form barycentric
aggregation rules; personalization interpolates between the global and each
local posterior along a divergence geodesic, with no extra training.
"""

__version__ = "0.1.0"

from .geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    aggregate,
    geodesic_sweep,
    numeric_projection_oracle,
    project,
    projection_divergence,
)

__all__ = [
    "AggregationMethod",
    "DiagGaussian",
    "Divergence",
    "aggregate",
    "geodesic_sweep",
    "numeric_projection_oracle",
    "project",
    "projection_divergence",
    "__version__",
]
