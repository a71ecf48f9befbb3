"""Federated learning simulator over exchanged Gaussian posteriors.

Clients train mean-field Gaussian posteriors with a variational
online-Newton optimizer; a server fuses them with closed-form barycentric
aggregation rules; personalization interpolates between the global and each
local posterior along a divergence geodesic, with no extra training.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose a count, so artifacts match on any
# core count; NumPy reads these on its first import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    aggregate,
    project,
    projection_divergence,
)

__all__ = [
    "AggregationMethod",
    "DiagGaussian",
    "Divergence",
    "aggregate",
    "project",
    "projection_divergence",
    "__version__",
]
