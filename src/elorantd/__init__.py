"""eLoran/GPS time-difference estimation from meteorological grid maps.

Library layout:

- types / errors: domain primitives and the exception taxonomy
- ingest: corpus parsing, hourly aggregation, epoch alignment, DEM I/O
- gridmap: IDW grid maps, great-circle path sampling, path feature tensors;
  one IDW weight builder (idw_weights) serves maps and path tensors
- stats: Pearson/ANOVA with hand-rolled p-values, factor selection, metrics
- features: polynomial expansion and standardization
- lasso: LASSO-regularized multivariate polynomial regression
- wlr_agrnn: elevation-weighted linear-regression + anisotropic GRNN; holds
  the one Gaussian-kernel core (pairwise distances, leave-one-out weights,
  predictions with the nearest-column fallback)
- baselines: BPNN, GRNN (the tied-bandwidth case of that kernel), and
  mixture-of-experts reference models; one tanh-network trainer and
  forward serve the MoE and the BPNN, its one-expert ungated case
- synth: seeded synthetic scenarios, their scenario.meta layout, oracles
- models / artifacts: model registry and JSON field kinds; the one JSON
  codec, for model artifacts and scenario.meta alike
- pipeline / cli: orchestration, command line
"""

from .errors import ElorantdError
from .types import (
    ALL_FACTORS,
    EARTH_RADIUS_KM,
    FACTOR_PRESETS,
    EpochHour,
    GeoPoint,
    MetFactor,
    factor_set,
    haversine_km,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_FACTORS",
    "EARTH_RADIUS_KM",
    "FACTOR_PRESETS",
    "ElorantdError",
    "EpochHour",
    "GeoPoint",
    "MetFactor",
    "factor_set",
    "haversine_km",
    "__version__",
]
