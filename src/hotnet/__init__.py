"""Coverage, association and rate analysis of an integrated
Sub-6GHz/mmWave cellular network with Poisson-clustered hotspots.

The package evaluates the model two ways — Monte Carlo simulation over
sampled point patterns and numerical evaluation of the closed-form
expressions — so the two can be cross-validated.
"""

from .params import ScenarioKind, SystemParams, db_to_linear, dbm_to_watts, linear_to_db
from .association import AssociationOutcome, Tier, associate, biased_metric
from .quadrature import IntegrationResult, QuadSpec, integrate_adaptive, integrate_semi_infinite

__all__ = [
    "ScenarioKind",
    "SystemParams",
    "db_to_linear",
    "dbm_to_watts",
    "linear_to_db",
    "AssociationOutcome",
    "Tier",
    "associate",
    "biased_metric",
    "IntegrationResult",
    "QuadSpec",
    "integrate_adaptive",
    "integrate_semi_infinite",
]

__version__ = "0.1.0"
