"""Coverage, association and rate analysis of an integrated
Sub-6GHz/mmWave cellular network with Poisson-clustered hotspots.

The package evaluates the model two ways — Monte Carlo simulation over
sampled point patterns and numerical evaluation of the closed-form
expressions — so the two can be cross-validated.
"""

__version__ = "0.1.0"
