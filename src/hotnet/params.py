"""Scenario parameters: one frozen record holding every knob of the model.

Every field is a configured quantity in the unit it is usually quoted in:
distances in meters, densities per square kilometer, powers in dBm, gains
and intercepts in dB.  The record holds no derived value:
``association.link_budgets`` is its one linear-scale view.  The defaults
reproduce the standard simulation setup of the integrated Sub-6GHz/mmWave
hotspot model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError("dB conversion requires a positive value")
    return 10.0 * math.log10(x)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0) * 1e-3


class ScenarioKind(Enum):
    """Deployment variants: (a) integrated, (b) Sub-6GHz only, (c) mmWave
    only, (d) two-tier Sub-6GHz (small cells moved to the Sub-6GHz band)."""

    INTEGRATED = "a"
    SUB6_ONLY = "b"
    MMWAVE_ONLY = "c"
    TWO_TIER_SUB6 = "d"


@dataclass(frozen=True)
class SystemParams:
    # spatial model
    lambda1_per_km2: float = 30.0       # Sub-6GHz macro BS density
    lambda_p_per_km2: float = 5.0       # hotspot center density
    n_bs: int = 10                      # mmWave BSs per hotspot
    sigma_bs_m: float = 100.0           # cluster spread of mmWave BSs
    sigma_ue_m: float = 150.0           # cluster spread of UEs

    # radio
    p1_dbm: float = 40.0                # Sub-6GHz transmit power
    p2_dbm: float = 30.0                # mmWave transmit power
    g1_dbi: float = 0.0                 # Sub-6GHz omni gain (not pinned by the model; configurable)
    g_main_dbi: float = 18.0            # mmWave main-lobe gain
    g_side_dbi: float = -2.0            # mmWave side-lobe gain
    theta_b_deg: float = 10.0           # main-lobe beamwidth

    # blockage / propagation
    p_los: float = 0.2
    r_los_ball_m: float = 200.0
    c1_db: float = -38.5                # path loss intercepts at 1 m
    c_los_db: float = -61.4
    c_nlos_db: float = -72.0
    alpha1: float = 3.0
    alpha_los: float = 2.0
    alpha_nlos: float = 2.92
    n_nakagami_los: int = 3
    n_nakagami_nlos: int = 2

    # bandwidth / noise
    w1_hz: float = 20e6
    w2_hz: float = 1e9
    noise_figure_db: float = 10.0

    # association bias of the small-cell tier over the macro tier: the
    # weights B1 and B2 enter only as B2/B1, so B1 is 1
    bias2_db: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so it is rejected here first
        for fld in fields(self):
            if not math.isfinite(getattr(self, fld.name)):
                raise ValueError(f"{fld.name} must be finite")
        if not (0.0 <= self.p_los <= 1.0):
            raise ValueError("p_los must be a probability")
        if self.r_los_ball_m <= 0:
            raise ValueError("r_los_ball_m must be positive")
        if self.lambda1_per_km2 < 0 or self.lambda_p_per_km2 < 0:
            raise ValueError("densities must be nonnegative")
        for name in ("n_bs", "n_nakagami_los", "n_nakagami_nlos"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number")
            object.__setattr__(self, name, int(value))
        if self.n_bs < 0:
            raise ValueError("n_bs must be nonnegative")
        if self.sigma_bs_m <= 0 or self.sigma_ue_m <= 0:
            raise ValueError("cluster spreads must be positive")
        if self.alpha1 <= 2.0 or self.alpha_nlos <= 2.0:
            raise ValueError("alpha1 and alpha_nlos must exceed 2 for "
                             "interference convergence")
        if self.alpha_los <= 0.0:
            raise ValueError("alpha_los must be positive")
        if self.n_nakagami_los < 1 or self.n_nakagami_nlos < 1:
            raise ValueError("Nakagami orders must be >= 1")
        if self.n_nakagami_los > 10:
            raise ValueError("Nakagami LoS order above 10 is numerically unsupported "
                             "(alternating binomial sum)")
        if not (0.0 < self.theta_b_deg < 360.0):
            raise ValueError("beamwidth must lie in (0, 360) degrees")
        if self.g_main_dbi < self.g_side_dbi:
            raise ValueError("main-lobe gain must dominate side-lobe gain")
        if self.w1_hz <= 0 or self.w2_hz <= 0:
            raise ValueError("bandwidths must be positive")

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

