"""Scenario parameters: one frozen record holding every knob of the model.

All distances are in meters, densities in points per square meter, powers
in the units they are usually quoted in (dBm, dBi, dB) with linear-scale
accessors.  The defaults reproduce the standard simulation setup of the
integrated Sub-6GHz/mmWave hotspot model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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

    # association bias (only the ratio B2/B1 matters)
    bias1_db: float = 0.0
    bias2_db: float = 0.0

    # simulation geometry.  The Monte Carlo engine samples BSs only inside
    # ``truncation_radius_m`` and adds the expected far-field interference
    # of the remaining (infinite) network as a deterministic term.
    truncation_radius_m: float = 3_000.0

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
        if self.truncation_radius_m <= 0:
            raise ValueError("truncation_radius_m must be positive")

    # ---- linear-scale accessors -------------------------------------

    @property
    def lambda1(self) -> float:
        """Sub-6GHz BS density per m^2."""
        return self.lambda1_per_km2 * 1e-6

    @property
    def lambda_p(self) -> float:
        """Hotspot center density per m^2."""
        return self.lambda_p_per_km2 * 1e-6

    @property
    def p1_w(self) -> float:
        return dbm_to_watts(self.p1_dbm)

    @property
    def p2_w(self) -> float:
        return dbm_to_watts(self.p2_dbm)

    @property
    def g1(self) -> float:
        return db_to_linear(self.g1_dbi)

    @property
    def g_main(self) -> float:
        return db_to_linear(self.g_main_dbi)

    @property
    def g_side(self) -> float:
        return db_to_linear(self.g_side_dbi)

    @property
    def theta_b_rad(self) -> float:
        return math.radians(self.theta_b_deg)

    @property
    def p_main(self) -> float:
        """Probability that a random interferer beam points at the UE."""
        return self.theta_b_rad / (2.0 * math.pi)

    @property
    def c1(self) -> float:
        return db_to_linear(self.c1_db)

    @property
    def c_los(self) -> float:
        return db_to_linear(self.c_los_db)

    @property
    def c_nlos(self) -> float:
        return db_to_linear(self.c_nlos_db)

    @property
    def bias1(self) -> float:
        return db_to_linear(self.bias1_db)

    @property
    def bias2(self) -> float:
        return db_to_linear(self.bias2_db)

    @property
    def noise1_w(self) -> float:
        return noise_power_w(self.w1_hz, self.noise_figure_db)

    @property
    def noise2_w(self) -> float:
        return noise_power_w(self.w2_hz, self.noise_figure_db)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus bandwidth and figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(dbm)
