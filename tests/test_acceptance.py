"""End-to-end acceptance gate: the analytic and Monte Carlo paths must
reproduce each other and the known qualitative behavior of the model.

Each numbered block below is one acceptance criterion.  Tolerances are
stated inline; shared Monte Carlo tables come from conftest fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hotnet import analytic, montecarlo
from hotnet.association import link_budgets
from hotnet.geometry import rice_pdf
from hotnet.params import ScenarioKind, SystemParams, linear_to_db
from hotnet.quadrature import QuadSpec

from conftest import SEED, TAU_GRID_DB

ETA_GRID = [round(0.1 * i, 1) for i in range(1, 16)]
LOOSE = QuadSpec(rel_tol=3e-3, abs_tol=1e-6)


def _median_sinr_db(params: SystemParams) -> float:
    return brentq(
        lambda t_db: analytic.coverage(10.0 ** (t_db / 10.0), params,
                                       spec=LOOSE) - 0.5,
        -40.0, 60.0, xtol=0.005)


# ---------------------------------------------------------------------------
# 1. association crossover at defaults
# ---------------------------------------------------------------------------

def test_association_crossover(defaults):
    a2 = analytic.assoc_prob(2, defaults)
    table = montecarlo.run_trials(defaults, ScenarioKind.INTEGRATED,
                                  100_000, seed=SEED, assoc_only=True)
    mc = montecarlo.estimate_assoc_prob(table, 2).value
    assert abs(a2 - mc) < 0.015
    assert 0.4 < a2 < 0.6
    assert 0.4 < mc < 0.6


# ---------------------------------------------------------------------------
# 2. offload grows strictly with cluster size
# ---------------------------------------------------------------------------

def test_mm_share_strictly_increasing_in_cluster_size(defaults):
    vals = [analytic.assoc_prob(2, defaults.replace(n_bs=n))
            for n in (2, 6, 10, 14, 18)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# 3. optimal cluster dispersion ratio
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma_ue", [100.0, 150.0])
def test_mm_share_peaks_at_moderate_dispersion(defaults, sigma_ue):
    vals = [analytic.assoc_prob(
        2, defaults.replace(sigma_ue_m=sigma_ue, sigma_bs_m=eta * sigma_ue))
        for eta in ETA_GRID]
    best = ETA_GRID[int(np.argmax(vals))]
    assert 0.3 <= best <= 0.7


@pytest.mark.parametrize("sigma_ue", [100.0, 150.0])
def test_median_sinr_peaks_at_moderate_dispersion(defaults, sigma_ue):
    vals = [_median_sinr_db(
        defaults.replace(sigma_ue_m=sigma_ue, sigma_bs_m=eta * sigma_ue))
        for eta in ETA_GRID]
    best = ETA_GRID[int(np.argmax(vals))]
    assert 0.3 <= best <= 0.7


# ---------------------------------------------------------------------------
# 4. coverage cross-validation and deployment comparison
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def analytic_curve(defaults):
    return np.array([analytic.coverage(10.0 ** (t / 10.0), defaults)
                     for t in TAU_GRID_DB])


def test_coverage_analytic_matches_simulation(analytic_curve,
                                              mc_curve_integrated):
    diff = np.abs(analytic_curve - mc_curve_integrated.probabilities)
    assert float(diff.max()) <= 0.03


def test_integrated_coverage_level_at_zero_db(mc_curve_integrated):
    c0 = float(mc_curve_integrated.probabilities[TAU_GRID_DB == 0.0][0])
    assert 0.75 <= c0 <= 0.85


def test_two_tier_coverage_level_at_zero_db(mc_curve_two_tier):
    c0 = float(mc_curve_two_tier.probabilities[TAU_GRID_DB == 0.0][0])
    assert 0.35 <= c0 <= 0.45


def test_mmwave_band_gain_over_two_tier(mc_curve_integrated,
                                        mc_curve_two_tier):
    c_a = float(mc_curve_integrated.probabilities[TAU_GRID_DB == 0.0][0])
    c_d = float(mc_curve_two_tier.probabilities[TAU_GRID_DB == 0.0][0])
    assert c_a - c_d >= 0.3


# ---------------------------------------------------------------------------
# 5. LoS-only expression upper-bounds the full one, tightly at defaults
# ---------------------------------------------------------------------------

def test_no_nlos_variant_is_tight_upper_bound(defaults, analytic_curve):
    bounds = np.array([analytic.coverage_no_nlos(10.0 ** (t / 10.0), defaults)
                       for t in TAU_GRID_DB])
    assert np.all(bounds >= analytic_curve - 1e-4)
    assert float(np.max(bounds - analytic_curve)) <= 0.02


# ---------------------------------------------------------------------------
# 6. interference is non-negligible and grows with cluster size
# ---------------------------------------------------------------------------

def test_snr_sinr_gap_grows_with_cluster_size(defaults):
    gaps = {}
    for n in (2, 18):
        table = montecarlo.run_trials(defaults.replace(n_bs=n),
                                      ScenarioKind.MMWAVE_ONLY,
                                      30_000, seed=SEED)
        # medians over the served trials: the deployment leaves a fixed
        # fraction of users without any line-of-sight candidate
        served = table.select(table.tier == 2)
        snr, sinr = (montecarlo.estimate_quantile(served, metric, 0.5)
                     for metric in ("snr", "sinr"))
        gaps[n] = linear_to_db(snr) - linear_to_db(sinr)
    assert gaps[18] > gaps[2]


# ---------------------------------------------------------------------------
# 7. offload under association bias
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mm_share_vs_bias(defaults):
    bias_grid = np.arange(-20.0, 61.0, 10.0)
    vals = [analytic.assoc_prob(2, defaults.replace(bias2_db=float(b)))
            for b in bias_grid]
    return bias_grid, np.array(vals)


def test_mm_share_nondecreasing_in_bias(mm_share_vs_bias):
    _, vals = mm_share_vs_bias
    assert np.all(np.diff(vals) >= -1e-9)


def test_mm_share_saturation_at_high_bias(mm_share_vs_bias):
    bias_grid, vals = mm_share_vs_bias
    v50 = float(vals[bias_grid == 50.0][0])
    assert v50 >= 0.9


# ---------------------------------------------------------------------------
# 8. behavior conditioned on the hotspot-center distance
# ---------------------------------------------------------------------------

def test_offload_and_serving_distance_vs_offset(defaults):
    table = montecarlo.run_trials(defaults, ScenarioKind.INTEGRATED,
                                  200_000, seed=SEED, assoc_only=True)

    def offset_bin(lo, hi):
        return table.select((table.v0 >= lo) & (table.v0 < hi))

    edges = np.arange(0.0, 600.1, 50.0)
    shares = [montecarlo.estimate_assoc_prob(offset_bin(lo, hi), 2).value
              for lo, hi in zip(edges[:-1], edges[1:])
              if lo >= defaults.sigma_ue_m]
    assert all(b <= a + 1e-12 for a, b in zip(shares, shares[1:]))

    # far from the hotspot everyone is served by the macro tier, whose
    # nearest-point distance has mean 1/(2 sqrt(lambda))
    far = offset_bin(400.0, 550.0)
    want = 1.0 / (2.0 * math.sqrt(defaults.lambda1_per_km2 * 1e-6))
    assert montecarlo.estimate_assoc_prob(far, 2).value < 0.02
    assert montecarlo.estimate_serving_distance(far).value == \
        pytest.approx(want, rel=0.05)


# ---------------------------------------------------------------------------
# 9. always-on structural properties
# ---------------------------------------------------------------------------

def test_association_partition_of_unity(defaults):
    total = analytic.assoc_prob(1, defaults) + analytic.assoc_prob(2, defaults)
    assert abs(total - 1.0) < 1e-6


def test_density_normalizations(defaults):
    for v0 in (0.0, 120.0, 400.0):
        val, _ = quad(rice_pdf, 0.0, v0 + 12 * defaults.sigma_bs_m,
                      args=(v0, defaults.sigma_bs_m), limit=300)
        assert abs(val - 1.0) < 1e-5
    reach = float(analytic._serving_reach(1, 0.0, link_budgets(defaults)))
    for k, hi in ((1, reach), (2, defaults.r_los_ball_m)):
        val, _ = quad(lambda x: analytic.conditional_distance_pdf(
            k, x, 120.0, defaults), 0.0, hi, limit=300)
        assert abs(val - 1.0) < 1e-5


def test_coverage_curves_nonincreasing(analytic_curve, mc_curve_integrated,
                                       mc_curve_two_tier):
    for curve in (analytic_curve, mc_curve_integrated.probabilities,
                  mc_curve_two_tier.probabilities):
        assert np.all(np.diff(curve) <= 1e-12)


def test_laplace_transforms_at_zero(defaults):
    macro, cells = link_budgets(defaults)
    assert analytic.laplace_I1(0.0, 60.0, macro) == 1.0
    assert analytic.laplace_I2_intra(0.0, 100.0, 60.0, cells.cluster) == 1.0
    assert analytic.laplace_I2_inter(0.0, cells.cluster) == 1.0


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 5.0, 20.0])
def test_angular_kernel_identity(t):
    # the member distance density is the angular integral of the 2-D
    # normal scatter; its angular factor, the integral of exp(t cos th)
    # over [-pi, pi] at t = r * v0 / sigma^2, is 2*pi*I0(t)
    r, sigma = 30.0, 20.0
    s2 = sigma * sigma
    v0 = t * s2 / r
    angular, _ = quad(lambda th: math.exp(
        -(r * r + v0 * v0 - 2.0 * r * v0 * math.cos(th)) / (2.0 * s2)),
        -math.pi, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    assert rice_pdf(r, v0, sigma) == pytest.approx(
        r / (2.0 * math.pi * s2) * angular, rel=1e-9)


def test_seed_determinism_bitwise(defaults):
    a = montecarlo.run_trials(defaults, ScenarioKind.INTEGRATED, 500, seed=77)
    b = montecarlo.run_trials(defaults, ScenarioKind.INTEGRATED, 500, seed=77)
    for field in ("tier", "serving_distance", "v0", "sinr", "snr", "rate"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


# ---------------------------------------------------------------------------
# 10. mean-rate consistency between the two paths
# ---------------------------------------------------------------------------

def test_avg_rate_consistency(defaults, table_integrated):
    ana = analytic.avg_rate(defaults)
    sim = montecarlo.estimate_rate(table_integrated)
    assert abs(ana - sim.value) / sim.value < 0.05
