"""Closed-form evaluation: distance laws, association, Laplace transforms,
coverage and its invariants.

Heavy sweep-level agreement between the analytic and Monte Carlo paths
lives in test_acceptance.py; here each building block is checked against
an independent numerical or sampled oracle.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ncx2

from hotnet import analytic, montecarlo, quadrature
from hotnet.association import boundary_map, link_budgets
from hotnet.geometry import rice_pdf, sample_thomas_cluster
from hotnet.params import (ScenarioKind, SystemParams, db_to_linear,
                           dbm_to_watts)
from hotnet.quadrature import (QuadSpec, half_line, integrate_adaptive,
                               integrate_semi_infinite)

from conftest import TAU_GRID_DB

P = SystemParams()
# linear-scale constants of the defaults, spelled out from the configured
# fields: transmit powers, densities per m^2, and the probability that a
# random beam's main lobe covers the UE
P1_W, P2_W = dbm_to_watts(P.p1_dbm), dbm_to_watts(P.p2_dbm)
LAMBDA1, LAMBDA_P = P.lambda1_per_km2 * 1e-6, P.lambda_p_per_km2 * 1e-6
P_MAIN = P.theta_b_deg / 360.0
G1, C1 = db_to_linear(P.g1_dbi), db_to_linear(P.c1_db)

# Physics of a cluster member as seen by the typical UE, spelled out per
# deployment: which members may serve (probability and ball), the antenna
# gain levels (main lobe drawn with probability P_MAIN), and the
# (Nakagami order, intercept, exponent) of candidate and other links.
MEMBER_LINKS = {
    "a": dict(scenario=ScenarioKind.INTEGRATED, p_cand=P.p_los,
              ball=P.r_los_ball_m,
              gains=(db_to_linear(P.g_main_dbi), db_to_linear(P.g_side_dbi)),
              cand=(P.n_nakagami_los, db_to_linear(P.c_los_db), P.alpha_los),
              other=(P.n_nakagami_nlos, db_to_linear(P.c_nlos_db),
                     P.alpha_nlos)),
    # (d): small cells on the Sub-6GHz band, omni, Rayleigh, no blockage
    "d": dict(scenario=ScenarioKind.TWO_TIER_SUB6, p_cand=1.0,
              ball=math.inf, gains=(G1, G1),
              cand=(1, C1, P.alpha1), other=(1, C1, P.alpha1)),
}


def records(params, scenario=ScenarioKind.INTEGRATED, include_nlos=True):
    """The (macro, small-cell) records the kernels take.  Without NLoS the
    small-cell law keeps only the kernel segments that are not NLoS."""
    macro, cells = link_budgets(params, scenario)
    if include_nlos:
        return macro, cells
    law = cells.cluster
    law = replace(law, segments=tuple(s for s in law.segments if not s.nlos))
    return macro, replace(cells, cluster=law)


def cell_law(params, deployment="a"):
    """The small-cell law of a deployment of ``MEMBER_LINKS``."""
    scenario = MEMBER_LINKS[deployment]["scenario"]
    return link_budgets(params, scenario)[1].cluster


def exact_exponent(inter, s):
    """The inter-cluster exponent A(s) of ``inter`` from its own PGFL
    integral at s, not from the interpolated knots."""
    return inter._exponent(inter._integrals([s])[0])


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def angular_rice_pdf(r, v0, sigma):
    """The member distance density as the angular integral of the 2-D
    normal scatter around a center at distance v0: the form whose angular
    factor, integral of exp(t cos th) over [-pi, pi], is 2*pi*I0(t)."""
    s2 = sigma * sigma
    val, _ = quad(lambda th: math.exp(
        -(r * r + v0 * v0 - 2.0 * r * v0 * math.cos(th)) / (2.0 * s2)),
        -math.pi, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    return r / (2.0 * math.pi * s2) * val


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 5.0, 20.0])
def test_angular_factor_matches_bessel(t):
    # r * v0 / sigma^2 = t: the Bessel form of rice_pdf is the angular
    # integral at the argument t
    r, sigma = 30.0, 20.0
    v0 = t * sigma ** 2 / r
    assert rice_pdf(r, v0, sigma) == pytest.approx(
        angular_rice_pdf(r, v0, sigma), rel=1e-9)


@pytest.mark.parametrize("v0,sigma", [
    (0.0, 100.0), (120.0, 100.0), (900.0, 100.0),
    (2600.0, 100.0),      # large noncentrality, v0/sigma = 26
    (100.0, 15.0),        # tight cluster, far evaluation points
    # clusters far from the user: v0/sigma = 85, 300 and 3000
    (1275.0, 15.0), (4500.0, 15.0), (45000.0, 15.0),
])
def test_rice_cdf_matches_density_integral(v0, sigma):
    # the density is negligible below v0 - 12 sigma; starting there keeps
    # the narrow peak of a far cluster resolved
    lo = max(0.0, v0 - 12.0 * sigma)
    for r in (0.3 * sigma, v0 + 0.5 * sigma, v0 + 3.0 * sigma):
        want, _ = quad(rice_pdf, lo, r, args=(v0, sigma),
                       limit=400)
        assert analytic._rice_cdf(r, v0, sigma) == pytest.approx(
            want, abs=1e-8)


def test_rice_cdf_is_the_noncentral_chi_square_cdf():
    # unit spread: q = r^2 in [0, 100], noncentrality v0^2 up to 625
    r = np.sqrt(np.linspace(0.0, 100.0, 401))[:, None]
    v0 = np.linspace(0.0, 25.0, 101)[None, :]
    got = analytic._rice_cdf(r, v0, 1.0)
    assert np.max(np.abs(got - ncx2.cdf(r ** 2, 2, v0 ** 2))) <= 1e-15


def test_rice_cdf_takes_offsets_per_element():
    # offsets from v0/sigma = 0 to 130, each with a distance of its own
    sigma = 20.0
    v0 = np.array([0.0, 130.0, 480.0, 520.0, 2600.0, 499.0])
    r = np.array([15.0, 100.0, 470.0, 560.0, 2590.0, 700.0])
    want = [analytic._rice_cdf(ri, vi, sigma) for ri, vi in zip(r, v0)]
    assert analytic._rice_cdf(r, v0, sigma).tolist() == want


def test_rice_cdf_far_tail_saturates():
    # far beyond the cluster, at v0/sigma = 3, 30 and 67
    for r, v0, sigma in ((1e6, 300.0, 100.0), (1e6, 3000.0, 100.0),
                         (13000.0, 1000.0, 15.0)):
        assert analytic._rice_cdf(r, v0, sigma) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_los_distance_law_consistency():
    v0 = 180.0
    law = cell_law(P)
    # density integrates to the CDF and the CDF saturates at the ball
    val, _ = quad(analytic._candidate_pdf, 0.0, P.r_los_ball_m,
                  args=(v0, law), limit=200)
    edge = analytic._candidate_cdf(P.r_los_ball_m, v0, law)
    assert val == pytest.approx(float(edge), abs=1e-9)
    assert analytic._candidate_cdf(1e4, v0, law) == edge
    assert analytic._candidate_pdf(P.r_los_ball_m + 1.0, v0, law) == 0.0


def test_every_member_is_a_candidate_in_d():
    # (d)'s candidate law is (a)'s with p_los = 1 and an infinite ball:
    # the Rice law itself, bit for bit
    law = cell_law(P, "d")
    assert (law.los_prob, law.los_ball) == (1.0, math.inf)
    r = np.linspace(0.0, 2000.0, 201)
    for v0 in (0.0, 35.0, 140.0, 600.0):
        assert np.array_equal(analytic._candidate_cdf(r, v0, law),
                              analytic._rice_cdf(r, v0, law.spread))
        assert np.array_equal(analytic._candidate_pdf(r, v0, law),
                              rice_pdf(r, v0, law.spread))


def test_small_cell_reach_is_the_nearer_of_rice_tail_and_ball():
    # a tight cluster near its center ends 9 sigma_BS out, inside the
    # 200 m ball; a wide one ends at the ball
    for sigma, reach in ((15.0, 135.0), (100.0, P.r_los_ball_m)):
        budgets = link_budgets(P.replace(sigma_bs_m=sigma))
        assert float(analytic._serving_reach(2, 0.0, budgets)) == reach
    budgets = link_budgets(P.replace(sigma_bs_m=15.0),
                           ScenarioKind.TWO_TIER_SUB6)
    assert float(analytic._serving_reach(2, 50.0, budgets)) == 185.0


def test_serving_distance_laws_are_proper():
    # the candidate (S_L) and nearest-candidate (R2) laws of the small
    # cells, and the nearest Sub-6GHz BS (R1)
    v0 = 140.0
    law = cell_law(P)
    r = np.linspace(0.0, 600.0, 601)
    cdf_sl = analytic._candidate_cdf(r, v0, law)
    cdf_r2 = 1.0 - (1.0 - cdf_sl) ** law.members
    for f in (cdf_sl, cdf_r2):
        assert np.all(np.diff(f) >= -1e-12)
        assert np.all((f >= 0.0) & (f <= 1.0))
    # R1 is the nearest point of a PPP: its density integrates to the
    # closed-form CDF
    for x in (50.0, 150.0, 600.0):
        val, _ = quad(analytic._nearest_macro_pdf, 0.0, x,
                      args=(LAMBDA1,), limit=200)
        assert val == pytest.approx(
            1.0 - math.exp(-math.pi * LAMBDA1 * x ** 2), abs=1e-10)
    # the R2 density integrates to its CDF at the ball edge
    val, _ = quad(analytic._nearest_candidate_pdf, 0.0, P.r_los_ball_m,
                  args=(v0, law), limit=200)
    assert val == pytest.approx(float(cdf_r2[200]), abs=1e-8)


# ---------------------------------------------------------------------------
# association probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lambda1", [30.0, 1e-7], ids=["30", "1e-7"])
def test_association_probabilities_partition(lambda1):
    # the macro tier's reach grows as 1/sqrt(lambda1), so at a sparse
    # macro layer its integral runs far out
    params = P.replace(lambda1_per_km2=lambda1)
    a1 = analytic.assoc_prob(1, params)
    a2 = analytic.assoc_prob(2, params)
    assert a1 + a2 == pytest.approx(1.0, abs=1e-6)


def test_association_probability_frozen_value():
    # reference value pinned from a converged run of this quadrature;
    # guards against regressions in the distance laws and boundary maps
    assert analytic.assoc_prob(2, P) == pytest.approx(0.43787840, abs=2e-6)


def test_conditional_association_partitions_for_each_offset():
    for v0 in (0.0, 80.0, 200.0, 500.0):
        a1 = analytic.conditional_assoc_prob(1, v0, P)
        a2 = analytic.conditional_assoc_prob(2, v0, P)
        assert a1 + a2 == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("scenario", [ScenarioKind.INTEGRATED,
                                      ScenarioKind.TWO_TIER_SUB6],
                         ids=["a", "d"])
def test_own_cluster_serves_without_other_hotspots(scenario):
    # with no other hotspot the typical UE's own cluster is still there:
    # the closed forms are their lambda_p -> 0 limit
    alone = P.replace(lambda_p_per_km2=0.0)
    limit = P.replace(lambda_p_per_km2=1e-9)
    a1 = analytic.assoc_prob(1, alone, scenario=scenario)
    a2 = analytic.assoc_prob(2, alone, scenario=scenario)
    assert a1 + a2 == pytest.approx(1.0, abs=1e-6)
    assert a2 == pytest.approx(
        analytic.assoc_prob(2, limit, scenario=scenario), abs=1e-9)
    assert analytic.coverage(1.0, alone, scenario=scenario) == pytest.approx(
        analytic.coverage(1.0, limit, scenario=scenario), abs=1e-9)


# each range check, by the name of the value it guards
RANGE_CHECKS = {
    "tau": lambda x: analytic.coverage(x, P),
    "v0": lambda x: analytic.conditional_assoc_prob(2, x, P),
    "rel_tol": lambda x: QuadSpec(rel_tol=x),
    "abs_tol": lambda x: QuadSpec(abs_tol=x),
    "scale": lambda x: half_line(lambda r, j: r, 0.0, x),
}


@pytest.mark.parametrize("name, bad", [
    ("tau", -1.0), ("tau", 0.0), ("tau", math.nan),
    ("v0", -1.0), ("v0", math.inf), ("v0", math.nan),
    ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", math.nan),
    ("abs_tol", -1.0), ("abs_tol", 0.0), ("abs_tol", math.nan),
    ("scale", -1.0), ("scale", 0.0), ("scale", math.nan),
])
def test_range_checks_reject_bad_values(name, bad):
    with pytest.raises(ValueError, match=name):
        RANGE_CHECKS[name](bad)


def test_degenerate_tiers():
    assert analytic.conditional_assoc_prob(2, 100.0, P.replace(n_bs=0)) == 0.0
    assert analytic.conditional_assoc_prob(2, 100.0, P.replace(p_los=0.0)) == 0.0
    assert analytic.conditional_assoc_prob(
        1, 100.0, P.replace(lambda1_per_km2=0.0)) == 0.0


@pytest.mark.parametrize("scenario, mapped", [
    (ScenarioKind.SUB6_ONLY, P.replace(n_bs=0)),
    (ScenarioKind.MMWAVE_ONLY, P.replace(lambda1_per_km2=0.0)),
], ids=["b", "c"])
def test_single_band_deployments_are_integrated_without_a_tier(scenario,
                                                               mapped):
    # (b) is (a) without small cells and (c) is (a) without macro BSs, in
    # every entry point that takes the deployment
    for k in (1, 2):
        assert (analytic.conditional_assoc_prob(k, 50.0, P, scenario=scenario)
                == analytic.conditional_assoc_prob(k, 50.0, mapped))
    assert (analytic.assoc_prob(2, P, scenario=scenario)
            == analytic.assoc_prob(2, mapped))
    assert (analytic.coverage(1.0, P, scenario=scenario)
            == analytic.coverage(1.0, mapped))
    s = np.logspace(3.0, 9.0, 7)
    np.testing.assert_array_equal(
        analytic.laplace_I2_inter(s, link_budgets(P, scenario)[1].cluster,
                                  analytic.AnalyticReport()),
        analytic.laplace_I2_inter(s, cell_law(mapped),
                                  analytic.AnalyticReport()))


def test_sub6_only_deployment_has_no_mmwave_share():
    assert analytic.assoc_prob(2, P, scenario=ScenarioKind.SUB6_ONLY) == 0.0


def test_two_tier_assoc_prob_matches_the_fixture(table_two_tier):
    est = montecarlo.estimate_assoc_prob(table_two_tier, 2)
    got = analytic.assoc_prob(2, P, scenario=ScenarioKind.TWO_TIER_SUB6)
    assert abs(got - est.value) <= 3.0 * est.stderr


def test_two_tier_avg_rate_matches_the_fixture(table_two_tier):
    # both tiers of (d) serve on the Sub-6GHz bandwidth
    est = montecarlo.estimate_rate(table_two_tier)
    got = analytic.avg_rate(P, scenario=ScenarioKind.TWO_TIER_SUB6)
    assert got == pytest.approx(est.value, rel=0.05)


def test_mm_share_decays_with_offset():
    vals = [analytic.conditional_assoc_prob(2, v0, P)
            for v0 in (0.0, 150.0, 300.0, 450.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01


def test_conditional_distance_pdf_normalizes():
    v0 = 130.0
    reach = float(analytic._serving_reach(1, 0.0, link_budgets(P)))
    for k, hi in ((1, reach), (2, P.r_los_ball_m)):
        val, _ = quad(lambda x: analytic.conditional_distance_pdf(k, x, v0, P),
                      0.0, hi, limit=200, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-5)


def test_conditional_distance_pdf_rejects_empty_tier():
    with pytest.raises(ValueError):
        analytic.conditional_distance_pdf(2, 50.0, 100.0, P.replace(n_bs=0))


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def test_ppp_tail_integral_matches_direct_quadrature():
    b, alpha = 2.3e-4, 3.0
    big = 1e7
    for s, x in ((1e3, 50.0), (1e6, 50.0), (1e6, 500.0), (1e9, 10.0)):
        # log substitution r = e^t keeps the huge range tractable for quad;
        # the u/(1+u) form avoids cancellation for tiny u
        def integrand(t):
            u = s * b * math.exp(-alpha * t)
            return u / (1.0 + u) * math.exp(2.0 * t)

        want, _ = quad(integrand, math.log(x), math.log(big), limit=1000)
        # integrand ~ s*b*r^(1-alpha) beyond the split radius
        want += s * b * big ** (2.0 - alpha) / (alpha - 2.0)
        got = float(analytic._ppp_tail_integral(s, b, alpha, x))
        assert got == pytest.approx(want, rel=1e-5)


def test_laplace_transforms_equal_one_at_zero():
    macro, cells = link_budgets(P)
    assert analytic.laplace_I1(0.0, 50.0, macro) == 1.0
    assert analytic.laplace_I2_intra(0.0, 100.0, 50.0, cells.cluster) == 1.0
    assert analytic.laplace_I2_inter(0.0, cells.cluster,
                                     analytic.AnalyticReport()) == 1.0


def test_laplace_transforms_decrease_in_s():
    s = np.logspace(2, 12, 9)
    macro, cells = link_budgets(P)
    l1 = analytic.laplace_I1(s, 50.0, macro)
    l2 = analytic.laplace_I2_intra(s, 100.0, 50.0, cells.cluster)
    l3 = analytic.laplace_I2_inter(s, cells.cluster, analytic.AnalyticReport())
    for l in (l1, l2, l3):
        assert np.all(np.diff(l) <= 1e-12)
        assert np.all((l > 0.0) & (l <= 1.0))


def test_laplace_I1_matches_sampled_interference():
    # empirical E[exp(-s I1)] over PPP draws with Rayleigh fading
    rng = np.random.default_rng(2024)
    x = 60.0
    b1 = P1_W * G1 * C1
    s = 3.0 / (b1 * x ** (-P.alpha1))  # s I1 of order one
    n_draws = 4000
    vals = np.empty(n_draws)
    area_r = 4000.0
    for i in range(n_draws):
        m = rng.poisson(LAMBDA1 * math.pi * (area_r ** 2 - x ** 2))
        rr = np.sqrt(rng.uniform(x ** 2, area_r ** 2, m))
        h = rng.exponential(size=m)
        vals[i] = math.exp(-s * np.sum(b1 * rr ** (-P.alpha1) * h))
    emp = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n_draws)
    # transform of the same truncated annulus [x, area_r]
    expo = 2.0 * math.pi * LAMBDA1 * (
        float(analytic._ppp_tail_integral(s, b1, P.alpha1, x))
        - float(analytic._ppp_tail_integral(s, b1, P.alpha1, area_r)))
    got = math.exp(-expo)
    assert abs(got - emp) < 4.0 * err + 1e-3


@pytest.mark.parametrize("deployment", [
    "a",
    # The own-cluster transform is the Poisson form exp(-(n-1) E).  With
    # exactly n-1 members beyond x the transform is (1 - E/(1-F(x)))^(n-1):
    # 0.656 here, against 0.673 from the Poisson form and 0.654 +- 0.003
    # sampled.  In (a) the two forms differ by 6e-5.
    pytest.param("d", marks=pytest.mark.xfail(
        strict=True, reason="(d) own-cluster transform uses the Poisson "
                            "form for a fixed member count")),
])
def test_laplace_intra_matches_sampled_cluster(deployment):
    # empirical transform over Gaussian cluster members with blockage,
    # random beams and Nakagami fading, conditioned on serving distance x
    link = MEMBER_LINKS[deployment]
    rng = np.random.default_rng(77)
    v0, x, n = 120.0, 40.0, P.n_bs
    _, c_cand, alpha_cand = link["cand"]
    b2 = P2_W * link["gains"][0] * c_cand
    s = 1.0 / (b2 * x ** (-alpha_cand))
    n_draws = 6000
    vals = np.empty(n_draws)
    for i in range(n_draws):
        acc = 0.0
        kept = 0
        while kept < n - 1:
            cl = sample_thomas_cluster(np.array([v0, 0.0]), P.sigma_bs_m,
                                       1, rng)
            d = float(np.linalg.norm(cl.members[0]))
            los = (d < link["ball"]) and (rng.random() < link["p_cand"])
            if los and d < x:
                continue  # serving BS is the nearest LoS member
            kept += 1
            g = link["gains"][0] if rng.random() < P_MAIN \
                else link["gains"][1]
            order, c, alpha = link["cand"] if los else link["other"]
            h = rng.gamma(order, 1.0 / order)
            acc += P2_W * g * c * max(d, 1.0) ** (-alpha) * h
        vals[i] = math.exp(-s * acc)
    emp = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n_draws)
    law = cell_law(P, deployment)
    assert law.members == n
    got = float(analytic.laplace_I2_intra(s, v0, x, law))
    assert abs(got - emp) < 4.0 * err + 5e-3


@pytest.mark.parametrize("deployment", sorted(MEMBER_LINKS))
def test_laplace_inter_matches_sampled_clusters(deployment):
    # empirical E[exp(-s I)] over PPP hotspot centers with Poisson member
    # counts; the typical cluster is excluded (it is handled separately)
    link = MEMBER_LINKS[deployment]
    (o_cand, c_cand, a_cand), (o_other, c_other, a_other) = (
        link["cand"], link["other"])
    rng = np.random.default_rng(404)
    b2 = P2_W * link["gains"][0] * c_cand
    s = 0.5 / (b2 * 60.0 ** (-a_cand))
    n_draws = 3000
    area_r = P.r_los_ball_m + 8.0 * P.sigma_bs_m + 500.0
    vals = np.empty(n_draws)
    for i in range(n_draws):
        m = rng.poisson(LAMBDA_P * math.pi * area_r ** 2)
        centers = np.sqrt(rng.uniform(0.0, area_r ** 2, m))
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        cxy = np.column_stack((centers * np.cos(phi),
                               centers * np.sin(phi)))
        counts = rng.poisson(P.n_bs, m)
        acc = 0.0
        for c, k in zip(cxy, counts):
            if k == 0:
                continue
            pts = c + rng.normal(0.0, P.sigma_bs_m, size=(k, 2))
            d = np.maximum(np.linalg.norm(pts, axis=1), 1.0)
            los = (d < link["ball"]) & (rng.random(k) < link["p_cand"])
            g = np.where(rng.random(k) < P_MAIN, *link["gains"])
            order = np.where(los, o_cand, o_other)
            h = rng.gamma(order, 1.0 / order)
            cc = np.where(los, c_cand, c_other)
            alpha = np.where(los, a_cand, a_other)
            acc += float(np.sum(P2_W * g * cc * d ** (-alpha) * h))
        vals[i] = math.exp(-s * acc)
    emp = vals.mean()
    err = vals.std(ddof=1) / math.sqrt(n_draws)
    got = float(analytic.laplace_I2_inter(s, cell_law(P, deployment),
                                          analytic.AnalyticReport()))
    assert abs(got - emp) < 4.0 * err + 5e-3


def tiled_cluster_exponent(s, v0, x, law, include_nlos=True):
    """The cluster exponent evaluated per (s, v0, x) element: every element
    recomputes each segment's nodes, path loss and member density on the
    engine's band rule.  The shared-density path must reproduce it bit for
    bit."""
    s, v0, x = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.asarray(v0, dtype=float),
                                   np.asarray(x, dtype=float))
    shape = s.shape
    s, v0, x = (a.ravel() for a in (s, v0, x))
    total = np.zeros(s.size)
    for seg in law.segments:
        if seg.nlos and not include_nlos:
            continue
        lo = (np.full(x.shape, seg.r_min) if seg.nlos
              else np.maximum(x, seg.r_min))
        # a band that starts at 0 takes another rule than one past it, so
        # the elements of each kind take the rule on their own
        for at in (lo == 0.0, lo > 0.0):
            if not np.any(at):
                continue
            width, r, dens = analytic._band_rule(seg, lo[at, None], v0[at],
                                                 law.spread)
            path = np.maximum(r, 1e-9) ** (-seg.alpha)
            # unit-mean Nakagami power is Gamma(N, 1/N):
            # E[e^{-zh}] = (1+z/N)^-N
            s_n = s[at, None] * (seg.intercept / seg.order)
            ker = 1.0
            for gain, prob in zip(seg.gains, seg.gain_probs):
                ker = ker - prob * (1.0 + s_n * gain * path) ** (-seg.order)
            total[at] += (seg.share * width * np.sum(
                dens * ker, axis=-1, keepdims=True))[:, 0]
    return total.reshape(shape)


def tiled_coverage_integrand(k, params, scenario, include_nlos):
    """The coverage integrand with the Alzer terms tiled along one flat
    axis, each term evaluating the cluster exponent on its own copy of the
    nodes and offsets: the reference of the shared-density integrand."""
    macro, cells = link_budgets(params, scenario)
    serving, other = ((macro, cells), (cells, macro))[k - 1]
    law = cells.cluster
    points, coeff = analytic._alzer_tail(serving)
    # the serving record lists the tiers whose BSs interfere on its band
    hears_macro = 1 in serving.hears
    hears_cells = 2 in serving.hears
    inter = (analytic._inter_cache(
        records(params, scenario, include_nlos)[1].cluster)
        if hears_cells else None)
    density = analytic._serving_density(k, (macro, cells))
    two_pi_lam = 2.0 * math.pi * macro.density

    def f(x, tau, v0):
        # the Alzer terms stacked along one flat axis: s, xs are (N * nx,)
        s = (x ** serving.alpha * tau * points[:, None]
             / serving.budget).ravel()
        xs = x if len(points) == 1 else np.tile(x, len(points))
        lap = np.exp(-s * serving.noise_w)
        if hears_macro:
            x1 = xs if k == 1 else boundary_map(serving, other, xs)
            lap = lap * np.exp(-two_pi_lam * analytic._ppp_tail_integral(
                s, macro.budget, macro.alpha, x1))
        if hears_cells:
            x2 = xs if k == 2 else boundary_map(serving, other, xs)
            v0s = v0 if len(points) == 1 else np.tile(v0, len(points))
            lap = lap * (np.exp(-(law.members - 1) * tiled_cluster_exponent(
                s, v0s, x2, law, include_nlos))
                * inter(s, analytic.AnalyticReport()))
        return density(x, v0) * np.sum(
            coeff[:, None] * lap.reshape(len(points), -1), axis=0)

    return f


@pytest.mark.parametrize("deployment", ["a", "d"])
@pytest.mark.parametrize("include_nlos", [True, False])
@pytest.mark.parametrize("n_terms", [1, 3, 57])
def test_cluster_exponent_matches_tiled_reference(deployment, include_nlos,
                                                  n_terms):
    # without NLoS the reference skips the NLoS segments, and the kernel is
    # fed the law without them
    scenario = MEMBER_LINKS[deployment]["scenario"]
    law = cell_law(P, deployment)
    fed = records(P, scenario, include_nlos)[1].cluster
    # repeated and distinct offsets; exclusion radii inside and outside
    # the LoS ball, and one past v0 + 6 sigma, where the (d) band is empty
    v0 = np.array([0.0, 40.0, 40.0, 150.0, 150.0, 420.0, 1100.0, 40.0])
    x = np.array([5.0, 30.0, 250.0, 120.0, 900.0, 60.0, 10.0,
                  40.0 + 6.0 * P.sigma_bs_m + 1.0])
    if n_terms == 57:
        # the rate tail's points over the 480 nodes of a full integrand
        # call: the kernel takes its rows a few at a time
        v0, x = np.tile(v0, 60), np.tile(x, 60)
    # one row of s per tail point, each row shares the places (v0, x)
    s = np.logspace(2.0, 12.0, n_terms * v0.size).reshape(n_terms, -1)
    # and x = 0 at every place, as in the PGFL integrand: there the (a)
    # LoS band is the in-ball NLoS band, and the two share its nodes
    for x in (x, np.zeros(x.shape)):
        got = analytic._cluster_exponent(s, v0, x, fed)
        want = tiled_cluster_exponent(s.ravel(), np.tile(v0, n_terms),
                                      np.tile(x, n_terms), law, include_nlos)
        assert got.shape == s.shape
        np.testing.assert_array_equal(got, want.reshape(s.shape))


@pytest.mark.parametrize("deployment", ["a", "d"])
@pytest.mark.parametrize("include_nlos", [True, False])
@pytest.mark.parametrize("k", [1, 2])
def test_coverage_integrand_matches_tiled_reference(deployment,
                                                    include_nlos, k):
    # (a) tier 2 has N = 3 Alzer terms, every other tier N = 1; serving
    # distances reach past the LoS ball, offsets repeat and differ
    scenario = MEMBER_LINKS[deployment]["scenario"]
    x = np.linspace(1.0, 600.0, 40)
    v0 = np.repeat([0.0, 40.0, 150.0, 420.0, 1100.0], 8)
    tau = np.resize([0.1, 1.0, 100.0], x.size)
    budgets = records(P, scenario, include_nlos)
    got = analytic._coverage_integrand(k, budgets,
                                       analytic._alzer_tail(budgets[k - 1]),
                                       analytic.AnalyticReport())
    want = tiled_coverage_integrand(k, P, scenario, include_nlos)
    np.testing.assert_array_equal(got(x, tau, v0), want(x, tau, v0))


@pytest.mark.parametrize("order", [3, 10])
def test_tail_row_sum_is_accurate_where_alzer_alternates(order):
    # Alzer's weights alternate and grow with the order, to binom(10, 5) =
    # 252 at the largest order SystemParams accepts; the integrand's plain
    # sum over the tail's rows is still the exactly rounded sum of its
    # single-point terms to 1e-13 of their magnitudes
    budgets = link_budgets(P.replace(n_nakagami_los=order))
    tail = analytic._alzer_tail(budgets[1])
    x, v0, tau = (a.ravel() for a in np.meshgrid(
        np.linspace(1.0, 199.0, 25), [0.0, 40.0, 150.0, 420.0],
        [0.1, 1.0, 100.0]))
    got = analytic._coverage_integrand(2, budgets, tail,
                                       analytic.AnalyticReport())(x, tau, v0)
    terms = np.array([
        analytic._coverage_integrand(2, budgets, analytic._Tail(
            tail.points[n:n + 1], tail.weights[n:n + 1]),
            analytic.AnalyticReport())(x, tau, v0)
        for n in range(order)])
    want = np.array([math.fsum(column) for column in terms.T])
    magnitude = np.sum(np.abs(terms), axis=0)
    # the grid reaches the worst cancellation: near x = 0 every transform is
    # about 1, so the terms sum to the density against 2^N - 1 times it
    assert np.max(magnitude / np.abs(want)) > 0.99 * (2 ** order - 1)
    assert np.all(np.abs(got - want) <= 1e-13 * magnitude)


@pytest.mark.parametrize("deployment", ["a", "d"])
def test_scalar_cluster_exponent_callers_match_tiled_reference(
        deployment, monkeypatch):
    law = cell_law(P, deployment)
    inter = analytic._InterLaplace(law)

    def evaluate():
        # scalar s, v0, x; array s; the PGFL integrand: scalar s, array v
        return (analytic.laplace_I2_intra(3e7, 120.0, 40.0, law),
                analytic.laplace_I2_intra(np.logspace(4.0, 10.0, 7), 120.0,
                                          250.0, law),
                exact_exponent(inter, 1e7))

    got = evaluate()
    monkeypatch.setattr(analytic, "_cluster_exponent", tiled_cluster_exponent)
    want = evaluate()
    assert isinstance(got[0], float)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def counting_rice_nodes(monkeypatch):
    """The list that ``analytic.rice_pdf`` appends the node array shape of
    each of its calls to."""
    shapes = []

    def counting(r, v0, sigma):
        out = rice_pdf(r, v0, sigma)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(analytic, "rice_pdf", counting)
    return shapes


def test_pgfl_integrand_evaluates_each_rice_node_once(monkeypatch):
    # in (a) the LoS band [0, R_B] of the x = 0 PGFL integrand is the
    # in-ball NLoS band, so one exponent needs two bands' Rice nodes, not
    # three: 2 bands x 48 nodes x 165 offsets at the defaults
    shapes = counting_rice_nodes(monkeypatch)
    inter = analytic._InterLaplace(cell_law(P))
    assert exact_exponent(inter, 1e7) > 0.0
    assert sum(math.prod(shape) for shape in shapes) <= 15_840


def test_band_rules_are_sized_per_band(monkeypatch):
    # (a) past a serving distance: the LoS band [x, 200 m) is at most
    # 2 sigma wide at the defaults and takes 16 nodes at each place; the
    # in-ball NLoS band starts at 0 and takes 48, and [R_B, inf), cut to
    # 12 sigma, 48 too, once per distinct offset
    shapes = counting_rice_nodes(monkeypatch)
    v0 = np.array([0.0, 40.0, 150.0, 420.0, 1100.0])
    x = np.array([5.0, 30.0, 250.0, 120.0, 60.0])
    analytic._cluster_exponent(np.logspace(4.0, 10.0, 5), v0, x,
                               cell_law(P))
    assert shapes == [(5, 16), (5, 48), (5, 48)]


def test_laplace_inter_spline_matches_exact_exponent():
    cache = analytic._inter_cache(cell_law(P))
    for s in (1e5, 1e7, 1e9):
        exact = math.exp(-exact_exponent(cache, s))
        interp = float(analytic.laplace_I2_inter(s, cell_law(P),
                                                 analytic.AnalyticReport()))
        assert interp == pytest.approx(exact, abs=2e-4)


@pytest.mark.parametrize("deployment", ["a", "d"])
def test_laplace_inter_interpolation_error_mid_cell(deployment):
    # halfway between two lattice knots (ln s = k/2), where the
    # interpolant is farthest from them, wherever it is not clamped
    inter = analytic._InterLaplace(cell_law(P, deployment))
    errors = []
    for s in np.exp(np.arange(2.25, 40.0, 0.5)):
        a = exact_exponent(inter, s)
        if 1e-9 <= a <= 46.0:
            errors.append(abs(inter(s, analytic.AnalyticReport())
                              - math.exp(-a)))
    assert len(errors) >= 20
    assert max(errors) <= 2e-5


def lone_exponent(law, s, include_nlos=True):
    """A(s) of ``law`` as one lone half-line integral of the reference
    cluster exponent."""

    def f(v):
        v = np.asarray(v, dtype=float)
        e = tiled_cluster_exponent(s, v, 0.0, law, include_nlos)
        return -np.expm1(-law.members * e) * v

    res = integrate_semi_infinite(f, 0.0, law.pgfl_scale,
                                  analytic.DEFAULT_SPEC)
    return 2.0 * math.pi * law.density * max(res.value, 0.0)


class LoneKnotLaplace(analytic._InterLaplace):
    """The transform with the reference knot walk: one lone integral per
    knot, walking outward one knot at a time and stopping at a clamp.  Its
    walk takes the caller's report and counts nothing into it: its knots
    are the reference, not work of the engine."""

    def __init__(self, law, include_nlos=True):
        super().__init__(law)
        self._include_nlos = include_nlos

    def _knot(self, k):
        s = math.exp(k * self._LN_STEP)
        return math.log(max(lone_exponent(self._law, s, self._include_nlos),
                            1e-300))

    def _walk(self, k_lo, k_hi, tally):
        la = self._la
        n = len(la)
        if not la:
            self._k0 = (k_lo + k_hi) // 2
            la.append(self._knot(self._k0))
        while self._k0 > k_lo and la[0] > self._LN_A_MIN:
            self._k0 -= 1
            la.insert(0, self._knot(self._k0))
        while self._k0 + len(la) <= k_hi and la[-1] < self._LN_A_MAX:
            la.append(self._knot(self._k0 + len(la)))
        return len(la) > n


class KnotSpy:
    """Wraps ``_InterLaplace._integrals``: ``knots`` sums the knots of
    every batch it computes and ``work`` counts their integrals."""

    def __init__(self, monkeypatch):
        self.knots = 0
        self.work = analytic.AnalyticReport()
        real = analytic._InterLaplace._integrals

        def integrals(inter, s):
            self.knots += len(s)
            res = real(inter, s)
            self.work.add(res)
            return res

        monkeypatch.setattr(analytic._InterLaplace, "_integrals", integrals)


@pytest.mark.parametrize("deployment, include_nlos, eta", [
    ("a", True, None), ("d", True, None), ("a", False, None),
    ("a", True, 1.27)], ids=["a", "d", "a_no_nlos", "a_eta_1.27"])
def test_batched_knot_walk_matches_lone_knots(deployment, include_nlos, eta,
                                              monkeypatch):
    params = P if eta is None else P.replace(sigma_bs_m=eta * P.sigma_ue_m)
    spy = KnotSpy(monkeypatch)
    tally = analytic.AnalyticReport()
    scenario = MEMBER_LINKS[deployment]["scenario"]
    # the reference skips the NLoS segments; the kernel is fed the law
    # without them
    batched = analytic._InterLaplace(
        records(params, scenario, include_nlos)[1].cluster)
    lone = LoneKnotLaplace(cell_law(params, deployment), include_nlos)
    # a run started mid-range, then grown past both clamps: (d)'s A falls
    # to the lower one only near s = 1e-4, as A ~ s^(2/3) comes from the
    # kernel's turnover within a meter of r = 0
    for s in (np.logspace(6.0, 8.0, 5), np.logspace(-6.0, 40.0, 93)):
        np.testing.assert_array_equal(batched(s, tally),
                                      lone(s, analytic.AnalyticReport()))
        assert (batched._k0, batched._la) == (lone._k0, lone._la)
    assert batched._la[0] <= batched._LN_A_MIN
    # without NLoS only clusters with LoS members in the ball interfere,
    # so A saturates below the upper clamp and the run ends at the query
    assert (batched._la[-1] >= batched._LN_A_MAX) == include_nlos
    # only a pass that finds a clamp computes knots past it: at most one
    # such pass of 8 knots a side
    assert len(batched._la) <= spy.knots <= len(batched._la) + 16
    assert tally == spy.work


@pytest.mark.parametrize("deployment", ["a", "d"])
@pytest.mark.parametrize("s", [3.3e-1, 1.7e3, 2.2e7, 4.1e11, 6.5e18])
def test_exponent_exact_is_the_lone_integral(deployment, s):
    law = cell_law(P, deployment)
    assert exact_exponent(analytic._InterLaplace(law), s) == lone_exponent(
        law, s)


@pytest.mark.parametrize("deployment", ["a", "d"])
@pytest.mark.parametrize("eta", [None, 0.4, 0.7, 1.0, 1.3])
def test_every_knot_converges(deployment, eta, monkeypatch):
    params = P if eta is None else P.replace(sigma_bs_m=eta * P.sigma_ue_m)
    spy = KnotSpy(monkeypatch)
    tally = analytic.AnalyticReport()
    inter = analytic._InterLaplace(cell_law(params, deployment))
    inter(np.logspace(-2.0, 40.0, 85), tally)
    assert spy.knots >= len(inter._la) >= 20
    assert tally.evaluations >= 15 * spy.knots
    assert tally.unconverged == 0


def test_knot_counters_count_unconverged_knots(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    spy = KnotSpy(monkeypatch)
    tally = analytic.AnalyticReport()
    analytic._InterLaplace(cell_law(P))(np.logspace(4.0, 10.0, 7), tally)
    assert 0 < tally.unconverged <= spy.knots


def test_knot_work_counts_into_the_report_of_the_call_that_builds_it(
        monkeypatch):
    # the transform holds its knots and nothing else: a query's report
    # counts the knots that query builds, and no others
    spy = KnotSpy(monkeypatch)
    inter = analytic._InterLaplace(cell_law(P))
    first = analytic.AnalyticReport()
    inter(np.logspace(6.0, 8.0, 5), first)
    assert spy.knots > 0 and first.evaluations > 0
    assert first == spy.work
    again = analytic.AnalyticReport()
    inter(np.logspace(6.0, 8.0, 5), again)
    assert again == analytic.AnalyticReport()
    # a wider query builds the knots past the run, and counts only those
    knots, spy.work = spy.knots, analytic.AnalyticReport()
    wider = analytic.AnalyticReport()
    inter(np.logspace(-6.0, 40.0, 93), wider)
    assert spy.knots > knots
    assert wider == spy.work


@pytest.mark.parametrize("params, tau, before", [
    (P, 0.1, [(P, 10.0), (P, 1.0), (P, 100.0)]),
    # the bias moves the association, not the cluster law, so both
    # parameter sets share one inter-cluster transform
    (P.replace(bias2_db=10.0), 10.0, [(P, 10.0)]),
], ids=["thresholds", "bias"])
def test_coverage_independent_of_evaluation_order(params, tau, before):
    analytic._inter_cache.cache_clear()
    fresh = analytic.coverage(tau, params)
    analytic._inter_cache.cache_clear()
    for p, t in before:
        analytic.coverage(t, p)
    assert analytic.coverage(tau, params) == fresh


def test_coverage_report_counts_the_knots_it_builds(monkeypatch):
    # on a cold knot cache and a starved panel budget every knot fails to
    # converge, and the report counts each on top of the value's own
    # integrals, which a second, warm call counts alone.  The cache is
    # cleared after, so that no later test reads the starved knots
    analytic._inter_cache.cache_clear()
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    spy = KnotSpy(monkeypatch)
    try:
        cold = analytic.coverage(1.0, P, with_report=True)
        knots = spy.knots
        assert spy.work.unconverged == knots > 0
        warm = analytic.coverage(1.0, P, with_report=True)
        assert spy.knots == knots
        assert cold.unconverged == warm.unconverged + knots
        assert cold.evaluations == warm.evaluations + spy.work.evaluations
    finally:
        analytic._inter_cache.cache_clear()


def test_warm_coverage_report_counts_no_knot_work(monkeypatch):
    # the knot values are a pure function of s, so the warm call's value
    # integrals are the cold call's, less the knots that call built
    analytic._inter_cache.cache_clear()
    spy = KnotSpy(monkeypatch)
    cold = analytic.coverage(1.0, P, with_report=True)
    knots = spy.work
    assert knots.evaluations > 0
    warm = analytic.coverage(1.0, P, with_report=True)
    assert warm.value == cold.value
    assert warm.evaluations == cold.evaluations - knots.evaluations
    assert warm.unconverged == cold.unconverged - knots.unconverged == 0


def test_avg_rate_same_on_second_call():
    analytic._inter_cache.cache_clear()
    assert analytic.avg_rate(P) == analytic.avg_rate(P)


@lru_cache(maxsize=1)
def _modules_after_library_import() -> frozenset:
    """The modules a fresh interpreter holds after importing the engines
    and the CLI."""
    src = Path(analytic.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    code = ("import sys, hotnet.analytic, hotnet.montecarlo, hotnet.cli\n"
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    return frozenset(out.split())


def test_library_imports_no_scipy_interpolate():
    # the inter-cluster transform interpolates on its own lattice; every
    # process would pay for importing scipy.interpolate otherwise
    assert "scipy.interpolate" not in _modules_after_library_import()


def test_library_imports_no_root_finder_or_plotting():
    # the percentile root finder and the figures import these when they
    # run; a process that only evaluates the engines never loads them
    loaded = _modules_after_library_import()
    assert "scipy.optimize" not in loaded
    assert "matplotlib" not in loaded
    # a sweep runs in one process: nothing loads a process pool
    assert "multiprocessing" not in loaded


# ---------------------------------------------------------------------------
# coverage and rate
# ---------------------------------------------------------------------------

def test_coverage_frozen_values():
    # pinned from converged runs of the full expression at defaults
    assert analytic.coverage(10.0 ** -1.0, P) == pytest.approx(0.923151,
                                                              abs=5e-4)
    assert analytic.coverage(1.0, P) == pytest.approx(0.687468, abs=5e-4)
    assert analytic.coverage(10.0, P) == pytest.approx(0.450580, abs=5e-4)


def test_band_rule_converges_at_a_wide_los_ball(monkeypatch):
    # at a 1500 m ball the in-ball NLoS band is 15 sigma wide and starts
    # at 0, where a near interferer's kernel turns over, and a linear
    # 64-node rule on it is 7.4e-6 off.  The reference takes 4 times the
    # nodes of every band rule
    params = P.replace(r_los_ball_m=1500.0)
    analytic._inter_cache.cache_clear()
    got = analytic.coverage(10.0, params)
    monkeypatch.setattr(analytic, "_gl_rule",
                        lambda n: np.polynomial.legendre.leggauss(4 * n))
    analytic._inter_cache.cache_clear()
    try:
        want = analytic.coverage(10.0, params)
    finally:
        analytic._inter_cache.cache_clear()
    assert got == pytest.approx(want, abs=1e-6)


def loop_coverage_mass(k, tau, v0, scenario, include_nlos, spec):
    """One tier's coverage mass at one (tau, v0) pair, each serving-distance
    segment in its own integrate_adaptive call: the per-pair loop the
    batched pass replaces, kept as its reference.  Every tier is cut at
    the noise scale of the tail's smallest point, clipped to the reach."""
    budgets = records(P, scenario, include_nlos)
    serving = budgets[k - 1]
    tail = analytic._alzer_tail(serving)
    f = analytic._coverage_integrand(k, budgets, tail,
                                     analytic.AnalyticReport())
    reach = float(analytic._serving_reach(k, v0, budgets))
    x_noise = (serving.budget
               / (tau * tail.points.min() * serving.noise_w)) \
        ** (1.0 / serving.alpha)
    cuts = sorted({0.0, min(4.0 * x_noise, reach),
                   min(32.0 * x_noise, reach), reach})
    value = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        value += integrate_adaptive(
            lambda x: f(x, np.full(x.shape, tau), np.full(x.shape, v0)),
            lo, hi, spec).value
    return max(value, 0.0)


@pytest.mark.parametrize("deployment", ["a", "b", "c", "d"])
@pytest.mark.parametrize("include_nlos", [True, False])
def test_batched_coverage_mass_matches_per_pair_loop(deployment,
                                                     include_nlos):
    # the (a) small-cell noise breakpoints lie beyond the LoS ball up to
    # about 24 dB; at 30 dB one and at 50 dB both fall inside it.  (b) has
    # no small cells and (c) no macro BSs: that tier's reach is 0
    scenario = ScenarioKind(deployment)
    spec = analytic.OUTER_SPEC.tighter()
    v0 = np.array([0.0, 40.0, 150.0, 420.0, 1100.0])
    for tau_db in (-10.0, 0.0, 20.0, 30.0, 50.0):
        tau = 10.0 ** (tau_db / 10.0)
        for k in (1, 2):
            budgets = records(P, scenario, include_nlos)
            got = analytic._coverage_masses(
                k, tau, v0, budgets, analytic._alzer_tail(budgets[k - 1]),
                spec, analytic.AnalyticReport())
            want = [loop_coverage_mass(k, tau, v, scenario, include_nlos,
                                       spec) for v in v0]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tau_db", [40.0, 50.0])
def test_coverage_mass_at_high_threshold_matches_quad(tau_db, k):
    # (d)'s tiers at high thresholds: the integrand lies near x = 0, inside
    # the first node of a rule over [0, reach], unless the serving-distance
    # integral is cut at the noise scale
    budgets = link_budgets(P, ScenarioKind.TWO_TIER_SUB6)
    serving = budgets[k - 1]
    tail = analytic._alzer_tail(serving)
    tau = 10.0 ** (tau_db / 10.0)
    v0 = np.array([0.0, 100.0, 300.0])
    got = analytic._coverage_masses(k, tau, v0, budgets, tail,
                                    analytic.OUTER_SPEC.tighter(),
                                    analytic.AnalyticReport())
    f = analytic._coverage_integrand(k, budgets, tail,
                                     analytic.AnalyticReport())
    x_noise = (serving.budget / (tau * serving.noise_w)) \
        ** (1.0 / serving.alpha)
    for mass, v in zip(got, v0.tolist()):
        reach = float(analytic._serving_reach(k, v, budgets))
        want = quad(lambda x: f(np.array([x]), np.array([tau]),
                                np.array([v]))[0],
                    0.0, reach, points=[min(x_noise, reach)], epsabs=0.0,
                    epsrel=1e-10, limit=200)[0]
        assert mass == pytest.approx(want, rel=1e-5)


def test_avg_rate_frozen_value():
    # the mass-curve rate; the bracket/rho rule before it gave
    # 2457725963.59, and the 2x96-node u-rule on [-20, 40] over the same
    # masses gives 2457730572.51
    assert analytic.avg_rate(P) == pytest.approx(2457731719.67, rel=1e-6)


def bracket_avg_rate(params, scenario):
    """avg_rate as the bracket/rho rule computed it before the mass-curve
    integral, kept verbatim as its reference: per offset node and tier, 8
    bracket probes of Alzer's coverage mass on the spectral-efficiency
    axis pick its truncation point, and a 32-node rule integrates up to
    it.  Only its ``_coverage_masses`` is adapted: Alzer's tail, so that
    both rules integrate the same masses."""
    RATE_SPEC = analytic.RATE_SPEC
    _offset_average = analytic._offset_average

    def _coverage_masses(k, taus, v0s, budgets, inner, tally):
        return analytic._coverage_masses(
            k, taus, v0s, budgets, analytic._alzer_tail(budgets[k - 1]),
            inner, tally)

    inner = replace(RATE_SPEC, abs_tol=1e-10)
    budgets = link_budgets(params, scenario)
    # candidate truncation points of the spectral-efficiency axis: 2, 3,
    # 4.5, ... up to the first one past 40
    brackets = [2.0]
    while brackets[-1] < 40.0:
        brackets.append(brackets[-1] * 1.5)
    rho_u, rho_w = np.polynomial.legendre.leggauss(32)

    def masses(k: int, v0s: np.ndarray, rhos: np.ndarray,
               tally: analytic.AnalyticReport) -> np.ndarray:
        # row i: tier k's coverage masses at offset i and the spectral
        # efficiencies of row i, every row in one batched pass
        taus = [2.0 ** r - 1.0 for r in rhos.ravel().tolist()]
        return _coverage_masses(k, taus, np.repeat(v0s, rhos.shape[1]),
                                budgets, inner, tally).reshape(rhos.shape)

    def rho_integrals(k: int, v0s: np.ndarray,
                      tally: analytic.AnalyticReport) -> np.ndarray:
        # the spectral-efficiency integrand is smooth and monotone, so a
        # fixed Gauss-Legendre rule on [0, top] suffices once the
        # truncation point top is bracketed: the first candidate whose
        # coverage mass is within 1e-5, else the last one
        probes = masses(k, v0s, np.tile(brackets[:-1], (v0s.size, 1)), tally)
        tops = np.array([next((h for h, m in zip(brackets, row)
                               if m <= 1e-5), brackets[-1])
                         for row in probes])
        rule = masses(k, v0s, 0.5 * tops[:, None] * (rho_u + 1.0), tally)
        return 0.5 * tops * np.sum(rho_w * rule, axis=1)

    def rates(v0s: np.ndarray, tally: analytic.AnalyticReport) -> np.ndarray:
        return sum(b.bandwidth_hz * rho_integrals(k, v0s, tally)
                   for k, b in enumerate(budgets, start=1))

    return float(_offset_average(rates, params.sigma_ue_m, RATE_SPEC).value)


def u_rule(lo, hi, nodes, panels=1):
    """Gauss-Legendre nodes and weights in u of ``nodes`` nodes on each of
    ``panels`` equal panels of [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


# the oracle of the rate's u-rule: 2 x 96 nodes on [-20, 40]
ORACLE_U_RULE = u_rule(-20.0, 40.0, 96, panels=2)
# the module's rule, its window [-10, 30] widened to [-20, 44] by 32-node
# panels on each new piece, with the lower-tail node moved to -20
WIDE_U_RULE = tuple(np.concatenate(parts) for parts in zip(
    ([-20.0], [1.0]), u_rule(-20.0, -10.0, 32),
    (node[:-1] for node in analytic._RATE_RULE), u_rule(30.0, 44.0, 32)))


@lru_cache(maxsize=None)
def rate_on(rule, params, scenario):
    """avg_rate with the u-rule named ``rule`` in place of the module's:
    ``"module"``, ``"oracle"`` or ``"wide"``."""
    u_rules = {"module": analytic._RATE_RULE, "oracle": ORACLE_U_RULE,
               "wide": WIDE_U_RULE}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_RATE_RULE", u_rules[rule])
        return analytic.avg_rate(params, scenario=scenario)


# (a)-(d) at the defaults
DEFAULT_POINTS = {kind.value: (P, kind) for kind in ScenarioKind}
# and (a) where the rate is slowest and where the small cells are few and
# favoured
RATE_POINTS = {
    **DEFAULT_POINTS,
    "a-narrow-dense": (P.replace(sigma_bs_m=30.0, lambda1_per_km2=90.0),
                       ScenarioKind.INTEGRATED),
    "a-biased-few": (P.replace(bias2_db=10.0, n_bs=4),
                     ScenarioKind.INTEGRATED),
}


@pytest.mark.parametrize("point", RATE_POINTS)
def test_avg_rate_matches_dense_u_rule(point):
    params, scenario = RATE_POINTS[point]
    assert rate_on("module", params, scenario) == pytest.approx(
        rate_on("oracle", params, scenario), rel=1e-5)


@pytest.mark.parametrize("point", RATE_POINTS)
def test_avg_rate_matches_bracket_rule(point):
    # the mass-curve integral and the bracket/rho rule integrate the
    # same Alzer coverage over the spectral efficiency
    params, scenario = RATE_POINTS[point]
    assert rate_on("module", params, scenario) == pytest.approx(
        bracket_avg_rate(params, scenario), rel=1e-4)


# and (a) with a sparse macro tier, whose long serving distances move the
# tier-1 curve to lower thresholds
WINDOW_POINTS = {
    **DEFAULT_POINTS,
    "a-sparse-macro": (P.replace(lambda1_per_km2=0.05),
                       ScenarioKind.INTEGRATED),
}


@pytest.mark.parametrize("point", WINDOW_POINTS)
def test_avg_rate_u_window_holds_the_weighted_curves(point):
    # the weighted mass curves carry nothing the rate sees outside the
    # module's window [-10, 30] but the lower tail its last node takes
    params, scenario = WINDOW_POINTS[point]
    assert rate_on("wide", params, scenario) == pytest.approx(
        rate_on("module", params, scenario), rel=1e-6)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rate_weight_is_hamdis(order):
    # N = 1 is Hamdi's t / (1 + t); every weight tends to 1, since Alzer's
    # tail is 1 at y = 0 (its weights sum to 1)
    tail = analytic._alzer_tail(replace(link_budgets(P)[0], order=order))
    if order == 1:
        t = np.logspace(-6.0, 6.0, 25)
        np.testing.assert_array_equal(tail.rate_weight(t), t / (1.0 + t))
    assert tail.rate_weight(np.array([1e15]))[0] == pytest.approx(1.0,
                                                                  abs=1e-12)


def rate_tails(budgets):
    """Each tier's rate tail: the points t_i = e^{u_i} of the module's
    u-rule, weighted w_i W_k(t_i)."""
    u, w = analytic._RATE_RULE
    t = np.exp(u)
    return [analytic._Tail(t, w * analytic._alzer_tail(link).rate_weight(t))
            for link in budgets]


def loop_avg_rate(params, scenario, spec):
    """avg_rate with one rate-tail mass per offset node and tier: the
    per-offset loop the batched passes replace, kept as their reference."""
    inner = spec.tighter()
    budgets = link_budgets(params, scenario)
    tails = rate_tails(budgets)

    def u_integral(k, v0):
        link = budgets[k - 1]
        mass = analytic._coverage_masses(k, 1.0, np.array([v0]), budgets,
                                         tails[k - 1], inner,
                                         analytic.AnalyticReport())
        return link.bandwidth_hz / math.log(2.0) * float(mass[0])

    def rates(v0s, tally):
        return np.array([u_integral(1, v0) + u_integral(2, v0)
                         for v0 in v0s.tolist()])

    return float(analytic._offset_average(rates, params.sigma_ue_m,
                                          spec).value)


@pytest.mark.parametrize("deployment", ["a", "d"])
def test_batched_avg_rate_matches_per_offset_loop(deployment, monkeypatch):
    scenario = MEMBER_LINKS[deployment]["scenario"]
    spec = QuadSpec(rel_tol=1e-2, abs_tol=1e-4)
    monkeypatch.setattr(analytic, "RATE_SPEC", spec)
    assert analytic.avg_rate(P, scenario=scenario) == \
        loop_avg_rate(P, scenario, spec)


@pytest.mark.parametrize("deployment", ["a", "d"])
@pytest.mark.parametrize("k", [1, 2])
def test_rate_tail_mass_is_the_weighted_sum_of_masses(deployment, k):
    # the rate's u-rule inside the serving-distance integral: its mass is
    # sum_i w_i W_k(t_i) R_k(t_i; v0), each R_k the Rayleigh mass at t_i,
    # cut at its own noise scale
    scenario = MEMBER_LINKS[deployment]["scenario"]
    budgets = link_budgets(P, scenario)
    spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-16)
    v0 = np.array([100.0])
    tail = rate_tails(budgets)[k - 1]
    got = analytic._coverage_masses(k, 1.0, v0, budgets, tail, spec,
                                    analytic.AnalyticReport())
    masses = analytic._coverage_masses(k, tail.points, v0, budgets,
                                       analytic._Tail(), spec,
                                       analytic.AnalyticReport())
    assert got[0] == pytest.approx(float(np.sum(tail.weights * masses)),
                                   rel=1e-8)


@pytest.mark.parametrize("deployment", ["a", "d"])
def test_avg_rate_hands_one_integrand_per_segment_tier_and_offset(
        deployment, monkeypatch):
    # the u-rule's 57 points ride inside each integrand: an offset pass
    # integrates one mass per serving-distance segment, tier and offset
    scenario = MEMBER_LINKS[deployment]["scenario"]
    # every tier is cut at the noise scale: 3 segments, empty ones too
    segments = [3, 3]
    analytic.avg_rate(P, scenario=scenario)     # the knots the rate needs
    passes = []
    real_batch, real_average = analytic.integrate_batch, \
        analytic._offset_average

    def spy_batch(f, a, b, spec):
        passes[-1][1].append(len(a))
        return real_batch(f, a, b, spec)

    def spy_average(g, sigma_ue, spec):
        def counted(v0, tally):
            passes.append((v0.size, []))
            return g(v0, tally)
        return real_average(counted, sigma_ue, spec)

    monkeypatch.setattr(analytic, "integrate_batch", spy_batch)
    monkeypatch.setattr(analytic, "_offset_average", spy_average)
    analytic.avg_rate(P, scenario=scenario)
    assert passes
    for offsets, sizes in passes:
        assert sizes == [n * offsets for n in segments]


def test_avg_rate_holds_no_more_memory_than_a_coverage_point():
    # the kernel of the 57-point rate tail is taken in row slices; at once
    # it would hold 57 x 480 x 64 values (14 MB)
    runs = (lambda: analytic.avg_rate(P), lambda: analytic.coverage(1.0, P))
    for run in runs:
        run()                                   # the knots both need
    peaks = []
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2 * peaks[1]


def fixed_offset_average(nodes):
    """An ``_offset_average`` on a fixed Gauss-Legendre rule of ``nodes``
    offsets over [0, 8.5 sigma_ue] against the Rayleigh density, with no
    error estimate: the oracle of the adaptive rule in the Rayleigh CDF.
    Its ``calls`` counts the averages it took."""
    u, w = np.polynomial.legendre.leggauss(nodes)

    def average(g, sigma_ue, spec):
        average.calls += 1
        hi = 8.5 * sigma_ue
        v0s = 0.5 * hi * (u + 1.0)
        tally = analytic.AnalyticReport(est_error=math.nan)
        tally.value = float(0.5 * hi * np.sum(w * rice_pdf(v0s, 0.0, sigma_ue)
                                              * g(v0s, tally)))
        return tally

    average.calls = 0
    return average


@pytest.mark.parametrize("sigma_bs, sigma_ue", [(15.0, 150.0),
                                                (26.2, 154.7)],
                         ids=["eta=0.1", "eta=0.17"])
def test_avg_rate_holds_its_accuracy_at_small_eta(sigma_bs, sigma_ue,
                                                  monkeypatch):
    # a narrow cluster of small cells makes the offset integrand steep;
    # RATE_SPEC asks for 0.1%
    q = P.replace(sigma_bs_m=sigma_bs, sigma_ue_m=sigma_ue)
    got = analytic.avg_rate(q)
    oracle = fixed_offset_average(96)
    monkeypatch.setattr(analytic, "_offset_average", oracle)
    assert got == pytest.approx(analytic.avg_rate(q), rel=1e-3)
    # the oracle took the rate's one offset average
    assert oracle.calls == 1


def test_coverage_nonincreasing_and_bounded():
    taus = 10.0 ** (np.array([-10.0, -5.0, 0.0, 5.0, 10.0]) / 10.0)
    vals = [analytic.coverage(t, P) for t in taus]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_conditional_coverage_pieces_bounded():
    # a tier cannot cover more users than it serves: each coverage mass
    # lies between 0 and the tier's association probability
    v0 = np.array([30.0, 150.0, 400.0])
    budgets = link_budgets(P)
    for k in (1, 2):
        mass = analytic._coverage_masses(k, 1.0, v0, budgets,
                                         analytic._alzer_tail(budgets[k - 1]),
                                         analytic.DEFAULT_SPEC,
                                         analytic.AnalyticReport())
        assoc = [analytic.conditional_assoc_prob(k, v, P) for v in v0]
        assert np.all(mass > 0.0)
        assert np.all(mass <= assoc)


def test_no_nlos_variant_upper_bounds_coverage():
    for tau_db in (-5.0, 0.0, 10.0):
        tau = 10.0 ** (tau_db / 10.0)
        full = analytic.coverage(tau, P)
        no_nlos = analytic.coverage_no_nlos(tau, P)
        assert no_nlos >= full - 1e-4


def test_no_nlos_variant_frozen_value():
    # coverage of (a) on the small-cell law without its NLoS segments
    assert analytic.coverage_no_nlos(1.0, P) == pytest.approx(
        0.6886503208573536, rel=1e-12)


def test_records_without_interference_segments_give_snr_coverage(
        table_integrated):
    # interference is record data: with every kernel segment dropped, the
    # coverage of (a) is its SNR coverage (20 dB is left out: there the
    # Alzer bound of the serving tail sits above the fixture)
    macro, cells = link_budgets(P)
    silent = (replace(macro, segments=()),
              replace(cells, cluster=replace(cells.cluster, segments=())))
    s = np.logspace(2.0, 12.0, 5)
    assert np.all(analytic.laplace_I1(s, 50.0, silent[0]) == 1.0)
    assert np.all(analytic._InterLaplace(silent[1].cluster)(
        s, analytic.AnalyticReport()) == 1.0)
    taus_db = [0.0, 10.0]
    curve = montecarlo.estimate_coverage(table_integrated, taus_db,
                                         metric="snr")
    for tau_db, p, err in zip(taus_db, curve.probabilities, curve.stderr):
        got = analytic._coverage(10.0 ** (tau_db / 10.0), silent,
                                 P.sigma_ue_m, analytic.OUTER_SPEC)
        assert abs(got.value - p) <= 3.0 * err + got.est_error, tau_db


def test_two_tier_variant_frozen_value():
    got = analytic.coverage_two_tier_sub6(1.0, P)
    assert got == pytest.approx(0.320386, abs=1e-3)


def test_two_tier_without_small_cells_is_the_macro_network():
    # with no members the typical cluster interferes with nothing, so (d)
    # is (b): the macro tier alone
    q = P.replace(n_bs=0)
    d, b = ScenarioKind.TWO_TIER_SUB6, ScenarioKind.SUB6_ONLY
    for tau_db in (-10.0, 0.0, 10.0):
        tau = 10.0 ** (tau_db / 10.0)
        assert analytic.coverage(tau, q, scenario=d) == \
            analytic.coverage(tau, q, scenario=b), tau_db
    assert analytic.avg_rate(q, scenario=d) == analytic.avg_rate(q, scenario=b)


def test_two_tier_association_partitions():
    d = ScenarioKind.TWO_TIER_SUB6
    for v0 in (0.0, 120.0, 320.0):
        a1 = analytic.conditional_assoc_prob(1, v0, P, scenario=d)
        a2 = analytic.conditional_assoc_prob(2, v0, P, scenario=d)
        assert a1 + a2 == pytest.approx(1.0, abs=1e-5)


def test_options_are_keyword_only():
    # positional options once let assoc_prob(2, p, d) read the deployment
    # as with_report and return (a)'s report in place of (d)'s share
    d = ScenarioKind.TWO_TIER_SUB6
    calls = (lambda: analytic.assoc_prob(2, P, d),
             lambda: analytic.conditional_assoc_prob(2, 50.0, P, d),
             lambda: analytic.coverage(1.0, P, analytic.OUTER_SPEC),
             lambda: analytic.avg_rate(P, d))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_report_variant_returns_diagnostics():
    rep = analytic.assoc_prob(2, P, with_report=True)
    assert rep.value == pytest.approx(0.437878, abs=1e-4)
    assert rep.est_error < 1e-4
    assert rep.evaluations > 0


@pytest.fixture
def outer(monkeypatch):
    """The result of every ``integrate_adaptive`` call of the analytic
    module (its offset averages), in call order."""
    results = []
    real = analytic.integrate_adaptive

    def spy(f, a, b, spec):
        results.append(real(f, a, b, spec))
        return results[-1]

    monkeypatch.setattr(analytic, "integrate_adaptive", spy)
    return results


@pytest.mark.parametrize("entry", [
    lambda **kw: analytic.coverage(1.0, P, **kw),
    lambda **kw: analytic.assoc_prob(2, P, **kw),
], ids=["coverage", "assoc_prob"])
def test_report_counts_nested_integrals(entry, outer, monkeypatch):
    rep = entry(with_report=True)
    assert rep.unconverged == 0
    # the inner integrals' evaluations are counted with the outer ones
    assert rep.evaluations > outer[0].evaluations
    # on a starved panel budget the report counts more unconverged
    # integrals than the outer ones
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    outer.clear()
    starved = entry(with_report=True)
    assert starved.unconverged > sum(not res.converged for res in outer)


@pytest.mark.parametrize("sigma_bs, sigma_ue, tau_db", [
    (P.sigma_bs_m, P.sigma_ue_m, -10.0),
    *((b, u, t) for b, u in ((15.0, 150.0), (26.2, 154.7), (225.0, 150.0))
      for t in (0.0, 5.0, 20.0))])
def test_coverage_is_within_its_reported_error(sigma_bs, sigma_ue, tau_db):
    # eta = sigma_bs / sigma_ue from 0.1 to 1.5; against a far tighter
    # evaluation the reported error bounds the distance
    q = P.replace(sigma_bs_m=sigma_bs, sigma_ue_m=sigma_ue)
    tau = 10.0 ** (tau_db / 10.0)
    rep = analytic.coverage(tau, q, with_report=True)
    tight = analytic.coverage(tau, q, spec=QuadSpec(1e-8, 1e-12))
    assert abs(rep.value - tight) <= rep.est_error


@pytest.mark.parametrize("deployment, most", [("a", 45), ("d", 15)])
def test_offset_average_node_budget(deployment, most, outer):
    # the offset integrand is smooth in the Rayleigh CDF, so at the
    # defaults the outer rule stops after a few panels; each outer node
    # costs a whole batch of inner integrals
    scenario = MEMBER_LINKS[deployment]["scenario"]
    for tau_db in TAU_GRID_DB:
        outer.clear()
        analytic.coverage(10.0 ** (tau_db / 10.0), P, scenario=scenario)
        assert len(outer) == 1
        assert outer[0].evaluations <= most, tau_db


def test_coverage_spends_evaluations_where_the_error_is():
    # a sweep splits only the panels holding the excess error; splitting
    # 16 panels per sweep spends about 95k evaluations here
    rep = analytic.coverage(1.0, P, with_report=True)
    assert rep.unconverged == 0
    assert rep.evaluations < 20_000


def test_nested_specs_keep_caller_limits(monkeypatch):
    # the offset average runs on the caller's spec and the coverage masses
    # on its tighter(); the inter-cluster knots, which every caller shares,
    # run on DEFAULT_SPEC.  Each scenario starts on a cold knot cache, so
    # that its call builds them
    seen = {"offsets": [], "masses": [], "knots": []}
    in_knots = [False]
    real = analytic.integrate_adaptive
    real_batch = analytic.integrate_batch
    real_integrals = analytic._InterLaplace._integrals

    def spy(f, a, b, spec):
        seen["offsets"].append(spec)
        return real(f, a, b, spec)

    def spy_batch(f, a, b, spec):
        seen["knots" if in_knots[0] else "masses"].append(spec)
        return real_batch(f, a, b, spec)

    def spy_integrals(self, s):
        in_knots[0] = True
        try:
            return real_integrals(self, s)
        finally:
            in_knots[0] = False

    monkeypatch.setattr(analytic, "integrate_adaptive", spy)
    monkeypatch.setattr(analytic, "integrate_batch", spy_batch)
    monkeypatch.setattr(analytic._InterLaplace, "_integrals", spy_integrals)
    spec = QuadSpec(1e-3, 1e-6)
    for scenario in (ScenarioKind.INTEGRATED, ScenarioKind.TWO_TIER_SUB6):
        analytic._inter_cache.cache_clear()
        for specs in seen.values():
            specs.clear()
        analytic.coverage(1.0, P, spec=spec, scenario=scenario)
        assert seen["offsets"] == [spec]
        assert seen["masses"]
        assert all(sp == spec.tighter() for sp in seen["masses"])
        assert seen["knots"]
        assert all(sp == analytic.DEFAULT_SPEC for sp in seen["knots"])


def test_loose_spec_stays_close():
    loose = QuadSpec(rel_tol=3e-3, abs_tol=1e-6)
    a = analytic.coverage(1.0, P, spec=loose)
    assert a == pytest.approx(0.687468, abs=5e-3)
