"""Point-process samplers and the cluster-member distance law."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, rayleigh

from hotnet.association import link_budgets
from hotnet.geometry import (center_disk, exact_draw_radii, rice_pdf,
                             sample_network, sample_ppp,
                             sample_thomas_cluster, sample_typical_offset)
from hotnet.params import SystemParams

P = SystemParams()


def test_ppp_count_is_poisson_mean():
    rng = np.random.default_rng(101)
    density, radius = 30e-6, 3000.0
    mean = density * np.pi * radius ** 2
    counts = [len(sample_ppp(density, radius, rng)) for _ in range(400)]
    # 5-sigma band for the mean of 400 Poisson counts
    tol = 5.0 * np.sqrt(mean / 400.0)
    assert np.mean(counts) == pytest.approx(mean, abs=tol)


def test_ppp_points_inside_window_and_uniform_in_area():
    rng = np.random.default_rng(11)
    pts = sample_ppp(100e-6, 2000.0, rng)
    r = np.linalg.norm(pts, axis=1)
    assert np.all(r <= 2000.0)
    # squared radius of a uniform point on a disk is uniform
    stat = kstest((r / 2000.0) ** 2, "uniform")
    assert stat.pvalue > 1e-3


def test_ppp_isotropy():
    rng = np.random.default_rng(21)
    pts = sample_ppp(200e-6, 2000.0, rng)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    counts, _ = np.histogram(phi, bins=8, range=(-np.pi, np.pi))
    expected = len(pts) / 8.0
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 30.0  # chi2_7 0.9999 quantile is ~29.9


def test_ppp_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ppp(-1.0, 100.0, rng)
    with pytest.raises(ValueError):
        sample_ppp(1.0, 0.0, rng)


def test_thomas_cluster_shape_and_spread():
    rng = np.random.default_rng(5)
    center = np.array([300.0, -400.0])
    cl = sample_thomas_cluster(center, 100.0, 50_000, rng)
    assert cl.members.shape == (50_000, 2)
    offsets = cl.members - center
    assert np.mean(offsets, axis=0) == pytest.approx([0.0, 0.0], abs=2.5)
    assert np.std(offsets[:, 0]) == pytest.approx(100.0, rel=0.02)
    assert np.std(offsets[:, 1]) == pytest.approx(100.0, rel=0.02)


def test_typical_offset_is_rayleigh():
    rng = np.random.default_rng(3)
    draws = np.array([sample_typical_offset(150.0, rng) for _ in range(20_000)])
    stat = kstest(draws, rayleigh(scale=150.0).cdf)
    assert stat.pvalue > 1e-3


@pytest.mark.parametrize("v0", [0.0, 50.0, 150.0, 800.0, 5000.0])
def test_member_distance_density_normalizes(v0):
    sigma = 100.0
    val, _ = quad(rice_pdf, 0.0, v0 + 12.0 * sigma,
                  args=(v0, sigma), limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_member_distance_density_reduces_to_rayleigh_at_origin():
    r = np.linspace(0.0, 500.0, 64)
    sigma = 100.0
    want = (r / sigma ** 2) * np.exp(-0.5 * (r / sigma) ** 2)
    np.testing.assert_allclose(rice_pdf(r, 0.0, sigma), want,
                               rtol=1e-12)


def _cumulative_cdf(x, v0, sigma, nodes=8):
    """CDF of the member distance at each of ``x``: one Gauss-Legendre
    panel between consecutive sorted points, summed cumulatively."""
    order = np.argsort(x)
    edges = np.concatenate(([0.0], np.asarray(x, dtype=float)[order]))
    t, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    pdf = rice_pdf(mid[:, None] + half[:, None] * t, v0, sigma)
    out = np.empty(len(order))
    out[order] = np.cumsum(half * (pdf @ w))
    return out


def test_cumulative_cdf_matches_quad():
    v0, sigma = 220.0, 100.0
    x = np.random.default_rng(3).uniform(0.0, 700.0, 2000)
    x[:4] = [1.0, 120.0, 220.0, 650.0]
    got = _cumulative_cdf(x, v0, sigma)
    for xi, gi in zip(x[:4], got[:4]):
        want = quad(rice_pdf, 0.0, xi, args=(v0, sigma),
                    limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        assert gi == pytest.approx(want, abs=1e-9)


def test_member_distance_density_matches_sampled_distances():
    rng = np.random.default_rng(17)
    v0, sigma = 220.0, 100.0
    cl = sample_thomas_cluster(np.array([v0, 0.0]), sigma, 100_000, rng)
    d = np.linalg.norm(cl.members, axis=1)
    stat = kstest(d, lambda x: _cumulative_cdf(x, v0, sigma))
    assert stat.pvalue > 1e-3


def test_sample_network_structure():
    rng = np.random.default_rng(42)
    net = sample_network(P, rng)
    assert net.clusters[0].count == P.n_bs
    # the macro BSs and the hotspot centers are drawn on the engine's disks
    assert net.window_radii == exact_draw_radii(link_budgets(P))
    assert np.all(np.hypot(*net.sub6_points.T) <= net.window_radii[0])
    enlarged = center_disk(link_budgets(P)[1].cluster, net.window_radii[1])
    assert all(np.hypot(*cl.center) <= enlarged for cl in net.clusters[1:])
    for cl in net.clusters:
        assert cl.los_mask is not None
        assert cl.los_mask.shape == (cl.count,)
        d = np.linalg.norm(cl.members, axis=1)
        # no LoS link beyond the blockage ball
        assert not np.any(cl.los_mask & (d >= P.r_los_ball_m))


def test_sample_network_deterministic_given_generator():
    a = sample_network(P, np.random.default_rng(99))
    b = sample_network(P, np.random.default_rng(99))
    np.testing.assert_array_equal(a.sub6_points, b.sub6_points)
    assert a.typical_offset_v0 == b.typical_offset_v0
    assert len(a.clusters) == len(b.clusters)
    for ca, cb in zip(a.clusters, b.clusters):
        np.testing.assert_array_equal(ca.members, cb.members)
        np.testing.assert_array_equal(ca.los_mask, cb.los_mask)


def test_center_disk_adds_six_member_spreads_alone():
    # the UE spread plays no part in where interfering members land
    for sigma_ue in (15.0, 150.0, 900.0):
        law = link_budgets(P.replace(sigma_ue_m=sigma_ue))[1].cluster
        assert center_disk(law, 1000.0) == 1000.0 + 6.0 * P.sigma_bs_m


def test_sample_network_without_macro_bs():
    # an empty macro tier has a disk of radius 0 and no point on it
    net = sample_network(P.replace(lambda1_per_km2=0.0),
                         np.random.default_rng(5))
    assert net.window_radii[0] == 0.0 and net.sub6_points.shape == (0, 2)
