"""The link laws as both engines use them: LoS-ball thinning, intercepts
and exponents, Nakagami fading, sectored beams and the 1 m clamp, read
from the ``association.link_budgets`` records and checked on the Monte
Carlo and analytic kernels that consume them."""

from dataclasses import replace
from enum import Enum

import numpy as np
import pytest

from hotnet import analytic
from hotnet import montecarlo as mc
from hotnet.association import link_budgets
from hotnet.channel import MIN_LINK_DISTANCE_M
from hotnet.geometry import rice_pdf
from hotnet.params import (ScenarioKind, SystemParams, db_to_linear,
                           dbm_to_watts)

P = SystemParams()
P2_W = dbm_to_watts(P.p2_dbm)
G_MAIN, G_SIDE = db_to_linear(P.g_main_dbi), db_to_linear(P.g_side_dbi)
P_MAIN = P.theta_b_deg / 360.0  # a random beam's main lobe covers the UE


class LinkClass(Enum):
    """The model's three link classes, each named by the deployment and
    kernel segment of its records: Sub-6GHz links are the small cells of
    (d), mmWave LoS and NLoS links those of (a) inside the LoS ball."""

    SUB6 = (ScenarioKind.TWO_TIER_SUB6, 0)
    MM_LOS = (ScenarioKind.INTEGRATED, 0)
    MM_NLOS = (ScenarioKind.INTEGRATED, 1)

    @property
    def segment(self):
        scenario, i = self.value
        return link_budgets(P, scenario)[1].cluster.segments[i]


def test_los_probability_is_thinned_indicator():
    law = link_budgets(P)[1].cluster
    assert (law.los_prob, law.los_ball) == (P.p_los, P.r_los_ball_m)
    v0 = 150.0
    r = np.array([1.0, 50.0, 199.999, 200.0, 500.0])
    np.testing.assert_allclose(analytic._candidate_pdf(r, v0, law),
                               np.array([0.2, 0.2, 0.2, 0.0, 0.0])
                               * rice_pdf(r, v0, law.spread), rtol=1e-15)
    # the Monte Carlo candidates: members labelled LoS with probability
    # p_los that lie inside the ball
    budgets = link_budgets(P)
    run = mc._Run(budgets, P.sigma_ue_m, 2000.0, 3000.0)
    block = mc._associate(run, 4000, np.random.default_rng(3))
    los = block.own_u < P.p_los
    assert np.mean(los) == pytest.approx(P.p_los, abs=0.003)
    # only they are drawn, row by row; a trial is served on the mmWave
    # tier only when one lies inside the ball, and then by the nearest
    assert len(block.own) == np.count_nonzero(los)
    own = np.full(los.shape, np.inf)
    own[los] = block.own
    cand = np.where(own < P.r_los_ball_m, own, np.inf)
    mm = block.tier == 2
    assert not np.any(mm & ~np.isfinite(cand).any(axis=1))
    np.testing.assert_array_equal(
        block.x[mm], np.maximum(cand[mm].min(axis=1), MIN_LINK_DISTANCE_M))


def test_los_probability_boundary_is_open():
    # exactly at the ball radius the link is blocked
    law = link_budgets(P)[1].cluster
    for v0 in (0.0, 150.0, 400.0):
        assert analytic._candidate_pdf(P.r_los_ball_m, v0, law) == 0.0
        assert analytic._candidate_pdf(P.r_los_ball_m - 1e-9, v0, law) > 0.0


@pytest.mark.parametrize("link,c,alpha", [
    (LinkClass.SUB6, db_to_linear(P.c1_db), P.alpha1),
    (LinkClass.MM_LOS, db_to_linear(P.c_los_db), P.alpha_los),
    (LinkClass.MM_NLOS, db_to_linear(P.c_nlos_db), P.alpha_nlos),
])
def test_path_loss_power_law(link, c, alpha):
    # a small cell's intercept is its power at 1 m before gain and fading
    seg = link.segment
    assert (seg.intercept, seg.alpha) == (P2_W * c, alpha)
    # one interferer of this class at unit gain: the Monte Carlo engine
    # receives the power law times the fading it draws
    lone = (replace(seg, share=1.0, gains=(1.0,), gain_probs=(1.0,)),)
    for r in (1.0, 10.0, 123.4):
        got = mc._received(lone, np.array([r]), np.array([0]), 1,
                           np.random.default_rng(9))
        h = mc._fading(seg.order, 1, np.random.default_rng(9))
        assert got[0] == pytest.approx(P2_W * c * r ** (-alpha) * h[0],
                                       rel=1e-12)
    # the macro tier's serving budget carries the Sub-6GHz law, and so
    # does the Rayleigh segment of a macro interferer
    macro = link_budgets(P)[0]
    assert macro.budget == dbm_to_watts(P.p1_dbm) * db_to_linear(P.g1_dbi) \
        * db_to_linear(P.c1_db)
    assert macro.alpha == P.alpha1
    (seg,) = macro.segments
    assert (seg.intercept, seg.alpha, seg.order) == (macro.budget,
                                                     macro.alpha, 1)


def test_path_loss_clamped_below_one_meter():
    macro, cells = link_budgets(P)
    for segments in (macro.segments, cells.cluster.segments):
        near, at_1m = (mc._received(segments, np.array([d]), np.array([0]),
                                    1, np.random.default_rng(21))
                       for d in (0.01, MIN_LINK_DISTANCE_M))
        assert near[0] > 0.0
        assert near[0] == at_1m[0]


def test_nakagami_orders():
    macro, cells = link_budgets(P)
    assert (macro.order, cells.order) == (1, P.n_nakagami_los)
    assert [s.order for s in cells.cluster.segments] == [
        P.n_nakagami_los, P.n_nakagami_nlos, P.n_nakagami_nlos]
    assert LinkClass.SUB6.segment.order == 1
    assert LinkClass.MM_LOS.segment.order == P.n_nakagami_los
    assert LinkClass.MM_NLOS.segment.order == P.n_nakagami_nlos
    assert all(b.order == 1
               for b in link_budgets(P, ScenarioKind.TWO_TIER_SUB6))


@pytest.mark.parametrize("link", list(LinkClass))
def test_fading_power_has_unit_mean_and_right_variance(link):
    rng = np.random.default_rng(12345)
    n = link.segment.order
    h = mc._fading(n, 200_000, rng)
    # Gamma(n, 1/n): mean 1, variance 1/n
    assert np.mean(h) == pytest.approx(1.0, abs=0.01)
    assert np.var(h) == pytest.approx(1.0 / n, rel=0.03)


def test_interferer_gain_two_level_pattern():
    for seg in link_budgets(P)[1].cluster.segments:
        assert seg.gains == (G_MAIN, G_SIDE)
        assert seg.gain_probs == (P_MAIN, 1.0 - P_MAIN)
    seg = LinkClass.MM_LOS.segment
    pick = mc._pick(seg.gain_probs, np.random.default_rng(7).random(100_000))
    g = np.take(seg.gains, pick)
    assert set(np.unique(g)) == {G_SIDE, G_MAIN}
    frac_main = np.mean(g == G_MAIN)
    assert frac_main == pytest.approx(P_MAIN, abs=0.003)
