"""Parameter record: unit conversions, validation, and the linear-scale
constants that ``association.link_budgets`` derives from its fields."""

import math

import numpy as np
import pytest

from hotnet.association import link_budgets
from hotnet.params import (ScenarioKind, SystemParams, db_to_linear,
                           dbm_to_watts, linear_to_db)


def test_db_roundtrip():
    for x_db in (-20.0, -3.0, 0.0, 3.0, 18.0, 50.0):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)


def test_dbm_to_watts_anchors():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(40.0) == pytest.approx(10.0)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


def test_default_record_is_valid():
    macro, cells = link_budgets(SystemParams())
    assert macro.density == pytest.approx(30e-6)
    assert cells.cluster.density == pytest.approx(5e-6)
    # 40 dBm macro and 30 dBm small-cell power at 0 dB bias
    assert macro.budget == pytest.approx(10.0 * db_to_linear(-38.5))
    assert macro.weight == macro.budget
    assert cells.budget == pytest.approx(db_to_linear(18.0)
                                         * db_to_linear(-61.4))
    assert cells.weight == pytest.approx(3.0 * cells.budget)


def test_noise_power_formula():
    # -174 dBm/Hz + 10 log10(W) + NF on the band of each serving link
    p = SystemParams()
    want1 = dbm_to_watts(-174.0 + 10.0 * math.log10(20e6) + 10.0)
    want2 = dbm_to_watts(-174.0 + 10.0 * math.log10(1e9) + 10.0)
    macro, cells = link_budgets(p)
    _, shared = link_budgets(p, ScenarioKind.TWO_TIER_SUB6)
    assert macro.noise_w == pytest.approx(want1, rel=1e-12)
    assert cells.noise_w == pytest.approx(want2, rel=1e-12)
    assert shared.noise_w == pytest.approx(want1, rel=1e-12)


def test_mean_interferer_gain_is_beam_average():
    # the mean gain of an interfering small cell, as the Monte Carlo tail
    # reads it from each kernel segment of (a): the main lobe of a random
    # beam covers the UE with probability theta/360
    p = SystemParams()
    frac = p.theta_b_deg / 360.0
    want = frac * db_to_linear(p.g_main_dbi) \
        + (1.0 - frac) * db_to_linear(p.g_side_dbi)
    for seg in link_budgets(p)[1].cluster.segments:
        assert seg.gain_probs == (frac, 1.0 - frac)
        assert np.dot(seg.gains, seg.gain_probs) == pytest.approx(want,
                                                                  rel=1e-12)


@pytest.mark.parametrize("changes", [
    dict(p_los=1.3),
    dict(p_los=-0.1),
    dict(r_los_ball_m=0.0),
    dict(lambda1_per_km2=-1.0),
    dict(n_bs=-2),
    dict(sigma_bs_m=0.0),
    dict(alpha1=2.0),
    dict(alpha_nlos=2.0),
    dict(alpha_nlos=1.8),
    dict(alpha_los=0.0),
    dict(n_nakagami_los=0),
    dict(n_nakagami_los=11),
    dict(theta_b_deg=0.0),
    dict(theta_b_deg=360.0),
    dict(g_main_dbi=-5.0, g_side_dbi=0.0),
    dict(w1_hz=0.0),
    dict(lambda_p_per_km2=-1.0),
    dict(n_bs=2.5),
    dict(n_nakagami_los=2.5),
    dict(n_nakagami_nlos=1.5),
    dict(sigma_bs_m=math.nan),
    dict(sigma_bs_m=math.inf),
    dict(lambda1_per_km2=math.nan),
    dict(lambda1_per_km2=math.inf),
    dict(p2_dbm=math.nan),
    dict(p2_dbm=-math.inf),
    dict(bias2_db=math.inf),
    dict(n_bs=math.nan),
    dict(w2_hz=0.0),
])
def test_validation_rejects(changes):
    with pytest.raises(ValueError):
        SystemParams(**changes)


def test_no_field_sets_the_draw_radius():
    # the Monte Carlo engine derives each tier's exact-draw disk from its
    # density (geometry.exact_draw_radii), so no radius is configured
    with pytest.raises(TypeError):
        SystemParams(truncation_radius_m=3000.0)


def test_whole_number_counts_are_stored_as_int():
    p = SystemParams(n_bs=4.0, n_nakagami_los=2.0)
    assert p == SystemParams(n_bs=4, n_nakagami_los=2)
    assert type(p.n_bs) is int and type(p.n_nakagami_los) is int


def test_replace_returns_new_frozen_record():
    p = SystemParams()
    q = p.replace(n_bs=4)
    assert q.n_bs == 4 and p.n_bs == 10
    with pytest.raises(Exception):
        p.n_bs = 5  # type: ignore[misc]


def test_as_dict_round_trips():
    p = SystemParams(n_bs=7, bias2_db=5.0)
    assert SystemParams(**p.as_dict()) == p


def test_small_cell_bias_scales_the_weight_ratio():
    # bias2_db is the one bias: it scales the small-cell weight over the
    # macro weight by its linear value, in either band of the small cells
    def weight_ratio(q, scenario):
        macro, cells = link_budgets(q, scenario)
        return cells.weight / macro.weight

    p = SystemParams()
    for scenario in (ScenarioKind.INTEGRATED, ScenarioKind.TWO_TIER_SUB6):
        for b in (-7.5, 3.0, 13.0):
            assert weight_ratio(p.replace(bias2_db=b), scenario) == \
                pytest.approx(10.0 ** (b / 10.0) * weight_ratio(p, scenario),
                              rel=1e-12)
