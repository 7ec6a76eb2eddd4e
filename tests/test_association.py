"""Biased max-power association and the tier-boundary distance maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotnet.association import (AssociationOutcome, Tier, associate,
                                biased_metric, boundary_map, choose,
                                link_budgets)
from hotnet.geometry import ClusterRealization, NetworkRealization
from hotnet.params import ScenarioKind, SystemParams

P = SystemParams()
MACRO, CELLS = link_budgets(P)


def _net(sub6_xy, mm_xy, mm_los, v0=100.0):
    sub6 = np.asarray(sub6_xy, dtype=float).reshape(-1, 2)
    mm = np.asarray(mm_xy, dtype=float).reshape(-1, 2)
    cl = ClusterRealization(center=np.array([v0, 0.0]), members=mm,
                            los_mask=np.asarray(mm_los, dtype=bool))
    return NetworkRealization(sub6_points=sub6, clusters=[cl],
                              typical_offset_v0=v0, window_radius=3000.0)


def test_tier_weights_include_intercepts():
    w1, w2 = MACRO.weight, CELLS.weight
    assert w1 == pytest.approx(P.bias1 * P.p1_w * P.g1 * P.c1, rel=1e-12)
    assert w2 == pytest.approx(P.bias2 * P.p2_w * P.g_main
                               * P.n_nakagami_los * P.c_los, rel=1e-12)


@pytest.mark.parametrize("scenario, mapped", [
    (ScenarioKind.SUB6_ONLY, P.replace(n_bs=0)),
    (ScenarioKind.MMWAVE_ONLY, P.replace(lambda1_per_km2=0.0)),
], ids=["b", "c"])
def test_single_band_deployments_are_integrated_records(scenario, mapped):
    assert link_budgets(P, scenario) == link_budgets(mapped)
    assert link_budgets(P, scenario)[0].density == mapped.lambda1


def test_biased_metric_decays_with_distance():
    r = np.array([10.0, 100.0, 1000.0])
    for budget in (MACRO, CELLS):
        m = biased_metric(budget, r)
        assert np.all(np.diff(m) < 0)


def test_biased_metric_clamps_below_one_meter():
    assert biased_metric(MACRO, 0.001) == biased_metric(MACRO, 1.0)


@given(st.floats(min_value=1.0, max_value=2000.0),
       st.floats(min_value=-20.0, max_value=60.0))
@settings(max_examples=60, deadline=None)
def test_boundary_maps_are_inverse_pair(r, bias_db):
    macro, cells = link_budgets(P.replace(bias2_db=bias_db))
    fwd = boundary_map(macro, cells, r)
    back = boundary_map(cells, macro, fwd)
    assert back == pytest.approx(r, rel=1e-9)


@given(st.floats(min_value=1.0, max_value=2000.0))
@settings(max_examples=60, deadline=None)
def test_boundary_map_equalizes_metrics(r):
    # a mmWave candidate at boundary_map(r) ties with a Sub-6GHz
    # candidate at r
    d = boundary_map(MACRO, CELLS, r)
    if d >= 1.0:  # below 1 m the metric clamp breaks the power law
        m1 = biased_metric(MACRO, r)
        m2 = biased_metric(CELLS, d)
        assert m2 == pytest.approx(m1, rel=1e-9)


def test_boundary_map_identity_on_same_tier():
    for budget in (MACRO, CELLS):
        assert boundary_map(budget, budget, 123.0) == 123.0


def test_associate_picks_nearest_sub6_when_no_los():
    net = _net([[50.0, 0.0], [-30.0, 0.0]], [[80.0, 0.0]], [False])
    out = associate(net, P)
    assert out.tier is Tier.SUB6
    assert out.serving_distance == pytest.approx(30.0)
    assert out.serving_index == ("sub6", 1)


def test_associate_picks_strong_los_member():
    # LoS mmWave member very close, Sub-6GHz far: mmWave must win
    net = _net([[900.0, 0.0]], [[20.0, 0.0], [10.0, 0.0]], [True, True])
    out = associate(net, P)
    assert out.tier is Tier.MMWAVE
    assert out.serving_distance == pytest.approx(10.0)
    assert out.serving_index == ("mm", 0, 1)


def test_associate_ignores_nlos_members_as_candidates():
    net = _net([[900.0, 0.0]], [[10.0, 0.0]], [False])
    out = associate(net, P)
    assert out.tier is Tier.SUB6


def test_associate_matches_metric_comparison():
    rng = np.random.default_rng(31)
    for _ in range(200):
        sub6 = rng.uniform(-500, 500, size=(5, 2))
        mm = rng.uniform(-300, 300, size=(4, 2))
        los = rng.random(4) < 0.5
        net = _net(sub6, mm, los)
        out = associate(net, P)
        r1 = np.linalg.norm(sub6, axis=1).min()
        m1 = biased_metric(MACRO, r1)
        d = np.linalg.norm(mm, axis=1)
        if los.any():
            r2 = d[los].min()
            m2 = biased_metric(CELLS, r2)
        else:
            m2 = -np.inf
        want = Tier.MMWAVE if m2 > m1 else Tier.SUB6
        assert out.tier is want


def test_tie_breaks_toward_sub6():
    # nudge the mmWave candidate onto (or a hair past) the equal-metric
    # boundary so its metric does not exceed the Sub-6GHz one
    r1 = 200.0
    m1 = biased_metric(MACRO, r1)
    r2 = boundary_map(MACRO, CELLS, r1)
    while biased_metric(CELLS, r2) > m1:
        r2 = np.nextafter(r2, np.inf)
    net = _net([[r1, 0.0]], [[r2, 0.0]], [True])
    out = associate(net, P)
    assert out.tier is Tier.SUB6
    # the rule the Monte Carlo engine calls breaks the same tie the same way
    tier = choose((MACRO, CELLS), np.array([r1]), np.array([r2]))
    assert tier[0] == Tier.SUB6


def test_associate_requires_sub6_point():
    net = _net(np.empty((0, 2)), [[10.0, 0.0]], [True])
    with pytest.raises(ValueError):
        associate(net, P)


def test_outcome_is_immutable():
    out = AssociationOutcome(Tier.SUB6, 10.0, ("sub6", 0))
    with pytest.raises(Exception):
        out.tier = Tier.MMWAVE  # type: ignore[misc]
