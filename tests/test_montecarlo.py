"""Trial engine and estimators: determinism, per-trial physics, summaries."""

import math
import warnings

import numpy as np
import pytest

from hotnet import analytic
from hotnet import montecarlo as mc
from hotnet.association import Tier, choose, link_budgets
from hotnet.geometry import sample_ppp
from hotnet.params import ScenarioKind, SystemParams

P = SystemParams()


def _assert_tables_equal(a: mc.TrialTable, b: mc.TrialTable):
    np.testing.assert_array_equal(a.tier, b.tier)
    np.testing.assert_array_equal(a.serving_distance, b.serving_distance)
    np.testing.assert_array_equal(a.v0, b.v0)
    np.testing.assert_array_equal(a.sinr, b.sinr)
    np.testing.assert_array_equal(a.snr, b.snr)
    np.testing.assert_array_equal(a.rate, b.rate)


# ---------------------------------------------------------------------------
# determinism and table mechanics
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_bitwise():
    a = mc.run_trials(P, ScenarioKind.INTEGRATED, 300, seed=5)
    b = mc.run_trials(P, ScenarioKind.INTEGRATED, 300, seed=5)
    _assert_tables_equal(a, b)


def test_assoc_only_same_seed_reproduces_bitwise():
    a = mc.run_trials(P, ScenarioKind.INTEGRATED, 2000, seed=5,
                      assoc_only=True)
    b = mc.run_trials(P, ScenarioKind.INTEGRATED, 2000, seed=5,
                      assoc_only=True)
    _assert_tables_equal(a, b)


def test_different_seeds_differ():
    a = mc.run_trials(P, ScenarioKind.INTEGRATED, 200, seed=5)
    b = mc.run_trials(P, ScenarioKind.INTEGRATED, 200, seed=6)
    assert not np.array_equal(a.sinr, b.sinr)


def test_table_row_access():
    t = mc.run_trials(P, ScenarioKind.INTEGRATED, 50, seed=1)
    assert len(t) == 50
    assert t.served.dtype == bool


def test_run_trials_validates_count():
    with pytest.raises(ValueError):
        mc.run_trials(P, ScenarioKind.INTEGRATED, 0, seed=1)


@pytest.mark.parametrize("scenario", list(ScenarioKind))
def test_assoc_only_is_the_full_run_stopped_after_association(scenario):
    # a count past one block that is not a multiple of the block size
    n = mc.BLOCK_TRIALS + 37
    full = mc.run_trials(P, scenario, n, seed=21)
    fast = mc.run_trials(P, scenario, n, seed=21, assoc_only=True)
    np.testing.assert_array_equal(fast.tier, full.tier)
    np.testing.assert_array_equal(fast.serving_distance,
                                  full.serving_distance)
    np.testing.assert_array_equal(fast.v0, full.v0)
    assert np.all(np.isnan(fast.sinr) & np.isnan(fast.snr)
                  & np.isnan(fast.rate))


def test_whole_blocks_are_a_prefix_of_longer_runs():
    n = mc.BLOCK_TRIALS
    short = mc.run_trials(P, ScenarioKind.TWO_TIER_SUB6, n, seed=4)
    long = mc.run_trials(P, ScenarioKind.TWO_TIER_SUB6, n + 5, seed=4)
    for field in ("tier", "serving_distance", "v0", "sinr", "snr", "rate"):
        np.testing.assert_array_equal(getattr(short, field),
                                      getattr(long, field)[:n])


@pytest.mark.parametrize("scenario", list(ScenarioKind))
def test_single_trial_runs(scenario):
    t = mc.run_trials(P, scenario, 1, seed=2)
    assert len(t) == 1
    if t.served[0]:
        assert 0.0 < t.sinr[0] <= t.snr[0]
        assert t.rate[0] > 0.0


def test_no_macro_tier_leaves_only_small_cells():
    q = P.replace(lambda1_per_km2=0.0)
    t = mc.run_trials(q, ScenarioKind.INTEGRATED, 500, seed=6)
    assert set(np.unique(t.tier)) == {mc.TIER_NONE, int(Tier.MMWAVE)}
    d = mc.run_trials(q, ScenarioKind.TWO_TIER_SUB6, 300, seed=6)
    assert np.all(d.tier == int(Tier.MMWAVE))
    assert np.all(d.sinr < d.snr)


# ---------------------------------------------------------------------------
# the engine's stages against hand-built distances
# ---------------------------------------------------------------------------

BUDGETS = link_budgets(P, ScenarioKind.INTEGRATED)
# the interferers of each tier: kernel segments and density per m^2
MACRO_SEGS, MACRO_DENSITY = BUDGETS[0].segments, BUDGETS[0].density
LAW = BUDGETS[1].cluster
CELL_SEGS, CELL_DENSITY = LAW.segments, LAW.density * LAW.members
NO_OTHERS = (np.empty(0), np.empty(0, dtype=int))


def test_sub6_sinr_exact_single_bs():
    # one Sub-6GHz BS at 100 m, unit fading, no interferers: SINR is
    # P1*G1*C1*100^-alpha1 / noise, and SNR coincides
    rng = np.random.default_rng(0)
    interference = mc._received(MACRO_SEGS, *NO_OTHERS, 1, rng)
    sinr, snr, rate = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1),
                               interference)
    want = P.p1_w * P.g1 * P.c1 * 100.0 ** (-P.alpha1) / P.noise1_w
    assert sinr[0] == pytest.approx(want, rel=1e-12)
    assert snr[0] == pytest.approx(want, rel=1e-12)
    assert rate[0] == pytest.approx(P.w1_hz * math.log2(1.0 + want),
                                    rel=1e-12)


def test_mm_sinr_exact_single_member():
    # a far Sub-6GHz BS (5000 m) and one LoS member of the own cluster at
    # 50 m: the member serves, and the macro BS does not interfere on the
    # mmWave band (no other cluster exists)
    q = P.replace(n_bs=1, lambda_p_per_km2=0.0)
    budgets = link_budgets(q)
    # a 6 km truncation disk, so that the macro BS lies inside it
    run = mc._Run(budgets, q.sigma_ue_m, 6000.0, 6900.0)
    r1, r2 = np.array([5000.0]), np.array([50.0])
    tier = choose(budgets, r1, r2)
    assert tier[0] == 2
    block = mc._Block(np.array([60.0]), r1, r2[:, None], np.zeros((1, 1)),
                      r2[:, None], tier, r2)
    sinr, snr, _ = mc._interfere(run, block, np.random.default_rng(0))
    assert sinr[0] == snr[0]
    _, snr, _ = mc._sinr(budgets[1], r2, np.ones(1), np.zeros(1))
    sig = P.p2_w * P.g_main * P.c_los * 50.0 ** (-P.alpha_los)
    assert snr[0] == pytest.approx(sig / P.noise2_w, rel=1e-12)


def test_sub6_interferer_reduces_sinr_not_snr():
    # serving BS at 100 m, an interferer at 150 m
    rng = np.random.default_rng(3)
    interference = mc._received(MACRO_SEGS, np.array([150.0]), np.array([0]),
                                1, rng)
    sinr, snr, _ = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1),
                            interference)
    want_snr = P.p1_w * P.g1 * P.c1 * 100.0 ** (-P.alpha1) / P.noise1_w
    assert snr[0] == pytest.approx(want_snr, rel=1e-12)
    assert sinr[0] < snr[0]


def test_far_field_tail_only_lowers_sinr():
    near = mc._received(MACRO_SEGS, *NO_OTHERS, 1, np.random.default_rng(1))
    a = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1), near)
    b = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1),
                 near + mc._tail_mean(MACRO_SEGS, MACRO_DENSITY, 3000.0))
    assert b[0][0] < a[0][0]
    assert b[1][0] == a[1][0]


def test_sinr_never_exceeds_snr_in_full_runs():
    t = mc.run_trials(P, ScenarioKind.INTEGRATED, 2000, seed=9)
    served = t.served
    assert np.all(t.sinr[served] <= t.snr[served] * (1.0 + 1e-12))


def test_mean_interference_tails_positive():
    for segs, density in ((MACRO_SEGS, MACRO_DENSITY),
                          (CELL_SEGS, CELL_DENSITY)):
        assert mc._tail_mean(segs, density, 3000.0) > 0.0
        # it shrinks with the truncation radius
        assert (mc._tail_mean(segs, density, 6000.0)
                < mc._tail_mean(segs, density, 3000.0))


def test_tail_means_match_closed_forms():
    # macro PPP and far NLoS cluster members at their mean beam gain
    r = 3000.0
    sub6 = (2.0 * math.pi * P.lambda1 * P.p1_w * P.g1 * P.c1
            * r ** (2.0 - P.alpha1) / (P.alpha1 - 2.0))
    beam = P.p_main * P.g_main + (1.0 - P.p_main) * P.g_side
    mm = (2.0 * math.pi * P.lambda_p * P.n_bs * P.p2_w * beam * P.c_nlos
          * r ** (2.0 - P.alpha_nlos) / (P.alpha_nlos - 2.0))
    assert mc._tail_mean(MACRO_SEGS, MACRO_DENSITY, r) == pytest.approx(
        sub6, rel=1e-12)
    assert mc._tail_mean(CELL_SEGS, CELL_DENSITY, r) == pytest.approx(
        mm, rel=1e-12)


def test_macro_tail_starts_at_a_nearest_bs_beyond_the_disk():
    # the nearest macro BS at 5 km, outside the 3 km disk: no other macro
    # BS is drawn inside it, and the mean tail starts at 5 km
    run = mc._Run(BUDGETS, P.sigma_ue_m, 3000.0, 3900.0)
    r1 = np.array([5000.0])
    block = mc._Block(np.zeros(1), r1, np.zeros((1, 1)), None,
                      np.zeros((1, 1)), np.ones(1, dtype=np.int8), r1)
    tail = mc._tail_mean(MACRO_SEGS, MACRO_DENSITY, 5000.0)
    served = mc._macro_interference(run, block, np.array([0]), True,
                                    np.random.default_rng(0))
    assert served[0] == tail
    heard = mc._macro_interference(run, block, np.array([0]), False,
                                   np.random.default_rng(0))
    assert heard[0] > tail


def test_interfering_members_stop_at_truncation_radius():
    # members beyond R enter only through the mean tail, so the summed
    # inter-cluster interferers number lambda_p * n_bs * pi R^2 a trial
    rng = np.random.default_rng(31)
    radius = 3000.0
    enlarged = radius + 6.0 * max(P.sigma_bs_m, P.sigma_ue_m)
    law = BUDGETS[1].cluster
    n = 300
    d, trial = mc._cluster_members(law, radius, enlarged, n, rng)
    assert d.max() <= radius
    counts = np.bincount(trial, minlength=n)
    want = P.lambda_p * P.n_bs * math.pi * radius ** 2
    stderr = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - want) < 4.0 * stderr


def test_interfering_members_are_homogeneous_inside_truncation_radius():
    # a stationary cluster process has a flat member density, so a quarter
    # of the kept members lie within R/2; clustering correlates members of
    # one trial, so the stderr comes from the per-trial residuals
    rng = np.random.default_rng(32)
    radius = 3000.0
    enlarged = radius + 6.0 * max(P.sigma_bs_m, P.sigma_ue_m)
    n = 300
    d, trial = mc._cluster_members(BUDGETS[1].cluster, radius, enlarged, n,
                                   rng)
    inner = np.bincount(trial[d <= radius / 2.0], minlength=n)
    total = np.bincount(trial, minlength=n)
    share = inner.sum() / total.sum()
    stderr = (np.std(inner - share * total, ddof=1) * math.sqrt(n)
              / total.sum())
    assert abs(share - 0.25) < 4.0 * stderr


# ---------------------------------------------------------------------------
# the interferer path against its hypot-based reference kernels
# ---------------------------------------------------------------------------

def ref_pick(probs, u):
    """Outcome index by a search of the cumulative law, kept as the
    reference of the two-outcome ``mc._pick``."""
    return np.searchsorted(np.cumsum(probs[:-1]), u, side="right")


def ref_member_distances(cx, sigma, rng):
    """Member distances through ``np.hypot``, kept as the reference of
    ``mc._member_distances``."""
    z = rng.standard_normal((2, len(cx)))
    return np.hypot(cx + sigma * z[0], sigma * z[1])


def ref_cluster_members(law, radius, enlarged, n, rng):
    """Interfering members kept by their ``np.hypot`` distance, kept as
    the reference of ``mc._cluster_members``: it makes the same random
    draws."""
    centers = sample_ppp(n * law.density, enlarged, rng)
    owner = rng.integers(0, n, len(centers))
    counts = rng.poisson(law.members, len(centers))
    x = np.repeat(np.hypot(centers[:, 0], centers[:, 1]), counts)
    x += rng.normal(0.0, law.spread, len(x))
    trial = np.repeat(owner, counts)
    near = np.abs(x) <= radius
    x, trial = x[near], trial[near]
    d = np.hypot(x, rng.normal(0.0, law.spread, len(x)))
    keep = d <= radius
    return d[keep], trial[keep]


def test_two_outcome_pick_is_the_cumulative_search():
    p0 = P.p_main
    u = np.concatenate(([0.0, p0, np.nextafter(p0, 0.0),
                         np.nextafter(p0, 1.0)],
                        np.random.default_rng(3).random(10_000)))
    np.testing.assert_array_equal(mc._pick((p0, 1.0 - p0), u),
                                  ref_pick((p0, 1.0 - p0), u))
    assert mc._pick((p0, 1.0 - p0), np.array([p0]))[0] == 1
    assert mc._pick((p0, 1.0 - p0), np.array([0.0]))[0] == 0


@pytest.mark.parametrize("scenario", list(ScenarioKind))
def test_every_picked_law_has_two_outcomes(scenario):
    # _pick compares against the first share alone, so a band with three
    # segments or a segment with three gain levels would be misdrawn
    for budget in link_budgets(P, scenario):
        segments = budget.segments + (budget.cluster.segments
                                      if budget.cluster else ())
        bands = {}
        for s in segments:
            assert len(s.gain_probs) == len(s.gains) <= 2
            bands[s.r_min, s.r_max] = bands.get((s.r_min, s.r_max), 0) + 1
        assert max(bands.values(), default=0) <= 2


@pytest.mark.parametrize("seed", [3, 11])
def test_interferer_kernels_match_their_references(seed):
    law = BUDGETS[1].cluster
    radius = P.truncation_radius_m
    enlarged = radius + 6.0 * max(P.sigma_bs_m, P.sigma_ue_m)
    d, trial = mc._cluster_members(law, radius, enlarged, 300,
                                   np.random.default_rng(seed))
    d_ref, trial_ref = ref_cluster_members(law, radius, enlarged, 300,
                                           np.random.default_rng(seed))
    np.testing.assert_array_equal(trial, trial_ref)
    np.testing.assert_array_max_ulp(d, d_ref, maxulp=2)
    cx = np.random.default_rng(seed + 1).rayleigh(P.sigma_ue_m, 50_000)
    np.testing.assert_array_max_ulp(
        mc._member_distances(cx, law.spread, np.random.default_rng(seed)),
        ref_member_distances(cx, law.spread, np.random.default_rng(seed)),
        maxulp=2)
    u = np.concatenate(([0.0, P.p_main],
                        np.random.default_rng(seed).random(1000)))
    for s in law.segments:
        np.testing.assert_array_equal(
            np.take(s.gains, mc._pick(s.gain_probs, u)),
            np.take(s.gains, ref_pick(s.gain_probs, u)))


@pytest.mark.parametrize("seed", [3, 20260823])
@pytest.mark.parametrize("scenario", list(ScenarioKind))
def test_run_trials_match_reference_kernels(scenario, seed, monkeypatch):
    # a whole and a partial block, in full and association-only runs
    n = mc.BLOCK_TRIALS + 300
    taus = np.arange(-10.0, 21.0)
    for assoc_only in (False, True):
        got = mc.run_trials(P, scenario, n, seed, assoc_only)
        with monkeypatch.context() as m:
            m.setattr(mc, "_pick", ref_pick)
            m.setattr(mc, "_member_distances", ref_member_distances)
            m.setattr(mc, "_cluster_members", ref_cluster_members)
            want = mc.run_trials(P, scenario, n, seed, assoc_only)
        np.testing.assert_array_equal(got.tier, want.tier)
        np.testing.assert_array_equal(got.v0, want.v0)
        for name in ("serving_distance", "sinr", "snr", "rate"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=1e-12,
                                       atol=0.0, equal_nan=True)
        if not assoc_only:
            np.testing.assert_array_equal(
                mc.estimate_coverage(got, taus).probabilities,
                mc.estimate_coverage(want, taus).probabilities)


def test_random_stream_is_pinned():
    # covered trials at 0 and 10 dB and mmWave-served trials of 2,500
    # trials at seed 11: a change to any draw of the engine moves them,
    # and must re-pin them with the change
    pinned = {ScenarioKind.INTEGRATED: (1735, 1125, 1123),
              ScenarioKind.TWO_TIER_SUB6: (813, 195, 562)}
    for scenario, want in pinned.items():
        t = mc.run_trials(P, scenario, 2500, seed=11)
        covered = mc.estimate_coverage(t, [0.0, 10.0]).probabilities
        mm = mc.estimate_assoc_prob(t, int(Tier.MMWAVE)).value
        assert tuple(round(2500 * v) for v in (*covered, mm)) == want


# ---------------------------------------------------------------------------
# scenario dispatch
# ---------------------------------------------------------------------------

def test_sub6_only_scenario_never_serves_mmwave():
    t = mc.run_trials(P, ScenarioKind.SUB6_ONLY, 500, seed=2)
    assert np.all(t.tier == int(Tier.SUB6))


@pytest.mark.parametrize("scenario, mapped", [
    (ScenarioKind.SUB6_ONLY, P.replace(n_bs=0)),
    (ScenarioKind.MMWAVE_ONLY, P.replace(lambda1_per_km2=0.0)),
], ids=["b", "c"])
def test_single_band_deployments_are_integrated_runs(scenario, mapped):
    # past one block, so a whole and a partial block are compared
    n = mc.BLOCK_TRIALS + 76
    _assert_tables_equal(mc.run_trials(P, scenario, n, seed=8),
                         mc.run_trials(mapped, ScenarioKind.INTEGRATED, n,
                                       seed=8))


def test_mmwave_only_scenario_has_unserved_trials():
    t = mc.run_trials(P, ScenarioKind.MMWAVE_ONLY, 4000, seed=2)
    assert set(np.unique(t.tier)) <= {mc.TIER_NONE, int(Tier.MMWAVE)}
    # with p_los = 0.2 and n = 10 a noticeable fraction has no LoS member
    frac_none = np.mean(t.tier == mc.TIER_NONE)
    assert 0.1 < frac_none < 0.6
    assert np.all(~np.isfinite(t.sinr[~t.served]) | (t.sinr[~t.served] == 0.0))


def test_zero_cluster_size_serves_sub6_only():
    t = mc.run_trials(P.replace(n_bs=0), ScenarioKind.INTEGRATED, 300, seed=4)
    assert np.all(t.tier == int(Tier.SUB6))
    d = mc.run_trials(P.replace(n_bs=0), ScenarioKind.TWO_TIER_SUB6, 300,
                      seed=4)
    assert np.all(d.tier == int(Tier.SUB6))
    # no small cell anywhere: (d) then interferes like (b)
    assert np.all(d.sinr < d.snr)


def test_two_tier_scenario_runs_and_serves_both():
    t = mc.run_trials(P, ScenarioKind.TWO_TIER_SUB6, 2000, seed=3)
    assert set(np.unique(t.tier)) == {int(Tier.SUB6), int(Tier.MMWAVE)}
    assert np.all(t.served)


def test_assoc_only_matches_full_runs_on_tiers():
    # an association-only run and a full run from different seeds are
    # independent samples of one tier law (runs from the same seed share
    # their blocks' draws): compare shares
    fast = mc.run_trials(P, ScenarioKind.INTEGRATED, 60_000, seed=8,
                         assoc_only=True)
    full = mc.run_trials(P, ScenarioKind.INTEGRATED, 6000, seed=9)
    p_fast = np.mean(fast.tier == 2)
    p_full = np.mean(full.tier == 2)
    se = math.sqrt(p_full * (1 - p_full) / 6000 + p_fast * (1 - p_fast) / 60_000)
    assert abs(p_fast - p_full) < 4.0 * se


def test_sparse_macro_tier_serves_beyond_truncation_radius():
    # at 0.05 macro BSs per km^2 the nearest one lies beyond the 3 km
    # truncation disk for a quarter of the users; it still serves them,
    # as in the analytic law, so nobody is left unserved
    q = P.replace(lambda1_per_km2=0.05)
    t = mc.run_trials(q, ScenarioKind.INTEGRATED, 200_000, seed=7,
                      assoc_only=True)
    assert np.all(t.served)
    for k in (1, 2):
        est = mc.estimate_assoc_prob(t, k)
        assert abs(est.value - analytic.assoc_prob(k, q)) <= \
            4.0 * est.stderr + 0.005
    full = mc.run_trials(q, ScenarioKind.INTEGRATED, 2000, seed=7)
    assert np.all(full.served)
    assert np.all((full.sinr > 0.0) & np.isfinite(full.sinr))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_estimate_assoc_prob_counts():
    t = mc.TrialTable(np.array([1, 2, 2, 1, 2]), np.zeros(5), np.zeros(5),
                      np.ones(5), np.ones(5), np.ones(5))
    est = mc.estimate_assoc_prob(t, 2)
    assert est.value == pytest.approx(0.6)
    assert est.n_trials == 5
    assert est.stderr == pytest.approx(math.sqrt(0.6 * 0.4 / 5))


def test_estimate_coverage_counts_unserved_as_uncovered():
    sinr = 10.0 ** (np.array([10.0, 0.0, -10.0, 5.0]) / 10.0)
    t = mc.TrialTable(np.array([1, 2, 1, mc.TIER_NONE]), np.zeros(4),
                      np.zeros(4), sinr, sinr, np.ones(4))
    curve = mc.estimate_coverage(t, [-20.0, 2.0])
    # at -20 dB the three served trials pass, the unserved one cannot
    assert curve.probabilities[0] == pytest.approx(0.75)
    assert curve.probabilities[1] == pytest.approx(0.25)
    # a tier-conditional curve is the curve of the tier's trials
    sub6 = mc.estimate_coverage(t.select(t.tier == 1), [-20.0, 2.0])
    mm = mc.estimate_coverage(t.select(t.tier == 2), [-20.0, 2.0])
    assert sub6.probabilities[0] == pytest.approx(1.0)
    assert mm.probabilities[1] == pytest.approx(0.0)


def test_coverage_curve_nonincreasing():
    t = mc.run_trials(P, ScenarioKind.INTEGRATED, 3000, seed=12)
    curve = mc.estimate_coverage(t, np.arange(-20.0, 30.0, 2.0))
    assert np.all(np.diff(curve.probabilities) <= 1e-12)


def test_estimate_quantile_reads_unserved_as_zero():
    sinr = np.array([4.0, 1.0, 0.5, 2.0, 8.0])
    t = mc.TrialTable(np.array([1, 2, 1, mc.TIER_NONE, 2]), np.zeros(5),
                      np.zeros(5), sinr, sinr / 2.0, 10.0 * sinr)
    # over all five trials, the unserved one read as 0: 0, 0.5, 1, 4, 8
    assert mc.estimate_quantile(t, "sinr", 0.5) == 1.0
    assert mc.estimate_quantile(t, "sinr", 0.0) == 0.0
    # between order statistics the quantile interpolates linearly
    assert mc.estimate_quantile(t, "sinr", 0.625) == pytest.approx(2.5)
    assert mc.estimate_quantile(t, "snr", 1.0) == 4.0
    assert mc.estimate_quantile(t, "rate", 0.25) == 5.0


def test_estimate_quantile_rejects_out_of_range():
    sinr = np.array([4.0, 1.0])
    t = mc.TrialTable(np.array([1, 2]), np.zeros(2), np.zeros(2),
                      sinr, sinr, sinr)
    for q in (-0.1, 1.5):
        with pytest.raises(ValueError):
            mc.estimate_quantile(t, "sinr", q)
    with pytest.raises(ValueError, match="unknown metric"):
        mc.estimate_quantile(t, "v0", 0.5)


def test_one_trial_mean_has_nan_stderr_and_no_warning():
    # the sample standard deviation of one value is undefined: the
    # estimators say so without numpy's degrees-of-freedom warning
    t = mc.TrialTable(np.array([1]), np.array([40.0]), np.zeros(1),
                      np.ones(1), np.ones(1), np.array([8.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = mc.estimate_rate(t)
        distance = mc.estimate_serving_distance(t)
    assert (rate.value, distance.value) == (8.0, 40.0)
    assert math.isnan(rate.stderr) and math.isnan(distance.stderr)
    assert rate.n_trials == distance.n_trials == 1


def test_estimate_rate_zeroes_unserved():
    t = mc.TrialTable(np.array([1, mc.TIER_NONE]), np.zeros(2), np.zeros(2),
                      np.ones(2), np.ones(2), np.array([8.0, 100.0]))
    est = mc.estimate_rate(t)
    assert est.value == pytest.approx(4.0)


def test_select_picks_the_trials_of_every_column():
    t = mc.run_trials(P, ScenarioKind.INTEGRATED, 20_000, seed=14,
                      assoc_only=True)
    edges = [0.0, 150.0, 300.0, 600.0]
    shares = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (t.v0 >= lo) & (t.v0 < hi)
        b = t.select(mask)
        assert 0 < len(b) == mask.sum()
        assert np.all((b.v0 >= lo) & (b.v0 < hi))
        np.testing.assert_array_equal(b.tier, t.tier[mask])
        np.testing.assert_array_equal(b.serving_distance,
                                      t.serving_distance[mask])
        assert all(len(col) == len(b) for col in (b.sinr, b.snr, b.rate))
        mm = mc.estimate_assoc_prob(b, 2).value
        assert mm + mc.estimate_assoc_prob(b, 1).value == pytest.approx(1.0)
        shares.append(mm)
    assert all(b < a for a, b in zip(shares, shares[1:]))
