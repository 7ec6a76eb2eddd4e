"""Trial engine and estimators: determinism, per-trial physics, summaries."""

import math
import warnings

import numpy as np
import pytest
from conftest import TAU_GRID_DB

from hotnet import analytic
from hotnet import montecarlo as mc
from hotnet.association import Tier, choose, link_budgets
from hotnet.channel import MIN_LINK_DISTANCE_M
from hotnet.geometry import (EXACT_DRAW_COUNT, center_disk, exact_draw_radii,
                             sample_ppp)
from hotnet.params import ScenarioKind, SystemParams

P = SystemParams()
FIXTURE_TRIALS = 100_000    # the session tables of conftest.py


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
RADII = exact_draw_radii(BUDGETS)
NO_OTHERS = (np.empty(0), np.empty(0, dtype=int))


def test_sub6_sinr_exact_single_bs():
    # one Sub-6GHz BS at 100 m, unit fading, no interferers: SINR is
    # the macro budget P1*G1*C1 times 100^-alpha1 over the noise, and SNR
    # coincides
    rng = np.random.default_rng(0)
    interference = mc._received(MACRO_SEGS, *NO_OTHERS, 1, rng)
    sinr, snr, rate = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1),
                               interference)
    macro = BUDGETS[0]
    want = macro.budget * 100.0 ** (-macro.alpha) / macro.noise_w
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
    # a 6 km draw disk, so that the macro BS lies inside it
    run = mc._Run(budgets, q.sigma_ue_m, (6000.0, 6000.0), 6600.0)
    r1, r2 = np.array([5000.0]), np.array([50.0])
    tier = choose(budgets, r1, r2)
    assert tier[0] == 2
    block = mc._Block(np.array([60.0]), r1, r2, np.zeros((1, 1)), tier, r2)
    sinr, snr, _ = mc._interfere(run, block, np.random.default_rng(0))
    assert sinr[0] == snr[0]
    _, snr, _ = mc._sinr(budgets[1], r2, np.ones(1), np.zeros(1))
    cells = budgets[1]
    sig = cells.budget * 50.0 ** (-cells.alpha)
    assert snr[0] == pytest.approx(sig / cells.noise_w, rel=1e-12)


def test_sub6_interferer_reduces_sinr_not_snr():
    # serving BS at 100 m, an interferer at 150 m
    rng = np.random.default_rng(3)
    interference = mc._received(MACRO_SEGS, np.array([150.0]), np.array([0]),
                                1, rng)
    sinr, snr, _ = mc._sinr(BUDGETS[0], np.array([100.0]), np.ones(1),
                            interference)
    macro = BUDGETS[0]
    want_snr = macro.budget * 100.0 ** (-macro.alpha) / macro.noise_w
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
    macro = BUDGETS[0]
    sub6 = (2.0 * math.pi * macro.density * macro.budget
            * r ** (2.0 - macro.alpha) / (macro.alpha - 2.0))
    far = CELL_SEGS[-1]  # NLoS members past the LoS ball
    beam = np.dot(far.gains, far.gain_probs)
    mm = (2.0 * math.pi * CELL_DENSITY * far.intercept * beam
          * r ** (2.0 - far.alpha) / (far.alpha - 2.0))
    assert mc._tail_mean(MACRO_SEGS, MACRO_DENSITY, r) == pytest.approx(
        sub6, rel=1e-12)
    assert mc._tail_mean(CELL_SEGS, CELL_DENSITY, r) == pytest.approx(
        mm, rel=1e-12)


def test_macro_tail_starts_at_a_nearest_bs_beyond_the_disk():
    # at 0.05 macro BSs per km^2 the disk is about 36 km; a nearest macro
    # BS beyond it (probability exp(-K) per trial, so full runs do not
    # reach this branch) leaves no other macro BS inside the disk, and the
    # mean tail starts at the nearest BS.  When it interferes, it counts
    # once: as its own drawn power, not also in the tail
    q = P.replace(lambda1_per_km2=0.05)
    budgets = link_budgets(q)
    radii = exact_draw_radii(budgets)
    run = mc._Run(budgets, q.sigma_ue_m, radii,
                  center_disk(budgets[1].cluster, radii[1]))
    macro = budgets[0]
    r1 = np.array([1.2 * radii[0]])
    block = mc._Block(np.zeros(1), r1, np.zeros(1), None,
                      np.ones(1, dtype=np.int8), r1)
    tail = mc._tail_mean(macro.segments, macro.density, r1[0])
    served = mc._macro_interference(run, block, np.array([0]), True,
                                    np.random.default_rng(0))
    assert served[0] == tail
    heard = mc._macro_interference(run, block, np.array([0]), False,
                                   np.random.default_rng(0))
    nearest = mc._received(macro.segments, r1, np.array([0]), 1,
                           np.random.default_rng(0))
    assert heard[0] == pytest.approx(tail + nearest[0], rel=1e-12)


def dense_associate(run, n, rng):
    """Labelled members' distances as an ``(n, members)`` array, NaN for
    the others, and the nearest candidate distance ``r2`` by a row minimum
    over the candidates: the dense reference of ``mc._associate``, on the
    same draws."""
    law, lam = run.budgets[1].cluster, run.budgets[0].density
    v0 = rng.rayleigh(run.sigma_ue, n)
    if lam > 0:
        rng.standard_exponential(n)
    drawn = np.ones((n, law.members), dtype=bool)
    if law.los_prob < 1:
        drawn = rng.random(drawn.shape) < law.los_prob
    own = np.full(drawn.shape, np.nan)
    own[drawn] = mc._member_distances(v0[drawn.nonzero()[0]], law.spread,
                                      rng)
    cand = np.where(own < law.los_ball, own, np.inf)
    return own, cand.min(axis=1, initial=np.inf)


@pytest.mark.parametrize("changes", [
    {}, dict(p_los=0.0), dict(p_los=1.0), dict(n_bs=0), dict(n_bs=1),
    dict(r_los_ball_m=1500.0), dict(lambda1_per_km2=0.0)],
    ids=["defaults", "p_los-0", "p_los-1", "n_bs-0", "n_bs-1", "ball-1500",
         "no-macro"])
def test_associate_takes_the_dense_nearest_candidate(changes):
    # the flat segmented minimum over the labelled members equals the row
    # minimum of the dense candidate array: the same tiers and serving
    # distances, and without macro BSs the same r2 wherever one exists
    q = P.replace(**changes)
    budgets = link_budgets(q)
    radii = exact_draw_radii(budgets)
    run = mc._Run(budgets, q.sigma_ue_m, radii,
                  center_disk(budgets[1].cluster, radii[1]))
    for seed in (3, 4):
        block = mc._associate(run, 1500, np.random.default_rng(seed))
        own, r2 = dense_associate(run, 1500, np.random.default_rng(seed))
        np.testing.assert_array_equal(block.own, own[~np.isnan(own)])
        np.testing.assert_array_equal(block.tier,
                                      choose(budgets, block.r1, r2))
        mm = block.tier == int(Tier.MMWAVE)
        np.testing.assert_array_equal(
            block.x[mm], np.maximum(r2[mm], MIN_LINK_DISTANCE_M))
        if not budgets[0].density:
            np.testing.assert_array_equal(mm, np.isfinite(r2))


def test_served_member_is_the_nearest_labelled_one():
    # member 0 is unlabelled and drawn within a few 10 m spreads of the
    # center, far nearer than the labelled member 1 at 150 m that serves:
    # the own cluster's interference is member 0's alone
    q = P.replace(n_bs=2, sigma_bs_m=10.0)
    law = link_budgets(q)[1].cluster
    block = mc._Block(np.zeros(1), np.array([np.inf]), np.array([150.0]),
                      np.array([[0.9, 0.0]]), np.full(1, 2, dtype=np.int8),
                      np.array([150.0]))
    assert 0.0 < law.los_prob <= 0.9
    rng = np.random.default_rng(5)
    d = mc._member_distances(np.zeros(1), law.spread, rng)
    assert d[0] < 150.0
    want = mc._received(law.segments, d, np.array([0]), 1, rng,
                        np.array([0.9]))
    got = mc._own_cluster(law, block, np.array([0]), True,
                          np.random.default_rng(5))
    assert got[0] == want[0] > 0.0


def test_interfering_members_stop_at_truncation_radius():
    # members beyond the exact-draw radius R enter only through the mean
    # tail, so the summed inter-cluster interferers number
    # lambda_p * n_bs * pi R^2 = K a trial
    rng = np.random.default_rng(31)
    radius = RADII[1]
    law = BUDGETS[1].cluster
    n = 300
    d, trial = mc._cluster_members(law, radius, center_disk(law, radius), n,
                                   rng)
    assert d.max() <= radius
    counts = np.bincount(trial, minlength=n)
    stderr = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - EXACT_DRAW_COUNT) < 4.0 * stderr


def test_interfering_members_are_homogeneous_inside_truncation_radius():
    # a stationary cluster process has a flat member density, so a quarter
    # of the kept members lie within R/2; clustering correlates members of
    # one trial, so the stderr comes from the per-trial residuals
    rng = np.random.default_rng(32)
    radius = RADII[1]
    enlarged = center_disk(BUDGETS[1].cluster, radius)
    n = 300
    d, trial = mc._cluster_members(BUDGETS[1].cluster, radius, enlarged, n,
                                   rng)
    inner = np.bincount(trial[d <= radius / 2.0], minlength=n)
    total = np.bincount(trial, minlength=n)
    share = inner.sum() / total.sum()
    stderr = (np.std(inner - share * total, ddof=1) * math.sqrt(n)
              / total.sum())
    assert abs(share - 0.25) < 4.0 * stderr


@pytest.mark.parametrize("changes", [
    {}, dict(lambda1_per_km2=0.05), dict(lambda1_per_km2=300.0),
    dict(lambda_p_per_km2=0.5)], ids=["defaults", "sparse-macro",
                                      "dense-macro", "sparse-hotspots"])
def test_each_exact_draw_disk_holds_k_expected_interferers(changes):
    # the radius is sqrt(K / (pi density)) of each tier's interferers; the
    # macro disk, drawn past a nearest BS at the center, holds K of them
    q = P.replace(**changes)
    budgets = link_budgets(q)
    law = budgets[1].cluster
    radii = exact_draw_radii(budgets)
    for density, radius in zip((budgets[0].density,
                                law.density * law.members), radii):
        assert density * math.pi * radius ** 2 == pytest.approx(
            EXACT_DRAW_COUNT, rel=1e-12)
    n = 400
    d, trial = mc._macro_others(np.zeros(n), radii[0], budgets[0].density,
                                np.random.default_rng(33))
    assert d.max() <= radii[0]
    counts = np.bincount(trial, minlength=n)
    assert abs(counts.mean() - EXACT_DRAW_COUNT) < \
        4.0 * math.sqrt(EXACT_DRAW_COUNT / n)


@pytest.mark.parametrize("changes, ball", [
    (dict(r_los_ball_m=1500.0), 1500.0), (dict(lambda_p_per_km2=200.0), 200.0)],
    ids=["wide-los-ball", "dense-hotspots"])
def test_members_disk_reaches_past_the_los_ball(changes, ball):
    # the mean tail counts only the unbounded (NLoS) segments, so the
    # members' disk reaches the end of the LoS ball where the ball is the
    # larger, and holds more than K members there
    q = P.replace(**changes)
    budgets = link_budgets(q)
    law = budgets[1].cluster
    radius = exact_draw_radii(budgets)[1]
    assert radius == ball
    assert law.density * law.members * math.pi * radius ** 2 > \
        EXACT_DRAW_COUNT


@pytest.mark.parametrize("changes, empty", [
    (dict(lambda1_per_km2=0.0), 0), (dict(lambda_p_per_km2=0.0), 1),
    (dict(n_bs=0), 1)], ids=["no-macro", "no-hotspots", "no-members"])
def test_an_empty_tier_draws_nothing(changes, empty):
    # a tier without interferers has a disk of radius 0, no tail and no
    # drawn interferer, and raises no RuntimeWarning (an error here)
    q = P.replace(**changes)
    budgets = link_budgets(q, ScenarioKind.TWO_TIER_SUB6)
    radii = exact_draw_radii(budgets)
    assert radii[empty] == 0.0 and radii[1 - empty] > 0.0
    run = mc._Run(budgets, q.sigma_ue_m, radii,
                  center_disk(budgets[1].cluster, radii[1]))
    rng = np.random.default_rng(34)
    block = mc._associate(run, 200, rng)
    idx = np.arange(200)
    if empty == 0:
        assert np.all(mc._macro_interference(run, block, idx, False,
                                             rng) == 0.0)
    else:
        law = budgets[1].cluster
        assert len(mc._cluster_members(law, 0.0, run.enlarged, 200,
                                       rng)[0]) == 0
        if law.members:
            # only the own cluster interferes
            served = np.flatnonzero(block.tier == 2)
            want = mc._own_cluster(law, block, served, True,
                                   np.random.default_rng(35))
            got = mc._cluster_interference(run, block, served, True,
                                           np.random.default_rng(35))
            np.testing.assert_array_equal(got, want)
    t = mc.run_trials(q, ScenarioKind.TWO_TIER_SUB6, mc.BLOCK_TRIALS + 3, 36)
    assert np.all(t.served & (t.sinr > 0.0) & np.isfinite(t.sinr))


def paired_sinr(params, scenario, n, seed):
    """SINR of ``n`` trials read twice on shared draws: with every
    interferer inside twice each tier's exact-draw radius drawn (row 1),
    and as the engine reads them, with the interferers beyond the radius
    replaced by their mean tail (row 0).  Each interferer is its own trial
    of ``mc._received``, so both reads share every fading, gain and
    segment draw."""
    budgets = link_budgets(params, scenario)
    radii = exact_draw_radii(budgets)
    wide = tuple(2.0 * r for r in radii)
    run = mc._Run(budgets, params.sigma_ue_m, wide,
                  center_disk(budgets[1].cluster, wide[1]))
    rng = np.random.default_rng(seed)
    block = mc._associate(run, n, rng)
    sinr = np.zeros((2, n))
    for k, serving in enumerate(budgets, start=1):
        idx = np.flatnonzero(block.tier == k)
        m = len(idx)
        if m == 0:
            continue
        fading = mc._fading(serving.order, m, rng)
        reads = np.zeros((2, m))
        for j in serving.hears:
            rec, radius = budgets[j - 1], radii[j - 1]
            if rec.cluster is None:
                segs, density, r1 = rec.segments, rec.density, block.r1[idx]
                d, trial = mc._macro_others(r1, wide[0], density, rng)
                near = d <= radius
                if j != k:
                    # the nearest BS interferes, and is drawn in both reads
                    lit = np.flatnonzero(np.isfinite(r1))
                    d, trial = (np.concatenate((d, r1[lit])),
                                np.concatenate((trial, lit)))
                    near = np.concatenate((near, np.ones(len(lit), bool)))
                tails = np.maximum(r1, radius), np.maximum(r1, wide[0])
            else:
                law = rec.cluster
                segs, density = law.segments, law.density * law.members
                reads += mc._own_cluster(law, block, idx, j == k, rng)
                d, trial = mc._cluster_members(law, wide[1], run.enlarged, m,
                                               rng)
                near = d <= radius
                tails = radius, wide[1]
            p = mc._received(segs, d, np.arange(len(d)), len(d), rng)
            reads[0] += (np.bincount(trial[near], p[near], minlength=m)
                         + mc._tail_mean(segs, density, tails[0]))
            reads[1] += (np.bincount(trial, p, minlength=m)
                         + mc._tail_mean(segs, density, tails[1]))
        sinr[:, idx] = mc._sinr(serving, block.x[idx], fading, reads)[0]
    return sinr


def assert_tail_keeps_coverage(sinr):
    """The two reads of ``paired_sinr``: on TAU_GRID_DB their coverage
    differs by at most 0.1 fixture stderr plus 2 of the difference's own
    stderr."""
    n = sinr.shape[1]
    covered = sinr[:, :, None] > 10.0 ** (TAU_GRID_DB / 10.0)
    diff = covered[0].astype(float) - covered[1]
    bias = diff.mean(axis=0)
    stderr = diff.std(axis=0, ddof=1) / math.sqrt(n)
    p = covered[1].mean(axis=0)
    fixture = np.sqrt(p * (1.0 - p) / FIXTURE_TRIALS)
    assert np.all(np.abs(bias) <= 0.1 * fixture + 2.0 * stderr), \
        (bias, stderr, fixture)


@pytest.mark.parametrize("lambda1", [30.0, 0.05], ids=["defaults",
                                                       "sparse-macro"])
@pytest.mark.parametrize("scenario", list(ScenarioKind))
def test_mean_tail_beyond_the_exact_draw_disk_keeps_coverage(scenario,
                                                             lambda1):
    # the same trials read with and without the interferers between the
    # exact-draw radius and twice it
    assert_tail_keeps_coverage(
        paired_sinr(P.replace(lambda1_per_km2=lambda1), scenario, 16_000, 37))


@pytest.mark.parametrize("changes", [
    dict(r_los_ball_m=1500.0), dict(lambda_p_per_km2=200.0), dict(n_bs=18),
    dict(sigma_ue_m=100.0, sigma_bs_m=10.0),
    dict(sigma_ue_m=100.0, sigma_bs_m=150.0)],
    ids=["wide-los-ball", "dense-hotspots", "n_bs-18", "eta-0.1", "eta-1.5"])
def test_mean_tail_keeps_coverage_across_cluster_layouts(changes):
    # (a) where the LoS ball reaches past sqrt(K / (pi lambda_p n_bs)),
    # whose LoS members the tail does not count, and at the extreme
    # cluster shapes the shipped sweeps run: few large clusters in the
    # disk (n_bs = 18), and eta = sigma_BS / sigma_UE of 0.1 and 1.5;
    # 16,000 trials drawn 4,000 at a time to bound the arrays
    q = P.replace(**changes)
    assert_tail_keeps_coverage(np.concatenate(
        [paired_sinr(q, ScenarioKind.INTEGRATED, 4000, [38, b])
         for b in range(4)], axis=1))


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
    p0 = CELL_SEGS[0].gain_probs[0]
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
    radius = RADII[1]
    enlarged = center_disk(law, radius)
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
    u = np.concatenate(([0.0, law.segments[0].gain_probs[0]],
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
    pinned = {ScenarioKind.INTEGRATED: (1731, 1119, 1123),
              ScenarioKind.TWO_TIER_SUB6: (788, 193, 562)}
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
    # at 0.05 macro BSs per km^2 the nearest one lies beyond 3 km for a
    # quarter of the users; it still serves them, as in the analytic law,
    # so nobody is left unserved.  Its exact-draw disk (about 36 km)
    # holds the nearest BS but with probability exp(-K): the branch of a
    # nearest BS beyond the disk is tested on hand-built distances in
    # test_macro_tail_starts_at_a_nearest_bs_beyond_the_disk
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
