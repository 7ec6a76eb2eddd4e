"""Monte Carlo trial engine: sample worlds, associate, draw SINR/SNR/rate.

Each trial gets its own RNG stream derived from ``(seed, trial_index)``,
so trials are reproducible and order-independent (and could run in any
order or in parallel).  The engine samples lazily: the Sub-6GHz process
and the typical cluster decide association first; interfering clusters
are only drawn when a trial actually needs mmWave interference.

Interferers are truncated at ``params.truncation_radius_m``; the expected
interference of the (infinite) network beyond the truncation disk is
added as a deterministic mean term, which keeps the truncation bias far
below the Monte Carlo noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .association import LinkBudget, Tier, link_budgets
from .geometry import (NetworkRealization, sample_ppp, sample_thomas_cluster,
                       sample_typical_offset)
from .params import ScenarioKind, SystemParams

TIER_NONE = 0  # mmWave-only deployment with no LoS candidate in reach


@dataclass(frozen=True)
class TrialResult:
    tier: int                 # 1, 2 or TIER_NONE
    serving_distance: float
    v0: float
    sinr: float
    snr: float
    rate: float


@dataclass
class TrialTable:
    """Column-wise store of trial results; behaves as a sequence of
    ``TrialResult`` rows."""

    tier: np.ndarray
    serving_distance: np.ndarray
    v0: np.ndarray
    sinr: np.ndarray
    snr: np.ndarray
    rate: np.ndarray

    def __len__(self) -> int:
        return len(self.tier)

    def __getitem__(self, i: int) -> TrialResult:
        return TrialResult(int(self.tier[i]), float(self.serving_distance[i]),
                           float(self.v0[i]), float(self.sinr[i]),
                           float(self.snr[i]), float(self.rate[i]))

    @property
    def served(self) -> np.ndarray:
        return self.tier != TIER_NONE


@dataclass
class EstimateWithCI:
    value: float
    stderr: float
    n_trials: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass
class CoverageCurve:
    thresholds_db: np.ndarray
    probabilities: np.ndarray
    stderr: np.ndarray
    conditional: dict = field(default_factory=dict)  # tier -> CoverageCurve


# ---------------------------------------------------------------------------
# per-trial physics
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _rayleigh_interference(dists: np.ndarray, tier: LinkBudget,
                           rng: np.random.Generator) -> float:
    """Rayleigh-faded Sub-6GHz aggregate from BSs of the given tier at the
    given distances."""
    if len(dists) == 0:
        return 0.0
    d = np.maximum(dists, 1.0)
    return float(np.sum(tier.budget * d ** (-tier.alpha)
                        * rng.exponential(size=len(d))))


def _sub6_tail_mean(params: SystemParams, radius: float) -> float:
    """Expected Sub-6GHz interference from beyond the truncation disk."""
    macro = link_budgets(params)[0]
    a = macro.alpha
    return (2.0 * math.pi * params.lambda1 * macro.budget
            * radius ** (2.0 - a) / (a - 2.0))


def _mm_interference(dists: np.ndarray, los: np.ndarray,
                     params: SystemParams, rng: np.random.Generator) -> float:
    """mmWave aggregate with random beam orientations and per-class
    Nakagami fading."""
    m = len(dists)
    if m == 0:
        return 0.0
    d = np.maximum(dists, 1.0)
    g = np.where(rng.random(m) < params.p_main, params.g_main, params.g_side)
    shape = np.where(los, params.n_nakagami_los, params.n_nakagami_nlos)
    h = rng.gamma(shape, 1.0 / shape)
    c = np.where(los, params.c_los, params.c_nlos)
    alpha = np.where(los, params.alpha_los, params.alpha_nlos)
    return float(np.sum(params.p2_w * g * c * d ** (-alpha) * h))


def _mm_tail_mean(params: SystemParams, radius: float) -> float:
    """Expected mmWave interference beyond the truncation disk (all NLoS
    out there; clusters enter with their mean member count)."""
    b = params.p2_w * params.mean_interferer_gain * params.c_nlos
    a = params.alpha_nlos
    return (2.0 * math.pi * params.lambda_p * params.n_bs * b
            * radius ** (2.0 - a) / (a - 2.0))


def sinr_of_realization(realization: NetworkRealization,
                        outcome, params: SystemParams,
                        rng: np.random.Generator,
                        serving_fading: Optional[float] = None,
                        far_field_tail: bool = False) -> TrialResult:
    """SINR/SNR/rate of the typical UE for one sampled world.

    ``serving_fading`` fixes the serving link's fading power (otherwise a
    fresh Nakagami draw); ``far_field_tail`` adds the mean interference of
    the network beyond the realization window.
    """
    x = outcome.serving_distance
    macro, cells = link_budgets(params)
    if outcome.tier == Tier.SUB6:
        h = rng.gamma(1, 1.0) if serving_fading is None else serving_fading
        sig = macro.budget * max(x, 1.0) ** (-macro.alpha) * h
        d = np.linalg.norm(realization.sub6_points, axis=1)
        d = np.delete(d, outcome.serving_index[1])
        interference = _rayleigh_interference(d, macro, rng)
        if far_field_tail:
            interference += _sub6_tail_mean(params, realization.window_radius)
        serving = macro
    else:
        n_l = cells.order
        h = (rng.gamma(n_l, 1.0 / n_l) if serving_fading is None
             else serving_fading)
        sig = cells.budget * max(x, 1.0) ** (-cells.alpha) * h
        _, ci, mi = outcome.serving_index
        dd, ll = [], []
        for k, cl in enumerate(realization.clusters):
            if cl.count == 0:
                continue
            d = np.linalg.norm(cl.members, axis=1)
            mask = np.ones(cl.count, dtype=bool)
            if k == ci:
                mask[mi] = False
            dd.append(d[mask])
            ll.append(cl.los_mask[mask])
        d = np.concatenate(dd) if dd else np.empty(0)
        l = np.concatenate(ll) if ll else np.empty(0, dtype=bool)
        interference = _mm_interference(d, l, params, rng)
        if far_field_tail:
            interference += _mm_tail_mean(params, realization.window_radius)
        serving = cells
    return _trial_result(int(outcome.tier), serving, x,
                         realization.typical_offset_v0, sig, interference)


def _trial_result(tier: int, serving: LinkBudget, x: float, v0: float,
                  sig: float, interference: float) -> TrialResult:
    """SINR/SNR/rate of a served trial over the serving tier's link."""
    snr = sig / serving.noise_w
    sinr = sig / (serving.noise_w + interference)
    return TrialResult(tier, float(x), float(v0), float(sinr), float(snr),
                       float(serving.bandwidth_hz * math.log2(1.0 + sinr)))


# ---------------------------------------------------------------------------
# trial engine
# ---------------------------------------------------------------------------

def _metric(tier: LinkBudget, r: float) -> float:
    """Biased average received power of a candidate at distance ``r``;
    -1 when the tier offers no candidate (``r`` infinite)."""
    if r == math.inf:
        return -1.0
    return tier.weight * max(r, 1.0) ** (-tier.alpha)


def _sample_interfering_members(params: SystemParams, radius: float,
                                rng: np.random.Generator):
    """Distances of all members of the interfering clusters, flattened."""
    enlarged = radius + 6.0 * max(params.sigma_bs_m, params.sigma_ue_m)
    centers = sample_ppp(params.lambda_p, enlarged, rng)
    if len(centers) == 0:
        return np.empty(0)
    counts = rng.poisson(params.n_bs, size=len(centers))
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    pts = (np.repeat(centers, counts, axis=0)
           + rng.normal(0.0, params.sigma_bs_m, size=(total, 2)))
    return np.linalg.norm(pts, axis=1)


def _run_trial_integrated(params: SystemParams, scenario: ScenarioKind,
                          budgets: tuple[LinkBudget, LinkBudget],
                          rng: np.random.Generator) -> TrialResult:
    """One trial of deployments (a), (b) or (c)."""
    macro, cells = budgets
    radius = min(params.window_radius_m, params.truncation_radius_m)
    with_sub6 = scenario is not ScenarioKind.MMWAVE_ONLY
    with_mm = scenario is not ScenarioKind.SUB6_ONLY

    v0 = sample_typical_offset(params.sigma_ue_m, rng)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    c0 = v0 * np.array([math.cos(psi), math.sin(psi)])

    r1 = math.inf
    d_sub6 = np.empty(0)
    if with_sub6:
        d_sub6 = np.linalg.norm(sample_ppp(params.lambda1, radius, rng),
                                axis=1)
        if len(d_sub6):
            r1 = float(d_sub6.min())

    r2 = math.inf
    d0 = np.empty(0)
    los0 = np.empty(0, dtype=bool)
    if with_mm and params.n_bs > 0:
        own = sample_thomas_cluster(c0, params.sigma_bs_m, params.n_bs, rng)
        d0 = np.linalg.norm(own.members, axis=1)
        los0 = ((rng.random(params.n_bs) < params.p_los)
                & (d0 < params.r_los_ball_m))
        if los0.any():
            r2 = float(d0[los0].min())

    m1 = _metric(macro, r1)
    m2 = _metric(cells, r2)
    if m1 < 0 and m2 < 0:
        return TrialResult(TIER_NONE, math.nan, v0, 0.0, 0.0, 0.0)

    if m2 > m1:
        # mmWave-served: intra (own cluster minus serving) + inter clusters
        n_l = cells.order
        sig = (cells.budget * max(r2, 1.0) ** (-cells.alpha)
               * rng.gamma(n_l, 1.0 / n_l))
        keep = np.ones(params.n_bs, dtype=bool)
        keep[int(np.argmin(np.where(los0, d0, np.inf)))] = False
        interference = _mm_interference(d0[keep], los0[keep], params, rng)
        d_inter = _sample_interfering_members(params, radius, rng)
        los_inter = ((rng.random(len(d_inter)) < params.p_los)
                     & (d_inter < params.r_los_ball_m))
        interference += _mm_interference(d_inter, los_inter, params, rng)
        interference += _mm_tail_mean(params, radius)
        return _trial_result(int(Tier.MMWAVE), cells, r2, v0, sig,
                             interference)

    sig = macro.budget * max(r1, 1.0) ** (-macro.alpha) * rng.exponential()
    others = np.delete(d_sub6, int(np.argmin(d_sub6)))
    interference = (_rayleigh_interference(others, macro, rng)
                    + _sub6_tail_mean(params, radius))
    return _trial_result(int(Tier.SUB6), macro, r1, v0, sig, interference)


def _run_trial_two_tier(params: SystemParams,
                        budgets: tuple[LinkBudget, LinkBudget],
                        rng: np.random.Generator) -> TrialResult:
    """One trial of deployment (d): clustered small cells share the
    Sub-6GHz band (omni antennas, Rayleigh fading, macro path loss law)."""
    radius = min(params.window_radius_m, params.truncation_radius_m)
    macro, cells = budgets

    v0 = sample_typical_offset(params.sigma_ue_m, rng)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    c0 = v0 * np.array([math.cos(psi), math.sin(psi)])

    d_sub6 = np.linalg.norm(sample_ppp(params.lambda1, radius, rng), axis=1)
    r1 = float(d_sub6.min()) if len(d_sub6) else math.inf

    own = sample_thomas_cluster(c0, params.sigma_bs_m, params.n_bs, rng)
    d0 = np.linalg.norm(own.members, axis=1) if params.n_bs else np.empty(0)
    r2 = float(d0.min()) if len(d0) else math.inf

    d_inter = _sample_interfering_members(params, radius, rng)

    m1 = _metric(macro, r1)
    m2 = _metric(cells, r2)
    if m1 < 0 and m2 < 0:
        return TrialResult(TIER_NONE, math.nan, v0, 0.0, 0.0, 0.0)

    if m2 > m1:
        tier, x, serving = int(Tier.MMWAVE), r2, cells
        scells = np.concatenate((np.delete(d0, int(np.argmin(d0))), d_inter))
        macros = d_sub6
    else:
        tier, x, serving = int(Tier.SUB6), r1, macro
        scells = np.concatenate((d0, d_inter))
        macros = np.delete(d_sub6, int(np.argmin(d_sub6)))

    sig = serving.budget * max(x, 1.0) ** (-serving.alpha) * rng.exponential()
    interference = _rayleigh_interference(macros, macro, rng)
    interference += _rayleigh_interference(scells, cells, rng)
    interference += _sub6_tail_mean(params, radius)
    a = cells.alpha
    interference += (2.0 * math.pi * params.lambda_p * params.n_bs
                     * cells.budget * radius ** (2.0 - a) / (a - 2.0))
    return _trial_result(tier, serving, x, v0, sig, interference)


def _run_assoc_only(params: SystemParams, scenario: ScenarioKind,
                    budgets: tuple[LinkBudget, LinkBudget],
                    n_trials: int, seed: int) -> TrialTable:
    """Vectorized fast path when only tier/serving-distance statistics are
    needed: no interference, no fading (sinr/snr/rate reported as NaN)."""
    rng = _trial_rng(seed, 0)
    v0 = rng.rayleigh(params.sigma_ue_m, n_trials)

    with_sub6 = scenario is not ScenarioKind.MMWAVE_ONLY
    if with_sub6 and params.lambda1 > 0:
        # nearest-point distance of a PPP: pi*lambda*r1^2 ~ Exp(1)
        r1 = np.sqrt(rng.exponential(size=n_trials) / (math.pi * params.lambda1))
    else:
        r1 = np.full(n_trials, np.inf)

    macro, cells = budgets
    law = cells.cluster
    r2 = np.full(n_trials, np.inf)
    if scenario is not ScenarioKind.SUB6_ONLY and params.n_bs > 0:
        off = rng.normal(0.0, params.sigma_bs_m, (n_trials, params.n_bs, 2))
        off[:, :, 0] += v0[:, None]
        d = np.linalg.norm(off, axis=2)
        if law.los_ball is not None:
            los = ((rng.random((n_trials, params.n_bs)) < law.los_prob)
                   & (d < law.los_ball))
            d = np.where(los, d, np.inf)
        r2 = d.min(axis=1)

    with np.errstate(divide="ignore"):
        m1 = np.where(np.isinf(r1), -1.0,
                      macro.weight * np.maximum(r1, 1.0) ** (-macro.alpha))
        m2 = np.where(np.isinf(r2), -1.0,
                      cells.weight * np.maximum(r2, 1.0) ** (-cells.alpha))

    tier = np.where(m2 > m1, int(Tier.MMWAVE), int(Tier.SUB6))
    tier = np.where((m1 < 0) & (m2 < 0), TIER_NONE, tier)
    dist = np.where(tier == int(Tier.MMWAVE), r2, r1)
    dist = np.where(tier == TIER_NONE, np.nan, np.maximum(dist, 1.0))
    nan = np.full(n_trials, np.nan)
    return TrialTable(tier.astype(np.int8), dist, v0, nan.copy(), nan.copy(),
                      nan.copy())


def run_trials(params: SystemParams, scenario: ScenarioKind, n_trials: int,
               seed: int, assoc_only: bool = False) -> TrialTable:
    """Run ``n_trials`` independent trials of the given deployment."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    budgets = link_budgets(params, scenario)
    if assoc_only:
        return _run_assoc_only(params, scenario, budgets, n_trials, seed)

    tier = np.empty(n_trials, dtype=np.int8)
    dist = np.empty(n_trials)
    v0 = np.empty(n_trials)
    sinr = np.empty(n_trials)
    snr = np.empty(n_trials)
    rate = np.empty(n_trials)
    for i in range(n_trials):
        rng = _trial_rng(seed, i)
        if scenario is ScenarioKind.TWO_TIER_SUB6:
            res = _run_trial_two_tier(params, budgets, rng)
        else:
            res = _run_trial_integrated(params, scenario, budgets, rng)
        tier[i] = res.tier
        dist[i] = res.serving_distance
        v0[i] = res.v0
        sinr[i] = res.sinr
        snr[i] = res.snr
        rate[i] = res.rate
    return TrialTable(tier, dist, v0, sinr, snr, rate)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_assoc_prob(results: TrialTable, k: int) -> EstimateWithCI:
    n = len(results)
    if n == 0:
        raise ValueError("no trials")
    p = float(np.mean(results.tier == k))
    return EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def _empirical_curve(values: np.ndarray, thresholds_db: np.ndarray,
                     n_total: int) -> tuple[np.ndarray, np.ndarray]:
    tau = 10.0 ** (thresholds_db / 10.0)
    probs = np.array([float(np.sum(values > t)) / n_total for t in tau])
    err = np.sqrt(probs * (1.0 - probs) / n_total)
    return probs, err


def estimate_coverage(results: TrialTable, thresholds_db,
                      metric: str = "sinr") -> CoverageCurve:
    """Empirical coverage curve with binomial standard errors.

    Unserved trials count as uncovered in the overall curve.  Per-tier
    conditional curves (normalized by the tier's trial count) are attached
    under ``conditional``.
    """
    if len(results) == 0:
        raise ValueError("no trials to estimate from")
    if metric not in ("sinr", "snr"):
        raise ValueError(f"unknown metric {metric!r}")
    thresholds_db = np.sort(np.asarray(thresholds_db, dtype=float))
    values = results.sinr if metric == "sinr" else results.snr
    values = np.where(results.served, values, 0.0)
    probs, err = _empirical_curve(values, thresholds_db, len(results))
    curve = CoverageCurve(thresholds_db, probs, err)
    for k in (int(Tier.SUB6), int(Tier.MMWAVE)):
        sel = results.tier == k
        if sel.any():
            p, e = _empirical_curve(values[sel], thresholds_db,
                                    int(sel.sum()))
            curve.conditional[k] = CoverageCurve(thresholds_db, p, e)
    return curve


def percentile_metric(curve: CoverageCurve, percentile: float) -> float:
    """Threshold (dB) at which coverage crosses 1 - percentile/100, by
    linear interpolation on the empirical curve."""
    target = 1.0 - percentile / 100.0
    p = curve.probabilities
    t = curve.thresholds_db
    if not (p.max() >= target >= p.min()):
        raise ValueError(
            f"coverage curve [{p.min():.3f}, {p.max():.3f}] does not span "
            f"target probability {target:.3f}")
    # probabilities are nonincreasing in threshold (up to MC noise)
    for i in range(len(t) - 1):
        lo, hi = p[i], p[i + 1]
        if (lo >= target >= hi) and lo != hi:
            return float(t[i] + (t[i + 1] - t[i]) * (lo - target) / (lo - hi))
    idx = int(np.argmin(np.abs(p - target)))
    return float(t[idx])


def estimate_rate(results: TrialTable) -> EstimateWithCI:
    """Mean rate over all trials (unserved trials contribute zero)."""
    n = len(results)
    if n == 0:
        raise ValueError("no trials")
    r = np.where(results.served, results.rate, 0.0)
    return EstimateWithCI(float(np.mean(r)),
                          float(np.std(r, ddof=1) / math.sqrt(n)), n)


def conditional_metrics(results: TrialTable, v0_bins) -> list[dict]:
    """Per-offset-bin summaries: tier shares, mean serving distance and
    percentile SINR/rate (bins are [lo, hi) edges over v0)."""
    edges = np.asarray(v0_bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("v0_bins must be increasing edge values")
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (results.v0 >= lo) & (results.v0 < hi)
        n = int(sel.sum())
        row = {"v0_lo": float(lo), "v0_hi": float(hi), "n_trials": n,
               "mm_share": math.nan, "sub6_share": math.nan,
               "mean_serving_distance": math.nan,
               "median_sinr_db": math.nan, "median_rate": math.nan}
        if n:
            row["mm_share"] = float(np.mean(results.tier[sel] == int(Tier.MMWAVE)))
            row["sub6_share"] = float(np.mean(results.tier[sel] == int(Tier.SUB6)))
            served = sel & results.served
            if served.any():
                row["mean_serving_distance"] = float(
                    np.mean(results.serving_distance[served]))
            sinr = np.where(results.served[sel], results.sinr[sel], 0.0)
            med = float(np.median(sinr))
            row["median_sinr_db"] = (10.0 * math.log10(med) if med > 0
                                     else -math.inf)
            row["median_rate"] = float(np.median(
                np.where(results.served[sel], results.rate[sel], 0.0)))
        out.append(row)
    return out
