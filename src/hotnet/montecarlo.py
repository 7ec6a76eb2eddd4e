"""Monte Carlo trial engine: one pipeline, driven by the ``LinkBudget``
records, over fixed blocks of ``BLOCK_TRIALS`` trials.

- associate: draw only what association reads (the UE's distance ``v0``
  to its hotspot center, the nearest macro BS, the own-cluster
  candidates) and pick the tier by ``association.choose``, the rule the
  per-realization sampler uses too.  ``assoc_only`` runs stop here;
- interfere: draw the serving fading and the interferers each served
  trial hears, a few trials at a time so that the arrays stay bounded;
- SINR: signal over noise plus interference, and the Shannon rate.

Block ``b`` draws from ``SeedSequence([seed, b])``, so a table is a
function of (params, scenario, n_trials, seed) alone.  A shorter run is a
prefix of a longer one up to its last whole block; a trailing partial
block is drawn afresh.

Interferers are truncated at ``truncation_radius_m``: BSs beyond it are
dropped, and the expected interference of the network outside enters as
a deterministic mean tail, which keeps the truncation bias far below the
Monte Carlo noise floor.  The truncation bounds interferers only: the
nearest macro BS is a serving candidate wherever it lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .association import (TIER_NONE, ClusterLaw, KernelSegment, LinkBudget,
                          Tier, choose, link_budgets)
from .channel import MIN_LINK_DISTANCE_M
from .geometry import center_disk, sample_ppp
from .params import ScenarioKind, SystemParams

BLOCK_TRIALS = 1024         # trials per random stream
INTERFERER_CHUNK = 1 << 15  # about the most interferers live at once


@dataclass
class TrialTable:
    """Column-wise store of trial results, one array per quantity."""

    tier: np.ndarray
    serving_distance: np.ndarray
    v0: np.ndarray
    sinr: np.ndarray
    snr: np.ndarray
    rate: np.ndarray

    def __len__(self) -> int:
        return len(self.tier)

    def select(self, mask) -> TrialTable:
        """The trials that ``mask`` picks, in every column."""
        return TrialTable(*(getattr(self, f.name)[mask]
                            for f in fields(self)))

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


# ---------------------------------------------------------------------------
# stages on explicit distances, and samplers
# ---------------------------------------------------------------------------

def _pick(probs, u: np.ndarray) -> np.ndarray:
    """Outcome (as a bool) of the two-outcome law ``probs`` for each ``u``."""
    return u >= probs[0]


def _fading(order: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean Nakagami power of integer order: a sum of ``order``
    standard exponentials over ``order``."""
    return rng.standard_exponential((order, m)).sum(axis=0) / order


def _received(segments: tuple[KernelSegment, ...], d: np.ndarray,
              trial: np.ndarray, n: int, rng: np.random.Generator,
              u=None) -> np.ndarray:
    """Per-trial sum of the power received from interferers with kernel
    ``segments`` at distances ``d`` (``trial`` indexes each one's trial,
    out of ``n``).

    The segments of an interferer's distance band split it by a uniform
    against their cumulative shares: ``u`` when given, else drawn where a
    band has several segments.  The segment sets its beam gain levels,
    Nakagami order and path loss, clamped at 1 m.
    """
    total = np.zeros(n)
    bands: dict[tuple[float, float], list[KernelSegment]] = {}
    for s in segments:
        bands.setdefault((s.r_min, s.r_max), []).append(s)
    for (lo, hi), segs in bands.items():
        # an unbounded band holds every interferer: no mask, no copies
        inside = (slice(None) if (lo, hi) == (0.0, math.inf)
                  else (d >= lo) & (d < hi))
        dd, tt = d[inside], trial[inside]
        parts = [(segs[0], dd, tt)]
        if len(segs) > 1:
            pick = _pick([s.share for s in segs],
                         rng.random(len(dd)) if u is None else u[inside])
            parts = [(s, dd[pick == i], tt[pick == i])
                     for i, s in enumerate(segs)]
        for s, ds, ts in parts:
            m = len(ds)
            p = np.maximum(ds, MIN_LINK_DISTANCE_M)
            p **= -s.alpha
            p *= s.intercept
            p *= (np.take(s.gains, _pick(s.gain_probs, rng.random(m)))
                  if len(s.gains) > 1 else s.gains[0])
            p *= _fading(s.order, m, rng)
            total += np.bincount(ts, weights=p, minlength=n)
    return total


def _tail_mean(segments: tuple[KernelSegment, ...], density: float,
               radius: float | np.ndarray):
    """Expected interference beyond ``radius`` (a scalar or an array)
    from interferers of ``density`` per m^2: their unbounded segments at
    their mean gain and unit-mean fading."""
    return sum(2.0 * math.pi * density * s.share
               * float(np.dot(s.gains, s.gain_probs)) * s.intercept
               * radius ** (2.0 - s.alpha) / (s.alpha - 2.0)
               for s in segments if s.r_max == math.inf)


def _sinr(serving: LinkBudget, x: np.ndarray, fading: np.ndarray,
          interference: np.ndarray):
    """SINR, SNR and rate of serving links at distances ``x`` with the
    given fading and interference powers."""
    sig = (serving.budget * np.maximum(x, MIN_LINK_DISTANCE_M)
           ** -serving.alpha * fading)
    sinr = sig / (serving.noise_w + interference)
    return (sinr, sig / serving.noise_w,
            serving.bandwidth_hz * np.log2(1.0 + sinr))


def _member_distances(cx: np.ndarray, sigma: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Distances to the origin of members scattered with spread ``sigma``
    around centers on the positive x-axis at ``cx``.  Rotating a cluster
    about the origin keeps its members' distances, so no angle is drawn."""
    x, y = sigma * rng.standard_normal((2, len(cx)))
    return np.sqrt((x + cx) ** 2 + y * y)


def _macro_others(r1: np.ndarray, radius: float, density: float,
                  rng: np.random.Generator):
    """Distances and trial index of the macro BSs past the nearest one at
    ``r1``: a PPP on the annulus ``[r1, radius]``, empty for an ``r1``
    beyond the disk."""
    r1 = np.minimum(r1, radius)
    counts = rng.poisson(density * math.pi * (radius ** 2 - r1 ** 2))
    trial = np.repeat(np.arange(len(r1)), counts)
    inner = r1[trial] ** 2
    return (np.sqrt(inner + (radius ** 2 - inner) * rng.random(len(trial))),
            trial)


def _cluster_members(law: ClusterLaw, radius: float, enlarged: float,
                     n: int, rng: np.random.Generator):
    """Distances and trial index of the interfering clusters' members
    inside ``radius``, for ``n`` trials.  The centers are one PPP of ``n``
    times the hotspot density on the disk of radius ``enlarged``, each
    given to a uniformly drawn trial (so each trial gets an independent
    PPP) and rotated onto the positive x-axis.  Members beyond ``radius``
    are dropped before anything else is drawn for them (the mean tail
    counts them), first by their x offset alone."""
    centers = sample_ppp(n * law.density, enlarged, rng)
    owner = rng.integers(0, n, len(centers))
    counts = rng.poisson(law.members, len(centers))
    x = np.repeat(np.hypot(centers[:, 0], centers[:, 1]), counts)
    x += rng.normal(0.0, law.spread, len(x))
    near = np.flatnonzero(np.abs(x) <= radius)
    d2 = x[near] ** 2 + rng.normal(0.0, law.spread, len(near)) ** 2
    keep = d2 <= radius * radius
    return np.sqrt(d2[keep]), np.repeat(owner, counts)[near[keep]]


# ---------------------------------------------------------------------------
# block pipeline
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """Constants of one ``run_trials`` call."""

    budgets: tuple[LinkBudget, LinkBudget]
    sigma_ue: float
    radius: float             # truncation disk of every interferer
    enlarged: float           # disk of the interfering cluster centers


class _Block(NamedTuple):
    """What the associate stage drew for a block of trials."""

    v0: np.ndarray
    r1: np.ndarray            # nearest macro distance, inf if none
    own: np.ndarray           # (n, members) distances, NaN until drawn
    own_u: np.ndarray | None  # (n, members) class uniforms (LoS labels)
    cand: np.ndarray          # (n, members) candidate distances, else inf
    tier: np.ndarray
    x: np.ndarray             # serving distance, NaN when unserved


def _associate(run: _Run, n: int, rng: np.random.Generator) -> _Block:
    """Draw what association reads and pick each trial's serving tier.
    The own hotspot center sits at ``(v0, 0)``.  LoS labels come first,
    then positions of the labelled members only: the others wait until a
    trial needs them as interferers."""
    law = run.budgets[1].cluster
    v0 = rng.rayleigh(run.sigma_ue, n)
    r1 = np.full(n, np.inf)
    lam = run.budgets[0].density
    if lam > 0:
        # the nearest point of a PPP: pi lambda r1^2 ~ Exp(1)
        r1 = np.sqrt(rng.standard_exponential(n) / (math.pi * lam))
    own_u, drawn = None, np.ones((n, law.members), dtype=bool)
    if law.los_ball is not None:
        own_u = rng.random(drawn.shape)
        drawn = own_u < law.los_prob
    own = np.full(drawn.shape, np.nan)
    rows = np.flatnonzero(drawn) // law.members  # nonzero()[0], faster
    own[drawn] = _member_distances(v0[rows], law.spread, rng)
    cand = (own if law.los_ball is None
            else np.where(own < law.los_ball, own, np.inf))
    r2 = cand.min(axis=1, initial=np.inf)
    tier = choose(run.budgets, r1, r2)
    x = np.maximum(np.where(tier == int(Tier.MMWAVE), r2, r1),
                   MIN_LINK_DISTANCE_M)
    x[tier == TIER_NONE] = np.nan
    return _Block(v0, r1, own, own_u, cand, tier, x)


def _macro_interference(run: _Run, block: _Block, idx: np.ndarray,
                        serves: bool,
                        rng: np.random.Generator) -> np.ndarray:
    """Macro interference at the trials ``idx``: the macro BSs past the
    nearest one, and the nearest one too unless it ``serves``.  The mean
    tail starts at the disk's edge, or at the nearest BS beyond it."""
    macro = run.budgets[0]
    r1 = block.r1[idx]
    out = _tail_mean(macro.segments, macro.density, np.maximum(r1, run.radius))
    per_trial = macro.density * math.pi * run.radius ** 2
    step = max(1, int(INTERFERER_CHUNK / max(per_trial, 1.0)))
    for i in range(0, len(r1), step):
        part = r1[i:i + step]
        d, trial = _macro_others(part, run.radius, macro.density, rng)
        if not serves:
            lit = np.flatnonzero(np.isfinite(part))
            d, trial = (np.concatenate((d, part[lit])),
                        np.concatenate((trial, lit)))
        out[i:i + step] += _received(macro.segments, d, trial, len(part),
                                     rng)
    return out


def _cluster_interference(run: _Run, block: _Block, idx: np.ndarray,
                          serves: bool,
                          rng: np.random.Generator) -> np.ndarray:
    """Small-cell interference at the trials ``idx``: the own cluster,
    less its nearest candidate when that ``serves``, and the interfering
    clusters."""
    law = run.budgets[1].cluster
    density = law.density * law.members
    n = len(idx)
    out = np.full(n, _tail_mean(law.segments, density, run.radius))
    own = block.own[idx]
    missing = np.isnan(own)
    own[missing] = _member_distances(block.v0[idx][missing.nonzero()[0]],
                                     law.spread, rng)
    keep = np.ones(own.shape, dtype=bool)
    if serves:
        keep[np.arange(n), block.cand[idx].argmin(axis=1)] = False
    u = None if block.own_u is None else block.own_u[idx][keep]
    out += _received(law.segments, own[keep], keep.nonzero()[0], n, rng, u)
    per_trial = density * math.pi * run.enlarged ** 2
    step = max(1, int(INTERFERER_CHUNK / max(per_trial, 1.0)))
    for i in range(0, n, step):
        m = min(step, n - i)
        d, trial = _cluster_members(law, run.radius, run.enlarged, m, rng)
        out[i:i + m] += _received(law.segments, d, trial, m, rng)
    return out


def _interfere(run: _Run, block: _Block, rng: np.random.Generator):
    """SINR, SNR and rate of a block's trials; unserved ones read 0.  A
    served trial hears the interferers of every tier its serving record
    lists, drawn in that order."""
    out = np.zeros((3, len(block.tier)))
    for k, serving in enumerate(run.budgets, start=1):
        idx = np.flatnonzero(block.tier == k)
        if len(idx) == 0:
            continue
        fading = _fading(serving.order, len(idx), rng)
        interference = np.zeros(len(idx))
        for j in serving.hears:
            stage = (_macro_interference if run.budgets[j - 1].cluster is None
                     else _cluster_interference)
            interference += stage(run, block, idx, j == k, rng)
        out[:, idx] = _sinr(serving, block.x[idx], fading, interference)
    return out


def run_trials(params: SystemParams, scenario: ScenarioKind, n_trials: int,
               seed: int, assoc_only: bool = False) -> TrialTable:
    """Run ``n_trials`` independent trials of the given deployment.

    With ``assoc_only`` the pipeline stops after association: ``tier``,
    ``serving_distance`` and ``v0`` equal those of the full run with the
    same seed, and ``sinr``, ``snr`` and ``rate`` are NaN.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    budgets = link_budgets(params, scenario)
    radius = params.truncation_radius_m
    run = _Run(budgets, params.sigma_ue_m, radius,
               center_disk(budgets[1].cluster, params.sigma_ue_m, radius))
    table = TrialTable(np.empty(n_trials, dtype=np.int8),
                       *np.full((5, n_trials), np.nan))
    for b, start in enumerate(range(0, n_trials, BLOCK_TRIALS)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        sl = slice(start, start + BLOCK_TRIALS)
        block = _associate(run, min(BLOCK_TRIALS, n_trials - start), rng)
        table.tier[sl], table.serving_distance[sl] = block.tier, block.x
        table.v0[sl] = block.v0
        if not assoc_only:
            table.sinr[sl], table.snr[sl], table.rate[sl] = _interfere(
                run, block, rng)
    return table


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _served_values(results: TrialTable, metric: str,
                   allowed: tuple[str, ...]) -> np.ndarray:
    """Column ``metric`` over all trials, unserved ones read as 0."""
    if len(results) == 0:
        raise ValueError("no trials to estimate from")
    if metric not in allowed:
        raise ValueError(f"unknown metric {metric!r}")
    return np.where(results.served, getattr(results, metric), 0.0)


def _mean(values: np.ndarray) -> EstimateWithCI:
    """Sample mean with its standard error, NaN for a single value."""
    n = len(values)
    if n == 0:
        raise ValueError("no trials to average")
    stderr = np.std(values, ddof=1) / math.sqrt(n) if n > 1 else math.nan
    return EstimateWithCI(float(np.mean(values)), float(stderr), n)


def estimate_assoc_prob(results: TrialTable, k: int) -> EstimateWithCI:
    n = len(results)
    if n == 0:
        raise ValueError("no trials")
    p = float(np.mean(results.tier == k))
    return EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def estimate_coverage(results: TrialTable, thresholds_db,
                      metric: str = "sinr") -> CoverageCurve:
    """Empirical coverage curve with binomial standard errors; unserved
    trials count as uncovered.  Condition on a tier or an offset by
    passing ``results.select(mask)``."""
    values = _served_values(results, metric, ("sinr", "snr"))
    n = len(results)
    thresholds_db = np.sort(np.asarray(thresholds_db, dtype=float))
    tau = 10.0 ** (thresholds_db / 10.0)
    probs = np.array([float(np.sum(values > t)) / n for t in tau])
    return CoverageCurve(thresholds_db, probs,
                         np.sqrt(probs * (1.0 - probs) / n))


def estimate_quantile(results: TrialTable, metric: str, q: float) -> float:
    """Empirical ``q``-quantile of ``metric`` (``sinr``, ``snr`` or
    ``rate``, linear) over all trials, unserved ones read as 0."""
    return float(np.quantile(
        _served_values(results, metric, ("sinr", "snr", "rate")), q))


def estimate_rate(results: TrialTable) -> EstimateWithCI:
    """Mean rate over all trials (unserved trials contribute zero)."""
    return _mean(_served_values(results, "rate", ("rate",)))


def estimate_serving_distance(results: TrialTable) -> EstimateWithCI:
    """Mean serving distance over the served trials."""
    return _mean(results.serving_distance[results.served])
