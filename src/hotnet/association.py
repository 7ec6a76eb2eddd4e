"""Per-tier link budgets, the strongest-bias association rule and the
tier-boundary distance maps.

Candidates are the nearest Sub-6GHz BS anywhere and the nearest LoS mmWave
BS of the typical UE's own cluster; other mmWave BSs act only as
interferers.  The per-tier weight is ``B_k P_k G_k N_k ell_k(r)``.
``link_budgets`` holds every tier constant of each deployment in one
place, with each tier's interference kernel and the tiers it hears; both
engines and the per-realization sampler read only it, and both simulators
decide the tier by ``choose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .channel import MIN_LINK_DISTANCE_M
from .params import ScenarioKind, SystemParams

if TYPE_CHECKING:  # geometry imports this module for its records
    from .geometry import NetworkRealization


class Tier(IntEnum):
    SUB6 = 1
    MMWAVE = 2


TIER_NONE = 0  # mmWave-only deployment with no LoS candidate in reach


@dataclass(frozen=True)
class AssociationOutcome:
    tier: Tier
    serving_distance: float
    serving_index: tuple  # ("sub6", i) or ("mm", cluster_idx, member_idx)


@dataclass(frozen=True)
class KernelSegment:
    """Interfering BSs of one propagation class, of either tier, inside
    the distance band ``[r_min, r_max)``, and the interference kernel
    ``1 - E_G[(1 + s P C G r^-alpha / N)^-N]`` they contribute over the
    gain levels ``gains`` drawn with ``gain_probs``.

    With ``past_serving`` the band starts at the exclusion radius (no BS
    of this class is nearer than the serving candidate); an unbounded band
    of cluster members is cut to ``v0 +- 8 sigma``, where their density
    lives.
    """

    share: float                    # fraction of the BS density
    r_min: float
    r_max: float
    past_serving: bool
    nlos: bool                      # dropped when NLoS is neglected
    intercept: float                # P C: power at 1 m before gain, fading
    alpha: float
    order: int
    gains: tuple[float, ...]
    gain_probs: tuple[float, ...]


@dataclass(frozen=True)
class ClusterLaw:
    """The clustered tier's members: hotspot density, member count and
    spread, the candidates (LoS with probability ``los_prob`` inside
    ``los_ball``, or every member when ``los_ball`` is None), and the
    interference kernel of a member."""

    density: float                  # hotspot centers per m^2
    members: int
    spread: float
    los_prob: float
    los_ball: float | None
    segments: tuple[KernelSegment, ...]
    pgfl_scale: float               # decay length of the PGFL integrand


@dataclass(frozen=True)
class LinkBudget:
    """One tier of one deployment: association weight, serving budget
    ``b = P G C``, path-loss exponent, Nakagami order, noise and bandwidth
    of the serving link, and ``hears``: the tiers whose BSs interfere on
    its band, in draw order.  The macro PPP tier has a ``density`` and the
    interference ``segments`` of one macro BS, and no ``cluster``; the
    small-cell tier's density and segments live in its ``cluster``."""

    weight: float
    budget: float
    alpha: float
    order: int
    noise_w: float
    bandwidth_hz: float
    hears: tuple[int, ...]
    density: float = 0.0            # macro BSs per m^2
    segments: tuple[KernelSegment, ...] = ()
    cluster: ClusterLaw | None = None


@lru_cache(maxsize=64)
def link_budgets(params: SystemParams,
                 scenario: ScenarioKind = ScenarioKind.INTEGRATED
                 ) -> tuple[LinkBudget, LinkBudget]:
    """The (macro, small-cell) records of a deployment, indexed by
    ``tier - 1``.  This is the one place that reads the deployment; both
    engines read only the records.

    (b) is (a) without small cells and (c) is (a) without macro BSs.
    Deployments (a)-(c) put the small cells on the mmWave band: LoS-thinned
    candidates, sectored beams and LoS/NLoS Nakagami links.  In (d) they
    share the Sub-6GHz band: omni antennas, Rayleigh fading and the macro
    path-loss law, and every member is a candidate.
    """
    if scenario is ScenarioKind.SUB6_ONLY:
        return link_budgets(params.replace(n_bs=0))
    if scenario is ScenarioKind.MMWAVE_ONLY:
        return link_budgets(params.replace(lambda1_per_km2=0.0))
    p = params
    shared = scenario is ScenarioKind.TWO_TIER_SUB6
    # a macro BS: one Rayleigh-faded segment of the macro serving budget
    rayleigh = KernelSegment(1.0, 0.0, math.inf, True, False,
                             p.p1_w * p.g1 * p.c1, p.alpha1, 1, (1.0,), (1.0,))
    macro = LinkBudget(p.bias1 * p.p1_w * p.g1 * p.c1, p.p1_w * p.g1 * p.c1,
                       p.alpha1, 1, p.noise1_w, p.w1_hz,
                       (1, 2) if shared else (1,), p.lambda1, (rayleigh,))
    if shared:
        segments = (KernelSegment(1.0, 0.0, math.inf, True, False,
                                  p.p2_w * p.c1, p.alpha1, 1, (p.g1,),
                                  (1.0,)),)
        law = ClusterLaw(p.lambda_p, p.n_bs, p.sigma_bs_m, 1.0, None,
                         segments, 8.0 * p.sigma_bs_m + 1.0)
        return macro, LinkBudget(p.bias2 * p.p2_w * p.g1 * p.c1,
                                 p.p2_w * p.g1 * p.c1, p.alpha1, 1,
                                 p.noise1_w, p.w1_hz, (1, 2), cluster=law)
    rb = p.r_los_ball_m
    beams = ((p.g_main, p.g_side), (p.p_main, 1.0 - p.p_main))
    los = (p.p2_w * p.c_los, p.alpha_los, p.n_nakagami_los, *beams)
    nlos = (p.p2_w * p.c_nlos, p.alpha_nlos, p.n_nakagami_nlos, *beams)
    segments = (KernelSegment(p.p_los, 0.0, rb, True, False, *los),
                KernelSegment(1.0 - p.p_los, 0.0, rb, False, True, *nlos),
                KernelSegment(1.0, rb, math.inf, False, True, *nlos))
    law = ClusterLaw(p.lambda_p, p.n_bs, p.sigma_bs_m, p.p_los, rb,
                     segments, rb + 8.0 * p.sigma_bs_m)
    # the association weight carries the LoS Nakagami order
    weight = p.bias2 * p.p2_w * p.g_main * p.n_nakagami_los * p.c_los
    return macro, LinkBudget(weight, p.p2_w * p.g_main * p.c_los,
                             p.alpha_los, p.n_nakagami_los, p.noise2_w,
                             p.w2_hz, (2,), cluster=law)


def biased_metric(budget: LinkBudget, r):
    """Bias-averaged received power of a candidate of the tier of
    ``budget`` at distance ``r``, clamped at 1 m."""
    r = np.maximum(np.asarray(r, dtype=float), MIN_LINK_DISTANCE_M)
    out = budget.weight * r ** (-budget.alpha)
    return out if out.ndim else float(out)


def boundary_map(src: LinkBudget, dst: LinkBudget, r):
    """Boundary distance map: the ``dst`` tier's candidate at
    ``boundary_map(src, dst, r)`` has the same biased metric as the ``src``
    tier's candidate at ``r``; ``boundary_map(dst, src, .)`` inverts it."""
    return ((dst.weight / src.weight) ** (1.0 / dst.alpha)
            * r ** (src.alpha / dst.alpha))


def choose(budgets: tuple[LinkBudget, LinkBudget], r1, r2) -> np.ndarray:
    """Tier of the larger biased average power of the candidates at ``r1``
    and ``r2`` (infinite: no candidate, whose power reads 0).  Ties go to
    the macro tier; a trial without candidates is ``TIER_NONE``."""
    macro, cells = budgets
    m1, m2 = biased_metric(macro, r1), biased_metric(cells, r2)
    tier = np.where(m2 > m1, int(Tier.MMWAVE), int(Tier.SUB6)).astype(np.int8)
    tier[np.isinf(r1) & np.isinf(r2)] = TIER_NONE
    return tier


def associate(realization: NetworkRealization,
              params: SystemParams) -> AssociationOutcome:
    """Pick the serving BS for the typical UE at the origin by ``choose``
    between the nearest Sub-6GHz BS and the nearest LoS member of the
    typical cluster (the Sub-6GHz tier serves when there is none)."""
    if len(realization.sub6_points) == 0:
        raise ValueError("association requires at least one Sub-6GHz BS")
    d_sub6 = np.linalg.norm(realization.sub6_points, axis=1)
    i1 = int(np.argmin(d_sub6))
    r1, i2, r2 = float(d_sub6[i1]), None, math.inf
    if realization.clusters:
        own = realization.clusters[0]
        if own.los_mask is None:
            raise ValueError("typical cluster is missing LoS labels")
        if own.count and own.los_mask.any():
            d = np.linalg.norm(own.members, axis=1)
            d = np.where(own.los_mask, d, np.inf)
            i2 = int(np.argmin(d))
            r2 = float(d[i2])
    if choose(link_budgets(params), [r1], [r2])[0] == Tier.MMWAVE:
        return AssociationOutcome(Tier.MMWAVE, max(r2, MIN_LINK_DISTANCE_M),
                                  ("mm", 0, i2))
    return AssociationOutcome(Tier.SUB6, max(r1, MIN_LINK_DISTANCE_M),
                              ("sub6", i1))
