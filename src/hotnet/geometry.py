"""Spatial point processes: homogeneous PPP, Thomas clusters, UE offset.

Points are float arrays of shape ``(n, 2)`` in meters; the typical UE sits
at the origin.  All samplers are pure given an ``np.random.Generator``.
``sample_network`` reads every link constant from the
``association.link_budgets`` records, as the Monte Carlo engine does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import i0e

from .association import ClusterLaw, link_budgets
from .params import SystemParams


@dataclass
class ClusterRealization:
    """One hotspot: a parent point and its Gaussian-scattered members.

    ``los_mask`` marks members with a line-of-sight link to the origin; it
    is filled in when the cluster is part of a sampled network.
    """

    center: np.ndarray
    members: np.ndarray            # shape (m, 2)
    los_mask: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass
class NetworkRealization:
    """One sampled world seen from the typical UE at the origin.

    Cluster index 0 is the typical UE's own hotspot and always holds
    exactly ``n_bs`` members; interfering clusters carry Poisson counts.
    """

    sub6_points: np.ndarray                 # shape (n, 2)
    clusters: Sequence[ClusterRealization]
    typical_offset_v0: float
    window_radius: float


def sample_ppp(density: float, window_radius: float,
               rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP on a disk centered at the origin."""
    if not (np.isfinite(density) and np.isfinite(window_radius)):
        raise ValueError("density and window_radius must be finite")
    if density < 0 or window_radius <= 0:
        raise ValueError("need density >= 0 and window_radius > 0")
    n = rng.poisson(density * math.pi * window_radius ** 2)
    r = window_radius * np.sqrt(rng.random(n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi)))


def sample_thomas_cluster(center: np.ndarray, sigma: float, count: int,
                          rng: np.random.Generator) -> ClusterRealization:
    """Scatter ``count`` members around ``center`` with isotropic normal
    offsets of standard deviation ``sigma``."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    center = np.asarray(center, dtype=float)
    offsets = rng.normal(0.0, sigma, size=(count, 2))
    return ClusterRealization(center=center, members=center + offsets)


def sample_typical_offset(sigma_ue: float, rng: np.random.Generator) -> float:
    """Distance from the typical UE to its own hotspot center, Rayleigh
    distributed with scale ``sigma_ue``."""
    if sigma_ue <= 0:
        raise ValueError("sigma_ue must be positive")
    return float(rng.rayleigh(sigma_ue))


def rice_pdf(r, v0, sigma: float):
    """Radial density of |c + g| where g is isotropic normal with spread
    ``sigma`` and ``|c| = v0``: the distance from the origin to a cluster
    member whose parent sits at distance ``v0``.  Reduces to the Rayleigh
    density at v0=0.  Unchecked and broadcasting, for integrands that
    evaluate it on quadrature nodes.

    Evaluated in exponentially scaled form so large ``v0*r/sigma**2``
    arguments do not overflow:
    (r/s2) exp(-(r^2+v0^2)/(2 s2)) I0(v0 r/s2)
    = (r/s2) exp(-(r-v0)^2/(2 s2)) i0e(v0 r/s2).
    """
    s2 = sigma * sigma
    return (r / s2) * np.exp(-np.square(r - v0) / (2.0 * s2)) * i0e(v0 * r / s2)


def center_disk(law: ClusterLaw, sigma_ue: float, radius: float) -> float:
    """Radius of the disk of interfering hotspot centers: the truncation
    ``radius`` enlarged by six times the larger of the member spread and
    ``sigma_ue``, so that clusters straddling its edge are kept."""
    return radius + 6.0 * max(law.spread, sigma_ue)


def sample_network(params: SystemParams,
                   rng: np.random.Generator) -> NetworkRealization:
    """Draw one full network realization.

    Hotspot centers are sampled on the ``center_disk``.  The typical
    cluster (index 0) has a fixed member count; the others are Poisson
    with the same mean.  LoS labels are i.i.d. thinning draws.
    """
    macro, cells = link_budgets(params)
    law = cells.cluster
    window = params.truncation_radius_m
    v0 = sample_typical_offset(params.sigma_ue_m, rng)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    c0 = v0 * np.array([math.cos(psi), math.sin(psi)])

    sub6 = sample_ppp(macro.density, window, rng)

    clusters = [sample_thomas_cluster(c0, law.spread, law.members, rng)]
    centers = sample_ppp(law.density,
                         center_disk(law, params.sigma_ue_m, window), rng)
    counts = rng.poisson(law.members, size=len(centers))
    for center, m in zip(centers, counts):
        clusters.append(sample_thomas_cluster(center, law.spread, int(m), rng))
    for cl in clusters:
        d = np.linalg.norm(cl.members, axis=1)
        cl.los_mask = ((rng.random(len(d)) < law.los_prob)
                       & (d < law.los_ball))

    return NetworkRealization(sub6_points=sub6, clusters=clusters,
                              typical_offset_v0=v0, window_radius=window)
