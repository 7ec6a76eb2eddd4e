"""Numerical evaluation of the model's closed-form expressions: serving
distance laws, association probabilities, interference Laplace transforms,
SINR coverage and average rate.

All deployments share one path.  What sets the integrated network (a)
apart from the two-tier Sub-6GHz baseline (d) is data: the per-tier
``LinkBudget`` records of ``association.link_budgets`` (weights, budgets,
exponents, Nakagami orders, noise, the candidate law, each tier's
interference kernel and the tiers it hears).  Each entry point on
``params`` resolves the records once and passes them to the kernels, the
transforms ``laplace_I*`` among them.  A model variant is a change of the
records: ``coverage_no_nlos`` is (a) without the NLoS kernel segments.

Conventions used throughout:

* The candidate member distance law collapses to a noncentral chi-square
  CDF.  In (a) only LoS members inside the ball may serve:
  F_SL(r) = p_los * RiceCDF(min(r, R_B)), because the LoS probability is
  constant inside the ball and zero outside.  In (d) every member may:
  the same law with p_los = 1 and an infinite ball, so F_SL = RiceCDF.
* The intra-cluster interference intensity is max(n - 1, 0) times the
  *radial* member density of each kernel segment (in (a) the LoS part is
  excluded below the serving distance, the NLoS part is unrestricted).
* The inter-cluster transform treats interfering clusters as carrying a
  Poisson member count with mean n_bs, which makes the per-cluster factor
  exp(-n_bs * ...).
* The UE-to-center offset v0 is Rayleigh with spread sigma_ue; every
  offset average integrates over its CDF, v0 = sigma_ue*sqrt(-2 ln(1-t))
  for t in [0, 1), where the Rayleigh weight is exactly 1.
* Semi-infinite integrals are mapped to [0, 1) by r -> a + c*u/(1-u) with
  a per-integrand scale c; nested tolerances are tightened one order per
  level of nesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import binom, chndtr, hyp2f1

from .association import (ClusterLaw, KernelSegment, LinkBudget, boundary_map,
                          link_budgets)
from .geometry import rice_pdf
from .params import ScenarioKind, SystemParams
from .quadrature import (QuadSpec, half_line, integrate_adaptive,
                         integrate_batch)

DEFAULT_SPEC = QuadSpec(rel_tol=1e-6, abs_tol=1e-14)
OUTER_SPEC = QuadSpec(rel_tol=1e-5, abs_tol=1e-9)
RATE_SPEC = QuadSpec(rel_tol=1e-3, abs_tol=1e-6)

# most nodes of a band rule, and most kernel values _cluster_exponent holds
# at once, so that the rate's 57-point tail needs no more memory than
# Alzer's: those of a 3-point tail over a 480-node integrand call
# (integrate_batch's largest) on the largest band rule
_MOST_NODES = 64
_KERNEL_VALUES = 3 * 480 * _MOST_NODES
# the rate's u = ln t rule: 56 nodes on [-10, 30], and one of weight 1 at
# -10 for the tail below, where R is flat and every W(e^u) falls as e^u
_RATE_U, _RATE_W = np.polynomial.legendre.leggauss(56)
_RATE_RULE = (np.append(10.0 + 20.0 * _RATE_U, -10.0),
              np.append(20.0 * _RATE_W, 1.0))

# (macro, small-cell) records of one deployment, as link_budgets returns them
_Records = tuple[LinkBudget, LinkBudget]


@dataclass
class AnalyticReport:
    """A value with its provenance: the outer integral's error estimate,
    the integrand evaluations of every integral behind the value (nested
    ones included), and how many of those integrals reported
    ``converged=False``.  An empty report tallies the integrals of a value
    still being computed."""
    value: float = 0.0
    est_error: float = 0.0
    evaluations: int = 0
    unconverged: int = 0

    def add(self, results) -> np.ndarray:
        """Counts the integration ``results`` in and returns their values."""
        for res in results:
            self.evaluations += res.evaluations
            self.unconverged += not res.converged
        return np.array([res.value for res in results])


# ---------------------------------------------------------------------------
# elementary pieces
# ---------------------------------------------------------------------------

def _rice_cdf(r, v0, sigma: float):
    """CDF of the member distance |c + g| with |c| = v0 and isotropic
    normal scatter of spread sigma (noncentral chi-square, 2 dof).
    Broadcasts over r and v0."""
    r, v0 = np.broadcast_arrays(np.asarray(r, dtype=float),
                                np.asarray(v0, dtype=float))
    # everything beyond v0 + 9*sigma carries < 1e-16 of the mass; capping
    # there keeps the chndtr argument in its stable range
    cap = v0 + 9.0 * sigma
    out = np.where(r >= cap, 1.0,
                   chndtr(np.square(np.minimum(r, cap) / sigma), 2.0,
                          np.square(v0 / sigma)))
    return out if out.ndim else float(out)


def _candidate_cdf(r, v0: float, law: ClusterLaw):
    """CDF of one member's distance, counting only members that may serve."""
    capped = np.minimum(r, law.los_ball)
    return law.los_prob * np.asarray(_rice_cdf(capped, v0, law.spread))


def _candidate_pdf(r, v0: float, law: ClusterLaw):
    dens = rice_pdf(r, v0, law.spread)
    return np.where(r < law.los_ball, law.los_prob * dens, 0.0)


def _nearest_macro_pdf(x, lam: float):
    """Density 2*pi*lam*x*exp(-pi*lam*x^2) of the nearest PPP point."""
    return 2.0 * math.pi * lam * x * np.exp(-math.pi * lam * np.square(x))


def _nearest_candidate_pdf(x, v0: float, law: ClusterLaw):
    """Density n*(1-F)^(n-1)*f of the nearest of the n candidate members."""
    n = law.members
    bar = 1.0 - _candidate_cdf(x, v0, law)
    return n * bar ** (n - 1) * _candidate_pdf(x, v0, law)


# ---------------------------------------------------------------------------
# association probabilities
# ---------------------------------------------------------------------------

def _serving_reach(k: int, v0, budgets: _Records) -> np.ndarray:
    """Distance beyond which tier k has no candidate (or its density mass
    is < 1e-15), for each offset of v0; 0 when the tier has no candidate
    at all."""
    v0 = np.asarray(v0, dtype=float)
    macro, cells = budgets
    law = cells.cluster
    if k == 1:
        reach = (math.sqrt(36.0 / (math.pi * macro.density))
                 if macro.density > 0 else 0.0)
    elif law.members == 0 or law.los_prob == 0:
        reach = 0.0
    else:
        reach = np.minimum(v0 + 9.0 * law.spread, law.los_ball)
    return np.broadcast_to(reach, v0.shape)


def _serving_density(k: int, budgets: _Records) -> Callable:
    """Density ``density(x, v0)`` that tier k's candidate sits at distance
    x and wins the association, given offset v0 (elementwise); it
    integrates over x to the conditional association probability."""
    if k not in (1, 2):
        raise ValueError("tier index must be 1 or 2")
    macro, cells = budgets
    law = cells.cluster
    lam = macro.density
    if k == 1:
        def density(x, v0):
            bar = 1.0 - _candidate_cdf(boundary_map(macro, cells, x), v0, law)
            return _nearest_macro_pdf(x, lam) * bar ** law.members
    else:
        def density(x, v0):
            d21 = boundary_map(cells, macro, x)
            return (_nearest_candidate_pdf(x, v0, law)
                    * np.exp(-math.pi * lam * np.square(d21)))
    return density


def _assoc_masses(k: int, v0, budgets: _Records, spec: QuadSpec,
                  tally: AnalyticReport) -> np.ndarray:
    """Conditional association probability of tier k at each offset of
    the 1-D array v0, every offset's integral in one batched pass."""
    density = _serving_density(k, budgets)
    res = integrate_batch(lambda x, j: density(x, v0[j]), np.zeros(v0.shape),
                          _serving_reach(k, v0, budgets), spec)
    return np.clip(tally.add(res), 0.0, 1.0)


def conditional_assoc_prob(k: int, v0: float, params: SystemParams, *,
                           scenario: ScenarioKind = ScenarioKind.INTEGRATED
                           ) -> float:
    """Probability of serving-tier k given the UE sits at distance v0 from
    its hotspot center."""
    if not 0 <= v0 < math.inf:
        raise ValueError("v0 must be nonnegative and finite")
    return float(_assoc_masses(k, np.array([v0], dtype=float),
                               link_budgets(params, scenario), DEFAULT_SPEC,
                               AnalyticReport())[0])


def _offset_average(g: Callable, sigma_ue: float,
                    spec: QuadSpec) -> AnalyticReport:
    """Mean of g(v0) over the UE-to-center distance v0, Rayleigh with
    spread sigma_ue: the adaptive integral of g over the Rayleigh CDF
    t = 1 - exp(-v0^2 / (2 sigma_ue^2)) on [0, 1), where the weight is 1.

    ``g(v0, tally)`` maps a 1-D array of offsets to the array of inner
    values and counts its integrals into the report ``tally``, which then
    counts the outer integral too.  Its value is not clipped."""
    tally = AnalyticReport()

    def f(t):
        return g(sigma_ue * np.sqrt(-2.0 * np.log1p(-t)), tally)

    res = integrate_adaptive(f, 0.0, 1.0, spec)
    tally.add([res])
    tally.value, tally.est_error = res.value, res.est_error
    return tally


def _probability(report: AnalyticReport, with_report: bool):
    """The report's value clipped to [0, 1], or the clipped report."""
    value = min(max(report.value, 0.0), 1.0)
    return replace(report, value=value) if with_report else value


def assoc_prob(k: int, params: SystemParams, *, with_report: bool = False,
               scenario: ScenarioKind = ScenarioKind.INTEGRATED):
    """Tier association probability, averaged over the Rayleigh-distributed
    UE-to-center distance."""
    inner = DEFAULT_SPEC.tighter()
    budgets = link_budgets(params, scenario)
    report = _offset_average(
        lambda v, tally: _assoc_masses(k, v, budgets, inner, tally),
        params.sigma_ue_m, DEFAULT_SPEC)
    return _probability(report, with_report)


def conditional_distance_pdf(k: int, x, v0: float, params: SystemParams):
    """Density of the serving distance given tier k and offset v0."""
    a = conditional_assoc_prob(k, v0, params)
    if a <= 0.0:
        raise ValueError(f"conditional distance density undefined: "
                         f"tier {k} has zero association probability")
    x = np.asarray(x, dtype=float)
    out = _serving_density(k, link_budgets(params))(x, v0) / a
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def _ppp_tail_integral(s, b: float, alpha: float, x):
    """integral_x^inf [1 - 1/(1 + s*b*r^-alpha)] r dr  (vectorized).

    Scaled form: (s*b)^(2/alpha) * Q(x / (s*b)^(1/alpha)) with
    Q(z) = int_z^inf t/(1+t^alpha) dt, expressed through 2F1.
    """
    if alpha <= 2.0:
        raise ValueError("tail integral diverges for alpha <= 2")
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    s, x = np.broadcast_arrays(s, x)
    out = np.zeros(s.shape)
    pos = s > 0
    if np.any(pos):
        d = (s[pos] * b) ** (1.0 / alpha)
        z = x[pos] / d
        q0 = (math.pi / alpha) / math.sin(2.0 * math.pi / alpha)
        small = z < 1.0
        q = np.empty_like(z)
        # z < 1: Q(z) = Q(0) - z^2/2 * 2F1(1, 2/a; 1+2/a; -z^a)
        zs = z[small]
        q[small] = q0 - 0.5 * zs ** 2 * hyp2f1(1.0, 2.0 / alpha,
                                               1.0 + 2.0 / alpha,
                                               -zs ** alpha)
        # z >= 1: Q(z) = (1/a) * y^c / c * 2F1(1, c; 1+c; -y), y = z^-a
        zl = z[~small]
        c = 1.0 - 2.0 / alpha
        y = zl ** (-alpha)
        q[~small] = (1.0 / alpha) * (y ** c / c) * hyp2f1(1.0, c, 1.0 + c, -y)
        out[pos] = d ** 2 * q
    return out


def laplace_I1(s, x, tier: LinkBudget):
    """Laplace transform of the interference of the PPP tier ``tier`` past
    the exclusion radius x, for order-1 (Rayleigh) segments only:
    exp(-2 pi lambda sum_seg share sum_G p_G tail(s, P C G, alpha, x)),
    at each s >= 0 and x of the broadcast arrays."""
    total = sum(seg.share * sum(
        prob * _ppp_tail_integral(s, seg.intercept * gain, seg.alpha, x)
        for gain, prob in zip(seg.gains, seg.gain_probs))
        for seg in tier.segments)
    return np.exp(-(2.0 * math.pi * tier.density * total))


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1]
    (``_band_rule`` asks for at most 7 counts, 16 to 64)."""
    return np.polynomial.legendre.leggauss(n)


def _band_rule(seg: KernelSegment, lo, v0: np.ndarray, sigma: float):
    """Width, nodes and weighted member density of a rule on the band
    ``[lo, seg.r_max)`` for each offset of v0: ``lo`` is the segment's
    ``r_min``, or exclusion radii past it that broadcast against
    ``v0[..., None]``.  An unbounded band is cut to ``v0 +- 6 sigma``,
    where all but e^-18 of the density lives.  The rule is sized by what
    the band must resolve:

    * a band that starts at 0 takes 48 Gauss-Legendre nodes in u, with
      r = lo + (hi - lo) u^2, so that they crowd r = 0, where a near
      interferer's kernel turns over;
    * any other takes a linear Gauss-Legendre rule of 8 nodes per
      2 sigma of the segment's width (12 sigma if unbounded), 16 to
      ``_MOST_NODES``."""
    v0 = v0[..., None]
    if np.all(lo == 0.0):
        u, w = _gl_rule(48)
        u = 0.5 * (u + 1.0)
        # r - lo = (hi - lo) u^2 with u on [0, 1]: dr = 2 (hi - lo) u du
        t, w = u * u, u * w
    else:
        span = (12.0 * sigma if seg.r_max == math.inf
                else seg.r_max - seg.r_min)
        t, w = _gl_rule(min(_MOST_NODES,
                            max(16, 8 * math.ceil(span / (2.0 * sigma)))))
        t, w = 0.5 * (t + 1.0), 0.5 * w
    hi = seg.r_max
    if hi == math.inf:
        lo = np.maximum(lo, v0 - 6.0 * sigma)
        hi = v0 + 6.0 * sigma
    width = np.maximum(hi, lo) - lo
    r = lo + width * t
    dens = w * rice_pdf(r, v0, sigma)
    return np.broadcast_to(width, v0.shape), r, dens


def _cluster_exponent(s, v0, x, law: ClusterLaw):
    """Per-member interference exponent of one cluster whose center sits
    at distance v0, seen past the exclusion radius x: the sum over the
    law's kernel segments of the segment's radial density times its
    kernel, each on the rule ``_band_rule`` sizes for its band.

    v0 and x broadcast to the places; s broadcasts against them and may
    carry leading axes of its own (e.g. one per point of a serving tail),
    which the result keeps.  Each band's nodes and member density, and
    each segment's path loss, are evaluated once per place and shared by
    every s: once per (v0, x) for a band that starts at the exclusion
    radius, once per distinct v0 for a band that does not depend on x.  A
    band that would start at x is one of these where no x passes its
    start, as at x = 0 in the PGFL integrand; every segment on such a band
    shares its nodes and density.  Only the kernel is evaluated per s, over
    the leading rows of s in slices of at most ``_KERNEL_VALUES`` values,
    so a tail of many points holds no more of it at once than a 3-point
    one; each value and its sum over the band nodes are the same either
    way.  ``laplace_I2_intra`` and ``_InterLaplace`` turn it into the
    own-cluster and the inter-cluster transform.
    """
    v0, x = np.broadcast_arrays(np.asarray(v0, dtype=float),
                                np.asarray(x, dtype=float))
    s = np.asarray(s, dtype=float)[..., None]
    sig = law.spread
    total = np.zeros(np.broadcast_shapes(s.shape, v0.shape + (1,)))
    if s.ndim > v0.ndim + 1:
        # s's leading axis is the result's: take its rows in slices
        step = max(_KERNEL_VALUES // (total[0].size * _MOST_NODES), 1)
        rows = [slice(i, i + step) for i in range(0, len(total), step)]
    else:
        rows = [...]
    offsets, at = np.unique(v0, return_inverse=True)
    at = at.reshape(v0.shape)
    fixed = {}      # band -> width, nodes (per offset), density
    for seg in law.segments:
        # only members that may serve (not NLoS) lie past the serving one
        if not seg.nlos and np.any(x > seg.r_min):
            width, r, dens = _band_rule(
                seg, np.maximum(x[..., None], seg.r_min), v0, sig)
            path = np.maximum(r, 1e-9) ** (-seg.alpha)
        else:
            band = (seg.r_min, seg.r_max)
            if band not in fixed:
                width, r, dens = _band_rule(seg, seg.r_min, offsets, sig)
                fixed[band] = width[at], r, dens[at]
            width, r, dens = fixed[band]
            # path loss per distinct offset, then gathered to the places
            path = np.broadcast_to(np.maximum(r, 1e-9) ** (-seg.alpha),
                                   (len(offsets), r.shape[-1]))[at]
        # unit-mean Nakagami power is Gamma(N, 1/N): E[e^{-zh}] = (1+z/N)^-N
        s_n = s * (seg.intercept / seg.order)
        for i in rows:
            ker = 1.0
            for gain, prob in zip(seg.gains, seg.gain_probs):
                ker = ker - prob * (1.0 + s_n[i] * gain * path) \
                    ** (-seg.order)
            total[i] += seg.share * width * np.sum(dens * ker, axis=-1,
                                                   keepdims=True)
    return total[..., 0]


def laplace_I2_intra(s, v0, x, law: ClusterLaw):
    """Laplace transform of the interference of the typical cluster's
    other members, given a serving distance x and the cluster center at
    distance v0: exp(-(n - 1) E) at s >= 0, with E the per-member exponent
    of ``_cluster_exponent`` (broadcasting as it does).  An empty cluster
    (n = 0) interferes with nothing."""
    expo = _cluster_exponent(s, v0, x, law)
    return np.exp(-max(law.members - 1, 0) * expo)


# derivative at node p (row p) of the quartic through five equally spaced
# knots, per knot spacing: row 2 is the 4th-order central difference, the
# others the one-sided forms used next to a clamp
_FD5 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                 [-3.0, -10.0, 18.0, -6.0, 1.0],
                 [1.0, -8.0, 0.0, 8.0, -1.0],
                 [-1.0, 6.0, -18.0, 10.0, 3.0],
                 [3.0, -16.0, 36.0, -48.0, 25.0]]) / 12.0


class _InterLaplace:
    """Inter-cluster Laplace transform exp(-A(s)) of one cluster law; the
    exact exponent A(s) = 2*pi*lambda_p * int [1 - exp(-n*E(s,v))] v dv is
    interpolated, so that a value is a pure function of s.

    * Lattice: knot k holds ln A at ln s = k/2.  Knots are computed once,
      on first need, as one contiguous run grown by walking outward.
    * Stencil: between knots k and k+1, ln A is the cubic Hermite
      interpolant in ln s with 4th-order central-difference slopes, so a
      value depends only on knots k-2..k+3.
    * Clamps (A increases with s): the transform is 0 from the first knot
      with A >= 46 and 1 below the last knot with A <= 1e-9.  Next to a
      clamp the slopes take one-sided 5-knot differences.
    """

    _LN_STEP = 0.5
    _LN_A_MIN = math.log(1e-9)
    _LN_A_MAX = math.log(46.0)
    _PASS = 8

    def __init__(self, law: ClusterLaw):
        self._law = law
        self._empty = law.density == 0 or law.members <= 0
        self._k0 = 0                    # lattice index of the run's first knot
        self._la: list[float] = []      # ln A on the run
        self._coef = np.zeros((1, 4))   # see _fit
        self.knots = 0                  # knots computed, kept or not
        self.tally = AnalyticReport()   # their integrals' work and failures

    def _integrals(self, s) -> list:
        """The PGFL integral behind A at each s, all in one batch: each is
        refined and stopped on its own, so it equals a lone integral."""
        law = self._law
        s = np.asarray(s, dtype=float)

        def f(v, j):
            e = _cluster_exponent(s[j], v, 0.0, law)
            return -np.expm1(-law.members * e) * v

        return integrate_batch(half_line(f, 0.0, law.pgfl_scale),
                               np.zeros(s.size), np.ones(s.size),
                               DEFAULT_SPEC)

    def _exponent(self, res) -> float:
        return 2.0 * math.pi * self._law.density * max(res.value, 0.0)

    def _side(self, gap: float, room: int) -> int:
        """Knots a pass computes on one side of the run: none once the
        side is clamped (``gap``, the distance in ln A to its clamp, is
        <= 0), else at least ``_PASS`` and at least as many as the clamp
        is away, within the ``room`` left to the side's end.  ln A moves
        by at most ``_LN_STEP`` a knot (A is concave with A(0) = 0), so
        only a pass of ``_PASS`` knots can run past the clamp."""
        if gap <= 0.0:
            return 0
        least = math.ceil(gap / self._LN_STEP) if gap < math.inf else 0
        return max(min(room, max(least, self._PASS)), 0)

    def _walk(self, k_lo: int, k_hi: int) -> bool:
        """Extends the run over knots k_lo..k_hi, stopping at a clamp;
        returns whether it grew.  An empty run starts at
        (k_lo + k_hi) // 2.  Each pass computes the next knots of both
        sides in one batch and keeps them up to each side's first clamp
        knot."""
        la = self._la
        n = len(la)
        if not la:
            self._k0 = (k_lo + k_hi) // 2
        while True:
            k0, k1 = self._k0, self._k0 + len(la)
            up = self._side(self._LN_A_MAX - la[-1] if la else math.inf,
                            k_hi + 1 - k1)
            down = self._side(la[0] - self._LN_A_MIN if la else math.inf,
                              k0 - k_lo)
            if not up and not down:
                return len(la) > n
            ks = [*range(k1, k1 + up), *range(k0 - 1, k0 - 1 - down, -1)]
            # math.exp, as a lone knot takes it: np.exp differs from it in
            # the last bit at some knots
            res = self._integrals([math.exp(k * self._LN_STEP) for k in ks])
            self.knots += len(ks)
            self.tally.add(res)
            knots = [math.log(max(self._exponent(r), 1e-300)) for r in res]
            for y in knots[:up]:
                if la and la[-1] >= self._LN_A_MAX:
                    break
                la.append(y)
            for y in knots[up:]:
                if la[0] <= self._LN_A_MIN:
                    break
                la.insert(0, y)
                self._k0 -= 1

    def _fit(self) -> tuple[int, int]:
        """Fits the cubic of every cell between the stencil edges, the
        clamp knots or else the ends of the run, and returns the edges'
        lattice indices.  Row i holds the cell of knot k0 - 1 + i; a row
        outside the edges holds the clamp, ln A = -inf below and +inf
        above."""
        la = np.array(self._la)
        lo = max(int(np.searchsorted(la, self._LN_A_MIN, "right")) - 1, 0)
        hi = min(int(np.searchsorted(la, self._LN_A_MAX)), la.size - 1)
        coef = np.zeros((la.size + 1, 4))
        coef[:lo + 1, 0], coef[hi + 1:, 0] = -np.inf, np.inf
        y = la[lo:hi + 1]
        # fewer knots lie between the edges only while no queried cell does
        if y.size >= 5:
            j = np.arange(y.size)
            first = np.clip(j - 2, 0, y.size - 5)
            d = np.sum(_FD5[j - first] * y[first[:, None] + np.arange(5)],
                       axis=1)
            dy, d0, d1 = np.diff(y), d[:-1], d[1:]
            coef[lo + 1:hi + 1] = np.stack(
                [y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy],
                axis=1)
        self._coef = coef
        return self._k0 + lo, self._k0 + hi

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.ones(s.shape)
        pos = s > 0
        if not self._empty and np.any(pos):
            u = np.log(s[pos]) / self._LN_STEP
            k = np.floor(u)
            k_min, k_max = int(k.min()), int(k.max())
            need = (k_min - 2, k_max + 3)
            while self._walk(*need):
                lo, hi = self._fit()
                if k_min < hi and k_max >= lo:
                    # next to a clamp the stencils reach 4 knots inward
                    need = (min(need[0], hi - 4), max(need[1], lo + 4))
            c = self._coef[np.clip(k - (self._k0 - 1), 0,
                                   len(self._la)).astype(np.intp)]
            t = u - k
            out[pos] = np.exp(-np.exp(
                ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]))
        return out if out.ndim else float(out)


@lru_cache(maxsize=8)
def _inter_cache(law: ClusterLaw) -> _InterLaplace:
    return _InterLaplace(law)


def laplace_I2_inter(s, law: ClusterLaw):
    """Laplace transform at s >= 0 of the interference of the clusters
    other than the typical one (PGFL over hotspot centers of the
    per-cluster transform), interpolated by the cached ``_InterLaplace``."""
    return _inter_cache(law)(s)


# ---------------------------------------------------------------------------
# conditional coverage
# ---------------------------------------------------------------------------

class _Tail(NamedTuple):
    """A serving fading tail as data: its coverage is the combination
    C(tau) = sum_n weights[n] R(points[n] tau) of the order-1 mass curve R.
    The default is R itself (Rayleigh)."""
    points: np.ndarray = np.ones(1)
    weights: np.ndarray = np.ones(1)

    def rate_weight(self, t):
        """W(t) = sum_n weights[n] t / (points[n] + t), so that the rate
        integral int C(tau) / (1 + tau) dtau is int R(e^u) W(e^u) du."""
        return np.sum(self.weights[:, None] * t
                      / (self.points[:, None] + t), axis=0)


def _alzer_tail(link: LinkBudget) -> _Tail:
    """Alzer's bound 1 - (1 - e^{-chi y})^N of the serving tail of ``link``
    (N its Nakagami order) over the points n chi; exact for N = 1."""
    n_l = link.order
    n = np.arange(1, n_l + 1, dtype=float)
    chi = n_l * math.gamma(n_l + 1.0) ** (-1.0 / n_l)
    return _Tail(chi * n, (-1.0) ** (n + 1.0) * binom(n_l, n))


def _coverage_integrand(k: int, budgets: _Records, tail: _Tail):
    """Integrand ``f(x, tau, v0)`` over the serving distance x of
    A_k(v0) * C_k(tau; v0) (elementwise in x, tau and v0): the serving
    density times the fading tail ``tail`` averaged over the interference
    fields tier k hears."""
    serving = budgets[k - 1]
    density = _serving_density(k, budgets)

    def f(x, tau, v0):
        # the tail's points along a leading axis: s is (N, nx), and every
        # point shares the nodes x and offsets v0
        s = x ** serving.alpha * tau * tail.points[:, None] / serving.budget
        lap = np.exp(-s * serving.noise_w)
        for j in serving.hears:
            heard = budgets[j - 1]
            # the other tier's BSs lie past the boundary-mapped distance
            xj = x if j == k else boundary_map(serving, heard, x)
            if heard.cluster is None:
                lap = lap * laplace_I1(s, xj, heard)
            else:
                lap = lap * (laplace_I2_intra(s, v0, xj, heard.cluster)
                             * laplace_I2_inter(s, heard.cluster))
        return density(x, v0) * np.sum(tail.weights[:, None] * lap, axis=0)

    return f


def _coverage_masses(k: int, tau, v0, budgets: _Records, tail: _Tail,
                     spec: QuadSpec, tally: AnalyticReport):
    """A_k(v0) * C_k(tau; v0), tier k's coverage mass with serving tail
    ``tail``, for each pair of the broadcast 1-D arrays tau and v0: segment
    integrals over the serving distance summed in order, all in one batch.
    Segments start at the noise scale, so that at high tau no tier misses
    its mass near 0."""
    tau, v0 = np.broadcast_arrays(np.asarray(tau, dtype=float),
                                  np.asarray(v0, dtype=float))
    serving = budgets[k - 1]
    reach = _serving_reach(k, v0, budgets)
    # breakpoints at the noise-decay scale of the tail's smallest point
    # (empty segments integrate to an exact 0)
    x_noise = (serving.budget / (tau * tail.points.min() * serving.noise_w)) \
        ** (1.0 / serving.alpha)
    near = np.minimum(4.0 * x_noise, reach)
    far = np.minimum(32.0 * x_noise, reach)
    cuts = np.stack([np.zeros(tau.shape), near, far, reach], axis=-1)
    pair = np.repeat(np.arange(tau.size), cuts.shape[1] - 1)
    seg_tau, seg_v0 = tau[pair], v0[pair]
    f = _coverage_integrand(k, budgets, tail)
    res = integrate_batch(lambda x, j: f(x, seg_tau[j], seg_v0[j]),
                          cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), spec)
    mass = np.zeros(tau.size)
    np.add.at(mass, pair, tally.add(res))
    return np.maximum(mass, 0.0)


def _mass_average(tau, budgets: _Records, tails, scales, sigma_ue: float,
                  spec: QuadSpec) -> AnalyticReport:
    """sum_k scales[k] * M_k(tau; v0) averaged over the UE-to-center
    distance v0, Rayleigh with spread sigma_ue: M_k tier k's coverage mass
    with serving tail tails[k], one order tighter than ``spec``."""
    inner = spec.tighter()

    def masses(v0, tally):
        return sum(scale * _coverage_masses(k, tau, v0, budgets, tail, inner,
                                            tally)
                   for k, (tail, scale) in enumerate(zip(tails, scales),
                                                     start=1))

    return _offset_average(masses, sigma_ue, spec)


def _coverage(tau: float, budgets: _Records, sigma_ue: float,
              spec: QuadSpec) -> AnalyticReport:
    """Coverage of a deployment: the mass average of both tiers' Alzer
    tails."""
    if not tau > 0:
        raise ValueError("tau must be positive (linear)")
    return _mass_average(tau, budgets, [_alzer_tail(link) for link in budgets],
                         (1.0, 1.0), sigma_ue, spec)


def coverage(tau: float, params: SystemParams, *,
             spec: QuadSpec = OUTER_SPEC,
             with_report: bool = False,
             scenario: ScenarioKind = ScenarioKind.INTEGRATED):
    """Overall SINR coverage probability at linear threshold tau.

    Without macro BSs (deployment (c), or ``lambda1 == 0``) the UE is
    uncovered whenever its cluster has no LoS member, so the result
    saturates below one even for tau -> 0.

    The report counts the inter-cluster knots that the call built (none
    on a warm ``_inter_cache``) with the integrals of the value itself.
    """
    budgets = link_budgets(params, scenario)
    knots = [_inter_cache(b.cluster).tally for b in budgets
             if b.cluster is not None]
    start = [(t.evaluations, t.unconverged) for t in knots]
    report = _coverage(tau, budgets, params.sigma_ue_m, spec)
    for t, (evaluations, unconverged) in zip(knots, start):
        report.evaluations += t.evaluations - evaluations
        report.unconverged += t.unconverged - unconverged
    return _probability(report, with_report)


def coverage_no_nlos(tau: float, params: SystemParams) -> float:
    """Coverage with mmWave NLoS interference neglected (upper bound):
    the coverage of (a) with the small-cell law stripped of its NLoS
    kernel segments."""
    macro, cells = link_budgets(params)
    law = cells.cluster
    law = replace(law, segments=tuple(s for s in law.segments if not s.nlos))
    return _probability(_coverage(tau, (macro, replace(cells, cluster=law)),
                                  params.sigma_ue_m, OUTER_SPEC), False)


def coverage_two_tier_sub6(tau: float, params: SystemParams) -> float:
    """Coverage of the baseline two-tier network with both tiers on the
    Sub-6GHz band (cross-tier interference, Rayleigh fading)."""
    budgets = link_budgets(params, ScenarioKind.TWO_TIER_SUB6)
    return _probability(_coverage(tau, budgets, params.sigma_ue_m,
                                  OUTER_SPEC), False)


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def avg_rate(params: SystemParams, *,
             scenario: ScenarioKind = ScenarioKind.INTEGRATED) -> float:
    """Average achievable rate in bits/s, by Hamdi's lemma one weighted
    integral in u = ln t of each tier's order-1 mass curve R_k:
    sum_k B_k / ln 2 * E_v0[int R_k(e^u; v0) W_k(e^u) du], W_k the rate
    weight of tier k's Alzer tail.

    The sum of ``_RATE_RULE`` (nodes u_i, weights w_i) is taken inside the
    integral over the serving distance: sum_i w_i W_k(t_i) R_k(t_i; v0) at
    t_i = e^{u_i} is the coverage mass at tau = 1 of the tail with points
    t_i and weights w_i W_k(t_i).  So an offset pass is one mass per tier
    and offset, whose kernel shares each band density among the rule's
    points and holds them in row slices (``_cluster_exponent``); the
    masses take one order tighter than ``RATE_SPEC``, on which the
    offsets' average runs."""
    budgets = link_budgets(params, scenario)
    u, w = _RATE_RULE
    t = np.exp(u)
    tails = [_Tail(t, w * _alzer_tail(link).rate_weight(t))
             for link in budgets]
    scales = [link.bandwidth_hz / math.log(2.0) for link in budgets]
    return float(_mass_average(1.0, budgets, tails, scales, params.sigma_ue_m,
                               RATE_SPEC).value)
