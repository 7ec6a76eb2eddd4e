"""Adaptive Gauss-Kronrod integration."""

import heapq
import math

import numpy as np
import pytest

from hotnet import quadrature
from hotnet.quadrature import (IntegrationResult, QuadSpec,
                               integrate_adaptive, integrate_batch,
                               integrate_semi_infinite)

TIGHT = QuadSpec(rel_tol=1e-10, abs_tol=1e-14)


def test_polynomial_is_exact():
    res = integrate_adaptive(lambda x: 3.0 * x ** 2, 0.0, 2.0, TIGHT)
    assert res.converged
    assert res.value == pytest.approx(8.0, rel=1e-12)


def test_vectorized_integrand_contract():
    # the integrator hands panels to the integrand as arrays
    seen = []

    def f(x):
        seen.append(np.ndim(x))
        return np.sin(x)

    res = integrate_adaptive(f, 0.0, math.pi, TIGHT)
    assert res.value == pytest.approx(2.0, rel=1e-10)
    assert all(nd == 1 for nd in seen)


def test_narrow_spike_needs_subdivision():
    # Gaussian of width 1e-3 inside [0, 1]; total mass ~ sqrt(2 pi) sigma
    s = 1e-3
    res = integrate_adaptive(
        lambda x: np.exp(-0.5 * ((x - 0.3) / s) ** 2), 0.0, 1.0, TIGHT)
    assert res.value == pytest.approx(math.sqrt(2.0 * math.pi) * s, rel=1e-8)


def test_final_sweep_splits_only_the_panels_in_error():
    # a narrow bump on a smooth integrand: once the panels away from the
    # bump are settled, a sweep splits the few panels around it, not 16
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.cos(x) + np.exp(-0.5 * ((x - 1.1) / 0.02) ** 2)

    res = integrate_adaptive(f, 0.0, 5.0, TIGHT)
    assert res.converged
    assert res.value == pytest.approx(
        math.sin(5.0) + math.sqrt(2.0 * math.pi) * 0.02, rel=1e-12)
    assert sizes[-1] < 15 * 2 * 16


def test_error_estimate_brackets_truth():
    res = integrate_adaptive(lambda x: np.exp(-x) * np.cos(5 * x), 0.0, 10.0,
                             QuadSpec(rel_tol=1e-6, abs_tol=1e-12))
    truth = (1.0 - math.exp(-10.0) * (math.cos(50.0) - 5 * math.sin(50.0))) / 26.0
    assert abs(res.value - truth) <= max(10.0 * res.est_error, 1e-12)


def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, 1.0, TIGHT)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_semi_infinite_shifted_and_scaled():
    # integral of exp(-(x-3)/7) over [3, inf) = 7
    res = integrate_semi_infinite(lambda x: np.exp(-(x - 3.0) / 7.0), 3.0,
                                  7.0, TIGHT)
    assert res.value == pytest.approx(7.0, rel=1e-9)


def test_half_line_batch_is_the_lone_semi_infinite_integrals():
    # one batch over the half-line map gives each integrand exactly what
    # integrate_semi_infinite gives it alone
    rates = np.array([0.5, 1.0, 30.0])

    def f(r, j):
        return np.exp(-rates[j] * (r - 3.0)) * np.cos(r)

    got = integrate_batch(quadrature.half_line(f, 3.0, 2.0), np.zeros(3),
                          np.ones(3), TIGHT)
    for j, res in enumerate(got):
        want = integrate_semi_infinite(
            lambda r: np.exp(-rates[j] * (r - 3.0)) * np.cos(r), 3.0, 2.0,
            TIGHT)
        assert res == want
    with pytest.raises(ValueError, match="scale"):
        quadrature.half_line(f, 0.0, 0.0)


def test_rayleigh_density_normalizes_on_half_line():
    sigma = 150.0
    res = integrate_semi_infinite(
        lambda v: (v / sigma ** 2) * np.exp(-0.5 * (v / sigma) ** 2),
        0.0, sigma, TIGHT)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_zero_width_interval():
    res = integrate_adaptive(lambda x: np.exp(x), 2.0, 2.0, TIGHT)
    assert res.value == 0.0


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    # integrable singularity x**-0.99 at 0 defeats a tiny panel budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    spec = QuadSpec(rel_tol=1e-14, abs_tol=1e-300)
    res = integrate_adaptive(lambda x: np.abs(x) ** -0.99, 1e-12, 1.0, spec)
    assert not res.converged
    assert np.isfinite(res.value)


@pytest.mark.parametrize("f, a, b", [
    # a unit step keeps its panel in error however often it is split;
    # the sweeps split 16 panels each, so the last one overruns the budget
    (lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0),
    # the two rules' weights sum to 2 only to about 1e-14, so even a
    # constant is in error; on a one-ulp interval every midpoint rounds
    # onto an end, and each split leaves a zero-width half and the panel
    (np.ones_like, 1.0, math.nextafter(1.0, 2.0)),
])
def test_budget_stops_an_integrand_that_never_converges(f, a, b):
    res = integrate_adaptive(f, a, b, QuadSpec(rel_tol=1e-300,
                                               abs_tol=1e-300))
    assert not res.converged
    assert np.isfinite(res.value) and res.est_error > 0
    # 15 evaluations for the first panel, 30 for each panel a split adds
    panels = 1 + (res.evaluations - 15) // 30
    assert quadrature._MAX_PANELS <= panels <= quadrature._MAX_PANELS + 16


def test_tighter_spec_scales_tolerances():
    spec = QuadSpec(rel_tol=1e-4, abs_tol=1e-8)
    t = spec.tighter()
    assert t.rel_tol == pytest.approx(1e-5)
    assert t.abs_tol == pytest.approx(1e-9)


# ---------------------------------------------------------------------------
# integrate_batch against the one-integrand refinement loop
# ---------------------------------------------------------------------------

def loop_reference(f, a, b, spec, calls):
    """One integrand refined on its own: the heap loop integrate_batch
    runs per integrand, kept here as the reference.  Appends the number
    of integrand calls it made to ``calls``."""
    def _panel_batch(f, lo, hi):
        calls[-1] += 1
        return quadrature._panel_batch(lambda x, j: f(x), lo, hi,
                                       np.zeros(len(lo), dtype=int))

    calls.append(0)
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, True)

    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    vals, errs = _panel_batch(f, lo, hi)
    evaluations = 15
    # heap of (-err, lo, hi, val, err)
    heap = [(-errs[0], a, b, vals[0], errs[0])]
    total = vals[0]
    total_err = errs[0]

    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol or len(heap) >= quadrature._MAX_PANELS:
            return IntegrationResult(float(total), float(total_err),
                                     evaluations, bool(total_err <= tol))
        # split the worst panels: at least one, at most 16, and no more
        # once the panels left hold at most an eighth of tol
        batch = [heapq.heappop(heap)]
        left = total_err - batch[0][4]
        while heap and len(batch) < 16 and left > tol / 8:
            batch.append(heapq.heappop(heap))
            left -= batch[-1][4]
        mids = [0.5 * (p[1] + p[2]) for p in batch]
        lo = np.array([p[1] for p in batch] + mids)
        hi = np.array(mids + [p[2] for p in batch])
        vals, errs = _panel_batch(f, lo, hi)
        evaluations += 15 * len(lo)
        n = len(batch)
        for i, p in enumerate(batch):
            total += vals[i] + vals[n + i] - p[3]
            total_err += errs[i] + errs[n + i] - p[4]
            heapq.heappush(heap, (-errs[i], lo[i], hi[i], vals[i], errs[i]))
            heapq.heappush(heap, (-errs[n + i], lo[n + i], hi[n + i],
                                  vals[n + i], errs[n + i]))


# (integrand, a, b): a zero-width interval, two oscillations that run out
# of panels (together more than one 32-panel chunk pending per sweep), a
# singularity that converges well inside the budget by refining toward
# its end, and smooth integrands on unequal bounds
BATCH_CASES = [
    (np.exp, 2.0, 2.0),
    (lambda x: np.sin(40.0 * x) * np.exp(-0.1 * x), 0.0, 30.0),
    (lambda x: np.cos(25.0 * x ** 2), -20.0, 20.0),
    (lambda x: np.abs(x) ** -0.99, 1e-12, 1.0),
    (lambda x: 3.0 * x ** 2, 0.0, 2.0),
    (lambda x: np.exp(-0.5 * ((x - 0.3) / 1e-3) ** 2), 0.0, 1.0),
    (lambda x: np.exp(-x) * np.cos(5 * x), -3.0, 10.0),
]
BATCH_SPEC = QuadSpec(rel_tol=1e-12, abs_tol=1e-14)
BATCH_PANELS = 300


@pytest.fixture
def batch_budget(monkeypatch):
    """A budget of 300 panels, which two of BATCH_CASES run out of."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", BATCH_PANELS)


def test_batch_matches_the_one_integrand_loop(batch_budget):
    calls: list = []
    want = [loop_reference(g, a, b, BATCH_SPEC, calls)
            for g, a, b in BATCH_CASES]
    sizes = []

    def f(x, j):
        sizes.append(len(x))
        out = np.empty(len(x))
        for k, (g, _, _) in enumerate(BATCH_CASES):
            out[j == k] = g(x[j == k])
        return out

    got = integrate_batch(f, [a for _, a, _ in BATCH_CASES],
                          [b for _, _, b in BATCH_CASES], BATCH_SPEC)
    assert got == want
    # the cases cover every way out of the refinement loop
    assert want[0] == IntegrationResult(0.0, 0.0, 0, True)
    assert want[1].evaluations >= 15 * BATCH_PANELS
    assert not want[1].converged and not want[2].converged
    assert all(r.converged for r in want[3:])
    assert want[3].evaluations < 15 * BATCH_PANELS
    # one call per sweep would be at most max(calls) calls: more means some
    # sweep was split into chunks, none larger than 32 panels
    assert len(sizes) > max(calls)
    assert max(sizes) == 15 * 32


def test_adaptive_is_the_one_integrand_batch(batch_budget):
    for g, a, b in BATCH_CASES:
        assert integrate_adaptive(g, a, b, BATCH_SPEC) == loop_reference(
            g, a, b, BATCH_SPEC, [])


def test_batch_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate_batch(lambda x, j: x, [0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        integrate_batch(lambda x, j: x, [0.0], [math.inf])
    with pytest.raises(ValueError):
        integrate_batch(lambda x, j: x, [0.0, 0.0], [1.0])
