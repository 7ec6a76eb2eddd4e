"""Adaptive 1-D integration (Gauss-Kronrod 7/15).

One refinement loop, ``integrate_batch``, integrates many integrands at
once, each over its own interval and each refined and stopped on its own,
so an elementwise integrand gets exactly the result a lone integration
would give.  Integrands must accept numpy arrays: the panels of all
unfinished integrands go through the integrand in shared calls of at
most ``_CHUNK`` panels, so a vectorized integrand pays the numpy call
overhead once per chunk of a refinement sweep, not once per node or per
integrand.
``integrate_adaptive`` is the one-integrand case, and ``half_line`` maps
integrands over [a, inf) onto [0, 1) for it.

A sweep splits only the panels an integrand's error needs: its worst
panels, in order, until the panels left hold at most ``_LEFT_SHARE`` of
its tolerance, so the split ones have the rest to shrink into (the rule
of SciPy's ``quad_vec``).  That is one panel when one holds the excess,
as in QUADPACK's QAG, and at most 16, so one integrand's new panels fill
at most one ``_CHUNK`` call.  An integrand stops when it converges or
holds ``_MAX_PANELS`` panels, its one budget, which its last sweep
overruns by at most 16.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

# 15-point Kronrod nodes on [-1, 1] with embedded 7-point Gauss weights.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
# Panels per integrand call: bounds the size of the integrand's
# temporaries (480 nodes) whatever the number of integrands.
_CHUNK = 32
# A sweep stops taking panels to split once the panels it leaves hold at
# most this share of the tolerance.
_LEFT_SHARE = 1.0 / 8.0
# An integrand stops refining, converged or not, once it holds this many
# panels.
_MAX_PANELS = 4000


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances of an integration; every integration has the same
    panel budget, ``_MAX_PANELS``."""
    rel_tol: float = 1e-6
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")

    def tighter(self) -> "QuadSpec":
        """Spec with a tenth of these tolerances, for inner nested
        integrals."""
        return QuadSpec(self.rel_tol * 0.1, self.abs_tol * 0.1)


@dataclass
class IntegrationResult:
    value: float
    est_error: float
    evaluations: int
    converged: bool


def _panel_batch(f: Callable, lo: np.ndarray, hi: np.ndarray,
                 owner: np.ndarray):
    """Gauss-Kronrod estimates for the panels [lo_i, hi_i] of integrands
    owner_i, passed to ``f`` at most ``_CHUNK`` panels per call.

    Each panel's weighted sums are reduced along its own row (not by a
    BLAS product, whose rounding depends on the row count), so a panel's
    estimate does not depend on which panels share its call.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    j = np.broadcast_to(owner[:, None], x.shape)
    fx = np.empty(x.shape)
    for start in range(0, len(lo), _CHUNK):
        rows = slice(start, start + _CHUNK)
        fx[rows] = np.asarray(f(x[rows].ravel(), j[rows].ravel()),
                              dtype=float).reshape(fx[rows].shape)
    k15 = half * np.sum(fx * _WK, axis=1)
    g7 = half * np.sum(fx * _WG, axis=1)
    err = np.abs(k15 - g7)
    return k15, err


def integrate_batch(f: Callable, a, b, spec: QuadSpec = QuadSpec()
                    ) -> list[IntegrationResult]:
    """Integrate J integrands, integrand j over its own [a_j, b_j].

    ``f(x, j)`` evaluates integrand ``j[i]`` at node ``x[i]`` (two 1-D
    arrays of equal length).  Every integrand is refined on its own, by
    recursive panel bisection: its own panel heap and stopping test
    ``err <= max(abs_tol, rel_tol*|value|)``.  Each sweep bisects its
    worst panels until those left hold at most ``_LEFT_SHARE`` of that
    tolerance: at least one panel, and at most 16, which caps one sweep's
    new panels at one ``_CHUNK`` call and bounds the waste when the error
    is spread over many panels.  Only the calls of ``f`` are shared: each
    sweep passes the new panels of all unfinished integrands through
    ``f`` together.

    An integrand stops, converged or not, once it meets its tolerance or
    holds ``_MAX_PANELS`` panels, its one budget.  Every sweep adds at
    least one panel (a panel whose midpoint rounds onto an end leaves
    itself and a zero-width half), so that is within ``_MAX_PANELS + 16``
    panels.

    Returns one result per integrand, with ``converged=False`` (never
    raises) where the tolerance cannot be met within the budget.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("a and b must be 1-D and of equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("bounds must be finite; use integrate_semi_infinite")
    if np.any(a > b):
        raise ValueError("need a <= b")

    results = [IntegrationResult(0.0, 0.0, 0, True) if lo == hi else None
               for lo, hi in zip(a.tolist(), b.tolist())]
    todo = np.flatnonzero(a < b)
    vals, errs = _panel_batch(f, a[todo], b[todo], todo)
    # per unfinished integrand: [heap of (-err, lo, hi, val, err), total,
    # total error, evaluations]
    state = {j: [[(-errs[i], a[j], b[j], vals[i], errs[i])],
                 vals[i], errs[i], 15]
             for i, j in enumerate(todo.tolist())}

    while state:
        lo: list = []
        hi: list = []
        splits = []
        for j, (heap, total, total_err, evaluations) in list(state.items()):
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if total_err <= tol or len(heap) >= _MAX_PANELS:
                results[j] = IntegrationResult(float(total), float(total_err),
                                               evaluations,
                                               bool(total_err <= tol))
                del state[j]
                continue
            # split the worst panels: at least one, at most 16, and no
            # more once the panels left hold at most _LEFT_SHARE of tol
            batch = [heapq.heappop(heap)]
            left = total_err - batch[0][4]
            while heap and len(batch) < 16 and left > _LEFT_SHARE * tol:
                batch.append(heapq.heappop(heap))
                left -= batch[-1][4]
            mids = [0.5 * (p[1] + p[2]) for p in batch]
            splits.append((j, batch, len(lo)))
            lo += [p[1] for p in batch] + mids
            hi += mids + [p[2] for p in batch]
        if not splits:
            break
        owner = np.concatenate([np.full(2 * len(batch), j)
                                for j, batch, _ in splits])
        lo, hi = np.array(lo), np.array(hi)
        vals, errs = _panel_batch(f, lo, hi, owner)
        for j, batch, at in splits:
            st = state[j]
            heap = st[0]
            n = len(batch)
            for i, p in enumerate(batch):
                left, right = at + i, at + n + i
                st[1] += vals[left] + vals[right] - p[3]
                st[2] += errs[left] + errs[right] - p[4]
                heapq.heappush(heap, (-errs[left], lo[left], hi[left],
                                      vals[left], errs[left]))
                heapq.heappush(heap, (-errs[right], lo[right], hi[right],
                                      vals[right], errs[right]))
            st[3] += 30 * n
    return results


def integrate_adaptive(f: Callable, a: float, b: float,
                       spec: QuadSpec = QuadSpec()) -> IntegrationResult:
    """Integrate ``f(x)`` over [a, b] by recursive panel bisection: the
    one-integrand case of ``integrate_batch``.

    Returns the best estimate with ``converged=False`` (never raises) when
    the tolerance cannot be met within the panel budget.
    """
    return integrate_batch(lambda x, j: f(x), a, b, spec)[0]


def half_line(f: Callable, a: float, scale: float) -> Callable:
    """The ``integrate_batch`` integrand on [0, 1) whose integrals are
    those of ``f(r, j)`` over [a, inf), by the substitution
    r = a + scale*u/(1-u), which maps [0, 1) to the half-line.

    ``scale`` should match the decay length of the integrands so the
    transformed integrands are well resolved.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")

    def g(u, j):
        u = np.minimum(u, 1.0 - 1e-15)
        w = 1.0 - u
        r = a + scale * u / w
        return np.asarray(f(r, j), dtype=float) * scale / (w * w)

    return g


def integrate_semi_infinite(f: Callable, a: float, scale: float,
                            spec: QuadSpec = QuadSpec()) -> IntegrationResult:
    """Integrate ``f`` over [a, inf): the one-integrand case of
    ``half_line``."""
    g = half_line(lambda r, j: f(r), a, scale)
    return integrate_adaptive(lambda u: g(u, None), 0.0, 1.0, spec)

