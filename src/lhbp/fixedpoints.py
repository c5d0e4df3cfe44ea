"""Construction of the fixed-point continuum.

For an irreducible model the fixed points of the generating vector form a
curve parametrised by the type-0 coordinate: every anchor between the global
and partial extinction values extends to a unique vector, built index by
index through monotone inversion.  Each coordinate solves the scalar
equation G_j(s_0, ..., s_j, x) = s_j in its last argument by Illinois
regula falsi on the type-j law's ``pgf``, which coincides with inverting the
embedded generating function g_j along the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedded import embedded_moments
from .model import LHBPModel

ENDPOINT_SLACK = 1e-6
RANGE_SLACK = 1e-12


class RangeError(ValueError):
    """Target lies outside the reachable interval of a monotone map."""


def _invert(f, target: float, tol: float) -> tuple[float, float]:
    """Solve f(x) = target on [0, 1] for a nondecreasing f; return x and the
    residual f(x) - target of the probe at x.

    Illinois modified regula falsi (Dowell & Jarratt, BIT 11, 1971): each
    step takes the secant root through the bracket ends, and an end kept
    twice in a row has its residual halved.  A step is a midpoint step when
    the secant root falls outside the open bracket, or when the last two
    steps left the bracket wider than half its width before them: the
    bracket then halves at least every third step, so the 200-step cap
    leaves room to shrink [0, 1] below 1e-16.  Stops once
    |f(x) - target| <= tol or the bracket is at most 1e-16 wide.  Raises
    ``RangeError`` when target lies outside [f(0), f(1)] by more than
    RANGE_SLACK.
    """
    lo, hi = 0.0, 1.0
    flo, fhi = f(lo), f(hi)
    if not (flo - RANGE_SLACK <= target <= fhi + RANGE_SLACK):
        raise RangeError(f"target {target!r} outside [{flo}, {fhi}]")
    rlo, rhi = flo - target, fhi - target
    if abs(rlo) <= tol:
        return lo, rlo
    if abs(rhi) <= tol:
        return hi, rhi
    kept = 0  # 1 or -1 when the last step kept hi or lo
    width1 = width2 = math.inf  # bracket widths one and two steps back
    for _ in range(200):
        # a secant root needs rlo < 0 < rhi; within RANGE_SLACK of an end
        # both residuals share a sign and midpoint steps walk to that end
        x = lo + (hi - lo) * (rlo / (rlo - rhi)) if rlo < 0.0 < rhi else lo
        if not (lo < x < hi and hi - lo <= 0.5 * width2):
            x = 0.5 * (lo + hi)
        width2, width1 = width1, hi - lo
        r = f(x) - target
        if abs(r) <= tol or hi - lo <= 1e-16:
            return x, r
        if r < 0.0:
            lo, rlo = x, r
            if kept == 1:
                rhi *= 0.5
            kept = 1
        else:
            hi, rhi = x, r
            if kept == -1:
                rlo *= 0.5
            kept = -1
    return x, r


@dataclass
class FixedPointCurve:
    values: np.ndarray          # s_0 .. s_J (shorter if truncated)
    residual: float             # max |G_i(s) - s_i| over the window
    decay: np.ndarray           # (1 - s_k) * m_{0->k-1} where defined
    failure_index: int | None   # first index whose inversion left [0, 1]

    @property
    def ok(self) -> bool:
        return self.failure_index is None


def curve_from_anchor(model: LHBPModel, s0: float, J: int, tol: float = 1e-12,
                      bounds: tuple[float, float] | None = None) -> FixedPointCurve:
    """Extend an index-0 anchor to a fixed-point vector over indices 0..J.

    ``bounds`` should be (q_0, qt_0) approximations from a truncation ladder;
    anchors outside them (with a small slack) are rejected outright.  A range
    failure at some index truncates the curve there: the anchor is then
    numerically indistinguishable from an extinction vector coordinate.
    """
    if J < 0:
        raise ValueError(f"curve window J must be >= 0, got {J}")
    if not 0.0 <= s0 <= 1.0:  # NaN fails too
        raise ValueError(f"anchor must lie in [0, 1], got {s0!r}")
    if bounds is not None:
        lo, hi = bounds
        if not (lo - ENDPOINT_SLACK <= s0 <= hi + ENDPOINT_SLACK):
            raise RangeError(
                f"anchor {s0!r} outside [{lo}, {hi}] (+/- {ENDPOINT_SLACK})")
    solve_tol = min(tol, 1e-13)
    # Python floats, not a numpy buffer: every pgf probe is then scalar work
    buf = [0.0] * (J + 2)
    buf[0] = float(s0)
    failure = None
    residual = 0.0
    for j in range(J):
        # G_j(s_0..s_j, x) = s_j, solved for x in the next slot of buf; the
        # accepted probe's residual is the index's residual
        law = model.law(j)

        def coordinate(x: float) -> float:
            buf[j + 1] = x
            return law.pgf(buf)

        try:
            buf[j + 1], r = _invert(coordinate, buf[j], solve_tol)
        except RangeError:
            failure = j
            break
        residual = max(residual, abs(r))
    n_vals = J + 1 if failure is None else failure + 1
    values = np.array(buf[:n_vals])
    mom = embedded_moments(model, max(n_vals - 2, 0), with_a=False)
    usable = min(n_vals - 1, mom.ok_through + 1)
    decay = (1.0 - values[1:usable + 1]) * mom.m0[:usable]
    return FixedPointCurve(values, residual, decay, failure)
