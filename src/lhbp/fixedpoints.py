"""Construction of the fixed-point continuum.

For an irreducible model the fixed points of the generating vector form a
curve parametrised by the type-0 coordinate: every anchor between the global
and partial extinction values extends to a unique vector.  Along it
s_j = g_j(s_{j+1}), so s_0 = g_0(g_1(... g_{J-1}(s_J))) is coordinate 0 of
the level-(J-1) truncation with boundary s_J: the curve over indices 0..J is
that truncation, with s_J the one unknown that the anchor fixes.
``generating`` solves it in survival space v = 1 - s, so a tail near s = 1
keeps its digits, by Newton from a start above the curve in survival terms:
for an anchor at or above q_0, the global extinction vector q of a deep
enough truncation, which is the curve through q_0 (the curves are ordered
by their anchor); else s = 0 with the boundary at the anchor.  Where
q = qtilde the anchor cannot move the boundary: the curve then follows q,
through index J from the start q, and from s = 0 its last indices before J
follow the boundary.  No law's generating function is evaluated here: the
tests' reference ``pgf(law, u)`` lives in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedded import embedded_moments
from .generating import _anchored_solve
from .model import LHBPModel

ENDPOINT_SLACK = 1e-6


class RangeError(ValueError):
    """Target lies outside the reachable interval of a monotone map."""


@dataclass
class FixedPointCurve:
    values: np.ndarray          # s_0 .. s_J
    residual: float             # max |V_j(v) - v_j| over types 0..J-1
    decay: np.ndarray           # (1 - s_k) * m_{0->k-1} where defined

    @property
    def failure_index(self) -> None:  # read by perfbench's tracer
        return None  # a returned curve has all J + 1 entries


def curve_from_anchor(model: LHBPModel, s0: float, J: int, tol: float = 1e-12,
                      bounds: tuple[float, float] | None = None,
                      start: np.ndarray | None = None) -> FixedPointCurve:
    """Extend an index-0 anchor to a fixed-point vector over indices 0..J.

    ``bounds`` should be (q_0, qt_0) approximations from a truncation ladder;
    anchors outside them (with a small slack) are rejected outright.  An
    anchor that no boundary s_J in [0, 1] reaches gives the curve of the
    nearer end when that end's s_0 lies within ``ENDPOINT_SLACK`` of it, and
    raises ``RangeError`` otherwise.  The residual is taken in survival
    space, V(v) = 1 - F(1 - v).

    ``start`` may hold the global extinction vector q of a truncation of
    level at least J - 1 (at least J + 1 entries), as a ladder gives it.
    An anchor at or above q_0 starts the solve from q, the curve through
    q_0, which lies above the target in survival terms; any other anchor
    starts from s = 0, as without ``start`` (``generating._anchored_solve``
    gives the rule).
    """
    if J < 0:
        raise ValueError(f"curve window J must be >= 0, got {J}")
    if start is not None and len(start) < J + 1:
        raise ValueError(f"start needs at least J + 1 = {J + 1} entries, "
                         f"got {len(start)}")
    if not 0.0 <= s0 <= 1.0:  # NaN fails too
        raise ValueError(f"anchor must lie in [0, 1], got {s0!r}")
    if bounds is not None:
        lo, hi = bounds
        if not (lo - ENDPOINT_SLACK <= s0 <= hi + ENDPOINT_SLACK):
            raise RangeError(
                f"anchor {s0!r} outside [{lo}, {hi}] (+/- {ENDPOINT_SLACK})")
    if J == 0:
        return FixedPointCurve(np.array([float(s0)]), 0.0, np.zeros(0))
    v, residual = _anchored_solve(model, J - 1, 1.0 - s0, tol, start)
    if abs((1.0 - v[0]) - s0) > ENDPOINT_SLACK:
        raise RangeError(f"anchor {s0!r} outside the reach of the level-"
                         f"{J - 1} truncation, which ends at s_0 = "
                         f"{float(1.0 - v[0])!r}")
    mom = embedded_moments(model, J - 1, with_a=False)
    usable = min(J, mom.ok_through + 1)
    decay = v[1:usable + 1] * mom.m0[:usable]
    return FixedPointCurve(1.0 - v, residual, decay)
