"""Survival-space Newton solver for truncated progeny generating vectors.

A level-k truncation pins coordinate k+1 to a boundary value s and asks for
the minimal solution of u = F(u) on coordinates 0..k.  Coordinate i of that
solution is the composed embedded generating function evaluated at s, so the
boundary s = 0 yields the global extinction vector of the truncated process
and s = 1 its partial extinction vector.

The solver works in survival space v = 1 - u with the map
V(v) = 1 - F(1 - v), whose complements are formed without subtracting
numbers close to 1, so coordinates near 1 keep their digits.  A type-i
parent only bears children of types <= i+1, so the Jacobian of V is banded
(lower width the model bandwidth, upper width 1) and each Newton step is one
banded elimination: for the common tridiagonal band, odd-even cyclic
reduction in whole-array steps down to a small system, which a Thomas loop
solves.  V is monotone and concave; Newton started above the
target (v = 1 - start for a start below the minimal u-solution and below its
own image) decreases monotonically to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (Example2Model, ExplicitModel, LHBPModel, TridiagonalModel,
                    _two_point)

EPS_FLOOR = 10 * np.finfo(float).eps
# stands for log 0 in log1p(-v) at v = 1: finite, so that the power
# u ** 0 = exp(0 * LOG_ZERO) is 1 while any positive power underflows to 0
LOG_ZERO = -1e300


class ComputationError(RuntimeError):
    """Raised when a gating computation fails to converge."""


@dataclass
class TruncationResult:
    level: int
    boundary: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool


# ---------------------------------------------------------------------------
# compiled survival maps
#
# Each kernel maps a survival vector v (length k+2, v[k+1] = 1 - s) to
# (val, jac): val[i] = V_i(v) for i = 0..k, and the Jacobian band
# jac[d, i] = dV_i / dv_{i+1-d}, d = 0..width+1 (row 0 is the superdiagonal,
# row 1 the diagonal, row 1+t the t-th subdiagonal; entries whose column
# falls below 0 are zero).  Powers u ** c are taken as exp(c * log1p(-v)):
# u = 1 - v rounds to 1 for tiny v, where a thinned count c ~ u^-i still
# makes u ** c vanish.  Such counts may overflow c * log1p(-v) to -inf,
# which is the intended u ** c = 0, so the kernels silence that warning.


def _log_u(v):
    return np.maximum(np.log1p(-v), LOG_ZERO)


class _GenericSweep:
    """Survival map built from per-type law outcomes.

    Types are grouped into blocks sharing an outcome pattern.  An outcome
    with probability p and child counts c_t adds p (1 - prod u_t^c_t) =
    -p expm1(sum c_t log1p(-v_t)) to V_i, and p c_t u_t^(c_t - 1)
    prod_{t' != t} u_t'^c_t' to dV_i/dv_t.
    """

    def __init__(self, model: LHBPModel, k: int):
        self.k = k
        # the shift-repeated tail of an explicit model is one block
        tail = k + 1
        if isinstance(model, ExplicitModel):
            tail = min(model.tail_from + 1, k + 1)
        self.blocks = [self._block(model.law(i), i, np.array([i]))
                       for i in range(tail)]
        if tail <= k:
            self.blocks.append(self._block(model.law(tail), tail,
                                           np.arange(tail, k + 1)))
        # at least 0: the band always holds its superdiagonal and diagonal
        # rows, also when every child is one type up
        self.width = max(0, max((-off for _, entries in self.blocks
                                 for _, factors in entries
                                 for off, _ in factors), default=0))

    @staticmethod
    def _block(law, owner: int, idx: np.ndarray):
        """Outcomes as (probs, ((offset, count), ...)) relative to the owner."""
        return idx, [(np.full(len(idx), p),
                      tuple((t - owner, float(c)) for t, c in counts))
                     for counts, p in law.outcomes()]

    @np.errstate(divide="ignore", over="ignore")
    def __call__(self, v):
        log_u = _log_u(v)
        val = np.empty(self.k + 1)
        jac = np.zeros((self.width + 2, self.k + 1))
        for idx, entries in self.blocks:
            acc = np.zeros(len(idx))
            for probs, factors in entries:
                logs = [cnt * log_u[idx + off] for off, cnt in factors]
                acc -= probs * np.expm1(sum(logs))
                powers = [np.exp(x) for x in logs]
                for f, (off, cnt) in enumerate(factors):
                    slope = probs * cnt * np.exp((cnt - 1) * log_u[idx + off])
                    for g, pw in enumerate(powers):
                        if g != f:
                            slope = slope * pw
                    jac[1 - off, idx] += slope
            val[idx] = acc
        return val, jac


# The two family kernels stay: a generic law-table sweep measured 3.3-4.6x
# slower on example2 and 1.4-4.1x slower on thinned tridiagonal ladders.
class _Example2Sweep:
    """V_i = c_i (1 - (1 - t_i)^4) = c_i t_i (4 - 6 t_i + 4 t_i^2 - t_i^3)
    with t_0 = v_1 and t_i = gamma v_{i-1} + (1 - gamma) v_{i+1}."""

    width = 1

    def __init__(self, model: Example2Model, k: int):
        self.k = k
        self.gamma = model.gamma
        j = np.arange(1, k + 1, dtype=float)
        self.c = np.concatenate(([0.25], (j + 1) / (4 * j)))

    def __call__(self, v):
        k, g = self.k, self.gamma
        t = np.empty(k + 1)
        t[0] = v[1]
        t[1:] = g * v[0:k] + (1 - g) * v[2:k + 2]
        val = self.c * t * (4.0 - t * (6.0 - t * (4.0 - t)))
        slope = 4.0 * self.c * (1.0 - t) ** 3
        jac = np.zeros((3, k + 1))
        jac[0] = (1 - g) * slope
        jac[0, 0] = slope[0]
        jac[2, 1:] = g * slope[1:]
        return val, jac


class _TridiagonalSweep:
    """Product of three independent count pgfs (down, same, up), combined
    as V_i = -expm1(sum log1p(-W)) from each factor's complement W = 1 - f.
    The up factor is thinned: w f_c(x^S) + 1 - w with S = ceil(u^i), w = 1/S.
    """

    width = 1

    def __init__(self, model: TridiagonalModel, k: int):
        self.k = k
        # scale factors for the upward coordinate of types 0..k
        self.scale = np.array([model._scale(i) for i in range(k + 1)])
        self.w = np.where(np.isinf(self.scale), 0.0, 1.0 / self.scale)
        self.pmfs = [tuple((c, p) for c, p in _two_point(mean) if c)
                     for mean in (model.a, model.b, model.c)]

    @staticmethod
    def _factor(pmf, log_u, scale=1.0):
        """Complement 1 - f and slope f' of f(x) = sum p x^(c * scale)."""
        comp = np.zeros(len(log_u))
        slope = np.zeros(len(log_u))
        for c, p in pmf:
            cs = c * scale
            comp -= p * np.expm1(cs * log_u)
            slope += p * cs * np.exp((cs - 1) * log_u)
        return comp, slope

    @np.errstate(divide="ignore", over="ignore")
    def __call__(self, v):
        k = self.k
        log_u = _log_u(v)
        down, same, up = self.pmfs
        comp_dn = np.zeros(k + 1)
        s_dn = np.zeros(k + 1)
        comp_dn[1:], s_dn[1:] = self._factor(down, log_u[0:k])
        comp_sm, s_sm = self._factor(same, log_u[0:k + 1])
        fin = self.w > 0.0  # a saturated scale leaves the up factor at 1
        comp_up = np.zeros(k + 1)
        s_up = np.zeros(k + 1)
        comp, slope = self._factor(up, log_u[1:k + 2][fin], self.scale[fin])
        comp_up[fin] = self.w[fin] * comp
        s_up[fin] = self.w[fin] * slope
        val = -np.expm1(np.log1p(-comp_dn) + np.log1p(-comp_sm)
                        + np.log1p(-comp_up))
        f_dn, f_sm, f_up = 1.0 - comp_dn, 1.0 - comp_sm, 1.0 - comp_up
        jac = np.empty((3, k + 1))
        jac[0] = s_up * f_dn * f_sm
        jac[1] = s_sm * f_dn * f_up
        jac[2] = s_dn * f_sm * f_up
        return val, jac


@lru_cache(maxsize=64)
def _compiled(model: LHBPModel, k: int):
    if isinstance(model, Example2Model):
        return _Example2Sweep(model, k)
    if isinstance(model, TridiagonalModel):
        return _TridiagonalSweep(model, k)
    return _GenericSweep(model, k)


# ---------------------------------------------------------------------------
# Newton iteration


def _solve_band(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - J) x = rhs for J given as a kernel's band ``jac``.

    Gaussian elimination without pivoting: on the solver's path I - J is a
    nonsingular M-matrix, so every pivot is positive, and the upper factor
    keeps the single superdiagonal of I - J.  Width 1, the common case, goes
    to ``_solve_tridiagonal``; wider bands run a row-by-row loop in
    O(n * width).  A zero pivot raises ``ZeroDivisionError``.
    """
    width = jac.shape[0] - 2
    if width == 1:
        low, up = -jac[2], -jac[0]
        low[0] = up[-1] = 0.0  # couplings outside the system
        # an overflow gives inf, as the loop's Python floats do, for the
        # caller to detect
        with np.errstate(over="ignore", invalid="ignore"):
            return _solve_tridiagonal(low, 1.0 - jac[1], up, rhs)
    n = len(rhs)
    up = (-jac[0]).tolist()
    # band[t][i] = (I - J)[i, i - t]; band[0] is the diagonal
    band = [(1.0 - jac[1]).tolist()] + [(-jac[1 + t]).tolist()
                                        for t in range(1, width + 1)]
    x = rhs.tolist()
    for i in range(1, n):
        for t in range(min(width, i), 0, -1):
            m = band[t][i] / band[0][i - t]
            band[t - 1][i] -= m * up[i - t]
            x[i] -= m * x[i - t]
    return _back_substitute(band[0], up, x)


def _back_substitute(diag: list, up: list, x: list) -> np.ndarray:
    """Solve the upper bidiagonal system left by the elimination."""
    n = len(x)
    x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - up[i] * x[i + 1]) / diag[i]
    return np.array(x)


# Below this size the Thomas loop beats a cyclic-reduction level, whose
# thirty-odd numpy calls cost a fixed time.  Ladder times were flat for
# crossovers from 128 to 512 and 6-15 % slower at 64 and 32.
CYCLIC_CROSSOVER = 128


def _solve_tridiagonal(low: np.ndarray, diag: np.ndarray, up: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve low[i] x[i-1] + diag[i] x[i] + up[i] x[i+1] = rhs[i].

    ``low[0]`` and ``up[-1]`` must be 0.  Above ``CYCLIC_CROSSOVER`` rows,
    one level of odd-even cyclic reduction eliminates the odd unknowns with
    whole-array operations, which leaves a tridiagonal system in the even
    unknowns; that system is solved by recursion and the odd unknowns are
    recovered from it.  This is Gaussian elimination on a symmetric
    permutation of the matrix, so an M-matrix keeps positive pivots.  The
    Thomas loop solves the last, small system.  A zero pivot raises
    ``ZeroDivisionError``.
    """
    n = len(rhs)
    if n <= CYCLIC_CROSSOVER:
        diag_l, up_l, x = diag.tolist(), up.tolist(), rhs.tolist()
        low_l = low.tolist()
        for i in range(1, n):
            m = low_l[i] / diag_l[i - 1]
            diag_l[i] -= m * up_l[i - 1]
            x[i] -= m * x[i - 1]
        return _back_substitute(diag_l, up_l, x)
    # odd rows are the pivots of this level
    lo, do, uo, ro = low[1::2], diag[1::2], up[1::2], rhs[1::2]
    if not do.all():
        raise ZeroDivisionError("zero pivot in cyclic reduction")
    ne, no = (n + 1) // 2, n // 2
    # even row 2m takes alpha times odd row 2m-1 and gamma times row 2m+1
    alpha = low[2::2] / do[:ne - 1]
    gamma = up[0:2 * no:2] / do
    diag_e = diag[0::2].copy()
    diag_e[1:] -= alpha * uo[:ne - 1]
    diag_e[:no] -= gamma * lo
    rhs_e = rhs[0::2].copy()
    rhs_e[1:] -= alpha * ro[:ne - 1]
    rhs_e[:no] -= gamma * ro
    low_e = np.zeros(ne)
    low_e[1:] = -alpha * lo[:ne - 1]
    up_e = np.zeros(ne)
    up_e[:no] = -gamma * uo
    x_e = _solve_tridiagonal(low_e, diag_e, up_e, rhs_e)
    x = np.empty(n)
    x[0::2] = x_e
    # odd row 2m+1 couples x[2m] and x[2m+2]; uo[-1] is 0 when n is even
    right = np.append(x_e[1:], 0.0)[:no]
    x[1::2] = (ro - lo * x_e[:no] - uo * right) / do
    return x


def iterate_to_limit(model: LHBPModel, k: int, s: float, tol: float = 1e-12,
                     max_iter: int | None = None,
                     start: np.ndarray | None = None) -> TruncationResult:
    """Solve the level-k truncated generating system with boundary s.

    Newton steps on v = V(v) in survival space, from v = 1 - start (the
    start defaults to (0, ..., 0, s); any supplied start must lie below the
    target fixed point and below its own image, which warm starts from a
    lower truncation level satisfy).  The iteration stops once a step moves
    no coordinate by more than ``tol``.  ``max_iter`` defaults to k + 100
    steps: from a start far below the target a step carries the boundary's
    influence only a few types inward (about 5 for qtilde of
    tridiagonal(0.15, 0.25, 0.7) started from its q vector).
    ``iterations`` counts Newton steps and ``residual`` is max |V(v) - v| at
    the returned vector, which is given in u = 1 - v.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"boundary must lie in [0, 1], got {s}")
    kernel = _compiled(model, k)
    if start is None:
        v = np.ones(k + 2)
    else:
        v = 1.0 - np.asarray(start, dtype=float)
    v[k + 1] = 1.0 - s
    head = v[:k + 1]
    cap = k + 100 if max_iter is None else max_iter
    val, jac = kernel(v)
    n = 0
    converged = False
    while n < cap:
        resid = val - head
        if not resid.any():  # an exact fixed point below the start
            converged = True
            break
        n += 1
        try:
            step = _solve_band(jac, resid)
        except ZeroDivisionError:
            break
        np.clip(head + step, 0.0, 1.0, out=head)
        val, jac = kernel(v)
        size = float(np.max(np.abs(step)))
        if not math.isfinite(size):
            break
        if size <= tol or size <= EPS_FLOOR:
            converged = True
            break
    u = 1.0 - v
    u[k + 1] = s
    residual = float(np.max(np.abs(val - head)))
    return TruncationResult(k, s, u, n, residual, converged)


# ---------------------------------------------------------------------------
# extinction ladder

@dataclass
class ExtinctionLadder:
    levels: tuple[int, ...]
    window: int
    q_results: list[TruncationResult]
    qtilde_results: list[TruncationResult]
    q_estimate: np.ndarray
    qtilde_estimate: np.ndarray
    q_stall: str
    qtilde_stall: str
    converged: bool

    @property
    def q_window(self) -> np.ndarray:
        return np.array([r.vector[:self.window] for r in self.q_results])

    @property
    def qtilde_window(self) -> np.ndarray:
        return np.array([r.vector[:self.window] for r in self.qtilde_results])


def default_schedule(cap: int) -> tuple[int, ...]:
    """Powers of two up to the cap (geometric levels suit stall detection).

    Cap 0 gives the single level 0; a negative cap raises ``ValueError``.
    """
    if cap < 0:
        raise ValueError(f"truncation level must be >= 0, got {cap}")
    levels = []
    k = 1
    while k <= cap:
        levels.append(k)
        k *= 2
    if not levels or levels[-1] != cap:
        levels.append(cap)
    return tuple(levels)


def extinction_ladder(model: LHBPModel, schedule, window: int = 8,
                      tol: float = 1e-12) -> ExtinctionLadder:
    """Run both boundaries over an increasing truncation schedule.

    Each global-extinction run warm-starts from the previous level (padded
    with zeros), which makes the reported ladder nondecreasing by
    construction; each partial run warm-starts from the same level's global
    vector, which enforces the q <= qtilde sandwich.
    """
    schedule = tuple(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > schedule[0] + 2:
        raise ValueError("window exceeds the smallest truncation size")
    q_results, qt_results = [], []
    prev = None
    for k in schedule:
        start = None
        if prev is not None:
            start = np.zeros(k + 2)
            start[:len(prev) - 1] = prev[:-1]
        rq = iterate_to_limit(model, k, 0.0, tol=tol, start=start)
        start_t = rq.vector.copy()
        start_t[k + 1] = 1.0
        rt = iterate_to_limit(model, k, 1.0, tol=tol, start=start_t)
        # the sandwich holds mathematically; guard the last float ulp
        rt.vector = np.maximum(rt.vector, rq.vector)
        prev = rq.vector
        q_results.append(rq)
        qt_results.append(rt)
    q_est, q_stall = _extrapolate([r.vector[:window] for r in q_results], tol)
    qt_est, qt_stall = _extrapolate([r.vector[:window] for r in qt_results], tol)
    q_est = np.minimum(q_est, qt_est)
    return ExtinctionLadder(
        levels=schedule, window=window,
        q_results=q_results, qtilde_results=qt_results,
        q_estimate=q_est, qtilde_estimate=qt_est,
        q_stall=q_stall, qtilde_stall=qt_stall,
        converged=all(r.converged for r in q_results + qt_results),
    )


def _extrapolate(vectors, tol):
    """Geometric (Richardson-style) limit estimate with a stall class."""
    last = vectors[-1].astype(float).copy()
    if len(vectors) < 3:
        return np.clip(last, 0.0, 1.0), "short"
    d_prev = float(np.max(np.abs(vectors[-2] - vectors[-3])))
    d_last = float(np.max(np.abs(vectors[-1] - vectors[-2])))
    if d_last < tol:
        return np.clip(last, 0.0, 1.0), "converged"
    stall = "improving"
    if d_prev > 0:
        r = d_last / d_prev
        if r >= 0.7:
            stall = "stalled-slow"
        if 0.0 < r < 1.0:
            last = last + (vectors[-1] - vectors[-2]) * (r / (1.0 - r))
    return np.clip(last, 0.0, 1.0), stall
