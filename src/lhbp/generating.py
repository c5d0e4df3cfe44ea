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
reduction in whole-array steps down to a small system, which the scalar
elimination loop solves.  V is monotone and concave; Newton started above the
target (v = 1 - start for a start below the minimal u-solution and below its
own image) decreases monotonically to it.  The fixed-point curves solve the
same system with the boundary as one more unknown, fixed by coordinate 0.

Levels solved together share one Newton loop on a stack of survival
vectors: each row holds one level, padded past its boundary, and the
kernels and band solves work on all rows at once, which replaces many small
solves, each a fixed cost of numpy calls, by a few larger ones.  Each row
stops on its own, so a level's result does not depend on the levels it is
stacked with; a single level is the one-row case.
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
# falls below 0 are zero).  A stack of survival vectors, shape (..., k+2),
# maps to val (..., k+1) and jac (..., width+2, k+1) row by row, on the same
# element-wise path as a single vector.  Complements 1 - prod f_t of a
# product of factors f_t = u_t ** c_t are formed from the factors'
# complements W_t as W_1 + (1 - W_1)(W_2 + (1 - W_2)(W_3 + ...)), a sum of
# nonnegative terms, so no digits cancel near v = 0.  A factor of exponent 1
# has the complement v_t and the slope 1 and costs no transcendental.  Other
# powers u ** c are taken as exp(c * log1p(-v)): u = 1 - v rounds to 1 for
# tiny v, where a thinned count c ~ u^-i still makes u ** c vanish.  Such
# counts may overflow c * log1p(-v) to -inf, which is the intended
# u ** c = 0, so the kernels silence that warning.  A thinning scale S
# saturated to inf weighs 1/S = 0.


def _log_u(v):
    return np.maximum(np.log1p(-v), LOG_ZERO)


def _total(terms):
    """Sum of a list of arrays or floats, 0.0 for none."""
    return sum(terms[1:], terms[0]) if terms else 0.0


def _combine(comps, pows):
    """1 - prod f_t from the complements W_t = 1 - f_t and the factors f_t:
    W_1 + f_1 (W_2 + f_2 (... + f_{n-1} W_n))."""
    out = comps[-1]
    for t in range(len(comps) - 2, -1, -1):
        out = comps[t] + pows[t] * out
    return out


class _GenericSweep:
    """Survival map built from per-type law outcomes.

    Types are grouped into blocks of consecutive types sharing an outcome
    pattern.  An outcome with probability p and child counts c_t adds
    p (1 - prod u_t^c_t) to V_i, combined from the complements
    W_t = 1 - u_t^c_t (v_t for a count of 1, -expm1(c_t log1p(-v_t))
    otherwise), and p c_t u_t^(c_t - 1) prod_{t' != t} u_t'^c_t' to
    dV_i/dv_t.  An outcome without children adds nothing, and a count of 1
    has the slope factor u_t^0 = 1, so neither is computed; a model whose
    counts are all 1 takes no logarithm.
    """

    def __init__(self, model: LHBPModel, k: int):
        self.k = k
        # the shift-repeated tail of an explicit model is one block
        tail = k + 1
        if isinstance(model, ExplicitModel):
            tail = min(model.tail_from + 1, k + 1)
        self.blocks = [self._block(model.law(i), i, i + 1)
                       for i in range(tail)]
        if tail <= k:
            self.blocks.append(self._block(model.law(tail), tail, k + 1))
        # at least 0: the band always holds its superdiagonal and diagonal
        # rows, also when every child is one type up
        self.width = max(0, max((-off for _, _, entries in self.blocks
                                 for _, factors in entries
                                 for off, _ in factors), default=0))

    @staticmethod
    def _block(law, lo: int, hi: int):
        """Types lo..hi-1 with the law of type lo, its outcomes given as
        (prob, ((offset, count), ...)) with child types relative to lo."""
        return lo, hi, [(p, tuple((t - lo, float(c)) for t, c in counts))
                        for counts, p in law.outcomes() if counts]

    @np.errstate(divide="ignore", over="ignore")
    def __call__(self, v):
        log_u = None  # taken at the first count other than 1
        rows = v.shape[:-1]
        val = np.empty(rows + (self.k + 1,))
        jac = np.zeros(rows + (self.width + 2, self.k + 1))
        for lo, hi, entries in self.blocks:
            acc = np.zeros(rows + (hi - lo,))
            for p, factors in entries:
                # each factor's complement W_t and exponent c_t log u_t
                comps, exps, pows = [], [], []
                for off, cnt in factors:
                    if cnt == 1.0:
                        comps.append(v[..., lo + off:hi + off])
                        exps.append(None)
                    else:
                        if log_u is None:
                            log_u = _log_u(v)
                        exps.append(cnt * log_u[..., lo + off:hi + off])
                        comps.append(-np.expm1(exps[-1]))
                if len(factors) > 1:  # the factors u_t^c_t themselves
                    pows = [1.0 - w if x is None else np.exp(x)
                            for w, x in zip(comps, exps)]
                acc += p * _combine(comps, pows)
                for f, (off, cnt) in enumerate(factors):
                    slope = p * cnt
                    if cnt != 1.0:
                        lu = log_u[..., lo + off:hi + off]
                        slope = slope * np.exp((cnt - 1) * lu)
                    for g, pw in enumerate(pows):
                        if g != f:
                            slope = slope * pw
                    jac[..., 1 - off, lo:hi] += slope
            val[..., lo:hi] = acc
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
        t = np.empty(v.shape[:-1] + (k + 1,))
        t[..., 0] = v[..., 1]
        t[..., 1:] = g * v[..., 0:k] + (1 - g) * v[..., 2:k + 2]
        val = self.c * t * (4.0 - t * (6.0 - t * (4.0 - t)))
        slope = 4.0 * self.c * (1.0 - t) ** 3
        jac = np.zeros(v.shape[:-1] + (3, k + 1))
        jac[..., 0, :] = (1 - g) * slope
        jac[..., 0, 0] = slope[..., 0]
        jac[..., 2, 1:] = g * slope[..., 1:]
        return val, jac


class _TridiagonalSweep:
    """Product of three independent count pgfs (down, same, up), combined
    as V_i = W_dn + (1 - W_dn)(W_sm + (1 - W_sm) W_up) from each factor's
    complement W = 1 - f.  The up factor is thinned: w f_c(x^S) + 1 - w with
    S = ceil(u^i), w = 1/S.  Past the first type whose S saturates to inf,
    all later ones saturate too and weigh w = 0, so the up factor is formed
    on types 0..m-1 only, m the number of finite scales, and is 1 on the
    rest.  A count of 1 at scale 1 contributes p v to its complement and p
    to its slope; only thinned scales (u > 1) and counts of 2 take logs.
    """

    width = 1

    def __init__(self, model: TridiagonalModel, k: int):
        self.k = k
        scale = model._scales(k)  # of the upward coordinate of types 0..k
        self.scale = scale[np.isfinite(scale)]
        self.w = 1.0 / self.scale
        self.thinned = model.u != 1.0
        self.pmfs = [tuple((c, p) for c, p in _two_point(mean) if c)
                     for mean in (model.a, model.b, model.c)]

    @staticmethod
    def _factor(pmf, v, scale=None):
        """Complement 1 - f and slope f' of f(x) = sum p x^(c * scale) at
        x = 1 - v; log1p(-v) is taken only for a scale or a count above 1."""
        if scale is not None or any(c != 1 for c, _ in pmf):
            log_u = _log_u(v)
        comp, slope = [], []
        for c, p in pmf:
            if scale is None and c == 1:
                comp.append(p * v)
                slope.append(p)
            else:
                cs = c if scale is None else c * scale
                comp.append(-p * np.expm1(cs * log_u))
                slope.append(p * cs * np.exp((cs - 1) * log_u))
        return _total(comp), _total(slope)

    @np.errstate(divide="ignore", over="ignore")
    def __call__(self, v):
        k, m = self.k, len(self.scale)
        down, same, up = self.pmfs
        shape = v.shape[:-1] + (k + 1,)
        comp_dn = np.zeros(shape)
        comp_dn[..., 1:], s_dn = self._factor(down, v[..., 0:k])
        comp_sm, s_sm = self._factor(same, v[..., 0:k + 1])
        if self.thinned:
            comp, slope = self._factor(up, v[..., 1:m + 1], self.scale)
            comp_up, s_up = np.zeros(shape), np.zeros(shape)
            np.multiply(self.w, comp, out=comp_up[..., :m])
            np.multiply(self.w, slope, out=s_up[..., :m])
        else:
            comp_up, s_up = self._factor(up, v[..., 1:k + 2])
        f_dn, f_sm, f_up = 1.0 - comp_dn, 1.0 - comp_sm, 1.0 - comp_up
        val = _combine((comp_dn, comp_sm, comp_up), (f_dn, f_sm))
        jac = np.empty(v.shape[:-1] + (3, k + 1))
        above, diag, below = jac[..., 0, :], jac[..., 1, :], jac[..., 2, :]
        np.multiply(s_up, f_dn, out=above)
        above *= f_sm
        np.multiply(s_sm, f_dn, out=diag)
        diag *= f_up
        np.multiply(f_sm, f_up, out=below)
        below[..., 0] = 0.0
        below[..., 1:] *= s_dn
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


def eliminate_band(band: list, rhs: list):
    """Elimination without pivoting, in place on lists, of a band in the
    kernels' layout (``band[1 - d]`` the offset-d diagonal) and of ``rhs``:
    returns the pivots, the superdiagonal and the reduced rhs.  ``rhs`` is
    one right-hand side, a list of floats, or several, a list of such lists
    (one per column of a trailing axis), all reduced with one elimination
    of the band.  A zero pivot ends it, leaving the later rows unfinished."""
    up, diag = band[0], band[1]
    if len(band) == 2:  # no subdiagonal: nothing to eliminate
        return diag, up, rhs
    low = band[2]
    cols = rhs if rhs and isinstance(rhs[0], list) else None
    # row i subtracts rows i - t, t = width..1, that lie in the band; the
    # subdiagonals past the first come first
    far = [(t, band[t], band[1 + t]) for t in range(len(band) - 2, 1, -1)]
    try:
        for i in range(1, len(diag)):
            if far:  # a test per row costs less than an empty loop
                for t, row, sub in far:
                    if t <= i:
                        m = sub[i] / diag[i - t]
                        row[i] -= m * up[i - t]
                        if cols is None:
                            rhs[i] -= m * rhs[i - t]
                        else:
                            for r in cols:
                                r[i] -= m * r[i - t]
            m = low[i] / diag[i - 1]
            diag[i] -= m * up[i - 1]
            if cols is None:
                rhs[i] -= m * rhs[i - 1]
            else:
                for r in cols:
                    r[i] -= m * r[i - 1]
    except ZeroDivisionError:
        pass
    return diag, up, rhs


def _solve_band(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - J) x = rhs for J given as a kernel's band ``jac``, or for
    each row of a stack of bands (..., width + 2, n) and of ``rhs`` (..., n).
    An ``rhs`` (..., n, m) holds m right-hand sides of each band on a
    trailing axis, solved with one elimination; each column of x equals
    the solve of that column alone, bit for bit.

    Gaussian elimination without pivoting: on the solver's path I - J is a
    nonsingular M-matrix, so every pivot is positive, and the upper factor
    keeps the single superdiagonal of I - J.  Width 1, the common case, goes
    to ``_solve_tridiagonal``; wider bands go row by row to
    ``eliminate_band``.  A zero pivot in any row raises
    ``ZeroDivisionError``.
    """
    band = -jac
    band[..., 1, :] += 1.0  # the band of I - J
    n = jac.shape[-1]
    several = rhs.ndim == jac.ndim
    if band.shape[-2] == 3:  # width 1
        # couplings outside the system
        band[..., 2, 0] = band[..., 0, -1] = 0.0
        # the transposes hold each system along their first axis, with the
        # columns of several right-hand sides next to it; an overflow gives
        # inf, as the loop's Python floats do, for the caller to detect
        low, diag, up = band[..., 2, :].T, band[..., 1, :].T, band[..., 0, :].T
        with np.errstate(over="ignore", invalid="ignore"):
            if not several:
                return _solve_tridiagonal(low, diag, up, rhs.T).T
            x = _solve_tridiagonal(low[:, None], diag[:, None], up[:, None],
                                   rhs.swapaxes(-1, -2).T, "F")
        return x.T.swapaxes(-1, -2)
    # back-substitution divides by every pivot, a zero one too
    cols = rhs.swapaxes(-1, -2) if several else rhs
    rows = zip(band.reshape(-1, band.shape[-2], n).tolist(),
               cols.reshape(-1, *cols.shape[band.ndim - 2:]).tolist())
    return np.reshape([_back_substitute(*eliminate_band(b, r))
                       for b, r in rows], rhs.shape)


def _back_substitute(diag: list, up: list, x: list) -> np.ndarray:
    """Solve the upper bidiagonal system left by the elimination, for ``x``
    in either layout of ``eliminate_band``'s rhs; returns (n,) or (n, m)."""
    n = len(diag)
    several = bool(x) and isinstance(x[0], list)
    for r in x if several else (x,):
        r[n - 1] /= diag[n - 1]
        for i in range(n - 2, -1, -1):
            r[i] = (r[i] - up[i] * r[i + 1]) / diag[i]
    return np.array(x).T if several else np.array(x)


# Below this size a single system goes to the scalar elimination loop,
# which beats a cyclic-reduction level, whose thirty-odd numpy calls cost a
# fixed time.  Ladder times were flat for crossovers from 128 to 512 and
# 6-15 % slower at 64 and 32.
CYCLIC_CROSSOVER = 128


def _solve_tridiagonal(low: np.ndarray, diag: np.ndarray, up: np.ndarray,
                       rhs: np.ndarray, order: str = "C") -> np.ndarray:
    """Solve low[i] x[i-1] + diag[i] x[i] + up[i] x[i+1] = rhs[i] for arrays
    (n, ...) that hold one system along their first axis for each index of
    the others; the band arrays broadcast against ``rhs``, so a band of
    shape (n, 1) solves the m columns of an ``rhs`` (n, m) at once.  The
    arrays made for rhs-shaped values take the memory ``order``: "F" keeps
    the systems' axis contiguous, which numpy loops along faster than along
    a few columns.

    ``low[0]`` and ``up[-1]`` must be 0.  A single band of at most
    ``CYCLIC_CROSSOVER`` unknowns goes to the scalar elimination loop, with
    all its right-hand sides.  Otherwise one level of odd-even cyclic
    reduction eliminates the odd unknowns of every system with whole-array
    operations, which leaves a tridiagonal system in the even unknowns;
    that system is solved by recursion and the odd unknowns are recovered
    from it.  This is Gaussian elimination on a symmetric permutation of the
    matrix, so an M-matrix keeps positive pivots.  A stack of systems is
    reduced down to one unknown.  A zero pivot raises ``ZeroDivisionError``.
    """
    n = len(rhs)
    if diag.size == n <= CYCLIC_CROSSOVER:  # a single band
        band = [up.ravel().tolist(), diag.ravel().tolist(),
                low.ravel().tolist()]
        cols = (rhs.ravel().tolist() if rhs.size == n
                else rhs.reshape(n, -1).T.tolist())
        x = _back_substitute(*eliminate_band(band, cols))
        return x.reshape(rhs.shape)
    if n == 1:
        if not diag.all():
            raise ZeroDivisionError("zero pivot in cyclic reduction")
        return rhs / diag
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
    rhs_e = rhs[0::2].copy(order)
    rhs_e[1:] -= alpha * ro[:ne - 1]
    rhs_e[:no] -= gamma * ro
    low_e = np.zeros(diag_e.shape)
    low_e[1:] = -alpha * lo[:ne - 1]
    up_e = np.zeros(diag_e.shape)
    up_e[:no] = -gamma * uo
    x_e = _solve_tridiagonal(low_e, diag_e, up_e, rhs_e, order)
    x = np.empty(rhs.shape, order=order)
    x[0::2] = x_e
    # odd row 2m+1 couples x[2m] and x[2m+2]; for an even n the last odd
    # row couples no x[n] (uo[-1] is 0)
    if n % 2:
        right = x_e[1:]
    else:
        right = np.zeros(ro.shape, order=order)
        right[:ne - 1] = x_e[1:]
    x[1::2] = (ro - lo * x_e[:no] - uo * right) / do
    return x


class _Stack:
    """Layout of a stack of survival vectors (..., k + 2): the row of level
    j holds its unknowns in columns 0..j, its boundary in column j + 1 and
    padding after that.  A type-i parent bears only children of types
    <= i + 1, so a row's unknowns never read its padding.  The solves treat
    the boundary and padding columns as identity rows with a zero
    right-hand side; their solution is 0, so the coupling of a row's last
    unknown to its boundary adds nothing and needs no cut."""

    def __init__(self, levels, jac: np.ndarray):
        """``levels`` of the rows, and their kernels' band ``jac``."""
        self.at = np.asarray(levels)[..., None]  # each row's last unknown
        self.live = np.arange(jac.shape[-1]) <= self.at
        self.padded = not self.live.all()

    def unknowns(self, x: np.ndarray) -> np.ndarray:
        """``x`` (..., k + 1) with 0 past each row's unknowns."""
        return np.where(self.live, x, 0.0) if self.padded else x

    def solve(self, jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """(I - J) x = rhs on each row's unknowns, for an ``rhs`` that is 0
        past them; x is 0 there."""
        if self.padded:
            jac = np.where(self.live[..., None, :], jac, 0.0)
        return _solve_band(jac, rhs)

    def last(self, x: np.ndarray) -> np.ndarray:
        """Entry j of each row of level j."""
        return np.take_along_axis(x, self.at, -1)[..., 0]

    def tangent(self, jac: np.ndarray) -> np.ndarray:
        """w = (I - J)^-1 dV/dv_{j+1} for each row's band: the tangent of
        the level-j solution path in its boundary, one band solve."""
        rhs = np.zeros(self.live.shape)
        # only type j bears type-(j+1) children
        np.put_along_axis(rhs, self.at, self.last(jac[..., 0, :])[..., None],
                          -1)
        return self.solve(jac, rhs)


def _newton(kernel, v: np.ndarray, levels: np.ndarray, tol: float,
            caps: list):
    """Newton steps in place on the survival vectors ``v`` stacked by
    ``levels`` (see ``_Stack``).

    Each row stops on its own: after a step that moves none of its
    coordinates by more than ``tol``, at an exact fixed point, after its
    entry of ``caps`` in steps, or at a step that is not finite; a stopped
    row keeps its vector while the others go on.  A zero pivot stops every
    row that has not stopped.  Returns the rows' residuals V(v) - v (0 past
    their unknowns), step counts and convergence flags.  A single vector is
    one row that needs no padding.
    """
    head = v[..., :-1]
    val, jac = kernel(v)
    stack = None if v.ndim == 1 else _Stack(levels, jac)
    steps = [0] * len(caps)
    converged = [False] * len(caps)
    active = [c > 0 for c in caps]
    while True:
        resid = val - head if stack is None else stack.unknowns(val - head)
        for r, moving in enumerate(resid.any(-1).reshape(-1).tolist()):
            if active[r] and not moving:  # a fixed point below the start
                active[r], converged[r] = False, True
        if not any(active):
            break
        steps = [n + a for n, a in zip(steps, active)]
        try:
            step = (_solve_band(jac, resid) if stack is None
                    else stack.solve(jac, resid))
        except ZeroDivisionError:
            break
        if not all(active):
            step[~np.reshape(active, levels.shape)] = 0.0
        np.minimum(np.maximum(head + step, 0.0), 1.0, out=head)
        val, jac = kernel(v)
        for r, size in enumerate(abs(step).max(-1).reshape(-1).tolist()):
            if not active[r]:
                continue
            if size <= tol or size <= EPS_FLOOR:
                active[r], converged[r] = False, True
            elif not math.isfinite(size) or steps[r] >= caps[r]:
                active[r] = False
    return resid, steps, converged


def iterate_levels(model: LHBPModel, levels, s: float, tol: float = 1e-12,
                   max_iter: int | None = None,
                   start: np.ndarray | None = None) -> list[TruncationResult]:
    """Solve the level-k truncated generating system with boundary s for
    one level k, on one survival vector, or for each k in a sequence
    ``levels``, as one stack (see ``_Stack``); returns a result per level.

    Newton steps on v = V(v) in survival space, from v = 1 - start (the
    start defaults to (0, ..., 0, s)).  A supplied start must lie below the
    target fixed point of every level and below its own image, and be no
    longer than k + 2 for the lowest level k.  Warm starts from other
    levels do: the result of a lower level, padded with zeros; for s = 1
    the converged s = 1 result of a deeper level, cut to its first k + 2
    entries; and the elementwise maximum of two such starts.  The last
    entry of a start, its boundary, is ignored.  Such a start is a
    sub-solution, so the target lies above it; this function holds the
    returned u at or above the start on the start's other entries, which
    rounding in the last ulp would otherwise break.
    Each level stops once a step moves none of its coordinates by more than
    ``tol``, whichever levels share the stack.  ``max_iter`` defaults to
    k + 100 steps for level k: from a start far below the target a step
    carries the boundary's influence only a few types inward (about 5 for
    qtilde of tridiagonal(0.15, 0.25, 0.7) started from its q vector).
    ``iterations`` counts Newton steps and ``residual`` is max |V(v) - v| at
    the returned vector, which is given in u = 1 - v.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"boundary must lie in [0, 1], got {s}")
    levels = np.asarray(levels)
    flat = levels.reshape(-1).tolist()
    top = max(flat)
    v = np.ones(levels.shape + (top + 2,))
    if start is not None:
        start = np.asarray(start, dtype=float)
        v[..., :len(start) - 1] = 1.0 - start[:-1]
    for row, k in zip(v.reshape(-1, top + 2), flat):
        row[k + 1] = 1.0 - s
    caps = [k + 100 if max_iter is None else max_iter for k in flat]
    resid, steps, converged = _newton(_compiled(model, top), v, levels, tol,
                                      caps)
    u = 1.0 - v
    if start is not None:
        held = u[..., :len(start) - 1]
        np.maximum(held, start[:-1], out=held)
    results = []
    for k, row, *rest in zip(flat, u.reshape(-1, top + 2), steps,
                             abs(resid).max(-1).reshape(-1).tolist(),
                             converged):
        row[k + 1] = s
        results.append(TruncationResult(k, s, row[:k + 2], *rest))
    return results


def iterate_to_limit(model: LHBPModel, k: int, s: float, tol: float = 1e-12,
                     max_iter: int | None = None,
                     start: np.ndarray | None = None) -> TruncationResult:
    """Solve the level-k truncated generating system with boundary s: the
    one-level case of ``iterate_levels``, which documents the start,
    ``tol`` and ``max_iter``."""
    return iterate_levels(model, k, s, tol, max_iter, start)[0]


@np.errstate(over="ignore", invalid="ignore")
def _anchored_solve(model: LHBPModel, k: int, v0: float, tol: float,
                    start: np.ndarray | None = None
                    ) -> tuple[np.ndarray, float]:
    """Level-k survival vector with v_0 = v0 and its boundary t = v_{k+1} in
    [0, 1] as one more unknown; returns (v_0..v_k, t) and max |V(v) - v|.

    Each Newton step takes d = (I - J)^-1 (V(v) - v) and the tangent
    w = (I - J)^-1 dV/dt from one elimination of I - J, as two columns of
    one band solve, and moves t by the dt that lands v_0 + d_0 + w_0 dt on
    v0 (t stays once v0 is met within rounding); where w_0 is 0 in floats,
    as on the flat stretch of a thinned or slow-front model, it squares the
    distance from t to the end that moves v_0 towards v0.  v moves by
    d + w dt; both are clipped to [0, 1], so a v0 out of reach leaves t at
    the nearer end.  Stops once a step moves no entry by more than ``tol``
    times the largest entry, so tails near s = 1 keep their digits.  Raises
    ``ComputationError`` on a zero pivot, a step that is not finite, or
    after k + 100 steps.

    The start lies above the target, from where Newton on the monotone
    concave V decreases to it (Esparza, Kiefer & Luttenberger 2010).  A
    ``start`` u, the global extinction vector of a truncation of level at
    least k, is the curve through u_0, with t = 1 - u_{k+1}; for
    0 < v0 <= 1 - u_0 the solution lies below it in survival terms, since
    the curves are ordered by their anchor, and the solve starts from
    v = 1 - u_0..u_{k+1}, unless that t is 1: there w_0 is 0 when type k
    bears its type-(k+1) children two or more at a time, and squaring
    leaves t = 1 where it is.  Any other v0 > 0 starts from v = 1 with
    t = v0, and v0 = 0 from v = 0, the solution, since every type bears
    type-(i+1) children.
    """
    kernel = _compiled(model, k)
    if (start is not None and 0.0 < v0 <= 1.0 - start[0]
            and 1.0 - start[k + 1] < 1.0):
        x = 1.0 - np.asarray(start[:k + 2], dtype=float)
    else:
        x = np.full(k + 2, 1.0 if v0 > 0.0 else 0.0)
        x[k + 1] = v0
    head = x[:k + 1]
    rel = max(tol, EPS_FLOOR)
    val, jac = kernel(x)
    # the columns of the step's V(v) - v and of the tangent's dV/dt, which
    # only type k feels (it alone bears type-(k+1) children), each stored
    # contiguously
    cols = np.zeros((2, k + 1))
    for _ in range(k + 100):
        cols[0] = val - head
        cols[1, k] = jac[0, k]
        try:
            d, w = _solve_band(jac, cols.T).T
        except ZeroDivisionError:
            break
        t = t_new = float(x[k + 1])
        gap = v0 - float(head[0] + d[0])  # the miss at fixed t
        if abs(gap) > EPS_FLOOR * v0:
            t_new = (t + gap / w[0] if w[0] > 0.0 else
                     1.0 - (1.0 - t) ** 2 if gap > 0.0 else t * t)
            t_new = min(max(t_new, 0.0), 1.0)
        step = d + w * (t_new - t)
        size = max(float(np.max(np.abs(step))), abs(t_new - t))
        if not math.isfinite(size):
            break
        np.clip(head + step, 0.0, 1.0, out=head)
        x[k + 1] = t_new
        val, jac = kernel(x)
        if size <= rel * float(np.max(x)):
            return x, float(np.max(np.abs(val - head)))
    raise ComputationError(f"level-{k} anchored solve failed: zero pivot, "
                           f"step not finite or {k + 100} steps")


def g_second_derivatives(model: LHBPModel, results) -> np.ndarray:
    """g_k''(s) of the embedded generating function for each converged
    level-k result with boundary s < 1 in ``results``, as one stack.

    With t = v_{k+1} = 1 - s, the solution path v(t) has the tangent
    w = (I - J)^-1 dV/dv_{k+1}, one band solve, and g_k(s) = 1 - v_k(t)
    gives g_k''(s) = -dw_k/dt: the change of w_k along the tangent line
    x - h (w, 1), x = (v, t).  The one-sided quotient D(h) has an O(h)
    error, which 2 D(h/2) - D(h) removes.  The tangent at x is one call on
    the whole stack; the kernel and tangent of both quotient points, h and
    h/2, are one call on the stack of both.
    """
    levels = [r.level for r in results]
    kernel = _compiled(model, max(levels))
    x = np.ones((len(levels), max(levels) + 2))
    for row, r in zip(x, results):
        row[:r.level + 2] = 1.0 - r.vector
    jac = kernel(x)[1]
    stack = _Stack(levels, jac)
    w = stack.tangent(jac)
    line = np.zeros(x.shape)
    line[:, :-1] = w
    np.put_along_axis(line, stack.at + 1, 1.0, -1)
    h = 1e-5  # O(h^2) truncation and eps / h rounding errors near 1e-10
    hs = np.array([h, h / 2])
    # each row's two points x - h (w, 1) and x - (h/2) (w, 1) side by side,
    # so that the stack, not the pair, is the solves' contiguous axis
    pair = _Stack(np.repeat(levels, 2).reshape(-1, 2), jac)
    points = x[:, None] - hs[:, None] * line[:, None]
    ends = pair.last(pair.tangent(kernel(points)[1]))
    quotient = (stack.last(w)[:, None] - ends) / hs  # D(h) and D(h/2)
    return quotient[:, 0] - 2.0 * quotient[:, 1]


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


def extinction_ladder(model: LHBPModel, schedule, window: int | None = None,
                      tol: float = 1e-12) -> ExtinctionLadder:
    """Run both boundaries over an increasing truncation schedule.

    q runs bottom-up, each level warm-started from the one below (padded
    with zeros), so the q ladder is nondecreasing by construction.  qtilde
    runs top-down, since qtilde^(k) decreases in k: the top level starts
    from its own q, each lower level k from the elementwise maximum of its
    q and the next deeper level's qtilde cut to types 0..k, unless that
    level did not converge.  Both starts are sub-solutions of the level-k
    system with boundary 1.  ``iterate_to_limit`` holds each result at or
    above its start, which keeps q <= qtilde and the qtilde ladder
    nonincreasing.  ``window`` (default: all k + 2 entries of the smallest
    level k) sets how many leading coordinates are reported and
    extrapolated.
    """
    schedule = tuple(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if min(schedule, default=-1) < 0:
        raise ValueError(
            f"truncation levels must be >= 0, got {list(schedule)}")
    if window is None:
        window = schedule[0] + 2
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > schedule[0] + 2:
        raise ValueError("window exceeds the smallest truncation size: "
                         f"{window} > {schedule[0] + 2}")
    q_results, qt_results = [], []
    prev = None
    for k in schedule:
        rq = iterate_to_limit(model, k, 0.0, tol=tol, start=prev)
        prev = rq.vector
        q_results.append(rq)
    deeper = None
    for rq in reversed(q_results):
        start = rq.vector
        if deeper is not None:
            start = np.maximum(start, deeper.vector[:rq.level + 2])
        rt = iterate_to_limit(model, rq.level, 1.0, tol=tol, start=start)
        deeper = rt if rt.converged else None
        qt_results.append(rt)
    qt_results.reverse()
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
