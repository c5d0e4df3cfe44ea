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

Levels solved together are one packed Newton system: their survival
vectors one after the other, so that a Newton step of every level is one
kernel call and one band solve of a block-diagonal system, which replaces
many small solves, each a fixed cost of numpy calls, by one larger one; a
single level is the one-block case.  Each level stops on its own.  At the
boundary s = 0 the ascending levels of the q ladder form a chain: each is
lifted onto the level below it after every step, which is sound because
Newton from a sub-solution yields sub-solutions, so the deep levels start
from the shallow ones part-way through their solves rather than after them.
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
# A stack of levels k_1, k_2, ... is one packed vector (see ``_Layout``):
# the concatenation of each level's survival vector, types 0..k_b and its
# boundary entry.  Each kernel is compiled for one layout and maps a packed
# vector v (N entries) to (val, jac) on its first N - 1 entries, the rows:
# val[p] = V_i(v) for the row p of type i in its block, and the Jacobian
# band jac[d, p] = dV_i / dv_{i+1-d}, d = 0..width+1 (row 0 is the
# superdiagonal, row 1 the diagonal, row 1+t the t-th subdiagonal; entries
# whose column falls below type 0 are zero, so no block reads the one before
# it).  A single level is the one-block layout: val (k+1), jac
# (width+2, k+1).  Complements 1 - prod f_t of a product of factors
# f_t = u_t ** c_t are formed from the factors' complements W_t as
# W_1 + (1 - W_1)(W_2 + (1 - W_2)(W_3 + ...)), a sum of nonnegative terms,
# so no digits cancel near v = 0.  A factor of exponent 1 has the complement
# v_t and the slope 1 and costs no transcendental.  Other powers u ** c are
# taken as exp(c * log1p(-v)): u = 1 - v rounds to 1 for tiny v, where a
# thinned count c ~ u^-i still makes u ** c vanish.  Such counts may
# overflow c * log1p(-v) to -inf, which is the intended u ** c = 0, so the
# kernels silence that warning.  A thinning scale S saturated to inf weighs
# 1/S = 0.


class _Layout:
    """Packed survival vectors of a sequence of levels.

    Block b holds level k_b's survival vector, types 0..k_b and its
    boundary entry, at ``starts[b]`` .. ``starts[b] + k_b + 1``; the blocks
    follow each other, N = sum (k_b + 2) entries in all.  The rows of the
    kernels and band solves are the first N - 1 entries: each block's
    unknowns and, between blocks, the boundary entries of all but the last
    block, the edges.  Kernels pin each edge (V = v there, with a zero
    Jacobian column), so its Newton step is 0, and the coupling of a
    block's last unknown to its edge adds nothing: the band of a layout is
    block-diagonal.  A single level is the one-block layout, with no edge.
    """

    def __init__(self, levels):
        self.levels = ((int(levels),) if np.ndim(levels) == 0
                       else tuple(int(k) for k in levels))
        self.sizes = sizes = [k + 2 for k in self.levels]
        self.rows = sum(sizes) - 1
        self.starts = np.cumsum([0] + sizes[:-1])
        self.lasts = self.starts + self.levels  # the rows of types k_b
        self.edges = self.starts[1:] - 1
        self.single = len(sizes) == 1

    def types(self) -> np.ndarray:
        """The type of each row, k_b + 1 at an edge."""
        return (np.arange(self.rows + 1)
                - np.repeat(self.starts, self.sizes))[:-1]

    def blocks(self) -> list[slice]:
        """The unknowns of each block, as row slices."""
        return [slice(a, b + 1) for a, b in zip(self.starts.tolist(),
                                               self.lasts.tolist())]

    def at(self, i: int):
        """The rows of type i, an unknown of its level: a slice for one
        level, an index array otherwise (the slice saves the kernels 1-2 us
        a call on one level)."""
        if self.single:
            return slice(i, i + 1)
        return self.starts[np.greater_equal(self.levels, i)] + i

    def pin(self, v, val, jac):
        """Map each edge to itself with a zero Jacobian column."""
        if self.single:  # indexing by no edges costs 2-3 us a kernel call
            return
        val[self.edges] = v[self.edges]
        jac[:, self.edges] = 0.0

    def block_max(self, x, first: int = 0) -> list:
        """max of ``x`` over each block's rows from block ``first`` on, for
        an ``x`` that starts at that block's first row."""
        return np.maximum.reduceat(
            x, self.starts[first:] - self.starts[first]).tolist()

    def block_any(self, x) -> list:
        """Whether ``x`` has an entry other than 0 in each block's rows."""
        return np.logical_or.reduceat(x != 0.0, self.starts).tolist()

    def tangent(self, jac: np.ndarray) -> np.ndarray:
        """w = (I - J)^-1 dV/dv_{k+1} for each block of the band ``jac``:
        the tangent of each level's solution path in its boundary, one band
        solve; 0 at the edges."""
        rhs = np.zeros(self.rows)
        # only type k bears type-(k+1) children
        rhs[self.lasts] = jac[0, self.lasts]
        return _solve_band(jac, rhs)


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


def _shift(at, off: int):
    """The rows ``at`` (a slice or an index array) moved by ``off``."""
    if isinstance(at, slice):
        return slice(at.start + off, at.stop + off)
    return at + off


class _GenericSweep:
    """Survival map built from per-type law outcomes.

    Rows are grouped into blocks sharing an outcome pattern: for an
    explicit model its tail, the types from ``tail_from`` on, which repeat
    the last head law with the children shifted, and each head type; for
    other models each type.  The tail block runs over all rows from the
    first tail row on, and the head rows and edges among them are then
    formed again: their values are overwritten and their Jacobian columns
    zeroed before the head blocks add theirs.  An outcome with
    probability p and child counts c_t adds p (1 - prod u_t^c_t) to V_i,
    combined from the complements W_t = 1 - u_t^c_t (v_t for a count of 1,
    -expm1(c_t log1p(-v_t)) otherwise), and p c_t u_t^(c_t - 1)
    prod_{t' != t} u_t'^c_t' to dV_i/dv_t.  An outcome without children adds
    nothing, and a count of 1 has the slope factor u_t^0 = 1, so neither is
    computed; a model whose counts are all 1 takes no logarithm.
    """

    def __init__(self, model: LHBPModel, levels):
        self.layout = layout = _Layout(levels)
        top = max(layout.levels)
        tail = top + 1
        if isinstance(model, ExplicitModel):
            tail = min(model.tail_from, top + 1)
        self.blocks, self.tail = [], None
        if tail <= top:
            types = layout.types()
            start = int(np.argmax(types == tail))  # the first tail row
            self.tail = slice(start, layout.rows)
            self.blocks.append(self._block(model.law(tail), tail, self.tail))
            # the head rows among the tail block's
            self.heads = start + np.flatnonzero(types[start:] < tail)
        self.blocks += [self._block(model.law(i), i, layout.at(i))
                        for i in range(tail)]
        # at least 0: the band always holds its superdiagonal and diagonal
        # rows, also when every child is one type up
        self.width = max(0, max((row - 1 for _, entries in self.blocks
                                 for _, factors in entries
                                 for _, row, _ in factors), default=0))

    @staticmethod
    def _block(law, lo: int, at):
        """The rows ``at``, all of types with the law of type lo shifted,
        and its outcomes as (prob, ((rows read, band row, count), ...))."""
        return at, [(p, tuple((_shift(at, t - lo), 1 + lo - t, float(c))
                              for t, c in counts))
                    for counts, p in law.outcomes() if counts]

    @np.errstate(divide="ignore", over="ignore")
    def __call__(self, v):
        log_u = None  # taken at the first count other than 1
        n = self.layout.rows
        val = np.empty(n)
        jac = np.zeros((self.width + 2, n))
        for at, entries in self.blocks:
            acc = 0.0
            for p, factors in entries:
                # each factor's complement W_t and exponent c_t log u_t
                comps, exps, pows = [], [], []
                for read, _, cnt in factors:
                    if cnt == 1.0:
                        comps.append(v[read])
                        exps.append(None)
                    else:
                        if log_u is None:
                            log_u = _log_u(v)
                        exps.append(cnt * log_u[read])
                        comps.append(-np.expm1(exps[-1]))
                if len(factors) > 1:  # the factors u_t^c_t themselves
                    pows = [1.0 - w if x is None else np.exp(x)
                            for w, x in zip(comps, exps)]
                acc += p * _combine(comps, pows)
                for f, (read, row, cnt) in enumerate(factors):
                    slope = p * cnt
                    if cnt != 1.0:
                        slope = slope * np.exp((cnt - 1) * log_u[read])
                    for g, pw in enumerate(pows):
                        if g != f:
                            slope = slope * pw
                    jac[row, at] += slope
            val[at] = acc
            if at is self.tail and len(self.heads):
                jac[:, self.heads] = 0.0
        self.layout.pin(v, val, jac)
        return val, jac


# The two family kernels stay: a generic law-table sweep measured 3.3-4.6x
# slower on example2 and 1.4-4.1x slower on thinned tridiagonal ladders.
class _Example2Sweep:
    """V_i = c_i (1 - (1 - t_i)^4) = c_i t_i (4 - 6 t_i + 4 t_i^2 - t_i^3)
    with t_0 = v_1 and t_i = gamma v_{i-1} + (1 - gamma) v_{i+1}."""

    width = 1

    def __init__(self, model: Example2Model, levels):
        self.layout = layout = _Layout(levels)
        self.first = layout.at(0)
        self.gamma = model.gamma
        types = layout.types()
        j = types[types > 0].astype(float)
        self.c = np.full(layout.rows, 0.25)
        self.c[types > 0] = (j + 1) / (4 * j)
        self.c[layout.edges] = 0.0

    def __call__(self, v):
        n, g, first = self.layout.rows, self.gamma, self.first
        t = np.empty(n)
        t[1:] = g * v[0:n - 1] + (1 - g) * v[2:n + 1]
        t[first] = v[_shift(first, 1)]
        val = self.c * t * (4.0 - t * (6.0 - t * (4.0 - t)))
        slope = 4.0 * self.c * (1.0 - t) ** 3
        jac = np.zeros((3, n))
        jac[0] = (1 - g) * slope
        jac[0, first] = slope[first]
        jac[2, 1:] = g * slope[1:]
        jac[2, first] = 0.0
        self.layout.pin(v, val, jac)
        return val, jac


class _TridiagonalSweep:
    """Product of three independent count pgfs (down, same, up), combined
    as V_i = W_dn + (1 - W_dn)(W_sm + (1 - W_sm) W_up) from each factor's
    complement W = 1 - f.  The up factor is thinned: w f_c(x^S) + 1 - w with
    S = ceil(u^i), w = 1/S.  Past the first type whose S saturates to inf,
    all later ones saturate too and weigh w = 0, so the up factor is formed
    on the rows of the types before it only, and is 1 on the rest.  A count
    of 1 at scale 1 contributes p v to its complement and p to its slope;
    only thinned scales (u > 1) and counts of 2 take logs.
    """

    width = 1

    def __init__(self, model: TridiagonalModel, levels):
        self.layout = layout = _Layout(levels)
        self.first = layout.at(0)
        self.thinned = model.u != 1.0
        if self.thinned:
            # the scales of types 0..top + 1, the type of an edge after a
            # top level
            scale = model._scales(max(layout.levels) + 1)
            # the up factor is formed on the rows up to the last of a type
            # with a finite scale; saturated rows among them (in blocks
            # below the last) and edges take the scale 1 and weigh 0
            types = layout.types()
            live = types < np.isfinite(scale).sum()
            live[layout.edges] = False
            self.up = slice(0, int(np.flatnonzero(live)[-1]) + 1)
            live, types = live[self.up], types[self.up]
            self.scale = np.where(live, scale[types], 1.0)
            self.w = np.where(live, 1.0 / self.scale, 0.0)
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
        n, first = self.layout.rows, self.first
        down, same, up = self.pmfs
        comp_dn = np.zeros(n)
        comp_dn[1:], s_dn = self._factor(down, v[0:n - 1])
        comp_dn[first] = 0.0  # type 0 has no type -1 children
        comp_sm, s_sm = self._factor(same, v[0:n])
        if self.thinned:
            comp, slope = self._factor(up, v[1:self.up.stop + 1], self.scale)
            comp_up, s_up = np.zeros(n), np.zeros(n)
            comp_up[self.up] = self.w * comp
            s_up[self.up] = self.w * slope
        else:
            comp_up, s_up = self._factor(up, v[1:n + 1])
        f_dn, f_sm, f_up = 1.0 - comp_dn, 1.0 - comp_sm, 1.0 - comp_up
        val = _combine((comp_dn, comp_sm, comp_up), (f_dn, f_sm))
        jac = np.empty((3, n))
        above, diag, below = jac
        np.multiply(s_up, f_dn, out=above)
        above *= f_sm
        np.multiply(s_sm, f_dn, out=diag)
        diag *= f_up
        np.multiply(f_sm, f_up, out=below)
        below[1:] *= s_dn
        below[first] = 0.0
        self.layout.pin(v, val, jac)
        return val, jac


@lru_cache(maxsize=64)
def _compiled(model: LHBPModel, levels):
    """The survival kernel of ``model`` on the layout of ``levels``, one
    level k or a tuple of levels."""
    if isinstance(model, Example2Model):
        return _Example2Sweep(model, levels)
    if isinstance(model, TridiagonalModel):
        return _TridiagonalSweep(model, levels)
    return _GenericSweep(model, levels)


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
    """Solve (I - J) x = rhs for J given as a kernel's band ``jac``
    (width + 2, n).  An ``rhs`` (n, m) holds m right-hand sides on a
    trailing axis, solved with one elimination; each column of x equals the
    solve of that column alone, bit for bit.

    Gaussian elimination without pivoting: on the solver's path I - J is a
    nonsingular M-matrix, so every pivot is positive, and the upper factor
    keeps the single superdiagonal of I - J.  Width 1, the common case, goes
    to ``_solve_tridiagonal``; wider bands go to ``eliminate_band``.  A zero
    pivot raises ``ZeroDivisionError``.
    """
    band = -jac
    band[1] += 1.0  # the band of I - J
    several = rhs.ndim == 2
    if len(band) == 3:  # width 1
        band[2, 0] = band[0, -1] = 0.0  # couplings outside the system
        # an overflow gives inf, as the loop's Python floats do, for the
        # caller to detect
        with np.errstate(over="ignore", invalid="ignore"):
            if not several:
                return _solve_tridiagonal(band[2], band[1], band[0], rhs)
            return _solve_tridiagonal(band[2, :, None], band[1, :, None],
                                      band[0, :, None], rhs, "F")
    # back-substitution divides by every pivot, a zero one too
    return _back_substitute(*eliminate_band(
        band.tolist(), (rhs.T if several else rhs).tolist()))


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
    """Solve low[i] x[i-1] + diag[i] x[i] + up[i] x[i+1] = rhs[i] for an
    ``rhs`` (n,), or for the m columns of an ``rhs`` (n, m) at once with
    band arrays (n, 1).  The arrays made for rhs-shaped values take the
    memory ``order``: "F" keeps the system's axis contiguous, which numpy
    loops along faster than along a few columns.

    ``low[0]`` and ``up[-1]`` must be 0.  A band of at most
    ``CYCLIC_CROSSOVER`` unknowns goes to the scalar elimination loop, with
    all its right-hand sides.  Otherwise one level of odd-even cyclic
    reduction eliminates the odd unknowns with whole-array operations, which
    leaves a tridiagonal system in the even unknowns; that system is solved
    by recursion and the odd unknowns are recovered from it.  This is
    Gaussian elimination on a symmetric permutation of the matrix, so an
    M-matrix keeps positive pivots.  A zero pivot raises
    ``ZeroDivisionError``.
    """
    n = len(rhs)
    if n <= CYCLIC_CROSSOVER:
        band = [up.ravel().tolist(), diag.ravel().tolist(),
                low.ravel().tolist()]
        cols = rhs.tolist() if rhs.ndim == 1 else rhs.T.tolist()
        return _back_substitute(*eliminate_band(band, cols))
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
    del alpha, gamma  # not held through the recursion
    x_e = _solve_tridiagonal(low_e, diag_e, up_e, rhs_e, order)
    del low_e, diag_e, up_e, rhs_e
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


def _newton(kernel, layout: _Layout, v: np.ndarray, tol: float, caps: list,
            chain: bool):
    """Newton steps in place on the packed survival vector ``v`` of
    ``layout``: one kernel call and one band solve step every level.

    Each level stops on its own: after a step that moves none of its
    coordinates by more than ``tol``, at an exact fixed point, or after its
    entry of ``caps`` in steps; a stopped level keeps its vector while the
    others go on, and the solves leave out the stopped levels below the
    first moving one.  A step that is not finite, or a zero pivot, in the
    shared solve is redone one block at a time, so that only the levels
    whose own step fails fail.  With ``chain`` (boundary 0, ascending
    levels) each level is lifted after every step onto the level below it
    on their shared types (v = min in survival space), stops only after
    that level has stopped, and after a failed step restarts from it; the
    restarts count towards its cap.  A level that fails with no level to
    restart from stops, as a single level does, and so does one whose
    level below has stopped and not moved since its last restart, which
    would only repeat the failed step: its vector is left as it was at a
    zero pivot, and takes a step that is not finite, which also keeps the
    level above from being lifted or restarted from it.  The
    lifts go in ascending order, each from the lifted level below, so every
    chained level ends at or below the level below it.  Returns the
    residual V(v) - v (0 at the edges), and each level's step count and
    convergence flag.
    """
    head = v[:-1]
    blocks = layout.blocks()
    starts = layout.starts.tolist()
    m = len(caps)
    steps, converged = [0] * m, [False] * m
    active = [c > 0 for c in caps]
    broken = [False] * m  # stopped on a step that is not finite
    restarted = [None] * m  # the level below's step count at the restart
    # the rows of each level's types shared with the level below
    shared = [None] + [slice(a.start, a.start + b.stop - b.start)
                       for a, b in zip(blocks[1:], blocks)]

    def settled(b):  # no level below it is still moving
        return not chain or b == 0 or not active[b - 1]

    val, jac = kernel(v)
    while True:
        resid = val - head
        del val
        for b, moving in enumerate(layout.block_any(resid)):
            if active[b] and not moving and settled(b):  # a fixed point
                active[b], converged[b] = False, True
        if not any(active):
            break
        steps = [n + a for n, a in zip(steps, active)]
        first = active.index(True)
        lo = starts[first]
        rhs, band = resid[lo:], jac[:, lo:]
        del jac
        if not all(active[first:]):  # stopped levels solve to a zero step
            rows = np.repeat(active, layout.sizes)[lo:-1]
            rhs, band = np.where(rows, rhs, 0.0), np.where(rows, band, 0.0)
        try:  # and each level's largest step entry
            step = _solve_band(band, rhs)
            moved = [0.0] * first + layout.block_max(np.abs(step), first)
        except ZeroDivisionError:
            moved = [math.nan] * m
        failed = {}  # level: whether its failed step was taken
        if not all(math.isfinite(x) for x, a in zip(moved, active) if a):
            step = np.zeros(len(rhs))
            for b in range(first, m):
                if not active[b]:
                    continue
                at = slice(blocks[b].start - lo, blocks[b].stop - lo)
                try:
                    x = _solve_band(band[:, at], rhs[at])
                except ZeroDivisionError:  # not taken
                    failed[b] = False
                    continue
                step[at] = x
                moved[b] = float(np.max(np.abs(x)))
                if not math.isfinite(moved[b]):
                    failed[b] = True
        del band
        step += head[lo:]
        np.minimum(np.maximum(step, 0.0, out=step), 1.0, out=head[lo:])
        del step
        for b, taken in failed.items():
            if (not chain or b == 0 or broken[b - 1] or steps[b] >= caps[b]
                    or not active[b - 1] and restarted[b] == steps[b - 1]):
                active[b], broken[b] = False, taken
            else:  # restart from the level below, padded with v = 1
                restarted[b] = steps[b - 1]
                head[blocks[b]] = 1.0
                head[shared[b]] = head[blocks[b - 1]]
        if chain:  # in ascending order, each from the lifted level below
            for b in range(max(first, 1), m):
                if active[b] and not broken[b - 1]:
                    own = head[shared[b]]
                    np.minimum(own, head[blocks[b - 1]], out=own)
        val, jac = kernel(v)
        for b in range(first, m):
            if not active[b] or b in failed:
                continue
            if (moved[b] <= tol or moved[b] <= EPS_FLOOR) and settled(b):
                active[b], converged[b] = False, True
            elif steps[b] >= caps[b]:
                active[b] = False
    return resid, steps, converged


def iterate_levels(model: LHBPModel, levels, s: float, tol: float = 1e-12,
                   max_iter: int | None = None,
                   start: np.ndarray | None = None) -> list[TruncationResult]:
    """Solve the level-k truncated generating system with boundary s for
    one level k, or for each k of an ascending sequence ``levels`` as one
    packed Newton system (see ``_Layout`` and ``_newton``); returns a
    result per level.

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

    At s = 0 the levels form a chain: Newton from a sub-solution of the
    monotone system yields sub-solutions (Esparza, Kiefer & Luttenberger
    2010), so at every step each level's iterate, padded with zeros, is a
    valid start for the levels above it.  Each level is lifted onto the one
    below it after every step, stops only after it, and restarts from it
    after a failed step, unless the restart would repeat the last one; the
    returned q vectors are nondecreasing in the level.  At any other s each
    level goes its own way.  Each level stops once a step moves none of its
    coordinates by more than ``tol``.
    ``max_iter`` defaults to k + 100 steps for level k: from a start far
    below the target a step carries the boundary's influence only a few
    types inward (about 5 for qtilde of tridiagonal(0.15, 0.25, 0.7)
    started from its q vector).  ``iterations`` counts Newton steps and
    ``residual`` is max |V(v) - v| at the returned vector, which is given
    in u = 1 - v.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"boundary must lie in [0, 1], got {s}")
    layout = _Layout(levels)
    levels = layout.levels
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be one level or a strictly increasing "
                         f"sequence, got {levels}")
    v = np.ones(layout.rows + 1)
    if start is not None:
        start = np.asarray(start, dtype=float)
        for lo in layout.starts.tolist():
            v[lo:lo + len(start) - 1] = 1.0 - start[:-1]
    v[layout.lasts + 1] = 1.0 - s
    caps = [k + 100 if max_iter is None else max_iter for k in levels]
    kernel = _compiled(model, levels[0] if layout.single else levels)
    resid, steps, converged = _newton(kernel, layout, v, tol, caps,
                                      s == 0.0)
    u = 1.0 - v
    results = []
    for k, lo, *rest in zip(levels, layout.starts.tolist(), steps,
                            layout.block_max(np.abs(resid)), converged):
        row = u[lo:lo + k + 2]
        if start is not None:
            held = row[:len(start) - 1]
            np.maximum(held, start[:-1], out=held)
        row[k + 1] = s
        results.append(TruncationResult(k, s, row, *rest))
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
    level-k result with boundary s < 1 in ``results``, packed as one
    layout.

    With t = v_{k+1} = 1 - s, the solution path v(t) has the tangent
    w = (I - J)^-1 dV/dv_{k+1}, one band solve, and g_k(s) = 1 - v_k(t)
    gives g_k''(s) = -dw_k/dt: the change of w_k along the tangent line
    x - h (w, 1), x = (v, t).  The one-sided quotient D(h) has an O(h)
    error, which 2 D(h/2) - D(h) removes.  The tangent at x is one call on
    the packed levels; the kernel and tangent of both quotient points, h
    and h/2, are one call on the layout of the levels twice over.
    """
    levels = tuple(r.level for r in results)
    layout, pair = _Layout(levels), _Layout(levels * 2)
    x = 1.0 - np.concatenate([r.vector for r in results])
    jac = _compiled(model, levels[0] if layout.single else levels)(x)[1]
    w = layout.tangent(jac)
    line = np.zeros(x.shape)
    line[:-1] = w
    line[layout.lasts + 1] = 1.0
    h = 1e-5  # O(h^2) truncation and eps / h rounding errors near 1e-10
    hs = np.array([h, h / 2])
    points = np.concatenate([x - h * line for h in hs.tolist()])
    ends = pair.tangent(_compiled(model, levels * 2)(points)[1])[pair.lasts]
    quotient = (w[layout.lasts] - ends.reshape(2, -1)) / hs[:, None]
    return quotient[0] - 2.0 * quotient[1]


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

    All q levels are one call of ``iterate_levels`` at s = 0, a chain in
    which each level is lifted onto the one below it after every Newton
    step, so the q ladder is nondecreasing by construction.  qtilde runs
    top-down, one level at a time, since qtilde^(k) decreases in k: the top
    level starts from its own q, each lower level k from the elementwise
    maximum of its q and the next deeper level's qtilde cut to types 0..k,
    unless that level did not converge.  Both starts are sub-solutions of
    the level-k system with boundary 1.  ``iterate_to_limit`` holds each
    result at or above its start, which keeps q <= qtilde and the qtilde
    ladder nonincreasing.  ``window`` (default: all k + 2 entries of the
    smallest level k) sets how many leading coordinates are reported and
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
    q_results = iterate_levels(model, schedule, 0.0, tol=tol)
    qt_results = []
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
