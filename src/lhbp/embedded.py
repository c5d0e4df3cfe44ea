"""Embedded single-type process in a varying environment.

Generation k of the embedded process counts the type-k individuals ever born
in the level-(k-1) sterile truncation.  Its offspring mean mu_k, second
factorial moment a_k, and the first-return mass x_k obey exact recursions in
the model's mean rows and second-moment blocks.  The partial extinction
criterion is that every x_k stays in [0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import LHBPModel, MomentTable

BOUNDARY_TOL = 1e-10


@dataclass
class EmbeddedMoments:
    horizon: int
    mu: np.ndarray
    a: np.ndarray | None
    x: np.ndarray
    m0: np.ndarray
    log_m0: np.ndarray
    ok_through: int          # largest k with a defined mu_k; -1 if none
    kind: str                # "ok" | "blowup" | "boundary"
    k_star: int | None
    table: MomentTable       # rows 0..K that the recursions read


def embedded_moments(model: LHBPModel, K: int, with_a: bool = True) -> EmbeddedMoments:
    """Run the moment recursions up to horizon K, in two passes.

    Only x_k and mu_k are recursive in a nonlinear way: x_k sums the mean
    row of type k against products of the means before it, and mu_k divides
    the upward mean by 1 - x_k.  The first pass runs them alone, one scalar
    step at a time.  Both passes read rows 0..K of one moment table
    (``model.moment_table(K)``), built before the first step, so a recursion
    that stops early still pays for all K + 1 rows.  It stops at the first k
    with x_k >= 1 (within BOUNDARY_TOL of 1 counts as the boundary case);
    entries beyond the stop are undefined and the arrays are truncated
    accordingly.  Row sums in x_k only span the model bandwidth, so the
    per-step window products cannot overflow; the cumulative mean m0 is
    tracked in log space alongside its float value.

    A table of width <= 1 (every family, and explicit models whose children
    reach at most one type down) takes ``_scalar_pass``, a loop over its
    columns; a wider one takes ``_general_pass``.  Both take the same
    float operations in the same order, so either gives bitwise the same
    numbers.

    With ``with_a``, a second pass computes the second factorial moments a_k
    from the means and the table (``_second_moments``).  Both passes skip the
    table's absent (zero) entries.

    Each loop stops stepping at a float fixed point (``_spans``): once its
    inputs are constant and a step repeats its state, every later row
    repeats the last one, and ``_filled`` writes them at once.  The output
    is bitwise that of stepping every row, so a homogeneous tail (the
    tridiagonal family, explicit models past their head) costs the steps
    to its fixed point, not K.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    table = model.moment_table(K)
    mus, xvals = (_scalar_pass if table.width <= 1 else _general_pass)(table, K)
    kind, k_star, n = "ok", None, K + 1  # n: the rows with a mean
    if len(xvals) > len(mus):  # stopped at x_k >= 1
        n = k_star = len(mus)
        kind = "boundary" if abs(xvals[-1] - 1.0) <= BOUNDARY_TOL else "blowup"
    mu = _filled(mus, n)
    x = _filled(xvals, max(n, len(xvals)))  # a stop keeps its x_k
    # math.log, not np.log, which differs from it in the last bit at times;
    # a filled row repeats the log of the last stepped mean
    logs = (map(math.log, mus) if (mu > 0).all()
            else (math.log(m) if m > 0 else -math.inf for m in mus))
    log_arr = _filled(np.fromiter(logs, float, len(mus)), n).cumsum()
    with np.errstate(over="ignore"):
        m0 = np.exp(log_arr)
    return EmbeddedMoments(
        horizon=K,
        mu=mu,
        a=_second_moments(table, mu, 1.0 - x[:n]) if with_a else None,
        x=x,
        m0=m0,
        log_m0=log_arr,
        ok_through=n - 1,
        kind=kind,
        k_star=k_star,
        table=table,
    )


# the scalar loops read their columns this many rows at a time, so that a
# recursion that stops early converts only the rows it reaches; every loop
# whose inputs are constant tests for a fixed point every _TAIL rows.  The
# search for constant inputs costs 15-50 us, so up to _SEARCH_FROM rows
# each row is stepped: in timings of embedded_moments the search paid off
# from about 150 rows (tridiagonal(0.25, 0, 0.25)) to 300 rows
# (tridiagonal(0.1, 0.3, 1.1)), and never on example2.
_CHUNK = 4096
_TAIL = 32
_SEARCH_FROM = 256


def _spans(inputs, n: int, w: int):
    """Row ranges (lo, hi) that cover rows 0..n-1 of a recursion, each with
    a flag that says whether its last step may test for a fixed point.

    Step k of the recursion reads the ``inputs`` (arrays of one or more
    columns, rows on the last axis) at rows k - w..k or fewer, and its
    state, at most the last w outputs.  From row s + w on, where s is the
    first row from which every input column holds the same bits, every
    step reads the same inputs; a step there whose state repeats (the last
    w + 1 outputs compare equal, which no NaN does) is a float fixed point,
    and every later row repeats its output bit for bit (``_repeats``).  The
    flagged ranges are short, so that the recursion stops soon after.  Up
    to ``_SEARCH_FROM`` rows are one unflagged range, with no search.
    """
    if n <= _SEARCH_FROM:
        yield 0, n, False
        return
    cols = [np.atleast_2d(c) for c in inputs]
    # an input that moves in its last row leaves no constant tail; a cheap
    # test by value first (NaN moves, and -0.0 == 0.0 goes on to the bits)
    if n > 1 and any((c[:, -1] != c[:, -2]).any() for c in cols):
        s = n - 1
    else:
        bits = np.vstack(cols).view(np.int64)
        moved = np.flatnonzero((bits[:, 1:] != bits[:, :-1]).any(axis=0))
        s = int(moved[-1]) + 1 if len(moved) else 0
    s = min(s + w, n)
    for lo in range(0, s, _CHUNK):
        yield lo, min(lo + _CHUNK, s), False
    for lo in range(s, n, _TAIL):
        yield lo, min(lo + _TAIL, n), True


def _repeats(vals: list[float], w: int) -> bool:
    """Whether the last w + 1 of ``vals`` compare equal (NaN never does).

    A zero's sign is not compared: every loop adds a state value's product
    to a sum that starts at 0.0, which takes the same value either way."""
    last = vals[-1]
    return all(v == last for v in vals[-1 - w:-1])


def _filled(vals, n: int) -> np.ndarray:
    """The n rows of a recursion that stepped the rows of ``vals`` and
    stopped at a fixed point: every later row repeats the last value."""
    out = np.array(vals, dtype=float)
    if len(out) < n:
        out = np.concatenate((out, np.full(n - len(out), out[-1])))
    return out


def _scalar_pass(table: MomentTable, K: int) -> tuple[list[float], list[float]]:
    """mu_k and x_k up to K, or up to the first x_k >= 1 - BOUNDARY_TOL
    (whose mu_k is left out), for a table of width <= 1; the rows past a
    fixed point are left to the caller.

    x_k = m_{k,k-1} mu_{k-1} + m_{k,k}, each term skipped when its mean is
    absent; a width-0 table has no m_{k,k-1}.
    """
    mus: list[float] = []
    xvals: list[float] = []
    mu = 1.0  # mu_{k-1}; at k = 0 no child is one type down
    pad = [repeat(0.0)] * (1 - table.width)
    for lo, hi, settled in _spans([table.mean], K + 1, 1):
        cols = pad + [c[lo:hi].tolist() for c in table.mean]
        for m_down, m_same, m_up in zip(*cols):
            x = 0.0
            if m_down:
                x += m_down * mu
            if m_same:
                x += m_same
            xvals.append(x)
            # a boundary or a blowup; the caller tells which (NaN goes on)
            if x - 1.0 >= -BOUNDARY_TOL:
                return mus, xvals
            mu = m_up / (1.0 - x)
            mus.append(mu)
        if settled and _repeats(mus, 1):
            break
    return mus, xvals


def _general_pass(table: MomentTable, K: int) -> tuple[list[float], list[float]]:
    """``_scalar_pass`` for a table of any width w: x_k sums m_{k,k-w+t}
    times the window mu_{k-w+t} * ... * mu_{k-1}, for t = 0..w."""
    mus: list[float] = []
    xvals: list[float] = []
    w = table.width
    up = memoryview(table.mean[w + 1])
    down = [(t, memoryview(col)) for t, (col, present) in enumerate(
        zip(table.mean[:-1], table.mean[:-1].any(axis=1))) if present]
    # win[t] = mu_{k-w+t} * ... * mu_{k-1}, multiplied left to right; slots
    # of negative types hold junk no entry reads
    win = [1.0] * (w + 1)
    slide = range(w)  # built once: a range per step costs more
    for lo, hi, settled in _spans([table.mean], K + 1, w):
        for k in range(lo, hi):
            x_k = 0.0
            for t, col in down:
                m = col[k]
                if m:
                    x_k += m * win[t]
            xvals.append(x_k)
            if x_k - 1.0 >= -BOUNDARY_TOL:
                return mus, xvals
            mu_k = up[k] / (1.0 - x_k)
            mus.append(mu_k)
            for t in slide:  # slide the window one type up
                win[t] = win[t + 1] * mu_k
        if settled and _repeats(mus, w):
            break
    return mus, xvals


def _second_moments(table: MomentTable, mu: np.ndarray,
                    denoms: np.ndarray) -> np.ndarray:
    """a_0..a_{n-1} for the n means ``mu`` and their 1 - x_k ``denoms``.

    a_k = (term1_k + term2_k) / (1 - x_k).  term2_k pairs the second
    factorial moments of row k with the reach of each child type, and needs
    only the means, so it is computed for all k at once.  term1_k carries
    the a_l of the w types below k and is linear in them; it runs as one
    scalar sweep over precomputed lists, ``_scalar_sweep`` for a table of
    width <= 1 and ``_general_sweep`` for a wider one, each stopped at a
    float fixed point (``_spans``).  Every product and sum is taken in the
    order of the one-step recursion, so the results are bitwise those of
    stepping it.
    """
    n, w = len(mu), table.width
    # win[t, k] = mu_{k-w+t} * ... * mu_{k-1} and reach[t, k] = win[t, k] *
    # mu_k, the mean number of type-(k+1) first visits per type-(k-w+t)
    # individual (reach[w + 1] = 1 for type k+1 itself); each window slot is
    # the next one a step earlier, times mu
    win = np.ones((w + 1, n))
    reach = np.ones((w + 2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(w, -1, -1):
            win[t, 1:] = reach[t + 1, :-1]
            np.multiply(win[t], mu, out=reach[t])
        # the weight 2 counts the pairs (i, j) and (j, i) once each
        term2 = np.zeros(n)
        for (d1, d2), col in zip(table.pairs, table.a):
            v = col[:n]
            np.add(term2, reach[w + d1] * reach[w + d2] * v
                   * (1.0 if d1 == d2 else 2.0), out=term2, where=v != 0)
    # every input a step reads: the back means, the windows, term2 and 1 - x
    spans = _spans([table.mean[:w, :n], win, reach, term2, denoms], n,
                   max(w, 1))
    if w <= 1:
        avals = _scalar_sweep(table, mu, term2, denoms, spans)
    else:
        avals = _general_sweep(table, win, reach, term2, denoms, spans)
    return _filled(avals, n)


def _scalar_sweep(table: MomentTable, mu: np.ndarray, term2: np.ndarray,
                  denoms: np.ndarray, spans) -> list[float]:
    """The a_k of a table of width <= 1, over the row ranges ``spans``:
    term1_k = m_{k,k-1} * a_{k-1} * mu_k^2, the window before mu_k being
    empty."""
    avals: list[float] = []
    a = 0.0  # a_{k-1}; at k = 0 no child is one type down
    for lo, hi, settled in spans:
        ms = table.mean[0, lo:hi].tolist() if table.width else repeat(0.0)
        for m, r, t2, denom in zip(ms, mu[lo:hi].tolist(),
                                   term2[lo:hi].tolist(),
                                   denoms[lo:hi].tolist()):
            # both sums start at 0.0, as in _general_sweep
            term1 = 0.0 + m * (0.0 + a * r * r) if m else 0.0
            a = (term1 + t2) / denom
            avals.append(a)
        if settled and _repeats(avals, 1):
            break
    return avals


def _general_sweep(table: MomentTable, win: np.ndarray, reach: np.ndarray,
                   term2: np.ndarray, denoms: np.ndarray,
                   spans) -> list[float]:
    """The a_k of a table of any width w, with the window products ``win``
    and ``reach`` of ``_second_moments``, over the row ranges ``spans``."""
    n, w = len(term2), table.width
    # term1_k = sum over the back slots t of m_{k,i} (i = k - w + t) times
    # the sum over l in [i, k) of a_l * win[w - l + i, l] * reach[l+1-k+w, k]^2
    back = [(col[:n].tolist(),
             [(t + j - w, win[w - j].tolist(), reach[t + j + 1].tolist())
              for j in range(w - t)])
            for t, col in enumerate(table.mean[:w]) if col[:n].any()]
    t2s, ds = term2.tolist(), denoms.tolist()
    avals: list[float] = []
    for lo, hi, settled in spans:
        for k in range(lo, hi):
            term1 = 0.0
            for ms, parts in back:
                m = ms[k]
                if m:
                    s = 0.0
                    for off, run, tail in parts:
                        l = k + off
                        r = tail[k]
                        s += avals[l] * run[l] * r * r
                    term1 += m * s
            avals.append((term1 + t2s[k]) / ds[k])
        if settled and _repeats(avals, w):
            break
    return avals


# ---------------------------------------------------------------------------
# partial extinction verdict

VERDICT_SURVIVAL = "PartialSurvival"
VERDICT_CERTAIN = "PartialExtinctionCertain"
VERDICT_LIKELY = "PartialExtinctionLikely"
VERDICT_BOUNDARY = "Boundary"


# The certificate's relative outward rounding of the window maximum, X(M)
# and f(M); the relative step past f(M) while searching for M, and the cap
# on search steps.  The scan stops for a certificate at these short
# horizons, where starting over costs little, and at K.
CERT_MARGIN = 1e-12
CERT_SLACK = 1e-3
CERT_STEPS = 8
CERT_HORIZONS = (8, 32)


@dataclass
class PartialVerdict:
    verdict: str
    k_decided: int | None
    horizon: int
    mu_bound: float | None = None   # a certificate's M
    x_bound: float | None = None    # and its X(M)

    @property
    def survival_side(self) -> bool:
        """True when the verdict certifies q-tilde < 1."""
        return self.verdict in (VERDICT_SURVIVAL, VERDICT_BOUNDARY)


def _certificate(band: tuple[float, ...], mus: np.ndarray):
    """(M, X(M)) proving x_j < 1 for every type j after the last of ``mus``,
    or None.

    ``band`` bounds the mean column of every later type (the layout of
    ``LHBPModel.tail_band``: down offsets -w..0, then the up mean).  Let
    X(M) = sum_d band[-d] M^d and f(M) = up / (1 - X(M)).  If the last w
    means are at most M, X(M) < 1 - BOUNDARY_TOL and f(M) <= M, then by
    induction each later x_j <= X(M) and mu_j <= f(M) <= M, since x_j grows
    with the w means before it and mu_j with x_j.  The window maximum, X(M)
    and f(M) are each rounded up by the relative CERT_MARGIN.  M starts at
    the window maximum and moves to f(M), stepped CERT_SLACK past it, at
    most CERT_STEPS times.
    """
    *down, up = band
    w = len(down) - 1
    M = max(mus[-w:].tolist() if w else (), default=0.0) * (1 + CERT_MARGIN)
    for _ in range(CERT_STEPS):
        X = 0.0
        for m in down:  # Horner, from offset -w
            X = X * M + m
        X *= 1 + CERT_MARGIN
        if not X < 1.0 - BOUNDARY_TOL:
            return None
        F = up / (1.0 - X) * (1 + CERT_MARGIN)
        if F <= M:
            return M, X
        M = F * (1 + CERT_SLACK)
    return None


def partial_verdict(model: LHBPModel, K: int = 5000) -> PartialVerdict:
    """Decide the partial extinction criterion over horizon K.

    x_k > 1 certifies partial survival; x_k = 1 (within tolerance) also
    forces it, via a longer first-return loop through some higher type.  On
    the extinction side the scan stops at each of CERT_HORIZONS below K and
    at K, and ends at the first stop where the model's ``tail_band`` yields
    an invariant bound on every later mean (``_certificate``): that proves
    each later x_j < 1 ("Certain", with the bound M and X(M)).  A model
    without a tail band, or whose band admits no such bound, is scanned to
    K and stays horizon-limited ("Likely").
    """
    for h in [h for h in CERT_HORIZONS if h < K] + [K]:
        mom = embedded_moments(model, h, with_a=False)
        if mom.kind == "blowup":
            return PartialVerdict(VERDICT_SURVIVAL, mom.k_star, K)
        if mom.kind == "boundary":
            return PartialVerdict(VERDICT_BOUNDARY, mom.k_star, K)
        band = model.tail_band(h + 1)
        cert = band and _certificate(band, mom.mu)
        if cert:
            return PartialVerdict(VERDICT_CERTAIN, h, K, *cert)
    return PartialVerdict(VERDICT_LIKELY, None, K)
