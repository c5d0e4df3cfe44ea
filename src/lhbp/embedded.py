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

import numpy as np

from .model import LHBPModel, MomentTable

BOUNDARY_TOL = 1e-10
# rows of the first moment table: most recursions that stop early (x_k >= 1)
# do so within a few steps, and a table of K rows costs O(K) to build
FIRST_ROWS = 64


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
    table: MomentTable       # the rows the recursions read last

    def status_at(self, k: int) -> str:
        if self.kind != "ok" and k >= self.k_star:
            return f"{self.kind}({self.k_star})"
        return "ok"


def _columns(table: MomentTable, with_a: bool):
    """The table's present columns, as memoryviews: they yield Python floats
    without converting rows that a recursion stopping early never reads.

    Returns (width, up, down, back, pairs): ``down`` holds (slot, column) of
    each offset d = slot - width <= 0 present in some row, ``back`` those
    with d < 0, and ``pairs`` (slot1, slot2, weight, column) of the second
    factorial pairs, the weight 2 counting (i, j) and (j, i) once each.
    """
    w = table.width
    down = [(t, memoryview(col)) for t, (col, present)
            in enumerate(zip(table.mean[:-1], table.mean[:-1].any(axis=1)))
            if present]
    pairs = [(w + d1, w + d2, 1.0 if d1 == d2 else 2.0, memoryview(col))
             for (d1, d2), col, present
             in zip(table.pairs, table.a, table.a.any(axis=1))
             if with_a and present]
    return (w, memoryview(table.mean[w + 1]), down,
            [(t, col) for t, col in down if t < w], pairs)


def embedded_moments(model: LHBPModel, K: int, with_a: bool = True) -> EmbeddedMoments:
    """Run the moment recursions up to horizon K.

    The rows come from the model's moment table (``model.moment_table``):
    one of FIRST_ROWS rows, then one of all K + 1 rows if the recursion gets
    past it.  The recursions skip the table's absent (zero) entries.  Stops
    at the first k with x_k >= 1 (within BOUNDARY_TOL of 1 counts as the
    boundary case); entries beyond the stop are undefined and the arrays are
    truncated accordingly.  Row sums in x_k only span the model bandwidth,
    so the per-step window products cannot overflow; the cumulative mean m0
    is tracked in log space alongside its float value.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    mus: list[float] = []
    avals: list[float] = []
    xvals: list[float] = []
    kind, k_star = "ok", None
    rows = -1  # last row of the current table
    for k in range(K + 1):
        if k > rows:
            rows = min(K, FIRST_ROWS - 1) if rows < 0 else K
            table = model.moment_table(rows)
            w, up, down, back, pairs = _columns(table, with_a)
            # win[t] = mu_{k-w+t} * ... * mu_{k-1}, multiplied left to right
            # (the update at the end of each step, replayed over the last w
            # means); slots of negative types hold junk no entry reads
            win = [1.0] * (w + 1)
            for mu in mus[max(k - w, 0):]:
                win = [p * mu for p in win[1:]] + [1.0]
        x_k = 0.0
        for t, col in down:
            m = col[k]
            if m:
                x_k += m * win[t]
        xvals.append(x_k)
        if abs(x_k - 1.0) <= BOUNDARY_TOL:
            kind, k_star = "boundary", k
            break
        if x_k > 1.0:
            kind, k_star = "blowup", k
            break
        denom = 1.0 - x_k
        mu_k = up[k] / denom
        mus.append(mu_k)
        if not with_a:
            for t in range(w):  # slide the window one type up
                win[t] = win[t + 1] * mu_k
            continue
        # reach[t] = m_{k-w+t -> k} * mu_k, the mean number of type-(k+1)
        # first visits per type-(k-w+t) individual; 1 for type k+1 itself
        reach = [p * mu_k for p in win]
        reach.append(1.0)
        term2 = 0.0
        for t1, t2, f, col in pairs:
            v = col[k]
            if v:
                term2 += reach[t1] * reach[t2] * v * f
        term1 = 0.0
        for t, col in back:
            m = col[k]
            if m:
                s = 0.0
                run = 1.0  # mu_i * ... * mu_{l-1}
                for l in range(k - w + t, k):
                    tail = reach[l + 1 - k + w]  # m_{l+1 -> k} * mu_k
                    s += avals[l] * run * tail * tail
                    run *= mus[l]
                term1 += m * s
        avals.append((term1 + term2) / denom)
        win = reach[1:]
    log_arr = np.array([math.log(m) if m > 0 else -math.inf for m in mus],
                       dtype=float).cumsum()
    with np.errstate(over="ignore"):
        m0 = np.exp(log_arr)
    return EmbeddedMoments(
        horizon=K,
        mu=np.array(mus),
        a=np.array(avals) if with_a else None,
        x=np.array(xvals),
        m0=m0,
        log_m0=log_arr,
        ok_through=len(mus) - 1,
        kind=kind,
        k_star=k_star,
        table=table,
    )


# ---------------------------------------------------------------------------
# partial extinction verdict

VERDICT_SURVIVAL = "PartialSurvival"
VERDICT_CERTAIN = "PartialExtinctionCertain"
VERDICT_LIKELY = "PartialExtinctionLikely"
VERDICT_BOUNDARY = "Boundary"


# The certificate's relative outward rounding of the window maximum, X(M)
# and f(M); the relative step past f(M) while searching for M, and the cap
# on search steps.  The scan stops for a certificate at these horizons, all
# inside the first table, where starting over costs little, and at K.
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
