"""Decision procedures: the global extinction criterion, two-sided truncation
bounds, strong local survival, and the four-way classifier q = qt = 1,
q < qt = 1, q < qt < 1, q = qt < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedded import (VERDICT_CERTAIN, EmbeddedMoments, embedded_moments,
                       partial_verdict)
from .generating import (ComputationError, eliminate_band,
                         g_second_derivatives, iterate_levels)
from .model import LHBPModel, TailModel, TridiagonalModel

GLOBAL_EXTINCTION = "GlobalExtinction"
GLOBAL_SURVIVAL_POSSIBLE = "GlobalSurvivalPossible"
INCONCLUSIVE = "Inconclusive"

SLS = "StrongLocalSurvival"
NON_SLS = "NonStrongLocalSurvival"

REGIME_1 = "QeqQtildeEq1"
REGIME_2 = "QltQtildeEq1"
REGIME_3 = "QltQtildeLt1"
REGIME_4 = "QeqQtildeLt1"
UNRESOLVED = "Unresolved"


class PartialSurvivalRegimeError(ValueError):
    """Closed-form partial extinction criterion fails (qt < 1)."""


def tridiagonal_mu_limit(a: float, b: float, c: float) -> float:
    """Limit of the embedded means for the tridiagonal family.

    Requires a, c > 0; valid only when b < 1 and (1-b)^2 - 4ac >= 0, in which
    case mu_k increases to the smaller root of a x^2 - (1-b) x + c = 0.
    The root is evaluated as 2c / ((1-b) + sqrt(disc)) to avoid cancellation.
    """
    if a <= 0 or c <= 0:
        raise ValueError("tridiagonal closed form needs a > 0 and c > 0")
    disc = (1.0 - b) ** 2 - 4.0 * a * c
    if b >= 1.0 or disc < 0.0:
        raise PartialSurvivalRegimeError(
            f"b < 1 and (1-b)^2 - 4ac >= 0 fails (b={b}, disc={disc})")
    return 2.0 * c / ((1.0 - b) + math.sqrt(disc))


# ---------------------------------------------------------------------------
# global extinction criterion


@dataclass
class HypothesisFlags:
    ratio_sup: float            # sup of a_k / mu_k over the horizon
    ratio_bounded: bool         # running max stable over the last half
    min_double_birth: float     # inf_k P(at least two type-(k+1) children)

    @property
    def ok(self) -> bool:
        return self.ratio_bounded and self.min_double_birth > 0.0


@dataclass
class GlobalVerdict:
    verdict: str
    rule: str
    horizon: int
    series_partial_sum: float
    raabe_stats: np.ndarray
    flags: HypothesisFlags | None


def _hypothesis_flags(mom: EmbeddedMoments) -> HypothesisFlags:
    mu, a = mom.mu, mom.a
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratio = np.where(mu > 0, a / mu, np.inf)
    run_max = np.maximum.accumulate(ratio)
    half = len(ratio) // 2
    sup = float(run_max[-1])
    if not math.isfinite(sup):
        bounded = False
    else:
        bounded = (run_max[-1] - run_max[half]) <= 1e-6 * max(run_max[half], 1e-300)
    dbl = np.min(mom.table.p_double_up[:mom.ok_through + 1])
    return HypothesisFlags(sup, bool(bounded), float(dbl))


def global_verdict(model: LHBPModel, K: int = 4000) -> GlobalVerdict:
    """Decide q = 1 vs q < 1 on the partial-extinction side.

    Order of rules: (0) a certified qt < 1 (the x-criterion fails within the
    horizon of the same moment table) makes survival possible outright;
    (1) cumulative means collapsing to zero force extinction by the Markov
    inequality, with no extra hypotheses; (family) the tridiagonal closed
    form with the upward-thinning comparison u vs mu; (2) the ratio test on
    k (mu_{k+1} - 1) over the tail window, with the harmonic boundary handled
    by direct comparison of m_{0->k} against linear growth; (3) Inconclusive.
    Rules (2) carry second-moment hypotheses: their verdicts are downgraded
    to Inconclusive, with a ``+flags-failed`` rule suffix, when the reported
    flags fail.
    """
    mom = embedded_moments(model, K, with_a=True)
    if mom.kind != "ok":
        return GlobalVerdict(GLOBAL_SURVIVAL_POSSIBLE, "partial-survival", K,
                             math.nan, np.array([]), None)
    with np.errstate(over="ignore"):
        series = float(np.sum(np.exp(-mom.log_m0)))
    n = len(mom.mu)
    ks = np.arange(1, n - 1, dtype=float)
    raabe = ks * (mom.mu[2:] - 1.0)
    flags = _hypothesis_flags(mom)

    tail = slice(int(0.8 * len(mom.m0)), None)

    # rule 1: mean collapse
    if float(np.max(mom.m0[tail])) < 1e-6:
        return GlobalVerdict(GLOBAL_EXTINCTION, "mean-collapse", K,
                             series, raabe, flags)

    # family closed form (no second-moment hypotheses needed)
    if isinstance(model, TridiagonalModel) and model.a > 0 and model.c > 0:
        try:
            mu_lim = tridiagonal_mu_limit(model.a, model.b, model.c)
        except PartialSurvivalRegimeError:
            return GlobalVerdict(GLOBAL_SURVIVAL_POSSIBLE,
                                 "closed-form-partial-survival", K,
                                 series, raabe, flags)
        if mu_lim < 1.0 - 1e-12:
            return GlobalVerdict(GLOBAL_EXTINCTION, "closed-form-subcritical",
                                 K, series, raabe, flags)
        if model.u > mu_lim + 1e-12:
            return GlobalVerdict(GLOBAL_EXTINCTION, "thinning-dominates-mean",
                                 K, series, raabe, flags)
        if model.u < mu_lim - 1e-12:
            return GlobalVerdict(GLOBAL_SURVIVAL_POSSIBLE,
                                 "closed-form-supercritical", K,
                                 series, raabe, flags)
        # u == mu_lim: undecided by the closed form; fall through

    # rule 2: ratio test on the tail window
    rtail = raabe[int(0.8 * len(raabe)):]
    margin = 0.05
    if len(rtail):
        lo, hi = float(np.min(rtail)), float(np.max(rtail))
        if lo > 1.0 + margin:
            v = GlobalVerdict(GLOBAL_SURVIVAL_POSSIBLE, "raabe-convergent", K,
                              series, raabe, flags)
            return v if flags.ok else _downgrade(v)
        if hi < 1.0 - margin:
            v = GlobalVerdict(GLOBAL_EXTINCTION, "raabe-divergent", K,
                              series, raabe, flags)
            return v if flags.ok else _downgrade(v)
        if 1.0 - margin <= lo and hi <= 1.0 + margin:
            # harmonic boundary: does m_{0->k} grow linearly?
            kk = np.arange(len(mom.m0), dtype=float)[tail] + 1.0
            lin = mom.m0[tail] / kk
            if np.all(np.isfinite(lin)) and np.min(lin) > 0:
                rel = (np.max(lin) - np.min(lin)) / np.max(lin)
                if rel < 0.05:
                    v = GlobalVerdict(GLOBAL_EXTINCTION, "harmonic-comparison",
                                      K, series, raabe, flags)
                    return v if flags.ok else _downgrade(v)
    return GlobalVerdict(INCONCLUSIVE, "undecided", K, series, raabe, flags)


def _downgrade(v: GlobalVerdict) -> GlobalVerdict:
    v.verdict = INCONCLUSIVE
    v.rule += "+flags-failed"
    return v


# ---------------------------------------------------------------------------
# two-sided truncation bounds


@dataclass
class AgrestiBounds:
    level: int
    lower: float
    upper: float
    q: float  # q_i of the level-k truncation, from the same chain


# Entries of one packed chain of levels (k + 2 for level k) that
# agresti_bounds solves at once: the levels of a chain to k = 125 fit in
# one chain, and at k = 1000 a chain holds 8 levels.  On ex2(0) at
# k = 1000, budgets from 2^12 to 2^16 entries took the same time.
BATCH_CELLS = 1 << 13


def agresti_bounds(model: LHBPModel, i: int, levels) -> list[AgrestiBounds]:
    """Two-sided bounds on coordinate i of the level-(k-1) global extinction
    vector for each k in ``levels``, valid on the partial-extinction side
    for 1 <= i < k, next to coordinate i of the level-k vector itself.

    The brackets of level k are built from mu_j and g_j''(0), j = i .. k-1,
    which describe the level-(k-1) truncation.  Each level j = i ..
    max(levels) is solved at s = 0 once, in packed chains of consecutive
    levels of at most ``BATCH_CELLS`` entries, each chain warm-started from
    the last level of the one before; g_j''(0) and q_i are read off those
    solves, a chain at a time; ``ComputationError`` if a level does not
    converge.
    """
    levels = list(levels)
    if not levels or not all(1 <= i < k for k in levels):
        raise ValueError("need at least one level k, and 1 <= i < k for "
                         f"each, got i={i}, levels {levels}")
    top = max(levels)
    moments = embedded_moments(model, top - 1, with_a=True)
    if moments.ok_through < top - 1:
        raise ValueError("bounds need the partial-extinction regime "
                         f"(x hits 1 at k={moments.k_star})")
    q, second = [], []  # q_i and g_j''(0) of level j = i .. top
    prev = None
    for lo, hi in _batches(i, top):
        results = iterate_levels(model, range(lo, hi + 1), 0.0, start=prev)
        for res in results:
            if not res.converged:
                raise ComputationError(f"bounds: level {res.level} did not "
                                       "converge at boundary 0")
        prev = results[-1].vector
        q += [float(res.vector[i]) for res in results]
        second += g_second_derivatives(model, results).tolist()
    # Python floats, so that m_ij may overflow or underflow quietly
    mu, a = moments.mu.tolist(), moments.a.tolist()
    # The brackets B = 1/m_ij + sum_j c_j / (mu_j m_ij), m_ij = mu_i ... mu_j,
    # c_j = a_j (upper) or g_j''(0) / 2 (lower), give the bounds 1 - 1/B.
    # They are carried times w = min(m_ij, 1), as wB = 1 / max(m_ij, 1) + s,
    # s = w * sum: an m_ij that underflows to 0 gives the bound 1, one that
    # overflows gives 1 - 1/sum, and neither divides by 0 or inf.
    m_ij = 1.0
    s_upper = 0.0
    s_lower = 0.0
    found = {}
    for j in range(i, top):  # level j + 1's brackets come from step j
        m_prev, m_ij = m_ij, m_ij * mu[j]
        w, scale = min(m_ij, 1.0), max(m_ij, 1.0)
        # rescale the sums from weight min(m_prev, 1) to w
        f = mu[j] if max(m_prev, m_ij) <= 1.0 else w / min(m_prev, 1.0)
        s_upper = f * s_upper + a[j] / (mu[j] * scale)
        # g_j is a generating function, so g_j''(0) >= 0
        s_lower = (f * s_lower
                   + 0.5 * max(second[j - i], 0.0) / (mu[j] * scale))
        found[j + 1] = AgrestiBounds(j + 1, _bound(w, 1.0 / scale + s_lower),
                                     _bound(w, 1.0 / scale + s_upper),
                                     q[j + 1 - i])
    return [found[k] for k in levels]


def _batches(lo: int, top: int):
    """Consecutive level ranges (lo, hi) covering lo..top, each a chain of
    at most ``BATCH_CELLS`` entries, or of one level."""
    while lo <= top:
        hi, cells = lo, lo + 2
        while hi < top and cells + hi + 3 <= BATCH_CELLS:
            hi += 1
            cells += hi + 2
        yield lo, hi
        lo = hi + 1


def _bound(w: float, wb: float) -> float:
    """max(0, 1 - 1/B) from wb = w B; 0 also where the bracket B is 0."""
    return 1.0 - w / wb if wb > w else 0.0


# ---------------------------------------------------------------------------
# strong local survival


# unshifted, a head with rho = 1, e.g. ex2(0.5) at k = 1, has a zero pivot
HEAD_SHIFT = 1e-9


def first_supercritical_head(model: LHBPModel,
                             k_max: int) -> tuple[int, float] | None:
    """(k, d_k) for the first k <= k_max whose head M^(k), the mean matrix of
    types 0..k, has spectral radius >= s = 1 + HEAD_SHIFT; else None.  For
    the Z-matrix sI - M^(k_max), rho(M^(k)) < s holds exactly when its
    pivots d_0..d_k are positive (Berman & Plemmons 1994, ch. 6: they are
    ratios of leading principal minors).  Later heads contain M^(k)."""
    table = model.moment_table(k_max)
    # the table holds offsets -width..1, the kernels' band 1..-width
    band = (-table.mean[::-1]).tolist()
    band[1] = (1.0 + HEAD_SHIFT - table.mean[table.width]).tolist()
    pivots, _, _ = eliminate_band(band, [0.0] * (k_max + 1))
    return next(((k, d) for k, d in enumerate(pivots) if d <= 0.0), None)


@dataclass
class SLSVerdict:
    result: str
    k_used: int | None
    first_supercritical_head: int | None
    head_pivot: float | None
    tail_global: GlobalVerdict | None
    scanned: int


def sls_verdict(model: LHBPModel, k_budget: int = 64,
                K: int = 2000) -> SLSVerdict:
    """Partition scan for the strong local survival test.

    Finds the first cut level whose head has spectral radius > 1 while the
    relabelled tail passes the partial-extinction x-criterion; strong local
    survival then holds iff the tail goes globally extinct.  One elimination
    finds the first supercritical head k*, and every cut from k* on has one;
    each tail needs one ``global_verdict``, whose ``partial-survival`` rule
    is the failed x-criterion (the lower-left coupling block is finite).

    With no supercritical head up to ``k_budget``, raises ``ValueError``
    when the x-criterion proves qt = 1 (``PartialExtinctionCertain``, as for
    tridiagonal(0.25, 0.25, 0.5)) and is Inconclusive otherwise.  Every tail
    of a tridiagonal model with u = 1 is the model itself, so there the
    first tail that fails the x-criterion ends the scan Inconclusive.
    """
    head = first_supercritical_head(model, k_budget)
    if head is None:
        if partial_verdict(model, K).verdict == VERDICT_CERTAIN:
            raise ValueError(
                "strong local survival test needs the qt < 1 regime")
        return SLSVerdict(INCONCLUSIVE, None, None, None, None, k_budget + 1)
    for k in range(head[0], k_budget + 1):
        gv = global_verdict(TailModel(model, k), K)
        if gv.rule != "partial-survival":
            result = {GLOBAL_EXTINCTION: SLS,
                      GLOBAL_SURVIVAL_POSSIBLE: NON_SLS}.get(gv.verdict)
            return SLSVerdict(result or INCONCLUSIVE, k, *head, gv, k + 1)
        # without upward thinning every tail of a tridiagonal model is the
        # model itself (type 0 loses only down-children it never has)
        if isinstance(model, TridiagonalModel) and model.u == 1.0:
            return SLSVerdict(INCONCLUSIVE, None, *head, None, k + 1)
    return SLSVerdict(INCONCLUSIVE, None, *head, None, k_budget + 1)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Budget:
    partial_horizon: int = 5000
    global_horizon: int = 4000
    sls_level_budget: int = 64
    sls_tail_horizon: int = 2000


@dataclass
class Classification:
    regime: str
    certificates: list[dict] = field(default_factory=list)


def classify(model: LHBPModel, budget: Budget | None = None) -> Classification:
    """Four-way regime decision with a machine-checkable certificate trail.

    The strong local survival scan splits the qtilde < 1 side, which the
    partial verdict proves, or a global rule ending in ``partial-survival``;
    the global verdict splits the other side.
    """
    budget = budget or Budget()
    certs: list[dict] = []
    pv = partial_verdict(model, budget.partial_horizon)
    certs.append({"test": "partial_verdict",
                  "inputs": {"K": budget.partial_horizon},
                  "outcome": pv.verdict,
                  "k_decided": pv.k_decided,
                  "mu_bound": pv.mu_bound,
                  "x_bound": pv.x_bound})
    if not pv.survival_side:
        gv = global_verdict(model, budget.global_horizon)
        certs.append({"test": "global_verdict",
                      "inputs": {"K": budget.global_horizon},
                      "outcome": gv.verdict,
                      "rule": gv.rule,
                      "flags_ok": gv.flags.ok if gv.flags else None})
        if not gv.rule.endswith("partial-survival"):
            regime = {GLOBAL_EXTINCTION: REGIME_1,
                      GLOBAL_SURVIVAL_POSSIBLE: REGIME_2}.get(gv.verdict)
            return Classification(regime or UNRESOLVED, certs)
    sls = sls_verdict(model, budget.sls_level_budget, budget.sls_tail_horizon)
    certs.append({"test": "sls_verdict",
                  "inputs": {"k_budget": budget.sls_level_budget,
                             "K": budget.sls_tail_horizon},
                  "outcome": sls.result,
                  "k_used": sls.k_used,
                  "first_supercritical_head": sls.first_supercritical_head,
                  "head_pivot": sls.head_pivot,
                  "tail_global_rule": sls.tail_global.rule if sls.tail_global else None})
    regime = {SLS: REGIME_4, NON_SLS: REGIME_3}.get(sls.result)
    return Classification(regime or UNRESOLVED, certs)
