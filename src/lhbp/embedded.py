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

from .generating import ComputationError, iterate_to_limit
from .model import LHBPModel

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

    def status_at(self, k: int) -> str:
        if self.kind != "ok" and k >= self.k_star:
            return f"{self.kind}({self.k_star})"
        return "ok"


def _window_prod(mus: list[float], lo: int, hi: int) -> float:
    """Product mu_lo * ... * mu_{hi-1}; empty ranges give 1."""
    out = 1.0
    for j in range(lo, hi):
        out *= mus[j]
    return out


def embedded_moments(model: LHBPModel, K: int, with_a: bool = True) -> EmbeddedMoments:
    """Run the moment recursions up to horizon K.

    Stops at the first k with x_k >= 1 (within BOUNDARY_TOL of 1 counts as the
    boundary case); entries beyond the stop are undefined and the arrays are
    truncated accordingly.  Row sums in x_k only span the model bandwidth, so
    the per-step window products cannot overflow; the cumulative mean m0 is
    tracked in log space alongside its float value.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    mus: list[float] = []
    avals: list[float] = []
    xvals: list[float] = []
    log_m0: list[float] = []
    kind, k_star = "ok", None
    for k in range(K + 1):
        row = model.mean_row(k)
        x_k = 0.0
        for j, m in row.items():
            if j <= k:
                x_k += m * _window_prod(mus, j, k)
        xvals.append(x_k)
        if abs(x_k - 1.0) <= BOUNDARY_TOL:
            kind, k_star = "boundary", k
            break
        if x_k > 1.0:
            kind, k_star = "blowup", k
            break
        denom = 1.0 - x_k
        mu_k = row.get(k + 1, 0.0) / denom
        if with_a:
            term2 = 0.0
            for (i, j), v in model.a_entries(k).items():
                # m_{i -> k} includes mu_k, which is already appended below;
                # compute with the candidate mu_k explicitly
                mi = _window_prod(mus, i, k) * mu_k if i <= k else 1.0
                mj = _window_prod(mus, j, k) * mu_k if j <= k else 1.0
                term2 += mi * mj * v * (2.0 if i != j else 1.0)
            term1 = 0.0
            for i, m in row.items():
                if i > k:
                    continue
                s = 0.0
                for l in range(i, k):
                    tail = _window_prod(mus, l + 1, k) * mu_k
                    s += avals[l] * _window_prod(mus, i, l) * tail * tail
                term1 += m * s
            avals.append((term1 + term2) / denom)
        mus.append(mu_k)
        prev_log = log_m0[-1] if log_m0 else 0.0
        log_m0.append(prev_log + (math.log(mu_k) if mu_k > 0 else -math.inf))
    log_arr = np.array(log_m0)
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
    )


# ---------------------------------------------------------------------------
# embedded generating function values

def eval_g(model: LHBPModel, k: int, s: float, tol: float = 1e-13) -> float:
    """g_k(s): coordinate k of the level-k truncation limit with boundary s.

    Monotone nondecreasing in s; g_k(1) is the partial extinction probability
    of type k in its own truncation.  Raises ``ComputationError`` when the
    level-k solve does not converge.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    res = iterate_to_limit(model, k, s, tol=tol)
    if not res.converged:
        raise ComputationError(
            f"eval_g did not converge at level {k}, boundary {s}")
    return float(res.vector[k])


# ---------------------------------------------------------------------------
# partial extinction verdict

VERDICT_SURVIVAL = "PartialSurvival"
VERDICT_CERTAIN = "PartialExtinctionCertain"
VERDICT_LIKELY = "PartialExtinctionLikely"
VERDICT_BOUNDARY = "Boundary"


@dataclass
class PartialVerdict:
    verdict: str
    k_decided: int | None
    horizon: int

    @property
    def survival_side(self) -> bool:
        """True when the verdict certifies q-tilde < 1."""
        return self.verdict in (VERDICT_SURVIVAL, VERDICT_BOUNDARY)


def partial_verdict(model: LHBPModel, K: int = 5000) -> PartialVerdict:
    """Decide the partial extinction criterion over horizon K.

    x_k > 1 certifies partial survival; x_k = 1 (within tolerance) also
    forces it, via a longer first-return loop through some higher type.  On
    the extinction side, an observed decrease mu_k < mu_{k-1} locks the
    sequence below its current bound and ends the scan early ("Certain");
    otherwise the verdict is horizon-limited ("Likely").
    """
    mom = embedded_moments(model, K, with_a=False)
    if mom.kind == "blowup":
        return PartialVerdict(VERDICT_SURVIVAL, mom.k_star, K)
    if mom.kind == "boundary":
        return PartialVerdict(VERDICT_BOUNDARY, mom.k_star, K)
    mu = mom.mu
    dec = np.nonzero(mu[1:] < mu[:-1])[0]
    if len(dec):
        return PartialVerdict(VERDICT_CERTAIN, int(dec[0]) + 1, K)
    return PartialVerdict(VERDICT_LIKELY, None, K)
