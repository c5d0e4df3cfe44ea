"""Simulation oracle for truncated processes.

Populations are tracked as aggregated count vectors; individuals are never
materialised.  Replications run in blocks of ``BLOCK_SIZE``: a block is one
(replications x (k + 2)) count matrix, advanced a generation at a time with
one multinomial draw per type for all of its rows.  Each block's randomness
comes from a counter-based Philox substream keyed by (seed, block index), so
tallies are reproducible bit for bit and blocks can be merged in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedded import embedded_moments
from .model import LHBPModel

OUTCOME_EXTINCT = 0
OUTCOME_SURVIVED = 1
OUTCOME_CAP = 2

_COUNT_LIMIT = 10 ** 9  # larger single-birth counts force a cap-hit
BLOCK_SIZE = 4096      # replications per block (and per substream)


@dataclass(frozen=True)
class SimConfig:
    truncation: int
    variant: str                      # "sterile" | "immortal"
    initial_type: int
    replications: int
    seed: int
    max_generations: int = 10_000
    population_cap: int = 10_000_000

    def __post_init__(self):
        if self.variant not in ("sterile", "immortal"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.truncation < 0:
            raise ValueError(
                f"truncation level must be >= 0, got {self.truncation}")
        if self.max_generations <= 0 or self.population_cap <= 0:
            raise ValueError("caps must be positive")
        if not 0 <= self.initial_type <= self.truncation + 1:
            raise ValueError("initial type must lie in 0..k+1")
        if self.replications <= 0:
            raise ValueError("replications must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in 0..2**64-1, got {self.seed}")


@dataclass
class SimEstimate:
    estimate: float
    half_width: float
    replications_used: int
    cap_hits: int
    unreliable: bool
    seed: int


@dataclass
class SimBatch:
    config: SimConfig
    outcomes: np.ndarray        # int8 outcome codes per replication
    upward_totals: np.ndarray   # total type-(k+1) births per replication


def _sim_tables(model: LHBPModel, k: int):
    """Per-type draw tables ``(pvals, cols, counts, overflow)``, types 0..k.

    ``counts`` is the (outcomes x len(cols)) matrix of children that each
    outcome adds to the population columns ``cols``.  An outcome with a
    count outside 0.._COUNT_LIMIT (or not a number) adds nothing; drawing
    it is a cap hit (``overflow``).
    """
    tables = []
    for i in range(k + 1):
        outs = model.law(i).outcomes()
        pvals = np.array([p for _, p in outs])
        overflow = np.array([any(not (0 <= c <= _COUNT_LIMIT)
                                 for _, c in entry) for entry, _ in outs])
        births = [(j, t, int(c)) for j, (entry, _) in enumerate(outs)
                  if not overflow[j] for t, c in entry if int(c)]
        lo = min((t for _, t, _ in births), default=0)
        hi = max((t + 1 for _, t, _ in births), default=0)
        # only the used columns: a (k + 2)-column matrix per type is O(k^2)
        counts = np.zeros((len(outs), hi - lo), dtype=np.int64)
        for j, t, c in births:
            counts[j, t - lo] += c
        tables.append((pvals / pvals.sum(), slice(lo, hi), counts, overflow))
    return tables


def _simulate_block(rng, tables, config: SimConfig, rows: int):
    """Run ``rows`` replications as one count matrix, a generation at a
    time, and return their (outcomes, upward_totals).  A row ends extinct
    when its whole population is 0; immortal, survived once a type-(k+1)
    individual exists; a cap hit when it draws an overflow outcome (that
    generation's births are dropped) or its population exceeds the cap;
    else survived at the generation cap.  Finished rows leave the matrix;
    a generation in which none finished keeps it as it is.
    """
    k = config.truncation
    # each type's overflow outcomes, None where it has none
    overflows = [t[3] if t[3].any() else None for t in tables]
    outcomes = np.full(rows, OUTCOME_SURVIVED, dtype=np.int8)
    ups = np.zeros(rows, dtype=np.int64)
    ids = np.arange(rows)               # replication of each active row
    pop = np.zeros((rows, k + 2), dtype=np.int64)
    pop[:, config.initial_type] = 1
    for _ in range(config.max_generations):
        extinct = ~pop.any(axis=1)
        stop = extinct
        if config.variant == "immortal":
            # an immortal line persists forever: the outcome is decided
            stop = extinct | (pop[:, k + 1] > 0)
        if stop.any():
            outcomes[ids[extinct]] = OUTCOME_EXTINCT
            ids, pop = ids[~stop], pop[~stop]
        if not ids.size:
            break
        new = np.zeros_like(pop)
        drew = None  # the rows that drew an overflow outcome, if any table can
        for i, (pvals, cols, counts, _) in enumerate(tables):
            n = pop[:, i]
            if not n.any():
                continue  # rows with n = 0 draw nothing from the stream
            picks = rng.multinomial(n, pvals)
            new[:, cols] += picks @ counts
            if overflows[i] is not None:
                hit = picks[:, overflows[i]].any(axis=1)
                drew = hit if drew is None else drew | hit
        capped = new.sum(axis=1) > config.population_cap
        if drew is None:
            ups[ids] += new[:, k + 1]
        else:
            # a row that drew an overflow outcome ends before its births count
            ups[ids] += np.where(drew, 0, new[:, k + 1])
            capped |= drew
        if capped.any():
            outcomes[ids[capped]] = OUTCOME_CAP
            ids, new = ids[~capped], new[~capped]
        pop = new
    return outcomes, ups


def simulate_truncated(model: LHBPModel, config: SimConfig) -> SimBatch:
    """Run all replications of the truncated process at level k.

    Sterile: types above k produce nothing (they still appear for the one
    generation they are born in).  Immortal: a type-(k+1) individual never
    dies, so a replication is decided as survived once one exists.
    Replications run in blocks of ``BLOCK_SIZE``; block b draws from the
    Philox substream keyed by (seed, b), so a run's full blocks repeat bit
    for bit in any run with the same seed and more replications.  Both
    variants draw offspring only for types <= k, so two runs with one seed
    are coupled per replication (a block of one) up to the immortal
    decision, and across a larger block only while no row has stopped.
    """
    tables = _sim_tables(model, config.truncation)
    n = config.replications
    parts = []
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        rng = np.random.Generator(
            np.random.Philox(key=(config.seed << 64) + block))
        parts.append(_simulate_block(rng, tables, config,
                                     min(BLOCK_SIZE, n - start)))
    outcomes, ups = map(np.concatenate, zip(*parts))
    return SimBatch(config, outcomes, ups)


def estimate_extinction(model: LHBPModel, k: int, i0: int, variant: str,
                        n: int, seed: int,
                        max_generations: int = 10_000,
                        population_cap: int = 10_000_000) -> SimEstimate:
    """Frequency estimate of global extinction of the level-k truncation.

    The immortal variant estimates the truncated global extinction
    probability; the sterile variant's survival frequency estimates one
    minus the truncated partial extinction probability.  Cap-hit
    replications are excluded from the denominator and reported.
    """
    if n < 100:
        raise ValueError("need at least 100 replications")
    cfg = SimConfig(truncation=k, variant=variant, initial_type=i0,
                    replications=n, seed=seed,
                    max_generations=max_generations,
                    population_cap=population_cap)
    batch = simulate_truncated(model, cfg)
    caps = int(np.sum(batch.outcomes == OUTCOME_CAP))
    used = n - caps
    extinct = int(np.sum(batch.outcomes == OUTCOME_EXTINCT))
    p = extinct / used if used else math.nan
    hw = 1.96 * math.sqrt(p * (1.0 - p) / used) if used else math.nan
    return SimEstimate(p, hw, used, caps, caps > 0.05 * n, seed)


def estimate_embedded_moment(model: LHBPModel, k: int, n: int,
                             seed: int) -> SimEstimate:
    """Sample mean of the total type-(k+1) births in the sterile level-k
    truncation started from one type-k individual; estimates the embedded
    offspring mean of generation k.

    Replications that hit a cap before finishing are censored, counted, and
    excluded from the mean.
    """
    mom = embedded_moments(model, k, with_a=False)
    if mom.kind != "ok":
        raise ValueError(f"embedded mean undefined: x hits 1 at k={mom.k_star}")
    cfg = SimConfig(truncation=k, variant="sterile", initial_type=k,
                    replications=n, seed=seed)
    batch = simulate_truncated(model, cfg)
    done = batch.outcomes == OUTCOME_EXTINCT
    used = int(np.sum(done))
    censored = n - used
    vals = batch.upward_totals[done].astype(float)
    mean = float(np.mean(vals)) if used else math.nan
    sd = float(np.std(vals, ddof=1)) if used > 1 else math.nan
    hw = 1.96 * sd / math.sqrt(used) if used > 1 else math.nan
    return SimEstimate(mean, hw, used, censored, censored > 0.05 * n, seed)
