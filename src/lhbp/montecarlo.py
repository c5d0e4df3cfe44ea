"""Simulation oracle for truncated processes.

Populations are tracked as aggregated count vectors; individuals are never
materialised.  Per-replication randomness comes from counter-based Philox
substreams keyed by (seed, replication index), so tallies are reproducible
bit for bit and replications can be merged in any order.
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

OUTCOME_NAMES = {OUTCOME_EXTINCT: "extinct",
                 OUTCOME_SURVIVED: "survived-to-cap",
                 OUTCOME_CAP: "population-cap-hit"}

_COUNT_LIMIT = 10 ** 9  # larger single-birth counts force a cap-hit


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
    trajectories: list | None   # per-generation population vectors, if recorded

    def tally(self) -> dict[str, int]:
        return {name: int(np.sum(self.outcomes == code))
                for code, name in OUTCOME_NAMES.items()}


def _sim_tables(model: LHBPModel, k: int):
    """Per-type categorical tables: (pvals, [(entry, overflow), ...])."""
    tables = []
    for i in range(k + 1):
        pvals, entries = [], []
        for counts, p in model.law(i).outcomes():
            overflow = any(not (0 <= c <= _COUNT_LIMIT) for _, c in counts)
            entry = tuple((t, int(c)) for t, c in counts) if not overflow else ()
            pvals.append(p)
            entries.append((entry, overflow))
        pv = np.array(pvals)
        tables.append((pv / pv.sum(), entries))
    return tables


def _substream(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + rep))


def _run_replication(rng, tables, k, i0, variant, max_gen, pop_cap,
                     record=False):
    pop = np.zeros(k + 2, dtype=np.int64)
    pop[i0] = 1
    traj = [pop.copy()] if record else None
    cum_up = 0
    immortal = variant == "immortal"
    for _ in range(max_gen):
        if int(pop.sum()) == 0:
            return OUTCOME_EXTINCT, cum_up, traj
        if immortal and not record and (cum_up > 0 or pop[k + 1] > 0):
            # an immortal line persists forever: the outcome is decided
            return OUTCOME_SURVIVED, cum_up, traj
        new = np.zeros(k + 2, dtype=np.int64)
        for i in range(k + 1):
            n = int(pop[i])
            if n == 0:
                continue
            pvals, entries = tables[i]
            picks = rng.multinomial(n, pvals)
            for ne, (entry, overflow) in zip(picks, entries):
                if ne == 0:
                    continue
                if overflow:
                    return OUTCOME_CAP, cum_up, traj
                for t, c in entry:
                    new[t] += ne * c
        cum_up += int(new[k + 1])
        if immortal:
            new[k + 1] += pop[k + 1]
        pop = new
        if record:
            traj.append(pop.copy())
        if int(pop.sum()) > pop_cap:
            return OUTCOME_CAP, cum_up, traj
    return OUTCOME_SURVIVED, cum_up, traj


def simulate_truncated(model: LHBPModel, config: SimConfig,
                       record_population: bool = False) -> SimBatch:
    """Run all replications of the truncated process at level k.

    Sterile: types above k produce nothing (they still appear for the one
    generation they are born in).  Immortal: the type-(k+1) slot persists
    from generation to generation.  Both variants draw offspring only for
    types <= k, so runs sharing a seed are coupled on those coordinates.
    """
    k = config.truncation
    tables = _sim_tables(model, k)
    outcomes = np.empty(config.replications, dtype=np.int8)
    ups = np.empty(config.replications, dtype=np.int64)
    trajs = [] if record_population else None
    for rep in range(config.replications):
        rng = _substream(config.seed, rep)
        out, cup, traj = _run_replication(
            rng, tables, k, config.initial_type, config.variant,
            config.max_generations, config.population_cap,
            record=record_population)
        outcomes[rep] = out
        ups[rep] = cup
        if record_population:
            trajs.append(traj)
    return SimBatch(config, outcomes, ups, trajs)


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


def estimate_embedded_moment(model: LHBPModel, k: int, n: int, seed: int,
                             max_generations: int = 10_000,
                             population_cap: int = 10_000_000) -> SimEstimate:
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
                    replications=n, seed=seed,
                    max_generations=max_generations,
                    population_cap=population_cap)
    batch = simulate_truncated(model, cfg)
    done = batch.outcomes == OUTCOME_EXTINCT
    used = int(np.sum(done))
    censored = n - used
    vals = batch.upward_totals[done].astype(float)
    mean = float(np.mean(vals)) if used else math.nan
    sd = float(np.std(vals, ddof=1)) if used > 1 else math.nan
    hw = 1.96 * sd / math.sqrt(used) if used > 1 else math.nan
    return SimEstimate(mean, hw, used, censored, censored > 0.05 * n, seed)
