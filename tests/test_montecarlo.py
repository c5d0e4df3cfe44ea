import tracemalloc

import numpy as np
import pytest

from lhbp import (ExplicitModel, SimConfig, TableLaw, estimate_embedded_moment,
                  estimate_extinction, iterate_to_limit, montecarlo,
                  simulate_truncated)
from lhbp.montecarlo import (OUTCOME_CAP, OUTCOME_EXTINCT, OUTCOME_SURVIVED,
                             _sim_tables)

from conftest import all_die_model, ex2, tridiag


def _reference_replication(rng, model, cfg):
    """One replication as a plain loop over generations and types: the
    rules that simulate_truncated applies to each row of a block."""
    k = cfg.truncation
    pop = [0] * (k + 2)
    pop[cfg.initial_type] = 1
    cum_up = 0
    for _ in range(cfg.max_generations):
        if sum(pop) == 0:
            return OUTCOME_EXTINCT, cum_up
        if cfg.variant == "immortal" and (cum_up or pop[k + 1]):
            return OUTCOME_SURVIVED, cum_up
        new = [0] * (k + 2)
        for i in range(k + 1):
            if pop[i] == 0:
                continue
            outs = model.law(i).outcomes()
            pvals = np.array([p for _, p in outs])
            picks = rng.multinomial(pop[i], pvals / pvals.sum())
            for ne, (counts, _) in zip(picks, outs):
                if ne and any(not 0 <= c <= 10 ** 9 for _, c in counts):
                    return OUTCOME_CAP, cum_up
                for t, c in counts:
                    new[t] += int(ne) * int(c)
        cum_up += new[k + 1]
        if cfg.variant == "immortal":
            new[k + 1] += pop[k + 1]
        pop = new
        if sum(pop) > cfg.population_cap:
            return OUTCOME_CAP, cum_up
    return OUTCOME_SURVIVED, cum_up


def test_draw_tables_hold_only_their_columns():
    # each type's table holds the columns its children reach, not all k + 2,
    # which would take O(k^2) memory: 46.6 MiB at k = 1000
    tracemalloc.start()
    try:
        tables = _sim_tables(ex2(0.3), 1000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(counts.base is None for _, _, counts, _ in tables)
    assert held < 2 * 2 ** 20


def test_all_die_extinct_immediately():
    batch = simulate_truncated(all_die_model(),
                               SimConfig(2, "sterile", 0, 200, 11))
    assert np.all(batch.outcomes == 0)
    assert np.all(batch.upward_totals == 0)
    est = estimate_extinction(all_die_model(), 2, 0, "immortal", 200, 11)
    assert est.estimate == 1.0
    assert est.half_width == 0.0


def test_determinism_bitwise():
    cfg = SimConfig(1, "immortal", 0, 400, 20240811)
    b1 = simulate_truncated(ex2(0.0), cfg)
    b2 = simulate_truncated(ex2(0.0), cfg)
    assert np.array_equal(b1.outcomes, b2.outcomes)
    assert np.array_equal(b1.upward_totals, b2.upward_totals)


def test_quartic_support_multiples_of_four():
    # with gamma = 0 every birth event makes four same-type children, so the
    # total births of the upward type k + 1 (type 1 at k = 0) are 0, 4, 8, ...
    for k in (0, 1):
        batch = simulate_truncated(ex2(0.0),
                                   SimConfig(k, "sterile", 0, 100, 5))
        assert np.all(batch.upward_totals % 4 == 0)
        assert batch.upward_totals.any()


def test_sterile_immortal_coupling(monkeypatch):
    # one replication per block: the two variants draw from the same
    # substream, so each replication follows one path in both runs until
    # the immortal run decides it at its first type-(k+1) birth
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1)
    bs = simulate_truncated(ex2(0.2), SimConfig(2, "sterile", 0, 60, 77))
    bi = simulate_truncated(ex2(0.2), SimConfig(2, "immortal", 0, 60, 77))
    extinct = bi.outcomes == OUTCOME_EXTINCT
    survived = bi.outcomes == OUTCOME_SURVIVED
    assert extinct.any() and survived.any()
    assert np.array_equal(extinct, (bs.outcomes == OUTCOME_EXTINCT)
                          & (bs.upward_totals == 0))
    assert np.array_equal(survived, bs.upward_totals > 0)
    up_i, up_s = bi.upward_totals, bs.upward_totals
    either = (up_i > 0) | (up_s > 0)
    assert np.all((0 < up_i[either]) & (up_i[either] <= up_s[either]))


def test_immortal_estimate_matches_iteration():
    est = estimate_extinction(ex2(0.0), 1, 0, "immortal", 4000, seed=3)
    assert abs(est.estimate - 49 / 64) <= 3 * est.half_width
    assert est.replications_used == 4000
    assert not est.unreliable


def test_sterile_estimates_partial_extinction():
    # gamma = 0.8 at level 12: the sterile truncation is supercritical, so a
    # short generation cap keeps survivors below the population cap (any
    # surviving line would eventually exceed every finite cap); the small
    # bias from late extinctions is absorbed in the tolerance
    model = ex2(0.8)
    qt = float(iterate_to_limit(model, 12, 1.0).vector[0])
    est = estimate_extinction(model, 12, 0, "sterile", 4000, seed=9,
                              max_generations=20)
    assert est.cap_hits == 0
    assert abs(est.estimate - qt) <= 3 * est.half_width + 0.02


def test_embedded_moment_estimates():
    m = ex2(0.0)
    e1 = estimate_embedded_moment(m, 1, 4000, seed=21)
    assert abs(e1.estimate - 2.0) <= 3 * e1.half_width
    e3 = estimate_embedded_moment(m, 3, 4000, seed=22)
    assert abs(e3.estimate - 4 / 3) <= 3 * e3.half_width


def test_embedded_moment_tridiagonal():
    model = tridiag(0.25, 0.25, 0.5)
    from lhbp import embedded_moments
    mom = embedded_moments(model, 3, with_a=False)
    e = estimate_embedded_moment(model, 3, 4000, seed=23)
    assert abs(e.estimate - mom.mu[3]) <= 3 * e.half_width


def test_embedded_moment_rejects_survival_regime():
    with pytest.raises(ValueError, match="x hits 1"):
        estimate_embedded_moment(ex2(0.3), 5, 500, seed=1)


def test_censoring_flagged_with_tiny_cap():
    est = estimate_extinction(ex2(0.8), 30, 0, "sterile", 200, seed=4,
                              max_generations=2000, population_cap=50)
    assert est.cap_hits > 10
    assert est.unreliable
    assert est.replications_used == 200 - est.cap_hits


def test_seed_batches_agree_with_ladder():
    # independent seed batches: at least 9 of 10 within 3 sigma of 49/64
    hits = 0
    for seed in range(10):
        est = estimate_extinction(ex2(0.0), 1, 0, "immortal", 1500, seed=seed)
        if abs(est.estimate - 49 / 64) <= 3 * est.half_width:
            hits += 1
    assert hits >= 9


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(1, "other", 0, 10, 0)
    with pytest.raises(ValueError):
        SimConfig(1, "sterile", 5, 10, 0)
    with pytest.raises(ValueError, match="100"):
        estimate_extinction(ex2(0.0), 1, 0, "immortal", 50, seed=0)


def test_immortal_deep_level_agreement():
    # gamma = 0.8 at level 50: survivors explode among low types long before
    # any type-51 birth, so the generation cap must bite while populations
    # are still far below the population cap; extinction has essentially
    # resolved by then (the supercritical head dies fast or not at all)
    model = ex2(0.8)
    q50 = float(iterate_to_limit(model, 50, 0.0).vector[0])
    est = estimate_extinction(model, 50, 0, "immortal", 3000, seed=6,
                              max_generations=30)
    assert est.cap_hits == 0
    assert abs(est.estimate - q50) <= 3 * est.half_width


def test_block_of_one_matches_reference_loop(monkeypatch):
    # with one replication per block, block b draws from the substream keyed
    # by (seed, b) exactly as the plain loop does: every rule must agree
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1)
    overflow = ExplicitModel(head=(
        TableLaw(((((1, 2),), 0.6), ((), 0.4))),
        TableLaw(((((0, 2 * 10 ** 9),), 0.02), (((2, 2),), 0.5),
                  ((), 0.48)))))
    configs = [(ex2(0.2), SimConfig(2, v, 0, 80, 5, 12, 20))
               for v in ("sterile", "immortal")]
    configs += [(overflow, SimConfig(3, v, 0, 80, 6, 30, 10 ** 4))
                for v in ("sterile", "immortal")]
    configs.append((tridiag(0.3, 0.3, 0.5),
                    SimConfig(3, "immortal", 1, 80, 7, 30)))
    for model, cfg in configs:
        batch = simulate_truncated(model, cfg)
        for rep in range(cfg.replications):
            rng = np.random.Generator(
                np.random.Philox(key=(cfg.seed << 64) + rep))
            out, up = _reference_replication(rng, model, cfg)
            assert batch.outcomes[rep] == out
            assert batch.upward_totals[rep] == up
        assert len(set(batch.outcomes.tolist())) > 1


def _reference_block(rng, tables, cfg, rows):
    """A block that compacts its rows and tallies cap hits in every
    generation, whether or not a row finished: the bookkeeping that
    ``_simulate_block`` skips must change no draw and no outcome."""
    k = cfg.truncation
    outcomes = np.full(rows, OUTCOME_SURVIVED, dtype=np.int8)
    ups = np.zeros(rows, dtype=np.int64)
    ids = np.arange(rows)
    pop = np.zeros((rows, k + 2), dtype=np.int64)
    pop[:, cfg.initial_type] = 1
    for _ in range(cfg.max_generations):
        stop = ~pop.any(axis=1)
        outcomes[ids[stop]] = OUTCOME_EXTINCT
        if cfg.variant == "immortal":
            stop |= pop[:, k + 1] > 0
        ids, pop = ids[~stop], pop[~stop]
        if not ids.size:
            break
        new = np.zeros_like(pop)
        capped = np.zeros(ids.size, dtype=bool)
        for i, (pvals, cols, counts, overflow) in enumerate(tables):
            if pop[:, i].any():
                picks = rng.multinomial(pop[:, i], pvals)
                new[:, cols] += picks @ counts
                capped |= picks[:, overflow].any(axis=1)
        ups[ids] += np.where(capped, 0, new[:, k + 1])
        capped |= new.sum(axis=1) > cfg.population_cap
        outcomes[ids[capped]] = OUTCOME_CAP
        ids, pop = ids[~capped], new[~capped]
    return outcomes, ups


def test_block_matches_reference_block():
    # outcomes and upward totals of whole blocks, bit for bit, where rows
    # end at every rule: extinct, immortal, overflow draw, population cap
    # and generation cap
    overflow = ExplicitModel(head=(
        TableLaw(((((1, 2),), 0.6), ((), 0.4))),
        TableLaw(((((0, 2 * 10 ** 9),), 0.02), (((2, 2),), 0.5),
                  ((), 0.48)))))
    configs = [(model, SimConfig(k, variant, 0, 600, seed, gens, cap))
               for model, k in ((ex2(0.2), 2), (ex2(0.5), 3),
                                (tridiag(0.3, 0.3, 0.5), 3), (overflow, 3))
               for variant in ("sterile", "immortal")
               for seed, gens, cap in ((5, 12, 40), (6, 10_000, 10 ** 7))]
    for model, cfg in configs:
        tables = _sim_tables(model, cfg.truncation)

        def rng():
            return np.random.Generator(np.random.Philox(key=cfg.seed << 64))
        got = montecarlo._simulate_block(rng(), tables, cfg, 600)
        want = _reference_block(rng(), tables, cfg, 600)
        assert np.array_equal(got[0], want[0]), (model, cfg)
        assert np.array_equal(got[1], want[1]), (model, cfg)


def test_prefix_stable_across_replication_counts():
    # substreams are keyed by (seed, block): full blocks repeat bit for bit
    B = montecarlo.BLOCK_SIZE
    for variant in ("sterile", "immortal"):
        short = simulate_truncated(ex2(0.2),
                                   SimConfig(2, variant, 0, 2 * B, 8))
        full = simulate_truncated(ex2(0.2),
                                  SimConfig(2, variant, 0, 2 * B + 17, 8))
        assert np.array_equal(full.outcomes[:2 * B], short.outcomes)
        assert np.array_equal(full.upward_totals[:2 * B], short.upward_totals)
        assert short.upward_totals.any()


def test_all_outcomes_on_block_path():
    # one block of 300 rows, with caps low enough that rows end extinct, at
    # the population cap and at the generation cap
    cfg = SimConfig(3, "sterile", 1, 300, 13, max_generations=12,
                    population_cap=40)
    batch = simulate_truncated(ex2(0.5), cfg)
    assert np.bincount(batch.outcomes, minlength=3).min() > 0
