import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (Example2Model, ExplicitModel, LHBPModel, TableLaw,
                  TridiagonalModel, embedded_moments, iterate_to_limit,
                  partial_verdict, product_law)
from lhbp import embedded
from lhbp.embedded import _certificate
from lhbp.model import MomentTable, TailModel

from conftest import (all_die_model, e1_model, ex2, g, mean_row,
                      product_tail_model, reference_moments, tridiag,
                      up_only_model, wide_band_model)


def test_gamma0_moments_exact():
    mom = embedded_moments(ex2(0.0), 40)
    assert mom.kind == "ok"
    assert mom.mu[0] == 1.0
    ks = np.arange(1, 41)
    assert np.allclose(mom.mu[1:], (ks + 1) / ks, atol=1e-14)
    assert np.allclose(mom.m0, np.arange(1, 42), atol=1e-11)
    assert np.all(mom.x == 0.0)


def test_gamma03_blowup():
    mom = embedded_moments(ex2(0.3), 50)
    assert mom.kind == "blowup"
    assert mom.k_star == 2
    assert mom.x[2] == pytest.approx(1.575, abs=1e-12)


def test_tridiagonal_mu_increases_to_limit():
    mom = embedded_moments(tridiag(0.25, 0.25, 0.5), 400, with_a=False)
    assert mom.kind == "ok"
    # strictly increasing until the limit saturates in float arithmetic
    assert np.all(np.diff(mom.mu) >= 0)
    assert np.all(np.diff(mom.mu[:40]) > 0)
    assert mom.mu[400] == pytest.approx(1.0, abs=1e-9)
    assert mom.mu[0] == pytest.approx(0.5 / 0.75)


def test_eval_g_quartic_values():
    m = ex2(0.0)
    assert g(m, 1, 0.0) == pytest.approx(0.5, abs=1e-13)
    assert g(m, 1, 1.0) == pytest.approx(1.0, abs=1e-13)
    # g_1(s) = (1/2) s^4 + 1/2 exactly
    for s in (0.25, 0.5, 0.9):
        assert g(m, 1, s) == pytest.approx(0.5 * s ** 4 + 0.5, abs=1e-12)


def test_eval_g_derivative_matches_mu():
    h = 1e-4
    for model in (ex2(0.05), tridiag(0.25, 0.25, 0.5)):
        mom = embedded_moments(model, 12, with_a=False)
        for k in range(8):
            d = (3 * g(model, k, 1.0) - 4 * g(model, k, 1.0 - h)
                 + g(model, k, 1.0 - 2 * h)) / (2 * h)
            assert d == pytest.approx(mom.mu[k], abs=1e-5)


def brute_first_returns(model, k, max_len=30, prune=1e-16):
    """DFS over first-return paths to k in the sterile mean graph (types <= k)."""
    table = model.moment_table(k)
    rows = {i: {j: m for j, m in mean_row(table, i).items() if j <= k}
            for i in range(k + 1)}
    total = 0.0
    stack = [(j, w, 1) for j, w in rows[k].items()]
    while stack:
        node, weight, length = stack.pop()
        if node == k:
            total += weight
            continue
        if length >= max_len or weight < prune:
            continue
        for j, m in rows[node].items():
            stack.append((j, weight * m, length + 1))
    return total


def toy_model():
    law0 = TableLaw(((((1, 1),), 0.2), ((), 0.8)))
    law1 = TableLaw(((((0, 1),), 0.15), (((1, 1),), 0.1),
                     (((2, 1),), 0.2), ((), 0.55)))
    law2 = TableLaw(((((1, 1),), 0.15), (((3, 1),), 0.2), ((), 0.65)))
    return ExplicitModel(head=(law0, law1, law2))


def test_x_matches_first_return_paths():
    model = toy_model()
    mom = embedded_moments(model, 8, with_a=False)
    for k in (1, 2, 3, 4):
        assert mom.x[k] == pytest.approx(brute_first_returns(model, k), abs=1e-8)


def test_partial_verdict_examples():
    pv0 = partial_verdict(ex2(0.0), 200)
    assert pv0.verdict == "PartialExtinctionCertain"
    assert not pv0.survival_side

    pv3 = partial_verdict(ex2(0.3), 200)
    assert pv3.verdict == "PartialSurvival"
    assert pv3.k_decided == 2

    pvt = partial_verdict(tridiag(0.25, 1.5, 0.5), 200)
    assert pvt.verdict == "PartialSurvival"


def test_partial_verdict_boundary():
    # b = 1 makes x_0 = 1 exactly; the boundary case certifies qt < 1
    pv = partial_verdict(tridiag(0.25, 1.0, 0.5), 50)
    assert pv.verdict == "Boundary"
    assert pv.k_decided == 0
    assert pv.survival_side


def test_partial_verdict_certifies_near_critical_band():
    # mu_k increases to 1, the attracting root of 0.25 M^2 - 0.75 M + 0.5;
    # the invariant bound sits just above it, past the rounding margin
    pv = partial_verdict(tridiag(0.25, 0.25, 0.5), 300)
    assert pv.verdict == "PartialExtinctionCertain"
    assert not pv.survival_side
    assert 1.0 < pv.mu_bound < 1.01
    assert pv.x_bound == pytest.approx(0.25 + 0.25 * pv.mu_bound, rel=1e-11)
    assert embedded_moments(tridiag(0.25, 0.25, 0.5), 300).kind == "ok"


class LawOnlyModel(LHBPModel):
    """tridiagonal(0.25, 0.25, 0.5) through the generic law route alone:
    no tail band."""

    def law(self, i):
        return TridiagonalModel(0.25, 0.25, 0.5).law(i)


def test_partial_verdict_likely_without_tail_bound():
    model = LawOnlyModel()
    assert model.tail_band(1) is None
    pv = partial_verdict(model, 300)
    assert pv.verdict == "PartialExtinctionLikely"
    assert pv.k_decided is None and pv.mu_bound is None


def late_blowup_model():
    """Head means fall (mu_1 = 0.2 < mu_0 = 2), but the repeated tail row
    (0.25, 0.2, 0.65) has no invariant interval ((1 - b)^2 < 4ac), so the
    means grow until x_26 > 1."""
    def bern(p):
        return (0.0, 1.0 - p), (1.0, p)
    return ExplicitModel(head=(
        TableLaw(((((1, 2),), 1.0),)),
        TableLaw(((((2, 1),), 0.2), ((), 0.8))),
        product_law(((1, bern(0.25)), (2, bern(0.2)), (3, bern(0.65))))))


def test_partial_verdict_late_blowup_after_head_decrease():
    model = late_blowup_model()
    mom = embedded_moments(model, 5000, with_a=False)
    assert mom.mu[1] < mom.mu[0]  # a stop at the first decrease says qt = 1
    assert mom.kind == "blowup" and mom.k_star == 26
    pv = partial_verdict(model, 5000)
    assert pv.verdict == "PartialSurvival"
    assert pv.k_decided == 26


def test_band_without_invariant_interval_is_never_certified():
    # (1 - b)^2 < 4ac: f(M) > M for every M with X(M) < 1
    model = tridiag(0.5, 5e-7, 0.5)
    band = model.tail_band(1)
    for M in np.linspace(0.0, 2.5, 251):
        assert _certificate(band, np.array([M])) is None
    pv = partial_verdict(model, 5000)
    assert pv.verdict == "PartialSurvival"
    assert pv.k_decided == 3140


AGREEMENT_MODELS = {
    "product_tail": product_tail_model(), "e1": e1_model(),
    "wide_band": wide_band_model(), "up_only": up_only_model(),
    "all_die": all_die_model(), "late_blowup": late_blowup_model(),
}


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(
    st.builds(Example2Model, st.floats(0.0, 1.0)),
    st.builds(TridiagonalModel, st.floats(0.0, 2.0), st.floats(0.0, 2.0),
              st.floats(0.0, 2.0), st.floats(1.0, 3.0)),
    st.sampled_from(sorted(AGREEMENT_MODELS)).map(AGREEMENT_MODELS.get)),
       K=st.integers(0, 3000))
def test_partial_verdict_agrees_with_full_scan(model, K):
    pv = partial_verdict(model, K)
    full = embedded_moments(model, K, with_a=False)
    assert pv.survival_side == (full.kind != "ok")
    if pv.verdict == "PartialExtinctionCertain":
        assert full.kind == "ok"
        assert pv.k_decided <= K
        assert np.all(full.mu[pv.k_decided + 1:] <= pv.mu_bound)
        assert np.all(full.x[pv.k_decided + 1:] <= pv.x_bound)
    else:
        assert pv.k_decided == full.k_star


@pytest.mark.parametrize("model", [ex2(0.03), tridiag(0.05, 0.3, 1.2)])
def test_partial_verdict_certifies_within_first_table(model, monkeypatch):
    rows = []
    real = type(model).moment_table

    def counting(self, K):
        rows.append(K + 1)
        return real(self, K)
    monkeypatch.setattr(type(model), "moment_table", counting)
    assert partial_verdict(model, 5000).verdict == "PartialExtinctionCertain"
    assert sum(rows) <= 64


@pytest.mark.parametrize("model", [ex2(0.3),
                                   TailModel(tridiag(0.5, 0.2, 0.5), 3)])
def test_one_moment_table_per_recursion(model, monkeypatch):
    # an early stop (x_k >= 1) too reads rows 0..K of a single table
    calls = []
    real = type(model).moment_table

    def counting(self, K):
        calls.append(K)
        return real(self, K)
    monkeypatch.setattr(type(model), "moment_table", counting)
    mom = embedded_moments(model, 4000)
    assert calls == [4000]
    assert mom.table.mean.shape[1] == 4001


def test_blowup_implies_qtilde_below_one():
    # status consistency: a blowup at k* shows up in the truncation ladder
    mom = embedded_moments(ex2(0.3), 50, with_a=False)
    assert mom.kind == "blowup"
    r = iterate_to_limit(ex2(0.3), 64, 1.0)
    assert r.vector[0] < 1 - 1e-6


def deep_band_model():
    """Explicit model reaching two types down whose x_k stays below 1, so
    that the width-2 return terms run over the whole horizon."""
    head = (TableLaw(((((1, 1),), 0.7), ((), 0.3))),
            TableLaw(((((0, 1), (2, 1)), 0.5), ((), 0.5))),
            TableLaw(((((0, 1), (1, 1), (3, 1)), 0.1), (((3, 2),), 0.2),
                      (((1, 1),), 0.1), (((2, 1),), 0.1), ((), 0.5))))
    return ExplicitModel(head=head)


REFERENCE_MODELS = {
    **{f"ex2({g})": ex2(g) for g in (0.0, 0.09, 0.3, 1.0)},
    "tri(0.05, 0.3, 1.2)": tridiag(0.05, 0.3, 1.2),
    "tri(0.05, 0.3, 1.2, u=3)": tridiag(0.05, 0.3, 1.2, u=3.0),
    "tri(0, 0.3, 1.6, u=3)": tridiag(0.0, 0.3, 1.6, u=3.0),  # a_k -> inf
    "tri(0.25, 1, 0.5)": tridiag(0.25, 1.0, 0.5),  # boundary x_0 = 1
    "wide_band": wide_band_model(),
    "deep_band": deep_band_model(),
    "e1": e1_model(),
    "product_tail": product_tail_model(),
    "toy": toy_model(),
    "tail(ex2(0.3), 2)": TailModel(ex2(0.3), 2),
    "tail(tri(0.5, 0.2, 0.5, u=1.3), 2)": TailModel(
        tridiag(0.5, 0.2, 0.5, u=1.3), 2),
    "up_only": up_only_model(),  # width 0
    "all_die": all_die_model(),  # width 0, every mean 0
}


def _bits(x):
    return None if x is None else (x.dtype, x.shape, x.tobytes())


@pytest.mark.parametrize("with_a", (True, False))
# K = 63, 64 and 65 straddle the end of the 64-row first table that the
# recursion once built before its full one
@pytest.mark.parametrize("K", (0, 3, 63, 64, 65, 4000))
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_table_recursion_matches_reference(name, K, with_a):
    model = REFERENCE_MODELS[name]
    mom = embedded_moments(model, K, with_a=with_a)
    mu, a, x, m0, log_m0, ok_through, kind, k_star = reference_moments(
        model, K, with_a)
    for got, want in ((mom.mu, mu), (mom.a, a), (mom.x, x), (mom.m0, m0),
                      (mom.log_m0, log_m0)):
        assert _bits(got) == _bits(want)
    assert (mom.ok_through, mom.kind, mom.k_star, mom.horizon) == (
        ok_through, kind, k_star, K)


@st.composite
def banded_models(draw, width):
    """Explicit model of 1-3 head laws after the first ``width`` ones, each
    law a table of 1-3 outcomes with children from ``width`` types down to
    one type up; the tail law has a child ``width`` types down and one up.
    Its means past the head repeat, so its recursions may reach a float
    fixed point, or blow up first."""
    head = []
    last = width + draw(st.integers(0, 2))
    for i in range(last + 1):
        reach = range(max(i - width, 0), i + 2)
        outcomes = draw(st.lists(
            st.lists(st.sampled_from(reach), max_size=2, unique=True),
            min_size=1, max_size=3))
        if i == last:
            outcomes.append([i - width, i + 1])
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(outcomes),
                                max_size=len(outcomes)))
        total = sum(weights) / 0.5  # leave mass for no children
        entries = [(tuple(sorted((t, draw(st.integers(1, 2))) for t in types)),
                    w / total) for types, w in zip(outcomes, weights)]
        entries.append(((), 1.0 - sum(p for _, p in entries)))
        head.append(TableLaw(tuple(entries)))
    return ExplicitModel(head=tuple(head))


def _settling_row(values):
    """The first index from which ``values`` holds one bit pattern."""
    bits = values.view(np.int64)
    moved = np.flatnonzero(bits[1:] != bits[:-1])
    return int(moved[-1]) + 1 if len(moved) else 0


FILL_FAMILIES = {
    "example2": st.builds(Example2Model, st.floats(0.0, 0.3)),
    # a = 0 has no down column; u > 1 grows the second moments until they
    # overflow to inf, by row 1024 at u = 2; b near 1 blows up
    "tridiagonal": st.builds(
        TridiagonalModel, st.just(0.0) | st.floats(0.0, 0.3),
        st.floats(0.0, 1.0), st.floats(0.2, 1.8),
        st.just(1.0) | st.floats(2.0, 3.0)),
    "width1": banded_models(1),
    "width2": banded_models(2),
}


@pytest.mark.parametrize("family", sorted(FILL_FAMILIES))
@settings(max_examples=25, deadline=None)
@given(offset=st.integers(-2, 2 * embedded._TAIL), data=st.data())
def test_fixed_point_fill_matches_stepping(family, offset, data):
    # K runs up to a little past the row from which mu or a settles (or the
    # stop), where the loops stop stepping and fill the rest
    model = data.draw(FILL_FAMILIES[family])
    full = embedded_moments(model, 1200)
    rows = [full.ok_through + 1]
    if full.kind == "ok":
        rows += [_settling_row(full.mu), _settling_row(full.a)]
    K = max(data.draw(st.sampled_from(rows)) + offset, 0)
    mom = embedded_moments(model, K)
    mu, a, x, m0, log_m0, ok_through, kind, k_star = reference_moments(model, K)
    for got, want in ((mom.mu, mu), (mom.a, a), (mom.x, x), (mom.m0, m0),
                      (mom.log_m0, log_m0)):
        assert _bits(got) == _bits(want)
    assert (mom.ok_through, mom.kind, mom.k_star) == (ok_through, kind, k_star)


@pytest.mark.parametrize("family", sorted(FILL_FAMILIES))
@settings(max_examples=15, deadline=None)
@given(offset=st.integers(-2, 2 * embedded._TAIL), data=st.data())
def test_fixed_point_fill_matches_stepping_at_short_horizons(family, offset,
                                                             data):
    # the property above with the search on at every horizon: the settling
    # rows of most models lie below _SEARCH_FROM, where the loops step every
    # row without a search
    model = data.draw(FILL_FAMILIES[family])
    full = embedded_moments(model, 1200)
    rows = [full.ok_through + 1]
    if full.kind == "ok":
        rows += [_settling_row(full.mu), _settling_row(full.a)]
    K = max(data.draw(st.sampled_from(rows)) + offset, 0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(embedded, "_SEARCH_FROM", 0)
        mom = embedded_moments(model, K)
    mu, a, x, m0, log_m0, ok_through, kind, k_star = reference_moments(model, K)
    for got, want in ((mom.mu, mu), (mom.a, a), (mom.x, x), (mom.m0, m0),
                      (mom.log_m0, log_m0)):
        assert _bits(got) == _bits(want)
    assert (mom.ok_through, mom.kind, mom.k_star) == (ok_through, kind, k_star)


def test_short_recursions_step_every_row():
    # up to _SEARCH_FROM rows the loops step every row: one unflagged span,
    # with no search, even for constant inputs; past it a constant input
    # gets flagged spans
    n = embedded._SEARCH_FROM
    for rows in (1, 2, n):
        assert list(embedded._spans([np.ones((2, rows))], rows, 1)) == [
            (0, rows, False)]
    spans = list(embedded._spans([np.ones((2, n + 1))], n + 1, 1))
    assert spans[0] == (0, 1, False) and all(f for _, _, f in spans[1:])


def late_change_model(last):
    """Explicit model of 100 head laws whose moment rows repeat from type 1
    on, then ``last``, the type-100 law that repeats from there on: the
    recursions settle long before the inputs change at row 100."""
    head = [TableLaw(((((1, 1),), 0.5), ((), 0.5)))]
    for i in range(1, 100):
        head.append(TableLaw(((((i - 1, 1), (i + 1, 1)), 0.3),
                              (((i + 1, 1),), 0.2), ((), 0.5))))
    return ExplicitModel(head=tuple(head) + (TableLaw(last),))


LATE_CHANGES = {
    "up_mean": ((((99, 1), (101, 1)), 0.3), (((101, 1),), 0.3), ((), 0.4)),
    "down_mean": ((((99, 1), (101, 1)), 0.3), (((99, 1),), 0.1),
                  (((101, 1),), 0.2), ((), 0.4)),
    # the same means, and a second moment of two type-101 children
    "second_moment": ((((99, 1), (101, 1)), 0.3), (((101, 2),), 0.1),
                      ((), 0.6)),
    # a child two types down widens the table, from row 100 on only
    "two_down": ((((98, 1), (101, 1)), 0.3), (((101, 1),), 0.2), ((), 0.5)),
}


@pytest.mark.parametrize("change", sorted(LATE_CHANGES))
def test_fixed_point_waits_for_every_input(change):
    # one input column changes at row 100, after mu and a have settled:
    # a fill from the first fixed point would miss it
    model = late_change_model(LATE_CHANGES[change])
    mom = embedded_moments(model, 300)
    assert mom.kind == "ok"
    mu, a, x, m0, log_m0, *_ = reference_moments(model, 300)
    assert mu[98] == mu[99] and a[98] == a[99]
    assert (mu[100], a[100]) != (mu[99], a[99]) or x[100] != x[99]
    for got, want in ((mom.mu, mu), (mom.a, a), (mom.x, x), (mom.m0, m0),
                      (mom.log_m0, log_m0)):
        assert _bits(got) == _bits(want)


def alternating_mean_model(n=400, seed=0):
    """Explicit model of n head laws with one or two children one type up,
    so that its embedded means are the law means: a seeded r in [0.9, 1.1],
    then 1/r, and so on.  log m0 stays within about 0.1 of 0, where a
    last-bit change in one log term survives the sum."""
    rng = np.random.default_rng(seed)
    head = []
    for i in range(n):
        if i % 2 == 0:
            r = rng.uniform(0.9, 1.1)
        one = (r if i % 2 == 0 else 1.0 / r) - 0.6
        head.append(TableLaw(((((i + 1, 1),), one), (((i + 1, 2),), 0.3),
                              ((), 0.7 - one))))
    return ExplicitModel(head=tuple(head))


def test_log_m0_takes_math_log():
    # np.log on an array may differ from math.log in the last bit; log m0
    # must be the cumsum of math.log of the means, bit for bit
    mom = embedded_moments(alternating_mean_model(), 399)
    assert mom.kind == "ok" and len(mom.mu) == 400
    logs = np.array([math.log(m) for m in mom.mu.tolist()])
    if np.array_equal(np.log(mom.mu), logs):
        pytest.skip("np.log equals math.log on every mean on this platform")
    assert _bits(mom.log_m0) == _bits(logs.cumsum())


def test_reference_models_cover_the_hard_cases():
    # the inf a_k case must stay NaN-free and the boundary case must stop at 0
    mom = embedded_moments(REFERENCE_MODELS["tri(0, 0.3, 1.6, u=3)"], 4000)
    assert mom.kind == "ok" and np.isinf(mom.a[-1])
    assert not np.any(np.isnan(mom.a))
    mom = embedded_moments(REFERENCE_MODELS["tri(0.25, 1, 0.5)"], 10)
    assert (mom.kind, mom.k_star) == ("boundary", 0)


def _refuse(*args):
    raise AssertionError("wrong loop for this table width")


@pytest.mark.parametrize("model", [
    ex2(0.03), tridiag(0.05, 0.3, 1.2), tridiag(0.0, 0.3, 1.6),
    TailModel(ex2(0.03), 2), e1_model()],
    ids=["ex2", "tri", "tri_no_down", "tail", "e1"])
def test_narrow_tables_take_the_scalar_loops(model, monkeypatch):
    # a fallback to the general loops would match the reference bit for bit
    # and only show as lost speed; tri_no_down has no down column, ex2 and
    # e1 no diagonal one
    monkeypatch.setattr(embedded, "_general_pass", _refuse)
    monkeypatch.setattr(embedded, "_general_sweep", _refuse)
    mom = embedded_moments(model, 4000)
    assert mom.table.width == 1
    assert mom.kind == "ok" and len(mom.a) == 4001


@pytest.mark.parametrize("model", [wide_band_model(), deep_band_model()],
                         ids=["wide_band", "deep_band"])
def test_wide_tables_take_the_general_loops(model, monkeypatch):
    monkeypatch.setattr(embedded, "_scalar_pass", _refuse)
    monkeypatch.setattr(embedded, "_scalar_sweep", _refuse)
    mom = embedded_moments(model, 4000)
    assert mom.table.width == 2 and len(mom.a) == len(mom.mu) > 0


@pytest.mark.parametrize("model", [
    ex2(0.03), tridiag(0.25, 0.25, 0.5), e1_model(), up_only_model(),
    ex2(0.3)], ids=["ex2", "tri", "e1", "up_only", "ex2_blowup"])
def test_scalar_loops_match_general_loops_across_chunks(model, monkeypatch):
    # empty rows for the offsets below -width up to -2 send a table to the
    # general loops and change no number; K runs three column chunks
    K = 2 * embedded._CHUNK + 1
    want = embedded_moments(model, K)
    real = type(model).moment_table

    def padded(self, K):
        t = real(self, K)
        pad = np.zeros((2 - t.width, K + 1))
        return MomentTable(2, np.vstack([pad, t.mean]), t.pairs, t.a,
                           t.p_double_up)
    monkeypatch.setattr(type(model), "moment_table", padded)
    monkeypatch.setattr(embedded, "_scalar_pass", _refuse)
    monkeypatch.setattr(embedded, "_scalar_sweep", _refuse)
    got = embedded_moments(model, K)
    for name in ("mu", "a", "x", "m0", "log_m0"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name))
    assert (got.kind, got.k_star) == (want.kind, want.k_star)
