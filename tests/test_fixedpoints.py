import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lhbp.generating
from lhbp import (ExplicitModel, RangeError, TableLaw, curve_from_anchor,
                  default_schedule, embedded_moments, extinction_ladder,
                  iterate_to_limit)
from lhbp.fixedpoints import ENDPOINT_SLACK

from conftest import ex2, g, pgf, product_tail_model, tridiag

EPS = np.finfo(float).eps
RANGE_SLACK = 1e-12  # how far outside [f(0), f(1)] a bisection target may lie


def _bisect_reference(f, target, tol):
    """The bisection inverse the curve used before Illinois regula falsi:
    an oracle for the curves, kept here and nowhere in the package."""
    lo, hi = 0.0, 1.0
    flo, fhi = f(lo), f(hi)
    if not (flo - RANGE_SLACK <= target <= fhi + RANGE_SLACK):
        raise RangeError(f"target {target!r} outside [{flo}, {fhi}]")
    if abs(flo - target) <= tol:
        return lo
    if abs(fhi - target) <= tol:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - target) <= tol or hi - lo <= 1e-16:
            return mid
        if fm < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _composed(model, k, s):
    """g_0(g_1(... g_k(s))): coordinate 0 of the level-k limit with boundary
    s, the anchor whose curve over indices 0..k+1 ends at s."""
    res = iterate_to_limit(model, k, s, tol=1e-13)
    assert res.converged
    return float(res.vector[0])


def test_invert_roundtrip_quartic():
    # the curve inverts the composed generating function: its last
    # coordinate is the boundary that the anchor came from
    m = ex2(0.0)
    curve = curve_from_anchor(m, _composed(m, 1, 0.5), 2)
    assert curve.values[2] == pytest.approx(0.5, abs=1e-10)


def test_invert_hits_zero_endpoint():
    # the anchor g_0(g_1(0)) of the level-1 global extinction vector has the
    # boundary s_2 = 0 at the end of its range; g_1(s) = 1/2 + s^4/2 is flat
    # there to fourth order, so rounding leaves s_2 free by about eps^(1/4)
    m = ex2(0.0)
    anchor = _composed(m, 1, 0.0)
    curve = curve_from_anchor(m, anchor, 2)
    assert curve.values[0] == pytest.approx(anchor, abs=1e-15)
    assert 0.0 <= curve.values[2] <= 1e-3


def test_invert_range_error():
    # no boundary in [0, 1] reaches an anchor below g_0(g_1(0)), and no
    # anchor lies above 1
    m = ex2(0.0)
    with pytest.raises(RangeError):
        curve_from_anchor(m, _composed(m, 1, 0.0) - 0.01, 2)
    with pytest.raises(ValueError):
        curve_from_anchor(m, 1.01, 2)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95))
def test_invert_roundtrip_property(s):
    m = tridiag(0.2, 0.1, 0.6)
    curve = curve_from_anchor(m, _composed(m, 3, s), 4)
    assert curve.values[4] == pytest.approx(s, abs=1e-9)


def test_invert_halves_a_flat_bracket():
    # the thinned upward counts of type 12 (ceil(u^12) = 2813) make s_0
    # flat in the boundary survival t = 1 - s_13 away from t = 0: at the
    # start t = 1 - s0 < 1/2 the tangent w_0 is 0 in floats, so the solve
    # squares t, which at least halves it, until the boundary steers s_0
    # again, and then meets the anchor
    m = tridiag(0.10562250967506781, 0.18243616688779896, 1.6279810464423206,
                1.9383336529303758)
    s0 = 0.5181193695660549
    kernel = lhbp.generating._compiled(m, (12,))
    start = np.ones(14)
    start[13] = 1.0 - s0
    jac = kernel(start)[1]
    assert lhbp.generating._Layout((12,)).tangent(jac)[0] == 0.0
    curve = curve_from_anchor(m, s0, 13)
    assert curve.values[0] == pytest.approx(s0, abs=1e-12)
    assert curve.residual <= 1e-12
    assert s0 < curve.values[13] < 1.0


def test_curve_construction_agrees_with_embedded_inversion(top_level_03):
    # the curve's coordinates invert the embedded generating functions one
    # index at a time: s_{j+1} = g_j^-1(s_j), here by the tests' bisection
    model = ex2(0.3)
    q, qt = top_level_03
    anchor = 0.5 * (q[0] + qt[0])
    curve = curve_from_anchor(model, anchor, 10, bounds=(q[0], qt[0]))
    s = anchor
    for j in range(8):
        s_next = _bisect_reference(lambda x: g(model, j, x), s, 1e-13)
        assert curve.values[j + 1] == pytest.approx(s_next, abs=1e-8)
        s = s_next


def test_curve_at_extinction_anchor(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    for anchor, window in ((q[0], q), (qt[0], qt)):
        curve = curve_from_anchor(model, float(anchor), 60,
                                  bounds=(q[0], qt[0]))
        assert len(curve.values) == 61
        assert curve.residual <= 1e-8
        assert np.allclose(curve.values, window[:61], atol=2e-5)


def test_curve_membership_and_ordering(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    anchors = np.linspace(q[0], qt[0], 7)[1:-1]
    curves = [curve_from_anchor(model, float(a), 120, bounds=(q[0], qt[0]))
              for a in anchors]
    for c in curves:
        assert len(c.values) == 121
        assert c.residual <= 1e-10
        n = len(c.values)
        assert np.all(c.values >= q[:n] - 1e-6)
        assert np.all(c.values <= qt[:n] + 1e-6)
    for c1, c2 in zip(curves, curves[1:]):
        assert np.all(c1.values <= c2.values + 1e-12)


def test_curve_rejects_outside_anchor(top_level_03):
    q, qt = top_level_03
    with pytest.raises(RangeError):
        curve_from_anchor(ex2(0.3), qt[0] + 1e-3, 10, bounds=(q[0], qt[0]))
    with pytest.raises(RangeError):
        curve_from_anchor(ex2(0.3), q[0] - 1e-3, 10, bounds=(q[0], qt[0]))


def test_curve_rejects_anchor_outside_unit_interval():
    # the bounds' ENDPOINT_SLACK lets no anchor past [0, 1] through: the
    # anchor is a probability, not just a point near the bracket
    model = tridiag(0.15, 0.25, 0.7)
    q0 = float(iterate_to_limit(model, 64, 0.0).vector[0])
    for s0 in (1.0000005, -1e-7, math.nan):
        with pytest.raises(ValueError, match="anchor"):
            curve_from_anchor(model, s0, 10, bounds=(q0, 1.0))
        with pytest.raises(ValueError, match="anchor"):
            curve_from_anchor(model, s0, 10)


@pytest.mark.parametrize("model, s0", [(ex2(0.3), 0.8077), (ex2(0.22), 0.8336),
                                       (tridiag(0.1, 0.3, 1.1), 0.7),
                                       (product_tail_model(),
                                        0.5658512532070958)])
def test_curve_matches_per_probe_law_build(model, s0):
    # the curve comes from the compiled survival kernels; each index's law,
    # built on its own and evaluated by its pgf, holds on it, and the
    # residual the curve reports agrees with the pgf residual
    curve = curve_from_anchor(model, s0, 60)
    values = curve.values
    assert len(values) == 61 and values[0] == pytest.approx(s0, abs=1e-12)
    residual = max(abs(pgf(model.law(j), values) - values[j])
                   for j in range(60))
    assert residual <= 1e-12
    assert abs(curve.residual - residual) <= 1e-15


POOL_GAMMAS = (0.22, 0.24, 0.3)


@pytest.fixture(scope="module")
def pool_bounds():
    """(q_0, qtilde_0) of the level-1024 ladder of ex2(gamma), as the
    ``fixedpoints --k 1024`` command computes them."""
    out = {}
    for gamma in POOL_GAMMAS:
        ladder = extinction_ladder(ex2(gamma), default_schedule(1024))
        out[gamma] = (float(ladder.q_results[-1].vector[0]),
                      float(ladder.qtilde_results[-1].vector[0]))
    return out


@pytest.mark.parametrize("gamma", POOL_GAMMAS)
def test_curve_matches_bisection_reference(pool_bounds, gamma):
    # the J = 200 midpoint-anchor curve stays within 1e-9 of the curve the
    # bisection reference builds coordinate by coordinate
    model = ex2(gamma)
    q0, qt0 = pool_bounds[gamma]
    anchor = 0.5 * (q0 + qt0)
    curve = curve_from_anchor(model, anchor, 200, bounds=(q0, qt0))
    assert len(curve.values) == 201
    ref = [anchor] + [0.0] * 201
    for j in range(200):
        law = model.law(j)

        def coordinate(x):
            ref[j + 1] = x
            return pgf(law, ref)

        ref[j + 1] = _bisect_reference(coordinate, ref[j], 1e-13)
    assert np.max(np.abs(curve.values - ref[:201])) <= 1e-9


@pytest.mark.parametrize("gamma", POOL_GAMMAS)
def test_curve_pgf_calls_per_index(monkeypatch, pool_bounds, gamma):
    # the curve is one Newton solve: one survival-kernel call per step, and
    # no law generating function (the package has none: ``pgf`` is the
    # tests' reference)
    q0, qt0 = pool_bounds[gamma]
    calls = {"kernel": 0}
    compiled = lhbp.generating._compiled

    def counted_compiled(model, k):
        kernel = compiled(model, k)

        def counted(v):
            calls["kernel"] += 1
            return kernel(v)
        return counted

    monkeypatch.setattr(lhbp.generating, "_compiled", counted_compiled)
    curve = curve_from_anchor(ex2(gamma), 0.5 * (q0 + qt0), 200,
                              bounds=(q0, qt0))
    assert len(curve.values) == 201
    assert curve.residual <= 1e-10
    assert not hasattr(TableLaw, "pgf")
    assert calls["kernel"] <= 30


def _count_kernel_calls(monkeypatch):
    """Count the survival-kernel calls of the solves from here on."""
    calls = {"kernel": 0}
    compiled = lhbp.generating._compiled

    def counted_compiled(model, k):
        kernel = compiled(model, k)

        def counted(v):
            calls["kernel"] += 1
            return kernel(v)
        return counted

    monkeypatch.setattr(lhbp.generating, "_compiled", counted_compiled)
    return calls


@pytest.fixture(scope="module")
def pool_q():
    """The level-1024 q and qtilde vectors of ex2(gamma), which the
    ``fixedpoints --k 1024`` command solves and starts its curve from."""
    out = {}
    for gamma in POOL_GAMMAS:
        ladder = extinction_ladder(ex2(gamma), (1024,))
        out[gamma] = (ladder.q_results[0].vector,
                      ladder.qtilde_results[0].vector)
    return out


@pytest.mark.parametrize("gamma", POOL_GAMMAS)
def test_curve_from_q_takes_fewer_steps(monkeypatch, pool_q, gamma):
    # the J = 200 midpoint curve started from the level-1024 q vector takes
    # at most 12 kernel calls (17-19 from s = 0) and stays within 2e-15 of
    # the curve started from s = 0
    q, qt = pool_q[gamma]
    anchor = 0.5 * (q[0] + qt[0])
    cold = curve_from_anchor(ex2(gamma), anchor, 200, bounds=(q[0], qt[0]))
    calls = _count_kernel_calls(monkeypatch)
    warm = curve_from_anchor(ex2(gamma), anchor, 200, bounds=(q[0], qt[0]),
                             start=q)
    assert calls["kernel"] <= 12
    assert warm.residual <= 1e-10
    assert np.all(np.abs(warm.values - cold.values) <= 2e-15 * cold.values)
    assert np.allclose(warm.decay, cold.decay, rtol=1e-14, atol=0.0)


def _drift_up_explicit(p_up, p_down, count):
    """Explicit model whose shift-repeated type-1 law bears ``count``
    children one type up or one child one type down: it drifts upward, so
    its global extinction probability lies below its partial one."""
    return ExplicitModel(head=(
        TableLaw(((((1, 1),), 0.5), ((), 0.5))),
        TableLaw(((((2, count),), p_up), (((0, 1),), p_down),
                  ((), 1.0 - p_up - p_down)))))


@st.composite
def _separated_models(draw):
    """Models with q_0 < qtilde_0 in each family: example2 below its
    q = qtilde range, tridiagonal with b + 2 sqrt(ac) < 1 < a + b + c (no
    local survival, global survival possible) at u = 1 and slightly above,
    and drift-up explicit models."""
    family = draw(st.sampled_from(("ex2", "tri", "thinned", "explicit")))
    if family == "ex2":
        return ex2(draw(st.sampled_from(POOL_GAMMAS) | st.floats(0.0, 0.32)))
    if family == "explicit":
        return _drift_up_explicit(draw(st.floats(0.45, 0.6)),
                                  draw(st.floats(0.02, 0.15)),
                                  draw(st.sampled_from((2, 3))))
    a, b = draw(st.floats(0.01, 0.1)), draw(st.floats(0.0, 0.2))
    if family == "tri":
        c = draw(st.floats(1.05 - a - b, min(2.0, (1 - b) ** 2 / (4 * a))))
        return tridiag(a, b, c)
    return tridiag(a, b, draw(st.floats(1.0, 1.4)),
                   draw(st.floats(1.01, 1.08)))


def _anchor_sensitivity(model, curve):
    """|ds_j / ds_0| along a curve over 0..J: the tangent w of its
    level-(J-1) truncation in the boundary survival t, over w_0 (inf where
    w_0 is 0 and the anchor does not fix the boundary)."""
    J = len(curve.values) - 1
    jac = lhbp.generating._compiled(model, (J - 1,))(1.0 - curve.values)[1]
    w = np.append(lhbp.generating._Layout((J - 1,)).tangent(jac), 1.0)
    return np.abs(w / w[0]) if w[0] > 0.0 else np.full(J + 1, np.inf)


@settings(max_examples=60, deadline=None)
@given(model=_separated_models(), J=st.integers(1, 150),
       share=st.floats(0.0, 1.0))
@example(model=tridiag(0.0625, 0.0, 2.0), J=1, share=0.5)
@example(model=ex2(0.3), J=132, share=0.0)
def test_curve_from_q_matches_curve_from_zero(model, J, share):
    # Newton from the q curve, which lies above the target in survival
    # terms, reaches the curve that the start s = 0 reaches, within what
    # meeting the anchor to a few ulps allows: s_j moves by |ds_j / ds_0|
    # times the anchor's error, which near q_0 is large in the tail (there
    # the start from q returns q itself).  Over 600 random curves the two
    # differed by at most 3.9 eps (1 + |ds_j / ds_0|), and on the pool
    # curves by at most 5.9e-16 relative.  The first example's t = 1 - q_1
    # is 1, where the map is flat in t (type 0 bears two type-1 children
    # or none), so it starts from s = 0
    ladder = extinction_ladder(model, (256,))
    q, qt = ladder.q_results[0].vector, ladder.qtilde_results[0].vector
    # where q_0 = qtilde_0 the anchor does not fix the boundary (see
    # test_curve_from_q_follows_q_where_q_equals_qtilde)
    assume(qt[0] - q[0] >= 1e-3)
    anchor = float(q[0] + share * (qt[0] - q[0]))
    cold = curve_from_anchor(model, anchor, J, bounds=(q[0], qt[0]))
    warm = curve_from_anchor(model, anchor, J, bounds=(q[0], qt[0]),
                             start=q)
    assert cold.residual <= 1e-10 and warm.residual <= 1e-10
    allowed = 16 * EPS * (1.0 + _anchor_sensitivity(model, warm))
    assert np.all(np.abs(warm.values - cold.values) <= allowed)


@pytest.mark.parametrize("model, J", [
    (product_tail_model(), 200), (ex2(0.8), 100)])
def test_curve_from_q_follows_q_where_q_equals_qtilde(model, J):
    # q_0 = qtilde_0: the start q is the curve through the anchor q_0, so
    # the curve follows q through index J, where the start s = 0 leaves q
    # for the boundary over the last indices
    ladder = extinction_ladder(model, (256,))
    q, qt = ladder.q_results[0].vector, ladder.qtilde_results[0].vector
    assert q[0] == qt[0]
    curve = curve_from_anchor(model, q[0], J, bounds=(q[0], qt[0]), start=q)
    assert np.max(np.abs(curve.values - q[:J + 1])) <= 1e-15
    cold = curve_from_anchor(model, q[0], J, bounds=(q[0], qt[0]))
    assert np.max(np.abs(cold.values - q[:J + 1])) > 1e-3


def test_curve_below_q_starts_from_zero(monkeypatch):
    # an anchor within ENDPOINT_SLACK below q_0 lies below the q curve, so
    # q is no start from above: the solve starts from s = 0, bit for bit
    # as without a start, while an anchor at q_0 takes the start
    model = ex2(0.3)
    ladder = extinction_ladder(model, (1024,))
    q, qt = ladder.q_results[0].vector, ladder.qtilde_results[0].vector
    calls = _count_kernel_calls(monkeypatch)

    def curve(anchor, start):
        calls["kernel"] = 0
        c = curve_from_anchor(model, anchor, 40, bounds=(q[0], qt[0]),
                              start=start)
        return c.values, calls["kernel"]

    below = float(q[0]) - 0.5 * ENDPOINT_SLACK
    (cold, n_cold), (warm, n_warm) = curve(below, None), curve(below, q)
    assert n_cold == n_warm and np.array_equal(cold, warm)
    assert curve(float(q[0]), q)[1] < curve(float(q[0]), None)[1]
    with pytest.raises(ValueError, match="start"):
        curve(float(q[0]), q[:40])


def _survival_oracle(model, v0, J, digits=40):
    """Survival values v_0..v_J of the curve through v_0 = v0, extended one
    index at a time in ``digits``-digit decimal arithmetic: v_{j+1} solves
    V_j(v_0, ..., v_{j+1}) = v_j, with V_j(v) = sum_o p_o (1 - prod_t
    (1 - v_t)^c_t), by bisection to a width relative to its upper end.  The
    survival form keeps the tail's digits, and it does not rely on the
    law's probabilities summing to 1, which they do only within 1e-16."""
    with localcontext() as ctx:
        ctx.prec = digits
        one, v = Decimal(1), [Decimal(v0)]
        for j in range(J):
            outcomes = [(Decimal(p), counts)
                        for counts, p in model.law(j).outcomes() if counts]

            def V(x):
                total = Decimal(0)
                for p, counts in outcomes:
                    prod = one
                    for t, c in counts:
                        prod *= (one - (x if t == j + 1 else v[t])) ** int(c)
                    total += p * (one - prod)
                return total

            lo, hi = Decimal(0), one
            while hi - lo > hi.scaleb(2 - digits):
                mid = (lo + hi) / 2
                if V(mid) < v[j]:
                    lo = mid
                else:
                    hi = mid
            v.append((lo + hi) / 2)
    return np.array([float(x) for x in v])


@pytest.mark.parametrize("share", (0.5, 0.99))
def test_curve_tail_matches_decimal_oracle(pool_bounds, share):
    # 1 - s_j within 1e-11 relative of a 40-digit oracle over j <= 200, at
    # the midpoint anchor and near qtilde_0, where 1 - s_200 is 3e-8, so a
    # stop absolute in s would lose its digits: in survival space, and in
    # the printed s up to its rounding to a float near 1
    model = ex2(0.3)
    q0, qt0 = pool_bounds[0.3]
    anchor = q0 + share * (qt0 - q0)
    oracle = _survival_oracle(model, 1.0 - anchor, 200)
    curve = curve_from_anchor(model, anchor, 200, bounds=(q0, qt0))
    assert np.all(np.abs((1.0 - curve.values) - oracle)
                  <= 1e-11 * oracle + 2.0 ** -53)
    v, _ = lhbp.generating._anchored_solve(model, 199, 1.0 - anchor, 1e-12)
    assert np.max(np.abs(v / oracle - 1.0)) <= 1e-11


@pytest.mark.parametrize("model, J", [
    (product_tail_model(), 200), (ex2(0.8), 100),
    (tridiag(0.4744670523110819, 0.6678908507387222, 0.1464228002654068,
             2.398390067080819), 100)])
def test_curve_follows_q_where_q_equals_qtilde(model, J):
    # q = qtilde: the anchor cannot move the boundary, and the midpoint
    # curve is the level-(J-1) truncation, whose first half follows q.  On
    # the thinned tridiagonal model q_1..q_3 lie below q_0, so a start of
    # 1 - s0 at every type lies below the curve in survival terms, and
    # Newton from there falls to the trivial fixed point s = 1
    ladder = extinction_ladder(model, default_schedule(256))
    q0 = float(ladder.q_results[-1].vector[0])
    qt0 = float(ladder.qtilde_results[-1].vector[0])
    curve = curve_from_anchor(model, 0.5 * (q0 + qt0), J, bounds=(q0, qt0))
    q = iterate_to_limit(model, 1024, 0.0).vector
    assert len(curve.values) == J + 1
    assert np.max(np.abs(curve.values[:J // 2 + 1] - q[:J // 2 + 1])) <= 1e-12


def test_curve_truncates_below_q():
    # an anchor below the global extinction value lies below the reach of
    # the level-39 truncation: even the boundary s_40 = 0 gives a larger s_0
    model = ex2(0.3)
    with pytest.raises(RangeError, match="outside the reach"):
        curve_from_anchor(model, 0.5, 40)


def _last_quarter(seq):
    return seq[-max(2, len(seq) // 4):]


def test_decay_diagnostics_gamma0():
    # along the global extinction curve of the pure-upward family the decay
    # (1 - q_k) m_{0->k-1} = (1 - q_k) k grows without bound: over the last
    # quarter of the window it moves by more than 5% and ends higher
    model = ex2(0.0)
    q = iterate_to_limit(model, 600, 0.0).vector
    curve = curve_from_anchor(model, float(q[0]), 400)
    tail = _last_quarter(curve.decay)
    assert np.all(np.isfinite(tail))
    assert np.ptp(tail) >= 0.05 * np.max(tail) and tail[-1] > tail[0]
    gap_s = 1.0 - curve.values
    assert np.all(gap_s > 0)
    n = len(curve.values)
    # the curve is the q-curve itself: the gap ratio settles near one
    tail = _last_quarter((1.0 - q[:n]) / gap_s)
    assert np.ptp(tail) < 0.05 * np.max(tail)
    assert np.mean(tail) == pytest.approx(1.0, abs=0.05)
    # against qtilde = 1 the ratio vanishes
    assert np.all((1.0 - np.ones(n)) / gap_s == 0.0)


def test_decay_diagnostics_intermediate_03(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    anchor = 0.5 * (q[0] + qt[0])
    curve = curve_from_anchor(model, anchor, 200, bounds=(q[0], qt[0]))
    mom = embedded_moments(model, 200, with_a=False)
    # the mu table blows up at k* = 2, so the decay prefix stops there and is
    # far too short to assess the limit; it must still be positive and finite
    assert len(curve.decay) == mom.ok_through + 1
    assert np.all(curve.decay > 0) and np.all(np.isfinite(curve.decay))
    # intermediate curves separate from both extremes: the gap to q grows
    # while the gap to qtilde collapses by orders of magnitude (it then
    # plateaus at a tiny level on this window, so assert the collapse itself)
    gap_s = 1.0 - curve.values
    assert np.all(gap_s > 0)
    tail = _last_quarter((1.0 - q[:201]) / gap_s)
    assert np.ptp(tail) >= 0.05 * np.max(tail) and tail[-1] > tail[0]
    ratio_qtilde = (1.0 - qt[:201]) / gap_s
    assert ratio_qtilde[60] < 1e-3 * ratio_qtilde[10]
    assert ratio_qtilde[-1] < 2e-4
