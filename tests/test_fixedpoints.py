import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (RangeError, TableLaw, curve_from_anchor, default_schedule,
                  embedded_moments, extinction_ladder, iterate_to_limit,
                  product_law)
from lhbp.fixedpoints import RANGE_SLACK, _invert

from conftest import ex2, g, product_tail_model, tridiag

INVERT_STEPS = 200  # _invert's loop cap, after its two endpoint probes


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


def test_invert_roundtrip_quartic():
    m = ex2(0.0)
    v = g(m, 1, 0.5)
    assert _invert(lambda s: g(m, 1, s), v, 1e-12)[0] == \
        pytest.approx(0.5, abs=1e-10)


def test_invert_hits_zero_endpoint():
    # g_1(0) = 1/2 for the quartic law, so the preimage of 1/2 is 0
    m = ex2(0.0)
    assert _invert(lambda s: g(m, 1, s), 0.5, 1e-12)[0] == 0.0


def test_invert_range_error():
    m = ex2(0.0)
    g0 = g(m, 1, 0.0)
    with pytest.raises(RangeError):
        _invert(lambda s: g(m, 1, s), g0 - 0.01, 1e-12)
    with pytest.raises(RangeError):
        _invert(lambda s: g(m, 1, s), 1.01, 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95))
def test_invert_roundtrip_property(s):
    m = tridiag(0.2, 0.1, 0.6)
    assert _invert(lambda x: g(m, 3, x), g(m, 3, s), 1e-12)[0] == \
        pytest.approx(s, abs=1e-9)


unit = st.floats(0.0, 1.0)


@st.composite
def table_laws(draw, j):
    entries = [(tuple(sorted(draw(st.dictionaries(
        st.integers(0, j + 1), st.integers(1, 6), max_size=3)).items())),
        draw(st.floats(0.01, 1.0))) for _ in range(draw(st.integers(1, 4)))]
    total = sum(p for _, p in entries)
    return TableLaw(tuple((counts, p / total) for counts, p in entries))


@st.composite
def product_laws(draw, j):
    coords = []
    for t in draw(st.sets(st.integers(0, j + 1), min_size=1)):
        pmf = draw(st.lists(st.tuples(
            st.sampled_from([0.0, 1.0, 2.0, 5.0, 100.0, 2.0 ** 60]),
            st.floats(0.01, 1.0)), min_size=1, max_size=3))
        total = sum(p for _, p in pmf)
        coords.append((t, tuple((c, p / total) for c, p in pmf)))
    return product_law(sorted(coords))


@st.composite
def laws_with_index(draw):
    """A type-j offspring law; its last child type j + 1 is the unknown."""
    kind = draw(st.sampled_from(["example2", "tridiagonal", "table",
                                 "product"]))
    if kind == "example2":
        j = draw(st.integers(0, 60))
        return ex2(draw(unit)).law(j), j
    if kind == "tridiagonal":
        # u = 2 thins the type-(j+1) count by ceil(2^j): up to 2^1023
        j = draw(st.integers(0, 1100))
        return tridiag(draw(st.floats(0, 2)), draw(st.floats(0, 2)),
                       draw(st.floats(0.01, 2)),
                       draw(st.floats(1, 2))).law(j), j
    j = draw(st.integers(0, 3))
    laws = table_laws if kind == "table" else product_laws
    return draw(laws(j)), j


@settings(max_examples=100, deadline=None)
@given(law_j=laws_with_index(), data=st.data(),
       tol=st.sampled_from([1e-12, 1e-13, 1e-15]))
def test_invert_roundtrip_over_laws(law_j, data, tol):
    # either stop of the contract holds when _invert returns: the residual
    # is within tol, or the bracket its probes left is at most 1e-16 wide
    law, j = law_j
    buf = [data.draw(unit) for _ in range(j + 1)] + [0.0]
    probes = []

    def f(x):
        buf[-1] = x
        probes.append((x, law.pgf(buf)))
        return probes[-1][1]

    target = f(data.draw(unit))
    probes.clear()
    x, r = _invert(f, target, tol)
    assert 0.0 <= x <= 1.0
    assert len(probes) <= 2 + INVERT_STEPS
    # the residual handed back is that of the probe at x
    assert r == next(v for p, v in probes if p == x) - target
    lo = max((p for p, v in probes[:-1] if v < target), default=0.0)
    hi = min((p for p, v in probes[:-1] if v >= target), default=1.0)
    assert abs(f(x) - target) <= tol or (hi - lo <= 1e-16 and lo <= x <= hi)


def test_invert_halves_a_flat_bracket():
    # f(x) = x^200 is below 1e-60 on [0, 1/2]: the Illinois secant alone
    # only doubles x per step from about the target 0.3^200; the forced
    # midpoint steps halve the bracket every third step and reach 0.3
    law = product_law(((0, ((200.0, 1.0),)),))
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return law.pgf([x])

    target = f(0.3)
    calls = 0
    x, _ = _invert(f, target, 0.0)
    assert calls <= 2 + INVERT_STEPS
    assert x == pytest.approx(0.3, rel=1e-14)


def test_curve_construction_agrees_with_embedded_inversion(top_level_03):
    # stepping with the scalar coordinate solve reproduces g_j inversion
    model = ex2(0.3)
    q, qt = top_level_03
    anchor = 0.5 * (q[0] + qt[0])
    curve = curve_from_anchor(model, anchor, 10, bounds=(q[0], qt[0]))
    s = anchor
    for j in range(8):
        s_next, _ = _invert(lambda x: g(model, j, x), s, 1e-13)
        assert curve.values[j + 1] == pytest.approx(s_next, abs=1e-8)
        s = s_next


def test_curve_at_extinction_anchor(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    for anchor, window in ((q[0], q), (qt[0], qt)):
        curve = curve_from_anchor(model, float(anchor), 60,
                                  bounds=(q[0], qt[0]))
        assert curve.ok
        assert curve.residual <= 1e-8
        assert np.allclose(curve.values, window[:61], atol=2e-5)


def test_curve_membership_and_ordering(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    anchors = np.linspace(q[0], qt[0], 7)[1:-1]
    curves = [curve_from_anchor(model, float(a), 120, bounds=(q[0], qt[0]))
              for a in anchors]
    for c in curves:
        assert c.ok
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
                                       (product_tail_model(), 0.6)])
def test_curve_matches_per_probe_law_build(model, s0):
    # the curve builds each index's law once on a buffer of Python floats; an
    # inversion that rebuilds the law on every probe of a numpy buffer gives
    # the same bits, and so does the residual taken over the finished curve
    curve = curve_from_anchor(model, s0, 60)
    buf = np.zeros(62)
    buf[0] = s0
    for j in range(len(curve.values) - 1):
        def coordinate(x):
            buf[j + 1] = x
            return model.law(j).pgf(buf)

        buf[j + 1], _ = _invert(coordinate, buf[j], 1e-13)
    assert buf[:len(curve.values)].tobytes() == curve.values.tobytes()
    values = curve.values
    residual = max((abs(model.law(j).pgf(values) - values[j])
                    for j in range(len(values) - 1)), default=0.0)
    assert curve.residual == residual


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
    assert curve.ok and len(curve.values) == 201
    ref = [anchor] + [0.0] * 201
    for j in range(200):
        law = model.law(j)

        def coordinate(x):
            ref[j + 1] = x
            return law.pgf(ref)

        ref[j + 1] = _bisect_reference(coordinate, ref[j], 1e-13)
    assert np.max(np.abs(curve.values - ref[:201])) <= 1e-9


@pytest.mark.parametrize("gamma", (0.22, 0.3))
def test_curve_pgf_calls_per_index(monkeypatch, pool_bounds, gamma):
    # the inversion's cost as a count of pgf calls: bisection made about 43
    # per index (two endpoint probes, about 40 steps and the residual)
    q0, qt0 = pool_bounds[gamma]
    pgf = TableLaw.pgf
    calls = 0

    def counted(law, u):
        nonlocal calls
        calls += 1
        return pgf(law, u)

    monkeypatch.setattr(TableLaw, "pgf", counted)
    curve = curve_from_anchor(ex2(gamma), 0.5 * (q0 + qt0), 200,
                              bounds=(q0, qt0))
    assert len(curve.values) == 201
    assert curve.residual <= 1e-10
    assert calls / 200 <= 10


def test_curve_truncates_below_q():
    # an anchor below the global extinction value cannot extend far
    model = ex2(0.3)
    curve = curve_from_anchor(model, 0.5, 40)
    assert curve.failure_index is not None


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
