import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (RangeError, curve_from_anchor, embedded_moments,
                  iterate_to_limit)
from lhbp.fixedpoints import _bisect

from conftest import ex2, g, product_tail_model, tridiag


def test_invert_roundtrip_quartic():
    m = ex2(0.0)
    v = g(m, 1, 0.5)
    assert _bisect(lambda s: g(m, 1, s), v, 1e-12) == \
        pytest.approx(0.5, abs=1e-10)


def test_invert_hits_zero_endpoint():
    # g_1(0) = 1/2 for the quartic law, so the preimage of 1/2 is 0
    m = ex2(0.0)
    assert _bisect(lambda s: g(m, 1, s), 0.5, 1e-12) == 0.0


def test_invert_range_error():
    m = ex2(0.0)
    g0 = g(m, 1, 0.0)
    with pytest.raises(RangeError):
        _bisect(lambda s: g(m, 1, s), g0 - 0.01, 1e-12)
    with pytest.raises(RangeError):
        _bisect(lambda s: g(m, 1, s), 1.01, 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95))
def test_invert_roundtrip_property(s):
    m = tridiag(0.2, 0.1, 0.6)
    assert _bisect(lambda x: g(m, 3, x), g(m, 3, s), 1e-12) == \
        pytest.approx(s, abs=1e-9)


def test_curve_construction_agrees_with_embedded_inversion(top_level_03):
    # stepping with the scalar coordinate solve reproduces g_j inversion
    model = ex2(0.3)
    q, qt = top_level_03
    anchor = 0.5 * (q[0] + qt[0])
    curve = curve_from_anchor(model, anchor, 10, bounds=(q[0], qt[0]))
    s = anchor
    for j in range(8):
        s_next = _bisect(lambda x: g(model, j, x), s, 1e-13)
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


@pytest.mark.parametrize("model, s0", [(ex2(0.3), 0.8077), (ex2(0.22), 0.8336),
                                       (tridiag(0.1, 0.3, 1.1), 0.7),
                                       (product_tail_model(), 0.6)])
def test_curve_matches_per_probe_law_build(model, s0):
    # the curve builds each index's law once; a bisection that rebuilds it
    # on every probe gives the same bits, and so does the residual taken
    # over the finished curve
    curve = curve_from_anchor(model, s0, 60)
    buf = np.zeros(62)
    buf[0] = s0
    for j in range(len(curve.values) - 1):
        def coordinate(x):
            buf[j + 1] = x
            return model.law(j).pgf(buf)

        buf[j + 1] = _bisect(coordinate, buf[j], 1e-13)
    assert buf[:len(curve.values)].tobytes() == curve.values.tobytes()
    values = curve.values
    residual = max((abs(model.law(j).pgf(values) - values[j])
                    for j in range(len(values) - 1)), default=0.0)
    assert curve.residual == residual


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
