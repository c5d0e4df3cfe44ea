import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (ExplicitModel, G_value, TableLaw, default_schedule,
                  extinction_ladder, iterate_to_limit)

from conftest import (all_die_model, e1_model, ex2, product_tail_model,
                      tridiag, up_only_model, wide_band_model)


def naive_iteration(model, k, s, sweeps):
    """Independent oracle: plain repeated application via scalar G values."""
    u = np.zeros(k + 2)
    u[k + 1] = s
    history = [u.copy()]
    for _ in range(sweeps):
        new = u.copy()
        for i in range(k + 1):
            new[i] = G_value(model, i, u)
        u = new
        history.append(u.copy())
    return history


def test_gamma0_boundary_one_is_fixed():
    r = iterate_to_limit(ex2(0.0), 1, 1.0)
    assert np.allclose(r.vector, [1.0, 1.0, 1.0], atol=1e-14)


def test_gamma0_level1_hand_solved():
    # with gamma = 0 the level-1 system solves by substitution:
    # u_1 = 1/2, u_0 = 3/4 + (1/4)(1/2)^4 = 49/64
    r = iterate_to_limit(ex2(0.0), 1, 0.0)
    assert r.vector[1] == pytest.approx(0.5, abs=1e-14)
    assert r.vector[0] == pytest.approx(49 / 64, abs=1e-14)
    assert r.vector[2] == 0.0
    assert r.converged


def test_iteration_matches_naive_oracle():
    model = ex2(0.35)
    r = iterate_to_limit(model, 6, 0.25, tol=1e-13)
    hist = naive_iteration(model, 6, 0.25, 400)
    assert np.allclose(r.vector, hist[-1], atol=1e-10)
    # monotone iterate sequence, also for the independent oracle
    for a, b in zip(hist, hist[1:]):
        assert np.all(b >= a - 1e-15)


def test_residual_and_range_invariants():
    for model, k, s in ((ex2(0.3), 40, 0.0), (ex2(0.3), 40, 1.0),
                        (tridiag(0.1, 0.2, 0.8), 40, 0.5)):
        r = iterate_to_limit(model, k, s, tol=1e-12)
        assert r.converged
        assert r.residual <= 1e-11  # 10 * tol
        assert r.vector[k + 1] == s
        assert np.all((r.vector >= 0) & (r.vector <= 1))


def test_monotone_in_boundary():
    model = ex2(0.3)
    grid = np.linspace(0, 1, 9)
    vecs = [iterate_to_limit(model, 24, s, tol=1e-13).vector for s in grid]
    for a, b in zip(vecs, vecs[1:]):
        assert np.all(b >= a - 1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_monotone_in_boundary_property(s1, s2):
    if s1 > s2:
        s1, s2 = s2, s1
    model = tridiag(0.2, 0.1, 0.6)
    v1 = iterate_to_limit(model, 12, s1, tol=1e-13).vector
    v2 = iterate_to_limit(model, 12, s2, tol=1e-13).vector
    assert np.all(v2 >= v1 - 1e-10)


def test_ladder_gamma0_schedule():
    ladder = extinction_ladder(ex2(0.0), (1000, 2000, 4000, 8000), window=2)
    q0 = ladder.q_window[:, 0]
    assert np.all(np.diff(q0) > 0)
    assert np.allclose(ladder.qtilde_window, 1.0, atol=1e-12)


def test_ladder_gamma08_merged():
    ladder = extinction_ladder(ex2(0.8), (250, 500, 1000, 2000), window=2)
    q0 = ladder.q_results[-1].vector[0]
    qt0 = ladder.qtilde_results[-1].vector[0]
    assert abs(q0 - qt0) < 1e-3


def test_ladder_all_die():
    ladder = extinction_ladder(all_die_model(), (1, 2, 4), window=2)
    assert np.allclose(ladder.q_window, 1.0, atol=1e-14)


def test_ladder_monotone_and_sandwich(ladder_ex2_03):
    qw = ladder_ex2_03.q_window
    qtw = ladder_ex2_03.qtilde_window
    assert np.all(np.diff(qw, axis=0) >= -1e-12)
    assert np.all(np.diff(qtw, axis=0) <= 1e-12)
    assert np.all(qtw >= qw)
    assert np.all(ladder_ex2_03.q_estimate <= ladder_ex2_03.qtilde_estimate)


def test_ladder_rejects_bad_schedule():
    with pytest.raises(ValueError, match="increasing"):
        extinction_ladder(ex2(0.0), (4, 4, 8))
    with pytest.raises(ValueError, match="window"):
        extinction_ladder(ex2(0.0), (2, 4), window=10)


def test_default_schedule():
    assert default_schedule(8) == (1, 2, 4, 8)
    assert default_schedule(10) == (1, 2, 4, 8, 10)
    assert default_schedule(0) == (0,)
    with pytest.raises(ValueError, match=">= 0"):
        default_schedule(-1)


def test_nonconvergence_flagged():
    r = iterate_to_limit(ex2(0.3), 64, 1.0, tol=1e-13, max_iter=3)
    assert not r.converged
    assert r.residual > 1e-13


def test_newton_breakdown_flagged():
    # the truncated qtilde of tridiagonal(0.1, 0.3, 1.2) is 1, but beyond
    # k of about 650 the survival values behind the front underflow and
    # Newton can oscillate until the k + 100 step cap: reported unconverged.
    # Which k in 650..1000 fail depends on the rounding of the band solve;
    # every k tried from 1000 on fails.
    r = iterate_to_limit(tridiag(0.1, 0.3, 1.2), 1024, 1.0)
    assert not r.converged
    assert r.iterations == 1124
    r = iterate_to_limit(tridiag(0.1, 0.3, 1.2), 500, 1.0)
    assert r.converged
    assert r.vector[0] >= 1 - 1e-12


def test_converged_vector_satisfies_scalar_G():
    # dual route: the compiled-sweep fixed point checks out against the
    # generic scalar evaluation of each coordinate
    for model in (ex2(0.3), tridiag(0.1, 0.2, 0.8, u=2.0), wide_band_model(),
                  up_only_model()):
        r = iterate_to_limit(model, 9, 0.3, tol=1e-13)
        for i in range(10):
            assert G_value(model, i, r.vector) == pytest.approx(r.vector[i],
                                                                abs=1e-10)


def _dense(jac):
    """(k+1) x (k+2) matrix of dV_i/dv_j from a kernel's Jacobian band."""
    rows, n = jac.shape
    out = np.zeros((n, n + 1))
    for d in range(rows):
        for i in range(max(0, d - 1), n):
            out[i, i + 1 - d] = jac[d, i]
    return out


def test_family_sweeps_match_generic_sweep():
    # the family survival kernels against the outcome-table kernel, against
    # 1 - G(1 - v) coordinate by coordinate, and their Jacobian bands
    # against a central difference of V
    from lhbp.generating import _compiled, _GenericSweep
    rng = np.random.default_rng(11)
    h = 1e-6
    for model in (ex2(0.0), ex2(0.45), tridiag(0.25, 0.25, 0.5),
                  tridiag(0.1, 0.2, 0.8, u=2.0), product_tail_model(),
                  up_only_model()):
        k = 11
        fast, generic = _compiled(model, k), _GenericSweep(model, k)
        for _ in range(3):
            v = rng.uniform(0.01, 0.99, k + 2)
            a, jac_a = fast(v)
            b, jac_b = generic(v)
            assert np.allclose(a, b, atol=1e-13)
            dense = _dense(jac_a)
            assert np.allclose(dense, _dense(jac_b), atol=1e-12)
            for i in range(k + 1):
                assert a[i] == pytest.approx(1.0 - G_value(model, i, 1.0 - v),
                                             abs=1e-13)
            for j in range(k + 2):
                e = np.zeros(k + 2)
                e[j] = h
                central = (fast(v + e)[0] - fast(v - e)[0]) / (2 * h)
                assert np.allclose(dense[:, j], central, atol=1e-7)


def _random_band(rng, width, n):
    """A Jacobian band with row sums below 1, so I - J is an M-matrix."""
    jac = rng.uniform(0.0, 0.9 / (width + 2), (width + 2, n))
    for t in range(1, width + 1):
        jac[1 + t, :t] = 0.0
    return jac


def test_band_solve_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    from lhbp.generating import CYCLIC_CROSSOVER as C
    from lhbp.generating import _solve_band
    rng = np.random.default_rng(5)
    # width 1 on both sides of the cyclic-reduction crossover, odd and even
    sizes = [(w, 40) for w in (0, 1, 2, 3)] + [
        (1, n) for n in (1, 2, 3, C - 1, C, C + 1, C + 2, 2 * C + 1,
                         2 * C + 2, 1025, 4097)]
    for width, n in sizes:
        jac = _random_band(rng, width, n)
        rhs = rng.normal(size=n)
        # scipy's (l, u) = (width, 1) storage: ab[1 + i - j, j] = A[i, j]
        # for A = I - J
        ab = np.zeros((width + 2, n))
        ab[0, 1:] = -jac[0, :-1]
        ab[1] = 1.0 - jac[1]
        for t in range(1, width + 1):
            ab[1 + t, :n - t] = -jac[1 + t, t:]
        want = linalg.solve_banded((width, 1), ab, rhs)
        assert np.allclose(_solve_band(jac, rhs), want, rtol=1e-12,
                           atol=1e-12), (width, n)


def test_band_solve_matches_thomas_on_kernel_bands(monkeypatch):
    # cyclic reduction against the Thomas loop alone, on the bands of the
    # first Newton step and of the converged q vector
    from lhbp import generating
    rng = np.random.default_rng(8)
    for model, k in ((ex2(0.3), 8000), (tridiag(0.15, 0.25, 0.7), 2048)):
        kernel = generating._compiled(model, k)
        v = np.ones(k + 2)
        val, jac = kernel(v)
        cases = [(jac, val - v[:k + 1])]
        v = 1.0 - iterate_to_limit(model, k, 0.0).vector
        cases.append((kernel(v)[1], rng.normal(size=k + 1)))
        for jac, rhs in cases:
            fast = generating._solve_band(jac, rhs)
            with monkeypatch.context() as m:
                m.setattr(generating, "CYCLIC_CROSSOVER", k + 1)
                loop = generating._solve_band(jac, rhs)
            assert np.max(np.abs(fast - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_band_solve_zero_pivot_raises():
    # row j of I - J vanishes; below the crossover the Thomas loop meets the
    # zero pivot, above it cyclic reduction at an odd row (j = 201) or, for
    # an even row, a later level or the loop
    from lhbp.generating import _solve_band
    rng = np.random.default_rng(3)
    for n, j in ((40, 21), (301, 201), (301, 200), (301, 300)):
        jac = _random_band(rng, 1, n)
        jac[:, j] = (0.0, 1.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            _solve_band(jac, rng.normal(size=n))


def stuck_model(j):
    """Explicit model whose type j bears exactly one type-j child, so row j
    of I - J is zero at every v.  Every other type i >= 1 bears one child
    of type i + 1 (probability 0.4) or i - 1 (0.1), or none: bandwidth 1."""
    return ExplicitModel(head=tuple(
        TableLaw(((((j, 1),), 1.0),)) if i == j
        else TableLaw(((((1, 1),), 0.5), ((), 0.5))) if i == 0
        else TableLaw(((((i + 1, 1),), 0.4), (((i - 1, 1),), 0.1),
                       ((), 0.5)))
        for i in range(j + 2)))


def test_singular_newton_step_not_converged():
    for k, j in ((40, 21), (300, 201)):
        model = stuck_model(j)
        assert model.bandwidth == 1
        r = iterate_to_limit(model, k, 0.0)
        assert not r.converged
        assert r.iterations == 1
        assert np.all(np.isfinite(r.vector))


def test_qtilde_trap_reaches_one():
    # float64 u-space iteration froze at a spurious fixed point (0.7249)
    # while the truncated tridiagonal(0.15, 0.25, 0.7) has qtilde = 1
    r = iterate_to_limit(tridiag(0.15, 0.25, 0.7), 256, 1.0)
    assert r.converged
    assert r.vector[0] >= 1 - 1e-12


def test_deep_qtilde_is_flat():
    # the long-double survival-space value of qtilde_0 for example2(0.3),
    # the same for every k from 1000 to 8000
    for k in (1000, 4096):
        r = iterate_to_limit(ex2(0.3), k, 1.0)
        assert abs(r.vector[0] - 0.8092389974177) <= 1e-12


def test_explicit_e1_ladder_monotone():
    ladder = extinction_ladder(e1_model(), default_schedule(512), window=3)
    assert ladder.converged
    assert np.all(np.diff(ladder.q_window, axis=0) >= -1e-12)
    assert np.all(np.diff(ladder.qtilde_window, axis=0) <= 1e-12)
