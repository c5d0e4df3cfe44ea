import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (ComputationError, ExplicitModel, TableLaw,
                  curve_from_anchor, default_schedule, extinction_ladder,
                  iterate_to_limit)
from lhbp.generating import g_second_derivatives

from conftest import (all_die_model, e1_model, e4_model, ex2, g, pgf,
                      product_tail_model, tridiag, up_only_model,
                      wide_band_model, windows)


def naive_iteration(model, k, s, sweeps):
    """Independent oracle: plain repeated application of each law's pgf."""
    u = np.zeros(k + 2)
    u[k + 1] = s
    history = [u.copy()]
    for _ in range(sweeps):
        new = u.copy()
        for i in range(k + 1):
            new[i] = pgf(model.law(i), u)
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
    qw, qtw = windows(ladder)
    assert np.all(np.diff(qw[:, 0]) > 0)
    assert np.allclose(qtw, 1.0, atol=1e-12)


def test_ladder_gamma08_merged():
    ladder = extinction_ladder(ex2(0.8), (250, 500, 1000, 2000), window=2)
    q0 = ladder.q_results[-1].vector[0]
    qt0 = ladder.qtilde_results[-1].vector[0]
    assert abs(q0 - qt0) < 1e-3


def test_ladder_all_die():
    ladder = extinction_ladder(all_die_model(), (1, 2, 4), window=2)
    assert np.allclose(windows(ladder)[0], 1.0, atol=1e-14)


def test_ladder_monotone_and_sandwich(ladder_ex2_03):
    qw, qtw = windows(ladder_ex2_03)
    assert np.all(np.diff(qw, axis=0) >= -1e-12)
    assert np.all(np.diff(qtw, axis=0) <= 1e-12)
    assert np.all(qtw >= qw)
    assert np.all(ladder_ex2_03.q_estimate <= ladder_ex2_03.qtilde_estimate)


# the qtilde trap, the deep example2 anchor and the thinned model whose
# computed qtilde falls from 1 to q between levels 256 and 512, where the
# boundary's weight 1/ceil(1.1^k) drops below rounding
TOP_DOWN_CASES = ((tridiag(0.15, 0.25, 0.7), 2048), (ex2(0.3), 8000),
                  (tridiag(0.05, 0.1, 1.2, u=1.1), 4096))


@pytest.fixture(scope="module")
def top_down_ladders():
    return [extinction_ladder(model, default_schedule(k), window=3)
            for model, k in TOP_DOWN_CASES]


def test_top_down_qtilde_matches_solves_from_q(top_down_ladders):
    # each level's qtilde, warm-started from the deeper one, is the solve
    # started from its own q (held above q, as the ladder holds it); the
    # top level, which has no deeper one, is that solve bit for bit
    for (model, _), ladder in zip(TOP_DOWN_CASES, top_down_ladders):
        assert ladder.converged
        for rq, rt in zip(ladder.q_results, ladder.qtilde_results):
            alone = iterate_to_limit(model, rq.level, 1.0, start=rq.vector)
            alone.vector = np.maximum(alone.vector, rq.vector)
            assert np.max(np.abs(rt.vector - alone.vector)) <= 1e-14
        assert np.array_equal(rt.vector, alone.vector)
        assert rt.iterations == alone.iterations


def test_top_down_qtilde_window_nonincreasing(top_down_ladders):
    for ladder in top_down_ladders:
        qw, qtw = windows(ladder)
        assert np.all(np.diff(qw, axis=0) >= 0.0)
        assert np.all(np.diff(qtw, axis=0) <= 0.0)
        assert np.all(qtw >= qw)


@pytest.mark.parametrize("model, low, high", [
    (tridiag(0.05, 0.1, 1.2, u=1.1), 256, 512),
    (tridiag(0.15, 0.25, 0.7), 1024, 2048)])
def test_warm_solve_stays_above_its_start(model, low, high):
    # a lower level's q, padded, is a sub-solution; unheld, rounding leaves
    # a few entries one ulp below it (3 and 6 of them on these models)
    start = iterate_to_limit(model, low, 0.0).vector
    r = iterate_to_limit(model, high, 0.0, start=start)
    assert r.converged
    assert np.all(r.vector[:low + 1] >= start[:-1])


def test_top_down_trap_solves_lower_levels_without_steps(top_down_ladders):
    # the top level's qtilde is 1 and so is every lower level's start
    trap = top_down_ladders[0]
    assert sum(r.iterations for r in trap.qtilde_results[:-1]) == 0
    assert np.all(windows(trap)[1] == 1.0)


def test_top_down_skips_unconverged_deeper_level():
    # level 1024 of tridiagonal(0.1, 0.3, 1.2) ends unconverged near
    # qtilde = 0 (test_newton_breakdown_flagged), so level 512 starts from
    # its own q, not from that vector, and reaches qtilde = 1 as alone
    model = tridiag(0.1, 0.3, 1.2)
    ladder = extinction_ladder(model, (512, 1024), window=3)
    low, top = ladder.qtilde_results
    assert not top.converged and low.converged
    alone = iterate_to_limit(model, 512, 1.0,
                             start=ladder.q_results[0].vector)
    assert np.array_equal(low.vector, alone.vector)
    assert low.iterations == alone.iterations
    assert np.all(low.vector == 1.0)


def test_q_ladder_warm_starts_converge_at_every_level():
    # a cold level-4096 q solve of this supercritical thinned model stops
    # unconverged (survival values underflow to 0 behind its front, where
    # the band is the mean matrix, and its fifth step overflows); the
    # ladder's bottom-up warm starts converge at every level
    model = tridiag(0.05, 0.1, 1.2, u=1.1)
    ladder = extinction_ladder(model, default_schedule(4096))
    assert all(r.converged for r in ladder.q_results)
    assert abs(ladder.q_results[-1].vector[0] - 0.598137462172226) <= 1e-15


def test_ladder_default_window_is_the_largest_allowed():
    # the smallest level k reports all of its k + 2 entries
    assert extinction_ladder(ex2(0.3), default_schedule(8)).window == 3
    assert extinction_ladder(ex2(0.3), (0,)).window == 2


def test_ladder_rejects_bad_schedule():
    with pytest.raises(ValueError, match="increasing"):
        extinction_ladder(ex2(0.0), (4, 4, 8))
    with pytest.raises(ValueError, match="window"):
        extinction_ladder(ex2(0.0), (2, 4), window=10)
    for schedule in ((-1,), (-1, 4), ()):
        with pytest.raises(ValueError, match=">= 0"):
            extinction_ladder(ex2(0.0), schedule)


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
            assert pgf(model.law(i), r.vector) == pytest.approx(
                r.vector[i], abs=1e-10)


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
        levels = (0, 4, k)
        packed = rng.uniform(0.01, 0.99, sum(levels) + 2 * len(levels))
        assert_blocks_match_single_calls(
            lambda lv, m=model: _compiled(m, lv), levels, packed)
        assert_blocks_match_single_calls(
            lambda lv, m=model: _GenericSweep(m, lv), levels, packed)
        for v in rng.uniform(0.01, 0.99, (3, k + 2)):
            a, jac_a = fast(v)
            b, jac_b = generic(v)
            assert np.allclose(a, b, atol=1e-13)
            dense = _dense(jac_a)
            assert np.allclose(dense, _dense(jac_b), atol=1e-12)
            for i in range(k + 1):
                assert a[i] == pytest.approx(
                    1.0 - pgf(model.law(i), 1.0 - v), abs=1e-13)
            for j in range(k + 2):
                e = np.zeros(k + 2)
                e[j] = h
                central = (fast(v + e)[0] - fast(v - e)[0]) / (2 * h)
                assert np.allclose(dense[:, j], central, atol=1e-7)


def assert_blocks_match_single_calls(kernel_of, levels, v):
    """The kernel ``kernel_of(levels)`` on a packed vector ``v`` gives, block
    by block, the bits of the one-level kernel ``kernel_of(k)`` on that
    block, and pins each edge between blocks: V = v there, with a zero
    Jacobian column.  A low level may have a narrower band than the layout;
    its block is 0 on the further subdiagonals."""
    val, jac = kernel_of(tuple(levels))(v)
    lo = 0
    for k in levels:
        a, jac_a = kernel_of(k)(v[lo:lo + k + 2].copy())
        block = jac[:, lo:lo + k + 1]
        assert np.array_equal(_bits(val[lo:lo + k + 1]), _bits(a)), k
        assert np.array_equal(_bits(block[:len(jac_a)]), _bits(jac_a)), k
        assert not block[len(jac_a):].any()
        lo += k + 2
        if lo < len(v):
            assert val[lo - 1] == v[lo - 1]
            assert not jac[:, lo - 1].any()


def test_tridiagonal_sweep_matches_generic_sweep_past_saturation():
    # past the type where ceil(u^i) overflows to inf the up factor has
    # weight 0: the family kernel stops that factor at the first such type
    # and must agree with the law-table kernel, whose laws drop the thinned
    # branch, also at survival entries of exactly 0 and 1, and on a stack
    from lhbp.generating import _GenericSweep, _TridiagonalSweep
    rng = np.random.default_rng(20)
    for model, k in ((tridiag(0.1, 0.2, 0.8, u=2.0), 1100),
                     (tridiag(0.3, 0.3, 0.5, u=1.5), 2000)):
        scale = model._scales(k)
        saturated = np.flatnonzero(np.isinf(scale))
        assert 0 < len(saturated) < k + 1
        fast, generic = _TridiagonalSweep(model, k), _GenericSweep(model, k)
        for _ in range(3):
            v = 10.0 ** rng.uniform(-30.0, 0.0, k + 2)
            v[rng.integers(0, k + 2, 40)] = 0.0
            v[rng.integers(0, k + 2, 40)] = 1.0
            a, jac_a = fast(v)
            b, jac_b = generic(v)
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(jac_a))
            assert np.max(np.abs(a - b)) <= 1e-15
            assert jac_a.shape == jac_b.shape
            assert np.max(np.abs(jac_a - jac_b)) <= 1e-15
            assert np.all(jac_a[0, saturated] == 0.0)
        # layouts that end before, at and past the first saturated type
        levels = (3, saturated[0] - 1, saturated[0], k)
        lengths = np.add(levels, 2)
        for kind in (_TridiagonalSweep, _GenericSweep):
            assert_blocks_match_single_calls(
                lambda lv, m=model, kind=kind: kind(m, lv), levels,
                np.concatenate([v[:n] for n in lengths]))


def _decimal_survival(model, v, k):
    """1 - F_i(1 - v) for i = 0..k at 50 digits: each outcome adds
    p (1 - prod (1 - v_t)^c_t) = -p expm1(sum c_t log(1 - v_t)), with the
    logarithm and expm1 summed as series near 0."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        tiny = Decimal("1e-55")

        def series(first, ratio):
            # sum of first * prod ratio(n) until a term stops counting
            total = term = first
            n = 1
            while abs(term) > tiny * abs(total):
                term = term * ratio(n)
                total += term
                n += 1
            return total

        def log1m(x):  # log(1 - x), None at x = 1
            if x == 1:
                return None
            if x < Decimal("0.01"):
                return -series(x, lambda n: x * n / (n + 1))
            return (1 - x).ln()

        def expm1(y):
            if abs(y) < Decimal("0.01"):
                return series(y, lambda n: y / (n + 1))
            return y.exp() - 1

        logs = [log1m(Decimal(float(x))) for x in v]
        out = []
        for i in range(k + 1):
            total = Decimal(0)
            for counts, p in model.law(i).outcomes():
                terms = [logs[t] for t, _ in counts]
                if not counts:
                    continue
                if None in terms:  # a child type that surely survives
                    comp = Decimal(1)
                else:
                    comp = -expm1(sum(Decimal(float(c)) * x for (_, c), x
                                      in zip(counts, terms)))
                total += Decimal(p) * comp
            out.append(float(total))
    return np.array(out)


@pytest.mark.parametrize("model", [
    ex2(0.3), tridiag(0.15, 0.25, 0.7), tridiag(0.3, 0.3, 0.5, u=1.5),
    e4_model()], ids=["ex2", "trap", "thinned", "e4"])
def test_kernel_values_keep_relative_accuracy_near_zero(model):
    # near v = 0 the kernels avoid forming 1 - u^c by subtraction; each
    # V_i must be within 8 eps of the 50-digit value relative to itself,
    # for survival entries from 1e-300 to 0.1, exact 0s and 1s
    from lhbp.generating import _compiled
    rng = np.random.default_rng(23)
    k = 60
    kernel = _compiled(model, k)
    for _ in range(4):
        v = 10.0 ** rng.uniform(-300.0, -1.0, k + 2)
        v[rng.integers(0, k + 2, 6)] = 0.0
        v[rng.integers(0, k + 2, 6)] = 1.0
        want = _decimal_survival(model, v, k)
        got = kernel(v)[0]
        err = np.abs(got - want)
        assert np.all(err <= 8 * np.finfo(float).eps * np.abs(want)), (
            np.max(err / np.where(want > 0, want, 1.0)))


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
    # a packed band: systems of different lengths one after the other, each
    # followed by an edge, an identity row with a zero right-hand side, as
    # the kernels pin it; the coupling of a system's last unknown to its
    # edge adds nothing, and every block must solve its own system
    for width in (1, 2):
        lengths = (1, 2, 5, C - 1, C + 2, 2 * C + 1, 700)
        bands, rhss = [], []
        for m in lengths:
            bands += [_random_band(rng, width, m), np.zeros((width + 2, 1))]
            rhss += [rng.normal(size=m), np.zeros(1)]
        jac, rhs = np.hstack(bands[:-1]), np.concatenate(rhss[:-1])
        x = _solve_band(jac, rhs)
        lo = 0
        for band, b, m in zip(bands[::2], rhss[::2], lengths):
            assert np.all(x[lo + m:lo + m + 1] == 0.0)
            assert np.allclose(x[lo:lo + m], _solve_band(band, b),
                               rtol=1e-12, atol=1e-12), (width, m)
            ab = np.zeros((width + 2, m))
            ab[0, 1:] = -band[0, :m - 1]
            ab[1] = 1.0 - band[1]
            for t in range(1, width + 1):
                ab[1 + t, :m - t] = -band[1 + t, t:]
            want = linalg.solve_banded((width, 1), ab, b)
            assert np.allclose(x[lo:lo + m], want, rtol=1e-12, atol=1e-12)
            lo += m + 1


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


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("width", (0, 1, 2))
def test_band_solve_several_right_hand_sides(width):
    # m right-hand sides on a trailing axis share one elimination of the
    # band; each column of the solution is the one-column solve, bit for
    # bit, on both sides of the crossover, for either memory layout of the
    # columns
    from lhbp.generating import _solve_band
    rng = np.random.default_rng(11)
    for n in (1, 2, 127, 128, 129, 200, 1025):
        jac = _random_band(rng, width, n)
        for m in (2, 3):
            for rhs in (rng.normal(size=(n, m)),
                        np.asfortranarray(rng.normal(size=(n, m)))):
                x = _solve_band(jac, rhs)
                assert x.shape == (n, m)
                for c in range(m):
                    one = _solve_band(jac, np.ascontiguousarray(rhs[:, c]))
                    assert np.array_equal(_bits(x[:, c]), _bits(one)), (n, m)


def test_band_solve_several_right_hand_sides_zero_pivot_raises():
    # a vanishing row of I - J stops the shared elimination as it stops one
    # right-hand side: in the scalar loop and in cyclic reduction
    from lhbp.generating import _solve_band
    rng = np.random.default_rng(12)
    for width, n, j in ((1, 40, 21), (1, 301, 201), (1, 301, 200),
                        (1, 301, 300), (2, 40, 21)):
        jac = _random_band(rng, width, n)
        jac[:, j] = 0.0
        jac[1, j] = 1.0
        with pytest.raises(ZeroDivisionError):
            _solve_band(jac, rng.normal(size=(n, 2)))


def test_stacked_levels_stop_on_their_own():
    # apart from s = 0 each level of a packed solve goes its own way; on a
    # layout of at most CYCLIC_CROSSOVER rows, which the scalar loop solves
    # and where the edges leave each block's arithmetic as it is alone, it
    # takes the steps of its solve alone and reaches its vector bit for
    # bit; a step cap leaves the deeper levels unconverged while the
    # shallow one has stopped, as alone
    from lhbp.generating import CYCLIC_CROSSOVER, iterate_levels
    small, large = [2, 9, 40], [2, 9, 200]
    assert sum(small) + 2 * len(small) - 1 <= CYCLIC_CROSSOVER
    for model, s in ((ex2(0.3), 0.5), (tridiag(0.15, 0.25, 0.7), 1.0),
                     (e1_model(), 0.5)):
        for max_iter in (None, 6):
            stacked = iterate_levels(model, small, s, max_iter=max_iter)
            for r in stacked:
                alone = iterate_to_limit(model, r.level, s,
                                         max_iter=max_iter)
                assert r.iterations == alone.iterations
                assert r.converged == alone.converged
                assert r.residual == alone.residual
                assert np.array_equal(_bits(r.vector), _bits(alone.vector))
            flags = [r.converged for r in stacked]
            assert all(flags) if max_iter is None else (
                flags[0] and not flags[-1])
    # past the crossover cyclic reduction rounds the packed band otherwise
    # than alone: each level reaches its vector within 1e-14, apart from
    # s = 0 in the steps it takes alone, give or take the one step by
    # which it may meet an exact fixed point, and at s = 0, chained, in
    # no more steps than alone
    for model, s in ((ex2(0.3), 0.0), (tridiag(0.15, 0.25, 0.7), 1.0),
                     (e1_model(), 0.5), (tridiag(0.15, 0.25, 0.7), 0.0)):
        for max_iter in (None, 6):
            stacked = iterate_levels(model, large, s, max_iter=max_iter)
            for r in stacked:
                alone = iterate_to_limit(model, r.level, s,
                                         max_iter=max_iter)
                if s == 0.0:
                    assert r.iterations <= alone.iterations
                else:
                    assert abs(r.iterations - alone.iterations) <= 1
                assert r.converged == alone.converged
                assert np.max(np.abs(r.vector - alone.vector)) <= 1e-14
            flags = [r.converged for r in stacked]
            assert all(flags) if max_iter is None else (
                flags[0] and not flags[-1])


def test_stacked_band_solve_zero_pivot_raises():
    # one block of a packed band with a vanishing row of I - J stops the
    # whole solve, in cyclic reduction at any level and in the scalar loop
    from lhbp.generating import _solve_band
    rng = np.random.default_rng(4)
    for n, j in ((40, 21), (40, 0), (301, 201), (301, 200), (1, 0)):
        bands = []
        for _ in range(3):
            bands += [_random_band(rng, 1, n), np.zeros((3, 1))]
        bands[2][:, j] = (0.0, 1.0, 0.0)
        jac = np.hstack(bands[:-1])
        with pytest.raises(ZeroDivisionError):
            _solve_band(jac, rng.normal(size=jac.shape[1]))


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
    from lhbp.generating import _compiled
    for k, j in ((40, 21), (300, 201)):
        model = stuck_model(j)
        assert _compiled(model, k).width == 1
        r = iterate_to_limit(model, k, 0.0)
        assert not r.converged
        assert r.iterations == 1
        assert np.all(np.isfinite(r.vector))
        # the anchored curve solve meets the same zero pivot
        with pytest.raises(ComputationError):
            curve_from_anchor(model, 0.5, k + 1)


# tridiagonal(0.23, 0.09, 1.03, u = 1.97): u-space warm starts, each level
# started from the q of the level below, ended unconverged at q_0 = 1 at
# levels 128 and 256, where a cold solve converges
SEPARATED = tridiag(0.23014501142019844, 0.09014781708821724,
                    1.027718071653748, u=1.974673414555875)


def test_chained_q_converges_where_u_space_warm_starts_did_not():
    ladder = extinction_ladder(SEPARATED, default_schedule(256))
    assert all(r.converged for r in ladder.q_results)
    for r in ladder.q_results[-2:]:
        cold = iterate_to_limit(SEPARATED, r.level, 0.0)
        assert cold.converged
        assert abs(r.vector[0] - 0.8935150247094887) <= 1e-15
        assert np.max(np.abs(r.vector - cold.vector)) <= 1e-15
    # the top qtilde solve, started from q, still ends unconverged at 1
    top = ladder.qtilde_results[-1]
    assert not top.converged
    assert top.iterations == 356 and np.all(top.vector[:3] == 1.0)


def test_chained_levels_stop_after_the_level_below():
    # consecutive levels of example2(0), as agresti_bounds chains them: left
    # to itself level 9 would stop a step before level 8; chained, no level
    # stops before the level below it, and each reaches its solve alone,
    # with the q vectors nondecreasing in the level
    from lhbp.generating import iterate_levels
    chained = iterate_levels(ex2(0.0), range(1, 40), 0.0)
    steps = [r.iterations for r in chained]
    assert steps == sorted(steps)
    for low, high in zip(chained, chained[1:]):
        assert np.all(high.vector[:low.level + 1] >= low.vector[:-1])
    for r in chained:
        alone = iterate_to_limit(ex2(0.0), r.level, 0.0)
        assert r.converged
        assert np.max(np.abs(r.vector - alone.vector)) <= 1e-15
    # a chain needs its levels in ascending order
    for levels in ([], [9, 2], [2, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            iterate_levels(ex2(0.0), levels, 0.0)


def test_chained_q_isolates_a_zero_pivot():
    # type 21 of stuck_model(21) makes row 21 of I - J vanish at every
    # level from 21 on: the shared solve fails, each level's step is
    # redone alone, and levels 32 and 64 restart from the level below
    # while it moves; once it has stopped, a level restarts from it once
    # more, fails again and stops, one step after the level below; the
    # lower levels converge to their solves alone
    from lhbp.generating import iterate_levels
    model = stuck_model(21)
    levels = default_schedule(64)
    chained = iterate_levels(model, levels, 0.0)
    assert [r.converged for r in chained] == [k < 21 for k in levels]
    for low, r in zip([None] + chained, chained):
        assert np.all(np.isfinite(r.vector))
        if r.level > 21:
            assert r.iterations == low.iterations + 1 <= 4
            continue
        alone = iterate_to_limit(model, r.level, 0.0)
        assert np.max(np.abs(r.vector - alone.vector)) <= 1e-15
    qs = [r.vector for r in chained]
    for low, high in zip(qs, qs[1:]):
        assert np.all(high[:len(low) - 1] >= low[:-1])


KERNEL_MODELS = (ex2(0.0), ex2(0.3), tridiag(0.15, 0.25, 0.7),
                 tridiag(0.1, 0.2, 0.8, u=2.0),
                 tridiag(0.1, 0.2, 0.8, u=10.0), e1_model(), e4_model(),
                 product_tail_model(), wide_band_model(), up_only_model(),
                 stuck_model(3))


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(KERNEL_MODELS),
       levels=st.lists(st.integers(0, 400), min_size=1, max_size=5,
                       unique=True).map(sorted),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_kernel_blocks_match_one_level_calls(model, levels, seed):
    # every block of a packed kernel call is its one-level call, bit for
    # bit, on survival entries from 1e-30 to 1, exact 0s and 1s, for the
    # families (u = 10 saturates its scales from type 309 on), explicit
    # head and tail laws and a band of width 2
    from lhbp.generating import _compiled
    rng = np.random.default_rng(seed)
    n = sum(levels) + 2 * len(levels)
    v = 10.0 ** rng.uniform(-30.0, 0.0, n)
    v[rng.integers(0, n, 4)] = 0.0
    v[rng.integers(0, n, 4)] = 1.0
    assert_blocks_match_single_calls(lambda lv: _compiled(model, lv),
                                     levels, v)


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
    qw, qtw = windows(ladder)
    assert np.all(np.diff(qw, axis=0) >= -1e-12)
    assert np.all(np.diff(qtw, axis=0) <= 1e-12)


# ---------------------------------------------------------------------------
# second derivative of the embedded generating function


def test_g_second_derivative_closed_forms():
    # level 0 of tridiagonal(0.1, 0.3, 1.1): g_0 = 0.7 f / (1 - 0.3 f) with
    # the up-count pgf f(s) = 0.9 s + 0.1 s^2, so g_0''(0) = 0.7 (0.2 + 0.6
    # * 0.9^2); a Richardson-weighted one-sided stencil gave 0.480367
    m = tridiag(0.1, 0.3, 1.1)
    assert g_second_derivatives(m, [iterate_to_limit(m, 0, 0.0)])[0] == \
        pytest.approx(0.42 * 0.81 + 0.7 * 0.2, abs=1e-8)
    # the quartic laws give g_j(s) = 1 - c_j (1 - s^4), flat at 0
    for j in range(6):
        r = iterate_to_limit(ex2(0.0), j, 0.0)
        assert abs(g_second_derivatives(ex2(0.0), [r])[0]) <= 1e-9


def test_g_second_derivative_matches_eval_g_stencil():
    # the one-sided second difference D(h) of g_j has an O(h) error;
    # 2 D(h/2) - D(h) leaves an O(h^2) error, 8e-5 (relative) on
    # example2(0.1) at h = 1e-3, which one more Richardson step with the
    # weights (4, -1) / 3 removes
    def stencil(model, j, h):
        return (g(model, j, 0.0) - 2 * g(model, j, h)
                + g(model, j, 2 * h)) / h ** 2

    def second_order(model, j, h):
        return 2 * stencil(model, j, h / 2) - stencil(model, j, h)

    h = 1e-3
    for model in (tridiag(0.1, 0.3, 1.1), ex2(0.1)):
        for j in (1, 5):
            want = (4 * second_order(model, j, h / 2)
                    - second_order(model, j, h)) / 3
            got = g_second_derivatives(
                model, [iterate_to_limit(model, j, 0.0)])[0]
            assert got == pytest.approx(want, rel=1e-5)


def _g2_one_point_at_a_time(model, results):
    """g_second_derivatives one level and one quotient point at a time, on
    one-level layouts: the reference for the packed levels and pair."""
    from lhbp.generating import _compiled, _Layout
    out = []
    for r in results:
        k = r.level
        kernel, layout = _compiled(model, k), _Layout(k)
        x = 1.0 - r.vector
        jac = kernel(x)[1]
        w = layout.tangent(jac)
        line = np.append(w, 1.0)

        def quotient(h):
            return (w[k] - layout.tangent(kernel(x - h * line)[1])[k]) / h

        out.append(quotient(1e-5) - 2.0 * quotient(1e-5 / 2))
    return np.array(out)


@pytest.mark.parametrize("model, top, bounded", [
    (ex2(0.01), 64, True), (ex2(0.3), 40, False),
    (tridiag(0.1, 0.3, 1.1), 48, True), (tridiag(0.25, 0.0, 0.25), 32, True),
    (tridiag(0.2, 0.3, 0.4), 40, True), (tridiag(0.1, 0.2, 0.8, u=2.0), 40, True),
    (e1_model(), 64, True), (wide_band_model(), 30, False)])
def test_g_second_derivatives_match_one_point_at_a_time(monkeypatch, model,
                                                        top, bounded):
    # all levels packed, and both quotient points packed in one call, give
    # the g'' of one level and one point at a time bit for bit on levels
    # 1..9, whose pair layout (the levels twice over, 125 rows) the scalar
    # loop solves, and so the same Agresti bounds where the model is in
    # their partial-extinction regime (the example2 laws and
    # tridiagonal(0.1, 0.3, 1.1) have lower bounds 0 whatever g'' is; the
    # other three tridiagonal models and E1 have lower bounds set by it);
    # up to ``top``, where cyclic reduction rounds the packed bands
    # otherwise, within the quotient's rounding (eps / h, about 2e-11 at
    # h = 1e-5; 5.6e-11 at most on these models), and the lower bounds
    # within 1e-10
    import lhbp.criteria
    from lhbp.generating import CYCLIC_CROSSOVER, iterate_levels
    assert 2 * sum(k + 2 for k in range(1, 10)) - 1 <= CYCLIC_CROSSOVER
    results = iterate_levels(model, range(1, top + 1), 0.0)
    assert np.array_equal(_bits(g_second_derivatives(model, results[:9])),
                          _bits(_g2_one_point_at_a_time(model, results[:9])))
    assert np.max(np.abs(g_second_derivatives(model, results)
                         - _g2_one_point_at_a_time(model, results))) <= 1e-9
    if bounded:
        for levels in (range(2, 10), range(2, top + 1)):
            bounds = lhbp.criteria.agresti_bounds(model, 1, levels)
            with monkeypatch.context() as patch:
                patch.setattr(lhbp.criteria, "g_second_derivatives",
                              _g2_one_point_at_a_time)
                want = lhbp.criteria.agresti_bounds(model, 1, levels)
            if levels.stop == 10:
                assert bounds == want
                continue
            for x, y in zip(bounds, want):
                assert (x.level, x.q, x.upper) == (y.level, y.q, y.upper)
                assert abs(x.lower - y.lower) <= 1e-10
