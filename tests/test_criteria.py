import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (Budget, ExplicitModel, PartialSurvivalRegimeError, TableLaw,
                  agresti_bounds, classify, default_schedule, embedded_moments,
                  global_verdict, iterate_to_limit, sls_verdict,
                  tridiagonal_mu_limit)
from lhbp.criteria import HEAD_SHIFT, first_supercritical_head

from conftest import e1_model, ex2, mean_row, tridiag


# ---------------------------------------------------------------------------
# global verdict


def test_global_gamma0_extinction_via_harmonic():
    gv = global_verdict(ex2(0.0), K=2000)
    assert gv.verdict == "GlobalExtinction"
    assert gv.rule == "harmonic-comparison"
    assert gv.flags.ok
    assert gv.flags.min_double_birth == pytest.approx(0.25, abs=1e-3)
    assert gv.flags.ratio_sup == pytest.approx(3.0, abs=1e-6)  # a_k/mu_k is 3
    # the series partial sum is the harmonic number, still growing
    assert gv.series_partial_sum == pytest.approx(
        sum(1.0 / k for k in range(1, 2002)), rel=1e-9)


def test_global_gamma01_survival_possible():
    gv = global_verdict(ex2(0.1), K=2000)
    assert gv.verdict == "GlobalSurvivalPossible"
    assert gv.rule == "raabe-convergent"
    assert gv.flags.ok
    tail = gv.raabe_stats[int(0.8 * len(gv.raabe_stats)):]
    assert np.min(tail) > 1.05


def test_global_tridiagonal_subcritical_rule1():
    gv = global_verdict(tridiag(0.25, 0.0, 0.25), K=1500)
    assert gv.verdict == "GlobalExtinction"
    assert gv.rule == "mean-collapse"


def test_global_partial_survival_inherited():
    gv = global_verdict(ex2(0.5), K=500)
    assert gv.verdict == "GlobalSurvivalPossible"
    assert gv.rule == "partial-survival"
    # (1-b)^2 < 4ac certifies qt < 1 although x first exceeds 1 only at
    # k = 3140, beyond this horizon
    gv = global_verdict(tridiag(0.5, 5e-7, 0.5), K=2000)
    assert gv.verdict == "GlobalSurvivalPossible"
    assert gv.rule == "closed-form-partial-survival"


def test_proposition_one_split():
    # u above/below the embedded mean limit flips the verdict
    mu = tridiagonal_mu_limit(0.1, 0.2, 0.8)
    assert mu == pytest.approx(1.1715728752538097, abs=1e-12)
    assert global_verdict(tridiag(0.1, 0.2, 0.8, u=1.0)).verdict == \
        "GlobalSurvivalPossible"
    assert global_verdict(tridiag(0.1, 0.2, 0.8, u=2.0)).verdict == \
        "GlobalExtinction"
    assert global_verdict(tridiag(0.25, 0.0, 0.25, u=1.0)).verdict == \
        "GlobalExtinction"


# ---------------------------------------------------------------------------
# closed form


def test_tridiagonal_mu_limit_values():
    assert tridiagonal_mu_limit(0.25, 0.25, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert tridiagonal_mu_limit(0.25, 0.0, 0.25) == pytest.approx(2 - math.sqrt(3), abs=1e-14)
    with pytest.raises(PartialSurvivalRegimeError):
        tridiagonal_mu_limit(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        tridiagonal_mu_limit(0.0, 0.5, 0.5)


def test_closed_form_agreement_random():
    rng = np.random.default_rng(20240811)
    for _ in range(12):
        b = rng.uniform(0.0, 0.9)
        sqrt_disc = rng.uniform(math.sqrt(1e-3), 1.0 - b)
        ac = ((1.0 - b) ** 2 - sqrt_disc ** 2) / 4.0
        ratio = math.exp(rng.uniform(-1.0, 1.0))
        a = min(math.sqrt(ac * ratio), 1.9)
        c = ac / a
        mom = embedded_moments(tridiag(a, b, c), 500, with_a=False)
        assert mom.kind == "ok"
        assert mom.mu[500] == pytest.approx(tridiagonal_mu_limit(a, b, c), abs=1e-10)


# ---------------------------------------------------------------------------
# truncation bounds


def test_agresti_sandwich_gamma0():
    m = ex2(0.0)
    for k, b in zip((10, 100), agresti_bounds(m, 1, (10, 100))):
        oracle = float(iterate_to_limit(m, k, 0.0).vector[1])
        assert b.lower <= oracle + 1e-8
        assert oracle <= b.upper + 1e-8


def test_agresti_lower_degenerates_to_zero_for_quartic():
    # g_j''(0) = 0 for the quartic laws, so the lower bracket is 1/m alone
    [b] = agresti_bounds(ex2(0.0), 1, [50])
    assert b.lower == 0.0  # 1 - m_{1->49} < 0 clamps
    assert b.upper > 0.0


def test_agresti_bounds_survive_underflowing_means():
    # embedded means near 0.039 make m_{3->j} underflow past j of about
    # 230, while a_j grows like 2.7^j; the bounds must stay finite, bracket
    # q_3 of level k - 1 and keep the lower bound where it was at k = 128
    m = tridiag(0.7149, 0.7149, 0.01, u=2.7069)
    levels = [k for k in default_schedule(300) if k > 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = agresti_bounds(m, 3, levels)
        oracles = [float(iterate_to_limit(m, k - 1, 0.0).vector[3])
                   for k in levels]
    for b, oracle in zip(bounds, oracles):
        assert b.lower <= oracle <= b.upper
    at_128 = levels.index(128)
    assert all(b.lower >= bounds[at_128].lower for b in bounds[at_128:])


@pytest.mark.parametrize("abc,levels", [((0.1, 0.3, 1.1), [16, 512, 1024]),
                                         ((0.0, 0.0, 2.0), [16, 1100])])
def test_agresti_bounds_survive_overflowing_means(abc, levels):
    # embedded means that stay above 1 make m_{1->j} overflow (past j of
    # about 817 for mu -> 2.38, at j = 1024 for mu = 2); the bounds must stay
    # finite and bracket q_1 of level k - 1
    m = tridiag(*abc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = agresti_bounds(m, 1, levels)
        oracles = [float(iterate_to_limit(m, k - 1, 0.0).vector[1])
                   for k in levels]
    for b, oracle in zip(bounds, oracles):
        assert math.isfinite(b.lower) and math.isfinite(b.upper)
        assert b.lower <= oracle <= b.upper
    # past the overflow the brackets have settled at their sums
    assert ((bounds[-1].lower, bounds[-1].upper)
            == pytest.approx((bounds[-2].lower, bounds[-2].upper), abs=1e-15))


def test_agresti_precondition_errors():
    with pytest.raises(ValueError, match="1 <= i < k"):
        agresti_bounds(ex2(0.0), 5, [5])
    with pytest.raises(ValueError, match="partial"):
        agresti_bounds(ex2(0.3), 1, [50])


def test_agresti_sandwich_tridiagonal():
    m = tridiag(0.25, 0.25, 0.5)
    for i, k in ((1, 12), (2, 40)):
        [b] = agresti_bounds(m, i, [k])
        oracle = float(iterate_to_limit(m, k, 0.0).vector[i])
        assert b.lower - 1e-8 <= oracle <= b.upper + 1e-8


def test_agresti_levels_from_one_pass():
    # one bound per requested level, in the order asked; the pass is
    # cumulative, so each equals the bound of a call for its level alone,
    # bit for bit while the packed solves of the chain stay within the
    # scalar loop (levels up to 9, whose g'' pair layout has 125 rows)
    m = tridiag(0.25, 0.25, 0.5)
    both = agresti_bounds(m, 1, [9, 5])
    assert [b.level for b in both] == [9, 5]
    assert both == agresti_bounds(m, 1, [9]) + agresti_bounds(m, 1, [5])
    # past it, levels up to 12 packed with those up to 40 go through
    # cyclic reduction, which rounds otherwise: q agrees within 1e-14, and
    # the lower bounds, which take g'' from a difference quotient with
    # rounding errors near 1e-11, within 1e-12
    both = agresti_bounds(m, 1, [40, 12])
    assert [b.level for b in both] == [40, 12]
    for a, b in zip(both, agresti_bounds(m, 1, [40])
                    + agresti_bounds(m, 1, [12])):
        assert a.level == b.level
        assert max(abs(a.q - b.q), abs(a.upper - b.upper)) <= 1e-14
        assert abs(a.lower - b.lower) <= 1e-12


@pytest.mark.parametrize("model, i, top", [
    (ex2(0.03), 1, 64), (tridiag(0.1, 0.3, 1.1), 1, 48),
    (tridiag(0.7149, 0.7149, 0.01, u=2.7069), 3, 300), (e1_model(), 1, 64)])
def test_agresti_stacks_match_the_level_chain(monkeypatch, model, i, top):
    # a budget of 0 cells makes every stack one level, warm-started from
    # the level below: the chain of one-level solves (iterate_to_limit, bit
    # for bit) and one-row g''(0) values that the stacks replace
    import lhbp.criteria
    levels = [k for k in default_schedule(top) if k > i]
    stacked = agresti_bounds(model, i, levels)
    with monkeypatch.context() as m:
        m.setattr(lhbp.criteria, "BATCH_CELLS", 0)
        chain = agresti_bounds(model, i, levels)
    prev, q = None, {}
    for j in range(i, top + 1):
        prev = iterate_to_limit(model, j, 0.0, start=prev).vector
        q[j] = float(prev[i])
    assert [b.q for b in chain] == [q[k] for k in levels]
    for b, want in zip(stacked, chain):
        assert b.level == want.level
        assert abs(b.q - want.q) <= 1e-15
        assert abs(b.lower - want.lower) <= 1e-10
        assert b.upper == want.upper
    # the deep thinned chain spans several stacks
    assert (len(list(lhbp.criteria._batches(i, top))) > 1) == (top == 300)


# ---------------------------------------------------------------------------
# supercritical heads


def _exact_first_head(model, k_max, s=Fraction(1.0 + HEAD_SHIFT)):
    """First k <= k_max with a non-positive pivot of sI - M^(k_max), and
    that pivot, from a dense elimination in exact rational arithmetic over
    the model's mean rows; None when every pivot is positive."""
    n = k_max + 1
    table = model.moment_table(k_max)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j, m in mean_row(table, i).items():
            if j < n:
                rows[i][j] -= Fraction(m)
        rows[i][i] += s
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            return k, pivot
        for i in range(k + 1, n):
            if rows[i][k]:
                f = rows[i][k] / pivot
                for j in range(k, n):
                    if rows[k][j]:
                        rows[i][j] -= f * rows[k][j]
    return None


def test_first_supercritical_head_pivot_sign():
    # ex2(0.8) has the period-2 head [[0, 1], [1.6, 0]] at k = 1, with
    # spectral radius sqrt(1.6); its pivots are s and s - 1.6 / s
    s = 1.0 + HEAD_SHIFT
    assert first_supercritical_head(ex2(0.8), 0) is None
    k, pivot = first_supercritical_head(ex2(0.8), 1)
    assert k == 1 and pivot == pytest.approx(s - 1.6 / s, abs=1e-15)
    # a tridiagonal Toeplitz head of n = k+1 types has the eigenvalues
    # b + 2 sqrt(ac) cos(j pi / (n + 1)), j = 1..n: the largest is above s
    # from k = 3 on, and the pivot d_3 is the ratio det(sI - M^(3)) /
    # det(sI - M^(2)) of products over these eigenvalues
    model = tridiag(0.5, 0.2, 0.5)
    for k in range(65):
        supercritical = 0.2 + math.cos(math.pi / (k + 2)) > s
        head = first_supercritical_head(model, k)
        assert (head is not None) == supercritical
        if supercritical:
            assert head[0] == 3

    def det(n):
        return math.prod(s - 0.2 - math.cos(j * math.pi / (n + 1))
                         for j in range(1, n + 1))

    assert first_supercritical_head(model, 64)[1] == pytest.approx(
        det(4) / det(3), rel=1e-12)


@pytest.mark.parametrize("model", [ex2(0.5), tridiag(0.5, 0.5, 0.5),
                                   tridiag(0.1, 0.9, 0.1)])
def test_critical_heads_are_not_supercritical(model):
    # each head M^(1) has spectral radius 1 up to the rounding of its
    # entries: at s = 1 its exact pivot d_1 is 0, or -5.6e-17 for
    # tridiagonal(0.1, 0.9, 0.1), whose float entries 0.1 and 0.9 sum past
    # 1.  At s = 1 + HEAD_SHIFT the pivots stay positive
    k, pivot = _exact_first_head(model, 1, Fraction(1))
    assert k == 1 and abs(pivot) <= 1e-16
    assert first_supercritical_head(model, 1) is None


@st.composite
def head_models(draw):
    """A tridiagonal model or an explicit model of up to four head types
    with children up to three types down."""
    if draw(st.booleans()):
        return tridiag(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.5)),
                       draw(st.floats(0.01, 2.0)))
    head = []
    for i in range(draw(st.integers(1, 4))):
        entries = [(tuple(sorted(draw(st.dictionaries(
            st.integers(max(0, i - 3), i + 1), st.integers(1, 3),
            max_size=3)).items())), draw(st.floats(0.01, 1.0)))
            for _ in range(draw(st.integers(1, 3)))]
        total = sum(p for _, p in entries)
        head.append(TableLaw(tuple((c, p / total) for c, p in entries)))
    return ExplicitModel(head=tuple(head))


@settings(max_examples=60, deadline=None)
@given(model=head_models(), k_max=st.integers(0, 24))
def test_first_supercritical_head_matches_exact_elimination(model, k_max):
    # the first non-positive float pivot is the first non-positive exact
    # one; eigvals is no oracle here, as it misses on non-normal heads.
    # Only the index is compared: after a pivot near 0 the next one is a
    # large negative number with few correct digits
    head = first_supercritical_head(model, k_max)
    exact = _exact_first_head(model, k_max)
    assert (head is None) == (exact is None)
    if head is not None:
        assert head[0] == exact[0]


def test_sls_scan_starts_at_the_closed_form_head():
    # every head of tridiagonal(1.29, 0.5085, 0.047) has spectral radius
    # 0.5085 + 2 sqrt(1.29 * 0.047) cos(pi / (k + 2)), above 1 + HEAD_SHIFT
    # from k = 49 on; dense eigenvalues of these non-normal heads put the
    # first one at k = 23
    a, b, c = 1.29, 0.5085, 0.047
    rho = [b + 2 * math.sqrt(a * c) * math.cos(math.pi / (k + 2))
           for k in range(65)]
    first = next(k for k, r in enumerate(rho) if r > 1 + HEAD_SHIFT)
    assert first == 49
    r = sls_verdict(tridiag(a, b, c))
    assert r.first_supercritical_head == first
    assert r.head_pivot <= 0
    # its tails repeat the model, whose x-criterion fails
    assert r.result == "Inconclusive"
    assert r.scanned == first + 1


def test_sls_rejects_qtilde_one_below_non_normal_heads():
    # every head of tridiagonal(1.132, 0.695, 0.01) has spectral radius
    # below b + 2 sqrt(ac) = 0.908, and (1 - b)^2 > 4ac gives qt = 1;
    # dense eigenvalues reported 1.23 at k = 64 and a strong local survival
    # verdict at k = 46
    model = tridiag(1.132, 0.695, 0.01)
    assert first_supercritical_head(model, 64) is None
    with pytest.raises(ValueError, match="qt < 1"):
        sls_verdict(model)


# ---------------------------------------------------------------------------
# strong local survival and classification


def test_sls_examples():
    assert sls_verdict(ex2(0.8)).result == "StrongLocalSurvival"
    assert sls_verdict(ex2(0.3)).result == "NonStrongLocalSurvival"
    assert sls_verdict(ex2(0.5)).result == "Inconclusive"


def test_sls_requires_partial_survival():
    with pytest.raises(ValueError, match="qt < 1"):
        sls_verdict(ex2(0.0))


def test_sls_rejects_certified_qtilde_one_below_every_head():
    # every head has spectral radius < b + 2 sqrt(ac) < 1, so every pivot
    # is positive, and the x-criterion proves qt = 1 with an invariant bound
    # just above mu = 1
    model = tridiag(0.25, 0.25, 0.5)
    assert first_supercritical_head(model, 64) is None
    with pytest.raises(ValueError, match="qt < 1"):
        sls_verdict(model)


def test_sls_homogeneous_tridiagonal_stops_early():
    # every tail of tridiagonal(0.5, b, 0.5) is the model itself, whose
    # x-criterion fails: the first examined cut (the first supercritical
    # head) decides the whole scan
    for b, first in ((0.2, 3), (0.3, 2)):
        model = tridiag(0.5, b, 0.5)
        r = sls_verdict(model)
        assert r.result == "Inconclusive"
        assert r.scanned == first + 1
        assert classify(model).regime == "Unresolved"


def test_classify_runs_partial_verdict_once(monkeypatch):
    import lhbp.criteria as criteria
    calls = []
    real = criteria.partial_verdict

    def counting(model, K=5000):
        calls.append(K)
        return real(model, K)

    monkeypatch.setattr(criteria, "partial_verdict", counting)
    assert classify(ex2(0.3)).regime == "QltQtildeLt1"
    assert calls == [5000]


def test_sls_budget_doubling_stable():
    r1 = sls_verdict(ex2(0.8), k_budget=16)
    r2 = sls_verdict(ex2(0.8), k_budget=32)
    assert r1.result == r2.result == "StrongLocalSurvival"
    assert r1.k_used == r2.k_used


def test_classify_regime_table():
    want = {0.0: "QeqQtildeEq1", 0.1: "QltQtildeEq1",
            0.3: "QltQtildeLt1", 0.8: "QeqQtildeLt1", 0.5: "Unresolved"}
    for gamma, regime in want.items():
        cls = classify(ex2(gamma))
        assert cls.regime == regime, (gamma, cls.certificates)
        assert cls.certificates[0]["test"] == "partial_verdict"


def test_classify_budget_invariance():
    small = Budget(partial_horizon=2000, global_horizon=2000,
                   sls_level_budget=32, sls_tail_horizon=1000)
    big = Budget(partial_horizon=4000, global_horizon=4000,
                 sls_level_budget=64, sls_tail_horizon=2000)
    for gamma in (0.0, 0.1, 0.3, 0.8):
        assert classify(ex2(gamma), small).regime == classify(ex2(gamma), big).regime


def test_classifier_ladder_consistency():
    # regimes 1/2 keep qtilde at one; regimes 3/4 push it visibly below
    for gamma in (0.0, 0.1):
        r = iterate_to_limit(ex2(gamma), 1024, 1.0)
        assert r.vector[0] >= 1 - 1e-9
    for gamma in (0.3, 0.8):
        r = iterate_to_limit(ex2(gamma), 256, 1.0)
        assert r.vector[0] < 1 - 1e-6


@pytest.mark.parametrize("model, budget", [
    # x_k first exceeds 1 past k = 5000, while (1-b)^2 < 4ac proves qt < 1
    (tridiag(0.5, 1e-8, 0.5), Budget()),
    # the same closed form at horizons too short to see the blowup
    *[(tridiag(0.3, 0.3, 0.5), Budget(partial_horizon=K, global_horizon=K))
      for K in range(1, 6)],
    # a global horizon past the partial one sees the x-criterion fail
    (ex2(0.5), Budget(partial_horizon=0, global_horizon=500))])
def test_classify_partial_survival_rule_takes_the_sls_branch(model, budget):
    # a global rule that proves qt < 1 cannot give the regime qt = 1
    cls = classify(model, budget)
    rule = cls.certificates[1]["rule"]
    assert rule.endswith("partial-survival")
    assert cls.certificates[-1]["test"] == "sls_verdict"
    assert cls.regime == "Unresolved"


def test_classify_unresolved_carries_certificates():
    cls = classify(ex2(0.5))
    assert cls.regime == "Unresolved"
    assert cls.certificates[-1]["test"] == "sls_verdict"
    assert cls.certificates[-1]["outcome"] == "Inconclusive"
