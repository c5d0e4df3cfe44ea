"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to watch them live;
the summary also lands in the captured output on failure).
"""

import math
import time

import numpy as np

from lhbp import (agresti_bounds, classify, curve_from_anchor,
                  embedded_moments, estimate_embedded_moment,
                  estimate_extinction, extinction_ladder, global_verdict,
                  iterate_to_limit, tridiagonal_mu_limit)
from lhbp.cli import main

from conftest import LADDER_SCHEDULE, ex2, tridiag

ACCEPTANCE_MODELS = {
    "example2(0)": ex2(0.0),
    "example2(0.1)": ex2(0.1),
    "example2(0.3)": ex2(0.3),
    "example2(0.5)": ex2(0.5),
    "example2(0.8)": ex2(0.8),
    "tridiagonal(0.1,0.2,0.8,u=1)": tridiag(0.1, 0.2, 0.8),
    "tridiagonal(0.1,0.2,0.8,u=2)": tridiag(0.1, 0.2, 0.8, u=2.0),
    "tridiagonal(0.25,0,0.25)": tridiag(0.25, 0.0, 0.25),
}


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_gammastar(capsys):
    t0 = time.time()
    code = main(["gammastar", "--K", "5000", "--tol-gamma", "0.0005",
                 "--workers", "1"])
    import json
    doc = json.loads(capsys.readouterr().out)
    elapsed = time.time() - t0
    gs = doc["gamma_star"]
    with capsys.disabled():
        report(1, "gamma* in [0.1615, 0.1635], < 60 s",
               code == 0 and 0.1615 <= gs <= 0.1635 and elapsed < 60,
               f"gamma*={gs:.6f}, {elapsed:.2f}s")


def test_02_figure3_anchor_points():
    t0 = time.time()
    q = iterate_to_limit(ex2(0.0), 8000, 0.0)
    q0 = float(q.vector[0])
    qt_vals = [float(iterate_to_limit(ex2(0.0), k, 1.0).vector[0])
               for k in (100, 1000, 8000)]
    elapsed = time.time() - t0
    ok = (0.93 <= q0 <= 0.97
          and all(abs(v - 1.0) <= 1e-9 for v in qt_vals)
          and elapsed < 300)
    report(2, "q0^(8000) in [0.93, 0.97], qtilde0 = 1 within 1e-9, < 5 min",
           ok, f"q0={q0:.6f}, {elapsed:.1f}s")


def test_03_regime_table():
    want = [("example2(0)", "QeqQtildeEq1"), ("example2(0.1)", "QltQtildeEq1"),
            ("example2(0.3)", "QltQtildeLt1"), ("example2(0.8)", "QeqQtildeLt1")]
    got = [(name, classify(ACCEPTANCE_MODELS[name]).regime) for name, _ in want]
    ok = got == want
    report(3, "classify(example2, gamma in {0, 0.1, 0.3, 0.8})", ok, str(got))


def test_04_tridiagonal_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        b = rng.uniform(0.0, 0.95)
        sqrt_disc = rng.uniform(math.sqrt(1e-3), 1.0 - b)
        ac = ((1.0 - b) ** 2 - sqrt_disc ** 2) / 4.0
        ratio = math.exp(rng.uniform(-1.2, 1.2))
        a = min(math.sqrt(ac * ratio), 1.9)
        c = ac / a
        if not (0 < a <= 2 and 0 < c <= 2):
            continue
        mom = embedded_moments(tridiag(a, b, c), 500, with_a=False)
        err = abs(mom.mu[500] - tridiagonal_mu_limit(a, b, c))
        worst = max(worst, err)
    report(4, "embedded mu_500 matches closed form within 1e-10 (50 draws)",
           worst <= 1e-10, f"worst |err|={worst:.2e}")


def test_05_proposition_one_split():
    cases = [((0.1, 0.2, 0.8, 1.0), "GlobalSurvivalPossible"),
             ((0.1, 0.2, 0.8, 2.0), "GlobalExtinction"),
             ((0.25, 0.0, 0.25, 1.0), "GlobalExtinction")]
    got = [global_verdict(tridiag(a, b, c, u=u)).verdict
           for (a, b, c, u), _ in cases]
    ok = got == [w for _, w in cases]
    report(5, "u vs mu split on the tridiagonal family", ok, str(got))


def test_06_ladder_monotonicity():
    worst_q, worst_qt, detail = 0.0, 0.0, []
    for name, model in ACCEPTANCE_MODELS.items():
        ladder = extinction_ladder(model, LADDER_SCHEDULE, window=4)
        dq = float(np.min(np.diff(ladder.q_window, axis=0)))
        dqt = float(np.max(np.diff(ladder.qtilde_window, axis=0)))
        worst_q = min(worst_q, dq)
        worst_qt = max(worst_qt, dqt)
        if dq < -1e-12 or dqt > 1e-12:
            detail.append(name)
        assert np.all(ladder.qtilde_window >= ladder.q_window)
    ok = worst_q >= -1e-12 and worst_qt <= 1e-12
    report(6, "ladder monotone on all acceptance models (tol 1e-12)", ok,
           f"worst q step {worst_q:.1e}, worst qtilde step {worst_qt:.1e}"
           + (f", failing: {detail}" if detail else ""))


def test_07_fixed_point_continuum(top_level_03):
    model = ex2(0.3)
    q, qt = top_level_03
    anchors = [q[0] + (i + 1) / 11 * (qt[0] - q[0]) for i in range(10)]
    curves = [curve_from_anchor(model, a, 205, bounds=(float(q[0]), float(qt[0])))
              for a in anchors]
    res = max(c.residual for c in curves)
    complete = all(len(c.values) >= 201 for c in curves)
    ordered = all(np.all(curves[i].values[:201] <= curves[i + 1].values[:201] + 1e-12)
                  for i in range(9))
    ok = complete and res <= 1e-8 and ordered
    report(7, "10 anchors -> curves over 200 indices, residual <= 1e-8, ordered",
           ok, f"max residual {res:.1e}")


def test_08_agresti_sandwich():
    model = ex2(0.0)
    rows = []
    ok = True
    levels = (10, 100, 1000)
    for k, b in zip(levels, agresti_bounds(model, 1, levels)):
        oracle = float(iterate_to_limit(model, k, 0.0).vector[1])
        ok = ok and (b.lower - 1e-8 <= oracle <= b.upper + 1e-8)
        rows.append(f"k={k}: {b.lower:.4f} <= {oracle:.4f} <= {b.upper:.4f}")
    report(8, "bounds sandwich q_1^(k), k in {10, 100, 1000}", ok,
           "; ".join(rows))


def test_09_monte_carlo_agreement():
    est = estimate_extinction(ex2(0.0), 1, 0, "immortal", 100_000, seed=20240811)
    ok_q = abs(est.estimate - 49 / 64) <= 3 * est.half_width
    mu = estimate_embedded_moment(ex2(0.0), 1, 100_000, seed=20240812)
    ok_mu = abs(mu.estimate - 2.0) <= 3 * mu.half_width
    report(9, "MC within 3 sigma: q_0^(1) of 49/64 and embedded mean of 2",
           ok_q and ok_mu,
           f"q: {est.estimate:.5f}+/-{est.half_width:.5f}, "
           f"mu: {mu.estimate:.4f}+/-{mu.half_width:.4f}")


def test_10_boundary_honesty():
    cls = classify(ex2(0.5))
    report(10, "classify(example2, gamma=0.5) = Unresolved",
           cls.regime == "Unresolved", cls.regime)
