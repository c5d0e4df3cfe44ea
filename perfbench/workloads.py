"""Job pools, seeded job lists and output checks for the three workloads.

Each workload is a list of groups; each group is a small pool of jobs of
similar cost.  A seed picks one job from every group, so every seed runs the
same number of jobs per group and the pass time stays steady across seeds.
The reference values of every ladder and certify job are precomputed by
``oracle.py`` into ``oracle_ref.json``; that is why jobs come from fixed
pools rather than from continuous draws.

This module does not import ``lhbp``: the checks read the CLI's CSV and
JSON output and compare it with the long-double oracle and closed forms.
"""

from __future__ import annotations

import csv
import os
import io
import json
import math
import random

from oracle import G_values, schedule, tridiagonal_mu_limit

# ---------------------------------------------------------------------------
# model documents


def ex2(gamma: float) -> dict:
    return {"family": "example2", "gamma": gamma}


def tri(a: float, b: float, c: float, u: float = 1.0) -> dict:
    return {"family": "tridiagonal", "a": a, "b": b, "c": c, "u": u}


def _table(*entries):
    return {"kind": "table",
            "entries": [{"counts": {str(t): n for t, n in counts.items()},
                         "prob": p} for counts, p in entries]}


def _product(coords):
    return {"kind": "product",
            "coords": {str(t): {str(n): p for n, p in pmf.items()}
                       for t, pmf in coords.items()}}


def _explicit(*laws) -> dict:
    return {"family": "explicit", "tail_from": len(laws) - 1,
            "head": [{"type": i, "law": law} for i, law in enumerate(laws)]}


# Explicit models: type 1 is shift-repeated.  E1 dies out (q = qt = 1); E3
# (product tail law) and E4 (table tail law) survive with q = qt < 1.
E1 = _explicit(_table(({1: 1}, 0.6), ({}, 0.4)),
               _product({0: {0: 0.8, 1: 0.2}, 2: {0: 0.3, 1: 0.7}}))
E3 = _explicit(_table(({1: 2}, 0.5), ({}, 0.5)),
               _product({0: {0: 0.25, 1: 0.75}, 2: {0: 0.5, 2: 0.5}}))
E4 = _explicit(_table(({1: 1}, 0.5), ({}, 0.5)),
               _table(({0: 1, 2: 1}, 0.5), ({}, 0.25), ({2: 3}, 0.25)))

R1, R2, R3, R4 = "QeqQtildeEq1", "QltQtildeEq1", "QltQtildeLt1", "QeqQtildeLt1"
UNRESOLVED = "Unresolved"


def _ext(model, k):
    return {"cmd": "extinction", "model": model, "k": k}


def _cls(model, regimes, branch, K=5000):
    return {"cmd": "classify", "model": model, "K": K,
            "regimes": regimes, "branch": branch}


def _mom(model, K):
    return {"cmd": "moments", "model": model, "K": K}


def _bounds(model, k):
    return {"cmd": "bounds", "model": model, "i": 1, "k": k}


def _fp(model, k=1024, J=200):
    return {"cmd": "fixedpoints", "model": model, "k": k, "J": J}


def _sim(model, k, seed, reps=5000):
    return {"cmd": "simulate", "model": model, "k": k, "i0": 0,
            "reps": reps, "seed": seed}


# Simulation seeds are fixed per pool job (not drawn from the benchmark
# seed), so the 3-sigma check cannot fail by chance on an unseen seed.
POOLS: dict[str, dict[str, list[dict]]] = {
    "ladder": {
        # ROADMAP's deep-qtilde case, kept in every job list: at this commit
        # its qtilde window is off by 1.8e-5.
        "anchor_deep_qtilde": [_ext(ex2(0.3), 8000)],
        # Also in every job list: float64 u-space Jacobi freezes at a spurious
        # fixed point (qtilde = q = 0.7249) while the truncated qtilde is 1;
        # the survival-space solve of ROADMAP item 1 is the fix.
        "anchor_qtilde_trap": [_ext(tri(0.15, 0.25, 0.7), 2048)],
        "ex2_far_low": [_ext(ex2(g), 4096) for g in (0.0, 0.02, 0.04)],
        "ex2_far_high": [_ext(ex2(g), 2048) for g in (0.25, 0.26, 0.27)],
        "ex2_near_below": [_ext(ex2(g), 2048) for g in (0.150, 0.152)],
        "ex2_near_above": [_ext(ex2(g), 2048) for g in (0.171, 0.172, 0.173)],
        "tridiagonal": [_ext(tri(0.3, 0.3, 0.5), 2048)],
        "tridiagonal_thinned": [_ext(tri(*p), 4096) for p in
                                ((0.1, 0.2, 0.8, 2.0), (0.3, 0.3, 0.5, 1.5),
                                 (0.05, 0.1, 1.2, 1.1))],
        # E1 is left out: its qtilde rises by 3.4e-12 from level 128 to 256,
        # which fails the 1e-12 monotonicity check (see README, Findings).
        # Two cheap explicit jobs put the median job inside the cluster of
        # 0.3-0.4 s jobs (tridiagonal, trap, near_below), not at its edge.
        "explicit_product": [_ext(E3, 4096)],
        "explicit_table": [_ext(E4, 4096)],
    },
    "decide": {
        "ex2_below": [_cls(ex2(g), [R2], "raabe") for g in (0.03, 0.06, 0.09, 0.12)],
        "ex2_between": [_cls(ex2(g), [R3], "sls") for g in (0.2, 0.25, 0.3, 0.35)],
        "ex2_above": [_cls(ex2(g), [R4], "sls") for g in (0.7, 0.8, 0.9)],
        "tri_closed_form_survival": [
            _cls(tri(*p), [R2], "closed-form") for p in
            ((0.05, 0.3, 1.2), (0.05, 0.4, 1.3))],
        "tri_closed_form_extinct": [
            _cls(tri(*p), [R1], "closed-form") for p in
            ((0.05, 0.3, 1.2, 3.0), (0.05, 0.4, 1.3, 3.0))],
        "tri_raabe": [_cls(tri(0.0, b, c), [R2], "raabe") for b, c in
                      ((0.2, 1.5), (0.4, 1.3), (0.1, 1.4), (0.3, 1.6))],
        "tri_sls": [_cls(tri(0.5, b, 0.5), [R3, R4, UNRESOLVED], "sls")
                    for b in (0.2, 0.3)],
        "explicit": [_cls(E1, [R1], "any", K) for K in (4000, 5000)],
        "moments_closed_form": [_mom(tri(*p), K) for p, K in
                                (((0.1, 0.2, 0.8), 3000), ((0.2, 0.3, 0.4), 3000),
                                 ((0.25, 0.0, 0.25), 3000))],
        "moments_ex2": [_mom(ex2(g), 2000) for g in (0.05, 0.1, 0.14)],
        "gammastar": [{"cmd": "gammastar", "K": K} for K in (4000, 5000)],
    },
    "certify": {
        "bounds_ex2": [_bounds(ex2(g), 64) for g in (0.01, 0.02, 0.03)],
        "bounds_tridiagonal": [_bounds(tri(0.25, 0.0, 0.25), 32),
                               _bounds(tri(0.1, 0.3, 1.1), 48)],
        "fixedpoints_low": [_fp(ex2(g)) for g in (0.22, 0.24)],
        # The acceptance suite's model, in every job list: its qtilde window at
        # k = 1024 is the least accurate output here (7.5 digits), and the
        # digits of nearby gammas alternate between about 7 and 11.
        "fixedpoints_anchor": [_fp(ex2(0.3))],
        "simulate_ex2": [_sim(ex2(0.0), 2, 102), _sim(ex2(0.05), 2, 103),
                         _sim(ex2(0.3), 2, 104)],
        # Tridiagonal replications cost more than example2 ones, and k = 3
        # more than k = 2: these counts bring both jobs to the time of a
        # simulate_ex2 or bounds_ex2 job, so that the median job of a pass
        # sits inside that cluster.
        "simulate_tridiagonal": [_sim(tri(0.3, 0.3, 0.5), 3, 203, 2800),
                                 _sim(tri(0.05, 0.3, 1.2), 2, 204, 3500)],
    },
}

WORKLOADS = tuple(POOLS)

WHY = {
    "ladder": "deep extinction ladders; nearly all time is Jacobi sweeps in "
              "generating, and the solver's qtilde errors show in accuracy_digits",
    "decide": "classify, moments and gammastar; pure-Python moment loops, law "
              "construction and spectral radius, with no call into generating",
    "certify": "bounds, fixed-point curves and simulation; many small cached solves, "
               "the only workload reaching fixedpoints and montecarlo",
}

# One tiny job per command, run untimed before the first pass so that lazy
# imports and first-call set-up inside the process are not charged to pass 1.
WARMUP = {
    "extinction": _ext(ex2(0.3), 4),
    "classify": _cls(ex2(0.3), [R3], "sls", 50),
    "moments": _mom(ex2(0.1), 10),
    "gammastar": {"cmd": "gammastar", "K": 50},
    "bounds": _bounds(ex2(0.0), 4),
    "fixedpoints": _fp(ex2(0.3), 16, 4),
    "simulate": _sim(ex2(0.0), 1, 1, 100),
}


def job_id(job: dict) -> str:
    """Stable text key of a job (used to look up its reference record)."""
    keys = {k: v for k, v in job.items() if k not in ("regimes", "branch", "group")}
    return json.dumps(keys, sort_keys=True, separators=(",", ":"))


def select_jobs(workload: str, seed: int) -> list[dict]:
    """One job from every group of the workload, chosen by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [dict(rng.choice(group), group=name)
            for name, group in POOLS[workload].items()]


def argv_for(job: dict, model_path: str | None, out_path: str) -> list[str]:
    """CLI arguments of one job; every job runs single-worker."""
    cmd = job["cmd"]
    argv = [cmd]
    if model_path is not None:
        argv += ["--model", model_path]
    if cmd == "extinction":
        argv += ["--k", str(job["k"])]
    elif cmd in ("classify", "moments", "gammastar"):
        argv += ["--K", str(job["K"])]
    elif cmd == "bounds":
        argv += ["--i", str(job["i"]), "--k", str(job["k"])]
    elif cmd == "fixedpoints":
        argv += ["--k", str(job["k"]), "--J", str(job["J"])]
    elif cmd == "simulate":
        argv += ["--k", str(job["k"]), "--i0", str(job["i0"]),
                 "--variant", "immortal", "--reps", str(job["reps"]),
                 "--seed", str(job["seed"])]
    return argv + ["--workers", "1", "--out", out_path]


# ---------------------------------------------------------------------------
# output checks
#
# Each check returns (problems, errors): a list of broken invariants (empty
# when the output is correct) and a list of absolute errors against the
# reference, in survival space 1 - value where the value is a probability.

# Distance from the oracle is measured (accuracy_digits, which has a bound),
# not failed: at this commit some qtilde values are off by up to 0.32.
MONO_TOL = 1e-12
SANDWICH_TOL = 1e-8
RESIDUAL_TOL = 1e-8
ORDER_TOL = 1e-9
MU_TOL = 1e-10


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_extinction(job, text, ref):
    problems, errors = [], []
    rows = _rows(text)
    levels = [r for r in rows if r["kind"] == "level"]
    if any(r["q_converged"] != "True" or r["qtilde_converged"] != "True"
           for r in levels):
        problems.append("converged=False reported")
    by_level: dict[int, dict[int, tuple[float, float]]] = {}
    for r in levels:
        by_level.setdefault(int(r["level"]), {})[int(r["index"])] = (
            float(r["q"]), float(r["qtilde"]))
    if sorted(by_level) != schedule(job["k"]):
        return problems + ["levels differ from the schedule"], errors
    window = sorted(by_level[job["k"]])
    for lv, vals in by_level.items():
        for q, qt in vals.values():
            if not (0.0 <= q <= qt <= 1.0):
                problems.append(f"level {lv}: 0 <= q <= qtilde <= 1 fails")
    ks = sorted(by_level)
    for lo, hi in zip(ks, ks[1:]):
        for i in window:
            if by_level[hi][i][0] < by_level[lo][i][0] - MONO_TOL:
                problems.append(f"q_{i} decreases from level {lo} to {hi}")
            if by_level[hi][i][1] > by_level[lo][i][1] + MONO_TOL:
                problems.append(f"qtilde_{i} increases from level {lo} to {hi}")
    for rec in ref["levels"]:
        got = by_level.get(rec["level"], {})
        for i, (vq, vqt) in enumerate(zip(rec["vq"], rec["vqt"])):
            if i not in got:
                continue
            q, qt = got[i]
            errors += [abs((1.0 - q) - float(vq)), abs((1.0 - qt) - float(vqt))]
    return problems, errors


def check_moments(job, text, ref):
    problems, errors = [], []
    rows = _rows(text)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if len(ok_rows) != job["K"] + 1 or len(rows) != len(ok_rows):
        return ["moment table stops before K on a partial-extinction model"], errors
    log_m0 = 0.0
    for r in ok_rows:
        mu, x, m0 = float(r["mu"]), float(r["x"]), float(r["m0"])
        log_m0 += math.log(mu)
        if not (0.0 <= x < 1.0) or mu <= 0.0:
            problems.append(f"k={r['k']}: need 0 <= x < 1 and mu > 0")
            break
        if not 1e-300 < m0 < 1e300:   # subnormal or overflowed: only the scale
            consistent = abs(log_m0) > 680.0
        else:
            consistent = abs(math.log(m0) - log_m0) <= 1e-9 * max(1.0, abs(log_m0))
        if not consistent:
            problems.append(f"k={r['k']}: m0 is not the product of the means")
            break
    doc = job["model"]
    if doc["family"] == "tridiagonal" and doc["a"] > 0:
        lim = tridiagonal_mu_limit(doc["a"], doc["b"], doc["c"])
        err = abs(float(ok_rows[-1]["mu"]) - lim) / lim
        errors.append(err)
        if err > MU_TOL:
            problems.append(f"mu_K off the closed form by {err:.1e}")
    return problems, errors


def check_classify(job, text, ref):
    doc = json.loads(text)
    certs = doc.get("certificates") or []
    problems = []
    if doc.get("regime") not in job["regimes"]:
        problems.append(f"regime {doc.get('regime')} not in {job['regimes']}")
    if not certs or certs[0].get("test") != "partial_verdict":
        problems.append("certificate trail does not start with partial_verdict")
    rules = " ".join(str(c.get("rule") or c.get("tail_global_rule") or "")
                     for c in certs)
    tests = [c.get("test") for c in certs]
    branch = job["branch"]
    if branch == "sls" and "sls_verdict" not in tests:
        problems.append("SLS branch not reached")
    if branch == "raabe" and "raabe" not in rules:
        problems.append("Raabe branch not reached")
    if branch == "closed-form" and not any(
            r in rules for r in ("closed-form", "thinning-dominates-mean")):
        problems.append("closed-form branch not reached")
    return problems, []


def check_gammastar(job, text, ref):
    doc = json.loads(text)
    gs, (lo, hi) = doc["gamma_star"], doc["bracket"]
    problems = []
    if not (0.1615 <= gs <= 0.1635):
        problems.append(f"gamma* = {gs} outside [0.1615, 0.1635]")
    if not (lo <= gs <= hi) or hi - lo > doc["tolerance"]:
        problems.append("bracket does not pin gamma* to the tolerance")
    return problems, []


def check_bounds(job, text, ref):
    """Row k must bracket q_i^(k-1), the quantity its embedded means bound.

    The CSV labels its oracle column and bounds with level k; rows where that
    column falls outside the bounds are counted by bounds_label_misses, not
    failed, since the bracket itself is right.
    """
    problems, errors = [], []
    rows = _rows(text)
    want = {rec["level"]: rec for rec in ref["levels"]}
    if sorted(int(r["k"]) for r in rows) != sorted(want):
        return ["levels differ from the schedule"], errors
    for r in rows:
        k = int(r["k"])
        lower, oracle, upper = float(r["lower"]), float(r["oracle"]), float(r["upper"])
        bounded = 1.0 - float(want[k]["vq_below"])
        if not (lower - SANDWICH_TOL <= bounded <= upper + SANDWICH_TOL):
            problems.append(f"k={k}: lower <= oracle <= upper fails")
        errors.append(abs((1.0 - oracle) - float(want[k]["vq"])))
    return problems, errors


def bounds_label_misses(text: str) -> int:
    """Rows whose own oracle column (q_i at level k) lies outside the bounds."""
    return sum(not (float(r["lower"]) - SANDWICH_TOL <= float(r["oracle"])
                    <= float(r["upper"]) + SANDWICH_TOL) for r in _rows(text))


def check_fixedpoints(job, text, ref):
    problems, errors = [], []
    rows = _rows(text)
    if len(rows) != job["J"] + 1:
        return [f"curve has {len(rows)} of {job['J'] + 1} indices"], errors
    s = [float(r["s"]) for r in rows]
    resid = max(abs(float(g) - si)
                for g, si in zip(G_values(job["model"], s), s[:-1]))
    if resid > RESIDUAL_TOL:
        problems.append(f"curve residual {resid:.1e} > {RESIDUAL_TOL}")
    for i, r in enumerate(rows):
        q_ref = 1.0 - float(ref["vq"][i])
        qt_ref = 1.0 - float(ref["vqt"][i])
        if not (q_ref - ORDER_TOL <= s[i] <= qt_ref + ORDER_TOL):
            problems.append(f"index {i}: q <= s <= qtilde fails")
            break
        errors += [abs((1.0 - float(r["q_window"])) - float(ref["vq"][i])),
                   abs((1.0 - float(r["qtilde_window"])) - float(ref["vqt"][i]))]
    return problems, errors


def check_simulate(job, text, ref):
    doc = json.loads(text)
    p = 1.0 - float(ref["vq"])
    n = doc["n"]
    problems = []
    if doc["censored"] or doc["unreliable"] or n != job["reps"]:
        problems.append("censored replications")
    sigma = math.sqrt(p * (1.0 - p) / n)
    if abs(doc["estimate"] - p) > 3.0 * sigma:
        problems.append(f"estimate {doc['estimate']:.5f} more than 3 sigma "
                        f"from the truncated solve {p:.5f}")
    return problems, []


CHECKS = {"extinction": check_extinction, "moments": check_moments,
          "classify": check_classify, "gammastar": check_gammastar,
          "bounds": check_bounds, "fixedpoints": check_fixedpoints,
          "simulate": check_simulate}


def digits(errors) -> float:
    """-log10 of the largest error, floored at 1e-16 (16 digits)."""
    return -math.log10(max(max(errors, default=0.0), 1e-16))


def write_models(jobs: list[dict], folder) -> list[str | None]:
    """Write each job's model document to ``folder``; None for model-free jobs."""
    os.makedirs(folder, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        if "model" not in job:
            paths.append(None)
            continue
        path = os.path.join(folder, f"job{i:02d}.json")
        with open(path, "w") as fh:
            json.dump(job["model"], fh)
        paths.append(path)
    return paths
