"""Command-line surface.

Tabular commands emit CSV with a header row; certificates and simulation
results are JSON.  Floats are written with 17 significant digits so that
re-parsing reproduces them exactly.

Exit codes: 0 success, 2 validation failure, 3 non-convergence in a gating
computation, 4 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .criteria import Budget, agresti_bounds, classify
from .embedded import embedded_moments, partial_verdict
from .fixedpoints import curve_from_anchor
from .generating import (ComputationError, default_schedule, extinction_ladder,
                         iterate_to_limit)
from .model import Example2Model, LHBPModel, ModelError, load_model, validate
from .montecarlo import estimate_extinction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_USAGE = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, header, out_path):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    _emit(buf.getvalue(), out_path)


def _write_json(obj, out_path):
    _emit(json.dumps(obj, indent=2, default=_json_default) + "\n", out_path)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serialisable: {type(o)}")


def _load(path: str, strict: bool = True) -> LHBPModel:
    with open(path) as fh:
        return load_model(fh.read(), strict=strict)


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return x


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, step, end = (float(p) for p in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be START:STEP:END, got {spec!r}")
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError(f"bad grid {spec!r}")
    n = int(round((end - start) / step)) + 1
    return np.linspace(start, end, n)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    model = _load(args.model, strict=False)
    rep = validate(model, K=args.K)
    _write_json({
        "passed": rep.passed,
        "horizon": rep.horizon,
        "max_normalization_residual": max(r for _, r in rep.normalization_residuals),
        "hessenberg_ok": rep.hessenberg_ok,
        "upward_ok": rep.upward_ok,
        "first_upward_violation": rep.first_upward_violation,
        "back_edge_seen": rep.back_edge_seen,
        "min_one_minus_p1": rep.min_one_minus_p1,
        "divergence_flag": rep.divergence_flag,
    }, args.out)
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def cmd_extinction(args) -> int:
    model = _load(args.model)
    schedule = default_schedule(args.k)
    window = min(args.window, schedule[0] + 2)
    ladder = extinction_ladder(model, schedule, window=window, tol=args.tol)
    rows = []
    for li, level in enumerate(ladder.levels):
        rq, rt = ladder.q_results[li], ladder.qtilde_results[li]
        for i in range(window):
            rows.append(("level", level, i, rq.vector[i], rt.vector[i],
                         rq.converged, rt.converged))
    for i in range(window):
        rows.append(("estimate", "", i, ladder.q_estimate[i],
                     ladder.qtilde_estimate[i], ladder.q_stall,
                     ladder.qtilde_stall))
    _write_csv(rows, ("kind", "level", "index", "q", "qtilde",
                      "q_converged", "qtilde_converged"), args.out)
    return EXIT_OK if ladder.converged else EXIT_NONCONVERGED


def cmd_moments(args) -> int:
    model = _load(args.model)
    mom = embedded_moments(model, args.K)
    rows = []
    for k in range(mom.ok_through + 1):
        rows.append((k, mom.mu[k], mom.a[k], mom.x[k], mom.m0[k], "ok"))
    if mom.kind != "ok":
        rows.append((mom.k_star, "", "", mom.x[mom.k_star], "",
                     f"{mom.kind}({mom.k_star})"))
    _write_csv(rows, ("k", "mu", "a", "x", "m0", "status"), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    model = _load(args.model)
    budget = Budget(partial_horizon=args.K, global_horizon=min(args.K, 4000))
    cls = classify(model, budget)
    _write_json({"regime": cls.regime, "certificates": cls.certificates},
                args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = _load(args.model)
    i = args.i
    levels = [k for k in default_schedule(args.k) if k > i]
    rows = []
    for k in levels:
        b = agresti_bounds(model, i, k)
        oracle = float(iterate_to_limit(model, k, 0.0, tol=args.tol).vector[i])
        rows.append((i, k, b.lower, oracle, b.upper))
    _write_csv(rows, ("i", "k", "lower", "oracle", "upper"), args.out)
    return EXIT_OK


def cmd_fixedpoints(args) -> int:
    model = _load(args.model)
    if args.J > args.k:
        raise argparse.ArgumentTypeError("curve window J must not exceed k")
    ladder = extinction_ladder(model, default_schedule(args.k),
                               window=min(2, args.k + 2), tol=args.tol)
    qv = ladder.q_results[-1].vector
    qtv = ladder.qtilde_results[-1].vector
    q0, qt0 = float(qv[0]), float(qtv[0])
    anchor = args.anchor if args.anchor is not None else 0.5 * (q0 + qt0)
    curve = curve_from_anchor(model, anchor, args.J, tol=args.tol,
                              bounds=(q0, qt0))
    rows = []
    for idx in range(len(curve.values)):
        d = curve.decay[idx - 1] if 1 <= idx <= len(curve.decay) else ""
        rows.append((idx, curve.values[idx], d, qv[idx], qtv[idx]))
    _write_csv(rows, ("index", "s", "one_minus_s_times_m0", "q_window",
                      "qtilde_window"), args.out)
    if not curve.ok:
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load(args.model)
    est = estimate_extinction(model, args.k, args.i0, args.variant,
                              args.reps, args.seed)
    _write_json({"estimate": est.estimate, "half_width": est.half_width,
                 "n": est.replications_used, "censored": est.cap_hits,
                 "unreliable": est.unreliable, "seed": est.seed}, args.out)
    return EXIT_OK


def _sweep_row(payload):
    gamma, k, tol = payload
    model = Example2Model(gamma=gamma)
    ladder = extinction_ladder(model, (k,), window=1, tol=tol)
    rq, rt = ladder.q_results[0], ladder.qtilde_results[0]
    cls = classify(model, Budget(partial_horizon=2000, global_horizon=2000,
                                 sls_tail_horizon=1000))
    return (gamma, float(rq.vector[0]), float(rt.vector[0]),
            cls.regime, rq.converged, rt.converged)


def cmd_sweep(args) -> int:
    model = _load(args.model, strict=False)
    if not isinstance(model, Example2Model):
        raise argparse.ArgumentTypeError(
            "sweep supports the example2 family (gamma parameter) only")
    grid = args.grid
    payloads = [(float(g), args.k, args.tol) for g in grid]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    _write_csv(rows, ("gamma", "q0", "qtilde0", "regime", "q_converged",
                      "qtilde_converged"), args.out)
    return EXIT_OK if all(r[4] and r[5] for r in rows) else EXIT_NONCONVERGED


def cmd_gammastar(args) -> int:
    """Bisect the partial-extinction threshold of the example2 family.

    Serial on purpose: each probe halves the bracket, so the result does
    not depend on ``--workers``.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > args.tol_gamma:
        g = lo + (hi - lo) / 2
        if not lo < g < hi:  # the bracket is one ulp wide
            break
        if partial_verdict(Example2Model(gamma=g), args.K).survival_side:
            hi = g
        else:
            lo = g
    _write_json({"gamma_star": 0.5 * (lo + hi), "bracket": [lo, hi],
                 "K": args.K, "tolerance": args.tol_gamma}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lhbp",
        description="Extinction numerics for lower Hessenberg branching "
                    "processes with countably many types.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True, tol=False):
        if model:
            sp.add_argument("--model", required=True, help="model JSON path")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-12,
                            help="iteration tolerance")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="parallel workers (only sweep runs in parallel)")

    sp = sub.add_parser("validate", help="check model invariants",
                        description="JSON report of model invariant checks.")
    common(sp)
    sp.add_argument("--K", type=int, default=64, help="validation horizon")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser(
        "extinction", help="extinction ladder over a truncation schedule",
        description="CSV columns: kind (level|estimate), level, index, q, "
                    "qtilde, q_converged, qtilde_converged.")
    common(sp, tol=True)
    sp.add_argument("--k", type=int, required=True, help="largest truncation level")
    sp.add_argument("--window", type=int, default=8, help="report window size")
    sp.set_defaults(fn=cmd_extinction)

    sp = sub.add_parser(
        "moments", help="embedded process moment tables",
        description="CSV columns: k, mu, a, x, m0, status.")
    common(sp)
    sp.add_argument("--K", type=int, required=True, help="moment horizon")
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser(
        "classify", help="four-way regime classification",
        description="JSON certificate document: regime plus ordered "
                    "certificates of every sub-decision.")
    common(sp)
    sp.add_argument("--K", type=int, default=5000, help="partial-criterion horizon")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser(
        "bounds", help="two-sided truncation bounds on q_i",
        description="CSV columns: i, k, lower, oracle, upper; rows for each "
                    "scheduled level k up to --k.  lower and upper bracket "
                    "q_i of the level k-1 truncation (they use the embedded "
                    "means up to k-1); oracle is q_i at level k.")
    common(sp, tol=True)
    sp.add_argument("--i", type=int, required=True, help="type index (>= 1)")
    sp.add_argument("--k", type=int, required=True, help="largest level")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser(
        "fixedpoints", help="fixed-point curve through an anchor",
        description="CSV columns: index, s, one_minus_s_times_m0, q_window, "
                    "qtilde_window.")
    common(sp, tol=True)
    sp.add_argument("--k", type=int, required=True,
                    help="truncation level for the q/qtilde windows")
    sp.add_argument("--J", type=int, default=100, help="curve window length")
    sp.add_argument("--anchor", type=float, default=None,
                    help="anchor s_0 (default: midpoint of [q_0, qtilde_0])")
    sp.set_defaults(fn=cmd_fixedpoints)

    sp = sub.add_parser(
        "simulate", help="Monte Carlo extinction estimate",
        description="JSON: estimate, half_width, n, censored, seed.")
    common(sp)
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.add_argument("--i0", type=int, default=0, help="initial type")
    sp.add_argument("--variant", choices=("sterile", "immortal"),
                    default="immortal")
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser(
        "sweep", help="parameter sweep for the example2 family",
        description="CSV columns: gamma, q0, qtilde0, regime, q_converged, "
                    "qtilde_converged; one row per grid point.")
    common(sp, tol=True)
    sp.add_argument("--grid", type=_parse_grid, required=True,
                    help="parameter grid START:STEP:END")
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser(
        "gammastar", help="partial-extinction threshold of the example2 family",
        description="JSON: gamma_star, bracket, K, tolerance.")
    common(sp, model=False)
    sp.add_argument("--K", type=int, default=5000, help="criterion horizon")
    sp.add_argument("--tol-gamma", type=_positive_float, default=5e-4,
                    help="bisection tolerance on gamma")
    sp.set_defaults(fn=cmd_gammastar)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; remap to the documented code
        if e.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    try:
        return args.fn(args)
    except (ModelError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ComputationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (argparse.ArgumentTypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
