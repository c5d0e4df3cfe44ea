"""Command-line surface.

Tabular commands emit CSV with a header row; certificates and simulation
results are JSON.  Floats are written with 17 significant digits so that
re-parsing reproduces them exactly (-0.0 prints as ``-0``).  A table is
written column by column, and a float column whose tail repeats one value
bit for bit formats that value once.

Exit codes: 0 success, 2 validation failure or unreadable model file, 3
non-convergence in a gating computation, 4 usage error or unallocatable size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import repeat

import numpy as np

from . import __version__
# most commands use these, and perfbench's worker reads the generating and
# embedded modules right after importing this one; criteria, fixedpoints,
# montecarlo and the process pool are imported by the commands that run them
from .embedded import embedded_moments, partial_verdict
from .generating import ComputationError, default_schedule, extinction_ladder
from .model import Example2Model, LHBPModel, ModelError, load_model, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_USAGE = 4

# exit code of each error a command may raise: the first matching class wins
EXIT_CODES = {ModelError: EXIT_VALIDATION, OSError: EXIT_VALIDATION,
              ComputationError: EXIT_NONCONVERGED,
              argparse.ArgumentTypeError: EXIT_USAGE, ValueError: EXIT_USAGE,
              MemoryError: EXIT_USAGE}

# the most gamma points one sweep takes; each runs a ladder and classify
MAX_GRID_POINTS = 10 ** 6


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decimals(n: int) -> list[str]:
    """``str(i)`` for i in range(n), each run of (d + 1)-digit numbers built
    by appending a digit to the d-digit ones: half the time of ``str``."""
    digits = "0123456789"
    texts, run = list(digits), list(digits[1:])
    while len(texts) < n:
        run = [p + d for p in run[:(n - len(texts) + 9) // 10] for d in digits]
        texts += run
    return texts[:n]


def _fields(values) -> list[str]:
    """CSV fields of a column or a row: a float (np.float64 included) with
    17 significant digits, so -0.0 prints as ``-0``, anything else as
    ``str``.  Three kinds of column skip the test of each value: a float64
    array is formatted through its last change of bits, not of value
    (0.0 == -0.0), and a repeated tail reuses the last text; ``range(n)``
    is ``_decimals(n)``; an ``itertools.repeat`` formats its value once."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        bits = values.view(np.int64)
        changes = np.flatnonzero(bits[1:] != bits[:-1])
        head = int(changes[-1]) + 2 if changes.size else min(values.size, 1)
        fields = ["%.17g" % v for v in values[:head].tolist()]
        return fields + fields[-1:] * (values.size - head)
    if isinstance(values, range) and values == range(len(values)):
        return _decimals(len(values))
    if isinstance(values, repeat):
        values = list(values)
        return _fields(values[:1]) * len(values)
    return ["%.17g" % v if isinstance(v, float) else str(v) for v in values]


def _write_csv(header, columns, out_path, more_rows=()):
    """Write a header, the rows of ``columns`` and then ``more_rows`` as
    CSV, column by column: a float64 column whose tail repeats one value bit
    for bit formats it once (``_fields``).  No field is quoted, as the
    commands write no text with a comma, quote or line break, except a row
    of one empty field: it is written ``""``, as by ``csv.writer``, since an
    empty line reads as no row."""
    fields = [_fields(c) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*fields, strict=True)),
             *(",".join(_fields(row)) for row in more_rows)]
    if len(header) == 1:
        lines = [line or '""' for line in lines]
    _emit("\n".join(lines) + "\n", out_path)


def _write_json(obj, out_path):
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _load(path: str, strict: bool = True) -> LHBPModel:
    with open(path) as fh:
        try:
            return load_model(fh.read(), strict=strict)
        except UnicodeDecodeError as e:
            raise ModelError(f"parse error: {e}") from e


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return x


def _probability(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    # written so that NaN fails the test
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text!r}")
    return x


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, step, end = (float(p) for p in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be START:STEP:END, got {spec!r}")
    # gamma lies in [0, 1]; written so that NaN fails the test
    if not (step > 0 and 0.0 <= start <= end <= 1.0):
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}: need STEP > 0 and 0 <= START <= END <= 1")
    steps = (end - start) / step
    # a STEP that does not divide END - START is an error, not rounded away
    if not (math.isfinite(steps)
            and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}: STEP must divide END - START")
    points = round(steps) + 1
    # checked before np.linspace allocates: a grid too large to hold or to
    # run is a usage error, not a failed allocation
    if points > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}: {points} points, more than the "
            f"{MAX_GRID_POINTS} a sweep takes")
    return np.linspace(start, end, points)


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
    ladder = extinction_ladder(model, default_schedule(args.k),
                               window=args.window, tol=args.tol)
    rows = []
    for li, level in enumerate(ladder.levels):
        rq, rt = ladder.q_results[li], ladder.qtilde_results[li]
        for i in range(ladder.window):
            rows.append(("level", level, i, rq.vector[i], rt.vector[i],
                         rq.converged, rt.converged))
    for i in range(ladder.window):
        rows.append(("estimate", "", i, ladder.q_estimate[i],
                     ladder.qtilde_estimate[i], ladder.q_stall,
                     ladder.qtilde_stall))
    _write_csv(("kind", "level", "index", "q", "qtilde", "q_converged",
                "qtilde_converged"), zip(*rows), args.out)
    return EXIT_OK if ladder.converged else EXIT_NONCONVERGED


def cmd_moments(args) -> int:
    model = _load(args.model)
    mom = embedded_moments(model, args.K)
    n = mom.ok_through + 1
    # a stopped table ends in one status row, with x_k at the stop
    stop = [] if mom.kind == "ok" else [
        (mom.k_star, "", "", mom.x[mom.k_star], "", f"{mom.kind}({mom.k_star})")]
    _write_csv(("k", "mu", "a", "x", "m0", "status"),
               (range(n), mom.mu, mom.a, mom.x[:n], mom.m0, repeat("ok", n)),
               args.out, stop)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .criteria import Budget, classify

    model = _load(args.model)
    budget = Budget(partial_horizon=args.K, global_horizon=min(args.K, 4000))
    cls = classify(model, budget)
    _write_json({"regime": cls.regime, "certificates": cls.certificates},
                args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .criteria import agresti_bounds

    model = _load(args.model)
    i = args.i
    levels = [k for k in default_schedule(args.k) if k > i]
    rows = [(i, b.level, b.lower, b.q, b.upper)
            for b in agresti_bounds(model, i, levels)]
    _write_csv(("i", "k", "lower", "oracle", "upper"), zip(*rows), args.out)
    return EXIT_OK


def cmd_fixedpoints(args) -> int:
    from .fixedpoints import curve_from_anchor

    model = _load(args.model)
    if args.J < 0:
        raise argparse.ArgumentTypeError(
            f"curve window J must be >= 0, got {args.J}")
    if args.J > args.k:
        raise argparse.ArgumentTypeError("curve window J must not exceed k")
    ladder = extinction_ladder(model, (args.k,), tol=args.tol)
    rq, rt = ladder.q_results[0], ladder.qtilde_results[0]
    for name, r in (("q", rq), ("qtilde", rt)):
        if not r.converged:  # no bound for the curve, nor a start
            raise ComputationError(f"level-{args.k} {name} solve did not "
                                   f"converge ({r.iterations} steps)")
    qv, qtv = rq.vector, rt.vector
    q0, qt0 = float(qv[0]), float(qtv[0])
    anchor = args.anchor if args.anchor is not None else 0.5 * (q0 + qt0)
    curve = curve_from_anchor(model, anchor, args.J, tol=args.tol,
                              bounds=(q0, qt0), start=qv)
    size = len(curve.values)
    # the decay is undefined at index 0 and past the moments' stop
    decay = ["", *curve.decay.tolist(), *[""] * (size - 1 - len(curve.decay))]
    _write_csv(("index", "s", "one_minus_s_times_m0", "q_window",
                "qtilde_window"),
               (range(size), curve.values, decay, qv[:size], qtv[:size]),
               args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .montecarlo import estimate_extinction

    model = _load(args.model)
    est = estimate_extinction(model, args.k, args.i0, args.variant,
                              args.reps, args.seed)
    _write_json({"estimate": est.estimate, "half_width": est.half_width,
                 "n": est.replications_used, "censored": est.cap_hits,
                 "unreliable": est.unreliable, "seed": est.seed}, args.out)
    return EXIT_OK


def _sweep_row(payload):
    from .criteria import Budget, classify

    gamma, k, tol = payload
    model = Example2Model(gamma=gamma)
    ladder = extinction_ladder(model, (k,), tol=tol)
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
    # a fork pool starts all its workers at the first submit
    workers = min(args.workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    _write_csv(("gamma", "q0", "qtilde0", "regime", "q_converged",
                "qtilde_converged"), zip(*rows), args.out)
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
            sp.add_argument("--tol", type=_positive_float, default=1e-12,
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
    sp.add_argument("--window", type=int, default=None,
                    help="report window size (default and largest: 3 "
                         "types, 2 for k = 0)")
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
                    "scheduled level k > i up to --k.  lower and upper "
                    "bracket q_i of the level k-1 truncation (they use the "
                    "embedded means and curvatures g_j''(0) up to k-1); "
                    "oracle is q_i at level k, from the same warm chain of "
                    "level solves.")
    common(sp)
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
    sp.add_argument("--anchor", type=_probability, default=None,
                    help="anchor s_0 (default: midpoint of [q_0, qtilde_0])")
    sp.set_defaults(fn=cmd_fixedpoints)

    sp = sub.add_parser(
        "simulate", help="Monte Carlo extinction estimate",
        description="JSON: estimate, half_width, n, censored, unreliable, "
                    "seed.")
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
                    help="gamma grid START:STEP:END within [0, 1]")
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


_PARSER = None  # built on the first call to main, not at import


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; remap to the documented code
        if e.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(c for cls, c in EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    raise SystemExit(main())
