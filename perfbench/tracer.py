"""In-memory spans around the public functions of every ``lhbp`` module.

The tracer wraps functions from outside the package: nothing under ``src/``
changes.  Modules import each other's functions by name
(``from .generating import iterate_to_limit``), so a wrapper must replace
every binding of the original object, not only the one in the defining
module; ``install`` scans every loaded ``lhbp`` module for such bindings and
``uninstall`` restores them.

Most functions get one span per call: name, start, end, parent span and job
id, plus a few attributes read from the result.  Hot scalar functions
(``G_value`` and the law helpers) get a count-plus-total accumulator instead;
their time is charged to the enclosing span as child time, so that span's
self time excludes it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

LAYERS = ("cli", "model", "generating", "embedded", "criteria",
          "fixedpoints", "montecarlo")


def _attrs_iterate(args, kwargs, res):
    return {"iterations": res.iterations, "k": len(res.vector) - 2,
            "converged": bool(res.converged)}


def _attrs_moments(args, kwargs, res):
    return {"steps": len(res.x)}


def _attrs_classify(args, kwargs, res):
    return {"regime": res.regime}


def _attrs_sls(args, kwargs, res):
    return {"scanned": res.scanned}


def _attrs_curve(args, kwargs, res):
    return {"indices": len(res.values), "failed": res.failure_index is not None}


def _attrs_estimate(args, kwargs, res):
    return {"reps": res.replications_used + res.cap_hits, "censored": res.cap_hits}


def _attrs_main(args, kwargs, res):
    argv = args[0] if args else kwargs.get("argv") or []
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    size = os.path.getsize(out) if out and os.path.exists(out) else 0
    return {"exit": res, "out_bytes": size}


# (module, function, attribute extractor); extractor None = plain span
SPANS = (
    ("cli", "main", _attrs_main),
    ("model", "load_model", None),
    ("generating", "iterate_to_limit", _attrs_iterate),
    ("generating", "extinction_ladder", None),
    ("embedded", "embedded_moments", _attrs_moments),
    ("embedded", "partial_verdict", None),
    ("embedded", "eval_g", None),
    ("criteria", "classify", _attrs_classify),
    ("criteria", "global_verdict", None),
    ("criteria", "sls_verdict", _attrs_sls),
    ("criteria", "spectral_radius", None),
    ("criteria", "agresti_bounds", None),
    ("fixedpoints", "curve_from_anchor", _attrs_curve),
    ("fixedpoints", "invert_g", None),
    ("montecarlo", "estimate_extinction", _attrs_estimate),
    ("montecarlo", "simulate_truncated", None),
)
ACCUMULATORS = (
    ("model", "G_value"),
    ("model", "marginalize_law"),
    ("model", "shift_law"),
)


class Tracer:
    """Records spans while installed; ``job`` tags every new span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.acc: dict[str, list] = {}      # name -> [calls, seconds]
        self.job = None
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, extract):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1]["id"] if stack else None,
                   "job": self.job, "id": len(spans), "child_acc": 0.0}
            spans.append(rec)
            stack.append(rec)
            rec["start"] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as e:
                rec["error"] = type(e).__name__
                raise
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if extract is not None:
                rec.update(extract(args, kwargs, res))
            return res

        return wrapper

    def _acc_wrapper(self, name, fn):
        slot = self.acc.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                slot[0] += 1
                slot[1] += dt
                if stack:
                    top = stack[-1]
                    top["child_acc"] += dt
                    key = name + "_calls"
                    top[key] = top.get(key, 0) + 1

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> list[str]:
        """Replace every binding of each traced function in loaded lhbp modules.

        Returns the names of traced functions the package no longer has.
        """
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "lhbp" or n.startswith("lhbp."))]
        plan = [(mod, fn, extract, False) for mod, fn, extract in SPANS]
        plan += [(mod, fn, None, True) for mod, fn in ACCUMULATORS]
        missing = []
        for mod, fn, extract, is_acc in plan:
            name = f"{mod}.{fn}"
            original = getattr(importlib.import_module(f"lhbp.{mod}"), fn, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = (self._acc_wrapper(name, original) if is_acc
                       else self._span_wrapper(name, original, extract))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))
        return missing

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """Spans as JSONL, times relative to the first span; header first."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _outermost(spans, name):
    """Spans of ``name`` with no enclosing span of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children and accumulators cover."""
    child = {s["id"]: s["child_acc"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def layer_metrics(spans, acc, caches, passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes.

    A span whose call raised has no result attributes; it counts as a call.
    """
    n = max(passes, 1)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def ratio(a, b):
        return a / b if b else 0.0

    it = named("generating.iterate_to_limit")
    sweeps = sum(s.get("iterations", 0) for s in it)
    updates = sum(s.get("iterations", 0) * (s.get("k", 0) + 2) for s in it)
    solve_s = total("generating.iterate_to_limit")
    mom = named("embedded.embedded_moments")
    steps = sum(s.get("steps", 0) for s in mom)
    moments_s = total("embedded.embedded_moments")
    cls = named("criteria.classify")
    curves = named("fixedpoints.curve_from_anchor")
    indices = sum(s.get("indices", 0) for s in curves)
    g_in_curves = sum(s.get("model.G_value_calls", 0) for s in curves)
    est = named("montecarlo.estimate_extinction")
    reps = sum(s.get("reps", 0) for s in est)
    mc_s = total("montecarlo.estimate_extinction")
    mains = named("cli.main")
    own = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".")[0]] += own[s["id"]]
    for name, (_, secs) in acc.items():
        layer_self[name.split(".")[0]] += secs
    g_calls, g_s = acc.get("model.G_value", [0, 0.0])
    ev_hits, ev_miss = caches.get("eval_g", (0, 0))
    co_hits, co_miss = caches.get("compiled", (0, 0))

    totals = {
        "generating.solve_calls": len(it),
        "generating.sweeps": sweeps,
        "generating.type_updates": updates,
        "generating.solve_s": solve_s,
        "generating.ladder_calls": len(named("generating.extinction_ladder")),
        "generating.ladder_s": total("generating.extinction_ladder"),
        "generating.nonconverged": sum(not s.get("converged", True) for s in it),
        "embedded.moments_calls": len(mom),
        "embedded.moment_steps": steps,
        "embedded.moments_s": moments_s,
        "embedded.partial_verdict_calls": len(named("embedded.partial_verdict")),
        "embedded.partial_verdict_s": total("embedded.partial_verdict"),
        "embedded.eval_g_calls": len(named("embedded.eval_g")),
        "embedded.eval_g_s": total("embedded.eval_g"),
        "criteria.classify_calls": len(cls),
        "criteria.classify_s": total("criteria.classify"),
        "criteria.global_verdict_s": total("criteria.global_verdict"),
        "criteria.sls_s": total("criteria.sls_verdict"),
        "criteria.sls_levels_scanned": sum(s.get("scanned", 0) for s in named("criteria.sls_verdict")),
        "criteria.spectral_radius_calls": len(named("criteria.spectral_radius")),
        "criteria.spectral_radius_s": total("criteria.spectral_radius"),
        "criteria.agresti_calls": len(named("criteria.agresti_bounds")),
        "criteria.agresti_s": total("criteria.agresti_bounds"),
        "fixedpoints.curve_calls": len(curves),
        "fixedpoints.curve_s": total("fixedpoints.curve_from_anchor"),
        "fixedpoints.curve_indices": indices,
        "fixedpoints.curve_failures": sum(s.get("failed", False) for s in curves),
        "montecarlo.reps": reps,
        "montecarlo.s": mc_s,
        "model.load_calls": len(named("model.load_model")),
        "model.load_s": total("model.load_model"),
        "model.G_value_calls": g_calls,
        "model.G_value_s": g_s,
        "cli.calls": len(mains),
        "cli.exit_nonzero": sum(s.get("exit") not in (0, None) or "error" in s
                                for s in mains),
        "cli.out_bytes": sum(s.get("out_bytes", 0) for s in mains),
    }
    totals.update({f"{layer}.self_s": secs for layer, secs in layer_self.items()})
    out = {k: v / n for k, v in totals.items()}
    out.update({
        "generating.ns_per_type_update": ratio(solve_s * 1e9, updates),
        "generating.compile_cache_hit_ratio": ratio(co_hits, co_hits + co_miss),
        "embedded.us_per_moment_step": ratio(moments_s * 1e6, steps),
        "embedded.eval_g_hit_ratio": ratio(ev_hits, ev_hits + ev_miss),
        "criteria.decided_ratio": ratio(sum(s.get("regime", "Unresolved") != "Unresolved" for s in cls),
                                        len(cls)),
        "fixedpoints.G_calls_per_index": ratio(g_in_curves, indices),
        "montecarlo.us_per_rep": ratio(mc_s * 1e6, reps),
        "montecarlo.censored_ratio": ratio(sum(s.get("censored", 0) for s in est), reps),
    })
    return out
