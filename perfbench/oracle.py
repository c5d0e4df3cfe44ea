"""Long-double reference values for the benchmark's checked outputs.

The solver here is independent of ``lhbp``: it reads the same JSON model
documents the CLI reads and runs the Jacobi iteration of the level-k
truncated generating system in survival space ``v = 1 - u`` with
``np.longdouble`` arithmetic.  Every complement ``1 - F_i`` is formed without
subtracting numbers close to 1:

* example2: ``1 - F_i = c_i * t (4 - 6t + 4t^2 - t^3)`` with
  ``t = gamma v_{i-1} + (1 - gamma) v_{i+1}``;
* product and table laws: ``1 - prod f = -expm1(sum log f)`` with
  ``log f`` built from ``log1p(-v)``; each law's weights are normalised to
  sum to exactly 1.

Run as a script to recompute ``oracle_ref.json`` next to this file::

    python3 perfbench/oracle.py            # missing pool jobs (minutes)
    python3 perfbench/oracle.py --check    # only the closed-form cross-checks

The cross-checks are ``q_0^(1) = 49/64`` for example2(0) and the flat
``qtilde_0^(k) = 0.8092389974177`` of example2(0.3) for k = 1000 .. 8000.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

LD = np.longdouble
REF_PATH = Path(__file__).with_name("oracle_ref.json")
# stop once the geometric tail bound delta * rho / (1 - rho) is below this
TAIL_TOL = LD(1e-19)
# a step this small is rounding noise of the long-double sweep itself
ROUNDING_FLOOR = 8 * np.finfo(LD).eps
MAX_SWEEPS = 3_000_000


def schedule(cap: int) -> list[int]:
    """Powers of two up to ``cap``, then ``cap`` itself (the CLI's ladder)."""
    levels, k = [], 1
    while k <= cap:
        levels.append(k)
        k *= 2
    if levels[-1] != cap:
        levels.append(cap)
    return levels


def tridiagonal_mu_limit(a: float, b: float, c: float) -> float:
    """Smaller root of a x^2 - (1 - b) x + c = 0 (the embedded mean limit)."""
    disc = (1.0 - b) ** 2 - 4.0 * a * c
    return 2.0 * c / ((1.0 - b) + math.sqrt(disc))


# ---------------------------------------------------------------------------
# survival-space complements


def _one_minus_pow(v, c):
    """1 - (1 - v)^c for count c >= 0, accurate for small v."""
    if c == 0:
        return np.zeros_like(v)
    with np.errstate(divide="ignore"):
        return -np.expm1(LD(c) * np.log1p(-v))


def _log_pmf_pgf(pmf, v):
    """log f(1 - v) for a finite count pmf [(count, prob), ...].

    Probabilities are normalised to sum to exactly 1, so v = 0 is a fixed
    point and no complement goes negative by rounding of the given weights.
    """
    total = sum(LD(p) for _, p in pmf)
    comp = sum(LD(p) * _one_minus_pow(v, c) for c, p in pmf) / total
    with np.errstate(divide="ignore"):
        return np.log1p(-comp)


def _two_point(mean: float):
    """Counts floor(m) and floor(m) + 1 with mean m, in long double."""
    fl = math.floor(mean)
    fr = LD(mean) - fl
    if fr == 0:
        return [(fl, LD(1))]
    return [(fl, 1 - fr), (fl + 1, fr)]


class _Example2:
    def __init__(self, gamma: float, k: int):
        self.g = LD(gamma)
        j = np.arange(1, k + 1, dtype=LD)
        self.c = (j + 1) / (4 * j)
        self.k = k

    @staticmethod
    def _quartic(t):
        return t * (4 - t * (6 - t * (4 - t)))

    def __call__(self, v, out):
        k, g = self.k, self.g
        out[0] = LD(0.25) * self._quartic(v[1])
        t = g * v[0:k] + (1 - g) * v[2:k + 2]
        out[1:k + 1] = self.c * self._quartic(t)


class _Tridiagonal:
    def __init__(self, a: float, b: float, c: float, u: float, k: int):
        self.k = k
        self.a, self.b = _two_point(a) if a else None, _two_point(b) if b else None
        self.c = _two_point(c)
        scale = []
        for i in range(k + 1):
            if u == 1.0:
                scale.append(1.0)
                continue
            try:
                s = u ** i
            except OverflowError:
                s = math.inf
            scale.append(math.ceil(s) if s < 2 ** 53 else s)
        self.scale = np.array(scale, dtype=LD)
        self.w = np.where(np.isinf(self.scale), LD(0), 1 / self.scale)

    def __call__(self, v, out):
        k = self.k
        vu = v[1:k + 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = -np.expm1(self.scale * np.log1p(-vu))   # 1 - u^S
        z = np.where(self.scale == 1, vu,
                     np.where(vu == 0, LD(0), np.where(vu == 1, LD(1), z)))
        comp_up = self.w * -np.expm1(_log_pmf_pgf(self.c, z))
        with np.errstate(divide="ignore"):
            logf = np.log1p(-comp_up)
        if self.b:
            logf = logf + _log_pmf_pgf(self.b, v[0:k + 1])
        if self.a and k >= 1:
            logf[1:] += _log_pmf_pgf(self.a, v[0:k])
        out[0:k + 1] = -np.expm1(logf)


class _Explicit:
    """Generic table/product laws; types >= T share the shifted type-T law."""

    def __init__(self, doc: dict, k: int):
        rows = sorted(doc["head"], key=lambda r: int(r["type"]))
        laws = [r["law"] for r in rows]
        T = len(laws) - 1
        self.k = k
        self.blocks = []
        for i in range(min(T, k + 1)):
            self.blocks.append((np.array([i]), self._pattern(laws[i], i)))
        if k >= T:
            self.blocks.append((np.arange(T, k + 1), self._pattern(laws[T], T)))

    @staticmethod
    def _pattern(law: dict, owner: int):
        if law["kind"] == "table":
            entries = [(float(e["prob"]),
                        [(int(t) - owner, int(c)) for t, c in e["counts"].items()
                         if int(c)])
                       for e in law["entries"]]
            return ("table", entries)
        coords = [(int(t) - owner,
                   [(int(c), float(p)) for c, p in pmf.items()])
                  for t, pmf in law["coords"].items()]
        return ("product", coords)

    def __call__(self, v, out):
        for idx, (kind, pat) in self.blocks:
            if kind == "table":
                total = sum(LD(p) for p, _ in pat)
                comp = np.zeros(len(idx), dtype=LD)
                for p, counts in pat:
                    logx = np.zeros(len(idx), dtype=LD)
                    with np.errstate(divide="ignore"):
                        for off, c in counts:
                            logx = logx + LD(c) * np.log1p(-v[idx + off])
                    comp += LD(p) * -np.expm1(logx)
                out[idx] = comp / total
            else:
                logf = np.zeros(len(idx), dtype=LD)
                for off, pmf in pat:
                    logf = logf + _log_pmf_pgf(pmf, v[idx + off])
                out[idx] = -np.expm1(logf)


def complement_map(doc: dict, k: int):
    """v -> 1 - F(1 - v) on coordinates 0..k of the level-k truncation."""
    fam = doc["family"]
    if fam == "example2":
        return _Example2(float(doc["gamma"]), k)
    if fam == "tridiagonal":
        return _Tridiagonal(float(doc["a"]), float(doc["b"]), float(doc["c"]),
                            float(doc.get("u", 1.0)), k)
    if fam == "explicit":
        return _Explicit(doc, k)
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Jacobi iteration in survival space


def solve(doc: dict, k: int, s: float, start=None):
    """Survival vector v = 1 - u of the level-k truncation with boundary s.

    Iterates downward from v = 1 (or from ``start``, which must lie above the
    fixed point in v, as a lower level's padded q vector does) and stops when
    the geometric tail bound of the remaining error drops below TAIL_TOL, or
    when a step is down at the rounding floor of long-double arithmetic.
    """
    fmap = complement_map(doc, k)
    v = np.ones(k + 2, dtype=LD) if start is None else np.array(start, dtype=LD)
    v[k + 1] = LD(1) - LD(s)
    new = v.copy()
    prev = None
    for n in range(1, MAX_SWEEPS + 1):
        fmap(v, new)
        delta = np.max(np.abs(new - v))
        if not np.isfinite(delta):
            raise RuntimeError(f"oracle sweep left the unit box: k={k}, doc={doc}")
        v, new = new, v
        scale = max(LD(1e-3), np.max(v[:k + 1]))
        if delta <= ROUNDING_FLOOR * scale:
            return v, n
        if prev is not None and delta < prev:
            rho = delta / prev
            if delta * rho / (1 - rho) <= TAIL_TOL * scale:
                return v, n
        prev = delta
    raise RuntimeError(f"oracle did not converge: k={k}, s={s}, doc={doc}")


def ladder(doc: dict, cap: int, window: int):
    """Survival windows of q and qtilde at every level of schedule(cap)."""
    out, prev = [], None
    for k in schedule(cap):
        start = None
        if prev is not None:
            start = np.ones(k + 2, dtype=LD)
            start[:len(prev) - 1] = prev[:-1]
        vq, _ = solve(doc, k, 0.0, start)
        start_t = vq.copy()
        start_t[k + 1] = 0
        vt, _ = solve(doc, k, 1.0, start_t)
        out.append({"level": k, "vq": vq[:window], "vqt": vt[:window]})
        prev = vq
    return out


def G_values(doc: dict, s: np.ndarray) -> np.ndarray:
    """G_i(s) for i = 0 .. len(s) - 2, evaluated in long double."""
    n = len(s) - 2
    fmap = complement_map(doc, n)
    v = LD(1) - np.asarray(s, dtype=LD)
    out = np.zeros(n + 2, dtype=LD)
    fmap(v, out)
    return LD(1) - out[:n + 1]


# ---------------------------------------------------------------------------
# reference file


def _fmt(x) -> str:
    return np.format_float_scientific(LD(x), precision=21, unique=False)


def compute_job(job: dict) -> dict:
    """Reference record for one pool job (see workloads.POOLS)."""
    doc, cmd = job["model"], job["cmd"]
    if cmd == "extinction":
        rungs = ladder(doc, job["k"], 3)
        return {"levels": [{"level": r["level"],
                            "vq": [_fmt(x) for x in r["vq"]],
                            "vqt": [_fmt(x) for x in r["vqt"]]} for r in rungs]}
    if cmd == "bounds":
        # the bounds of row k are built from embedded means mu_i .. mu_{k-1},
        # so they bound q_i of the level k-1 truncation; keep both levels
        rows = []
        for k in schedule(job["k"]):
            if k > job["i"]:
                vq, _ = solve(doc, k, 0.0)
                vq_below, _ = solve(doc, k - 1, 0.0)
                rows.append({"level": k, "vq": _fmt(vq[job["i"]]),
                             "vq_below": _fmt(vq_below[job["i"]])})
        return {"levels": rows}
    if cmd == "fixedpoints":
        top = ladder(doc, job["k"], job["J"] + 2)[-1]
        return {"vq": [_fmt(x) for x in top["vq"]],
                "vqt": [_fmt(x) for x in top["vqt"]]}
    if cmd == "simulate":
        vq, _ = solve(doc, job["k"], 0.0)
        return {"vq": _fmt(vq[job.get("i0", 0)])}
    raise ValueError(f"no reference for {cmd!r}")


def cross_checks() -> list[str]:
    """The oracle's own agreement with closed forms and the ROADMAP anchor."""
    msgs = []
    v, _ = solve({"family": "example2", "gamma": 0.0}, 1, 0.0)
    err = abs(float(LD(1) - v[0]) - 49 / 64)
    if err > 1e-18:
        raise AssertionError(f"q_0^(1) of example2(0) off by {err}")
    msgs.append(f"example2(0): q_0^(1) = 49/64, |err| = {err:.1e}")
    doc = {"family": "example2", "gamma": 0.3}
    for k in (1000, 2000, 4000, 8000):
        vt, n = solve(doc, k, 1.0)
        qt0 = float(LD(1) - vt[0])
        if abs(qt0 - 0.8092389974177) > 5e-14:
            raise AssertionError(f"qtilde_0^({k}) of example2(0.3) = {qt0!r}")
        msgs.append(f"example2(0.3): qtilde_0^({k}) = {qt0:.13f} ({n} sweeps)")
    return msgs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="run the closed-form cross-checks only")
    args = ap.parse_args(argv)
    for line in cross_checks():
        print(line, flush=True)
    if args.check:
        return 0
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import POOLS, job_id

    refs = json.loads(REF_PATH.read_text()) if REF_PATH.exists() else {}
    wanted = {}
    for pool in POOLS.values():
        for group in pool.values():
            for job in group:
                if job["cmd"] in ("extinction", "bounds", "fixedpoints", "simulate"):
                    wanted[job_id(job)] = job
    for jid, job in wanted.items():
        if jid in refs:
            continue
        t0 = time.perf_counter()
        refs[jid] = compute_job(job)
        print(f"{time.perf_counter() - t0:8.1f}s  {jid}", flush=True)
        REF_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    stale = sorted(set(refs) - set(wanted))
    for jid in stale:
        del refs[jid]
    REF_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} reference records in {REF_PATH.name}"
          + (f"; dropped {len(stale)} stale" if stale else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
