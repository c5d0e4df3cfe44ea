"""One measured run of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Every job goes through
``lhbp.cli.main`` in this one process.  Before each job the package's
``lru_cache``s are cleared, so each job pays the cold-cache cost that a
separate CLI invocation pays.  Jobs run back to back (a closed loop with one
caller); a pass runs the whole job list, and passes repeat until the time
budget is spent.  A fixed reference kernel is timed between jobs, and
``wall_s`` is the job list's time at the kernel's nominal speed (see
job_times).  Outputs are checked after each pass, outside the timed region.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the reference wall time for ``trace.overhead_ratio``, the traced ones
the per-layer metrics and the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (CHECKS, WARMUP, argv_for, bounds_label_misses,  # noqa: E402
                       digits, job_id, select_jobs, write_models)

# The reference kernel's time at the speed job times are reported at.
REF_KERNEL_S = 0.010

# lru_caches that a fresh CLI process starts without: (module, attribute)
CACHES = {"compiled": ("generating", "_compiled"),
          "eval_g": ("embedded", "_eval_g_cached")}


class Run:
    def __init__(self, workload, seed, tmp):
        import lhbp.cli

        self.cli = lhbp.cli
        self.jobs = select_jobs(workload, seed)
        self.outs = [str(tmp / f"out{i:02d}.txt") for i in range(len(self.jobs))]
        self.argv = [argv_for(job, path, out) for job, path, out in
                     zip(self.jobs, write_models(self.jobs, tmp / "models"), self.outs)]
        refs = json.loads((HERE / "oracle_ref.json").read_text())
        self.refs = [refs.get(job_id(job)) for job in self.jobs]
        self.caches = {}
        for key, (mod, attr) in CACHES.items():
            fn = getattr(sys.modules[f"lhbp.{mod}"], attr, None)
            if fn is not None and hasattr(fn, "cache_clear"):
                self.caches[key] = fn
        self.tracer = Tracer()
        self.passes = []          # dicts: traced, wall, job_s, ref_s
        self.failures = []
        self.errors = []          # oracle errors of every checked output
        self.job_errors = [[] for _ in self.jobs]
        self.attempted = 0
        self.label_misses = {False: 0, True: 0}   # by traced
        self.cache_tally = {"traced": {}, "untraced": {}}
        self.last_info = {}       # cache_info() of each cache after the last job

    def warm_up(self, folder: Path) -> None:
        """Run WARMUP's tiny job for each command of the workload, untimed."""
        cmds = sorted({job["cmd"] for job in self.jobs})
        jobs = [WARMUP[c] for c in cmds]
        for job, path in zip(jobs, write_models(jobs, folder)):
            try:
                self.cli.main(argv_for(job, path, str(folder / "out.txt")))
            except (SystemExit, Exception):  # warm-up output is not checked
                pass
        self._clear_caches({})

    def _clear_caches(self, tally):
        for key, fn in self.caches.items():
            info = fn.cache_info()
            self.last_info[key] = info._asdict()
            hits, misses = tally.get(key, (0, 0))
            tally[key] = (hits + info.hits, misses + info.misses)
            fn.cache_clear()

    def run_pass(self, traced):
        tally = self.cache_tally["traced" if traced else "untraced"]
        n = len(self.passes)
        codes, job_s, ref_s = [], [], []
        if traced:
            missing = self.tracer.install()
            if missing:
                print(f"trace: no longer in lhbp: {', '.join(missing)}",
                      file=sys.stderr)
        t_pass = perf_counter()
        for i, argv in enumerate(self.argv):
            self.tracer.job = f"{n}:{i}"
            self._clear_caches(tally)
            ref_s.append(reference_kernel())
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:  # a traceback is a failed job, not a failed run
                code = traceback.format_exc(limit=3)
            job_s.append(perf_counter() - t0)
            codes.append(code)
        wall = perf_counter() - t_pass
        self._clear_caches(tally)
        ref_s.append(reference_kernel())
        if traced:
            self.tracer.uninstall()
        self.passes.append({"traced": traced, "wall": wall, "job_s": job_s,
                            "ref_s": ref_s})
        self._check(n, codes, traced)

    def _check(self, n, codes, traced):
        for i, (job, code) in enumerate(zip(self.jobs, codes)):
            self.attempted += 1
            problems = []
            if code != 0:
                problems = [f"exit {code}"]
            else:
                try:
                    text = Path(self.outs[i]).read_text()
                    problems, errs = CHECKS[job["cmd"]](job, text, self.refs[i])
                    self.errors += errs
                    self.job_errors[i] += errs
                    if job["cmd"] == "bounds":
                        self.label_misses[traced] += bounds_label_misses(text)
                except Exception as e:  # unreadable output fails the job
                    problems = [f"unreadable output: {type(e).__name__}: {e}"]
            if problems:
                self.failures.append({"pass": n, "job": i, "group": job["group"],
                                      "problems": problems[:3]})
            if os.path.exists(self.outs[i]):
                os.remove(self.outs[i])


# The reference kernel's table: random-order lookups in a dict of a few MB
# feel the shared caches the way the interpreter's own lookups do.
_REF_TABLE = {i: float(i) for i in range(30_000)}
_REF_KEYS = random.Random(0).sample(range(30_000), 20_000)


def reference_kernel() -> float:
    """Seconds of a fixed mix of interpreter and numpy work that lhbp never runs."""
    t0 = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    total = 0.0
    for key in _REF_KEYS:
        total += _REF_TABLE[key]
    a = np.arange(1.0, 4001.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def job_times(passes, raw=False) -> list[float]:
    """Each job's median time over the given passes.

    The host this was built on changes speed by up to 1.5x, both within a
    second and between whole minutes.  So each execution is divided by the
    mean of the kernels timed just before and just after it, and the median
    of these ratios is scaled by REF_KERNEL_S: a job's time at a speed where
    the kernel takes 10 ms.  A change in lhbp moves that figure as much as it
    moves the raw time; a change in the host's speed moves both the job and
    its kernels and cancels.  raw=True gives the plain median seconds, which
    run.py prints beside it.
    """
    def sample(p, i):
        if raw:
            return p["job_s"][i]
        return REF_KERNEL_S * 2.0 * p["job_s"][i] / (p["ref_s"][i] + p["ref_s"][i + 1])

    return [statistics.median(sample(p, i) for p in passes)
            for i in range(len(passes[0]["job_s"]))]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    run = Run(args.workload, args.seed, args.tmp)
    run.warm_up(args.tmp / "warmup")
    t_start = perf_counter()
    while True:
        traced = bool(args.trace) and len(run.passes) % 2 == 1
        run.run_pass(traced)
        kinds = {p["traced"] for p in run.passes}
        enough = kinds == {False, True} if args.trace else True
        if enough and perf_counter() - t_start >= args.seconds:
            break

    untraced = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    job_u = job_times(untraced)
    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "passes": run.passes,
        "jobs": [{"group": j["group"], "job": job_id(j)} for j in run.jobs],
        "wall_s": sum(job_u),
        "job_s": job_u,
        "job_raw_s": job_times(untraced, raw=True),
        "ref_kernel_s": statistics.median(x for p in untraced for x in p["ref_s"]),
        "accuracy_digits": digits(run.errors),
        "job_digits": [digits(e) if e else None for e in run.job_errors],
        "bounds_label_misses": run.label_misses[False] / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": {k: {"hits": v[0], "misses": v[1], "final": run.last_info[k]}
                   for k, v in run.cache_tally["untraced"].items()},
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__},
    }
    if args.trace:
        layers = layer_metrics(run.tracer.spans, run.tracer.acc,
                               run.cache_tally["traced"], len(traced))
        layers["criteria.bounds_label_misses"] = run.label_misses[True] / len(traced)
        layers["trace.overhead_ratio"] = sum(job_times(traced)) / sum(job_u) - 1.0
        layers["failed_share"] = len(run.failures) / run.attempted
        result["layers"] = layers
        if args.spans is not None:
            run.tracer.write(str(args.spans), {
                "workload": args.workload, "seed": args.seed,
                "jobs": result["jobs"], "env": result["env"],
                "caches": result["caches"]})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
