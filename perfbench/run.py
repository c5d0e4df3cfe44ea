"""lhbp benchmark: one measured run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from worker import REF_KERNEL_S  # noqa: E402
from workloads import WHY, WORKLOADS, select_jobs, write_models  # noqa: E402

SETUP_PROBES = 6          # fresh interpreters timed before and again after the worker
WORKER_TIMEOUT = 150      # seconds; the whole run must end within 180
RUN_SECONDS = 30

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "ok_share": ("ratio", "higher", 0.05),
    "accuracy_digits": ("digits", "higher", 0.1),
}
HIGHER_IS_BETTER = ("generating.compile_cache_hit_ratio", "embedded.eval_g_hit_ratio",
                    "criteria.decided_ratio")


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    for suffix, unit in (("ns_per_type_update", "ns"), ("us_per_moment_step", "us"),
                         ("us_per_rep", "us"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if "ratio" in name or name.endswith("_share") or name.endswith("per_index"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Span-derived metrics, then those the worker adds from its checks and passes."""
    return list(layer_metrics([], {}, {}, 1)) + [
        "criteria.bounds_label_misses", "trace.overhead_ratio", "failed_share"]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": layer_unit(k),
                       "better": "higher" if k in HIGHER_IS_BETTER else "lower"}
                      for k in per_layer_names()],
    }


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_probes(models: Path, n: int) -> list[float]:
    """Seconds of import lhbp + parsing the models, in n fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(models)]
    return [float(subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                 timeout=60, check=True).stdout.strip())
            for _ in range(n)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=1) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "lhbp" / "cli.py").is_file():
        return fail(f"program source not found under {ROOT / 'src'}")
    if not (HERE / "oracle_ref.json").is_file():
        return fail("perfbench/oracle_ref.json is missing (run perfbench/oracle.py)")

    work = ROOT / ".perfbench"
    tmp = work / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    result_path = tmp / "result.json"
    spans_path = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        jobs = select_jobs(args.workload, args.seed)
        write_models(jobs, tmp / "models")
        setup = []
        if not args.trace:
            setup_probes(tmp / "models", 1)   # writes the bytecode caches; not timed
            setup += setup_probes(tmp / "models", SETUP_PROBES)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(tmp), "--result", str(result_path)]
        if args.trace:
            cmd += ["--spans", str(spans_path)]
        proc = subprocess.run(cmd, env=child_env(), timeout=WORKER_TIMEOUT,
                              capture_output=True, text=True)
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr[-4000:])
            return fail(f"worker exited with {proc.returncode}")
        res = json.loads(result_path.read_text())
        if not args.trace:
            # probes on both sides of the worker sample the machine at two times
            setup += setup_probes(tmp / "models", SETUP_PROBES)
    except subprocess.TimeoutExpired as e:
        return fail(f"timed out: {e}")
    except subprocess.CalledProcessError as e:
        sys.stderr.write((e.stderr or "")[-4000:])
        return fail(f"setup probe failed with {e.returncode}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    job_s, raw_s = res["job_s"], res["job_raw_s"]
    walls = [round(p["wall"], 3) for p in res["passes"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(res['jobs'])} jobs "
          f"per pass, pass walls {walls} s (traced passes: "
          f"{[p['traced'] for p in res['passes']]})")
    print("     job s     raw s  digits  group                    job")
    for j, t, r, d in zip(res["jobs"], job_s, raw_s, res["job_digits"]):
        print(f"  {t:8.4f}  {r:8.4f}  {'' if d is None else f'{d:6.2f}':>6s}  "
              f"{j['group']:24s} {j['job']}")
    print(f"env: {json.dumps(res['env'])}; caches (untraced, summed over jobs): "
          f"{json.dumps(res['caches'])}")
    runs = sum(not p["traced"] for p in res["passes"])
    print(f"job_p50_s {statistics.median(job_s):.4f} over {len(job_s)} jobs, each "
          f"the median of {runs} untraced runs (no higher percentile: fewer "
          f"than 100 jobs)")
    print(f"job s: at the speed where the reference kernel takes "
          f"{REF_KERNEL_S * 1e3:g} ms; in this run it took {res['ref_kernel_s'] * 1e3:.2f} ms "
          f"(median), and the raw medians sum to {sum(raw_s):.4f} s")
    if res["bounds_label_misses"]:
        print(f"bounds rows whose oracle column (level k) lies outside their own "
              f"bounds, per pass: {res['bounds_label_misses']:g}")
    for f in res["failures"]:
        print(f"FAILED pass {f['pass']} job {f['job']} ({f['group']}): "
              f"{'; '.join(map(str, f['problems']))}")

    if args.trace:
        values = res["layers"]
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, pred in predictions(args.workload, values).items():
            print(f"bypass prediction {name}: {'holds' if pred else 'BROKEN'}")
    else:
        print(f"setup probes: {len(setup)}, median {statistics.median(setup):.4f} s, "
              f"range {min(setup):.4f}..{max(setup):.4f} s")
        values = {"setup_s": statistics.median(setup), "wall_s": res["wall_s"],
                  "job_p50_s": statistics.median(job_s),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_share": 1.0 - failed / attempted,
                  "accuracy_digits": res["accuracy_digits"]}
    units = ({k: v[0] for k, v in END_TO_END.items()} if not args.trace
             else {k: layer_unit(k) for k in values})
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def predictions(workload: str, m: dict) -> dict[str, bool]:
    """Layers each workload is designed not to reach (README: bypasses)."""
    if workload == "decide":
        return {"decide: generating.solve_calls == 0": m["generating.solve_calls"] == 0,
                "decide: montecarlo.reps == 0": m["montecarlo.reps"] == 0}
    if workload == "ladder":
        return {"ladder: criteria.classify_calls == 0": m["criteria.classify_calls"] == 0,
                "ladder: fixedpoints.curve_calls == 0": m["fixedpoints.curve_calls"] == 0,
                "ladder: montecarlo.reps == 0": m["montecarlo.reps"] == 0}
    return {}


if __name__ == "__main__":
    raise SystemExit(main())
