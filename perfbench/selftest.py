"""The benchmark's own checks.

    python3 perfbench/selftest.py            # about two minutes

1. Every output check rejects a deliberately perturbed output, and accepts
   the unperturbed one; a value moved off the oracle shows in the errors
   that accuracy_digits is taken from.
2. Two traced runs at one seed give identical counts, on every workload.
3. The bypass predictions hold (run.predictions).
4. BENCHMARK.json matches the metric definitions in run.py, and a run
   prints exactly the metrics it lists.
5. In a directory holding only BENCHMARK.json and perfbench/, a run exits
   non-zero without printing a result.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import CHECKS, WORKLOADS, bounds_label_misses, ex2, tri  # noqa: E402

FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        FAILURES.append(name)


# ---------------------------------------------------------------------------
# 1. perturbed outputs


def cli_output(job: dict, folder: Path) -> str:
    from lhbp.cli import main

    from workloads import argv_for, write_models

    [path] = write_models([job], folder / "m")
    out = folder / "out.txt"
    code = main(argv_for(job, path, str(out)))
    assert code == 0, f"{job} exited {code}"
    return out.read_text()


def edit_csv(text: str, row: int, col: str, fn) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][col] = fn(rows[row][col])
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def edit_json(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


def shift(delta):
    return lambda v: repr(float(v) + delta)


def top_rows(text: str) -> tuple[int, dict]:
    """Row number of (top level, index 0) and the row of the level below it."""
    rows = list(csv.DictReader(io.StringIO(text)))
    at0 = [i for i, r in enumerate(rows) if r["kind"] == "level" and r["index"] == "0"]
    return at0[-1], rows[at0[-2]]


def perturbation_cases(folder: Path):
    """(job, output, ref, [(what, perturbed output, expectation)]).

    The expectation is a text the reported problems must contain, or, for a
    value moved off the oracle, the smallest error the check must report.
    """
    ext = {"cmd": "extinction", "model": ex2(0.3), "k": 64}
    text = cli_output(ext, folder)
    top, below = top_rows(text)
    yield ext, text, oracle.compute_job(ext), [
        ("q moved off the oracle", edit_csv(text, top, "q", shift(-1e-2)), 0.009),
        ("q made to decrease along the ladder", edit_csv(
            text, top, "q", lambda v: repr(float(below["q"]) - 1e-9)), "decreases"),
        ("qtilde made to increase along the ladder", edit_csv(
            text, top, "qtilde", lambda v: repr(float(below["qtilde"]) + 1e-9)), "increases"),
        ("q pushed above qtilde", edit_csv(text, top, "q", lambda v: "0.99"), "q <= qtilde"),
        ("converged flag cleared",
         edit_csv(text, top, "q_converged", lambda v: "False"), "converged"),
    ]
    mom = {"cmd": "moments", "model": tri(0.1, 0.2, 0.8), "K": 600}
    text = cli_output(mom, folder)
    yield mom, text, None, [
        ("x_k at 1", edit_csv(text, 5, "x", lambda v: "1.0"), "0 <= x < 1"),
        ("m0 not the product of the means", edit_csv(text, 7, "m0", shift(0.01)), "product"),
        ("mu_K off the closed form", edit_csv(text, 600, "mu", lambda v: repr(float(v) * (1 + 1e-8))),
         "closed form"),
    ]
    cls = {"cmd": "classify", "model": ex2(0.3), "K": 5000,
           "regimes": ["QltQtildeLt1"], "branch": "sls"}
    text = cli_output(cls, folder)
    yield cls, text, None, [
        ("wrong regime", edit_json(text, lambda d: d.update(regime="QeqQtildeEq1")), "regime"),
        ("SLS certificate dropped",
         edit_json(text, lambda d: d.update(certificates=d["certificates"][:1])), "SLS"),
        ("trail without the partial verdict",
         edit_json(text, lambda d: d["certificates"][0].update(test="x")), "partial_verdict"),
    ]
    for rule, branch in (("closed-form-supercritical", "closed-form"),
                         ("raabe-convergent", "raabe")):
        job = dict(cls, model=tri(0.1, 0.2, 0.8) if branch == "closed-form" else ex2(0.1),
                   regimes=["QltQtildeEq1"], branch=branch)
        text = cli_output(job, folder)
        yield job, text, None, [(f"{branch} rule replaced", edit_json(
            text, lambda d: d["certificates"][-1].update(rule="undecided")),
            "Raabe" if branch == "raabe" else branch)]
    gs = {"cmd": "gammastar", "K": 3000}
    text = cli_output(gs, folder)
    yield gs, text, None, [
        ("gamma* moved", edit_json(text, lambda d: d.update(gamma_star=0.2)), "outside"),
        ("bracket widened", edit_json(text, lambda d: d.update(bracket=[0.1, 0.2])), "bracket"),
    ]
    bnd = {"cmd": "bounds", "model": ex2(0.0), "i": 1, "k": 16}
    text = cli_output(bnd, folder)
    yield bnd, text, oracle.compute_job(bnd), [
        ("upper bound below the truth", edit_csv(text, 2, "upper", shift(-0.5)),
         "lower <= oracle <= upper"),
        ("lower bound above the truth", edit_csv(text, 3, "lower", lambda v: "0.99"),
         "lower <= oracle <= upper"),
        ("reported oracle moved off the oracle", edit_csv(text, 1, "oracle", shift(0.01)),
         0.009),
    ]
    fp = {"cmd": "fixedpoints", "model": ex2(0.3), "k": 64, "J": 20}
    text = cli_output(fp, folder)
    yield fp, text, oracle.compute_job(fp), [
        ("curve value nudged", edit_csv(text, 5, "s", shift(1e-6)), "residual"),
        ("curve below q", edit_csv(text, 0, "s", lambda v: "0.1"), "q <= s <= qtilde"),
        ("curve cut short", "\n".join(text.splitlines()[:-1]) + "\n", "indices"),
        ("q window off the oracle", edit_csv(text, 3, "q_window", shift(0.01)), 0.009),
    ]
    sim = {"cmd": "simulate", "model": ex2(0.0), "k": 1, "i0": 0, "reps": 2000, "seed": 5}
    text = cli_output(sim, folder)
    p = 49 / 64    # q_0^(1) of example2(0)
    sigma = (p * (1 - p) / sim["reps"]) ** 0.5
    yield sim, text, oracle.compute_job(sim), [
        ("estimate 4 sigma away", edit_json(
            text, lambda d: d.update(estimate=p + 4 * sigma)), "3 sigma"),
        ("censored replications", edit_json(text, lambda d: d.update(censored=3)), "censored"),
    ]


def check_label_misses() -> None:
    """Row k=2 of example2(0): the bounds bracket q_1^(1) = 1/2, not q_1^(2)."""
    text = "i,k,lower,oracle,upper\n1,2,0,0.5762939453125,0.5\n"
    report("bounds row whose oracle column is outside its bounds is counted",
           bounds_label_misses(text) == 1)


def check_perturbations() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        for job, text, ref, cases in perturbation_cases(Path(tmp)):
            check = CHECKS[job["cmd"]]
            problems, _ = check(job, text, ref)
            report(f"{job['cmd']}: unperturbed output accepted", not problems,
                   "; ".join(problems))
            for what, bad, expect in cases:
                problems, errors = check(job, bad, ref)
                if isinstance(expect, float):
                    worst = max(errors, default=0.0)
                    report(f"{job['cmd']}: {what} measured", worst >= expect,
                           f"largest error {worst:.1e}")
                else:
                    hit = any(expect in p for p in problems)
                    report(f"{job['cmd']}: {what} rejected", hit,
                           "; ".join(problems) or "accepted")


# ---------------------------------------------------------------------------
# 2-5. runs of run.py


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)


def check_runs() -> None:
    spec = run.benchmark_json()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    report("BENCHMARK.json matches run.benchmark_json()", on_disk == spec)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w in WORKLOADS:
        runs = [bench("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
                for _ in range(2)]
        docs = [json.loads(r.stdout.splitlines()[-1]) for r in runs]
        counts = [{k: m["value"] for k, m in d["metrics"].items()
                   if m["unit"] in ("count", "bytes")} for d in docs]
        diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
        report(f"{w}: two traced runs at one seed give identical counts", not diff,
               str(diff) if diff else "")
        report(f"{w}: traced run prints exactly the per_layer metrics",
               list(docs[0]["metrics"]) == layers and docs[0]["correct"])
        values = {k: m["value"] for k, m in docs[0]["metrics"].items()}
        for name, held in run.predictions(w, values).items():
            report(f"bypass prediction {name}", held)
    r = bench("--workload", "decide", "--seed", "3", "--seconds", "1", "--trace", "0")
    doc = json.loads(r.stdout.splitlines()[-1])
    report("untraced run prints exactly the end_to_end metrics",
           list(doc) == ["correct", "attempted", "failed", "metrics"]
           and list(doc["metrics"]) == e2e and doc["correct"])


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = bench("--workload", "decide", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=Path(tmp))
        report("without the program source the run fails without a result",
               r.returncode != 0 and '"correct"' not in r.stdout, r.stderr.strip())


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_perturbations()
    check_label_misses()
    check_bare_directory()
    check_runs()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
