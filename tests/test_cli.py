import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lhbp.cli import main

EX2 = '{"family": "example2", "gamma": %s}'
TRI = '{"family": "tridiagonal", "a": %s, "b": %s, "c": %s, "u": %s}'


@pytest.fixture
def model_file(tmp_path):
    def write(text):
        p = tmp_path / "model.json"
        p.write_text(text)
        return str(p)
    return write


def run_csv(capsys, argv):
    code = main(argv)
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    return code, rows


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_validate_ok_and_failing(capsys, model_file):
    code, doc = run_json(capsys, ["validate", "--model", model_file(EX2 % "0.3")])
    assert code == 0
    assert doc["passed"] is True
    code, doc = run_json(capsys, ["validate", "--model",
                                  model_file(EX2 % "1.0")])
    assert code == 2
    assert doc["upward_ok"] is False
    assert main(["validate", "--model", model_file(EX2 % "0.3"),
                 "--K", "-1"]) == 4
    assert capsys.readouterr().err == (
        "error: validation horizon K must be >= 0, got -1\n")


def test_validate_missing_file(capsys):
    assert main(["validate", "--model", "/nonexistent/model.json"]) == 2


def test_moments_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["moments", "--model",
                                  model_file(EX2 % "0.3"), "--K", "10"])
    assert code == 0
    assert list(rows[0]) == ["k", "mu", "a", "x", "m0", "status"]
    assert rows[-1]["status"] == "blowup(2)"
    assert float(rows[1]["mu"]) == pytest.approx(3.5)


def test_classify_json(capsys, model_file):
    code, doc = run_json(capsys, ["classify", "--model",
                                  model_file(EX2 % "0.8")])
    assert code == 0
    assert doc["regime"] == "QeqQtildeLt1"
    assert doc["certificates"][0]["test"] == "partial_verdict"
    # x blows up at k* = 3140: past the 2000-step tail horizon of the strong
    # local survival scan, inside the 5000-step partial horizon
    code, doc = run_json(capsys, ["classify", "--model",
                                  model_file(TRI % ("0.5", "5e-7", "0.5", "1"))])
    assert code == 0
    assert doc["regime"] == "Unresolved"
    assert doc["certificates"][0]["k_decided"] == 3140
    assert doc["certificates"][1]["outcome"] == "Inconclusive"


def test_extinction_csv_and_roundtrip(capsys, model_file):
    code, rows = run_csv(capsys, ["extinction", "--model",
                                  model_file(EX2 % "0.0"), "--k", "32",
                                  "--window", "2"])
    assert code == 0
    levels = [r for r in rows if r["kind"] == "level"]
    q0 = [float(r["q"]) for r in levels if r["index"] == "0"]
    assert q0 == sorted(q0)
    # 17-significant-digit floats reparse identically
    assert all(f"{float(r['q']):.17g}" == r["q"] for r in levels)


def test_bounds_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["bounds", "--model", model_file(EX2 % "0.0"),
                                  "--i", "1", "--k", "64"])
    assert code == 0
    big = [r for r in rows if int(r["k"]) >= 8]
    for r in big:
        assert float(r["lower"]) <= float(r["oracle"]) <= float(r["upper"])


def test_fixedpoints_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["fixedpoints", "--model",
                                  model_file(EX2 % "0.3"), "--k", "128",
                                  "--J", "16"])
    assert code == 0
    assert len(rows) == 17
    s = np.array([float(r["s"]) for r in rows])
    q = np.array([float(r["q_window"]) for r in rows])
    qt = np.array([float(r["qtilde_window"]) for r in rows])
    assert np.all(s >= q - 1e-6) and np.all(s <= qt + 1e-6)


def test_simulate_json(capsys, model_file):
    code, doc = run_json(capsys, ["simulate", "--model",
                                  model_file(EX2 % "0.0"), "--k", "1",
                                  "--reps", "500", "--seed", "12"])
    assert code == 0
    assert set(doc) == {"estimate", "half_width", "n", "censored",
                        "unreliable", "seed"}
    assert doc["n"] == 500


def test_sweep_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["sweep", "--model", model_file(EX2 % "0.3"),
                                  "--grid", "0:0.2:0.8", "--k", "64",
                                  "--workers", "1"])
    assert code == 0
    assert len(rows) == 5
    gammas = [float(r["gamma"]) for r in rows]
    assert gammas == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])
    for r in rows:
        assert float(r["q0"]) <= float(r["qtilde0"]) + 1e-12
    # qtilde = 1 on an initial segment, then strictly below: single crossing
    flags = [abs(float(r["qtilde0"]) - 1.0) < 1e-9 for r in rows]
    assert flags[0] is True and flags == sorted(flags, reverse=True)


def test_sweep_needs_example2(capsys, model_file):
    code = main(["sweep", "--model",
                 model_file(TRI % ("0.25", "0.25", "0.5", "1")),
                 "--grid", "0:0.5:1", "--k", "16"])
    assert code == 4


def test_sweep_workers_parallel(capsys, model_file):
    code, rows = run_csv(capsys, ["sweep", "--model", model_file(EX2 % "0.0"),
                                  "--grid", "0:0.5:1", "--k", "16",
                                  "--workers", "2"])
    assert code == 0
    assert len(rows) == 3


def test_gammastar_small(capsys):
    code, doc = run_json(capsys, ["gammastar", "--K", "2000",
                                  "--tol-gamma", "0.002", "--workers", "1"])
    assert code == 0
    assert abs(doc["gamma_star"] - 0.1625) < 0.003
    # a tolerance below one ulp stops once the bracket cannot shrink
    code, doc = run_json(capsys, ["gammastar", "--K", "10",
                                  "--tol-gamma", "1e-300"])
    assert code == 0
    lo, hi = doc["bracket"]
    assert 0 < hi - lo <= np.spacing(hi)


def test_gammastar_ignores_workers(capsys):
    argv = ["gammastar", "--K", "500", "--tol-gamma", "0.002"]
    assert main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_extinction_level_zero_and_negative(capsys, model_file):
    path = model_file(EX2 % "0.0")
    code, rows = run_csv(capsys, ["extinction", "--model", path, "--k", "0"])
    assert code == 0
    assert {r["level"] for r in rows if r["kind"] == "level"} == {"0"}
    assert main(["extinction", "--model", path, "--k", "-1"]) == 4
    assert capsys.readouterr().err.startswith("error:")
    for window in ("0", "-1"):
        assert main(["extinction", "--model", path, "--k", "8",
                     "--window", window]) == 4
        assert capsys.readouterr().err == (
            f"error: window must be >= 1, got {window}\n")


def test_nonconvergence_exit_code(capsys, model_file, monkeypatch):
    import lhbp.criteria
    from lhbp import ComputationError

    def fail(*args, **kwargs):
        raise ComputationError("eval_g did not converge")

    monkeypatch.setattr(lhbp.criteria, "eval_g", fail)
    code = main(["bounds", "--model", model_file(EX2 % "0.0"),
                 "--i", "1", "--k", "8"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_newton_breakdown_exit_code(capsys, model_file):
    # level 1024 of tridiagonal(0.1, 0.3, 1.2) does not converge (see
    # test_newton_breakdown_flagged); its row says so and the exit code is 3
    code, rows = run_csv(capsys, ["extinction", "--model",
                                  model_file(TRI % ("0.1", "0.3", "1.2", "1")),
                                  "--k", "1024"])
    assert code == 3
    last = [r for r in rows if r["kind"] == "level"][-1]
    assert last["level"] == "1024"
    assert last["qtilde_converged"] == "False"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        main(["extinction", "--k", "8"])  # missing --model
    assert e.value.code == 4
    with pytest.raises(SystemExit) as e:
        main(["classify", "--model", "m.json", "--tol", "1e-6"])  # no --tol
    assert e.value.code == 4
    # the bisection would never reach a tolerance of 0 or below, or nan
    for tol in ("0", "-1", "nan", "abc"):
        with pytest.raises(SystemExit) as e:
            main(["gammastar", "--K", "10", "--tol-gamma", tol])
        assert e.value.code == 4
        assert "--tol-gamma: must be a positive finite number" in (
            capsys.readouterr().err)


def test_out_file(tmp_path, model_file):
    out = tmp_path / "out.csv"
    code = main(["moments", "--model", model_file(EX2 % "0.0"), "--K", "4",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert float(rows[2]["mu"]) == pytest.approx(1.5)


def test_grid_parser_full_range():
    from lhbp.cli import _parse_grid
    g = _parse_grid("0:0.01:1")
    assert len(g) == 101
    assert g[0] == 0.0 and g[-1] == 1.0


def test_extinction_does_not_import_scipy(tmp_path, model_file):
    # numpy is the only declared dependency; scipy would also add about
    # 0.2 s of import time and 26 MiB of memory to every CLI run
    out = tmp_path / "out.csv"
    code = ("import sys, lhbp; from lhbp.cli import main; "
            f"rc = main(['extinction', '--model', {model_file(EX2 % '0.3')!r}, "
            f"'--k', '64', '--out', {str(out)!r}]); "
            "print(rc, 'scipy' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
