import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lhbp import (Example2Model, TridiagonalModel, embedded_moments,
                  extinction_ladder, iterate_to_limit)
from lhbp.cli import MAX_GRID_POINTS, _load, _write_csv, main

from conftest import UNNORMALISED_COORDS, product_doc

EX2 = '{"family": "example2", "gamma": %s}'
NAN = float("nan")
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


def test_validate_model_path_is_a_directory(capsys, tmp_path):
    assert main(["validate", "--model", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_validate_binary_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    assert main(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse error:") and "decode" in err


def test_main_reuses_its_parser_without_leaking_values(capsys, model_file):
    import lhbp.cli
    path = model_file(EX2 % "0.0")
    code, rows = run_csv(capsys, ["extinction", "--model", path, "--k", "8",
                                  "--window", "2"])
    assert code == 0 and {r["index"] for r in rows} == {"0", "1"}
    parser = lhbp.cli._PARSER
    # the default window is the 3 types of level 1, not the 2 asked before
    code, rows = run_csv(capsys, ["extinction", "--model", path, "--k", "8"])
    assert code == 0 and {r["index"] for r in rows} == {"0", "1", "2"}
    assert lhbp.cli._PARSER is parser
    assert parser.parse_args(["extinction", "--model", path,
                              "--k", "8"]).window is None


def test_moments_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["moments", "--model",
                                  model_file(EX2 % "0.3"), "--K", "10"])
    assert code == 0
    assert list(rows[0]) == ["k", "mu", "a", "x", "m0", "status"]
    assert rows[-1]["status"] == "blowup(2)"
    assert float(rows[1]["mu"]) == pytest.approx(3.5)


def test_moments_horizon_too_large_to_allocate(capsys, model_file):
    # 10**15 rows of 8 bytes exceed any x86-64 address space, so the
    # allocation fails at once: a usage error, not a traceback
    assert main(["moments", "--model", model_file(EX2 % "0.3"),
                 "--K", str(10 ** 15)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_moments_csv_reparses_exactly(capsys, model_file):
    code, rows = run_csv(capsys, ["moments", "--model",
                                  model_file(TRI % ("0.1", "0.2", "0.8", "1")),
                                  "--K", "300"])
    assert code == 0
    mom = embedded_moments(TridiagonalModel(0.1, 0.2, 0.8), 300)
    for name in ("mu", "a", "x", "m0"):
        assert [float(r[name]) for r in rows] == getattr(mom, name).tolist()


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
    assert doc["certificates"][0]["mu_bound"] is None
    assert doc["certificates"][1]["outcome"] == "Inconclusive"


def test_classify_reports_the_partial_certificate(capsys, model_file):
    code, doc = run_json(capsys, ["classify", "--model",
                                  model_file(TRI % ("0.05", "0.3", "1.2", "1")),
                                  "--K", "5000"])
    assert code == 0
    cert = doc["certificates"][0]
    assert cert["outcome"] == "PartialExtinctionCertain"
    assert cert["k_decided"] == 8
    # mu_k increases to 2, the smaller root of 0.05 M^2 - 0.7 M + 1.2
    assert 2.0 < cert["mu_bound"] < 2.01
    assert cert["x_bound"] == pytest.approx(0.3 + 0.05 * cert["mu_bound"])


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


def csv_reference(header, rows):
    """csv.writer over the rows, each float (np.float64 included) formatted
    with 17 significant digits first."""
    ref = io.StringIO()
    w = csv.writer(ref, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return ref.getvalue()


def test_write_csv_matches_csv_module(tmp_path, capsys):
    # every float, np.float64 included, as 17 significant digits; anything
    # else as str; the same bytes as csv.writer over the formatted fields
    header = ("k", "mu", "a", "x", "m0", "status")
    rows = [(0, 0.1, np.float64(0.1), NAN, np.float64(NAN), "ok"),
            (np.int64(7), -0.0, np.float64(-0.0), math.inf, -math.inf, ""),
            (True, np.float64(math.inf), np.float64(-math.inf), 1e-320,
             np.float64(2.0 / 3.0), "blowup(2)"),
            (2 ** 70, False, np.bool_(True), "", 1.0, "PartialSurvival")]
    ref = csv_reference(header, rows)
    path = tmp_path / "out.csv"
    _write_csv(header, zip(*rows), str(path))
    assert path.read_bytes() == ref.encode()
    _write_csv(header, zip(*rows), None)
    assert capsys.readouterr().out == ref
    # str(np.float64) keeps only the shortest round-trip digits
    assert ref.splitlines()[1] == (
        "0,0.10000000000000001,0.10000000000000001,nan,nan,ok")


# floats whose text is easy to get wrong: signed zeros, NaN, infinities and
# subnormals
TRICKY_FLOATS = (0.0, -0.0, NAN, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072009e-308, 1e-320, 0.1, 1.0 - 2 ** -53)
ANY_FLOATS = st.one_of(st.sampled_from(TRICKY_FLOATS),
                       st.floats(allow_nan=True, allow_infinity=True))


def cycled(values, n):
    """The first n entries of ``values`` repeated."""
    return (values * n)[:n]


@st.composite
def float_columns(draw, n):
    """A float64 array of n rows whose tail repeats one value bit for bit,
    after a head that may end in the tail value's other signed zero.  The
    head repeats a few drawn values, which keeps long columns cheap to draw."""
    head = cycled(draw(st.lists(ANY_FLOATS, min_size=1, max_size=8)),
                  draw(st.integers(0, n)))
    tail = draw(ANY_FLOATS)
    if head and draw(st.booleans()):
        head[-1], tail = draw(st.sampled_from([(-0.0, 0.0), (0.0, -0.0),
                                               (NAN, NAN), (0.0, 5e-324)]))
    column = np.array(head + [tail] * (n - len(head)), dtype=np.float64)
    # a strided view formats the same as its contiguous copy
    return np.repeat(column, 2)[::2] if draw(st.booleans()) else column


OTHER_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.just(""),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), ANY_FLOATS, ANY_FLOATS.map(np.float64))


@st.composite
def tables(draw):
    """Columns of n rows, at least one a float64 array, and at most one more
    row.  Any other column is a list of drawn values, ``range(n)``, or a
    tuple of one drawn value, which the writer gets as ``itertools.repeat``."""
    n = draw(st.sampled_from([0, 1, 2, 3, 300]))
    floats = draw(st.lists(float_columns(n), min_size=1, max_size=3))
    others = draw(st.lists(st.one_of(
        st.lists(OTHER_VALUES, min_size=1, max_size=8).map(
            lambda c: cycled(c, n)),
        st.just(range(n)), OTHER_VALUES.map(lambda v: (v,) * n)), max_size=3))
    columns = draw(st.permutations(floats + others))
    more_rows = draw(st.lists(st.tuples(*[OTHER_VALUES] * len(columns)),
                              max_size=1))
    return columns, more_rows


@settings(max_examples=100, deadline=None)
@given(table=tables())
# a one-column row that is one empty field, which csv.writer quotes: as an
# empty line it would read back as no row
@example(table=([np.zeros(0)], [("",)]))
def test_column_writer_matches_row_writer(table):
    columns, more_rows = table
    header = [f"c{j}" for j in range(len(columns))]
    rows = list(zip(*columns)) + more_rows
    written = [repeat(c[0] if c else "", len(c)) if isinstance(c, tuple)
               else c for c in columns]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_csv(header, written, None, more_rows)
    assert out.getvalue() == csv_reference(header, rows)


def row_writer_moments_csv(mom):
    """The moments table as the row-wise writer it replaced printed it: one
    ``%`` per row, through a format string built once per row type
    signature."""
    n = mom.ok_through + 1
    rows = list(zip(range(n), mom.mu.tolist(), mom.a.tolist(),
                    mom.x[:n].tolist(), mom.m0.tolist(), ["ok"] * n))
    if mom.kind != "ok":
        rows.append((mom.k_star, "", "", mom.x[mom.k_star], "",
                     f"{mom.kind}({mom.k_star})"))
    formats = {}
    lines = [",".join(("k", "mu", "a", "x", "m0", "status"))]
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types)
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


BLOWUP_AT_0 = json.dumps({"family": "explicit", "head": [{"type": 0, "law": {
    "kind": "table", "entries": [{"counts": {"0": 2, "1": 1}, "prob": 1.0}]}}]})


@pytest.mark.parametrize("text,K,last", [
    (TRI % ("0.1", "0.2", "0.8", "1"), 3000, None),
    (TRI % ("0.2", "0.3", "0.4", "1"), 3000, None),
    (TRI % ("0.25", "0.0", "0.25", "1"), 3000, None),
    (EX2 % "0.05", 2000, None),
    (EX2 % "0.1", 2000, None),
    (EX2 % "0.14", 2000, None),
    (TRI % ("0.2", "0.3", "0.4", "1"), 0, None),
    (BLOWUP_AT_0, 10, "0,,,2,,blowup(0)"),
    (TRI % ("0.5", "5e-7", "0.5", "1"), 5000, "blowup(3140)")])
def test_moments_prints_what_the_row_writer_printed(capsys, model_file, text,
                                                    K, last):
    path = model_file(text)
    assert main(["moments", "--model", path, "--K", str(K)]) == 0
    out = capsys.readouterr().out
    assert out == row_writer_moments_csv(embedded_moments(_load(path), K))
    if last is not None:
        assert out.splitlines()[-1].endswith(last)


def test_bounds_csv(capsys, model_file):
    code, rows = run_csv(capsys, ["bounds", "--model", model_file(EX2 % "0.0"),
                                  "--i", "1", "--k", "64"])
    assert code == 0
    big = [r for r in rows if int(r["k"]) >= 8]
    for r in big:
        assert float(r["lower"]) <= float(r["oracle"]) <= float(r["upper"])


def test_bounds_oracle_from_the_warm_chain(capsys, model_file, monkeypatch):
    # levels 1..64 are each solved once, and the oracle column is that
    # solve's q_1, as close to a cold solve of its level as rounding allows
    import lhbp.cli
    import lhbp.criteria
    from lhbp.generating import iterate_levels
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return iterate_to_limit(*args, **kwargs)

    def counting_levels(model, levels, *args, **kwargs):
        calls.extend(np.atleast_1d(levels).tolist())
        return iterate_levels(model, levels, *args, **kwargs)
    for mod in (lhbp.criteria, lhbp.cli):
        for name, fn in (("iterate_to_limit", counting),
                         ("iterate_levels", counting_levels)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    code, rows = run_csv(capsys, ["bounds", "--model",
                                  model_file(EX2 % "0.02"), "--i", "1",
                                  "--k", "64"])
    assert code == 0
    assert sorted(calls) == list(range(1, 65))
    model = Example2Model(0.02)
    for r in rows:
        k = int(r["k"])
        cold = float(iterate_to_limit(model, k, 0.0).vector[1])
        assert abs(float(r["oracle"]) - cold) <= 2.2e-16


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


def test_fixedpoints_where_every_fixed_point_is_one(capsys, model_file):
    # tridiagonal(0.1, 0.2, 0.8, u = 2) has q = qtilde = 1: the curve through
    # the anchor 1 is 1 at every index, also past type 43, whose upward
    # count is thinned by 2^43 so that its pgf at s_44 = 0 is 1 - 9e-14
    code, rows = run_csv(capsys, ["fixedpoints", "--model",
                                  model_file(TRI % ("0.1", "0.2", "0.8", "2")),
                                  "--k", "1024", "--J", "200"])
    assert code == 0
    assert len(rows) == 201
    assert all(float(r["s"]) == 1.0 for r in rows)


def test_fixedpoints_solves_only_the_level_it_prints(capsys, model_file,
                                                    monkeypatch):
    # one q and one qtilde solve at level k, not a ladder of 11 levels
    import lhbp.generating
    from lhbp.generating import iterate_levels
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return iterate_levels(*args, **kwargs)
    # iterate_to_limit solves its one level through iterate_levels
    monkeypatch.setattr(lhbp.generating, "iterate_levels", counting)
    code, rows = run_csv(capsys, ["fixedpoints", "--model",
                                  model_file(EX2 % "0.3"), "--k", "1024",
                                  "--J", "200"])
    assert code == 0
    assert len(rows) == 201
    assert calls == [((1024,), 0.0), (1024, 1.0)]


def test_fixedpoints_rejects_bad_anchor_and_window_before_solving(
        capsys, monkeypatch, model_file):
    # qtilde_0 = 1 on tridiagonal(0.15, 0.25, 0.7): an anchor just above 1
    # sat inside the anchor slack and printed s_0 > 1
    import lhbp.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the ladder ran before the arguments were checked")

    monkeypatch.setattr(lhbp.cli, "extinction_ladder", no_solve)
    path = model_file(TRI % ("0.15", "0.25", "0.7", "1"))
    for anchor in ("1.0000005", "1.5", "-0.5", "nan", "abc"):
        with pytest.raises(SystemExit) as e:
            main(["fixedpoints", "--model", path, "--k", "8",
                  "--anchor", anchor])
        assert e.value.code == 4
        assert "--anchor: must be a probability in [0, 1]" in (
            capsys.readouterr().err)
    assert main(["fixedpoints", "--model", path, "--k", "8",
                 "--J", "-1"]) == 4
    assert capsys.readouterr() == (
        "", "error: curve window J must be >= 0, got -1\n")


@pytest.mark.parametrize("abcu, k, J, message", [
    # the cold level-4096 q solve stops unconverged at q_0 = 0 after 5 steps
    (("0.05", "0.1", "1.2", "1.1"), 4096, 100,
     "level-4096 q solve did not converge"),
    # the top qtilde, started from q, ends unconverged at 1.0
    (("0.23014501142019844", "0.09014781708821724", "1.027718071653748",
      "1.974673414555875"), 256, 84,
     "level-256 qtilde solve did not converge")])
def test_fixedpoints_exits_3_when_its_level_did_not_converge(
        capsys, monkeypatch, model_file, abcu, k, J, message):
    # an unconverged q or qtilde bounds and starts no curve: the command
    # stops before the curve solve, which once read such a vector as a bound
    # and exited 4 with an anchor outside the reach
    import lhbp.fixedpoints

    def no_curve(*args, **kwargs):
        raise AssertionError("the curve solve ran")

    monkeypatch.setattr(lhbp.fixedpoints, "curve_from_anchor", no_curve)
    code = main(["fixedpoints", "--model", model_file(TRI % abcu),
                 "--k", str(k), "--J", str(J)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_simulate_json(capsys, model_file):
    code, doc = run_json(capsys, ["simulate", "--model",
                                  model_file(EX2 % "0.0"), "--k", "1",
                                  "--reps", "500", "--seed", "12"])
    assert code == 0
    assert set(doc) == {"estimate", "half_width", "n", "censored",
                        "unreliable", "seed"}
    assert doc["n"] == 500


def test_descriptions_name_the_emitted_columns_and_keys(capsys, model_file):
    # "CSV columns: a, b (note), c." must be the header, "JSON: a, b." the
    # keys of the document, in order
    import lhbp.cli
    m = ["--model", model_file(EX2 % "0.0")]
    argv = {"extinction": m + ["--k", "4"], "moments": m + ["--K", "5"],
            "bounds": m + ["--i", "1", "--k", "8"],
            "fixedpoints": m + ["--k", "8", "--J", "3"],
            "simulate": m + ["--k", "1", "--reps", "100"],
            "sweep": m + ["--grid", "0:0.5:0.5", "--k", "4", "--workers", "1"],
            "gammastar": ["--K", "50", "--tol-gamma", "0.25"]}
    choices = lhbp.cli._build_parser()._subparsers._group_actions[0].choices
    documented = {}
    for name, sp in choices.items():
        found = re.search(r"(CSV columns|JSON): ([^.;]*)", sp.description or "")
        if found:
            documented[name] = (found.group(1),
                                [re.sub(r"\s*\(.*\)", "", c)
                                 for c in found.group(2).split(", ")])
    assert set(documented) == set(argv)
    for name, (kind, names) in documented.items():
        assert main([name] + argv[name]) == 0, name
        out = capsys.readouterr().out
        emitted = (out.splitlines()[0].split(",") if kind == "CSV columns"
                   else list(json.loads(out)))
        assert names == emitted, name


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


def test_sweep_grid_outside_unit_interval_is_usage_error(capsys, model_file,
                                                         monkeypatch):
    # the grid is a command-line argument: gamma = 1.2 is a usage error,
    # reported before any worker starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    # cli imports the pool class from here when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--model", model_file(EX2 % "0.0"),
              "--grid", "0.9:0.3:1.5", "--k", "16", "--workers", "2"])
    assert e.value.code == 4
    assert "0.9:0.3:1.5" in capsys.readouterr().err


def test_sweep_workers_parallel(capsys, model_file):
    code, rows = run_csv(capsys, ["sweep", "--model", model_file(EX2 % "0.0"),
                                  "--grid", "0:0.5:1", "--k", "16",
                                  "--workers", "2"])
    assert code == 0
    assert len(rows) == 3


def test_sweep_workers_capped_at_grid_size(capsys, model_file, monkeypatch):
    # a fork pool starts every worker at the first submit, so a 3-point grid
    # must not ask for 64; the recording pool maps in process
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    code, rows = run_csv(capsys, ["sweep", "--model", model_file(EX2 % "0.0"),
                                  "--grid", "0:0.5:1", "--k", "16",
                                  "--workers", "64"])
    assert code == 0 and len(rows) == 3
    assert seen == [3]


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


def test_extinction_window_is_what_it_prints(capsys, model_file):
    # the default is the largest window the schedule allows; a larger one
    # is refused rather than cut
    path = model_file(EX2 % "0.3")
    for k, window in (("0", 2), ("1", 3), ("64", 3)):
        code, rows = run_csv(capsys, ["extinction", "--model", path,
                                      "--k", k])
        assert code == 0
        assert {r["index"] for r in rows} == {str(i) for i in range(window)}
        code, explicit = run_csv(capsys, ["extinction", "--model", path,
                                          "--k", k, "--window", str(window)])
        assert code == 0 and explicit == rows
        assert main(["extinction", "--model", path, "--k", k,
                     "--window", str(window + 1)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: window exceeds the smallest "
                                f"truncation size: {window + 1} > {window}\n")


def test_nonconvergence_exit_code(capsys, model_file, monkeypatch):
    import dataclasses

    import lhbp.criteria
    solve = lhbp.criteria.iterate_levels

    def unconverged(*args, **kwargs):
        return [dataclasses.replace(r, converged=False)
                for r in solve(*args, **kwargs)]

    monkeypatch.setattr(lhbp.criteria, "iterate_levels", unconverged)
    code = main(["bounds", "--model", model_file(EX2 % "0.0"),
                 "--i", "1", "--k", "8"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: bounds: level 1 did not converge at boundary 0\n")


def test_bad_size_exit_code(capsys, model_file):
    path = model_file(EX2 % "0.0")
    cases = [
        (["sweep", "--model", path, "--grid", "0:0.1:0.1", "--k", "-1"],
         "truncation levels must be >= 0, got [-1]"),
        (["fixedpoints", "--model", path, "--k", "8", "--J", "-1"],
         "curve window J must be >= 0, got -1"),
        (["simulate", "--model", path, "--k", "-1", "--reps", "100"],
         "truncation level must be >= 0, got -1"),
        (["simulate", "--model", path, "--k", "1", "--reps", "100",
          "--seed", "-1"],
         "seed must lie in 0..2**64-1, got -1"),
        (["simulate", "--model", path, "--k", "1", "--reps", "100",
          "--seed", "99999999999999999999999999"],
         "seed must lie in 0..2**64-1, got 99999999999999999999999999"),
        (["bounds", "--model", path, "--i", "5", "--k", "3"],
         "need at least one level k, and 1 <= i < k for each, got i=5, "
         "levels []"),
    ]
    for argv, message in cases:
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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


def test_newton_breakdown_spares_lower_levels(capsys, model_file):
    # levels 4096 and 1024 of tridiagonal(0.1, 0.3, 1.2), two deeper levels
    # in a row, end unconverged; level 512 starts from neither vector and
    # still converges to qtilde = 1, as it does alone
    model = TridiagonalModel(0.1, 0.3, 1.2)
    low, mid, top = extinction_ladder(model, (512, 1024, 4096),
                                      window=3).qtilde_results
    assert not top.converged and not mid.converged
    assert low.converged and np.all(low.vector == 1.0)
    # level 2048, the top of the default schedule to 2048, converges to
    # qtilde = 1 from its own q, and every level below it follows
    code, rows = run_csv(capsys, ["extinction", "--model",
                                  model_file(TRI % ("0.1", "0.3", "1.2", "1")),
                                  "--k", "2048"])
    assert code == 0
    levels = [r for r in rows if r["kind"] == "level"]
    assert {r["level"] for r in levels} >= {"512", "1024", "2048"}
    assert all(r["qtilde_converged"] == "True" and r["qtilde"] == "1"
               for r in levels)


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
    # bounds takes its oracle from its own chain of solves: no --tol
    with pytest.raises(SystemExit) as e:
        main(["bounds", "--model", "m.json", "--i", "1", "--k", "8",
              "--tol", "1e-12"])
    assert e.value.code == 4
    assert "unrecognized arguments: --tol 1e-12" in capsys.readouterr().err
    # nor would an iteration tolerance of that kind mean anything
    for cmd in ("extinction", "fixedpoints", "sweep"):
        for tol in ("0", "-1", "nan", "abc"):
            with pytest.raises(SystemExit) as e:
                main([cmd, "--model", "m.json", "--tol", tol])
            assert e.value.code == 4
            assert "--tol: must be a positive finite number" in (
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
    assert np.array_equal(g, np.linspace(0.0, 1.0, 101))


@pytest.mark.parametrize("spec", ["0:0.4:1", "0:0.3:1", "0.1:0.25:0.9",
                                  "0:1e-320:1"])
def test_sweep_grid_step_must_divide_the_range(capsys, model_file, spec):
    # a step that does not divide END - START is not replaced by a nearby
    # one (0:0.4:1 used to run gamma 0, 0.5, 1); too fine a step is no
    # traceback either
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--model", model_file(EX2 % "0.0"), "--grid", spec,
              "--k", "4", "--workers", "1"])
    assert e.value.code == 4
    assert "STEP must divide END - START" in capsys.readouterr().err


def test_sweep_grid_with_too_many_points_is_usage_error(capsys, model_file):
    # 10^12 + 1 points once failed inside np.linspace, in argparse and
    # outside main's exit codes: now the count is checked first
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--model", model_file(EX2 % "0.0"), "--grid",
              "0:1e-12:1", "--k", "4", "--workers", "1"])
    assert e.value.code == 4
    assert f"more than the {MAX_GRID_POINTS}" in capsys.readouterr().err
    from lhbp.cli import _parse_grid
    assert len(_parse_grid(f"0:{1 / (MAX_GRID_POINTS - 1)}:1")) == MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_grid(f"0:{1 / MAX_GRID_POINTS}:1")


# the public names of the package, by defining submodule
PUBLIC_NAMES = {
    "model": ["Example2Model", "ExplicitModel", "LHBPModel", "ModelError",
              "TableLaw", "TailModel", "TridiagonalModel", "load_model",
              "product_law", "validate"],
    "generating": ["ComputationError", "ExtinctionLadder", "TruncationResult",
                   "default_schedule", "extinction_ladder",
                   "iterate_to_limit"],
    "embedded": ["EmbeddedMoments", "PartialVerdict", "embedded_moments",
                 "partial_verdict"],
    "criteria": ["Budget", "Classification", "GlobalVerdict",
                 "PartialSurvivalRegimeError", "SLSVerdict", "agresti_bounds",
                 "classify", "global_verdict", "sls_verdict",
                 "tridiagonal_mu_limit"],
    "fixedpoints": ["FixedPointCurve", "RangeError", "curve_from_anchor"],
    "montecarlo": ["SimBatch", "SimConfig", "SimEstimate",
                   "estimate_embedded_moment", "estimate_extinction",
                   "simulate_truncated"],
}

# prints, as JSON, what a fresh interpreter has loaded at each stage
IMPORT_PROBE = """
import importlib, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("lhbp.") or m == "concurrent.futures")

model, out, public = sys.argv[1:4]
import lhbp
state = {"package": loaded(),
         "dir": [n for n in dir(lhbp) if not n.startswith("_")]}
from lhbp.cli import main
state["cli"] = loaded()
state["codes"] = [main(["extinction", "--model", model, "--k", "64",
                        "--out", out]),
                  main(["moments", "--model", model, "--K", "50",
                        "--out", out])]
state["commands"] = loaded()
state["scipy"] = "scipy" in sys.modules
star = {}
exec("from lhbp import *", star)
del star["__builtins__"]
state["star"] = sorted(star)
state["same"] = all(
    star[mod] is sys.modules["lhbp." + mod]
    and all(star[n] is getattr(importlib.import_module("lhbp." + mod), n)
            for n in names)
    for mod, names in json.loads(public).items())
print(json.dumps(state))
"""


def test_extinction_does_not_import_scipy(tmp_path, model_file):
    # numpy is the only declared dependency; scipy would also add about
    # 0.2 s of import time and 26 MiB of memory to every CLI run.  The
    # package loads a submodule on first use: the CLI loads the three most
    # commands use (perfbench's worker reads two of them right after
    # importing it), and extinction and moments load nothing more
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, model_file(EX2 % "0.3"),
         str(tmp_path / "out.csv"), json.dumps(PUBLIC_NAMES)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["package"] == []
    cli = ["lhbp.cli", "lhbp.embedded", "lhbp.generating", "lhbp.model"]
    assert state["cli"] == cli
    assert state["codes"] == [0, 0]
    assert state["commands"] == cli
    assert state["scipy"] is False
    everything = sorted([*PUBLIC_NAMES, *sum(PUBLIC_NAMES.values(), [])])
    assert len(everything) == 45
    assert state["star"] == state["dir"] == everything
    assert state["same"] is True


MODEL_DOCS = st.one_of(
    st.builds(lambda g: {"family": "example2", "gamma": g},
              st.floats(-0.5, 1.5)),
    st.builds(lambda a, b, c, u: {"family": "tridiagonal", "a": a, "b": b,
                                  "c": c, "u": u},
              st.floats(-0.5, 2.5), st.floats(-0.5, 2.5),
              st.floats(-0.5, 2.5), st.floats(0.5, 4.0)))


# model files with a malformed value where a number is due: each is a parse
# error, exit code 2
_HEAD_LAW = {"kind": "table", "entries": [{"counts": {"1": 1}, "prob": 0.5},
                                          {"counts": {}, "prob": 0.5}]}
_HEAD_LAW_1 = {"kind": "table", "entries": [{"counts": {"2": 1}, "prob": 0.5},
                                            {"counts": {}, "prob": 0.5}]}
MALFORMED_DOCS = (
    {"family": "example2", "gamma": "abc"},
    {"family": "tridiagonal", "a": 0.25, "b": 0.25, "c": "0.5x"},
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "table", "entries": [{"counts": {"1": "x"}, "prob": 1.0}]}}]},
    {"family": "explicit", "head": [{"type": "zero", "law": _HEAD_LAW}]},
    {"family": "explicit", "head": []},
    # json.loads reads NaN; each NaN must fail its check
    {"family": "tridiagonal", "a": NAN, "b": 0.25, "c": 0.5},
    {"family": "tridiagonal", "a": 0.25, "b": NAN, "c": 0.5},
    {"family": "tridiagonal", "a": 0.25, "b": 0.25, "c": NAN},
    {"family": "tridiagonal", "a": 0.25, "b": 0.25, "c": 0.5, "u": NAN},
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "product", "coords": {"1": {"0": NAN, "1": 0.5}}}}]},
    # the NaN coordinate sums last, where min() over the sums misses it
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "product", "coords": {"0": {"1": 1.0},
                                      "1": {"0": NAN, "1": 0.5}}}}]},
    # a fractional count is not rounded to a whole child
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "table", "entries": [{"counts": {"1": 1.5}, "prob": 1.0}]}}]},
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "table", "entries": [{"counts": {"1": 0.5}, "prob": 0.5},
                                     {"counts": {"1": 1}, "prob": 0.5}]}}]},
    # nor is a fractional head type or tail bound cut to a whole type
    {"family": "explicit", "head": [{"type": 0, "law": _HEAD_LAW},
                                    {"type": 1.5, "law": _HEAD_LAW_1}]},
    {"family": "explicit", "head": [{"type": 0, "law": _HEAD_LAW},
                                    {"type": 1, "law": _HEAD_LAW_1}],
     "tail_from": 1.7},
    # a whole count too large for c(c - 1) to be a float
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "table", "entries": [{"counts": {"1": 1e300}, "prob": 1.0}]}}]},
    {"family": "explicit", "head": [{"type": 0, "law": {
        "kind": "product", "coords": {"1": {"0": 0.5, "1e300": 0.5}}}}]})


@pytest.mark.parametrize("argv", [["validate"], ["extinction", "--k", "4"],
                                  ["simulate", "--k", "2", "--reps", "100"]])
@pytest.mark.parametrize("doc", MALFORMED_DOCS)
def test_malformed_model_exits_2(capsys, tmp_path, argv, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--model", str(path), "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["validate"], ["extinction", "--k", "4"]])
def test_deeply_nested_model_file_exits_2(capsys, model_file, argv):
    # json's decoder recurses once per level and raises RecursionError
    assert main(argv + ["--model", model_file("[" * 100_000),
                        "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: parse error: ")


@pytest.mark.parametrize("argv", [["validate"], ["extinction", "--k", "64"],
                                  ["simulate", "--k", "4", "--reps", "1000"]])
@pytest.mark.parametrize("coords", UNNORMALISED_COORDS)
def test_unnormalised_product_coordinate_exits_2(capsys, model_file, argv,
                                                  coords):
    path = model_file(product_doc(coords))
    assert main(argv + ["--model", path, "--workers", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: type 1: ")


@st.composite
def head_laws(draw, i, fault):
    """A table or product law of type i with an upward child, broken as
    ``fault`` says: a negative probability, a child above type i + 1, or a
    mass other than 1."""
    n = draw(st.integers(2 if fault == "negative" else 1, 3))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    probs = [w / sum(weights) for w in weights]
    if fault == "negative":
        probs[0], probs[-1] = -0.25, probs[-1] + probs[0] + 0.25
    elif fault == "mass":
        probs = [0.9 * p for p in probs]
    top = i + 2 if fault == "above" else i + 1
    if draw(st.booleans()):
        entries = [{"counts": {str(t): c for t, c in draw(st.dictionaries(
                       st.integers(0, i + 1), st.integers(1, 3),
                       max_size=2)).items()}, "prob": p} for p in probs]
        entries[0]["counts"][str(top)] = draw(st.integers(1, 3))
        return {"kind": "table", "entries": entries}
    types = draw(st.lists(st.integers(0, i), max_size=2, unique=True)) + [top]
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n,
                           unique=True).filter(any))
    return {"kind": "product",
            "coords": {str(t): {str(c): p for c, p in zip(counts, probs)}
                       for t in types}}


@st.composite
def explicit_docs(draw):
    """Explicit models of up to three head laws; the last may be broken."""
    fault = draw(st.sampled_from([None, None, None, "negative", "above",
                                  "mass"]))
    n = draw(st.integers(1, 3))
    return {"family": "explicit",
            "head": [{"type": i, "law": draw(head_laws(
                i, fault if i == n - 1 else None))} for i in range(n)]}


# family models inside their parameter domains, so that most draws compute
FAMILY_DOCS = st.one_of(
    st.builds(lambda g: {"family": "example2", "gamma": g}, st.floats(0, 0.99)),
    st.builds(lambda a, b, c, u: {"family": "tridiagonal", "a": a, "b": b,
                                  "c": c, "u": u},
              st.floats(0, 2), st.floats(0, 2), st.floats(0.01, 2),
              st.floats(1, 3)))

# the size arguments of every subcommand at one drawn size n, which the
# test keeps to a few hundred
SIZED_ARGS = {
    "validate": lambda n: ["--K", n],
    "extinction": lambda n: ["--k", n],
    "moments": lambda n: ["--K", n],
    "classify": lambda n: ["--K", n],
    "bounds": lambda n: ["--i", 1, "--k", n],
    "fixedpoints": lambda n: ["--k", n, "--J", n // 2],
    "simulate": lambda n: ["--k", n, "--reps", n],
    "sweep": lambda n: ["--k", n],
    "gammastar": lambda n: ["--K", n],
}
# sweep grids: the last two are usage errors, refused before the model is
# read, and the last one before its 10^12 + 1 points are allocated
GOOD_GRIDS = ("0:0.5:1", "0.2:0.1:0.4")
BAD_GRIDS = ("0:0.4:1", "0:1e-12:1")
# a model file nested too deep for json's decoder: a parse error, exit 2
DEEP_DOC = "[" * 100_000


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cmd=st.sampled_from(sorted(SIZED_ARGS)),
       K=st.integers(-3, 300),
       doc=st.one_of(MODEL_DOCS, FAMILY_DOCS,
                     st.sampled_from(MALFORMED_DOCS + (DEEP_DOC,))),
       grid=st.sampled_from(GOOD_GRIDS + BAD_GRIDS))
@example(cmd="moments", K=10, doc=MALFORMED_DOCS[0], grid=GOOD_GRIDS[0])
@example(cmd="classify", K=-1, doc=MALFORMED_DOCS[1], grid=GOOD_GRIDS[0])
@example(cmd="moments", K=300, doc=MALFORMED_DOCS[2], grid=GOOD_GRIDS[0])
@example(cmd="classify", K=10, doc=MALFORMED_DOCS[3], grid=GOOD_GRIDS[0])
# inputs that once ended in a traceback: a grid too large to allocate, a
# deeply nested model file and a child count of 1e300
@example(cmd="sweep", K=4, doc={"family": "example2", "gamma": 0.3},
         grid="0:1e-12:1")
@example(cmd="validate", K=64, doc=DEEP_DOC, grid=GOOD_GRIDS[0])
@example(cmd="extinction", K=4, doc=MALFORMED_DOCS[-2], grid=GOOD_GRIDS[0])
def test_decide_commands_exit_with_documented_codes(tmp_path, cmd, K, doc,
                                                    grid):
    # every subcommand, at any size and any parameter draw, ends in a
    # documented exit code, never in a traceback (numpy RuntimeWarnings fail
    # the test as well)
    argv = [cmd, *map(str, SIZED_ARGS[cmd](K)), "--workers", "1",
            "--out", str(tmp_path / "out")]
    if cmd == "sweep":
        argv += ["--grid", grid]
    if cmd != "gammastar":
        path = tmp_path / "model.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += ["--model", str(path)]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 2, 3, 4)
    if cmd == "sweep" and grid in BAD_GRIDS:
        assert code == 4
    elif cmd != "gammastar" and (doc in MALFORMED_DOCS or doc == DEEP_DOC):
        assert code == 2


COMMAND_ARGS = {
    "validate": lambda d: ["--K", d(st.integers(-3, 64))],
    "extinction": lambda d: ["--k", d(st.integers(-3, 64)),
                             "--window", d(st.integers(-1, 10))],
    "bounds": lambda d: ["--i", d(st.integers(-1, 6)),
                         "--k", d(st.integers(-3, 64))],
    "fixedpoints": lambda d: ["--k", d(st.integers(-3, 64)),
                              "--J", d(st.integers(-2, 20))]
    + d(st.sampled_from([[], ["--anchor", "0.5"], ["--anchor", "-0.5"]])),
    "simulate": lambda d: ["--k", d(st.integers(-3, 64)),
                           "--i0", d(st.integers(-1, 5)),
                           "--reps", d(st.integers(50, 500)),
                           "--seed", d(st.integers(-1, 2 ** 64)),
                           "--variant", d(st.sampled_from(["sterile",
                                                           "immortal"]))],
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cmd=st.sampled_from(sorted(COMMAND_ARGS)),
       doc=st.one_of(MODEL_DOCS, FAMILY_DOCS, explicit_docs(),
                     st.sampled_from(MALFORMED_DOCS)),
       data=st.data())
def test_model_commands_exit_with_documented_codes(tmp_path, cmd, doc, data):
    # every model command, on family and explicit models, well formed or
    # not, ends in a documented exit code and never in a traceback
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    args = COMMAND_ARGS[cmd](data.draw)
    argv = [cmd, "--model", str(path), "--workers", "1",
            "--out", str(tmp_path / "out")] + [str(a) for a in args]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 2, 3, 4)
    if doc in MALFORMED_DOCS:
        # argparse rejects an anchor outside [0, 1] before the model is read
        assert code == (4 if "-0.5" in args else 2)
