import json
import math

import numpy as np
import pytest

from lhbp import (Example2Model, ExplicitModel, TableLaw, TridiagonalModel,
                  extinction_ladder, iterate_to_limit, product_law)
from lhbp.embedded import BOUNDARY_TOL

LADDER_SCHEDULE = tuple(4 * 2 ** i for i in range(11))  # 4 .. 4096


def mean_row(table, k):
    """Present means of row k of a moment table, keyed by child type."""
    return {k + d: float(m)
            for d, m in zip(range(-table.width, 2), table.mean[:, k]) if m}


def a_entries(table, k):
    """Present second factorial moments of row k of a moment table, keyed by
    the child-type pair (i, j) with i <= j."""
    return {(k + d1, k + d2): float(v)
            for (d1, d2), v in zip(table.pairs, table.a[:, k]) if v}


def pgf(law, u):
    """Generating function of a law at ``u`` (indexed by child type): the
    sum of its entries' probabilities times their products of powers."""
    total = 0.0
    for counts, p in law.entries:
        term = p
        for t, c in counts:
            term *= u[t] ** c
        total += term
    return total


def windows(ladder):
    """(q, qtilde) rows of a ladder's leading ``window`` coordinates, one
    row per level."""
    return tuple(np.array([r.vector[:ladder.window] for r in results])
                 for results in (ladder.q_results, ladder.qtilde_results))


def ex2(gamma):
    return Example2Model(gamma=gamma)


def tridiag(a, b, c, u=1.0):
    return TridiagonalModel(a=a, b=b, c=c, u=u)


def g(model, k, s):
    """g_k(s) of the embedded generating function: coordinate k of the
    converged level-k truncation limit with boundary s."""
    res = iterate_to_limit(model, k, s, tol=1e-13)
    assert res.converged
    return float(res.vector[k])


def product_tail_model():
    """Explicit model whose shift-repeated tail law is a product law:
    perfbench's E3, with q = qtilde < 1."""
    head0 = TableLaw(((((1, 2),), 0.5), ((), 0.5)))
    tail = product_law(((0, ((0.0, 0.25), (1.0, 0.75))),
                        (2, ((0.0, 0.5), (2.0, 0.5)))))
    return ExplicitModel(head=(head0, tail))


def e1_model():
    """perfbench's explicit model E1: a table head law, then a product tail
    law with a Bernoulli(0.2) child one type down and a Bernoulli(0.7)
    child one type up (q = qtilde = 1)."""
    head0 = TableLaw(((((1, 1),), 0.6), ((), 0.4)))
    tail = product_law(((0, ((0.0, 0.8), (1.0, 0.2))),
                        (2, ((0.0, 0.3), (1.0, 0.7)))))
    return ExplicitModel(head=(head0, tail))


def e4_model():
    """perfbench's explicit model E4: a table head law, then a table tail
    law with a count-1 child one type down and one type up (probability
    0.5), or three children one type up (0.25), or none (q = qtilde < 1)."""
    head0 = TableLaw(((((1, 1),), 0.5), ((), 0.5)))
    tail = TableLaw(((((0, 1), (2, 1)), 0.5), ((), 0.25), (((2, 3),), 0.25)))
    return ExplicitModel(head=(head0, tail))


def product_doc(coords):
    """Model document of E1's table head law and a type-1 product law with
    the given coordinates (JSON keys and values)."""
    return json.dumps({"family": "explicit", "head": [
        {"type": 0, "law": {"kind": "table", "entries": [
            {"counts": {"1": 1}, "prob": 0.6}, {"counts": {}, "prob": 0.4}]}},
        {"type": 1, "law": {"kind": "product", "coords": coords}}]})


# product coordinates that do not each sum to 1
UNNORMALISED_COORDS = (
    # coordinate 2 sums to 1.5, and a minimum of the sums would read 1
    {"0": {"0": 0.8, "1": 0.2}, "2": {"0": 0.5, "1": 1.0}},
    # sums 0.5 and 2.0, and the expanded outcomes would sum to 1
    {"0": {"0": 0.25, "1": 0.25}, "2": {"0": 1.0, "1": 1.0}},
)


def wide_band_model():
    """Explicit model whose tail law reaches two types down (bandwidth 2)."""
    head = (TableLaw(((((1, 1),), 0.7), ((), 0.3))),
            TableLaw(((((0, 1), (2, 1)), 0.6), ((), 0.4))),
            TableLaw(((((0, 1), (3, 2)), 0.5), (((1, 1),), 0.2), ((), 0.3))))
    return ExplicitModel(head=head)


def up_only_model():
    """Explicit model whose every child is one type up (bandwidth 0, no
    child of its parent's own type)."""
    return ExplicitModel(head=(TableLaw(((((1, 2),), 0.5), ((), 0.5))),))


def all_die_model():
    """Every individual dies childless; bypasses strict loading on purpose."""
    return ExplicitModel(head=(TableLaw((((), 1.0),)),))


# ---------------------------------------------------------------------------
# reference: the embedded-moment recursions, one row at a time


def _window_prod(mus, lo, hi):
    out = 1.0
    for j in range(lo, hi):
        out *= mus[j]
    return out


def reference_moments(model, K, with_a=True):
    """Dict-driven recursion over one row at a time up to K, with every
    window product recomputed from the means and no row skipped; rows come
    from one moment table.  Returns mu, a, x, m0, log_m0, ok_through, kind
    and k_star, as ``embedded_moments`` computes them."""
    table = model.moment_table(K)
    mus, avals, xvals, log_m0 = [], [], [], []
    kind, k_star = "ok", None
    for k in range(K + 1):
        row = mean_row(table, k)
        x_k = 0.0
        for j, m in row.items():
            if j <= k:
                x_k += m * _window_prod(mus, j, k)
        xvals.append(x_k)
        if abs(x_k - 1.0) <= BOUNDARY_TOL:
            kind, k_star = "boundary", k
            break
        if x_k > 1.0:
            kind, k_star = "blowup", k
            break
        denom = 1.0 - x_k
        mu_k = row.get(k + 1, 0.0) / denom
        if with_a:
            term2 = 0.0
            for (i, j), v in a_entries(table, k).items():
                mi = _window_prod(mus, i, k) * mu_k if i <= k else 1.0
                mj = _window_prod(mus, j, k) * mu_k if j <= k else 1.0
                term2 += mi * mj * v * (2.0 if i != j else 1.0)
            term1 = 0.0
            for i, m in row.items():
                if i > k:
                    continue
                s = 0.0
                for l in range(i, k):
                    tail = _window_prod(mus, l + 1, k) * mu_k
                    s += avals[l] * _window_prod(mus, i, l) * tail * tail
                term1 += m * s
            avals.append((term1 + term2) / denom)
        mus.append(mu_k)
        prev_log = log_m0[-1] if log_m0 else 0.0
        log_m0.append(prev_log + (math.log(mu_k) if mu_k > 0 else -math.inf))
    log_arr = np.array(log_m0)
    with np.errstate(over="ignore"):
        m0 = np.exp(log_arr)
    return (np.array(mus), np.array(avals) if with_a else None,
            np.array(xvals), m0, log_arr, len(mus) - 1, kind, k_star)


@pytest.fixture(scope="session")
def ladder_ex2_03():
    """Shared ladder for gamma = 0.3 up to level 4096 (several tests reuse it)."""
    return extinction_ladder(ex2(0.3), LADDER_SCHEDULE, window=4)


@pytest.fixture(scope="session")
def top_level_03(ladder_ex2_03):
    q = ladder_ex2_03.q_results[-1].vector
    qt = ladder_ex2_03.qtilde_results[-1].vector
    return q, qt
