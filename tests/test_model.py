import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhbp import (ExplicitModel, ModelError, TableLaw, load_model,
                  product_law, validate)
from lhbp.model import (PROB_TOL, LHBPModel, TailModel, _law_table,
                        marginalize_law, shift_law)

from conftest import (UNNORMALISED_COORDS, a_entries, all_die_model,
                      e1_model, ex2, mean_row, product_doc, product_tail_model,
                      tridiag, up_only_model, wide_band_model)


def enumerate_support(law):
    """Brute-force enumeration of (offspring vector, prob) pairs."""
    return [(dict(counts), p) for counts, p in law.entries]


def brute_means(law):
    m = {}
    for vec, p in enumerate_support(law):
        for t, c in vec.items():
            m[t] = m.get(t, 0.0) + p * c
    return m


def brute_second(law, t1, t2):
    tot = 0.0
    for vec, p in enumerate_support(law):
        c1, c2 = vec.get(t1, 0), vec.get(t2, 0)
        tot += p * (c1 * (c1 - 1) if t1 == t2 else c1 * c2)
    return tot


def brute_p_total_one(law):
    return sum(p for vec, p in enumerate_support(law)
               if sum(vec.values()) == 1)


def brute_p_at_least_two(law, t):
    return sum(p for vec, p in enumerate_support(law) if vec.get(t, 0) >= 2)


# ---------------------------------------------------------------------------
# loading


def test_load_example2_means():
    m = load_model('{"family": "example2", "gamma": 0.3}')
    row = mean_row(m.moment_table(1), 1)
    assert row[0] == pytest.approx(0.6, abs=1e-15)
    assert row[2] == pytest.approx(1.4, abs=1e-15)


def test_load_normalization_error():
    doc = {"family": "explicit", "tail_from": 0,
           "head": [{"type": 0,
                     "law": {"kind": "table",
                             "entries": [{"counts": {"1": 1}, "prob": 0.9}]}}]}
    with pytest.raises(ModelError, match="sum"):
        load_model(json.dumps(doc))


def test_load_hessenberg_violation():
    doc = {"family": "explicit", "tail_from": 0,
           "head": [{"type": 0,
                     "law": {"kind": "table",
                             "entries": [{"counts": {"2": 1}, "prob": 0.5},
                                         {"counts": {}, "prob": 0.5}]}}]}
    with pytest.raises(ModelError, match="Hessenberg"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("coords", UNNORMALISED_COORDS)
def test_load_product_coordinates_each_sum_to_one(coords):
    with pytest.raises(ModelError, match="^type 1: probabilities sum to"):
        load_model(product_doc(coords))


def test_load_product_checks_coordinates_not_the_expansion():
    # each coordinate is within PROB_TOL of 1, their product is not
    p = 0.2 + 0.8e-12
    coords = {"0": {"0": 0.8, "1": p}, "2": {"0": 0.3, "1": 0.5 + p}}
    law = load_model(product_doc(coords)).law(1)
    assert abs(law.prob_sum() - 1.0) > PROB_TOL
    assert law.support_types() == {0, 2}


def test_load_parse_error():
    with pytest.raises(ModelError, match="parse"):
        load_model("{not json")


def test_load_tridiagonal_mean_rows():
    m = load_model('{"family": "tridiagonal", "a": 0.25, "b": 0.25, "c": 0.5, "u": 1}')
    table = m.moment_table(7)
    assert mean_row(table, 0) == {0: 0.25, 1: 0.5}
    for i in (1, 3, 7):
        assert mean_row(table, i) == {i - 1: 0.25, i: 0.25, i + 1: 0.5}


def test_load_tridiagonal_c_zero_rejected():
    with pytest.raises(ModelError, match="i,i\\+1"):
        load_model('{"family": "tridiagonal", "a": 0.25, "b": 0.25, "c": 0.0}')


def test_load_example2_gamma_one_strictness():
    with pytest.raises(ModelError):
        load_model('{"family": "example2", "gamma": 1.0}')
    m = load_model('{"family": "example2", "gamma": 1.0}', strict=False)
    assert m.gamma == 1.0


def test_tridiagonal_mean_row_5():
    m = tridiag(0.1, 0.2, 0.8)
    assert mean_row(m.moment_table(5), 5) == {4: 0.1, 5: 0.2, 6: 0.8}


# ---------------------------------------------------------------------------
# moments


def test_example2_second_moment_value():
    # G_1 = (1/2)(g s_0 + (1-g) s_2)^4 + 1/2 has d2/ds0^2 = 6 g^2 at s = 1
    m = ex2(0.3)
    assert a_entries(m.moment_table(1), 1)[(0, 0)] == pytest.approx(0.54, abs=1e-15)
    assert brute_second(m.law(1), 0, 0) == pytest.approx(0.54, abs=1e-15)


def test_example2_p1_zero():
    # total offspring is 0 or 4, so P(total = 1) vanishes at every type
    m = ex2(0.3)
    for k in range(6):
        assert brute_p_total_one(m.law(k)) == 0.0
    assert validate(m, K=5).min_one_minus_p1 == 1.0


@pytest.mark.parametrize("model", [e1_model(), product_tail_model(),
                                   wide_band_model(),
                                   tridiag(0.1, 0.2, 0.8, u=2.0)])
def test_validate_min_one_minus_p1_matches_brute_force(model):
    want = min(1.0 - brute_p_total_one(model.law(i)) for i in range(9))
    assert validate(model, K=8).min_one_minus_p1 == pytest.approx(
        want, rel=1e-15, abs=0)


def test_moment_tables_match_brute_force():
    models = [ex2(0.0), ex2(0.3), tridiag(0.25, 0.25, 0.5),
              tridiag(0.1, 0.2, 0.8, u=2.0)]
    for model in models:
        table = model.moment_table(7)
        for i in range(8):
            law = model.law(i)
            bm = brute_means(law)
            row = mean_row(table, i)
            for t in set(bm) | set(row):
                assert row.get(t, 0.0) == pytest.approx(bm.get(t, 0.0), abs=1e-12)
            for (t1, t2), v in a_entries(table, i).items():
                assert v >= 0.0
                assert v == pytest.approx(brute_second(law, t1, t2), rel=1e-12, abs=1e-12)


def test_mean_total_offspring_identity():
    # row sums of the mean matrix equal the brute-force mean total offspring
    for model in (ex2(0.2), tridiag(0.3, 0.1, 0.7)):
        table = model.moment_table(6)
        for i in range(7):
            total = sum(p * sum(vec.values())
                        for vec, p in enumerate_support(model.law(i)))
            assert sum(mean_row(table, i).values()) == pytest.approx(total, abs=1e-12)


def test_a_block_symmetric_nonnegative():
    # a table's a_entries hold each unordered pair once, as (t1 <= t2); the
    # dense second-moment block they stand for is symmetric and non-negative
    for model in (ex2(0.4), tridiag(0.1, 0.2, 0.8, u=2.0)):
        table = model.moment_table(5)
        for k in range(6):
            entries = a_entries(table, k)
            assert all(t1 <= t2 for t1, t2 in entries)
            n = max((t2 for _, t2 in entries), default=0) + 1
            A = np.zeros((n, n))
            for (t1, t2), v in entries.items():
                A[t1, t2] = A[t2, t1] = v
            assert np.array_equal(A, A.T)
            assert np.all(A >= 0)


def test_tridiagonal_u_preserves_means():
    base = tridiag(0.1, 0.2, 0.8)
    mod = tridiag(0.1, 0.2, 0.8, u=2.0)
    base_t, mod_t = base.moment_table(11), mod.moment_table(11)
    for i in range(12):
        assert mean_row(base_t, i) == mean_row(mod_t, i)
    # second moment of the upward coordinate grows by the scale factor
    s = 2.0 ** 5
    f2_base = a_entries(base_t, 5).get((6, 6), 0.0)  # zero: mean <= 1 two-point
    assert a_entries(mod_t, 5)[(6, 6)] == pytest.approx(s * (f2_base + 0.8) - 0.8)


@pytest.mark.parametrize("model", [
    ex2(0.0), ex2(0.3), ex2(1.0), tridiag(0.25, 0.25, 0.5),
    tridiag(0.1, 0.2, 0.8, u=2.0), tridiag(0.0, 0.3, 1.6, u=3.0),
    tridiag(0.5, 0.0, 0.5), TailModel(ex2(0.3), 3),
    TailModel(tridiag(0.5, 0.2, 0.5, u=1.3), 2), TailModel(e1_model(), 1)])
def test_family_tables_match_law_tables(model):
    # each closed-form table agrees with the generic one read off the laws
    # (below K = 30, before any thinning scale saturates)
    fam = model.moment_table(30)
    law = LHBPModel.moment_table(model, 30)
    for k in range(31):
        assert mean_row(fam, k) == pytest.approx(mean_row(law, k), abs=1e-12)
        assert a_entries(fam, k) == pytest.approx(a_entries(law, k),
                                                  rel=1e-12, abs=1e-12)
    assert np.allclose(fam.p_double_up, law.p_double_up, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", [wide_band_model(), e1_model(),
                                   product_tail_model(), all_die_model()])
def test_explicit_table_repeats_the_tail_rows(model):
    # the repeated type-T row is exactly what each shifted tail law yields
    fam = model.moment_table(12)
    law = LHBPModel.moment_table(model, 12)
    assert fam.width == law.width and fam.pairs == law.pairs
    for name in ("mean", "a", "p_double_up"):
        assert np.array_equal(getattr(fam, name), getattr(law, name))


@pytest.mark.parametrize("model", [
    ex2(0.0), ex2(0.3), ex2(1.0), tridiag(0.25, 0.25, 0.5),
    tridiag(0.1, 0.2, 0.8, u=2.0), wide_band_model(), e1_model(),
    product_tail_model(), up_only_model(), all_die_model()])
def test_tail_band_is_the_sup_of_later_mean_columns(model):
    # the band bounds every column from type k0 on and is attained by one
    mean = model.moment_table(60).mean
    for k0 in (1, 2, 3, 7, 30):
        band = np.array(model.tail_band(k0))
        assert band.shape == (mean.shape[0],)
        assert np.all(mean[:, k0:] <= band[:, None])
        assert np.array_equal(mean[:, k0:].max(axis=1), band)


def test_tail_band_absent_without_a_closed_form():
    assert TailModel(ex2(0.3), 2).tail_band(1) is None


def test_table_rows_hold_no_negative_types():
    for model in (ex2(0.3), tridiag(0.1, 0.2, 0.8), wide_band_model(),
                  TailModel(wide_band_model(), 1)):
        table = model.moment_table(6)
        for k in range(7):
            assert min(mean_row(table, k), default=0) >= 0
            assert all(i >= 0 for i, _ in a_entries(table, k))


def test_scale_vector_matches_scalar_scale():
    # the whole-array scales equal the scalar ones bit for bit, also past
    # the type where u^i saturates to inf (7448 for u = 1.1, 1024 for 2)
    for u in (1.0, 1.1, 1.5, 2.0, 3.0):
        m = tridiag(0.1, 0.2, 0.8, u=u)
        want = np.array([m._scale(i) for i in range(7601)], dtype=float)
        assert np.array_equal(m._scales(7600), want)
        assert u == 1.0 or np.isinf(want[-1])


def test_tridiagonal_saturated_scale_has_no_nan_count():
    # ceil(2^i) overflows to inf at i = 1024; the scaled branch then has
    # probability 0 and must not leave a 0 * inf count behind
    model = tridiag(0.1, 0.2, 0.8, u=2.0)
    assert all(not np.isnan(c) for counts, _ in model.law(1100).entries
               for _, c in counts)
    assert np.isfinite(model.law(1100).pgf(np.full(1102, 0.5)))


def test_tail_rule_consistency():
    law0 = TableLaw(((((1, 1),), 0.6), ((), 0.4)))
    law1 = TableLaw(((((0, 1),), 0.15), (((2, 2),), 0.3), ((), 0.55)))
    m = ExplicitModel(head=(law0, law1))
    table = m.moment_table(9)
    for i, j in itertools.product((2, 5, 9), repeat=2):
        ri = mean_row(table, i)
        rj = mean_row(table, j)
        assert {t - i: v for t, v in ri.items()} == {t - j: v for t, v in rj.items()}


def test_explicit_json_roundtrip_product():
    doc = {"family": "explicit", "tail_from": 1, "bandwidth": 1,
           "head": [
               {"type": 0, "law": {"kind": "table",
                                   "entries": [{"counts": {"1": 1}, "prob": 0.5},
                                               {"counts": {}, "prob": 0.5}]}},
               {"type": 1, "law": {"kind": "product",
                                   "coords": {"0": {"0": 0.8, "1": 0.2},
                                              "2": {"0": 0.5, "1": 0.3, "2": 0.2}}}}]}
    m = load_model(json.dumps(doc))
    assert m.law(1).outcomes() == product_law(
        ((0, ((0.0, 0.8), (1.0, 0.2))),
         (2, ((0.0, 0.5), (1.0, 0.3), (2.0, 0.2))))).outcomes()
    table = m.moment_table(4)
    assert mean_row(table, 1) == pytest.approx({0: 0.2, 2: 0.7})
    assert mean_row(table, 4) == pytest.approx({3: 0.2, 5: 0.7})


# ---------------------------------------------------------------------------
# validation reports


def test_validate_example2_passes():
    rep = validate(ex2(0.3), K=32)
    assert rep.passed
    assert rep.divergence_flag == "plausible"
    assert rep.min_one_minus_p1 == 1.0
    assert rep.back_edge_seen


def test_validate_single_child_chain_fails_divergence():
    # every individual has exactly one child of its own type
    law = TableLaw(((((0, 1),), 1.0),))
    m = ExplicitModel(head=(law,))
    rep = validate(m, K=8)
    assert rep.divergence_flag == "fails"
    assert not rep.upward_ok


def test_validate_all_die():
    rep = validate(all_die_model(), K=4)
    assert not rep.upward_ok
    assert rep.hessenberg_ok


# ---------------------------------------------------------------------------
# law utilities


def test_shift_and_marginalize():
    law = TableLaw(((((0, 1), (2, 2)), 0.3), ((), 0.7)))
    shifted = shift_law(law, 3)
    assert shifted.entries[0][0] == ((3, 1), (5, 2))
    marg = marginalize_law(law, 1)
    assert sorted(marg.entries) == [((), 0.7), (((0, 2),), 0.3)]


def test_table_tail_copies_rows():
    # the tail zeroes the children of cut types in its own arrays, never in
    # the base table's
    base = wide_band_model().moment_table(12)
    before = [x.copy() for x in (base.mean, base.a, base.p_double_up)]
    tail = base.tail(4)
    for got, whole in zip((tail.mean, tail.a, tail.p_double_up),
                          (base.mean, base.a, base.p_double_up)):
        assert not np.shares_memory(got, whole)
        assert got.flags.c_contiguous
    for got, want in zip((base.mean, base.a, base.p_double_up), before):
        assert np.array_equal(got, want)
    assert np.array_equal(tail.mean[:, 4:], base.mean[:, 8:])
    assert not tail.mean[:base.width, 0].any()


def test_tail_model_moments_match_marginal_laws():
    for base in (ex2(0.3), tridiag(0.1, 0.2, 0.8, u=2.0)):
        tail = TailModel(base, 3)
        table = tail.moment_table(3)
        for j in range(4):
            law = tail.law(j)
            assert mean_row(table, j) == pytest.approx(brute_means(law), abs=1e-12)
            for (t1, t2), v in a_entries(table, j).items():
                assert v == pytest.approx(brute_second(law, t1, t2), abs=1e-12)
            assert table.p_double_up[j] == pytest.approx(
                brute_p_at_least_two(law, j + 1), abs=1e-12)


# ---------------------------------------------------------------------------
# property: random table laws have consistent moments and G values


@st.composite
def table_laws(draw, owner=2):
    n = draw(st.integers(1, 4))
    entries = []
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights) / (1.0 - 0.1)  # leave mass for the empty vector
    for w in weights:
        n_types = draw(st.integers(0, 2))
        types = draw(st.lists(st.integers(0, owner + 1), min_size=n_types,
                              max_size=n_types, unique=True))
        counts = tuple(sorted((t, draw(st.integers(1, 3))) for t in types))
        entries.append((counts, w / total))
    entries.append(((), 1.0 - sum(p for _, p in entries)))
    return TableLaw(tuple(entries))


def law_row(law):
    """Row 2 of the law-route moment table of a model whose type-2 law is
    ``law``: its means, second factorial moments (absolute types) and
    P(at least two type-3 children)."""
    m = ExplicitModel(head=(TableLaw(((((1, 1),), 1.0),)),
                            TableLaw(((((2, 1),), 1.0),)), law))
    table = LHBPModel.moment_table(m, 2)
    return m, mean_row(table, 2), a_entries(table, 2), table.p_double_up[2]


@settings(max_examples=30, deadline=None)
@given(table_laws())
def test_law_moment_identities(law):
    m, means, seconds, dbl = law_row(law)
    assert means == pytest.approx(brute_means(law), abs=1e-12)
    for t1, t2 in itertools.combinations_with_replacement(range(4), 2):
        assert seconds.get((t1, t2), 0.0) == pytest.approx(
            brute_second(law, t1, t2), abs=1e-12)
    assert dbl == pytest.approx(brute_p_at_least_two(law, 3), abs=1e-12)
    # G at the all-ones point is the total mass
    assert m.law(2).pgf(np.ones(8)) == pytest.approx(law.prob_sum(), abs=1e-12)


@st.composite
def product_laws(draw, owner=2):
    """Coordinates ``(type, pmf)`` of a normalised product law of type
    ``owner``, in type order."""
    types = draw(st.lists(st.integers(0, owner + 1), min_size=1, max_size=3,
                          unique=True))
    coords = []
    for t in sorted(types):
        counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                               unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(counts),
                                max_size=len(counts)))
        total = sum(weights)
        coords.append((t, tuple((float(c), w / total)
                                for c, w in sorted(zip(counts, weights)))))
    return tuple(coords)


@settings(max_examples=60, deadline=None)
@given(product_laws())
def test_product_law_rows_match_coordinate_formulas(coords):
    # the rows sum over the joint expansion; independence of the coordinates
    # gives the same moments coordinate by coordinate
    _, means, seconds, dbl = law_row(product_law(coords))
    pmfs = dict(coords)
    mu = {t: sum(c * p for c, p in pmf) for t, pmf in pmfs.items()}
    want_means = {t: v for t, v in mu.items() if v}
    want_seconds = {}
    for t1, t2 in itertools.combinations_with_replacement(sorted(pmfs), 2):
        v = (sum(c * (c - 1) * p for c, p in pmfs[t1]) if t1 == t2
             else mu[t1] * mu[t2])
        if v:
            want_seconds[t1, t2] = v
    assert means == pytest.approx(want_means, rel=1e-15, abs=0)
    assert seconds == pytest.approx(want_seconds, rel=1e-15, abs=0)
    assert dbl == pytest.approx(sum(p for c, p in pmfs.get(3, ()) if c >= 2),
                                rel=1e-15, abs=0)


def entry_sum_rows(law, i):
    """Row i of a table law summed over every entry, in entry order: the
    reference that law-route table rows must match bit for bit."""
    means, seconds = {}, {}
    for counts, p in law.entries:
        for n, (t1, c1) in enumerate(counts):
            means[t1] = means.get(t1, 0.0) + p * c1
            for t2, c2 in counts[n:]:
                v = c1 * (c1 - 1) if t1 == t2 else c1 * c2
                if v:
                    seconds[t1, t2] = seconds.get((t1, t2), 0.0) + p * v
    dbl = sum(p for counts, p in law.entries if dict(counts).get(i + 1, 0) >= 2)
    return ({t: m for t, m in means.items() if m and t <= i + 1},
            {k: v for k, v in seconds.items() if v and k[1] <= i + 1}, dbl)


def assert_rows_bit_identical(laws, table):
    for i, law in enumerate(laws):
        want = entry_sum_rows(law, i)
        got = (mean_row(table, i), a_entries(table, i), table.p_double_up[i])
        for g, w in zip(got[:2], want[:2]):
            assert {k: v.hex() for k, v in g.items()} == {
                k: float(v).hex() for k, v in w.items()}
        assert float(got[2]).hex() == float(want[2]).hex()


@settings(max_examples=30, deadline=None)
@given(st.lists(table_laws(), min_size=3, max_size=3))
def test_table_law_rows_bit_identical_to_entry_sums(laws):
    assert_rows_bit_identical(laws, _law_table(laws))


@pytest.mark.parametrize("model", [ex2(0.0), ex2(0.3), ex2(0.77),
                                   wide_band_model(), up_only_model(),
                                   all_die_model()])
def test_table_model_rows_bit_identical_to_entry_sums(model):
    laws = [model.law(i) for i in range(12)]
    assert_rows_bit_identical(laws, LHBPModel.moment_table(model, 11))


@settings(max_examples=200, deadline=None)
@given(product_laws(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_product_law_pgf_is_the_product_of_coordinate_sums(coords, u):
    # the oracle never expands: G(u) = prod_t sum_c p u_t^c.  Both sides add
    # non-negative terms, so their rounding errors stay relative and small
    want = 1.0
    for t, pmf in coords:
        want *= sum(p * u[t] ** c for c, p in pmf)
    assert abs(product_law(coords).pgf(u) - want) <= 16 * math.ulp(want)


def test_product_law_outcomes_are_pinned():
    # the joint expansion in coordinate order, zero counts left out, as the
    # kernels, Monte Carlo and the moment tables read it
    assert e1_model().head[1].outcomes() == (
        ((), 0.24), (((2, 1.0),), 0.5599999999999999),
        (((0, 1.0),), 0.06), (((0, 1.0), (2, 1.0)), 0.13999999999999999))
    # u = 2 thins the type-4 count of a type-3 parent by ceil(2^3) = 8
    assert tridiag(0.1, 0.2, 0.8, u=2.0).law(3).outcomes() == (
        ((), 0.6480000000000001),
        (((4, 8.0),), 0.07200000000000001),
        (((3, 1.0),), 0.16200000000000003),
        (((3, 1.0), (4, 8.0)), 0.018000000000000002),
        (((2, 1.0),), 0.07200000000000002),
        (((2, 1.0), (4, 8.0)), 0.008000000000000002),
        (((2, 1.0), (3, 1.0)), 0.018000000000000006),
        (((2, 1.0), (3, 1.0), (4, 8.0)), 0.0020000000000000005))
