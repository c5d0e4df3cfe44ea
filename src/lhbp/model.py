"""Model layer: offspring laws, model families, exact moments, validation.

A lower Hessenberg branching process (LHBP) lives on the type set
{0, 1, 2, ...} and a type-i parent may only bear children of types <= i+1.
Models here are finitely described, either by explicit head laws plus a
shift-repeated tail law, or by a parametric family.

Every offspring law is a ``TableLaw``; a law with independent per-type
counts is expanded into one by ``product_law``.  Every law moment is read
off ``outcomes()``, its positive-probability joint outcomes, which the
generic sweep and Monte Carlo also consume; ``prob_sum()`` and
``support_types()`` check laws read from outside the program.  The
generating function of a law is not computed here: the tests' reference
``pgf(law, u)`` in ``tests/conftest.py`` sums its ``entries``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
# the largest whole number a model document may hold: floats hold every
# whole number up to it, and c(c - 1) of a count up to it is a finite float
MAX_WHOLE = 2 ** 53


class ModelError(ValueError):
    """Raised for parse errors and model invariant violations."""


# ---------------------------------------------------------------------------
# offspring laws


@dataclass(frozen=True)
class TableLaw:
    """Finite offspring distribution given as support vectors with weights.

    ``entries`` is a tuple of ``(counts, prob)`` where ``counts`` is a sorted
    tuple of ``(type, count)`` pairs with strictly positive counts.  Counts
    are whole numbers, as ints or floats; a thinned count may saturate to
    ``inf`` instead of overflowing.  Its outcomes are its positive entries,
    in order.
    """

    entries: tuple[tuple[tuple[tuple[int, float], ...], float], ...]

    def outcomes(self) -> tuple[tuple[tuple[tuple[int, float], ...], float], ...]:
        """``(counts, prob)`` pairs with positive probability."""
        return tuple((counts, p) for counts, p in self.entries if p > 0)

    def prob_sum(self) -> float:
        return sum(p for _, p in self.entries)

    def support_types(self) -> set[int]:
        return {t for counts, _ in self.entries for t, _ in counts}


def product_law(coords) -> TableLaw:
    """Law with independent per-type counts, expanded into a table.

    ``coords`` holds ``(type, pmf)`` pairs in type order, each pmf a tuple of
    ``(count, prob)`` pairs.  The entries are the joint outcomes with the
    coordinates expanded in order; zero counts are left out of ``counts``
    and outcomes of probability 0 are dropped.
    """
    out = [((), 1.0)]
    for t, pmf in coords:
        out = [(counts + ((t, c),) if c else counts, w * p)
               for counts, w in out for c, p in pmf]
    return TableLaw(tuple((counts, p) for counts, p in out if p > 0))


def shift_law(law: TableLaw, delta: int) -> TableLaw:
    """Shift every child type by ``delta`` (tail rule for explicit models)."""
    return TableLaw(tuple((tuple((t + delta, c) for t, c in counts), p)
                          for counts, p in law.entries))


def marginalize_law(law: TableLaw, cut: int) -> TableLaw:
    """Kill all children of type <= cut and relabel type t to t - cut - 1."""
    d = cut + 1
    merged: dict[tuple, float] = {}
    for counts, p in law.entries:
        kept = tuple((t - d, c) for t, c in counts if t > cut)
        merged[kept] = merged.get(kept, 0.0) + p
    return TableLaw(tuple(sorted(merged.items())))


# ---------------------------------------------------------------------------
# moment tables


@dataclass(frozen=True)
class MomentTable:
    """First and second factorial moment rows of types 0..K as whole arrays.

    ``mean[width + d, k]`` is the mean number m_{k,k+d} of type-(k+d)
    children of a type-k parent, for d = -width..1.  ``a[n, k]`` is the
    second factorial moment E[N_i (N_j - [i == j])] of the children of types
    i = k+d1 and j = k+d2, where ``pairs[n]`` = (d1, d2) with d1 <= d2, in
    lexicographic order.  ``p_double_up[k]`` is the probability of at least
    two type-(k+1) children.  A zero entry is an absent one: readers skip it
    rather than multiply by it, and rows hold no child of a negative type.
    """

    width: int
    mean: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    a: np.ndarray
    p_double_up: np.ndarray

    def take(self, rows) -> MomentTable:
        """A table of copies of the given rows (an index array), in order."""
        return MomentTable(self.width, self.mean[:, rows], self.pairs,
                           self.a[:, rows], self.p_double_up[rows])

    def tail(self, d: int) -> MomentTable:
        """Copies of the rows of types d, d+1, ... relabelled t -> t - d,
        with every child of a type below d removed."""
        out = MomentTable(self.width, self.mean[:, d:].copy(), self.pairs,
                          self.a[:, d:].copy(), self.p_double_up[d:].copy())
        w = self.width
        for o in range(1, w + 1):
            out.mean[w - o, :o] = 0.0
        for n, (d1, _) in enumerate(self.pairs):
            out.a[n, :max(-d1, 0)] = 0.0
        return out


def _law_table(laws) -> MomentTable:
    """Moment table whose row i is read off ``laws[i]``, the type-i law, in
    one pass over its ``outcomes()``, summing each statistic in outcome order.

    Children above type i + 1 break the support rule (``validate`` reports
    them) and are left out.
    """
    means = [{} for _ in laws]  # child offset d -> mean
    seconds = [{} for _ in laws]  # offset pair (d1, d2) -> second factorial
    dbl = np.zeros(len(laws))
    for i, law in enumerate(laws):
        mrow, arow = means[i], seconds[i]
        for counts, p in law.outcomes():
            kept = [(t - i, c) for t, c in counts if t <= i + 1]
            for n, (d1, c1) in enumerate(kept):
                mrow[d1] = mrow.get(d1, 0.0) + p * c1
                for d2, c2 in kept[n:]:
                    v = c1 * (c1 - 1) if d1 == d2 else c1 * c2
                    if v:
                        arow[d1, d2] = arow.get((d1, d2), 0.0) + p * v
                if d1 == 1 and c1 >= 2:
                    dbl[i] += p
    width = max([0] + [-d for row in means for d in row])
    pairs = tuple(sorted({pair for row in seconds for pair in row}))
    slot = {pair: n for n, pair in enumerate(pairs)}
    mean = np.zeros((width + 2, len(laws)))
    a = np.zeros((len(pairs), len(laws)))
    for i, (mrow, arow) in enumerate(zip(means, seconds)):
        for d, m in mrow.items():
            mean[width + d, i] = m
        for pair, v in arow.items():
            a[slot[pair], i] = v
    return MomentTable(width, mean, pairs, a, dbl)


# ---------------------------------------------------------------------------
# model families


class LHBPModel:
    """Common interface: laws and exact moment rows.

    ``moment_table(K)`` builds the moment rows of types 0..K in one call; the
    generic route reads them off each law, and concrete families override it
    with closed forms where that route would lose exactness or speed; every
    moment reader takes its rows from that table.  ``tail_band(k0)`` bounds
    the mean rows of all types >= k0 at once, where a family knows such a
    bound in closed form.
    """

    def law(self, i: int) -> TableLaw:
        raise NotImplementedError

    def moment_table(self, K: int) -> MomentTable:
        return _law_table([self.law(i) for i in range(K + 1)])

    def tail_band(self, k0: int) -> tuple[float, ...] | None:
        """Entrywise sup over the types j >= k0 >= 1 of the mean column
        ``mean[:, j]`` of the moment table (same layout: offsets -width..1),
        or None where no bound is known."""
        return None


@dataclass(frozen=True)
class Example2Model(LHBPModel):
    """Parametric family with quartic laws and mean back/forward edges
    gamma*(i+1)/i and (1-gamma)*(i+1)/i.

    The type-0 law is (1/4) s_1^4 + 3/4, which normalises and has mean
    upward edge exactly 1.
    """

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ModelError(f"gamma must lie in [0, 1], got {self.gamma}")

    def law(self, i: int) -> TableLaw:
        g = self.gamma
        if i == 0:
            return TableLaw(((((1, 4),), 0.25), ((), 0.75)))
        c = (i + 1) / (4 * i)
        entries: list[tuple[tuple[tuple[int, int], ...], float]] = [((), (3 * i - 1) / (4 * i))]
        for j in range(5):  # j children of type i-1, 4-j of type i+1
            p = c * math.comb(4, j) * g ** j * (1 - g) ** (4 - j)
            if p == 0.0:
                continue
            counts = []
            if j:
                counts.append((i - 1, j))
            if 4 - j:
                counts.append((i + 1, 4 - j))
            entries.append((tuple(counts), p))
        return TableLaw(tuple(entries))

    def moment_table(self, K: int) -> MomentTable:
        g = self.gamma
        k = np.arange(1, K + 1)
        f = (k + 1) / k
        w = 12 * (k + 1) / (4 * k)
        mean = np.zeros((3, K + 1))  # offsets -1, 0, 1
        mean[0, 1:] = g * f
        mean[2, 0] = 1.0
        mean[2, 1:] = (1 - g) * f
        a = np.zeros((3, K + 1))  # pairs (-1, -1), (-1, 1), (1, 1)
        a[0, 1:] = w * g * g
        a[1, 1:] = w * g * (1 - g)
        a[2, 0] = 3.0
        a[2, 1:] = w * (1 - g) * (1 - g)
        p_upto1 = g ** 4 + 4 * g ** 3 * (1 - g)  # Bin(4, 1-g) in {0, 1}
        dbl = np.empty(K + 1)
        dbl[0] = 0.25
        dbl[1:] = (k + 1) / (4 * k) * (1 - p_upto1)
        return MomentTable(1, mean, ((-1, -1), (-1, 1), (1, 1)), a, dbl)

    def tail_band(self, k0: int) -> tuple[float, ...]:
        f = (k0 + 1) / k0  # falls with k
        return self.gamma * f, 0.0, (1 - self.gamma) * f


def _two_point(mean: float) -> tuple[tuple[int, float], ...]:
    """Two-point count distribution on {floor m, floor m + 1} with mean m."""
    fl = math.floor(mean)
    fr = mean - fl
    if fr == 0.0:
        return ((fl, 1.0),)
    return ((fl, 1.0 - fr), (fl + 1, fr))


def _two_point_f2(mean: float) -> float:
    fl = math.floor(mean)
    fr = mean - fl
    return fl * (fl - 1) * (1 - fr) + (fl + 1) * fl * fr


@dataclass(frozen=True)
class TridiagonalModel(LHBPModel):
    """Tridiagonal mean matrix (a below, b on, c above the diagonal) with
    independent two-point coordinate counts matching each mean exactly.

    ``u`` >= 1 rarefies upward births: with probability 1/ceil(u^i) the
    type-(i+1) count is multiplied by ceil(u^i), otherwise it is zeroed.
    The mean matrix is unchanged; second moments grow like u^i.
    """

    a: float
    b: float
    c: float
    u: float = 1.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        means = (self.a, self.b, self.c)
        if not all(0.0 <= m <= 2.0 for m in means):
            raise ModelError("tridiagonal means a, b, c must lie in [0, 2] "
                             f"(two-point coordinate laws), got {means}")
        if not self.u >= 1.0:
            raise ModelError(f"u must be >= 1, got {self.u}")

    def _scales(self, K: int) -> np.ndarray:
        """The scales ceil(u^i) of types i = 0..K as floats: u^i itself
        from 2^53 on, where every float is whole, and inf from the first
        power that overflows on.  ``float_power`` takes each power with the
        C library's pow, as ``u ** i`` does (``np.power`` may take a vector
        path that differs in the last bit)."""
        if self.u == 1.0:
            return np.ones(K + 1)
        with np.errstate(over="ignore"):
            power = np.float_power(self.u, np.arange(K + 1))
        return np.where(power < 2 ** 53, np.ceil(power), power)

    def _up_pmf(self, i: int) -> tuple[tuple[float, float], ...]:
        base = _two_point(self.c)
        s = float(self._scales(i)[i])
        if s == 1.0:
            return tuple((float(c), p) for c, p in base)
        w = 1.0 / s
        pmf = {0.0: 1.0 - w}
        if w:  # once s saturates to inf the scaled branch has probability 0
            for c, p in base:
                pmf[c * s] = pmf.get(c * s, 0.0) + w * p
        return tuple(sorted(pmf.items()))

    def law(self, i: int) -> TableLaw:
        coords = []
        if i >= 1 and self.a:
            coords.append((i - 1, tuple((float(c), p) for c, p in _two_point(self.a))))
        if self.b:
            coords.append((i, tuple((float(c), p) for c, p in _two_point(self.b))))
        coords.append((i + 1, self._up_pmf(i)))
        return product_law(coords)

    def moment_table(self, K: int) -> MomentTable:
        a, b, c = self.a, self.b, self.c
        mean = np.empty((3, K + 1))  # offsets -1, 0, 1
        mean.T[:] = a, b, c
        # pairs (-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1); distinct
        # coordinates are independent, so their moment is the product of means
        f2c = _two_point_f2(c)
        f2 = np.empty((6, K + 1))
        f2.T[:] = (_two_point_f2(a), a * b, a * c, _two_point_f2(b), b * c, f2c)
        mean[0, 0] = 0.0  # type 0 has no type -1 children
        f2[:3, 0] = 0.0
        up_pmf = _two_point(c)
        dbl = np.full(K + 1, sum(p for n, p in up_pmf if n >= 2), dtype=float)
        if c and self.u > 1.0:
            # a thinned upward count: scale * count with probability 1/scale
            scale = self._scales(K)
            thinned = scale > 1
            with np.errstate(over="ignore"):  # saturates to inf, as scale does
                f2[5, thinned] = scale[thinned] * (f2c + c) - c
            kept = 1.0 / scale[thinned]  # 0 once the scale saturates to inf
            dbl[thinned] = sum(kept * p for n, p in up_pmf if n >= 1)
        return MomentTable(1, mean, ((-1, -1), (-1, 0), (-1, 1), (0, 0),
                                     (0, 1), (1, 1)), f2, dbl)

    def tail_band(self, k0: int) -> tuple[float, ...]:
        return self.a, self.b, self.c  # thinning leaves the means alone


@dataclass(frozen=True)
class ExplicitModel(LHBPModel):
    """Explicit head laws for types 0..T; type i > T reuses the type-T law
    with every child type shifted by i - T."""

    head: tuple[TableLaw, ...]

    @property
    def tail_from(self) -> int:
        return len(self.head) - 1

    def law(self, i: int) -> TableLaw:
        t = self.tail_from
        if i <= t:
            return self.head[i]
        return shift_law(self.head[t], i - t)

    def moment_table(self, K: int) -> MomentTable:
        # the shifted tail law has the rows of its type-T original
        rows = np.minimum(np.arange(K + 1), self.tail_from)
        return _law_table(self.head[:K + 1]).take(rows)

    def tail_band(self, k0: int) -> tuple[float, ...]:
        # rows past the head repeat the type-T row
        mean = _law_table(self.head).mean
        return tuple(mean[:, min(k0, self.tail_from):].max(axis=1).tolist())


@dataclass(frozen=True)
class TailModel(LHBPModel):
    """View of ``base`` below a cut: children of types <= cut are killed and
    the surviving types are relabelled t -> t - cut - 1.

    Used for the strong-local-survival partition; never validated strictly
    (the relabelled process may lose its upward edges, e.g. gamma = 1).
    """

    base: LHBPModel
    cut: int

    def law(self, j: int) -> TableLaw:
        return marginalize_law(self.base.law(self.cut + 1 + j), self.cut)

    def moment_table(self, K: int) -> MomentTable:
        return self.base.moment_table(self.cut + 1 + K).tail(self.cut + 1)


# ---------------------------------------------------------------------------
# parsing and validation


def load_model(text: str, strict: bool = True):
    """Parse a JSON model document.

    With ``strict`` (the default) a vanishing upward mean M_{i,i+1} = 0 is an
    error; family constructors accept their full parameter domain otherwise.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise ModelError(f"parse error: {e}") from e
    if not isinstance(doc, dict) or "family" not in doc:
        raise ModelError("parse error: expected an object with a 'family' key")
    family = doc["family"]
    try:
        if family == "example2":
            model: LHBPModel = Example2Model(gamma=float(doc["gamma"]))
        elif family == "tridiagonal":
            model = TridiagonalModel(a=float(doc["a"]), b=float(doc["b"]),
                                     c=float(doc["c"]),
                                     u=float(doc.get("u", 1.0)))
        elif family == "explicit":
            model = _parse_explicit(doc)
        else:
            raise ModelError(f"unknown family {family!r}")
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(f"parse error: {e}") from e
    if strict:
        _check_upward(model)
    return model


def _parse_law(doc: dict, owner: int) -> TableLaw:
    """The type-``owner`` law of a model document, checked on its input: a
    table's probabilities, or each product coordinate's before the expansion
    (which drops outcomes of probability 0, and whose products can cancel,
    0.5 * 2.0 = 1), are >= 0 and sum to 1; child types and counts are >= 0;
    no child is above type owner + 1."""
    kind = doc.get("kind")
    if kind == "table":
        entries = []
        for e in doc["entries"]:
            counts = [(int(t), _whole(c, "count"))
                      for t, c in e["counts"].items()]
            entries.append((tuple(sorted((t, c) for t, c in counts if c)),
                            float(e["prob"])))
        pmfs = [[p for _, p in entries]]
        children = [tc for counts, _ in entries for tc in counts]
    elif kind == "product":
        coords = sorted((int(t), tuple(sorted(
            (float(_whole(c, "count")), float(p)) for c, p in pmf.items())))
            for t, pmf in doc["coords"].items())
        pmfs = [[p for _, p in pmf] for _, pmf in coords]
        children = [(t, c) for t, pmf in coords for c, _ in pmf]
    else:
        raise ModelError(f"unknown law kind {kind!r}")
    # each test is written so that NaN fails it
    for probs in pmfs:
        if not abs(sum(probs) - 1.0) <= PROB_TOL:
            raise ModelError(
                f"type {owner}: probabilities sum to {sum(probs)!r}, not 1")
        for p in probs:
            if not p >= 0:
                raise ModelError(f"type {owner}: bad probability {p}")
    for t, c in children:
        if not (t >= 0 and c >= 0):
            raise ModelError(f"type {owner}: bad count {c} for type {t}")
    law = TableLaw(tuple(entries)) if kind == "table" else product_law(coords)
    bad = [t for t in law.support_types() if t > owner + 1]
    if bad:
        raise ModelError(
            f"type {owner}: offspring of type {max(bad)} breaks the "
            f"lower Hessenberg support rule (max allowed {owner + 1})")
    return law


def _whole(c, what: str) -> int:
    """A child count, type or type bound of a model document, which must be
    a whole number of magnitude at most MAX_WHOLE."""
    x = float(c)
    if not x.is_integer():
        raise ModelError(f"parse error: {what} {c!r} is not a whole number")
    if abs(x) > MAX_WHOLE:
        raise ModelError(f"parse error: {what} {c!r} exceeds 2^53")
    return int(x)


def _parse_explicit(doc: dict) -> ExplicitModel:
    rows = sorted(doc["head"], key=lambda r: _whole(r["type"], "type"))
    types = [_whole(r["type"], "type") for r in rows]
    if not rows or types != list(range(len(rows))):
        raise ModelError(f"head must cover types 0..T contiguously, got {types}")
    tail_from = _whole(doc.get("tail_from", len(rows) - 1), "tail_from")
    if tail_from != len(rows) - 1:
        raise ModelError("tail_from must equal the largest head type")
    return ExplicitModel(head=tuple(_parse_law(r["law"], i)
                                    for i, r in enumerate(rows)))


def _check_upward(model: LHBPModel, horizon: int = 8) -> None:
    """The standing assumption: every type has a positive upward mean.  A
    family's upward means keep one sign from type 1 on; an explicit model's
    repeat its last head law's."""
    if isinstance(model, ExplicitModel):
        horizon = len(model.head)
    table = model.moment_table(horizon - 1)
    bad = np.flatnonzero(table.mean[-1] <= 0.0)
    if len(bad):
        raise ModelError(f"M_{{i,i+1}} = 0 detected at type {bad[0]}")


@dataclass
class ValidationReport:
    horizon: int
    normalization_residuals: list[tuple[int, float]]
    hessenberg_ok: bool
    hessenberg_violations: list[int]
    upward_ok: bool
    first_upward_violation: int | None
    back_edge_seen: bool
    min_one_minus_p1: float
    divergence_flag: str  # "plausible" | "fails"

    @property
    def passed(self) -> bool:
        return (self.hessenberg_ok and self.upward_ok
                and all(r <= PROB_TOL for _, r in self.normalization_residuals))


def validate(model: LHBPModel, K: int = 64) -> ValidationReport:
    """Check model invariants over types 0..K and report them.

    A model fault is reported, never raised; a negative horizon raises
    ``ValueError``.
    """
    if K < 0:
        raise ValueError(f"validation horizon K must be >= 0, got {K}")
    residuals = []
    hess_bad: list[int] = []
    min_1mp1 = math.inf
    for i in range(K + 1):
        law = model.law(i)
        residuals.append((i, abs(law.prob_sum() - 1.0)))
        if any(t > i + 1 for t in law.support_types()):
            hess_bad.append(i)
        p_one = sum(p for counts, p in law.outcomes()
                    if sum(c for _, c in counts) == 1)
        min_1mp1 = min(min_1mp1, 1.0 - p_one)
    table = model.moment_table(K)
    no_up = np.flatnonzero(table.mean[-1] <= 0.0)
    upward_bad = int(no_up[0]) if len(no_up) else None
    back_edge = bool(np.any(table.mean[:-1] > 0.0))
    return ValidationReport(
        horizon=K,
        normalization_residuals=residuals,
        hessenberg_ok=not hess_bad,
        hessenberg_violations=hess_bad,
        upward_ok=upward_bad is None,
        first_upward_violation=upward_bad,
        back_edge_seen=back_edge,
        min_one_minus_p1=min_1mp1,
        divergence_flag="plausible" if min_1mp1 > 1e-6 else "fails",
    )
