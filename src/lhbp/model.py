"""Model layer: offspring laws, model families, exact moments, validation.

A lower Hessenberg branching process (LHBP) lives on the type set
{0, 1, 2, ...} and a type-i parent may only bear children of types <= i+1.
Models here are finitely described, either by explicit head laws plus a
shift-repeated tail law, or by a parametric family.  All first and second
factorial moments are extracted in closed form from the finite-support laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

PROB_TOL = 1e-12


class ModelError(ValueError):
    """Raised for parse errors and model invariant violations."""


# ---------------------------------------------------------------------------
# offspring laws


@dataclass(frozen=True)
class TableLaw:
    """Finite offspring distribution given as support vectors with weights.

    ``entries`` is a tuple of ``(counts, prob)`` where ``counts`` is a sorted
    tuple of ``(type, count)`` pairs with strictly positive counts.
    """

    entries: tuple[tuple[tuple[tuple[int, int], ...], float], ...]

    kind = "table"

    def outcomes(self) -> tuple[tuple[tuple[tuple[int, int], ...], float], ...]:
        """``(counts, prob)`` pairs with positive probability."""
        return tuple((counts, p) for counts, p in self.entries if p > 0)

    def prob_sum(self) -> float:
        return sum(p for _, p in self.entries)

    def support_types(self) -> set[int]:
        return {t for counts, _ in self.entries for t, _ in counts}

    def means(self) -> dict[int, float]:
        m: dict[int, float] = {}
        for counts, p in self.entries:
            for t, c in counts:
                m[t] = m.get(t, 0.0) + p * c
        return m

    def second_factorials(self) -> dict[tuple[int, int], float]:
        """E[N_i (N_j - [i==j])] keyed by canonical (i <= j) pairs."""
        a: dict[tuple[int, int], float] = {}
        for counts, p in self.entries:
            for ii, (t1, c1) in enumerate(counts):
                for t2, c2 in counts[ii:]:
                    v = c1 * (c1 - 1) if t1 == t2 else c1 * c2
                    if v:
                        key = (t1, t2)
                        a[key] = a.get(key, 0.0) + p * v
        return a

    def p_total_one(self) -> float:
        return sum(p for counts, p in self.entries
                   if sum(c for _, c in counts) == 1)

    def p_count_at_least(self, t: int, r: int) -> float:
        return sum(p for counts, p in self.entries
                   if dict(counts).get(t, 0) >= r)


@dataclass(frozen=True)
class ProductLaw:
    """Offspring law with independent per-type counts.

    ``coords`` maps each reachable type to a finite pmf given as a tuple of
    ``(count, prob)`` pairs.  Counts are floats so that astronomically scaled
    counts saturate to ``inf`` instead of overflowing.
    """

    coords: tuple[tuple[int, tuple[tuple[float, float], ...]], ...]

    kind = "product"

    def outcomes(self) -> tuple[tuple[tuple[tuple[int, float], ...], float], ...]:
        """Joint ``(counts, prob)`` pairs with positive probability; zero
        counts are left out of ``counts``.  Coordinates expand in order."""
        out = [((), 1.0)]
        for t, pmf in self.coords:
            out = [(counts + ((t, c),) if c else counts, w * p)
                   for counts, w in out for c, p in pmf]
        return tuple((counts, p) for counts, p in out if p > 0)

    def prob_sum(self) -> float:
        # each coordinate must normalise on its own
        return min((sum(p for _, p in pmf) for _, pmf in self.coords),
                   default=1.0)

    def support_types(self) -> set[int]:
        return {t for t, pmf in self.coords
                if any(c > 0 and p > 0 for c, p in pmf)}

    def means(self) -> dict[int, float]:
        return {t: sum(c * p for c, p in pmf) for t, pmf in self.coords}

    def second_factorials(self) -> dict[tuple[int, int], float]:
        means = self.means()
        a: dict[tuple[int, int], float] = {}
        types = sorted(means)
        for ii, t1 in enumerate(types):
            pmf = dict(self.coords)[t1]
            f2 = sum(c * (c - 1) * p for c, p in pmf)
            if f2:
                a[(t1, t1)] = f2
            for t2 in types[ii + 1:]:
                v = means[t1] * means[t2]
                if v:
                    a[(t1, t2)] = v
        return a

    def p_total_one(self) -> float:
        total = 0.0
        for t, pmf in self.coords:
            p_one = sum(p for c, p in pmf if c == 1)
            if p_one == 0.0:
                continue
            p_rest = 1.0
            for t2, pmf2 in self.coords:
                if t2 != t:
                    p_rest *= sum(p for c, p in pmf2 if c == 0)
            total += p_one * p_rest
        return total

    def p_count_at_least(self, t: int, r: int) -> float:
        for t2, pmf in self.coords:
            if t2 == t:
                return sum(p for c, p in pmf if c >= r)
        return 0.0


OffspringLaw = TableLaw | ProductLaw


def shift_law(law: OffspringLaw, delta: int) -> OffspringLaw:
    """Shift every child type by ``delta`` (tail rule for explicit models)."""
    if isinstance(law, TableLaw):
        return TableLaw(tuple(
            (tuple((t + delta, c) for t, c in counts), p)
            for counts, p in law.entries))
    return ProductLaw(tuple((t + delta, pmf) for t, pmf in law.coords))


def marginalize_law(law: OffspringLaw, cut: int) -> OffspringLaw:
    """Kill all children of type <= cut and relabel type t to t - cut - 1."""
    d = cut + 1
    if isinstance(law, TableLaw):
        merged: dict[tuple, float] = {}
        for counts, p in law.entries:
            kept = tuple((t - d, c) for t, c in counts if t > cut)
            merged[kept] = merged.get(kept, 0.0) + p
        return TableLaw(tuple(sorted(merged.items())))
    return ProductLaw(tuple((t - d, pmf) for t, pmf in law.coords if t > cut))


def _check_law(law: OffspringLaw, owner: int) -> None:
    if abs(law.prob_sum() - 1.0) > PROB_TOL:
        raise ModelError(
            f"type {owner}: probabilities sum to {law.prob_sum()!r}, not 1")
    if isinstance(law, TableLaw):
        for counts, p in law.entries:
            if p < 0:
                raise ModelError(f"type {owner}: negative probability {p}")
            for t, c in counts:
                if t < 0 or c <= 0 or c != int(c):
                    raise ModelError(f"type {owner}: bad count {c} for type {t}")
    else:
        for t, pmf in law.coords:
            if t < 0:
                raise ModelError(f"type {owner}: negative child type {t}")
            for c, p in pmf:
                if p < 0 or c < 0:
                    raise ModelError(f"type {owner}: bad pmf entry ({c}, {p})")
    bad = [t for t in law.support_types() if t > owner + 1]
    if bad:
        raise ModelError(
            f"type {owner}: offspring of type {max(bad)} breaks the "
            f"lower Hessenberg support rule (max allowed {owner + 1})")


# ---------------------------------------------------------------------------
# model families


class LHBPModel:
    """Common interface: laws, exact moment rows, and scalar law statistics.

    Concrete families override the moment accessors with closed forms where
    the generic law-based route would lose exactness.
    """

    family = "abstract"
    bandwidth: int = 0

    def law(self, i: int) -> OffspringLaw:
        raise NotImplementedError

    def mean_row(self, i: int) -> dict[int, float]:
        return {t: m for t, m in self.law(i).means().items() if m != 0.0}

    def a_entries(self, k: int) -> dict[tuple[int, int], float]:
        """Second factorial moments of law k, canonical (i <= j) keys."""
        return self.law(k).second_factorials()

    def p_single(self, i: int) -> float:
        return self.law(i).p_total_one()

    def p_double_up(self, i: int) -> float:
        return self.law(i).p_count_at_least(i + 1, 2)


@dataclass(frozen=True)
class Example2Model(LHBPModel):
    """Parametric family with quartic laws and mean back/forward edges
    gamma*(i+1)/i and (1-gamma)*(i+1)/i.

    The type-0 law is (1/4) s_1^4 + 3/4, which normalises and has mean
    upward edge exactly 1.
    """

    gamma: float

    family = "example2"
    bandwidth = 1

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

    def mean_row(self, i: int) -> dict[int, float]:
        if i == 0:
            return {1: 1.0}
        g = self.gamma
        f = (i + 1) / i
        row = {}
        if g:
            row[i - 1] = g * f
        if g < 1:
            row[i + 1] = (1 - g) * f
        return row

    def a_entries(self, k: int) -> dict[tuple[int, int], float]:
        if k == 0:
            return {(1, 1): 3.0}
        g = self.gamma
        w = 12 * (k + 1) / (4 * k)
        out = {}
        if g:
            out[(k - 1, k - 1)] = w * g * g
        if g and g < 1:
            out[(k - 1, k + 1)] = w * g * (1 - g)
        if g < 1:
            out[(k + 1, k + 1)] = w * (1 - g) * (1 - g)
        return out

    def p_single(self, i: int) -> float:
        return 0.0  # total offspring is 0 or 4

    def p_double_up(self, i: int) -> float:
        if i == 0:
            return 0.25
        g = self.gamma
        c = (i + 1) / (4 * i)
        p_upto1 = g ** 4 + 4 * g ** 3 * (1 - g)  # Bin(4, 1-g) in {0, 1}
        return c * (1 - p_upto1)


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

    family = "tridiagonal"
    bandwidth = 1

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise ModelError("tridiagonal parameters must be non-negative")
        if self.u < 1.0:
            raise ModelError(f"u must be >= 1, got {self.u}")
        if max(self.a, self.b, self.c) > 2.0:
            raise ModelError("two-point coordinate laws require means <= 2")

    def _scale(self, i: int) -> float:
        """ceil(u^i) as a float, saturating to inf."""
        if self.u == 1.0:
            return 1.0
        try:
            v = self.u ** i
        except OverflowError:
            return math.inf
        return math.ceil(v) if v < 2 ** 53 else v

    def _up_pmf(self, i: int) -> tuple[tuple[float, float], ...]:
        base = _two_point(self.c)
        s = self._scale(i)
        if s == 1.0:
            return tuple((float(c), p) for c, p in base)
        w = 1.0 / s
        pmf = {0.0: 1.0 - w}
        if w:  # once s saturates to inf the scaled branch has probability 0
            for c, p in base:
                pmf[c * s] = pmf.get(c * s, 0.0) + w * p
        return tuple(sorted(pmf.items()))

    def law(self, i: int) -> ProductLaw:
        coords = []
        if i >= 1 and self.a:
            coords.append((i - 1, tuple((float(c), p) for c, p in _two_point(self.a))))
        if self.b:
            coords.append((i, tuple((float(c), p) for c, p in _two_point(self.b))))
        coords.append((i + 1, self._up_pmf(i)))
        return ProductLaw(tuple(coords))

    def mean_row(self, i: int) -> dict[int, float]:
        row = {}
        if i >= 1 and self.a:
            row[i - 1] = self.a
        if self.b:
            row[i] = self.b
        if self.c:
            row[i + 1] = self.c
        return row

    def a_entries(self, k: int) -> dict[tuple[int, int], float]:
        s = self._scale(k)
        f2_up = s * (_two_point_f2(self.c) + self.c) - self.c if s > 1 \
            else _two_point_f2(self.c)
        means = self.mean_row(k)
        types = sorted(means)
        f2 = {k - 1: _two_point_f2(self.a), k: _two_point_f2(self.b),
              k + 1: f2_up}
        out = {}
        for ii, t1 in enumerate(types):
            if f2[t1]:
                out[(t1, t1)] = f2[t1]
            for t2 in types[ii + 1:]:
                out[(t1, t2)] = means[t1] * means[t2]
        return out


@dataclass(frozen=True)
class ExplicitModel(LHBPModel):
    """Explicit head laws for types 0..T; type i > T reuses the type-T law
    with every child type shifted by i - T."""

    head: tuple[OffspringLaw, ...]
    declared_bandwidth: int | None = None

    family = "explicit"

    @property
    def tail_from(self) -> int:
        return len(self.head) - 1

    @property
    def bandwidth(self) -> int:  # type: ignore[override]
        if self.declared_bandwidth is not None:
            return self.declared_bandwidth
        w = 0
        for i, law in enumerate(self.head):
            for t in law.support_types():
                w = max(w, i - t)
        return w

    def law(self, i: int) -> OffspringLaw:
        t = self.tail_from
        if i <= t:
            return self.head[i]
        return shift_law(self.head[t], i - t)


@dataclass(frozen=True)
class TailModel(LHBPModel):
    """View of ``base`` below a cut: children of types <= cut are killed and
    the surviving types are relabelled t -> t - cut - 1.

    Used for the strong-local-survival partition; never validated strictly
    (the relabelled process may lose its upward edges, e.g. gamma = 1).
    """

    base: LHBPModel
    cut: int

    family = "tail"

    @property
    def bandwidth(self) -> int:  # type: ignore[override]
        return self.base.bandwidth

    def law(self, j: int) -> OffspringLaw:
        return marginalize_law(self.base.law(self.cut + 1 + j), self.cut)

    def mean_row(self, j: int) -> dict[int, float]:
        d = self.cut + 1
        return {t - d: m for t, m in self.base.mean_row(d + j).items() if t >= d}

    def a_entries(self, k: int) -> dict[tuple[int, int], float]:
        d = self.cut + 1
        return {(i - d, j - d): v
                for (i, j), v in self.base.a_entries(d + k).items()
                if i >= d and j >= d}

    def p_double_up(self, j: int) -> float:
        return self.base.p_double_up(self.cut + 1 + j)


# ---------------------------------------------------------------------------
# parsing and validation


def load_model(text: str, strict: bool = True):
    """Parse a JSON model document.

    With ``strict`` (the default) a vanishing upward mean M_{i,i+1} = 0 is an
    error; family constructors accept their full parameter domain otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
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
    except (KeyError, TypeError) as e:
        raise ModelError(f"parse error: {e}") from e
    if strict:
        _check_upward(model)
    return model


def _parse_law(doc: dict) -> OffspringLaw:
    kind = doc.get("kind")
    if kind == "table":
        entries = []
        for e in doc["entries"]:
            counts = tuple(sorted((int(t), int(c))
                                  for t, c in e["counts"].items() if int(c)))
            entries.append((counts, float(e["prob"])))
        return TableLaw(tuple(entries))
    if kind == "product":
        coords = []
        for t, pmf in doc["coords"].items():
            coords.append((int(t), tuple(sorted(
                (float(int(c)), float(p)) for c, p in pmf.items()))))
        return ProductLaw(tuple(sorted(coords)))
    raise ModelError(f"unknown law kind {kind!r}")


def _parse_explicit(doc: dict) -> ExplicitModel:
    rows = sorted(doc["head"], key=lambda r: int(r["type"]))
    types = [int(r["type"]) for r in rows]
    if types != list(range(len(rows))):
        raise ModelError(f"head must cover types 0..T contiguously, got {types}")
    tail_from = int(doc.get("tail_from", len(rows) - 1))
    if tail_from != len(rows) - 1:
        raise ModelError("tail_from must equal the largest head type")
    head = tuple(_parse_law(r["law"]) for r in rows)
    for i, law in enumerate(head):
        _check_law(law, i)
    return ExplicitModel(head=head,
                         declared_bandwidth=doc.get("bandwidth"))


def _check_upward(model: LHBPModel, horizon: int = 8) -> None:
    """The standing assumption: every type has a positive upward mean."""
    if isinstance(model, Example2Model):
        if model.gamma >= 1.0:
            raise ModelError("M_{i,i+1} = 0: example2 requires gamma < 1")
        return
    if isinstance(model, TridiagonalModel):
        if model.c <= 0.0:
            raise ModelError("M_{i,i+1} = 0: tridiagonal requires c > 0")
        return
    if isinstance(model, ExplicitModel):
        check = range(len(model.head))
    else:
        check = range(horizon)
    for i in check:
        if model.mean_row(i).get(i + 1, 0.0) <= 0.0:
            raise ModelError(f"M_{{i,i+1}} = 0 detected at type {i}")


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
    upward_bad = None
    back_edge = False
    min_1mp1 = math.inf
    for i in range(K + 1):
        law = model.law(i)
        residuals.append((i, abs(law.prob_sum() - 1.0)))
        if any(t > i + 1 for t in law.support_types()):
            hess_bad.append(i)
        row = model.mean_row(i)
        if row.get(i + 1, 0.0) <= 0.0 and upward_bad is None:
            upward_bad = i
        if any(t <= i for t, m in row.items() if m > 0):
            back_edge = True
        min_1mp1 = min(min_1mp1, 1.0 - model.p_single(i))
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


# ---------------------------------------------------------------------------
# scalar generating vector


def G_value(model: LHBPModel, i: int, u) -> float:
    """Evaluate coordinate i of the progeny generating vector at ``u``.

    ``u`` must cover indices 0..i+1.  Generic scalar path, used by curve
    construction, residual checks, and as a brute-force oracle.  Product
    laws are evaluated as a product of per-coordinate sums rather than
    through ``outcomes()``: that takes fewer powers per call and keeps this
    path independent of the expansion the generic sweep uses.
    """
    law = model.law(i)
    if isinstance(law, TableLaw):
        total = 0.0
        for counts, p in law.entries:
            term = p
            for t, c in counts:
                term *= u[t] ** c
            total += term
        return total
    val = 1.0
    for t, pmf in law.coords:
        val *= sum(p * u[t] ** c for c, p in pmf)
    return val
