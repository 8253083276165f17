"""Empirical and exact verification: tail curves with confidence limits,
domination checks with measured safety factors and negative controls,
moment-chain checks, brute-force lemma suites, and the shipped regression
corpus of (model, function) pairs.

Iterative operator norms are certified lower bounds, so they are placed on
the side of each inequality where an underestimate keeps the check sound, or
covered by declared slack.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import bounds as bounds_mod
from .bounds import Regime, TailBound, independent
from .diffops import (
    NormProfile,
    _section_entries,
    d_squared_field,
    exact_level_scales,
    h_field,
    h_tensor_field,
    norm_profile,
)
from .errors import DomainError
from .funcs import (
    MultilinearPoly,
    SupFamily,
    Tabulated,
    UStatistic,
    fourier_transform,
    function_table,
    spectrum_from_coefficients,
)
from .lsi import indicator_ratio, psi2_blowup_study, verify_h_lsi_product
from .schema import Record, document, field
from .space import (
    Measure,
    ProductMeasure,
    ProductSpace,
    hypercube,
    lp_norm,
    rademacher,
    uniform,
)
from .tensors import op_norm_batch

KAPPA = math.sqrt(math.e) / (2.0 * (math.sqrt(math.e) - 1.0))
TAIL_SIDES = ("two", "upper")


# ---------------------------------------------------------------------------
# Tail curves and domination
# ---------------------------------------------------------------------------


def clopper_pearson_upper(successes: int | np.ndarray, trials: int,
                          confidence: float = 0.999) -> float | np.ndarray:
    """One-sided upper confidence limit for a binomial proportion: a float
    for one count, an array for an integer array of counts, each limit with
    the bits it has alone."""
    if trials < 1:
        raise DomainError("need at least one trial")
    k = np.asarray(successes)
    if not np.all((0 <= k) & (k <= trials)):
        raise DomainError("successes outside [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence must lie in (0, 1)")
    # The beta quantile; the same bits as scipy.stats.beta.ppf, without importing scipy.stats.
    from scipy.special import betaincinv

    upper = np.ones(k.shape)
    below = k < trials
    upper[below] = betaincinv(k[below] + 1, trials - k[below], confidence)
    return float(upper) if upper.ndim == 0 else upper


@dataclass
class TailCurve(Record):
    """P(|f - Ef| >= t) (or the upper deviation) on a grid, with upper limits."""

    t_grid: np.ndarray
    prob: np.ndarray
    upper: np.ndarray
    side: str = "two"
    mode: str = "exact"
    n_samples: int = 0
    center: float = 0.0


def tail_curve(
    mu: Measure,
    f,
    t_grid: Sequence[float],
    mode: str = "exact",
    side: str = "two",
    samples: np.ndarray | None = None,
    confidence: float = 0.999,
    center: float | None = None,
) -> TailCurve:
    """Exact mode sums masses; Monte Carlo mode counts exceedances among the
    provided sample configurations and attaches binomial upper limits."""
    if side not in TAIL_SIDES:
        raise DomainError(f"unknown side {side!r}")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise DomainError("t grid must be nondecreasing")
    if mode == "exact":
        mu.space.check_cap()
        table = function_table(f, mu.space)
        w = mu.prob_table()
        mean = float(np.dot(w, table)) if center is None else center
        dev = table - mean
        dev = np.abs(dev) if side == "two" else dev
        order = np.argsort(dev)
        sorted_dev = dev[order]
        suffix = np.concatenate([np.cumsum(w[order][::-1])[::-1], [0.0]])
        idx = np.searchsorted(sorted_dev, t_grid, side="left")
        prob = suffix[idx]
        prob = np.minimum(prob, 1.0)
        return TailCurve(t_grid, prob, prob.copy(), side, "exact", 0, mean)
    if mode != "monte_carlo":
        raise DomainError(f"unknown mode {mode!r}")
    if samples is None or len(samples) == 0:
        raise DomainError("monte_carlo mode needs sample configurations")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    values = f.evaluate_rows(mu.space, samples)
    mean = float(values.mean()) if center is None else center
    dev = values - mean
    dev = np.abs(dev) if side == "two" else dev
    m = dev.size
    counts = m - np.searchsorted(np.sort(dev), t_grid, side="left")  # how many dev >= t
    return TailCurve(t_grid, counts / m, clopper_pearson_upper(counts, m, confidence), side, "monte_carlo", m, mean)


@dataclass
class DominationReport(Record):
    bound_label: str
    dominated: bool
    violations: list[float]
    min_margin: float
    nonvacuous: bool
    safety_factor: float


def measure_safety_factor(curve: TailCurve, bound: TailBound) -> float:
    """Largest factor by which the bound constant can shrink before the curve
    pokes above it somewhere on the grid; +inf when no grid point can bite."""
    best = math.inf
    for t, p in zip(curve.t_grid, curve.upper):
        if t <= 0.0 or p <= 0.0:
            continue
        e = bound.exponent(float(t))
        if e <= 0.0 or math.isinf(e):
            continue
        best = min(best, math.log(bound.prefactor / p) / e)
    return best


def check_domination(curve: TailCurve, bound: TailBound, tol: float = 1e-12) -> DominationReport:
    """Dominated iff the curve's upper limit stays below the clipped bound at
    every grid point; also records non-vacuity and the safety factor."""
    if bound.one_sided and curve.side != "upper":
        raise DomainError("a one-sided bound needs an upper-deviation curve")
    values = bound.evaluate_grid(curve.t_grid)
    gaps = values - curve.upper
    violations = [float(t) for t, g in zip(curve.t_grid, gaps) if g < -tol]
    return DominationReport(
        bound_label=bound.label,
        dominated=len(violations) == 0,
        violations=violations,
        min_margin=float(gaps.min()),
        nonvacuous=bool(np.any(values < 1.0)),
        safety_factor=measure_safety_factor(curve, bound),
    )


def _bound_half_point(bound: TailBound, start: float) -> float:
    """Smallest t (up to bisection tolerance) where the clipped bound reaches 1/2."""
    hi = max(start, 1.0)
    for _ in range(400):
        if bound.evaluate(hi) < 0.5:
            break
        hi *= 2.0
    else:
        return start
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bound.evaluate(mid) < 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def max_deviation(mu: Measure, f) -> float:
    """max |f - Ef| over the support of mu."""
    table = function_table(f, mu.space)
    w = mu.prob_table()
    return float(np.abs(table[w > 0] - float(np.dot(w, table))).max())


def domination_grid(bound: TailBound, max_deviation: float) -> np.ndarray:
    """Dense grid over the support range plus an extension to where the bound bites."""
    head = np.linspace(0.0, max(max_deviation, 1e-12) * 1.05, 33)
    t_half = _bound_half_point(bound, max_deviation)
    if t_half > head[-1]:
        tail_part = np.linspace(head[-1], 1.25 * t_half, 17)[1:]
        return np.concatenate([head, tail_part])
    return head


def suprema_profile(
    family: SupFamily, mu: Measure, d: int, restarts: int = 8
) -> tuple[list[float], float]:
    """Exact (E W_j for j < d, ||W_d||_inf) for W_j(x) the family supremum of
    the order-j difference-tensor operator norms at x."""
    mu.space.check_cap()
    tables = [member.evaluate_table(mu.space) for member in family.members]
    *expected, top = exact_level_scales(tables, mu, d, restarts, 0, functions=family.members)
    return expected, top


# ---------------------------------------------------------------------------
# Moment-chain verification
# ---------------------------------------------------------------------------


@dataclass
class MomentChainReport(Record):
    regime: str
    d: int
    p_grid: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    passed: bool
    worst_margin: float


def _moment_report(mu: Measure, f, p_grid: Sequence[float], right: Callable[[np.ndarray], Callable[[float], float]],
                   regime: str, d: int, slack: float) -> MomentChainReport:
    """Check ||f - Ef||_p <= right(p) on a non-empty grid of p >= 2, from one
    table of f: `right` maps the table to the right side as a function of p,
    so a check builds what its right side needs once."""
    p_grid = tuple(float(p) for p in p_grid)
    if not p_grid or min(p_grid) < 2.0:
        raise DomainError("the moment chain needs a non-empty grid of p >= 2")
    table = function_table(f, mu.space)
    right_at = right(table)
    lhs = tuple(lp_norm(mu, table, p) for p in p_grid)
    rhs = tuple(right_at(p) for p in p_grid)
    worst = max(left - right for left, right in zip(lhs, rhs))
    return MomentChainReport(regime, d, p_grid, lhs, rhs, worst <= slack, worst)


def check_moment_chain(
    mu: Measure,
    f,
    d: int,
    p_grid: Sequence[float],
    regime: Regime,
    slack: float = 1e-9,
    profile: NormProfile | None = None,
) -> MomentChainReport:
    """Verify ||f - Ef||_p <= sum_{j<d} c_j(p) gamma_j + c_d(p) gamma_d on the grid,
    with c_j(p) = (8 kappa p)^(j/2) for independent coordinates and
    (2 sigma^2 (p - 3/2))^(j/2) under a d-operator LSI."""
    if regime.d != d:
        raise DomainError("regime order must match d")

    def right(table: np.ndarray) -> Callable[[float], float]:
        gamma = (norm_profile(f, mu, d, table=table) if profile is None else profile).gamma

        def at(p: float) -> float:
            base = 8.0 * KAPPA * p if regime.kind == "independent" else 2.0 * regime.sigma2 * (p - 1.5)
            return sum(base ** (j / 2.0) * g for j, g in enumerate(gamma, 1))

        return at

    return _moment_report(mu, f, p_grid, right, regime.kind, d, slack)


def check_d_moment_inequality(
    mu: Measure, f, p_grid: Sequence[float], sigma2: float, slack: float = 1e-9
) -> MomentChainReport:
    """First-order display under a d-operator LSI:
    ||f - Ef||_p <= (2 sigma^2 (p - 3/2))^(1/2) ||df||_p."""

    def right(table: np.ndarray) -> Callable[[float], float]:
        w, d_sq = mu.prob_table(), d_squared_field(table, mu)
        return lambda p: math.sqrt(2.0 * sigma2 * (p - 1.5)) * float(np.dot(w, d_sq ** (p / 2.0))) ** (1.0 / p)

    return _moment_report(mu, f, p_grid, right, "dlsi-first-order", 1, slack)


# ---------------------------------------------------------------------------
# Lemma suites
# ---------------------------------------------------------------------------


@dataclass
class PointwiseReport(Record):
    name: str
    passed: bool
    worst_margin: float
    checked: int


def _op_norm_field(tables: np.ndarray, mu: Measure, k: int) -> np.ndarray:
    """Per-configuration operator norms of the order-k difference tensors of
    each table of `tables` (T, size), shape (T, size): one `h_tensor_field`
    call on the batch and one `op_norm_batch` call on its fields."""
    # Per configuration, never a constant level's upper end (`_level_norms`):
    # the recursion lemma is checked pointwise, and an upper end on its right
    # side could hide a configuration where it fails.
    fields = h_tensor_field(tables, mu, k)
    return op_norm_batch(fields.reshape((-1,) + fields.shape[2:])).reshape(len(tables), -1)


def _recursion_margins(tables: np.ndarray, mu: Measure, d: int) -> np.ndarray:
    """The worst support margin |h+ of |h^(d-1) f|_op| - |h^(d) f|_op of each
    table of `tables` (T, size), from one norm batch per level.  Orders <= 2
    are exact, so a table's margin for d = 2 does not depend on its batch;
    for d = 3 the ALS starts of the right side do, within its slack."""
    inner = _op_norm_field(tables, mu, d - 1)
    lhs = np.linalg.norm(h_field(inner, mu, "plus"), axis=-1)
    rhs = _op_norm_field(tables, mu, d)
    support = mu.support_mask()
    return (lhs[:, support] - rhs[:, support]).max(axis=1)


def check_recursion_lemma(mu: Measure, f, d: int, slack: float = 0.0) -> PointwiseReport:
    """Pointwise |h+ of |h^(d-1) f|_op| <= |h^(d) f|_op at every support point.

    The left side is exact for d <= 3 (vector norms, and matrix norms from
    eigenvalues or singular values); the right side for d = 3 is an iterative
    lower bound, covered by the slack.
    This is `_recursion_margins` on a batch of one table.
    """
    if d < 2:
        raise DomainError("the recursion lemma needs d >= 2")
    worst = float(_recursion_margins(function_table(f, mu.space)[None], mu, d)[0])
    return PointwiseReport("recursion-lemma", worst <= slack, worst, int(mu.support_mask().sum()))


def check_sup_lemma(family: SupFamily, mu: Measure, slack: float = 1e-12) -> PointwiseReport:
    """Pointwise |h+ g| <= sup over members of |h+ |member|| for g the family sup."""
    g_table = family.evaluate_table(mu.space)
    lhs = np.linalg.norm(h_field(g_table, mu, "plus"), axis=1)
    member_plus = []
    for member in family.members:
        abs_table = np.abs(member.evaluate_table(mu.space))
        member_plus.append(np.linalg.norm(h_field(abs_table, mu, "plus"), axis=1))
    rhs = np.stack(member_plus).max(axis=0)
    support = mu.support_mask()
    margins = lhs[support] - rhs[support]
    worst = float(margins.max())
    return PointwiseReport("sup-lemma", worst <= slack, worst, int(support.sum()))


def check_ustat_entry_bound(kernel: UStatistic, n: int, k: int) -> PointwiseReport:
    """Every order-k difference-tensor entry of the U-statistic stays below
    C(d,k) 2^k B n^(d-k), over the uniform product on the shared alphabet."""
    d = kernel.order
    if not 1 <= k <= d:
        raise DomainError("need 1 <= k <= d")
    alphabet_size = kernel.kernel.shape[0]
    space = ProductSpace(
        tuple(tuple(float(v) for v in range(alphabet_size)) for _ in range(n))
    )
    mu = uniform(space)
    table = kernel.evaluate_table(space)
    # Entries are nonnegative, and the dense field's other entries are zeros.
    worst_entry = float(max(entry.max() for _, entry in _section_entries(table, mu, k)))
    limit = math.comb(d, k) * 2.0**k * kernel.bound * float(n) ** (d - k)
    return PointwiseReport(
        f"ustat-entry-k{k}", worst_entry <= limit + 1e-9, worst_entry - limit, space.size * n**k
    )


# ---------------------------------------------------------------------------
# Regression corpus
# ---------------------------------------------------------------------------


# The files `corpus/<name>.json`, in report order: `verify-tail` configs with a
# `general` bound and no `t_grid`.  rademacher4-sum-dlsi states sigma2 = 1, the
# d-operator LSI constant of uniform two-point coordinates;
# curie-weiss6-magnetization searches its sigma2, and the other dlsi entries
# publish the upper end of their spectral bracket.  The coloring has
# five colors on the triangle, k >= 2 * max degree + 1, so single-site
# resampling is ergodic (with three it freezes and no finite constant exists).
CORPUS = (
    "rademacher4-pair",
    "rademacher6-quadratic",
    "rademacher5-sum",
    "rademacher4-cubic",
    "bernoulli07-quadratic",
    "ternary4-table",
    "rademacher4-sum-dlsi",
    "ising4-quadratic",
    "ising8-magnetization",
    "curie-weiss6-magnetization",
    "triangle-coloring-count",
    "ergm4-triangles",
    "ergm5-edges",
)


# The `sigma2_source` of each object form of a dlsi sigma2.
_SIGMA2_SOURCES = {"search": "searched", "spectral": "spectral"}


def corpus_names() -> list[str]:
    return list(CORPUS)


def run_corpus_entry(name: str) -> dict:
    """Read one corpus file as `verify-tail` does, check domination,
    non-vacuity and the negative control, and return a plain-dict result
    (stable across runs)."""
    from . import cli  # cli imports this module

    inputs = cli.Inputs(json.loads((resources.files(__package__) / "corpus" / f"{name}.json").read_text()))
    bound, grid = cli.bound_and_grid(inputs)
    curve = tail_curve(inputs.model, inputs.table, grid)
    report = check_domination(curve, bound)
    flipped = False
    if math.isfinite(report.safety_factor):
        shrunk = bound.scaled_constant(1.0 / (report.safety_factor * 1.05))
        flipped = not check_domination(curve, shrunk).dominated
    passed = report.dominated and report.nonvacuous and flipped
    # The sigma2 form, until the result types carry exactness: searched,
    # spectral, stated, or none.  The reader has checked it by now.
    regime_doc = field(field(inputs.config, "bound", document), "regime", document)
    source = field(
        regime_doc, "sigma2", lambda v, _: _SIGMA2_SOURCES[next(iter(v))] if isinstance(v, dict) else "stated", ""
    )
    return {
        "name": name,
        "passed": passed,
        "dominated": report.dominated,
        "nonvacuous": report.nonvacuous,
        "negative_control_flipped": flipped,
        "min_margin": report.min_margin,
        "safety_factor": report.safety_factor,
        "regime": bound.regime.kind,
        "d": bound.regime.d,
        "sigma2": bound.regime.sigma2,
        "sigma2_source": source,
        "grid_points": int(grid.size),
    }


# ---------------------------------------------------------------------------
# Suite: the full property corpus behind the `suite` command
# ---------------------------------------------------------------------------


@dataclass
class SuiteCheck(Record):
    name: str
    passed: bool
    detail: dict


@dataclass
class SuiteResult(Record):
    seed: int
    checks: list[SuiteCheck] = dataclass_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {**super().to_json(), "all_passed": self.all_passed}


# The suite's slack per d: rounding of exact norms for d = 2, and for d = 3
# the ALS lower bound on the right side.
_RECURSION_SLACK = {2: 1e-9, 3: 1e-6}


def _suite_recursion(seed: int) -> SuiteCheck:
    """The recursion lemma on 40 random tables on {-1, 1}^n, n in 3..5, d = 2
    on even trials and 3 on odd ones (n >= 4).  The trials are drawn in order,
    then checked one (n, d) group at a time, one norm batch per level
    (`_recursion_margins`).  The detail is the worst margin over the trials up
    to the first that fails, in trial order, and how many those are."""
    rng = np.random.default_rng(seed)
    trials = []
    for trial in range(40):
        n = int(rng.integers(3, 6))
        d = 2 if trial % 2 == 0 else 3
        if d == 3 and n < 4:
            n = 4
        trials.append((n, d, rng.uniform(-1.0, 1.0, size=2**n)))
    margins = np.empty(len(trials))
    for n, d in sorted({(n, d) for n, d, _ in trials}):
        group = [t for t, (m, e, _) in enumerate(trials) if (m, e) == (n, d)]
        margins[group] = _recursion_margins(np.array([trials[t][2] for t in group]), rademacher(n), d)
    worst = -math.inf
    for runs, ((_, d, _), margin) in enumerate(zip(trials, margins), start=1):
        worst = max(worst, float(margin))
        if not margin <= _RECURSION_SLACK[d]:
            return SuiteCheck("recursion-lemma", False, {"worst_margin": worst, "runs": runs})
    return SuiteCheck("recursion-lemma", True, {"worst_margin": worst, "runs": runs})


def _suite_sup_lemma(seed: int) -> SuiteCheck:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(30):
        n = int(rng.integers(2, 4))
        mu = rademacher(n)
        members = tuple(
            MultilinearPoly({1: rng.uniform(-1.0, 1.0, size=n)}) for _ in range(int(rng.integers(2, 5)))
        )
        report = check_sup_lemma(SupFamily(members), mu)
        worst = max(worst, report.worst_margin)
        if not report.passed:
            return SuiteCheck("sup-lemma", False, {"worst_margin": worst})
    return SuiteCheck("sup-lemma", True, {"worst_margin": worst})


def _suite_ustat_entries(seed: int) -> SuiteCheck:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(10):
        n = int(rng.integers(4, 6))
        H = rng.uniform(-1.0, 1.0, size=(2, 2))
        H = (H + H.T) / 2.0
        kernel = UStatistic(2, H)
        for k in (1, 2):
            report = check_ustat_entry_bound(kernel, n, k)
            worst = max(worst, report.worst_margin)
            if not report.passed:
                return SuiteCheck("ustat-entries", False, {"worst_margin": worst})
    return SuiteCheck("ustat-entries", True, {"worst_margin": worst})


def _suite_h_lsi_product(seed: int) -> SuiteCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 5)) for _ in range(n)]
        tables = []
        for m in sizes:
            t = rng.uniform(0.2, 1.0, size=m)
            tables.append(t / t.sum())
        space = ProductSpace(tuple(tuple(float(v) for v in range(m)) for m in sizes))
        mu = ProductMeasure(space, tables)
        worst = max(worst, verify_h_lsi_product(mu, trials=200, seed=int(rng.integers(1 << 31))))
    return SuiteCheck("h-lsi-product", worst <= 1.0 + 1e-9, {"max_ratio": worst})


def _suite_boolean(seed: int) -> SuiteCheck:
    rng = np.random.default_rng(seed)
    n, d = 8, 3
    space = hypercube(n)
    mu = rademacher(n)
    worst_gap = math.inf
    for _ in range(20):
        entries = {}
        for order in range(1, d + 1):
            count = int(rng.integers(1, 5))
            for _ in range(count):
                subset = tuple(sorted(rng.choice(n, size=order, replace=False).tolist()))
                entries[subset] = float(rng.uniform(-1.0, 1.0))
        spectrum = spectrum_from_coefficients(n, entries)
        table = spectrum.reconstruct()
        back = fourier_transform(table, space)
        if float(np.abs(back.coefficients - spectrum.coefficients).max()) > 1e-10:
            return SuiteCheck("boolean-bound", False, {"reason": "transform-roundtrip"})
        weights = back.weights()
        bound = bounds_mod.bound_boolean(weights[1 : d + 1], d)
        max_dev = float(np.abs(table - table.mean()).max())
        grid = domination_grid(bound, max_dev)
        curve = tail_curve(mu, table, grid)
        report = check_domination(curve, bound)
        worst_gap = min(worst_gap, report.min_margin)
        if not report.dominated:
            return SuiteCheck("boolean-bound", False, {"min_margin": report.min_margin})
    return SuiteCheck("boolean-bound", True, {"min_margin": worst_gap})


def _suite_moment_chain(seed: int) -> SuiteCheck:
    rng = np.random.default_rng(seed)
    p_grid = list(range(2, 21))
    worst = -math.inf
    for _ in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        mu = rademacher(n)
        f = Tabulated(rng.uniform(-1.0, 1.0, size=mu.space.size))
        report = check_moment_chain(mu, f, d, p_grid, independent(d))
        worst = max(worst, report.worst_margin)
        if not report.passed:
            return SuiteCheck("moment-chain", False, {"worst_margin": worst})
    return SuiteCheck("moment-chain", True, {"worst_margin": worst})


def exact_binomial_coverage(p: float, m: int, confidence: float) -> float:
    """P(upper limit >= p) for K ~ Binomial(m, p).

    The upper limit increases with the count, so the covered counts form an
    upper set {k >= k*} (checked, not assumed), and the coverage is the
    binomial tail P(K >= k*) = I_p(k*, m - k* + 1), a regularized beta.
    """
    from scipy.special import betainc

    covered = clopper_pearson_upper(np.arange(m + 1), m, confidence) >= p
    k_star = int(np.argmax(covered)) if covered.any() else m + 1
    if not covered[k_star:].all():
        raise AssertionError(f"the counts whose upper limit covers p={p} are not an upper set")
    if k_star in (0, m + 1):
        return float(k_star == 0)  # every count covers, or none; I_p needs positive parameters
    return float(betainc(k_star, m - k_star + 1, p))


def _suite_clopper_pearson(seed: int) -> SuiteCheck:
    confidence = 0.999
    coverages = {}
    exact_ok = True
    for p, m in [(0.3, 400), (0.05, 200), (0.5, 50)]:
        coverage = exact_binomial_coverage(p, m, confidence)
        coverages[f"p={p},m={m}"] = coverage
        exact_ok &= coverage >= confidence
    # Sampled replications fluctuate binomially even when the limit is valid,
    # so the empirical check uses an envelope that a conservative limit
    # essentially never exceeds (P(failures > 7) < 1e-5 at 1000 draws).
    rng = np.random.default_rng(seed)
    p, m, reps = 0.3, 400, 1000
    failures = int(np.count_nonzero(clopper_pearson_upper(rng.binomial(m, p, size=reps), m, confidence) < p))
    return SuiteCheck(
        "clopper-pearson-coverage",
        exact_ok and failures <= 7,
        {"coverage": min(coverages.values()), "exact": coverages, "sampled_failures": failures},
    )


def _suite_indicator_blowup(_seed: int) -> SuiteCheck:
    passed = True
    checked = {}
    for sigma2 in (1.0, 10.0, 100.0):
        p = math.exp(-2.2 * sigma2)
        ratio = indicator_ratio(p)
        checked[str(sigma2)] = ratio
        passed &= ratio > sigma2
    return SuiteCheck("indicator-blowup", passed, {"ratios": checked})


def _suite_psi2_divergence(seed: int) -> SuiteCheck:
    rows = psi2_blowup_study([1e-2, 1e-3, 1e-4], starts=24, seed=seed % (1 << 31))
    values = [r.psi2_value for r in rows]
    increasing_tail = all(b > a for a, b in zip(values, values[1:]))
    return SuiteCheck(
        "psi2-divergence", increasing_tail and values[-1] > 10.0 * values[0],
        {"values": values, "sigma2": [r.sigma2 for r in rows]},
    )


_SUITE_STATIC_CHECKS: list[tuple[str, Callable[[int], SuiteCheck]]] = [
    ("recursion-lemma", _suite_recursion),
    ("sup-lemma", _suite_sup_lemma),
    ("ustat-entries", _suite_ustat_entries),
    ("h-lsi-product", _suite_h_lsi_product),
    ("boolean-bound", _suite_boolean),
    ("moment-chain", _suite_moment_chain),
    ("clopper-pearson-coverage", _suite_clopper_pearson),
    ("indicator-blowup", _suite_indicator_blowup),
    ("psi2-divergence", _suite_psi2_divergence),
]


def run_suite(seed: int = 0, jobs: int = 1) -> SuiteResult:
    """Run the regression corpus and the property checks; deterministic given the seed."""
    result = SuiteResult(seed=seed)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Under fork the pool starts all its workers at once: one per entry at most.
        with ProcessPoolExecutor(max_workers=min(jobs, len(corpus_names()))) as pool:
            corpus_results = list(pool.map(run_corpus_entry, corpus_names()))
    else:
        corpus_results = [run_corpus_entry(name) for name in corpus_names()]
    for detail in corpus_results:
        result.checks.append(SuiteCheck(f"corpus:{detail['name']}", bool(detail["passed"]), detail))
    for index, (name, check) in enumerate(_SUITE_STATIC_CHECKS):
        child_seed = seed * 1000003 + 7919 * (index + 1)
        result.checks.append(check(child_seed))
    return result
