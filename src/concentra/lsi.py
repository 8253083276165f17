"""Log-Sobolev machinery: Dirichlet forms, LSI-ratio evaluation, heuristic
h-operator constant search, the spectral bracket of the d-operator constant,
product-measure verification, and the two-point blow-up study.

A reported ratio is a lower bound on the optimal constant: a search alone never
claims "satisfies LSI(sigma^2)", only "no violation found up to".  The upper
end of `spectral_bracket` is the one certified constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedRatioError
from .diffops import d_squared_field, h_field
from .funcs import function_table
from .schema import Record
from .space import Measure, ProductMeasure, _entropy, lp_norm, two_point_measure

OPERATORS = ("d", "h", "h_plus")

_TINY = 1e-300
# The lockstep searches hold every start, and the batch energies every row, at
# once.  Starts and rows go through in groups whose arrays stay near this many
# bytes, so memory does not grow with `starts`, `trials` or the simplex size.
_BATCH_BYTES = 1 << 23


def _groups(rows: np.ndarray, row_bytes: int) -> list[np.ndarray]:
    """Consecutive slices of `rows` of about _BATCH_BYTES / row_bytes rows each;
    one empty slice when `rows` is empty."""
    size = max(1, _BATCH_BYTES // row_bytes)
    return [rows[g:g + size] for g in range(0, max(len(rows), 1), size)]


def dirichlet_form(mu: Measure, f) -> float:
    """E |d f|^2: the Dirichlet form of the single-site resampling dynamics."""
    mu.space.check_cap()
    return gamma_squared_mean(mu, f, "d")


def gamma_squared_mean(mu: Measure, f, operator: str) -> float:
    """E Gamma(f)^2 for Gamma in {d, h, h_plus}."""
    if operator not in OPERATORS:
        raise DomainError(f"unknown operator {operator!r}; use one of {OPERATORS}")
    return float(_energies(mu, function_table(f, mu.space), operator))


def _row_bytes(mu: Measure) -> int:
    """About the bytes that one table's energy and ratio work on."""
    return 8 * mu.space.size * (mu.space.n + 4)


def _energies(mu: Measure, rows: np.ndarray, operator: str, weights: np.ndarray | None = None) -> np.ndarray:
    """E Gamma(f)^2 of each table in `rows` (shape (..., size)); a row's value
    does not depend on its batch.  `weights`, shape (rows, size), gives each
    row its own probability table (h and h_plus only: their fields depend on
    the measure only through its support); `mu`'s by default."""
    if operator == "d":
        squares = d_squared_field(rows, mu)
    else:
        squares = (h_field(rows, mu, "osc" if operator == "h" else "plus") ** 2).sum(axis=-1)
    return (squares * (mu.prob_table() if weights is None else weights)).sum(axis=-1)


def _ratios(mu: Measure, rows: np.ndarray, operator: str, weights: np.ndarray | None = None) -> np.ndarray:
    """Ent(f^2) / (2 E Gamma(f)^2) of each table in `rows` (shape (rows, size)),
    0 where either side vanishes; taken in groups of about _BATCH_BYTES.
    `weights`, one (rows, size) table per row, as in `_energies`."""
    support = mu.prob_table() > 0.0
    w = mu.prob_table() if weights is None else weights
    blocks = _groups(rows, _row_bytes(mu))
    out = []
    for block, wb in zip(blocks, _groups(w, _row_bytes(mu)) if w.ndim == 2 else [w] * len(blocks)):
        energy = _energies(mu, block, operator, wb)
        ent = _entropy(wb[..., support], block[:, support] ** 2)
        ok = (energy > _TINY) & (ent > _TINY)
        out.append(np.where(ok, ent / (2.0 * np.where(ok, energy, 1.0)), 0.0))
    return np.concatenate(out)


def lsi_ratio(mu: Measure, f, operator: str = "d") -> float:
    """Ent(f^2) / (2 E Gamma(f)^2); undefined for f constant on the support."""
    table = function_table(f, mu.space)
    vals = table[mu.prob_table() > 0.0]
    if np.all(vals == vals[0]):
        raise UndefinedRatioError("LSI ratio undefined for functions constant on the support")
    if not gamma_squared_mean(mu, table, operator) > _TINY:
        raise UndefinedRatioError("difference-operator energy vanishes for this function")
    return float(_ratios(mu, table[None], operator)[0])


def glauber_quadratic_form(mu: Measure) -> np.ndarray:
    """Dense PSD matrix L with f^T L f = E |d f|^2, over all configurations."""
    mu.space.check_cap()
    space = mu.space
    w = mu.prob_table()
    size = space.size
    L = np.zeros((size, size))
    np.fill_diagonal(L, space.n * w)
    index_grid = np.arange(size).reshape(space.shape)
    for i in range(space.n):
        # The fibres of coordinate i are disjoint, so one fancy-indexed update
        # subtracts every fibre's block w w^T / mass without collisions.
        fibres = np.moveaxis(index_grid, i, -1).reshape(-1, space.shape[i])
        weights = w[fibres]
        mass = weights.sum(axis=1)
        fibres, weights, mass = fibres[mass > 0.0], weights[mass > 0.0], mass[mass > 0.0]
        L[fibres[:, :, None], fibres[:, None, :]] -= (
            weights[:, :, None] * weights[:, None, :] / mass[:, None, None]
        )
    return L


def _support_form(mu: Measure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support's indices, its probabilities and `glauber_quadratic_form`
    restricted to it (the form itself, not a copy, on a full support)."""
    w = mu.prob_table()
    support = np.nonzero(w > 0.0)[0]
    L = glauber_quadratic_form(mu)
    return support, w[support], L if support.size == w.size else L[np.ix_(support, support)]


def _bracket(ws: np.ndarray, L: np.ndarray, n: int) -> tuple[float, float] | None:
    """(1/gap, DSC upper end) of the support form `L` with probabilities `ws`
    on an n-coordinate space; None when there is no gap to certify.  `L` is
    scaled in place into A, so that the eigensolve's own copy is the only
    other matrix held."""
    if ws.size < 2:
        return None
    scale = 1.0 / np.sqrt(ws)
    L *= scale[:, None]
    L *= scale
    gap = float(np.linalg.eigvalsh(L)[1])
    # 0 <= A <= n I, so n bounds |A|_2; see `spectral_bracket`.
    safe = gap - 8.0 * ws.size * n * float(np.finfo(float).eps)
    if not safe > 0.0:
        return None
    p = float(ws.min())
    # log(1/p - 1) / (1 - 2p) = log1p(x) / (x p) with x = (1 - 2p) / p, whose
    # limit at p = 1/2 is 2.
    x = (1.0 - 2.0 * p) / p
    return 1.0 / gap, (math.log1p(x) / x if x != 0.0 else 1.0) / (2.0 * p * safe)


def spectral_bracket(mu: Measure) -> tuple[float, float]:
    """(1/lambda, upper): a bracket on the optimal d-LSI constant sigma^2 in
    Ent(f^2) <= 2 sigma^2 E |d f|^2.

    lambda is the spectral gap of the Glauber form on the support: the
    second-smallest eigenvalue of A = D^{-1/2} L D^{-1/2}, D = diag(pi) and L
    the form restricted to the support, from one dense `eigvalsh`.  Tables
    1 + eps phi, phi a gap eigenvector, have ratios tending to 1/lambda, so it
    is a lower end.  The upper end is the Diaconis--Saloff-Coste comparison
    (Ann. Appl. Probab. 1996, Appendix A),
    log(1/pi* - 1) / (2 (1 - 2 pi*) lambda), with pi* the least support
    probability.  Before dividing, lambda is lowered by the rounding margin
    8 N n eps (N the support size, n the number of coordinates, which bounds
    |A|_2): it covers the backward error of the eigensolve and the rounding of
    A and of the closing arithmetic, so the upper end errs upwards.  Raises
    DomainError when the support is one point or the lowered gap is not
    positive (the chain is reducible on the support).
    """
    mu.space.check_cap()
    _, ws, L = _support_form(mu)
    bracket = _bracket(ws, L, mu.space.n)
    if bracket is None:
        raise DomainError(
            "no spectral gap: the support is a single point or the Glauber chain is reducible on it"
        )
    return bracket


# The d report's witness is the unit table along 1 + _D_WITNESS_EPS phi, phi a
# gap eigenvector with max |phi| = 1 on the support.  Its ratio is
# (1 + eps E phi^3 / (3 E phi^2) + O(eps^2)) / gap, so within eps / 3 of 1/gap
# relative, and its rounding is of order 1e-16 / eps relative.
_D_WITNESS_EPS = 1e-6
# phi comes from two steps of inverse iteration on A - s I, s = (1 - _GAP_SHIFT)
# gap, which is nonsingular: each step scales a component of eigenvalue m by
# _GAP_SHIFT gap / |m - s| against the gap's.  A solve copies A once, as the
# eigensolve does; `eigh`'s eigenvectors would need about four copies.
_GAP_SHIFT = 1e-10


def _d_report(mu: Measure) -> tuple[float, np.ndarray | None, tuple]:
    """The d operator's best ratio, witness and spectral bracket, from one
    support form and one eigensolve; (0, None, (None, None)) without a gap."""
    support, ws, L = _support_form(mu)
    bracket = _bracket(ws, L, mu.space.n)
    if bracket is None:
        return 0.0, None, (None, None)
    # L now holds A.
    L.flat[:: len(L) + 1] -= (1.0 - _GAP_SHIFT) / bracket[0]
    v = np.random.default_rng(0).standard_normal(len(L))
    for _ in range(2):
        v = np.linalg.solve(L, v / np.linalg.norm(v))
    phi = v / np.sqrt(ws)
    table = np.zeros(mu.space.size)
    table[support] = 1.0 + _D_WITNESS_EPS * phi / np.abs(phi).max()
    ratio, witness, _ = _best(mu, (table / np.linalg.norm(table))[None], "d", 0)
    return ratio, witness, bracket


@dataclass
class LsiReport(Record):
    """The LSI ratio of a unit table `witness`: a lower bound on the optimal constant.

    h and h_plus: the best table of a search, which evaluated `iterations`
    objective rows over all starts; no bracket.  d: no search (`iterations`
    0); `inverse_gap` and `sigma2_upper` are `spectral_bracket` of the
    measure, and the witness lies along 1 + _D_WITNESS_EPS phi, phi a gap
    eigenvector, so `best_ratio` is within about _D_WITNESS_EPS / 3 of
    `inverse_gap`.  Without a spectral gap the d report is 0 and None.
    """

    operator: str
    best_ratio: float
    witness: np.ndarray | None
    starts: int
    iterations: int
    seed: int
    inverse_gap: float | None
    sigma2_upper: float | None


# Iterations a search start may take, unless its caller says otherwise.
_MAX_ITER = 500

# Lockstep Nelder-Mead: scipy's non-adaptive coefficients and initial simplex.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL, _NM_FATOL = 1e-10, 1e-12


def _nelder_mead(objective, x0: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimise `objective` from every row of `x0` in lockstep.

    `objective(x, starts)` maps a (rows, dim) batch to values, where row j
    belongs to the start `starts[j]` (a row of `x0`), so the starts may
    minimise different functions, one per row of a family.  Each start follows
    scipy's `minimize(method="Nelder-Mead")` step for step and stops by its
    xatol/fatol test or after `max_iter` iterations; every test and reduction
    is taken per start, so a start's path does not depend on the others.
    The pass costs the iterations of its longest start.  Returns each start's
    best vertex and value, and the number of rows each start evaluated.
    """
    starts, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    live = np.arange(starts)
    fsim = objective(sim.reshape(-1, n), np.repeat(live, n + 1)).reshape(starts, n + 1)
    evaluations = np.full(starts, n + 1)
    best_x, best_f = np.empty_like(x0), np.empty(starts)
    iterations = 1
    while True:
        order = np.argsort(fsim, axis=1)
        rows = np.arange(len(order))[:, None]
        sim, fsim = sim[rows, order], fsim[rows, order]
        best_x[live], best_f[live] = sim[:, 0], fsim[:, 0]
        if iterations >= max_iter:
            break
        # scipy's xatol-and-fatol test, with the cheap value spread first: the
        # vertex spread, a pass over the whole simplex, is needed only where
        # the values have met fatol.
        done = np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _NM_FATOL
        done[done] = np.abs(sim[done, 1:] - sim[done, :1]).max(axis=(1, 2)) <= _NM_XATOL
        if done.all():
            break
        iterations += 1
        if done.any():
            sim, fsim, live = sim[~done], fsim[~done], live[~done]
        xbar = np.add.reduce(sim[:, :-1], axis=1) / n
        worst, f_worst = sim[:, -1], fsim[:, -1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = objective(xr, live)
        expand = fxr < fsim[:, 0]
        take_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~take_r & (fxr < f_worst)
        inside = ~(expand | take_r | outside)
        second = np.where(
            expand[:, None], (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * worst,
            np.where(outside[:, None], (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * worst,
                     (1 - _NM_PSI) * xbar + _NM_PSI * worst),
        )
        f_second = np.full(len(xr), np.nan)
        f_second[~take_r] = objective(second[~take_r], live[~take_r])
        evaluations[live] += 2 - take_r
        use_second = (expand & (f_second < fxr)) | (outside & (f_second <= fxr)) | (inside & (f_second < f_worst))
        shrink = (outside | inside) & ~use_second
        new_x = np.where(use_second[:, None], second, xr)
        new_f = np.where(use_second, f_second, fxr)
        replace = ~shrink
        sim[replace, -1], fsim[replace, -1] = new_x[replace], new_f[replace]
        if shrink.any():
            base = sim[shrink, :1]
            shrunk = base + _NM_SIGMA * (sim[shrink, 1:] - base)
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = objective(shrunk.reshape(-1, n), np.repeat(live[shrink], n)).reshape(-1, n)
            evaluations[live[shrink]] += n
    return best_x, best_f, evaluations


def _h_objective(mu: Measure, operator: str, weights: np.ndarray):
    """The batch objective of the h / h_plus search on measures with `mu`'s
    space and support: -log of the ratio of each row of a (rows, size) batch,
    normalized, under the probability table `weights[s]` of its start s;
    1e6 where it vanishes."""

    def neg_log_ratio(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
        norm = np.sqrt((x * x).sum(axis=1))
        ratio = _ratios(mu, x / np.where(norm > _TINY, norm, 1.0)[:, None], operator, weights[starts])
        return -np.log(ratio, out=np.full(len(ratio), -1e6), where=ratio > 0.0)

    return neg_log_ratio


def _search_h_operator(
    mus: list[Measure], operator: str, starts: int, seed: int, max_iter: int
) -> list[tuple[float, np.ndarray | None, int]]:
    """The h / h_plus search of each measure of `mus`, one lockstep
    Nelder-Mead over every (measure, start): each measure runs the `starts`
    random tables of `seed`, and gets the report it gets searched alone.
    The measures must share one space and one support."""
    mu = mus[0]
    dim = mu.space.size
    if dim > 4096:
        raise DomainError("h-operator search supported only on small spaces")
    support = mu.prob_table() > 0.0
    for other in mus[1:]:
        if other.space != mu.space or not np.array_equal(other.prob_table() > 0.0, support):
            raise DomainError("a family h-operator search needs one space and one support")
    weights = np.repeat([m.prob_table() for m in mus], starts, axis=0)
    points = np.tile(np.random.default_rng(seed).standard_normal((starts, dim)), (len(mus), 1))
    runs = [
        _nelder_mead(_h_objective(mu, operator, weights[group]), points[group], max_iter)
        for group in _groups(np.arange(len(points)), 8 * (dim + 1) * dim)
    ]
    witnesses = np.array([x / np.linalg.norm(x) for r in runs for x in r[0]])
    evaluations = np.concatenate([r[2] for r in runs])
    return [
        _best(m, witnesses[j * starts:(j + 1) * starts], operator, int(evaluations[j * starts:(j + 1) * starts].sum()))
        for j, m in enumerate(mus)
    ]


def _best(mu: Measure, witnesses: np.ndarray, operator: str,
          evaluations: int) -> tuple[float, np.ndarray | None, int]:
    """The search's report: the candidate table of largest ratio, that ratio
    (so the report is `lsi_ratio` of its witness), and the rows evaluated."""
    ratios = _ratios(mu, witnesses, operator)
    best = int(np.argmax(ratios))
    if not ratios[best] > 0.0:
        return 0.0, None, evaluations
    return float(ratios[best]), witnesses[best], evaluations


def lsi_constant_search(
    mu: Measure,
    operator: str = "d",
    starts: int = 32,
    seed: int = 0,
    max_iter: int = _MAX_ITER,
) -> LsiReport:
    """The best LSI ratio found for `operator`, with the table that attains it.

    h and h_plus run a multi-start Nelder-Mead on the normalized ratio from
    `starts` random tables of `seed`.  The starts advance in lockstep as one
    (starts, dim) array, so each iteration is a few array operations over
    every start; only where the arrays would pass _BATCH_BYTES do the starts
    go in several groups.  The ratio is scale-invariant, so candidates are
    normalized; the report is a lower bound on the optimal constant.

    d runs no search and ignores `starts`, `seed` and `max_iter`: its report
    is `spectral_bracket` of the measure, with the ratio of the table
    1 + _D_WITNESS_EPS phi along a gap eigenvector phi (see `LsiReport`).
    """
    if operator not in OPERATORS:
        raise DomainError(f"unknown operator {operator!r}; use one of {OPERATORS}")
    mu.space.check_cap()
    if np.count_nonzero(mu.prob_table() > 0.0) <= 1:
        return LsiReport(operator, 0.0, None, starts, 0, seed, None, None)
    if operator == "d":
        ratio, witness, bracket = _d_report(mu)
        return LsiReport(operator, ratio, witness, starts, 0, seed, *bracket)
    ratio, witness, iters = _search_h_operator([mu], operator, starts, seed, max_iter)[0]
    return LsiReport(operator, ratio, witness, starts, iters, seed, None, None)


def verify_h_lsi_product(mu: Measure, trials: int, seed: int = 0) -> float:
    """Max of Ent(f^2) / (2 E |h f|^2) over random tables; products must stay <= 1."""
    if not isinstance(mu, ProductMeasure):
        raise DomainError("h-LSI(1) verification applies to product measures")
    mu.space.check_cap()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in _groups(np.arange(trials), _row_bytes(mu)):
        tables = rng.standard_normal((block.size, mu.space.size))
        worst = max(worst, float(_ratios(mu, tables, "h").max(initial=0.0)))
    return worst


@dataclass
class Psi2Row(Record):
    p: float
    sigma2: float
    psi2_value: float
    orlicz_moment_estimate: float


def psi2_blowup_study(
    p_grid, q_max: int = 64, starts: int = 24, seed: int = 0
) -> list[Psi2Row]:
    """Exact E exp((f - Ef)^2 / (16 e^2 sigma_p^2)) for f(x) = x on the two-point
    measure, with sigma_p^2 from the ratio search under the oscillation operator.

    Also reports the moment-based Orlicz estimate 2e sup_{q <= q_max} ||f - Ef||_q / sqrt(q).

    The statistic is reported as ``math.inf`` when exp((1 - p)^2 / (16 e^2 sigma_p^2))
    exceeds the float range, which happens below p ~ 1.8e-6 (the statistic is then at
    least p * 1.8e308); every finite value is the exact two-term sum.

    The whole grid is one lockstep search (`_search_h_operator` over the
    measures of the grid), so it costs the iterations of the longest (p, start)
    rather than their sum; each sigma_p^2 is `lsi_constant_search`'s on that p
    alone, bit for bit.  A degenerate sigma_p^2 raises at the first such p.
    """
    mus = [two_point_measure(float(p)) for p in p_grid]
    searched = _search_h_operator(mus, "h", starts, seed, _MAX_ITER) if mus else []
    rows = []
    for p, mu, (sigma2, _, _) in zip(p_grid, mus, searched):
        if sigma2 <= 1e-12:
            raise DomainError(f"degenerate sigma^2 at p={p}")
        scale = 16.0 * math.e**2 * sigma2
        try:
            psi2 = float(p) * math.exp((1.0 - p) ** 2 / scale) + (1.0 - float(p)) * math.exp(
                p**2 / scale
            )
        except OverflowError:
            psi2 = math.inf
        f = np.array([0.0, 1.0])
        orlicz = max(
            2.0 * math.e * lp_norm(mu, f, float(q)) / math.sqrt(q)
            for q in range(1, q_max + 1)
        )
        rows.append(Psi2Row(float(p), sigma2, psi2, orlicz))
    return rows


def indicator_ratio(p: float) -> float:
    """mu(A) log(1/mu(A)) / (2 mu(A)(1 - mu(A))): the d-operator ratio of an indicator."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p={p} outside (0,1)")
    return math.log(1.0 / p) / (2.0 * (1.0 - p))
