"""Log-Sobolev machinery: Dirichlet forms, LSI-ratio evaluation, heuristic
constant search, product-measure verification, and the two-point blow-up study.

Search results are lower bounds on the optimal constant: no claim of the form
"satisfies LSI(sigma^2)" is ever emitted, only "no violation found up to".
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
    table = function_table(f, mu.space)
    if operator == "d":
        return float(np.dot(mu.prob_table(), d_squared_field(table, mu)))
    return float(_h_energy(table, mu, operator))


def _h_row_bytes(mu: Measure) -> int:
    """About the bytes that one table's h energy and ratio work on."""
    return 8 * mu.space.size * (mu.space.n + 4)


def _h_energy(rows: np.ndarray, mu: Measure, operator: str) -> np.ndarray:
    """E |Gamma f|^2 for Gamma in {h, h_plus}, of each table in `rows` (shape (..., size))."""
    field_ = h_field(rows, mu, "osc" if operator == "h" else "plus")
    return ((field_**2).sum(axis=-1) * mu.prob_table()).sum(axis=-1)


def lsi_ratio(mu: Measure, f, operator: str = "d") -> float:
    """Ent(f^2) / (2 E Gamma(f)^2); undefined for f constant on the support."""
    table = function_table(f, mu.space)
    w = mu.prob_table()
    support = w > 0.0
    vals = table[support]
    if np.all(vals == vals[0]):
        raise UndefinedRatioError("LSI ratio undefined for functions constant on the support")
    denom = 2.0 * gamma_squared_mean(mu, table, operator)
    if denom <= 0.0:
        raise UndefinedRatioError("difference-operator energy vanishes for this function")
    return float(_entropy(w[support], vals**2)) / denom


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


@dataclass
class LsiReport(Record):
    """Best ratio found by a heuristic search: a lower bound on the optimal constant.

    `iterations` counts the objective rows the search evaluated, over all starts.
    """

    operator: str
    best_ratio: float
    witness: np.ndarray | None
    starts: int
    iterations: int
    seed: int


# Lockstep L-BFGS: scipy's L-BFGS-B defaults for memory and stopping, with
# Armijo backtracking in place of its Wolfe line search.
_LBFGS_MEMORY = 10
_PGTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_ARMIJO = 1e-4
_BACKTRACKS = 40


def _lbfgs(objective, x: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
    """Minimise `objective` from every row of `x` in lockstep.

    `objective` maps a (rows, dim) batch to values and gradients.  Each start
    stops on its own when its largest gradient entry is <= _PGTOL, when an
    iteration cuts its value by <= _FTOL relative, when its line search finds
    no Armijo step, or after `max_iter` iterations.  Returns the final rows and
    the number of rows evaluated.
    """
    out = x.copy()
    value, grad = objective(x)
    evaluations = len(x)
    live = np.flatnonzero(np.abs(grad).max(axis=1) > _PGTOL)
    x, value, grad = x[live], value[live], grad[live]
    # Ring buffers of the last pairs, one (live, dim) array per slot; an empty
    # or skipped slot has rho = 0 and changes nothing in the two-loop recursion.
    s_mem, y_mem, rho = [], [], []
    # The first step is -grad scaled to unit length, as in L-BFGS-B.
    gamma = 1.0 / np.linalg.norm(grad, axis=1)
    for it in range(max_iter):
        if not live.size:
            break
        slots = [(it - 1 - j) % _LBFGS_MEMORY for j in range(len(s_mem))]
        direction = -grad
        alpha = []
        for s in slots:
            alpha.append(rho[s] * (s_mem[s] * direction).sum(axis=1))
            direction -= alpha[-1][:, None] * y_mem[s]
        direction *= gamma[:, None]
        for s, a in zip(reversed(slots), reversed(alpha)):
            beta = rho[s] * (y_mem[s] * direction).sum(axis=1)
            direction += (a - beta)[:, None] * s_mem[s]
        slope = (grad * direction).sum(axis=1)
        step = np.ones(len(x))
        new_x, new_value, new_grad = x.copy(), value.copy(), grad.copy()
        pending = np.flatnonzero(slope < 0.0)
        for _ in range(_BACKTRACKS):
            if not pending.size:
                break
            trial = x[pending] + step[pending, None] * direction[pending]
            trial_value, trial_grad = objective(trial)
            evaluations += len(pending)
            ok = trial_value <= value[pending] + _ARMIJO * step[pending] * slope[pending]
            took = pending[ok]
            new_x[took], new_value[took], new_grad[took] = trial[ok], trial_value[ok], trial_grad[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
        moved = new_value < value
        s_new, y_new = new_x - x, new_grad - grad
        sy = (s_new * y_new).sum(axis=1)
        yy = (y_new * y_new).sum(axis=1)
        keep = moved & (sy > np.finfo(float).eps * yy)
        pair = (s_new, y_new, np.where(keep, 1.0 / np.where(keep, sy, 1.0), 0.0))
        if len(s_mem) < _LBFGS_MEMORY:
            for mem, item in zip((s_mem, y_mem, rho), pair):
                mem.append(item)
        else:
            slot = it % _LBFGS_MEMORY
            s_mem[slot], y_mem[slot], rho[slot] = pair
        gamma = np.where(keep, sy / np.where(keep, yy, 1.0), gamma)
        reduction = (value - new_value) / np.maximum(np.maximum(np.abs(value), np.abs(new_value)), 1.0)
        go_on = moved & (reduction > _FTOL) & (np.abs(new_grad).max(axis=1) > _PGTOL)
        out[live] = new_x
        x, value, grad, gamma, live = new_x[go_on], new_value[go_on], new_grad[go_on], gamma[go_on], live[go_on]
        if not go_on.all():
            for mem in (s_mem, y_mem, rho):
                for j, item in enumerate(mem):
                    mem[j] = item[go_on]
    return out, evaluations


def _d_parts(x: np.ndarray, L: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E |d f|^2, L f and Ent(f^2) of each row of `x`, a batch of tables on the support.

    L 1 = 0, so L f = L c for the centred rows c; using c keeps the energy free
    of cancellation near constants.
    """
    centred = x - (x * ws).sum(axis=1, keepdims=True)
    lf = centred @ L
    return (centred * lf).sum(axis=1), lf, _entropy(ws, x**2)


def _search_d_operator(mu: Measure, starts: int, seed: int, max_iter: int) -> tuple[float, np.ndarray | None, int]:
    w = mu.prob_table()
    support = np.nonzero(w > 0.0)[0]
    ws = w[support]
    L = glauber_quadratic_form(mu)[np.ix_(support, support)]
    rng = np.random.default_rng(seed)
    dim = support.size

    def objective(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log E|d f|^2 - log Ent(f^2) and its gradient; 1e6 with a zero gradient
        where either vanishes."""
        energy, lf, ent = _d_parts(x, L, ws)
        sq = x**2
        mean = (ws * sq).sum(axis=1, keepdims=True) / ws.sum()
        log_r = np.log(sq / mean, out=np.zeros_like(sq), where=sq > 0.0)
        ok = (energy > _TINY) & (ent > _TINY)
        energy, ent = np.where(ok, energy, 1.0), np.where(ok, ent, 1.0)
        value = np.where(ok, np.log(energy) - np.log(ent), 1e6)
        grad = 2.0 * lf / energy[:, None] - 2.0 * ws * x * log_r / ent[:, None]
        return value, np.where(ok[:, None], grad, 0.0)

    points = rng.standard_normal((starts, dim))
    # Indicator-like starts probe the small-mass corners driving the entropy.
    corners = np.argsort(ws)[: max(1, starts // 4)]
    indicators = np.full((corners.size, dim), 0.05)
    indicators[np.arange(corners.size), corners] = 1.0
    points = np.vstack([points, indicators])
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    runs = [_lbfgs(objective, group, max_iter) for group in _groups(points, 8 * dim * (2 * _LBFGS_MEMORY + 8))]
    final, evaluations = np.vstack([r[0] for r in runs]), sum(r[1] for r in runs)
    energy, _, ent = _d_parts(final, L, ws)
    ok = (energy > _TINY) & (ent > _TINY)
    ratio = np.where(ok, ent / (2.0 * np.where(ok, energy, 1.0)), 0.0)
    best = int(np.argmax(ratio))
    if not ratio[best] > 0.0:
        return 0.0, None, evaluations
    witness = np.zeros(mu.space.size)
    witness[support] = final[best]
    return float(ratio[best]), witness, evaluations


# Lockstep Nelder-Mead: scipy's non-adaptive coefficients and initial simplex.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL, _NM_FATOL = 1e-10, 1e-12


def _nelder_mead(objective, x0: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Minimise `objective` from every row of `x0` in lockstep.

    `objective` maps a (rows, dim) batch to values.  Each start follows
    scipy's `minimize(method="Nelder-Mead")` step for step and stops by its
    xatol/fatol test or after `max_iter` iterations.  Returns each start's best
    vertex and value, and the number of rows evaluated.
    """
    starts, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    fsim = objective(sim.reshape(-1, n)).reshape(starts, n + 1)
    evaluations = fsim.size
    best_x, best_f = np.empty_like(x0), np.empty(starts)
    live = np.arange(starts)
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
        fxr = objective(xr)
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
        f_second[~take_r] = objective(second[~take_r])
        evaluations += len(xr) + int((~take_r).sum())
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
            fsim[shrink, 1:] = objective(shrunk.reshape(-1, n)).reshape(-1, n)
            evaluations += shrunk.shape[0] * n
    return best_x, best_f, evaluations


def _h_objective(mu: Measure, operator: str):
    """The batch objective of the h / h_plus search: -log(Ent(f^2) / (2 E|Gamma f|^2))
    of each row of a (rows, size) batch, normalized; 1e6 where undefined."""
    w = mu.prob_table()
    support = w > 0.0

    def neg_log_ratio(x: np.ndarray) -> np.ndarray:
        norm = np.sqrt((x * x).sum(axis=1))
        f = x / np.where(norm > _TINY, norm, 1.0)[:, None]
        denom = 2.0 * _h_energy(f, mu, operator)
        ent = _entropy(w[support], f[:, support] ** 2)
        ok = (norm > _TINY) & (denom > _TINY) & (ent > _TINY)
        return np.where(ok, -np.log(np.where(ok, ent / np.where(ok, denom, 1.0), 1.0)), 1e6)

    row_bytes = _h_row_bytes(mu)
    return lambda x: np.concatenate([neg_log_ratio(block) for block in _groups(x, row_bytes)])


def _search_h_operator(
    mu: Measure, operator: str, starts: int, seed: int, max_iter: int
) -> tuple[float, np.ndarray | None, int]:
    dim = mu.space.size
    if dim > 4096:
        raise DomainError("h-operator search supported only on small spaces")
    objective = _h_objective(mu, operator)
    points = np.random.default_rng(seed).standard_normal((starts, dim))
    runs = [_nelder_mead(objective, group, max_iter) for group in _groups(points, 8 * (dim + 1) * dim)]
    best_x, best_f = np.vstack([r[0] for r in runs]), np.concatenate([r[1] for r in runs])
    evaluations = sum(r[2] for r in runs)
    best = int(np.argmin(best_f))
    ratio = math.exp(-best_f[best]) if best_f[best] < 1e6 else 0.0
    if not ratio > 0.0:
        return 0.0, None, evaluations
    return ratio, best_x[best] / np.linalg.norm(best_x[best]), evaluations


def lsi_constant_search(
    mu: Measure,
    operator: str = "d",
    starts: int = 32,
    seed: int = 0,
    max_iter: int = 500,
) -> LsiReport:
    """Multi-start ascent of the defining ratio over function tables.

    The starts advance in lockstep as one (starts, dim) array, so each
    iteration is a few array operations over every start; only where the
    arrays would pass _BATCH_BYTES do the starts go in several groups.  The d operator
    runs L-BFGS on log E|d f|^2 - log Ent(f^2) from `starts` random tables
    plus `starts // 4` indicator-like ones; h and h_plus run Nelder-Mead on
    the normalized ratio from `starts` random tables.  The ratio is
    scale-invariant, so candidates are normalized; the report is a lower
    bound on the optimal constant.
    """
    if operator not in OPERATORS:
        raise DomainError(f"unknown operator {operator!r}; use one of {OPERATORS}")
    mu.space.check_cap()
    w = mu.prob_table()
    if int(np.count_nonzero(w > 0.0)) <= 1:
        return LsiReport(operator, 0.0, None, starts, 0, seed)
    if operator == "d":
        ratio, witness, iters = _search_d_operator(mu, starts, seed, max_iter)
    else:
        ratio, witness, iters = _search_h_operator(mu, operator, starts, seed, max_iter)
    return LsiReport(operator, ratio, witness, starts, iters, seed)


def verify_h_lsi_product(mu: Measure, trials: int, seed: int = 0) -> float:
    """Max of Ent(f^2) / (2 E |h f|^2) over random tables; products must stay <= 1."""
    if not isinstance(mu, ProductMeasure):
        raise DomainError("h-LSI(1) verification applies to product measures")
    mu.space.check_cap()
    w = mu.prob_table()
    support = w > 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in _groups(np.arange(trials), _h_row_bytes(mu)):
        tables = rng.standard_normal((block.size, mu.space.size))
        denom = 2.0 * _h_energy(tables, mu, "h")
        ok = denom > _TINY
        worst = max(worst, float((_entropy(w[support], tables[ok][:, support] ** 2) / denom[ok]).max(initial=0.0)))
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
    """
    rows = []
    for p in p_grid:
        mu = two_point_measure(float(p))
        report = lsi_constant_search(mu, operator="h", starts=starts, seed=seed)
        sigma2 = report.best_ratio
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
