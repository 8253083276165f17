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
from .space import Measure, ProductMeasure, _entropy, lp_norm, two_point_measure

OPERATORS = ("d", "h", "h_plus")

_TINY = 1e-300


def dirichlet_form(mu: Measure, f) -> float:
    """E |d f|^2: the Dirichlet form of the single-site resampling dynamics."""
    mu.space.check_cap()
    return gamma_squared_mean(mu, f, "d")


def gamma_squared_mean(mu: Measure, f, operator: str) -> float:
    """E Gamma(f)^2 for Gamma in {d, h, h_plus}."""
    if operator not in OPERATORS:
        raise DomainError(f"unknown operator {operator!r}; use one of {OPERATORS}")
    table = function_table(f, mu.space)
    w = mu.prob_table()
    if operator == "d":
        return float(np.dot(w, d_squared_field(table, mu)))
    field_ = h_field(table, mu, "osc" if operator == "h" else "plus")
    return float(np.dot(w, (field_**2).sum(axis=1)))


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
    return _entropy(w[support], vals**2) / denom


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
        idx2 = np.moveaxis(index_grid, i, -1).reshape(-1, space.shape[i])
        for row in idx2:
            weights = w[row]
            mass = weights.sum()
            if mass > 0.0:
                L[np.ix_(row, row)] -= np.outer(weights, weights) / mass
    return L


@dataclass
class LsiReport:
    """Best ratio found by a heuristic search: a lower bound on the optimal constant."""

    operator: str
    best_ratio: float
    witness: np.ndarray | None
    starts: int
    iterations: int
    seed: int

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "best_ratio": self.best_ratio,
            "witness": None if self.witness is None else self.witness.tolist(),
            "starts": self.starts,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _search_d_operator(mu: Measure, starts: int, seed: int, max_iter: int) -> tuple[float, np.ndarray | None, int]:
    from scipy import optimize  # loaded by the searches only: it dominates a CLI import

    w = mu.prob_table()
    support = np.nonzero(w > 0.0)[0]
    ws = w[support]
    L_full = glauber_quadratic_form(mu)
    L = L_full[np.ix_(support, support)]
    rng = np.random.default_rng(seed)
    dim = support.size

    def objective(f: np.ndarray):
        energy = float(f @ L @ f)
        mean_sq = float(np.dot(ws, f**2))
        if energy <= _TINY or mean_sq <= _TINY:
            return 1e6, np.zeros_like(f)
        logs = np.log(np.maximum(f**2, _TINY)) - math.log(mean_sq)
        ent = float(np.dot(ws, f**2 * logs))
        if ent <= _TINY:
            return 1e6, np.zeros_like(f)
        grad_ent = 2.0 * ws * f * logs
        grad_energy = 2.0 * (L @ f)
        value = -math.log(ent) + math.log(energy)
        grad = -grad_ent / ent + grad_energy / energy
        return value, grad

    best_ratio, best_f, evaluations = 0.0, None, 0
    start_points = [rng.standard_normal(dim) for _ in range(starts)]
    # Indicator-like starts probe the small-mass corners driving the entropy.
    order = np.argsort(ws)
    for j in order[: max(1, starts // 4)]:
        e = np.full(dim, 0.05)
        e[j] = 1.0
        start_points.append(e)
    for point in start_points:
        point = point / np.linalg.norm(point)
        res = optimize.minimize(
            objective, point, jac=True, method="L-BFGS-B", options={"maxiter": max_iter}
        )
        evaluations += int(res.nfev)
        candidate = res.x
        energy = float(candidate @ L @ candidate)
        mean_sq = float(np.dot(ws, candidate**2))
        if energy <= _TINY or mean_sq <= _TINY:
            continue
        logs = np.log(np.maximum(candidate**2, _TINY)) - math.log(mean_sq)
        ratio = float(np.dot(ws, candidate**2 * logs)) / (2.0 * energy)
        if ratio > best_ratio:
            full = np.zeros(mu.space.size)
            full[support] = candidate
            best_ratio, best_f = ratio, full
    return best_ratio, best_f, evaluations


def _search_h_operator(
    mu: Measure, operator: str, starts: int, seed: int, max_iter: int
) -> tuple[float, np.ndarray | None, int]:
    from scipy import optimize

    w = mu.prob_table()
    support = w > 0.0
    ws = w[support]
    rng = np.random.default_rng(seed)
    dim = mu.space.size
    if dim > 4096:
        raise DomainError("h-operator search supported only on small spaces")

    def neg_log_ratio(f: np.ndarray) -> float:
        norm = np.linalg.norm(f)
        if norm <= _TINY:
            return 1e6
        f = f / norm
        denom = 2.0 * gamma_squared_mean(mu, f, operator)
        ent = _entropy(ws, f[support] ** 2)
        if denom <= _TINY or ent <= _TINY:
            return 1e6
        return -math.log(ent / denom)

    best_ratio, best_f, evaluations = 0.0, None, 0
    for s in range(starts):
        point = rng.standard_normal(dim)
        res = optimize.minimize(
            neg_log_ratio, point, method="Nelder-Mead",
            options={"maxiter": max_iter, "xatol": 1e-10, "fatol": 1e-12},
        )
        evaluations += int(res.nfev)
        if res.fun < 1e6:
            ratio = math.exp(-res.fun)
            if ratio > best_ratio:
                best_ratio, best_f = ratio, res.x / np.linalg.norm(res.x)
    return best_ratio, best_f, evaluations


def lsi_constant_search(
    mu: Measure,
    operator: str = "d",
    starts: int = 32,
    seed: int = 0,
    max_iter: int = 500,
) -> LsiReport:
    """Multi-start ascent of the defining ratio over function tables.

    The ratio is scale-invariant, so candidates are normalized; the report is a
    lower bound on the optimal constant.
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
    rng = np.random.default_rng(seed)
    w = mu.prob_table()
    support = w > 0.0
    ws = w[support]
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(mu.space.size)
        denom = 2.0 * gamma_squared_mean(mu, f, "h")
        if denom <= _TINY:
            continue
        worst = max(worst, _entropy(ws, f[support] ** 2) / denom)
    return worst


@dataclass
class Psi2Row:
    p: float
    sigma2: float
    psi2_value: float
    orlicz_moment_estimate: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "sigma2": self.sigma2,
            "psi2_value": self.psi2_value,
            "orlicz_moment_estimate": self.orlicz_moment_estimate,
        }


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
