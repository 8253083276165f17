"""Difference operators: coordinate oscillations, one-sided parts, higher-order
difference tensors, the conditional-standard-deviation operator, and aggregated
norm profiles feeding the tail bounds.

Suprema over resampled coordinates range over the coordinate's marginal
support (for Gibbs measures: the full declared alphabet), matching laws of an
independent copy of the underlying vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Sequence

import numpy as np

from .errors import DomainError, EnumerationTooLargeError
from .funcs import FunctionSpec, evaluator
from .space import ENUMERATION_CAP, Measure
from .tensors import op_norm_batch

H_VARIANTS = ("osc", "plus", "minus")


def _support_values(mu: Measure, i: int) -> np.ndarray:
    idx = mu.coordinate_support(i)
    return mu.space.value_grid(i)[idx]


def _section_values(f, mu: Measure, x: Sequence[float], i: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of f along coordinate i's support with the other coordinates frozen at x."""
    values = _support_values(mu, i)
    rows = np.tile(np.asarray(x, dtype=float), (values.size, 1))
    rows[:, i] = values
    ev = evaluator(f, mu.space) if isinstance(f, FunctionSpec) else f
    return values, np.array([float(ev(row)) for row in rows])


def h_component(f, mu: Measure, x: Sequence[float], i: int, variant: str = "osc") -> float:
    """One coordinate of the difference operators at x.

    osc: max over support pairs of |f(x_{i^c}, a) - f(x_{i^c}, b)|; constant in x_i.
    plus/minus: max over resampled values of the positive/negative part of
    f(x) - f(x_{i^c}, a); these depend on the actual x_i.
    """
    if variant not in H_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; use one of {H_VARIANTS}")
    if not 0 <= i < mu.space.n:
        raise DomainError(f"coordinate {i} outside range(0, {mu.space.n})")
    _, section = _section_values(f, mu, x, i)
    if variant == "osc":
        return float(section.max() - section.min())
    ev = evaluator(f, mu.space) if isinstance(f, FunctionSpec) else f
    here = float(ev(np.asarray(x, dtype=float)))
    if variant == "plus":
        return max(here - float(section.min()), 0.0)
    return max(float(section.max()) - here, 0.0)


def h_vector(f, mu: Measure, x: Sequence[float], variant: str = "osc") -> np.ndarray:
    return np.array([h_component(f, mu, x, i, variant) for i in range(mu.space.n)])


def _pair_difference(arr: np.ndarray, axis: int) -> np.ndarray:
    """Replace one axis by the two-axis array of pairwise differences along it."""
    a = np.expand_dims(arr, axis + 1)
    b = np.expand_dims(arr, axis)
    return a - b


def _tensor_cap_check(mu: Measure, combo: tuple[int, ...]) -> None:
    prod_size = math.prod(mu.space.shape[i] for i in combo)
    if prod_size**2 > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"assignment grid for coordinates {combo} exceeds the enumeration cap"
        )


def h_tensor(f, mu: Measure, x: Sequence[float], k: int) -> np.ndarray:
    """Order-k difference tensor at x: dense (n,)*k array, symmetric, zero diagonal.

    Entry (i1..ik) is the maximum over all assignments of the originals and
    primes of the 2k involved coordinates (each ranging over its support) of
    the alternating-sign expansion of prod_s (Id - T_{i_s}) f; coordinates
    outside the index set stay frozen at x.
    """
    if k < 1:
        raise DomainError("tensor order must be >= 1")
    space = mu.space
    n = space.n
    ev = evaluator(f, space) if isinstance(f, FunctionSpec) else f
    x = np.asarray(x, dtype=float)
    out = np.zeros((n,) * k)
    for combo in combinations(range(n), k):
        _tensor_cap_check(mu, combo)
        supports = [_support_values(mu, i) for i in combo]
        grid_shape = tuple(s.size for s in supports)
        values = np.empty(grid_shape)
        for assignment in product(*(range(m) for m in grid_shape)):
            row = x.copy()
            for slot, i in enumerate(combo):
                row[i] = supports[slot][assignment[slot]]
            values[assignment] = float(ev(row))
        for axis in range(k - 1, -1, -1):
            values = _pair_difference(values, axis)
        entry = float(np.abs(values).max())
        for perm in permutations(range(k)):
            out[tuple(combo[p] for p in perm)] = entry
    return out


def _support_index_sets(mu: Measure) -> list[np.ndarray]:
    return [np.asarray(mu.coordinate_support(i), dtype=np.intp) for i in range(mu.space.n)]


def h_osc_field(f_table: np.ndarray, mu: Measure) -> np.ndarray:
    """Oscillation of every coordinate at every configuration, shape (size, n)."""
    space = mu.space
    F = np.asarray(f_table, dtype=float).reshape(space.shape)
    supports = _support_index_sets(mu)
    out = np.empty((space.size, space.n))
    for i in range(space.n):
        sub = np.take(F, supports[i], axis=i)
        osc = sub.max(axis=i, keepdims=True) - sub.min(axis=i, keepdims=True)
        out[:, i] = np.broadcast_to(osc, space.shape).reshape(-1)
    return out


def h_plus_field(f_table: np.ndarray, mu: Measure) -> np.ndarray:
    """Positive-part component of every coordinate at every configuration."""
    space = mu.space
    F = np.asarray(f_table, dtype=float).reshape(space.shape)
    supports = _support_index_sets(mu)
    out = np.empty((space.size, space.n))
    for i in range(space.n):
        sub = np.take(F, supports[i], axis=i)
        low = sub.min(axis=i, keepdims=True)
        plus = np.maximum(F - np.broadcast_to(low, space.shape), 0.0)
        out[:, i] = plus.reshape(-1)
    return out


def h_minus_field(f_table: np.ndarray, mu: Measure) -> np.ndarray:
    space = mu.space
    F = np.asarray(f_table, dtype=float).reshape(space.shape)
    supports = _support_index_sets(mu)
    out = np.empty((space.size, space.n))
    for i in range(space.n):
        sub = np.take(F, supports[i], axis=i)
        high = sub.max(axis=i, keepdims=True)
        minus = np.maximum(np.broadcast_to(high, space.shape) - F, 0.0)
        out[:, i] = minus.reshape(-1)
    return out


def h_tensor_field(f_table: np.ndarray, mu: Measure, k: int) -> np.ndarray:
    """Order-k difference tensors at every configuration, shape (size,) + (n,)*k.

    Each entry depends on the configuration only through the coordinates
    outside its index set, so the maxima are computed once per section and
    broadcast back over the configuration axis.
    """
    if k < 1:
        raise DomainError("tensor order must be >= 1")
    space = mu.space
    n = space.n
    F = np.asarray(f_table, dtype=float).reshape(space.shape)
    supports = _support_index_sets(mu)
    out = np.zeros((space.size,) + (n,) * k)
    for combo in combinations(range(n), k):
        _tensor_cap_check(mu, combo)
        sub = F
        for i in combo:
            sub = np.take(sub, supports[i], axis=i)
        for axis_pos in sorted(combo, reverse=True):
            sub = _pair_difference(sub, axis_pos)
        # After doubling, each combo coordinate occupies two adjacent axes.
        doubled_axes = []
        offset = 0
        for i in range(n):
            if i in combo:
                doubled_axes.extend([i + offset, i + offset + 1])
                offset += 1
        entry = np.abs(sub).max(axis=tuple(doubled_axes))
        # Broadcast the per-section entry over the collapsed combo axes.
        expanded = entry
        for i in combo:
            expanded = np.expand_dims(expanded, i)
        expanded = np.broadcast_to(expanded, space.shape).reshape(-1)
        for perm in permutations(combo):
            out[(slice(None),) + perm] = expanded
    return out


def d_operator(f, mu: Measure, x: Sequence[float]) -> tuple[np.ndarray, float]:
    """Per-coordinate conditional standard deviations and their Euclidean length."""
    space = mu.space
    ev = evaluator(f, space) if isinstance(f, FunctionSpec) else f
    x = np.asarray(x, dtype=float)
    parts = np.empty(space.n)
    for i in range(space.n):
        cond = mu.conditional(x, i)
        grid = space.value_grid(i)
        rows = np.tile(x, (grid.size, 1))
        rows[:, i] = grid
        vals = np.array([float(ev(r)) for r in rows])
        mean = float(np.dot(cond, vals))
        var = float(np.dot(cond, (vals - mean) ** 2))
        parts[i] = math.sqrt(max(var, 0.0))
    return parts, float(np.linalg.norm(parts))


def d_squared_field(f_table: np.ndarray, mu: Measure) -> np.ndarray:
    """|d f|^2 at every configuration of an exactly summable measure, shape (size,).

    Sections of zero marginal mass get zero (they never meet the support).
    """
    space = mu.space
    F = np.asarray(f_table, dtype=float).reshape(space.shape)
    W = mu.prob_table().reshape(space.shape)
    total = np.zeros(space.shape)
    for i in range(space.n):
        mass = W.sum(axis=i, keepdims=True)
        safe = np.where(mass > 0.0, mass, 1.0)
        cond = np.where(mass > 0.0, W / safe, 0.0)
        mean = (cond * F).sum(axis=i, keepdims=True)
        var = (cond * (F - mean) ** 2).sum(axis=i, keepdims=True)
        total += np.broadcast_to(var, space.shape)
    return total.reshape(-1)


@dataclass
class NormProfile:
    """Norms of the difference tensors of one function: gamma[k-1] holds the
    level-k scale, the top level being an essential supremum."""

    d: int
    gamma: tuple[float, ...]
    mode: str = "exact"
    stderr: tuple[float, ...] | None = None
    sup_is_lower_estimate: bool = False

    def __post_init__(self):
        if len(self.gamma) != self.d:
            raise DomainError(f"profile of depth {self.d} needs {self.d} levels")
        if any(g < 0 for g in self.gamma):
            raise DomainError("norm profile levels must be nonnegative")

    def to_json(self) -> dict:
        doc = {"d": self.d, "gamma": list(self.gamma), "mode": self.mode}
        if self.stderr is not None:
            doc["stderr"] = list(self.stderr)
        if self.sup_is_lower_estimate:
            doc["sup_is_lower_estimate"] = True
        return doc

    @staticmethod
    def from_json(doc: dict) -> "NormProfile":
        return NormProfile(
            int(doc["d"]),
            tuple(float(g) for g in doc["gamma"]),
            doc.get("mode", "exact"),
            tuple(doc["stderr"]) if "stderr" in doc else None,
            bool(doc.get("sup_is_lower_estimate", False)),
        )


def norm_profile(
    f,
    mu: Measure,
    d: int,
    mode: str = "exact",
    samples: np.ndarray | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> NormProfile:
    """gamma[k] = E |h^(k) f|_op for k < d and the support supremum at k = d.

    Exact mode enumerates the space; Monte Carlo mode evaluates the tensors at
    caller-provided sample configurations, reports standard errors, and flags
    the top level as a lower estimate (a max over sampled points).
    """
    if d < 1:
        raise DomainError("profile depth must be >= 1")
    if mode == "exact":
        mu.space.check_cap()
        table = f.evaluate_table(mu.space) if isinstance(f, FunctionSpec) else np.asarray(f, dtype=float)
        w = mu.prob_table()
        support = w > 0.0
        gammas = []
        for k in range(1, d + 1):
            field_ = h_tensor_field(table, mu, k)[support]
            norms = op_norm_batch(field_, restarts=restarts, seed=seed)
            if k < d:
                gammas.append(float(np.dot(w[support], norms)))
            else:
                gammas.append(float(norms.max()))
        return NormProfile(d, tuple(gammas), mode="exact")
    if mode != "monte_carlo":
        raise DomainError(f"unknown mode {mode!r}")
    if samples is None or len(samples) == 0:
        raise DomainError("monte_carlo mode needs sample configurations")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    gammas: list[float] = []
    errors: list[float] = []
    for k in range(1, d + 1):
        tensors = np.stack([h_tensor(f, mu, row, k) for row in samples])
        norms = op_norm_batch(tensors, restarts=restarts, seed=seed)
        if k < d:
            gammas.append(float(norms.mean()))
            errors.append(float(norms.std(ddof=1) / math.sqrt(norms.size)) if norms.size > 1 else 0.0)
        else:
            gammas.append(float(norms.max()))
            errors.append(0.0)
    return NormProfile(
        d, tuple(gammas), mode="monte_carlo", stderr=tuple(errors), sup_is_lower_estimate=True
    )
