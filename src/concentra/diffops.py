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
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .errors import DomainError, EnumerationTooLargeError
from .funcs import FunctionSpec, function_table
from .schema import Record, boolean, choice, floats, integer, reads
from .space import ENUMERATION_CAP, Measure
from .tensors import op_norm_batch

H_VARIANTS = ("osc", "plus", "minus")


def _check_variant(variant: str) -> None:
    if variant not in H_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; use one of {H_VARIANTS}")


def _support_values(mu: Measure, i: int) -> np.ndarray:
    idx = mu.coordinate_support(i)
    return mu.space.value_grid(i)[idx]


def _support_index_sets(mu: Measure) -> list[np.ndarray]:
    return [np.asarray(mu.coordinate_support(i), dtype=np.intp) for i in range(mu.space.n)]


# Section kernel: the only code that turns function values into operator values.
# Each helper reduces some axes of a section array and keeps the others, so the
# fields apply it to a whole table and the pointwise operators to the sections
# through their points, each section grid evaluated in one evaluate_rows call.


def _h_reduce(section: np.ndarray, here, axis: int, variant: str) -> np.ndarray:
    """h^variant along `axis` of `section`, given f at the configuration itself.

    osc: max - min over the section; constant along the axis.
    plus/minus: the positive part of f(x) - min, or of max - f(x).
    """
    if variant == "osc":
        return section.max(axis=axis, keepdims=True) - section.min(axis=axis, keepdims=True)
    if variant == "plus":
        return np.maximum(here - section.min(axis=axis, keepdims=True), 0.0)
    return np.maximum(section.max(axis=axis, keepdims=True) - here, 0.0)


def _pair_difference(arr: np.ndarray, axis: int) -> np.ndarray:
    """Replace one axis by the two-axis array of pairwise differences along it."""
    a = np.expand_dims(arr, axis + 1)
    b = np.expand_dims(arr, axis)
    return a - b


def _combo_entries(section: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Max over all (original, prime) assignments along `axes` of the
    alternating-sign expansion prod_s (Id - T_s) f; the other axes are kept."""
    axes = sorted(axes)
    for axis in reversed(axes):
        section = _pair_difference(section, axis)
    # After doubling, the j-th index axis occupies positions axis + j and axis + j + 1.
    doubled = tuple(p for j, axis in enumerate(axes) for p in (axis + j, axis + j + 1))
    return np.abs(section).max(axis=doubled)


def _conditional_variance(cond: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Variance of `values` along `axis` under the weights `cond`."""
    mean = (cond * values).sum(axis=axis, keepdims=True)
    return (cond * (values - mean) ** 2).sum(axis=axis, keepdims=True)


def _tensor_cap_check(mu: Measure, combo: tuple[int, ...]) -> None:
    prod_size = math.prod(mu.space.shape[i] for i in combo)
    if prod_size**2 > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"assignment grid for coordinates {combo} exceeds the enumeration cap"
        )


def h_field(f_table: np.ndarray, mu: Measure, variant: str = "osc") -> np.ndarray:
    """Every coordinate of h^variant (osc, plus or minus) at every configuration,
    shape (size, n); a batch of tables, shape (..., size), gives (..., size, n)."""
    _check_variant(variant)
    space = mu.space
    table = np.asarray(f_table, dtype=float)
    lead = table.shape[:-1]
    F = table.reshape(lead + space.shape)
    supports = _support_index_sets(mu)
    out = np.empty(lead + (space.size, space.n))
    for i in range(space.n):
        axis = len(lead) + i
        part = _h_reduce(np.take(F, supports[i], axis=axis), F, axis, variant)
        out[..., i] = np.broadcast_to(part, F.shape).reshape(lead + (space.size,))
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
        entry = _combo_entries(sub, combo)
        # Broadcast the per-section entry over the collapsed combo axes.
        expanded = entry
        for i in combo:
            expanded = np.expand_dims(expanded, i)
        expanded = np.broadcast_to(expanded, space.shape).reshape(-1)
        for perm in permutations(combo):
            out[(slice(None),) + perm] = expanded
    return out


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
        total += np.broadcast_to(_conditional_variance(cond, F, i), space.shape)
    return total.reshape(-1)


def _local_sections(f: FunctionSpec, mu: Measure, x, coords, grids) -> tuple[float, list[np.ndarray]]:
    """f at x, and f along each coordinate's grid with the others frozen at x."""
    x = np.asarray(x, dtype=float)
    bounds = np.cumsum([1] + [g.size for g in grids])
    rows = np.tile(x, (int(bounds[-1]), 1))
    for i, grid, start in zip(coords, grids, bounds):
        rows[start:start + grid.size, i] = grid
    values = f.evaluate_rows(mu.space, rows)
    return values[0], np.split(values, bounds)[1:-1]


def _h_at(f: FunctionSpec, mu: Measure, x: Sequence[float], coords: Sequence[int], variant: str) -> np.ndarray:
    _check_variant(variant)
    here, sections = _local_sections(f, mu, x, coords, [_support_values(mu, i) for i in coords])
    return np.array([_h_reduce(section, here, 0, variant)[0] for section in sections])


def h_component(f: FunctionSpec, mu: Measure, x: Sequence[float], i: int, variant: str = "osc") -> float:
    """One coordinate of the difference operators at x.

    osc: max over support pairs of |f(x_{i^c}, a) - f(x_{i^c}, b)|; constant in x_i.
    plus/minus: max over resampled values of the positive/negative part of
    f(x) - f(x_{i^c}, a); these depend on the actual x_i.
    """
    if not 0 <= i < mu.space.n:
        raise DomainError(f"coordinate {i} outside range(0, {mu.space.n})")
    return float(_h_at(f, mu, x, [i], variant)[0])


def h_vector(f: FunctionSpec, mu: Measure, x: Sequence[float], variant: str = "osc") -> np.ndarray:
    return _h_at(f, mu, x, range(mu.space.n), variant)


def _h_tensors(f: FunctionSpec, mu: Measure, points: np.ndarray, k: int) -> np.ndarray:
    """Order-k difference tensors at each row of `points`, shape (len(points),) + (n,)*k.

    f is evaluated once per index combination, on the product grid of the
    combination's supports around every point.
    """
    if k < 1:
        raise DomainError("tensor order must be >= 1")
    space = mu.space
    n = space.n
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points),) + (n,) * k)
    for combo in combinations(range(n), k):
        _tensor_cap_check(mu, combo)
        supports = [_support_values(mu, i) for i in combo]
        grid = np.stack(np.meshgrid(*supports, indexing="ij"), axis=-1).reshape(-1, k)
        rows = np.repeat(points[:, None, :], len(grid), axis=1)
        rows[:, :, list(combo)] = grid
        values = f.evaluate_rows(space, rows.reshape(-1, n))
        values = values.reshape((len(points),) + tuple(s.size for s in supports))
        entry = _combo_entries(values, range(1, k + 1))
        for perm in permutations(combo):
            out[(slice(None),) + perm] = entry
    return out


def h_tensor(f: FunctionSpec, mu: Measure, x: Sequence[float], k: int) -> np.ndarray:
    """Order-k difference tensor at x: dense (n,)*k array, symmetric, zero diagonal.

    Entry (i1..ik) is the maximum over all assignments of the originals and
    primes of the 2k involved coordinates (each ranging over its support) of
    the alternating-sign expansion of prod_s (Id - T_{i_s}) f; coordinates
    outside the index set stay frozen at x.
    """
    return _h_tensors(f, mu, [x], k)[0]


def d_operator(f: FunctionSpec, mu: Measure, x: Sequence[float]) -> tuple[np.ndarray, float]:
    """Per-coordinate conditional standard deviations and their Euclidean length."""
    space = mu.space
    x = np.asarray(x, dtype=float)
    coords = range(space.n)
    conds = [mu.conditional(x, i) for i in coords]
    _, sections = _local_sections(f, mu, x, coords, [space.value_grid(i) for i in coords])
    var = np.array([_conditional_variance(c, s, 0)[0] for c, s in zip(conds, sections)])
    parts = np.sqrt(np.maximum(var, 0.0))
    return parts, float(np.linalg.norm(parts))


@dataclass
class NormProfile(Record):
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
        if not all(g >= 0 for g in self.gamma):
            raise DomainError("norm profile levels must be nonnegative")

    @staticmethod
    def from_json(doc: dict) -> "NormProfile":
        return reads(
            NormProfile, ("d", integer(1)), ("gamma", floats), ("mode", choice("exact", "monte_carlo"), "exact"),
            ("stderr", floats, None), ("sup_is_lower_estimate", boolean, False),
        )(doc)


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
        table = function_table(f, mu.space)
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
    gammas: list[float] = []
    errors: list[float] = []
    for k in range(1, d + 1):
        norms = op_norm_batch(_h_tensors(f, mu, samples, k), restarts=restarts, seed=seed)
        if k < d:
            gammas.append(float(norms.mean()))
            errors.append(float(norms.std(ddof=1) / math.sqrt(norms.size)) if norms.size > 1 else 0.0)
        else:
            gammas.append(float(norms.max()))
            errors.append(0.0)
    return NormProfile(
        d, tuple(gammas), mode="monte_carlo", stderr=tuple(errors), sup_is_lower_estimate=True
    )
