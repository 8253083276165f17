"""Difference operators: coordinate oscillations, one-sided parts, higher-order
difference tensors, the conditional-standard-deviation operator, and aggregated
norm profiles feeding the tail bounds.

Suprema over resampled coordinates range over the coordinate's marginal
support (for Gibbs measures: the full declared alphabet), matching laws of an
independent copy of the underlying vector.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, EnumerationTooLargeError
from .funcs import FunctionSpec, MultilinearPoly, function_table
from .schema import Record, boolean, choice, floats, integer, reads
from .space import ENUMERATION_CAP, Measure, ProductSpace
from .tensors import CONSTANT_LEVEL_TOL, op_norm_batch

H_VARIANTS = ("osc", "plus", "minus")


def _check_variant(variant: str) -> None:
    if variant not in H_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; use one of {H_VARIANTS}")


def _support_values(mu: Measure, i: int) -> np.ndarray:
    idx = mu.coordinate_support(i)
    return mu.space.value_grid(i)[idx]


def _support_index_sets(mu: Measure) -> list[np.ndarray | None]:
    """Each coordinate's support as alphabet indices, or None for the whole
    alphabet, where a section needs no copy."""
    sets = []
    for i, m in enumerate(mu.space.shape):
        idx = np.asarray(mu.coordinate_support(i), dtype=np.intp)
        sets.append(None if np.array_equal(idx, np.arange(m)) else idx)
    return sets


def _on_support(arr: np.ndarray, idx: np.ndarray | None, axis: int) -> np.ndarray:
    return arr if idx is None else np.take(arr, idx, axis=axis)


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
    """Replace one axis of length m by a (P, 1) doubled axis holding
    arr[p] - arr[q] for the P = m(m-1)/2 unordered pairs p < q.

    The ordered pairs add nothing to a max of absolute values: the diagonal
    is exactly 0, and in round-to-nearest (q, p) gives the exact negation of
    (p, q), as does every later difference of negated operands.  A one-value
    axis has no pair and keeps its diagonal 0.
    """
    m = arr.shape[axis]
    head = (slice(None),) * axis
    doubled = head + (slice(None), None)  # indexing with None adds the axis of length 1
    if m == 1:
        return np.zeros_like(arr)[doubled]
    if m == 2:
        return arr[head + (slice(0, 1), None)] - arr[head + (slice(1, 2), None)]
    p, q = np.triu_indices(m, 1)
    return (np.take(arr, p, axis=axis) - np.take(arr, q, axis=axis))[doubled]


def _doubled_max(diffs: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Max of |diffs| over the doubled axes of the sorted `axes`, every one
    of them pair-differenced; the other axes are kept."""
    # After doubling, the j-th index axis occupies positions axis + j and axis + j + 1.
    doubled = tuple(p for j, axis in enumerate(axes) for p in (axis + j, axis + j + 1))
    return np.abs(diffs).max(axis=doubled)


def _combo_entries(section: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Max over all (original, prime) assignments along `axes` of the
    alternating-sign expansion prod_s (Id - T_s) f; the other axes are kept."""
    axes = sorted(axes)
    for axis in reversed(axes):
        section = _pair_difference(section, axis)
    return _doubled_max(section, axes)


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
        part = _h_reduce(_on_support(F, supports[i], axis), F, axis, variant)
        out[..., i] = np.broadcast_to(part, F.shape).reshape(lead + (space.size,))
    return out


def _section_entries(f_table: np.ndarray, mu: Measure, k: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Each order-k index combination with its difference-tensor entry at every
    section, an array of space.shape without the combination's axes, yielded
    one at a time; a batch of tables, shape (..., size), gives entries of
    shape (...) + space.shape, the combination's axes still dropped.

    An entry depends on the configuration only through the coordinates outside
    its index set, so each is computed once per section.  The combinations
    are walked as a tree, largest axis first: a node's pair differences are
    its parent's, differenced along one smaller axis, which is the order
    `_combo_entries` takes, so every entry has the same bits, and the work of
    a shared prefix is done once.  One array is held per depth; the
    combinations come in colexicographic order.
    """
    if k < 1:
        raise DomainError("tensor order must be >= 1")
    space = mu.space
    table = np.asarray(f_table, dtype=float)
    lead = table.shape[:-1]
    F = table.reshape(lead + space.shape)
    supports = _support_index_sets(mu)
    for combo in combinations(range(space.n), k):
        _tensor_cap_check(mu, combo)

    def walk(diffs: np.ndarray, taken: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        if len(taken) == k:
            combo = taken[::-1]
            yield combo, _doubled_max(diffs, [len(lead) + i for i in combo])
            return
        # the next axis lies below the last one taken and leaves room for the rest
        for i in range(k - len(taken) - 1, taken[-1] if taken else space.n):
            axis = len(lead) + i
            yield from walk(_pair_difference(_on_support(diffs, supports[i], axis), axis), taken + (i,))

    return walk(F, ())


def h_tensor_field(f_table: np.ndarray, mu: Measure, k: int) -> np.ndarray:
    """Order-k difference tensors at every configuration, shape (size,) + (n,)*k:
    each section entry broadcast back over the configuration axis and written
    at every permutation of its combination.  A batch of tables, shape
    (T, size), gives (T, size) + (n,)*k, each table's field as it gets alone."""
    space = mu.space
    lead = np.shape(f_table)[:-1]
    entries = _section_entries(f_table, mu, k)
    out = np.zeros(lead + (space.size,) + (space.n,) * k)
    configurations = (slice(None),) * (len(lead) + 1)
    for combo, entry in entries:
        expanded = entry
        for i in combo:
            expanded = np.expand_dims(expanded, len(lead) + i)
        expanded = np.broadcast_to(expanded, lead + space.shape).reshape(lead + (space.size,))
        for perm in permutations(combo):
            out[configurations + perm] = expanded
    return out


def _pairwise_sum(terms: Iterator[np.ndarray], n: int, shape: tuple[int, ...]) -> np.ndarray:
    """The sum of the n `terms`, each broadcast to `shape`, added in the order
    numpy's pairwise summation takes along a contiguous row of n, so that
    every element has the bits of np.add.reduce over that row: below 8 one by
    one, otherwise in 8 partial sums, joined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by one.  numpy
    halves a row only above 128 entries, and a space has at most 64
    coordinates, one array axis each.  At most 9 arrays of `shape` are alive
    at once."""
    if n < 8:
        total = np.zeros(shape)
        for _ in range(n):
            total += next(terms)
        return total
    r = [np.broadcast_to(next(terms), shape).copy() for _ in range(8)]
    for _ in range(8, n - n % 8, 8):
        for j in range(8):
            r[j] += next(terms)
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        r[a] += r[b]
    for _ in range(n % 8):
        r[0] += next(terms)
    return r[0]


def _order_one_norms(entries: Iterator[tuple[tuple[int, ...], np.ndarray]], space: ProductSpace) -> np.ndarray:
    """|h^(1) f| at every configuration, shape (size,), from the order-1
    `_section_entries` of f, with the bits of
    `op_norm_batch(h_tensor_field(f_table, mu, 1))` and without its (size, n)
    field: the squared section entries are added coordinate by coordinate in
    the order np.add.reduce takes along a row of the field."""
    squares = (np.expand_dims(entry * entry, i) for (i,), entry in entries)
    return np.sqrt(_pairwise_sum(squares, space.n, space.shape)).reshape(space.size)


def _level_norms(f_table: np.ndarray, mu: Measure, k: int, support: np.ndarray,
                 restarts: int, seed: int) -> float | np.ndarray:
    """Operator norms of the order-k difference tensors at the `support`
    configurations, or one float when the level is constant.

    Every tensor lies entrywise in [lo, hi], the minima and maxima of each
    entry over its sections, and is nonnegative; the operator norm is monotone
    on nonnegative tensors, so each norm lies in [|hi|_op - |hi - lo|_F, |hi|_op].
    A spread of at most CONSTANT_LEVEL_TOL times |hi|_op makes the norm of hi
    the level, computed once: for k <= 2 it is exact, a certified upper end of
    every norm; for k >= 3 it is the ALS lower estimate of |hi|_op, which lies
    within that spread of every configuration's norm.  The spread is first
    held against |hi|_F >= |hi|_op, so a level that fails goes to its field
    without a norm of hi.  The entries are reduced as they are made, so the
    check holds one entry at a time.  At k = 1 the same pass also sums their
    squares into every configuration's norm (`_order_one_norms`, no field),
    which a constant level then discards; a level k >= 2 with real spread
    makes its entries anew, into its field.
    """
    hi = np.zeros((mu.space.n,) * k)
    lo = np.zeros_like(hi)

    def reduced() -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        for combo, entry in _section_entries(f_table, mu, k):
            extremes = entry.max(), entry.min()
            for perm in permutations(combo):
                hi[perm], lo[perm] = extremes
            yield combo, entry

    entries = reduced()
    norms = _order_one_norms(entries, mu.space) if k == 1 else None
    for _ in entries:  # every entry of a level k >= 2; none is left at k = 1
        pass
    spread = np.linalg.norm(hi - lo)
    if spread <= CONSTANT_LEVEL_TOL * np.linalg.norm(hi):
        top = float(op_norm_batch(hi[None], restarts=restarts, seed=seed)[0])
        if spread <= CONSTANT_LEVEL_TOL * top:
            return top
    if k == 1:
        return norms if support.all() else norms[support]
    field = h_tensor_field(f_table, mu, k)  # the public name: perfbench/tracing.py wraps it
    return op_norm_batch(field if support.all() else field[support], restarts=restarts, seed=seed)


def polynomial_level(f, mu: Measure, k: int) -> np.ndarray | None:
    """The order-k difference tensor of a `MultilinearPoly` f of degree
    k or less, the same at every configuration, from its coefficients; None
    for any other function or lower level, which the section kernel serves.

    At k = degree it is |S_k| times w^{(x)k} entrywise: S_k sums the k! axis
    orders of the order-k coefficient tensor (`MultilinearPoly.monomial_tensor`),
    and w_i is the range, max - min, of coordinate i's support letters, 0 for
    one letter.  Every level above the degree is 0.  f is multilinear in the
    letter values, and k differences cancel every term of order below k, so on
    any section prod_s (Id - T_s) f is prod_s (x_s - y_s) S_k[i1..ik]: its max
    over letter pairs is the entry above.  The kernel's entry is the same max
    taken over differences of the rounded table, so the two agree up to that
    rounding; the kernel's upper end hi sits a few ulps above.
    """
    if not isinstance(f, MultilinearPoly) or k < f.degree:
        return None
    f.check_space(mu.space)
    n = mu.space.n
    if k > f.degree:
        return np.zeros((n,) * k)
    widths = np.array([np.ptp(_support_values(mu, i)) for i in range(n)])
    level = np.abs(f.monomial_tensor(k))
    for axis in range(k):
        level *= widths.reshape((n,) + (1,) * (k - 1 - axis))
    return level


def _polynomial_norm(f, mu: Measure, k: int, restarts: int, seed: int) -> float | None:
    """The operator norm of `polynomial_level`, taken as the constant-level
    rule takes the norm of hi, or None where that has no closed form."""
    level = polynomial_level(f, mu, k)
    return None if level is None else float(op_norm_batch(level[None], restarts=restarts, seed=seed)[0])


def exact_level_scales(tables: Sequence[np.ndarray], mu: Measure, d: int, restarts: int, seed: int,
                       functions: Sequence | None = None) -> list[float]:
    """The exact scales of levels 1..d of the pointwise max over `tables` of the
    difference-tensor operator norms: the mean for k < d and the support
    supremum at k = d.  `functions`, when given, holds the function of each
    table: a level that `polynomial_level` gives from its coefficients is its
    one norm, and its table is not walked.  Every other level goes through the
    section kernel, where a constant level (`_level_norms`) is one norm too."""
    w = mu.prob_table()
    support = w > 0.0
    functions = [None] * len(tables) if functions is None else functions
    scales = []
    for k in range(1, d + 1):
        levels = []
        for f, t in zip(functions, tables):
            norm = _polynomial_norm(f, mu, k, restarts, seed)
            levels.append(_level_norms(t, mu, k, support, restarts, seed) if norm is None else norm)
        norms = functools.reduce(np.maximum, levels)
        if np.ndim(norms) == 0:
            scales.append(float(norms))
        else:
            scales.append(float(norms.max()) if k == d else float(np.dot(w[support], norms)))
    return scales


def d_squared_field(f_table: np.ndarray, mu: Measure) -> np.ndarray:
    """|d f|^2 at every configuration of an exactly summable measure, shape (size,);
    a batch of tables, shape (..., size), gives (..., size).

    Sections of zero marginal mass get zero (they never meet the support).
    """
    space = mu.space
    table = np.asarray(f_table, dtype=float)
    lead = table.shape[:-1]
    F = table.reshape(lead + space.shape)
    W = mu.prob_table().reshape(space.shape)
    total = np.zeros(F.shape)
    for i in range(space.n):
        mass = W.sum(axis=i, keepdims=True)
        safe = np.where(mass > 0.0, mass, 1.0)
        cond = np.where(mass > 0.0, W / safe, 0.0)
        total += np.broadcast_to(_conditional_variance(cond, F, len(lead) + i), F.shape)
    return total.reshape(lead + (space.size,))


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
    table: np.ndarray | None = None,
) -> NormProfile:
    """gamma[k] = E |h^(k) f|_op for k < d and the support supremum at k = d.

    In both modes a `MultilinearPoly` takes its levels from the degree up
    from its coefficients (`polynomial_level`), one tensor's norm each: exact
    for order <= 2, the ALS lower estimate for order >= 3, and 0 above the
    degree.  Exact mode enumerates the space for the other levels
    (`exact_level_scales`), walking f's values over it, `table` when the
    caller already holds them; a level that is one tensor at every
    configuration, up to rounding, is that tensor's norm, computed once
    (`_level_norms`): an upper end of every configuration's for order <= 2,
    the ALS lower estimate for order >= 3.  Monte Carlo mode evaluates the
    other levels' tensors at caller-provided sample configurations, needed
    only when such a level exists, reports standard errors (0 for a level
    from coefficients), and flags the top level as a lower estimate (a max
    over sampled points) unless it came from the coefficients.
    """
    if d < 1:
        raise DomainError("profile depth must be >= 1")
    if mode == "exact":
        mu.space.check_cap()
        table = function_table(f if table is None else table, mu.space)
        gammas = exact_level_scales([table], mu, d, restarts, seed, functions=[f])
        return NormProfile(d, tuple(gammas), mode="exact")
    if mode != "monte_carlo":
        raise DomainError(f"unknown mode {mode!r}")
    gammas: list[float] = []
    errors: list[float] = []
    for k in range(1, d + 1):
        norm = _polynomial_norm(f, mu, k, restarts, seed)
        if norm is not None:
            gammas.append(norm)
            errors.append(0.0)
            continue
        if samples is None or len(samples) == 0:
            raise DomainError("monte_carlo mode needs sample configurations")
        norms = op_norm_batch(_h_tensors(f, mu, samples, k), restarts=restarts, seed=seed)
        if k < d:
            gammas.append(float(norms.mean()))
            errors.append(float(norms.std(ddof=1) / math.sqrt(norms.size)) if norms.size > 1 else 0.0)
        else:
            gammas.append(float(norms.max()))
            errors.append(0.0)
    # `norm` is still level d's: None when its supremum was sampled.
    return NormProfile(
        d, tuple(gammas), mode="monte_carlo", stderr=tuple(errors), sup_is_lower_estimate=norm is None
    )
