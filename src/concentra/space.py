"""Finite product spaces, measures on them, conditionals and exact integral functionals.

Configurations are ordered lexicographically with respect to the per-coordinate
alphabet order, coordinate 0 most significant.  All exact functionals operate on
flat numpy tables aligned with that enumeration order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainError,
    EnumerationTooLargeError,
    UndefinedConditionalError,
    SchemaError,
)
from .schema import dispatch, document, field, floats, integer, list_of, vector

if TYPE_CHECKING:
    from .funcs import MultilinearPoly

ENUMERATION_CAP = 1 << 24
# `enumeration_blocks` yields blocks of at most about this many bytes of
# configurations.
ENUMERATION_BLOCK_BYTES = 1 << 23
# Largest space that `enumerate_configurations` writes column by column.
# Measured on {-1,+1}^n, one core: the columns and the halves tie near 2^13
# configurations (0.26 against 0.28 ms); at 2^14 the halves take 0.46 ms
# against 0.91, at 2^16 1.6 against 6.8, and at 2^20 80 against 374.
ENUMERATION_COLUMN_LIMIT = 1 << 13

# A configuration is a point of the product space, one value per coordinate.
Configuration = tuple[float, ...]


@dataclass(frozen=True)
class ProductSpace:
    """Product of finite real alphabets, one per coordinate.

    Parameters
    ----------
    alphabets : tuple of tuples of float
        Per-coordinate value lists.  Each list must be nonempty with distinct
        values; the given order fixes the enumeration order.
    """

    alphabets: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.alphabets) == 0:
            raise DomainError("a product space needs at least one coordinate")
        for i, alphabet in enumerate(self.alphabets):
            if len(alphabet) == 0:
                raise DomainError(f"alphabet {i} is empty")
            if len(set(alphabet)) != len(alphabet):
                raise DomainError(f"alphabet {i} has repeated values")

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    @cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * self.shape[i + 1]
        return tuple(strides)

    def digit_of(self, i: int, value: float) -> int:
        """Index of `value` inside alphabet i."""
        try:
            return self.alphabets[i].index(value)
        except ValueError:
            raise DomainError(f"value {value!r} not in alphabet {i}") from None

    def digits_of(self, values: Sequence[float]) -> np.ndarray:
        if len(values) != self.n:
            raise DomainError(f"configuration has {len(values)} coordinates, expected {self.n}")
        return np.array([self.digit_of(i, v) for i, v in enumerate(values)], dtype=np.intp)

    def digit_rows(self, values: np.ndarray) -> np.ndarray:
        """Alphabet indices of a batch of configurations, one row per configuration."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.n:
            raise DomainError(f"configurations have shape {values.shape}, expected (k, {self.n})")
        digits = np.empty(values.shape, dtype=np.intp)
        for i in range(self.n):
            grid = self.value_grid(i)
            order = np.argsort(grid)
            pos = np.searchsorted(grid, values[:, i], sorter=order).clip(max=len(grid) - 1)
            digits[:, i] = order[pos]
            missing = grid[digits[:, i]] != values[:, i]
            if missing.any():
                raise DomainError(f"value {float(values[missing, i][0])!r} not in alphabet {i}")
        return digits

    def value_rows(self, digits: np.ndarray) -> np.ndarray:
        """The configurations of a (k, n) batch of alphabet indices: `digit_rows` inverted."""
        values = np.empty(digits.shape)
        for i in range(self.n):
            values[:, i] = self.value_grid(i)[digits[:, i]]
        return values

    def index_of(self, values: Sequence[float]) -> int:
        """Flat enumeration index of a configuration given by its values."""
        digits = self.digits_of(values)
        return int(np.dot(digits, self.strides))

    def configuration(self, index: int) -> tuple[float, ...]:
        """Configuration values at a flat enumeration index."""
        out = []
        for i in range(self.n):
            digit = (index // self.strides[i]) % self.shape[i]
            out.append(self.alphabets[i][digit])
        return tuple(out)

    def value_grid(self, i: int) -> np.ndarray:
        return np.asarray(self.alphabets[i], dtype=float)

    def check_cap(self, cap: int = ENUMERATION_CAP) -> None:
        if self.size > cap:
            raise EnumerationTooLargeError(
                f"{self.size} configurations exceed the enumeration cap {cap}"
            )

    def to_json(self) -> dict:
        return {"n": self.n, "alphabets": [list(a) for a in self.alphabets]}

    @staticmethod
    def from_json(doc: dict) -> "ProductSpace":
        space = ProductSpace(tuple(field(doc, "alphabets", list_of(floats))))
        if field(doc, "n", integer(1), space.n) != space.n:
            raise SchemaError(f"declared n={doc['n']} does not match {space.n} alphabets")
        return space


def hypercube(n: int) -> ProductSpace:
    """The space {-1,+1}^n with alphabets ordered (-1, +1)."""
    return ProductSpace(tuple((-1.0, 1.0) for _ in range(n)))


def binary(n: int) -> ProductSpace:
    """The space {0,1}^n with alphabets ordered (0, 1)."""
    return ProductSpace(tuple((0.0, 1.0) for _ in range(n)))


def enumerate_configurations(space: ProductSpace, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All configurations in lexicographic order, one row per configuration.

    Above ENUMERATION_COLUMN_LIMIT configurations, every pair of a row of the
    leading half of the coordinates and a row of the trailing half, each
    half enumerated in turn; below it, one strided column per coordinate.
    """
    space.check_cap(cap)
    if space.size > ENUMERATION_COLUMN_LIMIT and space.n > 1:
        lead = space.n // 2
        head = enumerate_configurations(ProductSpace(space.alphabets[:lead]))
        tail = enumerate_configurations(ProductSpace(space.alphabets[lead:]))
        rows = np.empty((space.size, space.n))
        pairs = rows.reshape(len(head), len(tail), space.n)
        pairs[:, :, :lead] = head[:, None]
        pairs[:, :, lead:] = tail[None]
        return rows
    if space.size == 1:
        return np.array([[a[0] for a in space.alphabets]], dtype=float)
    columns = np.empty((space.size, space.n), dtype=float)
    for i in range(space.n):
        grid = space.value_grid(i)
        reps_inner = space.strides[i]
        reps_outer = space.size // (reps_inner * space.shape[i])
        columns[:, i] = np.tile(np.repeat(grid, reps_inner), reps_outer)
    return columns


def enumeration_blocks(space: ProductSpace) -> Iterator[np.ndarray]:
    """`enumerate_configurations` as consecutive blocks of rows, so that no
    caller holds every configuration at once.

    A block fixes the leading coordinates and runs the trailing ones through
    their own enumeration: as few trailing coordinates as keep a block within
    ENUMERATION_BLOCK_BYTES, and at least the last.  A space that fits is one
    block, `enumerate_configurations` itself.
    """
    space.check_cap()
    row_bytes = 8 * space.n
    lead = next((i for i in range(space.n)
                 if space.strides[i] * space.shape[i] * row_bytes <= ENUMERATION_BLOCK_BYTES), space.n - 1)
    if lead == 0:
        yield enumerate_configurations(space)
        return
    tail = enumerate_configurations(ProductSpace(space.alphabets[lead:]))
    for start in range(0, space.size, len(tail)):
        block = np.empty((len(tail), space.n))
        block[:, :lead] = space.configuration(start)[:lead]
        block[:, lead:] = tail
        yield block


def _letter_sum(w: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of a (pre, m, post) array, added letter by letter in
    alphabet order, with that axis kept.

    Every normalisation of a section, one section (`conditional`) or all of
    them (`section_conditionals`), sums with it, so the two agree bit for bit
    at every alphabet size.
    """
    total = w[:, 0].copy()
    for j in range(1, w.shape[1]):
        total += w[:, j]
    return total[:, None]


def _softmax(logw: np.ndarray) -> np.ndarray:
    """Normalised exponential over axis 1 of a (pre, m, post) array, shifted
    by the maximum of each section, letter by letter as in `_letter_sum`."""
    shift = logw[:, 0]
    for j in range(1, logw.shape[1]):
        shift = np.maximum(shift, logw[:, j])
    w = logw - shift[:, None]
    np.exp(w, out=w)
    w /= _letter_sum(w)
    return w


def _axis_indices(space: ProductSpace, base_digits: np.ndarray, i: int) -> np.ndarray:
    """Flat indices of the section through `base_digits` along coordinate i."""
    base = int(np.dot(base_digits, space.strides)) - base_digits[i] * space.strides[i]
    return base + np.arange(space.shape[i]) * space.strides[i]


class Measure:
    """Base class: a probability measure on a ProductSpace."""

    kind = "abstract"

    def __init__(self, space: ProductSpace):
        self.space = space

    def prob_table(self) -> np.ndarray:
        """Probability of every configuration, in enumeration order."""
        raise NotImplementedError

    def conditional(self, x: Sequence[float], i: int) -> np.ndarray:
        """Conditional distribution of coordinate i given the other coordinates of x."""
        raise NotImplementedError

    def section_conditionals(self) -> Iterator[np.ndarray]:
        """For each coordinate i in turn, `conditional(x, i)` on every section
        along i, with the same arithmetic as `conditional`.

        Coordinate i's array broadcasts to `space.shape`, with the letters on
        axis i: broadcast there, its entry at the digits of x with letter j
        on axis i is letter j's probability on the section through x.  An
        axis of size 1 is one the conditionals do not depend on, so a measure
        yields only its distinct sections: a polynomial Gibbs measure's vary
        along the coordinates of site i's monomials, a product measure's
        along axis i alone.  Yielded one coordinate at a time to bound
        memory."""
        raise NotImplementedError

    def coordinate_support(self, i: int) -> np.ndarray:
        """Alphabet indices of coordinate i carrying positive marginal mass."""
        raise NotImplementedError

    def support_mask(self) -> np.ndarray:
        return self.prob_table() > 0.0

    def to_exact(self) -> "ExactMeasure":
        return ExactMeasure(self.space, self.prob_table())

    def measure_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        doc = self.space.to_json()
        doc["measure"] = self.measure_json()
        return doc


class ExactMeasure(Measure):
    """Measure given by an explicit probability table over all configurations."""

    kind = "exact"

    def __init__(self, space: ProductSpace, table: np.ndarray):
        super().__init__(space)
        table = np.asarray(table, dtype=float)
        if table.shape != (space.size,):
            raise DomainError(f"table has shape {table.shape}, expected ({space.size},)")
        if not np.all(np.isfinite(table)) or np.any(table < 0):
            raise DomainError("probability table has negative or non-finite entries")
        if abs(float(table.sum()) - 1.0) > 1e-12:
            raise DomainError(f"probability table sums to {table.sum()!r}, not 1")
        self.table = table

    def prob_table(self) -> np.ndarray:
        return self.table

    def conditional(self, x: Sequence[float], i: int) -> np.ndarray:
        digits = self.space.digits_of(x)
        idx = _axis_indices(self.space, digits, i)
        slice_ = self.table[idx]
        mass = _letter_sum(slice_.reshape(1, -1, 1)).item()
        if mass <= 0.0:
            raise UndefinedConditionalError(
                f"section through {tuple(x)} along coordinate {i} has zero marginal mass"
            )
        return slice_ / mass

    def section_conditionals(self) -> Iterator[np.ndarray]:
        for m, stride in zip(self.space.shape, self.space.strides):
            sections = self.table.reshape(-1, m, stride)
            # Zero-mass sections become NaN; a chain started on the support
            # never visits them.
            with np.errstate(invalid="ignore"):
                yield (sections / _letter_sum(sections)).reshape(self.space.shape)

    def coordinate_support(self, i: int) -> np.ndarray:
        marg = self.table.reshape(self.space.shape)
        axes = tuple(j for j in range(self.space.n) if j != i)
        marginal = marg.sum(axis=axes) if axes else marg
        return np.nonzero(marginal > 0.0)[0]

    def measure_json(self) -> dict:
        return {"kind": "exact", "table": self.table.tolist()}


class ProductMeasure(Measure):
    """Product of per-coordinate probability tables."""

    kind = "product"

    def __init__(self, space: ProductSpace, tables: Sequence[np.ndarray]):
        super().__init__(space)
        if len(tables) != space.n:
            raise DomainError(f"{len(tables)} marginal tables for {space.n} coordinates")
        clean = []
        for i, t in enumerate(tables):
            t = np.asarray(t, dtype=float)
            if t.shape != (space.shape[i],):
                raise DomainError(f"marginal {i} has shape {t.shape}, expected ({space.shape[i]},)")
            if not np.all(np.isfinite(t)) or np.any(t < 0):
                raise DomainError(f"marginal {i} has negative or non-finite entries")
            if abs(float(t.sum()) - 1.0) > 1e-12:
                raise DomainError(f"marginal {i} sums to {t.sum()!r}, not 1")
            clean.append(t)
        self.tables = tuple(clean)
        self._table: np.ndarray | None = None

    def prob_table(self) -> np.ndarray:
        if self._table is None:
            self.space.check_cap()
            table = self.tables[0]
            for t in self.tables[1:]:
                table = np.multiply.outer(table, t)
            self._table = table.reshape(-1)
        return self._table

    def conditional(self, x: Sequence[float], i: int) -> np.ndarray:
        # Independence: conditioning leaves the marginal unchanged.
        self.space.digits_of(x)
        return self.tables[i].copy()

    def section_conditionals(self) -> Iterator[np.ndarray]:
        n = self.space.n
        for i, t in enumerate(self.tables):
            yield t.reshape((1,) * i + (-1,) + (1,) * (n - i - 1))

    def coordinate_support(self, i: int) -> np.ndarray:
        return np.nonzero(self.tables[i] > 0.0)[0]

    def measure_json(self) -> dict:
        return {"kind": "product", "tables": [t.tolist() for t in self.tables]}


class GibbsMeasure(Measure):
    """Measure given by a log-weight over configurations, normalized on demand.

    `log_weights` is either a `funcs.MultilinearPoly` or a callable mapping a
    (k, n) batch of configurations to their k log-weights; a row's value must
    not depend on the other rows of its batch.  All declared alphabet values
    are treated as support.

    A polynomial's rows go through its `evaluate_rows`, and its conditionals
    come from its slopes (`MultilinearPoly.slope_terms`): coordinate i's
    log-weights on a section are a * s_i(x) over the letters a, up to a
    constant.  A callable's conditionals come from its log-weight rows.
    """

    kind = "gibbs"

    def __init__(self, space: ProductSpace,
                 log_weights: MultilinearPoly | Callable[[np.ndarray], np.ndarray]):
        from .funcs import MultilinearPoly  # funcs builds on this module

        super().__init__(space)
        self._poly = log_weights if isinstance(log_weights, MultilinearPoly) else None
        if self._poly is not None:
            self._poly.check_space(space)
            log_weights = partial(self._poly.evaluate_rows, space)
        self._log_weights = log_weights
        self._table: np.ndarray | None = None

    def log_weights(self, configs: np.ndarray) -> np.ndarray:
        out = np.asarray(self._log_weights(np.atleast_2d(np.asarray(configs, dtype=float))), dtype=float)
        if not np.isfinite(out).all():
            raise DomainError("log-weight is not finite on the declared space")
        return out

    def _enumerated_log_weights(self) -> np.ndarray:
        """`log_weights` of every configuration, in enumeration order.

        Evaluated in batches of 1024 configurations of each enumeration
        block, which bounds the temporaries of a batch log-weight (an ERGM's
        motif products take rows x embeddings x edges floats); a row's value
        does not depend on its batch.
        """
        batch = 1 << 10
        return np.concatenate([
            self.log_weights(configs[s:s + batch])
            for configs in enumeration_blocks(self.space) for s in range(0, len(configs), batch)
        ])

    def prob_table(self) -> np.ndarray:
        if self._table is None:
            logw = self._enumerated_log_weights()
            logw -= logw.max()
            w = np.exp(logw)
            self._table = w / w.sum()
        return self._table

    def conditional(self, x: Sequence[float], i: int) -> np.ndarray:
        values = np.asarray(x, dtype=float).tolist()
        alphabets = self.space.alphabets
        if len(values) != len(alphabets) or not all(v in a for v, a in zip(values, alphabets)):
            self.space.digits_of(values)  # raises DomainError, naming the fault
        grid = self.space.value_grid(i)
        if self._poly is None:
            rows = np.repeat(np.asarray(values)[None], len(grid), axis=0)
            rows[:, i] = grid
            logw = self.log_weights(rows)
        else:
            # s_i(x), its monomials added in order as `section_conditionals` adds them
            slope = 0.0
            for term, idx in self._poly.slope_terms(i):
                for j in idx:
                    term *= values[j]
                slope += term
            logw = grid * slope
        return _softmax(logw.reshape(1, -1, 1)).reshape(-1)

    def section_conditionals(self) -> Iterator[np.ndarray]:
        if self._poly is None:
            logw = self._enumerated_log_weights()
            for m, stride in zip(self.space.shape, self.space.strides):
                yield _softmax(logw.reshape(-1, m, stride)).reshape(self.space.shape)
            return
        # Each value grid along its own axis of the space's shape.  A slope
        # varies only along the coordinates of its monomials, so it and the
        # softmax are computed once per distinct section, which broadcasts
        # over the others: every entry is the same arithmetic as
        # `conditional`'s.
        shape = self.space.shape
        n = self.space.n
        grids = [self.space.value_grid(j).reshape((1,) * j + (-1,) + (1,) * (n - j - 1)) for j in range(n)]
        for i, m in enumerate(shape):
            terms = self._poly.slope_terms(i)
            involved = {j for _, idx in terms for j in idx}
            slope = np.zeros(tuple(shape[j] if j in involved else 1 for j in range(n)))
            for term, idx in terms:
                for j in idx:
                    term = term * grids[j]
                slope += term
            logw = grids[i] * slope
            yield _softmax(logw.reshape(math.prod(logw.shape[:i]), m, -1)).reshape(logw.shape)

    def coordinate_support(self, i: int) -> np.ndarray:
        return np.arange(self.space.shape[i])

    def support_mask(self) -> np.ndarray:
        return np.ones(self.space.size, dtype=bool)

    def measure_json(self) -> dict:
        return {"kind": "gibbs", "log_weights": self._enumerated_log_weights().tolist()}


def _gibbs_from_json(doc: dict, space: ProductSpace) -> GibbsMeasure:
    logw = field(doc, "log_weights", vector)
    if logw.shape != (space.size,):
        raise SchemaError(f"log_weights has shape {logw.shape}, expected ({space.size},)")

    return GibbsMeasure(space, lambda rows: logw[space.digit_rows(rows) @ np.asarray(space.strides)])


MEASURE_KINDS = {
    "exact": lambda doc, space: ExactMeasure(space, field(doc, "table", vector)),
    "product": lambda doc, space: ProductMeasure(space, field(doc, "tables", list_of(vector))),
    "gibbs": _gibbs_from_json,
}


def measure_from_json(doc: dict) -> Measure:
    space = ProductSpace.from_json(doc)
    return dispatch(field(doc, "measure", document), MEASURE_KINDS, "measure", space)


def uniform(space: ProductSpace) -> ProductMeasure:
    return ProductMeasure(
        space, [np.full(m, 1.0 / m) for m in space.shape]
    )


def rademacher(n: int) -> ProductMeasure:
    return uniform(hypercube(n))


def bernoulli_product(n: int, p: float) -> ProductMeasure:
    """Product Bernoulli(p) on {0,1}^n; P(x_i = 1) = p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0,1]")
    return ProductMeasure(binary(n), [np.array([1.0 - p, p])] * n)


def two_point_measure(p: float) -> ExactMeasure:
    """The measure p*delta_1 + (1-p)*delta_0 on the single coordinate {0,1}."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p={p} outside (0,1)")
    return ExactMeasure(binary(1), np.array([1.0 - p, p]))


def entropy_functional(mu: Measure, g) -> float:
    """Ent(g) = E g log g - (E g) log(E g) for nonnegative g, with 0 log 0 = 0."""
    from .funcs import function_table  # funcs builds on this module

    table = function_table(g, mu.space)
    w = mu.prob_table()
    support = w > 0.0
    vals = table[support]
    if np.any(vals < 0.0):
        raise DomainError("entropy functional requires g >= 0 on the support")
    return float(_entropy(w[support], vals))


def _entropy(weights: np.ndarray, g: np.ndarray):
    """Ent(g) of each row of g >= 0, given the support weights, one table or one
    per row: E g · E[r log r - r + 1] with r = g / E g.

    Every term is >= 0 and the form is stationary in E g, so it keeps its
    relative accuracy near constant g, where E g log g - E g log E g cancels.
    g and the weights are made C-contiguous, so each row is summed in one order
    whatever its batch: numpy sums a Fortran-ordered batch column by column, one
    row pairwise.
    """
    g = np.ascontiguousarray(g, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    mean = (weights * g).sum(axis=-1) / weights.sum(axis=-1)
    safe = np.where(mean > 0.0, mean, 1.0)
    r = g / np.expand_dims(safe, -1)
    log_r = np.log(r, out=np.zeros_like(r), where=r > 0.0)
    return mean * (weights * (r * log_r - (r - 1.0))).sum(axis=-1)


def lp_norm(mu: Measure, f, p: float, centered: bool = True) -> float:
    """(E |f - [centered] E f|^p)^(1/p) by exact summation."""
    if p < 1.0:
        raise DomainError(f"p={p} < 1")
    from .funcs import function_table  # funcs builds on this module

    table = function_table(f, mu.space)
    w = mu.prob_table()
    shift = float(np.dot(w, table)) if centered else 0.0
    dev = np.abs(table - shift)
    m = float(np.dot(w, dev**p))
    return m ** (1.0 / p)


def lp_norm_mc(f_samples: np.ndarray, p: float, center: float | None = None) -> tuple[float, float]:
    """Monte Carlo L^p norm from sampled function values; returns (estimate, standard error).

    `center` defaults to the sample mean.  The standard error is propagated
    through the 1/p power by the delta method.
    """
    if p < 1.0:
        raise DomainError(f"p={p} < 1")
    f_samples = np.asarray(f_samples, dtype=float)
    if f_samples.size == 0:
        raise DomainError("no samples")
    c = float(f_samples.mean()) if center is None else center
    dev = np.abs(f_samples - c) ** p
    m = float(dev.mean())
    se_m = float(dev.std(ddof=1) / math.sqrt(dev.size)) if dev.size > 1 else 0.0
    value = m ** (1.0 / p)
    se = se_m * value / (p * m) if m > 0 else se_m
    return value, se
