"""Evaluable function representations, Fourier-Walsh analysis and formal gradients.

Six function kinds share one interface: tabulated values, multilinear
polynomials (symmetric coefficient tensors vanishing on the generalized
diagonal), quadratic forms (the degree-2 polynomials, given by their matrix),
U-statistics with a symmetric kernel, suprema of finite families, and
vector-valued chaos with an l2 or linf norm on R^m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .schema import array, choice, dispatch, document, field, integer, list_of, matrix, reads, vector
from .space import Measure, ProductMeasure, ProductSpace, enumeration_blocks
from .tensors import check_symmetric, check_zero_diagonal, op_norm, op_norm_batch


class FunctionSpec:
    """Base class: a deterministic function of a configuration."""

    kind = "abstract"

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        """Values at a (k, n) batch of configurations of `space`, one per row.

        The one evaluation method each kind implements; the views below call it.
        """
        raise NotImplementedError

    def evaluate_on(self, space: ProductSpace, x: Sequence[float]) -> float:
        """The value at one configuration: a one-row view of evaluate_rows."""
        return float(self.evaluate_rows(space, np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def evaluate_table(self, space: ProductSpace) -> np.ndarray:
        """Values over the enumeration, evaluated block by block
        (`enumeration_blocks`); a row's value does not depend on its batch."""
        return np.concatenate([self.evaluate_rows(space, block) for block in enumeration_blocks(space)])

    def check_space(self, space: ProductSpace) -> None:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass
class Tabulated(FunctionSpec):
    """Function given by its value at every configuration, in enumeration order."""

    values: np.ndarray
    kind = "table"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        self.check_space(space)
        return self.values[space.digit_rows(rows) @ np.asarray(space.strides)]

    def evaluate_table(self, space: ProductSpace) -> np.ndarray:
        self.check_space(space)
        return self.values.astype(float)

    def check_space(self, space: ProductSpace) -> None:
        if self.values.shape != (space.size,):
            raise DimensionMismatchError(
                f"table has {self.values.shape} values for a space of size {space.size}"
            )

    def to_json(self) -> dict:
        return {"kind": "table", "values": self.values.tolist()}


@dataclass
class MultilinearPoly(FunctionSpec):
    """f(x) = sum_k sum over ordered distinct k-tuples of a^k_{i1..ik} x_{i1}...x_{ik}.

    Coefficient tensors are symmetric with zero generalized diagonal, so the
    contraction over all index tuples equals the sum over distinct tuples.
    """

    tensors: dict[int, np.ndarray]
    kind = "poly"

    def __post_init__(self):
        clean: dict[int, np.ndarray] = {}
        dim = None
        for k, t in sorted(self.tensors.items()):
            t = np.asarray(t, dtype=float)
            if t.ndim != k:
                raise DomainError(f"coefficient tensor for order {k} has ndim {t.ndim}")
            if dim is None:
                dim = t.shape[0]
            if t.shape != (dim,) * k:
                raise DomainError(f"coefficient tensor for order {k} has shape {t.shape}")
            check_symmetric(t, f"order-{k} coefficient tensor")
            check_zero_diagonal(t, f"order-{k} coefficient tensor")
            clean[k] = t
        if not clean:
            raise DomainError("a multilinear polynomial needs at least one coefficient tensor")
        self.tensors = clean
        self.dim = dim
        self._slopes: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    @property
    def degree(self) -> int:
        return max(self.tensors)

    def monomial_tensor(self, k: int) -> np.ndarray:
        """S_k, the sum of the k! axis orders of the order-k coefficient tensor.

        Its entry at distinct indices (i1, ..., ik) is the coefficient of the
        monomial x_i1 ... x_ik in f, k! a^k_{i1..ik} for an exactly symmetric
        tensor, and its generalized diagonal is 0.  Entry [i, j1, ..., j(k-1)]
        adds the k! entries in one fixed order: position of i, then the orders
        of the rest.  Summing the entries, not scaling one, keeps it the
        monomial's coefficient for tensors that are symmetric only to the
        tolerance `check_symmetric` allows.
        """
        t = self.tensors[k]
        total = np.zeros_like(t)
        for position in range(k):
            moved = np.moveaxis(t, position, 0)
            for order in permutations(range(1, k)):
                total += moved.transpose((0,) + order)
        return total

    def slope_terms(self, i: int) -> list[tuple[float, tuple[int, ...]]]:
        """Coordinate i's slope s_i(x) = df/dx_i as its nonzero monomials.

        Monomial (c, (j1, ..., j(k-1))) is c * x_j1 * ... * x_j(k-1) over
        j1 < ... < j(k-1), where c = S_k[i, j1, ..., j(k-1)], the sum of the
        k! entries of a^k at the orders of (i, j1, ..., j(k-1))
        (`monomial_tensor`).  The list is ordered by k, then
        lexicographically.  With a zero generalized diagonal, f is affine in
        x_i with slope s_i(x), which does not involve x_i: the values of f at
        letters a and b of coordinate i differ by (a - b) * s_i(x).

        The monomials of every coordinate are found on the first call and
        kept as arrays, 16 bytes a monomial (a dense order-2 term at n = 1024
        has a million); the list is built from them on each call.
        """
        if not self._slopes:
            self._slopes = {j: [] for j in range(self.dim)}
            for k in self.tensors:
                coef = self.monomial_tensor(k)
                # Lexicographic, so grouped by coordinate.
                nonzero = np.argwhere(coef)
                nonzero = nonzero[(np.diff(nonzero[:, 1:], axis=1) > 0).all(axis=1)]
                cuts = np.searchsorted(nonzero[:, 0], np.arange(1, self.dim))
                coefs = np.split(coef[tuple(nonzero.T)], cuts)
                for j, c, indices in zip(range(self.dim), coefs, np.split(nonzero[:, 1:], cuts)):
                    self._slopes[j].append((c, indices))
        return [term for coefs, indices in self._slopes[i]
                for term in zip(coefs.tolist(), map(tuple, indices.tolist()))]

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        self.check_space(space)
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"polynomial on {self.dim} variables evaluated at {rows.shape[1]} coordinates"
            )
        out = np.zeros(rows.shape[0])
        for t in self.tensors.values():
            out += _contract_poly_term(t, rows)
        return out

    def check_space(self, space: ProductSpace) -> None:
        if space.n != self.dim:
            raise DimensionMismatchError(
                f"polynomial on {self.dim} variables, space has {space.n} coordinates"
            )

    def to_json(self) -> dict:
        return {
            "kind": "poly",
            "coefficients": [
                {"order": k, "tensor": t.tolist()} for k, t in sorted(self.tensors.items())
            ],
        }


# Bytes of the (rows, n^(k-1)) intermediate of one contraction chunk.  A
# dense cubic at n = 24 takes 4.5 KiB a row, so one 8 MiB enumeration block
# in a single chunk would make a 200 MiB intermediate.
_CONTRACTION_CHUNK_BYTES = 1 << 20


def _contract_poly_term(tensor: np.ndarray, configs: np.ndarray) -> np.ndarray:
    """sum over all index tuples of a_{i1..ik} x_{i1}...x_{ik}, one value per row.

    One axis at a time: the tensor's leading axis against each row, giving a
    (rows, n^(k-1)) partial result, then k - 1 times the leading axis of each
    row's partial result against that row.  The rows go in chunks whose
    intermediate holds about `_CONTRACTION_CHUNK_BYTES`.  Every step is a
    two-operand einsum, which sums a row in the same order whatever its batch
    or chunk; matmul and tensordot go through BLAS, which does not.  A
    k-operand einsum would instead multiply all n^k entries for every row.
    Order 1 is the one einsum it has always been.
    """
    k = tensor.ndim
    if k == 1:
        return np.einsum("a,za->z", tensor, configs)
    chunk = max(1, _CONTRACTION_CHUNK_BYTES // (8 * tensor[0].size))
    out = np.empty(len(configs))
    for start in range(0, len(configs), chunk):
        rows = configs[start:start + chunk]
        contracted = np.einsum("zi,i...->z...", rows, tensor)
        for _ in range(k - 2):
            contracted = np.einsum("zi,zi...->z...", rows, contracted)
        np.einsum("zi,zi->z", rows, contracted, out=out[start:start + chunk])
    return out


class QuadraticForm(MultilinearPoly):
    """f(x) = x^T A x for a symmetric matrix A with zero diagonal: the degree-2
    polynomial with coefficient tensor A, given by its matrix."""

    kind = "quadform"

    def __init__(self, matrix: np.ndarray):
        super().__init__({2: matrix})


# Rows per U-statistic gather block: bounds the (rows, n, n) kernel blocks of
# order 2 at about 4.7 MiB for n = 24, the widest binary space under the cap.
_USTAT_ROW_BLOCK = 1 << 10


@dataclass
class UStatistic(FunctionSpec):
    """f(X) = sum over d-subsets {i1 < ... < id} of h(X_{i1}, ..., X_{id}).

    The kernel is tabulated over alphabet indices of a shared per-coordinate
    alphabet and must be symmetric in its arguments, so each unordered tuple
    contributes once.  (Summing over ordered tuples instead would scale f by
    d! and break the per-entry difference bound C(d,k) 2^k B n^(d-k) by a
    factor of k!.)
    """

    order: int
    kernel: np.ndarray
    kind = "ustat"

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=float)
        if self.kernel.ndim != self.order:
            raise DomainError(f"kernel has ndim {self.kernel.ndim}, expected {self.order}")
        m = self.kernel.shape[0]
        if self.kernel.shape != (m,) * self.order:
            raise DomainError("kernel table must be hypercubic over the alphabet")
        check_symmetric(self.kernel, "U-statistic kernel")

    @property
    def bound(self) -> float:
        """B = max |h| over all arguments."""
        return float(np.abs(self.kernel).max())

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        self.check_space(space)
        digits = space.digit_rows(rows)
        out = np.empty(len(digits))
        for start in range(0, len(digits), _USTAT_ROW_BLOCK):
            out[start:start + _USTAT_ROW_BLOCK] = self._kernel_sums(digits[start:start + _USTAT_ROW_BLOCK])
        return out

    def _kernel_sums(self, g: np.ndarray) -> np.ndarray:
        """f at a (rows, n) block of alphabet indices.

        Orders 1 and 2 sum whole kernel gathers per row.  Higher orders add
        one vector gather per d-subset, in `combinations` order, so each row
        is the same left-to-right sum as a scalar loop over its subsets.
        """
        d = self.order
        if d == 1:
            return self.kernel[g].sum(axis=1)
        if d == 2:
            blocks = self.kernel[g[:, :, None], g[:, None, :]]
            return (blocks.sum(axis=(1, 2)) - np.trace(blocks, axis1=1, axis2=2)) / 2.0
        total = np.zeros(len(g))
        for combo in combinations(range(g.shape[1]), d):
            total += self.kernel[tuple(g[:, i] for i in combo)]
        return total

    def check_space(self, space: ProductSpace) -> None:
        if space.n <= self.order - 1:
            raise DimensionMismatchError(
                f"U-statistic of order {self.order} needs more than {self.order - 1} coordinates"
            )
        first = space.alphabets[0]
        if any(a != first for a in space.alphabets):
            raise DimensionMismatchError("U-statistics require a shared alphabet")
        if len(first) != self.kernel.shape[0]:
            raise DimensionMismatchError(
                f"kernel over alphabet of size {self.kernel.shape[0]}, space uses {len(first)}"
            )

    def to_json(self) -> dict:
        return {"kind": "ustat", "order": self.order, "kernel": self.kernel.tolist()}


@dataclass
class SupFamily(FunctionSpec):
    """g(x) = sup over a finite family of |f(x)|."""

    members: tuple[FunctionSpec, ...]
    kind = "sup"

    def __post_init__(self):
        if len(self.members) == 0:
            raise DomainError("a supremum family needs at least one member")
        self.members = tuple(self.members)

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        stacked = np.stack([np.abs(m.evaluate_rows(space, rows)) for m in self.members])
        return stacked.max(axis=0)

    def check_space(self, space: ProductSpace) -> None:
        for m in self.members:
            m.check_space(space)

    def to_json(self) -> dict:
        return {"kind": "sup", "members": [m.to_json() for m in self.members]}


_CHAOS_NORMS = ("l2", "linf")


@dataclass
class VectorChaos(FunctionSpec):
    """f(x) = || sum over d-subsets I of x_I t_I || with t_I in R^m.

    Supported norms on R^m: l2 (Euclidean) and linf.
    """

    order: int
    dim: int
    coefficients: dict[tuple[int, ...], np.ndarray]
    norm: str = "l2"
    kind = "chaos"

    def __post_init__(self):
        if self.norm not in _CHAOS_NORMS:
            raise DomainError(f"unsupported norm {self.norm!r}; use one of {_CHAOS_NORMS}")
        clean = {}
        m = None
        for subset, vec in self.coefficients.items():
            subset = tuple(sorted(int(i) for i in subset))
            if len(set(subset)) != self.order:
                raise DomainError(f"coefficient subset {subset} is not a {self.order}-subset")
            if any(i < 0 or i >= self.dim for i in subset):
                raise DomainError(f"subset {subset} outside range(0, {self.dim})")
            vec = np.asarray(vec, dtype=float)
            if m is None:
                m = vec.size
            if vec.shape != (m,) or m == 0:
                raise DomainError("all coefficient vectors must share one positive dimension")
            clean[subset] = vec
        if not clean:
            raise DomainError("a vector chaos needs at least one coefficient")
        self.coefficients = clean
        self.codim = m

    def vector_batch(self, configs: np.ndarray) -> np.ndarray:
        """sum over subsets I of x_I t_I at each row of `configs`: shape (rows, codim)."""
        configs = np.atleast_2d(np.asarray(configs, dtype=float))
        if configs.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"chaos over {self.dim} variables evaluated at {configs.shape[1]} coordinates"
            )
        out = np.zeros((len(configs), self.codim))
        for subset, vec in self.coefficients.items():
            out += math.prod(configs[:, i] for i in subset)[:, None] * vec
        return out

    def evaluate_rows(self, space: ProductSpace, rows: np.ndarray) -> np.ndarray:
        self.check_space(space)
        vectors = self.vector_batch(rows)
        if self.norm == "l2":
            return np.linalg.norm(vectors, axis=1)
        return np.abs(vectors).max(axis=1)

    def check_space(self, space: ProductSpace) -> None:
        if space.n != self.dim:
            raise DimensionMismatchError(
                f"chaos over {self.dim} variables, space has {space.n} coordinates"
            )

    def to_json(self) -> dict:
        return {
            "kind": "chaos",
            "order": self.order,
            "dim": self.dim,
            "norm": self.norm,
            "coefficients": [
                {"subset": list(s), "vector": v.tolist()}
                for s, v in sorted(self.coefficients.items())
            ],
        }


def function_table(f, space: ProductSpace) -> np.ndarray:
    """Values of f over the enumeration of `space`: a FunctionSpec's table, or
    a given table (any array-like) after checking its shape."""
    if isinstance(f, FunctionSpec):
        return f.evaluate_table(space)
    table = np.asarray(f, dtype=float)
    if table.shape != (space.size,):
        raise DomainError(f"table has shape {table.shape}, expected ({space.size},)")
    return table


_COEFFICIENTS = ("coefficients", list_of(document))
FUNCTION_KINDS = {
    "table": reads(Tabulated, ("values", vector)),
    "poly": reads(
        lambda items: MultilinearPoly({field(c, "order", integer(1)): field(c, "tensor", array()) for c in items}),
        _COEFFICIENTS,
    ),
    "quadform": reads(QuadraticForm, ("matrix", matrix)),
    "ustat": reads(UStatistic, ("order", integer(1)), ("kernel", array())),
    "sup": reads(lambda members: SupFamily(tuple(map(function_from_json, members))), ("members", list_of(document))),
    "chaos": reads(
        lambda order, dim, items, norm: VectorChaos(order, dim, {
            tuple(field(c, "subset", array((None,), int)).tolist()): field(c, "vector", vector) for c in items
        }, norm),
        ("order", integer(1)), ("dim", integer(1)), _COEFFICIENTS, ("norm", choice(*_CHAOS_NORMS), "l2"),
    ),
}


def function_from_json(doc: dict) -> FunctionSpec:
    return dispatch(doc, FUNCTION_KINDS, "function")


# ---------------------------------------------------------------------------
# Fourier-Walsh analysis on the hypercube
# ---------------------------------------------------------------------------

FOURIER_MAX_N = 20


@dataclass
class FourierSpectrum:
    """Coefficients over subset masks plus the per-order weights W_j."""

    n: int
    coefficients: np.ndarray  # indexed by subset mask, bit (n-1-i) <-> coordinate i

    def coefficient(self, subset: Sequence[int]) -> float:
        mask = 0
        for i in subset:
            mask |= 1 << (self.n - 1 - i)
        return float(self.coefficients[mask])

    def weights(self) -> np.ndarray:
        """W_j = sum of squared coefficients over subsets of size j, j = 0..n."""
        w = np.zeros(self.n + 1)
        np.add.at(w, _subset_sizes(self.n), self.coefficients**2)
        return w

    def reconstruct(self) -> np.ndarray:
        """Table of the function the spectrum expands, in enumeration order."""
        signed = self.coefficients * _parity_signs(self.n)
        return _fwht(signed)


def _subset_sizes(n: int) -> np.ndarray:
    """popcount(mask) for every mask < 2^n: each added bit appends the sizes so far plus one."""
    sizes = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


def _parity_signs(n: int) -> np.ndarray:
    return np.where(_subset_sizes(n) % 2 == 0, 1.0, -1.0)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform: out[s] = sum_b a[b] * (-1)^popcount(s & b)."""
    a = a.astype(float).copy()
    h = 1
    size = a.size
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bottom = a[:, 0, :] - a[:, 1, :]
        a = np.stack([top, bottom], axis=1).reshape(size)
        h *= 2
    return a


def _require_hypercube(space: ProductSpace) -> None:
    if any(a != (-1.0, 1.0) for a in space.alphabets):
        raise DomainError("Fourier-Walsh analysis requires alphabets (-1, +1)")
    if space.n > FOURIER_MAX_N:
        raise DomainError(f"n={space.n} exceeds the Fourier transform limit {FOURIER_MAX_N}")


def fourier_transform(f, space: ProductSpace) -> FourierSpectrum:
    """Exact Fourier-Walsh coefficients of f on {-1,+1}^n under the uniform measure.

    With the enumeration convention (-1 before +1), configuration index b has
    x_i = +1 iff bit (n-1-i) of b is set, so the transform reduces to a
    Walsh-Hadamard transform with a parity sign per subset.
    """
    _require_hypercube(space)
    table = function_table(f, space)
    coeffs = _fwht(table) * _parity_signs(space.n) / space.size
    return FourierSpectrum(space.n, coeffs)


def spectrum_from_coefficients(n: int, entries: dict[tuple[int, ...], float]) -> FourierSpectrum:
    coeffs = np.zeros(1 << n)
    for subset, value in entries.items():
        mask = 0
        for i in subset:
            if not 0 <= i < n:
                raise DomainError(f"coordinate {i} outside range(0, {n})")
            mask |= 1 << (n - 1 - i)
        coeffs[mask] = value
    return FourierSpectrum(n, coeffs)


# ---------------------------------------------------------------------------
# Formal gradient tensors of multilinear polynomials
# ---------------------------------------------------------------------------


def _falling_factorial(m: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= m - j
    return out


def gradient_tensor_at(poly: MultilinearPoly, k: int, x: Sequence[float]) -> np.ndarray:
    """The k-tensor of order-k partial derivatives of the polynomial at x.

    Because every coefficient tensor vanishes on the generalized diagonal,
    contracting the trailing axes with x over the full index range equals the
    sum over distinct completion indices.
    """
    if k > poly.degree:
        raise DomainError(f"order {k} exceeds polynomial degree {poly.degree}")
    x = np.asarray(x, dtype=float)
    if x.size != poly.dim:
        raise DimensionMismatchError("gradient evaluated at a point of the wrong dimension")
    out = np.zeros((poly.dim,) * k)
    for m, tensor in poly.tensors.items():
        if m < k:
            continue
        contracted = tensor
        for _ in range(m - k):
            contracted = np.tensordot(contracted, x, axes=([contracted.ndim - 1], [0]))
        out += _falling_factorial(m, k) * contracted
    return out


def expected_gradient_tensor(poly: MultilinearPoly, k: int, mu: Measure) -> np.ndarray:
    """Entrywise expectation of the order-k gradient tensor under mu.

    The gradient is linear in the products x^{(x)j}, so its expectation is
    the sum over m >= k of m!/(m-k)! T_m contracted on its last j = m - k
    axes with the moment tensor M_j = E X^{(x)j}.  A measure that is not a product
    accumulates each M_j over the enumeration blocks, so T_m is contracted
    once instead of once per configuration.
    """
    if k > poly.degree:
        raise DomainError(f"order {k} exceeds polynomial degree {poly.degree}")
    if isinstance(mu, ProductMeasure):
        # Independent coordinates with distinct-index products: moments factorize.
        means = [float(np.dot(mu.tables[i], mu.space.value_grid(i))) for i in range(mu.space.n)]
        return gradient_tensor_at(poly, k, means)
    top = poly.degree - k
    probs = mu.prob_table()
    moments = [0.0] * (top + 1)
    start = 0
    for block in enumeration_blocks(mu.space):
        rows = len(block)
        # Row z of `power` holds w_z x_z^{(x)(j-1)}, flattened.
        power = probs[start:start + rows, None]
        start += rows
        moments[0] += power.sum()
        for j in range(1, top + 1):
            moments[j] = moments[j] + (power.T @ block).reshape((poly.dim,) * j)
            if j < top:
                power = (power[:, :, None] * block[:, None, :]).reshape(rows, -1)
    out = np.zeros((poly.dim,) * k)
    for m, tensor in poly.tensors.items():
        if m >= k:
            contracted = np.tensordot(tensor, moments[m - k], axes=(list(range(k, m)), list(range(m - k))))
            out += _falling_factorial(m, k) * contracted
    return out


# ---------------------------------------------------------------------------
# Chaos sensitivity tensors feeding the uniform bounds
# ---------------------------------------------------------------------------


def chaos_gradient_field(chaos: VectorChaos, k: int, x: Sequence[float]) -> np.ndarray:
    """R^m-valued k-tensor of derivative directions of the chaos at x.

    Entry (i1..ik) is the sum over (d-k)-subsets I avoiding i1..ik of
    x_I t_{I + {i1..ik}}, symmetrized over the k slots; shape (n,)*k + (m,).
    """
    if not 1 <= k <= chaos.order:
        raise DomainError(f"order {k} outside 1..{chaos.order} for this chaos")
    x = np.asarray(x, dtype=float)
    n = chaos.dim
    out = np.zeros((n,) * k + (chaos.codim,))
    for subset, vec in chaos.coefficients.items():
        for chosen in permutations(subset, k):
            rest = tuple(i for i in subset if i not in chosen)
            weight = math.prod(float(x[i]) for i in rest)
            out[chosen] += weight * vec
    return out


def chaos_w(chaos: VectorChaos, k: int, x: Sequence[float], restarts: int = 16, seed: int = 0) -> float:
    """W_k at x: the operator-type supremum over unit direction vectors and the dual ball."""
    field_ = chaos_gradient_field(chaos, k, x)
    if chaos.norm == "l2":
        # The l2 dual ball is the Euclidean ball: one extra contraction axis.
        return op_norm(field_, restarts=restarts, seed=seed).value
    # linf dual ball: extreme points are +/- coordinate vectors, so take the
    # largest operator norm among the codim components.
    components = np.moveaxis(field_, -1, 0)
    return float(op_norm_batch(components, restarts=restarts, seed=seed).max())


def chaos_w_tilde(chaos: VectorChaos, k: int, x: Sequence[float], restarts: int = 16, seed: int = 0) -> float:
    """W~_k at x: the Banach norm is applied entrywise before the direction supremum."""
    field_ = chaos_gradient_field(chaos, k, x)
    if chaos.norm == "l2":
        entrywise = np.linalg.norm(field_, axis=-1)
    else:
        entrywise = np.abs(field_).max(axis=-1)
    return op_norm(entrywise, restarts=restarts, seed=seed).value
