"""Norms of dense tensors: Hilbert-Schmidt, operator norm, and partition norms.

The operator norm sup <v^1 x ... x v^d, A> over unit vectors is exact for
order <= 2: the Euclidean norm for vectors and the top singular value (from
`np.linalg.svd`) for matrices.  For order >= 3 it is NP-hard in general
(Hillar & Lim 2013), and one batched multi-start alternating maximization
(ALS, the higher-order power method of De Lathauwer, De Moor & Vandewalle
2000) serves every caller: with all but one axis fixed, the optimal vector is
the normalized contraction, so every sub-step is exact and the final
contraction value is a certified lower bound.  Multi-start makes that lower
bound reliable at desk scale.

Each tensor of an ALS batch leaves the active set once all its starts have
converged, so a tensor's result does not depend on the rest of its batch.
Each axis step contracts all other axes of the active tensors in
`_contract`: one batched matmul on a reshape of the batch (no transposed
copy), then two-operand einsums on the much smaller result.  A sweep of A
active order-k tensors with R starts costs about k*A*R*n1*...*nk
multiply-adds.  Its workspace is one block of about BLOCK_BYTES (the active
tensors are gathered block by block, never all at once) plus a few
(B, R, n_a) arrays, whatever the batch size B is.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_RESTARTS = 32
# Each tensor of an ALS run stops after SWEEPS sweeps, or earlier once each of
# its start values moved by at most TOL relative (absolute below 1) in a sweep.
SWEEPS = 200
TOL = 1e-9
# An exact norm-profile level of any order whose entrywise spread over the
# configurations, |hi - lo|_F, is at most this times |hi|_op is computed as the
# one tensor hi (diffops._level_norms).
CONSTANT_LEVEL_TOL = 1e-12
# `_contract` works through the batch in blocks whose first-stage product,
# (block, R, n1*...*nk / n_first) floats, and gathered tensors, if any, stay
# near this many bytes.
BLOCK_BYTES = 1 << 21


def hs_norm(tensor: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm: the Euclidean norm of all entries."""
    return float(np.linalg.norm(np.asarray(tensor, dtype=float).ravel()))


def check_symmetric(tensor: np.ndarray, what: str) -> None:
    """Raise unless `tensor` is invariant under every swap of axis 0, to
    `np.allclose` with rtol 1e-5 and atol 1e-12: each entry a may differ from
    its swapped entry b by 1e-12 + 1e-5 |b|."""
    for axis in range(1, tensor.ndim):
        perm = list(range(tensor.ndim))
        perm[0], perm[axis] = perm[axis], perm[0]
        if not np.allclose(tensor, tensor.transpose(perm), rtol=1e-5, atol=1e-12):
            raise DomainError(f"{what} is not symmetric")


def check_zero_diagonal(tensor: np.ndarray, what: str) -> None:
    """Raise unless every entry with a repeated index is exactly zero."""
    idx = np.indices(tensor.shape)
    repeated = np.zeros(tensor.shape, dtype=bool)
    for a in range(tensor.ndim):
        for b in range(a + 1, tensor.ndim):
            repeated |= idx[a] == idx[b]
    if np.any(tensor[repeated] != 0.0):
        raise DomainError(f"{what} has a nonzero (generalized) diagonal")


@dataclass
class OpNormResult:
    value: float
    vectors: tuple[np.ndarray, ...]
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        unit = np.zeros_like(v)
        unit[0] = 1.0
        return unit
    return v / norm


def _checked(tensors, restarts: int) -> np.ndarray:
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    return np.asarray(tensors, dtype=float)


@dataclass
class _AlsRun:
    values: np.ndarray  # (B, restarts): the norms of each tensor's last axis step
    vectors: list[np.ndarray]  # one (B, restarts, n_axis) array of unit vectors per axis
    sweeps: int  # the most sweeps any tensor ran
    converged: bool  # every tensor stopped before the SWEEPS cap


def _contract(
    tensors: np.ndarray, vectors: Sequence[np.ndarray], axis: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Contract a batch (B, n1, ..., nk) against (B, R, n_a) vectors on every axis but `axis`.

    Returns shape (B, R, n_axis), or (len(rows), R, n_axis) for the tensors
    `rows` of the batch alone.  The first stage is one batched matmul on a
    plain reshape of the batch: it contracts the first axis, or the last when
    `axis` is the first, in B*R*n1*...*nk multiply-adds.  (The first axis is
    preferred because its product needs no transposed operand and runs
    faster.)  Two-operand einsums then contract the other axes of the smaller
    (B, R, ...) result, one axis each.  The batch goes through in blocks whose
    first-stage product stays near BLOCK_BYTES.  Without `rows` a block is a
    slice of the batch, so nothing is copied; with `rows` each block's tensors
    are gathered into one workspace, which counts against BLOCK_BYTES too, and
    only that block's vectors are gathered.
    """
    shape = tensors.shape[1:]
    k, restarts = len(shape), vectors[0].shape[1]
    first = k - 1 if axis == 0 else 0
    kept = [a for a in range(k) if a != first]
    here = kept.index(axis)
    rest = int(np.prod([shape[a] for a in kept]))
    floats = restarts * rest + (0 if rows is None else rest * shape[first])
    block = max(1, BLOCK_BYTES // max(1, 8 * floats))
    count = len(tensors) if rows is None else len(rows)
    if rows is not None:
        workspace = np.empty((min(block, count),) + shape)
    out = np.empty((count, restarts, shape[axis]))
    for lo in range(0, count, block):
        part = slice(lo, lo + block)
        if rows is None:
            t, pick = tensors[part], part
        else:
            pick = rows[part]
            t = np.take(tensors, pick, axis=0, out=workspace[: len(pick)], mode="clip")
        if first == 0:
            w = vectors[0][pick] @ t.reshape(len(t), shape[0], rest)
        else:
            w = vectors[first][pick] @ t.reshape(len(t), rest, shape[first]).transpose(0, 2, 1)
        w = w.reshape((len(t), restarts) + tuple(shape[a] for a in kept))
        for a in reversed(kept[here + 1 :]):
            w = np.einsum("zy...j,zyj->zy...", w, vectors[a][pick])
        for a in kept[:here]:
            w = np.einsum("zyj...,zyj->zy...", w, vectors[a][pick])
        out[part] = w
    return out


def _als(tensors: np.ndarray, restarts: int, seed: int) -> _AlsRun:
    """Multi-start ALS on a batch of shape (B, n1, ..., nk), k >= 3.

    Start 0 of every tensor is the all-ones direction, the others are
    Gaussian.  The tensors run together, but each leaves the active set after
    the first sweep in which all its start values converged, or after SWEEPS
    sweeps; its values and vectors then stay as that sweep left them.  So a
    tensor's result does not depend on the other tensors of its batch.

    A sweep is k calls to `_contract`, one per axis, on the active tensors:
    about k*A*R*n1*...*nk multiply-adds for A of them, with a workspace of one
    block of about BLOCK_BYTES plus the (A, R, n_a) contraction.  The new
    vectors go into the active rows of the (B, R, n_a) arrays in place.  After
    the last axis step the norm of the contraction is the value against the
    new vectors (the contraction dotted with its own normalization), so the
    returned values, these norms, are certified lower bounds up to rounding.
    """
    rng = np.random.default_rng(seed)
    batch = tensors.shape[0]
    k = tensors.ndim - 1
    vectors = []
    for m in tensors.shape[1:]:
        v = rng.standard_normal((batch, restarts, m))
        v[:, 0, :] = 1.0
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        vectors.append(v)

    value = np.einsum("zyi,zyi->zy", _contract(tensors, vectors, k - 1), vectors[k - 1])
    live = np.arange(batch)
    for sweep in range(1, SWEEPS + 1):
        rows = None if len(live) == batch else live
        for axis in range(k):
            contraction = _contract(tensors, vectors, axis, rows)
            norms = np.linalg.norm(contraction, axis=2)
            safe = np.where(norms == 0.0, 1.0, norms)
            vectors[axis][live] = contraction / safe[:, :, None]
        settled = np.all(np.abs(norms - value[live]) <= TOL * np.maximum(1.0, norms), axis=1)
        value[live] = norms
        live = live[~settled]
        if len(live) == 0:
            break
    return _AlsRun(value, vectors, sweep, len(live) == 0)


def op_norm(tensor: np.ndarray, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> OpNormResult:
    """sup over unit vectors v^1..v^d of <v^1 x ... x v^d, A>.

    Exact for d <= 2: the closed form for scalars and vectors, the top
    singular triple for matrices.  For d >= 3 it is the best start of the
    batched ALS on this one tensor, and a certified lower bound.  The value
    is the contraction against the returned unit vectors, up to rounding.
    Nonnegative tensors get entrywise-nonnegative maximizers |v| and the value
    recomputed against them, which can only rise up to rounding.  So for d >= 3 the value
    is `op_norm_batch(tensor[None], restarts, seed)[0]` for a tensor with a
    negative entry, and the value against |v| for a nonnegative one.
    """
    tensor = _checked(tensor, restarts)
    d = tensor.ndim
    if d == 0:
        return OpNormResult(abs(float(tensor)), (), True, 0)
    if d == 1:
        return OpNormResult(float(np.linalg.norm(tensor)), (_normalize(tensor),), True, 0)
    if d == 2:
        u, s, vh = np.linalg.svd(tensor)
        value, vectors, converged, iterations = float(s[0]), (u[:, 0], vh[0]), True, 0
    else:
        run = _als(tensor[None], restarts, seed)
        best = int(np.argmax(run.values[0]))
        value = float(run.values[0, best])
        vectors = tuple(v[0, best] for v in run.vectors)
        converged, iterations = run.converged, run.sweeps
    if np.all(tensor >= 0.0):
        # For a nonnegative tensor, flipping signs entrywise cannot decrease
        # the contraction, so the maximizers are taken nonnegative.  The value
        # is recomputed against them to stay a certificate.
        vectors = tuple(np.abs(v) for v in vectors)
        contraction = tensor
        for v in reversed(vectors):
            contraction = contraction @ v
        value = float(contraction)
    return OpNormResult(max(value, 0.0), vectors, converged, iterations)


def op_norm_batch(tensors: np.ndarray, restarts: int = 8, seed: int = 0) -> np.ndarray:
    """Operator norms of a batch of tensors, shape (B, n1, ..., nk) -> (B,).

    Vectors and matrices are exact (Euclidean norms / batched singular
    values); higher orders return the best start of the batched ALS per
    tensor, a certified lower bound.
    """
    tensors = _checked(tensors, restarts)
    k = tensors.ndim - 1
    if k < 1:
        raise DomainError("expected a batch of tensors")
    if k == 1:
        # np.linalg.norm(tensors, axis=1)'s own formula, in row blocks of about
        # BLOCK_BYTES so that no temporary is as large as the batch.  Each block
        # is C-ordered (a view for a C-ordered batch), so a row sums in one
        # order whatever the layout of its batch.
        norms = np.empty(len(tensors))
        block = max(1, BLOCK_BYTES // max(1, 8 * tensors.shape[1]))
        for lo in range(0, len(tensors), block):
            x = np.ascontiguousarray(tensors[lo : lo + block])
            norms[lo : lo + block] = np.sqrt(np.add.reduce(x * x, axis=1))
        return norms
    if k == 2:
        return np.linalg.svd(tensors, compute_uv=False)[:, 0]
    return np.maximum(_als(tensors, restarts, seed).values.max(axis=1), 0.0)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering range(order)."""

    order: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if len(block) == 0:
                raise DomainError("partition blocks must be nonempty")
            for i in block:
                if not 0 <= i < self.order:
                    raise DomainError(f"axis {i} outside range(0, {self.order})")
                if i in seen:
                    raise DomainError(f"axis {i} appears in two blocks")
                seen.add(i)
        if len(seen) != self.order:
            raise DomainError("partition blocks must cover every axis")

    @staticmethod
    def of(order: int, *blocks: Sequence[int]) -> "Partition":
        return Partition(order, tuple(tuple(sorted(b)) for b in blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def is_single_block(self) -> bool:
        return len(self.blocks) == 1

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)


def enumerate_partitions(order: int) -> list[Partition]:
    """All Bell(order) set partitions of range(order), via restricted growth strings."""
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > 6:
        raise DomainError("partition enumeration supported up to order 6")
    out: list[Partition] = []

    def grow(assignment: list[int], used: int) -> Iterator[list[int]]:
        if len(assignment) == order:
            yield assignment
            return
        for label in range(used + 1):
            yield from grow(assignment + [label], max(used, label + 1))

    for assignment in grow([], 0):
        count = max(assignment) + 1
        blocks = [tuple(i for i, a in enumerate(assignment) if a == b) for b in range(count)]
        out.append(Partition(order, tuple(blocks)))
    return out


def partition_norm(
    tensor: np.ndarray, partition: Partition, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> float:
    """sup of the contraction against one unit vector per partition block.

    Grouping each block's axes and flattening reduces the supremum to the
    operator norm of the reshaped tensor, so the single-block partition gives
    the Hilbert-Schmidt norm and all-singletons gives the operator norm.  A
    two-block partition reshapes to a matrix and is exact (an SVD); three or
    more blocks give the ALS lower bound of `op_norm`.
    """
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != partition.order:
        raise DomainError(
            f"partition of order {partition.order} applied to a {tensor.ndim}-tensor"
        )
    if partition.is_single_block():
        return hs_norm(tensor)
    axis_order = [i for block in partition.blocks for i in block]
    moved = np.transpose(tensor, axis_order)
    block_dims = []
    cursor = 0
    for block in partition.blocks:
        span = moved.shape[cursor : cursor + len(block)]
        block_dims.append(int(np.prod(span)))
        cursor += len(block)
    reshaped = moved.reshape(block_dims)
    return op_norm(reshaped, restarts=restarts, seed=seed).value
