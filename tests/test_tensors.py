import math
import string
from itertools import permutations

import numpy as np
import pytest

from concentra import tensors
from concentra.errors import DomainError
from concentra.tensors import (
    BLOCK_BYTES,
    Partition,
    _als,
    _contract,
    check_symmetric,
    enumerate_partitions,
    hs_norm,
    op_norm,
    op_norm_batch,
    partition_norm,
)


def gram_power_iteration(matrix, iterations=20000, tol=1e-14):
    """Independent oracle: long power iteration on A^T A."""
    rng = np.random.default_rng(123)
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iterations):
        w = matrix.T @ (matrix @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_sigma = math.sqrt(norm)
        if abs(new_sigma - sigma) < tol:
            return new_sigma
        sigma = new_sigma
    return sigma


def einsum_contract(batch, vectors, axis):
    """Reference for `_contract`: one einsum over the batch and every other axis's vectors."""
    k = batch.ndim - 1
    letters = string.ascii_lowercase[:k]
    spec = (
        "z" + letters + "," + ",".join(f"zy{letters[a]}" for a in range(k) if a != axis)
        + "->zy" + letters[axis]
    )
    return np.einsum(spec, batch, *(vectors[a] for a in range(k) if a != axis))


def einsum_als(batch, restarts, seed, sweeps, tol):
    """Reference ALS: the batch's starts drawn as the engine draws them, then
    the engine as it was before the batched contractions (one 3-operand
    einsum per axis step and a full contraction after every sweep) run on
    each tensor alone, stopping on its own.
    Returns (values, vectors, the most sweeps any tensor ran, all converged)."""
    rng = np.random.default_rng(seed)
    size = batch.shape[0]
    k = batch.ndim - 1
    letters = string.ascii_lowercase[:k]
    vectors = []
    for m in batch.shape[1:]:
        v = rng.standard_normal((size, restarts, m))
        v[:, 0, :] = 1.0
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        vectors.append(v)

    full_spec = "z" + letters + "," + ",".join(f"zy{c}" for c in letters) + "->zy"
    values, most, all_converged = np.empty((size, restarts)), 0, True
    for i in range(size):
        tensor = batch[i : i + 1]
        mine = [v[i : i + 1] for v in vectors]
        value = np.einsum(full_spec, tensor, *mine)
        for sweep in range(1, sweeps + 1):
            for axis in range(k):
                contraction = einsum_contract(tensor, mine, axis)
                norms = np.linalg.norm(contraction, axis=2, keepdims=True)
                safe = np.where(norms == 0.0, 1.0, norms)
                mine[axis] = contraction / safe
            new_value = np.einsum(full_spec, tensor, *mine)
            converged = bool(np.all(np.abs(new_value - value) <= tol * np.maximum(1.0, np.abs(new_value))))
            value = new_value
            if converged:
                break
        values[i] = value[0]
        for v, got in zip(vectors, mine):
            v[i] = got[0]
        most, all_converged = max(most, sweep), all_converged and converged
    return values, vectors, most, all_converged


def assert_close_to(actual, expected, rel):
    """Entrywise match within `rel` times the largest entry of `expected`."""
    scale = float(np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * scale)


def sphere_grid_sup(tensor, points=24):
    """Brute-force lower envelope of the operator norm on coarse sphere grids (d=3)."""
    n = tensor.shape[0]
    best = 0.0
    rng = np.random.default_rng(7)
    for _ in range(points):
        u, v, w = (rng.standard_normal(n) for _ in range(3))
        u, v, w = u / np.linalg.norm(u), v / np.linalg.norm(v), w / np.linalg.norm(w)
        best = max(best, abs(np.einsum("ijk,i,j,k->", tensor, u, v, w)))
    return best


class TestCheckSymmetric:
    @pytest.mark.parametrize("order", [2, 3])
    def test_relative_tolerance_is_1e_5(self, order):
        rng = np.random.default_rng(60 + order)
        base = rng.uniform(0.5, 2.0, (4,) * order)
        base = sum(base.transpose(p) for p in permutations(range(order)))
        for relative, symmetric in ((4e-6, True), (2e-5, False)):
            tensor = base.copy()
            tensor[(0, 1) + (2,) * (order - 2)] *= 1.0 + relative
            if symmetric:
                check_symmetric(tensor, "t")
            else:
                with pytest.raises(DomainError, match="t is not symmetric"):
                    check_symmetric(tensor, "t")


class TestHsNorm:
    def test_identity(self):
        assert hs_norm(np.eye(2)) == pytest.approx(math.sqrt(2))

    def test_zero(self):
        assert hs_norm(np.zeros((3, 3, 3))) == 0.0

    def test_all_ones_third_order(self):
        assert hs_norm(np.ones((2, 2, 2))) == pytest.approx(math.sqrt(8))


class TestOpNorm:
    def test_identity_matrix(self):
        assert op_norm(np.eye(3)).value == pytest.approx(1.0, abs=1e-10)

    def test_swap_matrix(self):
        assert op_norm(np.array([[0.0, 1.0], [1.0, 0.0]])).value == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_third_order(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 0.5, 1.0])
        w = np.array([3.0, -1.0, 0.0])
        tensor = np.einsum("i,j,k->ijk", u, v, w)
        expected = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
        assert op_norm(tensor, restarts=8).value == pytest.approx(expected, rel=1e-9)

    def test_certificate_consistency(self):
        rng = np.random.default_rng(0)
        for tensor, spec in [
            (rng.standard_normal((4, 4, 4)), "ijk,i,j,k->"),
            (rng.standard_normal((3, 4, 2, 3)), "ijkl,i,j,k,l->"),
            (rng.standard_normal((5, 3)), "ij,i,j->"),
        ]:
            result = op_norm(tensor, restarts=8)
            contraction = np.einsum(spec, tensor, *result.vectors)
            assert contraction == pytest.approx(result.value, abs=1e-9)
            for vec in result.vectors:
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        # A batch that `_contract` splits into three blocks: every value is
        # the contraction against that tensor's returned unit vectors.
        restarts, n = 4, 8
        block = BLOCK_BYTES // (8 * restarts * n * n)
        batch = rng.standard_normal((2 * block + 5, n, n, n))
        run = _als(batch, restarts, 0)
        contraction = np.einsum("zijk,zyi,zyj,zyk->zy", batch, *run.vectors)
        assert_close_to(run.values, contraction, 1e-12)
        for vec in run.vectors:
            np.testing.assert_allclose(np.linalg.norm(vec, axis=2), 1.0, atol=1e-12)

    def test_matches_gram_oracle_for_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = rng.standard_normal((5, 4))
            assert op_norm(A).value == pytest.approx(gram_power_iteration(A), abs=1e-8)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(2)
        tensor = rng.standard_normal((3, 3, 3))
        base = op_norm(tensor, restarts=8).value
        for c in (-2.5, 0.5, 4.0):
            assert op_norm(c * tensor, restarts=8).value == pytest.approx(
                abs(c) * base, rel=1e-8, abs=1e-10
            )

    def test_nonnegative_tensor_gets_nonnegative_maximizers(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tensor = rng.uniform(0.0, 1.0, size=(3, 3, 3))
            result = op_norm(tensor, restarts=4)
            for vec in result.vectors:
                assert np.all(vec >= -1e-12)

    def test_vector_and_scalar_cases(self):
        assert op_norm(np.array([3.0, 4.0])).value == pytest.approx(5.0)
        assert op_norm(np.array(2.5)).value == pytest.approx(2.5)

    def test_beats_sphere_grid(self):
        rng = np.random.default_rng(4)
        tensor = rng.standard_normal((4, 4, 4))
        assert op_norm(tensor, restarts=16).value >= sphere_grid_sup(tensor) - 1e-9

    def test_restart_validation(self):
        with pytest.raises(DomainError):
            op_norm(np.eye(2), restarts=0)


class TestOpNormBatch:
    def test_matches_single_for_matrices(self):
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((6, 4, 4))
        values = op_norm_batch(batch)
        for tensor, value in zip(batch, values):
            assert value == pytest.approx(op_norm(tensor).value, abs=1e-9)

    def test_matches_single_for_third_order(self):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((5, 3, 3, 3))
        values = op_norm_batch(batch, restarts=8)
        for tensor, value in zip(batch, values):
            single = op_norm(tensor, restarts=16).value
            assert value == pytest.approx(single, rel=1e-6, abs=1e-8)

    def test_single_is_a_batch_of_one(self):
        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 4):
            for _ in range(10):
                tensor = rng.standard_normal((3,) * d)
                single = op_norm(tensor, restarts=8, seed=3).value
                batched = op_norm_batch(tensor[None], restarts=8, seed=3)[0]
                if d >= 3:
                    assert single == batched
                else:
                    assert single == pytest.approx(batched, rel=1e-12, abs=0.0)

    def test_restart_validation(self):
        for shape in [(2, 3, 3), (2, 3, 3, 3)]:
            with pytest.raises(DomainError):
                op_norm_batch(np.ones(shape), restarts=0)


def symmetric_batch(rng, size, n):
    a = rng.standard_normal((size, n, n))
    return a + a.transpose(0, 2, 1)


def eigen_norms(batch):
    """The largest |eigenvalue| of each matrix of a symmetric batch."""
    return np.abs(np.linalg.eigvalsh(batch)).max(axis=1)


class TestMatrixNorms:
    def test_a_symmetric_matrix_has_one_value_alone_and_beside_an_asymmetric_one(self):
        rng = np.random.default_rng(20)
        symmetric = symmetric_batch(rng, 1, 6)[0]
        asymmetric = rng.standard_normal((6, 6))
        alone = op_norm_batch(symmetric[None])[0]
        assert alone == eigen_norms(symmetric[None])[0]
        mixed = op_norm_batch(np.stack([asymmetric, symmetric, asymmetric.T, symmetric]))
        np.testing.assert_array_equal(mixed[[1, 3]], alone)
        singular = [np.linalg.svd(a, compute_uv=False)[0] for a in (asymmetric, asymmetric.T)]
        np.testing.assert_array_equal(mixed[[0, 2]], singular)

    @pytest.mark.parametrize("kind", ["random", "negative-dominant", "nonnegative-zero-diagonal"])
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_eigenvalues_agree_with_singular_values(self, kind, n):
        rng = np.random.default_rng(n)
        batch = symmetric_batch(rng, 64, n)
        if kind == "negative-dominant":
            # Shifted down, as the signed chaos_w components can be: |lambda_min| > lambda_max.
            batch -= 3.0 * np.eye(n) * np.abs(batch).max()
            eigenvalues = np.linalg.eigvalsh(batch)
            assert np.all(-eigenvalues[:, 0] > eigenvalues[:, -1])
        elif kind == "nonnegative-zero-diagonal":
            batch = np.abs(batch)
            batch[:, np.arange(n), np.arange(n)] = 0.0
        values = op_norm_batch(batch)
        np.testing.assert_array_equal(values, eigen_norms(batch))
        singular = np.linalg.svd(batch, compute_uv=False)[:, 0]
        np.testing.assert_allclose(values, singular, rtol=4 * n * np.finfo(float).eps, atol=0.0)

    def test_rectangular_and_asymmetric_matrices_keep_the_singular_value(self):
        rng = np.random.default_rng(21)
        rectangular = rng.standard_normal((8, 3, 5))
        np.testing.assert_array_equal(op_norm_batch(rectangular), np.linalg.svd(rectangular, compute_uv=False)[:, 0])
        # One entry one ulp off its mirror makes a matrix asymmetric.
        nearly = symmetric_batch(rng, 8, 5)
        nearly[:, 0, 1] = np.nextafter(nearly[:, 1, 0], np.inf)
        batch = np.concatenate([nearly, rng.standard_normal((4, 5, 5))])
        np.testing.assert_array_equal(op_norm_batch(batch), np.linalg.svd(batch, compute_uv=False)[:, 0])

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 2, 4), (0, 3, 3, 3)])
    def test_an_empty_batch_has_no_norms(self, shape):
        assert op_norm_batch(np.zeros(shape)).shape == (0,)


class TestOrderOneNorms:
    @pytest.mark.parametrize("shape", [(0, 4), (7, 3), (1, 40), (9000, 70)])
    @pytest.mark.parametrize("block_bytes", [256, BLOCK_BYTES])
    def test_equal_to_numpy_norm(self, monkeypatch, shape, block_bytes):
        # (9000, 70) is about 2.4 blocks of BLOCK_BYTES; 256 bytes makes blocks of a few rows.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(shape[0])
        field = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        np.testing.assert_array_equal(op_norm_batch(field), np.linalg.norm(field, axis=1))

    def test_a_row_sums_in_one_order_in_any_layout(self, monkeypatch):
        # Blocks of 7 rows; a Fortran-ordered batch reduces in another order unless copied per block.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", 7 * 8 * 600)
        field = np.random.default_rng(0).standard_normal((40, 600))
        np.testing.assert_array_equal(op_norm_batch(np.asfortranarray(field)), op_norm_batch(field))


class TestContract:
    @pytest.mark.parametrize("shape", [(3, 1, 4), (2, 3, 4, 1), (1, 2, 3, 2, 2), (2, 2, 1, 3, 2)])
    @pytest.mark.parametrize("size", [1, 5])
    @pytest.mark.parametrize("block_bytes", [1, BLOCK_BYTES])
    def test_matches_einsum(self, monkeypatch, shape, size, block_bytes):
        # block_bytes = 1 makes every tensor its own block, so the loop runs `size` times.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(sum(shape) + size)
        batch = rng.standard_normal((size,) + shape)
        vectors = [rng.standard_normal((size, 3, m)) for m in shape]
        for axis in range(len(shape)):
            out = _contract(batch, vectors, axis)
            assert out.shape == (size, 3, shape[axis])
            assert_close_to(out, einsum_contract(batch, vectors, axis), 1e-12)

    @pytest.mark.parametrize("size", [2, 3, 7])
    def test_batch_below_at_and_above_one_block(self, monkeypatch, size):
        restarts, n = 2, 4
        # A block holds three tensors: each first-stage product is restarts * n^2 floats.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", 3 * 8 * restarts * n * n)
        rng = np.random.default_rng(size)
        batch = rng.standard_normal((size, n, n, n))
        vectors = [rng.standard_normal((size, restarts, n)) for _ in range(3)]
        for axis in range(3):
            assert_close_to(_contract(batch, vectors, axis), einsum_contract(batch, vectors, axis), 1e-12)


    @pytest.mark.parametrize("shape", [(3, 1, 4), (2, 3, 4, 1), (2, 2, 1, 3, 2)])
    @pytest.mark.parametrize("rows", [[4], [0, 2, 5], [5, 1, 1, 3, 0, 2], []])
    @pytest.mark.parametrize("block_bytes", [1, 64, BLOCK_BYTES])
    def test_rows_match_einsum_on_the_gathered_subset(self, monkeypatch, shape, rows, block_bytes):
        monkeypatch.setattr(tensors, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(sum(shape) + len(rows))
        batch = rng.standard_normal((6,) + shape)
        vectors = [rng.standard_normal((6, 3, m)) for m in shape]
        rows = np.array(rows, dtype=int)
        for axis in range(len(shape)):
            out = _contract(batch, vectors, axis, rows)
            assert out.shape == (len(rows), 3, shape[axis])
            want = einsum_contract(batch[rows], [v[rows] for v in vectors], axis)
            assert_close_to(out, want, 1e-12)


class TestAlsAgainstEinsumOracle:
    # The (40, 5, 3, 4) batch does not converge within SWEEPS sweeps.
    @pytest.mark.parametrize(
        "shape, restarts, seed, converges",
        [
            ((6, 4, 4, 4), 8, 0, True),
            ((40, 5, 3, 4), 4, 1, False),
            ((5, 3, 3, 3, 3), 6, 2, True),
            ((9, 2, 3, 1, 4), 3, 3, True),
        ],
    )
    @pytest.mark.parametrize("block_bytes", [64, BLOCK_BYTES])
    def test_same_sweeps_and_values(self, monkeypatch, shape, restarts, seed, converges, block_bytes):
        monkeypatch.setattr(tensors, "BLOCK_BYTES", block_bytes)
        batch = np.random.default_rng(100 + seed).standard_normal(shape)
        values, vectors, sweeps, converged = einsum_als(batch, restarts, seed, tensors.SWEEPS, tensors.TOL)
        run = _als(batch, restarts, seed)
        assert (run.sweeps, run.converged) == (sweeps, converged)
        assert converged == converges and (sweeps < tensors.SWEEPS) == converges
        assert_close_to(run.values, values, 1e-12)
        for got, want in zip(run.vectors, vectors):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("shape", [(7, 4, 4, 4), (4, 3, 2, 3, 3)])
    def test_same_result_when_a_lower_sweep_limit_stops_the_run(self, monkeypatch, shape):
        monkeypatch.setattr(tensors, "SWEEPS", 2)
        batch = np.random.default_rng(7).standard_normal(shape)
        values, _, sweeps, converged = einsum_als(batch, 5, 4, 2, tensors.TOL)
        run = _als(batch, 5, 4)
        assert (run.sweeps, run.converged) == (sweeps, converged) == (2, False)
        assert_close_to(run.values, values, 1e-12)


def rank_one(rng, shape):
    """A rank-one tensor: ALS finds its norm in one sweep and stops after the second."""
    out = rng.standard_normal(shape[0])
    for m in shape[1:]:
        out = np.multiply.outer(out, rng.standard_normal(m))
    return out


def live_sweeps(monkeypatch, size):
    """Count, per tensor, the sweeps in which `_als` still contracts it (one axis-0 call a sweep)."""
    counts = np.zeros(size, dtype=int)
    contract = tensors._contract

    def spy(batch, vectors, axis, rows=None, plan=None):
        if axis == 0:
            counts[slice(None) if rows is None else rows] += 1
        return contract(batch, vectors, axis, rows, plan)

    monkeypatch.setattr(tensors, "_contract", spy)
    return counts


class TestActiveSet:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 2, 3, 3)])
    @pytest.mark.parametrize("block_bytes", [64, BLOCK_BYTES])
    def test_a_tensor_does_not_depend_on_the_rest_of_its_batch(self, monkeypatch, shape, block_bytes):
        # Batch `fast` holds rank-one tensors that stop after two sweeps, batch
        # `slow` random ones that run longer; both share tensor 3 and the seed,
        # so tensor 3 has the same starts in both.  In a lockstep run tensor 3
        # would keep sweeping until the slowest tensor of `slow` stopped.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(len(shape))
        fast = np.stack([rank_one(rng, shape) for _ in range(8)])
        slow = rng.standard_normal((8,) + shape)
        fast[3] = slow[3] = rng.standard_normal(shape)
        counts = live_sweeps(monkeypatch, 8)
        run_fast = _als(fast, 5, 7)
        fast_counts = counts.copy()
        counts[:] = 0
        run_slow = _als(slow, 5, 7)
        assert run_fast.converged and run_slow.converged
        assert fast_counts[3] == counts[3] == run_fast.sweeps < run_slow.sweeps
        np.testing.assert_array_equal(run_fast.values[3], run_slow.values[3])
        for got, want in zip(run_fast.vectors, run_slow.vectors):
            np.testing.assert_array_equal(got[3], want[3])

    @pytest.mark.parametrize(
        "shape, spec",
        [((50, 5, 4, 6), "zijk,zyi,zyj,zyk->zy"), ((30, 3, 4, 2, 3), "zijkl,zyi,zyj,zyk,zyl->zy")],
    )
    def test_each_value_is_its_contraction_against_the_returned_vectors(self, monkeypatch, shape, spec):
        # Small blocks, so that later sweeps gather the active tensors across blocks.
        monkeypatch.setattr(tensors, "BLOCK_BYTES", 4096)
        rng = np.random.default_rng(shape[0])
        batch = rng.standard_normal(shape)
        batch[::3] = [rank_one(rng, shape[1:]) for _ in range(len(batch[::3]))]
        counts = live_sweeps(monkeypatch, shape[0])
        run = _als(batch, 4, 5)
        assert counts.min() < counts.max()
        contraction = np.einsum(spec, batch, *run.vectors)
        np.testing.assert_allclose(run.values, contraction, rtol=1e-12, atol=0.0)
        for vec in run.vectors:
            np.testing.assert_allclose(np.linalg.norm(vec, axis=2), 1.0, atol=1e-12)

    def test_the_starts_of_a_nonnegative_tensor_are_the_absolute_gaussian_draws(self, monkeypatch):
        rng = np.random.default_rng(14)
        batch = rng.standard_normal((6, 3, 4, 5))
        batch[::2] = np.abs(batch[::2])
        batch[2, 1, 1, 1] = 0.0
        starts = []
        contract = tensors._contract

        def spy(tensors_, vectors, axis, rows=None, plan=None):
            if not starts:
                starts.extend(v.copy() for v in vectors)
            return contract(tensors_, vectors, axis, rows, plan)

        monkeypatch.setattr(tensors, "_contract", spy)
        _als(batch, 4, 9)
        draws = np.random.default_rng(9)
        for v, m in zip(starts, batch.shape[1:]):
            want = draws.standard_normal((6, 4, m))
            want[::2] = np.abs(want[::2])
            want[:, 0, :] = 1.0
            want /= np.linalg.norm(want, axis=2, keepdims=True)
            np.testing.assert_array_equal(v, want)
            assert np.all(v[::2] >= 0.0) and v[1::2].min() < 0.0

    def test_a_nonnegative_tensor_runs_alike_beside_signed_or_nonnegative_ones(self, monkeypatch):
        rng = np.random.default_rng(15)
        nonnegative = np.abs(rng.standard_normal((8, 4, 4, 4)))
        mixed = nonnegative.copy()
        mixed[[0, 1, 2, 4, 6]] = rng.standard_normal((5, 4, 4, 4))
        counts = live_sweeps(monkeypatch, 8)
        run_nonnegative = _als(nonnegative, 5, 3)
        nonnegative_counts = counts.copy()
        counts[:] = 0
        run_mixed = _als(mixed, 5, 3)
        np.testing.assert_array_equal(nonnegative_counts[[3, 5, 7]], counts[[3, 5, 7]])
        np.testing.assert_array_equal(run_nonnegative.values[[3, 5, 7]], run_mixed.values[[3, 5, 7]])
        for got, want in zip(run_nonnegative.vectors, run_mixed.vectors):
            np.testing.assert_array_equal(got[[3, 5, 7]], want[[3, 5, 7]])
            assert np.all(got >= 0.0)

    def test_a_capped_batch_keeps_the_early_values_of_its_converged_tensors(self, monkeypatch):
        monkeypatch.setattr(tensors, "SWEEPS", 3)
        rng = np.random.default_rng(13)
        ones = np.stack([rank_one(rng, (4, 4, 4)) for _ in range(6)])
        mixed = ones.copy()
        mixed[1::2] = rng.standard_normal((3, 4, 4, 4))
        counts = live_sweeps(monkeypatch, 6)
        run_mixed = _als(mixed, 4, 2)
        assert (run_mixed.sweeps, run_mixed.converged) == (3, False)
        np.testing.assert_array_equal(counts, [2, 3, 2, 3, 2, 3])
        run_ones = _als(ones, 4, 2)
        assert (run_ones.sweeps, run_ones.converged) == (2, True)
        np.testing.assert_array_equal(run_mixed.values[::2], run_ones.values[::2])
        norms = [np.linalg.norm(t.ravel()) for t in ones[::2]]
        np.testing.assert_allclose(run_mixed.values[::2].max(axis=1), norms, rtol=1e-12)


class TestPartitions:
    def test_counts_are_bell_numbers(self):
        for d, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            parts = enumerate_partitions(d)
            assert len(parts) == bell
            assert len({str(p) for p in parts}) == bell

    def test_validation(self):
        with pytest.raises(DomainError):
            Partition.of(3, (0, 1))  # not a cover
        with pytest.raises(DomainError):
            Partition.of(2, (0, 1), (1,))  # overlap
        with pytest.raises(DomainError):
            enumerate_partitions(7)

    def test_single_block_is_hs(self):
        rng = np.random.default_rng(7)
        tensor = rng.standard_normal((3, 3, 3))
        value = partition_norm(tensor, Partition.of(3, (0, 1, 2)))
        assert value == pytest.approx(hs_norm(tensor), rel=1e-12)

    def test_all_singletons_is_op(self):
        rng = np.random.default_rng(8)
        tensor = rng.standard_normal((3, 3, 3))
        value = partition_norm(tensor, Partition.of(3, (0,), (1,), (2,)), restarts=16)
        assert value == pytest.approx(op_norm(tensor, restarts=16).value, rel=1e-8)

    def test_sandwich_on_random_tensors(self):
        rng = np.random.default_rng(9)
        for d, n in [(2, 4), (3, 4), (4, 3)]:
            for _ in range(5):
                tensor = rng.standard_normal((n,) * d)
                op = op_norm(tensor, restarts=16).value
                hs = hs_norm(tensor)
                for partition in enumerate_partitions(d):
                    value = partition_norm(tensor, partition, restarts=16)
                    assert op - 1e-6 <= value <= hs + 1e-6

    def test_matrix_partition_matches_svd(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 5))
        assert partition_norm(A, Partition.of(2, (0,), (1,))) == pytest.approx(
            float(np.linalg.svd(A, compute_uv=False)[0]), abs=1e-9
        )
        assert partition_norm(A, Partition.of(2, (0, 1))) == pytest.approx(hs_norm(A))

    def test_reshaping_against_explicit_supremum(self):
        # {0,1}|{2} norm: sup over unit X in R^(n^2), y in R^n of <A, X x y>
        rng = np.random.default_rng(11)
        tensor = rng.standard_normal((3, 3, 3))
        flat = tensor.reshape(9, 3)
        expected = float(np.linalg.svd(flat, compute_uv=False)[0])
        value = partition_norm(tensor, Partition.of(3, (0, 1), (2,)))
        assert value == pytest.approx(expected, abs=1e-9)
