import math

import numpy as np
import pytest

from concentra.errors import DomainError
from concentra.tensors import (
    Partition,
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
            (rng.standard_normal((5, 3)), "ij,i,j->"),
        ]:
            result = op_norm(tensor, restarts=8)
            contraction = np.einsum(spec, tensor, *result.vectors)
            assert contraction == pytest.approx(result.value, abs=1e-9)
            for vec in result.vectors:
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

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
