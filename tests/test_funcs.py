import math
from itertools import combinations, permutations

import numpy as np
import pytest

from concentra.errors import DimensionMismatchError, DomainError
from concentra.funcs import (
    FUNCTION_KINDS,
    MultilinearPoly,
    QuadraticForm,
    SupFamily,
    Tabulated,
    UStatistic,
    VectorChaos,
    _contract_poly_term,
    chaos_w,
    chaos_w_tilde,
    expected_gradient_tensor,
    fourier_transform,
    function_from_json,
    gradient_tensor_at,
    spectrum_from_coefficients,
)
from concentra.diffops import norm_profile
from concentra.space import (
    ProductSpace,
    binary,
    bernoulli_product,
    enumerate_configurations,
    hypercube,
    rademacher,
    uniform,
)


def random_symmetric_zero_diag(n, rng, order=2):
    if order == 2:
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        return A
    T = rng.standard_normal((n,) * order)
    acc = np.zeros_like(T)
    for perm in permutations(range(order)):
        acc += T.transpose(perm)
    acc /= math.factorial(order)
    idx = np.indices(acc.shape)
    repeated = np.zeros(acc.shape, dtype=bool)
    for a in range(order):
        for b in range(a + 1, order):
            repeated |= idx[a] == idx[b]
    acc[repeated] = 0.0
    return acc


class TestEvaluate:
    def test_quadratic_form_pair(self):
        f = QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert f.evaluate_on(hypercube(2), [1.0, 1.0]) == pytest.approx(1.0)

    def test_ustat_constant_kernel_counts_subsets(self):
        u = UStatistic(2, np.ones((2, 2)))
        space = binary(3)
        assert u.evaluate_on(space, [0.0, 1.0, 0.0]) == pytest.approx(3.0)

    def test_sup_family_absolute(self):
        f = SupFamily(
            (
                MultilinearPoly({1: np.array([1.0])}),
                MultilinearPoly({1: np.array([-1.0])}),
            )
        )
        assert f.evaluate_on(hypercube(1), [-1.0]) == pytest.approx(1.0)

    def test_poly_matches_permutation_oracle(self):
        # contraction shortcut vs explicit sum over ordered distinct tuples
        rng = np.random.default_rng(0)
        n = 4
        poly = MultilinearPoly(
            {
                1: rng.standard_normal(n),
                2: random_symmetric_zero_diag(n, rng),
                3: random_symmetric_zero_diag(n, rng, order=3),
            }
        )
        space = hypercube(n)
        for row in enumerate_configurations(space):
            oracle = 0.0
            for k, tensor in poly.tensors.items():
                for combo in permutations(range(n), k):
                    oracle += tensor[combo] * math.prod(row[i] for i in combo)
            assert poly.evaluate_on(space, row) == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        f = QuadraticForm(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            f.evaluate_rows(hypercube(3), np.zeros((2, 2)))

    def test_symmetry_validation(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(DomainError):
            MultilinearPoly({2: bad})
        with pytest.raises(DomainError):
            QuadraticForm(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_vector_chaos_norms(self):
        coeffs = {(0, 1): np.array([1.0, -2.0])}
        l2 = VectorChaos(2, 3, coeffs, norm="l2")
        linf = VectorChaos(2, 3, coeffs, norm="linf")
        x = [1.0, -1.0, 1.0]
        assert l2.evaluate_on(hypercube(3), x) == pytest.approx(math.sqrt(5.0))
        assert linf.evaluate_on(hypercube(3), x) == pytest.approx(2.0)


def ustat_oracle(kernel, digits):
    """U-statistic at one row of alphabet indices: a scalar loop over d-subsets."""
    g = np.asarray(digits, dtype=np.intp)
    d = kernel.ndim
    if d == 1:
        return float(kernel[g].sum())
    if d == 2:
        block = kernel[np.ix_(g, g)]
        return float(block.sum() - np.trace(block)) / 2.0
    total = 0.0
    for combo in combinations(range(g.size), d):
        total += float(kernel[tuple(g[list(combo)])])
    return total


def chaos_vector_oracle(chaos, x):
    """sum over subsets I of x_I t_I at one configuration, scalar products."""
    out = np.zeros(chaos.codim)
    for subset, vec in chaos.coefficients.items():
        out += math.prod(float(x[i]) for i in subset) * vec
    return out


def random_symmetric_kernel(order, m, rng):
    K = rng.standard_normal((m,) * order)
    return sum(K.transpose(p) for p in permutations(range(order))) / math.factorial(order)


def shared_alphabet(n, m):
    return ProductSpace(tuple(tuple(float(v) for v in range(m)) for _ in range(n)))


class TestBatchedEvaluation:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ustat_table_equals_per_row_oracle(self, order, m):
        # Up to 9 coordinates; 3^7 = 2187 rows crosses two row blocks and ends in a partial one.
        rng = np.random.default_rng(100 * order + m)
        u = UStatistic(order, random_symmetric_kernel(order, m, rng))
        for n in range(order, 10):
            space = shared_alphabet(n, m)
            if space.size > 2187:
                break
            digits = space.digit_rows(enumerate_configurations(space))
            oracle = np.array([ustat_oracle(u.kernel, g) for g in digits])
            assert np.array_equal(u.evaluate_table(space), oracle), (order, m, n)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_ustat_rows_in_any_order_equal_oracle(self, order):
        rng = np.random.default_rng(7 + order)
        space = shared_alphabet(7, 3)
        u = UStatistic(order, random_symmetric_kernel(order, 3, rng))
        rows = rng.integers(0, 3, size=(2500, 7)).astype(float)
        oracle = np.array([ustat_oracle(u.kernel, g) for g in space.digit_rows(rows)])
        assert np.array_equal(u.evaluate_rows(space, rows), oracle)
        assert u.evaluate_rows(space, rows[:0]).shape == (0,)

    def test_ustat_monte_carlo_profile_equals_oracle_table(self):
        # The Monte Carlo profile evaluates f on section grids around each sample
        # (1300 points x 4 grid rows per pair: several row blocks per call).
        rng = np.random.default_rng(12)
        mu = rademacher(6)
        u = UStatistic(3, random_symmetric_kernel(3, 2, rng))
        digits = mu.space.digit_rows(enumerate_configurations(mu.space))
        oracle = Tabulated(np.array([ustat_oracle(u.kernel, g) for g in digits]))
        samples = rng.choice([-1.0, 1.0], size=(1300, 6))
        got = norm_profile(u, mu, 2, mode="monte_carlo", samples=samples)
        want = norm_profile(oracle, mu, 2, mode="monte_carlo", samples=samples)
        assert (got.gamma, got.stderr) == (want.gamma, want.stderr)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_chaos_batch_equals_per_row_oracle(self, norm):
        rng = np.random.default_rng(31)
        n, order = 6, 3
        coeffs = {s: rng.standard_normal(4) for s in combinations(range(n), order) if rng.random() < 0.6}
        chaos = VectorChaos(order, n, coeffs, norm=norm)
        # The chaos reads only the width of its space, so any real rows evaluate.
        space = hypercube(n)
        configs = rng.standard_normal((300, n))
        vectors = np.array([chaos_vector_oracle(chaos, x) for x in configs])
        assert np.array_equal(chaos.vector_batch(configs), vectors)
        assert np.array_equal(chaos.vector_batch(configs[5])[0], vectors[5])
        values = chaos.evaluate_rows(space, configs)
        if norm == "linf":
            assert np.array_equal(values, np.abs(vectors).max(axis=1))
        else:
            # A row norm may sum its squares in another order than a vector's: a few ulps.
            np.testing.assert_allclose(values, [np.linalg.norm(v) for v in vectors], rtol=1e-15, atol=0)
        assert chaos.evaluate_on(space, configs[5]) == values[5]
        table = np.array([np.abs(chaos_vector_oracle(chaos, x)).max() if norm == "linf"
                          else np.linalg.norm(chaos_vector_oracle(chaos, x))
                          for x in enumerate_configurations(space)])
        np.testing.assert_allclose(chaos.evaluate_table(space), table, rtol=1e-15, atol=0)

    def test_chaos_dimension_mismatch(self):
        chaos = VectorChaos(1, 3, {(0,): np.ones(2)})
        with pytest.raises(DimensionMismatchError):
            chaos.evaluate_rows(hypercube(3), np.zeros((2, 2)))

    @staticmethod
    def _example(kind):
        """One function of each kind on a three-letter space, n = 4."""
        rng = np.random.default_rng(41)
        n = 4
        space = ProductSpace(((-1.0, 0.5, 2.0),) * n)
        ustat = UStatistic(3, random_symmetric_kernel(3, 3, rng))
        table = Tabulated(rng.standard_normal(space.size))
        chaos = VectorChaos(2, n, {s: rng.standard_normal(3) for s in combinations(range(n), 2)}, norm="linf")
        examples = {
            "table": table,
            "poly": MultilinearPoly({1: rng.standard_normal(n), 3: random_symmetric_zero_diag(n, rng, 3)}),
            "quadform": QuadraticForm(random_symmetric_zero_diag(n, rng)),
            "ustat": ustat,
            "sup": SupFamily((ustat, table, chaos)),
            "chaos": chaos,
        }
        return space, examples[kind]

    @pytest.mark.parametrize("kind", sorted(FUNCTION_KINDS))
    def test_table_rows_and_points_agree_bit_for_bit(self, kind):
        # evaluate_rows is each kind's only evaluation method; the table and
        # the one-point value are views of it.
        space, f = self._example(kind)
        assert f.kind == kind
        assert not any(hasattr(f, name) for name in ("evaluate", "evaluate_batch", "vector_value"))
        configs = enumerate_configurations(space)
        values = f.evaluate_table(space)
        assert np.array_equal(f.evaluate_rows(space, configs), values)
        assert np.array_equal([f.evaluate_on(space, x) for x in configs], values)

    @pytest.mark.parametrize("kind", sorted(FUNCTION_KINDS))
    def test_table_in_enumeration_blocks_equals_one_call(self, kind, monkeypatch):
        import concentra.space as space_mod
        from concentra.space import enumeration_blocks

        space, f = self._example(kind)
        whole = f.evaluate_rows(space, enumerate_configurations(space))
        assert np.array_equal(f.evaluate_table(space), whole)
        # blocks of the last coordinate's three letters
        monkeypatch.setattr(space_mod, "ENUMERATION_BLOCK_BYTES", 3 * 8 * space.n)
        assert len(list(enumeration_blocks(space))) == space.size // 3
        assert np.array_equal(f.evaluate_table(space), whole)


def einsum_poly_term(tensor, configs):
    """Reference for `_contract_poly_term`: one k-operand einsum of the tensor
    with k copies of the rows, which multiplies all n^k entries per row."""
    letters = "abcd"[:tensor.ndim]
    spec = letters + "," + ",".join(f"z{c}" for c in letters) + "->z"
    return np.einsum(spec, tensor, *[configs] * tensor.ndim)


CONTRACTION_ALPHABETS = {"pm1": (-1.0, 1.0), "zero-one": (0.0, 1.0), "three-letter": (-1.0, 0.5, 2.0)}


class TestOneAxisContraction:
    @pytest.mark.parametrize("alphabet", sorted(CONTRACTION_ALPHABETS))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_the_k_operand_einsum(self, order, alphabet):
        # Both are sums of the same products in other orders.  Recursive
        # summation of m terms errs by at most (m - 1) eps times the sum of
        # their absolute values: k nested sums of n terms here, n^k terms there.
        rng = np.random.default_rng(10 * order + len(alphabet))
        n = 7
        tensor = random_symmetric_zero_diag(n, rng, order)
        rows = rng.choice(CONTRACTION_ALPHABETS[alphabet], size=(300, n))
        scale = einsum_poly_term(np.abs(tensor), np.abs(rows))
        tolerance = (order * n + n**order + 2 * order) * np.finfo(float).eps * scale
        got = _contract_poly_term(tensor, rows)
        assert np.all(np.abs(got - einsum_poly_term(tensor, rows)) <= tolerance)
        assert np.abs(got).max() > 0.0

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bit_identical_to_the_einsum_with_dyadic_coefficients_on_pm1(self, order):
        # Multiples of 1/16 below 8 in size, times products of +-1: every
        # partial sum of either order is exact.
        rng = np.random.default_rng(order)
        n = 6
        tensor = np.round(random_symmetric_zero_diag(n, rng, order) * 16.0) / 16.0
        rows = rng.choice((-1.0, 1.0), size=(500, n))
        np.testing.assert_array_equal(_contract_poly_term(tensor, rows), einsum_poly_term(tensor, rows))

    @pytest.mark.parametrize("alphabet", sorted(CONTRACTION_ALPHABETS))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_a_row_has_one_value_in_any_batch_or_chunk(self, order, alphabet, monkeypatch):
        import concentra.funcs as funcs_mod

        rng = np.random.default_rng(order)
        n = 9 if order < 4 else 5
        space = ProductSpace((CONTRACTION_ALPHABETS[alphabet],) * n)
        block = enumerate_configurations(space)
        poly = MultilinearPoly({1: rng.standard_normal(n), order: random_symmetric_zero_diag(n, rng, order)})
        whole = poly.evaluate_rows(space, block)
        head = block[:64]
        for size in (1, 2):
            parts = [poly.evaluate_rows(space, head[s:s + size]) for s in range(0, len(head), size)]
            np.testing.assert_array_equal(np.concatenate(parts), whole[:64])
        monkeypatch.setattr(funcs_mod, "_CONTRACTION_CHUNK_BYTES", 1)  # one row per chunk
        np.testing.assert_array_equal(poly.evaluate_rows(space, block), whole)
        np.testing.assert_array_equal(poly.evaluate_rows(space, head[:1]), whole[:1])

    def test_intermediate_stays_within_the_chunk_bound(self):
        # Unchunked, a dense quartic at n = 12 would hold a (4096, 12^3)
        # intermediate: 54 MiB.
        import tracemalloc
        import concentra.funcs as funcs_mod

        rng = np.random.default_rng(12)
        n = 12
        tensor = random_symmetric_zero_diag(n, rng, 4)
        rows = rng.choice((-1.0, 1.0), size=(4096, n))
        tracemalloc.start()
        try:
            got = _contract_poly_term(tensor, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * funcs_mod._CONTRACTION_CHUNK_BYTES
        head = rows[:8]
        scale = einsum_poly_term(np.abs(tensor), np.abs(head))
        assert np.all(np.abs(got[:8] - einsum_poly_term(tensor, head)) <= (4 * n + n**4 + 8) * np.finfo(float).eps * scale)


class TestSlope:
    @pytest.mark.parametrize("alphabet", sorted(CONTRACTION_ALPHABETS))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_letter_differences_are_the_slope(self, order, alphabet):
        # P(x^{i<-a}) - P(x^{i<-b}) = (a - b) s_i(x).  Each side sums at most
        # n^k products of k + 1 factors, so each errs by at most
        # (n^k + k + 1) eps times the same sum of absolute values.
        rng = np.random.default_rng(100 + 10 * order + len(alphabet))
        n = 6
        tensors = {1: rng.standard_normal(n)}
        tensors[order] = random_symmetric_zero_diag(n, rng, order)
        poly = MultilinearPoly(tensors)
        abs_poly = MultilinearPoly({k: np.abs(t) for k, t in tensors.items()})
        letters = CONTRACTION_ALPHABETS[alphabet]
        space = ProductSpace((letters,) * n)
        rows = rng.choice(letters, size=(40, n))
        eps = np.finfo(float).eps
        for i in range(n):
            for a, b in combinations(letters, 2):
                xa, xb = rows.copy(), rows.copy()
                xa[:, i], xb[:, i] = a, b
                slope = np.array([sum(c * np.prod(x[list(idx)]) for c, idx in poly.slope_terms(i)) for x in rows])
                got = (a - b) * slope
                want = poly.evaluate_rows(space, xa) - poly.evaluate_rows(space, xb)
                scale = abs_poly.evaluate_rows(space, np.abs(xa)) + abs_poly.evaluate_rows(space, np.abs(xb))
                assert np.all(np.abs(got - want) <= 2 * (n**order + order + 1) * eps * scale)

    def test_monomials_are_the_nonzero_coefficients_in_order(self):
        rng = np.random.default_rng(3)
        n = 5
        cubic = random_symmetric_zero_diag(n, rng, 3)
        for idx in permutations((0, 2, 3)):
            cubic[idx] = 0.0
        quadratic = random_symmetric_zero_diag(n, rng)
        quadratic[0, 4] = quadratic[4, 0] = 0.0
        poly = MultilinearPoly({1: np.array([0.5, 0.0, 0.0, 0.0, -1.0]), 2: quadratic, 3: cubic})
        want = [(0.5, ())]
        want += [(2 * quadratic[0, j], (j,)) for j in (1, 2, 3)]
        want += [(6 * cubic[0, j, k], (j, k)) for j, k in combinations(range(1, n), 2) if (j, k) != (2, 3)]
        got = poly.slope_terms(0)
        assert [idx for _, idx in got] == [idx for _, idx in want]
        # Orders 1 and 2 are exact; a cubic coefficient adds six equal entries.
        assert [c for c, _ in got[:4]] == [c for c, _ in want[:4]]
        np.testing.assert_allclose([c for c, _ in got], [c for c, _ in want], rtol=4 * np.finfo(float).eps, atol=0.0)
        assert [idx for _, idx in poly.slope_terms(1)] == [(0,), (2,), (3,), (4,)] + list(combinations((0, 2, 3, 4), 2))
        found = poly._slopes[0]  # found once, then read back
        assert poly.slope_terms(0) == got and poly._slopes[0] is found
        assert MultilinearPoly({2: np.zeros((3, 3))}).slope_terms(1) == []


class TestFourier:
    def test_dictator(self):
        space = hypercube(3)
        table = enumerate_configurations(space)[:, 0]
        weights = fourier_transform(table, space).weights()
        np.testing.assert_allclose(weights, [0, 1, 0, 0], atol=1e-12)

    def test_parity(self):
        space = hypercube(3)
        table = enumerate_configurations(space).prod(axis=1)
        weights = fourier_transform(table, space).weights()
        np.testing.assert_allclose(weights, [0, 0, 0, 1], atol=1e-12)

    def test_majority(self):
        space = hypercube(3)
        table = np.sign(enumerate_configurations(space).sum(axis=1))
        weights = fourier_transform(table, space).weights()
        np.testing.assert_allclose(weights, [0, 0.75, 0, 0.25], atol=1e-12)

    def test_parseval_random_tables(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 8, 10):
            space = hypercube(n)
            table = rng.standard_normal(space.size)
            spectrum = fourier_transform(table, space)
            assert np.sum(spectrum.coefficients**2) == pytest.approx(
                float(np.mean(table**2)), abs=1e-10
            )
            np.testing.assert_allclose(spectrum.reconstruct(), table, atol=1e-10)

    def test_degree_d_poly_has_no_higher_weight(self):
        rng = np.random.default_rng(4)
        n, d = 6, 2
        poly = MultilinearPoly(
            {1: rng.standard_normal(n), 2: random_symmetric_zero_diag(n, rng)}
        )
        space = hypercube(n)
        weights = fourier_transform(poly.evaluate_table(space), space).weights()
        assert np.all(weights[d + 1 :] < 1e-20)

    def test_coefficient_indexing(self):
        space = hypercube(4)
        spectrum = spectrum_from_coefficients(4, {(1, 3): 2.5})
        table = spectrum.reconstruct()
        back = fourier_transform(table, space)
        assert back.coefficient([1, 3]) == pytest.approx(2.5, abs=1e-12)
        assert back.coefficient([0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_non_hypercube_rejected(self):
        with pytest.raises(DomainError):
            fourier_transform(np.zeros(4), binary(2))

    def test_subset_sizes_equal_the_popcount_loop(self):
        from concentra.funcs import _parity_signs, _subset_sizes

        for n in range(13):
            popcounts = np.array([bin(mask).count("1") for mask in range(1 << n)])
            assert np.array_equal(_subset_sizes(n), popcounts)
            assert np.array_equal(_parity_signs(n), np.where(popcounts % 2 == 0, 1.0, -1.0))


class TestGradientTensors:
    def test_linear_gradient_is_constant(self):
        v = np.array([2.0, -1.0, 0.5])
        poly = MultilinearPoly({1: v})
        np.testing.assert_allclose(gradient_tensor_at(poly, 1, [0.0, 0.0, 0.0]), v)

    def test_quadratic_hessian_is_twice_matrix(self):
        rng = np.random.default_rng(2)
        A = random_symmetric_zero_diag(4, rng)
        f = QuadraticForm(A)
        np.testing.assert_allclose(
            gradient_tensor_at(f, 2, rng.standard_normal(4)), 2 * A, atol=1e-12
        )

    def test_centered_expectation_vanishes(self):
        rng = np.random.default_rng(6)
        A = random_symmetric_zero_diag(4, rng)
        poly = MultilinearPoly({2: A})
        expected = expected_gradient_tensor(poly, 1, rademacher(4))
        np.testing.assert_allclose(expected, np.zeros(4), atol=1e-12)

    def test_expected_matches_enumeration(self):
        rng = np.random.default_rng(8)
        poly = MultilinearPoly(
            {1: rng.standard_normal(3), 2: random_symmetric_zero_diag(3, rng)}
        )
        mu = bernoulli_product(3, 0.3)
        direct = expected_gradient_tensor(poly, 1, mu)
        w = mu.prob_table()
        oracle = np.zeros(3)
        for weight, row in zip(w, enumerate_configurations(mu.space)):
            oracle += weight * gradient_tensor_at(poly, 1, row)
        np.testing.assert_allclose(direct, oracle, atol=1e-12)

    def test_gradient_by_finite_differences(self):
        # multilinear in each coordinate, so the two-point difference is exact
        rng = np.random.default_rng(10)
        n = 4
        poly = MultilinearPoly(
            {2: random_symmetric_zero_diag(n, rng), 3: random_symmetric_zero_diag(n, rng, 3)}
        )
        x = rng.standard_normal(n)
        grad = gradient_tensor_at(poly, 1, x)
        space = hypercube(n)  # a polynomial reads only the width of its space
        for i in range(n):
            up, down = x.copy(), x.copy()
            up[i], down[i] = x[i] + 0.5, x[i] - 0.5
            assert grad[i] == pytest.approx(
                poly.evaluate_on(space, up) - poly.evaluate_on(space, down), rel=1e-9
            )

    def test_order_above_degree_rejected(self):
        poly = MultilinearPoly({1: np.ones(2)})
        with pytest.raises(DomainError):
            gradient_tensor_at(poly, 2, [0.0, 0.0])

    @staticmethod
    def _ising_ring_cubic(n, seed):
        from concentra.models import IsingSpec, build_ising

        rng = np.random.default_rng(seed)
        J = np.zeros((n, n))
        for i in range(n):
            J[i, (i + 1) % n] = J[(i + 1) % n, i] = rng.uniform(0.1, 0.2)
        mu = build_ising(IsingSpec(J, rng.uniform(-0.3, 0.3, n)))[0]
        poly = MultilinearPoly({
            1: rng.standard_normal(n),
            2: random_symmetric_zero_diag(n, rng),
            3: random_symmetric_zero_diag(n, rng, 3),
        })
        return mu, poly

    @staticmethod
    def _loop_oracle(poly, k, mu):
        """The expectation as a weighted sum of one gradient per configuration."""
        out = np.zeros((poly.dim,) * k)
        for weight, row in zip(mu.prob_table(), enumerate_configurations(mu.space)):
            out += weight * gradient_tensor_at(poly, k, row)
        return out

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_expected_on_a_gibbs_measure_matches_the_loop(self, k):
        # An Ising ring is not a product measure: the moments do not factorize.
        mu, poly = self._ising_ring_cubic(8, seed=12)
        oracle = self._loop_oracle(poly, k, mu)
        np.testing.assert_allclose(expected_gradient_tensor(poly, k, mu), oracle,
                                   rtol=1e-12, atol=1e-12 * np.abs(oracle).max())

    @pytest.mark.parametrize("k", [1, 2])
    def test_expected_on_a_gibbs_measure_sums_its_enumeration_blocks(self, k, monkeypatch):
        import concentra.space as space_mod
        from concentra.space import enumeration_blocks

        mu, poly = self._ising_ring_cubic(7, seed=13)
        monkeypatch.setattr(space_mod, "ENUMERATION_BLOCK_BYTES", 4 * 8 * mu.space.n)
        assert len(list(enumeration_blocks(mu.space))) == mu.space.size // 4
        blocked = expected_gradient_tensor(poly, k, mu)
        oracle = self._loop_oracle(poly, k, mu)
        np.testing.assert_allclose(blocked, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())

    def test_expected_on_an_exact_measure_with_zero_masses(self):
        from concentra.space import ExactMeasure

        rng = np.random.default_rng(14)
        space = ProductSpace(((-1.0, 0.5, 2.0),) * 3)
        table = rng.uniform(size=space.size) * (rng.uniform(size=space.size) < 0.6)
        mu = ExactMeasure(space, table / table.sum())
        poly = MultilinearPoly({2: random_symmetric_zero_diag(3, rng), 3: random_symmetric_zero_diag(3, rng, 3)})
        for k in (1, 2):
            oracle = self._loop_oracle(poly, k, mu)
            np.testing.assert_allclose(expected_gradient_tensor(poly, k, mu), oracle,
                                       rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


class TestQuadformIsDegreeTwoPoly:
    """A `quadform` is the degree-2 `poly` given by its matrix: one implementation."""

    @staticmethod
    def _measures():
        three = ProductSpace(((-1.0, 0.5, 2.0),) * 4)
        return {
            "rademacher": rademacher(5),
            "bernoulli": bernoulli_product(5, 0.3),
            "three-letter": uniform(three),
        }

    @pytest.mark.parametrize("name", ["rademacher", "bernoulli", "three-letter"])
    def test_same_table_fields_and_profile_bit_for_bit(self, name):
        from concentra.diffops import h_tensor_field

        mu = self._measures()[name]
        A = random_symmetric_zero_diag(mu.space.n, np.random.default_rng(21))
        quad, poly = QuadraticForm(A), MultilinearPoly({2: A})
        table = quad.evaluate_table(mu.space)
        assert np.array_equal(table, poly.evaluate_table(mu.space))
        for k in (1, 2):
            assert np.array_equal(h_tensor_field(table, mu, k), h_tensor_field(poly.evaluate_table(mu.space), mu, k))
        assert norm_profile(quad, mu, 2) == norm_profile(poly, mu, 2)

    def test_is_a_poly_that_defines_only_its_kind(self):
        rng = np.random.default_rng(22)
        A = random_symmetric_zero_diag(4, rng)
        f = QuadraticForm(A)
        assert isinstance(f, MultilinearPoly)
        assert f.kind == "quadform" and f.degree == 2 and f.dim == 4
        assert np.array_equal(f.tensors[2], A) and list(f.tensors) == [2]
        assert {name for name in vars(QuadraticForm) if not name.startswith("__")} == {"kind"}
        assert not hasattr(f, "as_poly")

    def test_gradient_helpers_take_it_unconverted(self, monkeypatch):
        import concentra.funcs as funcs_mod

        rng = np.random.default_rng(23)
        A = random_symmetric_zero_diag(4, rng)
        f, poly = QuadraticForm(A), MultilinearPoly({2: A})
        # Building another polynomial inside the helpers would be a conversion.
        monkeypatch.setattr(funcs_mod.MultilinearPoly, "__post_init__", lambda self: pytest.fail("converted"))
        x = rng.standard_normal(4)
        for k in (1, 2):
            assert np.array_equal(gradient_tensor_at(f, k, x), gradient_tensor_at(poly, k, x))
            mu = bernoulli_product(4, 0.3)
            assert np.array_equal(expected_gradient_tensor(f, k, mu), expected_gradient_tensor(poly, k, mu))

    def test_matrix_validation_is_the_poly_validation(self):
        with pytest.raises(DomainError, match="order 2 has shape"):
            QuadraticForm(np.zeros((2, 3)))
        with pytest.raises(DomainError, match="ndim"):
            QuadraticForm(np.zeros(3))
        with pytest.raises(DomainError, match="symmetric"):
            QuadraticForm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestChaosQuantities:
    def test_single_coefficient_t1_below_hs(self):
        # scalar chaos with one matrix of coefficients: E W_1 <= |T|_HS
        rng = np.random.default_rng(3)
        n = 4
        T = random_symmetric_zero_diag(n, rng)
        coeffs = {
            (i, j): np.array([2 * T[i, j]]) for i in range(n) for j in range(i + 1, n)
        }
        chaos = VectorChaos(2, n, coeffs, norm="l2")
        mu = rademacher(n)
        configs = enumerate_configurations(mu.space)
        w = mu.prob_table()
        t1 = sum(weight * chaos_w(chaos, 1, row) for weight, row in zip(w, configs))
        hs = float(np.linalg.norm(2 * T))
        assert t1 <= hs + 1e-9

    def test_w_tilde_dominates_w(self):
        rng = np.random.default_rng(5)
        coeffs = {
            (0, 1): rng.standard_normal(2),
            (1, 2): rng.standard_normal(2),
            (0, 2): rng.standard_normal(2),
        }
        chaos = VectorChaos(2, 3, coeffs, norm="l2")
        for row in enumerate_configurations(hypercube(3)):
            for k in (1, 2):
                assert chaos_w_tilde(chaos, k, row) >= chaos_w(chaos, k, row) - 1e-9

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_order_outside_range_rejected(self, norm, k):
        chaos = VectorChaos(2, 3, {(0, 1): [1.0, 2.0]}, norm=norm)
        for quantity in (chaos_w, chaos_w_tilde):
            with pytest.raises(DomainError, match=r"outside 1\.\.2"):
                quantity(chaos, k, [1.0, 1.0, 1.0])


class TestSerialization:
    def test_round_trips(self):
        rng = np.random.default_rng(1)
        specs = [
            Tabulated(rng.standard_normal(4)),
            MultilinearPoly({1: rng.standard_normal(3), 2: random_symmetric_zero_diag(3, rng)}),
            QuadraticForm(random_symmetric_zero_diag(3, rng)),
            UStatistic(2, np.ones((2, 2))),
            SupFamily((MultilinearPoly({1: np.ones(2)}),)),
            VectorChaos(2, 3, {(0, 1): np.array([1.0, 2.0])}, norm="linf"),
        ]
        space_by_kind = {
            "table": hypercube(2),
            "poly": hypercube(3),
            "quadform": hypercube(3),
            "ustat": binary(3),
            "sup": hypercube(2),
            "chaos": hypercube(3),
        }
        for spec in specs:
            back = function_from_json(spec.to_json())
            space = space_by_kind[spec.kind]
            np.testing.assert_allclose(
                back.evaluate_table(space), spec.evaluate_table(space), atol=1e-12
            )
