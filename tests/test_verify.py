import math

import numpy as np
import pytest

from concentra.bounds import MomentProfile, TailBound, independent, dlsi, moment_to_tail
from concentra.diffops import norm_profile
from concentra.errors import DomainError
from concentra.funcs import MultilinearPoly, QuadraticForm, SupFamily, Tabulated, UStatistic
from concentra.space import rademacher
from concentra.verify import (
    KAPPA,
    check_d_moment_inequality,
    check_domination,
    check_moment_chain,
    check_recursion_lemma,
    check_sup_lemma,
    check_ustat_entry_bound,
    clopper_pearson_upper,
    corpus_names,
    domination_grid,
    measure_safety_factor,
    run_corpus_entry,
    run_suite,
    tail_curve,
)


def pair_product(n=2):
    A = np.zeros((n, n))
    A[0, 1] = A[1, 0] = 0.5
    return QuadraticForm(A)


class TestTailCurve:
    def test_constant_function_zero_tail(self):
        mu = rademacher(2)
        curve = tail_curve(mu, Tabulated(np.full(4, 2.0)), [0.5, 1.0, 2.0])
        np.testing.assert_allclose(curve.prob, np.zeros(3))

    def test_value_one_at_origin(self):
        mu = rademacher(10)
        f = MultilinearPoly({1: np.ones(10)})
        curve = tail_curve(mu, f, [0.0])
        assert curve.prob[0] == 1.0

    def test_pair_product_exact(self):
        mu = rademacher(4)
        curve = tail_curve(mu, pair_product(4), [0.5, 1.0, 1.0001])
        np.testing.assert_allclose(curve.prob, [1.0, 1.0, 0.0])

    def test_upper_side(self):
        mu = rademacher(1)
        f = MultilinearPoly({1: np.array([1.0])})
        curve = tail_curve(mu, f, [0.5, 1.0], side="upper")
        np.testing.assert_allclose(curve.prob, [0.5, 0.5])

    def test_monte_carlo_counts_and_limits(self):
        rng = np.random.default_rng(0)
        mu = rademacher(3)
        samples = rng.choice([-1.0, 1.0], size=(2000, 3))
        f = MultilinearPoly({1: np.ones(3)})
        curve = tail_curve(mu, f, [0.0, 2.0, 4.0], mode="monte_carlo", samples=samples)
        assert curve.mode == "monte_carlo"
        assert np.all(curve.upper >= curve.prob)
        # |sum of three signs| >= 2 only at +-3, probability 1/4
        assert curve.prob[1] == pytest.approx(0.25, abs=0.05)

    @pytest.mark.parametrize("side", ["two", "upper"])
    def test_monte_carlo_tabulated_uses_table_at_sample_rows(self, side):
        rng = np.random.default_rng(21)
        mu = rademacher(4)
        table = rng.standard_normal(16)
        samples = rng.choice([-1.0, 1.0], size=(300, 4))
        grid = [0.0, 0.25, 0.5, 1.0, 2.0]
        curve = tail_curve(mu, Tabulated(table), grid, mode="monte_carlo", side=side, samples=samples)
        values = table[[mu.space.index_of(row) for row in samples]]
        mean = float(values.mean())
        dev = np.abs(values - mean) if side == "two" else values - mean
        counts = [int(np.count_nonzero(dev >= t)) for t in grid]
        assert curve.center == mean
        assert curve.prob.tolist() == [c / 300 for c in counts]
        assert curve.upper.tolist() == [clopper_pearson_upper(c, 300) for c in counts]

    def test_monte_carlo_ustatistic(self):
        rng = np.random.default_rng(22)
        mu = rademacher(4)
        u = UStatistic(2, np.array([[1.0, -1.0], [-1.0, 2.0]]))
        samples = rng.choice([-1.0, 1.0], size=(50, 4))
        curve = tail_curve(mu, u, [0.0, 1.0], mode="monte_carlo", samples=samples)
        values = np.array([u.evaluate_on(mu.space, row) for row in samples])
        assert curve.center == pytest.approx(float(values.mean()), abs=1e-12)

    def test_grid_must_be_sorted(self):
        with pytest.raises(DomainError):
            tail_curve(rademacher(1), np.array([0.0, 1.0]), [1.0, 0.5])


class TestClopperPearson:
    def test_known_values(self):
        # k = m: the upper limit is 1
        assert clopper_pearson_upper(10, 10, 0.999) == 1.0
        # k = 0: upper limit 1 - (1 - conf)^(1/m)
        m, conf = 50, 0.999
        assert clopper_pearson_upper(0, m, conf) == pytest.approx(
            1 - (1 - conf) ** (1 / m), rel=1e-9
        )

    def test_exact_coverage_meets_nominal(self):
        # the true validity statement, summed over the binomial pmf
        from concentra.verify import exact_binomial_coverage

        for p, m, conf in [(0.2, 300, 0.999), (0.5, 30, 0.99), (0.02, 500, 0.999)]:
            assert exact_binomial_coverage(p, m, conf) >= conf

    def test_coverage_on_synthetic_streams(self):
        rng = np.random.default_rng(1234)
        p, m, reps, conf = 0.2, 300, 1000, 0.999
        failures = sum(
            1 for _ in range(reps) if clopper_pearson_upper(int(rng.binomial(m, p)), m, conf) < p
        )
        assert failures <= 1  # frozen seed; true failure rate <= 1 - conf per draw

    def test_validation(self):
        with pytest.raises(DomainError):
            clopper_pearson_upper(5, 0)
        with pytest.raises(DomainError):
            clopper_pearson_upper(5, 4)


class TestDomination:
    def test_trivial_bound_always_dominates(self):
        mu = rademacher(3)
        f = MultilinearPoly({1: np.ones(3)})
        grid = np.linspace(0.0, 4.0, 9)
        curve = tail_curve(mu, f, grid)
        bound = TailBound(((1.0, 1e9),), 1.0)  # essentially 1 everywhere
        report = check_domination(curve, bound)
        assert report.dominated
        assert not report.nonvacuous

    def test_exact_pair_product_dominated_by_main_bound(self):
        from concentra.bounds import bound_general

        mu = rademacher(2)
        f = pair_product()
        profile = norm_profile(f, mu, 2)
        bound = bound_general(profile, independent(2))
        grid = domination_grid(bound, 1.0)
        curve = tail_curve(mu, f, grid)
        report = check_domination(curve, bound)
        assert report.dominated
        assert report.nonvacuous

    def test_artificially_shrunk_constant_flips(self):
        from concentra.bounds import bound_general

        mu = rademacher(2)
        f = pair_product()
        profile = norm_profile(f, mu, 2)
        bound = bound_general(profile, independent(2))
        grid = domination_grid(bound, 1.0)
        curve = tail_curve(mu, f, grid)
        safety = measure_safety_factor(curve, bound)
        assert math.isfinite(safety) and safety > 1.0
        shrunk = bound.scaled_constant(1.0 / (1.05 * safety))
        assert not check_domination(curve, shrunk).dominated
        # shrinking less than the safety factor must NOT flip
        mild = bound.scaled_constant(1.0 / (0.9 * safety))
        assert check_domination(curve, mild).dominated

    def test_one_sided_bound_needs_upper_curve(self):
        curve = tail_curve(rademacher(1), np.array([0.0, 1.0]), [0.0, 1.0], side="two")
        bound = TailBound(((1.0, 1.0),), 1.0, one_sided=True)
        with pytest.raises(DomainError):
            check_domination(curve, bound)


class TestMomentChain:
    def test_constant_function_trivial(self):
        mu = rademacher(3)
        report = check_moment_chain(mu, Tabulated(np.zeros(8)), 2, [2, 5, 10], independent(2))
        assert report.passed
        assert report.worst_margin <= 0.0

    def test_kappa_value(self):
        # evaluate sqrt(e) / (2 (sqrt(e) - 1)) directly
        root_e = math.sqrt(math.e)
        assert KAPPA == pytest.approx(root_e / (2 * (root_e - 1)), rel=1e-15)
        assert KAPPA == pytest.approx(1.270747, abs=1e-6)

    def test_random_quadratic_forms_hold_with_margin(self):
        rng = np.random.default_rng(2)
        mu = rademacher(4)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            A = (A + A.T) / 2
            np.fill_diagonal(A, 0.0)
            report = check_moment_chain(
                mu, QuadraticForm(A), 2, list(range(2, 21)), independent(2)
            )
            assert report.passed
            assert report.worst_margin < 0.0

    def test_dlsi_chain_on_rademacher(self):
        rng = np.random.default_rng(3)
        mu = rademacher(3)
        f = Tabulated(rng.uniform(-1.0, 1.0, size=8))
        report = check_moment_chain(mu, f, 2, list(range(2, 16)), dlsi(1.0, 2))
        assert report.passed

    def test_poincare_endpoint_at_p_two(self):
        # ||f - Ef||_2 <= ||df||_2 under the d-operator LSI with constant 1 at p = 2
        rng = np.random.default_rng(4)
        mu = rademacher(3)
        f = Tabulated(rng.standard_normal(8))
        report = check_d_moment_inequality(mu, f, [2.0], sigma2=1.0)
        assert report.passed
        factor = math.sqrt(2 * 1.0 * (2.0 - 1.5))
        assert factor == pytest.approx(1.0)

    def test_p_below_two_rejected(self):
        with pytest.raises(DomainError):
            check_moment_chain(rademacher(2), Tabulated(np.zeros(4)), 1, [1.5], independent(1))


class TestRecursionLemma:
    def test_linear_function_zero_both_sides(self):
        mu = rademacher(3)
        f = MultilinearPoly({1: np.ones(3)})
        report = check_recursion_lemma(mu, f, 2)
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_pair_product_bounded_by_four(self):
        mu = rademacher(2)
        report = check_recursion_lemma(mu, pair_product(), 2)
        assert report.passed

    def test_random_functions_d2_exact(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 5):
            mu = rademacher(n)
            for _ in range(10):
                f = Tabulated(rng.uniform(-1.0, 1.0, size=mu.space.size))
                report = check_recursion_lemma(mu, f, 2, slack=1e-9)
                assert report.passed

    def test_random_functions_d3_with_slack(self):
        rng = np.random.default_rng(6)
        mu = rademacher(4)
        for _ in range(5):
            f = Tabulated(rng.uniform(-1.0, 1.0, size=16))
            report = check_recursion_lemma(mu, f, 3, slack=1e-6)
            assert report.passed


class TestSupLemma:
    def test_singleton_family_equality(self):
        mu = rademacher(2)
        family = SupFamily((pair_product(),))
        report = check_sup_lemma(family, mu)
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_two_dictators(self):
        mu = rademacher(2)
        family = SupFamily(
            (MultilinearPoly({1: np.array([1.0, 0.0])}), MultilinearPoly({1: np.array([0.0, 1.0])}))
        )
        assert check_sup_lemma(family, mu).passed

    def test_random_linear_families(self):
        rng = np.random.default_rng(7)
        mu = rademacher(3)
        for _ in range(50):
            members = tuple(
                MultilinearPoly({1: rng.standard_normal(3)})
                for _ in range(int(rng.integers(2, 5)))
            )
            assert check_sup_lemma(SupFamily(members), mu).passed


class TestUstatEntryBound:
    def test_zero_kernel(self):
        kernel = UStatistic(2, np.zeros((2, 2)))
        report = check_ustat_entry_bound(kernel, 4, 1)
        assert report.passed
        assert report.worst_margin <= 0.0

    def test_worst_case_kernel_is_tight_at_top_order(self):
        kernel = UStatistic(2, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        report = check_ustat_entry_bound(kernel, 4, 2)
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_random_kernels(self):
        rng = np.random.default_rng(8)
        for n in (4, 5):
            H = rng.uniform(-1.0, 1.0, size=(3, 3))
            H = (H + H.T) / 2
            kernel = UStatistic(2, H)
            for k in (1, 2):
                assert check_ustat_entry_bound(kernel, n, k).passed


class TestMomentDisplays:
    def test_chaos_one_sided_moment_chain(self):
        # ||(f - Ef)+||_p <= sum_j (2 sigma^2 (b-a)^2 (p - 3/2))^(j/2) E W_j
        # for the supremum-type chaos quantities, exactly enumerated
        from concentra.funcs import VectorChaos, chaos_w
        from concentra.space import enumerate_configurations

        rng = np.random.default_rng(30)
        n, d = 3, 2
        coeffs = {
            (i, j): rng.standard_normal(1) for i in range(n) for j in range(i + 1, n)
        }
        chaos = VectorChaos(d, n, coeffs, norm="l2")
        mu = rademacher(n)
        w = mu.prob_table()
        configs = enumerate_configurations(mu.space)
        table = chaos.evaluate_batch(configs)
        mean = float(np.dot(w, table))
        expected_w = [
            sum(weight * chaos_w(chaos, k, row) for weight, row in zip(w, configs))
            for k in (1, 2)
        ]
        sigma2, span = 1.0, 2.0
        for p in range(2, 17):
            lhs = float(np.dot(w, np.maximum(table - mean, 0.0) ** p)) ** (1.0 / p)
            base = 2.0 * sigma2 * span**2 * (p - 1.5)
            rhs = sum(base ** (j / 2.0) * expected_w[j - 1] for j in (1, 2))
            assert lhs <= rhs + 1e-9

    def test_boolean_moment_inequality(self):
        # ||f - Ef||_p <= sum_j (p-1)^(j/2) W_j(f)^(1/2) for low-degree functions
        from concentra.funcs import fourier_transform, spectrum_from_coefficients
        from concentra.space import hypercube, lp_norm

        rng = np.random.default_rng(31)
        n, d = 8, 3
        space = hypercube(n)
        mu = rademacher(n)
        for _ in range(10):
            entries = {}
            for order in range(1, d + 1):
                for _ in range(int(rng.integers(1, 4))):
                    subset = tuple(sorted(rng.choice(n, size=order, replace=False).tolist()))
                    entries[subset] = float(rng.uniform(-1.0, 1.0))
            table = spectrum_from_coefficients(n, entries).reconstruct()
            weights = fourier_transform(table, space).weights()
            for p in range(2, 13):
                lhs = lp_norm(mu, table, float(p))
                rhs = sum(
                    (p - 1) ** (j / 2.0) * math.sqrt(weights[j]) for j in range(1, d + 1)
                )
                assert lhs <= rhs + 1e-9


class TestEndToEndMomentToTail:
    def test_chain_profile_dominates_exact_tail(self):
        # moment coefficients built from the difference-tensor chain upper-bound
        # the true L^p growth at every p, so the converted bound dominates
        rng = np.random.default_rng(9)
        mu = rademacher(4)
        f = Tabulated(rng.uniform(-1.0, 1.0, size=16))
        d = 2
        profile = norm_profile(f, mu, d)
        coeffs = tuple((8 * KAPPA) ** (j / 2.0) * profile.gamma[j - 1] for j in range(1, d + 1))
        bound = moment_to_tail(MomentProfile(coeffs, 0.0))
        grid = domination_grid(bound, 2.0)
        curve = tail_curve(mu, f, grid)
        report = check_domination(curve, bound)
        assert report.dominated


class TestSupremaEndToEnd:
    def test_linear_family_upper_tail_dominated(self):
        # g = max_f |<a_f, x>| over a small family: the one-level suprema bound
        # with exact ||W_1||_inf dominates the exact upper tail
        from concentra.bounds import bound_suprema
        from concentra.verify import suprema_profile

        rng = np.random.default_rng(20)
        n = 4
        mu = rademacher(n)
        family = SupFamily(
            tuple(MultilinearPoly({1: rng.standard_normal(n)}) for _ in range(3))
        )
        expected_w, top = suprema_profile(family, mu, d=1)
        assert expected_w == []
        bound = bound_suprema([], top, dlsi(1.0, 1))
        grid = domination_grid(bound, 8.0)
        curve = tail_curve(mu, family, grid, side="upper")
        report = check_domination(curve, bound)
        assert report.dominated
        assert report.nonvacuous

    def test_quadratic_family_two_levels_dominated(self):
        from concentra.bounds import bound_suprema
        from concentra.verify import suprema_profile

        rng = np.random.default_rng(21)
        n = 3
        mu = rademacher(n)
        members = []
        for _ in range(3):
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            np.fill_diagonal(A, 0.0)
            members.append(QuadraticForm(A))
        family = SupFamily(tuple(members))
        expected_w, top = suprema_profile(family, mu, d=2)
        assert len(expected_w) == 1 and expected_w[0] > 0 and top > 0
        bound = bound_suprema(expected_w, top, dlsi(1.0, 2))
        grid = domination_grid(bound, 10.0)
        curve = tail_curve(mu, family, grid, side="upper")
        report = check_domination(curve, bound)
        assert report.dominated

    def test_sums_of_coordinate_functions(self):
        # g = sup_f |sum_j f(x_j)| for per-coordinate functions f with range
        # c(f): the bounded-differences suprema bound holds on the upper tail
        from concentra.bounds import bound_sums_supremum
        from concentra.space import enumerate_configurations

        rng = np.random.default_rng(22)
        n = 6
        mu = rademacher(n)
        configs = enumerate_configurations(mu.space)
        members, ranges = [], []
        for _ in range(4):
            lo, hi = sorted(rng.uniform(-1.0, 1.0, size=2))
            # f(x_j) affine on {-1, +1}: sum = n*(hi+lo)/2 + (hi-lo)/2 * sum x_j
            values = n * (hi + lo) / 2 + (hi - lo) / 2 * configs.sum(axis=1)
            members.append(Tabulated(values))
            ranges.append(hi - lo)
        family = SupFamily(tuple(members))
        bound = bound_sums_supremum(n, max(ranges), sigma2=1.0)
        grid = domination_grid(bound, float(n * max(ranges)))
        curve = tail_curve(mu, family, grid, side="upper")
        report = check_domination(curve, bound)
        assert report.dominated
        assert report.nonvacuous


class TestCorpus:
    def test_has_at_least_ten_entries(self):
        assert len(corpus_names()) >= 10

    def test_single_entry_passes_with_all_flags(self):
        result = run_corpus_entry("rademacher4-pair")
        assert result["passed"]
        assert result["dominated"]
        assert result["nonvacuous"]
        assert result["negative_control_flipped"]
        assert result["safety_factor"] > 1.0


class TestSuite:
    def test_deterministic_and_green(self):
        r1 = run_suite(seed=3)
        r2 = run_suite(seed=3)
        assert r1.all_passed
        assert r1.to_json() == r2.to_json()

    def test_pool_capped_at_corpus_size(self, monkeypatch):
        import concurrent.futures

        seen = []

        class Stop(Exception):
            pass

        def fake_pool(max_workers):
            seen.append(max_workers)
            raise Stop  # start no process and run no entry

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fake_pool)
        with pytest.raises(Stop):
            run_suite(seed=0, jobs=10_000)
        assert seen == [len(corpus_names())]
