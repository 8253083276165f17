import math
from importlib import resources
from itertools import permutations

import numpy as np
import pytest

from concentra.bounds import MomentProfile, TailBound, independent, dlsi, moment_to_tail
from concentra.diffops import norm_profile
from concentra.errors import DomainError
from concentra.funcs import MultilinearPoly, QuadraticForm, SupFamily, Tabulated, UStatistic
from concentra import verify
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

    @pytest.mark.parametrize("side", ["two", "upper"])
    def test_monte_carlo_counts_deviations_equal_to_t(self, side):
        # Integer deviations on an integer grid: a count of dev >= t, not dev > t.
        rng = np.random.default_rng(23)
        mu = rademacher(3)
        samples = rng.choice([-1.0, 1.0], size=(40, 3))
        table = np.array([-3.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 3.0])  # the sum of the coordinates
        grid = [-3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        curve = tail_curve(mu, Tabulated(table), grid, mode="monte_carlo", side=side, samples=samples, center=0.0)
        values = table[[mu.space.index_of(row) for row in samples]]
        dev = np.abs(values) if side == "two" else values
        counts = [int(np.count_nonzero(dev >= t)) for t in grid]
        assert curve.prob.tolist() == [c / 40 for c in counts]
        assert curve.upper.tolist() == [clopper_pearson_upper(c, 40) for c in counts]

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

    def test_exact_coverage_equals_the_pmf_sum(self):
        from scipy import stats

        from concentra.verify import exact_binomial_coverage

        for p, m, conf in [(0.3, 400, 0.999), (0.05, 200, 0.999), (0.5, 50, 0.999), (0.2, 300, 0.99),
                           (1e-9, 10, 0.999), (1.0, 10, 0.999)]:
            ks = np.arange(m + 1)
            covered = np.array([clopper_pearson_upper(int(k), m, conf) >= p for k in ks])
            oracle = float(stats.binom.pmf(ks, m, p)[covered].sum())
            assert exact_binomial_coverage(p, m, conf) == pytest.approx(oracle, rel=1e-14, abs=0)

    def test_exact_coverage_checks_the_covered_counts_form_an_upper_set(self, monkeypatch):
        import concentra.verify as verify_mod

        # A limit that covers at k = 0 but not at k = 1 breaks the tail formula.
        monkeypatch.setattr(verify_mod, "clopper_pearson_upper", lambda k, m, conf: np.where(k != 1, 1.0, 0.0))
        with pytest.raises(AssertionError, match="upper set"):
            verify_mod.exact_binomial_coverage(0.5, 5, 0.999)

    def test_suite_coverage_check_loads_no_scipy_stats(self):
        import subprocess
        import sys
        from pathlib import Path

        import concentra

        code = (
            "import sys; from concentra.verify import _suite_clopper_pearson; "
            "check = _suite_clopper_pearson(0); "
            "print(check.passed, sorted(m for m in sys.modules if m in ('scipy.special', 'scipy.stats')))"
        )
        env = {"PYTHONPATH": str(Path(concentra.__file__).parent.parent), "PATH": ""}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "True ['scipy.special']"

    def test_coverage_on_synthetic_streams(self):
        rng = np.random.default_rng(1234)
        p, m, reps, conf = 0.2, 300, 1000, 0.999
        failures = sum(
            1 for _ in range(reps) if clopper_pearson_upper(int(rng.binomial(m, p)), m, conf) < p
        )
        assert failures <= 1  # frozen seed; true failure rate <= 1 - conf per draw

    def test_equals_the_beta_quantile_bit_for_bit(self):
        from scipy import stats

        for m in (1, 2, 7, 50, 300, 2000, 20000):
            for k in sorted({0, 1, m // 3, m // 2, m - 1} - {m}):
                for conf in (0.5, 0.9, 0.99, 0.999):
                    assert clopper_pearson_upper(k, m, conf) == float(stats.beta.ppf(conf, k + 1, m - k))

    def test_validation(self):
        with pytest.raises(DomainError):
            clopper_pearson_upper(5, 0)
        with pytest.raises(DomainError):
            clopper_pearson_upper(5, 4)
        with pytest.raises(DomainError):
            clopper_pearson_upper(np.array([0, 3, 5]), 4)
        with pytest.raises(DomainError):
            clopper_pearson_upper(np.array([-1, 3]), 4)

    @pytest.mark.parametrize("m", [1, 7, 400])
    def test_a_grid_of_counts_gives_each_count_its_own_limit(self, m):
        counts = np.arange(m + 1)
        for conf in (0.9, 0.999):
            got = clopper_pearson_upper(counts, m, conf)
            assert isinstance(got, np.ndarray) and got.shape == (m + 1,)
            assert got.tolist() == [clopper_pearson_upper(int(k), m, conf) for k in counts]
        assert type(clopper_pearson_upper(3, 7)) is float

    def test_suite_coverage_check_draws_the_scalar_stream(self):
        # One batch of binomial draws is the stream of one draw at a time.
        from concentra.verify import _suite_clopper_pearson

        for seed in (0, 5):
            rng = np.random.default_rng(seed)
            draws = [int(rng.binomial(400, 0.3)) for _ in range(1000)]
            assert np.random.default_rng(seed).binomial(400, 0.3, size=1000).tolist() == draws
            failures = sum(1 for k in draws if clopper_pearson_upper(k, 400, 0.999) < 0.3)
            assert _suite_clopper_pearson(seed).detail["sampled_failures"] == failures


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

    @pytest.mark.parametrize("grid", [[], [1.5], [3.0, 1.5]])
    @pytest.mark.parametrize("check", ["chain", "first-order"])
    def test_bad_grid_is_a_domain_error_for_both_checks(self, check, grid):
        mu, f = rademacher(2), Tabulated(np.arange(4.0))
        with pytest.raises(DomainError):
            if check == "chain":
                check_moment_chain(mu, f, 1, grid, independent(1))
            else:
                check_d_moment_inequality(mu, f, grid, 1.0)

    def test_function_table_is_evaluated_once(self, monkeypatch):
        from concentra.funcs import FunctionSpec

        calls = []
        evaluate_table = FunctionSpec.evaluate_table

        def spy(self, space):
            calls.append(space)
            return evaluate_table(self, space)

        monkeypatch.setattr(FunctionSpec, "evaluate_table", spy)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        f = QuadraticForm(A)
        report = check_moment_chain(rademacher(4), f, 2, list(range(2, 21)), independent(2))
        assert len(calls) == 1
        table = evaluate_table(f, rademacher(4).space)
        bare = check_moment_chain(rademacher(4), table, 2, list(range(2, 21)), independent(2))
        # Both reports read the same table, so everything but the right side is
        # equal.  The right side's gamma_2 is the norm of `polynomial_level` for
        # f and of the kernel's upper end for the table, whose entries sit a few
        # ulps above it: the two agree to 4 n eps relative, not bit for bit.
        assert (report.regime, report.d, report.p_grid, report.lhs, report.passed) == (
            bare.regime, bare.d, bare.p_grid, bare.lhs, bare.passed)
        rel = 4 * 4 * np.finfo(float).eps
        np.testing.assert_allclose(report.rhs, bare.rhs, rtol=rel, atol=0.0)
        assert abs(report.worst_margin - bare.worst_margin) <= rel * max(bare.rhs)
        gamma, bare_gamma = (norm_profile(g, rademacher(4), 2).gamma for g in (f, table))
        assert gamma[0] == bare_gamma[0] and gamma[1] == pytest.approx(bare_gamma[1], rel=rel, abs=0.0)


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

    @pytest.mark.parametrize("n, d", [(3, 2), (5, 2), (4, 3), (5, 3)])
    def test_batch_margins_match_each_table_alone(self, n, d):
        mu = rademacher(n)
        tables = np.random.default_rng(10 * n + d).uniform(-1.0, 1.0, size=(6, mu.space.size))
        batch = verify._recursion_margins(tables, mu, d)
        alone = np.array([check_recursion_lemma(mu, Tabulated(t), d).worst_margin for t in tables])
        if d == 2:
            # orders <= 2 are exact: a table's margin does not depend on its batch
            assert np.array_equal(batch, alone)
        else:
            # the ALS starts of the right side depend on the batch
            assert batch == pytest.approx(alone, rel=1e-9)

    @staticmethod
    def per_trial_detail(seed):
        """The suite's recursion check as a loop of one check_recursion_lemma per trial."""
        rng = np.random.default_rng(seed)
        worst, runs = -math.inf, 0
        for trial in range(40):
            n = int(rng.integers(3, 6))
            d = 2 if trial % 2 == 0 else 3
            if d == 3 and n < 4:
                n = 4
            mu = rademacher(n)
            f = Tabulated(rng.uniform(-1.0, 1.0, size=mu.space.size))
            report = check_recursion_lemma(mu, f, d, slack=verify._RECURSION_SLACK[d])
            worst = max(worst, report.worst_margin)
            runs += 1
            if not report.passed:
                return False, worst, runs
        return True, worst, runs

    @pytest.mark.parametrize("seed", [7919, 12345])
    def test_suite_detail_matches_the_per_trial_loop(self, seed):
        check = verify._suite_recursion(seed)
        passed, worst, runs = self.per_trial_detail(seed)
        assert (check.passed, check.detail["runs"]) == (passed, runs) == (True, 40)
        assert check.detail["worst_margin"] == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize("seed", [7919, 12345])
    def test_a_failing_trial_ends_the_suite_detail(self, monkeypatch, seed):
        # force one d = 3 trial to fail, the one of largest margin: a slack
        # between the two largest d = 3 margins, far from both
        rng = np.random.default_rng(seed)
        margins = []
        for trial in range(40):
            n = max(int(rng.integers(3, 6)), 4 if trial % 2 else 3)
            table = rng.uniform(-1.0, 1.0, size=2**n)
            if trial % 2:
                margins.append(check_recursion_lemma(rademacher(n), Tabulated(table), 3).worst_margin)
        low, high = sorted(margins)[-2:]
        assert high - low > 1e-6
        monkeypatch.setitem(verify._RECURSION_SLACK, 3, (low + high) / 2)
        check = verify._suite_recursion(seed)
        passed, worst, runs = self.per_trial_detail(seed)
        assert not check.passed and not passed
        assert check.detail["runs"] == runs == 2 * margins.index(high) + 2
        assert check.detail["worst_margin"] == pytest.approx(worst, rel=1e-12)


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

    def test_report_matches_the_dense_field(self):
        from concentra.diffops import h_tensor_field
        from concentra.space import ProductSpace, uniform

        rng = np.random.default_rng(9)
        H = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        H = sum(H.transpose(p) for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6
        kernel = UStatistic(3, H)
        for n, k in ((3, 3), (4, 1), (4, 2), (5, 3)):
            mu = uniform(ProductSpace(((0.0, 1.0, 2.0),) * n))
            field = h_tensor_field(kernel.evaluate_table(mu.space), mu, k)
            limit = math.comb(3, k) * 2.0**k * kernel.bound * float(n) ** (3 - k)
            report = check_ustat_entry_bound(kernel, n, k)
            assert (report.worst_margin, report.checked) == (float(field.max()) - limit, field.size)


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
        table = chaos.evaluate_rows(mu.space, configs)
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


class TestSupremaProfile:
    def test_matches_the_per_configuration_family_supremum(self):
        from concentra.diffops import h_tensor_field
        from concentra.space import bernoulli_product
        from concentra.tensors import op_norm_batch
        from concentra.verify import suprema_profile

        rng = np.random.default_rng(22)
        n = 4
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        # level 2 of the quadratic form is one tensor everywhere; the table's is not
        family = SupFamily((QuadraticForm(A), Tabulated(rng.standard_normal(2**n))))
        for mu in (rademacher(n), bernoulli_product(n, 0.3)):
            w = mu.prob_table()
            support = w > 0.0
            sup_norms = [
                np.max([op_norm_batch(h_tensor_field(m.evaluate_table(mu.space), mu, j)[support])
                        for m in family.members], axis=0)
                for j in (1, 2, 3)
            ]
            expected_w, top = suprema_profile(family, mu, d=3)
            want = [float(np.dot(w[support], s)) for s in sup_norms[:2]]
            assert expected_w[0] == want[0]
            # the quadratic form's level-2 norm is its certified upper end where it is the larger
            assert want[1] * (1.0 - 8 * np.finfo(float).eps) <= expected_w[1] <= want[1] * (1.0 + 1e-12)
            assert top == float(sup_norms[2].max())
            for members in ((family.members[0],), (family.members[0],) * 2):
                # a family of one quadratic form is that form's profile
                expected_w, top = suprema_profile(SupFamily(members), mu, d=2)
                assert (*expected_w, top) == norm_profile(members[0], mu, 2).gamma

    @pytest.mark.parametrize("model", ["product", "gibbs"])
    def test_singleton_family_is_the_norm_profile_bit_for_bit(self, model):
        # one home for the exact level scales: a family of one is its member's profile
        from concentra.models import IsingSpec, build_ising
        from concentra.space import bernoulli_product
        from concentra.verify import suprema_profile

        rng = np.random.default_rng(24)
        n = 4
        if model == "product":
            mu = bernoulli_product(n, 0.3)
        else:
            J = np.zeros((n, n))
            for i in range(n):
                J[i, (i + 1) % n] = J[(i + 1) % n, i] = rng.uniform(0.1, 0.4)
            mu = build_ising(IsingSpec(J, rng.uniform(-0.2, 0.2, size=n)))[0]
        cubic = np.zeros((n,) * 3)
        for triple in ((0, 1, 2), (1, 2, 3)):
            value = rng.uniform(0.5, 1.0)
            for perm in permutations(triple):
                cubic[perm] = value
        # the table's order-3 level has spread (one norm per configuration); the
        # cubic's is one tensor everywhere (one norm)
        for f in (Tabulated(rng.standard_normal(2**n)), MultilinearPoly({1: rng.standard_normal(n), 3: cubic})):
            expected_w, top = suprema_profile(SupFamily((f,)), mu, d=3)
            assert (*expected_w, top) == norm_profile(f, mu, 3).gamma


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

    def test_names_are_the_shipped_files_in_report_order(self):
        shipped = {
            f.name.removesuffix(".json")
            for f in (resources.files("concentra") / "corpus").iterdir() if f.name.endswith(".json")
        }
        assert set(corpus_names()) == shipped
        assert corpus_names() == [
            "rademacher4-pair", "rademacher6-quadratic", "rademacher5-sum", "rademacher4-cubic",
            "bernoulli07-quadratic", "ternary4-table", "rademacher4-sum-dlsi", "ising4-quadratic",
            "ising8-magnetization", "curie-weiss6-magnetization", "triangle-coloring-count",
            "ergm4-triangles", "ergm5-edges",
        ]

    def test_sigma2_source_follows_the_config_form(self):
        got = {}
        for name in ("rademacher4-pair", "rademacher4-sum-dlsi", "curie-weiss6-magnetization"):
            result = run_corpus_entry(name)
            got[name] = (result["sigma2_source"], result["sigma2"])
        assert got["rademacher4-pair"] == ("", None)
        assert got["rademacher4-sum-dlsi"] == ("stated", 1.0)
        source, sigma2 = got["curie-weiss6-magnetization"]
        assert source == "spectral" and sigma2 > 0.0

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

    def test_pool_workers_match_serial(self):
        assert run_suite(seed=0, jobs=2).to_json() == run_suite(seed=0, jobs=1).to_json()

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
