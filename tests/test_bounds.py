import math

import numpy as np
import pytest

from concentra.bounds import (
    MomentProfile,
    TailBound,
    bound_boolean,
    bound_chaos,
    bound_chaos_quadratic,
    bound_ergm_triangle,
    bound_general,
    bound_polynomial,
    bound_suprema,
    bound_sums_supremum,
    bound_ustat,
    dlsi,
    hanson_wright,
    independent,
    moment_to_tail,
    polynomial_partition_norms,
)
from concentra.diffops import NormProfile
from concentra.errors import DomainError
from concentra.funcs import MultilinearPoly, QuadraticForm
from concentra.space import rademacher
from concentra.tensors import Partition, hs_norm, op_norm


class TestTailBoundShape:
    def test_one_at_origin_and_monotone(self):
        bound = TailBound(((1.0, 2.0), (2.0, 3.0)), 10.0)
        grid = np.linspace(0.0, 50.0, 101)
        values = bound.evaluate_grid(grid)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)

    def test_tends_to_zero(self):
        bound = TailBound(((2.0, 1.0),), 5.0)
        assert bound.evaluate(1e6) < 1e-10

    def test_zero_levels_excluded(self):
        bound = TailBound(((1.0, 0.0), (2.0, 1.0)), 1.0)
        # only the second level contributes
        assert bound.exponent(2.0) == pytest.approx(2.0)

    def test_all_zero_levels_collapse(self):
        bound = TailBound(((1.0, 0.0), (2.0, 0.0)), 217.0)
        assert bound.evaluate(0.5) == 0.0
        assert bound.evaluate(0.0) == 1.0

    def test_enlarging_scale_weakly_increases(self):
        base = TailBound(((1.0, 1.0), (2.0, 2.0)), 60.0)
        wider = TailBound(((1.0, 1.5), (2.0, 2.0)), 60.0)
        for t in np.linspace(0.1, 40.0, 50):
            assert wider.evaluate_raw(t) >= base.evaluate_raw(t) - 1e-15

    def test_active_level(self):
        bound = TailBound(((1.0, 1.0), (2.0, 2.0)), 1.0)
        assert bound.active_level(0.0) is None
        # the Gaussian level wins at small t, the heavier level at large t
        assert bound.active_level(0.1) == 1.0
        assert bound.active_level(10.0) == 2.0

    def test_serialization_round_trip(self):
        bound = TailBound(((1.0, 1.5),), 2.0, prefactor=math.e, one_sided=True, label="x")
        back = TailBound.from_json(bound.to_json())
        assert back == bound


class TestBoundGeneral:
    def test_spec_example(self):
        profile = NormProfile(2, (1.0, 2.0))
        bound = bound_general(profile, dlsi(1.0, 2))
        assert bound.constant == pytest.approx(60.0)
        assert bound.exponent(6.0) == pytest.approx(0.05)
        assert bound.evaluate(6.0) == 1.0
        assert bound.evaluate_raw(6.0) == pytest.approx(2 * math.exp(-0.05))

    def test_independent_constant(self):
        bound = bound_general(NormProfile(3, (1.0, 1.0, 1.0)), independent(3))
        assert bound.constant == pytest.approx(217.0 * 9)

    def test_order_mismatch_rejected(self):
        with pytest.raises(DomainError):
            bound_general(NormProfile(2, (1.0, 1.0)), independent(3))

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            dlsi(0.0, 2)


class TestBoundSuprema:
    def test_singleton_family_reduces_to_general_shape(self):
        profile = NormProfile(2, (1.0, 2.0))
        general = bound_general(profile, dlsi(1.0, 2))
        sup = bound_suprema([1.0], 2.0, dlsi(1.0, 2))
        for t in np.linspace(0.0, 30.0, 31):
            assert sup.evaluate_raw(t) == pytest.approx(general.evaluate_raw(t))
        assert sup.one_sided

    def test_sums_of_functions_exponent(self):
        n, c_sup, sigma2 = 9, 2.0, 1.5
        bound = bound_sums_supremum(n, c_sup, sigma2)
        t = 4.0
        expected = t**2 / (15 * sigma2 * n * c_sup**2)
        assert bound.exponent(t) == pytest.approx(expected)

    def test_level_count_validation(self):
        with pytest.raises(DomainError):
            bound_suprema([1.0, 2.0], 1.0, dlsi(1.0, 2))


class TestBoundChaos:
    def test_flat_constant(self):
        bound = bound_chaos([1.0, 1.0], 1.0, -1.0, 1.0, 2)
        assert bound.constant == pytest.approx(32 * math.e**2)
        assert bound.constant == pytest.approx(236.4498, abs=1e-3)

    def test_quadratic_corollary_constant(self):
        bound = bound_chaos_quadratic(1.0, 2.0, 1.0, -1.0, 1.0)
        assert bound.constant == pytest.approx(240.0)  # 60 (b-a)^2 sigma^2
        assert bound.exponent(6.0) == pytest.approx(min(36.0, 3.0) / 240.0)

    def test_two_sided_variant_label(self):
        bound = bound_chaos([1.0], 1.0, 0.0, 1.0, 1, variant="two_sided")
        assert not bound.one_sided

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            bound_chaos([1.0], 1.0, 1.0, 1.0, 1)


class TestBoundBoolean:
    def test_parity_two_bits(self):
        bound = bound_boolean([0.0, 1.0], 2)
        assert bound.evaluate(2 * math.e) == pytest.approx(1.0)
        assert bound.evaluate_raw(2 * math.e) == pytest.approx(1.0)

    def test_dictator(self):
        bound = bound_boolean([1.0], 1)
        assert bound.evaluate(math.e) == pytest.approx(1.0)
        assert bound.evaluate(2 * math.e) == pytest.approx(math.exp(-3.0))

    def test_zero_t_clips_prefactor_e(self):
        bound = bound_boolean([0.5], 1)
        assert bound.evaluate_raw(0.0) == pytest.approx(math.e)
        assert bound.evaluate(0.0) == 1.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            bound_boolean([0.0, 0.0], 2)


class TestBoundUstat:
    def test_first_order_level(self):
        bound = bound_ustat(1.0, 9, 1, independent(1))
        assert bound.levels == ((1.0, pytest.approx(2 * 3.0)),)

    def test_order_two_levels(self):
        bound = bound_ustat(1.0, 4, 2, independent(2))
        assert bound.levels[0] == (1.0, pytest.approx(32.0))
        assert bound.levels[1] == (2.0, pytest.approx(16.0))

    def test_normalized_small_t_gaussian_branch(self):
        # below sqrt(n) the quadratic level attains the min
        for n in (4, 16, 64):
            bound = bound_ustat(1.0, n, 3, independent(3), normalized=True)
            for t in np.linspace(0.05, math.sqrt(n) * 0.99, 7):
                assert bound.active_level(float(t)) == 1.0
            assert bound.active_level(math.sqrt(n) * 1.5) == 3.0
            assert bound.constant == pytest.approx(4 * 217 * 9)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bound_ustat(1.0, 2, 2, independent(2))


class TestBoundPolynomial:
    def test_hanson_wright_shape_for_centered_quadratics(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        poly = MultilinearPoly({2: A})
        mu = rademacher(4)
        norms = polynomial_partition_norms(poly, mu, 2)
        sigma = 1.0
        c_user = 60.0
        bound = bound_polynomial(norms, sigma, 2, c_user)
        # expected gradient at order 1 vanishes; order 2 gives 2A with
        # partition norms |2A|_HS and |2A|_op
        hs2, op2 = hs_norm(2 * A), op_norm(2 * A).value
        for t in np.linspace(0.1, 20.0, 12):
            expected = min((t / hs2) ** 2, t / op2) / c_user
            assert bound.exponent(float(t)) == pytest.approx(expected, rel=1e-8)

    def test_symmetric_inputs_reduce_to_block_counts(self):
        norms = {
            1: {Partition.of(1, (0,)): 1.0},
            2: {p: 1.0 for p in (Partition.of(2, (0, 1)), Partition.of(2, (0,), (1,)))},
        }
        bound = bound_polynomial(norms, 1.0, 2, c_user=1.0)
        t = 4.0
        assert bound.exponent(t) == pytest.approx(min(t**2, t**2, t))

    def test_missing_norms_rejected(self):
        with pytest.raises(DomainError):
            bound_polynomial({1: {}}, 1.0, 1, c_user=1.0)


class TestChaosEndToEnd:
    def test_computed_levels_dominate_exact_upper_tail(self):
        # scalar order-2 chaos on three coordinates: E W_k by enumeration,
        # sigma^2 = 1 for uniform signs, support [-1, 1]
        from concentra.funcs import VectorChaos, chaos_w
        from concentra.space import enumerate_configurations
        from concentra.verify import check_domination, domination_grid, tail_curve

        rng = np.random.default_rng(5)
        n, d = 3, 2
        coeffs = {
            (i, j): rng.standard_normal(1) for i in range(n) for j in range(i + 1, n)
        }
        chaos = VectorChaos(d, n, coeffs, norm="l2")
        mu = rademacher(n)
        w = mu.prob_table()
        configs = enumerate_configurations(mu.space)
        expected_w = [
            sum(weight * chaos_w(chaos, k, row) for weight, row in zip(w, configs))
            for k in (1, 2)
        ]
        bound = bound_chaos(expected_w, 1.0, -1.0, 1.0, d)
        grid = domination_grid(bound, 6.0)
        curve = tail_curve(mu, chaos, grid, side="upper")
        report = check_domination(curve, bound)
        assert report.dominated
        assert report.nonvacuous

    def test_vector_valued_linf_chaos_dominated(self):
        # R^2-valued order-2 chaos under the sup norm (dual ball: +-e_j)
        from concentra.funcs import VectorChaos, chaos_w
        from concentra.space import enumerate_configurations
        from concentra.verify import check_domination, domination_grid, tail_curve

        rng = np.random.default_rng(6)
        n, d = 3, 2
        coeffs = {
            (i, j): rng.standard_normal(2) for i in range(n) for j in range(i + 1, n)
        }
        chaos = VectorChaos(d, n, coeffs, norm="linf")
        mu = rademacher(n)
        w = mu.prob_table()
        configs = enumerate_configurations(mu.space)
        expected_w = [
            sum(weight * chaos_w(chaos, k, row) for weight, row in zip(w, configs))
            for k in (1, 2)
        ]
        bound = bound_chaos(expected_w, 1.0, -1.0, 1.0, d)
        grid = domination_grid(bound, 8.0)
        curve = tail_curve(mu, chaos, grid, side="upper")
        assert check_domination(curve, bound).dominated


class TestErgmTriangleBound:
    def test_motif_expectations_at_zero_parameters(self):
        # beta = 0: edges are fair coins, so C_E = 1/2 and C_S2 = 1/4
        from concentra.funcs import Tabulated
        from concentra.models import ErgmSpec, SINGLE_EDGE, build_ergm, edge_index_map
        from concentra.space import enumerate_configurations

        spec = ErgmSpec(4, (SINGLE_EDGE,), (0.0,))
        mu, _ = build_ergm(spec)
        configs = enumerate_configurations(mu.space)
        index = edge_index_map(4)
        c_edge = float(np.dot(mu.prob_table(), configs[:, index[(0, 1)]]))
        c_two_star = float(
            np.dot(mu.prob_table(), configs[:, index[(0, 1)]] * configs[:, index[(0, 2)]])
        )
        assert c_edge == pytest.approx(0.5, abs=1e-12)
        assert c_two_star == pytest.approx(0.25, abs=1e-12)
        bound = bound_ergm_triangle(4, c_two_star, c_edge, c_user=10.0)
        assert bound.evaluate(0.0) == 1.0

    def test_levels_formula(self):
        n, c_s2, c_e, c_user = 10, 0.3, 0.5, 50.0
        bound = bound_ergm_triangle(n, c_s2, c_e, c_user)
        t = 100.0
        expected = min(
            t**2 / max(c_s2 * n**4, c_e * n**3, n**3),
            t / max(math.sqrt(2 * n), 2 * c_e * n),
            t ** (2.0 / 3.0) / 2.0,
        ) / c_user
        assert bound.exponent(t) == pytest.approx(expected, rel=1e-12)


class TestMomentToTail:
    def test_shift_zero_factor(self):
        bound = moment_to_tail(MomentProfile((1.0,), 0.0))
        assert 1.0 / bound.constant == pytest.approx(math.log(2) / 2)
        assert bound.evaluate_raw(math.e) == pytest.approx(2 * math.exp(-math.log(2) / 2))

    def test_shift_three_halves_factor_capped_at_one(self):
        bound = moment_to_tail(MomentProfile((1.0,), 1.5))
        assert bound.constant == pytest.approx(1.0)

    def test_level_count_in_scales(self):
        bound = moment_to_tail(MomentProfile((1.0, 0.0, 2.0), 0.0))
        # L = 2 positive coefficients: scales L e C_k
        assert bound.levels == (
            (1.0, pytest.approx(2 * math.e)),
            (3.0, pytest.approx(4 * math.e)),
        )

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            moment_to_tail(MomentProfile((0.0, 0.0), 0.0))

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            MomentProfile((1.0,), 2.0)


class TestHansonWright:
    def test_off_diagonal_example(self):
        A = np.array([[0.0, 0.5], [0.5, 0.0]])
        bound = hanson_wright(A, 1.0, independent(2))
        assert bound.constant == pytest.approx(868.0)
        assert bound.levels[0][1] == pytest.approx(4 / math.sqrt(2))
        assert bound.levels[1][1] == pytest.approx(4.0)

    def test_zero_matrix_vanishes(self):
        bound = hanson_wright(np.zeros((3, 3)), 1.0, independent(2))
        assert bound.evaluate(0.5) == 0.0

    def test_coincides_with_general_substitution(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        M = 1.3
        for regime in (independent(2), dlsi(0.7, 2)):
            hw = hanson_wright(A, M, regime)
            profile = NormProfile(2, (4 * M * hs_norm(A), 8 * M**2 * op_norm(np.abs(A)).value))
            general = bound_general(profile, regime)
            for t in np.linspace(0.0, 50.0, 26):
                assert hw.evaluate_raw(float(t)) == pytest.approx(
                    general.evaluate_raw(float(t)), abs=1e-12
                )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DomainError):
            hanson_wright(np.eye(2), 1.0, independent(2))

    def test_quadform_consistency_with_profile_bounds(self):
        # the measured profile of x^T A x on the cube is dominated by the
        # closed-form levels, so the closed-form bound dominates pointwise
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        from concentra.diffops import norm_profile

        profile = norm_profile(QuadraticForm(A), rademacher(4), 2)
        hw = hanson_wright(A, 1.0, independent(2))
        tight = bound_general(profile, independent(2))
        # slack covers rounding: both matrix norms are exact SVDs, from separate calls
        for t in np.linspace(0.1, 30.0, 15):
            assert hw.evaluate_raw(float(t)) >= tight.evaluate_raw(float(t)) - 1e-8
