import math

import numpy as np
import pytest

from concentra.errors import (
    DomainError,
    EnumerationTooLargeError,
    UndefinedConditionalError,
)
from concentra.space import (
    ExactMeasure,
    ProductMeasure,
    ProductSpace,
    bernoulli_product,
    binary,
    entropy_functional,
    enumerate_configurations,
    hypercube,
    lp_norm,
    lp_norm_mc,
    measure_from_json,
    rademacher,
    two_point_measure,
    uniform,
)


class TestEnumeration:
    def test_hypercube_two_is_lexicographic(self):
        configs = enumerate_configurations(hypercube(2))
        assert configs.tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]

    def test_singleton_coordinate(self):
        space = ProductSpace(((0.0,),))
        assert enumerate_configurations(space).tolist() == [[0.0]]

    def test_mixed_alphabet_count(self):
        space = ProductSpace(((0.0, 1.0), (0.0, 1.0, 2.0)))
        configs = enumerate_configurations(space)
        assert configs.shape == (6, 2)
        # each configuration exactly once
        assert len({tuple(r) for r in configs.tolist()}) == 6

    def test_cap_enforced(self):
        space = binary(8)
        with pytest.raises(EnumerationTooLargeError):
            enumerate_configurations(space, cap=100)

    def test_index_round_trip(self):
        space = ProductSpace(((0.0, 1.0), (3.0, 4.0, 5.0), (-1.0, 1.0)))
        for idx in range(space.size):
            assert space.index_of(space.configuration(idx)) == idx

    def test_digit_rows_match_digits_of(self):
        space = ProductSpace(((2.0, 0.0, 1.0), (3.0, -4.0), (0.5, -0.5, 9.0, 1.5)))
        configs = enumerate_configurations(space)
        np.testing.assert_array_equal(
            space.digit_rows(configs), [space.digits_of(row) for row in configs]
        )
        for bad in (0.25, math.nan):
            rows = configs[:3].copy()
            rows[1, 2] = bad
            with pytest.raises(DomainError, match="not in alphabet 2"):
                space.digit_rows(rows)
        with pytest.raises(DomainError, match="expected"):
            space.digit_rows(configs[:, :2])

    def test_alphabet_validation(self):
        with pytest.raises(DomainError):
            ProductSpace(((1.0, 1.0),))
        with pytest.raises(DomainError):
            ProductSpace(((),))


class TestMeasureValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_exact_table_entries_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            ExactMeasure(binary(1), [bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_product_marginal_entries_must_be_finite(self, bad):
        with pytest.raises(DomainError):
            ProductMeasure(binary(2), [[0.5, 0.5], [bad, 1.0]])


class TestConditional:
    def test_product_returns_marginal(self):
        mu = bernoulli_product(3, 0.3)
        np.testing.assert_allclose(mu.conditional([0.0, 1.0, 0.0], 1), [0.7, 0.3])

    def test_uniform_exact(self):
        mu = rademacher(2).to_exact()
        np.testing.assert_allclose(mu.conditional([-1.0, 1.0], 1), [0.5, 0.5])

    def test_ising_two_site_hand_normalization(self):
        # log-weight s1 s2 * 0.3: conditioning on x2 = +1 gives exp(-/+0.3).
        from concentra.models import IsingSpec, build_ising

        mu, _ = build_ising(IsingSpec(np.array([[0.0, 0.3], [0.3, 0.0]]), np.zeros(2)))
        cond = mu.conditional([-1.0, 1.0], 0)
        expected = np.array([math.exp(-0.3), math.exp(0.3)])
        expected /= expected.sum()
        np.testing.assert_allclose(cond, expected, atol=1e-12)

    def test_zero_mass_section_raises(self):
        table = np.array([0.5, 0.0, 0.5, 0.0])  # support: x2 fixed at -1
        mu = ExactMeasure(hypercube(2), table)
        with pytest.raises(UndefinedConditionalError):
            mu.conditional([-1.0, 1.0], 0)

    def test_reconstruction_from_conditionals(self):
        # sum over sections of marginal * conditional reproduces the joint table
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.1, 1.0, size=8)
        mu = ExactMeasure(binary(3), raw / raw.sum())
        configs = enumerate_configurations(mu.space)
        for i in range(3):
            rebuilt = np.empty(8)
            for idx, row in enumerate(configs):
                cond = mu.conditional(row, i)
                # marginal mass of the section through row along i
                sl = [int(a) for a in row]
                sl[i] = slice(None)
                mass = mu.table.reshape(2, 2, 2)[tuple(sl)].sum()
                rebuilt[idx] = mass * cond[int(row[i])]
            np.testing.assert_allclose(rebuilt, mu.table, atol=1e-12)


class TestEntropyFunctional:
    def test_constant_vanishes(self):
        mu = rademacher(3)
        assert entropy_functional(mu, np.full(8, 2.5)) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_value(self):
        # Ent(1_A) = mu(A) log(1 / mu(A))
        mu = bernoulli_product(2, 0.25)
        table = np.zeros(4)
        table[mu.space.index_of([1.0, 1.0])] = 1.0
        p = 0.0625
        assert entropy_functional(mu, table) == pytest.approx(p * math.log(1 / p), rel=1e-12)

    def test_two_point_four_one(self):
        mu = uniform(hypercube(1))
        value = entropy_functional(mu, np.array([4.0, 1.0]))
        assert value == pytest.approx(2 * math.log(4) - 2.5 * math.log(2.5), rel=1e-12)
        assert value == pytest.approx(0.48186, abs=5e-5)

    def test_nonnegative_and_zero_iff_constant(self):
        rng = np.random.default_rng(3)
        mu = bernoulli_product(3, 0.4)
        for _ in range(50):
            g = rng.uniform(0.0, 2.0, size=8)
            ent = entropy_functional(mu, g)
            assert ent >= -1e-14
            if np.ptp(g) > 1e-6:
                assert ent > 0.0

    def test_negative_rejected(self):
        mu = rademacher(2)
        with pytest.raises(DomainError):
            entropy_functional(mu, np.array([1.0, -0.5, 1.0, 1.0]))


class TestLpNorm:
    def test_constant_centered_zero(self):
        mu = rademacher(2)
        assert lp_norm(mu, np.full(4, 3.3), 5.0) == 0.0

    def test_single_coordinate_variance(self):
        mu = rademacher(1)
        assert lp_norm(mu, np.array([-1.0, 1.0]), 2.0) == pytest.approx(1.0)

    def test_pair_product_fourth_moment(self):
        mu = rademacher(2)
        table = np.array([1.0, -1.0, -1.0, 1.0])  # x1 x2 per enumeration order
        assert lp_norm(mu, table, 4.0, centered=True) == pytest.approx(1.0)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        mu = bernoulli_product(3, 0.35)
        f = rng.uniform(-2.0, 2.0, size=8)
        values = [lp_norm(mu, f, float(p)) for p in range(1, 31)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            lp_norm(rademacher(1), np.array([0.0, 1.0]), 0.5)

    def test_mc_estimate_close_to_exact(self):
        rng = np.random.default_rng(5)
        samples = rng.choice([-1.0, 1.0], size=20000)
        value, stderr = lp_norm_mc(samples, 2.0, center=0.0)
        assert value == pytest.approx(1.0, abs=0.02)
        assert stderr >= 0.0


class TestSerialization:
    def test_round_trips(self):
        for mu in (
            rademacher(2).to_exact(),
            bernoulli_product(2, 0.3),
            two_point_measure(0.25),
        ):
            doc = mu.to_json()
            back = measure_from_json(doc)
            np.testing.assert_allclose(back.prob_table(), mu.prob_table(), atol=1e-12)

    def test_gibbs_round_trip(self):
        from concentra.models import IsingSpec, build_ising

        mu, _ = build_ising(IsingSpec(np.array([[0.0, 0.4], [0.4, 0.0]]), np.array([0.1, 0.0])))
        back = measure_from_json(mu.to_json())
        np.testing.assert_allclose(back.prob_table(), mu.prob_table(), atol=1e-12)

    def test_gibbs_log_weight_batch_matches_rows(self):
        space = ProductSpace(((0.0, 1.0, 2.0), (-1.0, 1.0), (0.5, 1.5, 2.5, 3.5)))
        logw = np.random.default_rng(2).normal(size=space.size)
        doc = space.to_json()
        doc["measure"] = {"kind": "gibbs", "log_weights": logw.tolist()}
        mu = measure_from_json(doc)
        configs = enumerate_configurations(space)
        batch = mu.log_weights(configs)
        np.testing.assert_array_equal(batch, [mu.log_weight(row) for row in configs])
        np.testing.assert_array_equal(batch, logw)
        with pytest.raises(DomainError):
            mu.log_weights(configs + 0.25)

    def test_gibbs_enumeration_spans_blocks(self):
        # 2^11 configurations take two blocks of the enumerated log-weights;
        # they must equal one batch over the whole enumeration.
        from concentra.models import IsingSpec, build_ising

        n = 11
        coupling = np.zeros((n, n))
        for a in range(n):
            coupling[a, (a + 1) % n] = coupling[(a + 1) % n, a] = 0.4
        mu, _ = build_ising(IsingSpec(coupling, np.linspace(-0.3, 0.3, n)))
        logw = mu.log_weights(enumerate_configurations(mu.space))
        np.testing.assert_array_equal(mu.measure_json()["log_weights"], logw)
        w = np.exp(logw - logw.max())
        np.testing.assert_array_equal(mu.prob_table(), w / w.sum())

    def test_table_validation(self):
        with pytest.raises(DomainError):
            ExactMeasure(binary(1), np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            ProductMeasure(binary(1), [np.array([-0.1, 1.1])])
