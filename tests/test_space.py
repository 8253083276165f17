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
    enumeration_blocks,
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

    @pytest.mark.parametrize("rows", [1, 2, 4, 7, 24, 48, 10**6])
    def test_blocks_concatenate_to_the_enumeration(self, monkeypatch, rows):
        import concentra.space as space_mod

        space = ProductSpace(((2.0, 0.0, 1.0), (3.0,), (0.5, -0.5, 9.0, 1.5), (-1.0, 1.0)))
        monkeypatch.setattr(space_mod, "ENUMERATION_BLOCK_BYTES", rows * 8 * space.n)
        blocks = list(enumeration_blocks(space))
        # the fewest trailing coordinates, at least the last, that fit `rows`
        want = {1: 2, 2: 2, 4: 2, 7: 2, 24: 24, 48: 24, 10**6: 24}[rows]
        assert all(len(block) == want for block in blocks)
        assert np.array_equal(np.concatenate(blocks), enumerate_configurations(space))
        with pytest.raises(EnumerationTooLargeError):
            next(enumeration_blocks(binary(25)))

    @pytest.mark.parametrize("limit", [1, 4, 1 << 13])
    @pytest.mark.parametrize("alphabets", [
        ((2.0, 0.0, 1.0), (3.0,), (0.5, -0.5, 9.0, 1.5), (-1.0, 1.0), (7.0,), (0.0, 4.0, 8.0)),
        ((5.0,),) * 3,
        ((-1.0, 1.0),) * 15,
        ((0.0, 1.0, 2.0),) * 5 + ((4.0,),) + ((0.0, 1.0),) * 5,
    ])
    def test_halves_equal_the_column_loop(self, monkeypatch, alphabets, limit):
        import concentra.space as space_mod

        space = ProductSpace(alphabets)
        columns = np.empty((space.size, space.n))  # one strided column per coordinate
        for i in range(space.n):
            reps_inner = space.strides[i]
            columns[:, i] = np.tile(np.repeat(space.value_grid(i), reps_inner),
                                    space.size // (reps_inner * space.shape[i]))
        monkeypatch.setattr(space_mod, "ENUMERATION_COLUMN_LIMIT", limit)
        got = enumerate_configurations(space)
        assert got.shape == columns.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, columns)

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


class TestProductTable:
    def test_one_outer_product_per_measure(self, monkeypatch):
        # An h search asks for the table at every objective call; the
        # measure builds it once.
        from concentra.lsi import lsi_constant_search, verify_h_lsi_product

        mu = bernoulli_product(6, 0.3)
        want = np.prod(np.array(np.meshgrid(*[[0.7, 0.3]] * 6, indexing="ij")), axis=0).reshape(-1)
        built = []
        prob_table = mu.prob_table
        monkeypatch.setattr(mu, "prob_table", lambda: built.append(prob_table()) or built[-1])
        lsi_constant_search(mu, "h", starts=8, seed=0)
        verify_h_lsi_product(mu, trials=20, seed=1)
        assert len(built) > 1
        assert all(table is built[0] for table in built)
        np.testing.assert_allclose(built[0], want, rtol=1e-15)

    def test_space_above_the_cap_raises_on_every_call(self):
        mu = bernoulli_product(25, 0.5)
        for _ in range(2):
            with pytest.raises(EnumerationTooLargeError):
                mu.prob_table()


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
        # The enumerated log-weights are evaluated in blocks, so a row's value
        # must not depend on the batch it comes in.
        from concentra.models import SINGLE_EDGE, TRIANGLE, ErgmSpec, IsingSpec, build_ergm, build_ising

        space = ProductSpace(((0.0, 1.0, 2.0), (-1.0, 1.0), (0.5, 1.5, 2.5, 3.5)))
        logw = np.random.default_rng(2).normal(size=space.size)
        doc = space.to_json()
        doc["measure"] = {"kind": "gibbs", "log_weights": logw.tolist()}
        from_json = measure_from_json(doc)
        coupling = np.zeros((8, 8))
        for a in range(7):
            coupling[a, a + 1] = coupling[a + 1, a] = 0.3
        ising, _ = build_ising(IsingSpec(coupling, np.linspace(-0.2, 0.2, 8)))
        ergm, _ = build_ergm(ErgmSpec(4, (SINGLE_EDGE, TRIANGLE), (-0.3, 0.4)))
        for mu in (from_json, ising, ergm):
            configs = enumerate_configurations(mu.space)
            batch = mu.log_weights(configs)
            np.testing.assert_array_equal(batch, [mu.log_weights(row)[0] for row in configs])
            # `conditional` passes one section at a time: here, pairs of rows.
            pairs = [mu.log_weights(configs[s:s + 2]) for s in range(0, len(configs), 2)]
            np.testing.assert_array_equal(batch, np.concatenate(pairs))
        np.testing.assert_array_equal(from_json.log_weights(enumerate_configurations(space)), logw)
        with pytest.raises(DomainError):
            from_json.log_weights(enumerate_configurations(space) + 0.25)

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

    def test_gibbs_log_weights_in_enumeration_blocks_equal_one_batch(self, monkeypatch):
        import concentra.space as space_mod
        from concentra.models import SINGLE_EDGE, TRIANGLE, ErgmSpec, IsingSpec, build_ergm, build_ising

        coupling = np.zeros((7, 7))
        for a in range(6):
            coupling[a, a + 1] = coupling[a + 1, a] = 0.3
        ising, _ = build_ising(IsingSpec(coupling, np.linspace(-0.2, 0.2, 7)))
        ergm, _ = build_ergm(ErgmSpec(4, (SINGLE_EDGE, TRIANGLE), (-0.3, 0.4)))
        for mu in (ising, ergm):
            whole = mu.log_weights(enumerate_configurations(mu.space))
            monkeypatch.setattr(space_mod, "ENUMERATION_BLOCK_BYTES", 4 * 8 * mu.space.n)
            assert len(next(enumeration_blocks(mu.space))) == 4
            np.testing.assert_array_equal(mu._enumerated_log_weights(), whole)
            monkeypatch.undo()

    def test_table_validation(self):
        with pytest.raises(DomainError):
            ExactMeasure(binary(1), np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            ProductMeasure(binary(1), [np.array([-0.1, 1.1])])


def _counted_supports(monkeypatch):
    """Count `coordinate_support` calls per (measure, coordinate) on every measure kind."""
    from concentra import space

    calls: dict[tuple[int, int], int] = {}
    for kind in (space.ExactMeasure, space.ProductMeasure, space.GibbsMeasure):
        derive = kind.coordinate_support

        def spy(self, i, derive=derive):
            calls[id(self), i] = calls.get((id(self), i), 0) + 1
            return derive(self, i)

        monkeypatch.setattr(kind, "coordinate_support", spy)
    return calls


def _built_measures():
    from concentra.cli import build_model

    space = hypercube(2)
    return [
        ExactMeasure(space, [0.5, 0.5, 0.0, 0.0]),
        ProductMeasure(space, [np.array([0.3, 0.7]), np.array([1.0, 0.0])]),
        rademacher(3),
        two_point_measure(0.2),
        build_model({"kind": "ising", "coupling": [[0.0, 0.3], [0.3, 0.0]], "field": [0.1, 0.0]}),
        build_model({"kind": "coloring", "vertices": 3, "edges": [[0, 1], [1, 2]], "colors": 3}),
        build_model({"kind": "ergm", "vertices": 3, "motifs": [{"edges": [[0, 1]]}], "beta": [0.1]}),
    ]


class TestDerivedStructure:
    """A measure's support mask and coordinate supports are derived on first
    use, kept read-only, and belong to the one measure."""

    def test_building_a_measure_derives_nothing(self, monkeypatch):
        calls = _counted_supports(monkeypatch)
        for mu in _built_measures():
            assert not {"_support_mask", "_coordinate_supports"} & set(vars(mu))
        assert calls == {}

    def test_every_kept_array_is_read_only(self):
        for mu in _built_measures():
            kept = [mu.support_mask(), *(idx for idx in mu.coordinate_supports() if idx is not None)]
            for array in kept:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
            assert mu.support_mask() is kept[0]

    def test_the_supports_are_each_measures_own(self):
        # Equal spaces, one shared and one not, with different supports.
        space = hypercube(2)
        half = ExactMeasure(space, [0.5, 0.5, 0.0, 0.0])
        full = ExactMeasure(space, [0.25] * 4)
        other = ExactMeasure(hypercube(2), [0.0, 0.5, 0.0, 0.5])
        assert half.coordinate_supports()[0].tolist() == [0]
        assert full.coordinate_supports() == (None, None)
        assert other.coordinate_supports()[0] is None and other.coordinate_supports()[1].tolist() == [1]
        assert half.support_mask().tolist() == [True, True, False, False]
        assert full.support_mask().all()
        assert other.support_mask().tolist() == [False, True, False, True]

    def test_the_supports_are_the_derivation(self):
        for mu in _built_measures():
            np.testing.assert_array_equal(mu.support_mask(), mu.prob_table() > 0.0)
            for i, idx in enumerate(mu.coordinate_supports()):
                want = mu.coordinate_support(i)
                assert (idx is None) == np.array_equal(want, np.arange(mu.space.shape[i]))
                if idx is not None:
                    np.testing.assert_array_equal(idx, want)

    def test_an_h_field_batch_derives_each_support_once(self, monkeypatch):
        from concentra.diffops import h_field, h_tensor_field

        calls = _counted_supports(monkeypatch)
        mu = ExactMeasure(ProductSpace(((0.0, 1.0, 2.0), (0.0, 1.0))), [0.2, 0.0, 0.3, 0.0, 0.5, 0.0])
        tables = np.random.default_rng(3).standard_normal((5, mu.space.size))
        for variant in ("osc", "plus", "minus"):
            h_field(tables, mu, variant)
        h_tensor_field(tables, mu, 2)
        assert calls == {(id(mu), 0): 1, (id(mu), 1): 1}

    def test_a_psi2_study_derives_each_measures_supports_once(self, monkeypatch):
        from concentra import lsi

        calls = _counted_supports(monkeypatch)
        built = []
        measure = lsi.two_point_measure
        monkeypatch.setattr(lsi, "two_point_measure", lambda p: built.append(measure(p)) or built[-1])
        lsi.psi2_blowup_study([1e-2, 1e-3], q_max=4, starts=3, seed=1)
        assert len(built) == 2
        assert calls == {(id(mu), 0): 1 for mu in built}
