import math
from itertools import permutations, product

import numpy as np
import pytest

from concentra.diffops import (
    NormProfile,
    d_operator,
    d_squared_field,
    h_component,
    h_field,
    h_tensor,
    h_tensor_field,
    h_vector,
    norm_profile,
)
from concentra.errors import DomainError
from concentra.funcs import MultilinearPoly, QuadraticForm, Tabulated
from concentra.space import bernoulli_product, enumerate_configurations, rademacher
from concentra.tensors import hs_norm, op_norm


def pair_product():
    return QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))


class TestHComponent:
    def test_pair_product_oscillation_everywhere(self):
        mu = rademacher(2)
        f = pair_product()
        for row in enumerate_configurations(mu.space):
            assert h_component(f, mu, row, 0, "osc") == pytest.approx(2.0)
            assert h_component(f, mu, row, 1, "osc") == pytest.approx(2.0)

    def test_constant_function_all_variants(self):
        mu = rademacher(3)
        f = Tabulated(np.full(8, 1.7))
        for variant in ("osc", "plus", "minus"):
            assert h_component(f, mu, [1.0, 1.0, -1.0], 0, variant) == 0.0

    def test_plus_minus_at_maximum_point(self):
        mu = rademacher(1)
        f = MultilinearPoly({1: np.array([1.0])})
        assert h_component(f, mu, [1.0], 0, "plus") == pytest.approx(2.0)
        assert h_component(f, mu, [1.0], 0, "minus") == pytest.approx(0.0)

    def test_plus_below_oscillation(self):
        rng = np.random.default_rng(0)
        mu = bernoulli_product(3, 0.4)
        f = Tabulated(rng.standard_normal(8))
        for row in enumerate_configurations(mu.space):
            for i in range(3):
                osc = h_component(f, mu, row, i, "osc")
                assert h_component(f, mu, row, i, "plus") <= osc + 1e-12
                assert h_component(f, mu, row, i, "minus") <= osc + 1e-12

    def test_sup_of_plus_recovers_oscillation(self):
        # sup over the resampled coordinate of the plus part equals the oscillation
        rng = np.random.default_rng(1)
        mu = rademacher(3)
        f = Tabulated(rng.standard_normal(8))
        for row in enumerate_configurations(mu.space):
            for i in range(3):
                best = 0.0
                for v in (-1.0, 1.0):
                    changed = np.array(row)
                    changed[i] = v
                    best = max(best, h_component(f, mu, changed, i, "plus"))
                assert best == pytest.approx(h_component(f, mu, row, i, "osc"), abs=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            h_component(pair_product(), rademacher(2), [1.0, 1.0], 0, "sideways")


class TestHTensor:
    def test_additive_function_second_difference_vanishes(self):
        mu = rademacher(3)
        f = MultilinearPoly({1: np.ones(3)})
        tensor = h_tensor(f, mu, [1.0, 1.0, 1.0], 2)
        np.testing.assert_allclose(tensor, np.zeros((3, 3)), atol=1e-12)

    def test_pair_product_entry(self):
        mu = rademacher(2)
        tensor = h_tensor(pair_product(), mu, [1.0, 1.0], 2)
        np.testing.assert_allclose(tensor, np.array([[0.0, 4.0], [4.0, 0.0]]))

    def test_order_one_matches_oscillation_vector(self):
        rng = np.random.default_rng(2)
        mu = bernoulli_product(3, 0.3)
        f = Tabulated(rng.standard_normal(8))
        for row in enumerate_configurations(mu.space)[:4]:
            np.testing.assert_allclose(
                h_tensor(f, mu, row, 1), h_vector(f, mu, row, "osc"), atol=1e-12
            )

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(3)
        mu = rademacher(3)
        table = rng.standard_normal(8)
        f = Tabulated(table)
        for k in (1, 2, 3):
            field = h_tensor_field(table, mu, k)
            for idx, row in enumerate(enumerate_configurations(mu.space)):
                np.testing.assert_allclose(
                    field[idx], h_tensor(f, mu, row, k), atol=1e-12
                )

    def test_entries_ignore_values_inside_index_set(self):
        rng = np.random.default_rng(4)
        mu = rademacher(4)
        f = Tabulated(rng.standard_normal(16))
        base = np.array([1.0, -1.0, 1.0, -1.0])
        perturbed = base.copy()
        perturbed[0] = -1.0
        perturbed[2] = -1.0
        t0 = h_tensor(f, mu, base, 2)
        t1 = h_tensor(f, mu, perturbed, 2)
        assert t0[0, 2] == pytest.approx(t1[0, 2], abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(5)
        mu = rademacher(3)
        tensor = h_tensor(Tabulated(rng.standard_normal(8)), mu, [1.0] * 3, 2)
        np.testing.assert_allclose(tensor, tensor.T, atol=1e-12)
        assert np.all(np.diag(tensor) == 0.0)
        assert np.all(tensor >= 0.0)

    def test_minus_field_mirrors_plus_of_negation(self):
        rng = np.random.default_rng(12)
        mu = bernoulli_product(3, 0.4)
        table = rng.standard_normal(8)
        np.testing.assert_allclose(
            h_field(table, mu, "minus"), h_field(-table, mu, "plus"), atol=1e-12
        )

    def test_assignment_grid_cap(self):
        from concentra.errors import EnumerationTooLargeError
        from concentra.space import ProductSpace, uniform

        # one coordinate with 5000 values: the (original, prime) grid for a
        # single-coordinate entry exceeds the enumeration cap
        space = ProductSpace((tuple(float(v) for v in range(5000)), (0.0, 1.0)))
        mu = uniform(space)
        f = MultilinearPoly({1: np.array([1.0, 0.0])})
        with pytest.raises(EnumerationTooLargeError):
            h_tensor(f, mu, [0.0, 0.0], 1)


class TestDOperator:
    def test_constant_gives_zero(self):
        mu = rademacher(2)
        parts, total = d_operator(Tabulated(np.full(4, 2.0)), mu, [1.0, 1.0])
        np.testing.assert_allclose(parts, np.zeros(2))
        assert total == 0.0

    def test_rademacher_coordinate(self):
        mu = rademacher(1)
        parts, total = d_operator(MultilinearPoly({1: np.array([1.0])}), mu, [1.0])
        assert parts[0] == pytest.approx(1.0)
        assert total == pytest.approx(1.0)

    def test_bernoulli_coordinate(self):
        p = 0.3
        mu = bernoulli_product(1, p)
        parts, _ = d_operator(Tabulated(np.array([0.0, 1.0])), mu, [1.0])
        assert parts[0] == pytest.approx(math.sqrt(p * (1 - p)))

    def test_below_h_vector_pointwise(self):
        rng = np.random.default_rng(6)
        mu = bernoulli_product(3, 0.45)
        f = Tabulated(rng.standard_normal(8))
        for row in enumerate_configurations(mu.space):
            parts, total = d_operator(f, mu, row)
            osc = h_vector(f, mu, row, "osc")
            assert np.all(parts <= osc + 1e-12)
            assert total <= float(np.linalg.norm(osc)) + 1e-12

    def test_double_integral_identity(self):
        # 2 (d_i f)^2 equals the double integral of squared differences
        rng = np.random.default_rng(7)
        mu = bernoulli_product(2, 0.25)
        table = rng.standard_normal(4)
        f = Tabulated(table)
        row = np.array([1.0, 0.0])
        parts, _ = d_operator(f, mu, row)
        for i in range(2):
            cond = mu.conditional(row, i)
            vals = []
            for v in (0.0, 1.0):
                changed = row.copy()
                changed[i] = v
                vals.append(f.evaluate_on(mu.space, changed))
            double = sum(
                cond[a] * cond[b] * (vals[a] - vals[b]) ** 2
                for a, b in product(range(2), repeat=2)
            )
            assert 2 * parts[i] ** 2 == pytest.approx(double, abs=1e-12)

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(8)
        mu = bernoulli_product(3, 0.35)
        table = rng.standard_normal(8)
        field = d_squared_field(table, mu)
        f = Tabulated(table)
        for idx, row in enumerate(enumerate_configurations(mu.space)):
            _, total = d_operator(f, mu, row)
            assert field[idx] == pytest.approx(total**2, abs=1e-12)

    def test_batch_rows_equal_single_tables(self):
        # a row's field does not depend on its batch: the LSI ratios rely on it
        rng = np.random.default_rng(9)
        for mu in (bernoulli_product(3, 0.35), _ising_ring(4, rng)):
            tables = rng.standard_normal((2, 3, mu.space.size))
            batch = d_squared_field(tables, mu)
            assert batch.shape == tables.shape
            for index in np.ndindex(tables.shape[:-1]):
                assert np.array_equal(batch[index], d_squared_field(tables[index], mu))


class TestNormProfile:
    def test_constant_function_all_zero(self):
        mu = rademacher(2)
        profile = norm_profile(Tabulated(np.full(4, 5.0)), mu, 2)
        assert profile.gamma == (0.0, 0.0)

    def test_pair_product_profile(self):
        mu = rademacher(2)
        profile = norm_profile(pair_product(), mu, 2)
        assert profile.gamma[0] == pytest.approx(math.sqrt(8.0), rel=1e-10)
        assert profile.gamma[1] == pytest.approx(4.0, rel=1e-10)

    def test_quadratic_form_paper_inequalities(self):
        # gamma_1 <= 4 M |A|_HS and gamma_2 <= 8 M^2 |A.abs|_op with M = 1
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 4))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        mu = rademacher(4)
        profile = norm_profile(QuadraticForm(A), mu, 2)
        assert profile.gamma[0] <= 4 * hs_norm(A) + 1e-9
        assert profile.gamma[1] <= 8 * op_norm(np.abs(A)).value + 1e-9

    def test_monte_carlo_mode_reports_errors(self):
        rng = np.random.default_rng(10)
        mu = rademacher(3)
        samples = rng.choice([-1.0, 1.0], size=(64, 3))
        profile = norm_profile(pair_product_on_three(), mu, 2, mode="monte_carlo", samples=samples)
        assert profile.mode == "monte_carlo"
        # a quadform's level 2 comes from its coefficients: exact, not sampled
        assert not profile.sup_is_lower_estimate
        assert profile.stderr is not None and len(profile.stderr) == 2
        assert profile.stderr[1] == 0.0
        exact = norm_profile(pair_product_on_three(), mu, 2)
        assert profile.gamma[1] == exact.gamma[1]

    def test_monte_carlo_top_level_of_a_table_is_a_lower_estimate(self):
        rng = np.random.default_rng(10)
        mu = rademacher(3)
        samples = rng.choice([-1.0, 1.0], size=(64, 3))
        f = Tabulated(pair_product_on_three().evaluate_table(mu.space))
        profile = norm_profile(f, mu, 2, mode="monte_carlo", samples=samples)
        assert profile.sup_is_lower_estimate
        # the top level is a max over sampled points: a lower estimate
        assert profile.gamma[1] <= norm_profile(f, mu, 2).gamma[1] + 1e-9

    def test_monte_carlo_levels_from_coefficients_need_no_samples(self):
        f, mu = MultilinearPoly({1: np.ones(3)}), rademacher(3)
        profile = norm_profile(f, mu, 1, mode="monte_carlo")
        assert profile.gamma == (2.0 * math.sqrt(3.0),) == norm_profile(f, mu, 1).gamma
        assert profile.stderr == (0.0,) and not profile.sup_is_lower_estimate

    @pytest.mark.parametrize("samples", [None, np.empty((0, 3))])
    def test_monte_carlo_sampled_level_without_samples_rejected(self, samples):
        # level 1 of a quadform lies below its degree, so it is sampled
        with pytest.raises(DomainError, match="needs sample configurations"):
            norm_profile(pair_product_on_three(), rademacher(3), 2, mode="monte_carlo", samples=samples)

    def test_serialization_round_trip(self):
        profile = NormProfile(2, (1.5, 2.5), mode="exact")
        back = NormProfile.from_json(profile.to_json())
        assert back == profile


def pair_product_on_three():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 0.5
    return QuadraticForm(A)


class TestRecursionInequalityPointwise:
    def test_random_rademacher_functions(self):
        # |h+ of |h^(d-1) f|_op| <= |h^(d) f|_op at every point, d = 2
        rng = np.random.default_rng(11)
        for n in (3, 4):
            mu = rademacher(n)
            for _ in range(10):
                table = rng.standard_normal(mu.space.size)
                inner = np.linalg.norm(h_field(table, mu, "osc"), axis=1)
                lhs = np.linalg.norm(h_field(inner, mu, "plus"), axis=1)
                field = h_tensor_field(table, mu, 2)
                rhs = np.array([op_norm(t, restarts=2).value for t in field])
                assert np.all(lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# An independent reference: inclusion-exclusion, one evaluate_on call per row
# ---------------------------------------------------------------------------


def oracle_h_tensor(f, mu, x, k):
    """max over (original, prime) assignments of |sum_{S in combo} (-1)^|S| f(.)|."""
    from itertools import combinations, permutations

    n = mu.space.n
    supports = [mu.space.value_grid(i)[mu.coordinate_support(i)] for i in range(n)]
    out = np.zeros((n,) * k)
    for combo in combinations(range(n), k):
        best = 0.0
        for originals in product(*(supports[i] for i in combo)):
            for primes in product(*(supports[i] for i in combo)):
                total = 0.0
                for subset in product((0, 1), repeat=k):
                    row = np.array(x, dtype=float)
                    for slot, i in enumerate(combo):
                        row[i] = primes[slot] if subset[slot] else originals[slot]
                    total += (-1) ** sum(subset) * f.evaluate_on(mu.space, row)
                best = max(best, abs(total))
        for perm in permutations(combo):
            out[perm] = best
    return out


def oracle_h_component(f, mu, x, i, variant):
    here = f.evaluate_on(mu.space, x)
    section = []
    for v in mu.space.value_grid(i)[mu.coordinate_support(i)]:
        row = np.array(x, dtype=float)
        row[i] = v
        section.append(f.evaluate_on(mu.space, row))
    if variant == "osc":
        return max(section) - min(section)
    if variant == "plus":
        return max(here - min(section), 0.0)
    return max(max(section) - here, 0.0)


def oracle_d_parts(f, mu, x):
    parts = []
    for i in range(mu.space.n):
        cond = mu.conditional(x, i)
        vals = []
        for v in mu.space.value_grid(i):
            row = np.array(x, dtype=float)
            row[i] = v
            vals.append(f.evaluate_on(mu.space, row))
        mean = sum(c * v for c, v in zip(cond, vals))
        parts.append(math.sqrt(max(sum(c * (v - mean) ** 2 for c, v in zip(cond, vals)), 0.0)))
    return np.array(parts)


def _ternary_case():
    from concentra.space import ExactMeasure, ProductSpace

    rng = np.random.default_rng(31)
    space = ProductSpace(((0.0, 1.0, 2.0),) * 3)
    weights = rng.uniform(0.1, 1.0, 27)
    return ExactMeasure(space, weights / weights.sum()), Tabulated(rng.standard_normal(27))


def _partial_support_case():
    from concentra.space import ProductMeasure, ProductSpace

    rng = np.random.default_rng(32)
    space = ProductSpace(((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 1.0)))
    mu = ProductMeasure(space, [np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5]),
                                np.array([0.4, 0.6])])
    return mu, Tabulated(rng.standard_normal(18))


def _ustat_case():
    from concentra.funcs import UStatistic
    from concentra.space import ProductSpace, uniform

    # a symmetric order-3 kernel on {0, 1}: its value depends on the count of ones
    kernel = np.array([0.5, -1.0, 2.0, 0.25])[np.indices((2, 2, 2)).sum(axis=0)]
    return uniform(ProductSpace(((0.0, 1.0),) * 4)), UStatistic(3, kernel)


def _sup_case():
    from concentra.funcs import SupFamily

    rng = np.random.default_rng(33)
    A = rng.standard_normal((4, 4))
    A = (A + A.T) / 2
    np.fill_diagonal(A, 0.0)
    members = (QuadraticForm(A), Tabulated(rng.standard_normal(16)),
               MultilinearPoly({1: rng.standard_normal(4)}))
    return bernoulli_product(4, 0.3), SupFamily(members)


ORACLE_CASES = {
    "ternary": _ternary_case,
    "partial-support": _partial_support_case,
    "ustat": _ustat_case,
    "sup-family": _sup_case,
}


def _oracle_points(mu, count=5):
    """A few configurations, off-support ones included."""
    configs = enumerate_configurations(mu.space)
    picks = np.random.default_rng(34).choice(len(configs), size=count, replace=False)
    return configs[np.sort(picks)]


@pytest.mark.parametrize("case", list(ORACLE_CASES))
class TestOperatorsAgainstOracle:
    def test_h_tensor(self, case):
        mu, f = ORACLE_CASES[case]()
        table = f.evaluate_table(mu.space)
        for k in (1, 2, 3):
            field = h_tensor_field(table, mu, k)
            for x in _oracle_points(mu):
                got = h_tensor(f, mu, x, k)
                np.testing.assert_allclose(got, oracle_h_tensor(f, mu, x, k), rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    got, field[mu.space.index_of(x)], rtol=0, atol=1e-12
                )

    def test_h_component_and_vector(self, case):
        mu, f = ORACLE_CASES[case]()
        table = f.evaluate_table(mu.space)
        for variant in ("osc", "plus", "minus"):
            field = h_field(table, mu, variant)
            for x in _oracle_points(mu):
                expected = [oracle_h_component(f, mu, x, i, variant) for i in range(mu.space.n)]
                got = [h_component(f, mu, x, i, variant) for i in range(mu.space.n)]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(h_vector(f, mu, x, variant), expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(field[mu.space.index_of(x)], expected, rtol=0, atol=1e-12)

    def test_d_operator(self, case):
        mu, f = ORACLE_CASES[case]()
        field = d_squared_field(f.evaluate_table(mu.space), mu)
        for x in _oracle_points(mu):
            if not mu.support_mask()[mu.space.index_of(x)]:
                continue  # conditionals are undefined off the support
            parts, total = d_operator(f, mu, x)
            np.testing.assert_allclose(parts, oracle_d_parts(f, mu, x), rtol=0, atol=1e-12)
            assert total**2 == pytest.approx(field[mu.space.index_of(x)], abs=1e-12)

    def test_monte_carlo_profile(self, case):
        from concentra.tensors import op_norm_batch

        mu, f = ORACLE_CASES[case]()
        points = _oracle_points(mu, count=6)
        profile = norm_profile(f, mu, 2, mode="monte_carlo", samples=points, restarts=2)
        level1 = op_norm_batch(np.stack([oracle_h_tensor(f, mu, x, 1) for x in points]), restarts=2)
        level2 = op_norm_batch(np.stack([oracle_h_tensor(f, mu, x, 2) for x in points]), restarts=2)
        assert profile.gamma[0] == pytest.approx(float(level1.mean()), abs=1e-12)
        assert profile.gamma[1] == pytest.approx(float(level2.max()), abs=1e-12)


class TestOneEvaluationPerSectionGrid:
    @staticmethod
    def _count_calls(monkeypatch, f):
        calls = []
        original = f.evaluate_rows

        def counted(space, rows):
            calls.append(len(rows))
            return original(space, rows)

        monkeypatch.setattr(f, "evaluate_rows", counted)
        return calls

    def test_pointwise_operators(self, monkeypatch):
        mu = rademacher(5)
        f = MultilinearPoly({1: np.arange(5.0)})
        calls = self._count_calls(monkeypatch, f)
        x = [1.0, -1.0, 1.0, 1.0, -1.0]
        h_tensor(f, mu, x, 2)
        assert len(calls) == math.comb(5, 2)
        del calls[:]
        h_vector(f, mu, x, "plus")
        h_component(f, mu, x, 3, "minus")
        d_operator(f, mu, x)
        assert len(calls) == 3

    def test_monte_carlo_profile_calls_do_not_grow_with_samples(self, monkeypatch):
        mu = rademacher(5)
        # a table: a polynomial's levels from its degree up are not sampled
        f = Tabulated(MultilinearPoly({1: np.arange(5.0)}).evaluate_table(mu.space))
        calls = self._count_calls(monkeypatch, f)
        samples = np.random.default_rng(35).choice([-1.0, 1.0], size=(64, 5))
        norm_profile(f, mu, 2, mode="monte_carlo", samples=samples[:1], restarts=1)
        one = len(calls)
        del calls[:]
        norm_profile(f, mu, 2, mode="monte_carlo", samples=samples, restarts=1)
        assert len(calls) == one == 5 + math.comb(5, 2)


# ---------------------------------------------------------------------------
# An independent oracle for the section kernel: the full ordered m x m grid of
# (original, prime) differences on every axis, as the kernel first computed it
# ---------------------------------------------------------------------------


def ordered_pair_difference(arr, axis):
    """Replace one axis by the two-axis array of all ordered pairwise differences."""
    return np.expand_dims(arr, axis + 1) - np.expand_dims(arr, axis)


def ordered_combo_entries(section, axes):
    axes = sorted(axes)
    for axis in reversed(axes):
        section = ordered_pair_difference(section, axis)
    doubled = tuple(p for j, axis in enumerate(axes) for p in (axis + j, axis + j + 1))
    return np.abs(section).max(axis=doubled)


def old_h_tensor_field(table, mu, k):
    """The dense field as one loop over the ordered grids that assembles each
    combination's entries as it computes them."""
    from itertools import combinations

    space = mu.space
    F = np.asarray(table, dtype=float).reshape(space.shape)
    supports = [np.asarray(mu.coordinate_support(i), dtype=np.intp) for i in range(space.n)]
    out = np.zeros((space.size,) + (space.n,) * k)
    for combo in combinations(range(space.n), k):
        sub = F
        for i in combo:
            sub = np.take(sub, supports[i], axis=i)
        expanded = ordered_combo_entries(sub, combo)
        for i in combo:
            expanded = np.expand_dims(expanded, i)
        expanded = np.broadcast_to(expanded, space.shape).reshape(-1)
        for perm in permutations(combo):
            out[(slice(None),) + perm] = expanded
    return out


def old_h_tensors(f, mu, points, k):
    """Pointwise tensors over the ordered grids, one evaluate_on call per row."""
    from itertools import combinations

    space = mu.space
    n = space.n
    out = np.zeros((len(points),) + (n,) * k)
    for combo in combinations(range(n), k):
        supports = [space.value_grid(i)[mu.coordinate_support(i)] for i in combo]
        for row, x in enumerate(points):
            values = np.empty(tuple(s.size for s in supports))
            for idx in np.ndindex(values.shape):
                point = np.array(x, dtype=float)
                point[list(combo)] = [s[j] for s, j in zip(supports, idx)]
                values[idx] = f.evaluate_on(space, point)
            entry = ordered_combo_entries(values, range(k))
            for perm in permutations(combo):
                out[(row,) + perm] = entry
    return out


def oracle_profile(f, mu, d, restarts=8, seed=0):
    """One norm per support configuration at every level, then E or sup."""
    from concentra.tensors import op_norm_batch

    table = f.evaluate_table(mu.space)
    w = mu.prob_table()
    support = w > 0.0
    gammas = []
    for k in range(1, d + 1):
        norms = op_norm_batch(old_h_tensor_field(table, mu, k)[support], restarts=restarts, seed=seed)
        gammas.append(float(np.dot(w[support], norms)) if k < d else float(norms.max()))
    return gammas


def _symmetric_zero_diagonal(rng, n):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    np.fill_diagonal(A, 0.0)
    return A


def _ising_ring(n, rng):
    from concentra.models import IsingSpec, build_ising

    J = np.zeros((n, n))
    for i in range(n):
        J[i, (i + 1) % n] = J[(i + 1) % n, i] = rng.uniform(0.1, 0.2)
    return build_ising(IsingSpec(J, np.zeros(n)))[0]


def _constant_top_cases():
    """Degree-2 functionals: the order-2 tensor is the same at every configuration."""
    from concentra.funcs import UStatistic
    from concentra.space import ProductSpace, uniform

    rng = np.random.default_rng(40)
    A = _symmetric_zero_diagonal(rng, 7)
    poly = MultilinearPoly({1: rng.standard_normal(6), 2: _symmetric_zero_diagonal(rng, 6)})
    H = rng.uniform(-1.0, 1.0, size=(3, 3))
    return {
        "quadform": (rademacher(7), QuadraticForm(A)),
        "poly-rademacher": (rademacher(6), poly),
        "poly-bernoulli": (bernoulli_product(6, 0.3), poly),
        "ustat": (uniform(ProductSpace(((0.0, 1.0, 2.0),) * 5)), UStatistic(2, (H + H.T) / 2)),
        "ising-quadform": (_ising_ring(7, rng), QuadraticForm(_symmetric_zero_diagonal(rng, 7))),
    }


class TestConstantLevels:
    @pytest.mark.parametrize("case", list(_constant_top_cases()))
    def test_constant_level_is_a_certified_upper_end(self, case):
        from concentra.diffops import _level_norms

        mu, f = _constant_top_cases()[case]
        table = f.evaluate_table(mu.space)
        support = mu.prob_table() > 0.0
        assert np.ndim(_level_norms(table, mu, 2, support, 8, 0)) == 0  # collapsed
        assert np.ndim(_level_norms(table, mu, 1, support, 8, 0)) == 1  # real spread
        for d in (2, 3):  # level 2 as the supremum, then as the mean
            got, want = norm_profile(f, mu, d).gamma, oracle_profile(f, mu, d)
            assert got[0] == want[0]
            # at most a few ulps below the per-configuration norms, never 1e-12 above
            assert want[1] * (1.0 - 8 * np.finfo(float).eps) <= got[1] <= want[1] * (1.0 + 1e-12)
            if isinstance(f, MultilinearPoly):
                # above the degree: exactly 0, where the kernel keeps the table's rounding
                assert got[2:] == (0.0,) * (d - 2)
                assert all(w <= 1e-12 * want[1] for w in want[2:])
            else:
                assert got[2:] == tuple(want[2:])

    def test_random_table_matches_the_per_configuration_norms(self):
        rng = np.random.default_rng(41)
        for mu in (rademacher(5), bernoulli_product(5, 0.3), _ising_ring(5, rng)):
            f = Tabulated(rng.standard_normal(mu.space.size))
            for d in (2, 3):
                assert list(norm_profile(f, mu, d).gamma) == oracle_profile(f, mu, d)

    def test_h_tensor_field_matches_the_old_loop(self):
        rng = np.random.default_rng(42)
        cases = [ORACLE_CASES[name]() for name in ORACLE_CASES]
        cases.append((bernoulli_product(5, 0.3), Tabulated(rng.standard_normal(32))))
        for mu, f in cases:
            table = f.evaluate_table(mu.space)
            for k in (1, 2, 3):
                assert np.array_equal(h_tensor_field(table, mu, k), old_h_tensor_field(table, mu, k))

    def test_profile_of_a_quadratic_form_does_not_build_the_dense_field(self):
        import tracemalloc

        n = 14
        A = _symmetric_zero_diagonal(np.random.default_rng(43), n)
        mu, f = rademacher(n), QuadraticForm(A)
        dense_bytes = mu.space.size * n * n * 8  # the order-2 field, 24.5 MiB
        tracemalloc.start()
        try:
            norm_profile(f, mu, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2


def _alphabet_space(shape):
    from concentra.space import ProductSpace

    return ProductSpace(tuple(tuple(float(v) for v in range(m)) for m in shape))


def _random_product(shape, rng, zero_letter=None):
    """A product measure on alphabets of the given sizes; `zero_letter`, a
    (coordinate, letter) pair, gets probability 0."""
    from concentra.space import ProductMeasure

    tables = [rng.uniform(0.1, 1.0, m) for m in shape]
    if zero_letter is not None:
        i, letter = zero_letter
        tables[i][letter] = 0.0
    return ProductMeasure(_alphabet_space(shape), [t / t.sum() for t in tables])


KERNEL_SHAPES = {
    "m1": (1, 1, 1),
    "m2": (2,) * 5,
    "m3": (3,) * 4,
    "m4": (4,) * 3,
    "mixed": (1, 2, 3, 4),
    "mixed-zero-letter": (3, 2, 4, 2),
}


class TestUnorderedPairs:
    """The kernel differences only the unordered pairs p < q of each axis; the
    ordered grid of the oracle must give the same bits."""

    @pytest.mark.parametrize("case", list(KERNEL_SHAPES))
    def test_field_matches_the_ordered_grid(self, case):
        rng = np.random.default_rng(50)
        shape = KERNEL_SHAPES[case]
        mu = _random_product(shape, rng, (1, 0) if case == "mixed-zero-letter" else None)
        for _ in range(3):
            table = rng.standard_normal(mu.space.size)
            for k in (1, 2, 3):
                assert np.array_equal(h_tensor_field(table, mu, k), old_h_tensor_field(table, mu, k))

    @pytest.mark.parametrize("case", list(KERNEL_SHAPES))
    def test_field_of_a_batch_is_each_tables_field(self, case):
        rng = np.random.default_rng(52)
        shape = KERNEL_SHAPES[case]
        mu = _random_product(shape, rng, (1, 0) if case == "mixed-zero-letter" else None)
        tables = rng.standard_normal((3, mu.space.size))
        for k in (1, 2, 3):
            batch = h_tensor_field(tables, mu, k)
            assert batch.shape == (3, mu.space.size) + (mu.space.n,) * k
            assert np.array_equal(batch, np.stack([old_h_tensor_field(t, mu, k) for t in tables]))
            assert np.array_equal(h_tensor_field(tables[:1], mu, k)[0], h_tensor_field(tables[0], mu, k))

    @pytest.mark.parametrize("case", list(KERNEL_SHAPES))
    def test_pointwise_tensors_match_the_ordered_grid(self, case):
        from concentra.diffops import _h_tensors

        rng = np.random.default_rng(51)
        shape = KERNEL_SHAPES[case]
        mu = _random_product(shape, rng, (1, 0) if case == "mixed-zero-letter" else None)
        f = Tabulated(rng.standard_normal(mu.space.size))
        points = enumerate_configurations(mu.space)[rng.choice(mu.space.size, size=4)]
        for k in (1, 2, 3):
            assert np.array_equal(_h_tensors(f, mu, points, k), old_h_tensors(f, mu, points, k))

    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_ustat_worst_entry_matches_the_ordered_grid(self, alphabet):
        from concentra.funcs import UStatistic
        from concentra.space import uniform
        from concentra.verify import check_ustat_entry_bound

        rng = np.random.default_rng(52)
        kernel = rng.uniform(-1.0, 1.0, (alphabet,) * 3)
        kernel = sum(kernel.transpose(p) for p in permutations(range(3))) / 6
        ustat, n = UStatistic(3, kernel), 4
        mu = uniform(_alphabet_space((alphabet,) * n))
        table = ustat.evaluate_table(mu.space)
        for k in (1, 2, 3):
            report = check_ustat_entry_bound(ustat, n, k)
            limit = math.comb(3, k) * 2.0**k * ustat.bound * float(n) ** (3 - k)
            assert report.worst_margin == float(old_h_tensor_field(table, mu, k).max()) - limit


def per_combination_entries(tables, mu, k):
    """Every combination's entries from the whole table alone, as
    `_section_entries` computed them before it shared prefixes."""
    from itertools import combinations

    from concentra.diffops import _combo_entries

    space = mu.space
    lead = tables.shape[:-1]
    F = tables.reshape(lead + space.shape)
    entries = {}
    for combo in combinations(range(space.n), k):
        sub = F
        for i in combo:
            sub = np.take(sub, mu.coordinate_support(i), axis=len(lead) + i)
        entries[combo] = _combo_entries(sub, [len(lead) + i for i in combo])
    return entries


def _partial_exact(rng):
    """An exact measure whose coordinates 0 and 2 miss a letter, with a few
    more zero-mass configurations that leave every marginal support alone."""
    from concentra.space import ExactMeasure

    space = _alphabet_space((3, 2, 3, 2))
    w = rng.uniform(0.1, 1.0, space.shape)
    w[1], w[:, :, 0] = 0.0, 0.0
    w[0, 0, 1, 0] = w[2, 1, 2, 1] = 0.0
    return ExactMeasure(space, (w / w.sum()).reshape(-1))


SHARED_PREFIX_CASES = {
    "two-letter": lambda rng: _random_product((2,) * 6, rng),
    "three-letter": lambda rng: _random_product((3,) * 4, rng),
    "partial-exact": _partial_exact,
}


class TestSharedPrefixes:
    """The entries walk the combinations as a tree of shared pair differences;
    each must keep the bits it gets from its whole table alone."""

    @pytest.mark.parametrize("case", list(SHARED_PREFIX_CASES))
    def test_entries_match_each_combination_alone(self, case):
        from concentra.diffops import _section_entries

        rng = np.random.default_rng(54)
        mu = SHARED_PREFIX_CASES[case](rng)
        for tables in (rng.standard_normal(mu.space.size), rng.standard_normal((3, mu.space.size))):
            for k in (1, 2, 3):
                got = list(_section_entries(tables, mu, k))
                want = per_combination_entries(tables, mu, k)
                assert sorted(combo for combo, _ in got) == list(want)  # each combination once
                for combo, entry in got:
                    assert np.array_equal(entry, want[combo])

    @pytest.mark.parametrize("n", range(1, 19))
    def test_order_one_norms_are_the_fields_norms(self, n):
        # Bit for bit numpy's pairwise row sum (sequential below 8 coordinates,
        # 8 partial sums from 8 on): a numpy that sums otherwise fails here.
        from concentra.diffops import _order_one_norms, _section_entries
        from concentra.tensors import op_norm_batch

        rng = np.random.default_rng(55 + n)
        mu = bernoulli_product(n, 0.3)
        table = rng.standard_normal(mu.space.size) * np.exp(rng.uniform(-8.0, 8.0, mu.space.size))
        norms = _order_one_norms(_section_entries(table, mu, 1), mu.space)
        assert np.array_equal(norms, op_norm_batch(h_tensor_field(table, mu, 1)))

    @pytest.mark.parametrize("linear", [False, True])
    def test_level_one_makes_its_entries_once(self, linear, monkeypatch):
        # A varying level 1 takes its extremes and its norms from one pass;
        # a constant one (a linear function) returns its one norm.
        import concentra.diffops as diffops_mod
        from concentra.tensors import op_norm_batch

        rng = np.random.default_rng(57)
        mu = bernoulli_product(9, 0.3)
        points = enumerate_configurations(mu.space)
        table = points @ rng.standard_normal(9) if linear else rng.standard_normal(mu.space.size)
        want = op_norm_batch(h_tensor_field(table, mu, 1))
        orders, entries = [], diffops_mod._section_entries
        monkeypatch.setattr(diffops_mod, "_section_entries", lambda t, m, k: orders.append(k) or entries(t, m, k))
        got = diffops_mod._level_norms(table, mu, 1, np.ones(mu.space.size, dtype=bool), 8, 0)
        assert orders == [1]
        if linear:
            assert np.ndim(got) == 0 and got == pytest.approx(want.max(), rel=1e-12)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["mixed", "mixed-zero-letter"])
    def test_varying_level_one_takes_the_fields_norms_on_the_support(self, case):
        from concentra.diffops import _level_norms
        from concentra.space import ExactMeasure
        from concentra.tensors import op_norm_batch

        rng = np.random.default_rng(56)
        mu = _random_product(KERNEL_SHAPES[case], rng, (1, 0) if case == "mixed-zero-letter" else None)
        w = mu.prob_table()
        w[rng.choice(w.size, size=5, replace=False)] = 0.0  # configurations off the support
        mu = ExactMeasure(mu.space, w / w.sum())
        support = mu.prob_table() > 0.0
        table = rng.standard_normal(mu.space.size)
        want = op_norm_batch(h_tensor_field(table, mu, 1)[support])
        assert np.array_equal(_level_norms(table, mu, 1, support, 8, 0), want)


class TestSizeOneSupports:
    """A coordinate whose support is one letter has no pair to difference:
    every entry on it is 0, as the ordered grid's diagonal gave."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(53)
        mu = _random_product((2, 2, 3, 2), rng, (1, 1))  # coordinate 1 lives on letter 0
        return rng, mu, Tabulated(rng.standard_normal(mu.space.size))

    def test_field_and_pointwise_entries_vanish(self):
        from concentra.diffops import _h_tensors

        _, mu, f = self._case()
        table = f.evaluate_table(mu.space)
        points = enumerate_configurations(mu.space)
        for k in (1, 2, 3):
            for tensors in (h_tensor_field(table, mu, k), _h_tensors(f, mu, points, k)):
                assert tensors.any()
                for axis in range(1, k + 1):
                    assert not np.take(tensors, 1, axis=axis).any()

    def test_norm_profile_ignores_the_fixed_coordinate(self):
        rng, mu, f = self._case()
        assert list(norm_profile(f, mu, 2).gamma) == oracle_profile(f, mu, 2)
        # a function of the fixed coordinate alone has a zero profile
        only = Tabulated(np.broadcast_to(rng.standard_normal((1, 2, 1, 1)), mu.space.shape).reshape(-1))
        assert norm_profile(only, mu, 3).gamma == (0.0, 0.0, 0.0)


def _symmetric_order(rng, n, k):
    """A symmetric order-k tensor with zero generalized diagonal: one uniform
    value per k-subset, written at each of its permutations."""
    from itertools import combinations

    T = np.zeros((n,) * k)
    for combo in combinations(range(n), k):
        value = rng.uniform(-1.0, 1.0)
        for perm in permutations(combo):
            T[perm] = value
    return T


def _corpus_case(name):
    import json
    from importlib import resources

    from concentra import cli

    inputs = cli.Inputs(json.loads((resources.files("concentra") / "corpus" / f"{name}.json").read_text()))
    return inputs.model, inputs.table


def _cubic_cases():
    """Degree-3 functionals: the order-3 tensor is the same at every configuration."""
    rng = np.random.default_rng(60)
    n = 10
    cubic = MultilinearPoly({1: rng.uniform(-1.0, 1.0, n), 3: _symmetric_order(rng, n, 3)})
    return {
        "higher-order-cubic": (rademacher(n), cubic),
        "ergm4-triangles": _corpus_case("ergm4-triangles"),
        "rademacher4-cubic": _corpus_case("rademacher4-cubic"),
    }


def _count_fields(monkeypatch):
    """Record the order of every h_tensor_field call made by the profiles."""
    import concentra.diffops as diffops

    orders = []
    real = diffops.h_tensor_field

    def counted(table, mu, k):
        orders.append(k)
        return real(table, mu, k)

    monkeypatch.setattr(diffops, "h_tensor_field", counted)
    return orders


class TestConstantLevelsOfAnyOrder:
    """A constant level of order >= 3 is one ALS run on hi, not one per configuration."""

    @staticmethod
    def _per_configuration(f, mu, k):
        from concentra.funcs import function_table
        from concentra.tensors import op_norm_batch

        table = function_table(f, mu.space)
        support = mu.prob_table() > 0.0
        return op_norm_batch(h_tensor_field(table, mu, k)[support], restarts=8, seed=0)

    @pytest.mark.parametrize("case", list(_cubic_cases()))
    def test_collapsed_order_three_level_meets_every_configuration_estimate(self, case, monkeypatch):
        mu, f = _cubic_cases()[case]
        want = self._per_configuration(f, mu, 3).max()
        orders = _count_fields(monkeypatch)
        got = norm_profile(f, mu, 3).gamma[2]
        assert 3 not in orders
        assert got >= want * (1.0 - 1e-13)

    def test_constant_order_three_level_builds_no_field(self, monkeypatch):
        mu, f = _cubic_cases()["higher-order-cubic"]
        orders = _count_fields(monkeypatch)
        norm_profile(f, mu, 3)
        assert orders == [2]  # level 2 of a cubic varies with x; level 1 takes no field

    def test_constant_order_four_level_takes_the_rule(self, monkeypatch):
        rng = np.random.default_rng(61)
        n = 6
        mu = rademacher(n)
        quartic = MultilinearPoly({2: _symmetric_order(rng, n, 2), 4: _symmetric_order(rng, n, 4)})
        want = self._per_configuration(quartic, mu, 4)
        assert want.max() > 0.0
        orders = _count_fields(monkeypatch)
        got = norm_profile(quartic, mu, 4).gamma[3]
        assert orders == [2, 3]  # level 1 varies too, but takes no field
        assert got >= want.max() * (1.0 - 1e-13)

    @pytest.mark.parametrize("kind", ["quartic", "table"])
    def test_varying_order_three_level_keeps_the_field_path(self, kind, monkeypatch):
        import concentra.diffops as diffops

        rng = np.random.default_rng(62)
        n = 6
        mu = bernoulli_product(n, 0.3)
        f = (MultilinearPoly({3: _symmetric_order(rng, n, 3), 4: _symmetric_order(rng, n, 4)})
             if kind == "quartic" else Tabulated(rng.standard_normal(mu.space.size)))
        want = oracle_profile(f, mu, 3)
        batches = []
        real = diffops.op_norm_batch

        def counted(tensors, **options):
            batches.append(len(tensors))
            return real(tensors, **options)

        monkeypatch.setattr(diffops, "op_norm_batch", counted)
        orders = _count_fields(monkeypatch)
        assert list(norm_profile(f, mu, 3).gamma) == want
        assert orders == [2, 3]  # level 1 takes its norms without a field or a batch
        assert batches == [mu.space.size] * 2  # no norm of hi at any level

    def test_suprema_profile_of_cubic_members(self, monkeypatch):
        from concentra.funcs import SupFamily
        from concentra.verify import suprema_profile

        rng = np.random.default_rng(63)
        n = 6
        members = tuple(MultilinearPoly({1: rng.uniform(-1.0, 1.0, n), 3: _symmetric_order(rng, n, 3)})
                        for _ in range(2))
        for mu in (rademacher(n), bernoulli_product(n, 0.3)):
            w = mu.prob_table()
            sup_norms = [np.max([self._per_configuration(m, mu, j) for m in members], axis=0)
                         for j in (1, 2, 3)]
            orders = _count_fields(monkeypatch)
            expected_w, top = suprema_profile(SupFamily(members), mu, d=3)
            monkeypatch.undo()
            assert orders == [2, 2]  # the members' order-3 levels collapse; level 1 takes no field
            assert expected_w == [float(np.dot(w, s)) for s in sup_norms[:2]]
            assert top >= float(sup_norms[2].max()) * (1.0 - 1e-13)


def _kernel_level(f, mu, k):
    """The kernel's upper end hi of level k: each entry's max over its sections."""
    from concentra.diffops import _section_entries

    hi = np.zeros((mu.space.n,) * k)
    for combo, entry in _section_entries(f.evaluate_table(mu.space), mu, k):
        for perm in permutations(combo):
            hi[perm] = entry.max()
    return hi


def _mixed_alphabets(one_letter=False):
    """Two- and three-letter alphabets of unequal widths; with `one_letter`,
    coordinate 1's support is its middle letter alone."""
    from concentra.space import ProductMeasure, ProductSpace

    space = ProductSpace(((-1.0, 2.0), (0.0, 0.5, 3.0), (1.0, 1.25), (-2.0, 0.0, 1.0), (0.0, 3.0)))
    rng = np.random.default_rng(70)
    tables = [rng.uniform(0.1, 1.0, len(a)) for a in space.alphabets]
    if one_letter:
        tables[1] = np.array([0.0, 1.0, 0.0])
    return ProductMeasure(space, [t / t.sum() for t in tables])


POLYNOMIAL_LEVEL_MEASURES = {
    "rademacher": lambda: rademacher(5),
    "bernoulli": lambda: bernoulli_product(5, 0.3),
    "mixed-alphabets": _mixed_alphabets,
    "one-letter-support": lambda: _mixed_alphabets(one_letter=True),
    "ising": lambda: _ising_ring(5, np.random.default_rng(71)),
}


class TestPolynomialLevels:
    """A polynomial's levels from its degree up come from its coefficients;
    the section kernel is the oracle."""

    @pytest.mark.parametrize("case", list(POLYNOMIAL_LEVEL_MEASURES))
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_top_level_is_the_kernels_up_to_rounding(self, case, degree):
        from concentra.diffops import polynomial_level

        mu = POLYNOMIAL_LEVEL_MEASURES[case]()
        rng = np.random.default_rng(72 + degree)
        for _ in range(3):
            f = MultilinearPoly({k: _symmetric_order(rng, mu.space.n, k) for k in range(1, degree + 1)})
            want = _kernel_level(f, mu, degree)
            got = polynomial_level(f, mu, degree)
            assert want.max() > 0.0
            assert np.abs(got - want).max() <= 1e-13 * want.max()
            if degree > 1:
                assert polynomial_level(f, mu, degree - 1) is None

    def test_one_letter_coordinate_has_zero_entries(self):
        from concentra.diffops import polynomial_level

        mu = _mixed_alphabets(one_letter=True)
        f = MultilinearPoly({2: _symmetric_order(np.random.default_rng(73), 5, 2)})
        level = polynomial_level(f, mu, 2)
        assert not level[1].any() and not level[:, 1].any() and level.any()

    def test_a_nearly_symmetric_tensor_sums_its_orders(self):
        # check_symmetric accepts 1e-5 relative; the closed form must not take
        # one entry times k! as the monomial's coefficient
        from concentra.diffops import polynomial_level

        mu = bernoulli_product(4, 0.3)
        A = _symmetric_order(np.random.default_rng(74), 4, 2)
        A[0, 1] *= 1.0 + 4e-6
        f = QuadraticForm(A)
        want = _kernel_level(f, mu, 2)
        assert np.abs(polynomial_level(f, mu, 2) - want).max() <= 1e-13 * want.max()
        scaled_one_entry = 2.0 * abs(A[0, 1])  # widths are 1 on {0, 1}
        assert abs(scaled_one_entry - want[0, 1]) > 1e-6 * want[0, 1]

    def test_rademacher_quadform_level_two_is_hanson_wrights(self):
        from concentra.bounds import hanson_wright, independent

        A = _symmetric_zero_diagonal(np.random.default_rng(75), 8)
        got = norm_profile(QuadraticForm(A), rademacher(8), 2).gamma[1]
        want = hanson_wright(A, 1.0, independent(2)).levels[1][1]
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_levels_above_the_degree_are_zero(self, mode):
        from concentra.diffops import polynomial_level

        rng = np.random.default_rng(76)
        mu = bernoulli_product(5, 0.3)
        f = MultilinearPoly({1: rng.standard_normal(5), 2: _symmetric_order(rng, 5, 2)})
        assert not polynomial_level(f, mu, 3).any()
        samples = enumerate_configurations(mu.space)[::5]
        profile = norm_profile(f, mu, 4, mode=mode, samples=samples)
        assert profile.gamma[2:] == (0.0, 0.0)
        assert profile.gamma[1] > 0.0

    def test_only_the_polynomials_top_levels_skip_the_walk(self, monkeypatch):
        import concentra.diffops as diffops
        from concentra.funcs import UStatistic
        from concentra.space import ProductSpace, uniform

        orders, entries = [], diffops._section_entries
        monkeypatch.setattr(diffops, "_section_entries", lambda t, m, k: orders.append(k) or entries(t, m, k))
        rng = np.random.default_rng(77)
        mu = rademacher(5)
        quadform = QuadraticForm(_symmetric_zero_diagonal(rng, 5))
        cases = [
            (quadform, 3, [1]),
            (MultilinearPoly({1: rng.standard_normal(5)}), 2, []),
            # level 2 varies: its constant-level check, then its field
            (MultilinearPoly({1: rng.standard_normal(5), 3: _symmetric_order(rng, 5, 3)}), 3, [1, 2, 2]),
            (Tabulated(quadform.evaluate_table(mu.space)), 2, [1, 2]),
        ]
        for f, d, walked in cases:
            del orders[:]
            norm_profile(f, mu, d)
            assert orders == walked
        H = rng.uniform(-1.0, 1.0, size=(3, 3))
        del orders[:]
        norm_profile(UStatistic(2, (H + H.T) / 2), uniform(ProductSpace(((0.0, 1.0, 2.0),) * 4)), 2)
        assert orders == [1, 2]

    def test_every_command_gives_one_gamma_per_level(self, tmp_path, monkeypatch):
        # verify-tail, bound and verify-moments reach the profile with the
        # function and its table; suprema_profile with its members
        import json

        import concentra.cli as cli
        import concentra.verify as verify
        from concentra.funcs import SupFamily, function_from_json

        profiles = []

        def recorded(*args, **kwargs):
            profile = norm_profile(*args, **kwargs)
            profiles.append(profile.gamma)
            return profile

        monkeypatch.setattr(cli, "norm_profile", recorded)
        monkeypatch.setattr(verify, "norm_profile", recorded)
        rng = np.random.default_rng(78)
        model = {"kind": "bernoulli", "n": 5, "p": 0.3}
        function = {"kind": "poly", "coefficients": [
            {"order": 1, "tensor": rng.standard_normal(5).tolist()},
            {"order": 3, "tensor": _symmetric_order(rng, 5, 3).tolist()},
        ]}
        regime = {"kind": "independent", "d": 3}
        configs = {
            "verify-tail": {"model": model, "function": function, "bound": {"kind": "general", "regime": regime},
                            "t_grid": [1.0, 4.0]},
            "bound": {"model": model, "function": function, "bound": {"kind": "general", "regime": regime},
                      "t_grid": [1.0, 4.0]},
            "verify-moments": {"model": model, "function": function, "regime": regime, "p_grid": [2.0, 4.0]},
        }
        for command, doc in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(doc))
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) in (0, 3)
        assert len(profiles) == 3 and profiles[0] == profiles[1] == profiles[2]
        mu, f = cli.build_model(model), function_from_json(function)
        expected_w, top = verify.suprema_profile(SupFamily((f,)), mu, d=3)
        assert (*expected_w, top) == profiles[0]

    def test_verify_tail_evaluates_its_table_once(self, tmp_path, monkeypatch):
        import json

        import concentra.cli as cli

        calls = []
        real = MultilinearPoly.evaluate_table
        monkeypatch.setattr(MultilinearPoly, "evaluate_table", lambda f, space: calls.append(1) or real(f, space))
        A = _symmetric_zero_diagonal(np.random.default_rng(79), 4)
        doc = {"model": {"kind": "rademacher", "n": 4}, "function": {"kind": "quadform", "matrix": A.tolist()},
               "bound": {"kind": "general", "regime": {"kind": "independent", "d": 2}}}
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify-tail", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
