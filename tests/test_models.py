import math
from functools import partial
from itertools import combinations, permutations

import numpy as np
import pytest

from concentra.errors import DomainError, SchemaError, UndefinedConditionalError
from concentra.models import (
    ErgmSpec,
    GlauberChain,
    IsingSpec,
    Motif,
    SINGLE_EDGE,
    TRIANGLE,
    TWO_STAR,
    build_coloring,
    build_ergm,
    build_ising,
    curie_weiss_spec,
    edge_index_map,
    glauber_sample,
    read_samples_binary,
    subgraph_copy_count,
    triangle_count_tensor,
    write_samples_binary,
    write_samples_csv,
)
from concentra.funcs import MultilinearPoly
from concentra.space import (
    ExactMeasure,
    GibbsMeasure,
    ProductMeasure,
    ProductSpace,
    bernoulli_product,
    binary,
    enumerate_configurations,
    rademacher,
)


class TestIsing:
    def test_zero_couplings_give_uniform(self):
        mu, report = build_ising(IsingSpec(np.zeros((3, 3)), np.zeros(3)))
        np.testing.assert_allclose(mu.prob_table(), np.full(8, 1 / 8), atol=1e-12)
        assert report.satisfied

    def test_two_site_table_by_hand(self):
        J = np.array([[0.0, 0.3], [0.3, 0.0]])
        mu, _ = build_ising(IsingSpec(J, np.zeros(2)))
        # weights exp(0.3 s1 s2): equal spins exp(0.3), unequal exp(-0.3)
        agree = math.exp(0.3)
        disagree = math.exp(-0.3)
        expected = np.array([agree, disagree, disagree, agree])
        expected /= expected.sum()
        np.testing.assert_allclose(mu.prob_table(), expected, atol=1e-12)

    def test_curie_weiss_condition_matches_beta_below_one(self):
        # J_ij = beta/n: the row-sum condition is beta (n-1)/n < 1
        for n, beta in [(4, 0.9), (4, 1.4), (6, 1.05)]:
            _, report = build_ising(curie_weiss_spec(n, beta))
            assert report.satisfied == (beta * (n - 1) / n < 1.0)
            assert report.max_row_sum == pytest.approx(beta * (n - 1) / n)

    def test_asymmetric_coupling_rejected(self):
        J = np.zeros((2, 2))
        J[0, 1] = 0.5
        with pytest.raises(DomainError):
            IsingSpec(J, np.zeros(2))

    def test_field_enters_report(self):
        _, report = build_ising(IsingSpec(np.zeros((2, 2)), np.array([0.4, -0.9])))
        assert report.max_field == pytest.approx(0.9)


def _ring_spec(n, seed=3):
    rng = np.random.default_rng(seed)
    J = np.zeros((n, n))
    for a in range(n):
        J[a, (a + 1) % n] = J[(a + 1) % n, a] = rng.uniform(0.1, 0.2)
    return IsingSpec(J, rng.uniform(-0.3, 0.3, n))


ISING_ENERGY_CASES = {
    "ring": lambda: _ring_spec(10),
    "curie-weiss": lambda: curie_weiss_spec(9, 0.8, 0.3),
    "zero-coupling": lambda: IsingSpec(np.zeros((5, 5)), np.array([0.3, -0.1, 0.0, 0.7, -0.25])),
    "one-site": lambda: IsingSpec(np.zeros((1, 1)), np.array([0.4])),
}


class TestIsingLogWeight:
    @pytest.mark.parametrize("name", sorted(ISING_ENERGY_CASES))
    def test_equals_half_sJs_plus_hs(self, name):
        # The contraction sums the same products as the quadratic form in
        # another order: within (n^2 + n + 4) eps of the sum of their sizes.
        spec = ISING_ENERGY_CASES[name]()
        mu, _ = build_ising(spec)
        S = enumerate_configurations(mu.space)
        J, h, n = spec.coupling, spec.external_field, spec.n
        want = 0.5 * np.einsum("zi,ij,zj->z", S, J, S) + np.einsum("zi,i->z", S, h)
        scale = 0.5 * np.einsum("zi,ij,zj->z", np.abs(S), np.abs(J), np.abs(S)) + np.abs(S) @ np.abs(h)
        got = mu.log_weights(S)
        assert np.all(np.abs(got - want) <= (n * n + n + 4) * np.finfo(float).eps * scale)
        if not J.any():
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(ISING_ENERGY_CASES))
    def test_is_the_polynomial_h_plus_half_J(self, name):
        spec = ISING_ENERGY_CASES[name]()
        mu, _ = build_ising(spec)
        energy = MultilinearPoly({1: spec.external_field, 2: 0.5 * spec.coupling})
        S = enumerate_configurations(mu.space)
        np.testing.assert_array_equal(mu.log_weights(S), energy.evaluate_rows(mu.space, S))
        for row in S[:5]:
            np.testing.assert_array_equal(mu.log_weights(row), energy.evaluate_rows(mu.space, row[None]))


class TestColoring:
    def test_edgeless_graph_is_uniform_over_all_colorings(self):
        mu, report = build_coloring([], 3, 2)
        np.testing.assert_allclose(mu.prob_table(), np.full(8, 1 / 8))
        assert report.satisfied  # 2 >= 2*0 + 1

    def test_triangle_three_colors(self):
        mu, report = build_coloring([(0, 1), (0, 2), (1, 2)], 3, 3)
        assert int((mu.prob_table() > 0).sum()) == 6
        assert np.allclose(mu.prob_table()[mu.prob_table() > 0], 1 / 6)
        assert not report.satisfied  # 3 < 2*2 + 1

    def test_path_two_colors(self):
        mu, _ = build_coloring([(0, 1), (1, 2)], 3, 2)
        assert int((mu.prob_table() > 0).sum()) == 2

    def test_impossible_coloring_rejected(self):
        with pytest.raises(DomainError):
            build_coloring([(0, 1), (0, 2), (1, 2)], 3, 2)


class TestErgm:
    def test_edge_only_model_condition_always_holds(self):
        spec = ErgmSpec(4, (SINGLE_EDGE,), (0.8,))
        _, report = build_ergm(spec)
        assert report.phi_prime_abs_at_one == 0.0
        assert report.satisfied

    def test_triangle_term_condition_threshold(self):
        # Phi'_{|beta|}(1) = 6 |beta_2|: the condition requires |beta_2| < 1/3
        for beta2, ok in [(0.3, True), (0.34, False)]:
            spec = ErgmSpec(4, (SINGLE_EDGE, TRIANGLE), (0.0, beta2))
            _, report = build_ergm(spec)
            assert report.phi_prime_abs_at_one == pytest.approx(6 * abs(beta2))
            assert report.satisfied == ok

    def test_zero_parameters_give_fair_coins(self):
        spec = ErgmSpec(4, (SINGLE_EDGE,), (0.0,))
        mu, _ = build_ergm(spec)
        np.testing.assert_allclose(mu.prob_table(), np.full(64, 1 / 64), atol=1e-12)

    def test_first_motif_must_be_edge(self):
        with pytest.raises(DomainError):
            ErgmSpec(4, (TRIANGLE,), (0.1,))

    def test_disconnected_motif_rejected(self):
        with pytest.raises(DomainError):
            Motif(((0, 1), (2, 3)))

    def test_triangle_tensor_evaluates_to_triangle_count(self):
        n = 5
        tensor = triangle_count_tensor(n)
        poly = MultilinearPoly({3: tensor})
        rng = np.random.default_rng(0)
        index = edge_index_map(n)
        for _ in range(20):
            x = rng.integers(0, 2, size=len(index)).astype(float)
            assert poly.evaluate_on(binary(len(index)), x) == pytest.approx(
                subgraph_copy_count(x, TRIANGLE, n), abs=1e-9
            )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_triangle_tensor_equals_the_vertex_loop_oracle(self, n):
        # the tensor comes from the ERGM embedding rows; the loop over vertex
        # triples and the orders of their edges stays here as the oracle
        index = edge_index_map(n)
        oracle = np.zeros((len(index),) * 3)
        for a, b, c in combinations(range(n), 3):
            for perm in permutations((index[(a, b)], index[(a, c)], index[(b, c)])):
                oracle[perm] = 1.0 / 6.0
        assert np.array_equal(triangle_count_tensor(n), oracle)

    def test_motif_larger_than_the_graph_adds_nothing(self):
        # two vertices hold no triangle: the term is zero, and the model is the edge-only one
        with_triangle, _ = build_ergm(ErgmSpec(2, (SINGLE_EDGE, TRIANGLE), (0.3, 0.7)))
        edge_only, _ = build_ergm(ErgmSpec(2, (SINGLE_EDGE,), (0.3,)))
        assert np.array_equal(with_triangle.prob_table(), edge_only.prob_table())


class TestSpecWriters:
    """`to_json` of a model spec reads back through the CLI's model reader."""

    def test_ising_spec_round_trips_through_build_model(self):
        from concentra.cli import build_model

        rng = np.random.default_rng(31)
        J = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]:
            J[i, j] = J[j, i] = rng.uniform(-0.4, 0.4)
        spec = IsingSpec(J, rng.uniform(-0.5, 0.5, 5))
        doc = spec.to_json()
        assert doc["kind"] == "ising"
        assert np.array_equal(build_model(doc).prob_table(), build_ising(spec)[0].prob_table())

    def test_curie_weiss_spec_round_trips_through_build_model(self):
        from concentra.cli import build_model

        spec = curie_weiss_spec(6, 0.8, 0.2)
        assert np.array_equal(build_model(spec.to_json()).prob_table(), build_ising(spec)[0].prob_table())

    def test_ergm_spec_and_motifs_round_trip_through_build_model(self):
        from concentra.cli import build_model

        # A motif given on vertices {2, 5, 7} is written on range(3).
        star = Motif(((5, 2), (5, 7)))
        assert star.to_json() == {"edges": [[0, 1], [1, 2]]}
        spec = ErgmSpec(4, (SINGLE_EDGE, TRIANGLE, star), (-0.3, 0.2, -0.1))
        doc = spec.to_json()
        assert doc["kind"] == "ergm" and doc["motifs"][1] == TRIANGLE.to_json()
        assert np.array_equal(build_model(doc).prob_table(), build_ergm(spec)[0].prob_table())


class TestSubgraphCounts:
    @staticmethod
    def edge_subset_oracle(x, motif, n):
        """Independent oracle: enumerate edge subsets of the right size and test
        isomorphism to the motif by brute force over vertex bijections."""
        index = edge_index_map(n)
        present = [pair for pair, idx in index.items() if x[idx] > 0.5]
        target = set(motif.edges)
        count = 0
        for subset in combinations(present, motif.n_edges):
            vertices = sorted({v for e in subset for v in e})
            if len(vertices) != motif.n_vertices:
                continue
            edges = {tuple(sorted(e)) for e in subset}
            for perm in permutations(range(motif.n_vertices)):
                mapping = dict(zip(vertices, perm))
                mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in edges}
                if mapped == target:
                    count += 1
                    break
        return count

    def test_counts_match_oracle_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for n in (5, 6, 7):
            index = edge_index_map(n)
            for _ in range(5):
                x = (rng.random(len(index)) < 0.5).astype(float)
                for motif in (SINGLE_EDGE, TWO_STAR, TRIANGLE):
                    assert subgraph_copy_count(x, motif, n) == pytest.approx(
                        self.edge_subset_oracle(x, motif, n)
                    )

    def test_closed_forms_on_complete_graph(self):
        n = 5
        x = np.ones(n * (n - 1) // 2)
        assert subgraph_copy_count(x, SINGLE_EDGE, n) == pytest.approx(10)
        assert subgraph_copy_count(x, TRIANGLE, n) == pytest.approx(10)  # C(5,3)
        assert subgraph_copy_count(x, TWO_STAR, n) == pytest.approx(5 * 6)  # n C(n-1,2)


class TestGlauber:
    def test_fixed_seed_reproduces_stream(self):
        mu, _ = build_ising(curie_weiss_spec(3, 0.5))
        s1 = glauber_sample(mu, 40, burn_in=10, thinning=2, seed=9)
        s2 = glauber_sample(mu, 40, burn_in=10, thinning=2, seed=9)
        np.testing.assert_array_equal(s1, s2)
        assert s1.shape == (20, 3)

    def test_sweep_operator_preserves_target(self):
        # applying the one-sweep kernel to the exact distribution reproduces it
        J = np.array([[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]])
        mu, _ = build_ising(IsingSpec(J, np.array([0.1, 0.0, -0.1])))
        space = mu.space
        pi = mu.prob_table()
        rho = pi.copy()
        configs = enumerate_configurations(space)
        for i in range(space.n):
            new_rho = np.zeros_like(rho)
            for idx, row in enumerate(configs):
                cond = mu.conditional(row, i)
                for digit in range(space.shape[i]):
                    changed = row.copy()
                    changed[i] = space.alphabets[i][digit]
                    new_rho[space.index_of(changed)] += rho[idx] * cond[digit]
            rho = new_rho
        np.testing.assert_allclose(rho, pi, atol=1e-10)

    def test_sweep_operator_preserves_coloring_target(self):
        # partially supported target: sections off the support never carry mass
        mu, _ = build_coloring([(0, 1), (0, 2), (1, 2)], 3, 5)
        space = mu.space
        pi = mu.prob_table()
        rho = pi.copy()
        configs = enumerate_configurations(space)
        for i in range(space.n):
            new_rho = np.zeros_like(rho)
            for idx, row in enumerate(configs):
                if rho[idx] == 0.0:
                    continue
                cond = mu.conditional(row, i)
                for digit in range(space.shape[i]):
                    changed = row.copy()
                    changed[i] = space.alphabets[i][digit]
                    new_rho[space.index_of(changed)] += rho[idx] * cond[digit]
            rho = new_rho
        np.testing.assert_allclose(rho, pi, atol=1e-10)

    def test_coloring_sampler_matches_exact_table(self):
        mu, _ = build_coloring([(0, 1), (1, 2)], 3, 3)
        samples = glauber_sample(mu, sweeps=20_000, burn_in=200, thinning=1, seed=11)
        idx = np.array([mu.space.index_of(row) for row in samples])
        counts = np.bincount(idx, minlength=mu.space.size)
        from scipy import stats

        support = mu.prob_table() > 0
        _, p_value = stats.chisquare(counts[support], mu.prob_table()[support] * len(samples))
        assert np.all(counts[~support] == 0)
        assert p_value > 0.01

    def test_product_target_matches_marginals(self):
        from concentra.space import bernoulli_product

        mu = bernoulli_product(4, 0.3)
        samples = glauber_sample(mu, 4000, burn_in=1, seed=3)
        freq = samples.mean(axis=0)
        se = math.sqrt(0.3 * 0.7 / 4000)
        assert np.all(np.abs(freq - 0.3) < 5 * se)

    def test_positive_sweeps_required(self):
        mu, _ = build_ising(curie_weiss_spec(2, 0.1))
        with pytest.raises(DomainError):
            glauber_sample(mu, 0)

    def test_chain_state_stays_in_support(self):
        mu, _ = build_coloring([(0, 1), (0, 2), (1, 2)], 3, 5)
        chain = GlauberChain(mu, seed=1)
        for _ in range(50):
            chain.sweep()
            assert mu.prob_table()[mu.space.index_of(chain.state)] > 0


def reference_heat_bath(mu, sweeps, burn_in=0, thinning=1, seed=0):
    """Per-update systematic-scan heat bath: one conditional, one cumsum and one
    scalar uniform per site update, started where `GlauberChain` starts."""
    space = mu.space
    rng = np.random.default_rng(seed)
    if isinstance(mu, ExactMeasure):
        first = int(np.nonzero(mu.prob_table() > 0.0)[0][0])
        state = np.asarray(space.configuration(first), dtype=float)
    else:
        digits = [int(rng.choice(mu.coordinate_support(i))) for i in range(space.n)]
        state = np.array([space.alphabets[i][d] for i, d in enumerate(digits)], dtype=float)
    out = []
    for s in range(1 - burn_in, sweeps + 1):
        for i in range(space.n):
            cdf = np.cumsum(mu.conditional(state, i))
            digit = min(int(np.searchsorted(cdf, rng.random(), side="right")), space.shape[i] - 1)
            state[i] = space.alphabets[i][digit]
        if s >= 1 and s % thinning == 0:
            out.append(state.copy())
    return np.asarray(out, dtype=float)


def _ternary_exact():
    space = ProductSpace(((0.0, 1.0, 2.0),) * 4)
    table = np.random.default_rng(4).random(space.size)
    table[::7] = 0.0
    return ExactMeasure(space, table / table.sum())


def _nine_letter_space():
    """Nine-letter coordinates at the leading, a middle and the last stride,
    a binary one and a one-letter one."""
    nine = tuple(float(v) for v in range(9))
    return ProductSpace((nine, (0.0, 1.0), nine, (5.0,), nine))


def _nine_letter_gibbs():
    space = _nine_letter_space()
    logw = np.random.default_rng(6).normal(scale=2.0, size=space.size)
    strides = np.asarray(space.strides)
    return GibbsMeasure(space, lambda rows: logw[space.digit_rows(rows) @ strides])


def _nine_letter_exact():
    # One section along coordinate 2 has no mass.
    space = _nine_letter_space()
    table = np.random.default_rng(7).random(space.size)
    base = space.index_of((4.0, 1.0, 0.0, 5.0, 3.0))
    table[base + space.strides[2] * np.arange(9)] = 0.0
    return ExactMeasure(space, table / table.sum())


def _nine_letter_product():
    rng = np.random.default_rng(8)
    tables = [rng.random(m) for m in _nine_letter_space().shape]
    return ProductMeasure(_nine_letter_space(), [t / t.sum() for t in tables])


NINE_LETTER_CASES = {
    "gibbs-nine-letters": _nine_letter_gibbs,
    "exact-nine-letters": _nine_letter_exact,
    "product-nine-letters": _nine_letter_product,
}

def _ring(n, field):
    coupling = np.zeros((n, n))
    weights = np.random.default_rng(n).uniform(0.1, 0.6, size=n)
    for a in range(n):
        coupling[a, (a + 1) % n] = coupling[(a + 1) % n, a] = weights[a]
    return build_ising(IsingSpec(coupling, np.full(n, field)))[0]


RING_CASES = {
    "ring8": lambda: _ring(8, 0.0),
    "ring8-field": lambda: _ring(8, -0.35),
}

BIT_IDENTITY_CASES = {
    **NINE_LETTER_CASES,
    **RING_CASES,
    "curie-weiss-field": lambda: build_ising(curie_weiss_spec(5, 0.8, 0.3))[0],
    "ergm-triangle": lambda: build_ergm(ErgmSpec(5, (SINGLE_EDGE, TRIANGLE), (-0.3, 0.8)))[0],
    "coloring": lambda: build_coloring([(0, 1), (1, 2), (2, 3), (3, 0)], 4, 3)[0],
    "bernoulli": lambda: bernoulli_product(5, 0.3),
    "ternary-exact": _ternary_exact,
    # two-letter sites beside a one-letter one, whose section rows are empty
    "two-and-one-letters": lambda: GibbsMeasure(
        ProductSpace(((-1.0, 1.0), (5.0,), (0.0, 1.0), (-1.0, 1.0))),
        lambda X: 0.7 * X[:, 0] * X[:, 2] - 0.4 * X[:, 0] * X[:, 3] + 0.1 * X[:, 1] * X[:, 3],
    ),
}


SECTION_CASES = {
    "ising": lambda: build_ising(IsingSpec(
        np.array([[0.0, 0.3, -0.2], [0.3, 0.0, 0.5], [-0.2, 0.5, 0.0]]),
        np.array([0.1, -0.4, 0.2]),
    ))[0],
    # nine colors, whose sections' nonzero entries are all equal
    "coloring": lambda: build_coloring([(0, 1), (1, 2), (0, 2)], 3, 9)[0],
    **NINE_LETTER_CASES,
    **RING_CASES,
}


def _glauber_mc_ring(n=16):
    """A ring like the `glauber-mc` benchmark's: couplings U[0.1, 0.2], fields U[-0.05, 0.05]."""
    rng = np.random.default_rng(16)
    coupling = np.zeros((n, n))
    for a in range(n):
        coupling[a, (a + 1) % n] = coupling[(a + 1) % n, a] = rng.uniform(0.1, 0.2)
    return build_ising(IsingSpec(coupling, rng.uniform(-0.05, 0.05, n)))[0]


def _materialised_cdf_rows(p):
    """The oracle: CDF rows taken on a materialised (pre, m, stride) copy of
    every section, section (pre, post) in row pre * stride + post, the sums
    letter by letter."""
    pre, m, stride = p.shape
    rows = np.empty((pre, stride, m - 1))
    if m > 1:
        cdf = rows[:, :, 0] = p[:, 0]
        for j in range(1, m - 1):
            cdf = rows[:, :, j] = cdf + p[:, j]
    return rows.tobytes()


class TestTableDrivenSweep:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_CASES))
    def test_stream_equals_per_update_heat_bath(self, name):
        mu = BIT_IDENTITY_CASES[name]()
        got = glauber_sample(mu, 120, burn_in=7, thinning=3, seed=13)
        np.testing.assert_array_equal(got, reference_heat_bath(mu, 120, 7, 3, seed=13))
        assert got.shape == (40, mu.space.n)

    def test_large_space_uses_per_update_conditionals(self):
        mu = bernoulli_product(21, 0.3)
        assert mu.space.size > 1 << 16
        got = glauber_sample(mu, 3, burn_in=1, seed=5)
        np.testing.assert_array_equal(got, reference_heat_bath(mu, 3, 1, seed=5))

    def test_memoised_sections_above_table_limit(self):
        # A strongly coupled ring on 2^17 configurations settles, so the
        # chain revisits sections and reads their CDFs back from its memo.
        n = 17
        coupling = np.zeros((n, n))
        for a in range(n):
            coupling[a, (a + 1) % n] = coupling[(a + 1) % n, a] = 1.5
        mu, _ = build_ising(IsingSpec(coupling, np.full(n, 0.2)))
        conditional, calls = mu.conditional, []
        mu.conditional = lambda x, i: calls.append(i) or conditional(x, i)
        chain = GlauberChain(mu, seed=9)
        for _ in range(20):
            chain.sweep()
        assert 0 < len(calls) < chain.steps // 2
        mu.conditional = conditional
        got = glauber_sample(mu, 12, burn_in=8, thinning=2, seed=9)
        np.testing.assert_array_equal(got, reference_heat_bath(mu, 12, 8, 2, seed=9))

    def test_two_letter_update_at_a_tie_takes_the_upper_letter(self):
        # Every CDF entry of a fair coin is exactly 0.5, and so is every
        # uniform: bisect_right puts a tie after the entry, on letter 1.
        class Halves:
            def random(self, k):
                return np.full(k, 0.5)

        mu = bernoulli_product(3, 0.5)
        chain = GlauberChain(mu, seed=0)
        chain.run(0)
        assert all(cdf.tolist() == [0.5] * 4 for _, cdf, *_ in chain._sites)
        chain._digits[:] = [0, 1, 0]
        chain._index = 2
        chain.rng = Halves()
        kept: list[int] = []
        chain.run(4, 1, kept)
        assert kept == [1] * 12
        assert chain._index == mu.space.size - 1
        np.testing.assert_array_equal(chain.state, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("name", ["coloring", "ergm-triangle"])
    @pytest.mark.parametrize("sweeps, burn_in, thinning", [(50, 5, 4), (9, 3, 2), (3, 2, 5)])
    def test_kept_digits_map_to_the_heat_bath_values(self, name, sweeps, burn_in, thinning, monkeypatch):
        # The sampler keeps digit rows and never reads `state` on the table path.
        mu = BIT_IDENTITY_CASES[name]()
        want = reference_heat_bath(mu, sweeps, burn_in, thinning, seed=21).reshape(-1, mu.space.n)
        monkeypatch.setattr(GlauberChain, "state", property(lambda chain: pytest.fail("state read")))
        got = glauber_sample(mu, sweeps, burn_in=burn_in, thinning=thinning, seed=21)
        assert got.shape == (sweeps // thinning, mu.space.n) and got.dtype == float
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(SECTION_CASES))
    def test_section_rows_equal_conditionals(self, name):
        mu = SECTION_CASES[name]()
        space = mu.space
        undefined = 0
        for i, p in enumerate(mu.section_conditionals()):
            m, stride = space.shape[i], space.strides[i]
            assert p.ndim == space.n and p.shape[i] == m
            full = np.broadcast_to(p, space.shape)
            for pre in range(space.size // (m * stride)):
                for post in range(stride):
                    first = pre * m * stride + post
                    digits = np.unravel_index(first, space.shape)
                    section = full[digits[:i] + (slice(None),) + digits[i + 1:]]
                    x = space.configuration(first)
                    try:
                        expected = mu.conditional(x, i)
                    except UndefinedConditionalError:
                        assert np.isnan(section).all()
                        undefined += 1
                        continue
                    np.testing.assert_array_equal(section, expected)
        assert (undefined > 0) == (name in ("coloring", "exact-nine-letters"))

    @pytest.mark.parametrize("name", sorted(SECTION_CASES) + ["glauber-mc-ring"])
    def test_table_rows_equal_the_rows_of_materialised_sections(self, name):
        mu = SECTION_CASES[name]() if name in SECTION_CASES else _glauber_mc_ring()
        space = mu.space
        chain = GlauberChain(mu, seed=0)
        chain.run(1)
        for (i, cdf, stride, span, width), p in zip(chain._sites, mu.section_conditionals(), strict=True):
            m = space.shape[i]
            assert (stride, span, width) == (space.strides[i], stride * m, m - 1)
            sections = np.broadcast_to(p, space.shape).reshape(-1, m, stride)  # a copy
            assert bytes(cdf) == _materialised_cdf_rows(sections)

    def test_ring_table_build_holds_little_besides_the_table(self):
        import tracemalloc

        mu = _glauber_mc_ring()
        assert mu.space.size == 1 << 16
        tracemalloc.start()
        try:
            chain = GlauberChain(mu, seed=0)
            chain.run(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(cdf.nbytes for _, cdf, *_ in chain._sites)
        assert table == 8 * 16 * (1 << 15)
        assert peak <= table + (1 << 19)

    @pytest.mark.parametrize("name", ["gibbs-nine-letters", "exact-nine-letters"])
    def test_nine_letter_sections_tell_pairwise_from_sequential_sums(self, name):
        # numpy sums a contiguous row of m >= 8 entries pairwise; these cases
        # have sections where that differs from a sum in letter order, so the
        # test above sees a table and a `conditional` that sum differently.
        mu = NINE_LETTER_CASES[name]()
        space = mu.space
        for i in (0, 2, 4):
            m, stride = space.shape[i], space.strides[i]
            rows = np.ascontiguousarray(mu.prob_table().reshape(-1, m, stride).swapaxes(1, 2)).reshape(-1, m)
            sequential = rows[:, 0].copy()
            for j in range(1, m):
                sequential += rows[:, j]
            assert (rows.sum(axis=1) != sequential).any()


def _cubic_gibbs():
    """A polynomial Gibbs measure of order 3 on a three-letter alphabet."""
    rng = np.random.default_rng(17)
    n = 5
    cubic = rng.standard_normal((n, n, n))
    cubic = sum(cubic.transpose(p) for p in permutations(range(3))) / 6.0
    idx = np.indices(cubic.shape)
    cubic[(idx[0] == idx[1]) | (idx[0] == idx[2]) | (idx[1] == idx[2])] = 0.0
    pair = rng.standard_normal((n, n))
    pair = (pair + pair.T) / 4.0
    np.fill_diagonal(pair, 0.0)
    poly = MultilinearPoly({1: rng.standard_normal(n), 2: pair, 3: 0.2 * cubic})
    return GibbsMeasure(ProductSpace(((-1.0, 0.5, 2.0),) * n), poly)


def _nearly_symmetric_ring():
    """A ring whose coupling is symmetric only to the tolerance that
    `check_symmetric` allows, so J_ij and J_ji differ beyond rounding."""
    n = 6
    coupling = np.zeros((n, n))
    for a in range(n):
        coupling[a, (a + 1) % n] = 0.3 + 0.05 * a
        coupling[(a + 1) % n, a] = coupling[a, (a + 1) % n] * (1.0 + 4e-6)
    return build_ising(IsingSpec(coupling, np.linspace(-0.2, 0.3, n)))[0]


POLY_GIBBS_CASES = {
    **RING_CASES,
    "cubic-three-letters": _cubic_gibbs,
    "nearly-symmetric-ring": _nearly_symmetric_ring,
}


def _slope_terms_one_by_one(poly, i):
    """The oracle: coordinate i's slope monomials from its own rows of each
    tensor, the k! entries added position by position, then over the orders
    of the rest."""
    terms = []
    for k, t in poly.tensors.items():
        coef = 0.0
        for position in range(k):
            row = np.moveaxis(t, position, 0)[i]
            for order in permutations(range(k - 1)):
                coef = coef + row.transpose(order)
        coef = np.asarray(coef)
        nonzero = np.argwhere(coef)
        nonzero = nonzero[(np.diff(nonzero, axis=1) > 0).all(axis=1)]
        terms += [(float(coef[tuple(idx)]), tuple(idx.tolist())) for idx in nonzero]
    return terms


class TestSlopeConditionals:
    @pytest.mark.parametrize("name", sorted(POLY_GIBBS_CASES))
    def test_slope_terms_equal_the_per_coordinate_loop(self, name):
        poly = POLY_GIBBS_CASES[name]()._poly
        poly.slope_terms(0)
        assert sorted(poly._slopes) == list(range(poly.dim))  # every coordinate on the first call
        for i in range(poly.dim):
            assert poly.slope_terms(i) == _slope_terms_one_by_one(poly, i)

    @pytest.mark.parametrize("name", sorted(POLY_GIBBS_CASES))
    def test_conditional_matches_the_row_softmax(self, name):
        # The row path: the softmax of the log-weights of one row per letter.
        # Its log-weight differences and the slope's err by at most about
        # (n^k + k + 1) eps times the sum of the absolute terms, so the
        # probabilities agree to that relative error.
        mu = POLY_GIBBS_CASES[name]()
        space, poly = mu.space, mu._poly
        abs_poly = MultilinearPoly({k: np.abs(t) for k, t in poly.tensors.items()})
        eps = np.finfo(float).eps
        rng = np.random.default_rng(5)
        for x in rng.choice(space.alphabets[0], size=(30, space.n)):
            for i in range(space.n):
                rows = np.repeat(x[None], space.shape[i], axis=0)
                rows[:, i] = space.value_grid(i)
                logw = mu.log_weights(rows)
                want = np.exp(logw - logw.max())
                want /= want.sum()
                scale = abs_poly.evaluate_rows(space, np.abs(rows)).max()
                bound = 4 * (space.n ** poly.degree + poly.degree + 1) * eps * (1.0 + scale)
                np.testing.assert_allclose(mu.conditional(x, i), want, rtol=bound, atol=0.0)

    @pytest.mark.parametrize("name", sorted(POLY_GIBBS_CASES))
    def test_prob_table_is_the_row_paths(self, name):
        mu = POLY_GIBBS_CASES[name]()
        rows_mu = GibbsMeasure(mu.space, partial(mu._poly.evaluate_rows, mu.space))
        np.testing.assert_array_equal(mu.prob_table(), rows_mu.prob_table())

    @pytest.mark.parametrize("name", sorted(POLY_GIBBS_CASES))
    def test_tables_need_no_enumeration_and_no_log_weights(self, name, monkeypatch):
        import concentra.space as space_mod

        mu = POLY_GIBBS_CASES[name]()
        for fn in ("enumerate_configurations", "enumeration_blocks"):
            monkeypatch.setattr(space_mod, fn, lambda *a, **k: pytest.fail("enumerated"))
        monkeypatch.setattr(mu, "log_weights", lambda rows: pytest.fail("log-weight rows"))
        monkeypatch.setattr(mu, "_log_weights", lambda rows: pytest.fail("log-weight rows"))
        chain = GlauberChain(mu, seed=3)
        chain.run(5)
        assert chain.steps == 5 * mu.space.n
        assert len(list(mu.section_conditionals())) == mu.space.n

    def test_wrong_configurations_still_raise(self):
        mu = RING_CASES["ring8-field"]()
        with pytest.raises(DomainError, match="expected 8"):
            mu.conditional([1.0] * 7, 0)
        with pytest.raises(DomainError, match="not in alphabet 3"):
            mu.conditional([1.0, -1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0], 0)
        with pytest.raises(DomainError, match="not in alphabet 0"):
            mu.conditional([math.nan] + [1.0] * 7, 2)

    def test_polynomial_on_another_space_rejected(self):
        from concentra.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            GibbsMeasure(binary(4), MultilinearPoly({1: np.ones(3)}))


class TestRunLoop:
    @pytest.mark.parametrize("n, sweeps, burn_in, thinning", [(8, 4500, 3, 7), (17, 6, 4, 2)])
    def test_uniform_blocks_do_not_change_the_stream(self, n, sweeps, burn_in, thinning, monkeypatch):
        # n = 8 takes the table path, over several blocks at the default
        # bound; n = 17 (2^17 configurations) the memo path.
        import concentra.models as models_mod

        mu = _ring(n, 0.2)
        want = glauber_sample(mu, sweeps, burn_in=burn_in, thinning=thinning, seed=8)
        assert want.shape == (sweeps // thinning, n)
        for bound in (1, 2 * n + 3):  # one sweep per block; two
            monkeypatch.setattr(models_mod, "_UNIFORM_BLOCK", bound)
            got = glauber_sample(mu, sweeps, burn_in=burn_in, thinning=thinning, seed=8)
            np.testing.assert_array_equal(got, want)

    def test_sweep_is_a_one_sweep_run(self):
        mu = _ring(8, 0.1)
        a, b = GlauberChain(mu, seed=4), GlauberChain(mu, seed=4)
        kept_a, kept_b = [], []
        for _ in range(30):
            a.sweep()
            kept_a += a._digits
        b.run(30, 1, kept_b)
        assert kept_a == kept_b and a.steps == b.steps == 240
        np.testing.assert_array_equal(a.state, b.state)


class TestSampleStreams:
    def test_csv_format(self, tmp_path):
        samples = np.array([[1.0, -1.0], [-1.0, 1.0]])
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        assert path.read_bytes() == b"1,-1\n-1,1\n"

    def test_binary_round_trip(self, tmp_path):
        mu = rademacher(3)
        samples = glauber_sample(mu, 10, seed=2)
        path = tmp_path / "samples.bin"
        write_samples_binary(path, samples, mu.space)
        raw = path.read_bytes()
        assert raw[:8] == b"CONCSAMP"
        back = read_samples_binary(path, mu.space)
        np.testing.assert_array_equal(back, samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(SchemaError):
            read_samples_binary(path, rademacher(1).space)

    @pytest.mark.parametrize("keep", [12, 16 + 5 * 3 - 1])
    def test_truncated_stream_rejected(self, tmp_path, keep):
        mu = rademacher(3)
        path = tmp_path / "samples.bin"
        write_samples_binary(path, glauber_sample(mu, 5, seed=2), mu.space)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(SchemaError, match="truncated"):
            read_samples_binary(path, mu.space)

    def test_stream_of_another_space_rejected(self, tmp_path):
        path = tmp_path / "samples.bin"
        write_samples_binary(path, glauber_sample(rademacher(3), 5, seed=2), rademacher(3).space)
        with pytest.raises(SchemaError, match="coordinates"):
            read_samples_binary(path, rademacher(2).space)
        with pytest.raises(SchemaError, match="outside its alphabet"):
            read_samples_binary(path, ProductSpace(((0.0,),) * 3))

    def test_value_outside_alphabet_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="not in alphabet 1"):
            write_samples_binary(tmp_path / "s.bin", np.array([[1.0, 0.5]]), rademacher(2).space)
