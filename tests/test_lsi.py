import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from concentra import lsi
from concentra.errors import DomainError, UndefinedRatioError
from concentra.funcs import MultilinearPoly, Tabulated
from concentra.lsi import (
    _h_objective,
    dirichlet_form,
    gamma_squared_mean,
    glauber_quadratic_form,
    indicator_ratio,
    lsi_constant_search,
    lsi_ratio,
    psi2_blowup_study,
    spectral_bracket,
    verify_h_lsi_product,
)
from concentra.models import IsingSpec, build_coloring, build_ising
from concentra.space import (
    ExactMeasure,
    ProductSpace,
    bernoulli_product,
    binary,
    entropy_functional,
    rademacher,
    two_point_measure,
    uniform,
)
from concentra.cli import build_model
from concentra.verify import run_corpus_entry


def two_point_h_ratio_oracle(p, grid=4001):
    """Independent 1-D oracle: scan f = (c, c+1) for the oscillation-operator ratio."""
    best = 0.0
    mu = two_point_measure(p)
    for c in np.linspace(-3.0, 3.0, grid):
        f = np.array([c, c + 1.0])
        ent = entropy_functional(mu, f**2)
        ratio = ent / 2.0  # E|hf|^2 = (f1 - f0)^2 = 1
        best = max(best, ratio)
    return best


class TestDirichletForm:
    def test_constant_vanishes(self):
        assert dirichlet_form(rademacher(2), Tabulated(np.full(4, 3.0))) == 0.0

    def test_single_rademacher_coordinate(self):
        f = MultilinearPoly({1: np.array([1.0])})
        assert dirichlet_form(rademacher(1), f) == pytest.approx(1.0)

    def test_additivity_over_coordinates(self):
        f = MultilinearPoly({1: np.ones(2)})
        assert dirichlet_form(rademacher(2), f) == pytest.approx(2.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        mu = bernoulli_product(3, 0.3)
        for _ in range(20):
            assert dirichlet_form(mu, Tabulated(rng.standard_normal(8))) >= 0.0

    @pytest.mark.parametrize("mu", [
        bernoulli_product(3, 0.4),
        ExactMeasure(binary(2), np.array([0.5, 0.0, 0.0, 0.5])),
        uniform(ProductSpace(((0.0, 1.0, 2.0), (0.0, 1.0)))),
    ])
    def test_quadratic_form_matches_the_per_fibre_loop(self, mu):
        w = mu.prob_table()
        L = np.zeros((w.size, w.size))
        np.fill_diagonal(L, mu.space.n * w)
        index_grid = np.arange(w.size).reshape(mu.space.shape)
        for i in range(mu.space.n):
            for row in np.moveaxis(index_grid, i, -1).reshape(-1, mu.space.shape[i]):
                if w[row].sum() > 0.0:
                    L[np.ix_(row, row)] -= np.outer(w[row], w[row]) / w[row].sum()
        assert np.array_equal(glauber_quadratic_form(mu), L)

    def test_quadratic_form_matrix_agrees(self):
        rng = np.random.default_rng(1)
        mu = bernoulli_product(3, 0.4)
        L = glauber_quadratic_form(mu)
        for _ in range(10):
            f = rng.standard_normal(8)
            assert f @ L @ f == pytest.approx(dirichlet_form(mu, Tabulated(f)), abs=1e-12)


class TestLsiRatio:
    def test_indicator_ratio_formula(self):
        # for f = 1_A on a two-point space: Ent = mu(A) log(1/mu(A)),
        # denominator 2 mu(A)(1 - mu(A))
        for p in (0.5, 0.2, 0.01):
            mu = two_point_measure(p)
            f = np.array([0.0, 1.0])
            expected = p * math.log(1 / p) / (2 * p * (1 - p))
            assert lsi_ratio(mu, f, "d") == pytest.approx(expected, rel=1e-12)
            assert indicator_ratio(p) == pytest.approx(expected, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        mu = bernoulli_product(2, 0.3)
        g = rng.standard_normal(4)
        for operator in ("d", "h", "h_plus"):
            base = lsi_ratio(mu, g, operator)
            for a, b in [(2.0, 0.0), (0.5, 0.0), (3.0, 0.0)]:
                assert lsi_ratio(mu, a * g + b, operator) == pytest.approx(base, rel=1e-9)

    def test_two_point_example_value(self):
        mu = rademacher(1)
        ratio = lsi_ratio(mu, np.array([1.0, 2.0]), "d")
        expected = (2 * math.log(4) - 2.5 * math.log(2.5)) / (2 * 0.25)
        assert ratio == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-7])
    def test_ratio_near_constants_tends_to_the_inverse_gap(self, eps):
        # f = 1 + eps phi, phi a gap eigenvector: Ent(f^2) and E|d f|^2 are both
        # O(eps^2) and their ratio is 1/gap + O(eps)
        mu = bernoulli_product(3, 0.3)
        scale = 1.0 / np.sqrt(mu.prob_table())
        values, vectors = np.linalg.eigh(scale[:, None] * glauber_quadratic_form(mu) * scale)
        phi = scale * vectors[:, 1]
        assert lsi_ratio(mu, 1.0 + eps * phi, "d") == pytest.approx(1.0 / values[1], abs=1e-5)

    def test_constant_rejected(self):
        with pytest.raises(UndefinedRatioError):
            lsi_ratio(rademacher(2), np.full(4, 1.0), "d")

    def test_vanishing_mass_indicators_grow_without_bound(self):
        # the finite-support mechanism: ratio ~ log(1/p)/2 diverges as p -> 0
        previous = 0.0
        for p in (1e-1, 1e-3, 1e-6, 1e-12):
            ratio = lsi_ratio(two_point_measure(p), np.array([0.0, 1.0]), "d")
            assert ratio > previous
            previous = ratio
        assert previous > 13.0


class TestConstantSearch:
    def test_single_point_support_gives_zero(self):
        mu = ExactMeasure(binary(1), np.array([1.0, 0.0]))
        report = lsi_constant_search(mu, "d", starts=4, seed=0)
        assert report.best_ratio == 0.0
        assert report.witness is None

    def test_rademacher_product_stays_at_one(self):
        # independent two-point coordinates: the d-operator constant is 1, and
        # the search climbs towards constants, where only a cancellation-free
        # ratio stays below it
        report = lsi_constant_search(rademacher(2), "d", starts=24, seed=1)
        assert report.best_ratio <= 1.0 + 1e-9
        assert report.best_ratio > 0.9
        assert report.witness is not None

    def test_witness_attains_reported_ratio(self):
        # the report is lsi_ratio of its witness, bit for bit, and the witness
        # a unit vector, for every operator
        mu = bernoulli_product(2, 0.2)
        for operator in lsi.OPERATORS:
            report = lsi_constant_search(mu, operator, starts=16, seed=2)
            assert report.best_ratio > 0.0
            assert lsi_ratio(mu, report.witness, operator) == report.best_ratio
            assert np.linalg.norm(report.witness) == pytest.approx(1.0, rel=1e-14)

    def test_two_point_search_matches_oracle(self):
        for p in (0.1, 0.01):
            report = lsi_constant_search(two_point_measure(p), "h", starts=24, seed=3)
            oracle = two_point_h_ratio_oracle(p)
            assert report.best_ratio == pytest.approx(oracle, rel=1e-3)

    def test_two_point_trend_tracks_asymptotic_rate(self):
        # sigma_p^2 ~ p (1-p) log(1/p): the ratio of the two stays in a narrow band
        for p in (0.1, 0.01, 0.001):
            report = lsi_constant_search(two_point_measure(p), "h", starts=24, seed=4)
            rate = p * (1 - p) * math.log(1 / p)
            assert 0.45 <= report.best_ratio / rate <= 0.65

    def test_one_sided_operator_search_dominates_oscillation(self):
        # |h+ f| <= |h f| pointwise, so the positive-part ratio search finds
        # at least the oscillation constant
        mu = two_point_measure(0.2)
        h_report = lsi_constant_search(mu, "h", starts=16, seed=6)
        h_plus_report = lsi_constant_search(mu, "h_plus", starts=16, seed=6)
        assert h_plus_report.best_ratio >= h_report.best_ratio - 1e-6

    def test_report_serializes(self):
        report = lsi_constant_search(rademacher(1), "d", starts=4, seed=5)
        doc = report.to_json()
        assert doc["operator"] == "d"
        assert doc["starts"] == 4


@pytest.mark.parametrize("operator", ["h", "h_plus"])
@pytest.mark.parametrize("mu", [
    two_point_measure(0.1), two_point_measure(1e-2), two_point_measure(1e-3), bernoulli_product(2, 0.2),
])
def test_lockstep_nelder_mead_matches_scipy_per_start(mu, operator):
    from scipy import optimize

    starts, seed = 8, 7
    objective = _h_objective(mu, operator, mu.prob_table()[None])
    points = np.random.default_rng(seed).standard_normal((starts, mu.space.size))
    runs = [
        optimize.minimize(lambda x: float(objective(x[None], np.zeros(1, int))[0]), point, method="Nelder-Mead",
                          options={"maxiter": 500, "xatol": 1e-10, "fatol": 1e-12})
        for point in points
    ]
    report = lsi_constant_search(mu, operator, starts=starts, seed=seed)
    assert report.best_ratio == pytest.approx(math.exp(-min(r.fun for r in runs)), rel=1e-12)
    assert report.iterations == sum(r.nfev for r in runs)


@pytest.mark.parametrize("run, rel", [
    (lambda: lsi_constant_search(bernoulli_product(2, 0.2), "d", starts=6, seed=3).best_ratio, 0.0),
    (lambda: lsi_constant_search(bernoulli_product(2, 0.2), "h", starts=6, seed=3).best_ratio, 0.0),
    (lambda: verify_h_lsi_product(rademacher(3), trials=50, seed=4), 0.0),
], ids=["d-search", "h-search", "h-lsi-product"])
def test_one_start_or_table_per_batch_gives_the_same_result(monkeypatch, run, rel):
    # the memory bound splits starts and tables into batches; a batch of one
    # must find what one batch of all finds
    whole = run()
    monkeypatch.setattr(lsi, "_BATCH_BYTES", 1)
    assert run() == pytest.approx(whole, rel=rel)


@pytest.mark.parametrize("operator", ["h", "h_plus"])
def test_h_objective_row_does_not_depend_on_its_batch(operator):
    mu = bernoulli_product(3, 0.2)
    objective = _h_objective(mu, operator, mu.prob_table()[None])
    x = np.random.default_rng(0).standard_normal((12, mu.space.size))
    rows = np.concatenate([objective(row[None], np.zeros(1, int)) for row in x])
    assert np.array_equal(rows, objective(x, np.zeros(len(x), int)))


# c10's grid, p = 1/2, and p = 1e-6, where the psi2 statistic overflows
FAMILY_GRID = [1e-1, 1e-2, 1e-3, 1e-4, 0.5, 1e-6]


@pytest.mark.parametrize("operator", ["h", "h_plus"])
def test_family_search_gives_each_measure_its_search_alone(operator):
    mus = [two_point_measure(p) for p in FAMILY_GRID]
    family = lsi._search_h_operator(mus, operator, 24, 110, lsi._MAX_ITER)
    for mu, (ratio, witness, evaluations) in zip(mus, family):
        alone = lsi_constant_search(mu, operator, starts=24, seed=110)
        assert ratio == alone.best_ratio
        assert np.array_equal(witness, alone.witness)
        assert evaluations == alone.iterations


def test_psi2_study_sigma2_is_the_search_on_each_p_alone():
    rows = psi2_blowup_study(FAMILY_GRID, starts=24, seed=110)
    for p, row in zip(FAMILY_GRID, rows):
        assert row.sigma2 == lsi_constant_search(two_point_measure(p), "h", starts=24, seed=110).best_ratio


def test_per_row_weights_give_each_row_its_measures_ratio():
    # 16 configurations: past 8 entries numpy sums a C-ordered row in
    # unrolled blocks but a Fortran-ordered batch column by column, so the
    # weights' layout shows in the last bits
    mus = [bernoulli_product(4, q) for q in (0.2, 0.5, 0.01)]
    x = np.random.default_rng(1).standard_normal((6, 16))
    owner = np.array([0, 1, 2, 2, 1, 0])
    weights = np.array([mus[j].prob_table() for j in owner])
    for operator in ("h", "h_plus"):
        mixed = lsi._ratios(mus[0], x, operator, weights)
        for row, j in enumerate(owner):
            assert mixed[row] == lsi._ratios(mus[j], x[row:row + 1], operator)[0]


@pytest.mark.parametrize("mus", [
    [two_point_measure(0.3), bernoulli_product(2, 0.2)],
    [ExactMeasure(binary(2), np.full(4, 0.25)), ExactMeasure(binary(2), np.array([0.5, 0.5, 0.0, 0.0]))],
], ids=["spaces", "supports"])
def test_family_search_needs_one_space_and_one_support(mus):
    with pytest.raises(DomainError, match="one space and one support"):
        lsi._search_h_operator(mus, "h", 4, 0, lsi._MAX_ITER)


def test_psi2_study_raises_at_the_first_degenerate_p():
    # sigma^2 of the two-point measure is about p log(1/p) / 2: below 1e-12 at both
    with pytest.raises(DomainError, match=r"degenerate sigma\^2 at p=1e-300$"):
        psi2_blowup_study([0.25, 1e-300, 1e-305], starts=4, seed=0)


# The best d-operator ratios that scipy's per-start L-BFGS-B found on corpus
# models: lower bounds on their constants, which a published sigma^2 may not
# fall short of.
SCIPY_SEARCH_SIGMA2 = {
    "ising4-quadratic": 1.606802005899698,
    "ising8-magnetization": 1.4110596923342984,
    "curie-weiss6-magnetization": 1.6715177789345046,
    "triangle-coloring-count": 1.6126517141282892,
    "ergm4-triangles": 1.0229216038344011,
}


@pytest.mark.parametrize("name", sorted(SCIPY_SEARCH_SIGMA2))
def test_corpus_search_finds_the_scipy_sigma2(name):
    assert run_corpus_entry(name)["sigma2"] >= SCIPY_SEARCH_SIGMA2[name] * (1.0 - 1e-6)


def _random_ising(seed: int, n: int, scale: float = 0.5):
    rng = np.random.default_rng(seed)
    J = np.triu(rng.uniform(-scale, scale, (n, n)), 1)
    return build_ising(IsingSpec(J + J.T, rng.uniform(-scale, scale, n)))[0]


BRACKET_MODELS = {
    "ising2": _random_ising(0, 2),
    "ising3": _random_ising(1, 3),
    "ising4": _random_ising(2, 4),
    "ising4-strong": _random_ising(3, 4, 1.5),
    "path-coloring": build_coloring([(0, 1), (1, 2)], 3, 5)[0],
    "bernoulli3": bernoulli_product(3, 0.3),
}


class TestSpectralBracket:
    @pytest.mark.parametrize("name", sorted(BRACKET_MODELS))
    def test_upper_end_dominates_every_ratio_and_search(self, name):
        mu = BRACKET_MODELS[name]
        inverse_gap, upper = spectral_bracket(mu)
        assert 0.0 < inverse_gap <= upper
        w = mu.prob_table()
        rng = np.random.default_rng(5)
        # random tables, their exponentials (peaked on a few states) and the
        # indicators of the support points, whose ratios grow with 1/mu(x)
        tables = [rng.standard_normal(w.size) for _ in range(100)]
        tables += [np.exp(3.0 * rng.standard_normal(w.size)) for _ in range(100)]
        tables += [np.eye(w.size)[x] for x in np.flatnonzero(w > 0.0)]
        assert max(lsi_ratio(mu, f, "d") for f in tables) <= upper
        for starts, seed in ((8, 0), (16, 1)):
            assert lsi_constant_search(mu, "d", starts=starts, seed=seed).best_ratio <= upper

    def test_inverse_gap_matches_the_eigh_oracle(self):
        mu = bernoulli_product(3, 0.3)
        scale = 1.0 / np.sqrt(mu.prob_table())
        values = np.linalg.eigh(scale[:, None] * glauber_quadratic_form(mu) * scale)[0]
        assert spectral_bracket(mu)[0] == pytest.approx(1.0 / values[1], rel=1e-12)

    def test_uniform_two_point_upper_end_is_the_inverse_gap_plus_the_margin(self):
        # pi* = 1/2: log(1/pi* - 1) / (1 - 2 pi*) takes its limit 2, and the
        # rounding margin puts the upper end strictly above 1/lambda
        inverse_gap, upper = spectral_bracket(two_point_measure(0.5))
        assert inverse_gap == pytest.approx(1.0, rel=1e-14)
        assert inverse_gap < upper == pytest.approx(inverse_gap, rel=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.1, 1e-3, 1e-12])
    def test_one_coordinate_upper_end_is_the_exact_constant(self, p):
        # one coordinate: lambda = 1 and the comparison is DSC's Theorem A.1,
        # the exact d-operator constant log((1-p)/p) / (2 (1 - 2p))
        exact = (math.log1p(-p) - math.log(p)) / (2.0 * (1.0 - 2.0 * p))
        mu = two_point_measure(p)
        assert spectral_bracket(mu)[1] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("mu", [
        ExactMeasure(binary(2), np.array([0.5, 0.0, 0.0, 0.5])),
        ExactMeasure(binary(1), np.array([1.0, 0.0])),
    ], ids=["reducible", "single-point"])
    def test_no_gap_raises(self, mu):
        with pytest.raises(DomainError, match="no spectral gap"):
            spectral_bracket(mu)

    def test_d_search_reports_the_bracket_from_one_form(self, monkeypatch):
        mu = BRACKET_MODELS["ising3"]
        calls = []
        original = lsi.glauber_quadratic_form
        monkeypatch.setattr(lsi, "glauber_quadratic_form", lambda m: calls.append(1) or original(m))
        report = lsi_constant_search(mu, "d", starts=4, seed=0)
        assert len(calls) == 1
        assert (report.inverse_gap, report.sigma2_upper) == spectral_bracket(mu)

    @pytest.mark.parametrize("operator, mu", [
        ("h", bernoulli_product(2, 0.3)),
        ("h_plus", bernoulli_product(2, 0.3)),
        ("d", ExactMeasure(binary(2), np.array([0.5, 0.0, 0.0, 0.5]))),
        ("d", ExactMeasure(binary(1), np.array([1.0, 0.0]))),
    ], ids=["h", "h_plus", "d-reducible", "d-single-point"])
    def test_report_has_no_bracket_without_a_gap_or_for_h(self, operator, mu):
        report = lsi_constant_search(mu, operator, starts=4, seed=0)
        assert report.inverse_gap is None and report.sigma2_upper is None
        assert report.to_json()["inverse_gap"] is None


# A partial support whose rows of the form hold different numbers of nonzeros.
PARTIAL_SUPPORT = ExactMeasure(binary(3), np.array([0.2, 0.1, 0.0, 0.15, 0.05, 0.2, 0.0, 0.3]))


@functools.cache
def _suite_lsi_ring(seed: int):
    """The Ising ring of the benchmark's `suite-lsi` `lsi` command, from
    `perfbench/workloads.py`, loaded from its file and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return build_model(module.suite_lsi(seed).commands[-1].config["model"])
    finally:
        del sys.modules[spec.name]


D_REPORT_MODELS = sorted(BRACKET_MODELS) + ["partial-support"] + [f"suite-lsi-ring{s}" for s in (1, 2, 3)]


def _d_report_model(name: str):
    if name.startswith("suite-lsi-ring"):
        return _suite_lsi_ring(int(name[-1]))
    return PARTIAL_SUPPORT if name == "partial-support" else BRACKET_MODELS[name]


class TestDReport:
    """`lsi_constant_search(mu, "d")` runs no search: it reports the spectral
    bracket and the table 1 + eps phi along a gap eigenvector."""

    @pytest.mark.parametrize("name", D_REPORT_MODELS)
    def test_report_is_the_bracket_and_a_unit_witness_near_the_inverse_gap(self, name):
        # path-coloring and bernoulli3 have a gap of multiplicity 3.  The
        # ratio is (1 + eps E phi^3 / (3 E phi^2) + O(eps^2)) / gap with
        # max |phi| = 1: at most eps / 3 away to first order, eps / 2 allowed
        # with eps = 1e-6.
        mu = _d_report_model(name)
        report = lsi_constant_search(mu, "d", starts=4, seed=0)
        assert np.linalg.norm(report.witness) == pytest.approx(1.0, rel=1e-14)
        assert lsi_ratio(mu, report.witness, "d") == report.best_ratio
        assert report.iterations == 0
        assert (report.inverse_gap, report.sigma2_upper) == spectral_bracket(mu)
        assert abs(report.best_ratio / report.inverse_gap - 1.0) <= 5e-7

    @pytest.mark.parametrize("name", D_REPORT_MODELS)
    def test_starts_and_seed_do_not_change_the_report(self, name):
        mu = _d_report_model(name)
        docs = [lsi_constant_search(mu, "d", starts=starts, seed=seed).to_json()
                for starts, seed in ((1, 0), (4, 3), (64, 11))]
        for doc in docs:
            del doc["starts"], doc["seed"]
        assert docs[0] == docs[1] == docs[2]


class TestProductHLsi:
    def test_rademacher_cube(self):
        assert verify_h_lsi_product(rademacher(3), trials=300, seed=0) <= 1.0 + 1e-9

    def test_biased_bernoulli(self):
        assert verify_h_lsi_product(bernoulli_product(3, 0.9), trials=300, seed=1) <= 1.0 + 1e-9

    def test_single_coordinate_range_bound(self):
        # n = 1: Ent(f^2) <= 2 (b - a)^2 for E f^2 = 1, a/b the inf/sup of |f|
        rng = np.random.default_rng(2)
        space = ProductSpace(((0.0, 1.0, 2.0, 3.0),))
        mu = uniform(space)
        for _ in range(200):
            f = rng.standard_normal(4)
            f /= math.sqrt(float(np.dot(mu.prob_table(), f**2)))
            ent = entropy_functional(mu, f**2)
            a, b = np.abs(f).min(), np.abs(f).max()
            assert ent <= 2 * (b - a) ** 2 + 1e-9

    def test_non_product_rejected(self):
        mu = ExactMeasure(binary(2), np.array([0.5, 0.0, 0.0, 0.5]))
        with pytest.raises(DomainError):
            verify_h_lsi_product(mu, trials=10)


class TestPsi2Study:
    def test_baseline_half_is_finite_and_modest(self):
        rows = psi2_blowup_study([0.5], starts=16, seed=0)
        assert 1.0 < rows[0].psi2_value < 3.0

    def test_divergence_into_blowup(self):
        rows = psi2_blowup_study([1e-2, 1e-3, 1e-4], starts=16, seed=1)
        values = [r.psi2_value for r in rows]
        assert values[1] > values[0]
        assert values[2] > 100 * values[1]

    def test_orlicz_moment_estimate_present(self):
        rows = psi2_blowup_study([0.25], q_max=32, starts=8, seed=2)
        assert rows[0].orlicz_moment_estimate > 0.0

    def test_degenerate_p_rejected(self):
        with pytest.raises(DomainError):
            psi2_blowup_study([0.0])

    def test_overflowing_statistic_is_inf(self):
        rows = psi2_blowup_study([1e-6], starts=8, seed=3)
        assert rows[0].psi2_value == math.inf
        assert math.isfinite(rows[0].sigma2)


class TestOperatorEnergies:
    def test_h_energy_dominates_d_energy(self):
        rng = np.random.default_rng(3)
        mu = bernoulli_product(3, 0.3)
        for _ in range(20):
            f = rng.standard_normal(8)
            assert gamma_squared_mean(mu, f, "h") >= gamma_squared_mean(mu, f, "d") - 1e-12

    def test_h_plus_between(self):
        rng = np.random.default_rng(4)
        mu = rademacher(3)
        for _ in range(20):
            f = rng.standard_normal(8)
            assert gamma_squared_mean(mu, f, "h_plus") <= gamma_squared_mean(mu, f, "h") + 1e-12
            assert gamma_squared_mean(mu, f, "h_plus") >= gamma_squared_mean(mu, f, "d") - 1e-12
