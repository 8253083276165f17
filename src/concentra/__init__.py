"""Multilevel concentration bounds for bounded functionals on finite product
spaces: difference-operator calculus, tensor norms, log-Sobolev machinery,
weakly dependent Gibbs models, tail-bound evaluators, and empirical
verification of every bound on enumerable examples.
"""

from .space import (
    ENUMERATION_CAP,
    Configuration,
    ExactMeasure,
    GibbsMeasure,
    Measure,
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
from .funcs import (
    FourierSpectrum,
    FunctionSpec,
    MultilinearPoly,
    QuadraticForm,
    SupFamily,
    Tabulated,
    UStatistic,
    VectorChaos,
    expected_gradient_tensor,
    fourier_transform,
    function_from_json,
    gradient_tensor_at,
)
from .diffops import NormProfile, d_operator, h_component, h_tensor, h_vector, norm_profile
from .tensors import Partition, enumerate_partitions, hs_norm, op_norm, partition_norm
from .lsi import (
    LsiReport,
    dirichlet_form,
    lsi_constant_search,
    lsi_ratio,
    psi2_blowup_study,
    spectral_bracket,
    verify_h_lsi_product,
)
from .models import (
    ErgmSpec,
    GlauberChain,
    IsingSpec,
    Motif,
    build_coloring,
    build_ergm,
    build_ising,
    curie_weiss_spec,
    glauber_sample,
)
from .bounds import (
    MomentProfile,
    Regime,
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
)
from .verify import (
    DominationReport,
    TailCurve,
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
    suprema_profile,
    tail_curve,
)

__version__ = "0.1.0"
