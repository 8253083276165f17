"""Multilevel tail bounds: the generic evaluator plus constructors for every
bound shape used here (general profiles, suprema, chaos, Boolean weights,
U-statistics, multilinear polynomials with partition norms, moment-to-tail
conversion, and the quadratic-form specialization).

A bound is prefactor * exp(-(1/C) * min over levels (t / gamma_k)^(2/k)),
clipped to [0, 1]; levels with gamma_k = 0 are excluded from the min.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError
from .diffops import NormProfile
from .schema import array, boolean, reads, real, text
from .tensors import Partition, check_symmetric, check_zero_diagonal, enumerate_partitions, hs_norm, op_norm

INDEPENDENT_C_FACTOR = 217.0
DLSI_C_FACTOR = 15.0
CHAOS_VARIANTS = ("upper", "two_sided")


@dataclass(frozen=True)
class Regime:
    """Which main tail theorem applies: independent coordinates, or a
    d-operator LSI with constant sigma2."""

    kind: str
    d: int
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("independent", "dlsi"):
            raise DomainError(f"unknown regime {self.kind!r}")
        if self.d < 1:
            raise DomainError("regime order must be >= 1")
        if self.kind == "dlsi":
            if self.sigma2 is None or not self.sigma2 > 0.0:
                raise DomainError("dlsi regime needs sigma2 > 0")

    @property
    def constant(self) -> float:
        if self.kind == "independent":
            return INDEPENDENT_C_FACTOR * self.d**2
        return DLSI_C_FACTOR * self.sigma2 * self.d**2

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "d": self.d}
        if self.sigma2 is not None:
            doc["sigma2"] = self.sigma2
        return doc


def independent(d: int) -> Regime:
    return Regime("independent", d)


def dlsi(sigma2: float, d: int) -> Regime:
    return Regime("dlsi", d, sigma2)


def _level_rate(t: float, gamma: float, order: float) -> float:
    """(t/gamma)^(2/order), +inf where the float power overflows."""
    try:
        return (t / gamma) ** (2.0 / order)
    except OverflowError:
        return math.inf


@dataclass
class TailBound:
    """Piecewise multilevel bound with levels (order k, scale gamma_k);
    `bound_general` records the regime it applied."""

    levels: tuple[tuple[float, float], ...]
    constant: float
    prefactor: float = 2.0
    one_sided: bool = False
    label: str = ""
    regime: Regime | None = None

    def __post_init__(self):
        if not self.constant > 0.0:
            raise DomainError("bound constant must be positive")
        for order, gamma in self.levels:
            if not order > 0:
                raise DomainError("level orders must be positive")
            if not gamma >= 0:
                raise DomainError("level scales must be nonnegative")

    def exponent(self, t: float) -> float:
        """min over levels of (t/gamma_k)^(2/k) / C; +inf when every level is excluded."""
        if t < 0:
            raise DomainError("t must be nonnegative")
        if t == 0.0:
            return 0.0
        best = math.inf
        for order, gamma in self.levels:
            if gamma > 0.0:
                best = min(best, _level_rate(t, gamma, order))
        return best / self.constant

    def active_level(self, t: float) -> float | None:
        """Order of the level attaining the min at t (smallest order on ties)."""
        if t <= 0.0:
            return None
        best, which = math.inf, None
        for order, gamma in sorted(self.levels):
            if gamma > 0.0:
                value = _level_rate(t, gamma, order)
                if value < best:
                    best, which = value, order
        return which

    def evaluate_raw(self, t: float) -> float:
        e = self.exponent(t)
        return 0.0 if math.isinf(e) else self.prefactor * math.exp(-e)

    def evaluate(self, t: float) -> float:
        return min(1.0, self.evaluate_raw(t))

    def evaluate_grid(self, t_grid: Sequence[float]) -> np.ndarray:
        return np.array([self.evaluate(float(t)) for t in t_grid])

    def scaled_constant(self, factor: float) -> "TailBound":
        """Same levels with the global constant multiplied by `factor`."""
        return replace(self, constant=self.constant * factor)

    def to_json(self) -> dict:
        return {
            "levels": [[k, g] for k, g in self.levels],
            "constant": self.constant,
            "prefactor": self.prefactor,
            "one_sided": self.one_sided,
            "label": self.label,
        }

    @staticmethod
    def from_json(doc: dict) -> "TailBound":
        return reads(
            lambda levels, *rest: TailBound(tuple(map(tuple, levels.tolist())), *rest),
            ("levels", array((None, 2))), ("constant", real), ("prefactor", real, 2.0),
            ("one_sided", boolean, False), ("label", text, ""),
        )(doc)


def bound_general(profile: NormProfile, regime: Regime) -> TailBound:
    """Two-sided multilevel bound from a difference-tensor norm profile."""
    if profile.d != regime.d:
        raise DomainError(f"profile depth {profile.d} does not match regime order {regime.d}")
    levels = tuple((float(k + 1), float(g)) for k, g in enumerate(profile.gamma))
    return TailBound(levels, regime.constant, label=f"general-{regime.kind}", regime=regime)


def bound_suprema(
    expected_w: Sequence[float], w_top_sup: float, regime: Regime
) -> TailBound:
    """Upper-deviation bound for suprema: levels E W_j for j < d and ||W_d||_inf."""
    if len(expected_w) != regime.d - 1:
        raise DomainError(f"need {regime.d - 1} expected levels for order {regime.d}")
    levels = tuple((float(j + 1), float(w)) for j, w in enumerate(expected_w))
    levels += ((float(regime.d), float(w_top_sup)),)
    return TailBound(levels, regime.constant, one_sided=True, label=f"suprema-{regime.kind}")


def bound_sums_supremum(n: int, range_sup: float, sigma2: float) -> TailBound:
    """Suprema of sums of coordinate functions with per-summand range c(f):
    exponent t^2 / (15 sigma^2 n sup c(f)^2), upper deviations only."""
    if n < 1:
        raise DomainError("need at least one summand")
    return bound_suprema([], math.sqrt(n) * range_sup, dlsi(sigma2, 1))


def bound_chaos(
    expected_w: Sequence[float],
    sigma2: float,
    a: float,
    b: float,
    d: int,
    variant: str = "upper",
) -> TailBound:
    """Chaos bound with flat constant 2 e^2 sigma^2 (b-a)^2 d^2 and levels E W_k.

    variant "upper" uses the one-sided quantities W_k; "two_sided" is the same
    shape fed with the entrywise-norm quantities W~_k.
    """
    if b <= a:
        raise DomainError("need b > a")
    if sigma2 <= 0.0:
        raise DomainError("sigma2 must be positive")
    if len(expected_w) != d:
        raise DomainError(f"need {d} levels for order {d}")
    if variant not in CHAOS_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    constant = 2.0 * math.e**2 * sigma2 * (b - a) ** 2 * d**2
    levels = tuple((float(k + 1), float(w)) for k, w in enumerate(expected_w))
    return TailBound(
        levels, constant, one_sided=(variant == "upper"), label=f"chaos-{variant}"
    )


def bound_chaos_quadratic(t1: float, t2: float, sigma2: float, a: float, b: float) -> TailBound:
    """Order-2 chaos corollary: exponent min(t^2/T1^2, t/T2) / (60 (b-a)^2 sigma^2)."""
    if b <= a:
        raise DomainError("need b > a")
    if sigma2 <= 0.0:
        raise DomainError("sigma2 must be positive")
    constant = 60.0 * (b - a) ** 2 * sigma2
    return TailBound(
        ((1.0, float(t1)), (2.0, float(t2))), constant, one_sided=True, label="chaos-d2"
    )


def bound_boolean(weights: Sequence[float], d: int) -> TailBound:
    """Hypercube bound exp(1 - min_j (t / (d e W_j^(1/2)))^(2/j)) from the
    per-order Fourier weights W_1..W_d; prefactor e, zero weights excluded."""
    weights = [float(w) for w in weights]
    if len(weights) != d:
        raise DomainError(f"need {d} weights for degree {d}")
    if any(w < 0 for w in weights):
        raise DomainError("Fourier weights must be nonnegative")
    if all(w == 0.0 for w in weights):
        raise DomainError("all Fourier weights vanish")
    levels = tuple(
        (float(j + 1), d * math.e * math.sqrt(w)) for j, w in enumerate(weights)
    )
    return TailBound(levels, 1.0, prefactor=math.e, label="boolean")


def bound_ustat(B: float, n: int, d: int, regime: Regime, normalized: bool = False) -> TailBound:
    """U-statistic bound: levels gamma_k = B C(d,k) 2^k n^(d - k/2).

    The normalized variant bounds P(n^(1/2-d) |f - Ef| >= B t) by
    2 exp(-min(t^2, n^(1-1/d) t^(2/d)) / (4C)).
    """
    if n <= d or d < 1:
        raise DomainError("need n > d >= 1")
    if B <= 0.0:
        raise DomainError("kernel bound B must be positive")
    if regime.d != d:
        raise DomainError("regime order must match the kernel order")
    if normalized:
        levels = ((1.0, 1.0), (float(d), float(n) ** (-(d - 1) / 2.0)))
        return TailBound(levels, 4.0 * regime.constant, label="ustat-normalized")
    levels = tuple(
        (float(k), B * math.comb(d, k) * 2.0**k * float(n) ** (d - k / 2.0))
        for k in range(1, d + 1)
    )
    return TailBound(levels, regime.constant, label="ustat")


def bound_polynomial(
    partition_norms: dict[int, dict[Partition, float]],
    sigma: float,
    d: int,
    c_user: float | None = None,
) -> TailBound:
    """Multilinear-polynomial bound over all (order k, partition I) levels:
    exponent (1/C) min over (k, I) of (t / (sigma^k ||E grad^(k) f||_I))^(2/|I|).

    The theorem's constant depends on the order only through an unnamed
    absolute constant, so C must be supplied; the default 15 sigma^2 d^2 is a
    non-certified placeholder.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    levels = []
    for k in range(1, d + 1):
        if k not in partition_norms:
            raise DomainError(f"missing partition norms for order {k}")
        given = partition_norms[k]
        for partition in enumerate_partitions(k):
            if partition not in given:
                raise DomainError(f"missing norm for order {k}, partition {partition}")
            levels.append((float(partition.block_count), sigma**k * float(given[partition])))
    constant = c_user if c_user is not None else DLSI_C_FACTOR * sigma**2 * d**2
    return TailBound(tuple(levels), constant, label="polynomial")


def polynomial_partition_norms(
    poly, mu, d: int, restarts: int = 16, seed: int = 0
) -> dict[int, dict[Partition, float]]:
    """All ||E grad^(k) f||_I for k <= d, evaluated from the expected gradients."""
    from .funcs import expected_gradient_tensor
    from .tensors import partition_norm

    out: dict[int, dict[Partition, float]] = {}
    for k in range(1, d + 1):
        tensor = expected_gradient_tensor(poly, k, mu)
        out[k] = {
            partition: partition_norm(tensor, partition, restarts=restarts, seed=seed)
            for partition in enumerate_partitions(k)
        }
    return out


def bound_ergm_triangle(
    n: int, c_two_star: float, c_edge: float, c_user: float
) -> TailBound:
    """Triangle-count bound for weakly dependent random graphs:
    exponent (1/C) min(t^2 / max(C_S2 n^4, C_E n^3, n^3),
                       t / max(sqrt(2n), 2 C_E n), t^(2/3) / 2)."""
    if n < 3:
        raise DomainError("need at least three vertices")
    if c_user <= 0.0:
        raise DomainError("the bound constant must be positive")
    gamma1 = math.sqrt(max(c_two_star * n**4, c_edge * n**3, float(n) ** 3))
    gamma2 = max(math.sqrt(2.0 * n), 2.0 * c_edge * n)
    gamma3 = 2.0 ** 1.5
    levels = ((1.0, gamma1), (2.0, gamma2), (3.0, gamma3))
    return TailBound(levels, c_user, label="ergm-triangle")


@dataclass
class MomentProfile:
    """Moment growth ||f - Ef||_p <= sum_k C_k (p - s)^(k/2) with shift s in [0, 2)."""

    coefficients: tuple[float, ...]
    shift: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.shift < 2.0:
            raise DomainError("shift must lie in [0, 2)")
        if any(c < 0 for c in self.coefficients):
            raise DomainError("moment coefficients must be nonnegative")

    @property
    def level_count(self) -> int:
        """L: the number of strictly positive coefficients."""
        return sum(1 for c in self.coefficients if c > 0)

    def evaluate(self, p: float) -> float:
        if p < self.shift:
            raise DomainError(f"p={p} below shift {self.shift}")
        return sum(c * (p - self.shift) ** ((k + 1) / 2.0) for k, c in enumerate(self.coefficients))

    def to_json(self) -> dict:
        return {"coefficients": list(self.coefficients), "shift": self.shift}


def moment_to_tail(profile: MomentProfile) -> TailBound:
    """Tail bound from moment growth:
    2 exp(-min(log 2 / (2 - s), 1) * min over positive C_k of (t / (L e C_k))^(2/k))."""
    L = profile.level_count
    if L == 0:
        raise DomainError("all moment coefficients vanish")
    factor = min(math.log(2.0) / (2.0 - profile.shift), 1.0)
    levels = tuple(
        (float(k + 1), L * math.e * c)
        for k, c in enumerate(profile.coefficients)
        if c > 0.0
    )
    return TailBound(levels, 1.0 / factor, label="moment")


def hanson_wright(A: np.ndarray, M: float, regime: Regime) -> TailBound:
    """Quadratic-form bound with levels 4 M |A|_HS and 8 M^2 |A^abs|_op.

    The regime must have order 2; A must be symmetric with zero diagonal.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DomainError("need a non-empty square matrix")
    check_symmetric(A, "matrix")
    check_zero_diagonal(A, "matrix")
    if M <= 0.0:
        raise DomainError("M must be positive")
    if regime.d != 2:
        raise DomainError("the quadratic-form bound uses a regime of order 2")
    gamma1 = 4.0 * M * hs_norm(A)
    gamma2 = 8.0 * M**2 * op_norm(np.abs(A)).value
    profile = NormProfile(2, (gamma1, gamma2))
    bound = bound_general(profile, regime)
    bound.label = f"hanson-wright-{regime.kind}"
    return bound
