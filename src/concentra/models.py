"""Weakly dependent measures: Ising models, random proper colorings, exponential
random graphs, plus a systematic-scan Glauber sampler with deterministic seeding.
"""
from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .errors import DomainError, SchemaError
from .funcs import MultilinearPoly
from .schema import Record
from .space import (
    ExactMeasure,
    GibbsMeasure,
    Measure,
    ProductSpace,
    binary,
    hypercube,
)
from .tensors import check_symmetric, check_zero_diagonal

SAMPLE_MAGIC = b"CONCSAMP"


# ---------------------------------------------------------------------------
# Ising / Curie-Weiss
# ---------------------------------------------------------------------------


@dataclass
class IsingSpec:
    """Coupling matrix (symmetric, zero diagonal) and external field."""

    coupling: np.ndarray
    external_field: np.ndarray

    def __post_init__(self):
        self.coupling = np.asarray(self.coupling, dtype=float)
        self.external_field = np.asarray(self.external_field, dtype=float)
        n = self.coupling.shape[0]
        if self.coupling.shape != (n, n):
            raise DomainError("coupling matrix must be square")
        check_symmetric(self.coupling, "coupling matrix")
        check_zero_diagonal(self.coupling, "coupling matrix")
        if self.external_field.shape != (n,):
            raise DomainError("external field must have one entry per site")

    @property
    def n(self) -> int:
        return self.coupling.shape[0]

    def to_json(self) -> dict:
        return {
            "kind": "ising",
            "coupling": self.coupling.tolist(),
            "field": self.external_field.tolist(),
        }


@dataclass
class IsingConditionReport(Record):
    """Row-sum weak-dependence check: max_i sum_j |J_ij| <= 1 - alpha with alpha > 0."""

    max_row_sum: float
    alpha: float
    max_field: float
    satisfied: bool


def build_ising(spec: IsingSpec) -> tuple[GibbsMeasure, IsingConditionReport]:
    """Gibbs measure on {-1,+1}^n with log-weight s -> s^T J s / 2 + h^T s, the
    polynomial {1: h, 2: J/2}: its rows come from the one row contraction
    (`funcs._contract_poly_term`) that serves every polynomial, and its
    conditionals from site i's local field h_i + sum_j J_ij s_j, the slope
    of that polynomial."""
    J = spec.coupling
    h = spec.external_field
    mu = GibbsMeasure(hypercube(spec.n), MultilinearPoly({1: h, 2: 0.5 * J}))
    row_sum = float(np.abs(J).sum(axis=1).max()) if spec.n else 0.0
    alpha = 1.0 - row_sum
    report = IsingConditionReport(
        max_row_sum=row_sum,
        alpha=alpha,
        max_field=float(np.abs(h).max()) if spec.n else 0.0,
        satisfied=alpha > 0.0,
    )
    return mu, report


def curie_weiss_spec(n: int, beta: float, external_field: float = 0.0) -> IsingSpec:
    """Uniform couplings J_ij = beta / n off the diagonal; weak dependence iff
    beta (n-1)/n < 1, the finite-n form of beta < 1."""
    J = np.full((n, n), beta / n)
    np.fill_diagonal(J, 0.0)
    return IsingSpec(J, np.full(n, external_field))


# ---------------------------------------------------------------------------
# Random proper colorings
# ---------------------------------------------------------------------------


@dataclass
class ColoringConditionReport(Record):
    max_degree: int
    colors: int
    satisfied: bool  # colors >= 2 * max_degree + 1


def _normalize_edges(edges, n_vertices: int) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise DomainError("self-loops are not allowed")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise DomainError(f"edge ({u},{v}) outside range(0, {n_vertices})")
        out.append((min(u, v), max(u, v)))
    return sorted(set(out))


def build_coloring(
    edges, n_vertices: int, colors: int
) -> tuple[ExactMeasure, ColoringConditionReport]:
    """Uniform measure on proper colorings of the graph, over the space colors^V."""
    if colors < 1:
        raise DomainError("need at least one color")
    edge_list = _normalize_edges(edges, n_vertices)
    space = ProductSpace(tuple(tuple(float(c) for c in range(colors)) for _ in range(n_vertices)))
    space.check_cap()
    from .space import enumerate_configurations

    configs = enumerate_configurations(space)
    proper = np.ones(space.size, dtype=bool)
    for u, v in edge_list:
        proper &= configs[:, u] != configs[:, v]
    count = int(proper.sum())
    if count == 0:
        raise DomainError("the graph admits no proper coloring with this many colors")
    table = np.where(proper, 1.0 / count, 0.0)
    degree = np.zeros(n_vertices, dtype=int)
    for u, v in edge_list:
        degree[u] += 1
        degree[v] += 1
    max_degree = int(degree.max()) if n_vertices else 0
    report = ColoringConditionReport(max_degree, colors, colors >= 2 * max_degree + 1)
    return ExactMeasure(space, table), report


# ---------------------------------------------------------------------------
# Exponential random graph model
# ---------------------------------------------------------------------------


@dataclass
class Motif:
    """A simple connected graph pattern given by its edge list on range(n_vertices)."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vertices = sorted({v for e in self.edges for v in e})
        if not self.edges:
            raise DomainError("a motif needs at least one edge")
        remap = {v: i for i, v in enumerate(vertices)}
        self.edges = tuple(sorted((remap[min(u, v)], remap[max(u, v)]) for u, v in self.edges))
        if len(set(self.edges)) != len(self.edges):
            raise DomainError("motif has repeated edges")
        self.n_vertices = len(vertices)
        if not self._connected():
            raise DomainError("motifs must be connected")

    def _connected(self) -> bool:
        adjacency = {v: set() for v in range(self.n_vertices)}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def automorphism_count(self) -> int:
        edge_set = set(self.edges)
        count = 0
        for perm in permutations(range(self.n_vertices)):
            if all(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) in edge_set for u, v in edge_set
            ):
                count += 1
        return count

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in self.edges]}


SINGLE_EDGE = Motif(((0, 1),))
TRIANGLE = Motif(((0, 1), (0, 2), (1, 2)))
TWO_STAR = Motif(((0, 1), (0, 2)))


@dataclass
class ErgmSpec:
    """Vertex count, motif list (first motif must be the single edge), parameters."""

    n_vertices: int
    motifs: tuple[Motif, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        self.motifs = tuple(self.motifs)
        self.beta = tuple(float(b) for b in self.beta)
        if len(self.motifs) != len(self.beta):
            raise DomainError("one parameter per motif")
        if not self.motifs:
            raise DomainError("need at least one motif")
        if self.motifs[0].edges != SINGLE_EDGE.edges:
            raise DomainError("the first motif must be a single edge")
        if self.n_vertices < 2:
            raise DomainError("need at least two vertices")

    def to_json(self) -> dict:
        return {
            "kind": "ergm",
            "vertices": self.n_vertices,
            "motifs": [m.to_json() for m in self.motifs],
            "beta": list(self.beta),
        }


def edge_index_map(n_vertices: int) -> dict[tuple[int, int], int]:
    """Edge-variable ordering: pairs (u, v), u < v, lexicographic."""
    return {pair: k for k, pair in enumerate(combinations(range(n_vertices), 2))}


def _embedding_edge_indices(motif: Motif, n_vertices: int) -> np.ndarray:
    """Edge-variable indices touched by every injective vertex map, one row each;
    shape (0, edges) when the motif has more vertices than the graph."""
    index = edge_index_map(n_vertices)
    rows = []
    for mapping in permutations(range(n_vertices), motif.n_vertices):
        rows.append(
            [
                index[(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))]
                for u, v in motif.edges
            ]
        )
    return np.asarray(rows, dtype=np.intp).reshape(-1, motif.n_edges)


def subgraph_copy_count(edge_indicator: np.ndarray, motif: Motif, n_vertices: int) -> float:
    """Number of copies of the motif: labeled embeddings divided by |Aut(motif)|."""
    x = np.asarray(edge_indicator, dtype=float)
    rows = _embedding_edge_indices(motif, n_vertices)
    labeled = float(x[rows].prod(axis=1).sum())
    return labeled / motif.automorphism_count()


@dataclass
class ErgmConditionReport(Record):
    """Weak dependence holds when half the derivative Phi'_{|beta|}(1) stays below 1."""

    phi_prime_abs_at_one: float
    satisfied: bool


def build_ergm(spec: ErgmSpec) -> tuple[GibbsMeasure, ErgmConditionReport]:
    """Gibbs measure on {0,1}^C(n,2) weighting scaled motif counts.

    Log-weight: sum_i beta_i n^(2 - |V_i|) N_{G_i}(x).
    """
    n = spec.n_vertices
    n_edges = n * (n - 1) // 2
    scaled: list[tuple[float, np.ndarray, int]] = []
    for beta_i, motif in zip(spec.beta, spec.motifs):
        rows = _embedding_edge_indices(motif, n)
        scale = beta_i * float(n) ** (2 - motif.n_vertices) / motif.automorphism_count()
        scaled.append((scale, rows, motif.n_edges))

    def log_weights(X: np.ndarray) -> np.ndarray:
        total = np.zeros(X.shape[0])
        for scale, rows, _ in scaled:
            if scale != 0.0:
                total += scale * X[:, rows].prod(axis=2).sum(axis=1)
        return total

    mu = GibbsMeasure(binary(n_edges), log_weights)
    phi_prime = sum(
        abs(b) * m.n_edges * (m.n_edges - 1) for b, m in zip(spec.beta, spec.motifs)
    )
    report = ErgmConditionReport(float(phi_prime), 0.5 * phi_prime < 1.0)
    return mu, report


def triangle_count_tensor(n_vertices: int) -> np.ndarray:
    """Symmetric order-3 coefficient tensor of the triangle count over edge variables.

    Each triangle's labeled embeddings are the six orders of its three edges,
    so weighting each by 1/|Aut| sums each unordered triangle exactly once.
    """
    n_edges = n_vertices * (n_vertices - 1) // 2
    tensor = np.zeros((n_edges, n_edges, n_edges))
    tensor[tuple(_embedding_edge_indices(TRIANGLE, n_vertices).T)] = 1.0 / TRIANGLE.automorphism_count()
    return tensor


# ---------------------------------------------------------------------------
# Glauber dynamics
# ---------------------------------------------------------------------------

# Largest space whose section CDFs the chain tabulates.  The table is built on
# the first run whatever the chain's length.  Measured on one Xeon core, one
# BLAS thread, for an Ising ring, whose table comes from its slopes
# (best of 9 and of 5; tracemalloc peak in a separate run): at 2^16
# configurations the build takes about 2 ms and peaks at 4.0 MiB, the table
# itself, and the glauber-mc benchmark chains make 19,200 and 35,200
# updates, a comparison each (3,400 sweeps of the 16-site ring take 14 ms,
# about 3.9M updates/s; 24 ms as bisections); at 2^20 it takes 30 ms and
# 80 MiB.  That is shorter than 1000 sweeps of per-update conditionals
# (about 0.3 s at some 65,000 updates/s), but a short chain would still pay
# it all, and it holds 80 MiB.  Larger spaces evaluate each conditional at
# its update and memoise up to 2^16 sections.
_SECTION_TABLE_LIMIT = 1 << 16


def _cdf_rows(p: np.ndarray, i: int, shape: tuple[int, ...]) -> memoryview:
    """The first m - 1 CDF entries of every section along coordinate i, from
    its `section_conditionals` array p, as one flat float64 buffer: section
    (pre, post) in row pre * stride + post.  The sums run letter by letter,
    in the order of `np.cumsum` on one section's conditional, on p's own
    sections, and each partial sum is broadcast into the rows, which are
    written once."""
    m = shape[i]
    p = np.moveaxis(p, i, -1)
    rows = np.empty(shape[:i] + shape[i + 1:] + (m - 1,))
    if m > 1:
        total = rows[..., 0] = p[..., 0]
        for j in range(1, m - 1):
            total = rows[..., j] = total + p[..., j]
    return memoryview(rows.reshape(-1))


# Uniforms a chain draws at once: a block of whole sweeps, at least one.
_UNIFORM_BLOCK = 1 << 14


@dataclass
class GlauberChain:
    """Systematic-scan single-site heat bath targeting `measure`.

    On its first run the chain tabulates the conditional CDF of every
    coordinate on every section along it.  When every coordinate has two
    letters, a section's row is one entry and a site update is one
    comparison with it, which is what `bisect_right` returns, ties included;
    otherwise a site update is a bisection in its row.  The table comes from
    each coordinate's section conditionals (`Measure.section_conditionals`),
    computed as `conditional` computes them, with sums running letter by
    letter as `np.cumsum` runs them, so the stream is that of per-update
    conditionals.
    Above 2^16 configurations an update evaluates `measure.conditional` on a
    section it has not memoised.
    The uniforms for a block of sweeps are drawn at once, which is the same
    stream as n single draws per sweep, so the stream is deterministic given
    the seed.

    `state` is a snapshot: a new array of the current values on each access,
    which the chain never reads back.
    """

    measure: Measure
    seed: int = 0
    rng: np.random.Generator = field(init=False)
    steps: int = field(init=False, default=0)
    # The current configuration as a flat enumeration index and its digits.
    _index: int = field(init=False, repr=False)
    _digits: list[int] = field(init=False, repr=False)
    # Per coordinate i: (i, its section CDFs, stride, stride * m, m - 1).
    _sites: list[tuple[int, memoryview, int, int, int]] | None = field(init=False, default=None, repr=False)
    # Above the table limit: first m_i - 1 CDF entries of visited sections,
    # keyed by (site, index of the section's first point), at most 2^16 of them.
    _memo: dict[tuple[int, int], list[float]] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        space = self.measure.space
        if isinstance(self.measure, ExactMeasure):
            # Joint support can be a strict subset of the per-coordinate
            # supports (proper colorings), so start at a positive-mass point.
            self._index = int(np.flatnonzero(self.measure.support_mask())[0])
            self._digits = [self._index // s % m for s, m in zip(space.strides, space.shape)]
        else:
            self._digits = [
                int(self.rng.choice(self.measure.coordinate_support(i))) for i in range(space.n)
            ]
            self._index = sum(d * s for d, s in zip(self._digits, space.strides))

    @property
    def state(self) -> np.ndarray:
        """Values of the current configuration."""
        alphabets = self.measure.space.alphabets
        return np.array([a[d] for a, d in zip(alphabets, self._digits)], dtype=float)

    def sweep(self) -> None:
        self.run(1)

    def run(self, sweeps: int, thinning: int = 1, kept: list[int] | None = None) -> None:
        """Make `sweeps` sweeps; after every thinning-th one, append the
        chain's digits to `kept` when it is given."""
        space = self.measure.space
        n, strides, shape = space.n, space.strides, space.shape
        if self._sites is None and space.size <= _SECTION_TABLE_LIMIT:
            self._sites = [
                (i, _cdf_rows(p, i, shape), stride, stride * m, m - 1)
                for i, (p, stride, m) in enumerate(zip(self.measure.section_conditionals(), strides, shape))
            ]
        sites, memo, digits, index = self._sites, self._memo, self._digits, self._index
        state = self.state if sites is None else None
        bisect_sites = sites is not None and not all(width == 1 for *_, width in sites)
        block = max(1, _UNIFORM_BLOCK // n)
        for first in range(0, sweeps, block):
            count = min(block, sweeps - first)
            uniforms = iter(self.rng.random(count * n).tolist())
            for done in range(first + 1, first + count + 1):
                if bisect_sites:
                    for (i, cdf, stride, span, width), u in zip(sites, uniforms):
                        base = index - digits[i] * stride
                        # Section (pre, post) = (base // span, base % stride) is row pre * stride + post.
                        row = (base // span * stride + base % stride) * width
                        digits[i] = digit = bisect_right(cdf, u, row, row + width) - row
                        index = base + digit * stride
                elif sites is not None:
                    for (i, cdf, stride, span, _), u in zip(sites, uniforms):
                        # The section (pre, post) = (index // span, index % stride) holds
                        # one entry, at row pre * stride + post, and `bisect_right`
                        # over it is this comparison, ties included.
                        if u < cdf[index // span * stride + index % stride]:
                            if digits[i]:
                                digits[i] = 0
                                index -= stride
                        elif not digits[i]:
                            digits[i] = 1
                            index += stride
                else:
                    for i, u in zip(range(n), uniforms):
                        stride = strides[i]
                        base = index - digits[i] * stride
                        cdf = memo.get((i, base))
                        if cdf is None:
                            cdf = np.cumsum(self.measure.conditional(state, i))[:-1].tolist()
                            if len(memo) < _SECTION_TABLE_LIMIT:
                                memo[(i, base)] = cdf
                        digits[i] = digit = bisect_right(cdf, u)
                        state[i] = space.alphabets[i][digit]
                        index = base + digit * stride
                if kept is not None and done % thinning == 0:
                    kept += digits
            self.steps += count * n
        self._index = index


def glauber_sample(
    measure: Measure,
    sweeps: int,
    burn_in: int = 0,
    thinning: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Run burn_in sweeps, then `sweeps` more, emitting every thinning-th state.

    Returns an array of configurations (value rows), sweeps // thinning of them.
    A kept sweep copies the chain's digits; they become values once, at the end.
    """
    if sweeps < 1:
        raise DomainError("sweeps must be positive")
    if thinning < 1:
        raise DomainError("thinning must be positive")
    chain = GlauberChain(measure, seed=seed)
    chain.run(burn_in)
    kept: list[int] = []
    chain.run(sweeps, thinning, kept)
    space = measure.space
    return space.value_rows(np.fromiter(kept, np.intp, count=len(kept)).reshape(sweeps // thinning, space.n))


# ---------------------------------------------------------------------------
# Sample streams on disk
# ---------------------------------------------------------------------------


def write_samples_csv(path, samples: np.ndarray) -> None:
    """One configuration per row, '.' decimal, 17 significant digits, LF endings."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    with open(path, "w", newline="\n") as handle:
        for row in samples:
            handle.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_samples_binary(path, samples: np.ndarray, space: ProductSpace) -> None:
    """Compact block: 8-byte magic "CONCSAMP", little-endian u32 counts
    (samples, coordinates), then one u8 alphabet index per coordinate."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if any(m > 256 for m in space.shape):
        raise DomainError("binary sample format limited to alphabets of size <= 256")
    digit_rows = space.digit_rows(samples).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(SAMPLE_MAGIC)
        handle.write(struct.pack("<II", digit_rows.shape[0], digit_rows.shape[1]))
        handle.write(digit_rows.tobytes(order="C"))


def read_samples_binary(path, space: ProductSpace) -> np.ndarray:
    with open(path, "rb") as handle:
        magic = handle.read(8)
        if magic != SAMPLE_MAGIC:
            raise SchemaError(f"bad magic {magic!r}")
        header = handle.read(8)
        if len(header) < 8:
            raise SchemaError("truncated sample stream header")
        count, n = struct.unpack("<II", header)
        body = handle.read()
    if n != space.n:
        raise SchemaError(f"sample stream has {n} coordinates, the space has {space.n}")
    if len(body) < count * n:
        raise SchemaError(f"truncated sample stream: {len(body)} of {count * n} digit bytes")
    raw = np.frombuffer(body, dtype=np.uint8, count=count * n).reshape(count, n)
    if np.any(raw >= np.asarray(space.shape)):
        raise SchemaError("sample stream has a digit outside its alphabet")
    return space.value_rows(raw)
