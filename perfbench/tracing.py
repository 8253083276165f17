"""Per-layer observation of the program from outside its sources.

`SpanTracer` wraps public functions of the program at every module or class
attribute that binds them, so a caller's lookup (for example
`concentra.diffops.op_norm_batch` inside `norm_profile`) reaches the wrapper.
It keeps spans in memory and derives self time, call counts and counts read
from return values.  `PeakTracker` records tracemalloc peaks for a few
functions; it runs in its own pass because tracemalloc slows Python-heavy
loops several-fold.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MIB = 1024.0 * 1024.0


def _glauber_site_updates(args, kwargs, result) -> float:
    from concentra.models import glauber_sample

    bound = inspect.signature(glauber_sample).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return float(a["measure"].space.n * (a["burn_in"] + a["sweeps"]))


@dataclass(frozen=True)
class Target:
    """A public function `concentra.<module>.<attr>`, or, with `base`, the
    method `attr` of every class in the module derived from `base`.

    `counts` maps a stat name to (reader of (args, kwargs, result), "sum"|"max").
    """

    module: str
    attr: str
    base: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("space", "prob_table", base="Measure"),
    Target("space", "conditional", base="Measure"),
    Target("funcs", "evaluate_table", base="FunctionSpec"),
    Target("diffops", "norm_profile"),
    Target("diffops", "h_tensor_field",
           counts={"out_mib": (lambda a, k, r: r.nbytes / MIB, "max")}),
    Target("tensors", "op_norm_batch",
           counts={"tensors": (lambda a, k, r: float(r.shape[0]), "sum")}),
    Target("tensors", "op_norm",
           counts={"iterations": (lambda a, k, r: float(r.iterations), "sum"),
                   "unconverged": (lambda a, k, r: float(not r.converged), "sum")}),
    Target("tensors", "partition_norm"),
    Target("lsi", "lsi_constant_search",
           counts={"evals": (lambda a, k, r: float(r.iterations), "sum")}),
    Target("lsi", "glauber_quadratic_form",
           counts={"out_mib": (lambda a, k, r: r.nbytes / MIB, "max")}),
    Target("models", "glauber_sample",
           counts={"site_updates": (_glauber_site_updates, "sum")}),
    Target("models", "write_samples_binary"),
    Target("bounds", "bound_general"),
    Target("bounds", "polynomial_partition_norms"),
    Target("verify", "tail_curve"),
    Target("verify", "check_domination"),
    Target("verify", "clopper_pearson_upper"),
    Target("verify", "run_corpus_entry"),
    Target("cli", "build_model"),
    Target("cli", "build_bound"),
    Target("cli", "main"),
)

PEAK_TARGETS = ("diffops.h_tensor_field", "diffops.norm_profile",
                "lsi.glauber_quadratic_form", "models.glauber_sample")


def _bindings(target: Target) -> list[tuple[object, object]]:
    """Every (owner, original) pair whose attribute `target.attr` must be wrapped."""
    home = sys.modules[f"concentra.{target.module}"]
    if target.base is not None:
        base = getattr(home, target.base)
        return [
            (cls, vars(cls)[target.attr])
            for cls in vars(home).values()
            if isinstance(cls, type) and issubclass(cls, base) and target.attr in vars(cls)
        ]
    original = getattr(home, target.attr)
    owners = [
        mod for name, mod in list(sys.modules.items())
        if (name == "concentra" or name.startswith("concentra.")) and vars(mod).get(target.attr) is original
    ]
    return [(owner, original) for owner in owners]


@contextmanager
def _wrapped(targets, make_wrapper: Callable[[Target, Callable], Callable]):
    """Replace each target's bindings by wrappers for the duration of the block."""
    saved = []
    try:
        for target in targets:
            for owner, original in _bindings(target):
                saved.append((owner, target.attr, original))
                setattr(owner, target.attr, make_wrapper(target, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTracer:
    """Spans [id, parent, name, start, end, run, counts], kept in memory."""

    def __init__(self):
        self.targets = TARGETS
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0

    def _make_wrapper(self, target: Target, original: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name, counts = target.name, target.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.run, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counts:
                span[6] = {stat: read(args, kwargs, result) for stat, (read, _) in counts.items()}
            return result

        return traced

    @contextmanager
    def active(self, run: int):
        """Trace one pass, labelling its spans with `run`."""
        self.run = run
        with _wrapped(self.targets, self._make_wrapper):
            yield

    def summary(self, run: int) -> dict[str, float]:
        """Per target: `.s` (self time), `.calls` and each count of one run."""
        spans = [s for s in self.spans if s[5] == run]
        child_time: dict[int, float] = {}
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
        out: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        for target in self.targets:
            out[f"{target.name}.s"] = 0.0
            out[f"{target.name}.calls"] = 0.0
            for stat in target.counts:
                out[f"{target.name}.{stat}"] = 0.0
        modes = {f"{t.name}.{stat}": mode for t in self.targets for stat, (_, mode) in t.counts.items()}
        for s in spans:
            name, duration = s[2], s[4] - s[3]
            out[f"{name}.s"] += duration - child_time.get(s[0], 0.0)
            out[f"{name}.calls"] += 1.0
            inclusive[name] = inclusive.get(name, 0.0) + duration
            for stat, value in (s[6] or {}).items():
                key = f"{name}.{stat}"
                out[key] = max(out[key], value) if modes[key] == "max" else out[key] + value
        glauber = inclusive.get("models.glauber_sample", 0.0)
        out["models.glauber_sample.updates_per_s"] = (
            out["models.glauber_sample.site_updates"] / glauber if glauber > 0.0 else 0.0
        )
        return out


class PeakTracker:
    """tracemalloc peak (MiB above the traced memory at entry) per call of
    each target, maximised over calls; nested targets each see their own peak."""

    def __init__(self):
        self.targets = tuple(t for t in TARGETS if t.name in PEAK_TARGETS)
        self.peaks = {f"{t.name}.peak_mib": 0.0 for t in self.targets}
        self._frames: list[list[float]] = []

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        return current

    def _make_wrapper(self, target: Target, original: Callable) -> Callable:
        key = f"{target.name}.peak_mib"

        @functools.wraps(original)
        def tracked(*args, **kwargs):
            current = self._fold()
            self._frames.append([current, current])
            try:
                return original(*args, **kwargs)
            finally:
                self._fold()
                base, high = self._frames.pop()
                self.peaks[key] = max(self.peaks[key], (high - base) / MIB)

        return tracked

    @contextmanager
    def active(self):
        tracemalloc.start()
        try:
            with _wrapped(self.targets, self._make_wrapper):
                yield
        finally:
            tracemalloc.stop()
