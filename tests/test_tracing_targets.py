"""The benchmark's per-layer tracer finds every function it targets.

`perfbench/tracing.py` wraps public functions by name, so renaming or
removing one would silently zero its per-layer metrics.  The module is
loaded from its file and only read.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from concentra import diffops
from concentra.funcs import QuadraticForm, Tabulated
from concentra.space import rademacher

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_binds_an_owner(tracing):
    for target in tracing.TARGETS:
        importlib.import_module(f"concentra.{target.module}")
    assert [t.name for t in tracing.TARGETS if not tracing._bindings(t)] == []


def test_exact_levels_with_spread_reach_the_traced_field(tracing):
    rng = np.random.default_rng(60)
    A = rng.standard_normal((5, 5))
    A = (A + A.T) / 2
    np.fill_diagonal(A, 0.0)
    mu = rademacher(5)
    tracer = tracing.SpanTracer()
    original = diffops.h_tensor_field
    with tracer.active(run=0):
        diffops.norm_profile(Tabulated(rng.standard_normal(mu.space.size)), mu, 2)  # both levels spread
    with tracer.active(run=1):
        diffops.norm_profile(QuadraticForm(A), mu, 2)  # level 2 is constant
    assert diffops.h_tensor_field is original
    # a spread level of order 2 reaches the field; a spread level 1 takes its norms without one
    assert tracer.summary(0)["diffops.h_tensor_field.calls"] == 1.0
    assert tracer.summary(1)["diffops.h_tensor_field.calls"] == 0.0
    assert tracer.summary(1)["diffops.norm_profile.calls"] == 1.0
