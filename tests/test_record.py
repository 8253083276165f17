import dataclasses
import json

import numpy as np
import pytest

import concentra.cli  # noqa: F401  (imports every module that defines a result type)
from concentra.bounds import MomentProfile, TailBound, dlsi, independent
from concentra.diffops import NormProfile
from concentra.lsi import LsiReport, Psi2Row
from concentra.models import ColoringConditionReport, ErgmConditionReport, IsingConditionReport
from concentra.schema import Record
from concentra.verify import (
    DominationReport,
    MomentChainReport,
    PointwiseReport,
    SuiteCheck,
    SuiteResult,
    TailCurve,
)

# One instance of every result type, with the optional fields it leaves unset.
EXAMPLES = [
    (independent(2), {"sigma2"}),
    (dlsi(2.0, 1), set()),
    (TailBound(((1.0, 1.5), (2.0, 0.5)), 2.0), {"regime"}),
    (TailBound(((1.0, 1.5),), 2.0, label="general-dlsi", regime=dlsi(2.0, 1)), set()),
    (MomentProfile((1.0, 0.5), shift=0.5), set()),
    (NormProfile(2, (1.5, 2.5)), {"stderr"}),
    (NormProfile(2, (1.5, 2.5), "monte_carlo", (0.1, 0.2), True), set()),
    (LsiReport("d", 1.25, None, 4, 40, 0, 1.1, 2.5), set()),
    (LsiReport("h", 0.5, np.array([0.6, 0.8]), 2, 10, 1, None, None), set()),
    (Psi2Row(0.1, 1.2, 1.01, 1.02), set()),
    (IsingConditionReport(0.4, 0.6, 0.1, True), set()),
    (ColoringConditionReport(2, 5, True), set()),
    (ErgmConditionReport(0.3, True), set()),
    (TailCurve(np.array([0.0, 1.0]), np.array([1.0, 0.25]), np.array([1.0, 0.3])), set()),
    (DominationReport("general-independent", False, [1.0, 2.0], -0.1, True, 0.9), set()),
    (MomentChainReport("independent", 2, (2.0, 4.0), (1.0, 1.5), (2.0, 3.0), True, 0.5), set()),
    (PointwiseReport("recursion", True, 0.25, 12), set()),
    (SuiteCheck("psi2", True, {"sigma2": None, "values": [1.0, 2.0]}), set()),
    (SuiteResult(3, [SuiteCheck("psi2", True, {"max_ratio": 0.5})]), set()),
]


def _subclasses(cls) -> set[type]:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


def test_every_result_type_has_an_example():
    assert {type(r) for r, _ in EXAMPLES} == _subclasses(Record)


@pytest.mark.parametrize("record, unset", EXAMPLES, ids=[type(r).__name__ for r, _ in EXAMPLES])
def test_to_json_writes_every_set_field_by_name(record, unset):
    doc = record.to_json()
    # json.dumps raises on anything not JSON; a tuple or array left in would
    # come back from the round trip as a list and compare unequal
    assert json.loads(json.dumps(doc)) == doc
    names = {f.name for f in dataclasses.fields(record)} - unset
    assert set(doc) == (names | {"all_passed"} if isinstance(record, SuiteResult) else names)


def test_nested_records_and_nulls():
    bound = TailBound(((1.0, 1.5),), 2.0, regime=dlsi(2.0, 1))
    assert bound.to_json()["levels"] == [[1.0, 1.5]]
    assert bound.to_json()["regime"] == {"kind": "dlsi", "d": 1, "sigma2": 2.0}
    assert LsiReport("d", 1.0, None, 1, 1, 0, None, None).to_json()["witness"] is None
    assert SuiteCheck("x", True, {"sigma2": None}).to_json()["detail"] == {"sigma2": None}
    result = SuiteResult(0, [SuiteCheck("a", True, {}), SuiteCheck("b", False, {})])
    assert result.to_json() == {
        "seed": 0,
        "all_passed": False,
        "checks": [{"name": "a", "passed": True, "detail": {}}, {"name": "b", "passed": False, "detail": {}}],
    }
