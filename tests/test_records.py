import pytest

from oracles import HalfOpenInterval
from stairdist.bottleneck import CostProfile, LowerBoundReport, MatchingResult
from stairdist.gmd import AnchorCovering, GmdReport, GradedMatrix
from stairdist.interleaving import DecisionReport
from stairdist.rect_approx import RectApproxResult

FIELDS = {
    CostProfile: ("costs", "triv_m", "triv_n"),
    MatchingResult: ("delta", "pairs", "unmatched_m", "unmatched_n"),
    LowerBoundReport: ("d_b", "eps_star_m", "eps_star_n", "d_b_approx",
                       "raw", "lower_bound", "matching"),
    RectApproxResult: ("rect", "epsilon"),
    GradedMatrix: ("row_grades", "col_grades", "nonzeros"),
    AnchorCovering: ("points", "intercepts", "bands"),
    HalfOpenInterval: ("g", "r"),
    GmdReport: ("value", "direction", "band", "table", "epsilon",
                "covering"),
    DecisionReport: ("delta", "accepted", "diag_distance", "reason",
                     "checks"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_equality_and_hash(cls):
    names = FIELDS[cls]
    rec = cls(*range(len(names)))
    assert tuple(getattr(rec, k) for k in names) == tuple(range(len(names)))
    assert cls(**dict(zip(names, range(len(names))))) == rec
    other = cls(*range(1, len(names) + 1))
    assert other != rec
    # field-wise equality holds only within one class
    for twin in FIELDS:
        if twin is not cls and len(FIELDS[twin]) == len(names):
            assert rec != twin(*range(len(names)))
    with pytest.raises(TypeError):
        hash(rec)
    assert repr(rec).startswith(cls.__name__ + "(" + names[0] + "=0")


def test_defaults():
    a, b = DecisionReport(1, True, 0), DecisionReport(1, True, 0)
    assert a.reason == "" and a.checks == []
    a.checks.append("x")
    assert b.checks == []
