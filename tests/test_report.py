import math

from tsgeom.report import CheckReport, ResidualTracker


def test_nan_after_a_finite_sample_fails():
    t = ResidualTracker("family")
    t.update(0.0, [0.1])
    t.update(float("nan"), [0.2])
    assert t.max == math.inf
    assert t.worst_point == (0.2,)
    assert CheckReport.from_trackers("check", 1e-6, [t]).verdict == "fail"


def test_family_without_samples_is_inconclusive():
    t = ResidualTracker("family")
    rep = CheckReport.from_trackers("check", 1e-6, [t])
    assert rep.verdict == "inconclusive"
