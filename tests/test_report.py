import math

import numpy as np

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


def _feed(values):
    return ResidualTracker.from_points(
        "family", values, [[float(i)] for i in range(len(values))])


def test_constant_family_keeps_its_first_worst_point():
    # the same value up to roundoff at every point, largest at point 3
    base = 16.0
    t = _feed([base, base + 3e-15, base - 2e-15, base + 7e-15, base])
    assert t.max == base + 7e-15  # max is still the true maximum
    assert t.worst_point == (0.0,)


def test_noise_level_family_keeps_its_first_worst_point():
    t = _feed([1e-16, 4e-16, 9e-16, 2e-15, 3e-16])
    assert t.max == 2e-15
    assert t.worst_point == (0.0,)


def test_clear_gain_moves_the_worst_point():
    t = _feed([1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.0 + 2.5e-12, 0.5])
    assert t.worst_point == (2.0,)  # beats 1.0 by more than 1e-12
    assert t.max == 1.0 + 2.5e-12   # within 1e-12 of point 2: no move
    big = _feed([1e6, 1e6 + 1e-7, 1e6 + 2e-6])
    assert big.worst_point == (2.0,)  # the threshold is relative above 1
    assert _feed([1e6, 1e6 + 1e-7]).worst_point == (0.0,)


def test_samples_count_updates_not_components():
    t = ResidualTracker("family")
    t.update(1.0, [0.0])
    t.update_many([1.0, 2.0, 3.0], [1.0])
    assert (t.samples, t.count) == (2, 4)
    assert t.summary()["samples"] == 2
    assert ResidualTracker("empty").summary()["samples"] == 0


def test_nan_component_counts_as_inf_in_max_and_mean():
    one = ResidualTracker("family")
    one.update(float("nan"), [0.0])
    many = ResidualTracker("family")
    many.update_many([1.0, float("nan")], [0.0])
    for t in (one, many):
        assert t.max == t.mean == math.inf


def test_point_major_feed_pairs_each_value_with_its_point():
    # r[argument, point]: the largest value is argument 0 at point 1
    t = ResidualTracker.point_major("family", [[0.0, 5.0], [1.0, 0.0]],
                                    np.array([[10.0], [20.0]]))
    assert (t.max, t.worst_point, t.samples) == (5.0, (20.0,), 4)


def test_point_major_components_and_skip_mask():
    # r[argument, point, component]; argument 1 is dropped at point 0
    r = np.array([[[1.0, -2.0], [0.5, 0.5]],
                  [[9.0, 9.0], [3.0, 4.0]]])
    keep = np.array([[True, True], [False, True]])
    points = np.array([[10.0], [20.0]])
    t = ResidualTracker.point_major("family", r, points, keep)
    want = ResidualTracker("family")
    for v, p in (([1.0, -2.0], [10.0]), ([0.5, 0.5], [20.0]),
                 ([3.0, 4.0], [20.0])):
        want.update_many(v, p)
    assert t.summary() == want.summary()
    assert (t.samples, t.count, t.worst_point) == (3, 6, (20.0,))
