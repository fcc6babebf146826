import math

import numpy as np
import pytest

from tsgeom.report import WORST_POINT_RTOL, CheckReport, ResidualTracker


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
    t.update_many([[1.0, 2.0, 3.0]], [[1.0]])
    assert (t.samples, t.count) == (2, 4)
    assert t.summary()["samples"] == 2
    assert ResidualTracker("empty").summary()["samples"] == 0


def test_nan_component_counts_as_inf_in_max_and_mean():
    one = ResidualTracker("family")
    one.update(float("nan"), [0.0])
    many = ResidualTracker("family")
    many.update_many([[1.0, float("nan")]], [[0.0]])
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
        want.update_many([v], [p])
    assert t.summary() == want.summary()
    assert (t.samples, t.count, t.worst_point) == (3, 6, (20.0,))


class _SequentialTracker(ResidualTracker):
    """The one-sample-at-a-time feed that the batched update_many replaced,
    kept as its bitwise oracle."""

    def update(self, value, point=None):
        v = float(abs(value))
        if not math.isfinite(v):
            v = math.inf
        first = self.count == 0
        self.samples += 1
        self.count += 1
        self.total += v
        if first or v > self.max:
            self.max = v
        w = self._at_worst
        if first or v > w + WORST_POINT_RTOL * max(1.0, w):
            self._at_worst = v
            if point is not None:
                self.worst_point = tuple(
                    float(x) for x in np.atleast_1d(point))

    def update_one(self, values, point=None):
        arr = np.abs(np.asarray(values, dtype=float)).ravel()
        if arr.size == 0:
            return
        top = float(np.max(arr))
        self.update(top, point)
        self.count += arr.size - 1
        if math.isfinite(top):
            self.total += float(np.sum(arr)) - top

    def feed(self, values, points):
        one = self.update if np.ndim(values) == 1 else self.update_one
        for v, p in zip(values, points):
            one(v, p)
        return self


def _state(t):
    return (t.max, t.total, t.count, t.samples, t.worst_point, t._at_worst,
            t.summary())


def _assert_bitwise(values, points=None):
    """Batched from_points, and the same stack fed in 2 and 7 chunks onto
    one tracker, against the sequential feed."""
    values = np.asarray(values, dtype=float)
    if points is None:
        points = np.arange(len(values), dtype=float)[:, None] / 8.0
    want = _state(_SequentialTracker("f").feed(values, points))
    assert _state(ResidualTracker.from_points("f", values, points)) == want
    for chunks in (2, 7):
        t = ResidualTracker("f")
        for idx in np.array_split(np.arange(len(values)), chunks):
            t.update_many(values[idx], points[idx])
        assert _state(t) == want, chunks


TIE = 1.0 + WORST_POINT_RTOL  # 1 + tol(1), exactly the tie bound
BIG = 1e6 + WORST_POINT_RTOL * 1e6


@pytest.mark.parametrize("case", [
    "random", "random_scaled", "increasing", "constant", "noise",
    "ties_below_one", "ties_above_one", "nonfinite"])
def test_batched_scalars_are_bitwise_the_sequential_feed(case):
    rng = np.random.default_rng(7)
    values = {
        "random": rng.standard_normal(64),
        "random_scaled": rng.standard_normal(64) * 10.0 ** rng.integers(
            -16, 16, 64),
        "increasing": np.cumsum(rng.random(64)),
        "constant": 16.0 + rng.integers(-8, 9, 64) * np.spacing(16.0),
        "noise": rng.random(64) * 1e-15,
        "ties_below_one": [0.5, 1.0, TIE, np.nextafter(TIE, 2.0), 1.0,
                           np.nextafter(TIE, 0.0), TIE + 1e-12],
        "ties_above_one": [1e6, BIG, np.nextafter(BIG, 2e6), BIG, 1e6,
                           np.nextafter(BIG, 2e6) + 2e-6, -3e6],
        "nonfinite": [1.0, np.nan, 2.0, np.inf, -np.inf, 3.0, np.nan, 0.0],
    }[case]
    _assert_bitwise(values)


@pytest.mark.parametrize("width", [1, 3, 9, 36, 130])
def test_batched_components_are_bitwise_the_sequential_feed(width):
    rng = np.random.default_rng(width)
    values = rng.standard_normal((64, width)) * 10.0 ** rng.integers(
        -8, 8, (64, 1))
    _assert_bitwise(values)
    _assert_bitwise(values.reshape(64, width, 1))
    _assert_bitwise(np.full((64, width), 0.25) + rng.integers(
        -4, 5, (64, width)) * np.spacing(0.25))
    # stacks whose samples are not contiguous in memory
    _assert_bitwise(rng.standard_normal((16, 3, width)).swapaxes(1, 2))
    _assert_bitwise(rng.standard_normal((width, 64)).T)


def test_batched_nonfinite_and_tied_components():
    nan, inf = np.nan, np.inf
    _assert_bitwise([[1.0, 2.0], [nan, 1.0], [3.0, -inf], [inf, nan],
                     [4.0, 4.0], [-2.0, 1.0]])
    _assert_bitwise([[1.0, TIE], [TIE, 0.0], [np.nextafter(TIE, 2.0), 1.0],
                     [0.0, TIE + 1e-12]])


def test_zero_size_stacks_add_nothing():
    for values in (np.zeros(0), np.zeros((0, 3)), np.zeros((5, 0)),
                   np.zeros((5, 2, 0))):
        points = np.zeros((len(values), 1))
        t = ResidualTracker.from_points("f", values, points)
        assert _state(t) == _state(ResidualTracker("f"))
        _assert_bitwise(values)


@pytest.mark.parametrize("components", [(), (3,), (2, 2)])
def test_point_major_is_bitwise_the_repeated_point_feed(components):
    rng = np.random.default_rng(3)
    r = rng.standard_normal((3, 21) + components)
    r[1, 4] = np.nan
    points = rng.random((21, 2))
    for keep in (None, rng.random((3, 21)) < 0.6,
                 np.zeros((3, 21), bool)):
        vals = r.swapaxes(0, 1).reshape((-1,) + components)
        pts = np.repeat(points, 3, 0)
        if keep is not None:
            k = keep.swapaxes(0, 1).ravel()
            vals, pts = vals[k], pts[k]
        want = _SequentialTracker("f").feed(vals, pts)
        got = ResidualTracker.point_major("f", r, points, keep)
        assert _state(got) == _state(want)


def test_from_points_needs_one_point_per_sample():
    with pytest.raises(ValueError):
        ResidualTracker.from_points("f", np.ones(4), np.zeros((3, 1)))


def test_each_family_is_fed_in_one_call(monkeypatch):
    calls = {"update": 0, "update_many": 0}
    for name in calls:
        inner = getattr(ResidualTracker, name)

        def counted(self, *args, _inner=inner, _name=name, **kw):
            calls[_name] += 1
            return _inner(self, *args, **kw)
        monkeypatch.setattr(ResidualTracker, name, counted)
    rng = np.random.default_rng(0)
    points = rng.random((64, 3))
    feeds = [
        lambda: ResidualTracker.from_points("f", rng.random(64), points),
        lambda: ResidualTracker.from_points("f", rng.random((64, 3, 3)),
                                            points),
        lambda: ResidualTracker.point_major("f", rng.random((2, 32)),
                                            points[:32]),
        lambda: ResidualTracker.point_major("f", rng.random((2, 32, 4)),
                                            points[:32],
                                            rng.random((2, 32)) < 0.5),
    ]
    for feed in feeds:
        before = calls["update_many"]
        assert feed().samples > 0
        assert calls["update_many"] == before + 1
    assert calls["update"] == 0


def test_mean_adds_family_totals_in_order():
    # compensated summation (builtin sum on Python >= 3.12) gives 1e16 + 2
    trackers = [ResidualTracker.from_points(n, [v], [[0.0]])
                for n, v in (("a", 1e16), ("b", 1.0), ("c", 1.0))]
    rep = CheckReport.from_trackers("check", 1e-6, trackers)
    assert rep.mean_residual == (((0.0 + 1e16) + 1.0) + 1.0) / 3
    assert rep.mean_residual != math.fsum([1e16, 1.0, 1.0]) / 3
