"""Check reports, residual aggregation, and deterministic serialization.

Reports are plain data: every residual family tracks its max, mean and the
worst sample point so a failure can be reproduced with a single-point rerun.
Canonical JSON output sorts keys and renders floats with Python's shortest
round-trip repr, so identical runs serialize byte-identically; wall-clock
times live in an isolated "timings" object excluded from that contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# fail only when clearly out of tolerance; second-derivative noise must not
# produce false negatives
FAIL_FACTOR = 100.0


def verdict_for(residual: float, tol: float) -> str:
    if residual < tol:
        return PASS
    if residual > FAIL_FACTOR * tol:
        return FAIL
    return INCONCLUSIVE


# The worst point moves only when a sample beats the value at the current
# worst point by more than this, relative to max(1, |that value|).
WORST_POINT_RTOL = 1e-12


class ResidualTracker:
    """Max/mean/worst-point accumulator.

    samples counts update calls; count counts the components the mean is
    taken over (update_many adds one sample of many components).
    max is the true maximum. The worst point is the first point whose value
    is within WORST_POINT_RTOL of it: a later sample takes over only when it
    is clearly larger, so a family that is constant up to roundoff keeps its
    first point instead of one picked by summation order.
    """

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.worst_point = None
        self._at_worst = 0.0  # the value at worst_point

    def update(self, value: float, point=None):
        v = float(abs(value))
        if not math.isfinite(v):  # a NaN must fail, not vanish from the max
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
                self.worst_point = tuple(float(x) for x in np.atleast_1d(point))

    @classmethod
    def from_points(cls, name, values, points):
        """A tracker fed one sample per point, in point order; a sample
        given as an array of components goes through update_many."""
        t = cls(name)
        feed = t.update if np.ndim(values) == 1 else t.update_many
        for v, p in zip(values, points):
            feed(v, p)
        return t

    @classmethod
    def point_major(cls, name, r, points, keep=None):
        """A tracker fed r[argument, point, ...] point by point, arguments
        in order within a point. Axes after the points axis are the
        components of one sample (see from_points); keep[argument, point],
        when given, drops the samples where it is False."""
        if len(r) == 0:
            return cls(name)
        r = np.asarray(r, dtype=float)
        vals = r.swapaxes(0, 1).reshape((-1,) + r.shape[2:])
        pts = np.repeat(points, r.shape[0], 0)
        if keep is not None:
            k = np.asarray(keep).swapaxes(0, 1).ravel()
            vals, pts = vals[k], pts[k]
        return cls.from_points(name, vals, pts)

    def update_many(self, values, point=None):
        arr = np.abs(np.asarray(values, dtype=float)).ravel()
        if arr.size == 0:
            return
        top = float(np.max(arr))
        self.update(top, point)  # a non-finite top enters the total as inf
        # count every component toward the mean
        self.count += arr.size - 1
        if math.isfinite(top):
            self.total += float(np.sum(arr)) - top

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def summary(self):
        return {
            "max_residual": self.max,
            "mean_residual": self.mean,
            "samples": self.samples,
            "worst_point": list(self.worst_point) if self.worst_point else None,
        }


@dataclass
class CheckReport:
    """Residual statistics and verdict for one named identity family."""

    name: str
    tolerance: float
    max_residual: float
    mean_residual: float
    worst_point: tuple | None
    verdict: str
    details: dict = field(default_factory=dict)

    @staticmethod
    def from_trackers(name, tol, trackers, verdict=None, details=None):
        """Report over trackers; inconclusive if any family has no sample."""
        if not trackers or any(t.count == 0 for t in trackers):
            verdict = INCONCLUSIVE
        worst = max(trackers, key=lambda t: t.max) if trackers else None
        max_res = worst.max if worst else 0.0
        total = sum(t.total for t in trackers)
        count = sum(t.count for t in trackers)
        det = dict(details or {})
        det["families"] = {t.name: t.summary() for t in trackers}
        return CheckReport(
            name=name,
            tolerance=tol,
            max_residual=max_res,
            mean_residual=(total / count if count else 0.0),
            worst_point=worst.worst_point if worst else None,
            verdict=verdict if verdict is not None else verdict_for(max_res, tol),
            details=det,
        )

    def to_dict(self):
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "verdict": self.verdict,
            "details": self.details,
        }


def _canonical(obj):
    """Recursively convert to JSON-safe plain data with float round-trip."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def canonical_json(data) -> str:
    """Sorted-key compact standard JSON; floats use shortest round-trip repr
    and a non-finite float (the residual of a check that raised, or of a
    NaN sample) is written as null."""
    return json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False) + "\n"


def strip_timings(report_dict):
    out = dict(report_dict)
    out.pop("timings", None)
    return out


TABLE1_HEADER = "S.No. | M1 | M2 | α1 | α2 | β1 | β2 | Harmonicity"


def table1_markdown(rows) -> str:
    """Markdown table for the nine factor-class pairs, in suite row order."""
    lines = [TABLE1_HEADER, " | ".join(["---"] * 8)]
    for r in rows:
        lines.append(" | ".join(str(r[k]) for k in
                                ("no", "m1", "m2", "a1", "a2", "b1", "b2",
                                 "harmonicity")))
    return "\n".join(lines) + "\n"


def _sci(x) -> str:
    """A residual for markdown; a saved report holds null for a non-finite one."""
    return "non-finite" if x is None or not math.isfinite(x) else f"{x:.3e}"


def run_report_markdown(report_dict) -> str:
    lines = ["# Verification report", ""]
    overall = report_dict.get("overall_verdict", "?")
    lines.append(f"Overall: **{overall}**")
    lines.append("")
    lines.append("check | max residual | mean residual | verdict")
    lines.append("--- | --- | --- | ---")
    for chk in report_dict.get("checks", []):
        lines.append(
            f"{chk['name']} | {_sci(chk['max_residual'])} | "
            f"{_sci(chk['mean_residual'])} | {chk['verdict']}")
        if chk.get("details", {}).get("table1_rows"):
            lines.append("")
            lines.append(table1_markdown(chk["details"]["table1_rows"]))
    notes = report_dict.get("notes", [])
    if notes:
        lines.append("")
        lines.append("## Notes")
        for n in notes:
            lines.append(f"- {n}")
    return "\n".join(lines) + "\n"
