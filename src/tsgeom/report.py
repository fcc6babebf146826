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
    """Max/mean/worst-point accumulator, fed a stack of samples at a time.

    update_many(values, points) takes values[i] as sample i, at points[i]:
    a 1-D stack holds one scalar per sample, a deeper one an array of
    components per sample. samples counts samples; count counts the
    components the mean is taken over. A sample's value is its top, the
    largest absolute component, or inf when that is not finite (a NaN must
    fail, not vanish from the max).

    The result is bitwise that of feeding the samples one by one:
    - total is one sequential np.cumsum over [prior total, a_0, b_0, a_1,
      b_1, ...], a_i the top of sample i and b_i = np.sum(row) - top over
      its contiguous components; b_i is left out for a scalar or a
      non-finite top.
    - max is the true maximum.
    - The worst point is the first point whose value is within
      WORST_POINT_RTOL of the max: a later sample takes over only when it
      beats the value w at the worst point by more than tol(w) =
      WORST_POINT_RTOL * max(1, w), so a family that is constant up to
      roundoff keeps its first point instead of one picked by summation
      order. Every sample seen so far is at most w + tol(w), so a sample
      that takes over is above the running max of the earlier ones; only
      sample 0 and those samples are walked, and only their points are
      looked up.
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
        """One scalar sample."""
        self.update_many([value], None if point is None else [point])

    def update_many(self, values, points=None, rows=None):
        """A stack of samples; sample i is at points[rows[i]], or at
        points[i] without rows. Samples with no component add nothing."""
        v = np.abs(np.asarray(values, dtype=float))
        if v.size == 0:
            return
        n = v.shape[0]
        if points is not None and rows is None and len(points) != n:
            raise ValueError(f"{n} samples at {len(points)} points")
        scalars = v.ndim == 1
        v = np.ascontiguousarray(v.reshape(n, -1))
        top = np.max(v, axis=1)
        finite = np.isfinite(top)
        top[~finite] = math.inf
        rest = np.subtract(np.sum(v, axis=1), top, out=np.zeros(n),
                           where=finite)
        addends = np.column_stack([top, rest])[np.column_stack(
            [np.ones(n, bool), finite & (not scalars)])]
        self.count += v.size
        first = self.samples == 0
        self.samples += n
        sums = np.cumsum(np.concatenate(([self.total], addends)))
        self.total = float(sums[-1])
        m = float(np.max(top))
        if first or m > self.max:
            self.max = m
        above = np.flatnonzero(top[1:] > np.maximum.accumulate(top)[:-1]) + 1
        for i in [0] + above.tolist():
            t, w = float(top[i]), self._at_worst
            if first or t > w + WORST_POINT_RTOL * max(1.0, w):
                first = False
                self._at_worst = t
                if points is not None:
                    p = points[i if rows is None else rows[i]]
                    self.worst_point = tuple(
                        float(x) for x in np.atleast_1d(p))

    @classmethod
    def from_points(cls, name, values, points):
        """A tracker fed one sample per point, in point order."""
        t = cls(name)
        t.update_many(values, points)
        return t

    @classmethod
    def point_major(cls, name, r, points, keep=None):
        """A tracker fed r[argument, point, ...] point by point, arguments
        in order within a point. Axes after the points axis are the
        components of one sample (see update_many); keep[argument, point],
        when given, drops the samples where it is False."""
        t = cls(name)
        if len(r) == 0:
            return t
        r = np.asarray(r, dtype=float)
        nargs = r.shape[0]
        vals = r.swapaxes(0, 1).reshape((-1,) + r.shape[2:])
        rows = np.arange(vals.shape[0])
        if keep is not None:
            k = np.asarray(keep).swapaxes(0, 1).ravel()
            vals, rows = vals[k], rows[k]
        t.update_many(vals, points, rows // nargs)
        return t

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


def column_trackers(families, points, keep=None):
    """One tracker per family of {name: (p, ..., A) residual stack} over the
    points and A argument tuples, fed point-major with the arguments in
    order (see ResidualTracker.point_major); keep (p, A), when given, drops
    the samples where it is False."""
    return [ResidualTracker.point_major(name, np.moveaxis(r, -1, 0), points,
                                        None if keep is None else keep.T)
            for name, r in families.items()]


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
        total = 0.0
        for t in trackers:  # in order: builtin sum compensates on 3.12+
            total += t.total
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


def _errors_section(records):
    """The "## Errors" lines of the (label, record) pairs whose record holds
    a captured error; none when no record does."""
    lines = [f"- {label}: {rec['error']} "
             f"(raised in `{rec.get('error_origin')}`)"
             for label, rec in records if "error" in rec]
    return ["", "## Errors"] + lines if lines else []


def classification_markdown(rep) -> str:
    """The `classify` table, then the error of each unverified factor."""
    lines = ["factor | alpha | beta | fit residual | class",
             "--- | --- | --- | --- | ---"]
    labelled = []
    for info in rep["classification"]:
        label = f"{info.get('tag')} ({info.get('name')})"
        lines.append(
            f"{label} | {info.get('alpha', '')} | {info.get('beta', '')} | "
            f"{info.get('fit_residual', '')} | {info.get('class')}")
        labelled.append((label, info))
    lines += _errors_section(labelled)
    return "\n".join(lines) + "\n"


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
    lines += _errors_section((chk["name"], chk.get("details", {}))
                             for chk in report_dict.get("checks", []))
    notes = report_dict.get("notes", [])
    if notes:
        lines.append("")
        lines.append("## Notes")
        for n in notes:
            lines.append(f"- {n}")
    return "\n".join(lines) + "\n"
