"""Expected answers per workload, and the check of a report against them.

The answers are the verdict of every check, the matched-variant lists
(``matched`` per family and ``deltaJ_matched``) and the Table 1 column.
They are properties of the geometry, not of the sampled points, so they
hold at every seed. ``expected.json`` beside this file holds them.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def answers(report_dict) -> dict:
    """The seed-independent answers of a report, keyed by check name."""
    out = {}
    for chk in report_dict["checks"]:
        det = chk.get("details") or {}
        ans = {"verdict": chk["verdict"]}
        matched = {fam: info["matched"]
                   for fam, info in det.get("variant_adjudication", {}).items()}
        if "matched" in det:
            matched["codifferential"] = det["matched"]
        if "deltaJ_matched" in det:
            matched["deltaJ"] = det["deltaJ_matched"]
        if matched:
            ans["matched"] = matched
        if "table1_rows" in det:
            ans["table1"] = [r["harmonicity"] for r in det["table1_rows"]]
        out[chk["name"]] = ans
    return out


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def failed_checks(report_dict, expected: dict) -> tuple[int, list[str]]:
    """(checks attempted, problems): one problem per failed check.

    A check fails if it carries a captured ``error``, if it is missing or
    unexpected, or if any of its answers differs from the expected one.
    """
    got = answers(report_dict)
    errors = {c["name"]: (c.get("details") or {}).get("error")
              for c in report_dict["checks"]}
    names = sorted(set(got) | set(expected))
    problems = []
    for name in names:
        if errors.get(name):
            problems.append(f"{name}: error {errors[name]}")
        elif name not in got:
            problems.append(f"{name}: missing from the report")
        elif name not in expected:
            problems.append(f"{name}: not expected")
        elif got[name] != expected[name]:
            problems.append(f"{name}: got {got[name]}, expected "
                            f"{expected[name]}")
    return len(names), problems
