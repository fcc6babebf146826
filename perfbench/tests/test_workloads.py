"""The seeded workload generator and the expected-answer check."""

import copy
from pathlib import Path

import pytest

from tsgeom import cli

from perfbench.expected import answers, failed_checks, load_expected
from perfbench.workloads import WORKLOADS, manifest, sampling_seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_manifest(name):
    assert manifest(name, 5) == manifest(name, 5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_the_sampling_seed(name):
    a, b = manifest(name, 5), manifest(name, 6)
    assert a["sampling"]["seed"] != b["sampling"]["seed"]
    a.pop("sampling")
    b.pop("sampling")
    assert a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_resolves_through_the_public_api(name):
    mf = cli.resolve_manifest(manifest(name, 1234))
    assert mf["seed"] == 1234
    assert mf["count"] == WORKLOADS[name]["points"]
    assert mf["checks"] == WORKLOADS[name]["manifest"]["checks"]


def test_manifest_is_a_copy():
    raw = manifest("closed_form_sweep", 1)
    raw["factors"][1]["custom"]["g"][0][0] = "2"
    assert manifest("closed_form_sweep", 1)["factors"][1]["custom"]["g"][0][0] == "1"


def test_points_override_and_seed_range():
    assert manifest("table1", 1, points=4)["sampling"]["count"] == 4
    assert 0 <= sampling_seed(-3) < 2**32
    assert sampling_seed(7) == 7


def test_canonical_workload_matches_its_manifest_file():
    """verify_canonical is manifests/verify_builtin_pair.json at its seed."""
    root = Path(__file__).resolve().parents[2]
    mf = cli.load_manifest(root / "manifests" / "verify_builtin_pair.json")
    ours = cli.resolve_manifest(manifest("verify_canonical", mf["seed"]))
    for key in ("ab_grid", "checks", "count", "seed", "mode", "tol"):
        assert ours[key] == mf[key]


def test_expected_answers_cover_every_workload():
    expected = load_expected()
    assert sorted(expected) == sorted(WORKLOADS)
    assert expected["verify_canonical"]["astheno[a=1,b=1]"] == {
        "verdict": "fail"}
    assert expected["table1"]["table1"]["table1"] == ["Yes"] * 9


REPORT = {"checks": [
    {"name": "axioms[f1]", "verdict": "pass", "details": {}},
    {"name": "connection[a=1,b=1]", "verdict": "pass", "details": {
        "variant_adjudication": {"nabla_X1_Y1": {"matched": ["koszul"]}}}},
    {"name": "harmonicity[a=1,b=1]", "verdict": "harmonic",
     "details": {"deltaJ_matched": ["koszul"]}},
]}


def test_failed_checks_counts_each_kind_of_failure():
    expected = answers(REPORT)
    assert failed_checks(REPORT, expected) == (3, [])

    wrong = copy.deepcopy(REPORT)
    wrong["checks"][0]["details"]["error"] = "LinAlgError: singular"
    wrong["checks"][1]["details"]["variant_adjudication"]["nabla_X1_Y1"][
        "matched"] = []
    wrong["checks"][2]["verdict"] = "not-harmonic"
    attempted, problems = failed_checks(wrong, expected)
    assert attempted == 3 and len(problems) == 3

    missing = copy.deepcopy(REPORT)
    missing["checks"].pop()
    assert failed_checks(missing, expected)[1] == [
        "harmonicity[a=1,b=1]: missing from the report"]

