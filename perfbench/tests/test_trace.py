"""Self-time arithmetic, wrapper coverage and the traced/untraced contract."""

import hashlib
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli
from tsgeom.report import canonical_json, strip_timings

from perfbench.trace import MODULES, SPANS, Tracer, covered_time, self_times
from perfbench.workloads import manifest

POINTS = 4

# count -> the workload whose end-to-end time it should move
COVERAGE = {
    "fd_crosscheck": ["expr.jet_calls", "expr.value_nodes"],
    "closed_form_sweep": [
        "expr.parse_calls", "geom.field_eval_calls",
        "riemann.metricdata_builds", "riemann.residual_norm_calls",
        "contact.report_calls", "product.build_calls",
        "product.productdata_builds", "product.variant_calls",
        "report.tracker_updates"],
    "verify_canonical": ["geom.pullback_calls", "geom.pullback_det_calls",
                         "contact.report_calls"],
    "table1": ["riemann.frame_calls", "riemann.cov_calls",
               "riemann.residual_norm_calls", "harmonic.pointwise_calls"],
}


def test_covered_time_is_a_clipped_union():
    assert covered_time(0.0, 10.0, []) == 0.0
    assert covered_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered_time(0.0, 10.0, [(8.0, 12.0), (-2.0, 1.0)]) == 3.0
    assert covered_time(0.0, 10.0, [(2.0, 3.0), (5.0, 7.0)]) == 3.0
    assert covered_time(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a.inner", 2.0, 3.5, 1],
    ]
    assert self_times(spans) == [3.0, 1.5, 4.0, 1.5]
    assert sum(self_times(spans)) == 10.0


def test_tracer_links_nested_spans():
    tr = Tracer("t")
    outer = tr.open("cli.run")
    inner = tr.open("expr.jet")
    tr.close(inner)
    tr.close(outer)
    assert [s[3] for s in tr.spans] == [-1, 0]
    assert tr.spans[0][1] <= tr.spans[1][1] <= tr.spans[1][2] <= tr.spans[0][2]


def _originals():
    mods = {m: importlib.import_module(f"tsgeom.{m}") for m in MODULES}
    out = []
    for mod_name, spans in SPANS.items():
        for names in spans.values():
            for name in names:
                if "." not in name:
                    out.append((mod_name, name,
                                getattr(mods[mod_name], name)))
    return mods, out


def test_install_rebinds_from_imports_and_uninstall_restores():
    mods, originals = _originals()
    det = np.linalg.det
    tr = Tracer("t")
    tr.install()
    try:
        for _, name, fn in originals:
            for mod in mods.values():
                assert all(v is not fn for v in vars(mod).values()), (
                    f"{mod.__name__} still binds the unwrapped {name}")
        assert mods["harmonic"].ProductData is mods["product"].ProductData
        assert np.linalg.det is not det
    finally:
        tr.uninstall()
    assert np.linalg.det is det
    for mod_name, name, fn in originals:
        assert getattr(mods[mod_name], name) is fn
    assert mods["cli"].astheno_residual is mods["harmonic"].astheno_residual


def _run(name, tracer=None):
    if tracer:
        tracer.install()
    try:
        rep = cli.run(cli.resolve_manifest(manifest(name, 3, points=POINTS)))
        cli.emit(rep, "json")
    finally:
        if tracer:
            tracer.uninstall()
    return hashlib.sha256(
        canonical_json(strip_timings(rep)).encode()).hexdigest()


@pytest.fixture(scope="module")
def traced():
    """name -> (untraced digest, traced digest, layer metrics)."""
    out = {}
    for name in COVERAGE:
        tr = Tracer(name)
        traced_digest = _run(name, tr)
        out[name] = (_run(name), traced_digest, tr.metrics())
    return out


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_mapped_counts_are_nonzero(traced, name):
    _, _, layers = traced[name]
    for count in COVERAGE[name]:
        assert layers[count] > 0, count
    assert layers["cli.resolve_s"] > 0
    assert layers["report.serialize_s"] > 0
    assert layers["expr.jet_rows_per_call"] >= 1


@pytest.mark.parametrize("name", ["closed_form_sweep", "table1",
                                  "fd_crosscheck"])
def test_no_pullback_dets_off_the_astheno_workload(traced, name):
    assert traced[name][2]["geom.pullback_det_calls"] == 0
    assert traced[name][2]["geom.pullback_calls"] == 0


def test_pullback_spans_carry_the_astheno_time(traced):
    layers = traced["verify_canonical"][2]
    assert layers["geom.pullback_self_s"] > 0
    assert layers["harmonic.astheno_self_s"] > 0


@pytest.mark.parametrize("name", sorted(COVERAGE))
def test_tracing_leaves_the_report_unchanged(traced, name):
    untraced_digest, traced_digest, _ = traced[name]
    assert untraced_digest == traced_digest


def test_counts_repeat_between_traced_runs(traced):
    tr = Tracer("again")
    _run("closed_form_sweep", tr)
    again = tr.metrics()
    first = traced["closed_form_sweep"][2]
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}


def test_run_without_tsgeom_source_fails_without_a_result(tmp_path):
    here = Path(__file__).resolve().parents[1]
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seconds_above_the_cap_are_refused():
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "101", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
