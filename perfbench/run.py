"""The tsgeom benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every workload run happens in a
fresh single-threaded interpreter (``perfbench/child.py``) that resolves
the workload's manifest through ``tsgeom.cli`` and then runs ``cli.run``
and ``cli.emit``. Runs repeat until S seconds have passed (at least
MIN_RUNS of them); S may be at most MAX_SECONDS. Every report is checked
against the workload's expected answers, and the canonical JSON without
``timings`` must have one digest across all runs of the call.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` runs alternate untraced and traced, and the last line carries
the per-layer metrics of the traced runs plus the tracing overhead. Spans
of the last traced run go to ``.perfbench_out/``. The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, manifest  # noqa: E402

MIN_RUNS = 3
SETUP_PROBES = 8
# the longest --seconds accepted, so a call ends well within three minutes
MAX_SECONDS = 100.0
CHILD_TIMEOUT_S = 150.0
OUT_DIR = ROOT / ".perfbench_out"


class RunFailed(Exception):
    pass


def benchmark() -> dict:
    """BENCHMARK.json, which holds the workloads' descriptions, the metrics'
    units and the bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(bench) -> dict:
    """Metric name -> unit, for every metric of ``bench``."""
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload, seed, *, setup_only=False, trace_file=None) -> dict:
    """Start one fresh interpreter for one workload run; return its record."""
    cmd = [sys.executable, "-m", "perfbench.child", workload, str(seed)]
    extra = ["--setup-only"] if setup_only else []
    if trace_file:
        extra += ["--trace", str(trace_file)]
    spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawn)] + extra, cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunFailed(f"run of {workload} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def show(name, values, unit_):
    q1, med, q3 = quartiles(values)
    print(f"  {name:34s} median {med:.6g} {unit_}  q1 {q1:.6g}  q3 {q3:.6g}"
          f"  min {min(values):.6g}  n={len(values)}")
    return med


def measure(workload, seed, seconds, trace):
    """Run until ``seconds`` have passed; returns (untraced, traced, probes)."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload}_seed{seed}.json"
    run_child(workload, seed, setup_only=True)  # fills the bytecode cache
    start = time.monotonic()
    plain, traced = [], []
    while True:
        if trace:
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    traced.append(run_child(workload, seed,
                                            trace_file=trace_file))
                else:
                    plain.append(run_child(workload, seed))
        else:
            plain.append(run_child(workload, seed))
        enough = len(plain) >= (1 if trace else MIN_RUNS)
        if enough and time.monotonic() - start >= seconds:
            break
    probes = [run_child(workload, seed, setup_only=True)
              for _ in range(SETUP_PROBES)]
    return plain, traced, probes


def call(workload, seed, seconds, trace):
    """Measure one workload for ``seconds`` and print its figures.

    Returns the fields of the result line, and the medians of the wall
    times that ``run_s`` and ``setup_s`` are scaled from.
    """
    bench = benchmark()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    unit = units(bench)
    mf = manifest(workload, seed)
    print(f"workload {workload}: {why[workload]}")
    print(f"  seed {seed}, {mf['sampling']['count']} points, checks "
          f"{','.join(mf['checks'])}; fresh single-threaded process per run")
    plain, traced, probes = measure(workload, seed, seconds, trace)

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["problems"]) for r in runs)
    for problem in sorted({p for r in runs for p in r["problems"]}):
        print(f"wrong answer: {problem}", file=sys.stderr)
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        print(f"error: {len(digests)} different report digests for one "
              f"workload and seed", file=sys.stderr)
    correct = failed == 0 and len(digests) == 1

    print("end to end (untraced runs):")
    wall = {
        "run_wall_s": show("run_wall_s", [r["run_wall_s"] for r in plain],
                           "s"),
        "setup_wall_s": show("setup_wall_s",
                             [r["setup_wall_s"] for r in plain + probes],
                             "s"),
    }
    metrics = {}
    for name, values in (
            ("run_s", [r["run_s"] for r in plain]),
            ("setup_s", [r["setup_s"] for r in plain + probes]),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in plain])):
        metrics[name] = {"value": show(name, values, unit[name]),
                         "unit": unit[name]}
    metrics["passed_frac"] = {"value": 1.0 - failed / attempted,
                              "unit": unit["passed_frac"]}
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}"
          f" (passed_frac {metrics['passed_frac']['value']:.6g})")

    if trace:
        layer_runs = [r["layers"] for r in traced]
        print(f"per layer (traced runs, spans in {OUT_DIR.name}/):")
        layers = {}
        for name in layer_runs[0]:
            values = [lr[name] for lr in layer_runs]
            if not (name.endswith("_s") or len(set(values)) == 1):
                print(f"error: count {name} differs between traced runs: "
                      f"{values}", file=sys.stderr)
                correct = False
            layers[name] = {"value": show(name, values, unit[name]),
                            "unit": unit[name]}
        # runs alternate, so each traced run is paired with the untraced
        # run next to it in time
        overhead = statistics.median(
            t["run_s"] / p["run_s"] for t, p in zip(traced, plain)) - 1.0
        layers["trace.overhead_frac"] = {
            "value": overhead, "unit": unit["trace.overhead_frac"]}
        print(f"  {'trace.overhead_frac':34s} {overhead:.6g} ratio")
        metrics = layers

    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tsgeom" / "__init__.py").is_file():
        print(f"error: no tsgeom source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be above 0 and at most {MAX_SECONDS:g}",
              file=sys.stderr)
        return 2
    try:
        result, _ = call(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
