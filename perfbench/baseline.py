"""Record the benchmark's numbers on this machine across seeds 1 to 10.

    python3 perfbench/baseline.py

Measures every workload of BENCHMARK.json untraced once per seed, and
traced once at seed 1, each for the benchmark's ``run_seconds``, and writes
a fresh ``perfbench/baseline.json``. For every end-to-end metric, and for
the wall times ``run_s`` and ``setup_s`` are scaled from, it records the
ten values, their median and quartiles, and the spread (q3 - q1) / median
beside the bound; it also records the traced per-layer split and the
machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

SEEDS = range(1, 11)
OUT = ROOT / "perfbench" / "baseline.json"
# wall-time figure -> the scaled metric whose bound it is held to
WALL_OF = {"run_wall_s": "run_s", "setup_wall_s": "setup_s"}


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measured(workload, seed, seconds, trace):
    """The metrics of one call by name, and its median wall times."""
    result, wall = run.call(workload, seed, seconds, trace)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread_record(values, unit, bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound, "values": values}


def main() -> int:
    bench = run.benchmark()
    seconds = bench["run_seconds"]
    unit = run.units(bench)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update({wall: bounds[m] for wall, m in WALL_OF.items()})
    record = {"machine": machine(),
              "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    summary = []
    for w in bench["workloads"]:
        workload = w["name"]
        calls = [{**metrics, **wall} for metrics, wall in
                 (measured(workload, seed, seconds, 0) for seed in SEEDS)]
        end_to_end = {}
        for name, bound in bounds.items():
            end_to_end[name] = spread_record(
                [c[name] for c in calls], unit[WALL_OF.get(name, name)],
                bound)
            summary.append(f"{workload:18s} {name:12s} median "
                           f"{end_to_end[name]['median']:.6g} spread "
                           f"{end_to_end[name]['spread']:.4f} bound {bound}")
        layers, _ = measured(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {"seed": SEEDS[0], "metrics": layers},
        }
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
