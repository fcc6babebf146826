"""One workload run in a fresh interpreter; prints one JSON line.

    python3 -m perfbench.child WORKLOAD SEED SPAWN_TIME [--setup-only]
                               [--trace FILE]

SPAWN_TIME is ``time.monotonic()`` of the parent just before it started
this process, so ``setup_wall_s`` covers interpreter start, ``import
tsgeom`` and ``resolve_manifest``. The run starts once the manifest is
resolved and ends when the canonical report string exists; ``run_wall_s``
is its wall time. ``setup_s`` and ``run_s`` are the same times at the
nominal machine speed of ``perfbench/speed.py``. With
``--trace`` the public functions of every tsgeom module are wrapped before
the manifest is resolved, and the spans are written to FILE at the end.
"""

import hashlib
import json
import resource
import sys
import time

from tsgeom import cli
from tsgeom.report import canonical_json, strip_timings

from perfbench import workloads
from perfbench.expected import failed_checks, load_expected
from perfbench.speed import SpeedProbe, at_nominal_speed, kernel_time
from perfbench.trace import Tracer


def main(argv):
    workload, seed, spawn_time = argv[0], int(argv[1]), float(argv[2])
    trace_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    tracer = None
    if trace_file:
        tracer = Tracer(f"{workload}-seed{seed}")
        tracer.install()
    mf = cli.resolve_manifest(workloads.manifest(workload, seed))
    setup_wall_s = time.monotonic() - spawn_time
    setup = {"setup_wall_s": setup_wall_s,
             "setup_s": at_nominal_speed(setup_wall_s, kernel_time())}
    if "--setup-only" in argv:
        print(json.dumps(setup))
        return 0

    with SpeedProbe() as probe:
        rep = cli.run(mf)
        cli.emit(rep, "json")
    if tracer:
        tracer.uninstall()

    attempted, problems = failed_checks(rep, load_expected()[workload])
    out = {
        **setup,
        "run_wall_s": probe.wall_s(),
        "run_s": probe.scaled(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(
            canonical_json(strip_timings(rep)).encode()).hexdigest(),
        "attempted": attempted,
        "problems": problems,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(trace_file)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
