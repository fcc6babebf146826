"""Seeded workload generator: one tsgeom manifest per workload and seed.

Each workload is a raw manifest dict, handed to ``cli.resolve_manifest``
exactly as a user's JSON file would be. The benchmark seed only sets the
sampling seed, so every seed runs the same checks at the same point count
and only the sampled chart points change.
"""

from __future__ import annotations

import copy

# The custom factor of manifests/custom_kenmotsu_beta2.json, copied so that
# the workload does not change when the example manifest does.
KENMOTSU_BETA2 = {
    "name": "kenmotsu_beta2",
    "dim": 3,
    "coords": ["t", "x", "y"],
    "g": [["1", "0", "0"], ["0", "exp(4*t)", "0"], ["0", "0", "exp(4*t)"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
    "alpha": "0",
    "beta": "2",
}

ALL_BUT_ASTHENO_TABLE1 = [
    "axioms", "trans_sasakian", "transverse", "connection", "nabla_j",
    "curvature", "integrability", "codifferential", "harmonicity", "energy",
]

WORKLOADS = {
    "verify_canonical": {
        "points": 64,
        "manifest": {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "kenmotsu_warped"}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["axioms", "trans_sasakian", "transverse",
                       "connection", "nabla_j", "curvature",
                       "integrability", "codifferential", "harmonicity",
                       "astheno", "energy"],
            "numerics": {"mode": "jet", "tol": 1e-6},
        },
    },
    "closed_form_sweep": {
        "points": 32,
        "manifest": {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"custom": KENMOTSU_BETA2}],
            "checks": ALL_BUT_ASTHENO_TABLE1,
        },
    },
    "table1": {
        "points": 64,
        "manifest": {
            "factors": [{"builtin": "cosymplectic_flat"},
                        {"builtin": "cosymplectic_flat"}],
            "checks": ["table1"],
        },
    },
    "fd_crosscheck": {
        "points": 32,
        "manifest": {
            "factors": [{"builtin": "kenmotsu_warped"},
                        {"builtin": "sasakian_heisenberg"}],
            "product": {"a": 0.5, "b": -1.0},
            "checks": ["axioms", "trans_sasakian", "nabla_j", "curvature",
                       "codifferential", "harmonicity"],
            "numerics": {"mode": "fd"},
        },
    },
}


def sampling_seed(seed: int) -> int:
    """The sampling seed a benchmark seed maps to (numpy needs >= 0)."""
    return int(seed) % 2**32


def manifest(name: str, seed: int, points: int | None = None) -> dict:
    """The raw manifest of workload ``name`` at benchmark seed ``seed``.

    ``points`` overrides the workload's sample count; the tests use it to
    run the workloads small.
    """
    spec = WORKLOADS[name]
    raw = copy.deepcopy(spec["manifest"])
    raw["sampling"] = {"count": points or spec["points"],
                       "seed": sampling_seed(seed)}
    return raw
