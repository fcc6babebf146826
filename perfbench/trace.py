"""Spans and counts around the public functions of each tsgeom module.

The traced run wraps functions from outside the program: ``install``
rebinds every module attribute and class attribute that refers to a
wrapped function, which covers names bound by ``from``-imports (``cli``
imports ``astheno_residual`` and the report functions that way, and
``harmonic`` imports ``ProductData`` and ``build_product``). Spans and
counts stay in memory until the run ends; ``write`` then stores the spans.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or -1. A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "contact", "expr", "geom", "harmonic", "product", "report",
           "riemann")

# module -> {span name: [functions or Class.methods]}. Each span name starts
# with the layer it belongs to.
SPANS = {
    "expr": {
        "expr.jet": ["Evaluator.jet"],
        "expr.value": ["Evaluator.value"],
        "expr.parse": ["parse"],
    },
    "geom": {
        "geom.field_eval": ["eval_scalar", "eval_vector", "eval_endo",
                            "eval_oneform", "eval_metric"],
        "geom.pullback": ["endo_pullback", "endo_pullback_jet"],
        "geom.forms": ["eval_form", "exterior_derivative",
                       "exterior_derivative_jet", "_d_from_grads",
                       "_d_from_grads_and_hess", "d_of_jet_form",
                       "wedge_values", "wedge_fields", "wedge_power_field",
                       "pair_form_vectors"],
    },
    "riemann": {
        "riemann.metricdata": ["MetricData.__init__"],
        "riemann.curvature": ["MetricData.riemann", "curvature_values",
                              "curvature", "curvature_via_definition"],
        "riemann.cov": ["christoffel", "cov_vector_at", "cov_vector_jet",
                        "nabla_endo_all", "covariant_derivative_vector",
                        "covariant_derivative_endo", "second_cov_endo_const",
                        "second_covariant_derivative_endo"],
        "riemann.frame": ["orthonormal_frame", "orthonormal_frame_within"],
        "riemann.residual_norm": ["vector_residual_norm",
                                  "endo_residual_norm"],
    },
    "contact": {
        "contact.report": ["validate_axioms", "normality_residual",
                           "estimate_alpha_beta", "verify_trans_sasakian",
                           "transverse_properties_report",
                           "transverse_curvature_report",
                           "phi_curvature_commutation_residual",
                           "factor_class_report"],
    },
    "product": {
        "product.build": ["build_product"],
        "product.productdata": ["ProductData.__init__"],
        "product.variant": ["connection_variants", "nabla_j_variants",
                            "curvature_variants"],
        "product.report": ["connection_closed_form_report", "nabla_J_report",
                           "curvature_closed_form_report",
                           "integrability_report",
                           "product_invariants_report"],
    },
    "harmonic": {
        "harmonic.pointwise": ["codifferential_J", "nabla_deltaJ_J",
                               "chern_ricci_P", "rough_laplacian_J",
                               "sufficient_condition_tensors",
                               "dirichlet_energy_density", "ddc_scalar",
                               "mixed_frame", "delta_and_P_with_frame"],
        "harmonic.report": ["harmonicity_report", "codifferential_report",
                            "energy_report", "table1_suite"],
        "harmonic.astheno": ["astheno_residual"],
    },
    "report": {
        "report.tracker": ["ResidualTracker.update",
                           "ResidualTracker.update_many"],
        "report.serialize": ["canonical_json"],
    },
    "cli": {
        "cli.resolve": ["resolve_manifest"],
        "cli.run": ["run"],
        "cli.emit": ["emit"],
    },
}

# span name -> count incremented on every call
CALL_COUNTS = {
    "expr.jet": "expr.jet_calls",
    "expr.parse": "expr.parse_calls",
    "geom.field_eval": "geom.field_eval_calls",
    "geom.pullback": "geom.pullback_calls",
    "riemann.metricdata": "riemann.metricdata_builds",
    "riemann.cov": "riemann.cov_calls",
    "riemann.frame": "riemann.frame_calls",
    "riemann.residual_norm": "riemann.residual_norm_calls",
    "contact.report": "contact.report_calls",
    "product.build": "product.build_calls",
    "product.productdata": "product.productdata_builds",
    "product.variant": "product.variant_calls",
    "harmonic.pointwise": "harmonic.pointwise_calls",
    "report.tracker": "report.tracker_updates",
}

def covered_time(start, end, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus what its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_time(start, end, children.get(i, ()))
            for i, (_, start, end, _) in enumerate(spans)]


def _points_key(points):
    pts = np.ascontiguousarray(points, dtype=float)
    return pts.shape, hashlib.blake2b(pts.tobytes(), digest_size=8).digest()


def _rows(points):
    pts = np.asarray(points)
    return 1 if pts.ndim <= 1 else pts.size // pts.shape[-1]


class Tracer:
    """Spans, counts and the patches that record them, for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._pullback_depth = 0
        self._unique = defaultdict(set)
        self._by_id = {}  # id(obj) -> (obj, key); holding obj keeps id valid
        self._by_content = {}

    # -- spans ------------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- keys for the unique ratios -----------------------------------------

    def _key(self, obj):
        """Content key of a hashable object, identity key otherwise."""
        hit = self._by_id.get(id(obj))
        if hit is None:
            try:
                key = self._by_content.setdefault(obj, len(self._by_content))
            except TypeError:
                key = ("id", id(obj))
            hit = self._by_id[id(obj)] = (obj, key)
        return hit[1]

    def _note(self, span, args):
        """Counts that need the call's arguments."""
        if span == "expr.jet":  # Evaluator.jet(self, e, points)
            self.counts["expr.jet_rows"] += _rows(args[2])
        elif span == "geom.field_eval":  # eval_*(ev, field, points)
            self._unique[span].add((self._key(args[1]),
                                    _points_key(args[2])))
        elif span == "riemann.metricdata":  # (self, ev, g, points)
            self._unique[span].add((self._key(args[2]),
                                    _points_key(args[3])))
        elif span == "product.productdata":  # (self, ev, P, points)
            self._unique["product.products"].add(self._key(args[2]))

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, span):
        tracer = self
        count = CALL_COUNTS.get(span)
        noted = span in ("expr.jet", "geom.field_eval", "riemann.metricdata",
                         "product.productdata")
        pullback = span == "geom.pullback"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if noted:
                tracer._note(span, args)
            idx = tracer.open(span)
            if pullback:
                tracer._pullback_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if pullback:
                    tracer._pullback_depth -= 1
                tracer.close(idx)
        return wrapper

    def _counted(self, fn, count, only_in_pullback=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not only_in_pullback or tracer._pullback_depth:
                tracer.counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, mods, original, wrapper):
        """Point every module attribute bound to ``original`` at ``wrapper``."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        """Wrap every function listed in SPANS, plus the two counters."""
        mods = {m: importlib.import_module(f"tsgeom.{m}") for m in MODULES}
        for mod_name, spans in SPANS.items():
            mod = mods[mod_name]
            for span, names in spans.items():
                for name in names:
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(mod, cls_name)
                        self._set(cls, meth,
                                  self._wrap(cls.__dict__[meth], span))
                    else:
                        fn = getattr(mod, name)
                        self._rebind(mods, fn, self._wrap(fn, span))
        # eval_value recurses through its module global, so the count is
        # one per expression node evaluated
        fn = mods["expr"].eval_value
        self._rebind(mods, fn, self._counted(fn, "expr.value_nodes"))
        self._set(np.linalg, "det",
                  self._counted(np.linalg.det, "geom.pullback_det_calls",
                                only_in_pullback=True))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts, ratios and self times of this run."""
        own = self_times(self.spans)
        self_s = defaultdict(float)
        inclusive_s = defaultdict(float)
        for (name, start, end, parent), t in zip(self.spans, own):
            self_s[name] += t
            if parent < 0 or self.spans[parent][0] != name:
                inclusive_s[name] += end - start
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "expr.jet_calls": c["expr.jet_calls"],
            "expr.jet_rows_per_call": ratio(c["expr.jet_rows"],
                                            c["expr.jet_calls"]),
            "expr.value_nodes": c["expr.value_nodes"],
            "expr.parse_calls": c["expr.parse_calls"],
            "expr.self_s": sum(v for k, v in self_s.items()
                               if k.startswith("expr.")),
            "geom.pullback_calls": c["geom.pullback_calls"],
            "geom.pullback_det_calls": c["geom.pullback_det_calls"],
            "geom.pullback_self_s": self_s["geom.pullback"],
            "geom.forms_self_s": self_s["geom.forms"],
            "geom.field_eval_calls": c["geom.field_eval_calls"],
            "geom.field_eval_unique_ratio": ratio(
                len(self._unique["geom.field_eval"]),
                c["geom.field_eval_calls"]),
            "geom.field_eval_self_s": self_s["geom.field_eval"],
            "riemann.metricdata_builds": c["riemann.metricdata_builds"],
            "riemann.metricdata_unique_ratio": ratio(
                len(self._unique["riemann.metricdata"]),
                c["riemann.metricdata_builds"]),
            "riemann.metricdata_self_s": self_s["riemann.metricdata"],
            "riemann.residual_norm_calls": c["riemann.residual_norm_calls"],
            "riemann.residual_norm_self_s": self_s["riemann.residual_norm"],
            "riemann.frame_calls": c["riemann.frame_calls"],
            "riemann.frame_self_s": self_s["riemann.frame"],
            "riemann.curvature_self_s": self_s["riemann.curvature"],
            "riemann.cov_calls": c["riemann.cov_calls"],
            "riemann.cov_self_s": self_s["riemann.cov"],
            "contact.report_calls": c["contact.report_calls"],
            "contact.report_self_s": self_s["contact.report"],
            "product.build_calls": c["product.build_calls"],
            "product.productdata_builds": c["product.productdata_builds"],
            "product.productdata_per_product": ratio(
                c["product.productdata_builds"],
                len(self._unique["product.products"])),
            "product.productdata_self_s": self_s["product.productdata"],
            "product.variant_calls": c["product.variant_calls"],
            "product.variant_self_s": self_s["product.variant"],
            "product.report_self_s": self_s["product.report"],
            "harmonic.pointwise_calls": c["harmonic.pointwise_calls"],
            "harmonic.pointwise_self_s": self_s["harmonic.pointwise"],
            "harmonic.report_self_s": self_s["harmonic.report"],
            "harmonic.astheno_self_s": self_s["harmonic.astheno"],
            "report.tracker_updates": c["report.tracker_updates"],
            "report.tracker_self_s": self_s["report.tracker"],
            "report.serialize_s": inclusive_s["report.serialize"],
            "cli.resolve_s": inclusive_s["cli.resolve"],
            "cli.run_self_s": self_s["cli.run"],
        }
        return out

    def write(self, path):
        """Store the spans of this run as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        data = {"run_id": self.run_id, "names": names,
                "fields": ["name", "start", "end", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))

