"""Manifest ingestion, suite orchestration, and report emission.

Exit codes: 0 every requested check passed; 1 at least one check failed or
came back inconclusive; 2 configuration error (bad manifest, bad flags).
Reports serialize to canonical JSON (byte-identical across runs for the
same manifest and seed; wall-clock times live in a separate "timings"
object) or to markdown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, contact, expr, geom, harmonic, product, riemann
from .contact import (
    AlmostContactMetricStructure, TransSasakianFactor, builtin_factor,
    factor_class_report, tamper_phi_scale,
    transverse_curvature_report, transverse_properties_report,
    validate_axioms, verify_trans_sasakian,
)
from .expr import Evaluator, ParseError, UnknownIdentifier, parse
from .geom import sample_points
from .harmonic import (
    astheno_residual, codifferential_report, energy_report,
    harmonicity_report, table1_suite,
)
from .product import (
    DEFAULT_AB_GRID, build_product, connection_closed_form_report,
    curvature_closed_form_report, integrability_report, nabla_J_report,
)
from .report import CheckReport, canonical_json, run_report_markdown

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2

ALL_CHECKS = ("axioms", "trans_sasakian", "transverse", "connection",
              "nabla_j", "curvature", "integrability", "codifferential",
              "harmonicity", "astheno", "energy", "table1")

PASS_VERDICTS = {"pass", "harmonic"}

DEFAULTS = {"tol": 1e-6, "count": 64, "seed": 7, "mode": "jet",
            "fd_step": 1e-3}


class ManifestError(Exception):
    """Schema violation with a path into the offending JSON node."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond, path, message):
    if not cond:
        raise ManifestError(path, message)


def _finite(value, path):
    """A finite float from a manifest number or numeric string."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ManifestError(path, f"expected a number, got {value!r}") from None
    _expect(math.isfinite(x), path, f"expected a finite number, got {value!r}")
    return x


def _integer(value, path):
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ManifestError(path, f"expected an integer, got {value!r}") from None


# Validators shared by the manifest fields and the command-line flags that
# override them.

def _count(value, path):
    count = _integer(value, path)
    _expect(count >= 1, path, "count must be >= 1")
    return count


def _seed(value, path):
    seed = _integer(value, path)
    _expect(seed >= 0, path, "seed must be >= 0")
    return seed


def _positive(value, path):
    x = _finite(value, path)
    _expect(x > 0, path, "must be > 0")
    return x


def _box_overrides(box, factors):
    """Validated {key: (lo, hi)} sampling-box overrides.

    A key names a factor coordinate, bare or as f1.<name> or f2.<name>, or a
    product coordinate as build_product names it (<name>1, <name>2), bare
    or as product.<name>.
    """
    n1, n2 = (F.chart.names for F in factors)
    charts = {"f1": n1, "f2": n2,
              "product": tuple(n + "1" for n in n1) + tuple(n + "2" for n in n2)}
    known = {key for tag, names in charts.items() for n in names
             for key in (n, f"{tag}.{n}")}
    out = {}
    for key, iv in box.items():
        path = f"$.sampling.box.{key}"
        _expect(key in known, path,
                f"unknown coordinate; valid: {', '.join(sorted(known))}")
        _expect(isinstance(iv, list) and len(iv) == 2, path, "expected [lo, hi]")
        lo, hi = _finite(iv[0], f"{path}[0]"), _finite(iv[1], f"{path}[1]")
        _expect(lo <= hi, path, "need lo <= hi")
        out[key] = (lo, hi)
    return out


def _constants(e):
    """The Const nodes of an expression (fold it first to see the constants
    that the field assembly would make)."""
    if isinstance(e, expr.Const):
        return [e]
    if isinstance(e, expr.Coord):
        return []
    if isinstance(e, expr.Unary):
        return _constants(e.arg)
    return _constants(e.left) + _constants(e.right)


def _parse_expr(src, names, path):
    try:
        e = parse(str(src), names)
    except (ParseError, UnknownIdentifier) as exc:
        raise ManifestError(path, f"bad expression {src!r}: {exc}") from exc
    _expect(all(math.isfinite(c.value)
                for c in _constants(expr.fold_constants(e))), path,
            f"bad expression {src!r}: it holds a non-finite constant")
    return e


def _load_custom_factor(block, path):
    _expect(isinstance(block, dict), path, "expected an object")
    for key in ("dim", "coords", "g", "phi", "xi", "eta"):
        _expect(key in block, path, f"missing '{key}'")
    dim = block["dim"]
    _expect(isinstance(dim, int) and dim >= 3 and dim % 2 == 1, f"{path}.dim",
            "dim must be an odd integer >= 3")
    coords = block["coords"]
    _expect(isinstance(coords, list) and len(coords) == dim
            and len(set(coords)) == dim,
            f"{path}.coords", f"need {dim} distinct coordinate names")

    def matrix(key, symmetric=False):
        rows = block[key]
        _expect(isinstance(rows, list) and len(rows) == dim,
                f"{path}.{key}", f"expected {dim} rows")
        out = []
        for i, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == dim,
                    f"{path}.{key}[{i}]", f"expected {dim} entries")
            out.append([_parse_expr(c, coords, f"{path}.{key}[{i}][{j}]")
                        for j, c in enumerate(row)])
        return out

    def vector(key):
        comps = block[key]
        _expect(isinstance(comps, list) and len(comps) == dim,
                f"{path}.{key}", f"expected {dim} components")
        return [_parse_expr(c, coords, f"{path}.{key}[{i}]")
                for i, c in enumerate(comps)]

    g_rows = matrix("g")
    # symmetrize structurally: the upper triangle is authoritative
    for i in range(dim):
        for j in range(i + 1, dim):
            g_rows[j][i] = g_rows[i][j]
    every_expr = [e for row in g_rows for e in row]
    ch = geom.chart(coords, field_exprs=every_expr)
    g = geom.metric_field(ch, g_rows)
    phi = geom.endo_field(ch, matrix("phi"))
    xi = geom.vector_field(ch, vector("xi"))
    eta = geom.one_form_field(ch, vector("eta"))
    name = str(block.get("name", "custom"))
    S = AlmostContactMetricStructure(ch, phi, xi, eta, g, name=name)
    alpha = _parse_expr(block.get("alpha", 0.0), coords, f"{path}.alpha")
    beta = _parse_expr(block.get("beta", 0.0), coords, f"{path}.beta")
    klass = contact.classify_type(
        *(e.value if isinstance(e, expr.Const) else 1.0 for e in (alpha, beta)))
    return TransSasakianFactor(S, alpha, beta, klass)


def _load_factor(entry, path):
    _expect(isinstance(entry, dict), path, "expected an object")
    if "builtin" in entry:
        name = entry["builtin"]
        try:
            F = builtin_factor(name)
        except contact.UnknownModel as exc:
            raise ManifestError(f"{path}.builtin", str(exc)) from exc
    elif "custom" in entry:
        F = _load_custom_factor(entry["custom"], f"{path}.custom")
    else:
        raise ManifestError(path, "need either 'builtin' or 'custom'")
    tamper = entry.get("tamper")
    if tamper:
        _expect(isinstance(tamper, dict), f"{path}.tamper", "expected object")
        scale = tamper.get("phi_scale")
        if scale is not None:
            F = tamper_phi_scale(
                F, _finite(scale, f"{path}.tamper.phi_scale"))
    return F


def load_manifest(path) -> dict:
    """Read, validate and default-resolve a manifest file."""
    p = Path(path)
    if not p.exists():
        raise ManifestError("$", f"no such file: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError("$", f"invalid JSON: {exc}") from exc
    return resolve_manifest(raw)


def resolve_manifest(raw) -> dict:
    _expect(isinstance(raw, dict), "$", "manifest must be a JSON object")
    factors = raw.get("factors")
    _expect(isinstance(factors, list) and len(factors) == 2, "$.factors",
            "expected exactly two factor entries")
    loaded = [_load_factor(factors[i], f"$.factors[{i}]") for i in (0, 1)]

    prod = raw.get("product", {})
    _expect(isinstance(prod, dict), "$.product", "expected an object")
    if "grid" in prod:
        grid = prod["grid"]
        _expect(isinstance(grid, list) and grid, "$.product.grid",
                "expected a non-empty list of [a, b] pairs")
        ab_grid = []
        for i, ab in enumerate(grid):
            _expect(isinstance(ab, list) and len(ab) == 2,
                    f"$.product.grid[{i}]", "expected [a, b]")
            a = _finite(ab[0], f"$.product.grid[{i}][0]")
            b = _finite(ab[1], f"$.product.grid[{i}][1]")
            _expect(b != 0.0, f"$.product.grid[{i}]", "b must be nonzero")
            ab_grid.append((a, b))
    elif "a" in prod or "b" in prod:
        _expect("a" in prod and "b" in prod, "$.product",
                "need both 'a' and 'b'")
        a = _finite(prod["a"], "$.product.a")
        b = _finite(prod["b"], "$.product.b")
        _expect(b != 0.0, "$.product.b", "b must be nonzero")
        ab_grid = [(a, b)]
    else:
        ab_grid = list(DEFAULT_AB_GRID)
    tamper = prod.get("tamper", {})
    _expect(isinstance(tamper, dict), "$.product.tamper", "expected object")
    broken_j = tamper.get("broken_j", False)
    _expect(isinstance(broken_j, bool), "$.product.tamper.broken_j",
            f"expected true or false, got {broken_j!r}")

    checks = raw.get("checks", [])
    _expect(isinstance(checks, list), "$.checks", "expected a list")
    for i, c in enumerate(checks):
        _expect(c in ALL_CHECKS, f"$.checks[{i}]",
                f"unknown check {c!r}; valid: {', '.join(ALL_CHECKS)}")

    sampling = raw.get("sampling", {})
    _expect(isinstance(sampling, dict), "$.sampling", "expected an object")
    count = _count(sampling.get("count", DEFAULTS["count"]), "$.sampling.count")
    seed = _seed(sampling.get("seed", DEFAULTS["seed"]), "$.sampling.seed")
    box_over = sampling.get("box", {})
    _expect(isinstance(box_over, dict), "$.sampling.box", "expected object")
    box_over = _box_overrides(box_over, loaded)

    numerics = raw.get("numerics", {})
    _expect(isinstance(numerics, dict), "$.numerics", "expected an object")
    mode = numerics.get("mode", DEFAULTS["mode"])
    _expect(mode in ("jet", "fd"), "$.numerics.mode", "mode is jet or fd")
    tol = _positive(numerics.get("tol", DEFAULTS["tol"]), "$.numerics.tol")
    fd_step = _positive(numerics.get("fd_step", DEFAULTS["fd_step"]),
                        "$.numerics.fd_step")

    return {
        "factors": loaded,
        "factors_echo": factors,
        "ab_grid": ab_grid,
        "broken_j": broken_j,
        "checks": list(checks),
        "count": count,
        "seed": seed,
        "box_overrides": box_over,
        "mode": mode,
        "tol": tol,
        "fd_step": fd_step,
    }


def _apply_box_overrides(ch, overrides, prefix):
    if not overrides:
        return ch
    box = list(ch.box)
    for i, name in enumerate(ch.names):
        for key in (f"{prefix}.{name}", name):
            if key in overrides:
                box[i] = overrides[key]
    return geom.ChartDomain(ch.dim, ch.names, tuple(box))


def _manifest_echo(mf):
    return {
        "factors": mf["factors_echo"],
        "ab_grid": [list(ab) for ab in mf["ab_grid"]],
        "broken_j": mf["broken_j"],
        "checks": mf["checks"],
        "sampling": {"count": mf["count"], "seed": mf["seed"],
                     "box": {k: list(v) for k, v in
                             mf["box_overrides"].items()}},
        "numerics": {"mode": mf["mode"], "tol": mf["tol"],
                     "fd_step": mf["fd_step"]},
    }


# A check that raises one of the engine's domain errors fails with the error
# recorded; any other exception is a programming error and propagates.
DOMAIN_ERRORS = (expr.ExprError, geom.GeomError, riemann.RiemannError,
                 contact.ContactError, product.ProductError,
                 harmonic.HarmonicError, np.linalg.LinAlgError)


def _error_origin(exc):
    """module.function of the innermost tsgeom frame that exc passed."""
    import traceback  # only on the error path: it costs memory at import

    frame = [f for f, _ in traceback.walk_tb(exc.__traceback__)
             if f.f_globals.get("__name__", "").startswith("tsgeom.")][-1]
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"


def _error_check(name, tol, exc):
    return CheckReport(name, tol, float("inf"), float("inf"), None, "fail",
                       details={"error": f"{type(exc).__name__}: {exc}",
                                "error_origin": _error_origin(exc)})


def run(mf) -> dict:
    """Execute the requested checks; returns the report dict."""
    ev = Evaluator(mf["mode"], mf["fd_step"])
    tol = mf["tol"]
    checks_out = []
    timings = {}
    f1, f2 = mf["factors"]
    factor_list = [("f1", f1), ("f2", f2)]
    factor_charts = {
        tag: _apply_box_overrides(F.chart, mf["box_overrides"], tag)
        for tag, F in factor_list}

    def factor_points(tag, F):
        return sample_points(factor_charts[tag], mf["count"], mf["seed"])

    products = {}

    def get_product(ab):
        # a product-coordinate key narrows the sampling box only: J, G and
        # the embedded factor fields keep the chart they were built on
        if ab not in products:
            P = build_product(f1, f2, ab[0], ab[1], validate=False,
                              broken_j=mf["broken_j"])
            box = _apply_box_overrides(P.chart, mf["box_overrides"], "product")
            products[ab] = (P, sample_points(box, mf["count"], mf["seed"]))
        return products[ab]

    def run_one(name, fn):
        t0 = time.perf_counter()
        try:
            rep = fn()
        except DOMAIN_ERRORS as exc:  # captured as a check-level failure
            rep = _error_check(name, tol, exc)
        timings[name] = time.perf_counter() - t0
        rep.name = name
        checks_out.append(rep)

    for check in mf["checks"]:
        if check == "axioms":
            for tag, F in factor_list:
                run_one(f"axioms[{tag}]",
                        lambda F=F, tag=tag: validate_axioms(
                            ev, F.structure, factor_points(tag, F), tol))
        elif check == "trans_sasakian":
            for tag, F in factor_list:
                run_one(f"trans_sasakian[{tag}]",
                        lambda F=F, tag=tag: verify_trans_sasakian(
                            ev, F, factor_points(tag, F), tol))
        elif check == "transverse":
            for tag, F in factor_list:
                run_one(f"transverse_properties[{tag}]",
                        lambda F=F, tag=tag: transverse_properties_report(
                            ev, F, factor_points(tag, F), tol))
                run_one(f"transverse_curvature[{tag}]",
                        lambda F=F, tag=tag: transverse_curvature_report(
                            ev, F, factor_points(tag, F), tol))
        elif check == "table1":
            run_one("table1", lambda: table1_suite(
                ev, tol, samples=mf["count"], seed=mf["seed"],
                ab_grid=tuple(mf["ab_grid"])))
        else:
            per_product = {
                "connection": connection_closed_form_report,
                "nabla_j": nabla_J_report,
                "curvature": curvature_closed_form_report,
                "integrability": integrability_report,
                "codifferential": codifferential_report,
                "harmonicity": harmonicity_report,
                "astheno": astheno_residual,
                "energy": energy_report,
            }
            for ab in mf["ab_grid"]:
                def fn(ab=ab, impl=per_product[check]):
                    P, pts = get_product(ab)
                    return impl(ev, P, pts, tol)
                run_one(f"{check}[a={ab[0]:g},b={ab[1]:g}]", fn)

    overall = all(c.verdict in PASS_VERDICTS for c in checks_out)
    out = {
        "engine": {"name": "tsgeom", "version": __version__},
        "manifest": _manifest_echo(mf),
        "checks": [c.to_dict() for c in checks_out],
        "overall_verdict": "pass" if overall else "fail",
        "notes": [
            "closed forms are checked in named variants; 'koszul' denotes "
            "the form rederived from the Koszul formula where the "
            "transcribed one diverges from the generic computation",
        ],
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    return out


def exit_code_for(report_dict) -> int:
    return EXIT_OK if report_dict["overall_verdict"] == "pass" else EXIT_FAILED


def emit(report_dict, fmt) -> str:
    """Render a report: canonical JSON or markdown."""
    if fmt == "json":
        return canonical_json(report_dict)
    if fmt == "markdown" or fmt == "md":
        return run_report_markdown(report_dict)
    raise ValueError(f"unknown format {fmt!r}")


def classify(mf) -> dict:
    ev = Evaluator(mf["mode"], mf["fd_step"])
    out = []
    ok = True
    for tag, F in zip(("f1", "f2"), mf["factors"]):
        pts = sample_points(F.chart, mf["count"], mf["seed"])
        try:
            info = factor_class_report(ev, F, pts, mf["tol"])
        except DOMAIN_ERRORS as exc:
            info = {"name": F.structure.name, "error": str(exc),
                    "error_origin": _error_origin(exc), "class": "unverified"}
        info["tag"] = tag
        ok = ok and info.get("class") not in (None, "unverified")
        out.append(info)
    return {
        "engine": {"name": "tsgeom", "version": __version__},
        "classification": out,
        "overall_verdict": "pass" if ok else "fail",
        "timings": {},
    }


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--mode", choices=("jet", "fd"), default=None)
    sp.add_argument("--ab", action="append", default=None, metavar="A,B",
                    help="product parameters, repeatable (e.g. --ab 1,1)")
    sp.add_argument("--format", choices=("json", "md", "markdown"),
                    default="json")
    sp.add_argument("--out", default=None, help="write the report here")


def _apply_flags(mf, args):
    if args.tol is not None:
        mf["tol"] = _positive(args.tol, "--tol")
    if args.samples is not None:
        mf["count"] = _count(args.samples, "--samples")
    if args.seed is not None:
        mf["seed"] = _seed(args.seed, "--seed")
    if args.mode is not None:
        mf["mode"] = args.mode
    if args.ab:
        grid = []
        for item in args.ab:
            parts = item.split(",")
            _expect(len(parts) == 2, "--ab", f"expected A,B got {item!r}")
            a, b = (_finite(x, "--ab") for x in parts)
            _expect(b != 0.0, "--ab", "b must be nonzero")
            grid.append((a, b))
        mf["ab_grid"] = grid
    return mf


def _finish(report_dict, args) -> int:
    text = emit(report_dict, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return exit_code_for(report_dict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsgeom",
        description="Numerical verifier for the Hermitian geometry of "
                    "trans-Sasakian products.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the checks of a manifest")
    p_verify.add_argument("manifest")
    _add_common(p_verify)

    p_table = sub.add_parser("table1", help="the nine-class harmonicity suite")
    _add_common(p_table)

    p_classify = sub.add_parser("classify",
                                help="estimate (alpha, beta) and classify")
    p_classify.add_argument("manifest")
    _add_common(p_classify)

    p_report = sub.add_parser("report", help="re-render a saved JSON report")
    p_report.add_argument("report_file")
    p_report.add_argument("--format", choices=("json", "md", "markdown"),
                          default="json")
    p_report.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            mf = _apply_flags(load_manifest(args.manifest), args)
            return _finish(run(mf), args)
        if args.command == "table1":
            mf = _apply_flags(resolve_manifest({
                "factors": [{"builtin": "cosymplectic_flat"},
                            {"builtin": "cosymplectic_flat"}],
                "checks": ["table1"],
            }), args)
            return _finish(run(mf), args)
        if args.command == "classify":
            mf = _apply_flags(load_manifest(args.manifest), args)
            rep = classify(mf)
            if args.format == "json":
                text = canonical_json(rep)
            else:
                lines = ["factor | alpha | beta | fit residual | class",
                         "--- | --- | --- | --- | ---"]
                for info in rep["classification"]:
                    lines.append(
                        f"{info.get('tag')} ({info.get('name')}) | "
                        f"{info.get('alpha', '')} | {info.get('beta', '')} | "
                        f"{info.get('fit_residual', '')} | {info.get('class')}")
                text = "\n".join(lines) + "\n"
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
            return exit_code_for(rep)
        if args.command == "report":
            try:
                data = json.loads(Path(args.report_file).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ManifestError("$", f"cannot read report: {exc}")
            text = emit(data, args.format)
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
    except ManifestError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
