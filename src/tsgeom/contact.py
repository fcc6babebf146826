"""Almost contact metric structures and their trans-Sasakian verification.

The module owns the factor loader, which builds every factor from a spec in
the manifest's "custom" format, and the built-in specs (flat cosymplectic,
Sasakian Heisenberg, warped Kenmotsu); the axiom/normality checks, the
(alpha, beta) least-squares estimator, and the transverse Levi-Civita
machinery on the contact distribution D = ker eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr, geom, riemann
from .expr import Evaluator, parse
from .geom import (
    EndomorphismField, KFormField, MetricField, OneFormField, VectorField,
    chart, coordinate_field, endo_apply_field, endo_field,
    kform_from_components, metric_field, one_form_as_kform, one_form_field,
    vector_field,
)
from .report import CheckReport, ResidualTracker, column_trackers
from .riemann import bracket, inner


class ContactError(Exception):
    pass


class UnknownModel(ContactError):
    pass


class NotASectionOfD(ContactError):
    pass


class IllConditionedFit(ContactError):
    pass


@dataclass(frozen=True)
class AlmostContactMetricStructure:
    """(phi, xi, eta, g) as expression fields on an odd-dimensional chart."""

    chart: geom.ChartDomain
    phi: EndomorphismField
    xi: VectorField
    eta: OneFormField
    g: MetricField
    name: str = "custom"

    def __post_init__(self):
        if self.chart.dim % 2 == 0:
            raise ContactError("almost contact structures need odd dimension")

    @property
    def n(self):
        return self.chart.dim // 2


@dataclass(frozen=True)
class TransSasakianFactor:
    """Validated structure with its type functions (alpha, beta) and class."""

    structure: AlmostContactMetricStructure
    alpha: expr.Expression
    beta: expr.Expression
    klass: str  # sasakian | kenmotsu | cosymplectic | proper | unverified

    @property
    def chart(self):
        return self.structure.chart

    @property
    def n(self):
        return self.structure.n


def classify_type(alpha: float, beta: float, tol=1e-8) -> str:
    a0 = abs(alpha) < tol
    b0 = abs(beta) < tol
    if a0 and b0:
        return "cosymplectic"
    if b0:
        return "sasakian"
    if a0:
        return "kenmotsu"
    return "proper"


# ---------------------------------------------------------------------------
# Factor specs: the manifest's "custom" format, and the built-in catalog
# ---------------------------------------------------------------------------

class ManifestError(Exception):
    """Schema violation with a path into the offending JSON node."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond, path, message):
    if not cond:
        raise ManifestError(path, message)


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
    except (expr.ParseError, expr.UnknownIdentifier) as exc:
        raise ManifestError(path, f"bad expression {src!r}: {exc}") from exc
    _expect(all(math.isfinite(c.value)
                for c in _constants(expr.fold_constants(e))), path,
            f"bad expression {src!r}: it holds a non-finite constant")
    return e


def factor_from_spec(block, path) -> TransSasakianFactor:
    """The factor of a spec in the manifest's "custom" format; a schema
    violation raises ManifestError at its path below ``path``."""
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

    def matrix(key):
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
    ch = chart(coords, field_exprs=[e for row in g_rows for e in row])
    g = metric_field(ch, g_rows)
    phi = endo_field(ch, matrix("phi"))
    xi = vector_field(ch, vector("xi"))
    eta = one_form_field(ch, vector("eta"))
    name = str(block.get("name", "custom"))
    S = AlmostContactMetricStructure(ch, phi, xi, eta, g, name=name)
    alpha = _parse_expr(block.get("alpha", 0.0), coords, f"{path}.alpha")
    beta = _parse_expr(block.get("beta", 0.0), coords, f"{path}.beta")
    klass = classify_type(
        *(e.value if isinstance(e, expr.Const) else 1.0 for e in (alpha, beta)))
    return TransSasakianFactor(S, alpha, beta, klass)


BUILTIN_SPECS = {
    "cosymplectic_flat": {
        "name": "cosymplectic_flat",
        "dim": 3, "coords": ["x", "y", "z"],
        "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        # phi: dx -> dy, dy -> -dx, dz -> 0
        "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
        "eta": ["0", "0", "1"],
        "alpha": 0.0, "beta": 0.0,
    },
    # eta = C (dz - y dx), xi = (1/C) dz, g = eta (x) eta + C^2 S (dx^2 + dy^2)
    # with C = 0.5 and S = 1, fixed by the calibration run (estimate_alpha_beta
    # must return (1, 0)): nabla_X xi = -alpha phi X holds with
    # alpha = 1/(2 C S), so C S = 1/2.
    "sasakian_heisenberg": {
        "name": "sasakian_heisenberg",
        "dim": 3, "coords": ["x", "y", "z"],
        "g": [["0.25*y*y + 0.25", "0", "-0.25*y"],
              ["0", "0.25", "0"],
              ["-0.25*y", "0", "0.25"]],
        # phi: dx -> -dy, dy -> dx + y dz, dz -> 0  (so that d(eta) = Phi)
        "phi": [["0", "1", "0"], ["-1", "0", "0"], ["0", "y", "0"]],
        "xi": ["0", "0", "2.0"],
        "eta": ["-0.5*y", "0", "0.5"],
        "alpha": 1.0, "beta": 0.0,
    },
    "kenmotsu_warped": {
        "name": "kenmotsu_warped",
        "dim": 3, "coords": ["t", "x", "y"],
        "g": [["1", "0", "0"], ["0", "exp(2*t)", "0"], ["0", "0", "exp(2*t)"]],
        # phi: dx -> dy, dy -> -dx, dt -> 0
        "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        "xi": ["1", "0", "0"],
        "eta": ["1", "0", "0"],
        "alpha": 0.0, "beta": 1.0,
    },
}


def builtin_factor(name: str) -> TransSasakianFactor:
    if not (isinstance(name, str) and name in BUILTIN_SPECS):
        raise UnknownModel(f"no built-in factor named '{name}'")
    return factor_from_spec(BUILTIN_SPECS[name], f"BUILTIN_SPECS[{name!r}]")


_CLASS_REPRESENTATIVE = {
    "sasakian": "sasakian_heisenberg",
    "kenmotsu": "kenmotsu_warped",
    "cosymplectic": "cosymplectic_flat",
}


def factor_for_class(klass: str) -> TransSasakianFactor:
    return builtin_factor(_CLASS_REPRESENTATIVE[klass])


def tamper_phi_scale(F: TransSasakianFactor, scale: float) -> TransSasakianFactor:
    """Negative control: scale phi by a constant, breaking phi^2 = -Id + eta (x) xi."""
    S = F.structure
    phi = endo_field(S.chart, [[expr.mul(expr.const(scale), e) for e in row]
                               for row in S.phi.comps])
    S2 = AlmostContactMetricStructure(S.chart, phi, S.xi, S.eta, S.g,
                                      name=S.name + f"~phi*{scale}")
    return TransSasakianFactor(S2, F.alpha, F.beta, "unverified")


# ---------------------------------------------------------------------------
# Pointwise structure data
# ---------------------------------------------------------------------------

class StructureData:
    """Batched jets of (phi, xi, eta, g) plus Christoffel data at points."""

    def __init__(self, ev: Evaluator, S: AlmostContactMetricStructure, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.points = pts
        self.md = riemann.MetricData(ev, S.g, pts)
        self.phi0, self.phi1, self.phi2 = geom.eval_endo(ev, S.phi, pts)
        self.xi0, self.xi1, self.xi2 = geom.eval_vector(ev, S.xi, pts)
        self.eta0, self.eta1, self.eta2 = geom.eval_oneform(ev, S.eta, pts)


def fundamental_form(ev: Evaluator, S: AlmostContactMetricStructure,
                     X: VectorField, Y: VectorField, p) -> float:
    """Phi(X, Y) = g(X, phi Y) at a single point."""
    sd = StructureData(ev, S, p)
    xv, _, _ = geom.eval_vector(ev, X, sd.points)
    yv, _, _ = geom.eval_vector(ev, Y, sd.points)
    return float(xv[0] @ sd.md.g0[0] @ (sd.phi0[0] @ yv[0]))


def fundamental_form_field(S: AlmostContactMetricStructure) -> KFormField:
    """Phi as a 2-form field with expression components (i < j)."""
    d = S.chart.dim
    comp = {}
    for i in range(d):
        for j in range(i + 1, d):
            comp[(i, j)] = expr.add_many(
                expr.mul(S.g.comps[i][k], S.phi.comps[k][j]) for k in range(d))
    return kform_from_components(S.chart, 2, comp)


def d_span_fields(S: AlmostContactMetricStructure):
    """D-spanning expression fields phi(d_i) (automatically in ker eta)."""
    return [endo_apply_field(S.phi, coordinate_field(S.chart, i))
            for i in range(S.chart.dim)]


# ---------------------------------------------------------------------------
# Stacks over the points axis: (p, d) vectors, (p, d, d) matrices
# ---------------------------------------------------------------------------

def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


# ---------------------------------------------------------------------------
# Axioms, normality, type estimation
# ---------------------------------------------------------------------------

def validate_axioms(ev: Evaluator, S: AlmostContactMetricStructure,
                    points, tol) -> CheckReport:
    """The five almost-contact axioms over coordinate-basis arguments."""
    sd = StructureData(ev, S, points)
    phi, xi, eta, g0 = sd.phi0, sd.xi0, sd.eta0, sd.md.g0
    families = {
        "eta(xi)-1": np.einsum("pi,pi->p", eta, xi) - 1.0,
        "phi^2 + Id - eta(x)xi": (phi @ phi + np.eye(S.chart.dim)
                                  - _outer(xi, eta)),
        "g(phi.,phi.) - g + eta(x)eta": (phi.swapaxes(1, 2) @ g0 @ phi - g0
                                         + _outer(eta, eta)),
        "phi xi": np.einsum("pij,pj->pi", phi, xi),
        "eta o phi": np.einsum("pk,pkj->pj", eta, phi),
    }
    return CheckReport.from_trackers(
        f"axioms[{S.name}]", tol,
        [ResidualTracker.from_points(n, v, sd.points)
         for n, v in families.items()])


def normality_residual(ev: Evaluator, S: AlmostContactMetricStructure,
                       X: VectorField, Y: VectorField, p) -> np.ndarray:
    """N_phi(X,Y) = [phi,phi](X,Y) + d(eta)(X,Y) xi, evaluated literally."""
    phiX = endo_apply_field(S.phi, X)
    phiY = endo_apply_field(S.phi, Y)
    b1 = geom.lie_bracket(ev, phiX, phiY, p)
    bXY = geom.lie_bracket(ev, X, Y, p)
    b3 = geom.lie_bracket(ev, phiX, Y, p)
    b4 = geom.lie_bracket(ev, X, phiY, p)
    sd = StructureData(ev, S, p)
    phi = sd.phi0[0]
    deta = geom.exterior_derivative(ev, one_form_as_kform(S.eta), p)
    xv, _, _ = geom.eval_vector(ev, X, sd.points)
    yv, _, _ = geom.eval_vector(ev, Y, sd.points)
    deta_xy = geom.pair_form_vectors(deta, [xv[0], yv[0]])
    return b1 + phi @ (phi @ bXY) - phi @ b3 - phi @ b4 + deta_xy * sd.xi0[0]


@dataclass
class AlphaBetaEstimate:
    alpha: float
    beta: float
    residual: float
    beta_divergence: float  # trace-of-nabla-xi route, for the cross-check


def estimate_alpha_beta(ev: Evaluator, S: AlmostContactMetricStructure,
                        points) -> AlphaBetaEstimate:
    """Least-squares fit of constants to nabla_X xi = -alpha phi X - beta phi^2 X."""
    sd = StructureData(ev, S, points)
    # nabla_{d_m} xi at every point: N[p, k, m]
    N = sd.xi1 + np.einsum("pkmj,pj->pkm", sd.md.gamma0, sd.xi0)
    phi = sd.phi0
    # one row per (point, m, k), in that order
    A = -np.stack([phi, phi @ phi], axis=-1).swapaxes(1, 2).reshape(-1, 2)
    b = N.swapaxes(1, 2).ravel()
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] < 1e-10 * max(sv[0], 1.0):
        raise IllConditionedFit(
            f"design matrix is rank deficient (singular values {sv})")
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ coef - b)))
    beta_div = float(np.trace(N, axis1=1, axis2=2).sum()) / (
        sd.points.shape[0] * 2 * S.n)
    return AlphaBetaEstimate(float(coef[0]), float(coef[1]), resid, beta_div)


def verify_trans_sasakian(ev: Evaluator, F: TransSasakianFactor,
                          points, tol) -> CheckReport:
    """The defining identities of a trans-Sasakian structure of type (alpha, beta).

    Families: d(eta) = 2 alpha Phi; d(Phi) = 2 beta eta ^ Phi; the nabla-phi
    identity; the nabla-eta identity; [xi, X] in D; nabla_xi xi = 0.

    Convention note: the engine's exterior derivative carries no 1/(k+1)
    normalization (d(-y dx) = dx^dy), so the type-(alpha, beta) condition
    usually quoted as d(eta) = alpha Phi reads d(eta) = 2 alpha Phi here;
    it follows from the intrinsic identity (nabla_X eta)Y = alpha g(X, phi Y)
    + beta g(phi X, phi Y) by antisymmetrization. The d(Phi) equation is
    convention-stable because the shuffle wedge absorbs the same factor.
    """
    S = F.structure
    sd = StructureData(ev, S, points)
    d, pts = S.chart.dim, sd.points
    g0, phi, xi, eta = sd.md.g0, sd.phi0, sd.xi0, sd.eta0
    a = geom.scalar_values(ev, F.alpha, pts)[:, None]
    b = geom.scalar_values(ev, F.beta, pts)[:, None]

    phiv, phig, _ = geom.eval_form(ev, fundamental_form_field(S), pts)
    deta = geom.d_of_jet_form(d, 1, eta, sd.eta1)
    dphi = geom.d_of_jet_form(d, 2, phiv, phig)
    etaphi = geom.wedge_values(geom.KFormValue(d, 1, eta),
                               geom.KFormValue(d, 2, phiv)).comps

    # (nabla_X phi) Y = alpha (g(X,Y) xi - eta(Y) X) + beta (g(phi X, Y) xi
    #                   - eta(Y) phi X), coordinate-basis X = d_m, Y = d_j,
    # as [p, m, j, k]
    C0, _ = riemann.nabla_endo_all(sd.md, phi, sd.phi1, sd.phi2)
    phiT = phi.swapaxes(1, 2)  # phiT[p, m] = phi d_m
    phiTg = phiT @ g0  # g(phi d_m, d_j)
    xi_k, eta_j = xi[:, None, None, :], eta[:, None, :, None]
    closed = (a[..., None, None] * (g0[..., None] * xi_k
                                    - eta_j * np.eye(d)[None, :, None, :])
              + b[..., None, None] * (phiTg[..., None] * xi_k
                                      - eta_j * phiT[:, :, None]))
    nphi = C0.transpose(0, 3, 2, 1) - closed

    # (nabla_X eta) Y = alpha g(X, phi Y) + beta g(phi X, phi Y), as [p, m, j]
    lhs = sd.eta1.swapaxes(1, 2) - np.einsum("pk,pkmj->pmj", eta, sd.md.gamma0)
    rhs = a[..., None] * (g0 @ phi) + b[..., None] * (phiTg @ phi)

    # each family as a (p, ..., A) stack over its argument tuples: the
    # coordinate pairs (m, j) of the nabla identities, j of eta([xi, d_j])
    p = pts.shape[0]
    return CheckReport.from_trackers(
        f"trans_sasakian[{S.name}]", tol, column_trackers({
            "d(eta) - 2*alpha*Phi": (deta - 2.0 * a * phiv)[..., None],
            "d(Phi) - 2*beta*eta^Phi": (dphi - 2.0 * b * etaphi)[..., None],
            "nabla phi identity": np.moveaxis(nphi, 3, 1).reshape(p, d, -1),
            "nabla eta identity": (lhs - rhs).reshape(p, -1),
            # eta([xi, d_j]) = -eta(d_j xi) on a chart
            "eta([xi, X])": -np.einsum("pk,pkj->pj", eta, sd.xi1),
            "nabla_xi xi": riemann.cov_vector_at(
                sd.md, ..., xi, xi, sd.xi1)[..., None],
        }, pts))


# ---------------------------------------------------------------------------
# Transverse Levi-Civita connection on D = ker eta
# ---------------------------------------------------------------------------

@dataclass
class TransverseConnectionValue:
    vector: np.ndarray
    projector: np.ndarray  # Id - xi (x) eta at the point


_D_SECTION_TOL = 1e-8


def _check_section(eta0, U0, point):
    if abs(float(eta0 @ U0)) >= _D_SECTION_TOL:
        raise NotASectionOfD(
            f"eta(U) = {float(eta0 @ U0):.3e} at {tuple(point)}")


class TransverseData:
    """The transverse connection nabla^T on D = ker eta at every point.

    Built on one all-points StructureData. Vector arguments are column
    stacks over a trailing argument axis: values (p, d, A), gradients
    (p, d, d, A) with grad[:, k, m] = d_m X^k and Hessians (p, d, d, d, A);
    a stack of one column broadcasts. span is the D-span phi(d_i), i < d,
    as the columns of phi's own jets. The projector Id - xi (x) eta is
    P0 (p, d, d) with P1[p, k, l, n] = d_n P^k_l. nabla^T_X U is the
    bracket rule along xi plus the D-projected Levi-Civita derivative along
    X^D = X - eta(X) xi; it is tensorial in X, so X enters as pointwise
    values.
    """

    def __init__(self, ev: Evaluator, F: TransSasakianFactor, points):
        self.sd = sd = StructureData(ev, F.structure, points)
        self.points, self.md = sd.points, sd.md
        self.alpha = geom.scalar_values(ev, F.alpha, sd.points)
        self.beta = geom.scalar_values(ev, F.beta, sd.points)
        # eta as (p, 1, d) rows, xi and its gradient as one-column stacks
        self.eta = sd.eta0[:, None, :]
        self.xi, self.xi1 = sd.xi0[..., None], sd.xi1[..., None]
        self.P0 = np.eye(sd.xi0.shape[1]) - _outer(sd.xi0, sd.eta0)
        self.P1 = (-np.einsum("pkn,pl->pkln", sd.xi1, sd.eta0)
                   - np.einsum("pk,pln->pkln", sd.xi0, sd.eta1))
        self.span = (sd.phi0, sd.phi1.transpose(0, 1, 3, 2),
                     sd.phi2.transpose(0, 1, 3, 4, 2))

    def nabla_T_of_numeric(self, X, T0, T1):
        """nabla^T_X applied to D-valued fields known by their value and
        gradient stacks (T0, T1), column by column."""
        q = self.eta @ X
        cov = riemann.cov_vector_at(self.md, ..., X - q * self.xi, T0, T1)
        return q * bracket(self.xi, self.xi1, T0, T1) + self.P0 @ cov

    def nabla_T_jet(self, X0, X1, U0, U1, U2):
        """(value, gradient) stacks of the fields p -> (nabla^T_X U)_p,
        column by column, from the jets of X and of the D-sections U."""
        sd = self.sd
        q0 = self.eta @ X0
        q1 = (np.einsum("pkn,pka->pna", sd.eta1, X0)
              + np.einsum("pkna,pk->pna", X1, sd.eta0))
        # bracket [xi, U] with gradient
        B0 = bracket(self.xi, self.xi1, U0, U1)
        B1 = (np.einsum("pin,pkia->pkna", sd.xi1, U1)
              + np.einsum("pi,pkina->pkna", sd.xi0, U2)
              - np.einsum("pina,pki->pkna", U1, sd.xi1)
              - np.einsum("pia,pkin->pkna", U0, sd.xi2))
        XD0 = X0 - q0 * self.xi
        XD1 = (X1 - self.xi[:, :, None] * q1[:, None]
               - q0[:, None] * self.xi1)
        C0, C1 = riemann.cov_vector_jet(self.md, ..., XD0, XD1, U0, U1, U2)
        T0 = q0 * B0 + self.P0 @ C0
        T1 = (B0[:, :, None] * q1[:, None] + q0[:, None] * B1
              + np.einsum("pkln,pla->pkna", self.P1, C0)
              + np.einsum("pkl,plna->pkna", self.P0, C1))
        return T0, T1

    def curvature(self, span, u, v, w):
        """R^T(U,V)W = nabla^T_U nabla^T_V W - nabla^T_V nabla^T_U W
        - nabla^T_[U,V] W for the columns U = u, V = v, W = w (index
        arrays) of span = (values, gradients, Hessians); nabla^T_Y Z is
        taken once for each pair (Y, Z) of span's columns."""
        S0, S1, S2 = span
        n = S0.shape[-1]
        y, z = np.indices((n, n)).reshape(2, -1)
        T0, T1 = self.nabla_T_jet(S0[..., y], S1[..., y], S0[..., z],
                                  S1[..., z], S2[..., z])
        vw, uw = v * n + w, u * n + w
        br = bracket(S0[..., u], S1[..., u], S0[..., v], S1[..., v])
        return (self.nabla_T_of_numeric(S0[..., u], T0[..., vw], T1[..., vw])
                - self.nabla_T_of_numeric(S0[..., v], T0[..., uw],
                                          T1[..., uw])
                - self.nabla_T_of_numeric(br, S0[..., w], S1[..., w]))


def _columns(ev: Evaluator, fields, pts):
    """(value, gradient, Hessian) column stacks of vector fields."""
    return tuple(np.stack(a, axis=-1)
                 for a in zip(*(geom.eval_vector(ev, X, pts) for X in fields)))


def transverse_derivative(ev: Evaluator, F: TransSasakianFactor,
                          X: VectorField, U: VectorField, p
                          ) -> TransverseConnectionValue:
    """nabla^T_X U at a single point; U must be a D-section there."""
    td = TransverseData(ev, F, p)
    val, grad, _ = _columns(ev, (X, U), td.points)
    _check_section(td.sd.eta0[0], val[0, :, 1], td.points[0])
    return TransverseConnectionValue(
        td.nabla_T_of_numeric(val[..., :1], val[..., 1:],
                              grad[..., 1:])[0, :, 0], td.P0[0])


def transverse_curvature(ev: Evaluator, F: TransSasakianFactor,
                         U: VectorField, V: VectorField, W: VectorField, p
                         ) -> np.ndarray:
    """R^T(U,V)W, the curvature of the transverse connection, at one point."""
    td = TransverseData(ev, F, p)
    span = _columns(ev, (U, V, W), td.points)
    return td.curvature(span, *(np.array([k]) for k in range(3)))[0, :, 0]


def transverse_properties_report(ev: Evaluator, F: TransSasakianFactor,
                                 points, tol) -> CheckReport:
    """Parallelism of phi|_D and g|_D, transverse torsion, and the
    xi-coefficient decompositions of nabla and the bracket on D.

    The verdict ranges over a D-spanning set of directions. Along the Reeb
    direction the transverse metric is parallel only when beta = 0
    (nabla^T_xi (g|_D) = 2 beta g(phi., phi.) since xi is then not Killing);
    that comparison is reported separately and never folds into the verdict.
    """
    S = F.structure
    td = TransverseData(ev, F, points)
    sd, pts = td.sd, td.points
    g0, phi, eta, xi = sd.md.g0, sd.phi0, td.eta, td.xi
    a, b = td.alpha[:, None, None], td.beta[:, None, None]
    U0, U1, _ = td.span
    n = U0.shape[-1]
    dspan = d_span_fields(S)
    phiU0, phiU1, _ = _columns(
        ev, [endo_apply_field(S.phi, U) for U in dspan], pts)
    # the pairs (u <= v) and the gradients of g(U_u, U_v)
    iu, iv = np.triu_indices(n)
    dg = np.stack([j.grad for j in ev.jets(
        [geom.metric_pair_field(S.g, dspan[u], dspan[v])
         for u, v in zip(iu, iv)], pts)], axis=-1)

    # the directions X: the D-span, then xi. NT = nabla^T_X U over (x, u);
    # (nabla^T_X phi)(U) = nabla^T_X(phi U) - phi nabla^T_X U over (x, u)
    # and (nabla^T_X g)(U, V) over x x (u <= v)
    X = np.concatenate([U0, xi], axis=-1)
    x, u = np.indices((n + 1, n)).reshape(2, -1)
    NT = td.nabla_T_of_numeric(X[..., x], U0[..., u], U1[..., u])
    r_phi = (td.nabla_T_of_numeric(X[..., x], phiU0[..., u], phiU1[..., u])
             - phi @ NT)
    x, k = np.indices((n + 1, len(iu))).reshape(2, -1)
    r_g = (np.sum(dg[..., k] * X[..., x], axis=1)
           - (inner(NT[..., x * n + iu[k]], g0, U0[..., iv[k]])
              + inner(U0[..., iu[k]], g0, NT[..., x * n + iv[k]]))[:, 0])
    # the columns of xi come last: reported, but not part of the verdict
    reeb_phi, r_phi = r_phi[..., n * n:], r_phi[..., :n * n]
    reeb_g, r_g = r_g[..., n * len(iu):], r_g[..., :n * len(iu)]
    phiU = phi @ U0
    reeb_g = reeb_g - 2.0 * b[:, 0] * inner(
        phiU[..., iu], g0, phiU[..., iv])[:, 0]

    # the pairs (u < v)
    u, v = np.triu_indices(n, 1)
    br = bracket(U0[..., u], U1[..., u], U0[..., v], U1[..., v])
    brD = br - (eta @ br) * xi
    NTuv = NT[..., u * n + v]
    # nabla_U V = [-alpha Phi(U,V) - beta g(phi U, phi V)] xi + nabla^T_U V
    nUV = riemann.cov_vector_at(sd.md, ..., U0[..., u], U0[..., v],
                                U1[..., v])
    phiUV = inner(U0[..., u], g0, phiU[..., v])
    coeff = -a * phiUV - b * inner(phiU[..., u], g0, phiU[..., v])
    rep = CheckReport.from_trackers(
        f"transverse_properties[{S.name}]", tol, column_trackers({
            "nabla^T (phi|_D) = 0": r_phi,
            "nabla^T (g|_D) = 0": r_g,
            "nabla^T_U V - nabla^T_V U - [U,V]^D": (
                NTuv - NT[..., v * n + u] - brD),
            "nabla_U V xi-coefficient split": nUV - (coeff * xi + NTuv),
            "[U,V] xi-coefficient split": br - (-2.0 * a * phiUV * xi + brD),
        }, pts))
    t_phi, t_g = column_trackers({
        "nabla^T_xi (phi|_D)": reeb_phi,
        "nabla^T_xi (g|_D) - 2*beta*g(phi.,phi.)": reeb_g}, pts)
    rep.details["reeb_direction"] = {
        "phi_parallelism_max": t_phi.max,
        "g_parallelism_vs_2beta_max": t_g.max,
        "note": ("g|_D is parallel along xi only for beta = 0; the deviation "
                 "matches 2*beta*g(phi., phi.)"),
    }
    return rep


def transverse_curvature_report(ev: Evaluator, F: TransSasakianFactor,
                                points, tol) -> CheckReport:
    """The four transverse-curvature identities relating R and R^T on D.

    Identity (iv) relating R(U,V)xi to the printed right side is evaluated
    as stated AND against the generic R(U,V)xi; both sides are reported, the
    difference never folds into the pass verdict of (i)-(iii).
    """
    S = F.structure
    td = TransverseData(ev, F, points)
    sd, md, pts = td.sd, td.md, td.points
    g0, phi, eta, xi = md.g0, sd.phi0, td.eta, td.xi
    a, b = td.alpha[:, None, None], td.beta[:, None, None]
    U0, U1, _ = td.span
    n = U0.shape[-1]
    # an argument of norm below 1e-9 drops the sample at that point
    live = ~(np.linalg.norm(U0, axis=1) < 1e-9)
    # the pairs (u < v), and the triples (u, v, w) of pair t, w fastest
    pu, pv = np.triu_indices(n, 1)
    t, w = np.indices((len(pu), n)).reshape(2, -1)
    u, v = pu[t], pv[t]
    pair_br = bracket(U0[..., pu], U1[..., pu], U0[..., pv], U1[..., pv])
    pair_keep = live[:, pu] & live[:, pv]
    # (iv): printed right side on D-sections; eta(U) = eta(V) = 0 as
    # functions makes the nabla(eta(.) xi) terms vanish identically
    Rxi = riemann.curvature_values(md, ..., U0[..., pu], U0[..., pv],
                                   np.broadcast_to(xi, pair_br.shape))
    t_iv, t_gen = column_trackers({
        "R(U,V)xi printed form vs generic": (
            Rxi - b * (eta @ pair_br) * xi),
        "R(U,V)xi generic norm": Rxi}, pts, pair_keep)

    U, V, W0, W1 = U0[..., u], U0[..., v], U0[..., w], U1[..., w]
    br = pair_br[..., t]
    brD = br - (eta @ br) * xi
    phiU, phiV, phiW = phi @ U, phi @ V, phi @ W0
    phi2U, phi2V = phi @ phiU, phi @ phiV
    phiUV = inner(U, g0, phiV)
    NTbrW = td.nabla_T_of_numeric(br, W0, W1)
    # (i)
    r_i = (td.nabla_T_of_numeric(brD, W0, W1)
           - (NTbrW + 2 * a * phiUV * bracket(xi, td.xi1, W0, W1)))
    # (ii)
    closed = (2 * a * a * phiUV * phiW
              - 2 * a * b * phiUV * W0
              - a * inner(brD, g0, phiW) * xi
              - b * inner(br, g0, W0) * xi
              + NTbrW)
    r_ii = riemann.cov_vector_at(md, ..., br, W0, W1) - closed
    # (iii)
    PhiVW, PhiUW = inner(V, g0, phiW), inner(U, g0, phiW)
    gVW, gUW = inner(V, g0, W0), inner(U, g0, W0)
    closed3 = (td.curvature(td.span, u, v, w)
               + a * a * PhiVW * phiU
               - 2 * a * a * phiUV * phiW
               - a * a * PhiUW * phiV
               + a * b * PhiVW * phi2U
               + a * b * gVW * phiU
               + b * b * gVW * phi2U
               - a * b * gUW * phiV
               - b * b * gUW * phi2V
               + 2 * a * b * phiUV * W0
               - a * b * PhiUW * phi2V)
    r_iii = riemann.curvature_values(md, ..., U, V, W0) - closed3

    rep = CheckReport.from_trackers(
        f"transverse_curvature[{S.name}]", tol, column_trackers({
            "projected-bracket lower-argument rule": r_i,
            "nabla_[U,V] W split": r_ii,
            "R vs R^T closed form": r_iii,
        }, pts, pair_keep[:, t] & live[:, w]))
    rep.details["reeb_curvature_comparison"] = {
        "printed_vs_generic_max": t_iv.max,
        "generic_max_norm": t_gen.max,
        "note": ("the printed Reeb-curvature identity repeats the second "
                 "argument where the first is expected; both sides are "
                 "reported, neither folds into the verdict"),
    }
    return rep


def phi_curvature_commutation_residual(ev: Evaluator, F: TransSasakianFactor,
                          U: VectorField, W: VectorField, p) -> np.ndarray:
    """phi R(U, phi U) W - R(U, phi U) phi W - 2 alpha beta [g(U,W) phi U - g(U, phi W) U]."""
    S = F.structure
    sd = StructureData(ev, S, p)
    i = 0
    uv, _, _ = geom.eval_vector(ev, U, sd.points)
    wv, _, _ = geom.eval_vector(ev, W, sd.points)
    _check_section(sd.eta0[i], uv[i], sd.points[i])
    _check_section(sd.eta0[i], wv[i], sd.points[i])
    phi, g0 = sd.phi0[i], sd.md.g0[i]
    av = float(np.asarray(ev.value(F.alpha, sd.points[i])))
    bv = float(np.asarray(ev.value(F.beta, sd.points[i])))
    riem = sd.md.riemann()[i]
    phiU = phi @ uv[i]
    lhs = (phi @ np.einsum("lkij,i,j,k->l", riem, uv[i], phiU, wv[i])
           - np.einsum("lkij,i,j,k->l", riem, uv[i], phiU, phi @ wv[i]))
    rhs = 2 * av * bv * (float(uv[i] @ g0 @ wv[i]) * phiU
                         - float(uv[i] @ g0 @ (phi @ wv[i])) * uv[i])
    return lhs - rhs


def factor_class_report(ev: Evaluator, F: TransSasakianFactor, points,
                        tol) -> dict:
    """estimate_alpha_beta plus the constant-type trichotomy assignment."""
    est = estimate_alpha_beta(ev, F.structure, points)
    klass = (classify_type(est.alpha, est.beta, tol=max(tol, 1e-8) * 10)
             if est.residual < tol * 100 else "unverified")
    return {
        "name": F.structure.name,
        "alpha": est.alpha,
        "beta": est.beta,
        "fit_residual": est.residual,
        "beta_divergence_route": est.beta_divergence,
        "class": klass,
        "declared_class": F.klass,
    }
