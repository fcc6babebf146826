"""Almost contact metric structures and their trans-Sasakian verification.

The module owns the built-in model catalog (flat cosymplectic, Sasakian
Heisenberg, warped Kenmotsu), the axiom/normality checks, the (alpha, beta)
least-squares estimator, and the transverse Levi-Civita machinery on the
contact distribution D = ker eta.
"""

from __future__ import annotations

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
from .report import CheckReport, ResidualTracker


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
# Built-in model catalog
# ---------------------------------------------------------------------------

# Heisenberg scaling constants, fixed by the calibration run
# (estimate_alpha_beta must return (1, 0)): eta = C*(dz - y dx),
# g = eta (x) eta + C^2 * S * (dx^2 + dy^2). The covariant identity
# nabla_X xi = -alpha phi X holds with alpha = 1/(2*C*S), so C*S = 1/2.
HEISENBERG_C = 0.5
HEISENBERG_S = 1.0


def _parse_all(names, rows):
    return [[parse(c, names) for c in row] for row in rows]


def builtin_factor(name: str) -> TransSasakianFactor:
    if name == "cosymplectic_flat":
        names = ("x", "y", "z")
        ch = chart(names)
        g = metric_field(ch, _parse_all(names, [["1", "0", "0"],
                                                ["0", "1", "0"],
                                                ["0", "0", "1"]]))
        # phi: dx -> dy, dy -> -dx, dz -> 0
        phi = endo_field(ch, _parse_all(names, [["0", "-1", "0"],
                                                ["1", "0", "0"],
                                                ["0", "0", "0"]]))
        xi = vector_field(ch, [parse(c, names) for c in ("0", "0", "1")])
        eta = one_form_field(ch, [parse(c, names) for c in ("0", "0", "1")])
        S = AlmostContactMetricStructure(ch, phi, xi, eta, g, name=name)
        return TransSasakianFactor(S, expr.const(0.0), expr.const(0.0),
                                   "cosymplectic")

    if name == "sasakian_heisenberg":
        names = ("x", "y", "z")
        ch = chart(names)
        c, s = HEISENBERG_C, HEISENBERG_S
        k = c * c * s  # transverse metric scale
        # eta = c (dz - y dx), xi = (1/c) dz
        eta_comps = (f"{-c}*y", "0", f"{c}")
        g_rows = [
            [f"{c * c}*y*y + {k}", "0", f"{-c * c}*y"],
            ["0", f"{k}", "0"],
            [f"{-c * c}*y", "0", f"{c * c}"],
        ]
        # phi: dx -> -dy, dy -> dx + y dz, dz -> 0  (so that d(eta) = Phi)
        phi_rows = [["0", "1", "0"],
                    ["-1", "0", "0"],
                    ["0", "y", "0"]]
        g = metric_field(ch, _parse_all(names, g_rows))
        phi = endo_field(ch, _parse_all(names, phi_rows))
        xi = vector_field(ch, [parse(c_, names) for c_ in ("0", "0", f"{1.0 / c}")])
        eta = one_form_field(ch, [parse(c_, names) for c_ in eta_comps])
        S = AlmostContactMetricStructure(ch, phi, xi, eta, g, name=name)
        return TransSasakianFactor(S, expr.const(1.0), expr.const(0.0),
                                   "sasakian")

    if name == "kenmotsu_warped":
        names = ("t", "x", "y")
        w = parse("exp(2*t)", names)
        ch = chart(names, field_exprs=[w])
        g_rows = [["1", "0", "0"],
                  ["0", "exp(2*t)", "0"],
                  ["0", "0", "exp(2*t)"]]
        # phi: dx -> dy, dy -> -dx, dt -> 0
        phi_rows = [["0", "0", "0"],
                    ["0", "0", "-1"],
                    ["0", "1", "0"]]
        g = metric_field(ch, _parse_all(names, g_rows))
        phi = endo_field(ch, _parse_all(names, phi_rows))
        xi = vector_field(ch, [parse(c, names) for c in ("1", "0", "0")])
        eta = one_form_field(ch, [parse(c, names) for c in ("1", "0", "0")])
        S = AlmostContactMetricStructure(ch, phi, xi, eta, g, name=name)
        return TransSasakianFactor(S, expr.const(0.0), expr.const(1.0),
                                   "kenmotsu")

    raise UnknownModel(f"no built-in factor named '{name}'")


BUILTIN_NAMES = ("cosymplectic_flat", "sasakian_heisenberg", "kenmotsu_warped")

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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
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
# Axioms, normality, type estimation
# ---------------------------------------------------------------------------

def validate_axioms(ev: Evaluator, S: AlmostContactMetricStructure,
                    points, tol) -> CheckReport:
    """The five almost-contact axioms over coordinate-basis arguments."""
    sd = StructureData(ev, S, points)
    d = S.chart.dim
    eye = np.eye(d)
    t_unit = ResidualTracker("eta(xi)-1")
    t_sq = ResidualTracker("phi^2 + Id - eta(x)xi")
    t_comp = ResidualTracker("g(phi.,phi.) - g + eta(x)eta")
    t_phixi = ResidualTracker("phi xi")
    t_etaphi = ResidualTracker("eta o phi")
    for i in range(sd.points.shape[0]):
        p = sd.points[i]
        phi, xi, eta, g0 = sd.phi0[i], sd.xi0[i], sd.eta0[i], sd.md.g0[i]
        t_unit.update(eta @ xi - 1.0, p)
        t_sq.update_many(phi @ phi + eye - np.outer(xi, eta), p)
        t_comp.update_many(phi.T @ g0 @ phi - g0 + np.outer(eta, eta), p)
        t_phixi.update_many(phi @ xi, p)
        t_etaphi.update_many(eta @ phi, p)
    return CheckReport.from_trackers(
        f"axioms[{S.name}]", tol, [t_unit, t_sq, t_comp, t_phixi, t_etaphi])


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
    d = S.chart.dim
    rows = []
    rhs = []
    trace_sum = 0.0
    npts = sd.points.shape[0]
    for i in range(npts):
        G0 = sd.md.gamma0[i]
        # nabla_{d_m} xi, all m at once: N[k, m]
        N = sd.xi1[i] + np.einsum("kmj,j->km", G0, sd.xi0[i])
        phi = sd.phi0[i]
        phi2 = phi @ phi
        for m in range(d):
            for k in range(d):
                rows.append([-phi[k, m], -phi2[k, m]])
                rhs.append(N[k, m])
        trace_sum += np.trace(N)
    A = np.asarray(rows)
    b = np.asarray(rhs)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] < 1e-10 * max(sv[0], 1.0):
        raise IllConditionedFit(
            f"design matrix is rank deficient (singular values {sv})")
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ coef - b)))
    beta_div = trace_sum / (npts * 2 * S.n)
    return AlphaBetaEstimate(float(coef[0]), float(coef[1]), resid,
                             float(beta_div))


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
    d = S.chart.dim
    phi_field = fundamental_form_field(S)
    eta_field = one_form_as_kform(S.eta)
    t_deta = ResidualTracker("d(eta) - 2*alpha*Phi")
    t_dphi = ResidualTracker("d(Phi) - 2*beta*eta^Phi")
    t_nphi = ResidualTracker("nabla phi identity")
    t_neta = ResidualTracker("nabla eta identity")
    t_reeb = ResidualTracker("eta([xi, X])")
    t_xixi = ResidualTracker("nabla_xi xi")

    xi_field = S.xi
    brackets = [geom.lie_bracket(ev, xi_field, coordinate_field(S.chart, j),
                                 sd.points) for j in range(d)]

    av = ev.value(F.alpha, sd.points)
    bv = ev.value(F.beta, sd.points)
    av = np.broadcast_to(np.asarray(av, dtype=float), (sd.points.shape[0],))
    bv = np.broadcast_to(np.asarray(bv, dtype=float), (sd.points.shape[0],))

    phiv, _, _ = geom.eval_form(ev, phi_field, sd.points)
    etav, _, _ = geom.eval_form(ev, eta_field, sd.points)

    C0, _ = riemann.nabla_endo_all(sd.md, sd.phi0, sd.phi1, sd.phi2)

    for i in range(sd.points.shape[0]):
        p = sd.points[i]
        g0 = sd.md.g0[i]
        phi, xi, eta = sd.phi0[i], sd.xi0[i], sd.eta0[i]
        alpha, beta = float(av[i]), float(bv[i])

        deta = geom.exterior_derivative(ev, eta_field, p)
        t_deta.update_many(deta.comps - 2.0 * alpha * phiv[i], p)

        dphi = geom.exterior_derivative(ev, phi_field, p)
        etaphi = geom.wedge_values(
            geom.KFormValue(d, 1, etav[i]), geom.KFormValue(d, 2, phiv[i]))
        t_dphi.update_many(dphi.comps - 2.0 * beta * etaphi.comps, p)

        # (nabla_X phi) Y = alpha (g(X,Y) xi - eta(Y) X) + beta (g(phi X, Y) xi
        #                   - eta(Y) phi X), coordinate-basis X = d_m, Y = d_j
        for m in range(d):
            npm = C0[i][:, :, m]  # (nabla_{d_m} phi) as a matrix
            for j in range(d):
                closed = (alpha * (g0[m, j] * xi - eta[j] * np.eye(d)[:, m])
                          + beta * (float((phi[:, m]) @ g0[:, j]) * xi
                                    - eta[j] * phi[:, m]))
                t_nphi.update_many(npm[:, j] - closed, p)

        # (nabla_X eta) Y = alpha g(X, phi Y) + beta g(phi X, phi Y)
        G0 = sd.md.gamma0[i]
        for m in range(d):
            for j in range(d):
                lhs = sd.eta1[i][j, m] - float(sd.eta0[i] @ G0[:, m, j])
                rhs = (alpha * float(g0[m] @ phi[:, j])
                       + beta * float(phi[:, m] @ g0 @ phi[:, j]))
                t_neta.update(lhs - rhs, p)

        for j in range(d):
            t_reeb.update(float(eta @ brackets[j][i]), p)

        nxixi = riemann.cov_vector_at(sd.md, i, xi, xi, sd.xi1[i])
        t_xixi.update_many(nxixi, p)

    return CheckReport.from_trackers(
        f"trans_sasakian[{S.name}]", tol,
        [t_deta, t_dphi, t_nphi, t_neta, t_reeb, t_xixi])


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


def transverse_derivative(ev: Evaluator, F: TransSasakianFactor,
                          X: VectorField, U: VectorField, p
                          ) -> TransverseConnectionValue:
    """nabla^T_X U: the bracket rule along xi plus D-projection elsewhere.

    X decomposes pointwise as eta(X) xi + X^D; the connection is tensorial in
    X, so only pointwise values of the decomposition enter.
    """
    S = F.structure
    sd = StructureData(ev, S, p)
    i = 0
    uv, ug, _ = geom.eval_vector(ev, U, sd.points)
    _check_section(sd.eta0[i], uv[i], sd.points[i])
    xv, _, _ = geom.eval_vector(ev, X, sd.points)
    q = float(sd.eta0[i] @ xv[i])
    xd = xv[i] - q * sd.xi0[i]
    br = geom.lie_bracket(ev, S.xi, U, sd.points)[i]
    cov = riemann.cov_vector_at(sd.md, i, xd, uv[i], ug[i])
    P = np.eye(S.chart.dim) - np.outer(sd.xi0[i], sd.eta0[i])
    return TransverseConnectionValue(q * br + P @ cov, P)


class _TransversePoint:
    """Jets shared by the transverse computations at a single point."""

    def __init__(self, ev, F: TransSasakianFactor, p):
        self.S = F.structure
        self.sd = StructureData(ev, self.S, p)
        self.ev = ev
        self.d = self.S.chart.dim
        i = 0
        self.eta0, self.eta1 = self.sd.eta0[i], self.sd.eta1[i]
        self.xi0, self.xi1, self.xi2 = (self.sd.xi0[i], self.sd.xi1[i],
                                        self.sd.xi2[i])
        self.G0, self.G1 = self.sd.md.gamma0[i], self.sd.md.gamma1[i]
        self.P0 = np.eye(self.d) - np.outer(self.xi0, self.eta0)
        # dP[k, l, n] = d_n P^k_l
        self.P1 = (-np.einsum("kn,l->kln", self.xi1, self.eta0)
                   - np.einsum("k,ln->kln", self.xi0, self.eta1))
        self._jets = {}

    def field_jets(self, X: VectorField):
        key = id(X)
        if key not in self._jets:
            v, g, h = geom.eval_vector(self.ev, X, self.sd.points)
            self._jets[key] = (v[0], g[0], h[0])
        return self._jets[key]

    def nabla_T_jet(self, X, U):
        """(value, gradient) of the field p -> (nabla^T_X U)_p.

        X, U are expression vector fields; U must be a D-section.
        """
        X0, X1, _ = self.field_jets(X)
        U0, U1, U2 = self.field_jets(U)
        q0 = float(self.eta0 @ X0)
        q1 = self.eta1.T @ X0 + X1.T @ self.eta0
        # bracket [xi, U] with gradient
        B0 = self.xi0 @ U1.T - U0 @ self.xi1.T
        B1 = (np.einsum("in,ki->kn", self.xi1, U1)
              + np.einsum("i,kin->kn", self.xi0, U2)
              - np.einsum("in,ki->kn", U1, self.xi1)
              - np.einsum("i,kin->kn", U0, self.xi2))
        XD0 = X0 - q0 * self.xi0
        XD1 = X1 - np.outer(self.xi0, q1) - q0 * self.xi1
        inner = U1 + np.einsum("lij,j->li", self.G0, U0)
        C0 = inner @ XD0
        C1 = (np.einsum("in,li->ln", XD1, inner)
              + np.einsum("i,lin->ln", XD0, U2)
              + np.einsum("i,lijn,j->ln", XD0, self.G1, U0)
              + np.einsum("i,lij,jn->ln", XD0, self.G0, U1))
        T0 = q0 * B0 + self.P0 @ C0
        T1 = (np.outer(B0, q1) + q0 * B1
              + np.einsum("kln,l->kn", self.P1, C0)
              + np.einsum("kl,ln->kn", self.P0, C1))
        return T0, T1

    def nabla_T_of_numeric(self, Xval, T0, T1):
        """nabla^T_X applied to a numerically known D-valued field (T0, T1)."""
        q = float(self.eta0 @ Xval)
        xd = Xval - q * self.xi0
        brT = self.xi0 @ T1.T - T0 @ self.xi1.T
        cov = T1 @ xd + np.einsum("lij,i,j->l", self.G0, xd, T0)
        return q * brT + self.P0 @ cov

    def nabla_T_value(self, Xval, U):
        """nabla^T_{Xval} U for a pointwise lower argument."""
        U0, U1, _ = self.field_jets(U)
        q = float(self.eta0 @ Xval)
        xd = Xval - q * self.xi0
        br = self.xi0 @ U1.T - U0 @ self.xi1.T
        cov = U1 @ xd + np.einsum("lij,i,j->l", self.G0, xd, U0)
        return q * br + self.P0 @ cov


def transverse_curvature(ev: Evaluator, F: TransSasakianFactor,
                         U: VectorField, V: VectorField, W: VectorField, p,
                         _tp=None) -> np.ndarray:
    """R^T(U,V)W, the curvature of the transverse connection."""
    tp = _tp if _tp is not None else _TransversePoint(ev, F, p)
    U0, U1, _ = tp.field_jets(U)
    V0, V1, _ = tp.field_jets(V)
    TV0, TV1 = tp.nabla_T_jet(V, W)
    TU0, TU1 = tp.nabla_T_jet(U, W)
    t1 = tp.nabla_T_of_numeric(U0, TV0, TV1)
    t2 = tp.nabla_T_of_numeric(V0, TU0, TU1)
    br = U0 @ V1.T - V0 @ U1.T
    t3 = tp.nabla_T_value(br, W)
    return t1 - t2 - t3


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
    pts = np.asarray(points, dtype=float)
    d = S.chart.dim
    dspan = d_span_fields(S)
    xfields = list(dspan)
    t_phi = ResidualTracker("nabla^T (phi|_D) = 0")
    t_g = ResidualTracker("nabla^T (g|_D) = 0")
    t_tor = ResidualTracker("nabla^T_U V - nabla^T_V U - [U,V]^D")
    t_e4 = ResidualTracker("nabla_U V xi-coefficient split")
    t_e5 = ResidualTracker("[U,V] xi-coefficient split")
    t_reeb_phi = ResidualTracker("nabla^T_xi (phi|_D)")
    t_reeb_g = ResidualTracker("nabla^T_xi (g|_D) - 2*beta*g(phi.,phi.)")

    phiU = {id(U): endo_apply_field(S.phi, U) for U in dspan}
    gUV = {}
    for iu, U in enumerate(dspan):
        for iv, V in enumerate(dspan):
            gUV[(iu, iv)] = geom.metric_pair_field(S.g, U, V)

    for p in pts:
        tp = _TransversePoint(ev, F, p)
        sd = tp.sd
        i = 0
        g0 = sd.md.g0[i]
        phi, xi, eta = sd.phi0[i], sd.xi0[i], sd.eta0[i]
        av = float(np.asarray(ev.value(F.alpha, sd.points[i])))
        bv = float(np.asarray(ev.value(F.beta, sd.points[i])))
        uvals = []
        for U in dspan:
            U0, U1, _ = tp.field_jets(U)
            uvals.append((U0, U1))
        for X in xfields:
            X0, _, _ = tp.field_jets(X)
            for iu, U in enumerate(dspan):
                # (nabla^T_X phi)(U) = nabla^T_X(phi U) - phi nabla^T_X U
                a = tp.nabla_T_value(X0, phiU[id(U)])
                b = phi @ tp.nabla_T_value(X0, U)
                t_phi.update_many(a - b, p)
            for iu, U in enumerate(dspan):
                for iv, V in enumerate(dspan):
                    if iv < iu:
                        continue
                    jg = ev.jet(gUV[(iu, iv)], sd.points[i])
                    lhs = float(jg.grad @ X0)
                    U0, _ = uvals[iu]
                    V0, _ = uvals[iv]
                    rhs = (tp.nabla_T_value(X0, U) @ g0 @ V0
                           + U0 @ g0 @ tp.nabla_T_value(X0, V))
                    t_g.update(lhs - rhs, p)
        # Reeb-direction parallelism, reported but not part of the verdict
        for iu, U in enumerate(dspan):
            a = tp.nabla_T_value(xi, phiU[id(U)])
            b = phi @ tp.nabla_T_value(xi, U)
            t_reeb_phi.update_many(a - b, p)
            for iv, V in enumerate(dspan):
                if iv < iu:
                    continue
                jg = ev.jet(gUV[(iu, iv)], sd.points[i])
                lhs = float(jg.grad @ xi)
                U0, _ = uvals[iu]
                V0, _ = uvals[iv]
                rhs = (tp.nabla_T_value(xi, U) @ g0 @ V0
                       + U0 @ g0 @ tp.nabla_T_value(xi, V))
                lie = lhs - rhs
                t_reeb_g.update(lie - 2.0 * bv * float((phi @ U0) @ g0 @ (phi @ V0)), p)
        for iu, U in enumerate(dspan):
            U0, _ = uvals[iu]
            for iv, V in enumerate(dspan):
                if iv <= iu:
                    continue
                V0, _ = uvals[iv]
                br = geom.lie_bracket(ev, U, V, sd.points)[i]
                brD = br - float(eta @ br) * xi
                tor = (tp.nabla_T_value(U0, V) - tp.nabla_T_value(V0, U) - brD)
                t_tor.update_many(tor, p)
                # nabla_U V = [-alpha Phi(U,V) - beta g(phi U, phi V)] xi + nabla^T_U V
                uv_, ug_, _ = geom.eval_vector(ev, V, sd.points)
                nUV = riemann.cov_vector_at(sd.md, i, U0, uv_[i], ug_[i])
                phiUV = float(U0 @ g0 @ (phi @ V0))
                coeff = -av * phiUV - bv * float((phi @ U0) @ g0 @ (phi @ V0))
                t_e4.update_many(nUV - (coeff * xi + tp.nabla_T_value(U0, V)), p)
                t_e5.update_many(br - (-2.0 * av * phiUV * xi + brD), p)

    rep = CheckReport.from_trackers(
        f"transverse_properties[{S.name}]", tol, [t_phi, t_g, t_tor, t_e4, t_e5])
    rep.details["reeb_direction"] = {
        "phi_parallelism_max": t_reeb_phi.max,
        "g_parallelism_vs_2beta_max": t_reeb_g.max,
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
    pts = np.asarray(points, dtype=float)
    d = S.chart.dim
    dspan = d_span_fields(S)
    t_i = ResidualTracker("projected-bracket lower-argument rule")
    t_ii = ResidualTracker("nabla_[U,V] W split")
    t_iii = ResidualTracker("R vs R^T closed form")
    t_iv_printed = ResidualTracker("R(U,V)xi printed form vs generic")
    gen_norm = ResidualTracker("R(U,V)xi generic norm")

    for p in pts:
        tp = _TransversePoint(ev, F, p)
        sd = tp.sd
        i = 0
        g0 = sd.md.g0[i]
        phi, xi, eta = sd.phi0[i], sd.xi0[i], sd.eta0[i]
        av = float(np.asarray(ev.value(F.alpha, sd.points[i])))
        bv = float(np.asarray(ev.value(F.beta, sd.points[i])))
        riem = sd.md.riemann()[i]
        pairs = [(a, b) for a in range(len(dspan))
                 for b in range(len(dspan)) if a < b]
        for (ia, ib) in pairs:
            U, V = dspan[ia], dspan[ib]
            U0, _, _ = tp.field_jets(U)
            V0, _, _ = tp.field_jets(V)
            if np.linalg.norm(U0) < 1e-9 or np.linalg.norm(V0) < 1e-9:
                continue
            br = geom.lie_bracket(ev, U, V, sd.points)[i]
            brD = br - float(eta @ br) * xi
            phiUV = float(U0 @ g0 @ (phi @ V0))
            for W in dspan:
                W0, W1, _ = tp.field_jets(W)
                if np.linalg.norm(W0) < 1e-9:
                    continue
                brxiW = geom.lie_bracket(ev, S.xi, W, sd.points)[i]
                # (i)
                lhs = tp.nabla_T_value(brD, W)
                rhs = tp.nabla_T_value(br, W) + 2 * av * phiUV * brxiW
                t_i.update_many(lhs - rhs, p)
                # (ii)
                nbrW = riemann.cov_vector_at(sd.md, i, br, W0, W1)
                phiW = phi @ W0
                phiBrD_W = float(brD @ g0 @ phiW)
                closed = (2 * av * av * phiUV * phiW
                          - 2 * av * bv * phiUV * W0
                          - av * phiBrD_W * xi
                          - bv * float(br @ g0 @ W0) * xi
                          + tp.nabla_T_value(br, W))
                t_ii.update_many(nbrW - closed, p)
                # (iii)
                Rgen = np.einsum("lkij,i,j,k->l", riem, U0, V0, W0)
                RT = transverse_curvature(ev, F, U, V, W, p, _tp=tp)
                phiU = phi @ U0
                phiV = phi @ V0
                phi2U = phi @ phiU
                phi2V = phi @ phiV
                PhiVW = float(V0 @ g0 @ phiW)
                PhiUW = float(U0 @ g0 @ phiW)
                gVW = float(V0 @ g0 @ W0)
                gUW = float(U0 @ g0 @ W0)
                closed3 = (RT + av * av * PhiVW * phiU
                           - 2 * av * av * phiUV * phiW
                           - av * av * PhiUW * phiV
                           + av * bv * PhiVW * phi2U
                           + av * bv * gVW * phiU
                           + bv * bv * gVW * phi2U
                           - av * bv * gUW * phiV
                           - bv * bv * gUW * phi2V
                           + 2 * av * bv * phiUV * W0
                           - av * bv * PhiUW * phi2V)
                t_iii.update_many(Rgen - closed3, p)
            # (iv): printed right side on D-sections; eta(U) = eta(V) = 0 as
            # functions makes the nabla(eta(.) xi) terms vanish identically
            Rxi = np.einsum("lkij,i,j,k->l", riem, U0, V0, xi)
            printed = bv * float(eta @ br) * xi
            t_iv_printed.update_many(Rxi - printed, p)
            gen_norm.update_many(Rxi, p)

    trackers = [t_i, t_ii, t_iii]
    rep = CheckReport.from_trackers(
        f"transverse_curvature[{S.name}]", tol, trackers)
    rep.details["reeb_curvature_comparison"] = {
        "printed_vs_generic_max": t_iv_printed.max,
        "generic_max_norm": gen_norm.max,
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
