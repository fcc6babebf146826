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
# Stacks over the points axis: (p,) scalars, (p, d) vectors, (p, d, d)
# matrices and gradients
# ---------------------------------------------------------------------------

def _values(ev: Evaluator, e: expr.Expression, pts) -> np.ndarray:
    """A scalar expression as a (p,) stack over the points."""
    v = np.asarray(ev.value(e, pts), dtype=float)
    return np.broadcast_to(v, (pts.shape[0],))


def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _dot(a, b):
    return np.einsum("pi,pi->p", a, b)


def _apply(M, v):
    return np.einsum("pij,pj->pi", M, v)


def _pair(a, g, b):
    """g(a, b) for (p, d) stacks a, b and a (p, d, d) metric stack."""
    return np.einsum("pi,pij,pj->p", a, g, b)


def _bracket(X0, X1, Y0, Y1):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k from value and gradient stacks."""
    return np.einsum("pi,pki->pk", X0, Y1) - np.einsum("pi,pki->pk", Y0, X1)


def _args_first(r, nargs):
    """r[point, a_1..a_nargs, ...] as r[argument, point, ...], the argument
    axes flattened in order, for ResidualTracker.point_major."""
    r = np.moveaxis(r, 0, nargs)
    return r.reshape((-1,) + r.shape[nargs:])


# ---------------------------------------------------------------------------
# Axioms, normality, type estimation
# ---------------------------------------------------------------------------

def validate_axioms(ev: Evaluator, S: AlmostContactMetricStructure,
                    points, tol) -> CheckReport:
    """The five almost-contact axioms over coordinate-basis arguments."""
    sd = StructureData(ev, S, points)
    phi, xi, eta, g0 = sd.phi0, sd.xi0, sd.eta0, sd.md.g0
    families = {
        "eta(xi)-1": _dot(eta, xi) - 1.0,
        "phi^2 + Id - eta(x)xi": (phi @ phi + np.eye(S.chart.dim)
                                  - _outer(xi, eta)),
        "g(phi.,phi.) - g + eta(x)eta": (phi.swapaxes(1, 2) @ g0 @ phi - g0
                                         + _outer(eta, eta)),
        "phi xi": _apply(phi, xi),
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
    alpha, beta = _values(ev, F.alpha, pts), _values(ev, F.beta, pts)
    a, b = alpha[:, None], beta[:, None]

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

    families = {
        "d(eta) - 2*alpha*Phi": [deta - 2.0 * a * phiv],
        "d(Phi) - 2*beta*eta^Phi": [dphi - 2.0 * b * etaphi],
        "nabla phi identity": _args_first(nphi, 2),
        "nabla eta identity": _args_first(lhs - rhs, 2),
        # eta([xi, d_j]) = -eta(d_j xi) on a chart
        "eta([xi, X])": -np.einsum("pk,pkj->jp", eta, sd.xi1),
        "nabla_xi xi": [riemann.cov_vector_at(sd.md, ..., xi, xi, sd.xi1)],
    }
    return CheckReport.from_trackers(
        f"trans_sasakian[{S.name}]", tol,
        [ResidualTracker.point_major(n, r, pts) for n, r in families.items()])


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

    Built on one all-points StructureData. Vector values are (p, d) stacks
    and gradients (p, d, d); the projector Id - xi (x) eta is P0 (p, d, d)
    with P1[p, k, l, n] = d_n P^k_l. nabla^T_X U is the bracket rule along
    xi plus the D-projected Levi-Civita derivative along X^D = X - eta(X) xi;
    it is tensorial in X, so X enters as pointwise values.
    """

    def __init__(self, ev: Evaluator, F: TransSasakianFactor, points):
        self.ev = ev
        self.sd = sd = StructureData(ev, F.structure, points)
        self.points, self.md = sd.points, sd.md
        self.alpha = _values(ev, F.alpha, sd.points)
        self.beta = _values(ev, F.beta, sd.points)
        self.P0 = np.eye(sd.xi0.shape[1]) - _outer(sd.xi0, sd.eta0)
        self.P1 = (-np.einsum("pkn,pl->pkln", sd.xi1, sd.eta0)
                   - np.einsum("pk,pln->pkln", sd.xi0, sd.eta1))
        self._jets = {}

    def jets(self, X: VectorField):
        """(value, gradient, Hessian) stacks of a vector field, evaluated
        once per field (the entry keeps the field, so its id stays its key)."""
        if id(X) not in self._jets:
            self._jets[id(X)] = (X, geom.eval_vector(self.ev, X, self.points))
        return self._jets[id(X)][1]

    def nabla_T_of_numeric(self, X, T0, T1):
        """nabla^T_X applied to a D-valued field known by its value and
        gradient stacks (T0, T1)."""
        sd = self.sd
        q = _dot(sd.eta0, X)[:, None]
        cov = riemann.cov_vector_at(self.md, ..., X - q * sd.xi0, T0, T1)
        return q * _bracket(sd.xi0, sd.xi1, T0, T1) + _apply(self.P0, cov)

    def nabla_T_value(self, X, U: VectorField):
        """nabla^T_X U for a D-section field U and a (p, d) stack X."""
        U0, U1, _ = self.jets(U)
        return self.nabla_T_of_numeric(X, U0, U1)

    def nabla_T_jet(self, X: VectorField, U: VectorField):
        """(value, gradient) stacks of the field p -> (nabla^T_X U)_p.

        X, U are expression vector fields; U must be a D-section.
        """
        sd = self.sd
        X0, X1, _ = self.jets(X)
        U0, U1, U2 = self.jets(U)
        q0 = _dot(sd.eta0, X0)
        q1 = (np.einsum("pkn,pk->pn", sd.eta1, X0)
              + np.einsum("pkn,pk->pn", X1, sd.eta0))
        # bracket [xi, U] with gradient
        B0 = _bracket(sd.xi0, sd.xi1, U0, U1)
        B1 = (np.einsum("pin,pki->pkn", sd.xi1, U1)
              + np.einsum("pi,pkin->pkn", sd.xi0, U2)
              - np.einsum("pin,pki->pkn", U1, sd.xi1)
              - np.einsum("pi,pkin->pkn", U0, sd.xi2))
        XD0 = X0 - q0[:, None] * sd.xi0
        XD1 = X1 - _outer(sd.xi0, q1) - q0[:, None, None] * sd.xi1
        C0, C1 = riemann.cov_vector_jet(self.md, ..., XD0, XD1, U0, U1, U2)
        T0 = q0[:, None] * B0 + _apply(self.P0, C0)
        T1 = (_outer(B0, q1) + q0[:, None, None] * B1
              + np.einsum("pkln,pl->pkn", self.P1, C0) + self.P0 @ C1)
        return T0, T1

    def curvature(self, U: VectorField, V: VectorField, W: VectorField):
        """R^T(U,V)W = nabla^T_U nabla^T_V W - nabla^T_V nabla^T_U W
        - nabla^T_[U,V] W."""
        U0, U1, _ = self.jets(U)
        V0, V1, _ = self.jets(V)
        t1 = self.nabla_T_of_numeric(U0, *self.nabla_T_jet(V, W))
        t2 = self.nabla_T_of_numeric(V0, *self.nabla_T_jet(U, W))
        return t1 - t2 - self.nabla_T_value(_bracket(U0, U1, V0, V1), W)


def transverse_derivative(ev: Evaluator, F: TransSasakianFactor,
                          X: VectorField, U: VectorField, p
                          ) -> TransverseConnectionValue:
    """nabla^T_X U at a single point; U must be a D-section there."""
    td = TransverseData(ev, F, p)
    _check_section(td.sd.eta0[0], td.jets(U)[0][0], td.points[0])
    return TransverseConnectionValue(
        td.nabla_T_value(td.jets(X)[0], U)[0], td.P0[0])


def transverse_curvature(ev: Evaluator, F: TransSasakianFactor,
                         U: VectorField, V: VectorField, W: VectorField, p
                         ) -> np.ndarray:
    """R^T(U,V)W, the curvature of the transverse connection, at one point."""
    return TransverseData(ev, F, p).curvature(U, V, W)[0]


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
    g0, phi, xi, eta = sd.md.g0, sd.phi0, sd.xi0, sd.eta0
    a, b = td.alpha, td.beta
    dspan = d_span_fields(S)
    n = len(dspan)
    phiU = [endo_apply_field(S.phi, U) for U in dspan]
    U0 = [td.jets(U)[0] for U in dspan]
    U1 = [td.jets(U)[1] for U in dspan]
    phiU0 = [_apply(phi, u) for u in U0]
    upper = [(u, v) for u in range(n) for v in range(u, n)]
    pair_jets = ev.jets([geom.metric_pair_field(S.g, dspan[u], dspan[v])
                         for u, v in upper], pts)
    dg = {uv: j.grad for uv, j in zip(upper, pair_jets)}
    # NT[x][u] = nabla^T_{X_x} U_u over the span
    NT = [[td.nabla_T_value(X, U) for U in dspan] for X in U0]

    def parallelism(X, NTX):
        """(nabla^T_X phi)(U) = nabla^T_X(phi U) - phi nabla^T_X U per U,
        and (nabla^T_X g)(U, V) per pair (u <= v)."""
        return ([td.nabla_T_value(X, phiU[u]) - _apply(phi, NTX[u])
                 for u in range(n)],
                [_dot(dg[u, v], X) - (_pair(NTX[u], g0, U0[v])
                                      + _pair(U0[u], g0, NTX[v]))
                 for u, v in upper])

    par = [parallelism(X, NTX) for X, NTX in zip(U0, NT)]
    # Reeb-direction parallelism, reported but not part of the verdict
    reeb_phi, reeb_g = parallelism(
        xi, [td.nabla_T_value(xi, U) for U in dspan])
    reeb_g = [r - 2.0 * b * _pair(phiU0[u], g0, phiU0[v])
              for r, (u, v) in zip(reeb_g, upper)]

    tor, e4, e5 = [], [], []
    for u, v in upper:
        if u == v:
            continue
        br = _bracket(U0[u], U1[u], U0[v], U1[v])
        brD = br - _dot(eta, br)[:, None] * xi
        tor.append(NT[u][v] - NT[v][u] - brD)
        # nabla_U V = [-alpha Phi(U,V) - beta g(phi U, phi V)] xi + nabla^T_U V
        nUV = riemann.cov_vector_at(sd.md, ..., U0[u], U0[v], U1[v])
        phiUV = _pair(U0[u], g0, phiU0[v])
        coeff = -a * phiUV - b * _pair(phiU0[u], g0, phiU0[v])
        e4.append(nUV - (coeff[:, None] * xi + NT[u][v]))
        e5.append(br - ((-2.0 * a * phiUV)[:, None] * xi + brD))

    def track(name, r):
        return ResidualTracker.point_major(name, r, pts)

    rep = CheckReport.from_trackers(
        f"transverse_properties[{S.name}]", tol, [
            track("nabla^T (phi|_D) = 0", [r for f, _ in par for r in f]),
            track("nabla^T (g|_D) = 0", [r for _, f in par for r in f]),
            track("nabla^T_U V - nabla^T_V U - [U,V]^D", tor),
            track("nabla_U V xi-coefficient split", e4),
            track("[U,V] xi-coefficient split", e5)])
    rep.details["reeb_direction"] = {
        "phi_parallelism_max": track("nabla^T_xi (phi|_D)", reeb_phi).max,
        "g_parallelism_vs_2beta_max": track(
            "nabla^T_xi (g|_D) - 2*beta*g(phi.,phi.)", reeb_g).max,
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
    g0, phi, xi, eta = md.g0, sd.phi0, sd.xi0, sd.eta0
    a, b = td.alpha[:, None], td.beta[:, None]
    dspan = d_span_fields(S)
    n = len(dspan)
    jets = [td.jets(U)[:2] for U in dspan]
    # an argument of norm below 1e-9 drops the sample at that point
    live = [~(np.linalg.norm(v, axis=1) < 1e-9) for v, _ in jets]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    r_i, r_ii, r_iii, keep = [], [], [], []
    r_iv, gen = [], []
    for u, v in pairs:
        (U0, U1), (V0, V1) = jets[u], jets[v]
        br = _bracket(U0, U1, V0, V1)
        brD = br - _dot(eta, br)[:, None] * xi
        phiU, phiV = _apply(phi, U0), _apply(phi, V0)
        phi2U, phi2V = _apply(phi, phiU), _apply(phi, phiV)
        phiUV = _pair(U0, g0, phiV)[:, None]
        for w, W in enumerate(dspan):
            W0, W1 = jets[w]
            keep.append(live[u] & live[v] & live[w])
            NTbrW = td.nabla_T_value(br, W)
            # (i)
            brxiW = _bracket(xi, sd.xi1, W0, W1)
            r_i.append(td.nabla_T_value(brD, W)
                       - (NTbrW + 2 * a * phiUV * brxiW))
            # (ii)
            nbrW = riemann.cov_vector_at(md, ..., br, W0, W1)
            phiW = _apply(phi, W0)
            phiBrD_W = _pair(brD, g0, phiW)[:, None]
            closed = (2 * a * a * phiUV * phiW
                      - 2 * a * b * phiUV * W0
                      - a * phiBrD_W * xi
                      - b * _pair(br, g0, W0)[:, None] * xi
                      + NTbrW)
            r_ii.append(nbrW - closed)
            # (iii)
            Rgen = riemann.curvature_values(md, ..., U0, V0, W0)
            PhiVW = _pair(V0, g0, phiW)[:, None]
            PhiUW = _pair(U0, g0, phiW)[:, None]
            gVW = _pair(V0, g0, W0)[:, None]
            gUW = _pair(U0, g0, W0)[:, None]
            closed3 = (td.curvature(dspan[u], dspan[v], W)
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
            r_iii.append(Rgen - closed3)
        # (iv): printed right side on D-sections; eta(U) = eta(V) = 0 as
        # functions makes the nabla(eta(.) xi) terms vanish identically
        Rxi = riemann.curvature_values(md, ..., U0, V0, xi)
        r_iv.append(Rxi - b * _dot(eta, br)[:, None] * xi)
        gen.append(Rxi)
    pair_keep = [live[u] & live[v] for u, v in pairs]

    def track(name, r, k):
        return ResidualTracker.point_major(name, r, pts, k)

    rep = CheckReport.from_trackers(
        f"transverse_curvature[{S.name}]", tol, [
            track("projected-bracket lower-argument rule", r_i, keep),
            track("nabla_[U,V] W split", r_ii, keep),
            track("R vs R^T closed form", r_iii, keep)])
    rep.details["reeb_curvature_comparison"] = {
        "printed_vs_generic_max": track(
            "R(U,V)xi printed form vs generic", r_iv, pair_keep).max,
        "generic_max_norm": track(
            "R(U,V)xi generic norm", gen, pair_keep).max,
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
