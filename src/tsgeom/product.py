"""The two-parameter Hermitian structure on a product of contact factors.

Given trans-Sasakian factors (M1, phi1, xi1, eta1, g1) and (M2, ...), the
pair (a, b) with b != 0 defines an almost complex structure J and metric G
on M1 x M2 mixing the two Reeb directions. This module assembles (J, G) as
expression fields on the product chart and verifies the closed-form
expressions for the product connection, for nabla J and for the curvature
against the generic Levi-Civita computation.

Each closed form is evaluated in named variants:
  "reference" - the identity exactly as transcribed, including its
                suspected slips (sub-variants cover flagged ambiguities);
  "koszul"    - the form rederived from the Koszul formula.
The generic computation is the oracle; reports record which variant it
confirms and never silently reconcile a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr, geom, riemann
from .contact import TransSasakianFactor, validate_axioms
from .expr import Evaluator
from .geom import (
    ChartDomain, EndomorphismField, MetricField, VectorField,
    coordinate_field, endo_apply_field, endo_field, metric_field,
    vector_field,
)
from .report import CheckReport, ResidualTracker, verdict_for


class ProductError(Exception):
    pass


class ZeroB(ProductError):
    pass


class UnvalidatedFactor(ProductError):
    pass


@dataclass
class EmbeddedFactor:
    """A factor's fields re-indexed into the product chart."""

    index: int  # 1 or 2
    source: TransSasakianFactor
    offset: int
    dim: int
    phi: EndomorphismField  # product-chart endo, zero outside the block
    xi: VectorField
    eta: tuple  # expressions, length = product dim
    gblk: tuple  # product-dim matrix of expressions, factor metric block
    alpha: expr.Expression
    beta: expr.Expression

    @property
    def block(self):
        return slice(self.offset, self.offset + self.dim)


def _embed_factor(F: TransSasakianFactor, offset: int, total: int, idx: int
                  ) -> EmbeddedFactor:
    d = F.chart.dim
    Z = expr.ZERO

    def sh(e):
        return expr.shift_coords(e, offset)

    phi = [[Z] * total for _ in range(total)]
    gblk = [[Z] * total for _ in range(total)]
    for i in range(d):
        for j in range(d):
            phi[offset + i][offset + j] = sh(F.structure.phi.comps[i][j])
            gblk[offset + i][offset + j] = sh(F.structure.g.comps[i][j])
    xi = [Z] * total
    eta = [Z] * total
    for i in range(d):
        xi[offset + i] = sh(F.structure.xi.comps[i])
        eta[offset + i] = sh(F.structure.eta.comps[i])
    return EmbeddedFactor(
        index=idx, source=F, offset=offset, dim=d,
        phi=None, xi=None,  # filled by caller once the chart exists
        eta=tuple(eta), gblk=tuple(tuple(r) for r in gblk),
        alpha=sh(F.alpha), beta=sh(F.beta),
    ), tuple(r for r in phi), tuple(xi)


@dataclass
class ProductHermitian:
    f1: TransSasakianFactor
    f2: TransSasakianFactor
    a: float
    b: float
    lam: float  # a^2 + b^2 - 1
    chart: ChartDomain
    J: EndomorphismField
    G: MetricField
    e1: EmbeddedFactor
    e2: EmbeddedFactor
    tampered: bool = False

    @property
    def dim(self):
        return self.chart.dim

    @property
    def n1(self):
        return self.f1.n

    @property
    def n2(self):
        return self.f2.n

    @property
    def m_complex(self):
        return self.dim // 2

    def factor_point(self, idx, p):
        emb = self.e1 if idx == 1 else self.e2
        return np.asarray(p)[..., emb.block]


def build_product(f1: TransSasakianFactor, f2: TransSasakianFactor,
                  a: float, b: float, *, validate=True, ev=None,
                  broken_j=False) -> ProductHermitian:
    """Assemble (J, G) on the product chart from the factor structures.

    broken_j is a negative control: the Reeb-mixing coefficient b is doubled
    in the xi2-component rows of J only, which destroys J^2 = -Id.
    """
    if b == 0:
        raise ZeroB("the structure requires b != 0")
    if validate:
        evv = ev or expr.JET
        for F in (f1, f2):
            if F.klass == "unverified":
                raise UnvalidatedFactor(F.structure.name)
            smoke = geom.sample_points(F.chart, 8, seed=11)
            rep = validate_axioms(evv, F.structure, smoke, 1e-6)
            if rep.verdict != "pass":
                raise UnvalidatedFactor(
                    f"{F.structure.name}: axiom residual {rep.max_residual:.3e}")

    d1, d2 = f1.chart.dim, f2.chart.dim
    total = d1 + d2
    names = tuple(n + "1" for n in f1.chart.names) + tuple(
        n + "2" for n in f2.chart.names)
    box = f1.chart.box + f2.chart.box
    ch = ChartDomain(total, names, box)

    emb1, phi1_rows, xi1_comps = _embed_factor(f1, 0, total, 1)
    emb2, phi2_rows, xi2_comps = _embed_factor(f2, d1, total, 2)
    emb1.phi = endo_field(ch, phi1_rows)
    emb1.xi = vector_field(ch, xi1_comps)
    emb2.phi = endo_field(ch, phi2_rows)
    emb2.xi = vector_field(ch, xi2_comps)

    lam = a * a + b * b - 1.0
    b_xi2 = 2.0 * b if broken_j else b

    # J = phi1 + phi2 - [(a/b) eta1 + ((a^2+b^2)/b) eta2] (x) xi1
    #              + [(1/b) eta1 + (a/b) eta2] (x) xi2
    C = expr.const
    Jrows = [[expr.ZERO] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            t = expr.add(emb1.phi.comps[i][j], emb2.phi.comps[i][j])
            t = expr.add(t, expr.mul(
                xi1_comps[i],
                expr.add(expr.mul(C(-a / b), emb1.eta[j]),
                         expr.mul(C(-(a * a + b * b) / b), emb2.eta[j]))))
            t = expr.add(t, expr.mul(
                xi2_comps[i],
                expr.add(expr.mul(C(1.0 / b_xi2), emb1.eta[j]),
                         expr.mul(C(a / b_xi2), emb2.eta[j]))))
            Jrows[i][j] = t
    J = endo_field(ch, Jrows)

    Grows = [[expr.ZERO] * total for _ in range(total)]
    for i in range(total):
        for j in range(i, total):
            t = expr.add(emb1.gblk[i][j], emb2.gblk[i][j])
            t = expr.add(t, expr.mul(C(lam), expr.mul(emb2.eta[i], emb2.eta[j])))
            t = expr.add(t, expr.mul(C(a), expr.add(
                expr.mul(emb1.eta[i], emb2.eta[j]),
                expr.mul(emb1.eta[j], emb2.eta[i]))))
            Grows[i][j] = t
            Grows[j][i] = t
    G = metric_field(ch, Grows)

    return ProductHermitian(f1=f1, f2=f2, a=a, b=b, lam=lam, chart=ch, J=J,
                            G=G, e1=emb1, e2=emb2, tampered=broken_j)


DEFAULT_AB_GRID = ((0.0, 1.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -1.0))


# ---------------------------------------------------------------------------
# Pointwise product data
# ---------------------------------------------------------------------------

@dataclass
class SpanField:
    """A spanning argument: a product-chart field tied to its factor data."""

    label: str
    factor: int  # 1 or 2
    product_field: VectorField
    factor_field: VectorField  # on the factor chart
    is_reeb: bool = False
    in_d: bool = False


def spanning_fields(P: ProductHermitian, factor: int):
    """{xi_i} u {phi_i d_c}: Reeb plus D-spanning fields of one factor.

    Identically-zero phi-images (e.g. phi applied to the Reeb coordinate)
    are dropped; they add nothing to the span.
    """
    emb = P.e1 if factor == 1 else P.e2
    F = emb.source
    out = [SpanField(f"xi{factor}", factor, emb.xi, F.structure.xi,
                     is_reeb=True)]
    for c in range(F.chart.dim):
        ff = endo_apply_field(F.structure.phi, coordinate_field(F.chart, c))
        if all(cmp == expr.ZERO for cmp in ff.comps):
            continue
        pf = endo_apply_field(emb.phi, coordinate_field(P.chart, emb.offset + c))
        out.append(SpanField(f"phi{factor}(d{c})", factor, pf, ff, in_d=True))
    return out


class ProductData:
    """Batched jets of everything the product reports need.

    The single owner of per-(product, points) data: metric jets, structure
    tensors, spanning fields with their cached jets, and adapted frames.
    """

    def __init__(self, ev: Evaluator, P: ProductHermitian, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        self.ev = ev
        self.P = P
        self.points = pts
        self.md = riemann.MetricData(ev, P.G, pts)
        self.Jv, self.Jg, self.Jh = geom.eval_endo(ev, P.J, pts)
        self.phi1v, _, _ = geom.eval_endo(ev, P.e1.phi, pts)
        self.phi2v, _, _ = geom.eval_endo(ev, P.e2.phi, pts)
        self.xi1v, _, _ = geom.eval_vector(ev, P.e1.xi, pts)
        self.xi2v, _, _ = geom.eval_vector(ev, P.e2.xi, pts)
        eta1 = geom.one_form_field(P.chart, P.e1.eta)
        eta2 = geom.one_form_field(P.chart, P.e2.eta)
        self.eta1v, _, _ = geom.eval_oneform(ev, eta1, pts)
        self.eta2v, _, _ = geom.eval_oneform(ev, eta2, pts)
        g1f = geom.endo_field(P.chart, P.e1.gblk)
        g2f = geom.endo_field(P.chart, P.e2.gblk)
        self.g1v, _, _ = geom.eval_endo(ev, g1f, pts)
        self.g2v, _, _ = geom.eval_endo(ev, g2f, pts)
        self.a1 = self._scalar(P.e1.alpha)
        self.b1 = self._scalar(P.e1.beta)
        self.a2 = self._scalar(P.e2.alpha)
        self.b2 = self._scalar(P.e2.beta)
        self._jets = {}
        self._CJ = None

    def _scalar(self, e):
        v = np.asarray(self.ev.value(e, self.points), dtype=float)
        return np.broadcast_to(v, (self.points.shape[0],))

    @cached_property
    def factor_md(self):
        """{factor: factor-chart MetricData at the sliced points}; only the
        connection and curvature reports read them."""
        return {w: riemann.MetricData(self.ev, F.structure.g,
                                      self.P.factor_point(w, self.points))
                for w, F in ((1, self.P.f1), (2, self.P.f2))}

    @cached_property
    def span(self):
        """{factor: spanning fields}, see spanning_fields."""
        return {w: spanning_fields(self.P, w) for w in (1, 2)}

    def jets(self, S: SpanField):
        """Product-chart and factor-chart jets of a spanning field.

        Returns ((val, grad, hess) on the product chart at the points,
        (val, grad, hess) on the factor chart at the sliced points),
        evaluated once per field.
        """
        if S.label not in self._jets:
            fpts = self.P.factor_point(S.factor, self.points)
            self._jets[S.label] = (
                geom.eval_vector(self.ev, S.product_field, self.points),
                geom.eval_vector(self.ev, S.factor_field, fpts))
        return self._jets[S.label]

    def nabla_J(self):
        """C0[p,i,j,m] = (nabla_{d_m} J)^i_j and its gradient C1."""
        if self._CJ is None:
            self._CJ = riemann.nabla_endo_all(self.md, self.Jv, self.Jg, self.Jh)
        return self._CJ

    @cached_property
    def frames(self):
        """Adapted G-orthonormal frames {xi1, J xi1, e_j, f_k}, one per point.

        A (p, d, d) array; frames[i] holds the frame vectors at point i as
        rows.
        """
        xi1 = self.xi1v
        blocks = [xi1[:, None, :], (self.Jv @ xi1[:, :, None]).swapaxes(1, 2)]
        for (emb, phiv) in ((self.P.e1, self.phi1v), (self.P.e2, self.phi2v)):
            blocks.append(riemann.orthonormal_frame_within(
                self.md.g0, phiv[:, :, emb.block].swapaxes(1, 2)))
        return np.concatenate(blocks, axis=1)

    @property
    def frame_blocks(self):
        """The D-block parts (e_j, f_k) of the frames, (p, 2 n_i, d) each."""
        n1 = 2 * self.P.n1
        return self.frames[:, 2:2 + n1], self.frames[:, 2 + n1:]

    @cached_property
    def factor_columns(self):
        """(phi, xi, eta, g, alpha, beta) of each factor, shaped for column
        algebra over the points: phi and g (p, d, d), xi (p, d, 1) columns,
        eta (p, 1, d) rows, alpha and beta (p, 1, 1)."""
        return tuple(
            (phi, xi[:, :, None], eta[:, None, :], g, a[:, None, None],
             b[:, None, None])
            for phi, xi, eta, g, a, b in (
                (self.phi1v, self.xi1v, self.eta1v, self.g1v, self.a1, self.b1),
                (self.phi2v, self.xi2v, self.eta2v, self.g2v, self.a2, self.b2)))

    def column(self, S: SpanField):
        """Product-chart value of a spanning field as (p, d, 1) columns."""
        return self.jets(S)[0][0][:, :, None]


def _inner(X, g, Y):
    """g(X, Y) for (p, d, 1) column stacks, as (p, 1, 1) scalars."""
    return X.swapaxes(1, 2) @ g @ Y


# ---------------------------------------------------------------------------
# Closed-form variants: connection
# ---------------------------------------------------------------------------
#
# The variants take (p, d, 1) column stacks of argument values and return
# {variant: (p, d, 1) value} over the points.

def _factor_cov(pd: ProductData, which, X: SpanField, Y: SpanField):
    """Factor covariant derivative nabla^i_X Y in its product-chart block."""
    _, (xv, _, _) = pd.jets(X)
    _, (yv, yg, _) = pd.jets(Y)
    out = np.zeros((pd.points.shape[0], pd.P.dim, 1))
    out[:, (pd.P.e1 if which == 1 else pd.P.e2).block, 0] = (
        riemann.cov_vector_at(pd.factor_md[which], ..., xv, yv, yg))
    return out


def _factor_curvature(pd: ProductData, which, U: SpanField, V: SpanField,
                      Z: SpanField):
    """Factor curvature R^i(U, V) Z in its product-chart block."""
    out = np.zeros((pd.points.shape[0], pd.P.dim, 1))
    out[:, (pd.P.e1 if which == 1 else pd.P.e2).block, 0] = (
        riemann.curvature_values(pd.factor_md[which], ...,
                                 *(pd.jets(S)[1][0] for S in (U, V, Z))))
    return out


def connection_variants(pd: ProductData, X: SpanField, Y: SpanField,
                        Xval, Yval):
    """Named closed forms for nabla_X Y, by (factor(X), factor(Y)) block."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    case = (X.factor, Y.factor)
    if case == (1, 1):
        base = _factor_cov(pd, 1, X, Y)
        B1 = b1 * _inner(phi1 @ Xval, g1, phi1 @ Yval)
        return {
            "reference": base,
            "koszul": base + (a / b ** 2) * B1 * (-a * xi1 + xi2),
        }
    if case == (2, 2):
        base = _factor_cov(pd, 2, X, Y)
        eX, eY = eta2 @ Xval, eta2 @ Yval
        B2 = b2 * _inner(phi2 @ Xval, g2, phi2 @ Yval)
        ref = base - lam * (eX * (a2 * (phi2 @ Yval) + b2 * (phi2 @ (phi2 @ Yval)))
                            + eY * (a2 * (phi2 @ Xval) + b2 * (phi2 @ (phi2 @ Xval))))
        kos = (base
               - lam * a2 * (eX * (phi2 @ Yval) + eY * (phi2 @ Xval))
               + (B2 / b ** 2) * (a * xi1 + (b * b - 1.0) * xi2))
        return {"reference": ref, "koszul": kos}
    if case == (1, 2):
        eY, eX = eta2 @ Yval, eta1 @ Xval
        ref = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval)
                    + b1 * eY * (phi1 @ (phi1 @ Xval))
                    + b2 * eX * (phi2 @ (phi2 @ Yval)))
        kos = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval))
        return {"reference": ref, "koszul": kos}
    # case (2, 1)
    eX, eY = eta2 @ Xval, eta1 @ Yval
    ref = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval)
                + b1 * eX * (phi1 @ (phi1 @ Yval))
                + b2 * eY * (phi2 @ (phi2 @ Xval)))
    kos = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval))
    return {"reference": ref, "koszul": kos}


def nabla_j_variants(pd: ProductData, X: SpanField, Y: SpanField,
                     Xval, Yval):
    """Named closed forms for (nabla_X J) Y, by block case."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    ab2 = a * a + b * b
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    case = (X.factor, Y.factor)
    if case in ((1, 1), (2, 2)):
        phi, g, eta = (phi1, g1, eta1) if case == (1, 1) else (phi2, g2, eta2)
        gXY = _inner(Xval, g, Yval)
        eX, eY = eta @ Xval, eta @ Yval
        phiX = phi @ Xval
        phi2X = phi @ phiX
        PhiXY = _inner(Xval, g, phi @ Yval)
        gpp = _inner(phiX, g, phi @ Yval)
        gphiXY = _inner(phiX, g, Yval)
    if case == (1, 1):
        common = (a1 * gXY * xi1 - a1 * eY * Xval
                  + b1 * gphiXY * xi1 - b1 * eY * phiX
                  - (a / b) * a1 * PhiXY * xi1 + (a1 / b) * PhiXY * xi2)
        ref_tail = (- (a / b) * b1 * gpp * xi1
                    - (a / b) * b1 * eY * Xval + (a / b) * b1 * eY * eX * xi1)
        ref = common + (b1 * b1 / b) * gpp * xi2 + ref_tail
        ref_single = common + (b1 / b) * gpp * xi2 + ref_tail
        kos = (common
               - (a * a / b ** 2) * b1 * PhiXY * xi1
               + (a / b ** 2) * b1 * PhiXY * xi2
               + (b1 / b) * gpp * xi2
               + (a / b) * b1 * eY * phi2X)
        return {"reference": ref, "reference_single_beta": ref_single,
                "koszul": kos}
    if case == (2, 2):
        ref = (a2 * (gXY + lam * eX * eY) * xi2 - ab2 * a2 * eY * Xval
               + b2 * gphiXY * xi2 - ab2 * b2 * eY * phiX
               - (ab2 / b) * (a2 * PhiXY + b2 * gXY - b2 * eX * eY) * xi1
               + (a / b) * (a2 * PhiXY + b2 * gXY - b2 * eX * eY) * xi2)
        kos = (a2 * gXY * xi2 - a2 * eY * Xval
               + b2 * gphiXY * xi2 - b2 * eY * phiX
               + lam * a2 * eY * phi2X - (a / b) * b2 * eY * phi2X
               - (ab2 / b) * a2 * PhiXY * xi1 + (a / b) * a2 * PhiXY * xi2
               - (1.0 / b) * b2 * gpp * xi1
               + (a / b ** 2) * b2 * PhiXY * xi1
               + ((b * b - 1.0) / b ** 2) * b2 * PhiXY * xi2)
        return {"reference": ref, "koszul": kos}
    if case == (1, 2):
        eY, eX = eta2 @ Yval, eta1 @ Xval
        phiX = phi1 @ Xval
        phi2X = phi1 @ phiX
        phi3X = phi1 @ phi2X
        ref = (a * a1 * eY * eX * xi1 - a * a1 * eY * Xval
               + b * a1 * eY * phiX - b * b1 * eY * Xval
               + b * b1 * eY * eX * xi1 + a * b1 * eY * phi3X)
        kos = eY * (b * a1 * phiX + a * a1 * phi2X + (ab2 / b) * b1 * phi2X)
        return {"reference": ref, "koszul": kos}
    # case (2, 1)
    eY, eX = eta1 @ Yval, eta2 @ Xval
    phiX = phi2 @ Xval
    phi2X = phi2 @ phiX
    phi3X = phi2 @ phi2X
    ref_base = (a * a2 * (eY * eX * xi2 - eY * Xval) - b * a2 * eY * phiX
                + (ab2 / b) * b2 * phi2X + (a * a / b) * eY * b2 * phi2X)
    ref = ref_base + a * b1 * eY * phi3X
    ref_b2 = ref_base + a * b2 * eY * phi3X
    kos = eY * (-b * a2 * phiX + a * a2 * phi2X - (b2 / b) * phi2X)
    return {"reference": ref, "reference_beta2": ref_b2, "koszul": kos}


def curvature_variants(pd: ProductData, U: SpanField, V: SpanField,
                       Z: SpanField, Uval, Vval, Zval):
    """Named closed forms for R(U,V)Z with U,V D-sections of one factor."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    uf = U.factor
    if uf == 1:
        PhiUV = _inner(Uval, g1, phi1 @ Vval)
        if Z.factor == 1:
            base = _factor_curvature(pd, 1, U, V, Z)
            eZ = eta1 @ Zval
            ref = base
            kos = (base
                   - (2 * a * a1 * b1 / b ** 2) * PhiUV * eZ * (-a * xi1 + xi2)
                   - (a * a * b1 * b1 / b ** 2) * (
                       _inner(phi1 @ Vval, g1, phi1 @ Zval) * Uval
                       - _inner(phi1 @ Uval, g1, phi1 @ Zval) * Vval))
            return {"reference": ref, "koszul": kos}
        eZ = eta2 @ Zval
        phi2Z = phi2 @ Zval
        ref = (-2 * a * a1 * a2 * PhiUV * phi2Z
               - 2 * a * b2 * a1 * PhiUV * (phi2 @ phi2Z))
        kos = (-2 * a * a1 * a2 * PhiUV * phi2Z
               + 2 * a * a1 * b1 * PhiUV * eZ * (
                   ((a * a + b * b) / b ** 2) * xi1 - (a / b ** 2) * xi2))
        return {"reference": ref, "koszul": kos}
    # U, V in factor 2
    PhiUV = _inner(Uval, g2, phi2 @ Vval)
    if Z.factor == 1:
        eZ = eta1 @ Zval
        phi1Z = phi1 @ Zval
        ref = (-2 * a * a1 * a2 * PhiUV * phi1Z
               - 2 * a * a2 * b1 * PhiUV * (phi1 @ phi1Z))
        kos = (-2 * a * a1 * a2 * PhiUV * phi1Z
               + 2 * a * a2 * b2 * PhiUV * eZ * (
                   -(a / b ** 2) * xi1 + (1.0 / b ** 2) * xi2))
        return {"reference": ref, "koszul": kos}
    base = _factor_curvature(pd, 2, U, V, Z)
    eZ = eta2 @ Zval
    phiU, phiV, phiZ = phi2 @ Uval, phi2 @ Vval, phi2 @ Zval
    PhiVZ, PhiUZ = _inner(Vval, g2, phiZ), _inner(Uval, g2, phiZ)
    gppVZ, gppUZ = _inner(phiV, g2, phiZ), _inner(phiU, g2, phiZ)
    ref = base + lam * (
        PhiVZ * (a2 * phiU + b2 * (phi2 @ phiU))
        - PhiUZ * (a2 * phiV + b2 * (phi2 @ phiV))
        - 2 * a2 * PhiUV * (a2 * phiZ + b2 * (phi2 @ phiZ)))
    kos = (base
           + lam * a2 * a2 * (PhiVZ * phiU - PhiUZ * phiV - 2 * PhiUV * phiZ)
           + ((b * b - 1.0) / b ** 2) * b2 * b2 * (gppVZ * Uval - gppUZ * Vval)
           + 2 * a2 * b2 * PhiUV * eZ * (
               -(a * (a * a + b * b) / b ** 2) * xi1 + (a * a / b ** 2) * xi2))
    return {"reference": ref, "koszul": kos}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _adjudicate(pd: ProductData, name, tol, families, zero_families):
    """Residuals of every family over the points, as one report.

    families maps a family name to (argument tuples, variant names, fn),
    where fn(*args) returns the generic value and {variant: value} at every
    point as (p, d, 1) stacks; a variant's residual is the frame norm of
    generic - value at each point. A family's residual is that of its best
    variant, and the variants within tolerance are recorded as matched.
    zero_families maps a family name to (argument tuples, fn), where
    fn(*args) returns the (p,) residuals of a generic quantity that must
    vanish; one at or above tol raises the report's max and verdict. Each
    tracker sees its samples point-major, arguments in order within a point.
    """
    g0, frames = pd.md.g0, pd.frames
    trackers = {}
    for fam, (args, names, fn) in families.items():
        res = {v: [] for v in names}
        for a in args:
            generic, variants = fn(*a)
            for vn, val in variants.items():
                res[vn].append(
                    riemann.vector_residual_norm(g0, frames, generic - val))
        trackers[fam] = {v: ResidualTracker.point_major(fam, r, pd.points)
                         for v, r in res.items()}
    zero = [ResidualTracker.point_major(fam, [fn(*a) for a in args], pd.points)
            for fam, (args, fn) in zero_families.items()]

    best = [min(v.values(), key=lambda t: t.max) for v in trackers.values()]
    rep = CheckReport.from_trackers(name, tol, best)
    rep.details["variant_adjudication"] = {
        fam: {"variants": {k: t.max for k, t in v.items()},
              "matched": sorted(k for k, t in v.items() if t.max < tol)}
        for fam, v in trackers.items()}
    for t in zero:
        rep.details["families"][t.name] = t.summary()
    over = [t.max for t in zero if t.max >= tol]
    if over:
        rep.max_residual = max(rep.max_residual, *over)
        rep.verdict = verdict_for(rep.max_residual, tol)
    return rep


_BLOCKS = ((1, 1), (2, 2), (1, 2), (2, 1))


def connection_closed_form_report(ev: Evaluator, P: ProductHermitian,
                                  points, tol) -> CheckReport:
    """Product Levi-Civita connection vs the block closed forms.

    Covers the four block cases over spanning arguments plus the four
    Reeb-pair identities nabla_{xi_i} xi_j = 0 (checked generically).
    """
    pd = ProductData(ev, P, points)
    span = pd.span
    reebs = (span[1][0], span[2][0])

    def cov(X, Y):
        (xv, _, _), _ = pd.jets(X)
        (yv, yg, _), _ = pd.jets(Y)
        return riemann.cov_vector_at(pd.md, ..., xv, yv, yg)[:, :, None]

    def closed(X, Y):
        return cov(X, Y), connection_variants(pd, X, Y, pd.column(X),
                                              pd.column(Y))

    families = {
        f"nabla_X{u}_Y{v}": ([(X, Y) for X in span[u] for Y in span[v]],
                             ("reference", "koszul"), closed)
        for u, v in _BLOCKS}
    zero = {"nabla_xi_xi_zero": (
        [(X, Y) for X in reebs for Y in reebs],
        lambda X, Y: riemann.vector_residual_norm(pd.md.g0, pd.frames,
                                                  cov(X, Y)))}
    return _adjudicate(pd, "connection_closed_forms", tol, families, zero)


def nabla_J_report(ev: Evaluator, P: ProductHermitian, points, tol
                   ) -> CheckReport:
    """(nabla_X J) Y vs the four block closed forms; nabla_{xi_i} J = 0."""
    pd = ProductData(ev, P, points)
    span = pd.span
    C0, _ = pd.nabla_J()

    def nabla_XJ(X):
        return riemann.along(C0, pd.jets(X)[0][0])

    def closed(X, Y):
        return nabla_XJ(X) @ pd.column(Y), nabla_j_variants(
            pd, X, Y, pd.column(X), pd.column(Y))

    names = {(1, 1): ("reference", "reference_single_beta", "koszul"),
             (2, 2): ("reference", "koszul"),
             (1, 2): ("reference", "koszul"),
             (2, 1): ("reference", "reference_beta2", "koszul")}
    families = {
        f"nabla_J_X{u}_Y{v}": ([(X, Y) for X in span[u] for Y in span[v]],
                               names[u, v], closed)
        for u, v in _BLOCKS}
    zero = {"nabla_xiJ_zero": (
        [(span[1][0],), (span[2][0],)],
        lambda S: riemann.endo_residual_norm(pd.md.g0, pd.frames,
                                             nabla_XJ(S)))}
    return _adjudicate(pd, "nabla_J_closed_forms", tol, families, zero)


def curvature_closed_form_report(ev: Evaluator, P: ProductHermitian, points,
                                 tol) -> CheckReport:
    """Generic curvature of G vs the closed forms, including the Reeb rows."""
    pd = ProductData(ev, P, points)
    span = pd.span
    xi = {w: span[w][0] for w in (1, 2)}
    (_, xi1, eta1, _, _, b1), (phi2, xi2, _, g2, a2, b2) = pd.factor_columns

    def R(U, V, Z):
        return riemann.curvature_values(
            pd.md, ..., *(pd.jets(S)[0][0] for S in (U, V, Z)))[:, :, None]

    def closed(U, V, Z):
        return R(U, V, Z), curvature_variants(
            pd, U, V, Z, pd.column(U), pd.column(V), pd.column(Z))

    def own_reeb(U, V):
        """R(U, V) xi_w for U, V in factor w, against its printed shortcut."""
        generic, variants = closed(U, V, xi[U.factor])
        if U.factor == 1:
            (uv, ug, _), _ = pd.jets(U)
            (vv, vg, _), _ = pd.jets(V)
            br = vg @ uv[:, :, None] - ug @ vv[:, :, None]
            printed = -b1 * (eta1 @ br) * xi1
        else:
            phiU = phi2 @ pd.column(U)
            phi2V = phi2 @ (phi2 @ pd.column(V))
            gpp2 = _inner(phiU, g2, phi2V)
            gpp3 = _inner(phiU, g2, phi2 @ phi2V)
            printed = _factor_curvature(pd, 2, U, V, xi[2]) + P.lam * (
                2 * a2 * b2 * gpp2 - 2 * b2 * b2 * gpp3) * xi2
        return generic, {"reference": printed, "koszul": variants["koszul"]}

    def other_reeb(U, V):
        """R(U, V) xi_other for U, V in one factor; printed as zero."""
        generic, variants = closed(U, V, xi[3 - U.factor])
        return generic, {"reference": np.zeros_like(generic),
                         "koszul": variants["koszul"]}

    # diagonal pairs (U, U) are kept: the generic side vanishes there by
    # antisymmetry, which exposes symmetric transcription defects that
    # orthogonal off-diagonal pairs cannot see
    pairs = {w: [(U, V) for U in span[w] if U.in_d
                 for V in span[w] if V.in_d] for w in (1, 2)}
    names = ("reference", "koszul")
    families = {
        f"R_U{w}V{w}_Z{z}": ([(U, V, Z) for U, V in pairs[w] for Z in span[z]],
                             names, closed)
        for w in (1, 2) for z in (1, 2)}
    families.update({
        "R_U1V1_xi1": (pairs[1], names, own_reeb),
        "R_U1V1_xi2_zero": (pairs[1], names, other_reeb),
        "R_U2V2_xi1_zero": (pairs[2], names, other_reeb),
        "R_U2V2_xi2": (pairs[2], names, own_reeb),
    })
    # R(xi1, xi2) annihilates everything
    zero = {"R_xi1_xi2_zero": (
        [(Z,) for Z in span[1] + span[2]],
        lambda Z: riemann.vector_residual_norm(pd.md.g0, pd.frames,
                                               R(xi[1], xi[2], Z)))}
    return _adjudicate(pd, "curvature_closed_forms", tol, families, zero)


def integrability_report(ev: Evaluator, P: ProductHermitian, points, tol
                         ) -> CheckReport:
    """Nijenhuis tensor of J over coordinate-basis pairs.

    On a chart [d_i, d_j] = 0, [J d_i, d_j] = -d_j(J d_i) and
    [d_i, J d_j] = d_i(J d_j), so N(d_i, d_j) comes from the jet of J alone.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    d = P.dim
    Jv, Jg, _ = geom.eval_endo(ev, P.J, pts)
    md = riemann.MetricData(ev, P.G, pts)
    frames = riemann.orthonormal_frame_within(
        md.g0, np.broadcast_to(np.eye(d), md.g0.shape))
    # [J d_i, J d_j]^k = A[k, i, j] - A[k, j, i], A[k, i, j] = J^m_i d_m J^k_j
    A = np.einsum("pmi,pkjm->pkij", Jv, Jg)
    N = (A - A.swapaxes(2, 3) + np.einsum("pkl,plij->pkij", Jv, Jg)
         - np.einsum("pkl,plji->pkij", Jv, Jg))
    pairs = zip(*np.triu_indices(d, 1))
    t = ResidualTracker.point_major("nijenhuis", [
        riemann.vector_residual_norm(md.g0, frames, N[:, :, i, j])
        for i, j in pairs], pts)
    rep = CheckReport.from_trackers("integrability", tol, [t])
    rep.details["integrable"] = bool(t.max < tol)
    return rep


def product_invariants_report(ev: Evaluator, P: ProductHermitian, points,
                              tol) -> CheckReport:
    """J^2 = -Id, G-Hermitian J, positive definiteness, block pairing."""
    pd = ProductData(ev, P, points)
    J0, g0 = pd.Jv, pd.md.g0
    eig = np.linalg.eigvalsh(g0)[:, 0]
    blk1, blk2 = P.e1.block, P.e2.block
    families = {
        "J^2 + Id": J0 @ J0 + np.eye(P.dim),
        "G(J.,J.) - G": J0.swapaxes(1, 2) @ g0 @ J0 - g0,
        "negative eigenvalue margin": np.where(eig > 0, 0.0, np.abs(eig)),
        "cross-block pairing vs a*eta1*eta2": g0[:, blk1, blk2] - P.a * (
            pd.eta1v[:, blk1, None] * pd.eta2v[:, None, blk2]),
    }
    return CheckReport.from_trackers(
        "product_invariants", tol,
        [ResidualTracker.from_points(n, v, pd.points)
         for n, v in families.items()])
