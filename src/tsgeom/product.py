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

    # factor-chart metric data at the sliced points; only the connection and
    # curvature reports read them
    @cached_property
    def md1(self):
        return riemann.MetricData(self.ev, self.P.f1.structure.g,
                                  self.P.factor_point(1, self.points))

    @cached_property
    def md2(self):
        return riemann.MetricData(self.ev, self.P.f2.structure.g,
                                  self.P.factor_point(2, self.points))

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

    def residual_norm(self, i, vec):
        return riemann.vector_residual_norm(self.md.g0[i], self.frames[i], vec)


def _value(pd: ProductData, S: SpanField, i):
    """Product-chart value of a spanning field at point index i."""
    return pd.jets(S)[0][0][i]


# ---------------------------------------------------------------------------
# Closed-form variants: connection
# ---------------------------------------------------------------------------

def _factor_quantities(pd: ProductData, i, which):
    if which == 1:
        return (pd.phi1v[i], pd.xi1v[i], pd.eta1v[i], pd.g1v[i],
                float(pd.a1[i]), float(pd.b1[i]))
    return (pd.phi2v[i], pd.xi2v[i], pd.eta2v[i], pd.g2v[i],
            float(pd.a2[i]), float(pd.b2[i]))


def _embedded(pd: ProductData, which, w):
    """A factor-chart vector placed in its block of the product chart."""
    out = np.zeros(pd.P.dim)
    out[(pd.P.e1 if which == 1 else pd.P.e2).block] = w
    return out


def _factor_cov(pd: ProductData, i, which, X: SpanField, Y: SpanField):
    """Embedded factor covariant derivative nabla^i_X Y at point index i."""
    _, (xv, _, _) = pd.jets(X)
    _, (yv, yg, _) = pd.jets(Y)
    mdf = pd.md1 if which == 1 else pd.md2
    return _embedded(pd, which,
                     riemann.cov_vector_at(mdf, i, xv[i], yv[i], yg[i]))


def _factor_curvature(pd: ProductData, i, which, U: SpanField, V: SpanField,
                      Z: SpanField):
    """Embedded factor curvature R^i(U, V) Z at point index i."""
    mdf = pd.md1 if which == 1 else pd.md2
    u, v, z = (pd.jets(S)[1][0][i] for S in (U, V, Z))
    return _embedded(pd, which, riemann.curvature_values(mdf, i, u, v, z))


def connection_variants(pd: ProductData, i, X: SpanField, Y: SpanField,
                        Xval, Yval):
    """Named closed forms for nabla_X Y, by (factor(X), factor(Y)) block."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    phi1, xi1, eta1, g1, a1, b1 = _factor_quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _factor_quantities(pd, i, 2)
    case = (X.factor, Y.factor)
    if case == (1, 1):
        base = _factor_cov(pd, i, 1, X, Y)
        B1 = b1 * float((phi1 @ Xval) @ g1 @ (phi1 @ Yval))
        return {
            "reference": base,
            "koszul": base + (a / b ** 2) * B1 * (-a * xi1 + xi2),
        }
    if case == (2, 2):
        base = _factor_cov(pd, i, 2, X, Y)
        eX = float(eta2 @ Xval)
        eY = float(eta2 @ Yval)
        B2 = b2 * float((phi2 @ Xval) @ g2 @ (phi2 @ Yval))
        ref = base - lam * (eX * (a2 * (phi2 @ Yval) + b2 * (phi2 @ (phi2 @ Yval)))
                            + eY * (a2 * (phi2 @ Xval) + b2 * (phi2 @ (phi2 @ Xval))))
        kos = (base
               - lam * a2 * (eX * (phi2 @ Yval) + eY * (phi2 @ Xval))
               + (B2 / b ** 2) * (a * xi1 + (b * b - 1.0) * xi2))
        return {"reference": ref, "koszul": kos}
    if case == (1, 2):
        eY = float(eta2 @ Yval)
        eX = float(eta1 @ Xval)
        ref = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval)
                    + b1 * eY * (phi1 @ (phi1 @ Xval))
                    + b2 * eX * (phi2 @ (phi2 @ Yval)))
        kos = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval))
        return {"reference": ref, "koszul": kos}
    # case (2, 1)
    eX = float(eta2 @ Xval)
    eY = float(eta1 @ Yval)
    ref = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval)
                + b1 * eX * (phi1 @ (phi1 @ Yval))
                + b2 * eY * (phi2 @ (phi2 @ Xval)))
    kos = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval))
    return {"reference": ref, "koszul": kos}


def nabla_j_variants(pd: ProductData, i, X: SpanField, Y: SpanField,
                     Xval, Yval):
    """Named closed forms for (nabla_X J) Y, by block case."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    ab2 = a * a + b * b
    phi1, xi1, eta1, g1, a1, b1 = _factor_quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _factor_quantities(pd, i, 2)
    case = (X.factor, Y.factor)
    if case == (1, 1):
        gXY = float(Xval @ g1 @ Yval)
        eX = float(eta1 @ Xval)
        eY = float(eta1 @ Yval)
        phiX = phi1 @ Xval
        phi2X = phi1 @ phiX
        PhiXY = float(Xval @ g1 @ (phi1 @ Yval))
        gpp = float(phiX @ g1 @ (phi1 @ Yval))
        gphiXY = float(phiX @ g1 @ Yval)
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
        gXY = float(Xval @ g2 @ Yval)
        eX = float(eta2 @ Xval)
        eY = float(eta2 @ Yval)
        phiX = phi2 @ Xval
        phi2X = phi2 @ phiX
        PhiXY = float(Xval @ g2 @ (phi2 @ Yval))
        gpp = float(phiX @ g2 @ (phi2 @ Yval))
        gphiXY = float(phiX @ g2 @ Yval)
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
        eY = float(eta2 @ Yval)
        eX = float(eta1 @ Xval)
        phiX = phi1 @ Xval
        phi2X = phi1 @ phiX
        phi3X = phi1 @ phi2X
        ref = (a * a1 * eY * eX * xi1 - a * a1 * eY * Xval
               + b * a1 * eY * phiX - b * b1 * eY * Xval
               + b * b1 * eY * eX * xi1 + a * b1 * eY * phi3X)
        kos = eY * (b * a1 * phiX + a * a1 * phi2X + (ab2 / b) * b1 * phi2X)
        return {"reference": ref, "koszul": kos}
    # case (2, 1)
    eY = float(eta1 @ Yval)
    eX = float(eta2 @ Xval)
    phiX = phi2 @ Xval
    phi2X = phi2 @ phiX
    phi3X = phi2 @ phi2X
    ref_base = (a * a2 * (eY * eX * xi2 - eY * Xval) - b * a2 * eY * phiX
                + (ab2 / b) * b2 * phi2X + (a * a / b) * eY * b2 * phi2X)
    ref = ref_base + a * b1 * eY * phi3X
    ref_b2 = ref_base + a * b2 * eY * phi3X
    kos = eY * (-b * a2 * phiX + a * a2 * phi2X - (b2 / b) * phi2X)
    return {"reference": ref, "reference_beta2": ref_b2, "koszul": kos}


def curvature_variants(pd: ProductData, i, U: SpanField, V: SpanField,
                       Z: SpanField, Uval, Vval, Zval):
    """Named closed forms for R(U,V)Z with U,V D-sections of one factor."""
    P = pd.P
    a, b, lam = P.a, P.b, P.lam
    phi1, xi1, eta1, g1, a1, b1 = _factor_quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _factor_quantities(pd, i, 2)
    uf = U.factor
    if uf == 1:
        PhiUV = float(Uval @ g1 @ (phi1 @ Vval))
        if Z.factor == 1:
            base = _factor_curvature(pd, i, 1, U, V, Z)
            eZ = float(eta1 @ Zval)
            ref = base
            kos = (base
                   - (2 * a * a1 * b1 / b ** 2) * PhiUV * eZ * (-a * xi1 + xi2)
                   - (a * a * b1 * b1 / b ** 2) * (
                       float((phi1 @ Vval) @ g1 @ (phi1 @ Zval)) * Uval
                       - float((phi1 @ Uval) @ g1 @ (phi1 @ Zval)) * Vval))
            return {"reference": ref, "koszul": kos}
        eZ = float(eta2 @ Zval)
        phi2Z = phi2 @ Zval
        ref = (-2 * a * a1 * a2 * PhiUV * phi2Z
               - 2 * a * b2 * a1 * PhiUV * (phi2 @ phi2Z))
        kos = (-2 * a * a1 * a2 * PhiUV * phi2Z
               + 2 * a * a1 * b1 * PhiUV * eZ * (
                   ((a * a + b * b) / b ** 2) * xi1 - (a / b ** 2) * xi2))
        return {"reference": ref, "koszul": kos}
    # U, V in factor 2
    PhiUV = float(Uval @ g2 @ (phi2 @ Vval))
    if Z.factor == 1:
        eZ = float(eta1 @ Zval)
        phi1Z = phi1 @ Zval
        ref = (-2 * a * a1 * a2 * PhiUV * phi1Z
               - 2 * a * a2 * b1 * PhiUV * (phi1 @ phi1Z))
        kos = (-2 * a * a1 * a2 * PhiUV * phi1Z
               + 2 * a * a2 * b2 * PhiUV * eZ * (
                   -(a / b ** 2) * xi1 + (1.0 / b ** 2) * xi2))
        return {"reference": ref, "koszul": kos}
    base = _factor_curvature(pd, i, 2, U, V, Z)
    eZ = float(eta2 @ Zval)
    phiU = phi2 @ Uval
    phiV = phi2 @ Vval
    phiZ = phi2 @ Zval
    PhiVZ = float(Vval @ g2 @ phiZ)
    PhiUZ = float(Uval @ g2 @ phiZ)
    gppVZ = float(phiV @ g2 @ phiZ)
    gppUZ = float(phiU @ g2 @ phiZ)
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
    where fn(i, *args) returns the generic value and {variant: value} at
    point index i; a variant's residual is the frame norm of generic - value.
    A family's residual is that of its best variant, and the variants within
    tolerance are recorded as matched. zero_families maps a family name to
    (argument tuples, fn), where fn(i, *args) returns the residual of a
    generic quantity that must vanish; one at or above tol raises the
    report's max and verdict. Updates run point-major, so each tracker sees
    its samples in point order.
    """
    trackers = {fam: {v: ResidualTracker(fam) for v in names}
                for fam, (_, names, _) in families.items()}
    zero = {fam: ResidualTracker(fam) for fam in zero_families}
    for i, p in enumerate(pd.points):
        for fam, (args, _, fn) in families.items():
            for a in args:
                generic, variants = fn(i, *a)
                for vn, val in variants.items():
                    trackers[fam][vn].update(pd.residual_norm(i, generic - val), p)
        for fam, (args, fn) in zero_families.items():
            for a in args:
                zero[fam].update(fn(i, *a), p)

    best = [min(v.values(), key=lambda t: t.max) for v in trackers.values()]
    rep = CheckReport.from_trackers(name, tol, best)
    rep.details["variant_adjudication"] = {
        fam: {"variants": {k: t.max for k, t in v.items()},
              "matched": sorted(k for k, t in v.items() if t.max < tol)}
        for fam, v in trackers.items()}
    for t in zero.values():
        rep.details["families"][t.name] = t.summary()
    over = [t.max for t in zero.values() if t.max >= tol]
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

    def cov(i, X, Y):
        (yv, yg, _), _ = pd.jets(Y)
        return riemann.cov_vector_at(pd.md, i, _value(pd, X, i), yv[i], yg[i])

    def closed(i, X, Y):
        return cov(i, X, Y), connection_variants(
            pd, i, X, Y, _value(pd, X, i), _value(pd, Y, i))

    families = {
        f"nabla_X{u}_Y{v}": ([(X, Y) for X in span[u] for Y in span[v]],
                             ("reference", "koszul"), closed)
        for u, v in _BLOCKS}
    zero = {"nabla_xi_xi_zero": (
        [(X, Y) for X in reebs for Y in reebs],
        lambda i, X, Y: pd.residual_norm(i, cov(i, X, Y)))}
    return _adjudicate(pd, "connection_closed_forms", tol, families, zero)


def nabla_J_report(ev: Evaluator, P: ProductHermitian, points, tol
                   ) -> CheckReport:
    """(nabla_X J) Y vs the four block closed forms; nabla_{xi_i} J = 0."""
    pd = ProductData(ev, P, points)
    span = pd.span
    C0, _ = pd.nabla_J()

    def nabla_XJ(i, X):
        return np.einsum("ijm,m->ij", C0[i], _value(pd, X, i))

    def closed(i, X, Y):
        return nabla_XJ(i, X) @ _value(pd, Y, i), nabla_j_variants(
            pd, i, X, Y, _value(pd, X, i), _value(pd, Y, i))

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
        lambda i, S: riemann.endo_residual_norm(pd.md.g0[i], pd.frames[i],
                                                nabla_XJ(i, S)))}
    return _adjudicate(pd, "nabla_J_closed_forms", tol, families, zero)


def curvature_closed_form_report(ev: Evaluator, P: ProductHermitian, points,
                                 tol) -> CheckReport:
    """Generic curvature of G vs the closed forms, including the Reeb rows."""
    pd = ProductData(ev, P, points)
    span = pd.span
    xi = {w: span[w][0] for w in (1, 2)}
    riem = pd.md.riemann()

    def R(i, U, V, Z):
        return np.einsum("lkij,i,j,k->l", riem[i], _value(pd, U, i),
                         _value(pd, V, i), _value(pd, Z, i))

    def closed(i, U, V, Z):
        return R(i, U, V, Z), curvature_variants(
            pd, i, U, V, Z, _value(pd, U, i), _value(pd, V, i),
            _value(pd, Z, i))

    def own_reeb(i, U, V):
        """R(U, V) xi_w for U, V in factor w, against its printed shortcut."""
        generic, variants = closed(i, U, V, xi[U.factor])
        if U.factor == 1:
            (uv, ug, _), _ = pd.jets(U)
            (vv, vg, _), _ = pd.jets(V)
            br = vg[i] @ uv[i] - ug[i] @ vv[i]
            printed = -float(pd.b1[i]) * float(pd.eta1v[i] @ br) * pd.xi1v[i]
        else:
            phi2, xi2, _, g2, a2, b2 = _factor_quantities(pd, i, 2)
            phiU = phi2 @ _value(pd, U, i)
            phi2V = phi2 @ (phi2 @ _value(pd, V, i))
            gpp2 = float(phiU @ g2 @ phi2V)
            gpp3 = float(phiU @ g2 @ (phi2 @ phi2V))
            printed = _factor_curvature(pd, i, 2, U, V, xi[2]) + P.lam * (
                2 * a2 * b2 * gpp2 - 2 * b2 * b2 * gpp3) * xi2
        return generic, {"reference": printed, "koszul": variants["koszul"]}

    def other_reeb(i, U, V):
        """R(U, V) xi_other for U, V in one factor; printed as zero."""
        generic, variants = closed(i, U, V, xi[3 - U.factor])
        return generic, {"reference": np.zeros(P.dim),
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
        lambda i, Z: pd.residual_norm(i, R(i, xi[1], xi[2], Z)))}
    return _adjudicate(pd, "curvature_closed_forms", tol, families, zero)


def integrability_report(ev: Evaluator, P: ProductHermitian, points, tol
                         ) -> CheckReport:
    """Nijenhuis tensor of J over coordinate-basis pairs."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    d = P.dim
    Jcols = [endo_apply_field(P.J, coordinate_field(P.chart, j))
             for j in range(d)]
    Jv, _, _ = geom.eval_endo(ev, P.J, pts)
    t = ResidualTracker("nijenhuis")
    md = riemann.MetricData(ev, P.G, pts)
    # [J d_i, J d_j] brackets batched; [J d_i, d_j] reduces to -d_j(J d_i)
    brJJ = {}
    for i_ in range(d):
        for j_ in range(i_ + 1, d):
            brJJ[(i_, j_)] = geom.lie_bracket(ev, Jcols[i_], Jcols[j_], pts)
    jac = [geom.eval_vector(ev, Jcols[i_], pts)[1] for i_ in range(d)]
    for ip in range(pts.shape[0]):
        p = pts[ip]
        J0 = Jv[ip]
        frame = riemann.orthonormal_frame(md.g0[ip])
        for i_ in range(d):
            for j_ in range(i_ + 1, d):
                # [d_i, d_j] = 0 on a chart
                bJJ = brJJ[(i_, j_)][ip]
                # [J d_i, d_j]^k = - d_j (J d_i)^k ; [d_i, J d_j]^k = d_i (J d_j)^k
                bJi_dj = -jac[i_][ip][:, j_]
                bdi_Jj = jac[j_][ip][:, i_]
                N = bJJ - J0 @ bJi_dj - J0 @ bdi_Jj
                t.update(riemann.vector_residual_norm(md.g0[ip], frame, N), p)
    verdict = "pass" if t.max < tol else verdict_for(t.max, tol)
    rep = CheckReport.from_trackers("integrability", tol, [t], verdict=verdict)
    rep.details["integrable"] = bool(t.max < tol)
    return rep


def product_invariants_report(ev: Evaluator, P: ProductHermitian, points,
                              tol) -> CheckReport:
    """J^2 = -Id, G-Hermitian J, positive definiteness, block pairing."""
    pd = ProductData(ev, P, points)
    t_j2 = ResidualTracker("J^2 + Id")
    t_herm = ResidualTracker("G(J.,J.) - G")
    t_pos = ResidualTracker("negative eigenvalue margin")
    t_blk = ResidualTracker("cross-block pairing vs a*eta1*eta2")
    eye = np.eye(P.dim)
    for i in range(pd.points.shape[0]):
        p = pd.points[i]
        J0 = pd.Jv[i]
        g0 = pd.md.g0[i]
        t_j2.update_many(J0 @ J0 + eye, p)
        t_herm.update_many(J0.T @ g0 @ J0 - g0, p)
        eig = float(np.min(np.linalg.eigvalsh(g0)))
        t_pos.update(0.0 if eig > 0 else abs(eig), p)
        cross = g0[P.e1.block, P.e2.block]
        expected = P.a * np.outer(pd.eta1v[i][P.e1.block],
                                  pd.eta2v[i][P.e2.block])
        t_blk.update_many(cross - expected, p)
    return CheckReport.from_trackers(
        "product_invariants", tol, [t_j2, t_herm, t_pos, t_blk])
