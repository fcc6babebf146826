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
from .contact import TransSasakianFactor
from .expr import Evaluator
from .geom import (
    ChartDomain, EndomorphismField, MetricField, VectorField, endo_field,
    metric_field, vector_field,
)
from .report import (
    CheckReport, ResidualTracker, column_trackers, verdict_for,
)
from .riemann import inner


class ProductError(Exception):
    pass


class ZeroB(ProductError):
    pass


@dataclass
class EmbeddedFactor:
    """A factor's fields re-indexed into the product chart."""

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


def _embed_factor(F: TransSasakianFactor, offset: int,
                  ch: ChartDomain) -> EmbeddedFactor:
    d, total = F.chart.dim, ch.dim
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
        offset=offset, dim=d,
        phi=endo_field(ch, phi), xi=vector_field(ch, xi),
        eta=tuple(eta), gblk=tuple(tuple(r) for r in gblk),
        alpha=sh(F.alpha), beta=sh(F.beta))


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
                  a: float, b: float, *, broken_j=False) -> ProductHermitian:
    """Assemble (J, G) on the product chart from the factor structures.

    broken_j is a negative control: the Reeb-mixing coefficient b is doubled
    in the xi2-component rows of J only, which destroys J^2 = -Id.
    """
    if b == 0:
        raise ZeroB("the structure requires b != 0")

    d1, d2 = f1.chart.dim, f2.chart.dim
    total = d1 + d2
    names = tuple(n + "1" for n in f1.chart.names) + tuple(
        n + "2" for n in f2.chart.names)
    box = f1.chart.box + f2.chart.box
    ch = ChartDomain(total, names, box)

    emb1 = _embed_factor(f1, 0, ch)
    emb2 = _embed_factor(f2, d1, ch)

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
                emb1.xi.comps[i],
                expr.add(expr.mul(C(-a / b), emb1.eta[j]),
                         expr.mul(C(-(a * a + b * b) / b), emb2.eta[j]))))
            t = expr.add(t, expr.mul(
                emb2.xi.comps[i],
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
                            G=G, e1=emb1, e2=emb2)


DEFAULT_AB_GRID = ((0.0, 1.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -1.0))


# ---------------------------------------------------------------------------
# Pointwise product data
# ---------------------------------------------------------------------------

@dataclass
class SpanStack:
    """Spanning fields of one factor, stacked over a trailing argument axis:
    the columns idx (A of them) of fields = (val, grad), the product-chart
    arrays of every spanning field of the factor. An array is gathered only
    when it is read, so a family copies only what its closed forms use:
    values val (p, d, A) and gradients grad (p, d, d, A) with
    grad[:, k, m] = d_m X^k. A spanning field depends only on the
    coordinates of its factor's block and vanishes outside it, so its
    factor-chart values fval (p, d_w, A) and gradients fgrad
    (p, d_w, d_w, A) are the block of val and grad."""

    factor: int  # 1 or 2
    block: slice
    fields: tuple
    idx: np.ndarray

    def take(self, idx):
        """The stack of the arguments idx, indices along the argument axis."""
        return SpanStack(self.factor, self.block, self.fields, self.idx[idx])

    @property
    def val(self):
        return self.fields[0][..., self.idx]

    @property
    def grad(self):
        return self.fields[1][..., self.idx]

    @property
    def fval(self):
        return self.fields[0][:, self.block][..., self.idx]

    @property
    def fgrad(self):
        return self.fields[1][:, self.block, self.block][..., self.idx]


def _argument_grid(*stacks):
    """The argument tuples of `for X in stacks[0] for Y in stacks[1] ...`
    as one stack per slot, the first slot varying slowest."""
    idx = np.indices([len(s.idx) for s in stacks])
    return tuple(s.take(i.ravel()) for s, i in zip(stacks, idx))


class ProductData:
    """Batched jets of everything the product reports need.

    The single owner of per-(product, points) data: metric jets, structure
    tensors, spanning-field stacks and adapted frames.
    """

    def __init__(self, ev: Evaluator, P: ProductHermitian, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.ev = ev
        self.P = P
        self.points = pts
        self.md = riemann.MetricData(ev, P.G, pts)
        self.Jv, self.Jg, self.Jh = geom.eval_endo(ev, P.J, pts)
        # only G (in MetricData) and J keep Hessians; the rest are read to
        # first order at most
        self.phi1v, self.phi1g, _ = geom.eval_endo(ev, P.e1.phi, pts, 1)
        self.phi2v, self.phi2g, _ = geom.eval_endo(ev, P.e2.phi, pts, 1)
        self.xi1v, self.xi1g, _ = geom.eval_vector(ev, P.e1.xi, pts, 1)
        self.xi2v, self.xi2g, _ = geom.eval_vector(ev, P.e2.xi, pts, 1)
        eta1 = geom.one_form_field(P.chart, P.e1.eta)
        eta2 = geom.one_form_field(P.chart, P.e2.eta)
        self.eta1v, _, _ = geom.eval_oneform(ev, eta1, pts, 0)
        self.eta2v, _, _ = geom.eval_oneform(ev, eta2, pts, 0)
        g1f = geom.endo_field(P.chart, P.e1.gblk)
        g2f = geom.endo_field(P.chart, P.e2.gblk)
        self.g1v, _, _ = geom.eval_endo(ev, g1f, pts, 0)
        self.g2v, _, _ = geom.eval_endo(ev, g2f, pts, 0)
        self.a1 = geom.scalar_values(ev, P.e1.alpha, pts)
        self.b1 = geom.scalar_values(ev, P.e1.beta, pts)
        self.a2 = geom.scalar_values(ev, P.e2.alpha, pts)
        self.b2 = geom.scalar_values(ev, P.e2.beta, pts)
        self._CJ = None

    @cached_property
    def factor_md(self):
        """{factor: factor-chart MetricData at the sliced points}; only the
        connection and curvature reports read them."""
        return {w: riemann.MetricData(self.ev, F.structure.g,
                                      self.P.factor_point(w, self.points))
                for w, F in ((1, self.P.f1), (2, self.P.f2))}

    @cached_property
    def stacks(self):
        """{factor: SpanStack of its spanning fields {xi_w} u {phi_w d_c}}.

        phi_w d_c is column c of phi_w, read from its jets; the columns c of
        the factor's block whose expressions are all zero (phi of the Reeb
        coordinate) add nothing to the span and are dropped.
        """
        out = {}
        jets = {1: (self.xi1v, self.xi1g, self.phi1v, self.phi1g),
                2: (self.xi2v, self.xi2g, self.phi2v, self.phi2g)}
        for w, (xiv, xig, phiv, phig) in jets.items():
            emb = self.P.e1 if w == 1 else self.P.e2
            cols = [c for c in range(emb.block.start, emb.block.stop)
                    if any(row[c] != expr.ZERO for row in emb.phi.comps)]
            val = np.concatenate((xiv[..., None], phiv[..., cols]), axis=-1)
            grad = np.concatenate(
                (xig[..., None], phig[:, :, cols].swapaxes(2, 3)), axis=-1)
            out[w] = SpanStack(w, emb.block, (val, grad),
                               np.arange(len(cols) + 1))
        return out

    def nabla_J(self):
        """C0[p,i,j,m] = (nabla_{d_m} J)^i_j and its gradient C1."""
        if self._CJ is None:
            self._CJ = riemann.nabla_endo_all(self.md, self.Jv, self.Jg, self.Jh)
            del self.Jh  # C1 was its only reader
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


# ---------------------------------------------------------------------------
# Closed-form variants: connection
# ---------------------------------------------------------------------------
#
# Each family of argument tuples is one stack per argument slot (SpanStack,
# all of one factor), A tuples along the trailing axis. The variants do
# column algebra on the (p, d, A) values and return {variant: (p, d, A)
# value} over the points and the tuples.

def _in_block(pd: ProductData, which, vals):
    """(p, d_w, A) factor-chart columns placed in their product-chart block."""
    out = np.zeros((pd.points.shape[0], pd.P.dim, vals.shape[-1]))
    out[:, (pd.P.e1 if which == 1 else pd.P.e2).block, :] = vals
    return out


def _factor_cov(pd: ProductData, which, X: SpanStack, Y: SpanStack):
    """Factor covariant derivative nabla^i_X Y in its product-chart block."""
    return _in_block(pd, which, riemann.cov_vector_at(
        pd.factor_md[which], ..., X.fval, Y.fval, Y.fgrad))


def _factor_curvature(pd: ProductData, which, U: SpanStack, V: SpanStack,
                      Z: SpanStack):
    """Factor curvature R^i(U, V) Z in its product-chart block."""
    return _in_block(pd, which, riemann.curvature_values(
        pd.factor_md[which], ..., U.fval, V.fval, Z.fval))


def connection_variants(pd: ProductData, X: SpanStack, Y: SpanStack):
    """Named closed forms for nabla_X Y, by (factor(X), factor(Y)) block."""
    P = pd.P
    Xval, Yval = X.val, Y.val
    a, b, lam = P.a, P.b, P.lam
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    case = (X.factor, Y.factor)
    if case == (1, 1):
        base = _factor_cov(pd, 1, X, Y)
        B1 = b1 * inner(phi1 @ Xval, g1, phi1 @ Yval)
        return {
            "reference": base,
            "koszul": base + (a / b ** 2) * B1 * (-a * xi1 + xi2),
        }
    if case == (2, 2):
        base = _factor_cov(pd, 2, X, Y)
        eX, eY = eta2 @ Xval, eta2 @ Yval
        B2 = b2 * inner(phi2 @ Xval, g2, phi2 @ Yval)
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


def nabla_j_variants(pd: ProductData, X: SpanStack, Y: SpanStack):
    """Named closed forms for (nabla_X J) Y, by block case."""
    P = pd.P
    Xval, Yval = X.val, Y.val
    a, b, lam = P.a, P.b, P.lam
    ab2 = a * a + b * b
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    case = (X.factor, Y.factor)
    if case in ((1, 1), (2, 2)):
        phi, g, eta = (phi1, g1, eta1) if case == (1, 1) else (phi2, g2, eta2)
        gXY = inner(Xval, g, Yval)
        eX, eY = eta @ Xval, eta @ Yval
        phiX = phi @ Xval
        phi2X = phi @ phiX
        PhiXY = inner(Xval, g, phi @ Yval)
        gpp = inner(phiX, g, phi @ Yval)
        gphiXY = inner(phiX, g, Yval)
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


def curvature_variants(pd: ProductData, U: SpanStack, V: SpanStack,
                       Z: SpanStack):
    """Named closed forms for R(U,V)Z with U,V D-sections of one factor."""
    P = pd.P
    Uval, Vval, Zval = U.val, V.val, Z.val
    a, b, lam = P.a, P.b, P.lam
    (phi1, xi1, eta1, g1, a1, b1), (phi2, xi2, eta2, g2, a2, b2) = (
        pd.factor_columns)
    uf = U.factor
    if uf == 1:
        PhiUV = inner(Uval, g1, phi1 @ Vval)
        if Z.factor == 1:
            base = _factor_curvature(pd, 1, U, V, Z)
            eZ = eta1 @ Zval
            ref = base
            kos = (base
                   - (2 * a * a1 * b1 / b ** 2) * PhiUV * eZ * (-a * xi1 + xi2)
                   - (a * a * b1 * b1 / b ** 2) * (
                       inner(phi1 @ Vval, g1, phi1 @ Zval) * Uval
                       - inner(phi1 @ Uval, g1, phi1 @ Zval) * Vval))
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
    PhiUV = inner(Uval, g2, phi2 @ Vval)
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
    PhiVZ, PhiUZ = inner(Vval, g2, phiZ), inner(Uval, g2, phiZ)
    gppVZ, gppUZ = inner(phiV, g2, phiZ), inner(phiU, g2, phiZ)
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

    families yields (family name, generic, {variant: value}), one family at
    a time, with (p, d, A) stacks over the points and the family's A
    argument tuples; a variant's
    residual is the frame norm of generic - value, column by column. A
    family's residual is that of its best variant, and the variants within
    tolerance are recorded as matched. zero_families maps a family name to
    the (p, A) residuals of a generic quantity that must vanish; one at or
    above tol raises the report's max and verdict. Each tracker sees its
    samples point-major, arguments in order within a point.
    """
    g0, frames = pd.md.g0, pd.frames
    trackers = {
        fam: {v: ResidualTracker.point_major(
                  fam, riemann.vector_residual_norm(g0, frames, generic - val).T,
                  pd.points)
              for v, val in variants.items()}
        for fam, generic, variants in families}
    zero = column_trackers(zero_families, pd.points)

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
    S = pd.stacks

    def cov(X, Y):
        return riemann.cov_vector_at(pd.md, ..., X.val, Y.val, Y.grad)

    def families():
        for u, v in _BLOCKS:
            X, Y = _argument_grid(S[u], S[v])
            yield f"nabla_X{u}_Y{v}", cov(X, Y), connection_variants(pd, X, Y)

    # the Reeb pairs (xi_i, xi_j), i slowest
    xi = np.stack((pd.xi1v, pd.xi2v), axis=-1)
    xig = np.stack((pd.xi1g, pd.xi2g), axis=-1)
    i, j = np.indices((2, 2)).reshape(2, -1)
    zero = {"nabla_xi_xi_zero": riemann.vector_residual_norm(
        pd.md.g0, pd.frames,
        riemann.cov_vector_at(pd.md, ..., xi[..., i], xi[..., j],
                              xig[..., j]))}
    return _adjudicate(pd, "connection_closed_forms", tol, families(), zero)


def nabla_J_report(ev: Evaluator, P: ProductHermitian, points, tol
                   ) -> CheckReport:
    """(nabla_X J) Y vs the four block closed forms; nabla_{xi_i} J = 0."""
    pd = ProductData(ev, P, points)
    S = pd.stacks
    C0, _ = pd.nabla_J()
    p, d = pd.points.shape[0], P.dim

    def nabla_XJ_Y(X, Y):
        # (nabla_X J)^i_j = C0[i, j, m] X^m, then applied to Y, per column
        CX = (C0.reshape(p, d * d, d) @ X.val).reshape(p, d, d, -1)
        return np.einsum("pijn,pjn->pin", CX, Y.val)

    def families():
        for u, v in _BLOCKS:
            X, Y = _argument_grid(S[u], S[v])
            yield (f"nabla_J_X{u}_Y{v}", nabla_XJ_Y(X, Y),
                   nabla_j_variants(pd, X, Y))

    zero = {"nabla_xiJ_zero": np.stack([
        riemann.endo_residual_norm(pd.md.g0, pd.frames, riemann.along(C0, xi))
        for xi in (pd.xi1v, pd.xi2v)], axis=1)}
    return _adjudicate(pd, "nabla_J_closed_forms", tol, families(), zero)


def curvature_closed_form_report(ev: Evaluator, P: ProductHermitian, points,
                                 tol) -> CheckReport:
    """Generic curvature of G vs the closed forms, including the Reeb rows."""
    pd = ProductData(ev, P, points)
    S = pd.stacks
    (_, xi1, eta1, _, _, b1), (phi2, xi2, _, g2, a2, b2) = pd.factor_columns

    def R(U, V, Z):
        return riemann.curvature_values(pd.md, ..., U.val, V.val, Z.val)

    def closed(U, V, Z):
        return R(U, V, Z), curvature_variants(pd, U, V, Z)

    def xi(w, A):
        """The Reeb field of factor w, repeated over A arguments."""
        return S[w].take(np.zeros(A, dtype=int))

    def own_reeb(U, V):
        """R(U, V) xi_w for U, V in factor w, against its printed shortcut."""
        w = U.factor
        Z = xi(w, len(U.idx))
        generic, variants = closed(U, V, Z)
        if w == 1:
            br = riemann.bracket(U.val, U.grad, V.val, V.grad)
            printed = -b1 * (eta1 @ br) * xi1
        else:
            phiU = phi2 @ U.val
            phi2V = phi2 @ (phi2 @ V.val)
            gpp2 = inner(phiU, g2, phi2V)
            gpp3 = inner(phiU, g2, phi2 @ phi2V)
            printed = _factor_curvature(pd, 2, U, V, Z) + P.lam * (
                2 * a2 * b2 * gpp2 - 2 * b2 * b2 * gpp3) * xi2
        return generic, {"reference": printed, "koszul": variants["koszul"]}

    def other_reeb(U, V):
        """R(U, V) xi_other for U, V in one factor; printed as zero."""
        generic, variants = closed(U, V, xi(3 - U.factor, len(U.idx)))
        return generic, {"reference": np.zeros_like(generic),
                         "koszul": variants["koszul"]}

    # the D-span of a factor is every column after xi_w; diagonal pairs
    # (U, U) are kept: the generic side vanishes there by antisymmetry,
    # which exposes symmetric transcription defects that orthogonal
    # off-diagonal pairs cannot see
    D = {w: S[w].take(slice(1, None)) for w in (1, 2)}

    def families():
        for w in (1, 2):
            for z in (1, 2):
                yield (f"R_U{w}V{w}_Z{z}",
                       *closed(*_argument_grid(D[w], D[w], S[z])))
        for fam, w, fn in (("R_U1V1_xi1", 1, own_reeb),
                           ("R_U1V1_xi2_zero", 1, other_reeb),
                           ("R_U2V2_xi1_zero", 2, other_reeb),
                           ("R_U2V2_xi2", 2, own_reeb)):
            yield (fam, *fn(*_argument_grid(D[w], D[w])))

    # R(xi1, xi2) annihilates everything
    Z = np.concatenate([S[w].val for w in (1, 2)], axis=-1)
    xi1s, xi2s = (np.broadcast_to(v[..., None], Z.shape)
                  for v in (pd.xi1v, pd.xi2v))
    zero = {"R_xi1_xi2_zero": riemann.vector_residual_norm(
        pd.md.g0, pd.frames,
        riemann.curvature_values(pd.md, ..., xi1s, xi2s, Z))}
    return _adjudicate(pd, "curvature_closed_forms", tol, families(), zero)


def integrability_report(ev: Evaluator, P: ProductHermitian, points, tol
                         ) -> CheckReport:
    """Nijenhuis tensor of J over coordinate-basis pairs.

    On a chart [d_i, d_j] = 0, [J d_i, d_j] = -d_j(J d_i) and
    [d_i, J d_j] = d_i(J d_j), so N(d_i, d_j) comes from the jet of J alone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = P.dim
    Jv, Jg, _ = geom.eval_endo(ev, P.J, pts)
    md = riemann.MetricData(ev, P.G, pts)
    frames = riemann.orthonormal_frame_within(
        md.g0, np.broadcast_to(np.eye(d), md.g0.shape))
    # [J d_i, J d_j]^k = A[k, i, j] - A[k, j, i], A[k, i, j] = J^m_i d_m J^k_j
    A = np.einsum("pmi,pkjm->pkij", Jv, Jg)
    N = (A - A.swapaxes(2, 3) + np.einsum("pkl,plij->pkij", Jv, Jg)
         - np.einsum("pkl,plji->pkij", Jv, Jg))
    i, j = np.triu_indices(d, 1)
    t = ResidualTracker.point_major("nijenhuis", riemann.vector_residual_norm(
        md.g0, frames, N[:, :, i, j]).T, pts)
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
