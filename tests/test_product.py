import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgeom import cli, contact, expr, geom, harmonic, product, riemann
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET, Evaluator, parse
from tsgeom.geom import sample_points
from tsgeom.product import (
    DEFAULT_AB_GRID, ZeroB, build_product,
    connection_closed_form_report, curvature_closed_form_report,
    integrability_report, nabla_J_report, product_invariants_report,
)
from tsgeom.report import CheckReport, ResidualTracker, verdict_for

FLAT = "cosymplectic_flat"
SAS = "sasakian_heisenberg"
KEN = "kenmotsu_warped"


def make(n1=FLAT, n2=FLAT, a=0.0, b=1.0, **kw):
    return build_product(builtin_factor(n1), builtin_factor(n2), a, b, **kw)


@dataclasses.dataclass
class SpanField:
    """A spanning argument: a product-chart field tied to its factor data
    and to its column in the factor's SpanStack."""

    label: str
    factor: int  # 1 or 2
    product_field: geom.VectorField
    column: int
    in_d: bool = False


def spanning_fields(P, factor):
    """{xi_i} u {phi_i d_c} as new expression fields: Reeb plus D-spanning
    fields of one factor, the oracle of ProductData.stacks.

    Identically-zero phi-images (e.g. phi applied to the Reeb coordinate)
    are dropped; they add nothing to the span.
    """
    emb = P.e1 if factor == 1 else P.e2
    out = [SpanField(f"xi{factor}", factor, emb.xi, 0)]
    for c in range(emb.dim):
        pf = geom.endo_apply_field(
            emb.phi, geom.coordinate_field(P.chart, emb.offset + c))
        if all(cmp == expr.ZERO for cmp in pf.comps):
            continue
        out.append(SpanField(f"phi{factor}(d{c})", factor, pf, len(out),
                             in_d=True))
    return out


def kenmotsu_scaled(beta):
    """beta-Kenmotsu warped model: g = dt^2 + exp(2*beta*t)(dx^2 + dy^2)."""
    from tsgeom import expr as E
    from tsgeom.geom import chart, endo_field, metric_field, one_form_field, vector_field
    from tsgeom.expr import parse
    names = ("t", "x", "y")
    w = parse(f"exp({2 * beta}*t)", names)
    ch = chart(names, field_exprs=[w])
    g = metric_field(ch, [[parse(c, names) for c in row] for row in
                          [["1", "0", "0"], ["0", f"exp({2 * beta}*t)", "0"],
                           ["0", "0", f"exp({2 * beta}*t)"]]])
    phi = endo_field(ch, [[parse(c, names) for c in row] for row in
                          [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]])
    xi = vector_field(ch, [parse(c, names) for c in ("1", "0", "0")])
    eta = one_form_field(ch, [parse(c, names) for c in ("1", "0", "0")])
    S = contact.AlmostContactMetricStructure(ch, phi, xi, eta, g,
                                             name=f"kenmotsu_beta{beta}")
    return contact.TransSasakianFactor(S, E.const(0.0), E.const(beta),
                                       "kenmotsu")


def pts(P, n=12, seed=7):
    return sample_points(P.chart, n, seed)


class TestBuild:
    def test_zero_b(self):
        with pytest.raises(ZeroB):
            make(a=1.0, b=0.0)

    def test_J_on_reeb_a1_b1(self):
        P = make(SAS, KEN, a=1.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 3))
        # J xi1 = -(a/b) xi1 + (1/b) xi2 = -xi1 + xi2
        for i in range(3):
            got = pd.Jv[i] @ pd.xi1v[i]
            want = -pd.xi1v[i] + pd.xi2v[i]
            assert got == pytest.approx(want, abs=1e-12)

    def test_J_on_xi2_product_case(self):
        P = make(SAS, KEN, a=0.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 3))
        # a=0, b=1: J xi2 = -xi1
        for i in range(3):
            got = pd.Jv[i] @ pd.xi2v[i]
            assert got == pytest.approx(-pd.xi1v[i], abs=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (-2.0, 3.0), (0.5, -1.0)])
    def test_xi2_length(self, a, b):
        P = make(SAS, FLAT, a=a, b=b)
        pd = product.ProductData(JET, P, pts(P, 4))
        for i in range(4):
            got = pd.xi2v[i] @ pd.md.g0[i] @ pd.xi2v[i]
            assert got == pytest.approx(a * a + b * b, abs=1e-12)

    def test_product_metric_block_structure_exact(self):
        # a=0, b=1 reduces G to the block product metric, componentwise
        from tsgeom.expr import ZERO
        P = make(SAS, KEN, a=0.0, b=1.0)
        d1 = P.f1.chart.dim
        for i in range(P.dim):
            for j in range(P.dim):
                e = P.G.comps[i][j]
                if i < d1 and j < d1:
                    assert e == P.e1.gblk[i][j]
                elif i >= d1 and j >= d1:
                    assert e == P.e2.gblk[i][j]
                else:
                    assert e == ZERO


class TestInvariants:
    PAIRS = [(m1, m2) for m1 in (FLAT, SAS, KEN) for m2 in (FLAT, SAS, KEN)]

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    def test_j_squared_and_hermitian(self, pair, ab):
        P = make(pair[0], pair[1], a=ab[0], b=ab[1])
        rep = product_invariants_report(JET, P, pts(P, 10), 1e-9)
        assert rep.verdict == "pass", (pair, ab, rep.details)

    def test_adapted_frame_gram(self):
        P = make(SAS, KEN, a=1.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 5))
        assert pd.frames.shape == (5, P.dim, P.dim)
        for i in range(5):
            fr = pd.frames[i]
            gram = np.array([[u @ pd.md.g0[i] @ v for v in fr] for u in fr])
            assert gram == pytest.approx(np.eye(P.dim), abs=1e-10)
            # eta1(e_j) = eta2(f_k) = 0
            e, f = (blk[i] for blk in pd.frame_blocks)
            for u in e:
                assert abs(pd.eta1v[i] @ u) < 1e-10
            for u in f:
                assert abs(pd.eta2v[i] @ u) < 1e-10


class TestConnectionClosedForms:
    def test_flat_flat_everything_vanishes(self):
        P = make(FLAT, FLAT, a=1.0, b=1.0)
        rep = connection_closed_form_report(JET, P, pts(P, 6), 1e-9)
        assert rep.verdict == "pass"
        assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    def test_sasakian_kenmotsu_koszul_matches(self, ab):
        P = make(SAS, KEN, a=ab[0], b=ab[1])
        rep = connection_closed_form_report(JET, P, pts(P, 8), 1e-6)
        assert rep.verdict == "pass", rep.details
        adj = rep.details["variant_adjudication"]
        for fam, info in adj.items():
            assert "koszul" in info["matched"], (fam, info)

    def test_reference_fails_where_expected(self):
        # Kenmotsu second factor, a != 0: the reference mixed formulas carry
        # spurious beta terms
        P = make(SAS, KEN, a=1.0, b=1.0)
        rep = connection_closed_form_report(JET, P, pts(P, 8), 1e-6)
        adj = rep.details["variant_adjudication"]
        assert adj["nabla_X1_Y2"]["matched"] == ["koszul"]
        assert adj["nabla_X2_Y2"]["matched"] == ["koszul"]

    def test_reference_agrees_at_product_case(self):
        # a=0, b=1: corrections vanish, both variants match
        P = make(SAS, KEN, a=0.0, b=1.0)
        rep = connection_closed_form_report(JET, P, pts(P, 8), 1e-6)
        adj = rep.details["variant_adjudication"]
        for fam, info in adj.items():
            assert set(info["matched"]) == {"koszul", "reference"}, (fam, info)

    def test_spot_value_sasakian_kenmotsu(self):
        # nabla_{e1} xi2 = -a alpha1 phi1 e1 (= -phi1 e1 at a=b=1)
        P = make(SAS, KEN, a=1.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 3))
        span1 = spanning_fields(P, 1)
        e1 = span1[1]
        xv, _, _ = geom.eval_vector(JET, e1.product_field, pd.points)
        xi2 = P.e2.xi
        for i in range(3):
            yv, yg, _ = geom.eval_vector(JET, xi2, pd.points)
            got = riemann.cov_vector_at(pd.md, i, xv[i], yv[i], yg[i])
            want = -1.0 * (pd.phi1v[i] @ xv[i])
            assert got == pytest.approx(want, abs=1e-9)


class TestNablaJ:
    def test_flat_flat(self):
        P = make(FLAT, FLAT, a=0.5, b=-1.0)
        rep = nabla_J_report(JET, P, pts(P, 6), 1e-9)
        assert rep.verdict == "pass"
        assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("pair", [(SAS, KEN), (KEN, KEN), (SAS, FLAT),
                                      (KEN, FLAT), (FLAT, KEN)])
    @pytest.mark.parametrize("ab", [(1.0, 1.0), (-2.0, 3.0)])
    def test_koszul_matches_generic(self, pair, ab):
        P = make(pair[0], pair[1], a=ab[0], b=ab[1])
        rep = nabla_J_report(JET, P, pts(P, 6), 1e-6)
        assert rep.verdict == "pass", rep.details
        for fam, info in rep.details["variant_adjudication"].items():
            assert "koszul" in info["matched"], (fam, info)

    def test_single_beta_variant_beats_double(self):
        # beta in {0, 1} cannot separate beta^2 from beta; a beta = 2
        # Kenmotsu factor (warp exp(4t)) makes the ambiguity decidable
        F = kenmotsu_scaled(beta=2.0)
        P = build_product(F, builtin_factor(FLAT), 0.0, 1.0)
        rep = nabla_J_report(JET, P, pts(P, 6), 1e-6)
        fam = rep.details["variant_adjudication"]["nabla_J_X1_Y1"]
        assert "koszul" in fam["matched"]
        assert "reference" not in fam["matched"]
        assert "reference_single_beta" in fam["matched"]

    def test_sasakian_cosymplectic_spot_value(self):
        # (nabla_{e1} J) e1 = g1(e1,e1) xi1 + (1/b) Phi1(e1,e1) xi2 = xi1
        P = make(SAS, FLAT, a=0.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 4))
        C0, _ = pd.nabla_J()
        for i in range(4):
            e1 = pd.frame_blocks[0][i, 0]
            nJ = np.einsum("ijm,m->ij", C0[i], e1)
            got = nJ @ e1
            assert got == pytest.approx(pd.xi1v[i], abs=1e-9)

    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    def test_reeb_directions_parallel(self, ab):
        P = make(SAS, KEN, a=ab[0], b=ab[1])
        rep = nabla_J_report(JET, P, pts(P, 6), 1e-6)
        assert rep.details["families"]["nabla_xiJ_zero"]["max_residual"] < 1e-8


class TestCurvature:
    def test_flat_flat(self):
        P = make(FLAT, FLAT, a=1.0, b=1.0)
        rep = curvature_closed_form_report(JET, P, pts(P, 5), 1e-9)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("pair", [(SAS, KEN), (KEN, KEN), (SAS, SAS)])
    @pytest.mark.parametrize("ab", [(1.0, 1.0), (0.5, -1.0)])
    def test_koszul_matches_generic(self, pair, ab):
        P = make(pair[0], pair[1], a=ab[0], b=ab[1])
        rep = curvature_closed_form_report(JET, P, pts(P, 5), 1e-6)
        assert rep.verdict == "pass", rep.details
        for fam, info in rep.details["variant_adjudication"].items():
            assert "koszul" in info["matched"], (fam, info)

    def test_mixed_reeb_curvature_vanishes(self):
        P = make(SAS, KEN, a=-2.0, b=3.0)
        rep = curvature_closed_form_report(JET, P, pts(P, 5), 1e-6)
        assert rep.details["families"]["R_xi1_xi2_zero"]["max_residual"] < 1e-8

    def test_mixed_block_zero_at_a0(self):
        P = make(SAS, SAS, a=0.0, b=1.0)
        pd = product.ProductData(JET, P, pts(P, 4))
        riem = pd.md.riemann()
        span1 = spanning_fields(P, 1)
        span2 = spanning_fields(P, 2)
        d1 = [S for S in span1 if S.in_d]
        for i in range(4):
            uv, _, _ = geom.eval_vector(JET, d1[0].product_field, pd.points)
            vv, _, _ = geom.eval_vector(JET, d1[1].product_field, pd.points)
            zv, _, _ = geom.eval_vector(JET, span2[1].product_field, pd.points)
            out = np.einsum("lkij,i,j,k->l", riem[i], uv[i], vv[i], zv[i])
            assert np.max(np.abs(out)) < 1e-9

    def test_kenmotsu_second_factor_reference_fails_off_product(self):
        P = make(FLAT, KEN, a=1.0, b=1.0)  # lam = 1
        rep = curvature_closed_form_report(JET, P, pts(P, 5), 1e-6)
        adj = rep.details["variant_adjudication"]
        assert adj["R_U2V2_Z2"]["matched"] == ["koszul"]
        assert adj["R_U2V2_xi2"]["matched"] == ["koszul"]


class TestIntegrability:
    def test_flat_flat_constant_J(self):
        P = make(FLAT, FLAT, a=0.0, b=1.0)
        rep = integrability_report(JET, P, pts(P, 6), 1e-6)
        assert rep.verdict == "pass"
        assert rep.max_residual < 1e-12

    def test_heisenberg_kenmotsu_a1_b2(self):
        P = make(SAS, KEN, a=1.0, b=2.0)
        rep = integrability_report(JET, P, pts(P, 8), 1e-6)
        assert rep.verdict == "pass"
        assert rep.details["integrable"] is True

    def test_broken_j_not_integrable(self):
        P = make(SAS, KEN, a=1.0, b=2.0, broken_j=True)
        rep = integrability_report(JET, P, pts(P, 8), 1e-6)
        assert rep.max_residual > 0.1
        assert rep.verdict != "pass"


class TestAdjudication:
    """Matched variants of every closed-form family, pinned.

    Sasakian-Heisenberg x the custom kenmotsu_beta2 factor of the example
    manifest: beta = 2 separates the beta-dependent transcriptions, and
    a != 0 couples the Reeb directions.
    """

    def expected(self, a):
        both, koszul = ["koszul", "reference"], ["koszul"]
        coupled = koszul if a else both
        return {
            "connection_closed_forms": {
                "nabla_X1_Y1": both, "nabla_X1_Y2": coupled,
                "nabla_X2_Y1": coupled, "nabla_X2_Y2": coupled},
            "nabla_J_closed_forms": {
                "nabla_J_X1_Y1": ["koszul", "reference",
                                  "reference_single_beta"],
                "nabla_J_X1_Y2": both, "nabla_J_X2_Y1": koszul,
                "nabla_J_X2_Y2": coupled},
            "curvature_closed_forms": {
                "R_U1V1_Z1": both, "R_U1V1_Z2": coupled, "R_U1V1_xi1": both,
                "R_U1V1_xi2_zero": both, "R_U2V2_Z1": both,
                "R_U2V2_Z2": coupled, "R_U2V2_xi1_zero": both,
                "R_U2V2_xi2": coupled},
        }

    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    def test_matched_variants(self, ab):
        path = (Path(__file__).resolve().parents[1] / "manifests"
                / "custom_kenmotsu_beta2.json")
        F1, F2 = cli.load_manifest(path)["factors"]
        P = build_product(F1, F2, ab[0], ab[1])
        points = pts(P, 8)
        got = {}
        for fn in (connection_closed_form_report, nabla_J_report,
                   curvature_closed_form_report):
            rep = fn(JET, P, points, 1e-6)
            assert rep.verdict == "pass"
            got[rep.name] = {fam: info["matched"] for fam, info in
                             rep.details["variant_adjudication"].items()}
        assert got == self.expected(ab[0])


class TestIntegrabilitySamples:
    def test_one_sample_per_point_and_coordinate_pair(self):
        P = make(SAS, KEN, a=1.0, b=2.0)
        rep = integrability_report(JET, P, pts(P, 7), 1e-6)
        d = P.dim
        assert rep.details["families"]["nijenhuis"]["samples"] == (
            7 * d * (d - 1) // 2)


# ---------------------------------------------------------------------------
# Per-point oracle: the point-by-point adjudication loop, with the closed
# forms, the generic values and the Nijenhuis tensor written for one point
# ---------------------------------------------------------------------------

def _jets(pd, S):
    """((val, grad) on the product chart, (val, grad) on the factor chart)
    of one spanning field, read from its factor's stack."""
    k = S.column
    st = pd.stacks[S.factor]
    return ((st.val[..., k], st.grad[..., k], None),
            (st.fval[..., k], st.fgrad[..., k], None))


def _quantities(pd, i, w):
    if w == 1:
        return (pd.phi1v[i], pd.xi1v[i], pd.eta1v[i], pd.g1v[i],
                float(pd.a1[i]), float(pd.b1[i]))
    return (pd.phi2v[i], pd.xi2v[i], pd.eta2v[i], pd.g2v[i],
            float(pd.a2[i]), float(pd.b2[i]))


def _cov_at(md, i, x, y, yg):
    return yg @ x + np.einsum("kij,i,j->k", md.gamma0[i], x, y)


def _curv_at(md, i, u, v, z):
    return np.einsum("lkij,i,j,k->l", md.riemann()[i], u, v, z)


def _embed(pd, w, vec):
    out = np.zeros(pd.P.dim)
    out[(pd.P.e1 if w == 1 else pd.P.e2).block] = vec
    return out


def _fcov(pd, i, w, X, Y):
    _, (xv, _, _) = _jets(pd, X)
    _, (yv, yg, _) = _jets(pd, Y)
    return _embed(pd, w, _cov_at(pd.factor_md[w], i, xv[i], yv[i], yg[i]))


def _fcurv(pd, i, w, U, V, Z):
    u, v, z = (_jets(pd, S)[1][0][i] for S in (U, V, Z))
    return _embed(pd, w, _curv_at(pd.factor_md[w], i, u, v, z))


def _connection_at(pd, i, X, Y, Xval, Yval):
    a, b, lam = pd.P.a, pd.P.b, pd.P.lam
    phi1, xi1, eta1, g1, a1, b1 = _quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _quantities(pd, i, 2)
    case = (X.factor, Y.factor)
    if case == (1, 1):
        base = _fcov(pd, i, 1, X, Y)
        B1 = b1 * float((phi1 @ Xval) @ g1 @ (phi1 @ Yval))
        return {"reference": base,
                "koszul": base + (a / b ** 2) * B1 * (-a * xi1 + xi2)}
    if case == (2, 2):
        base = _fcov(pd, i, 2, X, Y)
        eX, eY = float(eta2 @ Xval), float(eta2 @ Yval)
        B2 = b2 * float((phi2 @ Xval) @ g2 @ (phi2 @ Yval))
        ref = base - lam * (eX * (a2 * (phi2 @ Yval) + b2 * (phi2 @ (phi2 @ Yval)))
                            + eY * (a2 * (phi2 @ Xval) + b2 * (phi2 @ (phi2 @ Xval))))
        kos = (base - lam * a2 * (eX * (phi2 @ Yval) + eY * (phi2 @ Xval))
               + (B2 / b ** 2) * (a * xi1 + (b * b - 1.0) * xi2))
        return {"reference": ref, "koszul": kos}
    if case == (1, 2):
        eY, eX = float(eta2 @ Yval), float(eta1 @ Xval)
        ref = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval)
                    + b1 * eY * (phi1 @ (phi1 @ Xval))
                    + b2 * eX * (phi2 @ (phi2 @ Yval)))
        kos = -a * (a1 * eY * (phi1 @ Xval) + a2 * eX * (phi2 @ Yval))
        return {"reference": ref, "koszul": kos}
    eX, eY = float(eta2 @ Xval), float(eta1 @ Yval)
    ref = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval)
                + b1 * eX * (phi1 @ (phi1 @ Yval))
                + b2 * eY * (phi2 @ (phi2 @ Xval)))
    kos = -a * (a1 * eX * (phi1 @ Yval) + a2 * eY * (phi2 @ Xval))
    return {"reference": ref, "koszul": kos}


def _nabla_j_at(pd, i, X, Y, Xval, Yval):
    a, b, lam = pd.P.a, pd.P.b, pd.P.lam
    ab2 = a * a + b * b
    phi1, xi1, eta1, g1, a1, b1 = _quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _quantities(pd, i, 2)
    case = (X.factor, Y.factor)
    if case in ((1, 1), (2, 2)):
        phi, g, eta = (phi1, g1, eta1) if case == (1, 1) else (phi2, g2, eta2)
        gXY = float(Xval @ g @ Yval)
        eX, eY = float(eta @ Xval), float(eta @ Yval)
        phiX = phi @ Xval
        phi2X = phi @ phiX
        PhiXY = float(Xval @ g @ (phi @ Yval))
        gpp = float(phiX @ g @ (phi @ Yval))
        gphiXY = float(phiX @ g @ Yval)
    if case == (1, 1):
        common = (a1 * gXY * xi1 - a1 * eY * Xval
                  + b1 * gphiXY * xi1 - b1 * eY * phiX
                  - (a / b) * a1 * PhiXY * xi1 + (a1 / b) * PhiXY * xi2)
        ref_tail = (- (a / b) * b1 * gpp * xi1
                    - (a / b) * b1 * eY * Xval + (a / b) * b1 * eY * eX * xi1)
        return {"reference": common + (b1 * b1 / b) * gpp * xi2 + ref_tail,
                "reference_single_beta": common + (b1 / b) * gpp * xi2 + ref_tail,
                "koszul": (common - (a * a / b ** 2) * b1 * PhiXY * xi1
                           + (a / b ** 2) * b1 * PhiXY * xi2
                           + (b1 / b) * gpp * xi2
                           + (a / b) * b1 * eY * phi2X)}
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
        eY, eX = float(eta2 @ Yval), float(eta1 @ Xval)
        phiX = phi1 @ Xval
        phi2X = phi1 @ phiX
        ref = (a * a1 * eY * eX * xi1 - a * a1 * eY * Xval
               + b * a1 * eY * phiX - b * b1 * eY * Xval
               + b * b1 * eY * eX * xi1 + a * b1 * eY * (phi1 @ phi2X))
        kos = eY * (b * a1 * phiX + a * a1 * phi2X + (ab2 / b) * b1 * phi2X)
        return {"reference": ref, "koszul": kos}
    eY, eX = float(eta1 @ Yval), float(eta2 @ Xval)
    phiX = phi2 @ Xval
    phi2X = phi2 @ phiX
    ref_base = (a * a2 * (eY * eX * xi2 - eY * Xval) - b * a2 * eY * phiX
                + (ab2 / b) * b2 * phi2X + (a * a / b) * eY * b2 * phi2X)
    return {"reference": ref_base + a * b1 * eY * (phi2 @ phi2X),
            "reference_beta2": ref_base + a * b2 * eY * (phi2 @ phi2X),
            "koszul": eY * (-b * a2 * phiX + a * a2 * phi2X - (b2 / b) * phi2X)}


def _curvature_at(pd, i, U, V, Z, Uval, Vval, Zval):
    a, b, lam = pd.P.a, pd.P.b, pd.P.lam
    phi1, xi1, eta1, g1, a1, b1 = _quantities(pd, i, 1)
    phi2, xi2, eta2, g2, a2, b2 = _quantities(pd, i, 2)
    if U.factor == 1:
        PhiUV = float(Uval @ g1 @ (phi1 @ Vval))
        if Z.factor == 1:
            base = _fcurv(pd, i, 1, U, V, Z)
            eZ = float(eta1 @ Zval)
            kos = (base
                   - (2 * a * a1 * b1 / b ** 2) * PhiUV * eZ * (-a * xi1 + xi2)
                   - (a * a * b1 * b1 / b ** 2) * (
                       float((phi1 @ Vval) @ g1 @ (phi1 @ Zval)) * Uval
                       - float((phi1 @ Uval) @ g1 @ (phi1 @ Zval)) * Vval))
            return {"reference": base, "koszul": kos}
        eZ = float(eta2 @ Zval)
        phi2Z = phi2 @ Zval
        ref = (-2 * a * a1 * a2 * PhiUV * phi2Z
               - 2 * a * b2 * a1 * PhiUV * (phi2 @ phi2Z))
        kos = (-2 * a * a1 * a2 * PhiUV * phi2Z
               + 2 * a * a1 * b1 * PhiUV * eZ * (
                   ((a * a + b * b) / b ** 2) * xi1 - (a / b ** 2) * xi2))
        return {"reference": ref, "koszul": kos}
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
    base = _fcurv(pd, i, 2, U, V, Z)
    eZ = float(eta2 @ Zval)
    phiU, phiV, phiZ = phi2 @ Uval, phi2 @ Vval, phi2 @ Zval
    PhiVZ, PhiUZ = float(Vval @ g2 @ phiZ), float(Uval @ g2 @ phiZ)
    gppVZ, gppUZ = float(phiV @ g2 @ phiZ), float(phiU @ g2 @ phiZ)
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


def _oracle_tables(pd, which):
    """(families, zero families) of one closed-form report, per point."""
    span = {w: spanning_fields(pd.P, w) for w in (1, 2)}
    val = lambda S, i: _jets(pd, S)[0][0][i]  # noqa: E731
    norm = lambda i, v: float(np.max(np.abs(  # noqa: E731
        pd.frames[i] @ pd.md.g0[i] @ v)))
    blocks = ((1, 1), (2, 2), (1, 2), (2, 1))
    if which == "connection":
        def cov(i, X, Y):
            (yv, yg, _), _ = _jets(pd, Y)
            return _cov_at(pd.md, i, val(X, i), yv[i], yg[i])

        def closed(i, X, Y):
            return cov(i, X, Y), _connection_at(pd, i, X, Y, val(X, i),
                                                val(Y, i))
        reebs = (span[1][0], span[2][0])
        return ({f"nabla_X{u}_Y{v}": (
                    [(X, Y) for X in span[u] for Y in span[v]],
                    ("reference", "koszul"), closed) for u, v in blocks},
                {"nabla_xi_xi_zero": (
                    [(X, Y) for X in reebs for Y in reebs],
                    lambda i, X, Y: norm(i, cov(i, X, Y)))})
    if which == "nabla_j":
        C0, _ = pd.nabla_J()

        def nJ(i, X):
            return np.einsum("ijm,m->ij", C0[i], val(X, i))

        def closed(i, X, Y):
            return nJ(i, X) @ val(Y, i), _nabla_j_at(pd, i, X, Y, val(X, i),
                                                     val(Y, i))
        names = {(1, 1): ("reference", "reference_single_beta", "koszul"),
                 (2, 1): ("reference", "reference_beta2", "koszul")}
        return ({f"nabla_J_X{u}_Y{v}": (
                    [(X, Y) for X in span[u] for Y in span[v]],
                    names.get((u, v), ("reference", "koszul")), closed)
                 for u, v in blocks},
                {"nabla_xiJ_zero": (
                    [(span[1][0],), (span[2][0],)],
                    lambda i, S: float(np.max(np.abs(
                        pd.frames[i] @ pd.md.g0[i] @ nJ(i, S)
                        @ pd.frames[i].T))))})
    xi = {w: span[w][0] for w in (1, 2)}

    def R(i, U, V, Z):
        return _curv_at(pd.md, i, val(U, i), val(V, i), val(Z, i))

    def closed(i, U, V, Z):
        return R(i, U, V, Z), _curvature_at(pd, i, U, V, Z, val(U, i),
                                            val(V, i), val(Z, i))

    def own_reeb(i, U, V):
        generic, variants = closed(i, U, V, xi[U.factor])
        if U.factor == 1:
            (uv, ug, _), _ = _jets(pd, U)
            (vv, vg, _), _ = _jets(pd, V)
            br = vg[i] @ uv[i] - ug[i] @ vv[i]
            printed = -float(pd.b1[i]) * float(pd.eta1v[i] @ br) * pd.xi1v[i]
        else:
            phi2, xi2, _, g2, a2, b2 = _quantities(pd, i, 2)
            phiU = phi2 @ val(U, i)
            phi2V = phi2 @ (phi2 @ val(V, i))
            gpp2 = float(phiU @ g2 @ phi2V)
            gpp3 = float(phiU @ g2 @ (phi2 @ phi2V))
            printed = _fcurv(pd, i, 2, U, V, xi[2]) + pd.P.lam * (
                2 * a2 * b2 * gpp2 - 2 * b2 * b2 * gpp3) * xi2
        return generic, {"reference": printed, "koszul": variants["koszul"]}

    def other_reeb(i, U, V):
        generic, variants = closed(i, U, V, xi[3 - U.factor])
        return generic, {"reference": np.zeros(pd.P.dim),
                         "koszul": variants["koszul"]}

    pairs = {w: [(U, V) for U in span[w] if U.in_d
                 for V in span[w] if V.in_d] for w in (1, 2)}
    names = ("reference", "koszul")
    families = {f"R_U{w}V{w}_Z{z}": (
        [(U, V, Z) for U, V in pairs[w] for Z in span[z]], names, closed)
        for w in (1, 2) for z in (1, 2)}
    families.update({"R_U1V1_xi1": (pairs[1], names, own_reeb),
                     "R_U1V1_xi2_zero": (pairs[1], names, other_reeb),
                     "R_U2V2_xi1_zero": (pairs[2], names, other_reeb),
                     "R_U2V2_xi2": (pairs[2], names, own_reeb)})
    return families, {"R_xi1_xi2_zero": (
        [(Z,) for Z in span[1] + span[2]],
        lambda i, Z: norm(i, R(i, xi[1], xi[2], Z)))}


def _oracle_adjudicate(pd, name, tol, families, zero_families):
    """The point-major adjudication loop, one argument tuple at a time."""
    trackers = {fam: {v: ResidualTracker(fam) for v in names}
                for fam, (_, names, _) in families.items()}
    zero = {fam: ResidualTracker(fam) for fam in zero_families}
    for i, p in enumerate(pd.points):
        for fam, (args, _, fn) in families.items():
            for a in args:
                generic, variants = fn(i, *a)
                for vn, val in variants.items():
                    trackers[fam][vn].update(float(np.max(np.abs(
                        pd.frames[i] @ pd.md.g0[i] @ (generic - val)))), p)
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


def _oracle_integrability(P, points, tol):
    """The Nijenhuis loop over points and coordinate pairs, brackets from
    geom.lie_bracket and a Gram-Schmidt frame per point."""
    d = P.dim
    Jcols = [geom.endo_apply_field(P.J, geom.coordinate_field(P.chart, j))
             for j in range(d)]
    Jv, _, _ = geom.eval_endo(JET, P.J, points)
    md = riemann.MetricData(JET, P.G, points)
    jac = [geom.eval_vector(JET, c, points)[1] for c in Jcols]
    brJJ = {(i, j): geom.lie_bracket(JET, Jcols[i], Jcols[j], points)
            for i in range(d) for j in range(i + 1, d)}
    t = ResidualTracker("nijenhuis")
    for ip, p in enumerate(points):
        frame = riemann.orthonormal_frame(md.g0[ip])
        for (i, j), br in brJJ.items():
            N = br[ip] + Jv[ip] @ jac[i][ip][:, j] - Jv[ip] @ jac[j][ip][:, i]
            t.update(float(np.max(np.abs(frame @ md.g0[ip] @ N))), p)
    return CheckReport.from_trackers("integrability", tol, [t])


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _kenmotsu_beta2():
    path = (Path(__file__).resolve().parents[1] / "manifests"
            / "custom_kenmotsu_beta2.json")
    return cli.load_manifest(path)["factors"]


class TestBatchedAgainstPointwiseOracle:
    """The batched closed-form reports against the per-point oracle."""

    TOL = 1e-6
    PAIRS = list(harmonic.TABLE1_ROWS) + ["kenmotsu_beta2"]
    REPORTS = {"connection": connection_closed_form_report,
               "nabla_j": nabla_J_report,
               "curvature": curvature_closed_form_report}

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    def test_reports_match_oracle(self, pair, ab):
        if pair == "kenmotsu_beta2":
            F1, F2 = _kenmotsu_beta2()
        else:
            F1, F2 = (contact.factor_for_class(k) for k in pair)
        P = build_product(F1, F2, *ab)
        points = pts(P, 8)
        pd = product.ProductData(JET, P, points)
        for which, report in self.REPORTS.items():
            got = report(JET, P, points, self.TOL)
            want = _oracle_adjudicate(pd, got.name, self.TOL,
                                      *_oracle_tables(pd, which))
            self.assert_same(got, want)
            for fam, info in want.details["variant_adjudication"].items():
                g = got.details["variant_adjudication"][fam]
                assert g["matched"] == info["matched"], (which, fam)
                assert list(g["variants"]) == list(info["variants"])
                for v, m in info["variants"].items():
                    assert _close(g["variants"][v], m), (which, fam, v)
        self.assert_same(integrability_report(JET, P, points, self.TOL),
                         _oracle_integrability(P, points, self.TOL))

    def test_integrability_matches_oracle_for_a_generic_endomorphism(self):
        # the built-in J depend on their coordinates in too few ways to tell
        # every Nijenhuis term apart, so J is replaced by a polynomial field
        # with every entry depending on two coordinates
        P = make(SAS, KEN, a=1.0, b=1.0)
        names, d = P.chart.names, P.dim
        J = geom.endo_field(P.chart, [
            [parse(f"{(i + 2 * j) % 5 - 2}*{names[j]}*{names[(i + 1) % d]}"
                   f" + {names[i]}^2", names) for j in range(d)]
            for i in range(d)])
        P = dataclasses.replace(P, J=J)
        points = pts(P, 5)
        got = integrability_report(JET, P, points, self.TOL)
        assert got.max_residual > 1.0
        self.assert_same(got, _oracle_integrability(P, points, self.TOL))

    @staticmethod
    def assert_same(got, want):
        assert got.verdict == want.verdict, got.name
        assert _close(got.max_residual, want.max_residual), got.name
        assert set(got.details["families"]) == set(want.details["families"])
        for fam, info in want.details["families"].items():
            g = got.details["families"][fam]
            assert _close(g["max_residual"], info["max_residual"]), fam
            assert _close(g["mean_residual"], info["mean_residual"]), fam
            assert g["samples"] == info["samples"], fam
            assert g["worst_point"] == info["worst_point"], fam


CLASSES = ("sasakian", "kenmotsu", "cosymplectic")


@settings(max_examples=12, deadline=None)
@given(k1=st.sampled_from(CLASSES), k2=st.sampled_from(CLASSES),
       a=st.floats(-3.0, 3.0), b=st.floats(0.25, 3.0),
       sign=st.sampled_from((1.0, -1.0)), seed=st.integers(0, 2 ** 16))
def test_koszul_matches_the_generic_computation_everywhere(k1, k2, a, b,
                                                           sign, seed):
    """README: the koszul variants match the oracle on the built-in models."""
    P = build_product(contact.factor_for_class(k1),
                      contact.factor_for_class(k2), a, sign * b)
    points = sample_points(P.chart, 6, seed)
    for report in (connection_closed_form_report, nabla_J_report,
                   curvature_closed_form_report):
        rep = report(JET, P, points, 1e-6)
        for fam, info in rep.details["variant_adjudication"].items():
            assert "koszul" in info["matched"], (rep.name, fam, info)


# ---------------------------------------------------------------------------
# Per-argument oracle: the adjudication as it was before the argument axis,
# one closed-form call per argument tuple on one-column stacks, with the
# generic side from the single-vector forms of the riemann kernels
# ---------------------------------------------------------------------------

def _per_argument_tables(pd, which):
    """(families, zero families) of one closed-form report: argument tuples
    of one-column SpanStacks and the closures that evaluate one tuple."""
    cols = {w: [pd.stacks[w].take([k]) for k in pd.stacks[w].idx]
            for w in (1, 2)}
    g0, frames = pd.md.g0, pd.frames
    blocks = ((1, 1), (2, 2), (1, 2), (2, 1))
    if which == "connection":
        def cov(X, Y):
            return riemann.cov_vector_at(pd.md, ..., X.val[..., 0],
                                         Y.val[..., 0],
                                         Y.grad[..., 0])[:, :, None]

        def closed(X, Y):
            return cov(X, Y), product.connection_variants(pd, X, Y)

        reebs = (cols[1][0], cols[2][0])
        return ({f"nabla_X{u}_Y{v}": (
                    [(X, Y) for X in cols[u] for Y in cols[v]],
                    ("reference", "koszul"), closed) for u, v in blocks},
                {"nabla_xi_xi_zero": (
                    [(X, Y) for X in reebs for Y in reebs],
                    lambda X, Y: riemann.vector_residual_norm(
                        g0, frames, cov(X, Y)[..., 0]))})
    if which == "nabla_j":
        C0, _ = pd.nabla_J()

        def nabla_XJ(X):
            return riemann.along(C0, X.val[..., 0])

        def closed(X, Y):
            return nabla_XJ(X) @ Y.val, product.nabla_j_variants(pd, X, Y)

        names = {(1, 1): ("reference", "reference_single_beta", "koszul"),
                 (2, 1): ("reference", "reference_beta2", "koszul")}
        return ({f"nabla_J_X{u}_Y{v}": (
                    [(X, Y) for X in cols[u] for Y in cols[v]],
                    names.get((u, v), ("reference", "koszul")), closed)
                 for u, v in blocks},
                {"nabla_xiJ_zero": (
                    [(cols[1][0],), (cols[2][0],)],
                    lambda X: riemann.endo_residual_norm(g0, frames,
                                                         nabla_XJ(X)))})
    (_, xi1, eta1, _, _, b1), (phi2, xi2, _, g2, a2, b2) = pd.factor_columns
    xi = {w: cols[w][0] for w in (1, 2)}

    def R(U, V, Z):
        return riemann.curvature_values(
            pd.md, ..., *(S.val[..., 0] for S in (U, V, Z)))[:, :, None]

    def closed(U, V, Z):
        return R(U, V, Z), product.curvature_variants(pd, U, V, Z)

    def own_reeb(U, V):
        generic, variants = closed(U, V, xi[U.factor])
        if U.factor == 1:
            br = V.grad[..., 0] @ U.val - U.grad[..., 0] @ V.val
            printed = -b1 * (eta1 @ br) * xi1
        else:
            phiU = phi2 @ U.val
            phi2V = phi2 @ (phi2 @ V.val)
            gpp2 = riemann.inner(phiU, g2, phi2V)
            gpp3 = riemann.inner(phiU, g2, phi2 @ phi2V)
            printed = product._factor_curvature(pd, 2, U, V, xi[2]) + (
                pd.P.lam * (2 * a2 * b2 * gpp2 - 2 * b2 * b2 * gpp3) * xi2)
        return generic, {"reference": printed, "koszul": variants["koszul"]}

    def other_reeb(U, V):
        generic, variants = closed(U, V, xi[3 - U.factor])
        return generic, {"reference": np.zeros_like(generic),
                         "koszul": variants["koszul"]}

    dcols = {w: [S for S, F in zip(cols[w], spanning_fields(pd.P, w))
                 if F.in_d] for w in (1, 2)}
    pairs = {w: [(U, V) for U in dcols[w] for V in dcols[w]] for w in (1, 2)}
    names = ("reference", "koszul")
    families = {f"R_U{w}V{w}_Z{z}": (
        [(U, V, Z) for U, V in pairs[w] for Z in cols[z]], names, closed)
        for w in (1, 2) for z in (1, 2)}
    families.update({"R_U1V1_xi1": (pairs[1], names, own_reeb),
                     "R_U1V1_xi2_zero": (pairs[1], names, other_reeb),
                     "R_U2V2_xi1_zero": (pairs[2], names, other_reeb),
                     "R_U2V2_xi2": (pairs[2], names, own_reeb)})
    return families, {"R_xi1_xi2_zero": (
        [(Z,) for Z in cols[1] + cols[2]],
        lambda Z: riemann.vector_residual_norm(
            g0, frames, R(xi[1], xi[2], Z)[..., 0]))}


def _per_argument_adjudicate(pd, name, tol, families, zero_families):
    """The argument loop: each tuple's (p,) residuals appended in order."""
    g0, frames = pd.md.g0, pd.frames
    trackers = {}
    for fam, (args, names, fn) in families.items():
        res = {v: [] for v in names}
        for a in args:
            generic, variants = fn(*a)
            for vn, val in variants.items():
                res[vn].append(riemann.vector_residual_norm(
                    g0, frames, (generic - val)[..., 0]))
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


def _per_pair_integrability(ev, P, points, tol):
    """The Nijenhuis norms one coordinate pair at a time."""
    d = P.dim
    Jv, Jg, _ = geom.eval_endo(ev, P.J, points)
    md = riemann.MetricData(ev, P.G, points)
    frames = riemann.orthonormal_frame_within(
        md.g0, np.broadcast_to(np.eye(d), md.g0.shape))
    A = np.einsum("pmi,pkjm->pkij", Jv, Jg)
    N = (A - A.swapaxes(2, 3) + np.einsum("pkl,plij->pkij", Jv, Jg)
         - np.einsum("pkl,plji->pkij", Jv, Jg))
    t = ResidualTracker.point_major("nijenhuis", [
        riemann.vector_residual_norm(md.g0, frames, N[:, :, i, j])
        for i, j in zip(*np.triu_indices(d, 1))], points)
    rep = CheckReport.from_trackers("integrability", tol, [t])
    rep.details["integrable"] = bool(t.max < tol)
    return rep


def _assert_match(got, want, path="$"):
    """Equal structure, strings, counts and worst points; floats within
    1e-14 absolute."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            _assert_match(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, (list, tuple)) and not path.endswith("worst_point"):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_match(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == want or abs(got - want) <= 1e-14, (path, got, want)
    else:
        assert got == want, (path, got, want)


class TestArgumentAxisAgainstPerArgumentOracle:
    """Each family evaluated over its argument axis at once against one
    closed-form call per argument tuple: the same reports, and the same
    r[argument, point] residuals fed to the trackers in the same order."""

    TOL = 1e-6
    PAIRS = {"sasakian x kenmotsu": (SAS, KEN),
             "kenmotsu x sasakian": (KEN, SAS),
             "cosymplectic x kenmotsu": (FLAT, KEN),
             "sasakian x kenmotsu_beta2": None}

    @staticmethod
    def factors(pair, phi_scale=None):
        if pair is None:
            F1, F2 = _kenmotsu_beta2()
        else:
            F1, F2 = (builtin_factor(n) for n in pair)
        if phi_scale is not None:
            F2 = contact.tamper_phi_scale(F2, phi_scale)
        return F1, F2

    def check(self, monkeypatch, F1, F2, ab, mode, n, broken_j=False):
        P = build_product(F1, F2, *ab, broken_j=broken_j)
        points = pts(P, n, seed=n)
        ev = Evaluator(mode)
        feeds = []
        point_major = ResidualTracker.point_major.__func__

        def recording(cls, name, r, points, keep=None):
            feeds.append((name, np.array(r, dtype=float)))
            return point_major(cls, name, r, points, keep)

        monkeypatch.setattr(ResidualTracker, "point_major",
                            classmethod(recording))
        reports = (("connection", connection_closed_form_report),
                   ("nabla_j", nabla_J_report),
                   ("curvature", curvature_closed_form_report))
        for which, report in reports:
            feeds.clear()
            got = report(ev, P, points, self.TOL).to_dict()
            got_feeds = list(feeds)
            feeds.clear()
            pd = product.ProductData(ev, P, points)
            want = _per_argument_adjudicate(
                pd, got["name"], self.TOL,
                *_per_argument_tables(pd, which)).to_dict()
            _assert_match(got, want)
            assert [f for f, _ in got_feeds] == [f for f, _ in feeds]
            for (fam, g), (_, w) in zip(got_feeds, feeds):
                assert g.shape == w.shape, (which, fam)
                assert np.all(np.abs(g - w) <= 1e-14), (which, fam)
        _assert_match(integrability_report(ev, P, points, self.TOL).to_dict(),
                      _per_pair_integrability(ev, P, points, self.TOL
                                              ).to_dict())

    @pytest.mark.parametrize("pair", list(PAIRS))
    @pytest.mark.parametrize("ab", DEFAULT_AB_GRID)
    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_pairs_over_the_ab_grid(self, monkeypatch, pair, ab, mode):
        self.check(monkeypatch, *self.factors(self.PAIRS[pair]), ab, mode, 7)

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_modes_and_point_counts(self, monkeypatch, mode, n):
        self.check(monkeypatch, *self.factors(None), (-2.0, 3.0), mode, n)

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_tampered_phi_and_broken_j(self, monkeypatch, mode):
        F1, F2 = self.factors((SAS, KEN), phi_scale=1.1)
        self.check(monkeypatch, F1, F2, (1.0, 1.0), mode, 7)
        self.check(monkeypatch, *self.factors((SAS, KEN)), (1.0, 2.0), mode,
                   7, broken_j=True)


# ---------------------------------------------------------------------------
# Factor-chart oracle: each spanning field evaluated again on its factor
# chart, at the factor's slice of the product points
# ---------------------------------------------------------------------------

def _factor_chart_span(F):
    """The spanning fields of a factor on its own chart: xi, then the
    phi(d_c) that are not identically zero there."""
    S = F.structure
    images = [geom.endo_apply_field(S.phi, geom.coordinate_field(F.chart, c))
              for c in range(F.chart.dim)]
    return [S.xi] + [X for X in images
                     if not all(e == expr.ZERO for e in X.comps)]


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("pair", [(SAS, KEN), (KEN, SAS), (FLAT, KEN), None],
                         ids=["sas-ken", "ken-sas", "flat-ken",
                              "sas-kenmotsu_beta2"])
def test_factor_chart_stacks_are_blocks_of_the_product_chart(pair, mode):
    F1, F2 = (_kenmotsu_beta2() if pair is None
              else [builtin_factor(n) for n in pair])
    P = build_product(F1, F2, -2.0, 3.0)
    ev = Evaluator(mode)
    pd = product.ProductData(ev, P, pts(P, 32))
    for w, F in ((1, F1), (2, F2)):
        st = pd.stacks[w]
        blk = (P.e1 if w == 1 else P.e2).block
        fields = _factor_chart_span(F)
        assert len(fields) == len(st.idx)
        fv, fg, _ = (np.stack(a, axis=-1) for a in zip(*(
            geom.eval_vector(ev, X, P.factor_point(w, pd.points))
            for X in fields)))
        assert np.array_equal(st.fval, fv)
        assert np.array_equal(st.fgrad, fg)
        # zero outside the block, in the values and in both gradient axes
        out = np.ones(P.dim, bool)
        out[blk] = False
        assert not st.val[:, out].any()
        assert not st.grad[:, out].any() and not st.grad[:, :, out].any()


# ---------------------------------------------------------------------------
# Spanning stacks: the xi/phi jets of ProductData against the spanning fields
# built as new expressions and evaluated again
# ---------------------------------------------------------------------------

SPAN_CASES = {"sas-ken": ((SAS, KEN), None), "ken-sas": ((KEN, SAS), None),
              "flat-ken": ((FLAT, KEN), None),
              "sas-kenmotsu_beta2": (None, None),
              "sas-ken~phi*1.1": ((SAS, KEN), 1.1)}


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("case", list(SPAN_CASES))
def test_span_stacks_equal_the_spanning_field_oracle(case, mode):
    pair, phi_scale = SPAN_CASES[case]
    F1, F2 = TestArgumentAxisAgainstPerArgumentOracle.factors(pair, phi_scale)
    P = build_product(F1, F2, 1.0, 2.0)
    ev = Evaluator(mode)
    pd = product.ProductData(ev, P, pts(P, 7))
    for w in (1, 2):
        fields = spanning_fields(P, w)
        jets = [geom.eval_vector(ev, S.product_field, pd.points)[:2]
                for S in fields]
        want = product.SpanStack(
            w, (P.e1 if w == 1 else P.e2).block,
            tuple(np.stack(a, axis=-1) for a in zip(*jets)),
            np.arange(len(fields)))
        got = pd.stacks[w]
        assert list(got.idx) == list(want.idx)
        for name in ("val", "grad", "fval", "fgrad"):
            g, v = getattr(got, name), getattr(want, name)
            assert np.array_equal(g, v), (w, name)
            assert g.tobytes() == v.tobytes(), (w, name)


def test_span_stacks_evaluate_no_field(monkeypatch):
    """ProductData.stacks reads the xi/phi jets that ProductData keeps: it
    makes no geom.eval_* call of its own."""
    P = make(SAS, KEN, a=1.0, b=2.0)
    pd = product.ProductData(JET, P, pts(P, 7))
    calls = []
    for name in ("eval_scalar", "eval_vector", "eval_endo", "eval_oneform",
                 "eval_metric"):
        def counted(*args, _fn=getattr(geom, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geom, name, counted)
    assert [len(pd.stacks[w].idx) for w in (1, 2)] == [3, 3]
    assert calls == []


def test_productdata_keeps_hessians_of_g_and_j_only(monkeypatch):
    """In jet mode the factor fields are evaluated to the order their
    readers use: phi and xi to first order, eta and the metric blocks as
    values. Only G (for MetricData's gamma1) and J (for C1) keep Hessians."""
    P = make(SAS, KEN, a=1.0, b=2.0)
    requests = []
    original = geom._eval_comps

    def recording(ev, comps, points, order=2):
        requests.append((comps, order))
        return original(ev, comps, points, order)

    monkeypatch.setattr(geom, "_eval_comps", recording)
    product.ProductData(JET, P, pts(P, 5))
    want = [(P.G.comps, 2), (P.J.comps, 2)]
    for emb in (P.e1, P.e2):
        want += [(emb.phi.comps, 1), (emb.xi.comps, 1),
                 (geom.one_form_field(P.chart, emb.eta).comps, 0),
                 (geom.endo_field(P.chart, emb.gblk).comps, 0)]
    assert Counter(requests) == Counter(want)


@pytest.mark.parametrize("mode", ["jet", "fd"])
def test_nabla_j_drops_the_j_hessian(mode):
    ev = Evaluator(mode)
    P = make(SAS, KEN, a=1.0, b=2.0)
    points = pts(P, 5)
    pd = product.ProductData(ev, P, points)
    C0, C1 = pd.nabla_J()
    assert not hasattr(pd, "Jh")
    assert pd.nabla_J()[1] is C1
    want_C0, want_C1 = riemann.nabla_endo_all(
        pd.md, *geom.eval_endo(ev, P.J, points))
    assert C0.tobytes() == want_C0.tobytes()
    assert C1.tobytes() == want_C1.tobytes()
