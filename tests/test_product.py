from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli, contact, geom, product, riemann
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET
from tsgeom.geom import sample_points
from tsgeom.product import (
    DEFAULT_AB_GRID, UnvalidatedFactor, ZeroB, build_product,
    connection_closed_form_report, curvature_closed_form_report,
    integrability_report, nabla_J_report, product_invariants_report,
    spanning_fields,
)

FLAT = "cosymplectic_flat"
SAS = "sasakian_heisenberg"
KEN = "kenmotsu_warped"


def make(n1=FLAT, n2=FLAT, a=0.0, b=1.0, **kw):
    return build_product(builtin_factor(n1), builtin_factor(n2), a, b, **kw)


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

    def test_unvalidated_factor(self):
        bad = contact.tamper_phi_scale(builtin_factor(FLAT), 1.1)
        with pytest.raises(UnvalidatedFactor):
            build_product(bad, builtin_factor(FLAT), 0.0, 1.0)

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
        P = build_product(F1, F2, ab[0], ab[1], validate=False)
        points = pts(P, 8)
        got = {}
        for fn in (connection_closed_form_report, nabla_J_report,
                   curvature_closed_form_report):
            rep = fn(JET, P, points, 1e-6)
            assert rep.verdict == "pass"
            got[rep.name] = {fam: info["matched"] for fam, info in
                             rep.details["variant_adjudication"].items()}
        assert got == self.expected(ab[0])
