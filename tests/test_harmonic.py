import numpy as np
import pytest

from tsgeom import contact, geom, harmonic, product
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET, parse
from tsgeom.geom import sample_points
from tsgeom.harmonic import (
    NotIntegrable, astheno_residual, chern_ricci_P, codifferential_J,
    delta_and_P_with_frame, dirichlet_energy_density, energy_report,
    harmonicity_report, mixed_frame, nabla_deltaJ_J, rough_laplacian_J,
    commutator_condition_bracket, table1_suite, sufficient_condition_tensors,
)
from tsgeom.product import ProductData, build_product

FLAT, SAS, KEN = "cosymplectic_flat", "sasakian_heisenberg", "kenmotsu_warped"


def make(n1, n2, a, b, **kw):
    kw.setdefault("validate", False)
    return build_product(builtin_factor(n1), builtin_factor(n2), a, b, **kw)


def pdata(P, n=10, seed=7):
    return ProductData(JET, P, sample_points(P.chart, n, seed))


class TestCodifferential:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 1.0, 1.0), 5)
        for i in range(5):
            delta, variants = codifferential_J(pd, i)
            assert np.max(np.abs(delta)) < 1e-12
            for v in variants.values():
                assert np.max(np.abs(v)) < 1e-12

    def test_sasakian_flat_equals_2_xi1(self):
        # n1 = 1, alpha1 = 1, all betas zero: deltaJ = 2 xi1 for any (a, b)
        for ab in [(0.0, 1.0), (1.0, 1.0), (0.5, -1.0)]:
            pd = pdata(make(SAS, FLAT, *ab), 5)
            for i in range(5):
                delta, variants = codifferential_J(pd, i)
                assert delta == pytest.approx(2.0 * pd.xi1v[i], abs=1e-9)
                assert variants["reference"] == pytest.approx(delta, abs=1e-9)
                assert variants["koszul"] == pytest.approx(delta, abs=1e-9)

    def test_kenmotsu_kenmotsu_frame_sum(self):
        # a = b = 1: the frame sum gives -2 xi1 + 2 xi2; the transcribed
        # closed form (4 xi2) diverges from it by design of the beta slip
        pd = pdata(make(KEN, KEN, 1.0, 1.0), 6)
        for i in range(6):
            delta, variants = codifferential_J(pd, i)
            want = -2.0 * pd.xi1v[i] + 2.0 * pd.xi2v[i]
            assert delta == pytest.approx(want, abs=1e-9)
            assert variants["koszul"] == pytest.approx(want, abs=1e-12)
            ref = variants["reference"]
            assert ref == pytest.approx(4.0 * pd.xi2v[i], abs=1e-12)
            assert np.max(np.abs(ref - delta)) > 1.0

    def test_nabla_deltaJ_J_vanishes(self):
        for pair, ab in [((SAS, FLAT), (1.0, 1.0)), ((KEN, KEN), (1.0, 1.0)),
                         ((SAS, KEN), (-2.0, 3.0))]:
            pd = pdata(make(pair[0], pair[1], *ab), 5)
            for i in range(5):
                ndj = nabla_deltaJ_J(pd, i)
                assert np.max(np.abs(ndj)) < 1e-8


class TestChernRicciP:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 0.0, 1.0), 4)
        for i in range(4):
            assert np.max(np.abs(chern_ricci_P(pd, i))) < 1e-12

    def test_reeb_pair_contribution_vanishes(self):
        # R(xi1, J xi1) = 0 because J xi1 lies in span{xi1, xi2}
        pd = pdata(make(SAS, KEN, 1.0, 1.0), 4)
        riem = pd.md.riemann()
        for i in range(4):
            xi1 = pd.xi1v[i]
            Jxi1 = pd.Jv[i] @ xi1
            M = np.einsum("lkij,i,j->lk", riem[i], xi1, Jxi1)
            assert np.max(np.abs(M)) < 1e-9

    def test_heisenberg_heisenberg_commutes_with_J(self):
        pd = pdata(make(SAS, SAS, 0.0, 1.0), 5)
        for i in range(5):
            Pm = chern_ricci_P(pd, i)
            J0 = pd.Jv[i]
            assert np.max(np.abs(J0 @ Pm - Pm @ J0)) < 1e-8


class TestRoughLaplacian:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 1.0, 1.0), 4)
        for i in range(4):
            assert np.max(np.abs(rough_laplacian_J(pd, i))) < 1e-12

    @pytest.mark.parametrize("pair,ab", [((SAS, KEN), (1.0, 1.0)),
                                         ((KEN, KEN), (0.5, -1.0)),
                                         ((SAS, SAS), (-2.0, 3.0))])
    def test_laplacian_identity(self, pair, ab):
        # [J, lap J] = 2 (nabla_deltaJ J - [J, P]) for integrable J
        pd = pdata(make(pair[0], pair[1], *ab), 5)
        for i in range(5):
            J0 = pd.Jv[i]
            lap = rough_laplacian_J(pd, i)
            ndj = nabla_deltaJ_J(pd, i)
            Pm = chern_ricci_P(pd, i)
            lhs = J0 @ lap - lap @ J0
            rhs = 2.0 * (ndj - (J0 @ Pm - Pm @ J0))
            assert np.max(np.abs(lhs - rhs)) < 1e-7


class TestSufficientCondition:
    def test_zero_for_product_classes(self):
        for pair in [(SAS, KEN), (KEN, FLAT), (SAS, SAS)]:
            pd = pdata(make(pair[0], pair[1], 1.0, 1.0), 4)
            for i in range(4):
                cond = sufficient_condition_tensors(pd, i)
                assert cond["factor1"]["condition_max"] < 1e-12
                assert cond["factor2"]["condition_max"] < 1e-12
                assert cond["factor1"]["commutator_max"] < 1e-8
                assert cond["factor2"]["commutator_max"] < 1e-8

    def test_bracket_algebra_orthonormal(self):
        # 2[g(e1,U) phi e1 - g(e1, phi U) e1] at U = e1 equals 2 phi e1
        g0 = np.eye(2)
        phi = np.array([[0.0, -1.0], [1.0, 0.0]])
        e1 = np.array([1.0, 0.0])
        out = commutator_condition_bracket(g0, phi, np.array([e1]), e1)
        assert out == pytest.approx(2.0 * (phi @ e1))


class TestHarmonicityReport:
    def test_kenmotsu_kenmotsu_row(self):
        P = make(KEN, KEN, 1.0, 1.0)
        rep = harmonicity_report(JET, P, sample_points(P.chart, 20, 7), 1e-6)
        assert rep.verdict == "harmonic"
        assert rep.details["deltaJ_matched"] == ["koszul"]

    def test_cosymplectic_row_all_residuals_tiny(self):
        P = make(FLAT, FLAT, 0.5, -1.0)
        rep = harmonicity_report(JET, P, sample_points(P.chart, 20, 7), 1e-6)
        assert rep.verdict == "harmonic"
        for fam in rep.details["families"].values():
            assert fam["max_residual"] < 1e-10

    def test_broken_j_not_harmonic(self):
        P = make(SAS, KEN, 1.0, 2.0, broken_j=True)
        rep = harmonicity_report(JET, P, sample_points(P.chart, 15, 7), 1e-6)
        assert rep.verdict != "harmonic"

    def test_frame_mixing_invariance(self):
        P = make(SAS, KEN, 1.0, 1.0)
        pd = pdata(P, 5)
        for i in range(5):
            d0, P0 = delta_and_P_with_frame(pd, i, pd.frame(i))
            d1, P1 = delta_and_P_with_frame(pd, i, mixed_frame(pd, i, seed=13))
            assert np.max(np.abs(d0 - d1)) < 1e-7
            assert np.max(np.abs(P0 - P1)) < 1e-7


class TestEnergy:
    def test_flat_flat_zero_everywhere(self):
        P = make(FLAT, FLAT, 0.0, 1.0)
        rep = energy_report(JET, P, sample_points(P.chart, 10, 7), 1e-6)
        assert rep.details["density_max"] < 1e-12

    def test_heisenberg_flat_positive_constant_along_reeb(self):
        P = make(SAS, FLAT, 0.0, 1.0)
        pd = pdata(P, 6)
        base = dirichlet_energy_density(pd, 0)
        assert base > 1e-3
        # shift along both Reeb coordinates (z1 at index 2, z2 at index 5)
        p = pd.points[0].copy()
        for idx in (2, 5):
            q = p.copy()
            q[idx] += 0.3
            pd2 = ProductData(JET, P, q)
            assert dirichlet_energy_density(pd2, 0) == pytest.approx(base, abs=1e-9)

    def test_box_doubling_quadruples_estimate(self):
        P = make(SAS, FLAT, 0.0, 1.0)
        pts = sample_points(P.chart, 40, 7)
        rep1 = energy_report(JET, P, pts, 1e-6)
        # double the box in two coordinates the density does not depend on
        import dataclasses
        box = list(P.chart.box)
        for idx in (2, 5):
            lo, hi = box[idx]
            box[idx] = (2 * lo, 2 * hi)
        big_chart = geom.ChartDomain(P.chart.dim, P.chart.names, tuple(box))
        P2 = dataclasses.replace(P, chart=big_chart)
        rep2 = energy_report(JET, P2, sample_points(big_chart, 40, 7), 1e-6)
        ratio = (rep2.details["box_quadrature_estimate"]
                 / rep1.details["box_quadrature_estimate"])
        assert ratio == pytest.approx(4.0, rel=1e-6)


class TestAstheno:
    def test_m2_short_circuit(self):
        P = make(FLAT, FLAT, 0.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 3, 7), 1e-6,
                               m_override=2, check_integrable=False)
        assert rep.verdict == "pass"
        assert rep.max_residual == 0.0

    def test_cosymplectic_pair(self):
        P = make(FLAT, FLAT, 0.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 6, 7), 1e-6)
        assert rep.verdict == "pass"
        assert rep.max_residual < 1e-12

    def test_sasakian_cosymplectic(self):
        P = make(SAS, FLAT, 1.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 6, 7), 1e-6)
        assert rep.verdict == "pass"

    def test_sasakian_sasakian_reeb_orthogonal_structure(self):
        P = make(SAS, SAS, 0.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 6, 7), 1e-6)
        assert rep.verdict == "pass"

    def test_sasakian_sasakian_generic_ab_not_astheno(self):
        P = make(SAS, SAS, 1.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 6, 7), 1e-6)
        assert rep.verdict == "fail"
        assert rep.max_residual > 0.1

    def test_broken_j_raises(self):
        P = make(SAS, FLAT, 1.0, 1.0, broken_j=True)
        with pytest.raises(NotIntegrable):
            astheno_residual(JET, P, sample_points(P.chart, 4, 7), 1e-6)

    def test_ddc_scalar_j_invariant(self):
        # f = x1 * exp(x2): dd^c f is a (1,1)-form, so J-pullback fixes it
        P = make(SAS, KEN, 1.0, 2.0)
        f = parse("x1*exp(y1)", P.chart.names)
        pts = sample_points(P.chart, 5, 7)
        Jv, _, _ = geom.eval_endo(JET, P.J, pts)
        out = harmonic.ddc_scalar(JET, P, f, pts)
        for i in range(5):
            w = geom.KFormValue(P.dim, 2, out[i])
            pulled = geom.endo_pullback(Jv[i], w)
            assert pulled.comps == pytest.approx(w.comps, abs=1e-7)


class TestTable1:
    def test_all_nine_rows_harmonic(self):
        rep = table1_suite(JET, 1e-6, samples=12, seed=7)
        rows = rep.details["table1_rows"]
        assert len(rows) == 9
        assert all(r["harmonicity"] == "Yes" for r in rows)
        assert rep.verdict == "pass"
        # row order and the type constants mirror the nine class pairs
        assert rows[0]["m1"] == "alpha-Sasakian" and rows[0]["a1"] == 1
        assert rows[5]["m1"] == "beta-Kenmotsu" and rows[5]["m2"] == "Cosymplectic"
        assert rows[8]["m1"] == rows[8]["m2"] == "Cosymplectic"
