from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli, contact, expr, geom, harmonic, product
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET, parse
from tsgeom.geom import sample_points
from tsgeom.harmonic import (
    NotHermitian, NotIntegrable, astheno_residual, chern_ricci_P, codifferential_J,
    delta_and_P_with_frame, dirichlet_energy_density, energy_report,
    harmonicity_report, mixed_frame, nabla_deltaJ_J, rough_laplacian_J,
    commutator_condition_bracket, table1_suite, sufficient_condition_tensors,
)
from tsgeom.product import DEFAULT_AB_GRID, ProductData, build_product
from tsgeom.report import CheckReport, ResidualTracker, verdict_for

FLAT, SAS, KEN = "cosymplectic_flat", "sasakian_heisenberg", "kenmotsu_warped"


def make(n1, n2, a, b, **kw):
    return build_product(builtin_factor(n1), builtin_factor(n2), a, b, **kw)


def pdata(P, n=10, seed=7):
    return ProductData(JET, P, sample_points(P.chart, n, seed))


class TestCodifferential:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 1.0, 1.0), 5)
        delta, variants = codifferential_J(pd)
        assert delta.shape == (5, pd.P.dim)
        assert np.max(np.abs(delta)) < 1e-12
        for v in variants.values():
            assert np.max(np.abs(v)) < 1e-12

    def test_sasakian_flat_equals_2_xi1(self):
        # n1 = 1, alpha1 = 1, all betas zero: deltaJ = 2 xi1 for any (a, b)
        for ab in [(0.0, 1.0), (1.0, 1.0), (0.5, -1.0)]:
            pd = pdata(make(SAS, FLAT, *ab), 5)
            delta, variants = codifferential_J(pd)
            assert delta == pytest.approx(2.0 * pd.xi1v, abs=1e-9)
            assert variants["reference"] == pytest.approx(delta, abs=1e-9)
            assert variants["koszul"] == pytest.approx(delta, abs=1e-9)

    def test_kenmotsu_kenmotsu_frame_sum(self):
        # a = b = 1: the frame sum gives -2 xi1 + 2 xi2; the transcribed
        # closed form (4 xi2) diverges from it by design of the beta slip
        pd = pdata(make(KEN, KEN, 1.0, 1.0), 6)
        delta, variants = codifferential_J(pd)
        want = -2.0 * pd.xi1v + 2.0 * pd.xi2v
        assert delta == pytest.approx(want, abs=1e-9)
        assert variants["koszul"] == pytest.approx(want, abs=1e-12)
        ref = variants["reference"]
        assert ref == pytest.approx(4.0 * pd.xi2v, abs=1e-12)
        assert np.all(np.max(np.abs(ref - delta), axis=1) > 1.0)

    def test_nabla_deltaJ_J_vanishes(self):
        for pair, ab in [((SAS, FLAT), (1.0, 1.0)), ((KEN, KEN), (1.0, 1.0)),
                         ((SAS, KEN), (-2.0, 3.0))]:
            pd = pdata(make(pair[0], pair[1], *ab), 5)
            ndj = nabla_deltaJ_J(pd)
            assert ndj.shape == (5, pd.P.dim, pd.P.dim)
            assert np.max(np.abs(ndj)) < 1e-8


class TestChernRicciP:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 0.0, 1.0), 4)
        assert np.max(np.abs(chern_ricci_P(pd))) < 1e-12

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
        Pm = chern_ricci_P(pd)
        J0 = pd.Jv
        assert np.max(np.abs(J0 @ Pm - Pm @ J0)) < 1e-8


class TestRoughLaplacian:
    def test_flat_flat_zero(self):
        pd = pdata(make(FLAT, FLAT, 1.0, 1.0), 4)
        assert np.max(np.abs(rough_laplacian_J(pd))) < 1e-12

    @pytest.mark.parametrize("pair,ab", [((SAS, KEN), (1.0, 1.0)),
                                         ((KEN, KEN), (0.5, -1.0)),
                                         ((SAS, SAS), (-2.0, 3.0))])
    def test_laplacian_identity(self, pair, ab):
        # [J, lap J] = 2 (nabla_deltaJ J - [J, P]) for integrable J
        pd = pdata(make(pair[0], pair[1], *ab), 5)
        J0 = pd.Jv
        lap = rough_laplacian_J(pd)
        ndj = nabla_deltaJ_J(pd)
        Pm = chern_ricci_P(pd)
        lhs = J0 @ lap - lap @ J0
        rhs = 2.0 * (ndj - (J0 @ Pm - Pm @ J0))
        assert np.max(np.abs(lhs - rhs)) < 1e-7


class TestSufficientCondition:
    def test_zero_for_product_classes(self):
        for pair in [(SAS, KEN), (KEN, FLAT), (SAS, SAS)]:
            pd = pdata(make(pair[0], pair[1], 1.0, 1.0), 4)
            cond = sufficient_condition_tensors(pd)
            assert cond["factor1"]["condition_max"].shape == (4,)
            assert np.all(cond["factor1"]["condition_max"] < 1e-12)
            assert np.all(cond["factor2"]["condition_max"] < 1e-12)
            assert np.all(cond["factor1"]["commutator_max"] < 1e-8)
            assert np.all(cond["factor2"]["commutator_max"] < 1e-8)

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
        mixed = mixed_frame(pd, seed=13)
        assert np.max(np.abs(mixed - pd.frames)) > 1e-3  # really mixed
        d0, P0 = delta_and_P_with_frame(pd, pd.frames)
        d1, P1 = delta_and_P_with_frame(pd, mixed)
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
        base = dirichlet_energy_density(pd)[0]
        assert base > 1e-3
        # shift along both Reeb coordinates (z1 at index 2, z2 at index 5)
        p = pd.points[0].copy()
        for idx in (2, 5):
            q = p.copy()
            q[idx] += 0.3
            pd2 = ProductData(JET, P, q)
            assert dirichlet_energy_density(pd2)[0] == pytest.approx(base, abs=1e-9)

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


def _pullback_field_per_term(J, omega):
    """(J* omega)_I = sum_K omega_K det(J[K, I]), taking the sign of each
    permutation anew for every term."""
    from itertools import permutations
    idxs = omega.indices()
    out = []
    for I in idxs:
        total = expr.ZERO
        for s, K in enumerate(idxs):
            if omega.comps[s] == expr.ZERO:
                continue
            det = expr.ZERO
            for perm in permutations(range(omega.degree)):
                sign, _ = geom._perm_sign(perm)
                term = expr.ONE
                for r in range(omega.degree):
                    term = expr.mul(term, J.comps[K[perm[r]]][I[r]])
                det = expr.add(det, expr.neg(term) if sign < 0 else term)
            total = expr.add(total, expr.mul(omega.comps[s], det))
        out.append(total)
    return geom.KFormField(omega.chart, omega.degree, tuple(out))


def _astheno_of_the_pulled_back_power(P, points, tol):
    """The astheno report with J*(Omega^(m-2)) built by the general-degree
    rule from the (2m-4)-form Omega^(m-2): the oracle of J*(Omega^(m-2)) =
    Omega^(m-2), which the check uses without building the pullback."""
    m = P.m_complex
    jg = _pullback_field_per_term(P.J, geom.wedge_power_field(
        harmonic.kahler_form_field(P), m - 2))
    k1 = jg.degree + 1
    Jv, Jg, _ = geom.eval_endo(JET, P.J, points)
    _, grads, hesses = geom.eval_form(JET, jg, points)
    Bv, Bg = geom._d_from_grads_and_hess(P.dim, jg.degree, grads, hesses)
    Cv, Cg = geom.endo_pullback_jet(-Jv, -Jg, k1, Bv, Bg)
    Dv = geom.d_of_jet_form(P.dim, k1, Cv, Cg)
    return CheckReport.from_trackers(
        "astheno", tol, [ResidualTracker.from_points("dd^c", Dv, points)])


# the sasakian_heisenberg pattern on two planes (x1, y1), (x2, y2):
# eta = (dz - y1 dx1 - y2 dx2)/2, xi = 2 d_z,
# g = eta (x) eta + (dx1^2 + dy1^2 + dx2^2 + dy2^2)/4,
# phi d_xi = -d_yi, phi d_yi = d_xi + yi d_z
HEISENBERG5 = {
    "name": "heisenberg5", "dim": 5, "coords": ["x1", "y1", "x2", "y2", "z"],
    "g": [["0.25*y1*y1 + 0.25", "0", "0.25*y1*y2", "0", "-0.25*y1"],
          ["0", "0.25", "0", "0", "0"],
          ["0.25*y1*y2", "0", "0.25*y2*y2 + 0.25", "0", "-0.25*y2"],
          ["0", "0", "0", "0.25", "0"],
          ["-0.25*y1", "0", "-0.25*y2", "0", "0.25"]],
    "phi": [["0", "1", "0", "0", "0"],
            ["-1", "0", "0", "0", "0"],
            ["0", "0", "0", "1", "0"],
            ["0", "0", "-1", "0", "0"],
            ["0", "y1", "0", "y2", "0"]],
    "xi": ["0", "0", "0", "0", "2"],
    "eta": ["-0.5*y1", "0", "-0.5*y2", "0", "0.5"],
    "alpha": "1", "beta": "0"}


def _kenmotsu_beta2():
    path = (Path(__file__).resolve().parents[1] / "manifests"
            / "custom_kenmotsu_beta2.json")
    return cli.load_manifest(path)["factors"]


def _assert_same_astheno(got, want):
    """A report dict against the oracle's report: the same verdict, sample
    count and worst point, and max and mean to 1e-12 relative."""
    fam, want_fam = (got["details"]["families"]["dd^c"],
                     want.details["families"]["dd^c"])
    assert got["verdict"] == want.verdict
    assert fam["samples"] == want_fam["samples"]
    assert fam["worst_point"] == want_fam["worst_point"]
    for key in ("max_residual", "mean_residual"):
        assert abs(fam[key] - want_fam[key]) <= 1e-12 * max(
            1.0, abs(want_fam[key])), key


# a cosymplectic_flat with g = diag(2, 1, 1): phi is constant, so the product
# J is integrable, but phi is not g-orthogonal, so J is not G-Hermitian
STRETCHED_FLAT = {
    "name": "stretched_flat", "dim": 3, "coords": ["x", "y", "z"],
    "g": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    "xi": ["0", "0", "1"], "eta": ["0", "0", "1"]}


def _factor_pairs():
    """The nine class pairs, kenmotsu_beta2 and the 5-dim Heisenberg factor
    times sasakian_heisenberg, by name."""
    pairs = {f"{k1}-{k2}": (contact.factor_for_class(k1),
                            contact.factor_for_class(k2))
             for k1, k2 in harmonic.TABLE1_ROWS}
    pairs["kenmotsu_beta2"] = tuple(_kenmotsu_beta2())
    pairs["heisenberg5-sasakian"] = tuple(cli.resolve_manifest({
        "factors": [{"custom": HEISENBERG5}, {"builtin": SAS}]})["factors"])
    return pairs


def _ddc_scalar_per_point(ev, P, f, pts):
    """d(d^c f) one point at a time from the jets of f and J, with
    rho = -(df) o J and (d rho)_ij = d_i rho_j - d_j rho_i."""
    Jv, Jg, _ = geom.eval_endo(ev, P.J, pts)
    j = ev.jet(f, pts)
    out = []
    for i in range(pts.shape[0]):
        # rho_l = -df_k J^k_l; rho_g[l, n] = d_n rho_l
        rho_g = -(np.einsum("kn,kl->ln", j.hess[i], Jv[i])
                  + np.einsum("k,kln->ln", j.grad[i], Jg[i]))
        out.append([rho_g[jj, ii] - rho_g[ii, jj]
                    for ii, jj in geom.form_indices(P.dim, 2)])
    return np.array(out)


class TestAstheno:
    def test_m2_short_circuit(self):
        P = make(FLAT, FLAT, 0.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 3, 7), 1e-6,
                               m_override=2)
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

    def test_reports_its_family_and_sample_count(self):
        P = make(SAS, SAS, 1.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 4, 7), 1e-6)
        fam = rep.details["families"]["dd^c"]
        assert fam["samples"] == 4
        assert fam["max_residual"] == rep.max_residual
        assert fam["worst_point"] == list(rep.worst_point)
        assert rep.details["m_complex"] == 3

    @pytest.mark.parametrize("pair", ["canonical", "kenmotsu_beta2"])
    def test_matches_the_pullback_of_the_power(self, pair):
        P = (make(SAS, KEN, 1.0, 1.0) if pair == "canonical" else
             build_product(*_kenmotsu_beta2(), 1.0, 2.0))
        points = sample_points(P.chart, 6, 7)
        got = astheno_residual(JET, P, points, 1e-6)
        want = _astheno_of_the_pulled_back_power(P, points, 1e-6)
        _assert_same_astheno(got.to_dict(), want)

    def test_m4_heisenberg_product_matches_the_pullback_of_the_power(self):
        # m = 4: a 5-dim Heisenberg factor times sasakian_heisenberg, run
        # end to end and against J*(Omega^2) built by the general-degree rule
        mf = cli.resolve_manifest({
            "factors": [{"custom": HEISENBERG5}, {"builtin": SAS}],
            "product": {"a": 1.0, "b": 1.0}, "checks": ["astheno"],
            "sampling": {"count": 4, "seed": 7}})
        rep = cli.run(mf)["checks"][0]
        P = build_product(*mf["factors"], 1.0, 1.0)
        assert P.m_complex == 4
        points = sample_points(P.chart, 4, 7)
        want = _astheno_of_the_pulled_back_power(P, points, mf["tol"])
        assert rep["details"]["m_complex"] == 4
        assert rep["verdict"] == "fail"
        _assert_same_astheno(rep, want)

    def test_broken_j_raises(self):
        P = make(SAS, FLAT, 1.0, 1.0, broken_j=True)
        with pytest.raises(NotIntegrable):
            astheno_residual(JET, P, sample_points(P.chart, 4, 7), 1e-6)

    def test_non_hermitian_j_raises(self):
        F1 = cli.resolve_manifest(
            {"factors": [{"custom": STRETCHED_FLAT}, {"builtin": FLAT}]}
        )["factors"][0]
        P = build_product(F1, builtin_factor(FLAT), 0.0, 1.0)
        pts = sample_points(P.chart, 4, 7)
        with pytest.raises(NotHermitian, match="residual 1.000e"):
            astheno_residual(JET, P, pts, 1e-6)

    def test_non_hermitian_j_fails_the_check(self):
        # harmonicity's own J^2/Hermitian gate says not-harmonic; astheno
        # must not pass on the same product
        mf = cli.resolve_manifest({
            "factors": [{"custom": STRETCHED_FLAT}, {"builtin": FLAT}],
            "product": {"a": 0.0, "b": 1.0},
            "checks": ["integrability", "harmonicity", "astheno"],
            "sampling": {"count": 6, "seed": 7}})
        integ, harm, asth = cli.run(mf)["checks"]
        assert integ["verdict"] == "pass"
        assert harm["verdict"] == "not-harmonic"
        assert asth["verdict"] == "fail"
        assert asth["details"]["error"].startswith("NotHermitian: ")
        assert (asth["details"]["error_origin"]
                == "tsgeom.harmonic.astheno_residual")

    @pytest.mark.parametrize("pair", list(_factor_pairs()))
    def test_j_fixes_omega(self, pair):
        # the premise of using Omega^(m-2) for J*(Omega^(m-2)):
        # J^T Omega J = Omega on every product the engine builds
        F1, F2 = _factor_pairs()[pair]
        for a, b in DEFAULT_AB_GRID:
            P = build_product(F1, F2, a, b)
            pts = sample_points(P.chart, 16, 7)
            Jv, _, _ = geom.eval_endo(JET, P.J, pts)
            om, _, _ = geom.eval_form(JET, harmonic.kahler_form_field(P), pts)
            W = np.zeros_like(Jv)
            i, j = np.triu_indices(P.dim, 1)
            W[:, i, j], W[:, j, i] = om, -om
            assert np.max(np.abs(Jv.swapaxes(1, 2) @ W @ Jv - W)) <= 1e-14

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_ddc_scalar_matches_the_per_point_loop(self, mode):
        ev = expr.Evaluator(mode, 1e-3)
        P = make(SAS, KEN, 1.0, 2.0)
        f = parse("x1*exp(y1) + t2*sin(z1)", P.chart.names)
        pts = sample_points(P.chart, 32, 7)
        got = harmonic.ddc_scalar(ev, P, f, pts)
        want = _ddc_scalar_per_point(ev, P, f, pts)
        assert got.shape == want.shape == (32, 15)
        assert np.all(np.abs(got - want)
                      <= 1e-15 * np.maximum(1.0, np.abs(want)))
        for i in (0, 17, 31):
            assert np.array_equal(harmonic.ddc_scalar(ev, P, f, pts[i]),
                                  got[i])

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


# ---------------------------------------------------------------------------
# Per-point oracle: the harmonicity, codifferential and energy reports as one
# loop over the points, with a per-point frame, deltaJ, P, rough Laplacian,
# condition tensors and energy density. It reads only the per-point jets of
# ProductData, never its batched frames or the batched helpers.
# ---------------------------------------------------------------------------

def _frame_within_at(g0, candidates, pivot=1e-10):
    frame = []
    for v in candidates:
        w = np.asarray(v, dtype=float).copy()
        for u in frame:
            w -= float(u @ g0 @ w) * u
        norm = np.sqrt(max(float(w @ g0 @ w), 0.0))
        if norm < pivot:
            continue
        frame.append(w / norm)
    return np.array(frame).reshape(len(frame), g0.shape[0])


def _frame_at(pd, i):
    g0 = pd.md.g0[i]
    xi1 = pd.xi1v[i]
    rows = [xi1, pd.Jv[i] @ xi1]
    for emb, phiv in ((pd.P.e1, pd.phi1v), (pd.P.e2, pd.phi2v)):
        rows.extend(_frame_within_at(g0, phiv[i][:, emb.block].T))
    return np.array(rows)


def _vec_norm_at(g0, fr, vec):
    return float(np.max(np.abs(fr @ g0 @ vec)))


def _endo_norm_at(g0, fr, M):
    return float(np.max(np.abs(fr @ g0 @ M @ fr.T)))


def _second_cov_at(md, i, C0, C1, U, V):
    G0 = md.gamma0[i]
    B0 = np.einsum("ijm,m->ij", C0, V)
    B1 = np.einsum("ijmn,m->ijn", C1, V)
    nUB = (np.einsum("ijn,n->ij", B1, U)
           + np.einsum("n,ink,kj->ij", U, G0, B0)
           - np.einsum("ik,n,knj->ij", B0, U, G0))
    W = np.einsum("knj,n,j->k", G0, U, V)
    return nUB - np.einsum("ijm,m->ij", C0, W)


def _oracle_at(pd, i):
    """The per-point residuals of the three reports at point index i."""
    C0, C1 = pd.nabla_J()
    g0, J0, riem = pd.md.g0[i], pd.Jv[i], pd.md.riemann()[i]
    fr = _frame_at(pd, i)
    n1 = 2 * pd.P.n1
    eye = np.eye(pd.P.dim)
    out = {"gate": max(float(np.max(np.abs(J0 @ J0 + eye))),
                       float(np.max(np.abs(J0.T @ g0 @ J0 - g0))),
                       float(np.max(np.abs(fr @ g0 @ fr.T - eye))))}
    delta = sum(np.einsum("ijm,m->ij", C0[i], u) @ u for u in fr)
    a, b, n1c, n2c = pd.P.a, pd.P.b, pd.P.n1, pd.P.n2
    a1, b1 = float(pd.a1[i]), float(pd.b1[i])
    a2, b2 = float(pd.a2[i]), float(pd.b2[i])
    xi1, xi2 = pd.xi1v[i], pd.xi2v[i]
    variants = {
        "reference": (2 * n1c * (a1 * xi1 - (a / b) * b1 * xi1 + (b1 / b) * xi2)
                      + 2 * n2c * (a2 * xi2 + b2 * xi1 + (a / b) * b2 * xi2)),
        "koszul": (2 * n1c * (a1 * xi1 + (b1 / b) * xi2)
                   + 2 * n2c * (a2 * xi2 - (b2 / b) * xi1))}
    for name, val in variants.items():
        out[name] = _vec_norm_at(g0, fr, delta - val)
    ndj = np.einsum("ijm,m->ij", C0[i], delta)
    out["ndj"] = _endo_norm_at(g0, fr, ndj)
    Pm = 0.5 * np.einsum("lkij,ai,aj->lk", riem, fr, fr @ J0.T)
    JP = J0 @ Pm - Pm @ J0
    out["crit"] = _endo_norm_at(g0, fr, JP - ndj)
    lap = np.zeros_like(J0)
    for u in fr:
        lap += _second_cov_at(pd.md, i, C0[i], C1[i], u, u)
    out["p1"] = _endo_norm_at(g0, fr, (J0 @ lap - lap @ J0) - 2.0 * (ndj - JP))
    cond = 0.0
    for blk, phiv, av, bv in ((fr[2:2 + n1], pd.phi1v[i], a1, b1),
                              (fr[2 + n1:], pd.phi2v[i], a2, b2)):
        for U in blk:
            br = commutator_condition_bracket(g0, phiv, blk, U)
            cond = max(cond, float(np.max(np.abs(av * bv * br))))
    out["cond"] = cond
    dens = 0.0
    for u in fr:
        nJ = np.einsum("ijm,m->ij", C0[i], u)
        for v in fr:
            w = nJ @ v
            dens += float(w @ g0 @ w)
    out["density"] = dens
    out["sqrt_det"] = float(np.sqrt(np.linalg.det(g0)))
    return out


def _oracle(pd):
    """{quantity: (p,) array} from the per-point loop."""
    rows = [_oracle_at(pd, i) for i in range(pd.points.shape[0])]
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestBatchedAgainstPointwiseOracle:
    """The batched reports against the per-point oracle, Table 1 products."""

    TOL = 1e-6
    CASES = [(k1, k2, ab) for k1, k2 in harmonic.TABLE1_ROWS
             for ab in product.DEFAULT_AB_GRID]

    @pytest.mark.parametrize("k1,k2,ab", CASES)
    def test_reports_match_oracle(self, k1, k2, ab):
        P = build_product(contact.factor_for_class(k1),
                          contact.factor_for_class(k2), *ab)
        pts = sample_points(P.chart, 24, 7)
        o = _oracle(ProductData(JET, P, pts))
        tol = self.TOL
        fams = {"[J,P] - nabla_deltaJ_J": o["crit"],
                "J^2/Hermitian/frame gate": o["gate"],
                "deltaJ frame sum vs reference": o["reference"],
                "deltaJ frame sum vs koszul": o["koszul"],
                "nabla_deltaJ_J": o["ndj"],
                "[J,lap J] - 2(nabla_deltaJ J - [J,P])": o["p1"],
                "sufficient-condition tensors": o["cond"]}
        rep = harmonicity_report(JET, P, pts, tol)
        crit = max(fams["[J,P] - nabla_deltaJ_J"].max(),
                   fams["J^2/Hermitian/frame gate"].max())
        want = ("harmonic" if crit < tol else
                "not-harmonic" if crit > 100 * tol else "inconclusive")
        assert rep.verdict == want
        assert _close(rep.max_residual, crit)
        assert set(rep.details["families"]) == set(fams)
        for name, vals in fams.items():
            assert _close(rep.details["families"][name]["max_residual"],
                          vals.max()), name
        assert rep.details["deltaJ_matched"] == sorted(
            k for k in ("reference", "koszul") if o[k].max() < tol)

        rep = harmonic.codifferential_report(JET, P, pts, tol)
        assert rep.details["matched"] == sorted(
            k for k in ("reference", "koszul") if o[k].max() < tol)
        for k in ("reference", "koszul"):
            assert _close(rep.details["variants"][k], o[k].max()), k
        assert _close(rep.details["families"]["nabla_deltaJ_J"]
                      ["max_residual"], o["ndj"].max())
        worst = max(min(o["reference"].max(), o["koszul"].max()),
                    o["ndj"].max())
        assert rep.verdict == verdict_for(worst, tol)
        assert _close(rep.max_residual, worst)

        rep = energy_report(JET, P, pts, tol)
        assert rep.verdict == "pass"
        for key, want in (("density_max", o["density"].max()),
                          ("density_min", o["density"].min())):
            assert _close(rep.details[key], want), key
        vol = np.prod([hi - lo for lo, hi in P.chart.box])
        assert _close(rep.details["box_quadrature_estimate"],
                      float(np.mean(o["density"] * o["sqrt_det"]) * vol))


# ---------------------------------------------------------------------------
# The frame sums are one contraction with S = F^T F; the per-frame loops
# they replaced are kept as the oracle.
# ---------------------------------------------------------------------------

def oracle_frame_sum_delta(C0, frames):
    total = 0.0
    for a in range(frames.shape[1]):
        u = frames[:, a]
        total = total + np.einsum("pijm,pm,pj->pi", C0, u, u)
    return total


def oracle_rough_laplacian_J(pd):
    C0, C1 = pd.nabla_J()
    return np.array([sum(_second_cov_at(pd.md, i, C0[i], C1[i], u, u)
                         for u in pd.frames[i])
                     for i in range(pd.points.shape[0])])


def oracle_dirichlet_energy_density(pd):
    C0, _ = pd.nabla_J()
    g0, frames = pd.md.g0, pd.frames
    total = 0.0
    for a in range(frames.shape[1]):
        W = np.einsum("pijm,pm->pij", C0, frames[:, a]) @ frames.swapaxes(1, 2)
        total = total + ((g0 @ W) * W).sum(axis=(1, 2))
    return total


def _all_close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, np.abs(want)))


class TestFrameContractionsAgainstFrameLoops:
    CASES = [(k1, k2, ab) for k1, k2 in harmonic.TABLE1_ROWS
             for ab in product.DEFAULT_AB_GRID]

    @pytest.mark.parametrize("k1,k2,ab", CASES)
    def test_table1_products(self, k1, k2, ab):
        P = build_product(contact.factor_for_class(k1),
                          contact.factor_for_class(k2), *ab)
        pd = ProductData(JET, P, sample_points(P.chart, 8, 7))
        C0, _ = pd.nabla_J()
        _all_close(rough_laplacian_J(pd), oracle_rough_laplacian_J(pd))
        _all_close(dirichlet_energy_density(pd),
                   oracle_dirichlet_energy_density(pd))
        for frames in (pd.frames, mixed_frame(pd, seed=13)):
            delta, _ = delta_and_P_with_frame(pd, frames)
            _all_close(delta, oracle_frame_sum_delta(C0, frames))
