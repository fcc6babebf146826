from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli, contact, geom, riemann
from tsgeom.expr import JET, Evaluator, parse
from tsgeom.contact import (
    NotASectionOfD, UnknownModel, builtin_factor, phi_curvature_commutation_residual,
    d_span_fields, estimate_alpha_beta, fundamental_form, normality_residual,
    tamper_phi_scale, transverse_curvature_report, transverse_derivative,
    transverse_properties_report, validate_axioms, verify_trans_sasakian,
)
from tsgeom.geom import coordinate_field, sample_points, vector_field
from tsgeom.report import CheckReport, ResidualTracker


@pytest.fixture(scope="module")
def factors():
    return {name: builtin_factor(name) for name in contact.BUILTIN_SPECS}


def pts(F, n=30, seed=7):
    return sample_points(F.chart, n, seed)


class TestBuiltins:
    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            builtin_factor("nope")

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_axioms_pass(self, factors, name):
        F = factors[name]
        rep = validate_axioms(JET, F.structure, pts(F, 100), 1e-8)
        assert rep.verdict == "pass", rep.details

    def test_corrupted_phi_fails_square_axiom(self, factors):
        F = tamper_phi_scale(factors["cosymplectic_flat"], 1.1)
        rep = validate_axioms(JET, F.structure, pts(F, 20), 1e-8)
        assert rep.verdict == "fail"
        fam = rep.details["families"]["phi^2 + Id - eta(x)xi"]
        assert fam["max_residual"] == pytest.approx(0.21, abs=1e-12)

    def test_heisenberg_calibration(self, factors):
        # the scaling constants are frozen from this oracle: (alpha, beta) = (1, 0)
        F = factors["sasakian_heisenberg"]
        est = estimate_alpha_beta(JET, F.structure, pts(F, 50))
        assert est.alpha == pytest.approx(1.0, abs=1e-7)
        assert est.beta == pytest.approx(0.0, abs=1e-7)
        assert est.residual < 1e-7

    def test_flat_estimate(self, factors):
        F = factors["cosymplectic_flat"]
        est = estimate_alpha_beta(JET, F.structure, pts(F, 20))
        assert abs(est.alpha) < 1e-10 and abs(est.beta) < 1e-10
        assert est.residual < 1e-10

    def test_kenmotsu_estimate(self, factors):
        F = factors["kenmotsu_warped"]
        est = estimate_alpha_beta(JET, F.structure, pts(F, 30))
        assert est.alpha == pytest.approx(0.0, abs=1e-7)
        assert est.beta == pytest.approx(1.0, abs=1e-7)
        assert est.beta_divergence == pytest.approx(1.0, abs=1e-7)


class TestFundamentalForm:
    def test_flat_value(self, factors):
        F = factors["cosymplectic_flat"]
        X = coordinate_field(F.chart, 0)
        Y = coordinate_field(F.chart, 1)
        # phi(dy) = -dx so Phi(dx, dy) = g(dx, -dx) = -1
        assert fundamental_form(JET, F.structure, X, Y, [0.1, 0.2, 0.3]) == \
            pytest.approx(-1.0)

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_reeb_contraction_vanishes(self, factors, name):
        F = factors[name]
        for p in pts(F, 10):
            for j in range(F.chart.dim):
                v = fundamental_form(JET, F.structure, F.structure.xi,
                                     coordinate_field(F.chart, j), p)
                assert abs(v) < 1e-12

    def test_antisymmetry_diagonal(self, factors):
        F = factors["sasakian_heisenberg"]
        X = coordinate_field(F.chart, 1)
        assert fundamental_form(JET, F.structure, X, X, [0.4, -0.2, 0.1]) == \
            pytest.approx(0.0, abs=1e-12)


class TestNormality:
    def test_flat_constant_args(self, factors):
        F = factors["cosymplectic_flat"]
        X = coordinate_field(F.chart, 0)
        Y = coordinate_field(F.chart, 1)
        out = normality_residual(JET, F.structure, X, Y, [0.3, 0.7, -0.2])
        assert out == pytest.approx(np.zeros(3), abs=1e-12)

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_builtin_models_normal(self, factors, name):
        F = factors[name]
        fields = d_span_fields(F.structure) + [F.structure.xi]
        for p in pts(F, 15):
            for X in fields:
                for Y in fields:
                    r = normality_residual(JET, F.structure, X, Y, p)
                    assert np.max(np.abs(r)) < 1e-7

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_reeb_phi_bracket_commutation(self, factors, name):
        # phi [xi, X] = [xi, phi X] for normal structures
        F = factors[name]
        S = F.structure
        for p in pts(F, 15):
            sd = contact.StructureData(JET, S, p)
            for j in range(F.chart.dim):
                X = coordinate_field(F.chart, j)
                phiX = geom.endo_apply_field(S.phi, X)
                lhs = sd.phi0[0] @ geom.lie_bracket(JET, S.xi, X, sd.points)[0]
                rhs = geom.lie_bracket(JET, S.xi, phiX, sd.points)[0]
                assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestCovariantPhiCharacterizations:
    def test_flat_cosymplectic_phi_parallel(self, factors):
        F = factors["cosymplectic_flat"]
        from tsgeom.riemann import covariant_derivative_endo
        out = covariant_derivative_endo(JET, F.structure.g, F.structure.phi,
                                        coordinate_field(F.chart, 0),
                                        [0.2, -0.1, 0.4])
        assert out == pytest.approx(np.zeros((3, 3)), abs=1e-12)

    def test_heisenberg_sasakian_characterization(self, factors):
        # (nabla_{e1} phi) e1 = g(e1, e1) xi - eta(e1) e1 = xi
        F = factors["sasakian_heisenberg"]
        S = F.structure
        from tsgeom.riemann import covariant_derivative_endo
        p = np.array([0.3, -0.6, 0.1])
        sd = contact.StructureData(JET, S, p)
        e1 = geom.endo_apply_field(S.phi, coordinate_field(F.chart, 1))
        ev1, _, _ = geom.eval_vector(JET, e1, sd.points)
        nphi = covariant_derivative_endo(JET, S.g, S.phi, e1, p)
        got = nphi @ ev1[0]
        want = float(ev1[0] @ sd.md.g0[0] @ ev1[0]) * sd.xi0[0]
        assert got == pytest.approx(want, abs=1e-9)


class TestTransSasakianIdentities:
    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_builtins_pass(self, factors, name):
        F = factors[name]
        rep = verify_trans_sasakian(JET, F, pts(F, 100), 1e-7)
        assert rep.verdict == "pass", rep.details

    def test_wrong_beta_fails(self, factors):
        F = factors["kenmotsu_warped"]
        import tsgeom.expr as E
        bad = contact.TransSasakianFactor(F.structure, F.alpha, E.const(2.0),
                                          "kenmotsu")
        rep = verify_trans_sasakian(JET, bad, pts(F, 20), 1e-7)
        assert rep.verdict == "fail"
        fam = rep.details["families"]["d(Phi) - 2*beta*eta^Phi"]
        # d(Phi) = 2 eta^Phi, so the residual equals |2 eta^Phi - 4 eta^Phi|
        goodfam = verify_trans_sasakian(JET, F, pts(F, 20), 1e-7)
        assert fam["max_residual"] > 0.1


class TestTransverse:
    def test_flat_constant_section(self, factors):
        F = factors["cosymplectic_flat"]
        X = coordinate_field(F.chart, 0)
        U = coordinate_field(F.chart, 1)  # in D: eta = dz
        out = transverse_derivative(JET, F, X, U, [0.2, 0.6, -0.3])
        assert out.vector == pytest.approx(np.zeros(3), abs=1e-12)

    def test_heisenberg_reeb_direction(self, factors):
        F = factors["sasakian_heisenberg"]
        S = F.structure
        e1 = geom.endo_apply_field(S.phi, coordinate_field(F.chart, 1))
        # [xi, e1] = 0 since e1 components are z-independent
        out = transverse_derivative(JET, F, S.xi, e1, [0.4, 0.3, -0.5])
        assert out.vector == pytest.approx(np.zeros(3), abs=1e-10)

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_result_in_d(self, factors, name):
        F = factors[name]
        S = F.structure
        dspan = d_span_fields(S)
        for p in pts(F, 10):
            sd = contact.StructureData(JET, S, p)
            for X in [coordinate_field(F.chart, m) for m in range(3)]:
                for U in dspan:
                    out = transverse_derivative(JET, F, X, U, p)
                    assert abs(float(sd.eta0[0] @ out.vector)) < 1e-9

    def test_not_a_section(self, factors):
        F = factors["cosymplectic_flat"]
        X = coordinate_field(F.chart, 0)
        with pytest.raises(NotASectionOfD):
            transverse_derivative(JET, F, X, F.structure.xi, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_properties_report(self, factors, name):
        F = factors[name]
        rep = transverse_properties_report(JET, F, pts(F, 25), 1e-7)
        assert rep.verdict == "pass", rep.details

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_curvature_report(self, factors, name):
        F = factors[name]
        rep = transverse_curvature_report(JET, F, pts(F, 15), 1e-6)
        assert rep.verdict == "pass", rep.details
        # built-ins have alpha*beta = 0, so printed and generic Reeb curvature
        # both vanish: no numeric divergence manifests
        cmpd = rep.details["reeb_curvature_comparison"]
        assert cmpd["printed_vs_generic_max"] < 1e-8

    def test_kenmotsu_transverse_flat(self, factors):
        # the warped Kenmotsu model is hyperbolic; its transverse geometry is flat
        F = factors["kenmotsu_warped"]
        S = F.structure
        dspan = [f for f in d_span_fields(S)]
        for p in pts(F, 5):
            U, V, W = dspan[1], dspan[2], dspan[1]
            rt = contact.transverse_curvature(JET, F, U, V, W, p)
            assert np.max(np.abs(rt)) < 1e-8


class TestPhiCurvatureCommutation:
    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_zero_product_classes(self, factors, name):
        F = factors[name]
        S = F.structure
        dspan = d_span_fields(S)
        for p in pts(F, 20):
            for U in dspan[1:]:
                for W in dspan[1:]:
                    r = phi_curvature_commutation_residual(JET, F, U, W, p)
                    assert np.max(np.abs(r)) < 1e-6

    def test_right_side_diagonal_algebra(self, factors):
        # for U = W the right side reduces to 2 alpha beta g(U,U) phi U
        F = factors["sasakian_heisenberg"]
        S = F.structure
        p = np.array([0.1, -0.4, 0.3])
        sd = contact.StructureData(JET, S, p)
        U = d_span_fields(S)[1]
        uv, _, _ = geom.eval_vector(JET, U, sd.points)
        g0, phi = sd.md.g0[0], sd.phi0[0]
        gUU = float(uv[0] @ g0 @ uv[0])
        gUphiU = float(uv[0] @ g0 @ (phi @ uv[0]))
        assert gUphiU == pytest.approx(0.0, abs=1e-12)

    def test_requires_d_sections(self, factors):
        F = factors["cosymplectic_flat"]
        with pytest.raises(NotASectionOfD):
            phi_curvature_commutation_residual(JET, F, F.structure.xi,
                                  coordinate_field(F.chart, 0), [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Per-point oracle: the contact reports as one loop over the points, with a
# one-point TransversePoint per point. The batched reports must reproduce
# their verdicts, samples and worst points, and their residuals to roundoff.
# ---------------------------------------------------------------------------

def oracle_validate_axioms(ev, S, points, tol):
    sd = contact.StructureData(ev, S, points)
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
        t_sq.update_many([phi @ phi + eye - np.outer(xi, eta)], [p])
        t_comp.update_many([phi.T @ g0 @ phi - g0 + np.outer(eta, eta)], [p])
        t_phixi.update_many([phi @ xi], [p])
        t_etaphi.update_many([eta @ phi], [p])
    return CheckReport.from_trackers(
        f"axioms[{S.name}]", tol, [t_unit, t_sq, t_comp, t_phixi, t_etaphi])


def oracle_estimate_alpha_beta(ev, S, points):
    sd = contact.StructureData(ev, S, points)
    d = S.chart.dim
    rows = []
    rhs = []
    trace_sum = 0.0
    npts = sd.points.shape[0]
    for i in range(npts):
        G0 = sd.md.gamma0[i]
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
        raise contact.IllConditionedFit(
            f"design matrix is rank deficient (singular values {sv})")
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ coef - b)))
    beta_div = trace_sum / (npts * 2 * S.n)
    return contact.AlphaBetaEstimate(float(coef[0]), float(coef[1]), resid,
                                     float(beta_div))


def oracle_verify_trans_sasakian(ev, F, points, tol):
    S = F.structure
    sd = contact.StructureData(ev, S, points)
    d = S.chart.dim
    phi_field = contact.fundamental_form_field(S)
    eta_field = geom.one_form_as_kform(S.eta)
    t_deta = ResidualTracker("d(eta) - 2*alpha*Phi")
    t_dphi = ResidualTracker("d(Phi) - 2*beta*eta^Phi")
    t_nphi = ResidualTracker("nabla phi identity")
    t_neta = ResidualTracker("nabla eta identity")
    t_reeb = ResidualTracker("eta([xi, X])")
    t_xixi = ResidualTracker("nabla_xi xi")
    brackets = [geom.lie_bracket(ev, S.xi, coordinate_field(S.chart, j),
                                 sd.points) for j in range(d)]
    npts = sd.points.shape[0]
    av = np.broadcast_to(np.asarray(ev.value(F.alpha, sd.points), float), (npts,))
    bv = np.broadcast_to(np.asarray(ev.value(F.beta, sd.points), float), (npts,))
    phiv, _, _ = geom.eval_form(ev, phi_field, sd.points)
    etav, _, _ = geom.eval_form(ev, eta_field, sd.points)
    C0, _ = riemann.nabla_endo_all(sd.md, sd.phi0, sd.phi1, sd.phi2)
    for i in range(npts):
        p = sd.points[i]
        g0 = sd.md.g0[i]
        phi, xi, eta = sd.phi0[i], sd.xi0[i], sd.eta0[i]
        alpha, beta = float(av[i]), float(bv[i])
        deta = geom.exterior_derivative(ev, eta_field, p)
        t_deta.update_many([deta.comps - 2.0 * alpha * phiv[i]], [p])
        dphi = geom.exterior_derivative(ev, phi_field, p)
        etaphi = geom.wedge_values(
            geom.KFormValue(d, 1, etav[i]), geom.KFormValue(d, 2, phiv[i]))
        t_dphi.update_many([dphi.comps - 2.0 * beta * etaphi.comps], [p])
        for m in range(d):
            npm = C0[i][:, :, m]
            for j in range(d):
                closed = (alpha * (g0[m, j] * xi - eta[j] * np.eye(d)[:, m])
                          + beta * (float((phi[:, m]) @ g0[:, j]) * xi
                                    - eta[j] * phi[:, m]))
                t_nphi.update_many([npm[:, j] - closed], [p])
        G0 = sd.md.gamma0[i]
        for m in range(d):
            for j in range(d):
                lhs = sd.eta1[i][j, m] - float(sd.eta0[i] @ G0[:, m, j])
                rhs = (alpha * float(g0[m] @ phi[:, j])
                       + beta * float(phi[:, m] @ g0 @ phi[:, j]))
                t_neta.update(lhs - rhs, p)
        for j in range(d):
            t_reeb.update(float(eta @ brackets[j][i]), p)
        t_xixi.update_many(
            [riemann.cov_vector_at(sd.md, i, xi, xi, sd.xi1[i])], [p])
    return CheckReport.from_trackers(
        f"trans_sasakian[{S.name}]", tol,
        [t_deta, t_dphi, t_nphi, t_neta, t_reeb, t_xixi])


class TransversePoint:
    """Jets shared by the transverse computations at a single point."""

    def __init__(self, ev, F, p):
        self.S = F.structure
        self.sd = contact.StructureData(ev, self.S, p)
        self.ev = ev
        self.d = self.S.chart.dim
        self.eta0, self.eta1 = self.sd.eta0[0], self.sd.eta1[0]
        self.xi0, self.xi1, self.xi2 = (self.sd.xi0[0], self.sd.xi1[0],
                                        self.sd.xi2[0])
        self.G0, self.G1 = self.sd.md.gamma0[0], self.sd.md.gamma1[0]
        self.P0 = np.eye(self.d) - np.outer(self.xi0, self.eta0)
        self.P1 = (-np.einsum("kn,l->kln", self.xi1, self.eta0)
                   - np.einsum("k,ln->kln", self.xi0, self.eta1))
        self._jets = {}

    def field_jets(self, X):
        if id(X) not in self._jets:
            v, g, h = geom.eval_vector(self.ev, X, self.sd.points)
            self._jets[id(X)] = (v[0], g[0], h[0])
        return self._jets[id(X)]

    def nabla_T_jet(self, X, U):
        X0, X1, _ = self.field_jets(X)
        U0, U1, U2 = self.field_jets(U)
        q0 = float(self.eta0 @ X0)
        q1 = self.eta1.T @ X0 + X1.T @ self.eta0
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
        q = float(self.eta0 @ Xval)
        xd = Xval - q * self.xi0
        brT = self.xi0 @ T1.T - T0 @ self.xi1.T
        cov = T1 @ xd + np.einsum("lij,i,j->l", self.G0, xd, T0)
        return q * brT + self.P0 @ cov

    def nabla_T_value(self, Xval, U):
        U0, U1, _ = self.field_jets(U)
        return self.nabla_T_of_numeric(Xval, U0, U1)

    def curvature(self, U, V, W):
        U0, U1, _ = self.field_jets(U)
        V0, V1, _ = self.field_jets(V)
        TV0, TV1 = self.nabla_T_jet(V, W)
        TU0, TU1 = self.nabla_T_jet(U, W)
        t1 = self.nabla_T_of_numeric(U0, TV0, TV1)
        t2 = self.nabla_T_of_numeric(V0, TU0, TU1)
        br = U0 @ V1.T - V0 @ U1.T
        return t1 - t2 - self.nabla_T_value(br, W)


def oracle_transverse_properties_report(ev, F, points, tol):
    S = F.structure
    dspan = d_span_fields(S)
    t_phi = ResidualTracker("nabla^T (phi|_D) = 0")
    t_g = ResidualTracker("nabla^T (g|_D) = 0")
    t_tor = ResidualTracker("nabla^T_U V - nabla^T_V U - [U,V]^D")
    t_e4 = ResidualTracker("nabla_U V xi-coefficient split")
    t_e5 = ResidualTracker("[U,V] xi-coefficient split")
    t_reeb_phi = ResidualTracker("nabla^T_xi (phi|_D)")
    t_reeb_g = ResidualTracker("nabla^T_xi (g|_D) - 2*beta*g(phi.,phi.)")
    phiU = {id(U): geom.endo_apply_field(S.phi, U) for U in dspan}
    gUV = {(iu, iv): geom.metric_pair_field(S.g, U, V)
           for iu, U in enumerate(dspan) for iv, V in enumerate(dspan)}
    for p in np.asarray(points, dtype=float):
        tp = TransversePoint(ev, F, p)
        sd = tp.sd
        g0 = sd.md.g0[0]
        phi, xi, eta = sd.phi0[0], sd.xi0[0], sd.eta0[0]
        av = float(np.asarray(ev.value(F.alpha, sd.points[0])))
        bv = float(np.asarray(ev.value(F.beta, sd.points[0])))
        uvals = [tp.field_jets(U)[0] for U in dspan]
        for X in dspan:
            X0 = tp.field_jets(X)[0]
            for U in dspan:
                a = tp.nabla_T_value(X0, phiU[id(U)])
                t_phi.update_many([a - phi @ tp.nabla_T_value(X0, U)], [p])
            for iu, U in enumerate(dspan):
                for iv, V in enumerate(dspan):
                    if iv < iu:
                        continue
                    lhs = float(ev.jet(gUV[(iu, iv)], sd.points[0]).grad @ X0)
                    rhs = (tp.nabla_T_value(X0, U) @ g0 @ uvals[iv]
                           + uvals[iu] @ g0 @ tp.nabla_T_value(X0, V))
                    t_g.update(lhs - rhs, p)
        for iu, U in enumerate(dspan):
            a = tp.nabla_T_value(xi, phiU[id(U)])
            t_reeb_phi.update_many([a - phi @ tp.nabla_T_value(xi, U)], [p])
            for iv, V in enumerate(dspan):
                if iv < iu:
                    continue
                lhs = float(ev.jet(gUV[(iu, iv)], sd.points[0]).grad @ xi)
                rhs = (tp.nabla_T_value(xi, U) @ g0 @ uvals[iv]
                       + uvals[iu] @ g0 @ tp.nabla_T_value(xi, V))
                t_reeb_g.update(lhs - rhs - 2.0 * bv * float(
                    (phi @ uvals[iu]) @ g0 @ (phi @ uvals[iv])), p)
        for iu, U in enumerate(dspan):
            U0 = uvals[iu]
            for iv, V in enumerate(dspan):
                if iv <= iu:
                    continue
                V0 = uvals[iv]
                br = geom.lie_bracket(ev, U, V, sd.points)[0]
                brD = br - float(eta @ br) * xi
                t_tor.update_many([tp.nabla_T_value(U0, V)
                                   - tp.nabla_T_value(V0, U) - brD], [p])
                vv, vg, _ = geom.eval_vector(ev, V, sd.points)
                nUV = riemann.cov_vector_at(sd.md, 0, U0, vv[0], vg[0])
                phiUV = float(U0 @ g0 @ (phi @ V0))
                coeff = -av * phiUV - bv * float((phi @ U0) @ g0 @ (phi @ V0))
                t_e4.update_many(
                    [nUV - (coeff * xi + tp.nabla_T_value(U0, V))], [p])
                t_e5.update_many([br - (-2.0 * av * phiUV * xi + brD)], [p])
    rep = CheckReport.from_trackers(
        f"transverse_properties[{S.name}]", tol, [t_phi, t_g, t_tor, t_e4, t_e5])
    rep.details["reeb_direction"] = {
        "phi_parallelism_max": t_reeb_phi.max,
        "g_parallelism_vs_2beta_max": t_reeb_g.max,
    }
    return rep


def oracle_transverse_curvature_report(ev, F, points, tol):
    S = F.structure
    dspan = d_span_fields(S)
    t_i = ResidualTracker("projected-bracket lower-argument rule")
    t_ii = ResidualTracker("nabla_[U,V] W split")
    t_iii = ResidualTracker("R vs R^T closed form")
    t_iv = ResidualTracker("R(U,V)xi printed form vs generic")
    gen_norm = ResidualTracker("R(U,V)xi generic norm")
    for p in np.asarray(points, dtype=float):
        tp = TransversePoint(ev, F, p)
        sd = tp.sd
        g0 = sd.md.g0[0]
        phi, xi, eta = sd.phi0[0], sd.xi0[0], sd.eta0[0]
        av = float(np.asarray(ev.value(F.alpha, sd.points[0])))
        bv = float(np.asarray(ev.value(F.beta, sd.points[0])))
        riem = sd.md.riemann()[0]
        for ia in range(len(dspan)):
            for ib in range(ia + 1, len(dspan)):
                U, V = dspan[ia], dspan[ib]
                U0 = tp.field_jets(U)[0]
                V0 = tp.field_jets(V)[0]
                if np.linalg.norm(U0) < 1e-9 or np.linalg.norm(V0) < 1e-9:
                    continue
                br = geom.lie_bracket(ev, U, V, sd.points)[0]
                brD = br - float(eta @ br) * xi
                phiUV = float(U0 @ g0 @ (phi @ V0))
                for W in dspan:
                    W0, W1, _ = tp.field_jets(W)
                    if np.linalg.norm(W0) < 1e-9:
                        continue
                    brxiW = geom.lie_bracket(ev, S.xi, W, sd.points)[0]
                    lhs = tp.nabla_T_value(brD, W)
                    rhs = tp.nabla_T_value(br, W) + 2 * av * phiUV * brxiW
                    t_i.update_many([lhs - rhs], [p])
                    nbrW = riemann.cov_vector_at(sd.md, 0, br, W0, W1)
                    phiW = phi @ W0
                    closed = (2 * av * av * phiUV * phiW
                              - 2 * av * bv * phiUV * W0
                              - av * float(brD @ g0 @ phiW) * xi
                              - bv * float(br @ g0 @ W0) * xi
                              + tp.nabla_T_value(br, W))
                    t_ii.update_many([nbrW - closed], [p])
                    Rgen = np.einsum("lkij,i,j,k->l", riem, U0, V0, W0)
                    phiU, phiV = phi @ U0, phi @ V0
                    phi2U, phi2V = phi @ phiU, phi @ phiV
                    PhiVW = float(V0 @ g0 @ phiW)
                    PhiUW = float(U0 @ g0 @ phiW)
                    gVW = float(V0 @ g0 @ W0)
                    gUW = float(U0 @ g0 @ W0)
                    closed3 = (tp.curvature(U, V, W) + av * av * PhiVW * phiU
                               - 2 * av * av * phiUV * phiW
                               - av * av * PhiUW * phiV
                               + av * bv * PhiVW * phi2U
                               + av * bv * gVW * phiU
                               + bv * bv * gVW * phi2U
                               - av * bv * gUW * phiV
                               - bv * bv * gUW * phi2V
                               + 2 * av * bv * phiUV * W0
                               - av * bv * PhiUW * phi2V)
                    t_iii.update_many([Rgen - closed3], [p])
                Rxi = np.einsum("lkij,i,j,k->l", riem, U0, V0, xi)
                t_iv.update_many([Rxi - bv * float(eta @ br) * xi], [p])
                gen_norm.update_many([Rxi], [p])
    rep = CheckReport.from_trackers(
        f"transverse_curvature[{S.name}]", tol, [t_i, t_ii, t_iii])
    rep.details["reeb_curvature_comparison"] = {
        "printed_vs_generic_max": t_iv.max,
        "generic_max_norm": gen_norm.max,
    }
    return rep


def _kenmotsu_beta2():
    path = (Path(__file__).resolve().parents[1] / "manifests"
            / "custom_kenmotsu_beta2.json")
    return cli.load_manifest(path)["factors"][1]


def _phi_vanishing_on_x0():
    """A factor whose D-span columns phi(d_x) = x d_y and phi(d_y) = -x d_x
    vanish on the plane x = 0 and nowhere else, so the transverse curvature
    samples of a point there are dropped while the other points keep them.
    Not trans-Sasakian; the batched and per-point reports must still agree."""
    names = ("x", "y", "z")
    ch = geom.chart(names)

    def rows(m):
        return [[parse(c, names) for c in row] for row in m]

    S = contact.AlmostContactMetricStructure(
        ch, geom.endo_field(ch, rows([["0", "-x", "0"], ["x", "0", "0"],
                                      ["0", "0", "0"]])),
        vector_field(ch, [parse(c, names) for c in ("0", "0", "1")]),
        geom.one_form_field(ch, [parse(c, names) for c in ("0", "0", "1")]),
        geom.metric_field(ch, rows([["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]])),
        name="phi_vanishing_on_x0")
    return contact.TransSasakianFactor(S, parse("0", names),
                                       parse("0", names), "unverified")


ORACLE_FACTORS = list(contact.BUILTIN_SPECS) + ["kenmotsu_beta2",
                                                "sasakian_heisenberg~phi*1.1",
                                                "phi_vanishing_on_x0"]


def _oracle_factor(name):
    if name == "kenmotsu_beta2":
        return _kenmotsu_beta2()
    if name == "phi_vanishing_on_x0":
        return _phi_vanishing_on_x0()
    if name.endswith("~phi*1.1"):
        return tamper_phi_scale(builtin_factor(name.split("~")[0]), 1.1)
    return builtin_factor(name)


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def assert_same_report(got, want):
    """Equal verdicts, families, samples and worst points; residuals and
    the Reeb details within 1e-12 relative."""
    g, w = got.to_dict(), want.to_dict()
    assert (g["name"], g["verdict"], g["worst_point"]) == (
        w["name"], w["verdict"], w["worst_point"])
    assert _close(g["max_residual"], w["max_residual"])
    assert _close(g["mean_residual"], w["mean_residual"])
    gf, wf = g["details"]["families"], w["details"]["families"]
    assert list(gf) == list(wf)
    for fam in wf:
        assert gf[fam]["samples"] == wf[fam]["samples"], fam
        assert gf[fam]["worst_point"] == wf[fam]["worst_point"], fam
        assert _close(gf[fam]["max_residual"], wf[fam]["max_residual"]), fam
        assert _close(gf[fam]["mean_residual"], wf[fam]["mean_residual"]), fam
    for key in ("reeb_direction", "reeb_curvature_comparison"):
        if key in w["details"]:
            for k, v in w["details"][key].items():
                assert _close(g["details"][key][k], v), (key, k)


@pytest.mark.parametrize("mode", ["jet", "fd"])
@pytest.mark.parametrize("name", ORACLE_FACTORS)
class TestBatchedAgainstPointwiseOracle:
    TOL = 1e-7

    def _inputs(self, name, mode):
        F = _oracle_factor(name)
        p = pts(F, 8, seed=11)
        if name == "phi_vanishing_on_x0":
            p[3, 0] = 0.0  # one point on the plane where phi vanishes
        return F, Evaluator(mode), p

    def test_axioms(self, name, mode):
        F, ev, p = self._inputs(name, mode)
        assert_same_report(validate_axioms(ev, F.structure, p, self.TOL),
                           oracle_validate_axioms(ev, F.structure, p, self.TOL))

    def test_trans_sasakian(self, name, mode):
        F, ev, p = self._inputs(name, mode)
        assert_same_report(verify_trans_sasakian(ev, F, p, self.TOL),
                           oracle_verify_trans_sasakian(ev, F, p, self.TOL))

    def test_transverse_properties(self, name, mode):
        F, ev, p = self._inputs(name, mode)
        assert_same_report(
            transverse_properties_report(ev, F, p, self.TOL),
            oracle_transverse_properties_report(ev, F, p, self.TOL))

    def test_transverse_curvature(self, name, mode):
        F, ev, p = self._inputs(name, mode)
        assert_same_report(
            transverse_curvature_report(ev, F, p, self.TOL),
            oracle_transverse_curvature_report(ev, F, p, self.TOL))

    def test_estimate_alpha_beta(self, name, mode):
        F, ev, p = self._inputs(name, mode)
        try:
            want = oracle_estimate_alpha_beta(ev, F.structure, p)
        except contact.IllConditionedFit:
            with pytest.raises(contact.IllConditionedFit):
                estimate_alpha_beta(ev, F.structure, p)
            return
        got = estimate_alpha_beta(ev, F.structure, p)
        for k in ("alpha", "beta", "residual", "beta_divergence"):
            assert _close(getattr(got, k), getattr(want, k)), k


@pytest.mark.parametrize("check", [
    lambda F, p: validate_axioms(JET, F.structure, p, 1e-7),
    lambda F, p: verify_trans_sasakian(JET, F, p, 1e-7),
    lambda F, p: transverse_properties_report(JET, F, p, 1e-7),
    lambda F, p: transverse_curvature_report(JET, F, p, 1e-7),
], ids=["axioms", "trans_sasakian", "transverse_properties",
        "transverse_curvature"])
def test_one_metric_build_per_check(monkeypatch, factors, check):
    builds = []
    init = riemann.MetricData.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(riemann.MetricData, "__init__", counted)
    F = factors["sasakian_heisenberg"]
    check(F, pts(F, 16))
    assert len(builds) == 1


def test_partial_keep_drops_only_the_point_on_the_plane():
    """Only the pair (phi d_x, phi d_y) is live, and not at the point on
    x = 0: the curvature families keep 2 triples at each other point."""
    F = _phi_vanishing_on_x0()
    p = pts(F, 8, seed=11)
    p[3, 0] = 0.0
    fams = transverse_curvature_report(JET, F, p, 1e-7).details["families"]
    assert {f["samples"] for f in fams.values()} == {2 * 7}


@pytest.mark.parametrize("report", [transverse_properties_report,
                                    transverse_curvature_report])
def test_transverse_reports_walk_no_structure_expression_again(
        monkeypatch, factors, report):
    """The D-span comes from StructureData's phi jets: after StructureData,
    no Evaluator.jet call walks an expression that it has walked."""
    walked, inside = [], []
    jet, init = Evaluator.jet, contact.StructureData.__init__

    def counted_jet(self, e, points, **kwargs):
        walked.append((e, bool(inside)))
        return jet(self, e, points, **kwargs)

    def structure(self, *args, **kwargs):
        inside.append(True)
        try:
            init(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(Evaluator, "jet", counted_jet)
    monkeypatch.setattr(contact.StructureData, "__init__", structure)
    F = factors["sasakian_heisenberg"]
    report(JET, F, pts(F, 16), 1e-7)
    seen = {e for e, ins in walked if ins}
    assert seen
    assert [e for e, ins in walked if not ins and e in seen] == []
