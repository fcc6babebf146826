import numpy as np
import pytest

from tsgeom import geom, riemann
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET, Evaluator, parse
from tsgeom.geom import chart, coordinate_field, endo_field, metric_field, vector_field
from tsgeom.product import build_product
from tsgeom.riemann import (
    DependentPreferredVectors, MetricData, SingularMetric, christoffel,
    covariant_derivative_endo, covariant_derivative_vector, curvature,
    curvature_via_definition, orthonormal_frame,
    second_covariant_derivative_endo,
)

R3 = chart(["x", "y", "z"])
EUCLID = metric_field(R3, [[parse("1" if i == j else "0", R3.names)
                            for j in range(3)] for i in range(3)])

WARPED = chart(["t", "x", "y"], box=[(-0.5, 0.5), (-1, 1), (-1, 1)])
# g = dt^2 + e^{2t}(dx^2 + dy^2)
W_COMPS = [["1", "0", "0"], ["0", "exp(2*t)", "0"], ["0", "0", "exp(2*t)"]]
WG = metric_field(WARPED, [[parse(c, WARPED.names) for c in row] for row in W_COMPS])


def const_vf(chart_, comps):
    return vector_field(chart_, [parse(str(c), chart_.names) for c in comps])


class TestChristoffel:
    def test_flat_all_zero(self):
        out = christoffel(JET, EUCLID, [0.3, -0.2, 0.8])
        assert out == pytest.approx(np.zeros((3, 3, 3)))

    def test_warped_pattern_at_origin(self):
        # hand Koszul: Gamma^x_tx = 1, Gamma^t_xx = -e^{2t} (= -1 at t=0)
        G = christoffel(JET, WG, [0.0, 0.4, -0.6])
        t, x, y = 0, 1, 2
        assert G[x, t, x] == pytest.approx(1.0)
        assert G[x, x, t] == pytest.approx(1.0)
        assert G[t, x, x] == pytest.approx(-1.0)
        assert G[t, y, y] == pytest.approx(-1.0)
        assert G[y, t, y] == pytest.approx(1.0)
        # everything else zero
        mask = np.zeros((3, 3, 3), bool)
        for idx in [(x, t, x), (x, x, t), (t, x, x), (t, y, y), (y, t, y), (y, y, t)]:
            mask[idx] = True
        assert np.max(np.abs(G[~mask])) < 1e-12

    def test_symmetry_exact(self):
        pts = geom.sample_points(WARPED, 20, seed=3)
        md = MetricData(JET, WG, pts)
        assert np.array_equal(md.gamma0, np.swapaxes(md.gamma0, 2, 3))

    def test_singular_metric(self):
        bad = metric_field(R3, [[parse(c, R3.names) for c in row] for row in
                                [["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]])
        with pytest.raises(SingularMetric):
            christoffel(JET, bad, [0.0, 0.0, 0.0])


class TestCovariantDerivatives:
    def test_flat_constant_fields(self):
        X = const_vf(R3, [1, 2, 3])
        Y = const_vf(R3, [0, 1, -1])
        out = covariant_derivative_vector(JET, EUCLID, X, Y, [0.1, 0.2, 0.3])
        assert out == pytest.approx(np.zeros(3))

    def test_kenmotsu_nabla_x_xi(self):
        # xi = d_t; nabla_{d_x} xi = d_x (beta = 1 Kenmotsu pattern)
        X = coordinate_field(WARPED, 1)
        Xi = coordinate_field(WARPED, 0)
        out = covariant_derivative_vector(JET, WG, X, Xi, [0.2, 0.5, -0.1])
        assert out == pytest.approx(np.array([0.0, 1.0, 0.0]))

    def test_identity_endo_parallel(self):
        A = endo_field(WARPED, [[parse("1" if i == j else "0", WARPED.names)
                                 for j in range(3)] for i in range(3)])
        X = coordinate_field(WARPED, 1)
        out = covariant_derivative_endo(JET, WG, A, X, [0.1, 0.3, 0.4])
        assert out == pytest.approx(np.zeros((3, 3)), abs=1e-12)


class TestCurvature:
    def test_flat_zero(self):
        X, Y, Z = (coordinate_field(R3, i) for i in range(3))
        out = curvature(JET, EUCLID, X, Y, Z, [0.3, 0.1, -0.5])
        assert out == pytest.approx(np.zeros(3))

    def test_warped_constant_negative_curvature(self):
        # hyperbolic: R(X,Y)Z = -(g(Y,Z)X - g(X,Z)Y); at t=0, R(dt,dx)dx = -dt
        T = coordinate_field(WARPED, 0)
        X = coordinate_field(WARPED, 1)
        out = curvature(JET, WG, T, X, X, [0.0, 0.7, -0.3])
        assert out == pytest.approx(np.array([-1.0, 0.0, 0.0]), abs=1e-10)

    def test_antisymmetry(self):
        pts = geom.sample_points(WARPED, 30, seed=5)
        md = MetricData(JET, WG, pts)
        riem = md.riemann()
        assert np.max(np.abs(riem + np.swapaxes(riem, 3, 4))) < 1e-9

    def test_tensor_matches_definition(self):
        X = vector_field(WARPED, [parse(c, WARPED.names) for c in ["x", "1", "t"]])
        Y = vector_field(WARPED, [parse(c, WARPED.names) for c in ["0", "t*x", "1"]])
        Z = vector_field(WARPED, [parse(c, WARPED.names) for c in ["1", "y", "x"]])
        for p in geom.sample_points(WARPED, 10, seed=11):
            a = curvature(JET, WG, X, Y, Z, p)
            b = curvature_via_definition(JET, WG, X, Y, Z, p)
            assert np.max(np.abs(a - b)) < 1e-7

    def test_curvature_values_matches_the_einsum(self):
        rng = np.random.default_rng(3)
        riem = rng.normal(size=(32, 6, 6, 6, 6))
        md = type("Stub", (), {"riemann": lambda self: riem})()
        X, Y, Z = rng.normal(size=(3, 32, 6))
        want = np.einsum("plkij,pi,pj,pk->pl", riem, X, Y, Z)
        got = riemann.curvature_values(md, ..., X, Y, Z)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, np.abs(want)))
        one = riemann.curvature_values(md, 5, X[5], Y[5], Z[5])
        assert np.all(np.abs(one - want[5]) <= 1e-12 * np.maximum(1, np.abs(want[5])))

    def test_column_stacks_equal_one_call_per_column(self):
        pts = geom.sample_points(WARPED, 7, seed=4)
        md = MetricData(JET, WG, pts)
        rng = np.random.default_rng(9)
        X, Y, Z = rng.normal(size=(3, 7, 3, 5))
        Yg = rng.normal(size=(7, 3, 3, 5))
        for fn, args in ((riemann.curvature_values, (X, Y, Z)),
                         (riemann.cov_vector_at, (X, Y, Yg))):
            got = fn(md, ..., *args)
            assert got.shape == (7, 3, 5)
            for n in range(5):
                want = fn(md, ..., *(a[..., n] for a in args))
                assert np.all(np.abs(got[..., n] - want) <= 1e-14), fn
            one = fn(md, 2, *(a[2] for a in args))
            assert np.all(np.abs(one - got[2]) <= 1e-14), fn

    def test_cov_vector_jet_over_points_equals_single_calls(self):
        pts = geom.sample_points(WARPED, 6, seed=2)
        md = MetricData(JET, WG, pts)
        Y = vector_field(WARPED, [parse(c, WARPED.names) for c in ["x*y", "t", "exp(t)"]])
        X = vector_field(WARPED, [parse(c, WARPED.names) for c in ["1", "y*y", "t*x"]])
        xv, xg, _ = geom.eval_vector(JET, X, pts)
        yv, yg, yh = geom.eval_vector(JET, Y, pts)
        W, dW = riemann.cov_vector_jet(md, ..., xv, xg, yv, yg, yh)
        for i in range(len(pts)):
            w, dw = riemann.cov_vector_jet(md, i, xv[i], xg[i], yv[i], yg[i], yh[i])
            assert np.allclose(W[i], w, rtol=1e-13, atol=1e-13)
            assert np.allclose(dW[i], dw, rtol=1e-13, atol=1e-13)

    def test_first_bianchi(self):
        pts = geom.sample_points(WARPED, 100, seed=13)
        md = MetricData(JET, WG, pts)
        riem = md.riemann()
        # cyclic sum over the (k, i, j) slots
        cyc = (np.einsum("plkij->plkij", riem)
               + np.einsum("plijk->plkij", riem)
               + np.einsum("pljki->plkij", riem))
        assert np.max(np.abs(cyc)) < 1e-7

    def test_metric_compatibility_and_torsion(self):
        # X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z); torsion-free
        X = vector_field(WARPED, [parse(c, WARPED.names) for c in ["x", "1", "t"]])
        Y = vector_field(WARPED, [parse(c, WARPED.names) for c in ["1", "0", "x*y"]])
        Z = vector_field(WARPED, [parse(c, WARPED.names) for c in ["0", "t", "1"]])
        gYZ = geom.metric_pair_field(WG, Y, Z)
        for p in geom.sample_points(WARPED, 100, seed=17):
            md = MetricData(JET, WG, p)
            xv, xg, _ = geom.eval_vector(JET, X, md.points)
            j = JET.jet(gYZ, md.points)
            lhs = float(j.grad[0] @ xv[0])
            nXY = covariant_derivative_vector(JET, WG, X, Y, p)
            nXZ = covariant_derivative_vector(JET, WG, X, Z, p)
            yv, _, _ = geom.eval_vector(JET, Y, md.points)
            zv, _, _ = geom.eval_vector(JET, Z, md.points)
            rhs = float(nXY @ md.g0[0] @ zv[0] + yv[0] @ md.g0[0] @ nXZ)
            assert abs(lhs - rhs) < 1e-8
            nYX = covariant_derivative_vector(JET, WG, Y, X, p)
            br = geom.lie_bracket(JET, X, Y, p)
            tor = covariant_derivative_vector(JET, WG, X, Y, p) - nYX - br
            assert np.max(np.abs(tor)) < 1e-8

    def test_jet_vs_fd_mode(self):
        fd = Evaluator("fd", 1e-3)
        X = coordinate_field(WARPED, 0)
        Y = coordinate_field(WARPED, 1)
        for p in geom.sample_points(WARPED, 5, seed=19):
            a = curvature(JET, WG, X, Y, Y, p)
            b = curvature(fd, WG, X, Y, Y, p)
            assert np.max(np.abs(a - b)) < 1e-5


class TestSecondCovariantDerivative:
    def test_flat_constant_endo(self):
        A = endo_field(R3, [[parse(str(float(i == j)), R3.names) for j in range(3)]
                            for i in range(3)])
        U = coordinate_field(R3, 0)
        V = coordinate_field(R3, 1)
        out = second_covariant_derivative_endo(JET, EUCLID, A, U, V, [0.1, 0.2, 0.3])
        assert out == pytest.approx(np.zeros((3, 3)))

    def test_identity_endo_any_metric(self):
        A = endo_field(WARPED, [[parse(str(float(i == j)), WARPED.names)
                                 for j in range(3)] for i in range(3)])
        U = coordinate_field(WARPED, 1)
        V = coordinate_field(WARPED, 0)
        out = second_covariant_derivative_endo(JET, WG, A, U, V, [0.2, -0.4, 0.6])
        assert out == pytest.approx(np.zeros((3, 3)), abs=1e-10)

    def test_tensoriality_in_lower_slots(self):
        # (nabla^2_{fU, V} A) = f (nabla^2_{U,V} A) pointwise
        A = endo_field(WARPED, [[parse(c, WARPED.names) for c in row] for row in
                                [["0", "exp(t)", "0"], ["-1", "0", "x"], ["0", "0", "1"]]])
        U = vector_field(WARPED, [parse(c, WARPED.names) for c in ["1", "x", "0"]])
        fU = vector_field(WARPED, [parse(c, WARPED.names) for c in
                                   ["y + 2", "(y + 2)*x", "0"]])
        V = coordinate_field(WARPED, 0)
        p = np.array([0.1, 0.3, 0.5])
        a = second_covariant_derivative_endo(JET, WG, A, fU, V, p)
        b = second_covariant_derivative_endo(JET, WG, A, U, V, p)
        assert a == pytest.approx((p[2] + 2) * b, abs=1e-9)


# ---------------------------------------------------------------------------
# The einsum forms that the matmul kernels of MetricData, riemann(),
# nabla_endo_all and second_cov_endo_const replaced, kept as an oracle.
# ---------------------------------------------------------------------------

def oracle_metric_data(g0, g1, g2):
    ginv0 = np.linalg.inv(g0)
    ginv1 = -np.einsum("pia,pabm,pbj->pijm", ginv0, g1, ginv0)
    T = 0.5 * (np.einsum("pjli->plij", g1) + np.einsum("pilj->plij", g1)
               - np.einsum("pijl->plij", g1))
    dT = 0.5 * (np.einsum("pjlim->plijm", g2) + np.einsum("piljm->plijm", g2)
                - np.einsum("pijlm->plijm", g2))
    gamma0 = np.einsum("pkl,plij->pkij", ginv0, T)
    gamma1 = (np.einsum("pklm,plij->pkijm", ginv1, T)
              + np.einsum("pkl,plijm->pkijm", ginv0, dT))
    riem = (np.einsum("pljki->plkij", gamma1) - np.einsum("plikj->plkij", gamma1)
            + np.einsum("plim,pmjk->plkij", gamma0, gamma0)
            - np.einsum("pljm,pmik->plkij", gamma0, gamma0))
    return {"ginv1": ginv1, "gamma0": gamma0, "gamma1": gamma1, "riem": riem}


def oracle_nabla_endo_all(G0, G1, Aval, Agrad, Ahess):
    C0 = (Agrad + np.einsum("pimk,pkj->pijm", G0, Aval)
          - np.einsum("pik,pkmj->pijm", Aval, G0))
    C1 = (Ahess + np.einsum("pimkn,pkj->pijmn", G1, Aval)
          + np.einsum("pimk,pkjn->pijmn", G0, Agrad)
          - np.einsum("pikn,pkmj->pijmn", Agrad, G0)
          - np.einsum("pik,pkmjn->pijmn", Aval, G1))
    return C0, C1


def oracle_second_cov_endo_const(G0, C0, C1, U, V):
    B0 = np.einsum("pijm,pm->pij", C0, V)
    B1 = np.einsum("pijmn,pm->pijn", C1, V)
    GU = np.einsum("pink,pn->pik", G0, U)
    nUB = np.einsum("pijn,pn->pij", B1, U) + GU @ B0 - B0 @ GU
    W = np.einsum("pkj,pj->pk", GU, V)
    return nUB - np.einsum("pijm,pm->pij", C0, W)


def random_metric_jets(rng, p, d):
    """Positive definite g0; g1 symmetric in (i, j); g2 symmetric in (i, j)
    and in (m, n)."""
    M = rng.normal(size=(p, d, d))
    g0 = M @ M.swapaxes(1, 2) + d * np.eye(d)
    g1 = rng.normal(size=(p, d, d, d))
    g1 = g1 + g1.swapaxes(1, 2)
    g2 = rng.normal(size=(p, d, d, d, d))
    g2 = g2 + g2.swapaxes(1, 2)
    g2 = g2 + g2.swapaxes(3, 4)
    return g0, g1, g2


def random_endo_jets(rng, p, d):
    Ahess = rng.normal(size=(p, d, d, d, d))
    return (rng.normal(size=(p, d, d)), rng.normal(size=(p, d, d, d)),
            Ahess + Ahess.swapaxes(3, 4))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, np.abs(want)))


class TestKernelsAgainstEinsumOracle:
    @staticmethod
    def _metric_data(monkeypatch, jets, points):
        monkeypatch.setattr(riemann.geom, "eval_metric",
                            lambda ev, g, pts: jets)
        return MetricData(JET, None, points)

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("p", [1, 64])
    def test_kernels(self, monkeypatch, d, p):
        rng = np.random.default_rng(10 * d + p)
        jets = random_metric_jets(rng, p, d)
        md = self._metric_data(monkeypatch, jets, np.zeros((p, d)))
        want = oracle_metric_data(*jets)
        assert_close(md.ginv1, want["ginv1"])
        assert_close(md.gamma0, want["gamma0"])
        assert_close(md.gamma1, want["gamma1"])
        assert_close(md.riemann(), want["riem"])
        A = random_endo_jets(rng, p, d)
        C0, C1 = riemann.nabla_endo_all(md, *A)
        want_C0, want_C1 = oracle_nabla_endo_all(md.gamma0, md.gamma1, *A)
        assert_close(C0, want_C0)
        assert_close(C1, want_C1)
        U, V = rng.normal(size=(2, p, d))
        # the rank-one weight S[m, n] = V^m U^n is the one pair (U, V)
        assert_close(riemann.second_cov_endo_const(
                         md, C0, C1, V[:, :, None] * U[:, None, :]),
                     oracle_second_cov_endo_const(md.gamma0, C0, C1, U, V))
        # a strided layout slows every later contraction over these
        for arr in (md.ginv1, md.gamma0, md.gamma1, md.riemann(), C0, C1):
            assert arr.flags.c_contiguous

    @pytest.mark.parametrize("d", [3, 6])
    def test_single_point(self, monkeypatch, d):
        jets = random_metric_jets(np.random.default_rng(d), 1, d)
        md = self._metric_data(monkeypatch, jets, np.zeros(d))
        assert md.points.shape == (1, d)
        want = oracle_metric_data(*jets)
        assert_close(md.gamma1, want["gamma1"])
        assert_close(md.riemann(), want["riem"])


def three_view_gamma1(md):
    """gamma1 with dT summed from three permuted views of g2, as before the
    symmetry of g2 in (i, j) was used; the rest is MetricData's kernel."""
    g1, g2 = md.g1, md.g2
    p, d = md.npts, md.dim
    T = 0.5 * (np.einsum("pjli->plij", g1) + np.einsum("pilj->plij", g1)
               - np.einsum("pijl->plij", g1))
    dT = np.einsum("pjlim->plijm", g2) + np.einsum("piljm->plijm", g2)
    dT -= np.einsum("pijlm->plijm", g2)
    dT *= 0.5
    gamma1 = (md.ginv0 @ dT.reshape(p, d, d ** 3)).reshape(p, d, d * d, d)
    gamma1 += T.reshape(p, 1, d, d * d).swapaxes(2, 3) @ md.ginv1
    return gamma1.reshape(p, d, d, d, d)


class TestSymmetricDT:
    """dT from one view of g2 is bitwise the three-view sum on real metrics,
    whose g2 is exactly symmetric in (i, j)."""

    @staticmethod
    def _metrics():
        sas = builtin_factor("sasakian_heisenberg")
        ken = builtin_factor("kenmotsu_warped")
        P = build_product(sas, ken, 1.0, 1.0, validate=False)
        return {"sasakian_heisenberg": (sas.structure.g, sas.chart),
                "product": (P.G, P.chart)}

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    @pytest.mark.parametrize("name", ["sasakian_heisenberg", "product"])
    def test_gamma1_bitwise(self, name, mode):
        g, ch = self._metrics()[name]
        md = MetricData(Evaluator(mode), g, geom.sample_points(ch, 16, 3))
        assert np.array_equal(md.g2, md.g2.swapaxes(1, 2))
        assert np.array_equal(md.gamma1, three_view_gamma1(md))


class TestFrames:
    def test_euclidean_no_preferred(self):
        frame = orthonormal_frame(np.eye(3))
        assert np.allclose(frame, np.eye(3))

    def test_scaling_normalized(self):
        frame = orthonormal_frame(np.eye(2), preferred=[np.array([2.0, 0.0])])
        assert frame[0] == pytest.approx(np.array([1.0, 0.0]))
        assert frame[1] == pytest.approx(np.array([0.0, 1.0]))

    def test_gram_matrix_identity(self):
        rng = np.random.default_rng(23)
        M = rng.normal(size=(4, 4))
        g0 = M @ M.T + 4 * np.eye(4)
        pref = [rng.normal(size=4), rng.normal(size=4)]
        frame = orthonormal_frame(g0, preferred=pref)
        gram = np.array([[u @ g0 @ v for v in frame] for u in frame])
        assert gram == pytest.approx(np.eye(4), abs=1e-10)

    def test_residual_norms_match_the_per_vector_loop(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(5, 5))
        g0 = M @ M.T + 5 * np.eye(5)
        frame = orthonormal_frame(g0, preferred=[rng.normal(size=5)])
        assert frame.shape == (5, 5)
        vec = rng.normal(size=5)
        A = rng.normal(size=(5, 5))

        def loop_norm(v):
            return max(abs(float(v @ g0 @ u)) for u in frame)

        got = riemann.vector_residual_norm(g0[None], frame[None], vec[None])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(loop_norm(vec), rel=1e-12)
        got = riemann.endo_residual_norm(g0[None], frame[None], A[None])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(
            max(loop_norm(A @ u) for u in frame), rel=1e-12)

    @staticmethod
    def _spd_stack(rng, p, d):
        M = rng.normal(size=(p, d, d))
        return M @ M.swapaxes(1, 2) + d * np.eye(d)

    @staticmethod
    def _within_at(g0, candidates, pivot=1e-10):
        """Per-point Gram-Schmidt of a candidate list, the batched reference."""
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

    def test_frame_within_over_points_equals_per_point_rows(self):
        rng = np.random.default_rng(11)
        p, d = 7, 5
        g0 = self._spd_stack(rng, p, d)
        cands = rng.normal(size=(p, 4, d))
        cands[:, 2] = 2.0 * cands[:, 0] - cands[:, 1]  # skipped everywhere
        got = riemann.orthonormal_frame_within(g0, cands)
        assert got.shape == (p, 3, d)
        for i in range(p):
            want = self._within_at(g0[i], cands[i])
            assert got[i] == pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_frame_within_rank_change_across_points_raises(self):
        rng = np.random.default_rng(12)
        g0 = self._spd_stack(rng, 4, 3)
        cands = rng.normal(size=(4, 2, 3))
        cands[2, 1] = -3.0 * cands[2, 0]  # dependent at one point only
        with pytest.raises(riemann.RiemannError, match="point index 2"):
            riemann.orthonormal_frame_within(g0, cands)

    def test_residual_norms_over_points_equal_single_calls(self):
        rng = np.random.default_rng(13)
        p, d = 6, 4
        g0 = self._spd_stack(rng, p, d)
        frames = np.stack([orthonormal_frame(g) for g in g0])
        vec = rng.normal(size=(p, d))
        cols = rng.normal(size=(p, d, 3))
        A = rng.normal(size=(p, d, d))
        for batched, single in (
                (riemann.vector_residual_norm(g0, frames, vec),
                 [riemann.vector_residual_norm(g0[i][None], frames[i][None],
                                               vec[i][None])[0]
                  for i in range(p)]),
                (riemann.vector_residual_norm(g0, frames, cols),
                 [riemann.vector_residual_norm(g0[i][None], frames[i][None],
                                               cols[i][None])[0]
                  for i in range(p)]),
                (riemann.endo_residual_norm(g0, frames, A),
                 [riemann.endo_residual_norm(g0[i][None], frames[i][None],
                                             A[i][None])[0]
                  for i in range(p)])):
            assert batched.shape == (p,) + single[0].shape
            assert batched == pytest.approx(np.array(single), rel=1e-13)
        # a stack of columns gives one maximum per column
        assert riemann.vector_residual_norm(g0, frames, cols) == pytest.approx(
            np.stack([riemann.vector_residual_norm(g0, frames, cols[..., n])
                      for n in range(3)], axis=1), rel=1e-13)

    def test_dependent_preferred_raises(self):
        with pytest.raises(DependentPreferredVectors):
            orthonormal_frame(np.eye(3), preferred=[np.array([1.0, 0, 0]),
                                                    np.array([2.0, 0, 0])])
