from itertools import combinations, permutations

import numpy as np
import pytest

from tsgeom import expr, geom
from tsgeom.contact import builtin_factor
from tsgeom.expr import JET, parse
from tsgeom.geom import (
    ChartMismatch, DegreeOverflow, KFormValue, chart, coordinate_field,
    endo_pullback, exterior_derivative, form_indices, kform_from_components,
    lie_bracket, one_form_as_kform, one_form_field, sample_points,
    vector_field, wedge_values,
)

R3 = chart(["x", "y", "z"])


def vf(comps):
    return vector_field(R3, [parse(c, R3.names) for c in comps])


def ff(degree, comp_map):
    return kform_from_components(R3, degree, {
        idx: parse(src, R3.names) for idx, src in comp_map.items()})


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        X = coordinate_field(R3, 0)
        Y = coordinate_field(R3, 1)
        assert lie_bracket(JET, X, Y, [0.3, -0.4, 0.9]) == pytest.approx(np.zeros(3))

    def test_linear_field(self):
        X = vf(["0", "x", "0"])   # x * d_y
        Y = coordinate_field(R3, 0)
        out = lie_bracket(JET, X, Y, [0.2, 0.1, -0.7])
        assert out == pytest.approx(np.array([0.0, -1.0, 0.0]))

    def test_heisenberg_reeb_bracket(self):
        # xi = 2 d_z, e1 ~ d_x + y d_z (z-independent components)
        xi = vf(["0", "0", "2"])
        e1 = vf(["1", "0", "y"])
        out = lie_bracket(JET, xi, e1, [0.5, -0.3, 0.2])
        assert out == pytest.approx(np.zeros(3), abs=1e-12)

    def test_chart_mismatch(self):
        other = chart(["u", "v"])
        X = coordinate_field(R3, 0)
        Y = coordinate_field(other, 0)
        with pytest.raises(ChartMismatch):
            lie_bracket(JET, X, Y, [0.0, 0.0, 0.0])

    def test_jacobi_identity(self):
        # polynomial fields; the inner bracket [A,B] is known pointwise, so
        # its Jacobian is taken by central differences when forming [[A,B],C]
        X = vf(["y", "x*z", "1"])
        Y = vf(["x^2", "0", "y"])
        Z = vf(["z", "x", "x*y"])
        pts = sample_points(R3, 25, seed=2)

        def bracket_of_bracket(A, B, C, p, h=1e-5):
            ab = lambda q: lie_bracket(JET, A, B, q)
            abp = ab(p)
            d = len(p)
            jac = np.zeros((d, d))
            for i in range(d):
                dp = np.zeros(d)
                dp[i] = h
                jac[:, i] = (ab(p + dp) - ab(p - dp)) / (2 * h)
            Cv, Cg, _ = geom.eval_vector(JET, C, np.asarray(p))
            # [AB, C]^k = AB^i d_i C^k - C^i d_i AB^k
            return abp @ Cg.T - Cv @ jac.T

        for p in pts[:5]:
            total = (bracket_of_bracket(X, Y, Z, p)
                     + bracket_of_bracket(Y, Z, X, p)
                     + bracket_of_bracket(Z, X, Y, p))
            assert np.max(np.abs(total)) < 1e-8


class TestExteriorDerivative:
    def test_d_of_constant_form(self):
        dz = ff(1, {(2,): "1"})
        out = exterior_derivative(JET, dz, [0.1, 0.2, 0.3])
        assert out.degree == 2
        assert out.comps == pytest.approx(np.zeros(3))

    def test_d_of_minus_y_dx(self):
        w = ff(1, {(0,): "-y"})
        out = exterior_derivative(JET, w, [0.4, -0.2, 0.6])
        # d(-y dx) = dx ^ dy
        expected = np.zeros(3)
        expected[form_indices(3, 2).index((0, 1))] = 1.0
        assert out.comps == pytest.approx(expected)

    def test_heisenberg_contact_form(self):
        eta = ff(1, {(0,): "-0.5*y", (2,): "0.5"})
        for p in sample_points(R3, 10, seed=1):
            out = exterior_derivative(JET, eta, p)
            expected = np.zeros(3)
            expected[form_indices(3, 2).index((0, 1))] = 0.5
            assert out.comps == pytest.approx(expected)

    def test_degree_overflow(self):
        top = ff(3, {(0, 1, 2): "x"})
        with pytest.raises(DegreeOverflow):
            exterior_derivative(JET, top, [0.0, 0.0, 0.0])

    def test_d_squared_zero(self):
        fields = [
            ff(1, {(0,): "x*y + sin(z)", (1,): "exp(x)", (2,): "y^2"}),
            ff(1, {(0,): "-0.5*y", (2,): "0.5"}),
            ff(0, {(): "x*exp(y) - z^2"}) if False else None,
        ]
        for w in fields:
            if w is None:
                continue
            for p in sample_points(R3, 100, seed=9):
                val, grad = geom.exterior_derivative_jet(JET, w, p)
                dd = geom.d_of_jet_form(3, w.degree + 1, val, grad)
                assert np.max(np.abs(dd)) < 1e-8

    def test_leibniz(self):
        a = ff(1, {(0,): "x*y", (1,): "sin(z)", (2,): "1"})
        b = ff(1, {(0,): "exp(y)", (2,): "x"})
        for p in sample_points(R3, 100, seed=4):
            ab = geom.wedge_fields(a, b)
            d_ab = exterior_derivative(JET, ab, p).comps
            da = exterior_derivative(JET, a, p)
            db = exterior_derivative(JET, b, p)
            av, _, _ = geom.eval_form(JET, a, p)
            bv, _, _ = geom.eval_form(JET, b, p)
            lhs1 = wedge_values(da, KFormValue(3, 1, bv))
            lhs2 = wedge_values(KFormValue(3, 1, av), db)
            total = d_ab - (lhs1.comps - lhs2.comps)  # deg a = 1, sign (-1)^1
            assert np.max(np.abs(total)) < 1e-8


class TestWedge:
    def test_dx_wedge_dy(self):
        dx = KFormValue(3, 1, np.array([1.0, 0.0, 0.0]))
        dy = KFormValue(3, 1, np.array([0.0, 1.0, 0.0]))
        out = wedge_values(dx, dy)
        expected = np.zeros(3)
        expected[form_indices(3, 2).index((0, 1))] = 1.0
        assert out.comps == pytest.approx(expected)

    def test_one_form_squares_to_zero(self):
        a = KFormValue(3, 1, np.array([0.7, -0.4, 1.3]))
        out = wedge_values(a, a)
        assert out.comps == pytest.approx(np.zeros(3))

    def test_even_degree_commutes(self):
        dim = 4
        dxdy = KFormValue(dim, 2, np.zeros(6))
        dzdw = KFormValue(dim, 2, np.zeros(6))
        i2 = form_indices(dim, 2)
        dxdy.comps[i2.index((0, 1))] = 1.0
        dzdw.comps[i2.index((2, 3))] = 1.0
        ab = wedge_values(dxdy, dzdw)
        ba = wedge_values(dzdw, dxdy)
        assert ab.comps == pytest.approx(np.array([1.0]))
        assert ba.comps == pytest.approx(ab.comps)

    def test_overflow(self):
        a = KFormValue(3, 2, np.ones(3))
        with pytest.raises(DegreeOverflow):
            wedge_values(a, a)


class TestPullback:
    def test_identity(self):
        w = KFormValue(3, 2, np.array([0.3, -1.2, 0.5]))
        out = endo_pullback(np.eye(3), w)
        assert out.comps == pytest.approx(w.comps)

    def test_minus_identity_even_degree(self):
        w = KFormValue(3, 2, np.array([0.3, -1.2, 0.5]))
        out = endo_pullback(-np.eye(3), w)
        assert out.comps == pytest.approx(w.comps)

    def test_top_degree_is_determinant(self):
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = KFormValue(2, 2, np.array([1.0]))  # dx ^ dy
        out = endo_pullback(J, w)
        assert out.comps == pytest.approx(np.array([np.linalg.det(J)]))

    def test_pullback_jet_consistency(self):
        # the value half is endo_pullback; the gradient matches the loop
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3))
        Ag = rng.normal(size=(3, 3, 3))
        comps = rng.normal(size=3)
        grads = rng.normal(size=(3, 3))
        v, g = geom.endo_pullback_jet(A, Ag, 2, comps, grads)
        w = endo_pullback(A, KFormValue(3, 2, comps))
        v_ref, g_ref = _pullback_jet_loop(A, Ag, 2, comps, grads)
        assert v == pytest.approx(w.comps, rel=1e-13, abs=1e-13)
        assert v == pytest.approx(v_ref, rel=1e-13, abs=1e-13)
        assert g == pytest.approx(g_ref, rel=1e-13, abs=1e-13)

    # k = 4, 5 are the degrees an m = 4 astheno check pulls back; k = 6
    # has cofactors of size 5, above geom.LEIBNIZ_MAX, so it takes LAPACK
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shape", ["random", "j_shaped"])
    def test_pullback_jet_matches_scalar_det_loop(self, shape, k):
        d = 6 if k <= 3 else 8
        rng = np.random.default_rng(k)
        A, Ag = _pullback_matrix(rng, shape, d)
        C = len(form_indices(d, k))
        comps = rng.normal(size=C)
        grads = rng.normal(size=(C, d))
        v, g = geom.endo_pullback_jet(A, Ag, k, comps, grads)
        v_ref, g_ref = _pullback_jet_loop(A, Ag, k, comps, grads)
        assert v == pytest.approx(v_ref, rel=1e-12, abs=1e-12)
        assert g == pytest.approx(g_ref, rel=1e-12, abs=1e-12)
        # the zero rows and columns of a J-shaped A give exactly zero minors
        # and derivatives; both sides must keep them exact
        assert np.array_equal(v == 0.0, v_ref == 0.0)
        assert np.array_equal(g == 0.0, g_ref == 0.0)
        if shape == "j_shaped" and k >= 1:
            assert (v == 0.0).any() and (g == 0.0).any()

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_minors_singular_by_pattern_are_exact_zeros(self, s):
        # rows 0 and 1 live in column 0 alone, with small entries, so LU
        # pivots on a dense row and can leave roundoff in a minor that is
        # singular by its pattern alone; the Leibniz minors must not
        d = 6
        pattern = np.ones((d, d), dtype=bool)
        pattern[:2, 1:] = False
        A = pattern * np.random.default_rng(0).uniform(0.5, 1.0, size=(d, d))
        A[:2, 0] *= 0.1
        idx = np.array(list(combinations(range(d), s)))
        singular = np.array([[not any(all(pattern[R[i], S[q[i]]] for i in range(s))
                                      for q in permutations(range(s)))
                              for S in idx] for R in idx])
        M = geom._minors(A, idx)
        assert singular.any()
        assert np.array_equal(M == 0.0, singular)
        ref = np.linalg.det(A[idx[:, None, :, None], idx[None, :, None, :]])
        assert np.abs(M - ref).max() <= 1e-14

    def test_pullback_jet_gradient_matches_central_difference(self):
        # A(x) = A0 + x_m A1[m] + x_m^2 A2[m], omega(x) = c0 + c1 x
        rng = np.random.default_rng(4)
        d, k = 6, 3
        C = len(form_indices(d, k))
        A0, A1, A2 = (rng.normal(size=s) for s in
                      [(d, d), (d, d, d), (d, d, d)])
        c0, c1 = rng.normal(size=C), rng.normal(size=(C, d))

        def A_of(x):
            return A0 + np.einsum("ijm,m->ij", A1, x) \
                + np.einsum("ijm,m->ij", A2, x ** 2)

        x = rng.uniform(-0.5, 0.5, size=d)
        Ag = A1 + 2.0 * A2 * x
        _, g = geom.endo_pullback_jet(A_of(x), Ag, k, c0 + c1 @ x, c1)
        h = 1e-5
        fd = np.empty((C, d))
        for m in range(d):
            e = h * np.eye(d)[m]
            vp = endo_pullback(A_of(x + e), KFormValue(d, k, c0 + c1 @ (x + e)))
            vm = endo_pullback(A_of(x - e), KFormValue(d, k, c0 + c1 @ (x - e)))
            fd[:, m] = (vp.comps - vm.comps) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("p", [1, geom.PULLBACK_BLOCK - 1,
                                   geom.PULLBACK_BLOCK + 1, 64])
    @pytest.mark.parametrize("shape", ["random", "j_shaped"])
    def test_pullback_jet_over_points_equals_single_calls(self, shape, p):
        # a batch is walked in blocks of PULLBACK_BLOCK points; each row
        # must be bitwise the point evaluated alone, wherever the block
        # boundaries fall, so that a worst point can be replayed by itself
        rng = np.random.default_rng(p)
        d, k = 6, 3
        C = len(form_indices(d, k))
        A, Ag = map(np.array, zip(*(_pullback_matrix(rng, shape)
                                    for _ in range(p))))
        comps = rng.normal(size=(p, C))
        grads = rng.normal(size=(p, C, d))
        v, g = geom.endo_pullback_jet(A, Ag, k, comps, grads)
        assert v.shape == (p, C) and g.shape == (p, C, d)
        for i in range(p):
            vi, gi = geom.endo_pullback_jet(A[i], Ag[i], k, comps[i], grads[i])
            assert np.array_equal(v[i], vi)
            assert np.array_equal(g[i], gi)


def _pullback_jet_loop(A, Agrad, k, comps, grads):
    """Reference: one scalar det per minor, row replacement and direction."""
    d = A.shape[0]
    idxs = form_indices(d, k)
    out_v = np.zeros(len(idxs))
    out_g = np.zeros((len(idxs), Agrad.shape[-1]))
    for o, I in enumerate(idxs):
        cols = list(I)
        for s, Jw in enumerate(idxs):
            rows = list(Jw)
            M = A[np.ix_(rows, cols)]
            detM = np.linalg.det(M)
            out_v[o] += comps[s] * detM
            ddet = np.zeros(Agrad.shape[-1])
            for r in range(len(rows)):
                Mr = M.copy()
                for m in range(Agrad.shape[-1]):
                    Mr[r, :] = Agrad[rows[r], cols, m]
                    ddet[m] += np.linalg.det(Mr)
            out_g[o, :] += grads[s, :] * detM + comps[s] * ddet
    return out_v, out_g


def _pullback_matrix(rng, shape, d=6):
    """A (d, d) matrix and its gradient (d, d, d).

    "j_shaped" has the pattern of a product almost complex structure built
    from the phi of a 3-dim and a (d-3)-dim contact factor. Rows and
    columns 2 and d-1 (the Reeb directions) are zero in A and in its
    gradient, so every minor through them is singular. Each phi maps the
    even coordinates of its factor's contact plane to the odd ones and
    back, so a minor that takes more of one kind of row than of the other
    kind of column is singular too.
    """
    if shape == "random":
        return rng.normal(size=(d, d)), rng.normal(size=(d, d, d))
    parity = np.array([0, 1, -1] + [i % 2 for i in range(d - 4)] + [-1])
    plane = parity >= 0
    pattern = (plane[:, None] & plane[None, :]
               & (parity[:, None] != parity[None, :])).astype(float)
    A = pattern * rng.normal(size=(d, d))
    return A, pattern[..., None] * rng.normal(size=(d, d, d))


class TestSampling:
    def test_determinism(self):
        p1 = sample_points(R3, 4, seed=7)
        p2 = sample_points(R3, 4, seed=7)
        assert np.array_equal(p1, p2)

    def test_degenerate_box(self):
        c = chart(["x"], box=[(0.5, 0.5)])
        pts = sample_points(c, 1, seed=3)
        assert pts == pytest.approx(np.array([[0.5]]))

    def test_seed_changes_points(self):
        p7 = sample_points(R3, 100, seed=7)
        p8 = sample_points(R3, 100, seed=8)
        assert not np.array_equal(p7, p8)

    def test_box_respected(self):
        c = chart(["t", "x"], box=[(-0.5, 0.5), (-1, 1)])
        pts = sample_points(c, 200, seed=5)
        assert np.all(pts[:, 0] >= -0.5) and np.all(pts[:, 0] <= 0.5)
        assert np.all(pts[:, 1] >= -1) and np.all(pts[:, 1] <= 1)

    def test_exp_coordinate_narrows_box(self):
        e = parse("exp(2*t)", ["t", "x", "y"])
        c = chart(["t", "x", "y"], field_exprs=[e])
        assert c.box[0] == (-0.5, 0.5)
        assert c.box[1] == (-1.0, 1.0)


# ---------------------------------------------------------------------------
# _eval_comps skips finite constants; the walker that evaluated every
# component through a jet is kept as the oracle.
# ---------------------------------------------------------------------------

def oracle_eval_comps(ev, comps, points):
    pts = np.asarray(points, dtype=float)
    shape, flat = (), [comps]
    while flat and isinstance(flat[0], tuple):
        shape += (len(flat[0]),)
        flat = [e for row in flat for e in row]
    unique = {}
    slots = [unique.setdefault(e, len(unique)) for e in flat]
    jets = ev.jets(unique, pts)
    base, d = pts.shape[:-1], pts.shape[-1]
    val = np.empty(base + shape)
    grad = np.empty(base + shape + (d,))
    hess = np.empty(base + shape + (d, d))
    flat_val = val.reshape(base + (-1,))
    flat_grad = grad.reshape(base + (-1, d))
    flat_hess = hess.reshape(base + (-1, d, d))
    for c, slot in enumerate(slots):
        j = jets[slot]
        flat_val[..., c] = j.value
        flat_grad[..., c, :] = j.grad
        flat_hess[..., c, :, :] = j.hess
    return val, grad, hess


def _comps_cases():
    S = builtin_factor("sasakian_heisenberg").structure
    inf_field = vector_field(R3, [parse("x*y", R3.names),
                                  expr.const(float("inf")), expr.ZERO])
    zero = expr.ZERO
    all_const = geom.endo_field(R3, [[expr.const(2.0), zero, zero],
                                     [zero, expr.const(-1.5), zero],
                                     [zero, zero, zero]])
    return {
        "bare expression": parse("x*y + sin(z)", R3.names),
        "bare constant": expr.const(3.0),
        "one-form": S.eta.comps,
        "endomorphism": S.phi.comps,
        "metric": S.g.comps,
        "non-finite constant": inf_field.comps,
        "all constant": all_const.comps,
    }


def _non_const(comps):
    flat = [comps]
    while flat and isinstance(flat[0], tuple):
        flat = [e for row in flat for e in row]
    return {e for e in flat
            if not (isinstance(e, expr.Const) and np.isfinite(e.value))}


class TestEvalCompsConstants:
    CASES = _comps_cases()
    EVALUATORS = {"jet": expr.Evaluator("jet"), "fd": expr.Evaluator("fd")}

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
    def test_bitwise_oracle(self, case, mode, shape):
        ev = self.EVALUATORS[mode]
        comps = self.CASES[case]
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=shape)
        got = geom._eval_comps(ev, comps, pts)
        want = oracle_eval_comps(ev, comps, pts)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_one_jet_per_distinct_non_constant(self, monkeypatch, case, mode):
        calls = []
        original = expr.Evaluator.jet

        def counting(self, e, points, **kw):
            calls.append(e)
            return original(self, e, points, **kw)

        monkeypatch.setattr(expr.Evaluator, "jet", counting)
        comps = self.CASES[case]
        geom._eval_comps(self.EVALUATORS[mode], comps,
                         sample_points(R3, 4, seed=1))
        assert sorted(map(repr, calls)) == sorted(map(repr, _non_const(comps)))

    def test_all_constant_field_walks_no_stencil(self, monkeypatch):
        walks = []
        original = expr.eval_value

        def counting(e, points):
            walks.append(e)
            return original(e, points)

        monkeypatch.setattr(expr, "eval_value", counting)
        val, grad, hess = geom._eval_comps(
            self.EVALUATORS["fd"], self.CASES["all constant"],
            sample_points(R3, 4, seed=1))
        assert walks == []
        assert np.array_equal(val[0], np.diag([2.0, -1.5, 0.0]))
        assert not grad.any() and not hess.any()


class TestEvalCompsOrder:
    CASES = _comps_cases()
    SHAPES = [(3,), (5, 3), (2, 4, 3)]

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_jet_orders_are_the_leading_arrays(self, case, order, shape):
        comps = self.CASES[case]
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=shape)
        got = geom._eval_comps(JET, comps, pts, order)
        full = geom._eval_comps(JET, comps, pts)
        assert len(got) == 3
        for k in range(order + 1):
            assert got[k].shape == full[k].shape
            assert got[k].tobytes() == full[k].tobytes()
        assert all(a is None for a in got[order + 1:])

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_fd_returns_every_order(self, case, order):
        ev = expr.Evaluator("fd")
        comps = self.CASES[case]
        pts = sample_points(R3, 4, seed=2)
        got = geom._eval_comps(ev, comps, pts, order)
        want = oracle_eval_comps(ev, comps, pts)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("name, field", [
        ("eval_vector", vf(["x*y", "sin(z)", "0"])),
        ("eval_endo", builtin_factor("sasakian_heisenberg").structure.phi),
        ("eval_oneform", builtin_factor("sasakian_heisenberg").structure.eta),
    ])
    def test_entry_points_pass_the_order(self, name, field):
        pts = sample_points(field.chart, 4, seed=3)
        val, grad, hess = getattr(geom, name)(JET, field, pts, 0)
        assert grad is None and hess is None
        assert val.tobytes() == getattr(geom, name)(JET, field, pts)[0].tobytes()
