import math
from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli, contact, expr, geom
from tsgeom.expr import (
    Binary, Const, Coord, Evaluator, EvalDomainError, ParseError, Unary,
    UnknownIdentifier, eval_fd, eval_jet, eval_value, parse, render_named,
)


def central_diff_grad(f, p, h=1e-5):
    p = np.asarray(p, dtype=float)
    g = np.zeros_like(p)
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h
        g[i] = (f(p + dp) - f(p - dp)) / (2 * h)
    return g


def central_diff_hess(f, p, h=1e-5):
    p = np.asarray(p, dtype=float)
    d = p.size
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            dpi = np.zeros(d); dpi[i] = h
            dpj = np.zeros(d); dpj[j] = h
            H[i, j] = (f(p + dpi + dpj) - f(p + dpi - dpj)
                       - f(p - dpi + dpj) + f(p - dpi - dpj)) / (4 * h * h)
    return H


class TestParse:
    def test_power_plus_coord(self):
        ast = parse("x^2 + y", ["x", "y", "z"])
        assert ast == Binary("+", Binary("^", Coord(0), Const(2.0)), Coord(1))

    def test_exp_of_product(self):
        ast = parse("exp(2*t)", ["t", "x", "y"])
        assert ast == Unary("exp", Binary("*", Const(2.0), Coord(0)))

    def test_malformed_input_position(self):
        with pytest.raises(ParseError) as err:
            parse("x +* y", ["x", "y"])
        assert err.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse("x + w", ["x", "y"])
        assert err.value.name == "w"

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("tan(x)", ["x"])

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x + y", ["x", "y"])

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ", ["x"])

    def test_unary_minus(self):
        ast = parse("-y", ["x", "y"])
        assert ast == Unary("neg", Coord(1))

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^y", ["x", "y"])

    def test_negative_exponent_folds(self):
        ast = parse("x^-2", ["x"])
        assert ast == Binary("^", Coord(0), Const(-2.0))

    def test_roundtrip_stability(self):
        names = ["x", "y", "z"]
        sources = [
            "x^2 + y",
            "exp(2*x)",
            "x*y + sin(x)",
            "0.5*(z - y*x)",
            "sqrt(x*x + 1) / (2 + cos(y))",
            "neg(z) - x^3",
            "-1.5*y + x^0.5",
        ]
        for s in sources:
            ast = parse(s, names)
            assert parse(render_named(ast, names), names) == ast


class TestEvalJet:
    def test_square(self):
        j = eval_jet(parse("x^2", ["x"]), [3.0])
        assert j.value == pytest.approx(9.0)
        assert j.grad == pytest.approx([6.0])
        assert j.hess == pytest.approx(np.array([[2.0]]))

    def test_exp_chain(self):
        j = eval_jet(parse("exp(2*t)", ["t"]), [0.0])
        assert j.value == pytest.approx(1.0)
        assert j.grad == pytest.approx([2.0])
        assert j.hess == pytest.approx(np.array([[4.0]]))

    def test_product_plus_sin_vs_central_differences(self):
        # oracle: plain second-order central differences, step 1e-5
        e = parse("x*y + sin(x)", ["x", "y"])
        p = np.array([0.0, 5.0])

        def f(q):
            return q[0] * q[1] + math.sin(q[0])

        j = eval_jet(e, p)
        assert j.value == pytest.approx(f(p))
        assert j.grad == pytest.approx(central_diff_grad(f, p), abs=1e-8)
        assert j.hess == pytest.approx(central_diff_hess(f, p), abs=1e-8)
        assert j.grad == pytest.approx([6.0, 0.0])
        assert j.hess == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_division_and_sqrt(self):
        e = parse("sqrt(x) / y", ["x", "y"])
        p = np.array([4.0, 2.0])
        j = eval_jet(e, p)

        def f(q):
            return math.sqrt(q[0]) / q[1]

        assert j.value == pytest.approx(1.0)
        assert j.grad == pytest.approx(central_diff_grad(f, p), abs=1e-7)
        assert j.hess == pytest.approx(central_diff_hess(f, p), abs=1e-6)

    def test_real_exponent(self):
        e = parse("x^2.5", ["x"])
        p = np.array([1.7])
        j = eval_jet(e, p)
        assert j.value == pytest.approx(1.7 ** 2.5)
        assert j.grad[0] == pytest.approx(2.5 * 1.7 ** 1.5)
        assert j.hess[0, 0] == pytest.approx(2.5 * 1.5 * 1.7 ** 0.5)

    def test_large_integer_exponent(self):
        e = parse("x^9", ["x"])  # > repeated-multiplication limit, exp/log path
        j = eval_jet(e, np.array([1.3]))
        assert j.value == pytest.approx(1.3 ** 9, rel=1e-12)
        assert j.grad[0] == pytest.approx(9 * 1.3 ** 8, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            eval_jet(parse("log(x)", ["x"]), [-1.0])
        with pytest.raises(EvalDomainError):
            eval_jet(parse("sqrt(x)", ["x"]), [-0.5])
        with pytest.raises(EvalDomainError):
            eval_jet(parse("1/x", ["x"]), [0.0])

    def test_reevaluation_bit_identical(self):
        e = parse("x*y + sin(x)*exp(y) - 0.25*x^3", ["x", "y"])
        p = np.array([0.37, -0.81])
        j1 = eval_jet(e, p)
        j2 = eval_jet(e, p)
        assert np.array_equal(j1.value, j2.value)
        assert np.array_equal(j1.grad, j2.grad)
        assert np.array_equal(j1.hess, j2.hess)

    def test_hessian_exactly_symmetric(self):
        e = parse("sin(x*y)*exp(x - 0.5*z) + x/(2 + y^2)", ["x", "y", "z"])
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(-1, 1, size=3)
            h = eval_jet(e, p).hess
            assert np.array_equal(h, h.T)

    def test_batched_matches_pointwise(self):
        e = parse("x*exp(y) + y^2", ["x", "y"])
        pts = np.random.default_rng(5).uniform(-1, 1, size=(7, 2))
        batch = expr.eval_jet_batch(e, pts)
        for i, p in enumerate(pts):
            single = eval_jet(e, p)
            assert batch.value[i] == pytest.approx(single.value)
            assert batch.grad[i] == pytest.approx(single.grad)
            assert batch.hess[i] == pytest.approx(single.hess)


class TestFdOracle:
    # property from the module contract: jet gradient/Hessian agree with
    # Richardson 4th-order central differences (step 1e-3) within 1e-7 relative
    SOURCES = [
        "x^2 + y",
        "exp(2*x)",
        "x*y + sin(x)",
        "0.5*(z - y*x)",
        "sqrt(x + 2) / (2 + cos(y))",
        "exp(x)*sin(y) - z^3 + x/(y + 3)",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_jet_vs_richardson_fd(self, src):
        names = ["x", "y", "z"]
        e = parse(src, names)
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = rng.uniform(-1, 1, size=3)
            jj = eval_jet(e, p)
            jf = eval_fd(e, p, step=1e-3)
            scale_g = 1.0 + np.abs(jj.grad)
            scale_h = 1.0 + np.abs(jj.hess)
            assert np.all(np.abs(jj.grad - jf.grad) / scale_g < 1e-7)
            assert np.all(np.abs(jj.hess - jf.hess) / scale_h < 1e-7)

    def test_evaluator_modes(self):
        e = parse("exp(x)*y", ["x", "y"])
        p = np.array([0.2, 0.4])
        jjet = Evaluator("jet").jet(e, p)
        jfd = Evaluator("fd", 1e-3).jet(e, p)
        assert jfd.value == pytest.approx(jjet.value)
        assert jfd.grad == pytest.approx(jjet.grad, abs=1e-9)
        assert jfd.hess == pytest.approx(jjet.hess, abs=1e-8)

    def test_non_integer_power_domain_error_same_in_both_modes(self):
        e = parse("x^0.5 + y", ["x", "y"])
        for p in ([-1.0, 0.2], [[0.5, 0.1], [-1.0, 0.2], [0.0, 0.3]]):
            errs = []
            for mode in ("jet", "fd"):
                with pytest.raises(EvalDomainError) as err:
                    Evaluator(mode).jet(e, np.array(p))
                errs.append((err.value.op, err.value.point))
            assert errs[0] == errs[1] == ("^", (-1.0, 0.2))


class TestPowersAndShapes:
    @pytest.mark.parametrize("mode, rel", [("jet", 1e-15), ("fd", 1e-6)])
    def test_large_integer_power_of_a_negative_base(self, mode, rel):
        # 9 is above the repeated-multiplication limit; x^9 is defined at -1
        j = Evaluator(mode).jet(parse("x^9", ["x"]), [-1.0])
        assert j.value == pytest.approx(-1.0, rel=1e-15)
        assert j.grad[0] == pytest.approx(9.0, rel=rel)
        assert j.hess[0, 0] == pytest.approx(-72.0, rel=rel)
        assert Evaluator(mode).value(parse("x^9", ["x"]), [-1.0]) == -1.0

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_large_integer_power_picks_its_route_per_point(self, mode):
        ev = Evaluator(mode)
        e = parse("x^-9", ["x"])
        both = ev.jet(e, np.array([[1.3], [-2.0]]))
        alone = ev.jet(e, np.array([[1.3]]))
        # the positive base keeps exp(-9 log x), whatever else is in the batch
        assert both.value[0] == alone.value[0]
        assert np.array_equal(both.grad[0], alone.grad[0])
        assert np.array_equal(both.hess[0], alone.hess[0])
        assert both.value[1] == pytest.approx(-2.0 ** -9, rel=1e-15)
        assert ev.value(e, np.array([[1.3], [-2.0]]))[1] == -2.0 ** -9

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_zero_to_a_large_negative_power_names_the_power(self, mode):
        ev = Evaluator(mode)
        for p in ([0.0], [[-1.0], [0.0]]):
            with pytest.raises(EvalDomainError) as err:
                ev.jet(parse("x^-9", ["x"]), np.array(p))
            assert (err.value.op, err.value.point) == ("^", (0.0,))
            with pytest.raises(EvalDomainError) as err:
                ev.value(parse("x^-9", ["x"]), np.array(p))
            assert err.value.op == "^"
        assert ev.value(parse("x^9", ["x"]), [0.0]) == 0.0

    @pytest.mark.parametrize("mode", ["jet", "fd"])
    def test_a_point_alone_equals_its_row_of_a_batch(self, mode):
        # an integer power of a compound base rounds differently as a numpy
        # scalar than in the ufunc loop; a bare point must round as its row
        ev = Evaluator(mode)
        e = parse("(x*y)^3", ["x", "y"])
        pts = np.random.default_rng(0).uniform(0.1, 1.0, size=(2000, 2))
        values = ev.value(e, pts)
        batch = ev.jet(e, pts)
        for i, p in enumerate(pts):
            assert ev.value(e, p) == values[i]
            j = ev.jet(e, p)
            assert j.value == batch.value[i]
            assert np.array_equal(j.grad, batch.grad[i])
            assert np.array_equal(j.hess, batch.hess[i])


# ---------------------------------------------------------------------------
# The point-by-point finite-difference walk that FdStencil replaced, kept as
# an oracle: one eval_value walk per stencil point (1 + 4d + 16d^2 walks).
# ---------------------------------------------------------------------------

def _oracle_fd_gradient(f, points, h):
    d = points.shape[-1]
    grad = np.zeros(points.shape[:-1] + (d,))
    for i in range(d):
        dp = np.zeros(d)
        dp[i] = h
        grad[..., i] = (f(points + dp) - f(points - dp)) / (2.0 * h)
    return grad


def oracle_eval_fd(e, p, step=1e-3):
    points = np.asarray(p, dtype=float)

    def value(q):
        return eval_value(e, q)

    def grad_at(q, h):
        g1 = _oracle_fd_gradient(value, q, h)
        g2 = _oracle_fd_gradient(value, q, h / 2.0)
        return (4.0 * g2 - g1) / 3.0

    d = points.shape[-1]
    v = value(points)
    g = grad_at(points, step)
    hess = np.zeros(points.shape[:-1] + (d, d))
    for i in range(d):
        dp = np.zeros(d)
        dp[i] = step
        row1 = (grad_at(points + dp, step) - grad_at(points - dp, step)) / (2.0 * step)
        dp[i] = step / 2.0
        row2 = (grad_at(points + dp, step) - grad_at(points - dp, step)) / step
        hess[..., i, :] = (4.0 * row2 - row1) / 3.0
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return expr.Jet2(v, g, hess)


def _assert_bitwise(got, want):
    for part in ("value", "grad", "hess"):
        a, b = np.asarray(getattr(got, part)), np.asarray(getattr(want, part))
        assert a.shape == b.shape, part
        assert np.array_equal(a, b), (part, float(np.max(np.abs(a - b))))


def _factor_components():
    """Every component expression of the built-in factors and kenmotsu_beta2."""
    path = (Path(__file__).resolve().parents[1] / "manifests"
            / "custom_kenmotsu_beta2.json")
    factors = [contact.builtin_factor(n) for n in contact.BUILTIN_NAMES]
    factors.append(cli.load_manifest(path)["factors"][1])
    out = []
    for F in factors:
        S = F.structure
        comps = [F.alpha, F.beta, *S.xi.comps, *S.eta.comps]
        comps += [c for row in S.phi.comps + S.g.comps for c in row]
        out.append((S.name, F.chart, comps))
    return out


class TestFdStencilAgainstOracle:
    """FdStencil reproduces the point-by-point walk bit for bit."""

    SOURCES = TestFdOracle.SOURCES + ["x^0.5", "log(x + 2)", "-(x*y)", "2.5"]
    SHAPES = [(3,), (5, 3), (2, 5, 3)]

    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("src", SOURCES)
    def test_expressions(self, src, shape, step):
        e = parse(src, ["x", "y", "z"])
        rng = np.random.default_rng(17)
        for _ in range(4):
            p = rng.uniform(0.1, 1.0, size=shape)
            want = oracle_eval_fd(e, p, step)
            _assert_bitwise(eval_fd(e, p, step), want)
            _assert_bitwise(Evaluator("fd", step).jets((e,), p)[0], want)

    @pytest.mark.parametrize("name, chart, comps", _factor_components(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_factor_components(self, name, chart, comps):
        p = geom.sample_points(chart, 16, seed=5)
        for step in (1e-3, 1e-2):
            got = Evaluator("fd", step).jets(comps, p)
            for e, j in zip(comps, got):
                _assert_bitwise(j, oracle_eval_fd(e, p, step))

    def test_six_walks_per_expression_and_none_for_constants(self, monkeypatch):
        calls = []
        original = expr.eval_value

        def counting(e, points):
            calls.append(e)
            return original(e, points)

        monkeypatch.setattr(expr, "eval_value", counting)
        e = parse("x*y + sin(x)", ["x", "y"])  # six nodes
        p = np.array([[0.3, 0.4], [0.5, -0.2]])
        Evaluator("fd").jets((e, Const(2.0)), p)
        assert len(calls) == 6 * 6
        assert sum(c is e for c in calls) == 6

    def test_one_stencil_per_field_evaluation(self, monkeypatch):
        built = []
        original = expr._gradient_points

        def counting(q, h):
            built.append(q.shape)
            return original(q, h)

        monkeypatch.setattr(expr, "_gradient_points", counting)
        F = contact.builtin_factor("kenmotsu_warped")
        p = geom.sample_points(F.chart, 4, seed=1)
        ev = Evaluator("fd")
        geom.eval_metric(ev, F.structure.g, p)
        # the gradient points, then the four Hessian blocks around them
        assert built == [(4, 3)] + [(4, 3, 3)] * 4
        built.clear()
        geom.eval_vector(ev, F.structure.xi, p)  # constant components
        assert built == []

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5])
    def test_every_constant_is_a_constant_jet_in_both_modes(self, value):
        p = np.array([[0.5, 0.1], [-0.3, 0.2], [0.7, 0.3]])
        want = expr.Jet2.constant(value, (3,), 2)
        for mode in ("jet", "fd"):
            got = Evaluator(mode).jet(Const(value), p)
            for g, w in zip((got.value, got.grad, got.hess),
                            (want.value, want.grad, want.hess)):
                assert np.array_equal(g, w, equal_nan=True), mode

    def test_domain_error_at_a_sample_point_matches_oracle(self):
        e = parse("log(x)", ["x", "y"])
        p = np.array([[0.5, 0.1], [-1.0, 0.2], [0.7, 0.3]])
        with pytest.raises(EvalDomainError) as want:
            oracle_eval_fd(e, p)
        with pytest.raises(EvalDomainError) as got:
            Evaluator("fd").jets((e,), p)
        assert (got.value.op, got.value.point) == (want.value.op,
                                                   want.value.point)
        assert got.value.point == (-1.0, 0.2)

    def test_domain_error_on_the_stencil_names_a_stencil_point(self):
        e = parse("sqrt(x)", ["x", "y"])
        p = np.array([[0.5, 0.1], [0.0, 0.2]])
        step = 1e-3
        with pytest.raises(EvalDomainError) as err:
            eval_fd(e, p, step)
        assert err.value.op == "sqrt"
        bad = np.array(err.value.point)
        assert bad[0] < 0.0
        offset = bad - p[1]
        assert np.count_nonzero(offset) <= 2
        assert np.all(np.abs(offset) <= 2.0 * step)


class TestBuilders:
    def test_smart_constructors_fold(self):
        x = expr.coord(0)
        assert expr.add(expr.const(0), x) == x
        assert expr.mul(expr.const(0), x) == expr.ZERO
        assert expr.mul(expr.const(1), x) == x
        assert expr.neg(expr.const(2)).value == -2.0

    def test_fold_constants_folds_like_the_field_assembly(self):
        names = ["x", "y"]
        assert expr.fold_constants(parse("2*3*x", names)) == expr.mul(
            expr.const(6.0), expr.coord(0))
        assert expr.fold_constants(parse("1e200*1e200", names)) == Const(
            math.inf)
        assert expr.fold_constants(parse("sin(1 - 1 + y)", names)) == (
            expr.Unary("sin", expr.coord(1)))
        e = parse("x/2 + y^3", names)
        assert expr.fold_constants(e) == e

    def test_coords_under_exp(self):
        e = parse("exp(2*t) + x", ["t", "x", "y"])
        assert expr.coords_under_exp(e) == {0}
        assert expr.free_coords(e) == {0, 1}
