"""Scalar expression ASTs and second-order jet evaluation.

Expressions are parsed once from manifest strings (or assembled
programmatically by the model builders) and evaluated in jet arithmetic:
every evaluation returns the exact value, gradient and Hessian of the
expression at a point, so all downstream geometry (Christoffels, curvature,
rough Laplacians) gets derivatives at roundoff accuracy.

A finite-difference evaluation mode exists purely as a cross-validation
oracle for the jet engine; it is selected per run, never mixed per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "neg")

# Integer exponents up to this magnitude are expanded by repeated
# multiplication; beyond it (and for non-integer exponents) pow goes
# through exp(e*log(base)).
_POW_MUL_LIMIT = 8


class ExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    """Malformed expression text.

    Attributes:
        position: 0-based offset of the offending token in the source text.
        expected: tuple of token descriptions that would have been legal.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = tuple(expected)


class UnknownIdentifier(ExprError):
    """Identifier is neither a chart coordinate nor a known function."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}' at offset {position}")
        self.name = name
        self.position = position


class EvalDomainError(ExprError):
    """log/sqrt of a negative argument or division by zero, with the point."""

    def __init__(self, op, point):
        pt = tuple(float(x) for x in np.atleast_1d(point))
        super().__init__(f"domain error in '{op}' at point {pt}")
        self.op = op
        self.point = pt


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str  # one of FUNCTIONS
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^'
    left: "Expression"
    right: "Expression"


Expression = Const | Coord | Unary | Binary

ZERO = Const(0.0)
ONE = Const(1.0)


def const(v) -> Const:
    return Const(float(v))


def coord(i) -> Coord:
    return Coord(int(i))


def is_const(e, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors: drop algebraically dead branches so generated fields
# (block metrics, endomorphisms) stay structurally sparse and evaluation
# stays exact where components are identically zero.

def add(a, b):
    if is_const(a, 0.0):
        return b
    if is_const(b, 0.0):
        return a
    if is_const(a) and is_const(b):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a, b):
    if is_const(b, 0.0):
        return a
    if is_const(a) and is_const(b):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def mul(a, b):
    if is_const(a, 0.0) or is_const(b, 0.0):
        return ZERO
    if is_const(a, 1.0):
        return b
    if is_const(b, 1.0):
        return a
    if is_const(a) and is_const(b):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def neg(a):
    if is_const(a):
        return Const(-a.value)
    return Unary("neg", a)


def func(name, a):
    return Unary(name, a)


def add_many(terms):
    out = ZERO
    for t in terms:
        out = add(out, t)
    return out


def free_coords(e) -> set:
    """Indices of coordinates the expression actually depends on."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Coord):
        return {e.index}
    if isinstance(e, Unary):
        return free_coords(e.arg)
    return free_coords(e.left) | free_coords(e.right)


def shift_coords(e, offset: int):
    """Re-index coordinate references (embedding a factor chart in a product)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Coord):
        return Coord(e.index + offset)
    if isinstance(e, Unary):
        return Unary(e.op, shift_coords(e.arg, offset))
    return Binary(e.op, shift_coords(e.left, offset), shift_coords(e.right, offset))


def fold_constants(e):
    """e rebuilt through add, sub, mul and neg, so that constant operands
    fold into one Const as they do when fields are assembled from it."""
    if isinstance(e, Unary):
        arg = fold_constants(e.arg)
        return neg(arg) if e.op == "neg" else Unary(e.op, arg)
    if isinstance(e, Binary):
        left, right = fold_constants(e.left), fold_constants(e.right)
        fold = {"+": add, "-": sub, "*": mul}.get(e.op)
        return fold(left, right) if fold else Binary(e.op, left, right)
    return e


def coords_under_exp(e) -> set:
    """Coordinate indices appearing inside an exp(...) subtree.

    Drives the sampling-box default: exponentially warped coordinates get a
    narrower box to avoid conditioning loss.
    """
    if isinstance(e, (Const, Coord)):
        return set()
    if isinstance(e, Unary):
        if e.op == "exp":
            return free_coords(e.arg)
        return coords_under_exp(e.arg)
    return coords_under_exp(e.left) | coords_under_exp(e.right)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number literal '{text[i:j]}'", i,
                                 expected=("number",))
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character '{c}'", i,
                         expected=("number", "identifier", "operator"))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent for:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' base)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    """

    def __init__(self, text, coords):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, ch):
        t = self.peek()
        if t.kind == "op" and t.text == ch:
            return self.take()
        raise ParseError(f"expected '{ch}'", t.pos, expected=(ch,))

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input '{t.text}'", t.pos,
                             expected=("end of input",))
        return e

    def expr(self):
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.take()
                rhs = self.term()
                e = Binary(t.text, e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.take()
                rhs = self.factor()
                e = Binary(t.text, e, rhs)
            else:
                return e

    def factor(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            return neg(self.factor())
        e = self.base()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.take()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "-":
                self.take()
                expo = neg(self.base())
            else:
                expo = self.base()
            expo = self._fold_const(expo)
            if not isinstance(expo, Const):
                raise ParseError("exponent must be a constant", t.pos,
                                 expected=("number",))
            return Binary("^", e, expo)
        return e

    def base(self):
        t = self.take()
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if t.text not in FUNCTIONS:
                    raise UnknownIdentifier(t.text, t.pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Unary(t.text, arg)
            if t.text in self.coords:
                return Coord(self.coords[t.text])
            raise UnknownIdentifier(t.text, t.pos)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a value, got '{t.text or 'end of input'}'",
                         t.pos, expected=("number", "identifier", "("))

    @staticmethod
    def _fold_const(e):
        if isinstance(e, Unary) and e.op == "neg":
            inner = _Parser._fold_const(e.arg)
            if isinstance(inner, Const):
                return Const(-inner.value)
        return e


def parse(text: str, coords) -> Expression:
    """Parse an expression over the named chart coordinates."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    names = list(coords)
    if len(set(names)) != len(names):
        raise ValueError(f"coordinate names must be distinct: {names}")
    return _Parser(text, names).parse()


def render(e: Expression) -> str:
    """Serialize an AST; parse(render(e)) reproduces e structurally."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Coord):
        return f"c{e.index}"  # placeholder names, see render_named
    if isinstance(e, Unary):
        return f"{e.op}({render(e.arg)})"
    return f"({render(e.left)} {e.op} {render(e.right)})"


def render_named(e: Expression, names) -> str:
    """Serialize using the chart's coordinate names."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Coord):
        return names[e.index]
    if isinstance(e, Unary):
        return f"{e.op}({render_named(e.arg, names)})"
    return f"({render_named(e.left, names)} {e.op} {render_named(e.right, names)})"


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------

class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    Supports a leading batch shape: value (...,), grad (..., d),
    hess (..., d, d). All operations keep the Hessian exactly symmetric.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(v, batch_shape, d):
        return Jet2(np.full(batch_shape, float(v)),
                    np.zeros(batch_shape + (d,)),
                    np.zeros(batch_shape + (d, d)))

    @staticmethod
    def coordinate(i, points):
        batch_shape = points.shape[:-1]
        d = points.shape[-1]
        g = np.zeros(batch_shape + (d,))
        g[..., i] = 1.0
        return Jet2(points[..., i].copy(), g, np.zeros(batch_shape + (d, d)))

    def __add__(self, o):
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    def __sub__(self, o):
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, o):
        v = self.value * o.value
        g = self.grad * o.value[..., None] + o.grad * self.value[..., None]
        cross = (self.grad[..., :, None] * o.grad[..., None, :]
                 + o.grad[..., :, None] * self.grad[..., None, :])
        h = (self.hess * o.value[..., None, None]
             + o.hess * self.value[..., None, None] + cross)
        return Jet2(v, g, h)

    def divide(self, o, point):
        if np.any(o.value == 0.0):
            raise EvalDomainError("/", _first_bad(point, o.value == 0.0))
        v = self.value / o.value
        g = (self.grad - o.grad * v[..., None]) / o.value[..., None]
        cross = (g[..., :, None] * o.grad[..., None, :]
                 + o.grad[..., :, None] * g[..., None, :])
        h = (self.hess - cross - o.hess * v[..., None, None]) / o.value[..., None, None]
        return Jet2(v, g, h)

    def _chain(self, v, d1, d2):
        g = self.grad * d1[..., None]
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        h = self.hess * d1[..., None, None] + outer * d2[..., None, None]
        return Jet2(v, g, h)

    def sin(self):
        return self._chain(np.sin(self.value), np.cos(self.value), -np.sin(self.value))

    def cos(self):
        return self._chain(np.cos(self.value), -np.sin(self.value), -np.cos(self.value))

    def exp(self):
        e = np.exp(self.value)
        return self._chain(e, e, e)

    def log(self, point):
        if np.any(self.value <= 0.0):
            raise EvalDomainError("log", _first_bad(point, self.value <= 0.0))
        v = np.log(self.value)
        return self._chain(v, 1.0 / self.value, -1.0 / self.value ** 2)

    def sqrt(self, point):
        if np.any(self.value < 0.0):
            raise EvalDomainError("sqrt", _first_bad(point, self.value < 0.0))
        if np.any(self.value == 0.0):
            raise EvalDomainError("sqrt", _first_bad(point, self.value == 0.0))
        s = np.sqrt(self.value)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.value))

    def powi(self, n, point):
        """Integer power by repeated multiplication (exact products)."""
        if n == 0:
            return Jet2.constant(1.0, self.value.shape, self.grad.shape[-1])
        m = abs(n)
        out = self
        for _ in range(m - 1):
            out = out * self
        if n < 0:
            one = Jet2.constant(1.0, self.value.shape, self.grad.shape[-1])
            out = one.divide(out, point)
        return out


def _first_bad(point, mask):
    """First point of the batch where the domain violation occurred."""
    pts = np.asarray(point, dtype=float)
    if pts.ndim <= 1:
        return pts
    flat_pts = pts.reshape(-1, pts.shape[-1])
    flat_mask = np.broadcast_to(np.asarray(mask), pts.shape[:-1]).reshape(-1)
    return flat_pts[int(np.argmax(flat_mask))]


def eval_jet_batch(e: Expression, points: np.ndarray) -> Jet2:
    """Evaluate at points of shape (..., d); returns batched Jet2.

    A bare point (d,) is evaluated as a one-row batch, so that it rounds
    exactly as the same point does inside a batch.
    """
    if points.ndim == 1:
        j = eval_jet_batch(e, points[None])
        return Jet2(j.value[0], j.grad[0], j.hess[0])
    if isinstance(e, Const):
        return Jet2.constant(e.value, points.shape[:-1], points.shape[-1])
    if isinstance(e, Coord):
        return Coord_eval(e, points)
    if isinstance(e, Unary):
        a = eval_jet_batch(e.arg, points)
        if e.op == "neg":
            return -a
        if e.op == "sin":
            return a.sin()
        if e.op == "cos":
            return a.cos()
        if e.op == "exp":
            return a.exp()
        if e.op == "log":
            return a.log(points)
        if e.op == "sqrt":
            return a.sqrt(points)
        raise ValueError(f"unknown function {e.op}")
    if isinstance(e, Binary):
        if e.op == "^":
            base = eval_jet_batch(e.left, points)
            expo = e.right.value
            integer = float(expo).is_integer()
            if integer and abs(expo) <= _POW_MUL_LIMIT:
                return base.powi(int(expo), points)
            pos = _pow_domain(base.value, expo, integer, points)
            # exp(e * log(base)) where the base is positive
            lg = Jet2(np.where(pos, base.value, 1.0), base.grad,
                      base.hess).log(points)
            out = Jet2(lg.value * expo, lg.grad * expo, lg.hess * expo).exp()
            if pos.all():
                return out
            # an integer power of a non-positive base: repeated products
            mul = base.powi(int(expo), points)
            return Jet2(np.where(pos, out.value, mul.value),
                        np.where(pos[..., None], out.grad, mul.grad),
                        np.where(pos[..., None, None], out.hess, mul.hess))
        a = eval_jet_batch(e.left, points)
        b = eval_jet_batch(e.right, points)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a.divide(b, points)
        raise ValueError(f"unknown operator {e.op}")
    raise TypeError(f"not an expression: {e!r}")


def Coord_eval(e, points):
    if e.index >= points.shape[-1]:
        raise ValueError(f"coordinate index {e.index} out of range for dim {points.shape[-1]}")
    return Jet2.coordinate(e.index, points)


def _pow_domain(base, expo, integer, points):
    """Where base^expo takes the exp-log route: the mask of positive bases.

    A non-integer power needs a positive base everywhere, and a negative
    integer power a non-zero one; anything else raises EvalDomainError('^').
    """
    pos = base > 0.0
    bad = ~pos if not integer else (base == 0.0) & (expo < 0)
    if np.any(bad):
        raise EvalDomainError("^", _first_bad(points, bad))
    return pos


def eval_value(e: Expression, points: np.ndarray):
    """Plain value evaluation (no derivatives); used by the FD oracle.

    A bare point (d,) is evaluated as a one-row batch, so that it rounds
    exactly as the same point does inside a batch.
    """
    if points.ndim == 1:
        return eval_value(e, points[None])[0]
    if isinstance(e, Const):
        return np.full(points.shape[:-1], e.value)
    if isinstance(e, Coord):
        return points[..., e.index].copy()
    if isinstance(e, Unary):
        a = eval_value(e.arg, points)
        if e.op == "neg":
            return -a
        if e.op == "sin":
            return np.sin(a)
        if e.op == "cos":
            return np.cos(a)
        if e.op == "exp":
            return np.exp(a)
        if e.op == "log":
            if np.any(a <= 0.0):
                raise EvalDomainError("log", _first_bad(points, a <= 0.0))
            return np.log(a)
        if e.op == "sqrt":
            if np.any(a < 0.0):
                raise EvalDomainError("sqrt", _first_bad(points, a < 0.0))
            return np.sqrt(a)
    if isinstance(e, Binary):
        if e.op == "^":
            a = eval_value(e.left, points)
            expo = e.right.value
            integer = float(expo).is_integer()
            if integer and abs(expo) <= _POW_MUL_LIMIT:
                return a ** int(expo)
            pos = _pow_domain(a, expo, integer, points)
            out = np.exp(expo * np.log(np.where(pos, a, 1.0)))
            return out if pos.all() else np.where(pos, out, a ** int(expo))
        a = eval_value(e.left, points)
        b = eval_value(e.right, points)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(b == 0.0):
                raise EvalDomainError("/", _first_bad(points, b == 0.0))
            return a / b
    raise TypeError(f"not an expression: {e!r}")


def eval_jet(e: Expression, p) -> Jet2:
    """Public single-point evaluation: exact value/gradient/Hessian at p."""
    pts = np.asarray(p, dtype=float)
    j = eval_jet_batch(e, pts)
    if pts.ndim == 1:
        return Jet2(float(j.value), j.grad, j.hess)
    return j


# ---------------------------------------------------------------------------
# Finite-difference oracle mode
# ---------------------------------------------------------------------------

def _gradient_points(q, h):
    """The 4d points of a Richardson gradient around q (..., d).

    Returns (..., 4d, d): q + h e_j, q - h e_j, q + (h/2) e_j, q - (h/2) e_j
    for j = 0..d-1, in that block order.
    """
    d = q.shape[-1]
    full = np.diag(np.full(d, h))
    half = np.diag(np.full(d, h / 2.0))
    # IEEE defines q - t as q + (-t), so the negated offsets give exactly
    # the points that subtracting them would
    out = np.repeat(q[..., None, :], 4 * d, axis=-2)
    out += np.concatenate([full, -full, half, -half])
    return out


def _richardson_gradient(f, h):
    """(4 D(h/2) - D(h)) / 3 from the values f (..., 4d) at _gradient_points."""
    d = f.shape[-1] // 4
    g1 = (f[..., :d] - f[..., d:2 * d]) / (2.0 * h)
    g2 = (f[..., 2 * d:3 * d] - f[..., 3 * d:]) / (2.0 * (h / 2.0))
    return (4.0 * g2 - g1) / 3.0


class FdStencil:
    """Richardson central-difference stencil of one point set.

    The gradient uses (4 D(h/2) - D(h)) / 3 on second-order central
    differences (fourth-order accurate); the Hessian applies the same scheme
    to the gradient map. For points (..., d) that takes 1 + 4d + 16d^2
    values per expression. Each expression is walked over the stencil six
    times: the points themselves, the 4d gradient points, and the gradient
    points around each of the four base shifts (+h, -h, +h/2, -h/2) along
    every axis, as (..., d, 4d, d) blocks. The shifted points are built on
    the first non-constant expression and then shared by the rest.

    Every stencil point is built as (points + s e_i) + t e_j, and the
    differences are combined in the same order as a point-by-point walk.
    """

    def __init__(self, points, step):
        self.points = np.asarray(points, dtype=float)
        self.step = step

    @cached_property
    def grad_points(self):
        return _gradient_points(self.points, self.step)

    @cached_property
    def hess_blocks(self):
        d = self.points.shape[-1]
        return [_gradient_points(self.grad_points[..., k * d:(k + 1) * d, :],
                                 self.step)
                for k in range(4)]

    def jet(self, e: Expression) -> Jet2:
        pts, h = self.points, self.step
        if isinstance(e, Const):
            return Jet2.constant(e.value, pts.shape[:-1], pts.shape[-1])
        # the centre gets its own walk, so a domain error names a sample point
        v = eval_value(e, pts)
        g = _richardson_gradient(eval_value(e, self.grad_points), h)
        plus, minus, half_plus, half_minus = (
            _richardson_gradient(eval_value(e, block), h)
            for block in self.hess_blocks)
        row1 = (plus - minus) / (2.0 * h)
        row2 = (half_plus - half_minus) / h
        hess = (4.0 * row2 - row1) / 3.0
        hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        return Jet2(v, g, hess)


def eval_fd(e: Expression, p, step=1e-3) -> Jet2:
    """Jet via Richardson-extrapolated central differences (see FdStencil)."""
    return FdStencil(p, step).jet(e)


@dataclass(frozen=True)
class Evaluator:
    """Evaluation context: jet mode (default) or the FD cross-check mode."""

    mode: str = "jet"
    fd_step: float = 1e-3

    def jets(self, exprs, points) -> list:
        """Jets of several expressions at the same points.

        In fd mode the stencil of the points is built once and shared.
        """
        pts = np.asarray(points, dtype=float)
        stencil = FdStencil(pts, self.fd_step) if self.mode == "fd" else None
        # one jet() call per expression: perfbench's tracer counts those
        return [self.jet(e, pts, stencil=stencil) for e in exprs]

    def jet(self, e: Expression, points, *, stencil=None) -> Jet2:
        """Jet of one expression; stencil is a prebuilt FdStencil of points."""
        pts = np.asarray(points, dtype=float)
        if self.mode == "fd":
            if stencil is None:
                stencil = FdStencil(pts, self.fd_step)
            return stencil.jet(e)
        return eval_jet_batch(e, pts)

    def value(self, e: Expression, points):
        return eval_value(e, np.asarray(points, dtype=float))


JET = Evaluator("jet")
