"""Charts, expression-defined tensor fields, and exterior calculus.

Fields hold one Expression per component; all differentiation happens at
evaluation time through jets, so a field evaluated at a point yields exact
component values, gradients and Hessians. Differential forms are stored on
strictly increasing multi-indices (antisymmetry is implicit; all residual
norms downstream are sup-norms over these components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import expr
from .expr import Evaluator, Expression


class GeomError(Exception):
    pass


class ChartMismatch(GeomError):
    pass


class DegreeOverflow(GeomError):
    pass


@dataclass(frozen=True)
class ChartDomain:
    """A single coordinate chart with a sampling box."""

    dim: int
    names: tuple
    box: tuple  # ((lo, hi),) * dim

    def __post_init__(self):
        if self.dim < 1:
            raise GeomError("chart dimension must be >= 1")
        if len(self.names) != self.dim or len(set(self.names)) != self.dim:
            raise GeomError(f"need {self.dim} distinct coordinate names")
        if len(self.box) != self.dim:
            raise GeomError("box must have one interval per coordinate")
        for lo, hi in self.box:
            if lo > hi:
                raise GeomError("box intervals need lo <= hi")


def default_box(dim, narrow_coords=()):
    """[-1,1] per coordinate, [-0.5,0.5] for exponentially warped ones."""
    return tuple((-0.5, 0.5) if i in narrow_coords else (-1.0, 1.0)
                 for i in range(dim))


def chart(names, box=None, field_exprs=()):
    names = tuple(names)
    if box is None:
        narrow = set()
        for e in field_exprs:
            narrow |= expr.coords_under_exp(e)
        box = default_box(len(names), narrow)
    return ChartDomain(len(names), names, tuple(tuple(map(float, iv)) for iv in box))


def sample_points(domain: ChartDomain, n: int, seed: int) -> np.ndarray:
    """n deterministic uniform samples from the box; same inputs, same points."""
    if n < 1:
        raise GeomError("need at least one sample point")
    rng = np.random.default_rng(seed)
    lo = np.array([iv[0] for iv in domain.box])
    hi = np.array([iv[1] for iv in domain.box])
    return lo + (hi - lo) * rng.random((n, domain.dim))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    chart: ChartDomain
    comps: tuple  # Expression per component


@dataclass(frozen=True)
class OneFormField:
    chart: ChartDomain
    comps: tuple


@dataclass(frozen=True)
class EndomorphismField:
    """(1,1) tensor; comps[i][j] is the i-th component of A(∂_j)."""

    chart: ChartDomain
    comps: tuple  # tuple of rows, each a tuple of Expressions


@dataclass(frozen=True)
class MetricField:
    """Symmetric (0,2) tensor, positive definite on the sampling box."""

    chart: ChartDomain
    comps: tuple

    def __post_init__(self):
        d = self.chart.dim
        for i in range(d):
            for j in range(d):
                if self.comps[i][j] != self.comps[j][i]:
                    raise GeomError("metric components must be symmetric")


def vector_field(chart_, comps):
    return VectorField(chart_, tuple(comps))


def one_form_field(chart_, comps):
    return OneFormField(chart_, tuple(comps))


def endo_field(chart_, comps):
    return EndomorphismField(chart_, tuple(tuple(row) for row in comps))


def metric_field(chart_, comps):
    return MetricField(chart_, tuple(tuple(row) for row in comps))


def same_chart(*fields):
    c0 = fields[0].chart
    for f in fields[1:]:
        if f.chart != c0:
            raise ChartMismatch("fields live on different charts")
    return c0


# Expression-level field algebra (builds new ASTs; needed wherever a derived
# field must itself be differentiated, e.g. brackets of phi-images).

def endo_apply_field(A: EndomorphismField, X: VectorField) -> VectorField:
    same_chart(A, X)
    d = A.chart.dim
    comps = [expr.add_many(expr.mul(A.comps[i][j], X.comps[j]) for j in range(d))
             for i in range(d)]
    return VectorField(A.chart, tuple(comps))


def metric_pair_field(g: MetricField, X: VectorField, Y: VectorField) -> Expression:
    same_chart(g, X, Y)
    d = g.chart.dim
    return expr.add_many(expr.mul(expr.mul(g.comps[i][j], X.comps[i]), Y.comps[j])
                         for i in range(d) for j in range(d))


def coordinate_field(chart_, i) -> VectorField:
    return VectorField(chart_, tuple(expr.const(1.0 if j == i else 0.0)
                                     for j in range(chart_.dim)))


# ---------------------------------------------------------------------------
# Batched field evaluation
# ---------------------------------------------------------------------------

def _eval_comps(ev: Evaluator, comps, points, order=2):
    """Stacked jets of a nested tuple of component expressions.

    For comps nested to shape S (a bare expression has S = ()), returns
    val[..., *S], grad[..., *S, m] = d_m and hess[..., *S, m, n], batched
    over the leading axes of points. Each distinct expression is evaluated
    once per call, so the mirrored half of a metric costs one jet. A finite
    constant component (the ZERO entries, structure constants) is not
    evaluated at all: its value is written and its derivatives stay zero.

    order 0 keeps the values, 1 adds the gradients and 2 the Hessians; in
    jet mode the orders above it are not allocated and come back as None.
    fd mode returns every order, since its stencil has built them anyway.
    """
    pts = np.asarray(points, dtype=float)
    if ev.mode == "fd":
        order = 2
    shape, flat = (), [comps]
    while flat and isinstance(flat[0], tuple):
        shape += (len(flat[0]),)
        flat = [e for row in flat for e in row]
    unique = {}
    slots = [None if isinstance(e, expr.Const) and math.isfinite(e.value)
             else unique.setdefault(e, len(unique)) for e in flat]
    jets = ev.jets(unique, pts)
    base, d = pts.shape[:-1], pts.shape[-1]
    # out[k] holds the order-k derivatives, k trailing axes of length d
    out = [np.empty(base + shape)] + [np.zeros(base + shape + (d,) * k)
                                      for k in range(1, order + 1)]
    flat_out = [a.reshape(base + (-1,) + (d,) * k) for k, a in enumerate(out)]
    lead = (slice(None),) * len(base)
    for c, (e, slot) in enumerate(zip(flat, slots)):
        at = lead + (c,)
        if slot is None:
            flat_out[0][at] = e.value
            continue
        j = jets[slot]
        for a, part in zip(flat_out, (j.value, j.grad, j.hess)):
            a[at] = part
    return tuple(out) + (None,) * (2 - order)


def eval_scalar(ev: Evaluator, e: Expression, points):
    """(value, grad, hess) of a scalar expression, batched over points."""
    return _eval_comps(ev, e, points)


def scalar_values(ev: Evaluator, e: Expression, points):
    """The values of a scalar expression as a (p,) stack over the points."""
    v = np.asarray(ev.value(e, points), dtype=float)
    return np.broadcast_to(v, (points.shape[0],))


def eval_vector(ev: Evaluator, X: VectorField, points, order=2):
    """Stacked jets: val[..., k], grad[..., k, m] = d_m X^k, hess[..., k, m, n]."""
    return _eval_comps(ev, X.comps, points, order)


def eval_endo(ev: Evaluator, A: EndomorphismField, points, order=2):
    """val[..., i, j], grad[..., i, j, m], hess[..., i, j, m, n]."""
    return _eval_comps(ev, A.comps, points, order)


def eval_oneform(ev: Evaluator, eta: OneFormField, points, order=2):
    """val[..., k], grad[..., k, m], hess[..., k, m, n]."""
    return _eval_comps(ev, eta.comps, points, order)


def eval_metric(ev: Evaluator, g: MetricField, points):
    """val[..., i, j], grad[..., i, j, m], hess[..., i, j, m, n]."""
    return _eval_comps(ev, g.comps, points)


def lie_bracket(ev: Evaluator, X: VectorField, Y: VectorField, p) -> np.ndarray:
    """[X,Y]^k = X^i d_i Y^k - Y^i d_i X^k, derivatives from jets."""
    same_chart(X, Y)
    xv, xg, _ = eval_vector(ev, X, p)
    yv, yg, _ = eval_vector(ev, Y, p)
    return np.einsum("...i,...ki->...k", xv, yg) - np.einsum("...i,...ki->...k", yv, xg)


# ---------------------------------------------------------------------------
# Differential forms
# ---------------------------------------------------------------------------

def form_indices(dim, k):
    return list(combinations(range(dim), k))


@dataclass(frozen=True)
class KFormValue:
    """Pointwise k-form on strictly increasing multi-indices."""

    dim: int
    degree: int
    comps: np.ndarray  # length C(dim, degree), after any leading axes


@dataclass(frozen=True)
class KFormField:
    """k-form field with Expression components on increasing multi-indices."""

    chart: ChartDomain
    degree: int
    comps: tuple  # Expressions, one per increasing multi-index

    def indices(self):
        return form_indices(self.chart.dim, self.degree)


def one_form_as_kform(eta: OneFormField) -> KFormField:
    return KFormField(eta.chart, 1, tuple(eta.comps))


def kform_from_components(chart_, degree, comp_map):
    """Build a k-form field from {multi-index tuple: Expression}."""
    idxs = form_indices(chart_.dim, degree)
    comps = [comp_map.get(idx, expr.ZERO) for idx in idxs]
    return KFormField(chart_, degree, tuple(comps))


def _perm_sign(seq):
    """Sign of the permutation sorting seq; 0 if repeated entries."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0, tuple(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, tuple(sorted(seq))


def wedge_values(alpha: KFormValue, beta: KFormValue) -> KFormValue:
    """Alternating wedge with shuffle signs on increasing-index storage.

    The components may carry leading (points) axes, (..., C) each.
    """
    if alpha.dim != beta.dim:
        raise ChartMismatch("wedge of forms on different spaces")
    dim = alpha.dim
    k, l = alpha.degree, beta.degree
    if k + l > dim:
        raise DegreeOverflow(f"wedge degree {k}+{l} exceeds dimension {dim}")
    out_idx = form_indices(dim, k + l)
    pos = {idx: i for i, idx in enumerate(out_idx)}
    a, b = np.asarray(alpha.comps), np.asarray(beta.comps)
    comps = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                     + (len(out_idx),))
    aidx = form_indices(dim, k)
    bidx = form_indices(dim, l)
    for ia, I in enumerate(aidx):
        if not np.any(a[..., ia]):
            continue
        for ib, Jw in enumerate(bidx):
            sign, merged = _perm_sign(I + Jw)
            if sign == 0:
                continue
            comps[..., pos[merged]] += sign * a[..., ia] * b[..., ib]
    return KFormValue(dim, k + l, comps)


def wedge_fields(alpha: KFormField, beta: KFormField) -> KFormField:
    """Expression-level wedge; components remain expressions."""
    same_chart(alpha, beta)
    dim = alpha.chart.dim
    k, l = alpha.degree, beta.degree
    if k + l > dim:
        raise DegreeOverflow(f"wedge degree {k}+{l} exceeds dimension {dim}")
    out_idx = form_indices(dim, k + l)
    pos = {idx: i for i, idx in enumerate(out_idx)}
    comps = [expr.ZERO] * len(out_idx)
    for ia, I in enumerate(form_indices(dim, k)):
        for ib, Jw in enumerate(form_indices(dim, l)):
            sign, merged = _perm_sign(I + Jw)
            if sign == 0:
                continue
            term = expr.mul(alpha.comps[ia], beta.comps[ib])
            if sign < 0:
                term = expr.neg(term)
            comps[pos[merged]] = expr.add(comps[pos[merged]], term)
    return KFormField(alpha.chart, k + l, tuple(comps))


def wedge_power_field(omega: KFormField, m: int) -> KFormField:
    out = omega
    for _ in range(m - 1):
        out = wedge_fields(out, omega)
    return out


def eval_form(ev: Evaluator, omega: KFormField, p):
    """(comps, grads, hesses) of the stored components at p."""
    return _eval_comps(ev, omega.comps, p)


def _d_from_grads(dim, k, grads):
    """Components of dω from component gradients.

    grads has shape (..., C(dim,k), dim); returns (..., C(dim,k+1)) with
    (dω)_{i0..ik} = sum_l (-1)^l ∂_{i_l} ω_{i0..î_l..ik}.
    """
    in_idx = form_indices(dim, k)
    in_pos = {idx: i for i, idx in enumerate(in_idx)}
    out_idx = form_indices(dim, k + 1)
    out = np.zeros(grads.shape[:-2] + (len(out_idx),))
    for o, I in enumerate(out_idx):
        acc = 0.0
        for l in range(k + 1):
            rest = I[:l] + I[l + 1:]
            acc = acc + (-1.0) ** l * grads[..., in_pos[rest], I[l]]
        out[..., o] = acc
    return out


def _d_from_grads_and_hess(dim, k, grads, hesses):
    """dω components together with their first derivatives.

    The derivative of dω is d applied to the Hessian, with the outer
    derivative axis moved to the front and back again.
    """
    grad = _d_from_grads(dim, k, np.moveaxis(hesses, -1, 0))
    return _d_from_grads(dim, k, grads), np.moveaxis(grad, 0, -1)


def exterior_derivative(ev: Evaluator, omega: KFormField, p) -> KFormValue:
    """dω at p (single point)."""
    if omega.degree >= omega.chart.dim:
        raise DegreeOverflow(
            f"d of a degree-{omega.degree} form on dim {omega.chart.dim}")
    _, grads, _ = eval_form(ev, omega, p)
    comps = _d_from_grads(omega.chart.dim, omega.degree, grads)
    return KFormValue(omega.chart.dim, omega.degree + 1, comps)


def exterior_derivative_jet(ev: Evaluator, omega: KFormField, p):
    """dω with component first derivatives (for d∘d and d^c pipelines)."""
    if omega.degree >= omega.chart.dim:
        raise DegreeOverflow(
            f"d of a degree-{omega.degree} form on dim {omega.chart.dim}")
    _, grads, hesses = eval_form(ev, omega, p)
    return _d_from_grads_and_hess(omega.chart.dim, omega.degree, grads, hesses)


def d_of_jet_form(dim, k, comps, grads) -> np.ndarray:
    """d applied to a numerically known k-form with known gradients."""
    if k >= dim:
        raise DegreeOverflow(f"d of a degree-{k} form on dim {dim}")
    return _d_from_grads(dim, k, grads)


def pair_form_vectors(omega: KFormValue, vectors) -> float:
    """omega(X_1, ..., X_k) for pointwise vector values."""
    k = omega.degree
    if len(vectors) != k:
        raise GeomError(f"degree-{k} form needs {k} vector arguments")
    if k == 0:
        return float(omega.comps[0])
    X = np.column_stack(vectors)  # X[:, c] = X_c
    total = 0.0
    for s, I in enumerate(form_indices(omega.dim, k)):
        w = omega.comps[s]
        if w == 0.0:
            continue
        total += w * np.linalg.det(X[list(I), :])
    return float(total)


def endo_pullback(A: np.ndarray, omega: KFormValue) -> KFormValue:
    """(A*ω)(X_1..X_k) = ω(A X_1, .., A X_k): endo_pullback_jet without
    derivative directions."""
    A = np.asarray(A, dtype=float)
    comps, _ = endo_pullback_jet(A, np.empty(A.shape + (0,)), omega.degree,
                                 omega.comps, np.empty(omega.comps.shape + (0,)))
    return KFormValue(omega.dim, omega.degree, comps)


# Points per block of endo_pullback_jet (see there for why it blocks).
PULLBACK_BLOCK = 8
# Minors up to this size are Leibniz sums of gathered entries, which keep
# the exact zeros of a structured A; larger ones go to LAPACK.
LEIBNIZ_MAX = 4


def _minors(A, idx):
    """det A[..., idx[a], idx[b]] -> (..., R, R) for increasing index rows
    idx (R, s).

    Up to size LEIBNIZ_MAX a minor is the signed sum over permutations of
    products of its entries, so a minor that is singular by its zero pattern
    is exactly 0, where LU can leave roundoff.
    """
    s = idx.shape[1]
    if s > LEIBNIZ_MAX:
        return np.linalg.det(A[..., idx[:, None, :, None], idx[None, :, None, :]])
    out = np.zeros(A.shape[:-2] + (len(idx), len(idx)))
    for perm in permutations(range(s)):
        term = float(_perm_sign(perm)[0])
        for r in range(s):
            term = term * A[..., idx[:, None, r], idx[None, :, perm[r]]]
        out += term
    return out


def endo_pullback_jet(A: np.ndarray, Agrad: np.ndarray, k: int, comps, grads):
    """Pullback of a numeric k-form with gradients by A with gradients.

    (A*ω)_I = sum_J ω_J det A[J, I] over increasing multi-indices, and the
    derivative of a minor is its Laplace expansion along the differentiated
    row,

        d_m det A[J, I] = sum_{r,c} (-1)^(r+c) det A[J-J_r, I-I_c] d_m A[J_r, I_c],

    which is the sum over r of the minor with row r replaced by its
    derivative. So a singular minor (a structured J has many) gets its exact
    derivative, which Jacobi's formula would not give. Each cofactor is a
    (k-1)-minor of A itself: the C(d,k-1)^2 of them are computed once per
    point, as Leibniz products up to size LEIBNIZ_MAX and by LAPACK above
    it (see _minors). Summed over (J, r) first and then over c, the
    gradient is two batched matmuls and one gather.

    The k-minor values are one batched LAPACK det per block, the same det
    of the same matrices as a det per minor. Points go in blocks of
    PULLBACK_BLOCK = 8 because the (b, C, C, k, k) minor stack is the
    largest array: at (d, k, p) = (8, 5, 64) an all-points stack raised the
    peak memory by 40 MB, blocks of 8 by 11 MB (and ran faster). A fixed
    block also keeps each point's row bitwise the same in any batch.

    A: (p, d, d); Agrad: (p, d, d, m) with Agrad[., i, j, m] = d_m A[i, j];
    comps: (p, C); grads: (p, C, m), C = C(d, k). The points axis p may be
    left out on all four. Returns the pulled (comps', grads').
    """
    A, Agrad, comps, grads = (np.asarray(x, dtype=float)
                              for x in (A, Agrad, comps, grads))
    single = A.ndim == 2
    if single:
        A, Agrad, comps, grads = A[None], Agrad[None], comps[None], grads[None]
    p, d, m = A.shape[0], A.shape[-1], Agrad.shape[-1]
    idxs = form_indices(d, k)
    C = len(idxs)
    idx = np.array(idxs, dtype=np.intp).reshape(C, k)
    if k:
        # sub[drop[I, c]] = I without its c-th index, with sign (-1)^c
        subs = form_indices(d, k - 1)
        sub = np.array(subs, dtype=np.intp).reshape(len(subs), k - 1)
        pos = {S: a for a, S in enumerate(subs)}
        drop = np.array([[pos[I[:c] + I[c + 1:]] for c in range(k)]
                         for I in idxs], dtype=np.intp).reshape(C, k)
        sign = (-1.0) ** np.arange(k)
    out_v = np.empty((p, C))
    out_g = np.empty((p, C, m))
    for lo in range(0, p, PULLBACK_BLOCK):
        blk = slice(lo, lo + PULLBACK_BLOCK)
        Ab, cb = A[blk], comps[blk]
        b = Ab.shape[0]
        det = np.linalg.det(Ab[:, idx[:, None, :, None],
                               idx[None, :, None, :]])  # (b, J, I)
        out_v[blk] = np.einsum("bj,bji->bi", cb, det)
        out_g[blk] = np.einsum("bjm,bji->bim", grads[blk], det)
        if k:
            # W[R, i] = (-1)^r ω_J for J = R + {i} with i = J_r
            W = np.zeros((b, len(sub), d))
            W[:, drop, idx] = cb[:, :, None] * sign
            T = np.matmul(W.transpose(0, 2, 1), _minors(Ab, sub))
            # U[S, j, m] = sum_i T[i, S] d_m A[i, j]
            U = np.matmul(T.transpose(0, 2, 1), Agrad[blk].reshape(b, d, d * m))
            U = U.reshape(b, len(sub), d, m)
            out_g[blk] += np.einsum("c,bicm->bim", sign, U[:, drop, idx])
    return (out_v[0], out_g[0]) if single else (out_v, out_g)
