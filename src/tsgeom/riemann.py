"""Levi-Civita connection and curvature, computed generically from a metric.

Everything in this module is derived from metric jets alone (values, first
and second derivatives of the metric components), so it serves as the
ground-truth oracle against which closed-form identities are tested.

Index conventions, batched over a leading points axis where present:
    g0[..., i, j]               metric
    g1[..., i, j, m] = d_m g_ij
    g2[..., i, j, m, n]
    ginv0[..., i, j]            inverse metric g^ij
    ginv1[..., i, j, m] = d_m g^ij
    gamma0[..., k, i, j]        Christoffel symbols, symmetric in (i, j)
    gamma1[..., k, i, j, m] = d_m Gamma^k_ij
    riem[..., l, k, i, j]       R(d_i, d_j) d_k = riem[l,k,i,j] d_l
    C0[..., i, j, m]            (nabla_{d_m} A)^i_j of an endomorphism A
    C1[..., i, j, m, n] = d_n C0

MetricData holds g0 ... gamma1 and riemann() returns riem, each of shape
(p, d, ...) with the points axis first; nabla_endo_all returns C0 and C1.
All of them are C-contiguous in the index order above. The contractions
that build them are batched matrix products over the points axis, so a
later product over the trailing indices reads them with unit stride.

Frames are (n, d) arrays whose rows are the frame vectors, so iterating,
len and slicing walk the vectors, and a residual norm is one product with
the frame: max|F g v| for a vector, max|F g M F^T| for an endomorphism.
Over the points they stack to (p, n, d), and the residual norms then give
one maximum per point, or per point and column for a stack of columns.
"""

from __future__ import annotations

import numpy as np

from . import geom
from .expr import Evaluator
from .geom import EndomorphismField, MetricField, VectorField, same_chart


class RiemannError(Exception):
    pass


class SingularMetric(RiemannError):
    def __init__(self, point, smallest_eig):
        pt = tuple(float(x) for x in np.atleast_1d(point))
        super().__init__(
            f"metric not positive definite at {pt} (min eigenvalue {smallest_eig:.3e})")
        self.point = pt
        self.smallest_eig = float(smallest_eig)


class DependentPreferredVectors(RiemannError):
    pass


_EIG_FLOOR = 1e-12


class MetricData:
    """Metric, inverse and Christoffel jets at a batch of points."""

    def __init__(self, ev: Evaluator, g: MetricField, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        self.points = pts
        self.g0, self.g1, self.g2 = geom.eval_metric(ev, g, pts)
        eigs = np.linalg.eigvalsh(self.g0)
        worst = int(np.argmin(eigs[:, 0]))
        if eigs[worst, 0] <= _EIG_FLOOR:
            raise SingularMetric(pts[worst], eigs[worst, 0])
        p, d = pts.shape[0], self.dim
        gi = self.ginv0 = np.linalg.inv(self.g0)
        # d_m(g^-1) = -g^-1 (d_m g) g^-1, one product per derivative axis m
        dgi = gi[:, None] @ np.moveaxis(self.g1, 3, 1) @ gi[:, None]
        self.ginv1 = np.negative(dgi.transpose(0, 2, 3, 1), order="C")
        # Koszul: T_lij = (d_i g_jl + d_j g_il - d_l g_ij) / 2
        T = 0.5 * (np.einsum("pjli->plij", self.g1)
                   + np.einsum("pilj->plij", self.g1)
                   - np.einsum("pijl->plij", self.g1))
        # d_m T_lij: g2 is exactly symmetric in its first two indices (a
        # metric's mirrored entries are one expression), so the first term
        # d_m d_i g_jl = g2[l, j, i, m] and the second d_m d_j g_il =
        # g2[l, i, j, m] are two views of g2, the second one g2 itself
        dT = self.g2.transpose(0, 1, 3, 2, 4) + self.g2
        dT -= np.einsum("pijlm->plijm", self.g2)
        dT *= 0.5
        self.gamma0 = (gi @ T.reshape(p, d, d * d)).reshape(p, d, d, d)
        # gamma1[k, (i, j), m] = g^kl d_m T_lij + d_m g^kl T_lij; the second
        # product is written over dT, which the first one has consumed
        gamma1 = (gi @ dT.reshape(p, d, d ** 3)).reshape(p, d, d * d, d)
        gamma1 += np.matmul(T.reshape(p, 1, d, d * d).swapaxes(2, 3),
                            self.ginv1, out=dT.reshape(gamma1.shape))
        self.gamma1 = gamma1.reshape(p, d, d, d, d)
        self._riem = None

    @property
    def dim(self):
        return self.g0.shape[-1]

    @property
    def npts(self):
        return self.g0.shape[0]

    def riemann(self):
        """riem[p, l, k, i, j] so that R(d_i, d_j) d_k = riem[l,k,i,j] d_l."""
        if self._riem is None:
            G0, G1 = self.gamma0, self.gamma1
            p, d = self.npts, self.dim
            # Q[l, a, b, c] = Gamma^l_am Gamma^m_bc
            Q = (G0.reshape(p, d * d, d) @ G0.reshape(p, d, d * d)
                 ).reshape(p, d, d, d, d)
            # D[l, j, k, i] = d_i Gamma^l_jk - Gamma^l_jm Gamma^m_ik, so that
            # riem[l, k, i, j] = D[l, j, k, i] - D[l, i, k, j]
            D = G1 - Q.swapaxes(3, 4)
            # written over Q, which D has consumed
            self._riem = np.subtract(D.transpose(0, 1, 3, 4, 2),
                                     D.transpose(0, 1, 3, 2, 4), out=Q)
        return self._riem


def christoffel(ev: Evaluator, g: MetricField, p) -> np.ndarray:
    """Christoffel symbols gamma[k, i, j] at a single point p."""
    md = MetricData(ev, g, np.asarray(p, dtype=float))
    return md.gamma0[0]


def curvature_values(md: MetricData, i, X, Y, Z) -> np.ndarray:
    """R(X, Y) Z from vector values at point index i of md, or at every
    point for i = ... with (p, d) stacks X, Y, Z. With a trailing axis of N
    columns, (d, N) or (p, d, N), it gives R(X, Y) Z column by column.

    The products X^i Y^j come first, so that one matrix product with
    riem[(l, k), (i, j)] contracts both slots; k is contracted with Z last.
    """
    r = md.riemann()[i]
    lead, d = r.shape[:-4], r.shape[-1]
    cols = X.ndim == r.ndim - 2
    if not cols:
        X, Y, Z = X[..., None], Y[..., None], Z[..., None]
    n = X.shape[-1]
    XY = (X[..., :, None, :] * Y[..., None, :, :]).reshape(lead + (d * d, n))
    t = (r.reshape(lead + (d * d, d * d)) @ XY).reshape(lead + (d, d, n))
    out = np.einsum("...lkn,...kn->...ln", t, Z)
    return out if cols else out[..., 0]


def covariant_derivative_vector(ev: Evaluator, g: MetricField, X: VectorField,
                                Y: VectorField, p) -> np.ndarray:
    """(nabla_X Y)^k = X^i (d_i Y^k + Gamma^k_ij Y^j) at a single point."""
    same_chart(g, X, Y)
    md = MetricData(ev, g, p)
    xv, _, _ = geom.eval_vector(ev, X, md.points)
    yv, yg, _ = geom.eval_vector(ev, Y, md.points)
    out = np.einsum("pi,pki->pk", xv, yg) + np.einsum("pi,pkij,pj->pk",
                                                      xv, md.gamma0, yv)
    return out[0]


def cov_vector_at(md: MetricData, i, Xval, Yval, Ygrad) -> np.ndarray:
    """nabla_X Y from pointwise data (X enters pointwise) at point index i
    of md, or at every point for i = ... with (p, d) and (p, d, d) stacks.
    With a trailing axis of N columns on all three, (p, d, N) and
    (p, d, d, N) stacks, it gives nabla_X Y column by column."""
    G = md.gamma0[i]
    n = "n" if Xval.ndim == G.ndim - 1 else ""
    return (np.einsum(f"...ki{n},...i{n}->...k{n}", Ygrad, Xval)
            + np.einsum(f"...kij,...i{n},...j{n}->...k{n}", G, Xval, Yval))


def cov_vector_jet(md: MetricData, i, Xval, Xgrad, Yval, Ygrad, Yhess):
    """nabla_X Y at point index i, or at every point for i = ..., with its
    first derivatives.

    Returns (W, dW) with W^k and dW[k, n] = d_n W^k; X, Y enter as
    (value, gradient[, Hessian]) data of vector fields at the point, or as
    (p, d), (p, d, d) and (p, d, d, d) stacks.
    """
    G0 = md.gamma0[i]
    G1 = md.gamma1[i]
    inner = Ygrad + np.einsum("...kij,...j->...ki", G0, Yval)  # d_i Y^k + Gamma Y
    W = np.einsum("...ki,...i->...k", inner, Xval)
    dW = (np.einsum("...in,...ki->...kn", Xgrad, inner)
          + np.einsum("...i,...kin->...kn", Xval, Yhess)
          + np.einsum("...i,...kijn,...j->...kn", Xval, G1, Yval)
          + np.einsum("...i,...kij,...jn->...kn", Xval, G0, Ygrad))
    return W, dW


def nabla_endo_all(md: MetricData, Aval, Agrad, Ahess):
    """Covariant derivative of an endomorphism field in every direction.

    C0[p, i, j, m] = (nabla_{d_m} A)^i_j and C1[p, i, j, m, n] = d_n C0.
    A enters as batched (value, gradient, Hessian) arrays.
    """
    G0, G1 = md.gamma0, md.gamma1
    p, d = Aval.shape[:2]
    G0_im_k = G0.reshape(p, d * d, d)
    G0_k_mj = G0.reshape(p, d, d * d)
    # C0 = dA + Gamma^i_mk A^k_j - A^i_k Gamma^k_mj, the products as [i, m, j]
    C0 = Agrad.copy()
    C0 += (G0_im_k @ Aval).reshape(p, d, d, d).transpose(0, 1, 3, 2)
    C0 -= (Aval @ G0_k_mj).reshape(p, d, d, d).transpose(0, 1, 3, 2)
    # d_n of those terms. The four products come out as [i, m, j, n]; S sums
    # them, and buf holds the later three in turn and then C1 as [i, j, m, n].
    # Reusing buf matters: each fresh (p, d^4) array costs page faults that
    # took longer than the products themselves.
    S = (Aval.swapaxes(1, 2)[:, None] @ G1.reshape(p, d * d, d, d)
         ).reshape(p, d * d, d * d)
    buf = G0_im_k @ Agrad.reshape(p, d, d * d)
    S += buf
    S -= np.matmul(G0_k_mj.swapaxes(1, 2)[:, None], Agrad,
                   out=buf.reshape(p, d, d * d, d)).reshape(S.shape)
    S -= np.matmul(Aval, G1.reshape(p, d, d ** 3),
                   out=buf.reshape(p, d, d ** 3)).reshape(S.shape)
    C1 = np.add(Ahess, S.reshape(p, d, d, d, d).transpose(0, 1, 3, 2, 4),
                out=buf.reshape(p, d, d, d, d))
    return C0, C1


def covariant_derivative_endo(ev: Evaluator, g: MetricField,
                              A: EndomorphismField, X: VectorField, p):
    """(nabla_X A) as a matrix in the chart basis, at a single point."""
    same_chart(g, A, X)
    md = MetricData(ev, g, p)
    av, ag, ah = geom.eval_endo(ev, A, md.points)
    xv, _, _ = geom.eval_vector(ev, X, md.points)
    C0, _ = nabla_endo_all(md, av, ag, ah)
    return along(C0, xv)[0]


def along(T, v):
    """T contracted with the vector stack v (p, d) over its last axis, at
    every point: the direction slot of C0 or C1 (see nabla_endo_all)."""
    p, d = v.shape
    return (T.reshape(p, -1, d) @ v[..., None]).reshape(T.shape[:-1])


def second_cov_endo_const(md: MetricData, C0, C1, S):
    """sum_{m,n} S[m, n] (nabla^2_{d_n, d_m} A) at every point, for a
    (p, d, d) weight S.

    The weight S[m, n] = V^m U^n of vector stacks U, V (p, d) gives
    nabla^2_{U,V} A; the weight F^T F of frames F (p, n, d) gives the trace
    over the frame vectors. C0, C1 are the batched covariant derivative of A
    and its gradient (see nabla_endo_all). Uses the constant extension of V:
    nabla_U (nabla_V A) - nabla_{nabla_U V} A is then bilinear in (U, V),
    and it is tensorial in both slots, so the extension does not matter.
    """
    G0 = md.gamma0
    p, d = S.shape[:2]
    # U^n d_n (nabla_V A) = C1[i, j, m, n] S[m, n]
    out = (C1.reshape(p, d * d, d * d) @ S.reshape(p, d * d, 1)
           ).reshape(p, d, d)
    # Y[k, j, n] = C0[k, j, m] S[m, n]; the commutator of nabla_V A with
    # Gamma^i_nk U^n is Gamma^i_nk Y[k, j, n] - Y[i, k, n] Gamma^k_nj. Each
    # term takes Y in the layout it needs straight from C0, as [n, k, j]
    # and as [i, k, n], so that no transposed copy of Y is made.
    C0_kj_m = C0.reshape(p, d * d, d)
    out += G0.reshape(p, d, d * d) @ (S.swapaxes(1, 2) @ C0_kj_m.swapaxes(
        1, 2)).reshape(p, d * d, d)
    out -= (C0_kj_m @ S).reshape(p, d, d * d) @ G0.reshape(p, d * d, d)
    # nabla_U V for constant V: W^l = Gamma^l_nk S[k, n]
    W = G0.reshape(p, d, d * d) @ S.swapaxes(1, 2).reshape(p, d * d, 1)
    out -= (C0_kj_m @ W).reshape(p, d, d)
    return out


def curvature(ev: Evaluator, g: MetricField, X: VectorField, Y: VectorField,
              Z: VectorField, p) -> np.ndarray:
    """R(X,Y)Z at p, assembled from Gamma and its derivatives."""
    same_chart(g, X, Y, Z)
    md = MetricData(ev, g, p)
    xv, _, _ = geom.eval_vector(ev, X, md.points)
    yv, _, _ = geom.eval_vector(ev, Y, md.points)
    zv, _, _ = geom.eval_vector(ev, Z, md.points)
    return curvature_values(md, 0, xv[0], yv[0], zv[0])


def curvature_via_definition(ev: Evaluator, g: MetricField, X: VectorField,
                             Y: VectorField, Z: VectorField, p) -> np.ndarray:
    """R(X,Y)Z from nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.

    Cross-check of the tensor assembly; differentiates the derived field
    p -> (nabla_Y Z)_p through jets.
    """
    same_chart(g, X, Y, Z)
    md = MetricData(ev, g, p)
    xv, xg, xh = geom.eval_vector(ev, X, md.points)
    yv, yg, yh = geom.eval_vector(ev, Y, md.points)
    zv, zg, zh = geom.eval_vector(ev, Z, md.points)
    i = 0
    W_yz, dW_yz = cov_vector_jet(md, i, yv[i], yg[i], zv[i], zg[i], zh[i])
    W_xz, dW_xz = cov_vector_jet(md, i, xv[i], xg[i], zv[i], zg[i], zh[i])
    t1 = cov_vector_at(md, i, xv[i], W_yz, dW_yz)
    t2 = cov_vector_at(md, i, yv[i], W_xz, dW_xz)
    br = np.einsum("i,ki->k", xv[i], yg[i]) - np.einsum("i,ki->k", yv[i], xg[i])
    t3 = cov_vector_at(md, i, br, zv[i], zg[i])
    return t1 - t2 - t3


def second_covariant_derivative_endo(ev: Evaluator, g: MetricField,
                                     A: EndomorphismField, U: VectorField,
                                     V: VectorField, p) -> np.ndarray:
    """(nabla^2_{U,V} A) at p for vector-field arguments."""
    same_chart(g, A, U, V)
    md = MetricData(ev, g, p)
    av, ag, ah = geom.eval_endo(ev, A, md.points)
    uv, _, _ = geom.eval_vector(ev, U, md.points)
    vv, vg, _ = geom.eval_vector(ev, V, md.points)
    C0, C1 = nabla_endo_all(md, av, ag, ah)
    i = 0
    G0 = md.gamma0[i]
    # field extension of V: B = nabla_V A with gradient
    B0 = np.einsum("ijm,m->ij", C0[i], vv[i])
    B1 = (np.einsum("ijmn,m->ijn", C1[i], vv[i])
          + np.einsum("ijm,mn->ijn", C0[i], vg[i]))
    nUB = (np.einsum("ijn,n->ij", B1, uv[i])
           + np.einsum("n,ink,kj->ij", uv[i], G0, B0)
           - np.einsum("ik,n,knj->ij", B0, uv[i], G0))
    W = cov_vector_at(md, i, uv[i], vv[i], vg[i])
    return nUB - np.einsum("ijm,m->ij", C0[i], W)


def orthonormal_frame(g0: np.ndarray, preferred=(), pivot=1e-10):
    """Gram-Schmidt frame for the inner product g0, preferred vectors first.

    Preferred vectors are normalized then orthogonalized in order; the frame
    is completed from coordinate basis vectors in index order, skipping
    near-dependent candidates. Deterministic by construction.
    """
    d = g0.shape[0]
    frame = []

    def gdot(u, v):
        return float(u @ g0 @ v)

    for v in preferred:
        w = np.asarray(v, dtype=float).copy()
        for u in frame:
            w -= gdot(u, w) * u
        norm = np.sqrt(max(gdot(w, w), 0.0))
        if norm < pivot:
            raise DependentPreferredVectors(
                f"preferred vector {v} is g-dependent on the previous ones")
        frame.append(w / norm)
    for i in range(d):
        if len(frame) == d:
            break
        w = np.zeros(d)
        w[i] = 1.0
        for u in frame:
            w -= gdot(u, w) * u
        norm = np.sqrt(max(gdot(w, w), 0.0))
        if norm < pivot:
            continue
        frame.append(w / norm)
    if len(frame) != d:
        raise RiemannError("could not complete an orthonormal frame")
    return np.array(frame)


def orthonormal_frame_within(g0: np.ndarray, candidates, pivot=1e-10):
    """Gram-Schmidt a candidate list at every point (no completion).

    g0 is (p, d, d) and candidates (p, k, d); returns the (p, n, d) frames
    of the n candidates kept. Near-dependent candidates are skipped with the
    same pivot rule as orthonormal_frame; used to orthonormalize
    block-spanning sets. A candidate kept at some points and skipped at
    others raises RiemannError, since the frames would not stack.
    """
    def gdot(u, w):
        return (u[:, None, :] @ g0 @ w[:, :, None])[:, 0, 0]

    frame = []
    for c in range(candidates.shape[1]):
        w = np.array(candidates[:, c], dtype=float)
        for u in frame:
            w -= gdot(u, w)[:, None] * u
        norm = np.sqrt(np.maximum(gdot(w, w), 0.0))
        skip = norm < pivot
        if skip.all():
            continue
        if skip.any():
            bad = int(np.argmax(skip))
            raise RiemannError(
                f"candidate {c} is g-dependent on the previous ones at point "
                f"index {bad} but not at every point")
        frame.append(w / norm[:, None])
    if not frame:
        return np.zeros(candidates.shape[:1] + (0, g0.shape[-1]))
    return np.stack(frame, axis=1)


def vector_residual_norm(g0: np.ndarray, frame, vec: np.ndarray):
    """Sup-norm of the frame components (g-inner products with the frame).

    g0 is (p, d, d), frame (p, n, d) and vec (p, d), or a stack of N column
    vectors (p, d, N); returns the (p,) per-point maxima, or the (p, N)
    maxima of each column.
    """
    one = vec.ndim == 2
    top = np.abs(frame @ g0 @ (vec[:, :, None] if one else vec)).max(axis=1)
    return top[:, 0] if one else top


def endo_residual_norm(g0: np.ndarray, frame, M: np.ndarray):
    """Sup over frame vectors of the residual of M applied to them: the (p,)
    per-point maxima for stacks g0, frame and M with a leading points axis."""
    return np.abs(frame @ g0 @ M @ frame.swapaxes(1, 2)).max(axis=(1, 2))
