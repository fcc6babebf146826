"""Harmonicity of the product complex structure, and the astheno check.

The harmonicity criterion for an integrable J is [J, P] = nabla_{deltaJ} J,
with P the curvature contraction P X = (1/2) sum_i R(u_i, J u_i) X and
deltaJ = sum_i (nabla_{u_i} J)(u_i) over a G-orthonormal frame. The rough
Laplacian identity [J, nabla*nabla J] = 2 (nabla_{deltaJ} J - [J, P]) is
verified alongside as a consistency check (it is a theorem for integrable
J, independent of any closed form under test).
"""

from __future__ import annotations

import numpy as np

from . import expr, geom, riemann
from .contact import factor_for_class
from .expr import Evaluator
from .geom import KFormField, form_indices, kform_from_components
from .product import (
    DEFAULT_AB_GRID, ProductData, ProductHermitian, build_product,
    integrability_report,
)
from .report import CheckReport, FAIL_FACTOR, ResidualTracker


class HarmonicError(Exception):
    pass


class NotIntegrable(HarmonicError):
    pass


HARMONIC = "harmonic"
NOT_HARMONIC = "not-harmonic"
INCONCLUSIVE_H = "inconclusive"


# ---------------------------------------------------------------------------
# Quantities at every point
# ---------------------------------------------------------------------------
#
# Each helper returns arrays with a leading points axis; frames are the
# (p, n, d) stacks of ProductData.frames.

def _frame_weight(frames):
    """S = F^T F for frames F (p, n, d): S[m, n] = sum_a u_a^m u_a^n.

    A sum over the frame vectors of a term bilinear in (u_a, u_a) is that
    term with the weight S in place of the pair.
    """
    return frames.swapaxes(1, 2) @ frames


def _frame_sum_delta(C0, frames):
    """sum_a (nabla_{u_a} J) u_a over the frame rows: C0[i, j, m] S[m, j]."""
    p, d = C0.shape[:2]
    S = _frame_weight(frames)
    return (C0.reshape(p, d, d * d)
            @ S.swapaxes(1, 2).reshape(p, d * d, 1))[..., 0]


def _P_with_frame(pd: ProductData, frames):
    """P = (1/2) sum_a R(u_a, J u_a) at every point, over the given frames."""
    p, d = pd.Jv.shape[:2]
    # S[i, j] = sum_a u_a^i (J u_a)^j; then P[l, k] = riem[l, k, i, j] S[i, j]
    S = frames.swapaxes(1, 2) @ (frames @ pd.Jv.swapaxes(1, 2))
    riem = pd.md.riemann().reshape(p, d * d, d * d)
    return 0.5 * (riem @ S.reshape(p, d * d, 1)).reshape(p, d, d)


def codifferential_J(pd: ProductData):
    """deltaJ at every point: the frame sum and the named closed forms.

    Returns (frame_sum, {variant: value}), each (p, d).
    """
    C0, _ = pd.nabla_J()
    total = _frame_sum_delta(C0, pd.frames)
    P = pd.P
    a, b = P.a, P.b
    a1, b1, a2, b2 = (x[:, None] for x in (pd.a1, pd.b1, pd.a2, pd.b2))
    xi1, xi2 = pd.xi1v, pd.xi2v
    n1, n2 = P.n1, P.n2
    reference = (2 * n1 * (a1 * xi1 - (a / b) * b1 * xi1 + (b1 / b) * xi2)
                 + 2 * n2 * (a2 * xi2 + b2 * xi1 + (a / b) * b2 * xi2))
    koszul = (2 * n1 * (a1 * xi1 + (b1 / b) * xi2)
              + 2 * n2 * (a2 * xi2 - (b2 / b) * xi1))
    return total, {"reference": reference, "koszul": koszul}


def nabla_deltaJ_J(pd: ProductData, delta=None):
    """(nabla_{deltaJ} J) at every point, from the frame-sum deltaJ."""
    if delta is None:
        delta, _ = codifferential_J(pd)
    C0, _ = pd.nabla_J()
    return riemann.along(C0, delta)


def chern_ricci_P(pd: ProductData):
    """P = (1/2) sum_i R(u_i, J u_i) as (p, d, d), over the adapted frames."""
    return _P_with_frame(pd, pd.frames)


def rough_laplacian_J(pd: ProductData):
    """Trace of the second covariant derivative of J over the frames."""
    C0, C1 = pd.nabla_J()
    return riemann.second_cov_endo_const(pd.md, C0, C1,
                                         _frame_weight(pd.frames))


def commutator_condition_bracket(g0, phi0, frame_block, U):
    """2 [g(e_j, U) phi e_j - g(e_j, phi U) e_j] summed over the block frame.

    U is one vector or a stack of row vectors (..., N, d), giving (..., N, d);
    leading axes of g0, phi0 and the block frame broadcast with it.
    """
    E = frame_block
    gE = g0 @ E.swapaxes(-1, -2)  # columns g e_j (g is symmetric)
    phiT = phi0.swapaxes(-1, -2)
    return 2.0 * ((U @ gE) @ (E @ phiT) - (U @ phiT @ gE) @ E)


def sufficient_condition_tensors(pd: ProductData):
    """The two sufficient-condition tensors, scaled by 2 alpha_i beta_i,
    plus the per-factor commutator pieces [J, R(e, phi e)] computed
    generically. Each entry is a (p,) array of per-point maxima."""
    g0 = pd.md.g0
    J0 = pd.Jv
    p, d = J0.shape[:2]
    riem = pd.md.riemann().reshape(p, d * d, d * d)
    e_blk, f_blk = pd.frame_blocks
    out = {}
    for (tag, blk, phiv, av, bv) in (
            ("factor1", e_blk, pd.phi1v, pd.a1, pd.b1),
            ("factor2", f_blk, pd.phi2v, pd.a2, pd.b2)):
        n = blk.shape[1]
        cond = ((av * bv)[:, None, None]
                * commutator_condition_bracket(g0, phiv, blk, blk))
        # Re[a] = R(e_a, phi e_a); comm[a, :, b] = [J, Re[a]] e_b
        outer = blk[:, :, :, None] * (blk @ phiv.swapaxes(1, 2))[:, :, None, :]
        Re = (outer.reshape(p, n, d * d) @ riem.swapaxes(1, 2)).reshape(
            p, n, d, d)
        comm = ((J0[:, None] @ Re - Re @ J0[:, None])
                @ blk.swapaxes(1, 2)[:, None])
        out[tag] = {
            "condition_max": np.max(np.abs(cond), axis=(1, 2), initial=0.0),
            "commutator_max": riemann.vector_residual_norm(
                g0, pd.frames, comm.swapaxes(1, 2).reshape(p, d, -1)
            ).max(axis=1)}
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _max_abs(M):
    """Per-point max |entry| of a (p, ...) stack."""
    return np.abs(M).reshape(M.shape[0], -1).max(axis=1)


def harmonicity_report(ev: Evaluator, P: ProductHermitian, points, tol
                       ) -> CheckReport:
    """Aggregate harmonicity check per the commutator criterion.

    Verdict: harmonic if sup ||[J,P] - nabla_{deltaJ} J|| < tol at every
    sampled point; not-harmonic above the fail factor; inconclusive between.
    """
    pd = ProductData(ev, P, points)
    g0, fr, J0 = pd.md.g0, pd.frames, pd.Jv
    eye = np.eye(P.dim)
    # harmonicity only makes sense for a G-compatible almost complex
    # structure and an honest orthonormal frame; gate on both so a damaged
    # J can never report as harmonic
    gate = np.maximum.reduce([
        _max_abs(J0 @ J0 + eye), _max_abs(J0.swapaxes(1, 2) @ g0 @ J0 - g0),
        _max_abs(fr @ g0 @ fr.swapaxes(1, 2) - eye)])
    delta, variants = codifferential_J(pd)
    ndj = nabla_deltaJ_J(pd, delta)
    Pm = chern_ricci_P(pd)
    JP = J0 @ Pm - Pm @ J0
    lap = rough_laplacian_J(pd)
    cond = sufficient_condition_tensors(pd)
    residuals = {
        "[J,P] - nabla_deltaJ_J": riemann.endo_residual_norm(g0, fr, JP - ndj),
        "J^2/Hermitian/frame gate": gate,
        "deltaJ frame sum vs reference": riemann.vector_residual_norm(
            g0, fr, delta - variants["reference"]),
        "deltaJ frame sum vs koszul": riemann.vector_residual_norm(
            g0, fr, delta - variants["koszul"]),
        "nabla_deltaJ_J": riemann.endo_residual_norm(g0, fr, ndj),
        "[J,lap J] - 2(nabla_deltaJ J - [J,P])": riemann.endo_residual_norm(
            g0, fr, (J0 @ lap - lap @ J0) - 2.0 * (ndj - JP)),
        "sufficient-condition tensors": np.maximum(
            cond["factor1"]["condition_max"], cond["factor2"]["condition_max"]),
    }
    trackers = {name: ResidualTracker.from_points(name, values, pd.points)
                for name, values in residuals.items()}
    t_delta = {k: trackers[f"deltaJ frame sum vs {k}"]
               for k in ("reference", "koszul")}

    crit = max(trackers["[J,P] - nabla_deltaJ_J"].max,
               trackers["J^2/Hermitian/frame gate"].max)
    if crit < tol:
        verdict = HARMONIC
    elif crit > FAIL_FACTOR * tol:
        verdict = NOT_HARMONIC
    else:
        verdict = INCONCLUSIVE_H
    rep = CheckReport.from_trackers("harmonicity", tol,
                                    list(trackers.values()), verdict=verdict)
    rep.max_residual = crit  # the verdict-carrying quantity
    matched = sorted(k for k, t in t_delta.items() if t.max < tol)
    rep.details["deltaJ_variants"] = {k: t.max for k, t in t_delta.items()}
    rep.details["deltaJ_matched"] = matched
    rep.details["odd_dimension_note"] = (
        "factors are assumed odd-dimensional (2n+1) throughout")
    return rep


def codifferential_report(ev: Evaluator, P: ProductHermitian, points, tol
                          ) -> CheckReport:
    """deltaJ frame sum vs its closed-form variants, and nabla_{deltaJ} J."""
    pd = ProductData(ev, P, points)
    g0, fr = pd.md.g0, pd.frames
    delta, variants = codifferential_J(pd)
    t_var = {name: ResidualTracker.from_points(
                 f"frame sum vs {name}",
                 riemann.vector_residual_norm(g0, fr, delta - val), pd.points)
             for name, val in variants.items()}
    t_ndj = ResidualTracker.from_points(
        "nabla_deltaJ_J",
        riemann.endo_residual_norm(g0, fr, nabla_deltaJ_J(pd, delta)),
        pd.points)
    best = min(t_var.values(), key=lambda t: t.max)
    rep = CheckReport.from_trackers("codifferential", tol, [best, t_ndj])
    rep.details["variants"] = {k: t.max for k, t in t_var.items()}
    rep.details["matched"] = sorted(k for k, t in t_var.items()
                                    if t.max < tol)
    return rep


def dirichlet_energy_density(pd: ProductData):
    """||nabla J||^2 = sum_a ||nabla_{u_a} J||^2_G over the adapted frames.

    A (p,) array: C0[i, j, m] g[i, k] C0[k, l, n] S[j, l] S[m, n].
    """
    C0, _ = pd.nabla_J()
    g0 = pd.md.g0
    p, d = C0.shape[:2]
    S = _frame_weight(pd.frames)
    # SCS[i, l, n] = S[l, j] C0[i, j, m] S[m, n] and gC0[i, l, n] =
    # g[i, k] C0[k, l, n], in that order and summed by a batched dot, so
    # that at most two (p, d^3) temporaries are alive at once
    SCS = S.swapaxes(1, 2)[:, None] @ C0 @ S[:, None]
    gC0 = g0 @ C0.reshape(p, d, d * d)
    return (gC0.reshape(p, 1, -1) @ SCS.reshape(p, -1, 1))[:, 0, 0]


def energy_report(ev: Evaluator, P: ProductHermitian, points, tol
                  ) -> CheckReport:
    """Pointwise energy density plus a box-quadrature energy estimate."""
    pd = ProductData(ev, P, points)
    dens = dirichlet_energy_density(pd)
    dets = np.sqrt(np.linalg.det(pd.md.g0))
    vol = 1.0
    for lo, hi in P.chart.box:
        vol *= (hi - lo)
    estimate = float(np.mean(dens * dets) * vol)
    t = ResidualTracker.from_points("energy density", dens, pd.points)
    rep = CheckReport.from_trackers("energy", tol, [t], verdict="pass")
    rep.details["density_max"] = float(np.max(dens))
    rep.details["density_min"] = float(np.min(dens))
    rep.details["box_quadrature_estimate"] = estimate
    rep.details["box_volume"] = vol
    return rep


# ---------------------------------------------------------------------------
# Astheno check
# ---------------------------------------------------------------------------

def kahler_form_field(P: ProductHermitian) -> KFormField:
    """Omega(X, Y) = G(J X, Y) as an expression 2-form field."""
    d = P.dim
    comp = {}
    for i in range(d):
        for j in range(i + 1, d):
            comp[(i, j)] = expr.add_many(
                expr.mul(P.J.comps[k][i], P.G.comps[k][j]) for k in range(d))
    return kform_from_components(P.chart, 2, comp)


def _pullback_field(J: geom.EndomorphismField, omega: KFormField) -> KFormField:
    """Expression-level pullback (J* omega)_I = sum_K omega_K det(J[K, I])."""
    d = omega.chart.dim
    k = omega.degree
    idxs = omega.indices()
    from itertools import permutations
    perms = [(perm, geom._perm_sign(perm)[0] < 0)
             for perm in permutations(range(k))]
    out = []
    for I in idxs:
        total = expr.ZERO
        for s, K in enumerate(idxs):
            if omega.comps[s] == expr.ZERO:
                continue
            det = expr.ZERO
            for perm, odd in perms:
                term = expr.ONE
                for r in range(k):
                    term = expr.mul(term, J.comps[K[perm[r]]][I[r]])
                det = expr.add(det, expr.neg(term) if odd else term)
            total = expr.add(total, expr.mul(omega.comps[s], det))
        out.append(total)
    return KFormField(omega.chart, k, tuple(out))


def astheno_residual(ev: Evaluator, P: ProductHermitian, points, tol, *,
                     m_override=None, check_integrable=True) -> CheckReport:
    """sup-norm of d(d^c(Omega^(m-2))) with d^c = Jinv o d o J-pullback.

    m = 2 short-circuits to a pass with residual exactly zero. Requires an
    integrable J (the d^c identity presumes it).
    """
    m = m_override if m_override is not None else P.m_complex
    if m == 2:
        return CheckReport("astheno", tol, 0.0, 0.0, None, "pass",
                           details={"m_complex": 2})
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if check_integrable:
        smoke = pts[: min(8, pts.shape[0])]
        rep = integrability_report(ev, P, smoke, max(tol, 1e-6))
        if rep.verdict != "pass":
            raise NotIntegrable(
                f"Nijenhuis residual {rep.max_residual:.3e} at tol {tol}")
    omega = kahler_form_field(P)
    gamma = geom.wedge_power_field(omega, m - 2)
    jg = _pullback_field(P.J, gamma)  # J-pullback of gamma, expressions
    k1 = jg.degree + 1
    Jv, Jg, _ = geom.eval_endo(ev, P.J, pts)
    # batched form jets: the pullback components are large expressions, so
    # walk them once for all points
    _, grads, hesses = geom.eval_form(ev, jg, pts)
    # B = d(J* gamma), with first derivatives
    Bv, Bg = geom._d_from_grads_and_hess(P.dim, jg.degree, grads, hesses)
    # C = Jinv* B: pullback by J^{-1} = -J
    Cv, Cg = geom.endo_pullback_jet(-Jv, -Jg, k1, Bv, Bg)
    Dv = geom.d_of_jet_form(P.dim, k1, Cv, Cg)
    t = ResidualTracker.from_points("dd^c", Dv, pts)
    return CheckReport.from_trackers("astheno", tol, [t],
                                     details={"m_complex": m})


def ddc_scalar(ev: Evaluator, P: ProductHermitian, f: expr.Expression, p):
    """d(d^c f) for a scalar: d^c f = -(df) o J; returns the 2-form comps."""
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    Jv, Jg, _ = geom.eval_endo(ev, P.J, pts)
    j = ev.jet(f, pts)
    d = P.dim
    out = []
    for i in range(pts.shape[0]):
        df = j.grad[i]
        ddf = j.hess[i]
        # rho_l = -(df o J)_l = -df_k J^k_l ; drho[l, n]
        rho_g = -(np.einsum("kn,kl->ln", ddf, Jv[i])
                  + np.einsum("k,kln->ln", df, Jg[i]))
        comps = np.array([rho_g[jj, ii] - rho_g[ii, jj]
                          for (ii, jj) in form_indices(d, 2)])
        # (d rho)_{ij} = d_i rho_j - d_j rho_i
        out.append(comps)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Frame-mixing invariance and the Table-1 suite
# ---------------------------------------------------------------------------

def mixed_frame(pd: ProductData, seed):
    """Adapted frames with a seeded orthogonal mixing inside each D-block.

    The same mixing at every point; a (p, d, d) array like pd.frames.
    """
    e_blk, f_blk = pd.frame_blocks
    rng = np.random.default_rng(seed)

    def mix(block):
        n = block.shape[1]
        if n == 0:
            return block
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q.T @ block

    return np.concatenate([pd.frames[:, :2], mix(e_blk), mix(f_blk)], axis=1)


def delta_and_P_with_frame(pd: ProductData, frames):
    """deltaJ and P at every point, taken over the given (p, d, d) frames."""
    C0, _ = pd.nabla_J()
    return _frame_sum_delta(C0, frames), _P_with_frame(pd, frames)


TABLE1_ROWS = (
    ("sasakian", "sasakian"),
    ("sasakian", "kenmotsu"),
    ("sasakian", "cosymplectic"),
    ("kenmotsu", "kenmotsu"),
    ("kenmotsu", "sasakian"),
    ("kenmotsu", "cosymplectic"),
    ("cosymplectic", "sasakian"),
    ("cosymplectic", "kenmotsu"),
    ("cosymplectic", "cosymplectic"),
)

_CLASS_LABEL = {
    "sasakian": ("alpha-Sasakian", 1, 0),
    "kenmotsu": ("beta-Kenmotsu", 0, 1),
    "cosymplectic": ("Cosymplectic", 0, 0),
}


def table1_suite(ev: Evaluator, tol, samples=64, seed=7,
                 ab_grid=DEFAULT_AB_GRID):
    """Harmonicity of all nine factor-class pairs over the (a, b) grid."""
    rows = []
    worst = 0.0
    for no, (k1, k2) in enumerate(TABLE1_ROWS, start=1):
        F1 = factor_for_class(k1)
        F2 = factor_for_class(k2)
        row_max = 0.0
        verdicts = []
        for (a, b) in ab_grid:
            P = build_product(F1, F2, a, b, validate=False)
            pts = geom.sample_points(P.chart, samples, seed)
            rep = harmonicity_report(ev, P, pts, tol)
            verdicts.append(rep.verdict)
            row_max = max(row_max, rep.max_residual)
        harmonic = all(v == HARMONIC for v in verdicts)
        l1, a1, b1 = _CLASS_LABEL[k1]
        l2, a2, b2 = _CLASS_LABEL[k2]
        rows.append({
            "no": no, "m1": l1, "m2": l2,
            "a1": a1, "a2": a2, "b1": b1, "b2": b2,
            "harmonicity": "Yes" if harmonic else "No",
            "max_residual": row_max,
            "ab_grid": [list(ab) for ab in ab_grid],
        })
        worst = max(worst, row_max)
    verdict = "pass" if all(r["harmonicity"] == "Yes" for r in rows) else "fail"
    rep = CheckReport("table1", tol, worst, worst, None, verdict,
                      details={"table1_rows": rows})
    return rep
