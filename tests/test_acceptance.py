"""Acceptance suite: one test class per criterion, at desk scale.

Factor dims 3, product dim 6, 100 seeded points, jet mode. Each criterion
prints a PASS line when it holds at its stated tolerance; a red test is the
failure signal. Criterion 6 carries one strict-xfail case where the
transcribed closed-form value (4 xi2 for the Kenmotsu pair at a = b = 1)
provably disagrees with the frame sum; the true value and the divergence
are asserted in the sibling passing test.
"""

import json
import time

import numpy as np
import pytest

from tsgeom import cli, contact, geom, harmonic, product, riemann
from tsgeom.contact import (
    builtin_factor, phi_curvature_commutation_residual, d_span_fields,
    transverse_curvature_report, transverse_properties_report,
    validate_axioms, verify_trans_sasakian, normality_residual,
)
from tsgeom.expr import JET, Evaluator
from tsgeom.geom import sample_points
from tsgeom.harmonic import (
    astheno_residual, codifferential_J, harmonicity_report, table1_suite,
)
from tsgeom.product import (
    DEFAULT_AB_GRID, build_product, connection_closed_form_report,
    curvature_closed_form_report, integrability_report, nabla_J_report,
)
from tsgeom.report import canonical_json, strip_timings

N_POINTS = 100
SEED = 7
FLAT, SAS, KEN = "cosymplectic_flat", "sasakian_heisenberg", "kenmotsu_warped"

CLASS_PAIRS = [(m1, m2) for m1 in (SAS, KEN, FLAT) for m2 in (SAS, KEN, FLAT)]


def ok(msg):
    print(f"\nACCEPTANCE PASS: {msg}")


@pytest.fixture(scope="module")
def factors():
    return {n: builtin_factor(n) for n in (FLAT, SAS, KEN)}


@pytest.fixture(scope="module")
def factor_points(factors):
    return {n: sample_points(F.chart, N_POINTS, SEED)
            for n, F in factors.items()}


@pytest.fixture(scope="module")
def closed_form_runs(factors):
    """Connection/nabla-J/curvature/integrability reports for all nine class
    pairs over the default (a, b) grid, shared across criteria 4 and 5."""
    out = {}
    for (n1, n2) in CLASS_PAIRS:
        for ab in DEFAULT_AB_GRID:
            P = build_product(factors[n1], factors[n2], ab[0], ab[1])
            pts = sample_points(P.chart, N_POINTS, SEED)
            out[(n1, n2, ab)] = {
                "connection": connection_closed_form_report(JET, P, pts, 1e-6),
                "nabla_j": nabla_J_report(JET, P, pts, 1e-6),
                "curvature": curvature_closed_form_report(JET, P, pts, 1e-6),
                "integrability": integrability_report(JET, P, pts, 1e-6),
            }
    return out


class TestCriterion1_Axioms:
    def test_axioms_normality_trans_sasakian(self, factors, factor_points):
        t0 = time.perf_counter()
        for name, F in factors.items():
            pts = factor_points[name]
            rep = validate_axioms(JET, F.structure, pts, 1e-7)
            assert rep.verdict == "pass", (name, rep.details)
            assert rep.max_residual < 1e-7
            rep2 = verify_trans_sasakian(JET, F, pts, 1e-7)
            assert rep2.verdict == "pass", (name, rep2.details)
            assert rep2.max_residual < 1e-7
            span = d_span_fields(F.structure) + [F.structure.xi]
            worst = 0.0
            for p in pts[:10]:
                for X in span:
                    for Y in span:
                        r = normality_residual(JET, F.structure, X, Y, p)
                        worst = max(worst, float(np.max(np.abs(r))))
            assert worst < 1e-7, (name, worst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
        ok(f"criterion 1: axioms/normality/type identities < 1e-7 "
           f"({elapsed:.1f}s)")


class TestCriterion2_Transverse:
    def test_decompositions_and_lemma(self, factors, factor_points):
        for name, F in factors.items():
            pts = factor_points[name][:40]
            rep = transverse_properties_report(JET, F, pts, 1e-6)
            assert rep.verdict == "pass", (name, rep.details)
            rep2 = transverse_curvature_report(JET, F, pts, 1e-6)
            assert rep2.verdict == "pass", (name, rep2.details)
            cmpd = rep2.details["reeb_curvature_comparison"]
            assert "printed_vs_generic_max" in cmpd
            assert "generic_max_norm" in cmpd
            # built-ins have alpha*beta = 0: both sides vanish, the
            # comparison is reported rather than folded into the verdict
            assert cmpd["generic_max_norm"] < 1e-6
        ok("criterion 2: transverse decompositions and curvature identities "
           "(i)-(iii) < 1e-6; Reeb-row comparison reported")


class TestCriterion3_PhiCurvatureCommutation:
    def test_commutation_for_zero_product_classes(self, factors,
                                                  factor_points):
        for name, F in factors.items():
            span = [S for S in d_span_fields(F.structure)]
            worst = 0.0
            for p in factor_points[name][:25]:
                for U in span:
                    uval = geom.eval_vector(JET, U, np.asarray(p))[0]
                    if np.linalg.norm(uval) < 1e-9:
                        continue
                    for W in span:
                        wval = geom.eval_vector(JET, W, np.asarray(p))[0]
                        if np.linalg.norm(wval) < 1e-9:
                            continue
                        r = phi_curvature_commutation_residual(JET, F, U, W, p)
                        worst = max(worst, float(np.max(np.abs(r))))
            assert worst < 1e-6, (name, worst)
        ok("criterion 3: phi R(U,phiU)W - R(U,phiU)phiW < 1e-6 on "
           "alpha*beta = 0 built-ins")


class TestCriterion4_ProductClosedForms:
    def test_koszul_variant_matches_everywhere(self, closed_form_runs):
        for key, reps in closed_form_runs.items():
            for which in ("connection", "nabla_j", "curvature"):
                rep = reps[which]
                assert rep.verdict == "pass", (key, which, rep.details)
                for fam, info in rep.details["variant_adjudication"].items():
                    assert "koszul" in info["matched"], (key, which, fam, info)
        ok("criterion 4a: closed forms agree with the generic oracle within "
           "1e-6 for all 9 pairs x 4 (a,b) (koszul variant)")

    def test_reeb_identities(self, closed_form_runs):
        for key, reps in closed_form_runs.items():
            fams = reps["connection"].details["families"]
            assert fams["nabla_xi_xi_zero"]["max_residual"] < 1e-6, key
            fams = reps["nabla_j"].details["families"]
            assert fams["nabla_xiJ_zero"]["max_residual"] < 1e-6, key
            fams = reps["curvature"].details["families"]
            assert fams["R_xi1_xi2_zero"]["max_residual"] < 1e-6, key
        ok("criterion 4b: nabla_xi_i xi_j = 0, nabla_xi_i J = 0, "
           "R(xi1, xi2) = 0 generically")

    def test_divergent_transcriptions_resolve_to_one_variant(
            self, closed_form_runs):
        # wherever the variants numerically part ways, the oracle confirms
        # exactly one of them; divergences must actually occur on the grid
        divergent = 0
        for key, reps in closed_form_runs.items():
            for which in ("connection", "nabla_j", "curvature"):
                adj = reps[which].details["variant_adjudication"]
                for fam, info in adj.items():
                    spread = max(info["variants"].values()) - min(
                        info["variants"].values())
                    if spread > 1e-6:
                        divergent += 1
                        assert info["matched"], (key, which, fam)
                        resolved = {v for v in info["matched"]}
                        unresolved = set(info["variants"]) - resolved
                        assert unresolved, (key, which, fam)
        assert divergent > 0, "expected transcription divergences on the grid"
        ok(f"criterion 4c: {divergent} divergent closed-form families "
           "resolved to a unique matching variant, recorded in reports")


class TestCriterion5_Integrability:
    def test_nijenhuis_for_all_pairs(self, closed_form_runs):
        for key, reps in closed_form_runs.items():
            rep = reps["integrability"]
            assert rep.verdict == "pass", key
            assert rep.max_residual < 1e-6
        ok("criterion 5: Nijenhuis residual < 1e-6 for all pairs and (a,b)")


class TestCriterion6_Codifferential:
    def test_frame_sum_vs_resolved_closed_form(self, factors):
        for (n1, n2) in CLASS_PAIRS:
            for ab in DEFAULT_AB_GRID:
                P = build_product(factors[n1], factors[n2], ab[0], ab[1])
                pd = product.ProductData(
                    JET, P, sample_points(P.chart, 25, SEED))
                delta, variants = codifferential_J(pd)
                # the best variant at each point
                best = np.minimum.reduce([np.max(np.abs(delta - v), axis=1)
                                          for v in variants.values()])
                assert np.all(best < 1e-6)
                ndj = harmonic.nabla_deltaJ_J(pd, delta)
                assert np.max(np.abs(ndj)) < 1e-6
        ok("criterion 6a: frame-sum deltaJ matches a closed-form variant "
           "< 1e-6 and nabla_deltaJ J < 1e-6 everywhere")

    def test_spot_value_sasakian_cosymplectic(self, factors):
        P = build_product(factors[SAS], factors[FLAT], 1.0, 1.0)
        pd = product.ProductData(JET, P, sample_points(P.chart, 10, SEED))
        delta, _ = codifferential_J(pd)
        assert delta == pytest.approx(2.0 * pd.xi1v, abs=1e-6)
        ok("criterion 6b: deltaJ = 2 xi1 for Sasakian x cosymplectic (n1=1)")

    def test_kenmotsu_pair_divergence_detected(self, factors):
        # the transcribed closed form gives 4 xi2 at a = b = 1; the frame sum
        # (confirmed by hand Christoffels of the explicit warped product)
        # gives -2 xi1 + 2 xi2; the divergence must be detected and recorded
        P = build_product(factors[KEN], factors[KEN], 1.0, 1.0)
        pd = product.ProductData(JET, P, sample_points(P.chart, 10, SEED))
        delta, variants = codifferential_J(pd)
        assert delta == pytest.approx(-2.0 * pd.xi1v + 2.0 * pd.xi2v,
                                      abs=1e-9)
        assert variants["reference"] == pytest.approx(4.0 * pd.xi2v,
                                                      abs=1e-12)
        assert np.all(np.max(np.abs(variants["reference"] - delta), axis=1)
                      > 1.0)
        assert np.max(np.abs(variants["koszul"] - delta)) < 1e-9
        rep = harmonic.codifferential_report(
            JET, P, sample_points(P.chart, 10, SEED), 1e-6)
        assert rep.details["matched"] == ["koszul"]
        ok("criterion 6c: Kenmotsu-pair deltaJ divergence (4 xi2 vs "
           "-2 xi1 + 2 xi2) detected; koszul variant confirmed")

    @pytest.mark.xfail(
        strict=True,
        reason="transcribed closed form: deltaJ would be 4 xi2 for the "
               "Kenmotsu pair at a = b = 1, but the frame sum (and the "
               "Koszul rederivation, and explicit hand Christoffels) give "
               "-2 xi1 + 2 xi2; see the decisions ledger")
    def test_spot_value_kenmotsu_kenmotsu_as_transcribed(self, factors):
        P = build_product(factors[KEN], factors[KEN], 1.0, 1.0)
        pd = product.ProductData(JET, P, sample_points(P.chart, 5, SEED))
        delta, _ = codifferential_J(pd)
        assert delta[0] == pytest.approx(4.0 * pd.xi2v[0], abs=1e-6)


class TestCriterion7_Table1:
    def test_all_nine_rows_harmonic(self):
        t0 = time.perf_counter()
        rep = table1_suite(JET, 1e-6, samples=N_POINTS, seed=SEED)
        elapsed = time.perf_counter() - t0
        rows = rep.details["table1_rows"]
        assert [r["harmonicity"] for r in rows] == ["Yes"] * 9
        assert rep.verdict == "pass"
        assert elapsed < 300.0, f"table1 took {elapsed:.0f}s"
        ok(f"criterion 7a: all 9 class pairs harmonic at 1e-6 "
           f"({elapsed:.0f}s)")

    def test_laplacian_identity_within_1e5(self, factors):
        worst = 0.0
        for (n1, n2) in [(SAS, SAS), (SAS, KEN), (KEN, KEN), (FLAT, KEN)]:
            for ab in ((1.0, 1.0), (-2.0, 3.0)):
                P = build_product(factors[n1], factors[n2], ab[0], ab[1])
                rep = harmonicity_report(
                    JET, P, sample_points(P.chart, 30, SEED), 1e-6)
                fam = rep.details["families"][
                    "[J,lap J] - 2(nabla_deltaJ J - [J,P])"]
                worst = max(worst, fam["max_residual"])
        assert worst < 1e-5
        ok(f"criterion 7b: rough-Laplacian identity residual {worst:.1e} "
           "< 1e-5")


class TestCriterion8_Astheno:
    def test_claimed_cases(self, factors):
        # cosymplectic x cosymplectic and Sasakian(dim 3) x cosymplectic on
        # the whole default grid; Sasakian x Sasakian for the Reeb-orthogonal
        # structure a = 0 (the coupled a != 0 structures are not astheno,
        # asserted below as scope control)
        for ab in DEFAULT_AB_GRID:
            for pair in ((FLAT, FLAT), (SAS, FLAT)):
                P = build_product(factors[pair[0]], factors[pair[1]],
                                  ab[0], ab[1])
                rep = astheno_residual(
                    JET, P, sample_points(P.chart, N_POINTS, SEED), 1e-6)
                assert rep.verdict == "pass", (pair, ab, rep.max_residual)
                assert rep.max_residual < 1e-6
        P = build_product(factors[SAS], factors[SAS], 0.0, 1.0)
        rep = astheno_residual(JET, P,
                               sample_points(P.chart, N_POINTS, SEED), 1e-6)
        assert rep.verdict == "pass" and rep.max_residual < 1e-6
        ok("criterion 8a: astheno residual < 1e-6 for the three claimed "
           "m = 3 cases")

    def test_sasakian_pair_scope(self, factors):
        P = build_product(factors[SAS], factors[SAS], 1.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 20, SEED),
                               1e-6)
        assert rep.verdict == "fail" and rep.max_residual > 0.1
        ok("criterion 8b: Sasakian pair with Reeb coupling (a != 0) is not "
           "astheno (scope control)")

    def test_m2_short_circuit_exact_zero(self, factors):
        P = build_product(factors[FLAT], factors[FLAT], 0.0, 1.0)
        rep = astheno_residual(JET, P, sample_points(P.chart, 3, SEED), 1e-6,
                               m_override=2)
        assert rep.max_residual == 0.0 and rep.verdict == "pass"
        ok("criterion 8c: m = 2 short-circuit returns exactly 0")


class TestCriterion9_CrossEngine:
    def test_jet_vs_fd_residuals(self):
        manifest = {
            "factors": [{"builtin": SAS}, {"builtin": KEN}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["axioms", "trans_sasakian", "transverse", "connection",
                       "nabla_j", "curvature", "integrability",
                       "codifferential", "harmonicity", "astheno"],
            "sampling": {"count": 10},
        }
        jet_run = cli.run(cli.resolve_manifest(dict(manifest)))
        fd_run = cli.run(cli.resolve_manifest(
            dict(manifest, numerics={"mode": "fd"})))
        jet_checks = {c["name"]: c for c in jet_run["checks"]}
        fd_checks = {c["name"]: c for c in fd_run["checks"]}
        assert set(jet_checks) == set(fd_checks)
        for name, jc in jet_checks.items():
            fc = fd_checks[name]
            assert abs(jc["max_residual"] - fc["max_residual"]) < 1e-4, name
            jf = jc["details"].get("families", {})
            ff = fc["details"].get("families", {})
            for fam in jf:
                assert abs(jf[fam]["max_residual"]
                           - ff[fam]["max_residual"]) < 1e-4, (name, fam)
        ok("criterion 9: jet and finite-difference modes agree on every "
           "reported residual within 1e-4")


class TestCriterion10_DeterminismAndControls:
    def test_byte_identical_reports(self):
        manifest = {
            "factors": [{"builtin": SAS}, {"builtin": FLAT}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["connection", "harmonicity"],
            "sampling": {"count": 10},
        }
        r1 = canonical_json(strip_timings(cli.run(cli.resolve_manifest(
            dict(manifest)))))
        r2 = canonical_json(strip_timings(cli.run(cli.resolve_manifest(
            dict(manifest)))))
        assert r1 == r2
        ok("criterion 10a: canonical reports byte-identical across runs")

    def test_broken_j_control_exit_1(self, tmp_path):
        m = tmp_path / "broken.json"
        m.write_text(json.dumps({
            "factors": [{"builtin": SAS}, {"builtin": KEN}],
            "product": {"a": 1.0, "b": 2.0, "tamper": {"broken_j": True}},
            "checks": ["integrability", "harmonicity"],
            "sampling": {"count": 8},
        }))
        out = tmp_path / "r.json"
        code = cli.main(["verify", str(m), "--out", str(out)])
        assert code == cli.EXIT_FAILED
        data = json.loads(out.read_text())
        verdicts = {c["name"]: c["verdict"] for c in data["checks"]}
        assert any(v == "fail" for v in verdicts.values())
        assert all(v != "harmonic" for n, v in verdicts.items()
                   if n.startswith("harmonicity"))
        ok("criterion 10b: broken-J control fails integrability/harmonicity "
           "with exit 1")

    def test_corrupted_phi_control_fails_axioms(self, tmp_path):
        m = tmp_path / "phi.json"
        m.write_text(json.dumps({
            "factors": [{"builtin": FLAT, "tamper": {"phi_scale": 1.1}},
                        {"builtin": FLAT}],
            "checks": ["axioms"],
            "sampling": {"count": 8},
        }))
        code = cli.main(["verify", str(m), "--out",
                         str(tmp_path / "r2.json")])
        assert code == cli.EXIT_FAILED
        data = json.loads((tmp_path / "r2.json").read_text())
        assert data["checks"][0]["verdict"] == "fail"
        ok("criterion 10c: corrupted-phi control fails the axiom suite")
