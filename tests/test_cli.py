import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tsgeom import cli, contact, product, report
from tsgeom.cli import (
    EXIT_CONFIG, EXIT_FAILED, EXIT_OK, ManifestError, load_manifest, main,
    resolve_manifest, run,
)
from tsgeom.report import canonical_json, strip_timings


def write_manifest(tmp_path, data, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


MINIMAL = {
    "factors": [{"builtin": "cosymplectic_flat"},
                {"builtin": "cosymplectic_flat"}],
    "checks": ["harmonicity"],
}


class TestManifest:
    def test_minimal_defaults(self, tmp_path):
        mf = load_manifest(write_manifest(tmp_path, MINIMAL))
        assert mf["tol"] == 1e-6
        assert mf["count"] == 64
        assert mf["seed"] == 7
        assert mf["mode"] == "jet"
        assert mf["ab_grid"] == [(0.0, 1.0), (1.0, 1.0), (-2.0, 3.0),
                                 (0.5, -1.0)]

    def test_zero_b_rejected(self, tmp_path):
        data = dict(MINIMAL, product={"a": 1.0, "b": 0})
        with pytest.raises(ManifestError) as err:
            load_manifest(write_manifest(tmp_path, data))
        assert "$.product.b" in str(err.value)

    def test_bad_expression_positioned(self, tmp_path):
        data = {
            "factors": [
                {"builtin": "cosymplectic_flat"},
                {"custom": {
                    "dim": 3, "coords": ["x", "y", "z"],
                    "g": [["1", "0", "0"], ["0", "1 +* 1", "0"],
                          ["0", "0", "1"]],
                    "phi": [["0", "-1", "0"], ["1", "0", "0"],
                            ["0", "0", "0"]],
                    "xi": ["0", "0", "1"], "eta": ["0", "0", "1"],
                }},
            ],
            "checks": [],
        }
        with pytest.raises(ManifestError) as err:
            load_manifest(write_manifest(tmp_path, data))
        msg = str(err.value)
        assert "$.factors[1].custom.g[1][1]" in msg
        assert "offset 3" in msg

    def test_unknown_check(self, tmp_path):
        data = dict(MINIMAL, checks=["nope"])
        with pytest.raises(ManifestError) as err:
            load_manifest(write_manifest(tmp_path, data))
        assert "$.checks[0]" in str(err.value)

    def test_unknown_builtin(self, tmp_path):
        for name in ("warp_core", ["cosymplectic_flat"]):
            data = dict(MINIMAL, factors=[{"builtin": name},
                                          {"builtin": "cosymplectic_flat"}])
            with pytest.raises(ManifestError) as err:
                load_manifest(write_manifest(tmp_path, data))
            assert err.value.path == "$.factors[0].builtin"

    def test_duplicate_check_exit_2_with_path(self, tmp_path, capsys):
        data = dict(MINIMAL, checks=["axioms", "harmonicity", "axioms"])
        with pytest.raises(ManifestError) as err:
            resolve_manifest(data)
        assert err.value.path == "$.checks[2]"
        assert main(["verify", write_manifest(tmp_path, data)]) == EXIT_CONFIG
        assert "$.checks[2]: duplicate check 'axioms'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name", list(contact.BUILTIN_SPECS))
    def test_builtin_spec_as_custom_factor_is_the_builtin(self, name):
        def manifest(entry):
            return resolve_manifest({
                "factors": [entry, {"builtin": "kenmotsu_warped"}],
                "product": {"a": 1.0, "b": 1.0},
                "checks": [c for c in cli.ALL_CHECKS if c != "table1"],
                "sampling": {"count": 4}})

        custom = manifest({"custom": contact.BUILTIN_SPECS[name]})
        builtin = manifest({"builtin": name})
        Fc, Fb = custom["factors"][0], builtin["factors"][0]
        for obj_c, obj_b in ((Fc, Fb), (Fc.structure, Fb.structure)):
            for field in dataclasses.fields(obj_b):
                assert (getattr(obj_c, field.name)
                        == getattr(obj_b, field.name)), field.name
        reports = []
        for mf in (custom, builtin):
            rep = strip_timings(run(mf))
            rep["manifest"] = dict(rep["manifest"], factors=None)
            reports.append(canonical_json(rep))
        assert reports[0] == reports[1]

    def test_readme_builtin_example_is_the_spec(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Built-in factors:")[1].split("```json")[1]
        example = json.loads(block.split("```")[0])
        assert example == {"custom": contact.BUILTIN_SPECS[
            "sasakian_heisenberg"]}

    @pytest.mark.parametrize("edit, path", [
        ({"sampling": {"count": "abc"}}, "$.sampling.count"),
        ({"sampling": {"box": {"x": [1, -1]}}}, "$.sampling.box.x"),
        ({"sampling": {"box": {"x": 3}}}, "$.sampling.box.x"),
        ({"sampling": {"box": {"w": [0, 1]}}}, "$.sampling.box.w"),
        ({"numerics": {"tol": -1}}, "$.numerics.tol"),
        ({"numerics": {"tol": "inf"}}, "$.numerics.tol"),
        ({"numerics": {"fd_step": 0}}, "$.numerics.fd_step"),
        ({"product": {"a": "nan", "b": 1}}, "$.product.a"),
        ({"product": {"a": 1, "b": "-inf"}}, "$.product.b"),
        ({"sampling": {"seed": -1}}, "$.sampling.seed"),
        ({"factors": [{"builtin": "cosymplectic_flat",
                       "tamper": {"phi_scale": "abc"}},
                      {"builtin": "cosymplectic_flat"}]},
         "$.factors[0].tamper.phi_scale"),
        ({"factors": [{"builtin": "cosymplectic_flat"},
                      {"builtin": "cosymplectic_flat",
                       "tamper": {"phi_scale": "nan"}}]},
         "$.factors[1].tamper.phi_scale"),
    ], ids=["count_not_int", "box_lo_above_hi", "box_scalar",
            "box_unknown_key", "tol_negative", "tol_infinite",
            "fd_step_zero", "a_nan", "b_infinite", "seed_negative",
            "phi_scale_not_number", "phi_scale_nan"])
    def test_bad_value_exit_2_with_path(self, tmp_path, capsys, edit, path):
        m = write_manifest(tmp_path, dict(MINIMAL, **edit))
        assert main(["verify", m]) == EXIT_CONFIG
        assert f"configuration error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, path", [
        ({"sampling": {"count": True, "seed": False},
          "numerics": {"tol": True}, "product": {"a": True, "b": True}},
         "$.product.a"),
        ({"sampling": {"count": True}}, "$.sampling.count"),
        ({"sampling": {"seed": False}}, "$.sampling.seed"),
        ({"numerics": {"tol": True}}, "$.numerics.tol"),
        ({"numerics": {"fd_step": True}}, "$.numerics.fd_step"),
        ({"product": {"a": 1, "b": True}}, "$.product.b"),
        ({"product": {"grid": [[1, 1], [False, 1]]}},
         "$.product.grid[1][0]"),
        ({"sampling": {"box": {"x": [False, 1]}}}, "$.sampling.box.x[0]"),
        ({"factors": [{"builtin": "cosymplectic_flat",
                       "tamper": {"phi_scale": True}},
                      {"builtin": "cosymplectic_flat"}]},
         "$.factors[0].tamper.phi_scale"),
        ({"factors": [{"builtin": "cosymplectic_flat", "tamper": []},
                      {"builtin": "cosymplectic_flat"}]},
         "$.factors[0].tamper"),
        ({"factors": [{"builtin": "cosymplectic_flat"},
                      {"builtin": "cosymplectic_flat", "tamper": 0}]},
         "$.factors[1].tamper"),
    ], ids=["all_booleans", "count", "seed", "tol", "fd_step", "b", "grid",
            "box", "phi_scale", "tamper_empty_list", "tamper_zero"])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, edit,
                                          path):
        m = write_manifest(tmp_path, dict(MINIMAL, **edit))
        assert main(["verify", m]) == EXIT_CONFIG
        assert f"configuration error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("src, where", [
        ("1e999", "g"), ("1e200*1e200", "g"), ("x*1e999", "phi"),
        ("-1e999", "alpha"), ("1e308+1e308", "beta"),
    ], ids=["overflowing_literal", "folded_product", "inside_product",
            "negated", "folded_sum"])
    def test_non_finite_constant_exit_2_with_path(self, tmp_path, capsys,
                                                  src, where):
        custom = {
            "dim": 3, "coords": ["x", "y", "z"],
            "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            "xi": ["0", "0", "1"], "eta": ["0", "0", "1"],
        }
        path = "$.factors[1].custom." + where
        if where in ("g", "phi"):
            custom[where][0][1] = src
            path += "[0][1]"
        else:
            custom[where] = src
        data = dict(MINIMAL, factors=[{"builtin": "cosymplectic_flat"},
                                      {"custom": custom}])
        assert main(["verify", write_manifest(tmp_path, data)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: {path}:" in err
        assert "non-finite constant" in err

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_broken_j_must_be_a_json_boolean(self, tmp_path, capsys, value):
        data = dict(MINIMAL, product={"tamper": {"broken_j": value}})
        assert main(["verify", write_manifest(tmp_path, data)]) == EXIT_CONFIG
        assert ("configuration error: $.product.tamper.broken_j:"
                in capsys.readouterr().err)

    def test_broken_j_boolean_accepted(self):
        for value in (False, True):
            data = dict(MINIMAL, product={"tamper": {"broken_j": value}})
            assert resolve_manifest(data)["broken_j"] is value

    @pytest.mark.parametrize("flags, path", [
        (["--samples", "0"], "--samples"),
        (["--tol", "0"], "--tol"),
        (["--tol=-1e-6"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--seed", "-1"], "--seed"),
        (["--ab", "nan,1"], "--ab"),
        (["--ab", "1,2,3"], "--ab"),
    ], ids=["samples_zero", "tol_zero", "tol_negative", "tol_infinite",
            "tol_nan", "seed_negative", "ab_nan", "ab_three_values"])
    def test_bad_flag_exit_2_with_path(self, tmp_path, capsys, flags, path):
        m = write_manifest(tmp_path, MINIMAL)
        assert main(["verify", m, *flags]) == EXIT_CONFIG
        assert f"configuration error: {path}:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["verify", "/nonexistent/manifest.json"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestRun:
    def test_flat_flat_all_product_checks_pass(self):
        mf = resolve_manifest({
            "factors": [{"builtin": "cosymplectic_flat"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["axioms", "trans_sasakian", "transverse", "connection",
                       "nabla_j", "curvature", "integrability",
                       "codifferential", "harmonicity", "astheno", "energy"],
            "sampling": {"count": 8},
        })
        out = run(mf)
        assert out["overall_verdict"] == "pass"
        for chk in out["checks"]:
            if chk["name"].startswith("energy"):
                continue
            assert chk["max_residual"] < 1e-9, chk["name"]

    @pytest.mark.parametrize("key", ["t2", "product.t2"])
    def test_product_box_override_narrows_the_sampling_only(self, key):
        mf = resolve_manifest({
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "kenmotsu_warped"}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["connection", "nabla_j", "curvature"],
            "sampling": {"count": 8, "box": {key: [-0.2, 0.2]}},
        })
        names = product.build_product(*mf["factors"], 1.0, 1.0).chart.names
        t2 = names.index("t2")
        out = run(mf)
        assert [c["verdict"] for c in out["checks"]] == ["pass"] * 3
        for chk in out["checks"]:
            for fam in chk["details"]["families"].values():
                assert -0.2 <= fam["worst_point"][t2] <= 0.2, chk["name"]

    @pytest.mark.parametrize("tag,name,check", [
        ("f1", "t", "axioms"), ("product", "t2", "connection")])
    def test_qualified_box_key_beats_the_bare_one(self, tag, name, check):
        mf = resolve_manifest({
            "factors": [{"builtin": "kenmotsu_warped"},
                        {"builtin": "kenmotsu_warped"}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": [check],
            "sampling": {"count": 8, "box": {f"{tag}.{name}": [0.1, 0.1],
                                             name: [-0.2, 0.2]}},
        })
        chk = run(mf)["checks"][0]
        names = (mf["factors"][0].chart.names if tag == "f1" else
                 product.build_product(*mf["factors"], 1.0, 1.0).chart.names)
        for fam in chk["details"]["families"].values():
            assert fam["worst_point"][names.index(name)] == 0.1

    @pytest.mark.parametrize("checks", [None, []], ids=["absent", "empty"])
    def test_no_checks_exit_2_and_classify_still_runs(self, tmp_path, capsys,
                                                      checks):
        data = dict(MINIMAL, sampling={"count": 4})
        data.pop("checks")
        if checks is not None:
            data["checks"] = checks
        m = write_manifest(tmp_path, data)
        with pytest.raises(ManifestError) as err:
            run(resolve_manifest(data))
        assert err.value.path == "$.checks"
        assert main(["verify", m]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "$.checks: no checks requested" in captured.err
        assert main(["classify", m]) == EXIT_OK

    def test_broken_j_control_fails(self):
        mf = resolve_manifest({
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "kenmotsu_warped"}],
            "product": {"a": 1.0, "b": 2.0, "tamper": {"broken_j": True}},
            "checks": ["integrability", "harmonicity"],
            "sampling": {"count": 8},
        })
        out = run(mf)
        assert out["overall_verdict"] == "fail"
        assert cli.exit_code_for(out) == EXIT_FAILED
        verdicts = {c["name"]: c["verdict"] for c in out["checks"]}
        assert all(v != "harmonic" for n, v in verdicts.items()
                   if n.startswith("harmonicity"))

    def test_broken_j_control_fails_table1(self):
        # table1 builds its nine class pairs itself; the broken-J control
        # must reach every one of them
        mf = resolve_manifest({
            "factors": [{"builtin": "cosymplectic_flat"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"grid": [[1.0, 2.0]], "tamper": {"broken_j": True}},
            "checks": ["table1"],
            "sampling": {"count": 4},
        })
        out = run(mf)
        assert out["overall_verdict"] == "fail"
        (rep,) = out["checks"]
        assert rep["verdict"] == "fail"
        rows = rep["details"]["table1_rows"]
        assert [r["harmonicity"] for r in rows] == ["No"] * 9

    def test_corrupted_phi_control_fails_axioms(self):
        mf = resolve_manifest({
            "factors": [{"builtin": "cosymplectic_flat",
                         "tamper": {"phi_scale": 1.1}},
                        {"builtin": "cosymplectic_flat"}],
            "checks": ["axioms"],
            "sampling": {"count": 8},
        })
        out = run(mf)
        assert out["overall_verdict"] == "fail"
        assert out["checks"][0]["verdict"] == "fail"

    def test_check_errors_are_captured(self):
        # astheno on the broken-J product raises NotIntegrable internally;
        # the runner must convert it into a failing check, not crash
        mf = resolve_manifest({
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"a": 1.0, "b": 1.0, "tamper": {"broken_j": True}},
            "checks": ["astheno"],
            "sampling": {"count": 6},
        })
        out = run(mf)
        assert out["overall_verdict"] == "fail"
        assert "NotIntegrable" in out["checks"][0]["details"]["error"]


class TestDeterminism:
    def test_byte_identical_reports(self):
        mf1 = resolve_manifest(dict(MINIMAL, sampling={"count": 6}))
        mf2 = resolve_manifest(dict(MINIMAL, sampling={"count": 6}))
        r1 = canonical_json(strip_timings(run(mf1)))
        r2 = canonical_json(strip_timings(run(mf2)))
        assert r1 == r2

    def test_timings_isolated(self):
        mf = resolve_manifest(dict(MINIMAL, sampling={"count": 4}))
        out = run(mf)
        assert "timings" in out
        stripped = strip_timings(out)
        assert "timings" not in stripped


class TestEmitAndMain:
    def test_table1_cli_markdown(self, tmp_path, capsys):
        out = tmp_path / "t1.md"
        code = main(["table1", "--samples", "4", "--format", "md",
                     "--ab", "0,1", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert report.TABLE1_HEADER in text
        assert text.count("Yes") == 9

    def test_verify_json_roundtrip_and_report_rerender(self, tmp_path):
        m = write_manifest(tmp_path, dict(MINIMAL, sampling={"count": 4},
                                          product={"a": 0.0, "b": 1.0}))
        out = tmp_path / "r.json"
        code = main(["verify", m, "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["engine"]["name"] == "tsgeom"
        md_out = tmp_path / "r.md"
        code = main(["report", str(out), "--format", "md", "--out",
                     str(md_out)])
        assert code == EXIT_OK
        assert "Verification report" in md_out.read_text()

    def test_classify_builtins(self, tmp_path, capsys):
        m = write_manifest(tmp_path, {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "kenmotsu_warped"}],
            "checks": [],
            "sampling": {"count": 16},
        })
        code = main(["classify", m])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        c1, c2 = data["classification"]
        assert c1["class"] == "sasakian"
        assert abs(c1["alpha"] - 1.0) < 1e-7
        assert c2["class"] == "kenmotsu"
        assert abs(c2["beta"] - 1.0) < 1e-7

    def test_report_renders_a_saved_classify_report(self, tmp_path, capsys):
        m = write_manifest(tmp_path, dict(MINIMAL, sampling={"count": 4}))
        saved = tmp_path / "c.json"
        main(["classify", m, "--out", str(saved)])
        main(["classify", m, "--format", "md"])
        want = capsys.readouterr().out
        assert main(["report", str(saved), "--format", "md"]) == EXIT_OK
        shown = capsys.readouterr().out
        assert shown == want
        assert "f1 (cosymplectic_flat) |" in shown

    @pytest.mark.parametrize("data", [
        {"engine": {"name": "tsgeom"}}, [1, 2], "report", {"checks": [1]},
        {"checks": [], "classification": []},
    ], ids=["object", "list", "string", "check_not_object",
            "no_verdict"])
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_report_of_something_else_exit_2(self, tmp_path, capsys, data,
                                             fmt):
        saved = tmp_path / "r.json"
        saved.write_text(json.dumps(data))
        assert main(["report", str(saved), "--format", fmt]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: $: expected a saved" in captured.err

    def test_classify_samples_the_overridden_box(self, monkeypatch):
        seen = []

        def record(ev, F, pts, tol):
            seen.append(pts)
            return {"name": F.structure.name, "class": "cosymplectic"}

        monkeypatch.setattr(cli, "factor_class_report", record)
        cli.classify(resolve_manifest(dict(
            MINIMAL, sampling={"count": 8, "box": {"f1.z": [5, 5]}})))
        z = 2  # cosymplectic_flat's coordinates are (x, y, z)
        assert np.all(seen[0][:, z] == 5.0)
        assert np.all(np.abs(seen[1][:, z]) <= 1.0)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_markdown_names_the_error_of_a_check(self, tmp_path, capsys,
                                                 command):
        m = write_manifest(tmp_path, {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"a": 1.0, "b": 1.0, "tamper": {"broken_j": True}},
            "checks": ["astheno"],
            "sampling": {"count": 6},
        })
        saved = tmp_path / "r.json"
        main(["verify", m, "--out", str(saved)])
        capsys.readouterr()
        main([command, str(saved) if command == "report" else m,
              "--format", "md"])
        text = capsys.readouterr().out
        assert "- astheno[a=1,b=1]: NotIntegrable: Nijenhuis residual " in text
        assert "(raised in `tsgeom.harmonic.astheno_residual`)" in text

    @pytest.mark.parametrize("command", ["verify", "classify", "report"])
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_out_file_holds_what_stdout_shows(self, tmp_path, capsys,
                                              command, fmt):
        m = write_manifest(tmp_path, dict(MINIMAL, sampling={"count": 2},
                                          checks=["axioms"]))
        saved = tmp_path / "saved.json"
        main(["verify", m, "--out", str(saved)])
        capsys.readouterr()
        args = [command, str(saved) if command == "report" else m,
                "--format", fmt]
        code = main(args)
        shown = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        written = out.read_text()
        if command == "verify" and fmt == "json":  # timings differ per run
            shown, written = (report.strip_timings(json.loads(t))
                              for t in (shown, written))
        assert shown and written == shown

    def test_ab_flag_overrides_grid(self, tmp_path):
        m = write_manifest(tmp_path, dict(MINIMAL, sampling={"count": 4}))
        out = tmp_path / "r.json"
        code = main(["verify", m, "--ab", "2,1", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["manifest"]["ab_grid"] == [[2.0, 1.0]]
        assert len(data["checks"]) == 1
        assert "a=2,b=1" in data["checks"][0]["name"]

    def test_booleans_are_json_booleans(self):
        mf = resolve_manifest({
            "factors": [{"builtin": "cosymplectic_flat"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"a": 1.0, "b": 1.0},
            "checks": ["integrability"],
            "sampling": {"count": 4},
        })
        data = json.loads(canonical_json(run(mf)))
        assert data["manifest"]["broken_j"] is False
        assert data["checks"][0]["details"]["integrable"] is True

    def test_error_check_is_strict_json(self, tmp_path, capsys):
        # astheno on the broken-J product raises NotIntegrable: the failing
        # check's infinite residual is written as null, not Infinity
        m = write_manifest(tmp_path, {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"builtin": "cosymplectic_flat"}],
            "product": {"a": 1.0, "b": 1.0, "tamper": {"broken_j": True}},
            "checks": ["astheno"],
            "sampling": {"count": 6},
        })
        out = tmp_path / "r.json"
        assert main(["verify", m, "--out", str(out)]) == EXIT_FAILED

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        data = json.loads(out.read_text(), parse_constant=reject)
        chk = data["checks"][0]
        assert chk["verdict"] == "fail"
        assert chk["max_residual"] is None and chk["mean_residual"] is None
        assert main(["report", str(out), "--format", "md"]) == EXIT_OK
        assert "| non-finite | non-finite | fail" in capsys.readouterr().out

    def test_canonical_json_shortest_roundtrip_floats(self):
        s = canonical_json({"x": 0.1, "y": 1.0 / 3.0})
        assert '"x":0.1' in s
        assert json.loads(s)["y"] == 1.0 / 3.0


class TestErrorCapture:
    """Only the engine's domain errors become failing checks."""

    LOG_FACTOR = {
        "name": "log_alpha", "dim": 3, "coords": ["t", "x", "y"],
        "g": [["1", "0", "0"], ["0", "exp(4*t)", "0"],
              ["0", "0", "exp(4*t)"]],
        "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        "xi": ["1", "0", "0"], "eta": ["1", "0", "0"],
        "alpha": "log(t)", "beta": "2",
    }

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a domain error")

        monkeypatch.setattr(cli, "connection_closed_form_report", broken)
        mf = resolve_manifest(dict(MINIMAL, checks=["connection"],
                                   sampling={"count": 4}))
        with pytest.raises(TypeError):
            run(mf)

    def test_programming_error_propagates_from_classify(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a domain error")

        monkeypatch.setattr(cli, "factor_class_report", broken)
        with pytest.raises(TypeError):
            cli.classify(resolve_manifest(dict(MINIMAL,
                                               sampling={"count": 4})))

    def test_domain_error_is_a_failing_check_with_its_origin(self):
        # log(t) is undefined on the t <= 0 half of the sampling box
        mf = resolve_manifest({
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"custom": self.LOG_FACTOR}],
            "checks": ["trans_sasakian"],
            "sampling": {"count": 6},
        })
        out = run(mf)
        assert out["overall_verdict"] == "fail"
        chk = out["checks"][1]
        assert chk["verdict"] == "fail"
        assert chk["details"]["error"].startswith("EvalDomainError: ")
        assert chk["details"]["error_origin"].startswith("tsgeom.expr.")

    def test_domain_error_has_one_origin_in_both_modes(self):
        # jets and the fd stencil's values go through one walk, which has
        # one place that raises a domain error
        origins = set()
        for mode in ("jet", "fd"):
            out = run(resolve_manifest({
                "factors": [{"builtin": "sasakian_heisenberg"},
                            {"custom": self.LOG_FACTOR}],
                "checks": ["trans_sasakian"],
                "sampling": {"count": 6},
                "numerics": {"mode": mode},
            }))
            details = out["checks"][1]["details"]
            assert "domain error in 'log'" in details["error"]
            origins.add(details["error_origin"])
        assert origins == {"tsgeom.expr._check_domain"}

    # g_xx = log(t) is undefined on the t <= 0 half of the sampling box, so
    # classify cannot evaluate the metric there
    LOG_METRIC = dict(LOG_FACTOR, name="log_g", alpha="0",
                      g=[["1", "0", "0"], ["0", "log(t)", "0"],
                         ["0", "0", "exp(4*t)"]])

    def _log_metric_manifest(self, tmp_path):
        return write_manifest(tmp_path, {
            "factors": [{"builtin": "sasakian_heisenberg"},
                        {"custom": self.LOG_METRIC}],
            "checks": [],
            "sampling": {"count": 6},
        })

    def test_classify_names_the_error_class_as_verify_does(self, tmp_path,
                                                           capsys):
        code = main(["classify", self._log_metric_manifest(tmp_path)])
        assert code == EXIT_FAILED
        info = json.loads(capsys.readouterr().out)["classification"][1]
        assert info["class"] == "unverified"
        assert info["error"].startswith("EvalDomainError: domain error in 'log'")
        assert info["error_origin"] == "tsgeom.expr._check_domain"

    def test_classify_markdown_shows_why_a_factor_is_unverified(
            self, tmp_path, capsys):
        main(["classify", self._log_metric_manifest(tmp_path),
              "--format", "md"])
        text = capsys.readouterr().out
        assert "f2 (log_g) |  |  |  | unverified" in text
        assert "\n## Errors\n- f2 (log_g): EvalDomainError: domain error " \
               "in 'log' at point (" in text
        assert "(raised in `tsgeom.expr._check_domain`)" in text
        assert text.count("raised in") == 1
