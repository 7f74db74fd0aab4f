import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from modwave import WaveParams, classify, fingerprint
from modwave.bloch import BO_TAIL_FLOOR
from modwave.cli import equation_from_name, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_stable_exit0(capsys):
    code, out, _ = run_cli(["classify", "--equation", "kdv",
                            "--a", "-0.5", "--E", "0.0", "--c", "-1.3333333333333333"],
                           capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["classification"] == "stable"
    assert rec["convention_fingerprint"]


def test_classify_unstable_exit10(capsys):
    code, out, _ = run_cli(["classify", "--equation", "mkdv-focusing",
                            "--a", "0", "--E", "0.5", "--c", "-1"], capsys)
    assert code == 10
    assert json.loads(out)["classification"] == "unstable"


def test_classify_hypothesis_failed_exit30(capsys):
    code, out, _ = run_cli(["classify", "--equation", "kdv",
                            "--a", "0", "--E", "0", "--c", "-1"], capsys)
    assert code == 30


@pytest.mark.parametrize("command", ["classify", "bloch-check"])
def test_non_finite_parameter_is_an_error_line(command, capsys):
    code, out, err = run_cli([command, "--equation", "kdv",
                              "--a", "nan", "--E", "0", "--c", "-1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err
    assert out == ""


def test_malformed_config_exit1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"equation": {"name": "kdv"}, "parameters": {"a": "oops"}}')
    code, _, err = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 1
    assert "a" in err            # field name in the diagnostic


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize("config, field", [
    ([1, 2], "config"),
    ({"equation": "kdv", "grid": {"a": [-0.6, -0.4, 3]},
      "parameters": {"a": -0.5, "E": 0.0, "c": -1.5}}, "equation"),
    ({"equation": {"name": ["kdv"]}, "grid": {"a": [-0.6, -0.4, 3]},
      "parameters": {"a": -0.5, "E": 0.0, "c": -1.5}}, "equation"),
    ({"equation": {"name": "kdv"}, "grid": {"a": [-0.6, -0.4, 3]},
      "parameters": [-0.5, 0.0, -1.5]}, "parameters"),
    ({"equation": {"name": "kdv"}, "grid": {"a": [-0.6, -0.4, 3]},
      "parameters": {"a": -0.5, "E": 0.0, "c": -1.5, "branch": "x"}}, "branch"),
], ids=["top-level-array", "equation-string", "name-array", "parameters-array",
        "branch-string"])
def test_config_of_the_wrong_shape_is_an_error_line(command, config, field, tmp_path,
                                                    capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"(field: {field})" in err


def test_sweep_fractional_grid_count_is_an_error_line(tmp_path, capsys):
    # a count of 2.5 is not truncated to 2 points
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"equation": {"name": "kdv"}, "grid": {"a": [-0.6, -0.4, 2.5]},
                               "parameters": {"E": 0.0, "c": -1.5}}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: grid.a must be") and "integer n >= 1" in err


@pytest.mark.parametrize("grid", [{"a": [-0.6, "x", 3]}, {"a": [-0.6, 0.6, "3"]}],
                         ids=["lo-hi-string", "count-string"])
def test_sweep_non_numeric_grid_entry_is_an_error_line(grid, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"equation": {"name": "kdv"}, "grid": grid,
                               "parameters": {"E": 0.0, "c": -1.5}}))
    code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "grid.a" in err


@pytest.mark.parametrize("argv", [["--symbol", "ilw", "--k-step", "0"],
                                  ["--symbol", "whitham", "--k-step", "-0.1"]],
                         ids=["ilw-zero", "whitham-negative"])
def test_smallamp_nonpositive_step_is_an_error_line(argv, capsys):
    code, out, err = run_cli(["smallamp", *argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "k_step" in err


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_bloch_check_tol_not_finite_positive_is_an_error_line(value, capsys):
    # such a --tol made every wave a mismatch
    code, out, err = run_cli(["bloch-check", "--equation", "kdv", "--a", "-0.5", "--E", "0",
                              "--c", "-1.3333333333333333", "--tol", value], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --tol must be a finite positive number")
    assert "(field: tol)" in err


def test_smallamp_non_numeric_alphas_is_an_error_line(capsys):
    code, out, err = run_cli(["smallamp", "--symbol", "fkdv", "--alphas", "1,x"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --alphas must be comma-separated numbers")
    assert "(field: alphas)" in err


@pytest.mark.parametrize("argv, field", [
    (["--symbol", "fkdv", "--alphas", "1,nan"], "alphas"),
    (["--symbol", "fkdv", "--alphas", "1,inf"], "alphas"),
    (["--symbol", "fkdv", "--k", "nan"], "k"),
    (["--symbol", "whitham", "--k-min", "nan"], "k_min"),
    (["--symbol", "whitham", "--k-max", "inf"], "k_max"),
    (["--symbol", "ilw", "--H-min", "nan"], "H_min"),
    (["--symbol", "ilw", "--H-max", "inf"], "H_max")],
    ids=["alphas-nan", "alphas-inf", "k", "k-min", "k-max", "H-min", "H-max"])
def test_smallamp_non_finite_number_is_an_error_line(argv, field, capsys):
    # each of these ended in a ValueError traceback (int(nan) or np.arange)
    code, out, err = run_cli(["smallamp", *argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: --{field.replace('_', '-')} must be a finite number")
    assert f"(field: {field})" in err


def test_local_bloch_check_classifies_and_integrates_once(monkeypatch, capsys):
    # the Jacobian comes from the profile's moment table, not from a second
    # classification and quadrature of the same wave
    import modwave.waves as waves
    calls = {"classify_parameters": 0, "_quadrature": 0}
    for name in calls:
        def counted(*args, _fn=getattr(waves, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(waves, name, counted)
    code, out, _ = run_cli(["bloch-check", "--equation", "kdv", "--a", "-0.5", "--E", "0",
                            "--c", "-1.3333333333333333"], capsys)
    assert code == 0 and "relative mismatch" in out
    assert calls == {"classify_parameters": 1, "_quadrature": 1}


def test_unknown_equation_exit1(capsys):
    code, _, err = run_cli(["classify", "--equation", "nope",
                            "--a", "0", "--E", "0", "--c", "-1"], capsys)
    assert code == 1
    assert "equation" in err


def test_bloch_check_ceiling_below_the_wave_is_an_error_line(capsys):
    # --modes is a ceiling; 2 modes leave a Fourier tail of 2.4e-5
    code, out, err = run_cli(["bloch-check", "--equation", "kdv", "--a", "-0.5", "--E", "0",
                              "--c", "-1.3333333333333333", "--modes", "2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ResolutionError: Fourier tail energy 2.39e-05")


def test_bloch_check_near_solitary_kdv_answers(capsys):
    # KdV roots (3, 1e-4, 0): two predicted slopes of +-2.2e-4 beside one of
    # -1.18.  The measured cubic carries the rounding of the near-Jordan
    # triple: its small pair is +-1.1e-3i, an unstable picture, though the
    # mismatch, 9.8e-4 relative, is under the default --tol
    code, out, err = run_cli(["bloch-check", "--equation", "kdv", "--a=-5e-05", "--E", "0",
                              "--c=-1.0000333333333333"], capsys)
    assert code == 1 and err == ""
    assert re.search(r"^relative mismatch: [0-9.e+-]+ ", out, re.M)
    assert out.endswith("stability: measured unstable, predicted stable\n")


def test_bloch_check_long_focusing_wave_matches(capsys):
    # a focusing mKdV wave of period 29.9, once a mismatch of 8.2e-3
    code, out, _ = run_cli(["bloch-check", "--equation", "mkdv-focusing",
                            "--a", "-0.015236053039830975", "--E", "0.004522796478762389",
                            "--c", "-0.06419800505350734"], capsys)
    assert code == 0
    assert "relative mismatch" in out


def test_bloch_check_negative_modes_is_an_error_line(capsys):
    code, out, err = run_cli(["bloch-check", "--equation", "bo", "--modes", "-3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --modes must be between 1 and 1024")


@pytest.mark.parametrize("equation", ["kdv", "bo"])
def test_bloch_check_modes_above_the_cap_is_rejected_before_any_work(equation, capsys,
                                                                     monkeypatch):
    # the cap is checked first: no profile, assembler or matrix is built
    import modwave.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("bloch-check built a wave past the --modes cap")

    for name in ("resolve_profile", "local_assembler", "bo_assembler"):
        monkeypatch.setattr(cli, name, forbidden)
    code, out, err = run_cli(["bloch-check", "--equation", equation, "--a", "-0.5",
                              "--c", "-1.3333333333333333",
                              "--modes", str(cli.MAX_MODES + 1)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: --modes must be between 1 and {cli.MAX_MODES}")


def test_sweep_without_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--format", "csv"])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err


def test_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(["classify", "--equation", "kdv", "--a", "-0.5",
                          "--E", "0.0", "--c", "-1.3333333333333333",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rec = json.loads(out_path.read_text())
    body2 = json.dumps(rec, indent=2, sort_keys=True)
    assert json.loads(body2) == rec


def test_sweep_deterministic_and_row_major(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "equation": {"name": "kdv"},
        "grid": {"a": [-0.6, -0.4, 2], "E": [-0.05, 0.05, 2.0]},   # an integral float counts
        "parameters": {"c": -1.5},
    }))
    bodies = []
    for i in range(2):
        out_path = tmp_path / f"sweep{i}.csv"
        code, _, _ = run_cli(["sweep", "--config", str(cfg), "--format", "csv",
                              "--out", str(out_path)], capsys)
        assert code == 0
        bodies.append(out_path.read_text())
    assert bodies[0] == bodies[1]                     # byte-identical
    lines = bodies[0].splitlines()
    assert lines[0].startswith("#schema=")
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 4
    a_col = [float(r[1]) for r in rows]
    E_col = [float(r[2]) for r in rows]
    assert a_col == [-0.6, -0.6, -0.4, -0.4]          # row-major order
    assert E_col == [-0.05, 0.05, -0.05, 0.05]


def test_sweep_csv_fields_are_plain_numbers(tmp_path, capsys):
    # mixed grid: periodic KdV waves and points without a bounded orbit
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "equation": {"name": "kdv"},
        "grid": {"a": [-0.6, 0.6, 3], "E": [-0.1, 0.1, 3]},
        "parameters": {"c": -1.5},
    }))
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--format", "csv",
                          "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    header, rows = lines[1].split(","), [l.split(",") for l in lines[2:]]
    assert len(rows) == 9
    assert {r[header.index("classification")] for r in rows} >= {"stable", "hypothesis-failed"}
    for row in rows:
        for name, field in zip(header, row):
            assert "np." not in field
            if name in ("a", "E", "c", "delta_mi", "T", "M", "P") and field:
                float(field)
            if name.startswith("mu"):
                complex(field)


def test_fingerprint_golden():
    from modwave import fingerprint
    assert fingerprint() == "88859343ea1e"


def test_import_loads_no_scipy_or_multiprocessing():
    # the import alone, then a local Bloch slope measurement after it
    local_bloch = (
        "from modwave import kdv_params_from_roots, kdv_spec, resolve_profile; "
        "from modwave.bloch import local_assembler, modulation_slopes; "
        "modulation_slopes(local_assembler(resolve_profile(kdv_spec(), "
        "kdv_params_from_roots(3.0, 1.0, 0.0)), N=48)); ")
    pencil = ("from modwave import delta_discriminant, whitham_symbol; "
              "delta_discriminant(2.0, 1e-2, 1e-4, whitham_symbol()); ")
    for work in ("", local_bloch, pencil):
        code = ("import sys, modwave, modwave.cli; " + work +
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", work


# options a subcommand does not read: ones it accepted and ignored while all five
# shared one option set, and the removed classify/sweep --tol-quad and smallamp --alpha
UNREAD_OPTIONS = [("classify", "--modes", "128"), ("sweep", "--modes", "128"),
                  ("classify", "--tol-quad", "1e-12"), ("sweep", "--tol-quad", "1e-12"),
                  ("smallamp", "--equation", "kdv"), ("smallamp", "--config", "CFG"),
                  ("smallamp", "--tol-quad", "1e-12"), ("smallamp", "--modes", "128"),
                  ("smallamp", "--alpha", "0.8"),
                  ("bloch-check", "--config", "CFG"), ("bloch-check", "--out", "OUT"),
                  ("bloch-check", "--format", "csv"), ("bloch-check", "--tol-quad", "1e-13"),
                  ("validate", "--equation", "kdv"), ("validate", "--config", "CFG"),
                  ("validate", "--out", "OUT"), ("validate", "--format", "csv"),
                  ("validate", "--tol-quad", "1e-12"), ("validate", "--modes", "64")]


@pytest.mark.parametrize("command,option,value", UNREAD_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in UNREAD_OPTIONS])
def test_option_the_subcommand_does_not_read_is_a_usage_error(command, option, value,
                                                              tmp_path, capsys):
    # each base command is valid and exits 0 on its own
    cfg = str(_sweep_config(tmp_path, "kdv"))
    base = {"classify": ["--equation", "kdv", "--a", "-0.5", "--E", "0.0",
                         "--c", "-1.3333333333333333"],
            "sweep": ["--config", cfg],
            "smallamp": ["--symbol", "fkdv"],
            "bloch-check": ["--equation", "bo", "--modes", "64"],
            "validate": []}[command]
    value = {"CFG": cfg, "OUT": str(tmp_path / "out")}.get(value, value)
    with pytest.raises(SystemExit) as exc:
        main([command, *base, option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} " in capsys.readouterr().err


def test_smallamp_whitham_cutoff(capsys):
    code, out, _ = run_cli(["smallamp", "--symbol", "whitham",
                            "--k-min", "0.6", "--k-max", "1.8", "--k-step", "0.2"],
                           capsys)
    assert code == 0
    res = json.loads(out)
    assert 1.145 <= res["k_star"] <= 1.147


def test_smallamp_whitham_cutoff_outside_the_table(capsys):
    # k* is a property of the symbol: a table from 1.5 to 3 (k* = 1.146 not
    # in it) once bisected on [1.5, 2.0] and ended in a DomainError
    code, out, _ = run_cli(["smallamp", "--symbol", "whitham",
                            "--k-min", "1.5", "--k-max", "3", "--k-step", "0.5"], capsys)
    assert code == 0
    res = json.loads(out)
    assert [r["k"] for r in res["rows"]] == [1.5, 2.0, 2.5, 3.0]
    assert 1.145 <= res["k_star"] <= 1.147


def test_smallamp_fkdv_sign_flip(capsys):
    code, out, _ = run_cli(["smallamp", "--symbol", "fkdv", "--k", "1.0",
                            "--alphas", "0.75,1.0,1.5"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["sign"] for r in rows] == [-1, 0, 1]


def test_smallamp_ilw_positive(capsys):
    code, out, _ = run_cli(["smallamp", "--symbol", "ilw",
                            "--k-min", "0.5", "--k-max", "2.0", "--k-step", "0.5",
                            "--H-min", "0.5", "--H-max", "2.0", "--H-step", "0.5"],
                           capsys)
    assert code == 0
    assert json.loads(out)["all_positive"] is True


def test_bloch_check_kdv(capsys):
    code, out, _ = run_cli(["bloch-check", "--equation", "kdv",
                            "--a", "-0.5", "--E", "0.0", "--c", "-1.3333333333333333",
                            "--modes", "40"], capsys)
    assert code == 0
    assert "relative mismatch" in out
    used = re.search(r"^modes    : (\d+) of ceiling 40, tail ([0-9.e+-]+)$", out, re.M)
    assert used and 1 <= int(used[1]) < 40 and float(used[2]) <= np.finfo(float).eps


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "modwave.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_bloch_check_bo(capsys):
    # --modes (default 64) is a ceiling on BO as on a local equation: the
    # wave needs 42 modes
    code, out, _ = run_cli(["bloch-check", "--equation", "bo", "--a", "0", "--k", "1",
                            "--c", "-2"], capsys)
    assert code == 0
    used = re.search(r"^modes    : (\d+) of ceiling 64, tail ([0-9.e+-]+)$", out, re.M)
    assert used and 1 <= int(used[1]) < 64 and float(used[2]) <= BO_TAIL_FLOOR


def test_validate_command(capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert out.count("PASS") >= 7


# one grid per equation with stable, unstable (focusing mKdV above the
# separatrix, E > 0), no-orbit and on-gamma (a double root at E = 0) rows
MIXED_GRIDS = {
    "kdv": ({"a": [-0.6, 0.6, 3], "E": [-0.1, 0.1, 3]}, {"c": -1.5}),
    "mkdv-focusing": ({"a": [-0.1, 0.1, 3], "E": [-1.0, 0.5, 4]}, {"c": -1.0}),
    "mkdv-defocusing": ({"a": [-0.1, 0.1, 3], "E": [-0.5, 0.5, 3]}, {"c": 1.0}),
    "schamel": ({"a": [1.0, 1.4, 3], "E": [-0.5, 0.5, 3]}, {"c": -1.0}),
}


def _sweep_config(tmp_path, equation):
    grid, params = MIXED_GRIDS[equation]
    cfg = tmp_path / f"{equation}.json"
    cfg.write_text(json.dumps({"equation": {"name": equation}, "grid": grid,
                               "parameters": params}))
    return cfg


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _mu_text(m):
    return f"{m.real!r}{'+' if m.imag >= 0 else ''}{m.imag!r}j"


@pytest.mark.parametrize("equation", sorted(MIXED_GRIDS))
def test_sweep_csv_fields_equal_report_reprs(equation, tmp_path, capsys):
    grid, params = MIXED_GRIDS[equation]
    a, E = (g.ravel() for g in np.meshgrid(np.linspace(*grid["a"]),
                                            np.linspace(*grid["E"]), indexing="ij"))
    c = np.full(a.size, params["c"])
    reports = classify(equation_from_name(equation), WaveParams(a, E, c))
    labels = {r.classification for r in reports}
    reasons = " ".join(r.diagnostics.get("reason", "") for r in reports)
    assert {"stable", "hypothesis-failed"} <= labels
    assert "NoBoundedOrbit" in reasons and "DegenerateRoots" in reasons
    assert ("unstable" in labels) == (equation == "mkdv-focusing")

    cfg = _sweep_config(tmp_path, equation)
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--format", "csv"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "#schema=modwave-report-1" and lines[-1] == ""
    rows = list(csv.reader(lines[1:-1]))
    assert rows[0] == ["equation", "a", "E", "c", "branch", "classification", "delta_mi",
                       "mu1", "mu2", "mu3", "T", "M", "P", "convention_fingerprint"]
    assert len(rows) == 1 + len(reports)
    for row, x, y, z, rep in zip(rows[1:], a.tolist(), E.tolist(), c.tolist(), reports):
        diag = rep.diagnostics
        expect = [equation, repr(x), repr(y), repr(z), "0", rep.classification,
                  "" if math.isnan(rep.delta_mi) else repr(rep.delta_mi),
                  *map(_mu_text, rep.mu_roots.tolist()),
                  *(repr(diag.get(k, math.nan)) for k in ("T", "M", "P")), fingerprint()]
        assert row == expect
        if rep.classification == "hypothesis-failed":
            assert row[6:13] == ["", "nan+0.0j", "nan+0.0j", "nan+0.0j", "nan", "nan", "nan"]

    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    records = _strict_json(out)
    assert len(records) == len(reports)
    null_nan = lambda v: None if math.isnan(v) else v
    for rec, x, y, rep in zip(records, a.tolist(), E.tolist(), reports):
        assert (rec["a"], rec["E"], rec["c"]) == (x, y, params["c"])
        assert rec["classification"] == rep.classification
        assert rec["delta_mi"] == null_nan(rep.delta_mi)
        assert rec["mu_roots"] == [[null_nan(m.real), m.imag] for m in rep.mu_roots.tolist()]
        for k in ("T", "M", "P"):
            assert rec["diagnostics"].get(k) == rep.diagnostics.get(k)


def test_json_reports_are_strict(tmp_path, capsys):
    # the on-gamma point (a double root) has no cubic roots: null, not NaN
    code, out, _ = run_cli(["classify", "--equation", "kdv",
                            "--a", "0", "--E", "0", "--c", "-1"], capsys)
    assert code == 30
    rec = _strict_json(out)
    assert rec["classification"] == "hypothesis-failed"
    assert rec["delta_mi"] is None and rec["mu_roots"] == [[None, 0.0]] * 3
    cfg = _sweep_config(tmp_path, "kdv")
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    refused = [r for r in _strict_json(out) if r["classification"] == "hypothesis-failed"]
    assert any("NoBoundedOrbit" in r["diagnostics"]["reason"] for r in refused)
    assert all(r["mu_roots"] == [[None, 0.0]] * 3 for r in refused)


def test_smallamp_tables_pinned(capsys):
    code, out, _ = run_cli(["smallamp", "--symbol", "whitham", "--format", "csv",
                            "--k-min", "0.6", "--k-max", "1.8", "--k-step", "0.2"], capsys)
    assert code == 0
    assert out == (
        "#schema=modwave-report-1-smallamp\n"
        "k,Gamma,Lambda\n"
        "0.6,0.07429541109143598,0.041867655106082105\n"
        "0.8,0.06653461515339723,0.04551676215467804\n"
        "1.0,0.03380937092925235,0.025121865840529806\n"
        "1.2000000000000002,-0.013701635609024987,-0.010206799921155\n"
        "1.4000000000000004,-0.0668315288840064,-0.04714284759030655\n"
        "1.6000000000000005,-0.11957595779555974,-0.07680749296588177\n"
        "1.8000000000000003,-0.16875980401766189,-0.09626234228622282\n")
    code, out, _ = run_cli(["smallamp", "--symbol", "ilw",
                            "--k-min", "0.5", "--k-max", "1.0", "--k-step", "0.5",
                            "--H-min", "0.5", "--H-max", "1.0", "--H-step", "0.5"], capsys)
    assert code == 0
    assert out == """{
  "all_positive": true,
  "convention_fingerprint": "88859343ea1e",
  "rows": [
    {
      "Delta_ILW": 14.827351054512109,
      "Gamma_ILW": 0.007921687540492994,
      "H": 0.5,
      "k": 0.5
    },
    {
      "Delta_ILW": 0.7399052375832493,
      "Gamma_ILW": 0.13212055882855767,
      "H": 1.0,
      "k": 0.5
    },
    {
      "Delta_ILW": 11.83848380133199,
      "Gamma_ILW": 0.13212055882855767,
      "H": 0.5,
      "k": 1.0
    },
    {
      "Delta_ILW": 0.3145928288701446,
      "Gamma_ILW": 2.4915251246104058,
      "H": 1.0,
      "k": 1.0
    }
  ],
  "symbol": "ilw"
}
"""


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    # the parser is built once per process: options of one call must not
    # reach the next
    wave = ["--equation", "mkdv-focusing", "--a", "0.05", "--E", "-0.1", "--c", "-1",
            "--format", "csv"]
    commands = [["classify", *wave, "--branch", "1"],
                ["sweep", "--config", str(_sweep_config(tmp_path, "kdv")), "--format", "csv"],
                ["classify", *wave]]
    outputs = []
    for argv in commands:
        code, out, _ = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "modwave.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        outputs.append(out)
    assert outputs[0] != outputs[2]          # branch 1 and branch 0 differ
