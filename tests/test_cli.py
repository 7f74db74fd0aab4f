import json
import subprocess
import sys

import pytest

from modwave.cli import main


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


def test_unknown_equation_exit1(capsys):
    code, _, err = run_cli(["classify", "--equation", "nope",
                            "--a", "0", "--E", "0", "--c", "-1"], capsys)
    assert code == 1
    assert "equation" in err


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
        "grid": {"a": [-0.6, -0.4, 2], "E": [-0.05, 0.05, 2]},
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
    code = ("import sys, modwave, modwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_smallamp_whitham_cutoff(capsys):
    code, out, _ = run_cli(["smallamp", "--symbol", "whitham",
                            "--k-min", "0.6", "--k-max", "1.8", "--k-step", "0.2"],
                           capsys)
    assert code == 0
    res = json.loads(out)
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


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "modwave.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_bloch_check_bo(capsys):
    code, out, _ = run_cli(["bloch-check", "--equation", "bo", "--a", "0.0",
                            "--k", "1.0", "--c", "-2.0", "--modes", "64"], capsys)
    assert code == 0


def test_validate_command(capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert out.count("PASS") >= 7


def test_nonpositive_tolerance_rejected(capsys):
    code, _, err = run_cli(["classify", "--equation", "kdv", "--a", "-0.5",
                            "--E", "0.0", "--c", "-1.33", "--tol-quad=-1e-9"],
                           capsys)
    assert code == 1
    assert "tol_quad" in err
