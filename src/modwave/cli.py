"""Command-line front end.

Subcommands: classify, sweep, smallamp, bloch-check, validate.  Each
declares only the options its handler reads (`modwave <cmd> --help`
lists them); any other option, or a sweep without --config, is an
argparse usage error, exit 2.
Exit codes for classify: 0 stable, 10 unstable, 20 degenerate,
30 hypothesis-failed, 1 error.  Reports embed the resolved-convention
fingerprint so numbers stay comparable across versions.  A sweep
classifies its grid in one process, SWEEP_CHUNK points per batched
classify call, and emits rows in row-major grid order; a row's timing_s
is its chunk's wall time divided by the chunk's row count.

One writer, `_emit`, serves classify, sweep and smallamp.  CSV rows are
formatted straight from the reports, one line per row with floats in
shortest round-trip repr (schema modwave-report-1); per-row JSON records
are built only for --format json, which is strict JSON: non-finite floats
(the nan cubic roots of a refused row, say) are written as null.  The
argument parser is built once per process.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bloch import (bo_assembler, local_assembler, match_slope_sets,
                    modulation_slopes)
from .bo import BOWaveParams, bo_conserved, bo_modulation_speeds, bo_quadrature_MP
from .conventions import fingerprint
from .equations import (EquationSpec, WaveParams, kdv_params_from_roots,
                        kdv_spec, mkdv_spec, schamel_spec)
from .errors import ConfigError, ModwaveError
from .mi_index import classify, kdv_closed_forms, modulation_slope_prediction
from .picard_fuchs import moment_jacobian, param_jacobian
from .smallamp import (benjamin_feir_cutoff, delta_constant_state,
                       delta_discriminant, delta_ilw, gamma_ilw, lambda_fkdv,
                       lambda_index, whitham_symbol)
from .waves import cnoidal_period, quadrature_TMPH, resolve_profile

EXIT_BY_LABEL = {"stable": 0, "unstable": 10, "degenerate": 20,
                 "hypothesis-failed": 30}

SWEEP_CHUNK = 1024          # grid points per batched classify call (bounds memory)
MAX_MODES = 1024            # largest bloch-check truncation N (matrices 2N + 1 square)

CSV_SCHEMA = "modwave-report-1"
CSV_COLUMNS = ["equation", "a", "E", "c", "branch", "classification",
               "delta_mi", "mu1", "mu2", "mu3", "T", "M", "P",
               "convention_fingerprint"]


def equation_from_name(name: str) -> EquationSpec:
    table = {
        "kdv": kdv_spec,
        "mkdv-focusing": lambda: mkdv_spec(+1),
        "mkdv-defocusing": lambda: mkdv_spec(-1),
        "schamel": schamel_spec,
    }
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown equation {name!r}", field="equation")
    return table[name]()


def _json_safe(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(args, schema: str, columns, csv_lines, json_obj) -> None:
    """The one report writer.  --format csv writes a `#schema=` comment,
    the header and csv_lines(), one finished line per row; --format json
    writes json_obj() as strict JSON, non-finite floats as null.  Only the
    format asked for is built.  Output goes to --out, or stdout."""
    if args.format == "json":
        body = json.dumps(_json_safe(json_obj()), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        body = "".join([f"#schema={schema}\n{','.join(columns)}\n", *csv_lines()])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _mu_field(m: complex) -> str:
    return f"{m.real!r}{'+' if m.imag >= 0 else ''}{m.imag!r}j"


def _emit_reports(args, name: str, branch: int, points: list, reports: list,
                  timings: list) -> None:
    """classify/sweep output, one row per (a, E, c) point and its report.
    Each CSV line is one f-string over the report's fields (floats in
    shortest round-trip repr; the fields hold no comma or quote, so no CSV
    quoting applies); JSON records are built only for --format json."""
    fp = fingerprint()

    def csv_lines():
        for (a, E, c), rep in zip(points, reports):
            diag, d = rep.diagnostics, rep.delta_mi
            mu1, mu2, mu3 = map(_mu_field, rep.mu_roots.tolist())
            yield (f"{name},{a!r},{E!r},{c!r},{branch},{rep.classification},"
                   f"{'' if math.isnan(d) else repr(d)},{mu1},{mu2},{mu3},"
                   f"{diag.get('T', math.nan)!r},{diag.get('M', math.nan)!r},"
                   f"{diag.get('P', math.nan)!r},{fp}\n")

    def records():
        recs = [{"equation": name, "a": a, "E": E, "c": c, "branch": branch,
                 "classification": rep.classification,
                 "delta_mi": rep.delta_mi,
                 "mu_roots": [[m.real, m.imag] for m in rep.mu_roots.tolist()],
                 "hypothesis_flags": rep.hypothesis_flags,
                 "diagnostics": rep.diagnostics,
                 "timing_s": dt, "version": __version__, "convention_fingerprint": fp}
                for (a, E, c), rep, dt in zip(points, reports, timings)]
        return recs if len(recs) != 1 else recs[0]

    _emit(args, CSV_SCHEMA, CSV_COLUMNS, csv_lines, records)


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}",
                          field="config")
    except OSError as exc:
        raise ConfigError(str(exc), field="config")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", field="config")
    return cfg


def _section(cfg: dict, field: str) -> dict:
    """The object cfg[field] ({} when absent)."""
    val = cfg.get(field, {})
    if not isinstance(val, dict):
        raise ConfigError(f"field {field!r} must be an object", field=field)
    return val


def _is_integer(val) -> bool:
    """An int (not a bool) or an integral float such as 5.0."""
    return not isinstance(val, bool) and (isinstance(val, int)
                                          or isinstance(val, float) and val.is_integer())


def _branch(params: dict) -> int:
    val = params.get("branch", 0)
    if not _is_integer(val):
        raise ConfigError(f"branch must be an integer, got {val!r}", field="branch")
    return int(val)


def _finite_positive(val: float, option: str, field: str) -> None:
    if not (math.isfinite(val) and val > 0):
        raise ConfigError(f"{option} must be a finite positive number, got {val!r}",
                          field=field)


def _finite(val: float, option: str, field: str) -> None:
    if not math.isfinite(val):
        raise ConfigError(f"{option} must be a finite number, got {val!r}", field=field)


def _require_number(cfg: dict, field: str):
    val = cfg.get(field)
    if not isinstance(val, (int, float)):
        raise ConfigError(f"missing or non-numeric field {field!r}", field=field)
    return float(val)


def cmd_classify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    name = args.equation or _section(cfg, "equation").get("name")
    if not name:
        raise ConfigError("equation not specified", field="equation")
    p = _section(cfg, "parameters")
    a = args.a if args.a is not None else _require_number(p, "a")
    E = args.E if args.E is not None else _require_number(p, "E")
    c = args.c if args.c is not None else _require_number(p, "c")
    branch = args.branch if args.branch is not None else _branch(p)
    for field, val in (("a", a), ("E", E), ("c", c)):
        if not np.isfinite(val):
            raise ConfigError(f"non-finite parameter {field} = {val!r}", field=field)
    spec = equation_from_name(name)
    t0 = time.perf_counter()
    report = classify(spec, WaveParams(a, E, c), branch=branch, tol_quad=args.tol_quad)
    _emit_reports(args, name, branch, [(a, E, c)], [report], [time.perf_counter() - t0])
    return EXIT_BY_LABEL.get(report.classification, 1)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    name = args.equation or _section(cfg, "equation").get("name")
    if not name:
        raise ConfigError("equation not specified", field="equation")
    p = _section(cfg, "parameters")
    grid_cfg = cfg.get("grid")
    if not isinstance(grid_cfg, dict) or not grid_cfg:
        raise ConfigError("sweep needs a non-empty 'grid' object", field="grid")
    axes = []
    for key in ("a", "E", "c"):
        if key in grid_cfg:
            spec_g = grid_cfg[key]
            if not (isinstance(spec_g, list) and len(spec_g) == 3
                    and all(isinstance(x, (int, float)) for x in spec_g)
                    and _is_integer(spec_g[2]) and spec_g[2] >= 1):
                raise ConfigError(f"grid.{key} must be [lo, hi, n] of numbers with an "
                                  f"integer n >= 1", field=f"grid.{key}")
            axes.append((key, np.linspace(spec_g[0], spec_g[1], int(spec_g[2]))))
        else:
            axes.append((key, np.array([_require_number(p, key)])))
    branch = _branch(p)
    spec = equation_from_name(name)
    grid = [g.ravel() for g in np.meshgrid(*(ax for _, ax in axes), indexing="ij")]
    reports, timings = [], []
    for lo in range(0, grid[0].size, SWEEP_CHUNK):
        a, E, c = (g[lo:lo + SWEEP_CHUNK] for g in grid)
        t0 = time.perf_counter()
        chunk = classify(spec, WaveParams(a, E, c), branch=branch, tol_quad=args.tol_quad)
        timings += [(time.perf_counter() - t0) / len(chunk)] * len(chunk)
        reports += chunk
    points = list(zip(*(g.tolist() for g in grid)))
    _emit_reports(args, name, branch, points, reports, timings)
    return 0


def cmd_smallamp(args) -> int:
    for field in ("k_step", "H_step"):
        _finite_positive(getattr(args, field), f"--{field.replace('_', '-')}", field)
    for field in ("k", "k_min", "k_max", "alpha", "H_min", "H_max"):
        _finite(getattr(args, field), f"--{field.replace('_', '-')}", field)
    rows = []
    if args.symbol == "whitham":
        sym = whitham_symbol()
        ks = np.arange(args.k_min, args.k_max + 0.5 * args.k_step, args.k_step)
        for k in ks:
            lam, gam = lambda_index(float(k), sym)
            rows.append({"k": float(k), "Gamma": gam, "Lambda": lam})
        kstar, bracket = benjamin_feir_cutoff(sym, max(args.k_min, 0.5),
                                              min(args.k_max, 2.0))
        result = {"symbol": "whitham", "rows": rows,
                  "k_star": kstar, "bracket": list(bracket),
                  "convention_fingerprint": fingerprint()}
    elif args.symbol == "fkdv":
        try:
            alphas = [float(x) for x in args.alphas.split(",")] if args.alphas else [args.alpha]
        except ValueError:
            raise ConfigError(f"--alphas must be comma-separated numbers, got {args.alphas!r}",
                              field="alphas")
        for al in alphas:
            _finite(al, "--alphas", "alphas")
            rows.append({"alpha": al, "Lambda_fKdV": lambda_fkdv(args.k, al),
                         "sign": int(np.sign(lambda_fkdv(args.k, al)))})
        result = {"symbol": "fkdv", "k": args.k, "rows": rows,
                  "convention_fingerprint": fingerprint()}
    else:
        ks = np.arange(args.k_min, args.k_max + 0.5 * args.k_step, args.k_step)
        Hs = np.arange(args.H_min, args.H_max + 0.5 * args.H_step, args.H_step)
        for k in ks:
            for H in Hs:
                rows.append({"k": float(k), "H": float(H),
                             "Delta_ILW": delta_ilw(float(k), float(H)),
                             "Gamma_ILW": float(gamma_ilw(float(k) * float(H)))})
        result = {"symbol": "ilw", "rows": rows,
                  "all_positive": bool(all(r["Delta_ILW"] > 0 for r in rows)),
                  "convention_fingerprint": fingerprint()}
    _emit(args, f"{CSV_SCHEMA}-smallamp", list(rows[0]) if rows else [],
          lambda: (",".join(map(repr, r.values())) + "\n" for r in rows),
          lambda: result)
    return 0


def cmd_bloch_check(args) -> int:
    if not 1 <= args.modes <= MAX_MODES:
        raise ConfigError(f"--modes must be between 1 and {MAX_MODES}, got {args.modes}",
                          field="modes")
    _finite_positive(args.tol, "--tol", "tol")
    if args.equation == "bo":
        params = BOWaveParams(a=args.a, k=args.k, c=args.c)
        assembler = bo_assembler(params, N=args.modes)
        measured = modulation_slopes(assembler)
        predicted = np.sort_complex(bo_modulation_speeds(params).astype(complex))
    else:
        profile = resolve_profile(equation_from_name(args.equation),
                                  WaveParams(args.a, args.E, args.c), branch=args.branch)
        assembler = local_assembler(profile, N=args.modes)
        measured = modulation_slopes(assembler)
        predicted = modulation_slope_prediction(moment_jacobian(profile.moments))
    mismatch = match_slope_sets(measured, predicted) / max(np.max(np.abs(predicted)), 1.0)
    used = assembler(0.0)
    print(f"modes    : {used.N} of ceiling {args.modes}, tail {used.tail:.2e}")
    print(f"measured : {np.round(measured, 6)}")
    print(f"predicted: {np.round(predicted, 6)}")
    print(f"relative mismatch: {mismatch:.3e} (tol {args.tol:.1e})")
    return 0 if mismatch < args.tol else 1


def cmd_validate(args) -> int:
    """Oracle suites: finite differences vs Picard-Fuchs, closed forms vs
    quadrature, Bloch slopes vs the dispersion cubic."""
    failures = 0

    def check(name, resid, tol):
        nonlocal failures
        ok = resid < tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {resid:.3e} (tol {tol:.1e})")

    # Picard-Fuchs vs finite differences, KdV + mKdV points.  The central
    # differences at steps 2e-3 and 1e-3 are combined by Richardson
    # extrapolation, (4 D(h) - D(2h))/3, which cancels the h^2 error term; a
    # single step small enough for the same accuracy would be limited by
    # rounding instead.
    def central_difference(spec, params, h):
        J = np.zeros((3, 3))
        for j, (da, dE, dc) in enumerate(np.eye(3) * h):
            up = quadrature_TMPH(spec, WaveParams(params.a + da, params.E + dE,
                                                  params.c + dc), tol_quad=1e-13)
            dn = quadrature_TMPH(spec, WaveParams(params.a - da, params.E - dE,
                                                  params.c - dc), tol_quad=1e-13)
            J[:, j] = (np.array(up[:3]) - np.array(dn[:3])) / (2 * h)
        return J

    def fd_jacobian(spec, params):
        return (4.0 * central_difference(spec, params, 1e-3)
                - central_difference(spec, params, 2e-3)) / 3.0

    kdv = kdv_spec()
    pk = kdv_params_from_roots(3.0, 1.0, 0.0)
    Jp = param_jacobian(kdv, pk)
    Jfd = fd_jacobian(kdv, pk)
    check("kdv picard-fuchs vs finite differences",
          float(np.max(np.abs(Jp.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3))), 1e-6)

    # a = 0 defocusing point: several entries vanish by symmetry, so the
    # comparison floors the denominator at 1e-3
    mk = mkdv_spec(-1)
    pm = WaveParams(0.0, 0.5, 1.0)
    Jp2 = param_jacobian(mk, pm)
    Jfd2 = fd_jacobian(mk, pm)
    check("mkdv picard-fuchs vs finite differences",
          float(np.max(np.abs(Jp2.J - Jfd2) / np.maximum(np.abs(Jfd2), 1e-3))), 1e-6)

    # KdV closed forms vs the Picard-Fuchs route
    T_E, TM, TMP, _ = kdv_closed_forms(Jp.T, Jp.M, pk.a, pk.E, pk.c)
    check("kdv closed forms vs picard-fuchs",
          max(abs(T_E - Jp.T_E), abs(TM - Jp.TM_aE), abs(TMP - Jp.TMP_aEc))
          / max(abs(Jp.TMP_aEc), 1.0), 1e-8)

    # cnoidal period vs quadrature
    T_quad = quadrature_TMPH(kdv, pk)[0]
    check("cnoidal period vs quadrature",
          abs(T_quad - cnoidal_period(3.0, 1.0, 0.0)) / T_quad, 1e-10)

    # BO closed forms vs trapezoid quadrature
    bop = BOWaveParams(0.0, 1.0, -2.0)
    Mq, Pq = bo_quadrature_MP(bop)
    Mc, Pc, _ = bo_conserved(bop)
    check("bo conserved closed forms vs quadrature",
          max(abs(Mq - Mc), abs(Pq - Pc)), 1e-8)

    # Bloch slopes vs dispersion cubic on the KdV test wave
    profile = resolve_profile(kdv, pk)
    measured = modulation_slopes(local_assembler(profile, N=48))
    predicted = modulation_slope_prediction(Jp)
    check("bloch slopes vs dispersion cubic (kdv)",
          match_slope_sets(measured, predicted) / float(np.max(np.abs(predicted))),
          1e-3)

    # Whitham constant-state discriminant vs closed product form
    sym = whitham_symbol()
    resid = max(abs(delta_discriminant(2.0, 0.0, xi, sym)
                    - delta_constant_state(2.0, xi, sym))
                / abs(delta_constant_state(2.0, xi, sym))
                for xi in (1e-2, 1e-3))
    check("whitham constant-state discriminant vs product formula", resid, 1e-10)

    print(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parse_args leaves it as it is)."""
    ap = argparse.ArgumentParser(prog="modwave",
                                 description="Modulational stability of periodic "
                                             "traveling waves of KdV type")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def request(p, config_required=False):
        """The options of the commands that write classify reports."""
        p.add_argument("--equation", help="kdv | mkdv-focusing | mkdv-defocusing | schamel")
        p.add_argument("--config", required=config_required, help="JSON analysis request")
        output(p)
        p.add_argument("--tol-quad", dest="tol_quad", type=float, default=None)

    p = sub.add_parser("classify", help="classify one wave")
    request(p)
    p.add_argument("--a", type=float)
    p.add_argument("--E", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--branch", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="grid sweep from a config file")
    request(p, config_required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("smallamp", help="small-amplitude index tables")
    output(p)
    p.add_argument("--symbol", choices=("whitham", "fkdv", "ilw"), default="whitham")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--k-min", dest="k_min", type=float, default=0.1)
    p.add_argument("--k-max", dest="k_max", type=float, default=3.0)
    p.add_argument("--k-step", dest="k_step", type=float, default=0.01)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--alphas", help="comma-separated alpha sweep")
    p.add_argument("--H-min", dest="H_min", type=float, default=0.25)
    p.add_argument("--H-max", dest="H_max", type=float, default=5.0)
    p.add_argument("--H-step", dest="H_step", type=float, default=0.25)
    p.set_defaults(func=cmd_smallamp)

    p = sub.add_parser("bloch-check", help="compare Bloch slopes with theory")
    p.add_argument("--equation", help="kdv | mkdv-focusing | mkdv-defocusing | schamel | bo")
    p.add_argument("--modes", type=int, default=64,
                   help="ceiling on the Bloch truncation N (local and BO waves)")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--E", type=float, default=0.0)
    p.add_argument("--c", type=float, default=-2.0)
    p.add_argument("--k", type=float, default=1.0, help="BO wave number")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_bloch_check)

    p = sub.add_parser("validate", help="run the oracle cross-check suites")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "tol_quad", None) is not None:
            _finite_positive(args.tol_quad, "--tol-quad", "tol_quad")
        return args.func(args)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"error: {exc}{field}", file=sys.stderr)
        return 1
    except ModwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
