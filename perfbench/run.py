#!/usr/bin/env python3
"""modwave benchmark: one closed-loop caller, in-process, one workload per run.

    python3 perfbench/run.py --workload classify-points --seed 1 --seconds 35 --trace 0

Workloads are classify-points, sweep-grid and bloch-verify (`all` runs each
in turn).  A run measures set-up in fresh interpreters, gates on
`modwave validate`, warms up, runs the workload's known-defect census once
(untimed, counted apart from the timed ops), then times ops for --seconds
and checks each output against the oracles in inputs.py.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
executions of each case and reports per-layer self times, counts and the
tracing overhead.  The last line of stdout is one JSON object with the
result.

Exit codes: 0 done; 1 a wrong answer or a failed validate check (a result
with "correct": false is printed); 2 modwave cannot be imported from the
checkout's src/ (nothing is printed on stdout).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import spans    # numpy-free; numpy must not load before pin_environment()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread in the timed loop: the caller is single-threaded and the
# matrices are at most 129 x 129, so extra threads only add scheduling noise
# on a shared machine.  The set-up probes run with OpenBLAS's own default,
# one thread per CPU, made explicit, so that setup_s includes the lazy
# start-up of the BLAS thread pool that users of the library and the CLI pay.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_BLAS_THREADS = str(len(os.sched_getaffinity(0)))
SETUP_REPEATS = 3
WARMUP_S = 0.5
CHILD_TIMEOUT_S = 60


class Unavailable(Exception):
    """modwave cannot be run from this checkout."""


def pin_environment():
    """Must run before numpy is imported anywhere in this process."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MODWAVE_JOBS", None)
    os.environ["PYTHONPATH"] = SRC


def import_modwave():
    if not os.path.isfile(os.path.join(SRC, "modwave", "__init__.py")):
        raise Unavailable(f"no modwave package under {SRC}")
    sys.path.insert(0, SRC)
    import modwave
    import modwave.cli
    if not os.path.abspath(modwave.__file__).startswith(SRC + os.sep):
        raise Unavailable(f"modwave imported from {modwave.__file__}, not {SRC}")
    return modwave


# ---------------------------------------------------------------------------
# set-up, validate, environment
# ---------------------------------------------------------------------------

def _child(args):
    """A fresh interpreter with the users' default BLAS threading."""
    env = dict(os.environ, **{var: SETUP_BLAS_THREADS for var in THREAD_VARS})
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def measure_setup(repeats):
    """Wall time of fresh interpreters that import modwave and finish a first
    classify and a first modulation_slopes; (walls_s, probe phase dicts)."""
    walls, phases = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = _child([os.path.join(HERE, "setup_probe.py"), SRC])
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise Unavailable(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, phases


def import_breakdown():
    """Cumulative import times (ms) from `python -X importtime -c 'import modwave'`."""
    proc = _child(["-X", "importtime", "-c", "import modwave"])
    wanted = {"modwave": None, "scipy.integrate": None, "scipy.linalg": None}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in wanted and wanted[parts[2].strip()] is None:
            wanted[parts[2].strip()] = int(parts[1]) / 1e3
    return {f"import.{k}.ms": (v if v is not None else 0.0) for k, v in wanted.items()}


VALIDATE_LINE = re.compile(r"^(PASS|FAIL)\s+(.*): residual (\S+) \(tol (\S+)\)$")


def run_validate(mw):
    """`modwave validate` in-process; (exit code, [(verdict, name, resid, tol)])."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mw.cli.main(["validate"])
    checks = []
    for line in buf.getvalue().splitlines():
        m = VALIDATE_LINE.match(line.strip())
        if m:
            checks.append((m.group(1), m.group(2), float(m.group(3)), float(m.group(4))))
    return code, checks


def environment():
    import numpy as np
    import scipy
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "setup_blas_threads": SETUP_BLAS_THREADS}


# ---------------------------------------------------------------------------
# timing loop
# ---------------------------------------------------------------------------

class Tally:
    """Latencies and outcomes of one set of executions."""

    def __init__(self):
        self.lat_s = []
        self.layer_s = []
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = Counter()
        self.periodic = 0
        self.verdicts = 0

    def add(self, label, dt, failure, periodic, layer=None):
        self.lat_s.append(dt)
        if layer is not None:
            self.layer_s.append(layer)
        self.attempted[label] += 1
        self.periodic += periodic
        if failure:
            self.failed[label] += 1
            self.reasons[f"{label}: {failure}"] += 1

    def merge(self, other):
        for attr in ("attempted", "failed", "reasons"):
            getattr(self, attr).update(getattr(other, attr))
        self.lat_s += other.lat_s
        self.layer_s += other.layer_s
        self.periodic += other.periodic

    @property
    def total(self):
        return sum(self.attempted.values())

    @property
    def n_failed(self):
        return sum(self.failed.values())


def execute(wl, case, api, tally, tracer=None):
    """One op: time the modwave calls, then judge the output (untimed).
    Traced, the op also records the self time of the reported layer spans."""
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        out, failure = wl.run(case, api), None
    except Exception as exc:     # an op that raises is a failed op; the run goes on
        out, failure = None, f"raised {type(exc).__name__}: {str(exc)[:80]}"
    dt = time.perf_counter() - t0
    layer = None
    if tracer is not None:
        layer = sum(s for name, s in tracer.end_op()[1].items() if name in spans.REPORTED_SPANS)
    if failure is None:
        failure = wl.check(case, out)
    tally.add(wl.label(case), dt, failure, wl.periodic_inputs(case), layer)


def for_seconds(cases, seconds, body, min_ops=1):
    start, i = time.perf_counter(), 0
    while i < min_ops or time.perf_counter() - start < seconds:
        body(i, cases[i % len(cases)])
        i += 1


def warm_up(wl, api):
    """Untimed ops (checked all the same) so lazy imports and first calls
    are paid before timing; their oracle counts are discarded."""
    for_seconds(wl.cases, WARMUP_S, lambda i, c: execute(wl, c, api, Tally()))
    wl.info.clear()
    wl.worst.clear()


def run_census(wl, api):
    """The known-defect census: each census case once, untimed but checked
    like any op.  Its failures are counted apart from the timed ops."""
    tally, before = Tally(), wl.info["verdicts"]
    for case in wl.census:
        execute(wl, case, api, tally)
    tally.verdicts = wl.info["verdicts"] - before
    return tally


def run_untraced(mw, wl, seconds):
    api, tally = wl.api(mw), Tally()
    warm_up(wl, api)
    census = run_census(wl, api)
    for_seconds(wl.cases, seconds, lambda i, c: execute(wl, c, api, tally))
    return tally, census


def run_traced(mw, wl, seconds, tracer):
    """Each case runs once untraced and once traced, alternating which goes
    first, so the two latency sets see the same inputs and machine state."""
    plain, traced = wl.api(mw), wl.api(mw, tracer)
    t_plain, t_traced = Tally(), Tally()

    def traced_exec(i, case):
        tracer.install(mw)
        try:
            execute(wl, case, traced, t_traced, tracer)
        finally:
            tracer.uninstall()

    def body(i, case):
        if i % 2 == 0:
            execute(wl, case, plain, t_plain)
            traced_exec(i, case)
        else:
            traced_exec(i, case)
            execute(wl, case, plain, t_plain)

    warm_up(wl, plain)
    census = run_census(wl, plain)
    for_seconds(wl.cases, seconds, body)
    return t_plain, t_traced, census


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def pct(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(wl, tally, setup_walls):
    ok = tally.total - tally.n_failed
    tail = pct(tally.lat_s, wl.tail_pct)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "ops_per_s": (ok / sum(tally.lat_s), "1/s"),
        "latency_p50_ms": (1e3 * pct(tally.lat_s, 50), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


EQUATIONS = ("kdv", "mkdv-focusing", "mkdv-defocusing", "schamel", "bo")
# printed beside latency_tail_ms, to show where the tail of the run lies
TAIL_CANDIDATES = (90, 95, 98, 99, 99.5, 99.9)


def per_layer(wl, plain, traced, both, census, tracer, imports, phases, validate_checks):
    """Per-layer metrics; `both` merges the plain and traced tallies.  Failure
    shares and the verdict ratio are the census's where the workload has one
    (the population with its known defects, a fixed number of ops per seed),
    else the timed ops'."""
    import numpy as np
    import workloads
    out = spans.layer_metrics(tracer)
    out["cli.csv_numpy_fields"] = (wl.info[workloads.CSV_NUMPY_FIELDS], "count")
    base, verdicts = (census, census.verdicts) if wl.census else (both, wl.info["verdicts"])
    out["mi_index.verdict_ratio"] = (verdicts / max(base.periodic, 1), "ratio")
    for eq in EQUATIONS:
        out[f"failure_share.{eq}"] = (base.failed[eq] / max(base.attempted[eq], 1), "ratio")
    out.update({k: (v, "ms") for k, v in imports.items()})
    out["warmup.first_linalg_ms"] = (1e3 * statistics.median(p["first_eig_s"] for p in phases), "ms")
    out["validate.min_margin"] = (min(tol / max(r, 1e-300) for _, _, r, tol in validate_checks),
                                  "ratio")
    # plain.lat_s[i] and traced.lat_s[i] are the same case, run back to back;
    # traced.layer_s[i] is the sum of the reported self_ms spans of that op
    t_plain, t_traced, t_layer = (np.array(x) for x in (plain.lat_s, traced.lat_s, traced.layer_s))
    out["trace.untraced_p50_ms"] = (1e3 * float(np.median(t_plain)), "ms")
    out["trace.traced_p50_ms"] = (1e3 * float(np.median(t_traced)), "ms")
    out["trace.overhead_ms"] = (1e3 * float(np.median(t_traced - t_plain)), "ms")
    out["trace.layer_self_p50_ms"] = (1e3 * float(np.median(t_layer)), "ms")
    out["trace.unaccounted_ms"] = (1e3 * float(np.median(t_layer - t_plain)), "ms")
    return out


def print_failures(title, tally):
    print(f"{title}: ops_total {tally.total}  ops_failed {tally.n_failed}")
    for eq in EQUATIONS:
        if tally.attempted[eq]:
            print(f"  {eq:16s} failed {tally.failed[eq]:6d} / {tally.attempted[eq]:6d}"
                  f"  ({100.0 * tally.failed[eq] / tally.attempted[eq]:.1f}%)")
    for reason, n in tally.reasons.most_common():
        print(f"    {n:6d}  {reason}")


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


def run_workload(mw, name, seed, seconds, trace, setup, validate_checks, workdir):
    from workloads import WORKLOADS
    wl = WORKLOADS[name](mw, seed, workdir)
    print(f"\n== {name}: {len(wl.cases)} seeded cases, {seconds} s, trace={trace}")
    walls, phases, imports = setup
    if not trace:
        tally, census = run_untraced(mw, wl, seconds)
        metrics = end_to_end(wl, tally, walls)
        beyond = sum(1 for x in tally.lat_s if 1e3 * x > metrics["latency_tail_ms"][0])
        print(f"latency_tail_ms is p{wl.tail_pct:g} of {len(tally.lat_s)} ops, "
              f"{beyond} beyond it{'' if beyond >= 10 else '  (FEWER THAN 10)'}")
        print("other percentiles: " + ", ".join(
            f"p{q:g} {1e3 * pct(tally.lat_s, q):.3f} ms" for q in TAIL_CANDIDATES))
        print_metrics("end-to-end metrics:", metrics)
    else:
        tracer = spans.Tracer()
        plain, traced, census = run_traced(mw, wl, seconds, tracer)
        tally = Tally()
        tally.merge(plain)
        tally.merge(traced)
        metrics = per_layer(wl, plain, traced, tally, census, tracer, imports, phases,
                            validate_checks)
        print("span self times (traced executions):")
        for span, calls, ms in spans.self_time_table(tracer):
            print(f"  {span:34s} calls {calls:8d}  self {ms:12.3f} ms")
        print_metrics("per-layer metrics:", metrics)
        over, gap = metrics["trace.overhead_ms"][0], metrics["trace.unaccounted_ms"][0]
        outside = 1e3 * statistics.median(t - s for t, s in zip(traced.lat_s, traced.layer_s))
        print(f"tracing overhead {over:.4f} ms per op (median of traced minus untraced time "
              f"of the same case; {100.0 * over / metrics['trace.untraced_p50_ms'][0]:.2f}% of "
              f"the untraced p50); reported layer self times minus the untraced time: "
              f"{gap:.4f} ms ({'within' if abs(gap) <= abs(over) else 'OUTSIDE'} the overhead); "
              f"traced op time outside every reported span: {outside:.4f} ms (median)")
    print_failures("timed ops", tally)
    if wl.census:
        print_failures("known-defect census (untimed; not in attempted/failed)", census)
    print("oracle: " + ", ".join(f"{k} {v}" for k, v in sorted(wl.info.items())))
    for kind, err in wl.worst.items():
        print(f"oracle: largest relative {kind} error {err:.2e}")
    return metrics, tally


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("classify-points", "sweep-grid", "bloch-verify", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    try:
        mw = import_modwave()
        walls, phases = measure_setup(SETUP_REPEATS)
        imports = import_breakdown() if args.trace else {}
    except (Unavailable, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, WrongAnswer

    env = environment()
    print("perfbench " + " ".join(f"{k}={v}" for k, v in vars(args).items()))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"setup: {SETUP_REPEATS} fresh interpreters, wall "
          + " ".join(f"{w:.3f}" for w in walls) + " s; import "
          + " ".join(f"{p['import_s']:.3f}" for p in phases) + " s; first eigensolve "
          + " ".join(f"{1e3 * p['first_eig_s']:.1f}" for p in phases) + " ms")

    code, checks = run_validate(mw)
    for verdict, name, resid, tol in checks:
        print(f"validate {verdict}  {name}: residual {resid:.3e}  tol {tol:.1e}  "
              f"margin {tol / max(resid, 1e-300):.3g}x")
    if code != 0 or not checks or any(v != "PASS" for v, *_ in checks):
        print(f"perfbench: modwave validate failed (exit {code})", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    # sweep configs and CSV outputs; inside the checkout, removed at exit
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            for name in names:
                metrics, tally = run_workload(mw, name, args.seed, args.seconds, args.trace,
                                              (walls, phases, imports), checks, workdir)
                prefix = f"{name}." if len(names) > 1 else ""
                all_metrics.update({prefix + k: v for k, v in metrics.items()})
                attempted += tally.total
                failed += tally.n_failed
        except WrongAnswer as exc:
            print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
            print(result_line(False, max(attempted, 1), failed, all_metrics))
            return 1
    print(result_line(True, attempted, failed, all_metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
