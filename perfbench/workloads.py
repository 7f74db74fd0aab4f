"""The three workloads: what one op calls in modwave, and how its output
is judged against the oracles in inputs.py.

Each workload has
    cases             the seeded inputs, cycled in order by the timing loop
    census            seeded inputs run once, untimed, to count known defects
    api(mw, tracer)   the modwave callables an op uses, span-wrapped if traced
    run(case, api)    the timed part: modwave calls only
    check(case, out)  None, or a short failure reason; raises WrongAnswer
                      when modwave gives a verdict the oracle contradicts
                      (never counted as a mere failed op)
"""
from __future__ import annotations

import csv
import json
import os
import re
from collections import Counter

import numpy as np

import inputs

VERDICTS = ("stable", "unstable")
PERIOD_RTOL = 1e-9       # quadrature runs at 1e-11; oracles reach ~1e-14
SLOPE_RTOL = 1e-3        # `modwave bloch-check` default tolerance
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
CSV_NUMPY_FIELDS = "CSV fields printed as np.float64(...)"


class WrongAnswer(Exception):
    """modwave returned a verdict or output that contradicts the oracle."""


class Workload:
    name = ""
    # latency_tail_ms: the highest percentile with at least ten ops beyond it
    # in a run, except where the machine's stalls rather than the inputs set
    # it (see NOTES.md); fixed per workload so that runs compare
    tail_pct = 99.0
    census = ()

    def __init__(self):
        self.info = Counter()            # oracle counts, printed at the end
        self.worst = {}                  # largest error seen per kind of check

    def label(self, case) -> str:
        return case.eq

    def periodic_inputs(self, case) -> int:
        """How many periodic waves the case hands modwave (verdict_ratio base)."""
        return 1

    def api(self, mw, tracer=None):
        """The modwave entry points an op calls, wrapped in spans when traced."""
        raise NotImplementedError

    def _error(self, kind, err, tol):
        """Record a relative error; a failure reason if it exceeds tol."""
        self.info[f"{kind} checked"] += 1
        self.worst[kind] = max(self.worst.get(kind, 0.0), err)
        return None if err <= tol else f"{kind} error above {tol:g}"

    def _period(self, oracle, T):
        if not np.isfinite(oracle):
            return None
        return self._error("period", abs(T - oracle) / oracle, PERIOD_RTOL)


class ClassifyPoints(Workload):
    name = "classify-points"
    tail_pct = 98.0

    def __init__(self, mw, seed, workdir):
        super().__init__()
        self.cases = inputs.classify_points(seed)
        self.census = inputs.classify_census(seed)
        self.specs = specs(mw)
        self.WaveParams = mw.WaveParams

    def api(self, mw, tracer=None):
        fn = mw.mi_index.classify
        return {"classify": tracer.wrap("mi_index.classify", fn) if tracer else fn}

    def run(self, case, api):
        return api["classify"](self.specs[case.eq], self.WaveParams(case.a, case.E, case.c),
                               branch=case.branch)

    def check(self, case, report):
        label = report.classification
        if label not in VERDICTS:
            self.info[f"refused ({label})"] += 1
            return f"refused {case.regime} wave: {label}"
        self.info["verdicts"] += 1
        if label != case.verdict:
            raise WrongAnswer(f"{case}: modwave says {label}, oracle {case.verdict}")
        return self._period(case.period, report.diagnostics["T"])


class SweepGrid(Workload):
    name = "sweep-grid"
    tail_pct = 92.5

    def __init__(self, mw, seed, workdir):
        super().__init__()
        self.cases = []
        for i, sw in enumerate(inputs.sweep_grids(seed)):
            cfg = os.path.join(workdir, f"sweep{i}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(sw.config(), fh)
            pictures = [inputs.root_picture(sw.eq, a, E, sw.c) for a, E in sw.grid()]
            self.cases.append((sw, cfg, os.path.join(workdir, f"sweep{i}.csv"), pictures))

    def label(self, case):
        return case[0].eq

    def periodic_inputs(self, case):
        return sum(p.status == "periodic" for p in case[3])

    def api(self, mw, tracer=None):
        fn = mw.cli.main
        return {"main": tracer.wrap("cli.sweep", fn) if tracer else fn}

    def run(self, case, api):
        _, cfg, out, _ = case
        if os.path.exists(out):
            os.remove(out)
        return api["main"](["sweep", "--config", cfg, "--format", "csv", "--out", out])

    def check(self, case, code):
        sw, _, out, pictures = case
        if code != 0:
            return f"exit code {code}"
        with open(out, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("#schema="):
            raise WrongAnswer(f"{out}: missing #schema header")
        rows = list(csv.reader(lines[1:]))
        header, rows = rows[0], rows[1:]
        col = {name: i for i, name in enumerate(header)}
        grid = sw.grid()
        if len(rows) != len(grid):
            raise WrongAnswer(f"{out}: {len(rows)} rows for {len(grid)} grid points")
        failure = None
        for row, (a, E), pic in zip(rows, grid, pictures):
            if (float(row[col["a"]]), float(row[col["E"]]), float(row[col["c"]])) != (a, E, sw.c):
                raise WrongAnswer(f"{out}: row {row[:4]} out of grid order")
            label = row[col["classification"]]
            self.info["points"] += 1
            if pic.status == "ambiguous":
                self.info["points ambiguous (unchecked)"] += 1
                continue
            if pic.status == "none":
                self.info["points without a periodic orbit"] += 1
                if label in VERDICTS:
                    raise WrongAnswer(f"{sw.eq} (a, E, c) = ({a!r}, {E!r}, {sw.c!r}): "
                                      f"{label} where no periodic orbit exists")
                continue
            self.info["periodic points"] += 1
            if label not in VERDICTS:
                self.info[f"periodic points refused ({label})"] += 1
                failure = failure or f"periodic point refused: {label}"
                continue
            self.info["verdicts"] += 1
            expect = inputs.expected_verdict(sw.eq, pic)
            if label != expect:
                raise WrongAnswer(f"{sw.eq} (a, E, c) = ({a!r}, {E!r}, {sw.c!r}): "
                                  f"modwave says {label}, oracle {expect}")
            if sw.eq == "kdv":
                gamma, beta, alpha = pic.real_roots
                err = self._period(inputs.kdv_period(alpha, beta, gamma), self._number(row[col["T"]]))
                failure = failure or err
        return failure

    def _number(self, field):
        """A CSV float.  The schema promises shortest round-trip floats; a
        field printed as `np.float64(x)` breaks that promise, so it is
        counted as a format defect (and still read, for the period check)."""
        m = NUMPY_REPR.fullmatch(field)
        if m:
            self.info[CSV_NUMPY_FIELDS] += 1
            field = m.group(1)
        return float(field)


class BlochVerify(Workload):
    name = "bloch-verify"
    tail_pct = 98.0

    def __init__(self, mw, seed, workdir):
        super().__init__()
        self.cases = inputs.bloch_cases(seed)
        self.census = inputs.bloch_census(seed)
        self.specs = specs(mw)
        self.mw = mw

    def periodic_inputs(self, case):
        return 0 if case.bo is not None else 1

    def api(self, mw, tracer=None):
        names = {"resolve_profile": ("waves.resolve_profile", mw.waves.resolve_profile),
                 "param_jacobian": ("picard_fuchs.param_jacobian", mw.picard_fuchs.param_jacobian),
                 "modulation_slopes": ("bloch.modulation_slopes", mw.bloch.modulation_slopes),
                 "modulation_slope_prediction": ("mi_index.slope_prediction",
                                                 mw.mi_index.modulation_slope_prediction)}
        out = {k: (tracer.wrap(name, fn) if tracer else fn) for k, (name, fn) in names.items()}
        out["tracer"] = tracer
        return out

    def run(self, case, api):
        mw, tr = self.mw, api["tracer"]
        if case.bo is not None:
            asm = mw.bloch.bo_assembler(mw.bo.BOWaveParams(*case.bo), N=case.N)
            if tr:
                asm = tr.wrap("bloch.assemble", asm)
            return api["modulation_slopes"](asm), None
        w = case.wave
        spec, params = self.specs[w.eq], mw.WaveParams(w.a, w.E, w.c)
        profile = api["resolve_profile"](spec, params, branch=w.branch)
        if tr:
            profile.evaluator = tr.wrap("waves.profile_eval", profile.evaluator,
                                        lambda args, kw: {"points": np.size(args[0])})
        asm = mw.bloch.local_assembler(profile, N=case.N)
        if tr:
            asm = tr.wrap("bloch.assemble", asm)
        measured = api["modulation_slopes"](asm)
        predicted = api["modulation_slope_prediction"](
            api["param_jacobian"](spec, params, branch=w.branch))
        return measured, predicted

    def check(self, case, out):
        measured, predicted = out
        if case.bo is not None:
            predicted = inputs.bo_slopes(*case.bo)
        else:
            theory = "stable" if np.all(np.abs(predicted.imag) < 1e-9 * np.max(np.abs(predicted))) \
                else "unstable"
            self.info["verdicts"] += 1
            if theory != case.wave.verdict:
                raise WrongAnswer(f"{case}: predicted slopes {predicted} say {theory}, "
                                  f"oracle {case.wave.verdict}")
        mismatch = inputs.slope_mismatch(measured, predicted)
        return self._error("slope", mismatch if np.isfinite(mismatch) else np.inf, SLOPE_RTOL)


def specs(mw):
    return {"kdv": mw.kdv_spec(), "mkdv-focusing": mw.mkdv_spec(+1),
            "mkdv-defocusing": mw.mkdv_spec(-1), "schamel": mw.schamel_spec()}


WORKLOADS = {w.name: w for w in (ClassifyPoints, SweepGrid, BlochVerify)}
