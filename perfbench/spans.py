"""Spans recorded around the calls from one modwave layer into the next.

The traced run wraps the module attributes through which the layers call
each other (and the calls the benchmark itself makes into modwave); the
untraced run installs nothing.  A span's self time is its duration minus
the time its child spans cover; the tracer keeps per-run totals of self
time, calls and counted quantities per span name, and the self time of
the current op per span name.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# (modwave submodule, attribute, span name).  Each entry is the call site through
# which one layer reaches the next, e.g. mi_index.classify reaches the
# Picard-Fuchs layer through the name `param_jacobian` bound in mi_index.
PATCHES = (
    ("waves", "classify_parameters", "equations.classify_parameters"),
    ("picard_fuchs", "zeta_moments", "waves.zeta_moments"),
    ("picard_fuchs", "build_system", "picard_fuchs.build"),
    ("picard_fuchs", "solve_moments", "picard_fuchs.solve"),
    ("mi_index", "param_jacobian", "picard_fuchs.param_jacobian"),
    ("cli", "classify", "mi_index.classify"),
    ("bloch", "bo_eval", "bo.bo_eval"),
)


def eig_flops(n: int) -> float:
    """Computed (not measured) cost of a dense complex eigenvalues-only QR
    solve: about 10 n^3 operations (Golub & Van Loan), each a complex
    multiply-add worth 4 real ones."""
    return 40.0 * float(n) ** 3


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)     # "<span>.<quantity>" -> total
        self.op_self_s = defaultdict(float)  # self time of the current op per span
        self._stack = []                     # [name, t0, child_s]
        self._patched = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        t1 = time.perf_counter()
        name, t0, child_s = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.op_self_s[name] += dur - child_s
        return dur

    def wrap(self, name, fn, count=None):
        """fn with a span `name` around each call; count(args, kwargs)
        returns {quantity: amount} added to the span's counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for q, v in count(args, kwargs).items():
                    self.counts[f"{name}.{q}"] += v
            self.calls[name] += 1
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def begin_op(self):
        self.op_self_s.clear()
        self._enter("op")

    def end_op(self):
        """Close the op's root span and add the op's self times to the run
        totals; returns (duration_s, {span name: self_s}) of the op."""
        dur = self._exit()
        op = dict(self.op_self_s)
        op.pop("op")
        for name, s in op.items():
            self.self_s[name] += s
        return dur, op

    # -- installation --------------------------------------------------------
    def install(self, mw):
        """Wrap the inter-layer call sites of the modwave package `mw`."""
        def dim(args, kwargs):
            n = args[0].matrix.shape[0]
            return {"dim": n, "flops_computed": eig_flops(n)}

        targets = [(getattr(mw, mod), attr, name) for mod, attr, name in PATCHES]
        targets.append((mw.bloch.BlochMatrix, "eigenvalues", "bloch.eigensolve"))
        for owner, attr, name in targets:
            orig = owner.__dict__[attr]
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, dim if name == "bloch.eigensolve" else None))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


LAYER_METRICS = (
    # (metric, span names summed, quantity, unit)
    ("equations.classify_parameters.calls", ("equations.classify_parameters",), "calls", "count"),
    ("equations.classify_parameters.self_ms", ("equations.classify_parameters",), "self_ms", "ms"),
    ("waves.zeta_moments.calls", ("waves.zeta_moments",), "calls", "count"),
    ("waves.zeta_moments.self_ms", ("waves.zeta_moments",), "self_ms", "ms"),
    ("picard_fuchs.solve.calls", ("picard_fuchs.solve",), "calls", "count"),
    ("picard_fuchs.solve.self_ms", ("picard_fuchs.build", "picard_fuchs.solve"), "self_ms", "ms"),
    ("picard_fuchs.param_jacobian.self_ms", ("picard_fuchs.param_jacobian",), "self_ms", "ms"),
    ("mi_index.classify.self_ms", ("mi_index.classify",), "self_ms", "ms"),
    ("cli.sweep.self_ms", ("cli.sweep",), "self_ms", "ms"),
    ("waves.resolve_profile.calls", ("waves.resolve_profile",), "calls", "count"),
    ("waves.resolve_profile.self_ms", ("waves.resolve_profile",), "self_ms", "ms"),
    ("waves.profile_eval.calls", ("waves.profile_eval",), "calls", "count"),
    ("waves.profile_eval.points", ("waves.profile_eval",), "points", "count"),
    ("waves.profile_eval.self_ms", ("waves.profile_eval",), "self_ms", "ms"),
    ("bloch.assemble.calls", ("bloch.assemble",), "calls", "count"),
    ("bloch.assemble.self_ms", ("bloch.assemble",), "self_ms", "ms"),
    ("bloch.eigensolve.calls", ("bloch.eigensolve",), "calls", "count"),
    ("bloch.eigensolve.self_ms", ("bloch.eigensolve",), "self_ms", "ms"),
    ("bloch.eigensolve.dim", ("bloch.eigensolve",), "dim", "count"),
    ("bloch.eigensolve.flops_computed", ("bloch.eigensolve",), "flops_computed", "flop"),
    ("bloch.modulation_slopes.self_ms", ("bloch.modulation_slopes",), "self_ms", "ms"),
    ("mi_index.slope_prediction.self_ms", ("mi_index.slope_prediction",), "self_ms", "ms"),
    ("bo.bo_eval.self_ms", ("bo.bo_eval",), "self_ms", "ms"),
)
# The spans whose self times the per-layer table reports.
REPORTED_SPANS = frozenset(n for _, names, q, _ in LAYER_METRICS if q == "self_ms" for n in names)


def layer_metrics(tr: Tracer) -> dict:
    """{metric: (value, unit)}: per-run totals over the traced executions,
    except bloch.eigensolve.dim, the mean matrix dimension."""
    out = {}
    for metric, names, q, unit in LAYER_METRICS:
        if q == "calls":
            val = sum(tr.calls[n] for n in names)
        elif q == "self_ms":
            val = 1e3 * sum(tr.self_s[n] for n in names)
        else:
            val = sum(tr.counts[f"{n}.{q}"] for n in names)
            if q == "dim":
                val = val / max(tr.calls[names[0]], 1)
        out[metric] = (float(val), unit)
    return out


def self_time_table(tr: Tracer) -> list:
    """(span, calls, self_ms) for every span name seen, largest first."""
    rows = [(n, c, 1e3 * tr.self_s[n]) for n, c in tr.calls.items() if c]
    return sorted(rows, key=lambda r: -r[2])
