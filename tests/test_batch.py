"""The batched classify core: a batch must give each wave exactly what the
wave gets alone, whatever its neighbours are."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipkm1

from conftest import (sample_kdv, sample_mkdv_defocusing, sample_mkdv_focusing_cnoidal,
                      sample_schamel)
from modwave import (WaveParams, classify, kdv_params_from_roots, kdv_spec,
                     mkdv_spec, quadrature_TMPH, schamel_spec, zeta_moments)
from modwave.equations import SCHAMEL_COEFF, effective_potential
from modwave.waves import QUAD_NODES

SPECS = {"kdv": kdv_spec(), "mkdv-focusing": mkdv_spec(+1),
         "mkdv-defocusing": mkdv_spec(-1), "schamel": schamel_spec()}


def _batch(points):
    return WaveParams(*(np.array(x, dtype=float) for x in zip(*points)))


def _abc(p):
    return p.a, p.E, p.c


def _same(x, y):
    """Equal values, nan matching nan (bit-level for floats)."""
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    return np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True)


def _assert_same_report(rep, alone):
    """Every field of a batch row's report is the one-wave report's, to the bit."""
    assert rep.classification == alone.classification
    assert _same(rep.delta_mi, alone.delta_mi)
    assert _same(rep.mu_roots, alone.mu_roots)
    for got, want in ((rep.hypothesis_flags, alone.hypothesis_flags),
                      (rep.diagnostics, alone.diagnostics)):
        assert got.keys() == want.keys()
        for key, val in want.items():
            assert _same(got[key], val), key


def _critical_point(spec, u0, c):
    """(a, E, c) with a double root of E - V at u0 (V'(u0) = f(u0) + c u0 - a
    = 0): a point on the discriminant variety."""
    if spec.kind == "local-power":
        u0 = abs(u0) + 0.1
        a = SCHAMEL_COEFF * u0 ** 1.5 + c * u0
    else:
        a = float(np.polynomial.polynomial.polyval(u0, spec.f_coeffs)) + c * u0
    return a, float(effective_potential(spec, a, c, u0)), c


finite = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(eq=st.sampled_from(sorted(SPECS)),
       points=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=8),
       critical=st.lists(st.tuples(finite, finite), max_size=2),
       branch=st.integers(0, 1))
def test_batch_equals_batch_of_one(eq, points, critical, branch):
    spec = SPECS[eq]
    points = points + [_critical_point(spec, u0, c) for u0, c in critical]
    batch = classify(spec, _batch(points), branch=branch)
    assert len(batch) == len(points)
    for p, rep in zip(points, batch):
        _assert_same_report(rep, classify(spec, WaveParams(*p), branch=branch))


def test_bad_row_leaves_neighbours_bit_identical():
    spec = kdv_spec()
    good = [_abc(p) for p in sample_kdv(np.random.default_rng(5), 5)]
    near = _abc(kdv_params_from_roots(3.0, 1e-3, 0.0))         # needs node doubling
    bad = [(0.0, 0.0, -1.0),                                   # on the variety
           (np.nan, 0.0, -1.0),                                # non-finite parameter
           (0.0, -5.0, 2.0),                                   # no bounded orbit
           _abc(kdv_params_from_roots(3.0, 1e-6, 0.0)),        # ill-conditioned system
           (0.0, 0.0, np.inf),
           _abc(kdv_params_from_roots(3.0, 1e-8, 0.0)),        # quadrature not converged
           _abc(kdv_params_from_roots(3000.0, 1000.0, 0.0))]   # {T,M}_{a,E} ~ 2e-14
    points = good[:2] + bad[:2] + [near] + bad[2:] + good[2:]
    batch = classify(spec, _batch(points))
    assert [rep.classification for rep in batch].count("hypothesis-failed") == 7
    assert batch[3].diagnostics["reason"] == \
        "DomainError: non-finite wave parameters or potential coefficients"
    assert batch[8].diagnostics["reason"].startswith("QuadratureFailure: error estimate")
    assert batch[9].diagnostics["reason"].startswith("TM_aE = ")
    for p, rep in zip(points, batch):
        _assert_same_report(rep, classify(spec, WaveParams(*p)))


@pytest.mark.parametrize("eq, sample", [("kdv", sample_kdv),
                                        ("mkdv-focusing", sample_mkdv_focusing_cnoidal),
                                        ("mkdv-defocusing", sample_mkdv_defocusing),
                                        ("schamel", sample_schamel)])
def test_one_wave_classify_builds_one_potential_polynomial(eq, sample, monkeypatch):
    # classify_parameters builds P; the quadrature and the Picard-Fuchs
    # layers read it from the classification instead of building it again
    drawn = sample(np.random.default_rng(7), 1)[0]
    p, branch = drawn if isinstance(drawn, tuple) else (drawn, 0)      # schamel: (p, branch)
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("modwave.") and "potential_polynomial" in vars(module):
            def counted(*args, _fn=module.potential_polynomial, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, "potential_polynomial", counted)
    assert classify(SPECS[eq], p, branch=branch).classification in ("stable", "unstable")
    assert len(calls) == 1, calls


def test_near_solitary_period_engages_doubling():
    # roots (3, 1e-6, 0): m = 1 - 1e-6/3, T = 4 sqrt(3) K(m) / sqrt(3)
    spec = kdv_spec()
    p = kdv_params_from_roots(3.0, 1e-6, 0.0)
    T = quadrature_TMPH(spec, p)[0]
    assert T == pytest.approx(4.0 * ellipkm1(1e-6 / 3.0), rel=1e-9)
    assert zeta_moments(spec, p, 2).nodes > QUAD_NODES


def test_batch_reports_failures_per_row():
    spec = mkdv_spec(+1)
    # branch 1 exists only for the dnoidal (E < 0) wave
    reps = classify(spec, _batch([(0.0, -0.5, -1.0), (0.0, 0.5, -1.0)]), branch=1)
    assert reps[0].classification == "stable"
    assert reps[1].classification == "hypothesis-failed"
    assert reps[1].diagnostics["reason"] == "DomainError: branch 1 out of range; 1 interval(s)"
