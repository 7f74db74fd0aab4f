import numpy as np
import pytest

from conftest import (sample_kdv, sample_mkdv_defocusing,
                      sample_mkdv_focusing_cnoidal, sample_mkdv_focusing_dnoidal,
                      sample_schamel)
from modwave import (WaveParams, classify, delta_mi, effective_dispersion_roots,
                     kdv_closed_forms, kdv_spec, mkdv_root_classifier,
                     mkdv_spec, param_jacobian, schamel_spec)
from modwave.equations import EquationSpec
from modwave.errors import HypothesisFailed
from modwave.picard_fuchs import ParamJacobian


def test_kdv_sample_grid_all_stable():
    rng = np.random.default_rng(41)
    spec = kdv_spec()
    for p in sample_kdv(rng, 20):
        J = param_jacobian(spec, p)
        assert delta_mi(J) > 0


def test_focusing_cnoidal_unstable():
    rng = np.random.default_rng(43)
    spec = mkdv_spec(+1)
    for p in sample_mkdv_focusing_cnoidal(rng, 8):
        assert delta_mi(param_jacobian(spec, p)) < 0
        assert classify(spec, p).classification == "unstable"


def test_defocusing_stable():
    rng = np.random.default_rng(44)
    spec = mkdv_spec(-1)
    for p in sample_mkdv_defocusing(rng, 8):
        assert delta_mi(param_jacobian(spec, p)) > 0
        assert classify(spec, p).classification == "stable"


def test_dnoidal_both_branches_stable():
    rng = np.random.default_rng(45)
    spec = mkdv_spec(+1)
    for p in sample_mkdv_focusing_dnoidal(rng, 5):
        for br in (0, 1):
            rep = classify(spec, p, branch=br)
            assert rep.classification == "stable"


def test_schamel_stable():
    rng = np.random.default_rng(46)
    spec = schamel_spec()
    for p, br in sample_schamel(rng, 6):
        rep = classify(spec, p, branch=br)
        assert rep.classification == "stable"
        assert rep.delta_mi > 0


def test_roots_sum_zero_and_dichotomy(kdv, kdv_wave310):
    J = param_jacobian(kdv, kdv_wave310)
    nus = effective_dispersion_roots(J)
    assert abs(np.sum(nus)) < 1e-10 * np.max(np.abs(nus))
    assert np.max(np.abs(nus.imag)) < 1e-8            # Delta > 0: three real
    assert np.min(np.diff(np.sort(nus.real))) > 1e-8  # distinct
    # unstable case: one real + conjugate pair
    foc = mkdv_spec(+1)
    Jf = param_jacobian(foc, WaveParams(0.0, 0.5, -1.0))
    nf = effective_dispersion_roots(Jf)
    n_real = np.sum(np.abs(nf.imag) < 1e-10)
    assert n_real == 1
    pair = nf[np.abs(nf.imag) >= 1e-10]
    assert pair[0] == pytest.approx(np.conj(pair[1]))


def test_mkdv_root_classifier_examples():
    rng = np.random.default_rng(47)
    for p in sample_mkdv_defocusing(rng, 6):
        assert mkdv_root_classifier(p.a, p.E, p.c, sign=-1) == "stable-4-real-roots"
    for p in sample_mkdv_focusing_cnoidal(rng, 6):
        assert mkdv_root_classifier(p.a, p.E, p.c, sign=+1) == "unstable-2-real-2-complex"
    # vanishing quartic discriminant
    c = -1.0
    assert mkdv_root_classifier(0.0, -0.75 * c * c, c, sign=+1) == "degenerate"


def test_classifier_agrees_with_delta_route():
    rng = np.random.default_rng(48)
    foc, defoc = mkdv_spec(+1), mkdv_spec(-1)
    for p in sample_mkdv_focusing_cnoidal(rng, 5):
        assert mkdv_root_classifier(p.a, p.E, p.c, +1) == "unstable-2-real-2-complex"
        assert classify(foc, p).classification == "unstable"
    for p in sample_mkdv_focusing_dnoidal(rng, 5):
        assert mkdv_root_classifier(p.a, p.E, p.c, +1) == "stable-4-real-roots"
        assert classify(foc, p).classification == "stable"
    for p in sample_mkdv_defocusing(rng, 5):
        assert mkdv_root_classifier(p.a, p.E, p.c, -1) == "stable-4-real-roots"
        assert classify(defoc, p).classification == "stable"


def test_kdv_closed_forms_vs_picard_fuchs():
    rng = np.random.default_rng(49)
    spec = kdv_spec()
    for p in sample_kdv(rng, 20):
        J = param_jacobian(spec, p)
        T_E, TM, TMP, two_delta = kdv_closed_forms(J.T, J.M, p.a, p.E, p.c)
        scale = max(abs(J.TMP_aEc), 1.0)
        assert T_E == pytest.approx(J.T_E, rel=1e-8)
        assert TM == pytest.approx(J.TM_aE, rel=1e-8)
        assert TMP == pytest.approx(J.TMP_aEc, rel=1e-8)
        assert two_delta == pytest.approx(2 * delta_mi(J), rel=1e-7)
        assert T_E > 0
        assert two_delta > 0                      # numerator never vanishes


def test_hypothesis_failed_on_tiny_determinant():
    J = ParamJacobian(J=np.eye(3), T=1, M=1, P=1, T_E=0.0, TM_aE=1.0,
                      TMP_aEc=1.0, TP_Ec=1.0, MP_aE=1.0, cond=1.0)
    with pytest.raises(HypothesisFailed):
        delta_mi(J)


def test_scale_invariance_of_classification():
    # f = sigma u^2: doubling sigma with (a, E) -> (a/2, E/4) maps waves to
    # waves; the verdict must be identical
    rng = np.random.default_rng(50)
    spec1 = kdv_spec()
    spec2 = EquationSpec("local-polynomial", "kdv-2sigma", f_coeffs=(0.0, 0.0, 1.0))
    for p in sample_kdv(rng, 6):
        lam = 0.5
        p2 = WaveParams(lam * p.a, lam * lam * p.E, p.c)
        r1 = classify(spec1, p)
        r2 = classify(spec2, p2)
        assert r1.classification == r2.classification
    foc = mkdv_spec(+1)                     # p = 2: sigma' = 2 sigma, lam = 2^(-1/2)
    foc2 = EquationSpec("local-polynomial", "mkdv-2sigma",
                        f_coeffs=(0.0, 0.0, 0.0, 2.0 / 3.0))
    lam = 2.0 ** -0.5
    for p in sample_mkdv_focusing_cnoidal(rng, 4):
        p2 = WaveParams(lam * p.a, lam * lam * p.E, p.c)
        assert classify(foc, p).classification == classify(foc2, p2).classification


def test_classify_reports_hypothesis_failure_on_gamma():
    rep = classify(kdv_spec(), WaveParams(0.0, 0.0, -1.0))
    assert rep.classification == "hypothesis-failed"
    assert "reason" in rep.diagnostics


def test_report_fields(kdv, kdv_wave310):
    rep = classify(kdv, kdv_wave310)
    assert rep.is_stable
    assert set(rep.hypothesis_flags) == {"T_E", "TM_aE", "TMP_aEc"}
    for key in ("T", "M", "P", "S", "D", "pf_condition", "convention_fingerprint"):
        assert key in rep.diagnostics


def test_report_root_invariants():
    # stable: three real, pairwise separated; unstable: a complex pair
    rng = np.random.default_rng(51)
    spec = kdv_spec()
    for p in sample_kdv(rng, 5):
        rep = classify(spec, p)
        assert rep.classification == "stable"
        assert np.max(np.abs(rep.mu_roots.imag)) < 1e-8
        assert np.min(np.diff(np.sort(rep.mu_roots.real))) > 1e-8
        assert abs(np.sum(rep.mu_roots)) < 1e-10 * np.max(np.abs(rep.mu_roots))
    foc = mkdv_spec(+1)
    for p in sample_mkdv_focusing_cnoidal(rng, 3):
        rep = classify(foc, p)
        assert np.max(np.abs(rep.mu_roots.imag)) > 1e-8
