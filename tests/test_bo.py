import numpy as np
import pytest

from modwave import (BOWaveParams, bo_conserved, bo_dispersion_matrix, bo_eval,
                     bo_galilean_check, bo_modulation_speeds, bo_quadrature_MP)
from modwave.errors import ConstraintViolation


def test_crest_value():
    p = BOWaveParams(0.0, 1.0, -2.0)
    # a=0, k=1, c=-2: (s+c)/2 = 0 and crest = 1/(2 - sqrt(3))
    assert bo_eval(p, 0.0) == pytest.approx(2.0 + np.sqrt(3.0), rel=1e-14)


def test_periodicity():
    p = BOWaveParams(-0.3, 1.5, -2.5)
    zs = np.linspace(-3.0, 3.0, 17)
    assert np.max(np.abs(bo_eval(p, zs + p.period) - bo_eval(p, zs))) < 1e-12


def test_constraints():
    with pytest.raises(ConstraintViolation):
        BOWaveParams(0.0, 2.0, -2.0)        # k^2 = c^2 - 4a
    with pytest.raises(ConstraintViolation):
        BOWaveParams(0.0, 1.0, 2.0)         # c > 0
    with pytest.raises(ConstraintViolation):
        BOWaveParams(1.5, 2.0, -2.0)        # k^2 > c^2 - 4a


@pytest.mark.parametrize("a, k, c", [(0.0, 1.0, -np.inf), (-np.inf, 1.0, -2.0),
                                     (0.0, np.inf, -2.0), (np.nan, 1.0, -2.0)])
def test_non_finite_parameters_are_refused(a, k, c):
    # c^2 - 4a = inf would pass the existence test
    with pytest.raises(ConstraintViolation, match="finite"):
        BOWaveParams(a, k, c)


def test_profile_equation_residual():
    # -Lambda u + c u + u^2 = -a, pseudospectrally
    p = BOWaveParams(-0.3, 1.5, -2.5)
    n = 1024
    z = np.arange(n) * p.period / n
    u = bo_eval(p, z)
    uh = np.fft.fft(u) / n
    freqs = p.k * np.fft.fftfreq(n, d=1.0 / n)
    lam_u = np.real(np.fft.ifft(np.abs(freqs) * uh * n))
    resid = -lam_u + p.c * u + u ** 2 + p.a
    assert np.max(np.abs(resid)) < 1e-10


def test_conserved_closed_forms_vs_quadrature():
    for (a, k, c) in ((0.0, 1.0, -2.0), (-0.3, 1.5, -2.5), (0.1, 0.7, -1.8)):
        p = BOWaveParams(a, k, c)
        M, P, MP = bo_conserved(p)
        Mq, Pq = bo_quadrature_MP(p)
        assert M == pytest.approx(Mq, abs=1e-8)
        assert P == pytest.approx(Pq, abs=1e-8)
        assert MP > 0


def test_MP_bracket_positive_on_grid():
    for k in np.linspace(0.3, 3.0, 10):
        for c in np.linspace(-4.0, -k - 0.05, 10):
            if k * k < c * c:
                p = BOWaveParams(0.0, k, c)
                assert bo_conserved(p)[2] > 0
                assert bo_conserved(p)[2] == pytest.approx(
                    2 * np.pi ** 2 / (k * np.sqrt(c * c)), rel=1e-12)


def test_dispersion_matrix_eigenvalues():
    D, eigs = bo_dispersion_matrix(1.0, -2.0)
    T = 2.0 * np.pi
    num = np.sort(np.linalg.eigvals(D).real)
    assert np.max(np.abs(num - eigs)) < 1e-10
    expect = np.sort([np.pi * T, np.pi * T * np.sqrt(2 - ((-2.0) * T) ** -2),
                      -np.pi * T * np.sqrt(2 - ((-2.0) * T) ** -2)])
    assert np.allclose(eigs, expect, rtol=1e-14)
    assert np.trace(D) == pytest.approx(np.pi * T, rel=1e-14)


def test_dispersion_matrix_real_distinct_on_grid():
    for k in np.linspace(0.2, 3.0, 12):
        for c in np.linspace(-4.0, -k - 0.05, 12):
            if k * k < c * c:
                _, eigs = bo_dispersion_matrix(k, c)
                assert np.all(np.isreal(eigs))
                assert np.min(np.diff(np.sort(eigs))) > 1e-8


def test_characteristic_poly_centered_is_depressed():
    # after removing the pi*T eigenvalue the remaining pair is symmetric
    # about zero (the depressed-cubic pair structure)
    D, eigs = bo_dispersion_matrix(1.3, -2.4)
    piT = np.pi * 2 * np.pi / 1.3
    pair = np.sort(eigs)[[0, 2]]
    assert abs(pair.sum()) < 1e-10 * np.max(np.abs(pair))
    # equivalently: char poly of D - (trace/3) I is depressed
    coeffs = np.poly(D - (np.trace(D) / 3.0) * np.eye(3))
    assert abs(coeffs[1]) < 1e-9
    assert np.trace(D) == pytest.approx(piT, rel=1e-14)


def test_galilean_identity():
    p = BOWaveParams(0.0, 1.0, -2.0)
    assert bo_galilean_check(p, 0.0) == 0.0
    assert bo_galilean_check(p, 0.1) < 1e-10
    assert bo_galilean_check(p, -0.2) < 1e-10


def test_stability_invariant_along_galilean_orbit():
    p = BOWaveParams(0.0, 1.0, -2.0)
    for lam in (0.0, 0.1, -0.3):
        q = BOWaveParams(p.a - p.c * lam + lam ** 2, p.k, p.c - 2 * lam)
        speeds = bo_modulation_speeds(q)
        assert np.all(np.isreal(speeds))
        assert np.min(np.diff(speeds)) > 1e-10       # real and distinct: stable


def test_modulation_speeds_values():
    p = BOWaveParams(-0.3, 1.5, -2.5)
    s = np.sqrt(2.5 ** 2 + 1.2)
    assert np.allclose(bo_modulation_speeds(p), sorted([-s, -1.5, 1.5]))
