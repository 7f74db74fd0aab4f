import numpy as np
import pytest

from conftest import sample_kdv
from modwave import (WaveParams, classify_parameters, discriminant,
                     effective_potential, kdv_params_from_roots, kdv_spec,
                     mkdv_spec, potential_polynomial, potential_roots,
                     schamel_spec)
from modwave.equations import EquationSpec
from modwave.errors import DegenerateRoots, DomainError


def test_effective_potential_zero():
    spec = EquationSpec("local-polynomial", "kdv-f-u2", f_coeffs=(0.0, 0.0, 1.0))
    assert effective_potential(spec, a=0.0, c=0.0, u=0.0) == 0.0


def test_effective_potential_direct_value():
    # f(u) = u^2, F(u) = u^3/3: V(1; 1, 2) = 1/3 + 1 - 1
    spec = EquationSpec("local-polynomial", "kdv-f-u2", f_coeffs=(0.0, 0.0, 1.0))
    assert effective_potential(spec, a=1.0, c=2.0, u=1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_focusing_mkdv_even_potential_at_a0():
    spec = mkdv_spec(+1)
    us = np.linspace(-2.0, 2.0, 21)
    V = effective_potential(spec, a=0.0, c=-1.0, u=us)
    assert np.max(np.abs(V - V[::-1])) < 1e-14


def test_kdv_root_map_roundtrip_310():
    p = kdv_params_from_roots(3.0, 1.0, 0.0)
    assert (p.a, p.E) == (-0.5, 0.0)
    poly = potential_polynomial(kdv_spec(), p)
    roots, n_pairs = potential_roots(poly)
    assert n_pairs == 0
    assert np.allclose(roots, [0.0, 1.0, 3.0], atol=1e-12)


def test_root_map_roundtrip_random():
    rng = np.random.default_rng(7)
    spec = kdv_spec()
    for _ in range(25):
        g = rng.uniform(-2.0, 0.0)
        b = g + rng.uniform(0.2, 2.0)
        a_ = b + rng.uniform(0.2, 2.0)
        p = kdv_params_from_roots(a_, b, g)
        roots, _ = potential_roots(potential_polynomial(spec, p))
        assert np.allclose(roots, [g, b, a_], atol=1e-10)


def test_degenerate_roots_at_origin():
    # a = E = 0 is on the variety (solitary waves): double root at 0
    p = WaveParams(0.0, 0.0, -1.0)
    with pytest.raises(DegenerateRoots):
        potential_roots(potential_polynomial(kdv_spec(), p))
    assert classify_parameters(kdv_spec(), p).status == "on-gamma"


def test_defocusing_quartic_symmetric_roots():
    spec = mkdv_spec(-1)
    p = WaveParams(0.0, 0.5, 1.0)
    roots, n_pairs = potential_roots(potential_polynomial(spec, p))
    assert len(roots) == 4 and n_pairs == 0
    assert np.allclose(roots, -roots[::-1], atol=1e-12)       # pairs +-r
    # brute-force oracle
    brute = np.sort(np.roots(np.asarray(potential_polynomial(spec, p).coeffs)[::-1]).real)
    assert np.allclose(roots, brute, atol=1e-10)


def test_discriminant_examples():
    spec = kdv_spec()
    assert abs(discriminant(potential_polynomial(spec, WaveParams(0.0, 0.0, -1.0)))) < 1e-12
    p = kdv_params_from_roots(3.0, 1.0, 0.0)
    assert discriminant(potential_polynomial(spec, p)) > 0
    # focusing mKdV with two real roots -> negative quartic discriminant
    foc = potential_polynomial(mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0))
    assert discriminant(foc) < 0


def test_discriminant_closed_form_kdv():
    # resultant route vs the re-derived closed form, 100 admissible triples
    rng = np.random.default_rng(3)
    spec = kdv_spec()
    for p in sample_kdv(rng, 100):
        a, E, c = p.a, p.E, p.c
        closed = (8 * a ** 3 + 3 * a ** 2 * c ** 2 + 18 * a * E * c
                  + 6 * E * c ** 3 - 9 * E ** 2) / 12.0
        num = discriminant(potential_polynomial(spec, p))
        assert num == pytest.approx(closed, rel=1e-10)


def test_classification_interval_positivity():
    rng = np.random.default_rng(11)
    spec = kdv_spec()
    for p in sample_kdv(rng, 10):
        cls = classify_parameters(spec, p)
        poly = potential_polynomial(spec, p)
        grid = np.linspace(cls.w_minus, cls.w_plus, 1002)[1:-1]
        assert np.all(poly(grid) > 0.0)
        tol = 1e-9 * (1.0 + poly.coeff_norm)
        assert abs(poly(cls.w_minus)) < tol and abs(poly(cls.w_plus)) < tol


def test_root_residuals():
    rng = np.random.default_rng(5)
    spec = kdv_spec()
    for p in sample_kdv(rng, 20):
        poly = potential_polynomial(spec, p)
        roots, _ = potential_roots(poly)
        norm = poly.coeff_norm
        assert np.max(np.abs(poly(roots))) < 1e-9 * (1.0 + norm)


def test_focusing_two_families_and_branch_selector():
    spec = mkdv_spec(+1)
    p = WaveParams(0.0, -0.5, -1.0)
    cls0 = classify_parameters(spec, p, branch=0)
    cls1 = classify_parameters(spec, p, branch=1)
    assert len(cls0.intervals) == 2
    assert cls0.intervals == cls1.intervals
    assert cls0.w_minus < cls1.w_minus                  # ordered by left endpoint
    assert np.allclose([cls0.w_minus, cls0.w_plus],
                       [-cls1.w_plus, -cls1.w_minus], atol=1e-10)
    with pytest.raises(DomainError):
        classify_parameters(spec, p, branch=2)


def test_kdv_classify_310_interval():
    cls = classify_parameters(kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0))
    assert cls.is_periodic
    assert (cls.u_minus, cls.u_plus) == pytest.approx((1.0, 3.0), abs=1e-12)


def test_schamel_positive_interval_only():
    # quintic has a negative-v root; classification must skip it
    from conftest import schamel_params_from_interval
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    cls = classify_parameters(schamel_spec(), p)
    assert cls.is_periodic
    assert cls.w_minus > 0
    assert (cls.u_minus, cls.u_plus) == pytest.approx((0.36, 1.44), rel=1e-9)


def test_nonlocal_rejects_pointwise_potential():
    # nonlocal dispersion is a DispersionSymbol, never an EquationSpec kind
    with pytest.raises(DomainError):
        EquationSpec("nonlocal", "whitham")


def test_resultant_sign_convention():
    # disc((u-1)(u-2)(u-3)) = 4 (product of squared differences)
    coeffs = np.asarray(np.polynomial.polynomial.polyfromroots([1.0, 2.0, 3.0]))
    from modwave.equations import PotentialPolynomial
    disc = discriminant(PotentialPolynomial(tuple(coeffs), var="u"))
    assert disc == pytest.approx(4.0, rel=1e-12)
