from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from conftest import sample_kdv, schamel_params_from_interval
from modwave import (WaveParams, classify_parameters, cnoidal_eval,
                     cnoidal_period, dnoidal_eval, dnoidal_period,
                     effective_potential, kdv_params_from_roots, kdv_spec,
                     mkdv_spec, param_jacobian,
                     quadrature_TMPH, resolve_profile, schamel_spec, zeta_moments)
from modwave.errors import DomainError
from modwave.waves import fourier_coefficients


def test_kdv_period_matches_elliptic_oracle(kdv, kdv_wave310):
    T, M, P, H = quadrature_TMPH(kdv, kdv_wave310)
    assert T == pytest.approx(cnoidal_period(3.0, 1.0, 0.0), abs=1e-9)


def test_harmonic_limit(kdv):
    # E -> min V + eps: T -> 2 pi / sqrt(V''(u_center)); f = u^2/2 so V'' = u + c
    a, c = 1.0, 1.0
    u_c = -1.0 + np.sqrt(3.0)                  # V'(u) = u^2/2 + cu - a = 0
    Vpp = u_c + c
    V_min = u_c ** 3 / 6.0 + 0.5 * c * u_c ** 2 - a * u_c
    eps = 1e-6 * abs(V_min)
    T = quadrature_TMPH(kdv, WaveParams(a, V_min + eps, c))[0]
    assert T == pytest.approx(2 * np.pi / np.sqrt(Vpp), rel=1e-2)


def test_zeta0_is_period(kdv, kdv_wave310):
    table = zeta_moments(kdv, kdv_wave310, 3)
    T = quadrature_TMPH(kdv, kdv_wave310)[0]
    assert table.zeta[0] == pytest.approx(T, abs=1e-10)


def test_mean_value_in_range(kdv):
    rng = np.random.default_rng(2)
    for p in sample_kdv(rng, 8):
        table = zeta_moments(kdv, p, 2)
        cls = table.classification
        mean = table.zeta[1] / table.zeta[0]
        assert cls.u_minus < mean < cls.u_plus


def test_schamel_period_vs_u_quadrature():
    # v-side zeta_1 must equal the direct u-side period quadrature
    spec = schamel_spec()
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    table = zeta_moments(spec, p, 1)
    cls = classify_parameters(spec, p)
    um, up = cls.u_minus, cls.u_plus

    def integrand(theta):
        u = um + (up - um) * np.sin(theta) ** 2
        W = p.E + p.a * u - 0.5 * p.c * u ** 2 - u ** 2.5
        G = W / ((u - um) * (up - u))
        return 2.0 / np.sqrt(G)

    T_direct = np.sqrt(2.0) * quad(integrand, 1e-9, np.pi / 2 - 1e-9,
                                   epsabs=1e-12, epsrel=1e-12, limit=300)[0]
    assert table.zeta[1] == pytest.approx(T_direct, rel=1e-8)


@pytest.mark.parametrize("spec, p", [
    (kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0)),
    (mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0)),
    (mkdv_spec(+1), WaveParams(0.0, -0.2, -1.0)),
    (mkdv_spec(-1), WaveParams(0.0, 0.5, 1.0)),
    (schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0)),
], ids=["kdv", "mkdv-focusing-cn", "mkdv-focusing-dn", "mkdv-defocusing", "schamel"])
def test_quadrature_H_matches_profile_trapezoid(spec, p):
    # H = int (u_z^2/2 - F(u)) dz = int (E - V(u) - F(u)) dz over a period,
    # by the periodic trapezoid rule on samples of the inverted profile
    H = quadrature_TMPH(spec, p)[3]
    prof = resolve_profile(spec, p)
    u = prof(np.arange(128) * (prof.period / 128))
    V = effective_potential(spec, p.a, p.c, u)
    F = V - 0.5 * p.c * u ** 2 + p.a * u
    assert H == pytest.approx(prof.period * np.mean(p.E - V - F), rel=1e-10)


def test_quadrature_self_consistency(kdv, kdv_wave310):
    out1 = np.array(quadrature_TMPH(kdv, kdv_wave310, tol_quad=1e-11)[:3])
    out2 = np.array(quadrature_TMPH(kdv, kdv_wave310, tol_quad=5e-12)[:3])
    assert np.max(np.abs(out1 - out2)) < 10 * 1e-11


def test_quadrature_c1_smoothness(kdv, kdv_wave310):
    # Richardson agreement of central differences at h and h/2
    p = kdv_wave310
    def T_of_E(E):
        return quadrature_TMPH(kdv, WaveParams(p.a, E, p.c))[0]
    h = 1e-4
    d_h = (T_of_E(p.E + h) - T_of_E(p.E - h)) / (2 * h)
    d_h2 = (T_of_E(p.E + h / 2) - T_of_E(p.E - h / 2)) / h
    assert abs(d_h - d_h2) < 1e-5 * max(1.0, abs(d_h))


def test_cnoidal_crest_and_half_period():
    alpha, beta, gamma, z0 = 3.0, 1.0, 0.0, 0.7
    assert cnoidal_eval(alpha, beta, gamma, z0, -z0) == pytest.approx(alpha, abs=1e-14)
    T = cnoidal_period(alpha, beta, gamma)
    assert cnoidal_eval(alpha, beta, gamma, z0, -z0 + T / 2) == pytest.approx(beta, abs=1e-10)


def test_cnoidal_profile_ode_residual():
    alpha, beta, gamma = 3.2, 1.1, -0.4
    zs = np.linspace(-3.0, 3.0, 41)
    h = 1e-5
    u = cnoidal_eval(alpha, beta, gamma, 0.0, zs)
    du = (cnoidal_eval(alpha, beta, gamma, 0.0, zs + h)
          - cnoidal_eval(alpha, beta, gamma, 0.0, zs - h)) / (2 * h)
    rhs = (alpha - u) * (u - beta) * (u - gamma) / 3.0
    assert np.max(np.abs(du ** 2 - rhs)) < 1e-8


def test_cnoidal_period_equals_quadrature(kdv):
    for (al, be, ga) in ((3.0, 1.0, 0.0), (2.5, 0.7, -1.2), (4.0, 3.0, 2.9)):
        p = kdv_params_from_roots(al, be, ga)
        T = quadrature_TMPH(kdv, p)[0]
        assert abs(T - cnoidal_period(al, be, ga)) < 1e-8


def test_dnoidal_profile_ode_residual():
    E, c = -0.5, -1.0
    zs = np.linspace(-2.0, 2.0, 31)
    h = 1e-5
    u = dnoidal_eval(E, c, zs)
    du = (dnoidal_eval(E, c, zs + h) - dnoidal_eval(E, c, zs - h)) / (2 * h)
    rhs = 2 * E - c * u ** 2 - u ** 4 / 6.0
    assert np.max(np.abs(du ** 2 - rhs)) < 1e-8


def test_dnoidal_near_degenerate_is_constant():
    # k1 -> k2 (disc -> 0): dn(., m -> 0) -> 1, profile nearly constant
    c = -1.0
    E = -0.75 * c * c * (1.0 - 1e-10)
    u = dnoidal_eval(E, c, np.linspace(0, 5, 50))
    assert np.max(u) - np.min(u) < 1e-4
    with pytest.raises(DomainError):
        dnoidal_eval(-0.75 * c * c * (1 + 1e-8), c, 0.0)


def test_dnoidal_solitary_limit_vs_shooting():
    # E -> 0^-: compare against a direct ODE shooting oracle.  The orbit
    # hugs the separatrix, so shoot over a bounded window only.
    E, c = -1e-3, -1.0
    T = dnoidal_period(E, c)
    u0 = dnoidal_eval(E, c, 0.0)

    def rhs(z, y):
        return [y[1], -c * y[0] - y[0] ** 3 / 3.0]   # u'' = -cu - f(u), a=0

    zs = np.linspace(0.0, 0.4 * T, 33)
    sol = solve_ivp(rhs, (0.0, zs[-1]), [u0, 0.0], t_eval=zs, rtol=1e-11,
                    atol=1e-12, method="DOP853")
    assert np.max(np.abs(sol.y[0] - dnoidal_eval(E, c, zs))) < 1e-6
    # amplitude approaches the solitary scale sqrt(-6c) * (1 + O(E))
    assert dnoidal_eval(E, c, 0.0) == pytest.approx(np.sqrt(-6.0 * c), rel=5e-3)


def test_profile_evaluator_matches_cnoidal(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    T = prof.period
    zs = np.linspace(-T, T, 101)
    # evaluator phase: u(0) = u_minus = beta; cnoidal crest at z = -z0
    ref = cnoidal_eval(3.0, 1.0, 0.0, T / 2, zs)
    assert np.max(np.abs(prof(zs) - ref)) < 1e-9


def test_profile_evenness_and_period(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    zs = np.linspace(0.1, 7.3, 17)
    assert np.max(np.abs(prof(zs) - prof(-zs))) < 1e-10
    assert np.max(np.abs(prof(zs) - prof(zs + prof.period))) < 1e-10


def test_profile_evaluator_schamel_positive():
    spec = schamel_spec()
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    prof = resolve_profile(spec, p)
    # the inversion carries the u = v^2 measure 2v that zeta_1 = T carries
    assert prof.period == param_jacobian(spec, p).T
    zs = np.linspace(0, prof.period, 64)
    u = prof(zs)
    assert np.all(u > 0)
    assert prof(0.0) == pytest.approx(0.36, rel=1e-8)
    assert prof(prof.period / 2) == pytest.approx(1.44, rel=1e-8)


def test_dnoidal_matches_resolver():
    spec = mkdv_spec(+1)
    E, c = -0.5, -1.0
    prof = resolve_profile(spec, WaveParams(0.0, E, c), branch=1)  # positive branch
    assert prof.period == pytest.approx(dnoidal_period(E, c), rel=1e-10)
    zs = np.linspace(0.0, prof.period, 50)
    # resolver phase: trough at z=0; dnoidal crest at z=0 -> shift by T/2
    assert np.max(np.abs(prof(zs) - dnoidal_eval(E, c, zs + prof.period / 2))) < 1e-8


@pytest.mark.parametrize("spec, p, branch", [
    (kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 0),
    (kdv_spec(), kdv_params_from_roots(3.0, 1e-6, 0.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, -0.2, -1.0), 1),
    (mkdv_spec(-1), WaveParams(0.0, 0.5, 1.0), 0),
    (schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, 0.01, -1.0), 0),
], ids=["kdv", "kdv-near-solitary", "mkdv-focusing-cn", "mkdv-focusing-dn",
        "mkdv-defocusing", "schamel", "mkdv-focusing-sharp"])
def test_profile_solves_the_profile_ode(spec, p, branch):
    # (1/2) u_z^2 = E - V(u) on 4096 points of one period, u_z by the
    # 4th-order central difference on that periodic grid (truncation error
    # below 2e-9 of max(E - V) on all of these waves).  The sharp focusing
    # wave has dz/dtheta peaking at 35 against 2 at the turning points.
    prof = resolve_profile(spec, p, branch=branch)
    n = 4096
    h = prof.period / n
    u = prof(np.arange(n) * h)
    u_z = (np.roll(u, 2) - 8 * np.roll(u, 1) + 8 * np.roll(u, -1) - np.roll(u, -2)) / (12 * h)
    rhs = p.E - effective_potential(spec, p.a, p.c, u)
    assert np.max(np.abs(0.5 * u_z ** 2 - rhs)) < 1e-8 * np.max(rhs)
    assert u.min() == pytest.approx(prof.u_minus, abs=1e-12)
    assert u.max() == pytest.approx(prof.u_plus, abs=1e-12)


@pytest.mark.parametrize("spec, p, branch", [
    (kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, -0.2, -1.0), 1),
    (mkdv_spec(-1), WaveParams(0.0, 0.5, 1.0), 0),
    (schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0), 0),
    (kdv_spec(), replace(kdv_params_from_roots(3.0, 1.0, 0.0), z0=0.8), 0),
], ids=["kdv", "mkdv-focusing-cn", "mkdv-focusing-dn", "mkdv-defocusing", "schamel",
        "kdv-z0"])
def test_theta_node_coefficients_match_sampled_profile(spec, p, branch):
    # the coefficients of f'(u) summed on the theta nodes equal the FFT of
    # 8(2N + 1) samples of the inverted profile, and so does the energy
    N = 48
    prof = resolve_profile(spec, p, branch=branch)
    gk, total = fourier_coefficients(prof, spec.fprime(), 2 * N)
    Ms = 8 * (2 * N + 1)
    g = spec.fprime()(prof(np.arange(Ms) * (prof.period / Ms)))
    gh = np.fft.fft(g) / Ms
    assert np.max(np.abs(gk - gh[:2 * N + 1])) <= 1e-13 * np.max(np.abs(gk))
    assert total == pytest.approx(np.mean(g ** 2), rel=1e-13)
    assert np.iscomplexobj(gk) == (p.z0 != 0.0)


def test_explicit_family_domain_errors():
    with pytest.raises(DomainError):
        cnoidal_eval(1.0, 2.0, 0.0, 0.0, 0.0)       # beta > alpha
    with pytest.raises(DomainError):
        dnoidal_eval(0.5, -1.0, 0.0)                # E > 0
    with pytest.raises(DomainError):
        dnoidal_eval(-0.5, 1.0, 0.0)                # c > 0


def test_explicit_family_periods_reject_bad_parameters():
    # the elliptic parameter m would leave [0, 1), where K is not the period
    with pytest.raises(DomainError):
        cnoidal_period(1.0, 2.0, 0.0)               # beta > alpha: m = -1
    with pytest.raises(DomainError):
        dnoidal_period(-0.5, 1.0)                   # c > 0


def test_profile_extrema_match_interval(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    zs = np.linspace(0.0, prof.period, 513)
    u = prof(zs)
    assert u.min() == pytest.approx(prof.u_minus, abs=1e-10)
    assert u.max() == pytest.approx(prof.u_plus, abs=1e-9)


def test_translation_offset(kdv):
    p0 = kdv_params_from_roots(3.0, 1.0, 0.0)
    p1 = WaveParams(p0.a, p0.E, p0.c, z0=0.8)
    prof0 = resolve_profile(kdv, p0)
    prof1 = resolve_profile(kdv, p1)
    zs = np.linspace(-2.0, 2.0, 11)
    assert np.max(np.abs(prof1(zs + 0.8) - prof0(zs))) < 1e-12


def test_nonperiodic_error_types(kdv, kdv_wave310):
    from modwave.errors import DegenerateRoots, NoBoundedOrbit
    for resolve in (quadrature_TMPH, resolve_profile):
        with pytest.raises(DegenerateRoots):
            resolve(kdv, WaveParams(0.0, 0.0, -1.0))        # on the variety
        with pytest.raises(NoBoundedOrbit):
            # one real root + complex pair: no positivity interval
            resolve(kdv, WaveParams(0.0, -5.0, 2.0))
        with pytest.raises(DomainError, match="branch 1 out of range"):
            resolve(kdv, kdv_wave310, branch=1)              # one interval only


def test_batch_parameters_are_refused_by_the_one_wave_routines(kdv):
    batch = WaveParams(np.array([-0.5, -0.45]), 0.0, -1.5)
    for resolve in (quadrature_TMPH, resolve_profile):
        with pytest.raises(DomainError, match=f"{resolve.__name__} takes the parameters of one"):
            resolve(kdv, batch)


def test_quadrature_failure_guard():
    # interval straddling an interior root: reduced polynomial not positive
    from modwave.errors import QuadratureFailure
    from modwave.waves import _quadrature
    coeffs = np.asarray(np.polynomial.polynomial.polyfromroots([0.0, 1.0, 2.0]))
    vals, nodes, failures = _quadrature(-coeffs[None], np.array([0.0]), np.array([2.0]),
                                        0, 1.0, 1e-11)
    assert isinstance(failures[0], QuadratureFailure)
    assert np.isnan(vals[0]).all() and nodes[0] == 0
