"""Shared fixtures: canonical test waves and admissible-parameter samplers."""
import numpy as np
import pytest

from modwave import (WaveParams, classify_parameters, kdv_params_from_roots,
                     kdv_spec, mkdv_spec, schamel_spec)
from modwave.bloch import _bloch_operator
from modwave.equations import discriminant, potential_polynomial
from modwave.waves import fourier_coefficients, quadrature_TMPH


@pytest.fixture(scope="session")
def kdv():
    return kdv_spec()


@pytest.fixture(scope="session")
def kdv_wave310():
    """The (alpha, beta, gamma) = (3, 1, 0) cnoidal test wave."""
    return kdv_params_from_roots(3.0, 1.0, 0.0)


def sample_kdv(rng, n, min_disc=0.0):
    """Admissible KdV triples via the root map; optionally filter by
    discriminant size."""
    spec = kdv_spec()
    out = []
    while len(out) < n:
        g = rng.uniform(-3.0, 0.0)
        b = g + rng.uniform(1.3, 2.5)
        a_ = b + rng.uniform(1.3, 2.5)
        p = kdv_params_from_roots(a_, b, g)
        if min_disc and discriminant(potential_polynomial(spec, p)) <= min_disc:
            continue
        out.append(p)
    return out


def sample_mkdv_focusing_cnoidal(rng, n):
    """a ~ 0 focusing region with two real roots (E > 0)."""
    spec = mkdv_spec(+1)
    out = []
    while len(out) < n:
        c = rng.uniform(-2.0, -0.5)
        E = rng.uniform(0.1, 1.0)
        a = rng.uniform(-0.05, 0.05)
        p = WaveParams(a, E, c)
        cls = classify_parameters(spec, p)
        if cls.is_periodic and len(cls.intervals) == 1:
            out.append(p)
    return out


def sample_mkdv_focusing_dnoidal(rng, n):
    """c < 0, -3c^2/4 < E < 0: two coexisting families."""
    spec = mkdv_spec(+1)
    out = []
    while len(out) < n:
        c = rng.uniform(-2.0, -0.8)
        E = -rng.uniform(0.1, 0.8) * 0.75 * c * c
        p = WaveParams(0.0, E, c)
        cls = classify_parameters(spec, p)
        if cls.is_periodic and len(cls.intervals) == 2:
            out.append(p)
    return out


def sample_mkdv_defocusing(rng, n):
    spec = mkdv_spec(-1)
    out = []
    while len(out) < n:
        c = rng.uniform(0.5, 2.0)
        E = rng.uniform(0.08, 0.7) * 0.75 * c * c
        a = rng.uniform(-0.03, 0.03)
        p = WaveParams(a, E, c)
        cls = classify_parameters(spec, p)
        if cls.is_periodic:
            # snoidal branch: the interval through the potential well
            out.append(p)
    return out


def schamel_params_from_interval(v_minus, v_plus, c, coeff=2.5):
    """Solve (E, a) so the Schamel v-side quintic vanishes at v_minus, v_plus."""
    lead = coeff * 2.0 / 5.0
    A = np.array([[1.0, v_minus ** 2], [1.0, v_plus ** 2]])
    b = np.array([0.5 * c * v_minus ** 4 + lead * v_minus ** 5,
                  0.5 * c * v_plus ** 4 + lead * v_plus ** 5])
    E, a = np.linalg.solve(A, b)
    return WaveParams(float(a), float(E), float(c))


def sample_schamel(rng, n):
    spec = schamel_spec()
    out = []
    while len(out) < n:
        vm = rng.uniform(0.25, 0.8)
        vp = vm + rng.uniform(0.25, 1.0)
        c = rng.uniform(-2.0, 1.0)
        p = schamel_params_from_interval(vm, vp, c)
        cls = classify_parameters(spec, p)
        if not cls.is_periodic:
            continue
        # pick the branch whose interval matches the construction
        br = None
        for i, (lo, hi) in enumerate(cls.intervals):
            if abs(lo - vm) < 1e-7 and abs(hi - vp) < 1e-7:
                br = i
        if br is not None:
            out.append((p, br))
    return out


def fd_jacobian(spec, params, h=1e-5, branch=0, tol_quad=1e-13):
    """Central finite differences of the quadrature (T, M, P) in (a, E, c).
    Step and quadrature tolerance balanced so the noise floor sits well
    below 1e-6 relative (truncation ~ h^2, noise ~ tol_quad/2h)."""
    J = np.zeros((3, 3))
    for j, (da, dE, dc) in enumerate(np.eye(3) * h):
        up = quadrature_TMPH(spec, WaveParams(params.a + da, params.E + dE,
                                              params.c + dc), branch=branch,
                             tol_quad=tol_quad)
        dn = quadrature_TMPH(spec, WaveParams(params.a - da, params.E - dE,
                                              params.c - dc), branch=branch,
                             tol_quad=tol_quad)
        J[:, j] = (np.array(up[:3]) - np.array(dn[:3])) / (2.0 * h)
    return J


def exact_local_assembler(profile, N):
    """xi -> L_xi of a local wave on exactly the modes |n| <= N: the
    theta-node coefficients of f'(u0) and the tail test of
    bloch.local_assembler, without its choice of a smaller size, so that
    two truncations can be compared."""
    gk, total = fourier_coefficients(profile, profile.spec.fprime(), 2 * N)
    return _bloch_operator(gk, total, N, profile.period,
                           lambda theta: -theta ** 2, profile.params.c)


def exact_bo_assembler(params, N):
    """xi -> L_xi of a Benjamin-Ono wave on exactly the modes |n| <= N:
    bloch.bo_assembler's closed-form coefficients of 2u without its choice
    of a smaller size."""
    k, s = params.k, params.s
    g0 = 2.0 * k - (s + params.c)
    g = np.append(g0, 2.0 * k * np.sqrt((s - k) / (s + k)) ** np.arange(1, 2 * N + 1))
    return _bloch_operator(g, g0 ** 2 + 4.0 * k * (s - k), N, params.period,
                           lambda theta: -np.abs(theta), params.c, xi_power=1)
