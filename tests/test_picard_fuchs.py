import numpy as np
import pytest

from conftest import (fd_jacobian, sample_kdv, sample_mkdv_defocusing,
                      sample_mkdv_focusing_cnoidal, schamel_params_from_interval)
from modwave import (WaveParams, build_system, kdv_params_from_roots, kdv_spec,
                     mkdv_spec, moment_jacobian, param_jacobian, resolve_profile,
                     schamel_spec, solve_moments, zeta_moments)
from modwave.equations import PotentialPolynomial
from modwave.errors import IllConditioned, SingularSystem
from modwave.waves import MomentTable


def _system_for(spec, params, k_max, branch=0):
    table = zeta_moments(spec, params, k_max, branch=branch)
    return build_system(table.poly, table), table


def test_kdv_5x5_structure(kdv, kdv_wave310):
    sys_, table = _system_for(kdv, kdv_wave310, 2)
    A, rhs = sys_.matrix, sys_.rhs
    a = np.asarray(table.poly.coeffs)               # (E, a, -c/2, -1/6)
    assert A.shape == (5, 5)
    assert np.allclose(A[0, :4], a) and np.allclose(A[1, 1:5], a)
    da = np.array([a[1], 2 * a[2], 3 * a[3]])       # P' band
    for i in range(3):
        assert np.allclose(A[2 + i, i:i + 3], da)
    z = table.zeta
    assert np.allclose(rhs, [z[0], z[1], 0.0, 2 * z[0], 4 * z[1]])


def test_mkdv_7x7_structure():
    spec = mkdv_spec(+1)
    p = WaveParams(0.0, 0.5, -1.0)
    sys_, table = _system_for(spec, p, 3)
    A, rhs = sys_.matrix, sys_.rhs
    a = np.asarray(table.poly.coeffs)               # (E, a, -c/2, 0, -1/12)
    assert A.shape == (7, 7)
    assert a[4] == pytest.approx(-1.0 / 12.0)
    for i in range(3):
        assert np.allclose(A[i, i:i + 5], a)
    da = np.array([a[1], 2 * a[2], 3 * a[3], 4 * a[4]])
    for i in range(4):
        assert np.allclose(A[3 + i, i:i + 4], da)
    z = table.zeta
    assert np.allclose(rhs, [z[0], z[1], z[2], 0.0, 2 * z[0], 4 * z[1], 6 * z[2]])


def test_schamel_9x9_structure():
    spec = schamel_spec()
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    sys_, table = _system_for(spec, p, 4)
    A = sys_.matrix
    a = np.asarray(table.poly.coeffs)               # (E, 0, a, 0, -c/2, -1)
    assert A.shape == (9, 9)
    assert a[1] == 0.0 and a[3] == 0.0 and a[5] == pytest.approx(-1.0)
    for i in range(4):
        assert np.allclose(A[i, i:i + 6], a)
    # zero-a1 column structure of the derivative band
    da = np.array([0.0, 2 * a[2], 0.0, 4 * a[4], 5 * a[5]])
    for i in range(5):
        assert np.allclose(A[4 + i, i:i + 5], da)


def test_TE_and_Pc_against_finite_differences(kdv, kdv_wave310):
    from modwave import quadrature_TMPH
    p = kdv_wave310
    J = param_jacobian(kdv, p)
    h = 1e-6
    T_E_fd = (quadrature_TMPH(kdv, WaveParams(p.a, p.E + h, p.c))[0]
              - quadrature_TMPH(kdv, WaveParams(p.a, p.E - h, p.c))[0]) / (2 * h)
    P_c_fd = (quadrature_TMPH(kdv, WaveParams(p.a, p.E, p.c + h))[2]
              - quadrature_TMPH(kdv, WaveParams(p.a, p.E, p.c - h))[2]) / (2 * h)
    assert J.T_E == pytest.approx(T_E_fd, rel=1e-6)
    assert J.J[2, 2] == pytest.approx(P_c_fd, rel=1e-6)


def test_degenerate_system_is_singular():
    # potential with a repeated root: Sylvester matrix singular
    coeffs = np.asarray(np.polynomial.polynomial.polyfromroots([0.0, 1.0, 1.0]))
    poly = PotentialPolynomial(tuple(coeffs), var="u")
    table = MomentTable(zeta=np.array([1.0, 1.0]), poly=poly, classification=None)
    sys_ = build_system(poly, table)
    with pytest.raises((SingularSystem, IllConditioned)):
        solve_moments(sys_)


def test_param_jacobian_kdv_signs(kdv, kdv_wave310):
    J = param_jacobian(kdv, kdv_wave310)
    assert J.T_E > 0                      # monotone period
    assert J.TMP_aEc > 0                  # classical orientation
    assert J.TM_aE > 0                    # Jensen


def test_jacobian_oracle_equivalence_kdv_and_mkdv():
    rng = np.random.default_rng(17)
    kdv = kdv_spec()
    for p in sample_kdv(rng, 12):
        J = param_jacobian(kdv, p)
        Jfd = fd_jacobian(kdv, p)
        assert np.max(np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)) < 1e-6
    foc = mkdv_spec(+1)
    for p in sample_mkdv_focusing_cnoidal(rng, 6):
        J = param_jacobian(foc, p)
        Jfd = fd_jacobian(foc, p)
        assert np.max(np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)) < 1e-6
    defoc = mkdv_spec(-1)
    for p in sample_mkdv_defocusing(rng, 6):
        J = param_jacobian(defoc, p)
        Jfd = fd_jacobian(defoc, p)
        assert np.max(np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)) < 1e-6


def test_schamel_jacobian_oracle():
    spec = schamel_spec()
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    J = param_jacobian(spec, p)
    Jfd = fd_jacobian(spec, p, h=1e-7)
    assert np.max(np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)) < 1e-6


def test_TM_aE_positive_for_kdv():
    rng = np.random.default_rng(23)
    kdv = kdv_spec()
    for p in sample_kdv(rng, 15):
        assert param_jacobian(kdv, p).TM_aE > 0


def test_pivoting_robustness(kdv, kdv_wave310):
    sys_, _ = _system_for(kdv, kdv_wave310, 2)
    I = solve_moments(sys_)
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(5)
        I2 = np.linalg.solve(sys_.matrix[perm], sys_.rhs[perm])
        assert np.max(np.abs(I2 - I)) < 1e-12 * max(1.0, np.max(np.abs(I)))


def test_moment_extension_consistency():
    # Schamel's I_9, from the extension row solve_moments adds for its
    # Jacobian, must satisfy the m = 5 recurrence
    spec = schamel_spec()
    p = schamel_params_from_interval(0.6, 1.2, -1.0)
    table = zeta_moments(spec, p, 5)
    sys_ = build_system(table.poly, table)
    I = solve_moments(sys_)
    assert len(I) == 10
    a = np.asarray(table.poly.coeffs)
    resid = sum(j * a[j] * I[j + 4] for j in range(1, 6)) - 10.0 * table.zeta[4]
    assert abs(resid) < 1e-9 * max(1.0, np.max(np.abs(I)))


@pytest.mark.parametrize("spec, p, branch", [
    (kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, -0.5, -1.0), 1),
    (mkdv_spec(-1), WaveParams(0.0, 0.5, 1.0), 0),
    (schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0), 0),
], ids=["kdv", "mkdv-focusing-cn", "mkdv-focusing-dn", "mkdv-defocusing", "schamel"])
def test_profile_table_gives_the_param_jacobian(spec, p, branch):
    # a resolved wave carries the moments its Jacobian needs; the Jacobian
    # from that table is param_jacobian's to the bit, and reading the table
    # leaves it as it was
    table = resolve_profile(spec, p, branch=branch).moments
    assert table.zeta.shape == (table.poly.moment_demand + 1,)
    zeta = table.zeta.copy()
    J, ref = moment_jacobian(table), param_jacobian(spec, p, branch=branch)
    assert np.array_equal(J.J, ref.J)
    assert J.T == ref.T and J.cond == ref.cond
    assert np.array_equal(table.zeta, zeta)
