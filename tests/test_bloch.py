import numpy as np
import pytest

from conftest import exact_bo_assembler, exact_local_assembler, schamel_params_from_interval
from modwave import (BOWaveParams, WaveParams, bo_eval, bo_modulation_speeds,
                     bo_symbol, fkdv_symbol, kdv_params_from_roots, kdv_spec, mkdv_spec,
                     modulation_slope_prediction, param_jacobian, resolve_profile,
                     schamel_spec, stokes_expand, whitham_symbol)
from modwave.bloch import (BO_TAIL_FLOOR, _truncation, assemble_nonlocal, bo_assembler,
                           instability_bubble_scan, local_assembler,
                           match_slope_sets, modulation_slopes, whitham_assembler)
from modwave.errors import ResolutionError
from modwave.smallamp import omega


def _kdv_operator(samples, c, xi, N, T):
    """L_xi = d/dz(d^2/dz^2 + c + u0) of KdV (f' = u) on uniform samples of
    u0: the fKdV symbol |theta|^2 enters as -|theta|^2, the local -theta^2."""
    return assemble_nonlocal(fkdv_symbol(2.0), samples, c, xi, N, T,
                             fprime_scale=1.0)


def test_constant_state_dispersion_relation():
    # eigenvalues i[theta (c + f'(u0)) - theta^3] exactly
    u0, c, T, N = 0.7, -0.4, 5.0, 32
    xi = 0.17
    ev = np.sort(_kdv_operator(np.full_like(_grid(T, N), u0), c, xi, N, T).eigenvalues().imag)
    th = 2 * np.pi * np.arange(-N, N + 1) / T + xi
    expect = np.sort(th * (c + u0) - th ** 3)        # f = u^2/2: f' = u
    assert np.max(np.abs(ev - expect)) < 1e-10 * np.max(np.abs(expect))


def test_kernel_contains_u_prime(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    N = 48
    L0 = exact_local_assembler(prof, N)(0.0).matrix
    T = prof.period
    Ms = 8 * (2 * N + 1)
    z = np.arange(Ms) * T / Ms
    uh = np.fft.fft(prof(z)) / Ms
    ns = np.arange(-N, N + 1)
    up = np.array([1j * 2 * np.pi * n / T * uh[n % Ms] for n in ns])
    assert np.linalg.norm(L0 @ up) <= 1e-6 * np.linalg.norm(up)


def test_zero_frequency_row_vanishes(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    N = 32
    asm = exact_local_assembler(prof, N)
    M0 = asm(0.0).matrix
    assert np.max(np.abs(M0[N, :])) == 0.0           # theta_0 = 0 at xi = 0
    M1 = asm(1e-3).matrix
    assert np.max(np.abs(M1[N, :])) > 0.0


def test_triple_zero_at_xi0(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    ev = local_assembler(prof, 48)(0.0).eigenvalues()
    scale = np.max(np.abs(ev))
    assert np.sum(np.abs(ev) < 1e-6 * scale) == 3


def test_spectral_symmetries(kdv, kdv_wave310):
    # spectra here are purely imaginary: order by the imaginary part (the
    # real parts are eigensolver noise and make sort_complex unstable)
    prof = resolve_profile(kdv, kdv_wave310)
    xi = 0.05
    by_imag = lambda ev: ev[np.argsort(ev.imag)]
    ev_p = by_imag(local_assembler(prof, 40)(xi).eigenvalues())
    ev_m = by_imag(np.conj(local_assembler(prof, 40)(-xi).eigenvalues()))
    scale = np.max(np.abs(ev_p))
    assert np.max(np.abs(ev_p - ev_m)) < 1e-8 * scale
    # lambda -> -conj(lambda) invariance of the same-xi spectrum
    ev_r = by_imag(-np.conj(ev_p))
    assert np.max(np.abs(ev_p - ev_r)) < 1e-8 * scale


def test_whitham_A0_eigenvalues_exact():
    sym = whitham_symbol()
    wave = stokes_expand(2.0, 0.0, 0.0, sym)
    asm = whitham_assembler(wave, sym, N=16)
    xi = 0.3
    ev = np.sort(asm(xi).eigenvalues().imag)
    expect = np.sort([omega(n, xi, 2.0, sym) for n in range(-16, 17)])
    assert np.max(np.abs(ev - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_bo_triple_near_zero_and_imaginary_spectrum():
    params = BOWaveParams(0.0, 1.0, -2.0)
    asm = bo_assembler(params, N=64)
    ev = asm(1e-3).eigenvalues()
    near = np.sort(np.abs(ev))[:3]
    assert np.all(near < 10.0 * 1e-3)                # within O(xi) of zero
    for xi in (1e-3, 0.05, 0.2, 0.45):
        assert np.max(asm(xi).eigenvalues().real) < 1e-8


def test_kdv_slopes_match_theory(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    measured = modulation_slopes(local_assembler(prof, N=48))
    predicted = modulation_slope_prediction(param_jacobian(kdv, kdv_wave310))
    scale = np.max(np.abs(predicted))
    assert match_slope_sets(measured, predicted) < 1e-3 * scale
    # slope sum consistency: sum mu = -T * S / D
    J = param_jacobian(kdv, kdv_wave310)
    S = J.TP_Ec + 2 * J.MP_aE
    assert np.sum(measured).real == pytest.approx(-J.T * S / J.TMP_aEc, rel=1e-4)
    assert abs(np.sum(measured).imag) < 1e-6


def test_focusing_cnoidal_slopes_complex():
    spec = mkdv_spec(+1)
    p = WaveParams(0.0, 0.5, -1.0)
    prof = resolve_profile(spec, p)
    measured = modulation_slopes(local_assembler(prof, N=48))
    assert np.sum(np.abs(measured.imag) > 1e-4) == 2


@pytest.mark.parametrize("p, N", [
    (WaveParams(-0.015236053039830975, 0.004522796478762389, -0.06419800505350734), 64),
    (WaveParams(-0.008114525126181105, 0.017531369664968634, -0.08368915291521424), 48),
    (WaveParams(0.011557722532979316, 0.016869519991000684, -0.14478071205009493), 48),
], ids=["period-29.9", "period-20.5", "period-20.9-halved"])
def test_long_focusing_waves_match_the_prediction(p, N):
    # two-real-root focusing mKdV waves whose slopes, tracked from one xi to
    # the next and extrapolated in xi, missed the prediction by 8.2e-3,
    # 5.5e-3 and 5.2e-2.  On the last, a pair of eigenvalues outside the
    # modulation triple sits nearer zero than its third member until the
    # first xi is halved three times.  The bound is far below bloch-check's
    # 1e-3: extrapolating in xi rather than xi^2 reads 1.6e-5 to 3.3e-5 here
    spec = mkdv_spec(+1)
    prof = resolve_profile(spec, p)
    predicted = modulation_slope_prediction(param_jacobian(spec, p))
    measured = modulation_slopes(local_assembler(prof, N=N))
    assert match_slope_sets(measured, predicted) < 1e-6 * np.max(np.abs(predicted))


def test_operator_on_three_modes_is_the_triple(kdv):
    # a near-harmonic KdV wave is sized to the modes |n| <= 1: its 3 x 3
    # operator has no fourth eigenvalue to separate the triple from
    p = kdv_params_from_roots(1.0 + 1e-4, 1.0, 0.0)
    prof = resolve_profile(kdv, p)
    asm = local_assembler(prof, N=48)
    assert asm(0.0).N == 1
    predicted = modulation_slope_prediction(param_jacobian(kdv, p))
    measured = modulation_slopes(asm)
    assert match_slope_sets(measured, predicted) < 1e-3 * np.max(np.abs(predicted))


def test_bo_slopes_match_closed_form():
    params = BOWaveParams(0.0, 1.0, -2.0)
    measured = modulation_slopes(bo_assembler(params, N=96))
    predicted = bo_modulation_speeds(params).astype(complex)
    assert match_slope_sets(measured, predicted) < 1e-3 * np.max(np.abs(predicted))


def test_bubble_scan_stable_vs_unstable(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    grid = np.linspace(1e-3, np.pi / prof.period, 12)
    mx, _ = instability_bubble_scan(local_assembler(prof, N=40), grid)
    assert mx < 1e-8
    spec = mkdv_spec(+1)
    prof_u = resolve_profile(spec, WaveParams(0.0, 0.5, -1.0))
    grid_u = np.linspace(1e-3, 0.1, 12)
    mx_u, xi_u = instability_bubble_scan(local_assembler(prof_u, N=40), grid_u)
    assert mx_u > 0.0 and xi_u is not None


def test_truncation_convergence(kdv, kdv_wave310):
    prof = resolve_profile(kdv, kdv_wave310)
    xi = 5e-3
    asm = {N: exact_local_assembler(prof, N) for N in (40, 80)}
    near = {}
    for N in (40, 80):
        ev = asm[N](xi).eigenvalues()
        near[N] = ev[np.argsort(np.abs(ev))[:3]]
    # paired by the best permutation: the real parts that would order them
    # are rounding noise
    assert match_slope_sets(near[40], near[80]) < 1e-8
    grid = np.linspace(1e-3, 0.05, 5)
    m1, _ = instability_bubble_scan(asm[40], grid)
    m2, _ = instability_bubble_scan(asm[80], grid)
    assert abs(m1 - m2) < 1e-6


@pytest.mark.parametrize("spec, p, branch", [
    (kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0), 0),
    (mkdv_spec(+1), WaveParams(0.0, -0.5, -1.0), 1),
    (mkdv_spec(-1), WaveParams(0.0, 0.5, 1.0), 0),
    (schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0), 0),
], ids=["kdv", "mkdv-focusing-cn", "mkdv-focusing-dn", "mkdv-defocusing", "schamel"])
def test_sized_truncation_matches_the_ceiling(spec, p, branch):
    # under the ceiling N = 64 the local assembler builds a smaller
    # operator, the exact-size one at the size it chose, whose slopes are
    # those of the full N = 64 truncation
    prof = resolve_profile(spec, p, branch=branch)
    asm = local_assembler(prof, N=64)
    n = asm(1e-2).N
    assert n < 64 and asm(1e-2).tail <= np.finfo(float).eps
    sized, ref = asm(0.013).operator, exact_local_assembler(prof, n)(0.013).operator
    assert np.max(np.abs(sized - ref)) <= 1e-12 * np.max(np.abs(ref))
    exact = modulation_slopes(exact_local_assembler(prof, 64))
    scale = np.max(np.abs(exact))
    assert match_slope_sets(modulation_slopes(asm), exact) <= 1e-6 * scale


@pytest.mark.parametrize("ratio", [0.35, 0.5, 0.7, 0.9])
def test_sized_bo_truncation_keeps_the_ceiling_accuracy(ratio):
    # a BO wave with k/s = ratio under the ceiling N = 64: the operator is
    # the exact-size one at the size chosen, whose neglected energy is at
    # most BO_TAIL_FLOOR, and its slopes are as close to the closed form
    # as those of the full N = 64 truncation
    params = BOWaveParams(0.0, 2.0 * ratio, -2.0)
    asm = bo_assembler(params, N=64)
    n, tail = asm(1e-2).N, asm(1e-2).tail
    ceiling_tail = exact_bo_assembler(params, 64)(1e-2).tail
    assert tail <= BO_TAIL_FLOOR and (n < 64 or ceiling_tail > BO_TAIL_FLOOR)
    sized, ref = asm(0.013).operator, exact_bo_assembler(params, n)(0.013).operator
    assert np.max(np.abs(sized - ref)) <= 1e-12 * np.max(np.abs(ref))
    predicted = bo_modulation_speeds(params).astype(complex)
    error = lambda a: match_slope_sets(modulation_slopes(a), predicted) / np.max(np.abs(predicted))
    assert error(asm) <= max(2.0 * error(exact_bo_assembler(params, 64)), 1e-8)


def test_fixed_size_tail_is_summed_from_the_top():
    # the energy of the BO coefficient beyond 64 modes is about 1e-31 of the
    # total; total minus kept would read the rounding floor, 2e-16
    params, N = BOWaveParams(0.0, 1.0, -2.0), 64
    u = bo_eval(params, _grid(params.period, N))
    bm = assemble_nonlocal(bo_symbol(), u, params.c, 1e-2, N, params.period)
    assert bm.N == N and bm.tail < 1e-28


def test_resolution_error_for_tiny_truncation():
    # a synthetic coefficient with a slowly decaying Fourier tail trips the guard
    T, N = 5.0, 32
    samples = 1.0 / (1.0001 - np.cos(2 * np.pi * _grid(T, N) / T))
    with pytest.raises(ResolutionError, match="Fourier tail energy"):
        _kdv_operator(samples, -1.0, 0.0, N, T)
    # an assembler checks when it is built, before any xi: long BO wave, k = 0.3
    with pytest.raises(ResolutionError):
        bo_assembler(BOWaveParams(0.0, 0.3, -2.0), N=32)


def test_near_solitary_wave_fails_the_tail_test():
    # a focusing cnoidal wave close to the figure-eight homoclinic: its
    # theta-node sums converge, but the spectrum of f'(u) reaches past N = 32
    prof = resolve_profile(mkdv_spec(+1), WaveParams(0.0, 1e-4, -1.0))
    with pytest.raises(ResolutionError, match="Fourier tail energy"):
        local_assembler(prof, 32)


def test_local_assembler_never_inverts_a_resolved_profile(kdv, kdv_wave310, monkeypatch):
    # the coefficients of f'(u) come from the theta nodes, once per
    # assembler, and the profile's evaluator is never called on the Bloch
    # path; the evaluator sums its own series of u, one fourier_coefficients
    # call per K it tries, when first called and keeps it
    import modwave.bloch
    import modwave.waves
    from modwave.waves import QUAD_NODES
    prof = resolve_profile(kdv, kdv_wave310)
    calls, bloch_sums, series_sums = [], [], []
    evaluate = prof.evaluator
    prof.evaluator = lambda z: calls.append(np.size(z)) or evaluate(z)
    coefficients = modwave.waves.fourier_coefficients
    monkeypatch.setattr(modwave.bloch, "fourier_coefficients",
                        lambda *a: bloch_sums.append(a[2]) or coefficients(*a))
    monkeypatch.setattr(modwave.waves, "fourier_coefficients",
                        lambda *a: series_sums.append(a[2]) or coefficients(*a))
    asm = local_assembler(prof, N=48)
    modulation_slopes(asm)
    instability_bubble_scan(asm, [0.01, 0.02, 0.03])
    assert calls == [] and bloch_sums == [2 * 48] and series_sums == []
    first = prof(0.3)                            # the evaluator still works when called
    assert calls == [1] and bloch_sums == [2 * 48]
    assert series_sums == [QUAD_NODES * 2 ** i for i in range(len(series_sums))]
    tried = list(series_sums)
    assert tried and prof(0.3) == first and series_sums == tried


def test_truncation_refuses_non_finite_coefficients():
    coeffs = np.zeros(9, dtype=complex)
    coeffs[0], coeffs[2] = 1.0, np.nan
    with pytest.raises(ResolutionError, match="non-finite"):
        _truncation(coeffs, 1.0, 2)
    with pytest.raises(ResolutionError, match="non-finite"):
        _truncation(np.ones(9, dtype=complex), np.inf, 2)


def _grid(period, N):
    Ms = 8 * (2 * N + 1)
    return np.arange(Ms) * period / Ms


def _per_xi_matrix(samples, N, period, inner, c, xi, sign=1.0):
    """L_xi built from scratch at one xi: FFT of the coefficient samples,
    Toeplitz block, symbol diagonal and row scaling by i theta_n."""
    Ms = len(samples)
    gh = np.fft.fft(samples) / Ms
    ns = np.arange(-N, N + 1)
    G = gh[(ns[:, None] - ns[None, :]) % Ms]
    theta = 2.0 * np.pi * ns / period + xi
    return (1j * theta)[:, None] * (np.diag(inner(theta) + c) + sign * G)


def _local_case():
    spec, p, N = kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 40
    prof = resolve_profile(spec, p)
    g = spec.fprime()(prof(_grid(prof.period, N)))
    return (exact_local_assembler(prof, N),
            (g, N, prof.period, lambda th: -th ** 2, p.c))


def _whitham_case():
    sym, N = whitham_symbol(), 16
    wave = stokes_expand(1.0, 0.1, 0.0, sym)
    w = wave.profile(_grid(2 * np.pi, N))
    inner = lambda th: -np.asarray(sym(wave.k * th), float)
    return whitham_assembler(wave, sym, N=N), (2.0 * w, N, 2 * np.pi, inner, wave.speed, -1.0)


def _bo_case():
    params, N = BOWaveParams(0.0, 1.3, -2.0), 32
    u = bo_eval(params, _grid(params.period, N))
    return exact_bo_assembler(params, N), (2.0 * u, N, params.period, lambda th: -np.abs(th),
                                           params.c)


def _nonlocal_case():
    params, N = BOWaveParams(0.0, 1.3, -2.0), 32
    u = bo_eval(params, _grid(params.period, N))
    asm = lambda xi: assemble_nonlocal(bo_symbol(), u, params.c, xi, N, params.period,
                                       fprime_scale=3.0)
    inner = lambda th: -np.asarray(bo_symbol()(th), float)
    return asm, (3.0 * u, N, params.period, inner, params.c)


@pytest.mark.parametrize("case", [_local_case, _whitham_case, _bo_case, _nonlocal_case],
                         ids=["local", "whitham", "bo", "nonlocal"])
def test_assemblers_match_per_xi_construction(case):
    asm, (samples, N, period, inner, c, *sign) = case()
    for xi in (0.013, -0.21):
        ref = _per_xi_matrix(samples, N, period, inner, c, xi, *sign)
        got = asm(xi).matrix
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_assemble_nonlocal_raw_interface_matches_bo():
    params = BOWaveParams(0.0, 1.0, -2.0)
    N, xi = 32, 0.01
    u = bo_eval(params, _grid(params.period, N))
    raw = assemble_nonlocal(bo_symbol(), u, params.c, xi, N, params.period,
                            fprime_scale=2.0)
    ref = bo_assembler(params, N=32)(xi)
    scale = np.max(np.abs(ref.matrix))
    assert np.max(np.abs(raw.matrix - ref.matrix)) < 1e-12 * scale


def _set_distance(a, b):
    """Hausdorff distance between two spectra taken as sets."""
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


@pytest.mark.parametrize("make", [
    lambda: local_assembler(resolve_profile(kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0)),
                            N=48),
    lambda: local_assembler(resolve_profile(mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0)), N=48),
    lambda: bo_assembler(BOWaveParams(0.0, 1.0, -2.0), N=64),
    lambda: whitham_assembler(stokes_expand(1.0, 0.1, 0.0, whitham_symbol()),
                              whitham_symbol(), N=16)],
    ids=["kdv", "mkdv-focusing-cn", "bo", "whitham"])
def test_even_wave_eigensolve_runs_in_real_arithmetic(make):
    asm = make()
    for xi in (1e-2, 0.2):
        bm = asm(xi)
        assert bm.operator.dtype == np.float64
        ref = np.linalg.eigvals(bm.matrix)           # complex QR of L_xi itself
        assert _set_distance(bm.eigenvalues(), ref) <= 1e-10 * np.linalg.norm(bm.operator)


def test_uneven_coefficient_keeps_complex_arithmetic():
    # a BO profile shifted by z = 0.3 is not even: its Fourier coefficients
    # are complex, and by translation invariance its spectrum is that of
    # the unshifted (real) operator
    params, N = BOWaveParams(0.0, 1.3, -2.0), 32
    z = _grid(params.period, N)
    for xi in (1e-2, 0.2):
        even, shifted = (assemble_nonlocal(bo_symbol(), bo_eval(params, z + shift), params.c,
                                           xi, N, params.period)
                         for shift in (0.0, 0.3))
        assert even.operator.dtype == np.float64
        assert shifted.operator.dtype == np.complex128
        assert _set_distance(even.eigenvalues(), shifted.eigenvalues()) < 1e-9
