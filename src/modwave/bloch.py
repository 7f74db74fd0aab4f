"""Truncated Fourier-Galerkin discretization of the Bloch operators and
measurement of the three modulation branch slopes.

Local gKdV-type equations linearize in the co-moving frame to

    L = d/dz (d^2/dz^2 + c + f'(u0)),

nonlocal ones to  L = d/dz (M + c + f'(u0))  with the multiplier of the
equation's u_t = M u_x + f(u)_x form.  For a T-periodic wave the Bloch
operator L_xi = e^{-i xi z} L e^{i xi z} acts on Fourier modes
e^{2 pi i n z / T} through the combined frequencies theta_n = 2 pi n/T + xi;
multiplication by f'(u0) becomes a Toeplitz block of its Fourier
coefficients.  Dense QR eigensolves throughout: matrices are a few hundred
square at most.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .bo import BOWaveParams, bo_eval
from .errors import BranchMixing, ResolutionError
from .smallamp import DispersionSymbol, StokesWave
from .waves import WaveProfile

DEFAULT_XI_LIST = (1e-2, 5e-3, 2.5e-3)


@dataclass
class BlochMatrix:
    N: int
    xi: float
    period: float
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        # scipy's LAPACK, imported at first use so that `import modwave`
        # loads no scipy; numpy's build orders the ~1e-12 real-part noise of
        # the near-zero eigenvalues differently
        from scipy.linalg import eigvals
        return eigvals(self.matrix)


def _toeplitz_coeffs(samples: np.ndarray, N: int, tail_tol: float = 1e-12) -> np.ndarray:
    """FFT coefficients of the sampled coefficient function, with a tail
    energy check: the modes beyond |n| = N must carry less than tail_tol
    of the total energy for the truncation to resolve the wave."""
    Ms = len(samples)
    gh = np.fft.fft(samples) / Ms
    if Ms > 2 * N + 1:
        idx = np.fft.fftfreq(Ms, d=1.0 / Ms).astype(int)
        tail = np.sum(np.abs(gh[np.abs(idx) > N]) ** 2)
        total = np.sum(np.abs(gh) ** 2)
        if total > 0 and tail > tail_tol * total:
            raise ResolutionError(
                f"Fourier tail energy {tail/total:.2e} above {tail_tol:.1e}; increase N")
    return gh


def _assemble(theta: np.ndarray, inner_diag: np.ndarray, gh: np.ndarray,
              ns: np.ndarray, sign_g: float) -> np.ndarray:
    Ms = len(gh)
    G = gh[(ns[:, None] - ns[None, :]) % Ms]
    return (1j * theta)[:, None] * (np.diag(inner_diag) + sign_g * G)


def assemble_local(profile: WaveProfile, xi: float, N: int = 64,
                   samples_per_mode: int = 8) -> BlochMatrix:
    """L_xi for a local polynomial/power-law wave: rows scale by i theta_m,
    the inner operator is diag(-theta_n^2 + c) plus the Toeplitz block of
    f'(u0) sampled on a uniform grid."""
    if N < 32:
        raise ValueError("N >= 32 required")
    T = profile.period
    Ms = samples_per_mode * (2 * N + 1)
    z = np.arange(Ms) * T / Ms
    g = profile.spec.fprime()(profile(z))
    gh = _toeplitz_coeffs(np.asarray(g, dtype=float), N)
    ns = np.arange(-N, N + 1)
    theta = 2.0 * np.pi * ns / T + xi
    inner = -theta ** 2 + profile.params.c
    return BlochMatrix(N=N, xi=xi, period=T,
                       matrix=_assemble(theta, inner, gh, ns, +1.0))


def assemble_nonlocal(sym: DispersionSymbol, wave_samples: np.ndarray,
                      c: float, xi: float, N: int, period: float,
                      fprime_scale: float = 2.0,
                      symbol_sign: float = 1.0) -> BlochMatrix:
    """L_xi = e^{-i xi z} d/dz (symbol_sign*M + c + f'(u0)) e^{i xi z} for a
    nonlocal equation.  ``wave_samples`` are u0 on a uniform period grid;
    f'(u0) = fprime_scale * u0 (quadratic nonlinearities).  The multiplier
    is evaluated at the combined physical frequencies."""
    Ms = len(wave_samples)
    gh = _toeplitz_coeffs(fprime_scale * np.asarray(wave_samples, dtype=float), N)
    ns = np.arange(-N, N + 1)
    theta = 2.0 * np.pi * ns / period + xi
    inner = symbol_sign * np.asarray(sym(theta), dtype=float) + c
    return BlochMatrix(N=N, xi=xi, period=period,
                       matrix=_assemble(theta, inner, gh, ns, +1.0))


def whitham_assembler(wave: StokesWave, sym: DispersionSymbol, N: int = 48,
                      samples_per_mode: int = 8) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi for a small-amplitude Whitham-type wave in the
    2pi-periodic frame: L = d/dz(-M_k + c - 2w).  xi in [-1/2, 1/2)."""
    Ms = samples_per_mode * (2 * N + 1)
    z = np.arange(Ms) * 2.0 * np.pi / Ms
    w = wave.profile(z)

    def assembler(xi: float) -> BlochMatrix:
        gh = _toeplitz_coeffs(2.0 * w, N)
        ns = np.arange(-N, N + 1)
        theta = ns + xi
        inner = -np.asarray(sym(wave.k * theta), dtype=float) + wave.speed
        return BlochMatrix(N=N, xi=xi, period=2.0 * np.pi,
                           matrix=_assemble(theta, inner, gh, ns, -1.0))

    return assembler


def bo_assembler(params: BOWaveParams, N: int = 128,
                 samples_per_mode: int = 8) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi for a Benjamin-Ono wave: L = d/dz(-Lambda + c + 2u) in
    the physical frame (period 2 pi / k)."""
    T = params.period
    Ms = samples_per_mode * (2 * N + 1)
    z = np.arange(Ms) * T / Ms
    u = bo_eval(params, z)

    def assembler(xi: float) -> BlochMatrix:
        gh = _toeplitz_coeffs(2.0 * u, N)
        ns = np.arange(-N, N + 1)
        theta = params.k * ns + xi
        inner = -np.abs(theta) + params.c
        return BlochMatrix(N=N, xi=xi, period=T,
                           matrix=_assemble(theta, inner, gh, ns, +1.0))

    return assembler


def local_assembler(profile: WaveProfile, N: int = 64) -> Callable[[float], BlochMatrix]:
    return lambda xi: assemble_local(profile, xi, N)


def _three_nearest_zero(ev: np.ndarray) -> np.ndarray:
    return ev[np.argsort(np.abs(ev))[:3]]


def _match_branches(prev: np.ndarray, cur: np.ndarray, gap_tol: float = 1e-10):
    """Order cur (3 values) to continue prev by minimal total distance;
    ambiguity below gap_tol raises BranchMixing."""
    best, second = None, None
    best_perm = None
    for perm in permutations(range(3)):
        cost = float(np.sum(np.abs(prev - cur[list(perm)])))
        if best is None or cost < best:
            second = best
            best, best_perm = cost, perm
        elif second is None or cost < second:
            second = cost
    if second is not None and second - best < gap_tol and second > 0:
        raise BranchMixing(f"continuation ambiguous: costs {best:.3e} vs {second:.3e}")
    return cur[list(best_perm)]


def modulation_slopes(assembler: Callable[[float], BlochMatrix],
                      xi_list: Sequence[float] = DEFAULT_XI_LIST) -> np.ndarray:
    """Slopes mu_j = lim lambda_j(xi)/(i xi) of the three eigenvalue
    branches bifurcating from the origin.

    At each xi the three eigenvalues nearest zero are selected, matched to
    the previous xi by nearest continuation, and the slopes are Richardson
    (Neville) extrapolated to xi = 0.  Needs at least three xi values.
    """
    xis = sorted(xi_list, reverse=True)
    if len(xis) < 3:
        raise ValueError("need at least three xi values")
    rows = []
    prev = None
    for xi in xis:
        mus = _three_nearest_zero(assembler(xi).eigenvalues()) / (1j * xi)
        mus = np.sort_complex(mus) if prev is None else _match_branches(prev, mus)
        prev = mus
        rows.append(mus)
    table = [np.array(rows)]                  # Neville in powers of xi
    xs = np.array(xis)
    for lev in range(1, len(xis)):
        prev_col = table[-1]
        nxt = np.empty((len(xis) - lev, 3), dtype=complex)
        for i in range(len(xis) - lev):
            x0, x1 = xs[i], xs[i + lev]
            nxt[i] = (x0 * prev_col[i + 1] - x1 * prev_col[i]) / (x0 - x1)
        table.append(nxt)
    return np.sort_complex(table[-1][0])


def instability_bubble_scan(assembler: Callable[[float], BlochMatrix],
                            xi_grid: Sequence[float]):
    """Max real part of the Bloch spectrum over the xi grid; confirms MI
    verdicts beyond the xi -> 0 limit.  Returns (max Re lambda, xi at max)."""
    best, best_xi = -np.inf, None
    for xi in xi_grid:
        r = float(np.max(assembler(xi).eigenvalues().real))
        if r > best:
            best, best_xi = r, xi
    return best, best_xi


def match_slope_sets(measured: np.ndarray, predicted: np.ndarray) -> float:
    """Max absolute mismatch between two slope triples under the best
    pairing (conjugate ordering of complex pairs is not meaningful)."""
    measured = np.asarray(measured)
    predicted = np.asarray(predicted)
    best = np.inf
    for perm in permutations(range(3)):
        best = min(best, float(np.max(np.abs(measured - predicted[list(perm)]))))
    return best
