"""Truncated Fourier-Galerkin discretization of the Bloch operators and
measurement of the three modulation slopes.

Local gKdV-type equations linearize in the co-moving frame to

    L = d/dz (d^2/dz^2 + c + f'(u0)),

nonlocal ones to  L = d/dz (M + c + f'(u0))  with the multiplier of the
equation's u_t = M u_x + f(u)_x form.  For a T-periodic wave the Bloch
operator L_xi = e^{-i xi z} L e^{i xi z} acts on Fourier modes
e^{2 pi i n z / T} through the combined frequencies theta_n = 2 pi n/T + xi;
multiplication by f'(u0) becomes a Toeplitz block of its Fourier
coefficients.  Written as L_xi = i A_xi with

    A_xi = diag(theta) (G + diag(inner(theta) + c)),

the operator A_xi is real whenever the Toeplitz block G is (the symbols
are real), i.e. whenever the coefficient's Fourier coefficients are real:
an even coefficient, as for every unshifted wave profile (even about
z = 0) and every closed-form wave here.  The spectrum of L_xi is then i
times the eigenvalues of a real matrix: the eigensolve runs in real
arithmetic and keeps the lambda -> -conj(lambda) symmetry exactly, so the
slopes of a stable wave come out real.  A coefficient that is not even (a
profile shifted by z0, arbitrary samples) keeps a complex G and the same
code runs in complex arithmetic.

Every assembler (local, nonlocal, Whitham, Benjamin-Ono) is the one builder
_bloch_operator with its own Fourier coefficients, period and inner
symbol.  Each hands it one format: the one-sided series g_0..g_{2N} of
its real coefficient (g_{-k} = conj g_k) and the total energy.  The
coefficient does not depend on xi, so its coefficients are computed,
checked for resolution (the energy beyond |n| = N, by Parseval's
identity, at most TAIL_TOL of the total) and turned into the Toeplitz
block once per wave; each xi then only adds the symbol diagonal and
scales the rows by theta_n.  A local wave (a profile from
resolve_profile) gets the coefficients of f'(u0) from the theta nodes of
its quadrature (waves.fourier_coefficients) and is never evaluated.  BO
and Whitham waves are never evaluated either: 2u of a BO wave has a
geometric series and -2w of a Stokes wave three modes, both in closed
form.  Only assemble_nonlocal, which is handed samples, takes an FFT.
For a local or BO wave N is a ceiling: one rule (_truncation) builds the
operator on the fewest modes whose neglected energy, summed from the top
over the computed coefficients, is at most a floor of the total --
machine epsilon for a local wave (typically 5 to 24 modes, matrices 11 to
49 square), BO_TAIL_FLOOR for BO (typically 15 to 62 modes).  Whitham
and assemble_nonlocal are built at N.  The spectrum comes from a dense
QR eigensolve of A_xi per xi (BlochMatrix.eigenvalues): matrices are a
few hundred square at most.

The three eigenvalues that leave the origin are lambda_j(xi) = i mu_j xi
+ O(xi^2).  modulation_slopes never follows one of them from xi to xi:
the elementary symmetric functions e1, e2, e3 of the triple's
lambda/(i xi) are holomorphic in xi even where branches cross or pair up
(Kato, Perturbation Theory for Linear Operators, II sections 1-2), so they are
extrapolated to xi = 0 and the slopes are the roots of
mu^3 - e1 mu^2 + e2 mu - e3.  The first xi is XI0 k0, k0 = 2 pi/T, halved
while the triple is not separated from the rest of the spectrum.  With a
real coefficient and a symbol smooth at theta = 0 the triple's
lambda/(i xi) is even in xi, so the extrapolation is in powers of xi^2;
BO's symbol -|theta| has a kink there and its assembler asks for powers
of xi (BlochMatrix.xi_power).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

# bo_eval is unused here; perfbench's tracer wraps modwave.bloch.bo_eval by name
from .bo import BOWaveParams, bo_eval
from .errors import ResolutionError
from .smallamp import DispersionSymbol, StokesWave
from .waves import WaveProfile, fourier_coefficients

XI0 = 1e-2                     # first Floquet exponent of the slope extrapolation, times 2 pi/T
SEPARATION = 0.1               # largest |lambda_3|/|lambda_4| at which the triple is taken
MAX_HALVINGS = 12              # most halvings of the first exponent
TAIL_TOL = 1e-12               # largest energy fraction beyond the kept modes
# Neglected energy fraction at which a Benjamin-Ono truncation stops
# growing.  BO slopes are far more sensitive to truncation than local
# ones, so machine epsilon (the local floor) is too coarse.  Over the 1440
# BO cases of the bloch-verify benchmark (seeds 1-30, ceilings 48 and 64)
# the slope error against the closed form has median 7.7e-8 (p95 4.3e-7)
# at the ceiling; 6.7e-7 (5.4e-6) at an epsilon floor, 26 modes on
# average; 7.1e-8 (4.4e-7) at this floor, 33 modes on average (15 to 62;
# neglected amplitude about 1e-10), where the eigensolves cost 0.31 of
# the ceiling's (sum of (2n + 1)^3) and the worst case, 1.5e-5, is a wave
# that reaches the ceiling at every floor.
BO_TAIL_FLOOR = 1e-20
# Fourier coefficients whose imaginary parts are at most this fraction of
# their largest modulus are taken as real (an even coefficient function)
REAL_COEFF_TOL = 1e-13


@dataclass
class BlochMatrix:
    """L_xi = i * operator at one xi on the Fourier modes |n| <= N;
    ``operator`` is A_xi, (2N + 1) square and real when the coefficient is
    even.  ``tail`` is the coefficient's energy fraction beyond |n| = N.
    For a local or BO wave N is the size chosen under the assembler's
    ceiling.  ``xi_power`` is the power of xi in which the modulation
    triple's lambda/(i xi) is a series: 2 for a symbol smooth at theta = 0,
    1 for BO's -|theta|."""
    N: int
    xi: float
    period: float
    operator: np.ndarray
    tail: float
    xi_power: int = 2

    @property
    def matrix(self) -> np.ndarray:
        return 1j * self.operator

    def eigenvalues(self) -> np.ndarray:
        return 1j * np.linalg.eigvals(self.operator)


def _truncation(g: np.ndarray, total: float, N: int, floor: float | None = None):
    """Size n <= N of the truncation of a real coefficient with Fourier
    coefficients g_k, k = 0..2N (g_{-k} = conj g_k), and total energy
    (1/T) int |g|^2 dz ``total``, and its energy fraction beyond |k| = n.

    The coefficient is refused at N: when the energy beyond |k| = N, the
    total minus that of the kept modes by Parseval's identity, is above
    TAIL_TOL of the total, ResolutionError.  That difference sits on the
    rounding floor, so the reported fraction is summed from the top over
    the given coefficients, n < |k| <= 2N.  A non-finite total or
    coefficient is refused as well.  With a floor, n is the smallest size
    >= 1 (the modes 0 and +-1 of the modulation triple) whose fraction is at
    most the floor, or N if none is; without one, n = N."""
    if not (np.isfinite(total) and np.isfinite(g).all()):
        raise ResolutionError("non-finite Fourier coefficients of the Bloch coefficient")
    loss = total - np.abs(g[0]) ** 2 - 2.0 * np.sum(np.abs(g[1:N + 1]) ** 2)
    if loss > TAIL_TOL * total:
        raise ResolutionError(
            f"Fourier tail energy {loss/total:.2e} above {TAIL_TOL:.1e}; increase N")
    energy = 2.0 * np.abs(g[2 * N:0:-1]) ** 2               # |k| = 2N..1
    # beyond[n] = fraction of the energy at n < |k| <= 2N, n = 0..2N
    beyond = np.append(np.cumsum(energy)[::-1], 0.0)
    beyond /= total if total > 0 else 1.0
    n = N
    if floor is not None:
        fits = np.flatnonzero(beyond[:N + 1] <= floor)
        n = max(1, int(fits[0])) if len(fits) else N
    return n, float(beyond[n])


def _bloch_operator(g: np.ndarray, total: float, N: int, period: float,
                    inner: Callable[[np.ndarray], np.ndarray], c: float,
                    floor: float | None = None,
                    xi_power: int = 2) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi = e^{-i xi z} d/dz (inner + c + g) e^{i xi z} for the real
    coefficient g with Fourier coefficients g_k, k = 0, 1, ... (g_{-k} =
    conj g_k; those past the given ones are zero, and those past 2N are not
    read) and total energy ``total``, on the modes |n| <= n of
    _truncation(g, total, N, floor): N itself without a floor.  N < 1 is
    refused (ResolutionError).  ``inner`` is the symbol of the linear part at
    the combined frequencies theta_n; ``xi_power`` is 1 when it has a kink
    at theta = 0 (BlochMatrix.xi_power).  The Toeplitz block of g, g_{m-n}
    at (m, n), is built here, once; it is real when the g_k are (to
    REAL_COEFF_TOL)."""
    if N < 1:
        raise ResolutionError(f"N >= 1 required, got N = {N}")
    g = np.concatenate([g, np.zeros(max(0, 2 * N + 1 - len(g)))])
    N, tail = _truncation(g, total, N, floor)
    if np.max(np.abs(g.imag)) <= REAL_COEFF_TOL * np.max(np.abs(g)):
        g = g.real
    ns = np.arange(-N, N + 1)
    # g_{m-n} at (m, n), read from g_{-2N}..g_{2N} with g_{-k} = conj g_k
    G = np.concatenate([np.conj(g[2 * N:0:-1]), g[:2 * N + 1]])[np.subtract.outer(ns, ns) + 2 * N]
    freqs = 2.0 * np.pi * ns / period
    diag = np.diag_indices(len(ns))

    def assembler(xi: float) -> BlochMatrix:
        theta = freqs + xi
        A = G.copy()
        A[diag] += inner(theta) + c
        A *= theta[:, None]
        return BlochMatrix(N=N, xi=xi, period=period, operator=A, tail=tail, xi_power=xi_power)

    return assembler


def local_assembler(profile: WaveProfile, N: int = 64) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi for a local polynomial/power-law wave from
    resolve_profile: the inner operator is -theta^2 + c plus the Toeplitz
    block of f'(u0).  The coefficients g_k of f'(u0), k = 0..2N, are summed
    on the theta nodes once, whatever the number of xi
    (fourier_coefficients; the profile is never evaluated).

    N is a ceiling (N >= 1).  The wave is refused at N as by every
    assembler (energy beyond |n| = N above TAIL_TOL: ResolutionError).  The
    operator is then built on the smallest n <= N whose energy beyond
    |k| = n, summed from the top over the computed |g_k|^2, n < |k| <= 2N,
    is at most machine epsilon of the total (_truncation); BlochMatrix.N
    records n."""
    # fourier_coefficients takes no negative k_max; the builder refuses N < 1
    gk, total = fourier_coefficients(profile, profile.spec.fprime(), max(2 * N, 0))
    return _bloch_operator(gk, total, N, profile.period, lambda theta: -theta ** 2,
                           profile.params.c, floor=np.finfo(float).eps)


def assemble_nonlocal(sym: DispersionSymbol, wave_samples: np.ndarray,
                      c: float, xi: float, N: int, period: float,
                      fprime_scale: float = 2.0) -> BlochMatrix:
    """L_xi = e^{-i xi z} d/dz (-M + c + f'(u0)) e^{i xi z} for a nonlocal
    equation on the modes |n| <= N, as in whitham_assembler and
    bo_assembler.  ``wave_samples`` are u0 on a uniform period grid, whose
    FFT gives the coefficients; f'(u0) = fprime_scale * u0 (quadratic
    nonlinearities).  The multiplier is evaluated at the combined physical
    frequencies.  The matrix states xi_power 2, a symbol smooth at
    theta = 0, whatever ``sym`` is; the slopes of a BO wave come from
    bo_assembler."""
    inner = lambda theta: -np.asarray(sym(theta), dtype=float)
    g = fprime_scale * np.asarray(wave_samples, dtype=float)
    return _bloch_operator(np.fft.rfft(g) / len(g), float(np.mean(g ** 2)), N, period,
                           inner, c)(xi)


def whitham_assembler(wave: StokesWave, sym: DispersionSymbol,
                      N: int = 48) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi for a small-amplitude Whitham-type wave in the
    2pi-periodic frame on the modes |n| <= N: L = d/dz(-M_k + c - 2w).
    xi in [-1/2, 1/2).  The Stokes profile's three modes give -2w's
    coefficients."""
    A = wave.A
    g = np.array([-2.0 * (wave.w0 + A ** 2 * wave.h0), -A, -A ** 2 * wave.h2])
    inner = lambda theta: -np.asarray(sym(wave.k * theta), dtype=float)
    return _bloch_operator(g, g[0] ** 2 + 2.0 * np.sum(g[1:] ** 2), N, 2.0 * np.pi, inner,
                           wave.speed)


def bo_assembler(params: BOWaveParams, N: int = 128) -> Callable[[float], BlochMatrix]:
    """xi -> L_xi for a Benjamin-Ono wave: L = d/dz(-Lambda + c + 2u) in
    the physical frame (period 2 pi / k).  2u has the geometric Fourier
    series g_0 = 2k - (s + c), g_n = 2k rho^|n| with rho =
    sqrt((s - k)/(s + k)), and total energy g_0^2 + 4k(s - k) (Parseval's
    identity); the wave is never sampled.

    N is a ceiling, as for local_assembler: the wave is refused at N
    (energy beyond |n| = N above TAIL_TOL: ResolutionError), and the
    operator is built on the smallest n <= N whose energy beyond |k| = n,
    summed from the top over the coefficients n < |k| <= 2N, is at most
    BO_TAIL_FLOOR of the total (_truncation); BlochMatrix.N records n.  The
    symbol's kink at theta = 0 makes the slopes a series in xi, not xi^2
    (xi_power = 1)."""
    k, s = params.k, params.s
    g0 = 2.0 * k - (s + params.c)
    g = np.append(g0, 2.0 * k * np.sqrt((s - k) / (s + k)) ** np.arange(1, 2 * N + 1))
    return _bloch_operator(g, g0 ** 2 + 4.0 * k * (s - k), N, params.period,
                           lambda theta: -np.abs(theta), params.c, floor=BO_TAIL_FLOOR,
                           xi_power=1)


def modulation_slopes(assembler: Callable[[float], BlochMatrix]) -> np.ndarray:
    """Slopes mu_j = lim lambda_j(xi)/(i xi) of the three eigenvalues
    leaving the origin, sorted.

    The first exponent is xi0 = XI0 k0, k0 = 2 pi/T.  It is halved, at
    most MAX_HALVINGS times, while the third-smallest |lambda| at xi0 is
    not below SEPARATION times the fourth: a pair of eigenvalues that
    does not belong to the triple is then too close to zero (long waves).
    An operator on the modes |n| <= 1 has the triple as its spectrum.
    At xi0, xi0/2 and xi0/4 the three lambda/(i xi) nearest zero give
    their elementary symmetric functions e1, e2, e3, which need no
    matching of eigenvalues from one xi to the next.  Neville's scheme
    takes them to xi = 0 in powers of xi^2, or of xi when the operator's
    BlochMatrix.xi_power says so (BO), and the slopes are the roots of
    mu^3 - e1 mu^2 + e2 mu - e3.  For a real operator the real parts of
    the e's are used, so a stable wave's slopes come out real.
    """
    xi = XI0 * 2.0 * np.pi / assembler(0.0).period
    for halvings in range(MAX_HALVINGS + 1):
        bloch = assembler(xi)
        lam = bloch.eigenvalues()
        near = np.sort(np.abs(lam))           # 3 values when the wave is sized to n = 1
        if len(near) == 3 or near[2] < SEPARATION * near[3] or halvings == MAX_HALVINGS:
            break
        xi /= 2.0
    levels = [(xi, lam)] + [(x, assembler(x).eigenvalues()) for x in (xi / 2.0, xi / 4.0)]
    xs, cubics = [], []
    for x, lam in levels:                     # (1, -e1, e2, -e3) of the triple at each xi
        mu = lam[np.argsort(np.abs(lam))[:3]] / (1j * x)
        xs.append(x ** bloch.xi_power)
        cubics.append(np.array([1.0, -mu.sum(), mu[0] * mu[1] + mu[0] * mu[2] + mu[1] * mu[2],
                                -mu.prod()]))
    for lev in (1, 2):                        # Neville to xi = 0
        cubics = [(xs[i] * cubics[i + 1] - xs[i + lev] * cubics[i]) / (xs[i] - xs[i + lev])
                  for i in range(len(cubics) - 1)]
    cubic = cubics[0].real if np.isrealobj(bloch.operator) else cubics[0]
    return np.sort_complex(np.roots(cubic))


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
