"""Small-amplitude modulational stability for nonlocal dispersion:
symbols, Stokes expansions, the 3x3 Bloch pencil, its discriminant, and
the index functions Lambda(k), Gamma(k) with the fKdV/ILW closed forms.

Conventions.  The equation is u_t + M u_x + (u^2)_x = 0 with Fourier
multiplier m(.), scaled so m(0) = 1 for Whitham/ILW; fKdV uses the
homogeneous symbol |k|^alpha (m(0) = 0) and every "m(k) - 1" factor below
generalizes to m(k) - m(0).  The constant-coefficient spectrum is

    omega_{n,xi}(k) = (n + xi) (m(k) - m(kn + k xi)),

exact for all xi.  The three near-zero branches of the small-amplitude
wave are governed by a 3x3 pencil (M_xi, P_xi) whose A = 0 part is
assembled from the exact omegas; the amplitude couplings follow the
first-order displayed blocks, with the Jordan entry carried as 2A (the
operator relation L0 phi3 = -2A phi2), which restores the realness,
xi-parity and A-evenness of the characteristic coefficients c_j.  The
pencil (M, P) is solved as the ordinary eigenproblem of P^{-1} M by
numpy.linalg: P = identity_proj has determinant 1 - A^2 q^2 / 2, so it is
invertible for the small amplitudes this expansion covers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParityViolation, ResonanceError, SymbolDomain

TOL_RES = 1e-8
H_SYM = 1e-5                  # step of the finite-difference symbol derivatives
STOKES_POINTS = 256           # stokes_residual collocation points per period
ORACLE_A = (1e-2, 5e-3)       # lambda_oracle amplitudes (Richardson pair)
ORACLE_XI = (1e-3, 5e-4)      # lambda_oracle Floquet exponents (averaged)
TOL_CUTOFF = 1e-12            # benjamin_feir_cutoff bisection bracket width


@dataclass(frozen=True)
class DispersionSymbol:
    """A real, even Fourier multiplier m with optional analytic derivatives.

    m must accept numpy arrays.  m0 = m(0) (removable singularities are
    handled by series branches inside the callables).  When dm/d2m are not
    supplied, central differences of step H_SYM with Richardson
    extrapolation are used.
    """

    name: str
    m: Callable
    m0: float = 1.0
    dm: Optional[Callable] = None
    d2m: Optional[Callable] = None

    def __call__(self, k):
        return self.m(np.asarray(k, dtype=float))

    def deriv(self, k: float) -> float:
        if self.dm is not None:
            return float(self.dm(k))
        h = H_SYM
        d1 = (self.m(k + h) - self.m(k - h)) / (2 * h)
        d2 = (self.m(k + h / 2) - self.m(k - h / 2)) / h
        return float((4 * d2 - d1) / 3)

    def deriv2(self, k: float) -> float:
        if self.d2m is not None:
            return float(self.d2m(k))
        h = H_SYM
        d1 = (self.m(k + h) - 2 * self.m(k) + self.m(k - h)) / h ** 2
        d2 = (self.m(k + h / 2) - 2 * self.m(k) + self.m(k - h / 2)) / (h / 2) ** 2
        return float((4 * d2 - d1) / 3)


def _whitham_m(k):
    scalar = np.ndim(k) == 0
    k = np.abs(np.atleast_1d(np.asarray(k, dtype=float)))
    out = np.empty_like(k)
    small = k < 1e-3
    ks = k[small]
    out[small] = 1.0 - ks ** 2 / 6.0 + 19.0 * ks ** 4 / 360.0
    kb = k[~small]
    out[~small] = np.sqrt(np.tanh(kb) / kb)
    return float(out[0]) if scalar else out


def _whitham_dm(k):
    k = float(k)
    s = np.sign(k) or 1.0
    k = abs(k)
    if k < 1e-3:
        return s * (-k / 3.0 + 19.0 * k ** 3 / 90.0)
    m = float(np.sqrt(np.tanh(k) / k))
    return s * m * (1.0 / np.cosh(k) ** 2 / np.tanh(k) - 1.0 / k) / 2.0


def _whitham_d2m(k):
    k = abs(float(k))
    if k < 1e-3:
        return -1.0 / 3.0 + 19.0 * k ** 2 / 30.0
    m = float(np.sqrt(np.tanh(k) / k))
    t, s2 = np.tanh(k), 1.0 / np.cosh(k) ** 2
    g = (s2 / t - 1.0 / k) / 2.0                     # (log m)'
    gp = (-s2 * (2.0 * t ** 2 + s2) / t ** 2 + 1.0 / k ** 2) / 2.0
    return m * (g * g + gp)


def whitham_symbol() -> DispersionSymbol:
    """m(k) = sqrt(tanh(k)/k), m(0) = 1."""
    return DispersionSymbol("whitham", _whitham_m, 1.0, _whitham_dm, _whitham_d2m)


def fkdv_symbol(alpha: float) -> DispersionSymbol:
    """Homogeneous symbol m(k) = |k|^alpha, m(0) = 0."""
    if alpha <= 0:
        raise DomainError("fKdV needs alpha > 0")
    return DispersionSymbol(
        f"fkdv-{alpha}",
        lambda k: np.abs(np.asarray(k, dtype=float)) ** alpha,
        0.0,
        lambda k: alpha * np.sign(k) * abs(float(k)) ** (alpha - 1.0),
        lambda k: alpha * (alpha - 1.0) * abs(float(k)) ** (alpha - 2.0),
    )


def bo_symbol() -> DispersionSymbol:
    return fkdv_symbol(1.0)


def ilw_symbol(H: float) -> DispersionSymbol:
    """m(k; H) = 1 + 1/H - k coth(kH), m(0) = 1."""
    if H <= 0:
        raise DomainError("ILW needs H > 0")

    def m(k):
        scalar = np.ndim(k) == 0
        k = np.abs(np.atleast_1d(np.asarray(k, dtype=float)))
        out = np.empty_like(k)
        small = k * H < 1e-4
        ks = k[small]
        out[small] = 1.0 - ks ** 2 * H / 3.0 + ks ** 4 * H ** 3 / 45.0
        kb = k[~small]
        out[~small] = 1.0 + 1.0 / H - kb / np.tanh(kb * H)
        return float(out[0]) if scalar else out

    def dm(k):
        s = np.sign(k) or 1.0
        k = abs(float(k))
        if k * H < 1e-4:
            return s * (-2.0 * k * H / 3.0 + 4.0 * k ** 3 * H ** 3 / 45.0)
        th = np.tanh(k * H)
        return s * (-1.0 / th + k * H / np.sinh(k * H) ** 2)

    def d2m(k):
        k = abs(float(k))
        if k * H < 1e-4:
            return -2.0 * H / 3.0 + 12.0 * k ** 2 * H ** 3 / 45.0
        sh = np.sinh(k * H)
        return 2.0 * H / sh ** 2 * (1.0 - k * H / np.tanh(k * H))

    return DispersionSymbol(f"ilw-{H}", m, 1.0, dm, d2m)


def omega(n: int, xi: float, k: float, sym: DispersionSymbol) -> float:
    """omega_{n,xi}(k) = (n + xi)(m(k) - m(kn + k xi)); exact constant-state
    eigenvalue frequencies i*omega."""
    if k <= 0:
        raise SymbolDomain("wave number k must be positive")
    return float((n + xi) * (sym(k) - sym(k * n + k * xi)))


def _coupling_constants(k: float, sym: DispersionSymbol):
    mk, m2k = float(sym(k)), float(sym(2 * k))
    if abs(mk - m2k) < TOL_RES:
        raise ResonanceError(f"second-harmonic resonance m(k)~m(2k) at k={k}")
    if abs(mk - sym.m0) < TOL_RES:
        raise ResonanceError(f"mean-flow resonance m(k)~m(0) at k={k}")
    q = 1.0 / (mk - m2k)
    S = 1.0 + (mk - sym.m0) / (2.0 * (mk - m2k))
    return mk, m2k, q, S


@dataclass(frozen=True)
class StokesWave:
    """Truncated Stokes expansion of a 2pi-periodic small-amplitude wave:
    w = w0 + A cos z + A^2 (h0 + h2 cos 2z) + O(A^3), c = c0 + A^2 c2."""

    k: float
    A: float
    b: float
    w0: float
    c0: float
    c2: float
    h0: float
    h2: float

    @property
    def speed(self) -> float:
        return self.c0 + self.A ** 2 * self.c2

    def profile(self, z):
        z = np.asarray(z, dtype=float)
        return (self.w0 + self.A * np.cos(z)
                + self.A ** 2 * (self.h0 + self.h2 * np.cos(2.0 * z)))


def stokes_expand(k: float, A: float, b: float, sym: DispersionSymbol) -> StokesWave:
    """Populate the Stokes coefficients.  Nonresonance (m(k) away from
    m(0) and m(2k)) is required for the displayed denominators."""
    mk, m2k, q, S = _coupling_constants(k, sym)
    one = sym.m0
    w0 = b * (one - mk) - b ** 2 * (one - mk)
    c0 = mk + 2.0 * b * (one - mk) - 6.0 * b ** 2 * (one - mk)
    h0 = 0.5 / (mk - one)
    h2 = 0.5 / (mk - m2k)
    c2 = 1.0 / (mk - one) + 0.5 / (mk - m2k)
    return StokesWave(k=k, A=A, b=b, w0=w0, c0=c0, c2=c2, h0=h0, h2=h2)


def stokes_residual(wave: StokesWave, sym: DispersionSymbol) -> float:
    """L2 residual of M_k w - c w + w^2 = (1-c)^2 b on the truncation,
    applying M_k pseudospectrally; O(A^3) by construction."""
    n = STOKES_POINTS
    z = np.arange(n) * 2.0 * np.pi / n
    w = wave.profile(z)
    wh = np.fft.fft(w) / n
    freq = np.fft.fftfreq(n, d=1.0 / n)
    Mw = np.real(np.fft.ifft(sym(wave.k * freq) * wh * n))
    c = wave.speed
    r = Mw - c * w + w ** 2 - (1.0 - c) ** 2 * wave.b
    return float(np.sqrt(np.mean(r ** 2)))


# ---------------------------------------------------------------------------
# 3x3 pencil and discriminant
# ---------------------------------------------------------------------------

def mxi_matrix(k: float, A: float, xi: float, sym: DispersionSymbol) -> np.ndarray:
    """The displayed truncation of the projected Bloch generator through
    O(xi^2, xi A): constant Jordan block (entry 2 at (2,3)), i xi diagonal
    (-k m', -k m', m(k)-m(0)), the -i xi A coupling block scaled by
    S = 1 + (m(k)-m(0))/(2(m(k)-m(2k))), and the xi^2 antisymmetric block
    scaled by k m'(k) + k^2 m''(k)/2."""
    mk, m2k, q, S = _coupling_constants(k, sym)
    mp = sym.deriv(k)
    R = k * mp + 0.5 * k ** 2 * sym.deriv2(k)
    M = np.zeros((3, 3), dtype=complex)
    M[1, 2] = 2.0
    M += 1j * xi * np.diag([-k * mp, -k * mp, mk - sym.m0])
    M += -1j * xi * A * S * np.array([[0, 0, 2], [0, 0, 0], [1, 0, 0]])
    M += xi ** 2 * R * np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return M


def identity_proj(k: float, A: float, sym: DispersionSymbol) -> np.ndarray:
    """Projection of the identity: I - (A/(m(k)-m(2k))) * pattern."""
    mk, m2k, q, S = _coupling_constants(k, sym)
    P = np.eye(3)
    P[0, 2] = -A * q
    P[2, 0] = -A * q / 2.0
    return P


def _pencil(k: float, A: float, xi: float, sym: DispersionSymbol):
    """Evaluation pencil: exact-omega A = 0 blocks plus the first-order
    amplitude couplings with the operator-scaled Jordan entry 2A."""
    mk, m2k, q, S = _coupling_constants(k, sym)
    w1 = omega(1, xi, k, sym)
    wm1 = omega(-1, xi, k, sym)
    w0 = omega(0, xi, k, sym)
    M = np.array([
        [0.5j * (w1 + wm1), 0.5 * (w1 - wm1), -2j * xi * A * S],
        [-0.5 * (w1 - wm1), 0.5j * (w1 + wm1), 2.0 * A],
        [-1j * xi * A * S, 0.0, 1j * w0],
    ])
    P = identity_proj(k, A, sym)
    return M, P


def _dj_coefficients(k: float, A: float, xi: float, sym: DispersionSymbol):
    """Roots X_j of the scaled characteristic cubic (lambda = -i xi X) and
    the real coefficients d_j (c_j = d_j xi^{3-j})."""
    M, P = _pencil(k, A, xi, sym)
    lam = np.linalg.eigvals(np.linalg.solve(P, M))
    X = 1j * lam / xi
    d3 = float(np.linalg.det(P))
    e1 = np.sum(X)
    e2 = X[0] * X[1] + X[0] * X[2] + X[1] * X[2]
    e3 = X[0] * X[1] * X[2]
    scale = max(1.0, np.max(np.abs(X))) ** 3
    for name, val in (("e1", e1), ("e2", e2), ("e3", e3)):
        if abs(val.imag) > 1e-10 * scale:
            raise ParityViolation(f"Im({name}) = {val.imag:.2e}: coefficients not real")
    d2 = d3 * e1.real
    d1 = -d3 * e2.real
    d0 = -d3 * e3.real
    return X, np.array([d0, d1, d2, d3])


def delta_discriminant(k: float, A: float, xi: float, sym: DispersionSymbol) -> float:
    """Discriminant Delta_{xi,k,A} of the scaled characteristic cubic
    -d3 X^3 + d2 X^2 + d1 X - d0:

        Delta = 18 d3 d2 d1 d0 + d2^2 d1^2 + 4 d2^3 d0 + 4 d3 d1^3 - 27 d3^2 d0^2,

    computed from the pencil eigenvalues (Delta = d3^4 prod (X_i - X_j)^2)
    for conditioning.  Positive iff the three branch slopes are real and
    distinct; even in A and in xi."""
    if xi == 0.0:
        raise DomainError("xi must be nonzero (slopes are scaled by 1/xi)")
    X, d = _dj_coefficients(k, A, xi, sym)
    prod = ((X[0] - X[1]) * (X[0] - X[2]) * (X[1] - X[2])) ** 2
    if abs(prod.imag) > 1e-8 * max(1.0, abs(prod.real)):
        raise ParityViolation(f"Im of root product {prod.imag:.2e}")
    return float(d[3] ** 4 * prod.real)


def delta_constant_state(k: float, xi: float, sym: DispersionSymbol) -> float:
    """Closed product form of Delta_{xi,k,0}:
    [(w0-w1)(w0-w-1)(w1-w-1)]^2 / xi^6."""
    w1, wm1, w0 = (omega(n, xi, k, sym) for n in (1, -1, 0))
    return float(((w0 - w1) * (w0 - wm1) * (w1 - wm1)) ** 2 / xi ** 6)


# ---------------------------------------------------------------------------
# index functions
# ---------------------------------------------------------------------------

def lambda_index(k: float, sym: DispersionSymbol):
    """(Lambda(k), Gamma(k)) with the oracle-fixed grouping

        Gamma  = 2(m(k) - m(2k)) + (k (m(k) - m0))'
        Lambda = (k(m-m0))' (k(m-m0))'' / (m(k) - m(2k)) * Gamma.

    sign(Lambda) decides small-amplitude modulational stability (positive:
    stable; negative: unstable).  The A^2-difference oracle on the pencil
    equals 2 k ((k(m-m0))')^2 * Lambda to leading order.
    """
    mk, m2k, q, S = _coupling_constants(k, sym)
    gp = mk - sym.m0 + k * sym.deriv(k)                  # (k(m-m0))'
    gpp = 2.0 * sym.deriv(k) + k * sym.deriv2(k)         # (k(m-m0))''
    gamma = 2.0 * (mk - m2k) + gp
    lam = gp * gpp / (mk - m2k) * gamma
    return lam, gamma


def lambda_oracle(k: float, sym: DispersionSymbol) -> float:
    """Second-difference estimate of the A^2-coefficient of Delta:
    Richardson in A (over ORACLE_A) of (Delta(k,A,xi) - Delta(k,0,xi))/A^2,
    averaged over the xi in ORACLE_XI.  Carries the 2k((k(m-m0))')^2
    normalization relative to lambda_index; signs always agree."""
    A1, A2 = ORACLE_A
    out = []
    for xi in ORACLE_XI:
        d0 = delta_discriminant(k, 0.0, xi, sym)
        D1 = (delta_discriminant(k, A1, xi, sym) - d0) / A1 ** 2
        D2 = (delta_discriminant(k, A2, xi, sym) - d0) / A2 ** 2
        w = (A1 / A2) ** 2
        out.append((w * D2 - D1) / (w - 1.0))
    return float(np.mean(out))


def lambda_oracle_normalized(k: float, sym: DispersionSymbol) -> float:
    """lambda_oracle divided by its 2k((k(m-m0))')^2 factor; comparable to
    lambda_index's Lambda in value, not just in sign."""
    gp = float(sym(k)) - sym.m0 + k * sym.deriv(k)
    return lambda_oracle(k, sym) / (2.0 * k * gp ** 2)


def benjamin_feir_cutoff(sym: DispersionSymbol, lo: float = 0.5, hi: float = 2.0):
    """Bisection root of Gamma(k), to a bracket of width TOL_CUTOFF; for the
    Whitham symbol the unique sign change near k ~ 1.146.  Returns
    (k_star, (lo, hi) bracket)."""
    glo = lambda_index(lo, sym)[1]
    ghi = lambda_index(hi, sym)[1]
    if glo * ghi > 0:
        raise DomainError(f"Gamma does not change sign on [{lo}, {hi}]")
    while hi - lo > TOL_CUTOFF:
        mid = 0.5 * (lo + hi)
        if glo * lambda_index(mid, sym)[1] <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


def lambda_fkdv(k: float, alpha: float) -> float:
    """Closed-form fKdV index
    Lambda_fKdV = 2 k^{4a} a (1+a)^4 (2^{a+1} - 3 - a) / (2^a - 1);
    negative for 1/2 < alpha < 1, zero at alpha = 1, positive for alpha > 1."""
    if alpha <= 0.5:
        raise DomainError("fKdV index needs alpha > 1/2")
    if k <= 0:
        raise DomainError("k must be positive")
    return (2.0 * k ** (4 * alpha) * alpha * (1 + alpha) ** 4
            * (2.0 ** (alpha + 1) - 3.0 - alpha) / (2.0 ** alpha - 1.0))


def gamma_ilw(z) -> float:
    """Gamma_ILW(z) = 1 - 2z^2 - cosh(2z) + 2z sinh(2z) = 2z^4 + O(z^6) > 0."""
    z = np.asarray(z, dtype=float)
    out = 1.0 - 2.0 * z ** 2 - np.cosh(2.0 * z) + 2.0 * z * np.sinh(2.0 * z)
    return float(out) if out.ndim == 0 else out


def delta_ilw(k: float, H: float) -> float:
    """Closed-form ILW small-amplitude discriminant; positive for all
    k, H > 0 (modulational stability)."""
    if k <= 0 or H <= 0:
        raise DomainError("need k > 0 and H > 0")
    z = H * k
    num = ((4.0 * H ** 2 * k ** 2 - 1.0) * np.cosh(z) + np.cosh(3.0 * z)
           - 8.0 * H * k * np.sinh(z)) ** 2
    return float(num / (32.0 * H ** 4 * np.sinh(z) ** 12) * gamma_ilw(z))
