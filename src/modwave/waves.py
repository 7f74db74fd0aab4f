"""Wave profiles: the moments zeta_k by regularized quadrature, and
(T, M, P, H) read off them; the Fourier coefficients of any function of
u(z) on the same theta nodes, which give both the Bloch check's f'(u) and
the profile's own cosine series; the explicit cnoidal/dnoidal families
(Jacobi cn, dn and K) used as cross checks.

All loop integrals over the oscillation interval are reduced to smooth
integrals by the substitution w = w- + (w+ - w-) sin^2(theta), which
removes the square-root endpoint singularities at both turning points:
with P(w) = (w - w-)(w+ - w) G(w),

    dw / sqrt(P) = 2 dtheta / sqrt(G(w(theta))).

G comes from synthetic deflation of P, so the integrand is analytic on
[0, pi/2] whenever the endpoints are simple roots.  It is also even and
pi-periodic in theta, so the trapezoid rule on [0, pi/2] (half weights at
the ends) is the periodic trapezoid rule and converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014).  Every moment of a wave is
summed on one node set: 32 intervals first, doubled (reusing the old
nodes) while the embedded error estimate |Q_N - Q_{N/2}|, the change
against the half grid, exceeds tol_quad * max(1, |Q_N|) for any moment.
A wave still above tolerance at 2^16 intervals raises QuadratureFailure.
Batches of waves (WaveParams holding arrays) are summed together; each
row doubles on its own, so its result does not depend on the other rows.
zeta_moments is the one quadrature: quadrature_TMPH takes T, M, P from its
table and H as a dot product of the moments with the coefficients of H's
weight, a polynomial in w.  A resolved wave (resolve_profile) holds its
table, summed to the Picard-Fuchs moment demand, so
picard_fuchs.moment_jacobian(profile.moments) is the wave's Jacobian.

theta in [0, pi) also covers one period of the wave in z, with
dz/dtheta = h(theta) in closed form, so a Fourier coefficient of any
function of u(z) is a periodic trapezoid sum on the theta nodes as well
(fourier_coefficients): the Bloch check sums f'(u), and the profile
evaluator is the Fourier series of u itself, so nothing inverts z(u).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .equations import (SCHAMEL_COEFF, Classification, EquationSpec,
                        PotentialPolynomial, WaveParams, classify_parameters,
                        polyval, potential_polynomial)
from .errors import (DegenerateRoots, DomainError, NoBoundedOrbit,
                     QuadratureFailure, ResolutionError, flag_rows)

TOL_QUAD = 1e-11
SQRT2 = np.sqrt(2.0)
QUAD_NODES = 32                # first trapezoid level: intervals on [0, pi/2]
QUAD_MAX_NODES = 2 ** 16
QUAD_BUDGET = 2 ** 18          # integrand values held at once (bounds memory)
# Fourier coefficients on the theta nodes: first level (intervals on
# [0, pi/2]) and the doubling tolerance relative to max |g_k|
THETA_NODES = 256
THETA_TOL = 1e-13
# sin^2 at the first level's nodes, and the fractions of the interval
# where G must be positive
_S2_FIRST = np.sin(np.linspace(0.0, np.pi / 2, QUAD_NODES + 1)) ** 2
_PROBE = np.linspace(0.0, 1.0, 17)


def _reduced_poly(coeffs, lo, hi) -> np.ndarray:
    """G with P(w) = (w - lo)(hi - w) G(w), by synthetic division (the
    steps of numpy.polynomial.polydiv).  Coefficients run along the last
    axis; lo and hi broadcast against the leading ones."""
    c = np.array(coeffs, dtype=float)
    for root in (lo, hi):
        root = np.asarray(root, dtype=float)
        for i in range(c.shape[-1] - 2, -1, -1):
            c[..., i] += root * c[..., i + 1]
        c = c[..., 1:]
    return -c


def _quadrature(coeffs, lo, hi, k_max: int, wfac: float, tol: float):
    """sqrt(2) * int wfac w^k/sqrt(P) dw over [lo, hi], k = 0..k_max, for B
    waves.

    coeffs (B, n + 1) are the rows of P and lo, hi (B,) their intervals (a
    row with a nan interval fails the positivity probe and is not summed).
    Returns the (B, k_max + 1) values (nan where a row failed), the
    trapezoid intervals on [0, pi/2] each row used, and
    {row: QuadratureFailure}."""
    B = len(lo)
    n_weights = k_max + 1
    G = _reduced_poly(coeffs, lo, hi)
    span = hi - lo
    values = np.full((B, n_weights), np.nan)
    nodes = np.zeros(B, dtype=int)
    positive = (polyval(G, lo[:, None] + span[:, None] * _PROBE) > 0.0).all(axis=-1)
    failures = {}
    flag_rows(failures, ~positive,
              lambda i: QuadratureFailure("reduced polynomial not positive on the interval"))

    def node_sum(rows, s2, first=False):
        """Integrand summed over the nodes with sin^2(theta) = s2, row block
        by row block to bound memory.  On the first level (end nodes at half
        weight) the sums over the even nodes, which form the half grid, and
        over the odd nodes."""
        out = np.empty((2 if first else 1, len(rows), n_weights))
        step = max(1, QUAD_BUDGET // (n_weights * len(s2)))
        for k in range(0, len(rows), step):
            r = rows[k:k + step]
            w = lo[r, None] + span[r, None] * s2
            g = np.empty((w.shape[0], n_weights, w.shape[1]))
            g[:, 0] = wfac
            for j in range(1, n_weights):
                g[:, j] = g[:, j - 1] * w
            g *= (2.0 / np.sqrt(polyval(G[r], w)))[:, None, :]
            if first:
                g[..., ::QUAD_NODES] *= 0.5              # the two end nodes
                out[1, k:k + step] = g[..., 1::2].sum(axis=-1)
                g = g[..., ::2]
            out[0, k:k + step] = g.sum(axis=-1)
        return out

    rows = positive.nonzero()[0]
    M = QUAD_NODES
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        S_half, S_odd = node_sum(rows, _S2_FIRST, first=True)
        Q_half, S = (np.pi / M) * S_half, S_half + S_odd
        while len(rows):
            Q = (np.pi / 2 / M) * S
            diff = np.abs(Q - Q_half)
            finite = np.isfinite(Q).all(axis=-1)
            done = finite & (diff <= tol * np.maximum(1.0, np.abs(Q))).all(axis=-1)
            values[rows[done]] = SQRT2 * Q[done]
            nodes[rows[done]] = M
            flag_rows(failures, ~finite,
                      lambda k: QuadratureFailure("non-finite quadrature value"), rows)
            keep = finite & ~done
            if M >= QUAD_MAX_NODES:
                flag_rows(failures, keep, lambda k: QuadratureFailure(
                    f"error estimate {diff[k].max():.2e} above tolerance"), rows)
                break
            rows, S, Q_half = rows[keep], S[keep], Q[keep]
            if len(rows):
                S = S + node_sum(rows, np.sin((np.arange(M) + 0.5) * (np.pi / 2 / M)) ** 2)[0]
            M *= 2
    return values, nodes, failures


def zeta_moments(spec: EquationSpec, params: WaveParams, k_max: int = None,
                 branch: int = 0, tol_quad: float = TOL_QUAD) -> "MomentTable":
    """Moments zeta_0..zeta_kmax of the wave (k_max None: to the potential
    polynomial's moment_demand, all the Picard-Fuchs Jacobian reads).

    zeta_k = sqrt(2) * int mu(w) w^k / sqrt(E - V) dw over the oscillation
    interval, with measure weight mu = 1 for polynomial nonlinearities and
    mu = 2v for the Schamel substitution u = v^2.  With this normalization
    the physical quantities are  (T, M, P) = (zeta_i0, zeta_i1, zeta_i2)
    at the indices carried by the potential polynomial ((0,1,2) or (1,3,5)).
    The polynomial is the one classify_parameters built.  A batch of
    parameters gives a batch MomentTable: every row is summed in place, and
    a non-periodic or failed row has nan moments and its first failure in
    ``failures``.
    """
    cls = classify_parameters(spec, params.as_batch(), branch)
    poly = cls.poly
    if k_max is None:
        k_max = poly.moment_demand
    failures = dict(cls.failures)
    flag_rows(failures, cls.status == "on-gamma",
              lambda i: DegenerateRoots("parameters lie on the discriminant variety"))
    flag_rows(failures, cls.status == "no-bounded-orbit",
              lambda i: NoBoundedOrbit("no positivity interval of E - V"))
    # Schamel measure is 2 v^k dv (the u = v^2 Jacobian lives in the odd
    # moment indices (T,M,P) = (zeta_1, zeta_3, zeta_5), not in the weight);
    # rows without an interval (w_minus nan) are not summed
    wfac = 2.0 if spec.kind == "local-power" else 1.0
    zeta, nodes, quad_failures = _quadrature(poly.coeffs, cls.w_minus, cls.w_plus, k_max,
                                             wfac, tol_quad)
    for i, exc in quad_failures.items():         # a row's first failure wins
        failures.setdefault(i, exc)
    table = MomentTable(zeta=zeta, poly=poly, classification=cls,
                        nodes=nodes, failures=failures)
    return table if params.is_batch else table.row(0)


@dataclass
class MomentTable:
    """zeta moments with the polynomial and classification they were summed
    on: the record a WaveProfile holds, read (never changed) by
    picard_fuchs.moment_jacobian.  ``nodes`` are the trapezoid intervals on
    [0, pi/2] the quadrature used.  In a batch table zeta is (B, k_max + 1),
    poly and classification are batches, and ``failures`` maps each failed
    row to its error."""

    zeta: np.ndarray
    poly: PotentialPolynomial
    classification: Classification
    nodes: Optional[np.ndarray] = None      # an int for one wave
    failures: dict = field(default_factory=dict)

    @property
    def tmp(self):
        i0, i1, i2 = self.poly.tmp_indices
        return self.zeta[..., i0], self.zeta[..., i1], self.zeta[..., i2]

    def row(self, i: int) -> "MomentTable":
        """Row i of a batch as a single table (raises its failure)."""
        if i in self.failures:
            raise self.failures[i]
        cls = self.classification.row(i)
        return MomentTable(zeta=self.zeta[i], poly=cls.poly, classification=cls,
                           nodes=int(self.nodes[i]))


def quadrature_TMPH(spec: EquationSpec, params: WaveParams, branch: int = 0,
                    tol_quad: float = TOL_QUAD):
    """Period T, mass M, momentum P, Hamiltonian H of one wave.

    T = sqrt(2) oint dw/sqrt(E-V) (loop = twice the one-way integral),
    M = int u dx, P = int u^2 dx, H = int (u_x^2/2 - F(u)) dx over a period,
    all from one zeta_moments table: (T, M, P) is its ``tmp`` and H is the
    moments dotted with the coefficients of H's weight E - V - F, a
    polynomial in w.  For Schamel F(v^2) = lead v^5 and zeta_k already
    carries the 2v measure, so the weight is v (P_v - lead v^5).
    """
    if params.is_batch:
        raise DomainError("quadrature_TMPH takes the parameters of one wave")
    poly = potential_polynomial(spec, params)
    if poly.var == "u":
        h = np.asarray(poly.coeffs) - spec.F_coeffs()
    else:
        h = np.array([0.0, *poly.coeffs])
        h[-1] -= SCHAMEL_COEFF * 2.0 / 5.0
    table = zeta_moments(spec, params, len(h) - 1, branch, tol_quad)
    T, M, P = map(float, table.tmp)
    return T, M, P, float(h @ table.zeta)


# ---------------------------------------------------------------------------
# resolved profiles: the moment table of the wave, and the Fourier
# coefficients of f'(u) (for the Bloch check) or of u (for the evaluator)
# straight from the theta nodes; z(u) is never inverted.
# ---------------------------------------------------------------------------

@dataclass
class WaveProfile:
    """A resolved periodic traveling wave, as resolve_profile returns it.

    ``moments`` is its MomentTable; the classification, the interval
    (u_minus, u_plus) and the period T (the table's zeta at the period
    index) are read off it.  The evaluator is even about z - z0 = 0 with
    u(z0) = u_minus and period T; it is a plain attribute, so a caller may
    wrap it.  The theta-node sums (fourier_coefficients) read the table,
    never the evaluator.
    """

    spec: EquationSpec
    params: WaveParams
    moments: MomentTable
    evaluator: Callable[[np.ndarray], np.ndarray]
    classification = property(lambda self: self.moments.classification)
    u_minus = property(lambda self: self.classification.u_minus)
    u_plus = property(lambda self: self.classification.u_plus)
    period = property(lambda self: float(self.moments.tmp[0]))

    def __call__(self, z):
        return self.evaluator(z)


def fourier_coefficients(profile: WaveProfile, fn: Callable[[np.ndarray], np.ndarray],
                         k_max: int):
    """Fourier coefficients g_k, k = 0..k_max, of g = fn(u(z)) over one
    period, and the total energy (1/T) int |g|^2 dz, for a profile from
    resolve_profile.  Nothing is inverted.

    theta in [0, pi) covers one period, with z = Z(theta), Z' = h and u(theta)
    in closed form.  On the nodes theta_j = j pi/(2m), Z is the spectral
    antiderivative of h (one rfft) and T = pi * mean(h).  The integrand of
    g_k = (1/T) int_0^pi fn(u) e^{-2 pi i k Z/T} h dtheta is pi-periodic and
    its real part even, so g_k = (2/T) sum_trap[0, pi/2] fn(u) cos(2 pi k Z/T) h:
    a periodic trapezoid sum, geometrically convergent like the moments'.
    m starts at THETA_NODES and doubles (reusing the old nodes) while
    max |g^m - g^(m/2)| or the change of the total energy against the half
    grid exceeds THETA_TOL relative; past QUAD_MAX_NODES it raises
    ResolutionError.  A profile translated by z0 gets g_k e^{-2 pi i k z0/T}.
    """
    return _theta_sums(profile, fn)(k_max)


def _theta_sums(profile: WaveProfile, fn: Callable[[np.ndarray], np.ndarray]):
    """k_max -> fourier_coefficients(profile, fn, k_max), keeping the theta
    nodes between calls: a call starts its doubling at the level the
    previous call converged at, not at THETA_NODES.  When the largest
    |g_k| has k within the previous k_max, every lower level fails the new
    test too (it checks those k against the same scale), so the result is
    the one a fresh call gives."""
    cls, poly = profile.classification, profile.moments.poly
    lo, hi = cls.w_minus, cls.w_plus
    G = _reduced_poly(poly.coeffs, lo, hi)
    square = poly.var == "v"

    def nodes(theta):
        """h = dz/dtheta = sqrt(2) mu(w)/sqrt(G(w)) and fn(u) at theta, along
        w = lo + (hi - lo) sin^2(theta).  mu is the moment measure of
        zeta_moments: 1 in u, 2v for the Schamel substitution u = v^2
        (dz = 2v dv / sqrt(2 P_v)).  h is even and pi-periodic."""
        w = lo + (hi - lo) * np.sin(theta) ** 2
        r = SQRT2 / np.sqrt(npoly.polyval(w, G))
        return (2.0 * w * r, fn(w * w)) if square else (r, fn(w))

    m = THETA_NODES
    hv, gv = nodes(np.arange(m + 1) * (np.pi / (2 * m)))

    def coefficients(k_max: int):
        nonlocal m, hv, gv
        # k = B a + b: e^{i k phase} = e^{i B a phase} e^{i b phase}, so the
        # sums for every k are one product of an (a x nodes) and a
        # (nodes x b) matrix
        B = int(np.ceil(np.sqrt(k_max + 1)))
        low, high = np.arange(B), B * np.arange((k_max + B) // B)
        block = max(1, QUAD_BUDGET // (len(low) + len(high)))     # nodes per block

        def sums(hv, gv):
            """(g_k, total energy, T) from h and g at theta_j, j = 0..m."""
            m = len(hv) - 1
            wh = hv.copy()
            wh[[0, -1]] *= 0.5                       # trapezoid weights on [0, pi/2]
            norm = wh.sum()                          # m * mean of h over [0, pi)
            T = np.pi * norm / m
            H = np.fft.rfft(np.concatenate([hv, hv[-2:0:-1]]))     # h on [0, pi)
            H[1:m] /= 2j * np.arange(1, m)
            # the mean gives the linear part T theta/pi; the Nyquist mode's
            # antiderivative vanishes on the nodes
            H[0] = H[m] = 0.0
            Z = np.fft.irfft(H, 2 * m)[:m + 1] + (T / (2 * m)) * np.arange(m + 1)
            phase = (2.0 * np.pi / T) * Z
            wg = wh * gv
            acc = np.zeros((len(high), len(low)))
            for s in range(0, m + 1, block):
                p = phase[s:s + block]
                acc += ((np.exp(1j * np.outer(high, p)) * wg[s:s + block])
                        @ np.exp(1j * np.outer(low, p)).T).real
            return acc.ravel()[:k_max + 1] / norm, float(wg @ gv) / norm, T

        prev = sums(hv[::2], gv[::2])
        while True:
            gk, total, T = cur = sums(hv, gv)
            if (np.max(np.abs(gk - prev[0])) <= THETA_TOL * np.max(np.abs(gk))
                    and abs(total - prev[1]) <= THETA_TOL * total):
                break
            if m >= QUAD_MAX_NODES:
                raise ResolutionError(f"theta-node Fourier sums not converged at {m} intervals")
            at, mid = np.arange(1, m + 1), nodes((np.arange(m) + 0.5) * (np.pi / (2 * m)))
            hv, gv = (np.insert(old, at, new) for old, new in zip((hv, gv), mid))
            m, prev = 2 * m, cur
        z0 = profile.params.z0
        return (gk * np.exp(-2j * np.pi * np.arange(k_max + 1) * z0 / T) if z0 else gk), total

    return coefficients


def resolve_profile(spec: EquationSpec, params: WaveParams, branch: int = 0) -> WaveProfile:
    """The wave's moment table, zeta_moments to the Picard-Fuchs moment
    demand (raising its errors), which gives the period T.  The returned
    profile's evaluator is the Fourier series of u itself,

        u(z) = Re(2 sum_{k=0}^{K} u_k e^{2 pi i k z/T} - u_0),

    with u_k = fourier_coefficients(profile, identity, K) summed on the
    theta nodes when the evaluator is first called, and cached.  K starts
    at QUAD_NODES and doubles while the top half of the kept modes holds a
    |u_k| above THETA_TOL * max |u_k|; past QUAD_MAX_NODES it raises
    ResolutionError.  All the K share one set of theta nodes (_theta_sums),
    so each doubling resumes the node refinement where the last converged.
    The series is summed by Horner's rule in e^{2 pi i z/T}, one pass over
    the points per mode.
    """
    moments = zeta_moments(spec, params, None, branch)
    series = []

    def u_series():
        coefficients, K = _theta_sums(profile, lambda u: u), QUAD_NODES
        while True:
            uk = coefficients(K)[0]
            size = np.abs(uk)
            if np.max(size[K // 2:]) <= THETA_TOL * np.max(size):
                return uk
            if K >= QUAD_MAX_NODES:
                raise ResolutionError(f"profile Fourier series not converged at {K} modes")
            K *= 2

    def evaluator(z):
        if not series:
            series.append(u_series())
        uk, T = series[0], profile.period
        scalar = np.ndim(z) == 0
        x = np.exp((2j * np.pi / T) * np.mod(np.atleast_1d(np.asarray(z, dtype=float)), T))
        u = 2.0 * npoly.polyval(x, uk).real - uk[0].real
        return float(u[0]) if scalar else u

    profile = WaveProfile(spec=spec, params=params, moments=moments, evaluator=evaluator)
    return profile


# ---------------------------------------------------------------------------
# explicit families: K(m) and cn, dn (parameter m = k^2) from scipy.special,
# imported at first use so that `import modwave` loads no scipy
# ---------------------------------------------------------------------------

def _cnoidal_m(alpha: float, beta: float, gamma: float) -> float:
    if not gamma < beta < alpha:
        raise DomainError("need gamma < beta < alpha")
    return (alpha - beta) / (alpha - gamma)


def cnoidal_eval(alpha: float, beta: float, gamma: float, z0: float, z):
    """KdV cnoidal wave  u = beta + (alpha-beta) cn^2(sqrt((alpha-gamma)/12)(z+z0); m),
    m = (alpha-beta)/(alpha-gamma); solves u_z^2 = (alpha-u)(u-beta)(u-gamma)/3.
    Crest u = alpha at z = -z0; period 4 sqrt(3) K(m)/sqrt(alpha-gamma)."""
    from scipy.special import ellipj
    m = _cnoidal_m(alpha, beta, gamma)
    nu = np.sqrt((alpha - gamma) / 12.0)
    cn = ellipj(nu * (np.asarray(z, float) + z0), m)[1]
    return beta + (alpha - beta) * cn ** 2


def cnoidal_period(alpha: float, beta: float, gamma: float) -> float:
    from scipy.special import ellipk
    m = _cnoidal_m(alpha, beta, gamma)
    return 4.0 * np.sqrt(3.0) * ellipk(m) / np.sqrt(alpha - gamma)


def _dnoidal_k2sq_m(E: float, c: float):
    """k2^2 and the parameter m = 1 - k1^2/k2^2 of the dnoidal wave."""
    disc = c * c + 4.0 * E / 3.0
    if not (c < 0.0 and E < 0.0 and disc > 0.0):
        raise DomainError("dnoidal branch needs c < 0, E < 0, c^2 + 4E/3 > 0")
    k1sq = -3.0 * (c + np.sqrt(disc))
    k2sq = -3.0 * (c - np.sqrt(disc))
    return k2sq, 1.0 - k1sq / k2sq


def dnoidal_eval(E: float, c: float, z):
    """Focusing-mKdV dnoidal wave (a = 0, c < 0, E < 0):

        u = k2 dn(k2 z / sqrt(6); k),   k^2 = 1 - k1^2/k2^2,
        k1^2, k2^2 = -3(c +- sqrt(c^2 + 4E/3)),

    solving u_z^2 = 2E - c u^2 - u^4/6."""
    from scipy.special import ellipj
    k2sq, m = _dnoidal_k2sq_m(E, c)
    k2 = np.sqrt(k2sq)
    return k2 * ellipj(k2 * np.asarray(z, float) / np.sqrt(6.0), m)[2]


def dnoidal_period(E: float, c: float) -> float:
    from scipy.special import ellipk
    k2sq, m = _dnoidal_k2sq_m(E, c)
    return 2.0 * ellipk(m) * np.sqrt(6.0) / np.sqrt(k2sq)
