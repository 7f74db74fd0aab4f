"""Equation specifications, effective potential, admissible-parameter classification.

The traveling-wave reduction of  u_t = u_xxx + f(u)_x  (or its nonlocal
analogue) is  (1/2) u_z^2 = E - V(u; a, c)  with effective potential

    V(u; a, c) = F(u) + (c/2) u^2 - a u,      F' = f, F(0) = 0.

Periodic waves correspond to oscillation intervals [u-, u+] on which the
potential polynomial P(u) = E - V(u) is positive with simple roots at the
endpoints.  Two kinds of equation are specified here: "local-polynomial"
(f a polynomial: KdV, mKdV, custom) and "local-power" (the Schamel law
f = 5/2 |u|^{3/2}), which u = v^2 reduces to polynomial form; the module
then stores and classifies the v-side quintic.  Nonlocal dispersion
(Benjamin-Ono, Whitham, fKdV, ILW) is not an EquationSpec: it is a
DispersionSymbol of the small-amplitude and Bloch modules.

WaveParams may carry 1-D arrays of (a, E, c): a batch of waves of one
equation.  potential_polynomial and classify_parameters then work on all
rows at once (roots from stacked companion matrices), and a row that
fails is recorded in the result's ``failures`` instead of raising.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateRoots, DomainError, flag_rows

TOL_ROOT = 1e-9          # realness/multiplicity decisions, relative to coeff norm
SCHAMEL_EXPONENT = 1.5   # f(u) = power_coeff * |u|^SCHAMEL_EXPONENT


@dataclass(frozen=True)
class EquationSpec:
    """Which dispersive equation is being analyzed.

    kind is "local-polynomial" or "local-power".  For local-polynomial
    equations ``f_coeffs`` are the ascending coefficients of f.  The power
    law is ``f(u) = power_coeff * |u|^{3/2}`` (Schamel: 5/2 |u|^{3/2});
    its profiles are positive and handled through u = v^2.
    """

    kind: str
    name: str = ""
    f_coeffs: tuple = ()
    power_coeff: float = 2.5

    def __post_init__(self):
        if self.kind not in ("local-polynomial", "local-power"):
            raise DomainError(f"unknown equation kind {self.kind!r}")
        if self.kind == "local-polynomial":
            if len(self.f_coeffs) < 2 or self.f_coeffs[-1] == 0:
                raise DomainError("polynomial nonlinearity must have degree >= 1")

    def F_coeffs(self) -> np.ndarray:
        """Ascending coefficients of the antiderivative F (F(0)=0)."""
        if self.kind != "local-polynomial":
            raise DomainError("F is polynomial only for local-polynomial specs")
        f = np.asarray(self.f_coeffs, dtype=float)
        return np.concatenate([[0.0], f / np.arange(1, len(f) + 1)])

    def fprime(self) -> Callable[[np.ndarray], np.ndarray]:
        """f'(u) as a callable (used by the Bloch assembler)."""
        if self.kind == "local-polynomial":
            der = npoly.polyder(np.asarray(self.f_coeffs, dtype=float))
            return lambda u: npoly.polyval(np.asarray(u, dtype=float), der)
        p, s = SCHAMEL_EXPONENT, self.power_coeff
        return lambda u: s * p * np.asarray(u, dtype=float) ** (p - 1.0)


def kdv_spec() -> EquationSpec:
    """Canonical KdV, f(u) = u^2/2."""
    return EquationSpec("local-polynomial", name="kdv", f_coeffs=(0.0, 0.0, 0.5))


def mkdv_spec(sign: int = +1) -> EquationSpec:
    """Modified KdV, f(u) = sign*u^3/3; sign=+1 focusing, -1 defocusing."""
    if sign not in (+1, -1):
        raise DomainError("mKdV sign must be +1 or -1")
    name = "mkdv-focusing" if sign > 0 else "mkdv-defocusing"
    return EquationSpec("local-polynomial", name=name,
                        f_coeffs=(0.0, 0.0, 0.0, sign * (1.0 / 3.0)))


def schamel_spec() -> EquationSpec:
    """Schamel equation, f(u) = 5/2 |u|^{3/2} on positive profiles."""
    return EquationSpec("local-power", name="schamel")


@dataclass(frozen=True)
class WaveParams:
    """ODE parameters of the profile equation: integration constant a,
    energy E, speed c, translation z0."""

    a: float
    E: float
    c: float
    z0: float = 0.0

    @property
    def is_batch(self) -> bool:
        return any(x.ndim > 0 if isinstance(x, np.ndarray) else
                   not isinstance(x, (float, int)) and np.ndim(x) > 0
                   for x in (self.a, self.E, self.c))

    def as_batch(self) -> "WaveParams":
        """The same waves with (a, E, c) as equal-length 1-D float arrays."""
        a, E, c = abc = (self.a, self.E, self.c)
        if (type(a) is type(E) is type(c) is np.ndarray and a.ndim == 1
                and a.shape == E.shape == c.shape and a.dtype == E.dtype == c.dtype == float):
            return self
        if not self.is_batch:
            return WaveParams(np.array([a], float), np.array([E], float),
                              np.array([c], float), self.z0)
        a, E, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in abc))
        if a.ndim != 1:
            raise DomainError("a batch of wave parameters must be one-dimensional")
        return WaveParams(a, E, c, self.z0)


@dataclass(frozen=True)
class PotentialPolynomial:
    """P(w) = E - V in the integration variable w (w = u, or w = v = sqrt(u)
    for Schamel).  For a batch of waves ``coeffs`` is a (B, degree + 1)
    array, one row per wave."""

    coeffs: tuple                 # ascending; (B, degree + 1) array for a batch
    var: str                      # "u" or "v"
    tmp_indices: tuple = (0, 1, 2)
    grad_offsets: tuple = (1, 0, 2)   # moment-index offsets for d/da, d/dE, d/dc

    @property
    def degree(self) -> int:
        return np.shape(self.coeffs)[-1] - 1

    @property
    def moment_demand(self) -> int:
        """Highest zeta index the Picard-Fuchs Jacobian reads: zeta_{n-2} for
        the rhs, (T, M, P) at tmp_indices, zeta_{i2+dc-n} for extension rows."""
        n, i2, dc = self.degree, self.tmp_indices[2], self.grad_offsets[2]
        return max(n - 2, i2, i2 + dc - n)

    def __call__(self, w):
        return polyval(self.coeffs, w)

    def derivative_coeffs(self) -> np.ndarray:
        return npoly.polyder(np.asarray(self.coeffs))

    @property
    def coeff_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def row(self, i: int) -> "PotentialPolynomial":
        return replace(self, coeffs=tuple(np.asarray(self.coeffs)[i].tolist()))


def polyval(coeffs, x):
    """Ascending coefficients along the last axis of ``coeffs``, evaluated
    at x by Horner's rule in numpy.polynomial.polyval's operation order.
    Leading axes of coeffs (one per wave) pair with the leading axes of x;
    trailing axes of x are evaluation points."""
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    c = c.reshape(c.shape[:-1] + (1,) * (x.ndim - c.ndim + 1) + c.shape[-1:])
    c0 = c[..., -1] + x * 0
    for i in range(2, c.shape[-1] + 1):
        c0 = c[..., -i] + c0 * x
    return c0


def companion_roots(coeffs) -> np.ndarray:
    """All roots of each row of ascending coefficients (B, n + 1), built as
    numpy.roots builds them: eigenvalues of the companion matrix of the
    trimmed polynomial, stacked over rows with equal trimming, then one
    exact zero per vanishing low-order coefficient.  The leading
    coefficient must be nonzero.  Returns (B, n) complex roots."""
    c = np.asarray(coeffs, dtype=float)
    if c[:, 0].all():                           # no root at exactly zero
        return _companion_eigvals(c)
    n_zero = np.argmax(c != 0.0, axis=1)
    out = np.zeros((c.shape[0], c.shape[1] - 1), dtype=complex)
    for z in np.unique(n_zero):
        rows = np.flatnonzero(n_zero == z)
        out[rows, :c.shape[1] - 1 - z] = _companion_eigvals(c[rows, z:])
    return out


def _companion_eigvals(c) -> np.ndarray:
    """Eigenvalues of the companion matrices of the rows of c (ascending,
    nonzero constant and leading coefficients), as numpy.roots builds them."""
    B, m = c.shape[0], c.shape[1] - 1
    if m == 0:
        return np.zeros((B, 0), dtype=complex)
    A = np.zeros((B, m, m))
    A[:, 1:, :-1] = np.eye(m - 1)
    A[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
    return np.linalg.eigvals(A).astype(complex, copy=False)


def _root_structure(coeffs):
    """Per row of (B, n + 1) ascending coefficients: the real roots ascending
    (nan-padded to n; the others are complex-conjugate pairs) and whether
    two real roots coincide to tolerance."""
    c = np.asarray(coeffs, dtype=float)
    tol = TOL_ROOT * (1.0 + np.abs(c).max(axis=1, keepdims=True))
    r = companion_roots(c)
    real = np.sort(np.where(np.abs(r.imag) < tol, r.real, np.nan), axis=1)
    repeated = (real[:, 1:] - real[:, :-1] < tol).any(axis=1)    # nan pads compare False
    return real, repeated


def effective_potential(spec: EquationSpec, a: float, c: float, u) -> float:
    """V(u; a, c) = F(u) + (c/2) u^2 - a u."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "local-polynomial":
        F = npoly.polyval(u, spec.F_coeffs())
    else:
        p1 = SCHAMEL_EXPONENT + 1.0
        F = spec.power_coeff / p1 * np.abs(u) ** p1
    out = F + 0.5 * c * u ** 2 - a * u
    return float(out) if out.ndim == 0 else out


def potential_polynomial(spec: EquationSpec, params: WaveParams) -> PotentialPolynomial:
    """P = E - V as a polynomial, in u for polynomial f, in v for Schamel;
    a batch of parameters gives one coefficient row per wave."""
    batch = params.is_batch
    if batch:
        params = params.as_batch()
    a, E, c = params.a, params.E, params.c
    if spec.kind == "local-polynomial":
        F = spec.F_coeffs()
        coeffs = np.empty(np.shape(a) + F.shape)
        coeffs[...] = -F
        coeffs[..., 0] += E
        coeffs[..., 1] += a
        coeffs[..., 2] -= 0.5 * c
        return PotentialPolynomial(coeffs if batch else tuple(coeffs), var="u")
    # u = v^2:  P_v(v) = E + a v^2 - (c/2) v^4 - (coeff*2/5) v^5
    lead = spec.power_coeff * 2.0 / 5.0
    coeffs = (E, 0.0, a, 0.0, -0.5 * c, -lead)
    if batch:
        coeffs = np.stack([np.broadcast_to(x, a.shape) for x in coeffs], axis=-1)
    return PotentialPolynomial(coeffs, var="v", tmp_indices=(1, 3, 5), grad_offsets=(2, 0, 4))


def potential_roots(poly: PotentialPolynomial):
    """Real roots of P ascending + count of complex-conjugate pairs.

    Root finding is companion-matrix based (as numpy.roots).  A root is real
    if |Im| < TOL_ROOT * (1 + coeff norm); two roots closer than that are a
    repeated root and raise DegenerateRoots (parameters on the variety).
    """
    if poly.degree < 2:
        raise DomainError("potential polynomial must have degree >= 2")
    real, repeated = _root_structure(np.asarray(poly.coeffs, float)[None])
    real = real[0][~np.isnan(real[0])]
    if repeated[0]:
        raise DegenerateRoots("repeated real root of E - V", roots=real)
    return real, (poly.degree - len(real)) // 2


def sylvester_matrix(coeffs) -> np.ndarray:
    """Sylvester matrix of (P, P') for the degree-n polynomials whose
    ascending coefficients run along the last axis of coeffs: n - 1 band
    rows of P's coefficients, then n band rows of P' = (a1, 2 a2, ..., n an),
    each row shifted one column right of the one above.  Leading axes (one
    per polynomial) give a (..., 2n - 1, 2n - 1) stack."""
    a = np.asarray(coeffs, dtype=float)
    n = a.shape[-1] - 1
    S = np.zeros(a.shape[:-1] + (2 * n - 1, 2 * n - 1))
    for i in range(n - 1):
        S[..., i, i:i + n + 1] = a
    da = a[..., 1:] * np.arange(1, n + 1)
    for i in range(n):
        S[..., n - 1 + i, i:i + n] = da
    return S


def discriminant(poly: PotentialPolynomial) -> float:
    """Polynomial discriminant of P: (-1)^{n(n-1)/2} Res(P, P') / a_n, the
    resultant being the determinant of the Sylvester matrix."""
    p = np.asarray(poly.coeffs, dtype=float)
    n = poly.degree
    return (-1.0) ** (n * (n - 1) // 2) * float(np.linalg.det(sylvester_matrix(p))) / p[-1]


@dataclass(frozen=True)
class Classification:
    """Outcome of classify_parameters.  status is "periodic", "on-gamma",
    or "no-bounded-orbit".  For periodic orbits, (w_minus, w_plus) is the
    oscillation interval in the integration variable and (u_minus, u_plus)
    the physical one; ``intervals`` lists all coexisting branches.  ``poly``
    is the potential polynomial the roots came from, which the later layers
    read instead of building it again.

    For a batch every field but ``branch`` is an array with one entry per
    wave (``intervals`` is (B, pairs, 2), nan where an adjacent root pair
    bounds no orbit; ``poly`` has one coefficient row per wave), and
    ``failures`` maps a row to the error a single call would raise for it
    (a branch index out of range)."""

    status: str
    poly: PotentialPolynomial
    w_minus: float = np.nan
    w_plus: float = np.nan
    u_minus: float = np.nan
    u_plus: float = np.nan
    intervals: tuple = ()
    branch: int = 0
    failures: dict = field(default_factory=dict)

    @property
    def is_periodic(self) -> bool:
        return self.status == "periodic"

    def row(self, i: int) -> "Classification":
        """Row i of a batch as a single classification (raises its failure)."""
        if i in self.failures:
            raise self.failures[i]
        return Classification(
            status=str(self.status[i]), w_minus=float(self.w_minus[i]),
            w_plus=float(self.w_plus[i]), u_minus=float(self.u_minus[i]),
            u_plus=float(self.u_plus[i]),
            intervals=tuple((lo, hi) for lo, hi in self.intervals[i].tolist()
                            if not np.isnan(lo)),
            branch=self.branch, poly=self.poly.row(i))


STATUS = np.array(["periodic", "on-gamma", "no-bounded-orbit"])


def classify_parameters(spec: EquationSpec, params: WaveParams,
                        branch: int = 0) -> Classification:
    """Decide whether (a, E, c) supports a periodic orbit.

    Periodic intervals are adjacent pairs of simple real roots with P > 0
    between them, ordered by left endpoint; ``branch`` selects among
    coexisting families (focusing mKdV has two).  Repeated roots classify
    as on-gamma, no positivity interval as no-bounded-orbit.  Non-finite
    parameters are a DomainError (in a batch, a row of ``failures``).  A
    batch of parameters gives a batch Classification.
    """
    batch = params.as_batch()
    poly = potential_polynomial(spec, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        # the companion matrices hold the coefficients over the leading one
        finite = np.isfinite(poly.coeffs / poly.coeffs[:, -1:]).all(axis=1)
    # a non-finite row is solved as 1 + w + ... + w^n (simple roots) and has no orbit
    coeffs = np.where(finite[:, None], poly.coeffs, 1.0)
    real, repeated = _root_structure(coeffs)
    lo, hi = real[:, :-1], real[:, 1:]           # adjacent roots; nan past the real ones
    valid = (polyval(coeffs, 0.5 * (lo + hi)) > 0.0) & ~repeated[:, None] & finite[:, None]
    if poly.var == "v":
        valid &= lo > 0.0          # Schamel profiles must stay positive
    count = valid.sum(axis=1)                    # 0 on a repeated root
    status = STATUS[np.where(repeated, 1, np.where(count == 0, 2, 0))]
    chosen = (0 <= branch) & (branch < count)
    failures = {}
    flag_rows(failures, ~finite, lambda i: DomainError(
        "non-finite wave parameters or potential coefficients"))
    flag_rows(failures, (count > 0) & ~chosen,
              lambda i: DomainError(f"branch {branch} out of range; {count[i]} interval(s)"))
    pick = np.arange(len(count)), np.argmax(np.cumsum(valid, axis=1) == branch + 1, axis=1)
    w_lo = np.where(chosen, lo[pick], np.nan)
    w_hi = np.where(chosen, hi[pick], np.nan)
    square = poly.var == "v"
    out = Classification(
        status=status, w_minus=w_lo, w_plus=w_hi,
        u_minus=w_lo * w_lo if square else w_lo,
        u_plus=w_hi * w_hi if square else w_hi,
        intervals=np.where(valid[..., None], np.stack([lo, hi], axis=-1), np.nan),
        branch=branch, failures=failures, poly=poly)
    return out if params.is_batch else out.row(0)


def kdv_params_from_roots(alpha: float, beta: float, gamma: float) -> WaveParams:
    """(alpha, beta, gamma) -> (a, E, c) for canonical KdV (f = u^2/2).

    Re-derived under the V = F + (c/2)u^2 - au convention so that E - V =
    -(u-alpha)(u-beta)(u-gamma)/6 exactly:

        E = abg/6,  a = -(ab+ag+bg)/6,  c = -(a+b+g)/3.

    The c-component differs in sign from the commonly printed map; the
    round trip through potential_roots is exact with this form.
    """
    if not gamma < beta < alpha:
        raise DomainError("roots must satisfy gamma < beta < alpha")
    E = alpha * beta * gamma / 6.0
    a = -(alpha * beta + alpha * gamma + beta * gamma) / 6.0
    c = -(alpha + beta + gamma) / 3.0
    return WaveParams(a=a, E=E, c=c)
