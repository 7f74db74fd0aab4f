"""Picard-Fuchs linear system and the parameter Jacobian of (T, M, P).

For a degree-n potential polynomial P(w) = a0 + a1 w + ... + an w^n with
only simple roots, the 2n-1 singular moments

    I_k = oint mu(w) w^k / (2 P)^{3/2} dw      (regularized loop integrals,
                                                scaled so the system below
                                                closes; mu is the moment
                                                measure weight)

satisfy a linear system whose matrix is the Sylvester matrix of (P, P'):
n-1 band rows of P-coefficients with right side zeta_m, and n band rows of
P'-coefficients with right side 2m zeta_{m-1} (zero for m = 0).  Solving
it expresses every I_k through the n-1 regular moments, which is what
makes the instability index explicitly computable.

Derivatives of the regular moments follow from differentiating under the
(regularized) integral sign; with V = F + (c/2)w_u^2 - a w_u the
oracle-verified map is

    d zeta_k / dE = -I_k / 2
    d zeta_k / da = -I_{k+da} / 2     da = 1 (u-side), 2 (v-side)
    d zeta_k / dc = +I_{k+dc} / 4     dc = 2 (u-side), 4 (v-side)

For the Schamel quintic the c-derivative needs I_9, one index beyond the
square system; it is produced by extending the integration-by-parts
recurrence one more row.

moment_jacobian reads a MomentTable to the polynomial's moment_demand (a
resolved profile holds one); param_jacobian is zeta_moments followed by it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equations import (EquationSpec, PotentialPolynomial, WaveParams, potential_polynomial,
                        sylvester_matrix)
from .errors import IllConditioned, SingularSystem, flag_rows
from .waves import MomentTable, zeta_moments

COND_MAX = 1e12
# rows and columns of J in the minors {T,M}_{a,E}, {T,P}_{E,c}, {M,P}_{a,E}
_MINOR_ROWS = np.array([[0, 1], [0, 2], [1, 2]])[:, :, None]
_MINOR_COLS = np.array([[0, 1], [1, 2], [0, 1]])[:, None, :]


@dataclass
class PicardFuchsSystem:
    """The Picard-Fuchs system of one wave, or a stack of them (matrix
    (B, N, N), rhs (B, N)) whose row failures collect in ``failures``."""

    matrix: np.ndarray          # (2n-1) x (2n-1) Sylvester matrix of (P, P')
    rhs: np.ndarray
    poly: PotentialPolynomial
    moments: MomentTable
    cond: float = np.nan
    failures: dict = field(default_factory=dict)


def build_system(poly: PotentialPolynomial, moments: MomentTable) -> PicardFuchsSystem:
    """Assemble the (2n-1)-square system: the Sylvester matrix of (P, P'),
    whose n-1 shifted rows of P-coefficients take rhs (zeta_0..zeta_{n-2})
    and whose n shifted rows of P'-coefficients take rhs
    (0, 2 zeta_0, ..., 2(n-1) zeta_{n-2}).  Batch tables give a stack of
    systems."""
    zeta = np.asarray(moments.zeta)
    n = poly.degree
    if n < 3:
        raise ValueError("Picard-Fuchs machinery needs degree >= 3")
    if zeta.shape[-1] < n - 1:
        raise ValueError(f"need zeta_0..zeta_{n-2}")
    A = sylvester_matrix(poly.coeffs)
    rhs = np.zeros(A.shape[:-1])
    rhs[..., :n - 1] = zeta[..., :n - 1]
    rhs[..., n:] = 2.0 * np.arange(1, n) * zeta[..., :n - 1]
    return PicardFuchsSystem(matrix=A, rhs=rhs, poly=poly, moments=moments)


def _norm(x):
    """Euclidean norms of the rows of x through BLAS (stacked matmul), which
    gives each row the value np.linalg.norm gives it alone."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def solve_moments(system: PicardFuchsSystem, extend_to: int = None) -> np.ndarray:
    """LU solve (partial pivoting) for I_0..I_{2n-2}, optionally extended to
    I_{extend_to} by further integration-by-parts rows

        sum_j j a_j I_{j+m-1} = 2 m zeta_{m-1},   m = n, n+1, ...

    Raises SingularSystem on a repeated root of P, IllConditioned above
    COND_MAX, and on residual failure.  A stack of systems is solved at
    once: rows failing here or earlier get nan moments and an entry in
    ``system.failures`` instead of raising."""
    batch = system.matrix.ndim == 3
    A = system.matrix if batch else system.matrix[None]
    rhs = system.rhs if batch else system.rhs[None]
    B, N = rhs.shape
    failures = dict(system.moments.failures) if batch else {}
    ok = np.ones(B, dtype=bool)
    ok[list(failures)] = False
    cond = np.full(B, np.nan)
    cond[ok] = np.linalg.cond(A[ok])
    flag_rows(failures, ok & ~np.isfinite(cond),
              lambda i: SingularSystem("Picard-Fuchs matrix is singular (repeated root)"))
    flag_rows(failures, ok & (cond > COND_MAX), lambda i: IllConditioned(
        f"condition number {cond[i]:.3e} exceeds {COND_MAX:.1e}"))
    ok[list(failures)] = False
    rows = np.flatnonzero(ok)
    I = np.full((B, N), np.nan)
    try:
        I[rows] = np.linalg.solve(A[rows], rhs[rows][..., None])[..., 0]
    except np.linalg.LinAlgError:             # pragma: no cover - cond check above
        for i in rows:
            try:
                I[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                failures[int(i)] = SingularSystem(str(exc))
    resid = _norm(np.matmul(A[rows], I[rows, :, None])[..., 0] - rhs[rows])
    flag_rows(failures, resid > 1e-10 * np.maximum(_norm(rhs[rows]), 1.0),
              lambda k: IllConditioned(f"residual {resid[k]:.3e} too large"), rows)
    I[list(failures)] = np.nan
    n = system.poly.degree
    if extend_to is not None and extend_to > 2 * n - 2:
        a = np.asarray(system.poly.coeffs, dtype=float).reshape(B, n + 1)
        zeta = np.asarray(system.moments.zeta).reshape(B, -1)
        I = np.concatenate([I, np.zeros((B, extend_to - (2 * n - 2)))], axis=1)
        for m in range(n, extend_to - n + 2):
            if m - 1 >= zeta.shape[1]:
                raise ValueError(f"extension to I_{extend_to} needs zeta_{m-1}")
            acc = 2.0 * m * zeta[:, m - 1]
            for j in range(1, n):
                acc = acc - j * a[:, j] * I[:, j + m - 1]
            I[:, n + m - 1] = acc / (n * a[:, n])
    if not batch:
        if failures:
            raise failures[0]
        I, cond = I[0], float(cond[0])
    system.cond = cond
    system.failures = failures
    return I


@dataclass
class ParamJacobian:
    """All nine partials of (T, M, P) with respect to (a, E, c) and the named
    bracket determinants.  Rows of J are (T, M, P), columns (a, E, c).

    The two brackets involving the c column ({T,P}_{E,c} and
    {T,M,P}_{a,E,c}) are reported in the orientation of the classical
    index formulas (the c column negated relative to the raw J), so that
    {T,M,P}_{a,E,c} > 0 for KdV waves and Delta_MI takes its standard
    form verbatim; the raw matrix J is untouched, so finite-difference
    oracles compare against J entrywise.

    For a batch every field is an array over waves (J is (B, 3, 3)), nan
    on the rows listed in ``failures``.
    """

    J: np.ndarray
    T: float
    M: float
    P: float
    T_E: float
    TM_aE: float
    TMP_aEc: float
    TP_Ec: float
    MP_aE: float
    cond: float
    failures: dict = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, J: np.ndarray, T: float, M: float, P: float,
                    cond: float = np.nan, failures: dict = None) -> "ParamJacobian":
        if J.ndim == 2:
            return cls.from_matrix(J[None], np.atleast_1d(T), np.atleast_1d(M),
                                   np.atleast_1d(P), np.atleast_1d(cond)).row(0)
        failures = failures or {}
        ok = np.ones(len(J), dtype=bool)
        ok[list(failures)] = False
        # {T,M}_{a,E}, {T,P}_{E,c}, {M,P}_{a,E} as one stack of 2x2 minors
        minors = np.full((len(J), 3), np.nan)
        minors[ok] = np.linalg.det(J[ok][:, _MINOR_ROWS, _MINOR_COLS])
        TMP = np.full(len(J), np.nan)
        TMP[ok] = np.linalg.det(J[ok])
        return cls(J=J, T=T, M=M, P=P, T_E=J[:, 0, 1], TM_aE=minors[:, 0],
                   TMP_aEc=-TMP, TP_Ec=-minors[:, 1], MP_aE=minors[:, 2],
                   cond=cond, failures=failures)

    def row(self, i: int) -> "ParamJacobian":
        """Row i of a batch as a single Jacobian (raises its failure)."""
        if i in self.failures:
            raise self.failures[i]
        return ParamJacobian(J=self.J[i], **{
            name: float(getattr(self, name)[i])
            for name in ("T", "M", "P", "T_E", "TM_aE", "TMP_aEc", "TP_Ec", "MP_aE", "cond")})


def moment_jacobian(moments: MomentTable) -> ParamJacobian:
    """Picard-Fuchs solve -> gradient map -> brackets for a table of
    zeta_0..zeta_{poly.moment_demand}: a one-wave table gives one
    ParamJacobian, a batch table a batch one.  The table is not changed."""
    poly = moments.poly
    da, _, dc = poly.grad_offsets
    system = build_system(poly, moments)
    I = solve_moments(system, extend_to=poly.tmp_indices[2] + dc)
    J = np.zeros(I.shape[:-1] + (3, 3))
    for row, k in enumerate(poly.tmp_indices):
        J[..., row, 0] = -I[..., k + da] / 2.0
        J[..., row, 1] = -I[..., k] / 2.0
        J[..., row, 2] = +I[..., k + dc] / 4.0
    T, M, P = moments.tmp
    return ParamJacobian.from_matrix(J, T, M, P, cond=system.cond, failures=system.failures)


def param_jacobian(spec: EquationSpec, params: WaveParams, branch: int = 0,
                   tol_quad: float = None) -> ParamJacobian:
    """Full pipeline: moments (zeta_moments, to the equation's moment
    demand) -> moment_jacobian.  A batch of parameters gives a batch
    ParamJacobian."""
    kw = {} if tol_quad is None else {"tol_quad": tol_quad}
    demand = potential_polynomial(spec, WaveParams(0.0, 0.0, 0.0)).moment_demand
    out = moment_jacobian(zeta_moments(spec, params.as_batch(), demand, branch, **kw))
    return out if params.is_batch else out.row(0)
