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

from .equations import EquationSpec, PotentialPolynomial, WaveParams, sylvester_matrix
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
    COND_MAX (the 2-norm condition number, from the singular values), and
    on residual failure.  A stack of systems is solved at once, every row
    in place: rows failing here or earlier get nan moments and their first
    failure in ``system.failures`` instead of raising; the condition number
    of a row that failed earlier is nan."""
    batch = system.matrix.ndim == 3
    A = system.matrix if batch else system.matrix[None]
    rhs = system.rhs if batch else system.rhs[None]
    B, N = rhs.shape
    failures = dict(system.moments.failures) if batch else {}
    failed = np.zeros(B, dtype=bool)
    failed[list(failures)] = True
    # a failed row (whose matrix may hold non-finite entries, on which the
    # svd raises, or be singular) is taken as the identity until it is masked
    eye = np.eye(N)
    A = np.where(failed[:, None, None], eye, A)
    s = np.linalg.svd(A, compute_uv=False)
    with np.errstate(all="ignore"):              # as np.linalg.cond
        cond = s[:, 0] / s[:, -1]
    singular, ill = ~np.isfinite(cond), cond > COND_MAX
    flag_rows(failures, singular,
              lambda i: SingularSystem("Picard-Fuchs matrix is singular (repeated root)"))
    flag_rows(failures, ill, lambda i: IllConditioned(
        f"condition number {cond[i]:.3e} exceeds {COND_MAX:.1e}"))
    cond[failed] = np.nan
    failed |= singular | ill
    A[failed] = eye
    I = np.linalg.solve(A, rhs[..., None])[..., 0]
    resid = _norm(np.matmul(A, I[..., None])[..., 0] - rhs)
    loose = resid > 1e-10 * np.maximum(_norm(rhs), 1.0)
    flag_rows(failures, loose, lambda i: IllConditioned(f"residual {resid[i]:.3e} too large"))
    I[failed | loose] = np.nan
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
    on the rows listed in ``failures``: from_matrix takes J with those rows
    nan (as moment_jacobian builds it) and computes every row in place.
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
        # {T,M}_{a,E}, {T,P}_{E,c}, {M,P}_{a,E} as one stack of 2x2 minors;
        # det passes the nan rows of failed waves through
        with np.errstate(invalid="ignore"):
            minors = np.linalg.det(J[:, _MINOR_ROWS, _MINOR_COLS])
            TMP = np.linalg.det(J)
        return cls(J=J, T=T, M=M, P=P, T_E=J[:, 0, 1], TM_aE=minors[:, 0],
                   TMP_aEc=-TMP, TP_Ec=-minors[:, 1], MP_aE=minors[:, 2],
                   cond=cond, failures=failures or {})

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
    system = build_system(poly, moments)
    I = solve_moments(system, extend_to=poly.tmp_indices[2] + poly.grad_offsets[2])
    # J[row, col] = (-1/2, -1/2, +1/4)[col] * I_{k_row + (da, 0, dc)[col]}
    J = I[..., np.add.outer(poly.tmp_indices, poly.grad_offsets)] * (-0.5, -0.5, 0.25)
    T, M, P = moments.tmp
    return ParamJacobian.from_matrix(J, T, M, P, cond=system.cond, failures=system.failures)


def param_jacobian(spec: EquationSpec, params: WaveParams, branch: int = 0) -> ParamJacobian:
    """Full pipeline: moments (zeta_moments, to the equation's moment
    demand) -> moment_jacobian.  A batch of parameters gives a batch
    ParamJacobian."""
    out = moment_jacobian(zeta_moments(spec, params.as_batch(), None, branch))
    return out if params.is_batch else out.row(0)
