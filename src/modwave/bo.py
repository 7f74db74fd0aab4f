"""Benjamin-Ono: explicit periodic waves, closed-form conserved quantities,
the explicit effective dispersion matrix, and Galilean checks.

The explicit 2pi/k-periodic family

    u(z; a, k, c) = (k^2/r) / (s/r - cos(kz)) - (s + c)/2,
    s = sqrt(c^2 - 4a),   r = sqrt(c^2 - 4a - k^2),

exists for c < 0, k^2 < c^2 - 4a and satisfies  -Lambda u + c u + u^2 = -a
(Lambda = |D|), verified to machine precision.  The associated Bloch
operator is  L = d/dz (-Lambda + c + 2u).

Measured modulation slopes (lambda_j(xi) = i mu_j xi) for this family are

    {-sqrt(c^2 - 4a), +k, -k},

real and distinct throughout the existence region, hence modulational
stability of every wave in the family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation

QUAD_POINTS = 4096        # bo_quadrature_MP trapezoid nodes per period
GALILEAN_POINTS = 257     # bo_galilean_check grid points on [0, period]


@dataclass(frozen=True)
class BOWaveParams:
    """a: integration constant, k: wave number (period 2pi/k), c: speed."""

    a: float
    k: float
    c: float

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.a, self.k, self.c))) and self.c < 0.0
                and self.k > 0.0 and self.k ** 2 < self.c ** 2 - 4 * self.a):
            raise ConstraintViolation(f"need finite a, k, c with c < 0 and k^2 < c^2 - 4a; "
                                      f"got a={self.a}, k={self.k}, c={self.c}")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.k

    @property
    def s(self) -> float:
        return float(np.sqrt(self.c ** 2 - 4.0 * self.a))


def bo_eval(params: BOWaveParams, z):
    """Evaluate the explicit profile; 2pi/k-periodic, crest at z = 0."""
    a, k, c = params.a, params.k, params.c
    s = params.s
    r = np.sqrt(c * c - 4 * a - k * k)
    return (k * k / r) / (s / r - np.cos(k * np.asarray(z, dtype=float))) - 0.5 * (s + c)


def bo_conserved(params: BOWaveParams):
    """Closed forms M = int u dz, P = (1/2) int u^2 dz over one period, and
    {M,P}_{a,c} = 2 pi^2 / (k sqrt(c^2-4a)) > 0 on the existence region."""
    k, c, s = params.k, params.c, params.s
    M = 2.0 * np.pi - (np.pi / k) * (s + c)
    P = -c * np.pi + (np.pi / (4.0 * k)) * (s + c) ** 2
    MP_ac = 2.0 * np.pi ** 2 / (k * s)
    return M, P, MP_ac


def bo_quadrature_MP(params: BOWaveParams):
    """Trapezoid quadrature of M and P from the profile (oracle for the
    closed forms; spectrally accurate for this analytic integrand)."""
    n = QUAD_POINTS
    T = params.period
    z = np.arange(n) * T / n
    u = bo_eval(params, z)
    return float(np.sum(u) * T / n), float(0.5 * np.sum(u * u) * T / n)


def bo_dispersion_matrix(k: float, c: float):
    """The explicit effective dispersion matrix at a = 0,

        D(0,k,c) = [[-pi T, (pi T)^2 - (pi/c)^2, 0],
                    [  1,    pi T,               0],
                    [2 pi^2, 0,                  pi T]],   T = 2 pi / k,

    and its eigenvalues {pi T, +-pi T sqrt(2 - (cT)^-2)} (real and distinct
    whenever k^2 < c^2).  Returns (matrix, closed-form eigenvalues).

    Note: these eigenvalues are the printed matrix's own spectrum; the
    physical Bloch slopes are given by bo_modulation_speeds instead.
    """
    if not (c < 0.0 and k > 0.0 and k * k < c * c):
        raise ConstraintViolation("need c < 0 and k^2 < c^2 at a = 0")
    T = 2.0 * np.pi / k
    piT = np.pi * T
    D = np.array([
        [-piT, piT ** 2 - (np.pi / c) ** 2, 0.0],
        [1.0, piT, 0.0],
        [2.0 * np.pi ** 2, 0.0, piT],
    ])
    root = piT * np.sqrt(2.0 - (c * T) ** -2)
    eigs = np.sort(np.array([piT, root, -root]))
    return D, eigs


def bo_modulation_speeds(params: BOWaveParams) -> np.ndarray:
    """Slopes mu_j of the three spectral branches at the origin,
    lambda_j(xi) = i mu_j xi:  {-sqrt(c^2-4a), -k, +k}, sorted ascending.
    Real and distinct on the whole existence region."""
    return np.sort(np.array([-params.s, -params.k, params.k]))


def bo_galilean_check(params: BOWaveParams, shift: float) -> float:
    """Max-norm residual of u(z; a - c*l + l^2, k, c - 2l) - u(z; a,k,c) - l
    over a period grid (the s = lambda identification; c^2 - 4a is an
    invariant of the shift, so the residual vanishes identically)."""
    lam = shift
    shifted = BOWaveParams(a=params.a - params.c * lam + lam ** 2,
                           k=params.k, c=params.c - 2.0 * lam)
    z = np.linspace(0.0, params.period, GALILEAN_POINTS)
    return float(np.max(np.abs(bo_eval(shifted, z) - bo_eval(params, z) - lam)))
