"""Modulational-instability index, effective dispersion cubic, and the
per-equation closed-form classifiers.

With S := {T,P}_{E,c} + 2{M,P}_{a,E} and D := {T,M,P}_{a,E,c} (brackets
as reported by ParamJacobian, whose c-column orientation was fixed
against the mKdV root-structure dichotomy and direct Floquet-Bloch
spectra),

    Delta_MI = S^3/2 - (27/4) D^2,
    D(nu)    = -nu^3 + (S/2) nu - D/2.

Delta_MI is the discriminant of the depressed cubic: three distinct real
roots iff Delta_MI > 0 (modulational stability), one real root and a
complex-conjugate pair iff Delta_MI < 0 (instability).  The physical
Bloch-branch slopes lambda_j(xi) = i mu_j xi recover from the roots as
mu_j = -T/nu_j (measured law, regression tested against the Bloch
eigensolver).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import fingerprint
from .equations import (EquationSpec, WaveParams, companion_roots, discriminant,
                        mkdv_spec, potential_polynomial, potential_roots)
from .errors import DegenerateDiscriminant, DegenerateRoots, HypothesisFailed, flag_rows
from .picard_fuchs import ParamJacobian, param_jacobian

TOL_HYP = 1e-10
TOL_DISC = 1e-10         # mkdv_root_classifier: degenerate below this scaled discriminant
HYPOTHESES = ("T_E", "TM_aE", "TMP_aEc")


def _index_parts(J: ParamJacobian):
    S = J.TP_Ec + 2.0 * J.MP_aE
    D = J.TMP_aEc
    return S, D


def _index(S, D):
    """Delta_MI and the depressed-cubic roots sorted by (Re, Im) for arrays
    S, D: the roots of -D/2 + (S/2) nu - nu^3 as numpy.roots finds them
    (companion_roots)."""
    S, D = np.atleast_1d(S), np.atleast_1d(D)
    coeffs = np.empty((len(S), 4))
    coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3] = -0.5 * D, 0.5 * S, 0.0, -1.0
    return 0.5 * S ** 3 - 6.75 * D ** 2, np.sort_complex(companion_roots(coeffs))


def _hypothesis_failures(J: ParamJacobian) -> dict:
    """{row: HypothesisFailed} where T_E, {T,M}_{a,E} or {T,M,P}_{a,E,c}
    (the first in that order) vanishes to tolerance."""
    vals = np.array([getattr(J, name) for name in HYPOTHESES]).reshape(len(HYPOTHESES), -1).T
    small = np.abs(vals) < TOL_HYP
    first = np.argmax(small, axis=-1)
    out = {}
    flag_rows(out, small.any(axis=-1), lambda i: HypothesisFailed(
        f"{HYPOTHESES[first[i]]} = {vals[i, first[i]]:.3e} within tol_hyp of zero"))
    return out


def check_hypotheses(J: ParamJacobian) -> dict:
    """Nondegeneracy flags; raises HypothesisFailed when any of T_E,
    {T,M}_{a,E}, {T,M,P}_{a,E,c} is below TOL_HYP in magnitude."""
    failures = _hypothesis_failures(J)
    if failures:
        raise failures[0]
    return {name: getattr(J, name) for name in HYPOTHESES}


def delta_mi(J: ParamJacobian) -> float:
    check_hypotheses(J)
    return float(_index(*_index_parts(J))[0][0])


def effective_dispersion_roots(J: ParamJacobian) -> np.ndarray:
    """Roots nu_j of the depressed cubic, sorted by (Re, Im); they sum to 0."""
    check_hypotheses(J)
    return _index(*_index_parts(J))[1][0]


def modulation_slope_prediction(J: ParamJacobian) -> np.ndarray:
    """Predicted physical Bloch slopes mu_j = -T/nu_j, sorted by (Re, Im)."""
    nus = effective_dispersion_roots(J)
    return np.sort_complex(-J.T / nus)


@dataclass
class StabilityReport:
    delta_mi: float
    mu_roots: np.ndarray                    # roots of the depressed cubic
    classification: str                     # stable/unstable/degenerate/hypothesis-failed
    hypothesis_flags: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_stable(self) -> bool:
        return self.classification == "stable"


def _tol_deg(S, D):
    return 1e-8 * np.maximum(np.maximum(np.abs(S) ** 3, 6.75 * D * D), 1.0)


def classify(spec: EquationSpec, params: WaveParams, branch: int = 0):
    """Full pipeline: classification -> quadrature -> Picard-Fuchs ->
    Delta_MI and the cubic roots.  Near-zero indices report as degenerate,
    upstream nondegeneracy failures as hypothesis-failed.  A batch of
    parameters gives a list of reports, one per wave in order; a failing
    wave gets its own hypothesis-failed report and leaves the others as
    they would be alone."""
    diagnostics = {"convention_fingerprint": fingerprint(), "branch": branch}
    J = param_jacobian(spec, params.as_batch(), branch=branch)
    reasons = {i: f"{type(exc).__name__}: {exc}" for i, exc in J.failures.items()}
    for i, exc in _hypothesis_failures(J).items():
        reasons.setdefault(i, str(exc))
    S, D = _index_parts(J)
    failed = np.zeros(len(S), dtype=bool)
    failed[list(reasons)] = True
    # a failed row's cubic (nan, on which eigvals raises) is taken as -nu^3
    delta, roots = _index(np.where(failed, 0.0, S), np.where(failed, 0.0, D))
    tol = _tol_deg(S, D)
    columns = {"T": J.T, "M": J.M, "P": J.P, "S": S, "D": D, "pf_condition": J.cond,
               "tol_deg": tol, "TP_Ec": J.TP_Ec, "MP_aE": J.MP_aE}
    values = zip(*(col.tolist() for col in columns.values()))
    flags = zip(*(getattr(J, name).tolist() for name in HYPOTHESES))
    reports = []
    for i, (vals, flag_vals, d, t) in enumerate(zip(values, flags, delta.tolist(), tol.tolist())):
        if i in reasons:
            reports.append(StabilityReport(np.nan, np.full(3, np.nan, complex), "hypothesis-failed",
                                           {}, {**diagnostics, "reason": reasons[i]}))
            continue
        label = "stable" if d > t else "unstable" if d < -t else "degenerate"
        reports.append(StabilityReport(d, roots[i], label, dict(zip(HYPOTHESES, flag_vals)), {
            **diagnostics, **dict(zip(columns, vals)), "tol_hyp": TOL_HYP}))
    return reports if params.is_batch else reports[0]


def mkdv_root_classifier(a: float, E: float, c: float, sign: int = +1) -> str:
    """Root-structure dichotomy for mKdV: the wave at (a, E, c) is
    modulationally stable iff the quartic E - V has four distinct real
    roots, unstable iff exactly two (plus a complex pair).  Returns
    "stable-4-real-roots" / "unstable-2-real-2-complex" / "degenerate"."""
    spec = mkdv_spec(sign)
    poly = potential_polynomial(spec, WaveParams(a, E, c))
    disc = discriminant(poly)
    scale = (1.0 + poly.coeff_norm) ** (2 * poly.degree - 2)
    if abs(disc) < TOL_DISC * scale:
        return "degenerate"
    try:
        real, n_pairs = potential_roots(poly)
    except DegenerateRoots:
        return "degenerate"
    if len(real) == 4:
        return "stable-4-real-roots"
    if len(real) == 2 and n_pairs == 1:
        return "unstable-2-real-2-complex"
    return "degenerate"


def kdv_closed_forms(T: float, M: float, a: float, E: float, c: float):
    """Closed forms for the canonical KdV (f = u^2/2), re-derived under the
    V = F + (c/2)u^2 - au convention:

        12 disc   = 8a^3 + 3a^2c^2 + 18aEc + 6Ec^3 - 9E^2
        T_E       = (3ET + 2Ma + Mc^2 - Tac) / (2 * 12 disc)
        {T,M}_aE  = (2T^2 a - 2MTc - M^2) / (4 * 12 disc)
        {T,M,P}   = (M^3 + 3M^2Tc - 6MT^2a - 6ET^3) / (2 * 12 disc)
        2 Delta_MI = N^2 / (512 disc^3)

    with N = a30 T^3 + a21 T^2 M + a12 T M^2 + a03 M^3 and the corrected
    coefficient table

        a30 = 8a^3 + 18aEc - 18E^2        a21 = -6a^2c - 18aE - 18Ec^2
        a12 = -12a^2 - 3ac^2 - 9Ec        a03 = c^3 + 3ac - 3E.

    Returns (T_E, {T,M}_{a,E}, {T,M,P}_{a,E,c}, 2*Delta_MI); an independent
    cross-check of the Picard-Fuchs route.
    """
    Q = 8 * a ** 3 + 3 * a ** 2 * c ** 2 + 18 * a * E * c + 6 * E * c ** 3 - 9 * E ** 2
    disc = Q / 12.0
    if disc <= 0.0:
        raise DegenerateDiscriminant(f"disc = {disc:.3e} <= 0")
    T_E = (3 * E * T + 2 * M * a + M * c ** 2 - T * a * c) / (2 * Q)
    TM_aE = (2 * T ** 2 * a - 2 * M * T * c - M ** 2) / (4 * Q)
    TMP = (6 * E * T ** 3 + 6 * M * T ** 2 * a - 3 * M ** 2 * T * c - M ** 3) / (2 * Q)
    a30 = 8 * a ** 3 + 18 * a * E * c - 18 * E ** 2
    a21 = -6 * a ** 2 * c - 18 * a * E - 18 * E * c ** 2
    a12 = -12 * a ** 2 - 3 * a * c ** 2 - 9 * E * c
    a03 = c ** 3 + 3 * a * c - 3 * E
    N = a30 * T ** 3 + a21 * T ** 2 * M + a12 * T * M ** 2 + a03 * M ** 3
    two_delta = N ** 2 / (512.0 * disc ** 3)
    return T_E, TM_aE, TMP, two_delta
