"""Resolved sign/normalization conventions, frozen in one table.

Several published displays of this theory disagree with each other on the
sign of the c-term in the effective potential, the orientation of the
Jacobian brackets entering the instability index, and assorted moment
normalizations.  Every choice below was fixed against an unambiguous
numerical oracle (finite differences of the quadrature, direct
Floquet-Bloch eigenvalues, root-structure dichotomies) and is regression
tested.  The fingerprint of this table is embedded in every emitted
report so results remain comparable across versions.
"""
from __future__ import annotations

import functools
import hashlib
import json

CONVENTIONS = {
    # effective potential and profile ODE
    "potential": "V(u;a,c) = F(u) + (c/2) u^2 - a u;  (1/2) u_z^2 = E - V",
    "kdv_nonlinearity": "f(u) = u^2/2",
    "mkdv_nonlinearity": "f(u) = sigma u^3/3, sigma=+1 focusing, -1 defocusing",
    "schamel_nonlinearity": "f(u) = (5/2) |u|^{3/2}, u > 0, v = sqrt(u)",
    # cnoidal root map (re-derived; c-component differs from the usual display)
    "kdv_root_map": "E = abg/6, a = -(ab+ag+bg)/6, c = -(a+b+g)/3",
    "cnoidal_period": "T = 4 sqrt(3) K(m) / sqrt(alpha - gamma)",
    # moments:  zeta_k = sqrt(2) int_{w-}^{w+} weight(w) w^k / sqrt(E - V) dw
    # with weight = 1 (polynomial f) or 2v (Schamel, w = v); zeta_0 = T for
    # polynomial f, (T, M, P) = (zeta_1, zeta_3, zeta_5) for Schamel.
    "moment_normalization": "sqrt2-in-denominator; physical zeta",
    # Picard-Fuchs gradient map (oracle-fixed signs)
    "pf_gradient": "dz_k/dE = -I_k/2, dz_k/da = -I_{k+da}/2, dz_k/dc = +I_{k+dc}/4",
    "pf_gradient_offsets": "da, dc = 1, 2 (polynomial) or 2, 4 (Schamel v-side)",
    # modulational-instability index; {T,P}_Ec and {T,M,P}_aEc are reported
    # with the c-column negated relative to the raw Jacobian (oracle-fixed
    # orientation under which {T,M,P}_aEc > 0 for KdV)
    "bracket_orientation": "c-column negated in {T,P}_Ec and {T,M,P}_aEc",
    "delta_mi": "1/2 ({T,P}_Ec + 2{M,P}_aE)^3 - 27/4 {T,M,P}_aEc^2",
    "dispersion_cubic": "-nu^3 + nu/2 ({T,P}_Ec + 2{M,P}_aE) - 1/2 {T,M,P}_aEc",
    # physical Bloch slopes lambda_j(xi) = i mu_j xi relate to the cubic roots by
    "slope_normalization": "mu_j = -T / nu_j",
    # Benjamin-Ono
    "bo_profile_equation": "-Lambda u + c u + u^2 = a  (z = x + ct frame of the printed solution)",
    "bo_bloch_operator": "L = d/dz (-Lambda + c + 2u)",
    "bo_modulation_speeds": "{-sqrt(c^2-4a), +k, -k}",
    "bo_galilean_shift": "s = lambda in u(z; a - c*l + l^2, k, c - 2l) = u(z; a,k,c) + l",
    # small amplitude
    "smallamp_gamma": "Gamma(k) = 2(m(k)-m(2k)) + (k(m(k)-m(0)))'",
    "smallamp_lambda": "Lambda(k) = (k(m-m0))'(k(m-m0))''/(m(k)-m(2k)) * Gamma(k)",
    "smallamp_lambda_oracle_factor": "A^2-difference oracle = 2 k ((k(m-m0))')^2 * Lambda",
    "smallamp_jordan_coupling": "pencil uses 2A at (2,3); exact-omega A=0 block",
}


@functools.cache
def fingerprint() -> str:
    """12-hex digest of the convention table (computed once per process)."""
    blob = json.dumps(CONVENTIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
