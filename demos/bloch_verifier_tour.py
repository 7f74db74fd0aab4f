"""The independent verifier: Fourier-Galerkin Floquet-Bloch spectra.

For each test wave we assemble the Bloch operators L_xi, measure the
three eigenvalue branches bifurcating from the origin, and compare their
slopes with the roots of the effective dispersion cubic (slopes are
-T/nu_j).  A stable wave keeps its spectrum on the imaginary axis; the
focusing-mKdV cnoidal wave grows an instability bubble.
"""
import numpy as np

from modwave import (WaveParams, effective_dispersion_roots,
                     kdv_params_from_roots, kdv_spec, mkdv_spec,
                     modulation_slope_prediction, moment_jacobian,
                     resolve_profile)
from modwave.bloch import (instability_bubble_scan, local_assembler,
                           match_slope_sets, modulation_slopes)

cases = [
    ("KdV cnoidal (3,1,0)", kdv_spec(), kdv_params_from_roots(3.0, 1.0, 0.0), 0),
    ("mKdV dnoidal", mkdv_spec(+1), WaveParams(0.0, -0.5, -1.0), 1),
    ("mKdV focusing cnoidal", mkdv_spec(+1), WaveParams(0.0, 0.5, -1.0), 0),
]

for name, spec, p, br in cases:
    prof = resolve_profile(spec, p, branch=br)
    J = moment_jacobian(prof.moments)
    nus = effective_dispersion_roots(J)
    predicted = modulation_slope_prediction(J)
    measured = modulation_slopes(local_assembler(prof, N=48))
    rel = match_slope_sets(measured, predicted) / np.max(np.abs(predicted))
    grid = np.linspace(1e-3, np.pi / prof.period, 16)
    mx, xi_at = instability_bubble_scan(local_assembler(prof, N=48), grid)
    print(name)
    print(f"  cubic roots nu : {np.round(nus, 5)}")
    print(f"  predicted mu   : {np.round(predicted, 5)}")
    print(f"  measured  mu   : {np.round(measured, 5)}   (rel mismatch {rel:.1e})")
    print(f"  max Re lambda over xi grid: {mx:.3e}"
          + (f" at xi={xi_at:.3f}" if mx > 1e-8 else " (imaginary axis)"))
    print()
