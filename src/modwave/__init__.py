"""modwave: modulational stability of periodic traveling waves for local
and nonlocal KdV-type dispersive equations.

The pipeline for local equations: an EquationSpec and ODE parameters
(a, E, c) classify into a periodic oscillation interval; regularized
quadrature produces the period, mass, momentum and the moment table; the
Picard-Fuchs system turns moments into the parameter Jacobian; the sign
of Delta_MI decides modulational stability, with the depressed-cubic
roots giving the three modulation branch slopes (mu_j = T/nu_j).  An
independent Floquet-Bloch eigensolver verifies the slopes numerically.
Nonlocal equations are covered at arbitrary amplitude for Benjamin-Ono
and in the small-amplitude regime for Whitham/fKdV/ILW symbols.
"""

__version__ = "0.1.0"

from .conventions import CONVENTIONS, fingerprint
from .equations import (Classification, EquationSpec, PotentialPolynomial,
                        WaveParams, classify_parameters, discriminant,
                        effective_potential, kdv_params_from_roots, kdv_spec,
                        mkdv_spec, potential_polynomial, potential_roots,
                        schamel_spec)
from .waves import (MomentTable, WaveProfile, cnoidal_eval, cnoidal_period,
                    dnoidal_eval, dnoidal_period, quadrature_TMPH,
                    resolve_profile, zeta_moments)
from .picard_fuchs import (ParamJacobian, PicardFuchsSystem, build_system,
                           moment_jacobian, param_jacobian, solve_moments)
from .mi_index import (StabilityReport, classify, delta_mi,
                       effective_dispersion_roots, kdv_closed_forms,
                       mkdv_root_classifier, modulation_slope_prediction)
from .bo import (BOWaveParams, bo_conserved, bo_dispersion_matrix, bo_eval,
                 bo_galilean_check, bo_modulation_speeds, bo_quadrature_MP)
from .smallamp import (DispersionSymbol, StokesWave, benjamin_feir_cutoff,
                       bo_symbol, delta_constant_state, delta_discriminant,
                       delta_ilw, fkdv_symbol, gamma_ilw, identity_proj,
                       ilw_symbol, lambda_fkdv, lambda_index, lambda_oracle,
                       lambda_oracle_normalized, mxi_matrix, omega,
                       stokes_expand, stokes_residual, whitham_symbol)
from .bloch import (BlochMatrix, assemble_nonlocal, bo_assembler,
                    instability_bubble_scan, local_assembler, match_slope_sets,
                    modulation_slopes, whitham_assembler)
