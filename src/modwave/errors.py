"""Exception types raised across the toolkit, and the per-row failure
record of batched computations."""


def flag_rows(failures: dict, mask, make, rows=None) -> None:
    """For each k set in the boolean 1-D mask, record make(k) as the failure
    of row k (row rows[k] if rows are given), unless that row has failed
    already: its first failure is the one a single-wave call raises.  The
    batch layers keep a failed row in the batch and test it again, so every
    failure is recorded through here (setdefault), never by dict.update."""
    for k in mask.nonzero()[0].tolist():
        failures.setdefault(k if rows is None else int(rows[k]), make(k))


class ModwaveError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ModwaveError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateRoots(ModwaveError):
    """Potential polynomial has a repeated root: parameters lie on the
    discriminant variety (constants / solitary waves, no periodic orbit)."""

    def __init__(self, msg, roots=None):
        super().__init__(msg)
        self.roots = roots


class NoBoundedOrbit(ModwaveError):
    """No positivity interval of the potential polynomial exists."""


class QuadratureFailure(ModwaveError):
    """Regularized quadrature produced a non-finite integrand."""


class SingularSystem(ModwaveError):
    """Picard-Fuchs matrix is singular (potential has a repeated root)."""


class IllConditioned(ModwaveError):
    """Picard-Fuchs matrix condition number exceeds the safety bound."""


class HypothesisFailed(ModwaveError):
    """One of the nondegeneracy determinants T_E, {T,M}_{a,E},
    {T,M,P}_{a,E,c} vanishes to tolerance; the index is undefined there."""


class DegenerateDiscriminant(ModwaveError):
    """Closed-form expressions requested at non-positive discriminant."""


class ConstraintViolation(ModwaveError):
    """Benjamin-Ono existence constraints (c < 0, k^2 < c^2 - 4a) violated."""


class SymbolDomain(ModwaveError):
    """Dispersion symbol evaluated outside its declared domain."""


class ResonanceError(ModwaveError):
    """Harmonic resonance m(k) ~ m(nk) or m(k) ~ m(0): the Stokes
    expansion denominators degenerate."""


class ParityViolation(ModwaveError):
    """Characteristic-polynomial coefficients fail their realness or
    parity symmetries; signals an assembly bug."""


class ResolutionError(ModwaveError):
    """Fourier tail of the sampled coefficient exceeds tolerance; the
    truncation cannot resolve the wave."""


class BranchMixing(ModwaveError):
    """Nearest-continuation matching of eigenvalue branches is ambiguous."""


class ConfigError(ModwaveError):
    """Malformed analysis request."""

    def __init__(self, msg, field=None):
        super().__init__(msg)
        self.field = field
