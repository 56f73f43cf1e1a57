"""Exception hierarchy shared by all hypspec modules.

Two broad families matter for the CLI exit codes: domain/usage problems
(bad inputs, points outside a model's admissible set) and numerical
failures (non-convergent series, resonant spectral parameters, fits on
degenerate data).
"""


class HypspecError(Exception):
    """Base class for all library errors."""


class DomainError(HypspecError):
    """Input outside the mathematical domain of an operation."""


class UnknownConstant(HypspecError):
    """Requested a spectral constant that has no known closed value."""


class CurvatureUnavailable(HypspecError, NotImplementedError):
    """Curvature-term minimum is only derived for the real and complex fields."""


class UnsupportedField(HypspecError, NotImplementedError):
    """Operation restricted to a subset of the base fields."""


class NumericalError(HypspecError):
    """Base class for numerical failures (CLI exit code 4)."""


class NoConvergence(NumericalError):
    """Series or iteration exceeded its term budget without converging."""


class PoleOfGamma(NumericalError):
    """Evaluation requested at a pole of a Gamma factor."""


class DegenerateFit(NumericalError):
    """Least-squares fit on data with no usable spread."""


class AssemblyMismatch(NumericalError):
    """Internal consistency check of an assembled operator failed."""


class BranchPoint(NumericalError):
    """Spectral parameter sits on a ramification point of the cover."""


class ResonanceDetected(NumericalError):
    """Recursion operator is (numerically) non-invertible at this point."""


class TailBoundExceeded(NumericalError):
    """Truncated series evaluated below its validity threshold."""


class FitFailure(NumericalError):
    """Power-law fit residual exceeded tolerance."""


class OrbitOverflow(NumericalError):
    """Orbit point coordinates overflow double precision."""


class CombinatorialBlowup(HypspecError):
    """Orbit enumeration would exceed the configured word cap."""


class TruncationWarning(UserWarning):
    """Last series coefficients do not satisfy the tail bound."""
