"""Exception hierarchy shared across the package.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can react without string matching.
"""


class HypermodesError(Exception):
    """Base class for all package errors."""


# --- dense linear algebra -------------------------------------------------

class NotDiagonalizable(HypermodesError):
    """A defective eigenvalue was detected; the standing hypothesis fails."""


class IllConditionedBasis(HypermodesError):
    """Eigenvector basis condition number exceeds the configured cap."""


# --- congruence decomposition ---------------------------------------------

class SingularInput(HypermodesError):
    pass


class OffDiagonalResidual(HypermodesError):
    """Numerical off-diagonal of the transformed matrix exceeds tolerance."""


class NotTypeII(HypermodesError):
    """2x2 pair fails the positive-determinant condition."""


# --- boundary-condition synthesis -----------------------------------------

class ZeroCoefficient(HypermodesError):
    pass


class AssumptionViolated(HypermodesError):
    """A variable-coefficient standing assumption fails at a grid node."""

    def __init__(self, which, where, message=""):
        self.which = which
        self.where = where
        super().__init__(f"assumption ({which}) violated at node {where}: {message}")


# --- discrete operators ----------------------------------------------------

class EllipticityLost(HypermodesError):
    pass


class RankDeficientBC(HypermodesError):
    pass


# --- solver -----------------------------------------------------------------

class UnstableCoefficients(HypermodesError):
    """A wave speed vanishes along a coordinate direction."""


class CFLViolation(HypermodesError):
    pass


class BlockMatchingFailure(HypermodesError):
    """Eigenvalue ordering could not be continued across adjacent nodes."""


# --- application presets -----------------------------------------------------

class GenericityViolated(HypermodesError):
    pass


class NonPositiveSymmetrizer(HypermodesError):
    pass


class NotSymmetrizable(HypermodesError):
    pass


class NormalizationViolated(HypermodesError):
    pass


# --- CLI ---------------------------------------------------------------------

class ConfigError(HypermodesError):
    pass


class UnknownKey(ConfigError):
    pass


class MissingInput(ConfigError):
    pass


class ConflictingSources(ConfigError):
    pass
