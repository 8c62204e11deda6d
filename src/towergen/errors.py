"""Exception types shared across the package."""


class TowergenError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TowergenError):
    pass


class DimensionOverflow(TowergenError):
    pass


class EigenvalueNearThreshold(TowergenError):
    pass


class StrictModeViolation(TowergenError):
    pass


class InsufficientSubrank(TowergenError):
    pass


class DegenerateWitness(TowergenError):
    pass


class NoSpectralGap(TowergenError):
    pass


class NonConvergence(TowergenError):
    pass


class NonFiniteValue(TowergenError):
    """A kernel result is NaN or infinite, so its input was not finite."""


class LadderBreakdown(TowergenError):
    pass


class StabilizationFailed(TowergenError):
    pass


class SubrankTooSmall(TowergenError):
    pass


class ConfigInvalid(TowergenError):
    """Raised for configs that fail schema validation; names the offending path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
