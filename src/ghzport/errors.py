"""Exception types shared across the package."""


class GhzportError(Exception):
    """Base class for all ghzport-specific errors."""


class RationalOverflowError(GhzportError, OverflowError):
    """A rational angle left the supported 64-bit numerator/denominator range.

    Rational phases in this problem stay tiny (denominators like (N-1)^2);
    blowing the bound indicates misuse, so it is reported instead of being
    absorbed into ever-growing integers.
    """


class ResourceLimitError(GhzportError):
    """An enumeration guard or the memory for the requested shots was exceeded."""


class ComputationIntegrityError(GhzportError):
    """Two routes that must agree did not; signals an implementation bug."""


class ScenarioError(GhzportError):
    """A scenario file failed validation; carries every diagnostic found."""

    def __init__(self, errors, source=None):
        self.errors = list(errors)
        self.source = source
        where = f" in {source}" if source else ""
        super().__init__(
            f"{len(self.errors)} scenario error(s){where}: " + "; ".join(self.errors)
        )
