"""Exception types shared across the package."""

from __future__ import annotations


def _rebuild(cls: type, args: tuple, state: dict) -> PoromoistError:
    """An instance of cls with args and attributes state, made without __init__."""
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class PoromoistError(Exception):
    """Base class for all package-specific errors.

    Every instance survives pickling, as it must to cross a process pool:
    the default rebuilds an exception by calling its class with args, which
    a subclass whose __init__ takes other arguments than its message cannot
    take.  member is the index of the block or group member that raised
    it, where the solver or the stepper works on several at once (see
    stepper.march), and None elsewhere.
    """

    member: int | None = None

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class ConfigError(PoromoistError):
    """Invalid parameter values or run configuration."""


class ParseError(ConfigError):
    """Config file is not valid JSON."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ValidationError(ConfigError):
    """Config parsed but violates the schema; collects every violation."""

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.violations)
        super().__init__(f"{len(self.violations)} config violation(s): {lines}")


class NonPositiveRadius(PoromoistError):
    """Mollifier radius must be strictly positive."""


class DimensionMismatch(PoromoistError):
    """Array length does not match the grid it is bound to."""


class ZeroPivot(PoromoistError):
    """Tridiagonal elimination hit a pivot below the breakdown threshold."""

    def __init__(self, index: int, pivot: float):
        super().__init__(f"near-zero pivot {pivot:.3e} at row {index}")
        self.index = index
        self.pivot = pivot


class StepFailure(PoromoistError):
    """A failed attempt at one implicit step.

    sweeps counts the Picard sweeps the attempt spent before it failed.
    """

    sweeps: int = 0


class DominanceViolation(StepFailure):
    """An assembled row lost strict diagonal dominance."""

    def __init__(self, system: str, index: int, margin: float):
        super().__init__(
            f"{system} system row {index} not strictly diagonally dominant "
            f"(margin {margin:.3e})"
        )
        self.system = system
        self.index = index
        self.margin = margin


class PicardDivergence(StepFailure):
    """Fixed-point sweeps did not converge; record is the failed attempt's StepRecord."""

    def __init__(self, message: str, record):
        super().__init__(f"{message} (last update {record.update:.3e})")
        self.record = record
        self.sweeps = record.sweeps


class NonfiniteIterate(StepFailure):
    """A fixed-point sweep produced NaN or Inf values."""
