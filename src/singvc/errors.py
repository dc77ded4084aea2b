"""Exception taxonomy shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates its constraints."""


class InputError(ValueError):
    """User-supplied data (audio, contours, feature files) is invalid."""


class FormatError(ValueError):
    """A binary file does not conform to its declared format."""


class ContractError(RuntimeError):
    """An API contract was violated (e.g. backward on a non-scalar)."""


class DataError(ValueError):
    """A training corpus is internally inconsistent."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class MetricUndefinedError(ValueError):
    """A metric has no defined value for the given inputs."""
