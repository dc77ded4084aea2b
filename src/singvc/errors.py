"""Exception taxonomy shared across the package.

Every class derives from `SingvcError`, so a caller can catch the whole
taxonomy with one clause.
"""


class SingvcError(Exception):
    """Base of every error this package raises on purpose."""


class ShapeError(SingvcError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(SingvcError, ValueError):
    """A configuration value violates its constraints."""


class InputError(SingvcError, ValueError):
    """User-supplied data (audio, contours, feature files) is invalid."""


class FormatError(SingvcError, ValueError):
    """A binary file does not conform to its declared format."""


class ContractError(SingvcError, RuntimeError):
    """An API contract was violated (e.g. backward on a non-scalar)."""


class DataError(SingvcError, ValueError):
    """A training corpus is internally inconsistent."""


class DivergenceError(SingvcError, RuntimeError):
    """Training produced a non-finite loss or gradient."""


class MetricUndefinedError(SingvcError, ValueError):
    """A metric has no defined value for the given inputs."""
