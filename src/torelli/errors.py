"""The errors by which a command is refused or stopped.

They live apart from `pipeline`, which re-exports them, so that the
command line can pick its exit code without importing the computation.
"""


class ConfigError(ValueError):
    """Rejected configuration."""


class NegativeMultiplicity(ArithmeticError):
    """A computed class had a coefficient outside the nonnegative integers."""


class Unsupported(ValueError):
    """No trusted-degree formula exists for this dimension."""
