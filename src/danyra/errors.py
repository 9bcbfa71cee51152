"""Exception types shared across the package."""


class DanyraError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstanceError(DanyraError):
    """A problem instance (or one of its pieces) violates its invariants."""


class TopologyError(DanyraError):
    """The communication graph is malformed or disconnected."""


class DivergenceError(DanyraError):
    """An iterate produced non-finite values."""

    def __init__(self, message: str, k: int | None = None, agents: list[int] | None = None):
        super().__init__(message)
        self.k = k
        self.agents = agents or []


class OracleFailureError(DanyraError):
    """A ground-truth solver failed to produce a verified solution."""


class ConfigError(DanyraError):
    """An experiment or CLI configuration is invalid."""
