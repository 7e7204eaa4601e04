"""Exception types shared across the package."""


class DyadregError(Exception):
    """Base class for package errors."""


class ConfigError(DyadregError):
    """Invalid configuration; message names the offending key or flag."""


class AssumptionViolation(DyadregError):
    """A maintained assumption fails for the requested computation."""


class PackingDegenerate(AssumptionViolation):
    """The packing family has fewer than two hypotheses."""


class QuadratureFailure(DyadregError):
    """Successive quadrature refinements did not agree within tolerance."""
