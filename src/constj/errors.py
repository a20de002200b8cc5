"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Bad user-supplied data: primes, multiplicities, roots, CLI flags."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed (counts, genera, dimensions)."""


class CountDataError(InvariantViolation):
    """Point-count data is inconsistent with an integral zeta numerator."""
