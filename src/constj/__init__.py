"""Factored binary forms, superelliptic point counts, and elliptic-surface
invariants for constant j-invariant 0 / 1728 families."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BranchInconsistencyError,
    CountDataError,
    FalsifiedClaimError,
    InvariantViolation,
    ValidationError,
)
from .gf import FieldContext, make_field  # noqa: F401
