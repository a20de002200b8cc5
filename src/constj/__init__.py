"""Factored binary forms, superelliptic point counts, and elliptic-surface
invariants for constant j-invariant 0 / 1728 families."""

__version__ = "0.1.0"

import os

# every array on the count path is int64, so numpy's BLAS is never called;
# one thread keeps its idle workers from spinning on the other cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (  # noqa: F401
    BranchInconsistencyError,
    CountDataError,
    FalsifiedClaimError,
    InvariantViolation,
    ValidationError,
)
from .gf import FieldContext, make_field  # noqa: F401
