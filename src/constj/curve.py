"""Invariants of the cyclic covers u^a = f(s, t) of the projective line.

Two independent routes to the Euler characteristic are kept side by side:
Riemann-Hurwitz on the smooth model (genus) and the singular-model count
plus its normalization correction (chi_singular + branch_correction).  Their
agreement is a standing consistency check.

When every multiplicity shares a factor with a, the cover is geometrically
disconnected; genus() then returns the Euler-characteristic value
1 - chi/2, which can be negative, and geometric_components() reports the
number of components, so dim H^1 = 2*(components - 1 + genus) stays correct
in every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Sequence

from .errors import InvariantViolation, ValidationError
from .forms import FactoredForm, J0


def _check_cover_order(f: FactoredForm, a: int) -> None:
    if a < 2 or f.jcase.exponent % a != 0:
        raise ValidationError(f"cover order {a} must divide {f.jcase.exponent}")


def genus(f: FactoredForm, a: int) -> int:
    """Riemann-Hurwitz genus of the smooth model of u^a = f.

    2g - 2 = -2a + sum over places of deg * (a - gcd(a, m)).  For a
    disconnected cover this is the total-Euler-characteristic value and may
    be negative.
    """
    _check_cover_order(f, a)
    rh = -2 * a + sum(pl.degree * (a - gcd(a, m)) for pl, m in f.places)
    if rh % 2 != 0:
        raise InvariantViolation(f"Riemann-Hurwitz sum {rh} is odd for a={a}")
    return rh // 2 + 1


def chi_singular(f: FactoredForm, a: int) -> int:
    """Euler characteristic of the singular model: 2a - k(a - 1)."""
    _check_cover_order(f, a)
    return 2 * a - f.k * (a - 1)


def branch_correction(f: FactoredForm, a: int) -> int:
    """Normalization correction: sum of deg * (gcd(a, m) - 1) over places."""
    _check_cover_order(f, a)
    return sum(pl.degree * (gcd(a, m) - 1) for pl, m in f.places)


def geometric_components(f: FactoredForm, a: int) -> int:
    """Number of irreducible components of u^a = f over the algebraic closure.

    The form is an exact d-th power precisely for d dividing every
    multiplicity, so the component count is gcd(a, m_1, ..., m_k).
    """
    _check_cover_order(f, a)
    return gcd(a, *(m for _, m in f.places))


@dataclass(frozen=True)
class CurveSpec:
    """A cyclic cover u^a = f together with its derived invariants."""

    f: FactoredForm
    a: int

    def __post_init__(self) -> None:
        _check_cover_order(self.f, self.a)

    # each number is summed once per cover, however often a run reads it
    @cached_property
    def genus(self) -> int:
        return genus(self.f, self.a)

    @cached_property
    def components(self) -> int:
        return geometric_components(self.f, self.a)

    @cached_property
    def h1_dim(self) -> int:
        """dim H^1 of the smooth model: 2 * (components - 1 + genus)."""
        dim = 2 * (self.components - 1 + self.genus)
        if dim < 0:
            raise InvariantViolation(f"negative H^1 dimension for a={self.a}")
        return dim

    @cached_property
    def total_genus(self) -> int:
        """Sum of the genera of the geometric components (= h1/2)."""
        return self.h1_dim // 2

    def key(self) -> str:
        return f"{self.f.key()}:a={self.a}"


@dataclass(frozen=True)
class EigenDims:
    """Dimensions of the deck-transformation eigenspaces of H^1 of the full
    cover, indexed by j = 1 .. exponent-1."""

    exponent: int
    dims: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        if not 1 <= j <= self.exponent - 1:
            raise IndexError(f"eigenspace index {j} out of range")
        return self.dims[j - 1]


def eigenspace_dims(f: FactoredForm, covers: Sequence[CurveSpec] = ()) -> EigenDims:
    """Eigenspace dimensions from subcover H^1 dimensions.

    The fixed spaces of the subgroups are the H^1 of the subcovers, so the
    primitive part has dimension h1(full) - sum of the subcover h1's, split
    evenly between the two primitive eigenvalues; it always equals k - 2 on
    each.  The covers of f in ``covers`` are read, not built again.
    """
    n_exp = f.jcase.exponent
    k = f.k
    built = {c.a: c for c in covers}
    orders = [a for a in range(2, n_exp + 1) if n_exp % a == 0]
    h1 = {a: (built[a] if a in built else CurveSpec(f, a)).h1_dim for a in orders}
    primitive2 = h1[n_exp] - sum(dim for a, dim in h1.items() if a != n_exp)
    if primitive2 < 0 or primitive2 % 2 != 0:
        raise InvariantViolation("primitive eigenspace dimension must be a nonnegative even integer")
    d1 = primitive2 // 2
    dims = (d1, h1[3] // 2, h1[2], h1[3] // 2, d1) if f.jcase == J0 else (d1, h1[2], d1)
    if d1 != k - 2:
        raise InvariantViolation(
            f"primitive eigenspace dimension {d1} != k - 2 = {k - 2} for pattern {f.pattern}"
        )
    return EigenDims(exponent=n_exp, dims=dims)
