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
from math import gcd

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


def h1_dim(f: FactoredForm, a: int) -> int:
    """dim H^1 of the smooth model: 2 * (components - 1 + genus)."""
    dim = 2 * (geometric_components(f, a) - 1 + genus(f, a))
    if dim < 0:
        raise InvariantViolation(f"negative H^1 dimension for a={a}")
    return dim


def total_genus(f: FactoredForm, a: int) -> int:
    """Sum of the genera of the geometric components (= h1/2)."""
    return h1_dim(f, a) // 2


@dataclass(frozen=True)
class CurveSpec:
    """A cyclic cover u^a = f together with its derived invariants."""

    f: FactoredForm
    a: int

    def __post_init__(self) -> None:
        _check_cover_order(self.f, self.a)

    @property
    def genus(self) -> int:
        return genus(self.f, self.a)

    @property
    def components(self) -> int:
        return geometric_components(self.f, self.a)

    @property
    def total_genus(self) -> int:
        return total_genus(self.f, self.a)

    @property
    def h1_dim(self) -> int:
        return h1_dim(self.f, self.a)

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

    @property
    def total(self) -> int:
        return sum(self.dims)


def eigenspace_dims(f: FactoredForm) -> EigenDims:
    """Eigenspace dimensions from subcover H^1 dimensions.

    The fixed spaces of the subgroups are the H^1 of the subcovers, so the
    primitive part has dimension h1(full) - sum of the subcover h1's, split
    evenly between the two primitive eigenvalues; it always equals k - 2 on
    each.
    """
    n_exp = f.jcase.exponent
    k = f.k
    if f.jcase == J0:
        h2, h3, h6 = h1_dim(f, 2), h1_dim(f, 3), h1_dim(f, 6)
        primitive2 = h6 - h2 - h3
        if primitive2 < 0 or primitive2 % 2 != 0:
            raise InvariantViolation("primitive eigenspace dimension must be a nonnegative even integer")
        d1 = primitive2 // 2
        dims = (d1, h3 // 2, h2, h3 // 2, d1)
    else:
        h2, h4 = h1_dim(f, 2), h1_dim(f, 4)
        primitive2 = h4 - h2
        if primitive2 < 0 or primitive2 % 2 != 0:
            raise InvariantViolation("primitive eigenspace dimension must be a nonnegative even integer")
        d1 = primitive2 // 2
        dims = (d1, h2, d1)
    if d1 != k - 2:
        raise InvariantViolation(
            f"primitive eigenspace dimension {d1} != k - 2 = {k - 2} for pattern {f.pattern}"
        )
    ed = EigenDims(exponent=n_exp, dims=dims)
    if ed.total != h1_dim(f, n_exp):
        raise InvariantViolation("eigenspace dimensions do not sum to dim H^1")
    return ed
