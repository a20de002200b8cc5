"""Invariants of the cyclic covers u^a = f(s, t) of the projective line.

Each number of a cover is a property of its CurveSpec, summed once per
cover.  The Euler characteristic has two routes: Riemann-Hurwitz on the
smooth model (genus), and the singular-model count plus its normalization
correction (chi_singular + branch_correction).  The reports give both; the
tests check that they agree.

When every multiplicity shares a factor with a, the cover is geometrically
disconnected; genus is then the Euler-characteristic value 1 - chi/2, which
can be negative, and components is the number of components, so
dim H^1 = 2*(components - 1 + genus) stays correct in every case.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .errors import InvariantViolation, ValidationError
from .forms import FactoredForm, J0


class _CoverFields(NamedTuple):  # a NamedTuple body cannot define __new__
    f: FactoredForm
    a: int


class CurveSpec(_CoverFields):
    """A cyclic cover u^a = f together with its derived invariants.  No
    __slots__: the cached numbers need an instance dict."""

    def __new__(cls, f: FactoredForm, a: int) -> "CurveSpec":
        if a < 2 or f.jcase.exponent % a != 0:
            raise ValidationError(f"cover order {a} must divide {f.jcase.exponent}")
        return super().__new__(cls, f, a)

    # each number is summed once per cover, however often a run reads it
    @cached_property
    def genus(self) -> int:
        """Riemann-Hurwitz genus of the smooth model of u^a = f.

        2g - 2 = -2a + sum over places of deg * (a - gcd(a, m)).  For a
        disconnected cover this is the total-Euler-characteristic value and
        may be negative.
        """
        a = self.a
        rh = -2 * a + sum(pl.degree * (a - gcd(a, m)) for pl, m in self.f.places)
        return rh // 2 + 1

    @cached_property
    def components(self) -> int:
        """Number of irreducible components over the algebraic closure.

        The form is an exact d-th power precisely for d dividing every
        multiplicity, so the count is gcd(a, m_1, ..., m_k).
        """
        return gcd(self.a, *(m for _, m in self.f.places))

    @cached_property
    def h1_dim(self) -> int:
        """dim H^1 of the smooth model: 2 * (components - 1 + genus)."""
        return 2 * (self.components - 1 + self.genus)

    @cached_property
    def total_genus(self) -> int:
        """Sum of the genera of the geometric components (= h1/2)."""
        return self.h1_dim // 2

    @property
    def chi_singular(self) -> int:
        """Euler characteristic of the singular model: 2a - k(a - 1)."""
        return 2 * self.a - self.f.k * (self.a - 1)

    @property
    def branch_correction(self) -> int:
        """Normalization correction: sum of deg * (gcd(a, m) - 1) over places."""
        return sum(pl.degree * (gcd(self.a, m) - 1) for pl, m in self.f.places)

    def key(self) -> str:
        return f"{self.f.key()}:a={self.a}"


def covers(f: FactoredForm) -> tuple[CurveSpec, ...]:
    """The covers of f, u^a = f for a = the exponent, then each proper
    divisor a > 1 of it in increasing order: (6, 2, 3) or (4, 2)."""
    n_exp = f.jcase.exponent
    orders = (n_exp, *(a for a in range(2, n_exp) if n_exp % a == 0))
    return tuple(CurveSpec(f, a) for a in orders)


class EigenDims(NamedTuple):
    """Dimensions of the deck-transformation eigenspaces of H^1 of the full
    cover, indexed by j = 1 .. exponent-1 (not by the tuple's positions)."""

    exponent: int
    dims: tuple[int, ...]

    def __getitem__(self, j: int) -> int:
        if not 1 <= j <= self.exponent - 1:
            raise IndexError(f"eigenspace index {j} out of range")
        return self.dims[j - 1]


def eigenspace_dims(curves: Sequence[CurveSpec]) -> EigenDims:
    """Eigenspace dimensions from the H^1 dimensions of covers(f).

    The fixed spaces of the subgroups are the H^1 of the subcovers, so the
    primitive part has dimension h1(full) - sum of the subcover h1's, split
    evenly between the two primitive eigenvalues; it always equals k - 2 on
    each.
    """
    full, *subs = curves
    f = full.f
    h1 = {c.a: c.h1_dim for c in subs}
    primitive2 = full.h1_dim - sum(h1.values())
    d1 = f.k - 2
    if primitive2 != 2 * d1:
        raise InvariantViolation(
            f"primitive eigenspace dimension {primitive2 / 2:g} != k - 2 = {d1} "
            f"for pattern {f.pattern}"
        )
    dims = (d1, h1[3] // 2, h1[2], h1[3] // 2, d1) if f.jcase == J0 else (d1, h1[2], d1)
    return EigenDims(exponent=full.a, dims=dims)
