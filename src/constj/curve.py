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

from .errors import InvariantViolation
from .forms import FactoredForm


class _CoverFields(NamedTuple):
    f: FactoredForm
    a: int


class CurveSpec(_CoverFields):
    """A cyclic cover u^a = f together with its derived invariants.  No
    __slots__: the cached numbers need an instance dict.  covers(f) builds
    every cover, so every order a divides the exponent of f."""

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

    def rational_components(self, i: int) -> int:
        """Components that Frobenius fixes over F_{p^i}, p = f.p.  With
        r = components, f = G^r and u^a = f splits into u^(a/r) = zeta G over
        the r-th roots of unity zeta, gcd(r, p^i - 1) of which lie in F_{p^i}."""
        return gcd(self.components, self.f.p**i - 1)

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


def eigenspace_dims(curves: Sequence[CurveSpec]) -> tuple[int, ...]:
    """dim V_j of H^1 of the full cover u^a = f of covers(f), j = 1 .. a-1:
    the zeroes with a not dividing j*m, less 2, or 0 if none (Bouw, "The
    p-rank of ramified covers of curves", 2001).  Each cover u^a' = f is the
    quotient by the subgroup of order a/a', so its Riemann-Hurwitz h1 must
    be the sum of the V_j with a/a' dividing j, and is checked to be."""
    f, a = curves[0]
    dims = tuple(max(0, sum(pl.degree for pl, m in f.places if j * m % a) - 2)
                 for j in range(1, a))
    for c in curves:
        h1 = sum(dims[a // c.a - 1 :: a // c.a])
        if h1 != c.h1_dim:
            raise InvariantViolation(
                f"cover a={c.a}: eigenspaces give h1 = {h1}, Riemann-Hurwitz {c.h1_dim}, "
                f"for pattern {f.pattern}"
            )
    return dims
