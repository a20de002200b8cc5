"""Enumeration and classification of admissible multiplicity patterns.

A pattern is admissible when its partner form (multiplicities m -> N - m)
has degree exactly N with at least two zeroes, i.e. sum(N - m_i) = N and
k >= 2.  Classification of the surface attached to the pattern depends only
on k, the number of distinct zeroes.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple, Optional

from .curve import hodge_number
from .forms import JCase

Pattern = tuple[int, ...]


def enumerate_patterns(jcase: JCase) -> list[Pattern]:
    """The multisets of k = 2..N multiplicities in [1, N-1] with a rational
    partner, in the order the combinations come: by k, then by the
    descending tuple itself descending, so (N-1, 1) leads the two-zero
    patterns.  Each zero adds N - m >= 1 to the partner's degree N: k <= N."""
    n_exp, descending = jcase.exponent, range(jcase.exponent - 1, 0, -1)
    return [pat for k in range(2, n_exp + 1) for pat in combinations_with_replacement(descending, k)
            if is_partner_rational(pat, jcase)]


def classify_Xf(pattern: Pattern) -> str:
    k = len(pattern)
    if k == 2:
        return "rational"
    if k == 3:
        return "K3"
    return "kodaira-dimension-1"


def is_partner_rational(pattern: Pattern, jcase: JCase) -> bool:
    """True when the complement form has degree N and at least two zeroes.

    Equivalent to k = n + 1 (with k >= 2) for valid forms.
    """
    n_exp = jcase.exponent
    return len(pattern) >= 2 and sum(n_exp - m for m in pattern) == n_exp


class CatalogRow(NamedTuple):
    pattern: Pattern
    n: int
    k: int
    surface_class: str
    torelli_failure_expected: bool
    supersingular_congruence: str


def catalog_row(pattern: Pattern, jcase: JCase) -> Optional[CatalogRow]:
    """The catalog row of a pattern, or None for a pattern the catalog lacks
    (no rational partner, or k = 2 so that X_f itself is rational)."""
    k = len(pattern)
    if k < 3 or not is_partner_rational(pattern, jcase):
        return None
    return CatalogRow(
        pattern=pattern,
        n=sum(pattern) // jcase.exponent,
        k=k,
        surface_class=classify_Xf(pattern),
        torelli_failure_expected=hodge_number(pattern, jcase.exponent, 1) == 0 and k > 3,
        supersingular_congruence=f"p = {jcase.exponent - 1} mod {jcase.exponent}",
    )


def catalog(jcase: JCase) -> list[CatalogRow]:
    """Rows for the non-rational surfaces: all admissible patterns with k >= 3."""
    return [row for pat in enumerate_patterns(jcase) if (row := catalog_row(pat, jcase))]
