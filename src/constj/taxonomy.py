"""Enumeration and classification of admissible multiplicity patterns.

A pattern is admissible when its partner form (multiplicities m -> N - m)
has degree exactly N with at least two zeroes, i.e. sum(N - m_i) = N and
k >= 2.  Classification of the surface attached to the pattern depends only
on k, the number of distinct zeroes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .forms import JCase

Pattern = tuple[int, ...]


def enumerate_patterns(jcase: JCase) -> list[Pattern]:
    """All admissible multiplicity multisets, sorted canonically.

    Sorted by k, then by the descending multiplicity tuple itself descending,
    so the two-zero patterns come first and (N-1, 1) leads its group.
    """
    n_exp = jcase.exponent
    found: set[Pattern] = set()

    def extend(partial: list[int], remaining: int, max_part: int) -> None:
        if remaining == 0:
            if len(partial) >= 2:
                found.add(tuple(sorted((n_exp - c for c in partial), reverse=True)))
            return
        for part in range(min(max_part, remaining), 0, -1):
            extend(partial + [part], remaining - part, part)

    # partition sum(N - m_i) = N with parts N - m in [1, N-1]
    extend([], n_exp, n_exp - 1)
    return sorted(found, key=lambda t: (len(t), tuple(-m for m in t)))


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
        torelli_failure_expected=k > 3,
        supersingular_congruence=f"p = {jcase.exponent - 1} mod {jcase.exponent}",
    )


def catalog(jcase: JCase) -> list[CatalogRow]:
    """Rows for the non-rational surfaces: all admissible patterns with k >= 3."""
    return [row for pat in enumerate_patterns(jcase) if (row := catalog_row(pat, jcase))]
