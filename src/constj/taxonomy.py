"""Enumeration and classification of admissible multiplicity patterns.

A pattern is admissible when its partner form (multiplicities m -> N - m)
has degree exactly N with at least two zeroes, i.e. sum(N - m_i) = N and
k >= 2.  Classification of the surface attached to the pattern depends only
on k, the number of distinct zeroes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ValidationError
from .forms import FactoredForm, JCase

Pattern = tuple[int, ...]


class SurfaceClass(enum.Enum):
    RATIONAL = "rational"
    K3 = "K3"
    KODAIRA_DIM_1 = "kodaira-dimension-1"


def _as_pattern(f: Union[FactoredForm, Sequence[int]]) -> Pattern:
    if isinstance(f, FactoredForm):
        return f.pattern
    return tuple(sorted(f, reverse=True))


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


def classify_Xf(pattern: Union[FactoredForm, Sequence[int]]) -> SurfaceClass:
    k = len(_as_pattern(pattern))
    if k == 2:
        return SurfaceClass.RATIONAL
    if k == 3:
        return SurfaceClass.K3
    return SurfaceClass.KODAIRA_DIM_1


def is_partner_rational(f: Union[FactoredForm, Sequence[int]], jcase: JCase = None) -> bool:
    """True when the complement form has degree N and at least two zeroes.

    Equivalent to k = n + 1 (with k >= 2) for valid forms.
    """
    if isinstance(f, FactoredForm):
        jcase = f.jcase
        pattern = f.pattern
    else:
        if jcase is None:
            raise ValidationError("is_partner_rational on a bare pattern needs a jcase")
        pattern = _as_pattern(f)
    n_exp = jcase.exponent
    return len(pattern) >= 2 and sum(n_exp - m for m in pattern) == n_exp


@dataclass(frozen=True)
class CatalogRow:
    pattern: Pattern
    n: int
    k: int
    surface_class: SurfaceClass
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
        supersingular_congruence="p = 5 mod 6" if jcase.exponent == 6 else "p = 3 mod 4",
    )


def catalog(jcase: JCase) -> list[CatalogRow]:
    """Rows for the non-rational surfaces: all admissible patterns with k >= 3."""
    return [row for pat in enumerate_patterns(jcase) if (row := catalog_row(pat, jcase))]
