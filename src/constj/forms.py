"""Factored binary forms over F_p.

A form is a product of pairwise coprime places raised to bounded
multiplicities.  A place is either the point at infinity (the linear form t),
or a monic-in-s irreducible binary form, stored dehomogenized at t = 1 as a
monic univariate polynomial.  Questions that depend on the multiplicity
pattern alone are answered from bare tuples (see taxonomy).

Conventions: points of P^1 are written (s : t) with canonical representative
t = 1 or (1 : 0); the linear place with root r is s - r*t, so "root r" means
the place vanishes at (r : 1), and "inf" means it vanishes at (1 : 0).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from .errors import ValidationError
from .gf import make_field, poly_is_irreducible


class JCase(NamedTuple):
    """Constant j-invariant family: cover exponent and multiplicity cap."""

    tag: str
    exponent: int  # 6 for j=0, 4 for j=1728

    @property
    def max_mult(self) -> int:
        return self.exponent - 1


J0 = JCase("j0", 6)
J1728 = JCase("j1728", 4)
JCASES = {"0": J0, "1728": J1728}  # by the j-invariant, as the CLI's --jcase names it


class Place(NamedTuple):
    """One zero locus: infinity or a monic irreducible over F_p."""

    poly: Optional[tuple[int, ...]]  # monic univariate, low degree first; None at infinity

    @classmethod
    def infinity(cls) -> "Place":
        return cls(poly=None)

    @classmethod
    def linear(cls, root: int, p: int) -> "Place":
        return cls(poly=((-root) % p, 1))

    @classmethod
    def from_poly(cls, coeffs: Sequence[int], p: int) -> "Place":
        c = tuple(x % p for x in coeffs)
        if len(c) < 2 or c[-1] != 1:
            raise ValidationError(f"place polynomial must be monic of degree >= 1: {coeffs}")
        return cls(poly=c)

    @property
    def at_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        if self.poly is not None:
            return len(self.poly) - 1
        return 1  # infinity is a single geometric zero

    def sort_key(self) -> tuple:
        return (self.degree, () if self.at_infinity else self.poly)

    def describe(self) -> str:
        if self.at_infinity:
            return "t"
        c0 = self.poly[0]
        if self.degree == 1:
            return "s" if c0 == 0 else f"(s+{c0}t)"
        inner = "+".join(
            f"{c}" if e == 0 else (f"s^{e}" if c == 1 else f"{c}s^{e}")
            for e, c in reversed(list(enumerate(self.poly)))
            if c
        )
        return f"({inner})".replace("s^1+", "s+")


class _FormFields(NamedTuple):
    jcase: JCase
    places: tuple[tuple[Place, int], ...]
    p: int


class FactoredForm(_FormFields):
    """A binary form given by its places and multiplicities.

    This is the single source of truth: degree, n, k, the radical, the
    complement, evaluation, and all downstream invariants derive from it.
    Instances built through parse_form are validated; direct construction is
    for internal/toy use.  No __slots__: the cached key needs an instance dict.
    """

    @property
    def degree(self) -> int:
        return sum(pl.degree * m for pl, m in self.places)

    @property
    def k(self) -> int:
        """Number of geometric zeroes."""
        return sum(pl.degree for pl, _ in self.places)

    @property
    def n(self) -> int:
        return self.degree // self.jcase.exponent

    @property
    def pattern(self) -> tuple[int, ...]:
        """One multiplicity per geometric zero, sorted descending."""
        out: list[int] = []
        for pl, m in self.places:
            out.extend([m] * pl.degree)
        return tuple(sorted(out, reverse=True))

    def complement(self) -> "FactoredForm":
        """Swap each multiplicity m for exponent - m (the partner form)."""
        n_exp = self.jcase.exponent
        places = tuple((pl, n_exp - m) for pl, m in self.places)
        return FactoredForm(jcase=self.jcase, places=_sort_places(places), p=self.p)

    def key(self) -> str:
        return self._key

    @cached_property
    def _key(self) -> str:
        """Canonical serialization, built once per form: sorted places,
        lowest coefficient first, no whitespace (count records and cover
        keys hold it)."""
        parts = [self.jcase.tag, f"p={self.p}"]
        for pl, m in _sort_places(self.places):
            body = "inf" if pl.at_infinity else ",".join(str(c) for c in pl.poly)
            parts.append(f"[{body}]^{m}")
        return ";".join(parts)


def _sort_places(places: Sequence[tuple[Place, int]]) -> tuple[tuple[Place, int], ...]:
    return tuple(sorted(places, key=lambda pm: pm[0].sort_key()))


def parse_form(
    jcase: JCase,
    places: Sequence[tuple[Place, int]],
    p: int,
) -> FactoredForm:
    """Validate and build a FactoredForm.

    Rejects repeated places, multiplicities outside [1, exponent-1], total degree
    not divisible by the exponent, and reducible place polynomials.
    """
    make_field(p, 1)  # validates p prime > 3
    seen = set()
    for pl, m in places:
        where = pl.describe()
        if pl.poly is not None:
            if any(not 0 <= c < p for c in pl.poly):
                raise ValidationError(f"place {where}: coefficients out of range mod {p}")
            if not poly_is_irreducible(pl.poly, p):
                raise ValidationError(f"place {where}: polynomial is reducible over F_{p}")
        if not 1 <= m <= jcase.max_mult:
            raise ValidationError(f"place {where}: multiplicity {m} > {jcase.max_mult}"
                                  if m > jcase.max_mult
                                  else f"place {where}: multiplicity {m} < 1")
        key = pl.sort_key()
        if key in seen:
            raise ValidationError(f"repeated place {where}")
        seen.add(key)
    form = FactoredForm(jcase=jcase, places=_sort_places(places), p=p)
    if form.degree % jcase.exponent != 0:
        raise ValidationError(
            f"degree {form.degree} is not divisible by {jcase.exponent}"
        )
    if form.n < 1:
        raise ValidationError("form must have positive degree")
    return form


def form_from_roots(
    jcase: JCase,
    mults: Sequence[int],
    roots: Sequence[Union[int, str]],
    p: int,
) -> FactoredForm:
    """Build a form with linear places at the given roots of P^1.

    A root is an element of F_p written in ASCII decimal digits (the place
    s - r*t) or "inf", "oo" or "infinity" in any case (the place t).
    """
    if len(mults) != len(roots):
        raise ValidationError(f"{len(mults)} multiplicities but {len(roots)} roots")
    tokens: dict[Place, str] = {}  # the token that named each place, in order
    for r in roots:
        token = str(r)
        if token.lower() in ("inf", "oo", "infinity"):
            pl = Place.infinity()
        elif not (token.isascii() and token.isdigit()):
            raise ValidationError(f"root {token!r} is not an element of F_{p} or inf")
        elif int(token) >= p:
            raise ValidationError(f"root {token} out of range for F_{p}")
        else:
            pl = Place.linear(int(token), p)
        if pl in tokens:
            raise ValidationError(f"roots must be pairwise distinct: {tokens[pl]!r} and "
                                  f"{token!r} are one point of P^1(F_{p})")
        tokens[pl] = token
    return parse_form(jcase, list(zip(tokens, mults)), p=p)
