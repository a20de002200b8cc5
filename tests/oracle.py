"""The tests' references: scalar arithmetic in F_{p^i} for the count path,
and polynomial division and a Sturm chain over the rationals for lfunc.

Elements are coefficient tuples modulo make_field's modulus, multiplied one
at a time in pure Python; their integer codes (base-p digits =
coefficients) are the count path's codes.  constj counts with matrices over
F_p on blocks of codes and shares none of this code, so agreement between
the two checks both.  Likewise constj's Weil check runs its Sturm chain on
integers, and fraction_root_moduli_ok runs the same chain in Fractions,
with _frac_divmod, the reference for lfunc's integer division helper.
constj finds the trace of the family's elliptic curve in closed form, by
Cornacchia's algorithm; e_curve_trace_by_euler counts its points, testing
each x for a square by Euler's criterion, and trace_fits_group_order checks
a trace past the reach of a count by multiplying points of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from constj.errors import ValidationError
from constj.forms import J0, FactoredForm, JCase, Place
from constj.gf import FieldContext, _poly_rem, make_field
from constj.lfunc import LPolynomial, poly_mul


class ScalarField(FieldContext):
    """make_field's F_{p^degree}, with element arithmetic."""

    # -- element constructors ------------------------------------------------

    def el(self, *coeffs: int) -> "FieldElement":
        c = [x % self.p for x in coeffs]
        if len(c) > self.degree:
            raise ValidationError(f"too many coefficients for degree {self.degree}")
        c += [0] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def zero(self) -> "FieldElement":
        return self.el()

    def one(self) -> "FieldElement":
        return self.el(1)

    def from_code(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise ValidationError(f"code {code} out of range for q={self.q}")
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(code % self.p)
            code //= self.p
        return FieldElement(self, tuple(coeffs))

    def code(self, a: "FieldElement") -> int:
        c = 0
        for digit in reversed(a.coeffs):
            c = c * self.p + digit
        return c

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        return FieldElement(self, tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        return FieldElement(self, tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: "FieldElement") -> "FieldElement":
        return FieldElement(self, tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        out = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    out[i + j] += ai * bj
        red = _poly_rem([x % self.p for x in out], list(self.modulus), self.p)
        return FieldElement(self, tuple(red))

    def pow(self, a: "FieldElement", e: int) -> "FieldElement":
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: "FieldElement") -> "FieldElement":
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return self.pow(a, self.q - 2)


def scalar_field(p: int, i: int = 1) -> ScalarField:
    ctx = make_field(p, i)
    return ScalarField(ctx.p, ctx.degree, ctx.modulus, ctx.q)


@dataclass(frozen=True)
class FieldElement:
    ctx: FieldContext
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.sub(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.mul(self, other)

    def __neg__(self) -> "FieldElement":
        return self.ctx.neg(self)

    def __pow__(self, e: int) -> "FieldElement":
        return self.ctx.pow(self, e)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.mul(self, self.ctx.inv(other))

    def __repr__(self) -> str:  # pragma: no cover
        return f"el{self.coeffs}"


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^1(F_q), stored by its unique canonical representative.

    Canonical form: (s : 1) for finite points, (1 : 0) for the point at
    infinity.
    """

    s: FieldElement
    t: FieldElement

    @classmethod
    def of_pair(cls, s: FieldElement, t: FieldElement) -> "ProjPoint":
        if t.is_zero():
            if s.is_zero():
                raise ValidationError("(0, 0) is not a projective point")
            return cls(s.ctx.one(), t)
        return cls(s / t, t.ctx.one())

    @classmethod
    def finite(cls, x: FieldElement) -> "ProjPoint":
        return cls(x, x.ctx.one())

    @classmethod
    def infinity(cls, ctx: FieldContext) -> "ProjPoint":
        return cls(ctx.one(), ctx.zero())

    @property
    def is_infinity(self) -> bool:
        return self.t.is_zero()


def nth_power_count(ctx: FieldContext, c: FieldElement, n: int) -> int:
    """Number of u in F_q with u^n = c.

    Zero has the single root u = 0; a nonzero c has gcd(n, q-1) roots when
    it is an n-th power and none otherwise.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if c.is_zero():
        return 1
    d = gcd(n, ctx.q - 1)
    probe = ctx.pow(c, (ctx.q - 1) // d)
    return d if probe == ctx.one() else 0


def enumerate_p1(ctx: FieldContext):
    """Yield the q+1 points of P^1(F_q): finite points by code, then infinity."""
    for code in range(ctx.q):
        yield ProjPoint.finite(ctx.from_code(code))
    yield ProjPoint.infinity(ctx)


def place_value(pl: Place, point: ProjPoint, ctx: FieldContext) -> FieldElement:
    """Value of the place's form at a canonical representative.

    Finite points use the chart t = 1, infinity uses s = 1; places are monic
    in s, so every finite place has value 1 at (1 : 0).
    """
    if pl.at_infinity:
        return point.t
    if point.is_infinity:
        return ctx.one()
    acc = ctx.zero()
    for c in reversed(pl.poly):
        acc = acc * point.s + ctx.el(c)
    return acc


def evaluate(f: FactoredForm, point: ProjPoint, ctx: FieldContext) -> FieldElement:
    """Value of the dehomogenized form at the canonical representative."""
    if ctx.p != f.p:
        raise ValidationError(f"form over F_{f.p} evaluated in characteristic {ctx.p}")
    acc = ctx.one()
    for pl, m in f.places:
        acc = acc * ctx.pow(place_value(pl, point, ctx), m)
    return acc


def local_unit(
    f: FactoredForm,
    point: ProjPoint,
    ctx: FieldContext,
    siblings: Optional[Sequence[FieldElement]] = None,
) -> tuple[int, FieldElement]:
    """Multiplicity m and unit part c of f at one of its zeroes.

    c is the value of f with the one F_q-linear factor vanishing at the point
    removed m times: the product of all other places' values and, for a
    higher-degree place, of (s - s') over the place's other F_q-roots s'.
    Those other roots can be passed in; otherwise they are found by scanning
    F_q, which is only sensible at small q.  The counting sweep does not use
    this function, so the smooth-model oracle of the tests, which does, is
    an independent route to the same counts.
    """
    vanishing = None
    c = ctx.one()
    for pl, m in f.places:
        v = place_value(pl, point, ctx)
        if v.is_zero():
            if vanishing is not None:
                raise ValidationError("point lies on two places; places must be coprime")
            vanishing = (pl, m)
        else:
            c = c * ctx.pow(v, m)
    if vanishing is None:
        raise ValidationError("local_unit called at a point where f does not vanish")
    pl, m = vanishing
    if not pl.at_infinity and pl.degree > 1:
        if siblings is None:
            siblings = []
            for code in range(ctx.q):
                x = ctx.from_code(code)
                if place_value(pl, ProjPoint.finite(x), ctx).is_zero():
                    siblings.append(x)
        others = [x for x in siblings if x != point.s]
        if len(others) != pl.degree - 1:
            raise ValidationError(
                f"expected {pl.degree - 1} sibling roots of {pl.describe()}, got {len(others)}"
            )
        for x in others:
            c = c * ctx.pow(point.s - x, m)
    if c.is_zero():
        raise ValidationError("local unit must be nonzero")
    return m, c


# ---------------------------------------------------------------------------
# the Weil check in rational arithmetic


def _frac_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = num[:]
    deg_d = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - deg_d, 1)
    for i in range(len(num) - 1 - deg_d, -1, -1):
        c = num[i + deg_d] / den[-1]
        quot[i] = c
        if c:
            for j in range(deg_d + 1):
                num[i + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _value(poly: list[Fraction], x: int) -> Fraction:
    return sum((c * x**i for i, c in enumerate(poly)), Fraction(0))


def _sign_changes(chain: list[list[Fraction]], x: int) -> int:
    """Sign changes at x along a polynomial sequence, zeroes skipped."""
    signs = [v > 0 for v in (_value(poly, x) for poly in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def fraction_root_moduli_ok(lp: LPolynomial) -> bool:
    """LPolynomial.check_root_moduli with its Sturm chain over the
    rationals: every member the exact remainder, nothing scaled."""
    lp.check_functional_equation()
    q, g, c = lp.q, lp.g, lp.coeffs
    r, d_prev, d = [c[g]] + [0] * g, [2], [0, 1]
    for k in range(1, g + 1):
        for j, v in enumerate(d):
            r[j] += c[g - k] * v
        d_prev, d = d, [a - q * b for a, b in zip([0, *d], d_prev + [0, 0])]
    even = poly_mul(tuple(r), tuple((-1) ** j * v for j, v in enumerate(r)))
    s = [Fraction((-1) ** g * v) for v in even[::2]]
    for end in (0, 4 * q):  # divide out the roots at the endpoints
        while _value(s, end) == 0:
            s = _frac_divmod(s, [Fraction(-end), Fraction(1)])[0]
    if len(s) == 1:
        return True
    chain = [s, [i * v for i, v in enumerate(s)][1:]]
    while any(rem := _frac_divmod(chain[-2], chain[-1])[1]):
        chain.append([-v for v in rem])
    return _sign_changes(chain, 0) - _sign_changes(chain, 4 * q) == len(s) - len(chain[-1])


# ---------------------------------------------------------------------------
# the trace of the family's elliptic curve: one Euler criterion per x, or
# the group order p + 1 - t on a few points


def e_curve_trace_by_euler(jcase: JCase, p: int) -> int:
    """lfunc.e_curve_trace's count of y^2 = x^3 + 1 (j = 0) or x^3 - x
    (j = 1728) over F_p, with a pow per x."""
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + 1) % p if jcase == J0 else (x * x * x - x) % p
        if rhs == 0:
            count += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            count += 2
    return p + 1 - count


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the non-zero square a modulo the odd prime p, by
    Tonelli-Shanks."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


Point = Optional[tuple[int, int]]  # None is the point at infinity


def _ec_add(u: Point, v: Point, a: int, p: int) -> Point:
    """u + v on y^2 = x^3 + a x + b over F_p, in affine coordinates."""
    if u is None or v is None:
        return v if u is None else u
    (x1, y1), (x2, y2) = u, v
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if u == v:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, u: Point, a: int, p: int) -> Point:
    """n u by double-and-add."""
    out = None
    while n:
        if n & 1:
            out = _ec_add(out, u, a, p)
        u, n = _ec_add(u, u, a, p), n >> 1
    return out


def trace_fits_group_order(jcase: JCase, p: int, t: int, points: int = 4) -> bool:
    """True when p + 1 - t kills the first few points P = (x, y) of
    y^2 = x^3 + 1 (j = 0) or x^3 - x (j = 1728) over F_p with y != 0, and,
    for t != 0, p + 1 + t fails to kill one of them: the sign is pinned too."""
    a, b = (0, 1) if jcase == J0 else (-1, 0)
    found: list[Point] = []
    x = 2
    while len(found) < points:
        rhs = (x * x * x + a * x + b) % p
        if rhs and pow(rhs, (p - 1) // 2, p) == 1:
            found.append((x, sqrt_mod(rhs, p)))
        x += 1
    return all(_ec_mul(p + 1 - t, pt, a, p) is None for pt in found) and (
        t == 0 or any(_ec_mul(p + 1 + t, pt, a, p) is not None for pt in found)
    )
