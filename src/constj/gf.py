"""Exact arithmetic in prime fields F_p (p > 3) and their extensions F_{p^i}.

Elements of F_{p^i} are coefficient vectors modulo a deterministic monic
irreducible: the lexicographically smallest one of the requested degree,
comparing coefficient tuples low-degree-first.  Every element also has an
integer code (base-p digits = coefficients), which is what the counting
sweeps index by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import ValidationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# univariate polynomial helpers over F_p (coefficient lists, low degree first)

def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(mod) - 1
    for d in range(len(a) - 1, dm - 1, -1):
        c = a[d] % p
        if c:
            for j in range(dm + 1):
                a[d - dm + j] = (a[d - dm + j] - c * mod[j]) % p
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1] + [0] * (len(mod) - 2)
    base = _poly_rem(a[:], mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b != [0]:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(c * inv_lead) % p for c in b]
        # a constant divisor leaves the empty remainder
        a, b = b, _poly_trim(_poly_rem(a, monic, p) or [0])
    return a


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic univariate over F_p (Rabin's test)."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] % p != 1:
        return False
    if e == 1:
        return True
    if coeffs[0] % p == 0:  # divisible by x
        return False
    mod = [c % p for c in coeffs]
    x = [0, 1]
    # x^(p^j) mod coeffs, iterated Frobenius
    fr = x[:]
    frob = []
    for _ in range(e):
        fr = _poly_powmod(fr, p, mod, p)
        frob.append(fr)
    minus_x = frob[e - 1][:]
    minus_x[1] = (minus_x[1] - 1) % p
    if _poly_trim(minus_x[:]) != [0]:
        return False
    for ell in {d for d in range(2, e + 1) if e % d == 0 and is_prime(d)}:
        diff = frob[e // ell - 1][:]
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(mod, diff, p)
        if len(_poly_trim(g)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldContext:
    """Immutable description of F_{p^degree}."""

    p: int
    degree: int
    modulus: tuple[int, ...]  # monic, length degree+1, low degree first
    q: int

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF({self.p}^{self.degree})" if self.degree > 1 else f"GF({self.p})"


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


@lru_cache(maxsize=None)
def make_field(p: int, i: int = 1) -> FieldContext:
    """Build F_{p^i} with the lexicographically smallest monic irreducible.

    Candidate moduli are compared by their coefficient tuples
    (c_0, ..., c_{i-1}), low degree first, so two runs always agree.  The
    search starts at c_0 = 1: every candidate with c_0 = 0 is divisible by x,
    and skipping them leaves the order of the rest, and so the modulus,
    unchanged.
    """
    if not isinstance(p, int) or not is_prime(p) or p <= 3:
        raise ValidationError("p must be prime > 3")
    if not isinstance(i, int) or i < 1:
        raise ValidationError("extension degree must be a positive integer")
    if i == 1:
        return FieldContext(p=p, degree=1, modulus=(0, 1), q=p)
    for tail in product(range(1, p), *[range(p)] * (i - 1)):
        cand = tail + (1,)
        if poly_is_irreducible(cand, p):
            return FieldContext(p=p, degree=i, modulus=cand, q=p**i)
    raise RuntimeError("unreachable: an irreducible of every degree exists")


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
