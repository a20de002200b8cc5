"""The fields F_{p^i} (p > 3 prime) that the counts run in.

make_field fixes F_{p^i} by a deterministic monic irreducible modulus: the
lexicographically smallest one of the requested degree, comparing
coefficient tuples low-degree-first.  An element is then named by its
integer code, whose base-p digits are its coefficients modulo that
modulus; the counting sweeps index by codes and multiply them as matrices
over F_p (see constj.count).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import ValidationError


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _PRIME_BASES (Sorenson and Webster, 2015)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the prime bases 2..41, exact for
    n below _PRIME_TEST_LIMIT (about 3.3e24); a larger n is refused."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValidationError(f"{n} is too large: primality is decided below {_PRIME_TEST_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    if n < 43 * 43:  # no prime factor up to 41, so none up to sqrt(n)
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False  # b witnesses that n is composite
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


class FieldContext(NamedTuple):
    """Immutable description of F_{p^degree}."""

    p: int
    modulus: tuple[int, ...]  # monic, length degree+1, low degree first

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def q(self) -> int:
        return self.p**self.degree

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF({self.p}^{self.degree})" if self.degree > 1 else f"GF({self.p})"


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
    if i == 1:
        return FieldContext(p=p, modulus=(0, 1))
    for tail in product(range(1, p), *[range(p)] * (i - 1)):
        cand = tail + (1,)
        if poly_is_irreducible(cand, p):  # one of every degree exists, so the loop returns
            return FieldContext(p=p, modulus=cand)
