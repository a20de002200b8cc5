"""Zeta numerators from point counts, eigenspace factors, Newton polygons.

Every cover is over the prime field of its form, F_p with p = f.p, so
every numerator built here has q = p and its Newton polygon reads the
p-adic valuations of the coefficients unscaled.  The numerator of the zeta
function of a (possibly disconnected) smooth projective curve is
reconstructed from power sums s_i = r_i(p^i + 1) - N(p^i), r_i the
components Frobenius fixes over F_{p^i}, via Newton's identities, with the
upper half filled in by the functional equation c_{2g-i} = p^{g-i} c_i:
c_0 = 1 and that equation hold by construction, for a product of two
numerators too, so nothing re-checks them.
Every division must be exact; a non-integral coefficient means the counts
are wrong and is reported as such.  Each rebuilt factor is checked to be a
Weil polynomial by a Sturm count on integers alone: no float, no Fraction.
Integer polynomials are divided by one helper, _pseudo_divmod: the Sturm
chain takes its remainders, and the roots at the ends of [0, 4q] and
exact_quotient, on reversed polynomials, its quotients by monic divisors.

The primitive factor of V_1 + V_{a-1}, of degree 2(k-2), is rebuilt from the
full cover's power sums at levels 1..k-2 minus those of the subcovers, each
counted to its total genus, at most k-2, and checked by the mu-ordinary
polygon (Moonen, 2004) and the Hasse-Witt matrices mod p, which read no count.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .count import CountCache, count_series, field_fits
from .curve import CurveSpec, covers, eigenspace_dims, hodge_number
from .errors import CountDataError, InvariantViolation, ValidationError
from .forms import FactoredForm, J0, JCase
from .gf import _poly_trim, poly_mul

Polygon = tuple[tuple[Fraction, int], ...]  # (slope, length) segments of a Newton polygon


def _value(poly: list[int], x: int) -> int:
    return sum(c * x**i for i, c in enumerate(poly))


def _sign_changes(chain: list[list[int]], x: int) -> int:
    """Sign changes at x along a polynomial sequence, zeroes skipped."""
    signs = [v > 0 for v in (_value(poly, x) for poly in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _pseudo_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quot, rem) with c num = quot den + rem, deg rem < deg den and
    c = |lc(den)|^steps > 0: each step scales by |lc(den)| and cancels the
    top term, so no sign flips, and for a monic den the division is exact."""
    lead, deg_d = den[-1], len(den) - 1
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    rem = list(num)
    quot = [0] * max(len(rem) - deg_d, 1)
    for shift in range(len(rem) - 1 - deg_d, -1, -1):
        top = rem[-1] * sign
        rem = [scale * v for v in rem[:-1]]
        quot = [scale * v for v in quot]
        quot[shift] = top
        for j in range(deg_d):
            rem[shift + j] -= top * den[j]
    return quot, _poly_trim(rem)


def _sturm_remainder(num: list[int], den: list[int]) -> list[int]:
    """num mod den times a positive integer, content divided out."""
    rem = _pseudo_divmod(num, den)[1]
    content = gcd(*rem) or 1
    return [v // content for v in rem]


class LPolynomial(NamedTuple):
    """Integer zeta numerator: degree 2g, c_0 = 1, c_{2g-i} = q^(g-i) c_i,
    reciprocal roots of modulus sqrt(q).  lpolynomial builds it so, and a
    product of two such numerators is one."""

    coeffs: tuple[int, ...]
    q: int

    @property
    def g(self) -> int:
        return len(self.coeffs) // 2

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def check_root_moduli(self) -> None:
        """All reciprocal roots have |alpha| = sqrt(q), in integer arithmetic.

        With the functional equation, L(T) = T^g R(qT + 1/T), and alpha is
        on the sqrt(q) circle exactly when beta = alpha + q/alpha is real
        with beta^2 <= 4q.  S(z), defined by S(x^2) = (-1)^g R(x) R(-x), is
        monic of degree g with the roots beta_i^2, so the check is that all
        g roots of S lie in [0, 4q]: after dividing out the roots at the
        endpoints, a Sturm count over (0, 4q) must find every distinct root
        (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
        S is a monic integer polynomial, so dividing by z - end keeps it
        integral, and each later chain member is a positive multiple of the
        rational one (_sturm_remainder): every sign count is the same.
        """
        q, g, c = self.q, self.g, self.coeffs
        # R = c_g + sum_k c_{g-k} D_k(x), where D_k(qT + 1/T) = T^-k + q^k T^k
        r, d_prev, d = [c[g]] + [0] * g, [2], [0, 1]
        for k in range(1, g + 1):
            for j, v in enumerate(d):
                r[j] += c[g - k] * v
            d_prev, d = d, [a - q * b for a, b in zip([0, *d], d_prev + [0, 0])]
        even = poly_mul(tuple(r), tuple((-1) ** j * v for j, v in enumerate(r)))
        s = [(-1) ** g * v for v in even[::2]]
        for end in (0, 4 * q):  # divide out the roots at the endpoints
            while _value(s, end) == 0:
                s = _pseudo_divmod(s, [-end, 1])[0]
        if len(s) == 1:
            return
        chain = [s, [i * v for i, v in enumerate(s)][1:]]
        while any(rem := _sturm_remainder(chain[-2], chain[-1])):
            chain.append([-v for v in rem])
        if _sign_changes(chain, 0) - _sign_changes(chain, 4 * q) != len(s) - len(chain[-1]):
            raise InvariantViolation("reciprocal root off the sqrt(q) circle")

    def power_sums(self, n: int) -> list[int]:
        """s_1..s_n, the sums of the i-th powers of the reciprocal roots, by
        Newton's identities (c_j = 0 past the degree)."""
        c = self.coeffs + (0,) * (n - self.degree)
        sums: list[int] = []
        for j in range(1, n + 1):
            sums.append(-(j * c[j] + sum(c[t] * sums[j - t - 1] for t in range(1, j))))
        return sums


def lpolynomial(
    curve: CurveSpec, counts: Sequence[int], known: Optional[LPolynomial] = None
) -> LPolynomial:
    """The factor of the zeta numerator of a cover over F_p complementary
    to ``known``, from the cover's counts N(p^i) at levels 1, 2, ...

    With a known factor of genus g_k, a Weil polynomial, only the other
    factor is reconstructed and checked, from the power sums
    r_i(q^i + 1) - s_i(known) - N_i at levels 1..g - g_k.  Without one it
    is the whole numerator.  A non-integral coefficient or a root off the
    Weil circle raises CountDataError.
    """
    q = curve.f.p
    known = known or LPolynomial(coeffs=(1,), q=q)
    g_new = curve.total_genus - known.g
    where = f"count data inconsistent for cover a={curve.a} over F_{q}"

    sums = [pred - n for pred, n in zip(predicted_counts(curve, known, g_new), counts)]
    coeffs = [1]
    for j in range(1, g_new + 1):
        num = -(sums[j - 1] + sum(coeffs[t] * sums[j - t - 1] for t in range(1, j)))
        if num % j != 0:
            raise CountDataError(f"{where}: coefficient {j} (levels 1..{j}) is not integral")
        coeffs.append(num // j)
    for i in range(g_new - 1, -1, -1):
        coeffs.append(q ** (g_new - i) * coeffs[i])

    new = LPolynomial(coeffs=tuple(coeffs), q=q)
    try:
        new.check_root_moduli()
    except InvariantViolation as exc:
        raise CountDataError(f"{where}: levels 1..{g_new} give a factor with a {exc}") from exc
    return new


def predicted_counts(curve: CurveSpec, lpoly: LPolynomial, n: int) -> tuple[int, ...]:
    """r_i(p^i + 1) - s_i(lpoly) for i = 1..n, r_i = curve.rational_components(i):
    the counts N(p^i) that lpoly predicts when it is curve's numerator."""
    return tuple(curve.rational_components(i) * (lpoly.q**i + 1) - s
                 for i, s in enumerate(lpoly.power_sums(n), 1))


def exact_quotient(numerator: tuple[int, ...], denominator: tuple[int, ...]) -> tuple[int, ...]:
    """Divide integer polynomials with constant term 1; remainder must vanish.

    Reversed, the denominator is monic, so the division of the reversed
    polynomials runs in integers and is exact.
    """
    if denominator[0] != 1 or numerator[0] != 1:
        raise ValidationError("expected constant term 1 on both sides")
    if len(numerator) < len(denominator):
        raise InvariantViolation("denominator degree exceeds numerator degree")
    quot, rem = _pseudo_divmod(numerator[::-1], denominator[::-1])
    if any(rem):
        raise InvariantViolation(
            "branch-correction inconsistency: eigenspace factor division has a remainder"
        )
    return tuple(quot[::-1])


# ---------------------------------------------------------------------------
# full pipeline bundles

def required_level(curve: CurveSpec) -> int:
    """Levels a report lists, counted or predicted: the total genus, plus one when small."""
    g_tot = curve.total_genus
    return g_tot + 1 if 0 < g_tot <= 4 else g_tot


class ZetaBundle(NamedTuple):
    """All counting and zeta data for one form over its prime field F_p, p = f.p."""

    f: FactoredForm
    curves: tuple[CurveSpec, ...]
    series: tuple[tuple[int, ...], ...]  # N(p^i) of each cover, i = 1..required_level
    lpolys: tuple[LPolynomial, ...]
    new_factor: LPolynomial
    dims: tuple[int, ...]  # dim V_j for j = 1 .. a-1
    polygons: tuple[Polygon, ...]  # of the lpolys, then of the new factor


def zeta_bundle(f: FactoredForm, cache: Optional[CountCache] = None) -> ZetaBundle:
    """Count the covers of f over F_p, p = f.p, together, one sweep per
    level: the full cover to level dim V_1 = k-2, each subcover to its total
    genus; rebuild, check, and fill each series with predicted counts."""
    curves = covers(f)
    dims = eigenspace_dims(curves)  # checks every cover's h1 before any count

    counted = count_series(curves, [dims[0], *(c.total_genus for c in curves[1:])], cache=cache)
    sub_lpolys = [lpolynomial(c, n) for c, n in zip(curves[1:], counted[1:])]
    known = LPolynomial(coeffs=reduce(poly_mul, (lp.coeffs for lp in sub_lpolys), (1,)), q=f.p)
    new = lpolynomial(curves[0], counted[0], known=known)
    # a product of Weil polynomials is one
    lpolys = (LPolynomial(coeffs=poly_mul(new.coeffs, known.coeffs), q=f.p), *sub_lpolys)
    polygons = tuple(newton_polygon(lp) for lp in (*lpolys, new))
    _check_new_factor(f, dims[0], new, polygons[-1])
    # r_i(q^i + 1) - s_i of a Weil polynomial: within the Weil bound, so not checked again
    series = tuple(
        n + predicted_counts(c, lp, required_level(c))[len(n):]
        for c, n, lp in zip(curves, counted, lpolys)
    )
    return ZetaBundle(f, curves, series, lpolys, new, dims, polygons)


def _check_new_factor(f: FactoredForm, dim: int, new: LPolynomial, polygon: Polygon) -> None:
    """The new factor, of V_1 + V_{a-1} of dimension dim each: the orbits O
    of {1, a-1} under p have the mu-ordinary slopes #{j in O : f_j < s}/|O|,
    s = 1..dim, |O| times each, and those with a slope 0 are checked mod p."""
    a, p = f.jcase.exponent, f.p
    hodge = {j: hodge_number(f.pattern, a, j) for j in (1, a - 1)}
    orbits = ((1,), (a - 1,)) if p % a == 1 else ((1, a - 1),)
    twice = sorted(2 * sum(hodge[j] < s for j in orb) // len(orb)  # |O| <= 2
                   for orb in orbits for _ in orb for s in range(1, dim + 1))
    mu = tuple((Fraction(t, 2), twice.count(t)) for t in sorted(set(twice)))
    above, x, y = True, 0, 0
    for slope, length in polygon:  # on or above at each vertex is on or above everywhere
        x, y = x + length, y + 2 * slope.numerator * length // slope.denominator
        above = above and y >= sum(twice[:x])
    definite = hodge[1] * hodge[a - 1] == 0
    if polygon != mu if definite else not (above and y == sum(twice)):
        newton_text, mu_text = ("[" + ", ".join(f"{s} x{n}" for s, n in poly) + "]"
                                for poly in (polygon, mu))
        raise InvariantViolation(
            f"new factor over F_{p}: Newton polygon {newton_text} "
            f"{'is not' if definite else 'lies below'} the mu-ordinary polygon {mu_text} "
            f"of the orbits {', '.join(map(str, map(set, orbits)))} "
            f"(f_1 = {hodge[1]}, f_{a - 1} = {hodge[a - 1]})"
        )
    slope_zero = [orb for orb in orbits if all(hodge[j] for j in orb)]
    if not slope_zero or not field_fits(p, f.k - 1):  # cheaper than a level-(k-1) sweep
        return
    counted, route = new.coeffs, (1,)
    for orb in slope_zero:  # chi^c acts on V_{a-c}: the orbit of j is that of c = a - j
        route = poly_mul(route, tuple(orbit_factor_mod_p(f, a - orb[0])))
        if not any(pl.at_infinity for pl, _ in f.places):  # a | c m_inf: 1 - T^|O| more
            counted = poly_mul(counted, (1, *[0] * (len(orb) - 1), -1))
    counted, route = (_poly_trim([c % p for c in poly]) for poly in (counted, route))
    if counted != route:
        raise InvariantViolation(
            f"new factor over F_{p}: mod p the counts give {counted}, the Hasse-Witt matrices "
            f"of the orbits {', '.join(map(str, map(set, slope_zero)))} give {route}"
        )


# ---------------------------------------------------------------------------
# the Hasse-Witt route: an orbit's factor mod p from f, on Kronecker products

def _mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """a b mod p in 4- or 8-byte slots (8 hold any sum where F_{p^(k-1)} fits)."""
    code = "I" if min(len(a), len(b)) * (p - 1) ** 2 < 256 ** array("I").itemsize else "Q"
    a_int, b_int = (int.from_bytes(array(code, poly).tobytes(), "little") for poly in (a, b))
    out = (a_int * b_int).to_bytes((len(a) + len(b) - 1) * array(code).itemsize, "little")
    return [v % p for v in array(code, out)]


@lru_cache(maxsize=None)
def _inverses(p: int) -> tuple[int, ...]:
    """1/j mod p for j = 0..p-1 (0 for j = 0), from 1/j = -(p // j)/(p mod j)."""
    inv = [0, 1]
    for j in range(2, p):
        inv.append(-(p // j) * inv[p % j] % p)
    return tuple(inv)


def _power_mod_p(poly: tuple[int, ...], s: int, p: int) -> list[int]:
    """poly^s mod p, s < p: for x + c0 by the binomial theorem, C(s, j) c0^j
    from the coefficient before it."""
    if len(poly) > 2:  # by squaring: P^s = (P^(s // 2))^2 P^(s mod 2)
        half = _power_mod_p(poly, s // 2, p) if s > 1 else [1]
        return _mul_mod_p(_mul_mod_p(half, half, p), list(poly) if s % 2 else [1], p)
    inv, out, c0 = _inverses(p), [1], poly[0]
    for j in range(1, s + 1):
        out.append(out[-1] * c0 * (s - j + 1) * inv[j] % p)
    return out[::-1]


def _reverse_charpoly(m: list[list[int]], p: int) -> list[int]:
    """det(1 - T m) mod p, lowest first: m is similar to a Hessenberg h, and
    det(x - m) = P_n, P_{k+1} = x P_k - sum_{i <= k} h_ik h_{i+1,i}..h_{k,k-1} P_i."""
    n, h = len(m), [row[:] for row in m]
    for j in range(n - 2):
        for piv in [i for i in range(j + 1, n) if h[i][j]][:1]:  # a pivot, if column j has one
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
            for i in range(j + 2, n):
                u = h[i][j] * pow(h[j + 1][j], -1, p) % p
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    polys = [[1]]  # P_k, highest coefficient first
    for k in range(n):
        nxt, prod = [*polys[k], 0], 1
        for i in range(k, -1, -1):
            for t, c in enumerate(polys[i]):
                nxt[t + k - i + 1] -= h[i][k] * prod * c
            prod = prod * h[i][i - 1] % p  # h_{i,i-1}..h_{k,k-1} for the next i
        polys.append([c % p for c in nxt])
    return polys[n]


def orbit_factor_mod_p(f: FactoredForm, c: int) -> list[int]:
    """det(1 - T^|O| H_e1 H_e2) mod p, lowest first: the factor of the orbit
    O = {c, c'} of chi^c under p, a = f's exponent, times 1 - T^|O| when
    a | c m_inf (Manin, 1961).  H_e[u][v] = [x^(p u - v)] f_c^e, u, v = 1..B,
    f_c the finite P^m with a not dividing c m, e1 = (p c - c')/a,
    e2 = (p c' - c)/a (H_e1 alone when c' = c) and
    B = max ceil(e deg f_c / (p - 1))."""
    a, p = f.jcase.exponent, f.p
    c2 = p * c % a
    places = [(pl.poly, m) for pl, m in f.places if not pl.at_infinity and c * m % a]
    exps = [(p * c - c2) // a] if c2 == c else [(p * c - c2) // a, (p * c2 - c) // a]
    size = max(-(-e * sum((len(poly) - 1) * m for poly, m in places) // (p - 1)) for e in exps)
    mats = []
    for e in exps:  # f_c^e = low(x) high(x^p): P^(m e) = P^s P(x^p)^t, s < p
        low, high = [1], [1]
        for poly, m in places:
            t, s = divmod(m * e, p)
            low = _mul_mod_p(low, _power_mod_p(poly, s, p), p)
            high = _mul_mod_p(high, _power_mod_p(poly, t, p), p) if t else high
        if len(high) > 1:  # times high(x^p)
            low = _mul_mod_p(low, [v for h in high for v in (h, *[0] * (p - 1))], p)
        power = [0] * size + low + [0] * p * size  # row u is [x^(p u - 1)] down to [x^(p u - B)]
        mats.append([power[p * u : p * u + size][::-1] for u in range(1, size + 1)])
    m = mats[0] if len(mats) == 1 else [[sum(x * y for x, y in zip(row, col))
                                         for col in zip(*mats[1])] for row in mats[0]]
    out = [0] * (len(exps) * size + 1)
    out[:: len(exps)] = _reverse_charpoly([[v % p for v in row] for row in m], p)
    return out


# ---------------------------------------------------------------------------
# Newton polygons and the supersingularity verdict

def _v_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(lpoly: LPolynomial) -> Polygon:
    """(slope, length) segments of the lower hull of (i, v_p(c_i)), p = q,
    from c_0 to c_{2g}, slopes strictly increasing: every numerator here is
    over the prime field, so v(q) = 1 and the slopes need no scaling."""
    p = lpoly.q
    pts = [(i, _v_p(c, p)) for i, c in enumerate(lpoly.coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] when it sits on or above the chord hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    # no point the hull keeps lies on a chord, so consecutive slopes differ
    return tuple((Fraction(y2 - y1, x2 - x1), x2 - x1)
                 for (x1, y1), (x2, y2) in zip(hull, hull[1:]))


def is_pure_half(polygon: Polygon) -> bool:
    """True when the polygon is slope 1/2 alone (vacuous for L = 1)."""
    return all(slope == Fraction(1, 2) for slope, _ in polygon)


def e_curve_trace(jcase: JCase, p: int) -> int:
    """Frobenius trace of y^2 = x^3 + 1 (j = 0, CM by Z[w]) or x^3 - x
    (j = 1728, CM by Z[i]), by Cornacchia's algorithm.  It is 0 unless
    p = 1 mod e (e = 3, 4).  Then Euclid on (p, r), r a square root of -d
    (d = 3, 1) from an e-th root of unity w != +-1, stops at the first x
    with x^2 <= p = x^2 + d y^2.  The trace is +-2x, or +-2y for j = 1728
    when x is even, signed so that 3 (j = 0) or 8 divides p + 1 - t.
    p is a form's prime, so a prime > 3."""
    e, d, torsion = (3, 3, 3) if jcase == J0 else (4, 1, 8)
    if p % e != 1:
        return 0
    powers = (pow(z, (p - 1) // e, p) for z in range(2, p))
    w = next(w for w in powers if w not in (1, p - 1))
    x, r = p, (2 * w + 1 if jcase == J0 else w)
    while x * x > p:
        x, r = r, x % r
    y = isqrt((p - x * x) // d)
    if x * x + d * y * y != p:
        raise InvariantViolation(f"Cornacchia's algorithm finds no x^2 + {d} y^2 = {p}")
    t = 2 * y if jcase != J0 and x % 2 == 0 else 2 * x
    return t if (p + 1 - t) % torsion == 0 else -t


class Verdict(NamedTuple):
    theorem_applicable: bool
    curve_new_factor_pure: bool
    e_trace: int

    @property
    def e_supersingular(self) -> bool:
        return self.e_trace == 0

    @property
    def surface_artin_supersingular(self) -> bool:
        return self.curve_new_factor_pure and self.e_supersingular


def verdict_from_bundle(bundle: ZetaBundle) -> Verdict:
    f = bundle.f
    return Verdict(
        theorem_applicable=f.p % f.jcase.exponent == f.jcase.exponent - 1,  # p = -1 mod 6 or 4
        curve_new_factor_pure=is_pure_half(bundle.polygons[-1]),
        e_trace=e_curve_trace(f.jcase, f.p),
    )
