"""Zeta numerators from point counts, eigenspace factors, Newton polygons.

Every cover is over the prime field of its form, F_p with p = f.p, so
every numerator built here has q = p and its Newton polygon reads the
p-adic valuations of the coefficients unscaled.  The numerator of the zeta
function of a (possibly disconnected, with F_p-rational components) smooth
projective curve is reconstructed from power sums s_i = r(p^i + 1) - N(p^i)
via Newton's identities, with the upper half filled in by the functional
equation c_{2g-i} = p^{g-i} c_i: c_0 = 1 and that equation hold by
construction, for a product of two numerators too, so nothing re-checks them.
Every division must be exact; a non-integral coefficient means the counts
are wrong and is reported as such.  Each rebuilt factor is checked to be a
Weil polynomial by a Sturm count on integers alone: no float, no Fraction.
Integer polynomials are divided by one helper, _pseudo_divmod: the Sturm
chain takes its remainders, and the roots at the ends of [0, 4q] and
exact_quotient, on reversed polynomials, its quotients by monic divisors.

The interesting part of H^1 of the full cover is the primitive eigenspace
factor: the full numerator is that factor times the subcover numerators.
The factor, of degree 2(k-2), is rebuilt from the full cover's power sums
at levels 1..k-2 minus those of the subcover numerators, so the full cover
is counted only at low levels; every level counted beyond k-2 must match
the product, and a mismatch aborts the run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .count import _MAX_FIELD_Q, CountCache, CountSeries, count_series
from .curve import CurveSpec, EigenDims, covers, eigenspace_dims
from .errors import (
    BranchInconsistencyError,
    CountDataError,
    InvariantViolation,
    ValidationError,
)
from .forms import FactoredForm, J0, JCase
from .gf import is_prime

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
        top = rem.pop() * sign
        rem = [scale * v for v in rem]
        quot = [scale * v for v in quot]
        quot[shift] = top
        for j in range(deg_d):
            rem[shift + j] -= top * den[j]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


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
    g: int

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

    def power_sum(self, i: int) -> int:
        """Sum of i-th powers of the reciprocal roots, by Newton's identities."""
        if i < 1:
            raise ValidationError("power sum index must be positive")
        c = self.coeffs
        deg = self.degree
        sums: list[int] = []
        for j in range(1, i + 1):
            if j <= deg:
                val = -(j * c[j] + sum(c[t] * sums[j - t - 1] for t in range(1, j)))
            else:
                val = -sum(c[t] * sums[j - t - 1] for t in range(1, deg + 1))
            sums.append(val)
        return sums[i - 1]


def lpolynomial(
    series: CountSeries, known: Optional[LPolynomial] = None
) -> tuple[LPolynomial, LPolynomial]:
    """The zeta numerator of a cover over F_p, from its counts at levels
    1..g, and its factor complementary to ``known``.

    With a known factor of genus g_k, a Weil polynomial, only the other
    factor is reconstructed and checked, from the power sums
    r(q^i + 1) - N_i - s_i(known) at levels 1..g - g_k; the numerator is
    their product.  Without one, both are the whole numerator.  Counts
    beyond that level, when present, are checked against the numerator
    (functional-equation redundancy); any mismatch or non-integral
    coefficient raises CountDataError.
    """
    curve = series.curve
    q = curve.f.p
    g_tot = curve.total_genus
    r = curve.components
    if g_tot == 0:
        trivial = LPolynomial(coeffs=(1,), q=q, g=0)
        return trivial, trivial
    if r > 1 and (q - 1) % r != 0:
        raise ValidationError(
            f"{r} components are permuted by Frobenius over F_{q}; reconstruction unsupported"
        )
    known = known or LPolynomial(coeffs=(1,), q=q, g=0)
    g_new = g_tot - known.g
    if len(series.counts) < g_new:
        raise ValidationError(f"need counts up to level {g_new}, have {len(series.counts)}")
    where = f"count data inconsistent for cover a={curve.a} over F_{q}"

    sums = [
        r * (q**i + 1) - n - known.power_sum(i) for i, n in enumerate(series.counts[:g_new], 1)
    ]
    coeffs = [1]
    for j in range(1, g_new + 1):
        num = -(sums[j - 1] + sum(coeffs[t] * sums[j - t - 1] for t in range(1, j)))
        if num % j != 0:
            raise CountDataError(f"{where}: coefficient {j} (levels 1..{j}) is not integral")
        coeffs.append(num // j)
    for i in range(g_new - 1, -1, -1):
        coeffs.append(q ** (g_new - i) * coeffs[i])

    new = LPolynomial(coeffs=tuple(coeffs), q=q, g=g_new)
    try:
        new.check_root_moduli()
    except InvariantViolation as exc:
        raise CountDataError(f"{where}: levels 1..{g_new} give a factor with a {exc}") from exc
    lpoly = new
    if known.g:  # a product of Weil polynomials is one
        lpoly = LPolynomial(coeffs=poly_mul(new.coeffs, known.coeffs), q=q, g=g_tot)
    for i, n_actual in enumerate(series.counts[g_new:], g_new + 1):
        predicted = predicted_count(lpoly, r, i)
        if predicted != n_actual:
            raise CountDataError(
                f"{where}: level {i} has {n_actual}, "
                f"the numerator from levels 1..{g_new} predicts {predicted}"
            )
    return lpoly, new


def predicted_count(lpoly: LPolynomial, components: int, i: int) -> int:
    return components * (lpoly.q**i + 1) - lpoly.power_sum(i)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def exact_quotient(numerator: tuple[int, ...], denominator: tuple[int, ...]) -> tuple[int, ...]:
    """Divide integer polynomials with constant term 1; remainder must vanish.

    Reversed, the denominator is monic, so the division of the reversed
    polynomials runs in integers and is exact.
    """
    if denominator[0] != 1 or numerator[0] != 1:
        raise ValidationError("expected constant term 1 on both sides")
    if len(numerator) < len(denominator):
        raise BranchInconsistencyError("denominator degree exceeds numerator degree")
    quot, rem = _pseudo_divmod(numerator[::-1], denominator[::-1])
    if any(rem):
        raise BranchInconsistencyError(
            "branch-correction inconsistency: eigenspace factor division has a remainder"
        )
    return tuple(quot[::-1])


# ---------------------------------------------------------------------------
# full pipeline bundles

def required_level(curve: CurveSpec) -> int:
    """Levels to count: the total genus, plus one redundancy level when small."""
    g_tot = curve.total_genus
    return g_tot + 1 if 0 < g_tot <= 4 else g_tot


class ZetaBundle(NamedTuple):
    """All counting and zeta data for one form over its prime field F_p, p = f.p."""

    f: FactoredForm
    curves: tuple[CurveSpec, ...]
    series: tuple[CountSeries, ...]
    lpolys: tuple[LPolynomial, ...]
    new_factor: LPolynomial
    dims: EigenDims
    polygons: tuple[NewtonPolygon, ...]  # of the lpolys, then of the new factor


def zeta_bundle(f: FactoredForm, cache: Optional[CountCache] = None) -> ZetaBundle:
    """Count the covers of f over F_p, p = f.p, and reconstruct their
    numerators.

    The covers are counted together, one sweep per level.  The subcovers
    are counted to their required levels.  The full cover is
    counted only to level min(required level, k-1): its primitive factor,
    of degree 2(k-2), comes from the power sums at levels 1..k-2 minus those
    of the subcover numerators, level k-1 is checked against the product,
    and the levels up to the required one are filled in with predicted
    counts.
    """
    p = f.p
    curves = covers(f)
    full = curves[0]
    dims = eigenspace_dims(curves)  # the one check of dim V_1 = k - 2, the new genus

    needed = [required_level(c) for c in curves]
    counted = [min(needed[0], f.k - 1), *needed[1:]]
    for c, n in zip(curves, counted):
        i = next((i for i in range(1, n + 1) if p**i > _MAX_FIELD_Q), None)
        if i is not None:
            raise ValidationError(
                f"counting cover a={c.a} at level {i} needs F_q with q = {p}^{i} = {p**i}, "
                f"above the field-size limit {_MAX_FIELD_Q}"
            )

    full_series, *sub_series = count_series(curves, counted, cache=cache)
    sub_lpolys = [lpolynomial(s)[0] for s in sub_series]
    denom = (1,)
    for lp in sub_lpolys:
        denom = poly_mul(denom, lp.coeffs)
    known = LPolynomial(coeffs=denom, q=p, g=sum(lp.g for lp in sub_lpolys))

    full_lpoly, new = lpolynomial(full_series, known=known)
    # r(q^i + 1) - s_i of a Weil polynomial, r_q = r (lpolynomial refuses
    # r not dividing p - 1): within the Weil bound, so not checked again
    predicted = tuple(
        predicted_count(full_lpoly, full.components, i)
        for i in range(counted[0] + 1, needed[0] + 1)
    )
    full_series = CountSeries(curve=full, counts=full_series.counts + predicted)
    return ZetaBundle(
        f=f,
        curves=curves,
        series=(full_series, *sub_series),
        lpolys=(full_lpoly, *sub_lpolys),
        new_factor=new,
        dims=dims,
        polygons=tuple(newton_polygon(lp) for lp in (full_lpoly, *sub_lpolys, new)),
    )


# ---------------------------------------------------------------------------
# Newton polygons and the supersingularity verdict

class NewtonPolygon(NamedTuple):
    """Slope/length pairs of the lower convex hull of (i, v_p(c_i)): the
    hull runs from c_0 to c_{2g}, slopes strictly increasing."""

    segments: tuple[tuple[Fraction, int], ...]


def _v_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_polygon(lpoly: LPolynomial) -> NewtonPolygon:
    """Lower hull of the p-adic valuations, p = q: every numerator here is
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
    segments: list[tuple[Fraction, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        length = x2 - x1
        if segments and segments[-1][0] == slope:
            segments[-1] = (slope, segments[-1][1] + length)
        else:
            segments.append((slope, length))
    return NewtonPolygon(segments=tuple(segments))


def is_pure_half(polygon: NewtonPolygon) -> bool:
    """True when the polygon is slope 1/2 alone (vacuous for L = 1)."""
    return all(slope == Fraction(1, 2) for slope, _ in polygon.segments)


def e_curve_trace(jcase: JCase, p: int) -> int:
    """Frobenius trace of y^2 = x^3 + 1 (j = 0, CM by Z[w]) or x^3 - x
    (j = 1728, CM by Z[i]), by Cornacchia's algorithm.  It is 0 unless
    p = 1 mod e (e = 3, 4).  Then Euclid on (p, r), r a square root of -d
    (d = 3, 1) from an e-th root of unity w != +-1, stops at the first x
    with x^2 <= p = x^2 + d y^2.  The trace is +-2x, or +-2y for j = 1728
    when x is even, signed so that 3 (j = 0) or 8 divides p + 1 - t."""
    if p <= 3 or not is_prime(p):
        raise ValidationError("p must be prime > 3")
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
    e_supersingular: bool
    e_trace: int

    @property
    def surface_artin_supersingular(self) -> bool:
        return self.curve_new_factor_pure and self.e_supersingular


def verdict_from_bundle(bundle: ZetaBundle) -> Verdict:
    f = bundle.f
    trace = e_curve_trace(f.jcase, f.p)
    return Verdict(
        theorem_applicable=f.p % f.jcase.exponent == f.jcase.exponent - 1,  # p = -1 mod 6 or 4
        curve_new_factor_pure=is_pure_half(bundle.polygons[-1]),
        e_supersingular=trace == 0,
        e_trace=trace,
    )
