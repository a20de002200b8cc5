"""The two routes that check the new factor without a count: its Newton
polygon against the mu-ordinary polygon of the Hodge numbers, and every
cover numerator mod p against the Hasse-Witt oracle of tests/oracle.py."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from constj.forms import J0, J1728, Place, form_from_roots, parse_form
from constj.gf import poly_is_irreducible
from constj.lfunc import _mul_mod_p, _reverse_charpoly, poly_mul, zeta_bundle
from constj.taxonomy import catalog

from conftest import concrete_form
from oracle import _berkowitz, hasse_witt_numerator_mod_p

PRIMES = [p for p in range(5, 60) if all(p % d for d in range(2, p))]
POINT_BUDGET = 20_000  # points swept per row: p + p^2 + ... + p^(k-2)


def _admissible(jcase, max_k=8):
    """Every multiplicity pattern of jcase with 2 <= k <= max_k zeroes."""
    return [pattern for k in range(2, max_k + 1)
            for pattern in combinations_with_replacement(range(jcase.max_mult, 0, -1), k)
            if sum(pattern) % jcase.exponent == 0]


def _quadratic(p, rng):
    """A random monic irreducible quadratic over F_p."""
    while True:
        poly = (rng.randrange(1, p), rng.randrange(p), 1)
        if poly_is_irreducible(poly, p):
            return poly


def _oracle_rows():
    """(form, note) for every admissible pattern with k <= 8 of both
    j-cases, at up to two primes 5 <= p < 60 of each class, split and inert,
    within the point budget: one row with random roots, and one with a
    quadratic place where two multiplicities are equal (else random roots
    again)."""
    rng = random.Random(26)
    rows = []
    for jcase in (J0, J1728):
        a = jcase.exponent
        for pattern in _admissible(jcase):
            k = len(pattern)
            for residue in (1, a - 1):
                fits = [p for p in PRIMES if p % a == residue and k <= p + 1
                        and sum(p**i for i in range(1, k - 1)) <= POINT_BUDGET]
                for p, quadratic in zip(rng.sample(fits, min(2, len(fits))), (False, True)):
                    points = ["inf", *map(str, range(p))]
                    twice = [m for m in set(pattern) if pattern.count(m) > 1]
                    if quadratic and twice:
                        m = rng.choice(twice)
                        rest = list(pattern)
                        rest.remove(m)
                        rest.remove(m)
                        places = [(Place.from_poly(_quadratic(p, rng), p), m)]
                        for r, mult in zip(rng.sample(points, len(rest)), rest):
                            place = Place.infinity() if r == "inf" else Place.linear(int(r), p)
                            places.append((place, mult))
                        rows.append((parse_form(jcase, places, p), "quadratic"))
                    else:
                        rows.append((form_from_roots(jcase, list(pattern),
                                                     rng.sample(points, k), p), "roots"))
    return rows


def _mod(poly, p):
    out = [c % p for c in poly]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("jcase", [J0, J1728], ids=["j0", "j1728"])
def test_every_cover_numerator_mod_p_matches_the_hasse_witt_oracle(jcase):
    rows = [(f, note) for f, note in _oracle_rows() if f.jcase == jcase]
    seen = {(f.p % jcase.exponent == 1, note, len(f.pattern)) for f, note in rows}
    # both classes, both kinds of row, every k from 2 to 7; no row with
    # k = 8 fits: 8 points of P^1(F_p) need p >= 7, and 7^6 > POINT_BUDGET
    assert seen >= {(split, note, k) for split in (True, False)
                    for note in ("roots", "quadratic") for k in (3, 4, 5)}
    assert {k for *_, k in seen} == set(range(2, 8))
    wrong = []
    for f, note in rows:
        bundle = zeta_bundle(f)
        for cover, lp in zip(bundle.curves, bundle.lpolys):
            if _mod(lp.coeffs, f.p) != hasse_witt_numerator_mod_p(f, cover.a):
                wrong.append((f.pattern, f.p, note, cover.a))
    assert wrong == []


def _mu_ordinary(f):
    """The mu-ordinary polygon of V_1 + V_{a-1}, as (slope, length)
    segments, from the Hodge numbers f_j = -1 + sum of the fractional parts
    <-j m / a> over the zeroes, in Fractions (Moonen, 2004)."""
    a, p = f.jcase.exponent, f.p
    zeroes = [m for m in f.pattern]
    hodge = {j: -1 + sum(Fraction(-j * m, a) % 1 for m in zeroes) for j in (1, a - 1)}
    dim = len(zeroes) - 2
    orbits = [[1], [a - 1]] if p % a == 1 else [[1, a - 1]]
    slopes = sorted(Fraction(sum(hodge[j] < s for j in orb), len(orb))
                    for orb in orbits for _ in orb for s in range(1, dim + 1))
    return slopes, hodge[1] * hodge[a - 1] == 0


def _heights(segments):
    """Height of a polygon at each integer abscissa, from its segments."""
    out = [Fraction(0)]
    for slope, length in segments:
        base = out[-1]
        out.extend(base + slope * (i + 1) for i in range(length))
    return out


def _catalog_rows():
    return [pytest.param(jcase, row.pattern, p,
                         id=f"{jcase.tag}-{','.join(map(str, row.pattern))}-p{p}")
            for jcase in (J0, J1728) for row in catalog(jcase) for p in (5, 7, 11, 13)]


@pytest.mark.parametrize("jcase, pattern, p", _catalog_rows())
def test_new_factor_polygon_is_mu_ordinary_on_every_catalog_pattern(jcase, pattern, p):
    f = concrete_form(jcase, pattern, p)
    slopes, definite = _mu_ordinary(f)
    assert definite  # f_1 = k - n - 1 = 0 on every catalog row
    assert _heights(zeta_bundle(f).polygons[-1]) == _heights((s, 1) for s in slopes)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_new_factor_polygon_lies_on_or_above_the_mu_ordinary_one(data):
    jcase = data.draw(st.sampled_from([J0, J1728]))
    pattern = data.draw(st.sampled_from([pat for pat in _admissible(jcase, 6) if len(pat) > 2]))
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    points = ["inf", *map(str, range(p))]
    roots = data.draw(st.permutations(points))[: len(pattern)]
    f = form_from_roots(jcase, list(pattern), roots, p)
    slopes, definite = _mu_ordinary(f)
    newton, mu = _heights(zeta_bundle(f).polygons[-1]), _heights((s, 1) for s in slopes)
    assert newton[-1] == mu[-1]
    assert all(x >= y for x, y in zip(newton, mu))
    if definite:
        assert newton == mu


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    p=st.sampled_from([5, 7, 11, 13, 59]),
    a=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
    b=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
def test_kronecker_product_is_the_product_mod_p(p, a, b):
    a, b = [v % p for v in a], [v % p for v in b]
    assert _mul_mod_p(a, b, p) == [v % p for v in poly_mul(tuple(a), tuple(b))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_hessenberg_determinant_matches_berkowitz(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13, 59]))
    n = data.draw(st.integers(0, 12))
    entry = st.integers(0, p - 1) if data.draw(st.booleans()) else st.sampled_from([0, 0, 0, 1])
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    assert _reverse_charpoly(m, p) == _berkowitz(m, p)
