"""Zeta numerators, eigenspace factor, Newton polygons, verdicts."""

from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import constj.count as count_mod
import constj.lfunc as lfunc_mod
from constj.cli import main
from constj.count import CountCache, CountSeries, count_series
from constj.curve import CurveSpec, covers, eigenspace_dims
from constj.errors import CountDataError, InvariantViolation
from constj.forms import J0, J1728, JCASES, Place, form_from_roots, parse_form
from constj.gf import is_prime, make_field
from constj.lfunc import (
    LPolynomial,
    Verdict,
    _pseudo_divmod,
    _sturm_remainder,
    e_curve_trace,
    exact_quotient,
    is_pure_half,
    lpolynomial,
    newton_polygon,
    poly_mul,
    predicted_count,
    required_level,
    verdict_from_bundle,
    zeta_bundle,
)
from constj.taxonomy import catalog

from conftest import concrete_form, float_root_moduli_ok, smooth_model_counts
from oracle import (
    _frac_divmod,
    e_curve_trace_by_euler,
    fraction_root_moduli_ok,
    functional_equation_holds,
    trace_fits_group_order,
)


def test_lpolynomial_of_elliptic_curve():
    f = parse_form(
        J0,
        [(Place.infinity(), 3), (Place.linear(4, 5), 1), (Place.from_poly((1, 4, 1), 5), 1)],
        p=5,
    )
    (series,) = count_series((CurveSpec(f, 2),), (2,))
    lp = lpolynomial(series)[0]
    assert lp.coeffs == (1, 0, 5)  # trace zero: supersingular at p = 5


def test_lpolynomial_of_rational_curve():
    (series,) = count_series((CurveSpec(concrete_form(J0, (5, 1)), 6),), (0,))
    lp = lpolynomial(series)[0]
    assert lp.coeffs == (1,)
    assert lp.degree == 0


def test_lpolynomial_full_cover(f5553):
    (series,) = count_series((CurveSpec(f5553, 6),), (5,))
    lp = lpolynomial(series)[0]
    assert lp.degree == 8
    assert functional_equation_holds(lp)
    assert all(isinstance(c, int) for c in lp.coeffs)


@pytest.mark.parametrize(
    "p, cover, level, delta, message",
    [(5, 0, 2, 2, "mu-ordinary"), (5, 1, 1, 1, "mu-ordinary"), (7, 0, 2, 2, "Hasse-Witt"),
     (7, 1, 1, 2, "Hasse-Witt"), (13, 2, 1, 3, "Hasse-Witt")],
    ids=["inert-a6", "inert-a2", "split-a6", "split-a2", "split-a3"],
)
def test_new_factor_checks_catch_a_wrong_count(monkeypatch, p, cover, level, delta, message):
    # a wrong count that still gives integral Weil numerators, at a level
    # they read: with no level counted past them, the polygon (inert p) or
    # the new factor mod p (split p) catches it, whichever cover it is of
    f = concrete_form(J0, (5, 5, 5, 3), p)
    real = lfunc_mod.count_series

    def tampered(curves, levels, cache=None):
        series = list(real(curves, levels, cache=cache))
        counts = list(series[cover].counts)
        counts[level - 1] += delta
        series[cover] = CountSeries(curve=series[cover].curve, counts=tuple(counts))
        return tuple(series)

    monkeypatch.setattr(lfunc_mod, "count_series", tampered)
    with pytest.raises(InvariantViolation, match=message):
        zeta_bundle(f)


def test_lpolynomial_integrality_guard(f5553):
    curve = CurveSpec(f5553, 6)
    (series,) = count_series((curve,), (4,))
    tampered = tuple(n if i != 3 else n + 1 for i, n in enumerate(series.counts, 1))
    with pytest.raises(CountDataError):
        lpolynomial(CountSeries(curve=curve, counts=tampered))


def test_predicted_count_reproduces_extra_level(f5553):
    curve = CurveSpec(f5553, 6)
    (series,) = count_series((curve,), (5,))
    lp = lpolynomial(CountSeries(curve=curve, counts=series.counts[:4]))[0]
    assert predicted_count(curve, lp, 5) == series.counts[4]


@pytest.mark.parametrize("p, top", [(5, 5), (11, 3)])
def test_numerators_predict_the_smooth_model_past_the_counted_levels(p, top):
    # the covers of orders 6 and 3 of (3,3,3,3) split into 3 components
    # over the algebraic closure; at p = 2 mod 3 Frobenius fixes one at odd
    # levels and all three at even ones, and each numerator predicts both
    f = concrete_form(J0, (3, 3, 3, 3), p=p)
    bundle = zeta_bundle(f)
    orders = [c.a for c in bundle.curves]
    for i in range(1, top + 1):
        oracle = smooth_model_counts(f, orders, make_field(p, i))
        predicted = tuple(predicted_count(c, lp, i) for c, lp in zip(bundle.curves, bundle.lpolys))
        assert predicted == oracle, i


def test_exact_quotient_and_remainder_error():
    a = (1, 2, 1)
    b = (1, 1)
    assert exact_quotient(poly_mul(a, b), b) == a
    with pytest.raises(InvariantViolation, match="remainder"):
        exact_quotient((1, 2, 2), (1, 1))


def test_new_factor_small_case(f5553):
    nf = zeta_bundle(f5553).new_factor
    assert nf.degree == 4 == 2 * (f5553.k - 2)
    assert nf.coeffs == (1, 0, 0, 0, 25)
    assert newton_polygon(nf) == ((Fraction(1, 2), 4),)
    assert is_pure_half(newton_polygon(nf))


def test_new_factor_squarefree_sextic_degree(f_squarefree_sextic, shared_cache):
    cache = CountCache(shared_cache, f_squarefree_sextic)
    bundle = zeta_bundle(f_squarefree_sextic, cache=cache)
    assert bundle.new_factor.degree == 8  # 2(k-2), k = 6
    assert bundle.new_factor.degree == 2 * eigenspace_dims(covers(f_squarefree_sextic))[0]


def test_new_factor_j1728(f1728_3333):
    bundle = zeta_bundle(f1728_3333)
    assert bundle.new_factor.degree == 4
    assert is_pure_half(newton_polygon(bundle.new_factor))
    # whole Jacobian of the order-4 cover is not supersingular at p=7;
    # only the primitive part must be
    assert not is_pure_half(newton_polygon(bundle.lpolys[0]))


def test_new_factor_division_exact_for_every_catalog_pattern(shared_cache):
    from constj.taxonomy import catalog

    for row in catalog(J0):
        f = concrete_form(J0, row.pattern)
        bundle = zeta_bundle(f, cache=CountCache(shared_cache, f))
        assert bundle.new_factor.degree == 2 * (row.k - 2)
        product = bundle.lpolys[1].coeffs
        product = poly_mul(product, bundle.lpolys[2].coeffs)
        product = poly_mul(product, bundle.new_factor.coeffs)
        assert product == bundle.lpolys[0].coeffs
    for row in catalog(J1728):
        f = form_from_roots(J1728, list(row.pattern), ["0", "1", "3", "inf"][: row.k], p=7)
        bundle = zeta_bundle(f)
        assert bundle.new_factor.degree == 2 * (row.k - 2)
        assert poly_mul(bundle.lpolys[1].coeffs, bundle.new_factor.coeffs) == bundle.lpolys[0].coeffs


def test_newton_polygon_supersingular_shape():
    lp = LPolynomial(coeffs=(1, 0, 5), q=5)
    assert newton_polygon(lp) == ((Fraction(1, 2), 2),)
    assert is_pure_half(newton_polygon(lp))


def test_newton_polygon_ordinary_shape():
    # (1 - T)(1 - 5T) = 1 - 6T + 5T^2: unit root plus slope-one root
    lp = LPolynomial(coeffs=(1, -6, 5), q=5)
    assert newton_polygon(lp) == (
        (Fraction(0), 1),
        (Fraction(1), 1),
    )
    assert not is_pure_half(newton_polygon(lp))


def test_newton_polygon_trivial():
    lp = LPolynomial(coeffs=(1,), q=5)
    assert newton_polygon(lp) == ()
    assert is_pure_half(newton_polygon(lp))


def test_e_curve_traces():
    assert e_curve_trace(J0, 5) == 0
    assert e_curve_trace(J0, 7) == -4
    assert e_curve_trace(J0, 11) == 0  # 11 = 5 mod 6
    assert e_curve_trace(J1728, 7) == 0
    assert e_curve_trace(J1728, 5) == -2  # 5 = 1 mod 4: ordinary


def test_e_curve_trace_matches_euler_criterion_below_3000():
    primes = [p for p in range(5, 3000) if all(p % d for d in range(2, isqrt(p) + 1))]
    for jcase in (J0, J1728):
        assert [e_curve_trace(jcase, p) for p in primes] == [
            e_curve_trace_by_euler(jcase, p) for p in primes
        ]


@pytest.mark.parametrize(
    "jcase, p, trace",
    [
        (J0, 10000141, -4258),
        (J0, 1000000009, 47798),
        (J1728, 1000000009, -7494),
        (J0, 1000000007, 0),  # 2 mod 3: supersingular
        (J1728, 2**61 - 1, 0),  # 3 mod 4: supersingular
    ],
)
def test_e_curve_trace_past_a_count_matches_the_group_order(jcase, p, trace):
    assert e_curve_trace(jcase, p) == trace
    assert trace_fits_group_order(jcase, p, trace)


def test_e_curve_trace_at_large_split_primes_matches_the_group_order():
    # the first primes past 10^12 and 10^18 that are 1 mod 12 split in both Z[w] and Z[i]
    for start in (10**12, 10**18):
        p = next(n for n in range(start - start % 12 + 13, start + 10**4, 12) if is_prime(n))
        for jcase in (J0, J1728):
            trace = e_curve_trace(jcase, p)
            assert trace != 0 and trace_fits_group_order(jcase, p, trace)


def test_cornacchia_check_names_the_prime(monkeypatch):
    monkeypatch.setattr(lfunc_mod, "isqrt", lambda n: isqrt(n) + 1)
    with pytest.raises(InvariantViolation, match="= 1000000009"):
        e_curve_trace(J0, 1000000009)


def test_verdict_small_case(f5553):
    v = verdict_from_bundle(zeta_bundle(f5553))
    assert v.theorem_applicable
    assert v.curve_new_factor_pure
    assert v.e_supersingular and v.e_trace == 0
    assert v.surface_artin_supersingular


def test_verdict_negative_control():
    f = form_from_roots(J0, [5, 5, 5, 3], ["0", "1", "inf", "2"], p=7)
    v = verdict_from_bundle(zeta_bundle(f))
    assert not v.theorem_applicable
    assert v.e_trace != 0 and not v.e_supersingular
    assert not v.surface_artin_supersingular


def test_verdict_j1728(f1728_3333):
    v = verdict_from_bundle(zeta_bundle(f1728_3333))
    assert v.theorem_applicable and v.surface_artin_supersingular


def test_verdict_at_a_second_prime_each_family():
    # p = 11 = 5 mod 6: the j=0 claim must hold there too
    f = form_from_roots(J0, [5, 5, 5, 3], ["0", "1", "inf", "2"], p=11)
    v = verdict_from_bundle(zeta_bundle(f))
    assert v.theorem_applicable and v.surface_artin_supersingular
    # p = 11 = 3 mod 4: same for j = 1728, on the K3 row
    g = form_from_roots(J1728, [3, 3, 2], ["0", "1", "inf"], p=11)
    bundle = zeta_bundle(g)
    w = verdict_from_bundle(bundle)
    assert w.theorem_applicable and w.surface_artin_supersingular
    assert bundle.new_factor.degree == 2


def test_verdict_reports_falsification_without_raising(monkeypatch, f5553):
    bundle = zeta_bundle(f5553)
    monkeypatch.setattr(lfunc_mod, "is_pure_half", lambda *a, **k: False)
    v = verdict_from_bundle(bundle)
    assert v.theorem_applicable and not v.surface_artin_supersingular


@pytest.mark.parametrize("pure", [True, False])
@pytest.mark.parametrize("e_ss", [True, False])
def test_surface_verdict_is_the_conjunction_of_its_parts(pure, e_ss):
    v = Verdict(
        theorem_applicable=True,
        curve_new_factor_pure=pure,
        e_trace=0 if e_ss else 2,
    )
    assert v.surface_artin_supersingular is (pure and e_ss)


@pytest.mark.parametrize(
    "jcase,p,pattern,roots,orders,message",
    [
        ("0", 5, "5,5,5,3", "0,1,inf,2", {6}, "cover a=6: eigenspaces give h1 = 8, Riemann-Hurwitz 10"),
        ("0", 5, "5,5,5,3", "0,1,inf,2", {2}, "cover a=2: eigenspaces give h1 = 2, Riemann-Hurwitz 4"),
        ("1728", 7, "3,3,3,3", "0,1,3,inf", {4, 2},
         "cover a=4: eigenspaces give h1 = 6, Riemann-Hurwitz 8"),
    ],
    ids=["j0-a6", "j0-a2", "j1728-every-cover"],
)
def test_patched_h1_exits_2_with_the_eigenspace_message(
    monkeypatch, capsys, jcase, p, pattern, roots, orders, message
):
    # eigenspace_dims checks every cover's h1 against the closed-form V_j,
    # and zeta_bundle calls it before any count: 2 more in the h1 of the
    # covers of the given orders trips it there.  2 more on every cover of a
    # j = 1728 form keeps h1(full) - h1(subcover) = 2(k - 2), so a check of
    # the primitive part alone would pass it on to the counts
    real_h1 = CurveSpec.h1_dim

    def off_by_two(self):
        return real_h1.func(self) + (2 if self.a in orders else 0)

    monkeypatch.setattr(CurveSpec, "h1_dim", property(off_by_two))
    mults = [int(m) for m in pattern.split(",")]
    f = form_from_roots(JCASES[jcase], mults, roots.split(","), p=p)
    with pytest.raises(InvariantViolation, match=message):
        zeta_bundle(f)
    argv = ["verify", "--jcase", jcase, "--p", str(p), "--pattern", pattern, "--roots", roots]
    assert main(argv) == 2
    assert f"HARD FAILURE: {message}" in capsys.readouterr().err


def _catalog_bundle_cases():
    return [
        pytest.param(jcase, row.pattern, p, id=f"{jcase.tag}-{','.join(map(str, row.pattern))}-p{p}")
        for jcase in (J0, J1728)
        for row in catalog(jcase)
        for p in (5, 7, 11, 13)
    ]


@pytest.mark.parametrize("jcase, pattern, p", _catalog_bundle_cases())
def test_every_bundle_count_is_within_the_weil_bound(jcase, pattern, p, shared_cache):
    # count_series checks the counts it reads or counts; zeta_bundle's
    # predicted counts are not checked at run time, as they follow from a
    # Weil polynomial: this holds them, and every other count, to the bound
    f = concrete_form(jcase, pattern, p)
    bundle = zeta_bundle(f, cache=CountCache(shared_cache, f))
    assert len(bundle.series[0].counts) == required_level(bundle.curves[0])
    for curve, series in zip(bundle.curves, bundle.series):
        for i, n in enumerate(series.counts, 1):
            count_mod._assert_weil(curve, i, n)


def test_root_moduli_check_rejects_non_weil_polynomial():
    from constj.errors import InvariantViolation

    # 1 - 6T + 5T^2 has reciprocal roots 1 and 5: off the sqrt(5) circle
    lp = LPolynomial(coeffs=(1, -6, 5), q=5)
    with pytest.raises(InvariantViolation, match="circle"):
        lp.check_root_moduli()


def _root_check_passes(lp: LPolynomial) -> bool:
    try:
        lp.check_root_moduli()
    except InvariantViolation as exc:
        assert "circle" in str(exc)
        return False
    return True


def _product_of_quadratics(traces, q):
    coeffs = (1,)
    for a in traces:
        coeffs = poly_mul(coeffs, (1, -a, q))
    return LPolynomial(coeffs=coeffs, q=q)


@pytest.mark.parametrize("q", [5, 7, 25, 49, 125])
def test_root_check_weil_bound_edges(q):
    b = isqrt(4 * q)  # floor(2 sqrt(q))
    for a, weil in ((b + 1, False), (-b - 1, False), (b, True), (-b, True)):
        lp = LPolynomial(coeffs=(1, a, q), q=q)
        assert _root_check_passes(lp) is weil
        assert float_root_moduli_ok(lp) is weil
    # beta = +-i: the functional equation holds, the Weil bound does not
    lp = LPolynomial(coeffs=(1, 0, 2 * q + 1, 0, q * q), q=q)
    assert not _root_check_passes(lp) and not float_root_moduli_ok(lp)


@pytest.mark.parametrize("coeffs, q", [((1, 0, 10, 0, 25), 5), ((1, 10, 25), 25)])
def test_root_check_accepts_repeated_roots(coeffs, q):
    lp = LPolynomial(coeffs=coeffs, q=q)
    assert _root_check_passes(lp) and float_root_moduli_ok(lp)


def test_root_check_rejects_a_root_past_a_repeated_boundary_root():
    # S(z) = (z - 4q)^2 (z - 5q)^2 at q = 25: every Sturm polynomial vanishes
    # at 4q unless the boundary roots are divided out first
    boundary = _product_of_quadratics([10, 10], 25)
    lp = LPolynomial(coeffs=poly_mul(boundary.coeffs, (1, 0, -75, 0, 625)), q=25)
    assert not _root_check_passes(lp) and not float_root_moduli_ok(lp)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q=st.sampled_from([5, 7, 9, 11, 25, 49, 125]), data=st.data())
def test_root_check_on_products_of_quadratics(q, data):
    b = isqrt(4 * q)
    traces = data.draw(st.lists(st.integers(-b, b), min_size=1, max_size=4))
    assert _root_check_passes(_product_of_quadratics(traces, q))
    bad = data.draw(st.integers(0, len(traces) - 1))
    traces[bad] = data.draw(st.sampled_from([1, -1])) * data.draw(st.integers(b + 1, b + 5))
    assert not _root_check_passes(_product_of_quadratics(traces, q))


@st.composite
def _weil_or_symmetric(draw) -> LPolynomial:
    """A product of Weil quadratics, with traces at the bound +-floor(2 sqrt q)
    and repeated factors, or a polynomial with random c_1..c_g in the Weil
    coefficient range and the rest from the functional equation."""
    q = draw(st.sampled_from([5, 7, 11, 13, 25, 49, 125, 5**6]))
    b = isqrt(4 * q)
    if draw(st.booleans()):
        trace = st.sampled_from([b, -b]) | st.integers(-b, b)
        traces = draw(st.lists(trace, min_size=1, max_size=6))
        traces = (traces * 2)[: draw(st.integers(len(traces), 6))]
        return _product_of_quadratics(traces, q)
    g = draw(st.integers(1, 6))
    low = [1] + [
        draw(st.integers(-comb(2 * g, i) * isqrt(q**i), comb(2 * g, i) * isqrt(q**i)))
        for i in range(1, g + 1)
    ]
    coeffs = low + [q ** (g - i) * low[i] for i in range(g - 1, -1, -1)]
    return LPolynomial(coeffs=tuple(coeffs), q=q)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(lp=_weil_or_symmetric())
def test_integer_root_check_agrees_with_rational_and_float_oracles(lp):
    assert _root_check_passes(lp) == fraction_root_moduli_ok(lp) == float_root_moduli_ok(lp)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    num=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
    den=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(lambda d: d[-1] != 0),
)
def test_sturm_remainder_is_a_positive_multiple_of_the_remainder(num, den):
    rem = _sturm_remainder(num, den)
    exact = _frac_divmod([Fraction(c) for c in num], [Fraction(c) for c in den])[1]
    if not any(exact):
        assert not any(rem)
        return
    assert len(rem) == len(exact)
    ratio = Fraction(rem[-1]) / exact[-1]
    assert ratio > 0 and [ratio * c for c in exact] == rem


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    num=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
    den=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(lambda d: d[-1] != 0),
    monic=st.booleans(),
)
def test_pseudo_divmod_is_a_scaled_division(num, den, monic):
    if monic:
        den = den[:-1] + [1]
    # c num = quot den + rem, c = |lc(den)|^steps: c = 1 for a monic den
    quot, rem = _pseudo_divmod(num, den)
    steps = max(len(num) - len(den) + 1, 0)
    c = abs(den[-1]) ** steps
    assert len(rem) < len(den)
    assert len(quot) == max(steps, 1)
    product = poly_mul(tuple(quot), tuple(den))
    width = max(len(product), len(num))

    def pad(poly):
        return list(poly) + [0] * (width - len(poly))

    assert pad([c * v for v in num]) == [a + b for a, b in zip(pad(product), pad(rem))]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    a=st.lists(st.integers(-50, 50), min_size=0, max_size=6),
    b=st.lists(st.integers(-50, 50), min_size=0, max_size=6),
    bump=st.integers(1, 5),
)
def test_exact_quotient_matches_the_rational_division(a, b, bump):
    a, b = (1, *a), (1, *b)
    assume(a[-1] != 0 and b[-1] != 0)
    product = poly_mul(a, b)
    expect = _frac_divmod([Fraction(c) for c in product], [Fraction(c) for c in b])[0]
    assert exact_quotient(product, b) == a == tuple(expect)
    if len(b) > 1:  # b has degree >= 1 and b(0) = 1: it does not divide bump x
        off = (product[0], product[1] + bump, *product[2:])
        assert any(_frac_divmod([Fraction(c) for c in off], [Fraction(c) for c in b])[1])
        with pytest.raises(InvariantViolation, match="remainder"):
            exact_quotient(off, b)


def _full_genus_route_cases():
    cases = []
    for jcase in (J0, J1728):
        for row in catalog(jcase):
            for p in (5, 7, 11, 13):
                full = CurveSpec(concrete_form(jcase, row.pattern, p), jcase.exponent)
                if p**full.total_genus <= 10**6:
                    tag = ",".join(map(str, row.pattern))
                    cases.append(pytest.param(jcase, row.pattern, p, id=f"{jcase.tag}-{tag}-p{p}"))
    return cases


def _oracle_cases():
    cases = [pytest.param(*case.values, None, id=case.id) for case in _full_genus_route_cases()]
    # the acceptance bundles not among them
    cases.append(pytest.param(J0, (5,) * 6, 5, None, id="j0-5,5,5,5,5,5-p5"))
    cases.append(pytest.param(J1728, (3, 3, 3, 3), 7, "0,1,3,inf", id="j1728-3,3,3,3-p7-roots"))
    return cases


@pytest.mark.parametrize("jcase, pattern, p, roots", _oracle_cases())
def test_exact_root_check_agrees_with_float_oracle(jcase, pattern, p, roots):
    if roots is None:
        f = concrete_form(jcase, pattern, p)
    else:
        f = form_from_roots(jcase, list(pattern), roots.split(","), p=p)
    bundle = zeta_bundle(f)
    for lp in (*bundle.lpolys, bundle.new_factor):
        assert _root_check_passes(lp) and float_root_moduli_ok(lp)


@pytest.mark.parametrize("jcase, pattern, p", _full_genus_route_cases())
def test_bundle_matches_full_genus_route(jcase, pattern, p):
    # the oracle counts the full cover to its required level, reconstructs
    # its numerator from the first g counts alone and divides out the
    # subcovers; the bundle counted only to k - 2 and predicted the rest
    f = concrete_form(jcase, pattern, p)
    bundle = zeta_bundle(f)
    full = bundle.curves[0]
    (series,) = count_series((full,), (required_level(full),))
    numerator = lpolynomial(CountSeries(curve=full, counts=series.counts[: full.total_genus]))[0]
    denom = (1,)
    for lp in bundle.lpolys[1:]:
        denom = poly_mul(denom, lp.coeffs)
    assert bundle.lpolys[0] == numerator
    assert bundle.new_factor.coeffs == exact_quotient(numerator.coeffs, denom)
    assert bundle.series[0].counts == series.counts


def test_lpolynomial_with_known_factor_matches_plain(f5553):
    curve = CurveSpec(f5553, 6)
    (four,) = count_series((curve,), (4,))
    plain = lpolynomial(four)[0]
    bundle = zeta_bundle(f5553)
    known = LPolynomial(coeffs=poly_mul(bundle.lpolys[1].coeffs, bundle.lpolys[2].coeffs), q=5)
    # the genus-4 cover needs levels 1..4, its new factor levels 1..k-2 = 1..2
    (two,) = count_series((curve,), (2,))
    assert lpolynomial(two, known=known) == (plain, bundle.new_factor)

