"""Factored forms: parsing, complement; the oracle's evaluation and local units."""

import re

import pytest

from constj.curve import CurveSpec
from constj.errors import ValidationError
from constj.forms import (
    FactoredForm, J0, J1728, Place, form_from_roots, parse_form
)
from constj.taxonomy import catalog, enumerate_patterns

from conftest import concrete_form
from oracle import (
    ProjPoint, enumerate_p1, evaluate, local_unit, nth_power_count, place_value, scalar_field
)


def test_parse_intro_row(f5553):
    assert f5553.n == 3
    assert f5553.k == 4
    assert f5553.pattern == (5, 5, 5, 3)


def test_parse_rejects_multiplicity_above_cap():
    with pytest.raises(ValidationError, match="multiplicity 6 > 5"):
        parse_form(J0, [(Place.infinity(), 6)], p=5)


def test_place_is_infinity_exactly_when_it_has_no_polynomial():
    assert Place.infinity().at_infinity and Place.infinity().poly is None
    assert not Place.linear(0, 5).at_infinity


@pytest.mark.parametrize(
    "fields", [{}, {"poly": (0, 1), "at_infinity": True}], ids=["neither", "both"]
)
def test_parse_rejects_place_neither_or_both_infinity_and_polynomial(fields):
    # a place holds only its polynomial, None at infinity: one that is neither
    # or both cannot be built, so no such place reaches parse_form
    with pytest.raises(TypeError):
        parse_form(J0, [(Place(**fields), 5), (Place.linear(0, 5), 1)], p=5)


def test_parse_j1728_row():
    f = form_from_roots(J1728, [3, 3, 2], ["inf", "1", "0"], p=7)
    assert f.n == 2 and f.k == 3


def test_parse_rejects_repeated_place():
    with pytest.raises(ValidationError, match="repeated place"):
        parse_form(J0, [(Place.linear(1, 5), 5), (Place.linear(1, 5), 1)], p=5)


def test_parse_rejects_bad_degree():
    with pytest.raises(ValidationError, match="not divisible"):
        form_from_roots(J0, [5, 5, 5, 1], ["0", "1", "inf", "2"], p=5)


def test_parse_rejects_reducible_place():
    # x^2 + 4 = (x+1)(x+4) over F_5
    with pytest.raises(ValidationError, match="reducible"):
        parse_form(J0, [(Place.from_poly((4, 0, 1), 5), 3)], p=5)


def test_parse_rejects_duplicate_roots():
    # two spellings of one point are one place: the message names both tokens
    for first, second in (("1", "1"), ("0", "00"), ("inf", "INF"), ("inf", "oo")):
        roots = [first, "2", "3", second]
        message = f"pairwise distinct: '{first}' and '{second}' are one point of P^1(F_5)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            form_from_roots(J0, [5, 5, 5, 3], roots, p=5)


def test_complement_examples(f5553):
    g = f5553.complement()
    assert g.pattern == (3, 1, 1, 1)
    assert g.degree == 6
    full = concrete_form(J0, (5, 5, 5, 5, 5, 5))
    assert full.complement().pattern == (1, 1, 1, 1, 1, 1)
    j = form_from_roots(J1728, [3, 3, 2], ["0", "1", "inf"], p=7)
    assert j.complement().pattern == (2, 1, 1)


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_complement_is_an_involution(jcase):
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        assert f.complement().complement().places == f.places
        assert f.degree + f.complement().degree == jcase.exponent * f.k


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_partner_n_on_catalog_patterns(jcase):
    for row in catalog(jcase):
        f = concrete_form(jcase, row.pattern)
        assert f.complement().n == f.k - f.n


def test_evaluate_vanishes_on_linear_place(f5553):
    ctx = scalar_field(5, 1)
    assert evaluate(f5553, ProjPoint.finite(ctx.el(1)), ctx).is_zero()


def test_evaluate_toy_product():
    # f = s * t, not a valid form, but evaluation is defined pointwise
    toy = FactoredForm(jcase=J0, places=((Place.linear(0, 5), 1), (Place.infinity(), 1)), p=5)
    ctx = scalar_field(5, 1)
    assert evaluate(toy, ProjPoint.finite(ctx.el(2)), ctx) == ctx.el(2)


def test_evaluate_at_generic_point(f5553):
    ctx = scalar_field(5, 1)
    value = evaluate(f5553, ProjPoint.finite(ctx.el(3)), ctx)
    # direct product: 3^5 * (3-1)^5 * 1^5 * (3-2)^3
    expected = ctx.pow(ctx.el(3), 5) * ctx.pow(ctx.el(2), 5) * ctx.pow(ctx.el(1), 3)
    assert value == expected and not value.is_zero()


@pytest.mark.parametrize(
    "p,i,builder",
    [
        (5, 1, lambda: concrete_form(J0, (5, 5, 5, 3))),
        (5, 2, lambda: concrete_form(J0, (5, 5, 5, 3))),
        (7, 1, lambda: parse_form(
            J0,
            [(Place.infinity(), 2), (Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 1)],
            p=7,
        )),
        (7, 2, lambda: parse_form(
            J0,
            [(Place.infinity(), 2), (Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 1)],
            p=7,
        )),
        (7, 3, lambda: parse_form(
            J0,
            [(Place.infinity(), 2), (Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 1)],
            p=7,
        )),
    ],
)
def test_evaluate_zero_iff_on_a_place(p, i, builder):
    f = builder()
    ctx = scalar_field(p, i)
    for point in enumerate_p1(ctx):
        vanishing = sum(
            1 for pl, _ in f.places if place_value(pl, point, ctx).is_zero()
        )
        assert vanishing <= 1
        assert evaluate(f, point, ctx).is_zero() == (vanishing == 1)


def test_local_unit_toy_at_infinity():
    # f = t^2 * s: at (1:0) the t-factor vanishes doubly, the unit is s(1,0) = 1
    toy = FactoredForm(jcase=J0, places=((Place.infinity(), 2), (Place.linear(0, 5), 1)), p=5)
    ctx = scalar_field(5, 1)
    m, c = local_unit(toy, ProjPoint.infinity(ctx), ctx)
    assert m == 2 and c == ctx.one()


def test_local_unit_direct_evaluation():
    # pattern (5,5,2) with roots {0, 1, inf}; unit at the double root (1:0)
    f = concrete_form(J0, (5, 5, 2))
    ctx = scalar_field(7, 1) if f.p == 7 else scalar_field(5, 1)
    m, c = local_unit(f, ProjPoint.infinity(ctx), ctx)
    assert m == 2
    # remaining factors: s^5 (s-t)^5 at (1:0) -> 1
    assert c == ctx.one()
    # unit at the quintic root s=0: (0-1)^5 * t(0)^2 = (-1)^5
    m0, c0 = local_unit(f, ProjPoint.finite(ctx.zero()), ctx)
    assert m0 == 5 and c0 == ctx.el(-1)


def test_local_unit_requires_a_zero(f5553):
    ctx = scalar_field(5, 1)
    with pytest.raises(ValidationError):
        local_unit(f5553, ProjPoint.finite(ctx.el(3)), ctx)


def test_local_unit_siblings_of_quadratic_place():
    # place x^2 + 1 over F_7 splits in F_49; units at the two conjugate roots
    f = parse_form(
        J0,
        [(Place.infinity(), 2), (Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 1)],
        p=7,
    )
    ctx = scalar_field(7, 2)
    quad = f.places[-1][0] if f.places[-1][0].degree == 2 else None
    roots = [
        ctx.from_code(code)
        for code in range(ctx.q)
        if place_value(quad, ProjPoint.finite(ctx.from_code(code)), ctx).is_zero()
    ]
    assert len(roots) == 2
    for r in roots:
        m, c = local_unit(f, ProjPoint.finite(r), ctx, siblings=roots)
        assert m == 1 and not c.is_zero()
        # removing the one linear factor by hand gives the same unit
        other = [x for x in roots if x != r][0]
        expected = ctx.pow(r, 2) * ctx.one() * (r - other)
        assert c == expected


def test_local_unit_class_invariant_under_chart_change():
    """Changing the representative chart scales the unit by a d-th power."""
    f = concrete_form(J0, (5, 5, 2))  # roots 0, 1, inf
    ctx = scalar_field(5, 1)
    a = 6
    # the unit at the multiplicity-2 zero (1:0), chart s = 1
    m, c = local_unit(f, ProjPoint.infinity(ctx), ctx)
    d = 2  # gcd(a, m)
    # recompute in the scaled chart (lambda, 0): both factors rescale by
    # lambda^5 each; the product changes by a 10th = (d-th)^5 power
    for lam_code in range(1, 5):
        lam = ctx.el(lam_code)
        scaled = c * ctx.pow(lam, 10)
        assert nth_power_count(ctx, scaled, d) == nth_power_count(ctx, c, d)


def test_serialization_is_canonical_and_stable(f5553):
    again = form_from_roots(J0, [3, 5, 5, 5], ["2", "0", "1", "inf"], p=5)
    assert again.serialize() == f5553.serialize()
    assert again.key() == f5553.key()
    assert f5553.serialize() == "j0;p=5;[inf]^5;[0,1]^5;[3,1]^3;[4,1]^5"


def test_form_key_of_mixed_places_is_pinned():
    """Infinity, a linear and a quadratic place: the count-cache records and
    the reports' meta.form_key hold this exact serialization as the key."""
    f = parse_form(
        J0,
        [(Place.from_poly((1, 0, 1), 7), 1), (Place.linear(0, 7), 2), (Place.infinity(), 2)],
        p=7,
    )
    assert f.serialize() == "j0;p=7;[inf]^2;[0,1]^2;[1,0,1]^1"
    assert f.key() == "j0;p=7;[inf]^2;[0,1]^2;[1,0,1]^1"
    assert not any(c.isspace() for c in CurveSpec(f, 6).key())  # a count record splits on it
