"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from constj.forms import FactoredForm, J0, J1728, JCase, form_from_roots
from constj.gf import FieldContext
from constj.lfunc import LPolynomial, _frac_divmod

from oracle import ProjPoint, enumerate_p1, evaluate, local_unit, nth_power_count, scalar_field


ROOT_POOL = ["0", "1", "inf", "2", "3", "4", "5", "6"]


def concrete_form(jcase: JCase, pattern, p: int = 5) -> FactoredForm:
    """Form with the given multiplicities at the first k canonical roots."""
    k = len(pattern)
    return form_from_roots(jcase, list(pattern), ROOT_POOL[:k], p=p)


def brute_force_count(f: FactoredForm, a: int, ctx: FieldContext) -> int:
    """Literal (x, u) double loop over the affine model, plus infinity.

    A valid smooth-model oracle whenever gcd(a, m) = 1 at every place
    (no branch needs normalization data there).
    """
    ctx = scalar_field(ctx.p, ctx.degree)
    total = 0
    for x_code in range(ctx.q):
        point = ProjPoint.finite(ctx.from_code(x_code))
        val = evaluate(f, point, ctx)
        for u_code in range(ctx.q):
            if ctx.pow(ctx.from_code(u_code), a) == val:
                total += 1
    if any(pl.at_infinity for pl, _ in f.places):
        total += 1  # u^a = 0 above (1:0)
    else:
        one = ctx.one()
        total += sum(
            1 for u_code in range(ctx.q) if ctx.pow(ctx.from_code(u_code), a) == one
        )
    return total


def naive_count(f: FactoredForm, a: int, ctx: FieldContext) -> int:
    """Count of the singular model: sum of #{u : u^a = f(P)} over P^1(F_q).

    Agrees with count_points whenever gcd(a, m) = 1 at every place; used as
    the squarefree-agreement oracle.
    """
    ctx = scalar_field(ctx.p, ctx.degree)
    total = 0
    for point in enumerate_p1(ctx):
        total += nth_power_count(ctx, evaluate(f, point, ctx), a)
    return total


def smooth_model_counts(f: FactoredForm, orders, ctx: FieldContext) -> tuple[int, ...]:
    """Points of the smooth models of u^a = f, a in orders, one point of
    P^1(F_q) at a time.

    Away from the zeroes of f: #{u : u^a = f(P)}.  At a zero of multiplicity
    m: #{Y : Y^gcd(a, m) = local unit}, one point per F_q-rational branch.
    The point at infinity is either kind.  No table and no sweep, so it is an
    oracle for count_points at every multiplicity.
    """
    ctx = scalar_field(ctx.p, ctx.degree)
    totals = [0] * len(orders)
    for point in enumerate_p1(ctx):
        val = evaluate(f, point, ctx)
        if val.is_zero():
            m, unit = local_unit(f, point, ctx)
            counts = [nth_power_count(ctx, unit, gcd(a, m)) for a in orders]
        else:
            counts = [nth_power_count(ctx, val, a) for a in orders]
        totals = [t + n for t, n in zip(totals, counts)]
    return tuple(totals)


def enumeration_power_count(ctx: FieldContext, c, n: int) -> int:
    """#\\{u : u^n = c\\} by exhausting u; the oracle for nth_power_count."""
    return sum(1 for code in range(ctx.q) if ctx.pow(ctx.from_code(code), n) == c)


def _squarefree_part(coeffs: tuple[int, ...]) -> list[Fraction]:
    """Exact squarefree part: P / gcd(P, P')."""
    poly = [Fraction(c) for c in coeffs]
    deriv = [Fraction(i * c) for i, c in enumerate(coeffs)][1:] or [Fraction(0)]
    a, b = poly, deriv
    while len(b) > 1 or b[0] != 0:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    gcd_poly = [c / a[-1] for c in a]
    quot, rem = _frac_divmod(poly, gcd_poly)
    assert not any(rem)
    return quot


def float_root_moduli_ok(lp: LPolynomial) -> bool:
    """Floating-point Weil check, the oracle for LPolynomial.check_root_moduli.

    Repeated roots are ill-conditioned for numeric root finders, so the
    roots are taken from the squarefree part (computed exactly first).
    """
    if lp.degree == 0:
        return True
    squarefree = _squarefree_part(lp.coeffs)
    scale = float(lp.q) ** 0.5
    balanced = [float(c) / scale**i for i, c in enumerate(squarefree)]
    roots = np.roots(balanced[::-1])
    return bool(np.all(np.abs(np.abs(roots) - 1.0) <= 1e-6))


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory):
    """One point-count cache directory for the whole session; heavy counts run once."""
    return tmp_path_factory.mktemp("counts")


@pytest.fixture(scope="session")
def f5553():
    return concrete_form(J0, (5, 5, 5, 3))


@pytest.fixture(scope="session")
def f_squarefree_sextic():
    return concrete_form(J0, (5, 5, 5, 5, 5, 5))


@pytest.fixture(scope="session")
def f1728_3333():
    return form_from_roots(J1728, [3, 3, 3, 3], ["0", "1", "3", "inf"], p=7)
