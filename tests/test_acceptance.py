"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings.
"""

import json
import time

import pytest

import constj.count as count_mod
from constj.cli import main
from constj.count import count_points
from constj.curve import CurveSpec, covers, eigenspace_dims
from constj.forms import J0, J1728, form_from_roots
from constj.lfunc import (
    e_curve_trace,
    is_pure_half,
    newton_polygon,
    poly_mul,
    predicted_count,
    verdict_from_bundle,
    zeta_bundle,
)
from constj.gf import make_field
from constj.surface import invariants, ns_perp_check
from constj.taxonomy import catalog, enumerate_patterns

from conftest import concrete_form, naive_count
from oracle import functional_equation_holds

J0_EXPECTED = [
    (5, 1), (4, 2), (3, 3),
    (5, 5, 2), (5, 4, 3), (4, 4, 4),
    (5, 5, 5, 3), (5, 5, 4, 4),
    (5, 5, 5, 5, 4),
    (5, 5, 5, 5, 5, 5),
]

_BUNDLES: dict = {}


def _bundle(tag):
    """Bundles computed by earlier criteria, recomputed when run standalone."""
    if tag not in _BUNDLES:
        if tag == "small":
            f = form_from_roots(J0, [5, 5, 5, 3], ["0", "1", "inf", "2"], p=5)
            _BUNDLES[tag] = zeta_bundle(f)
        elif tag == "full":
            f = form_from_roots(J0, [5] * 6, ["0", "1", "2", "3", "4", "inf"], p=5)
            _BUNDLES[tag] = zeta_bundle(f)
        elif tag == "j1728":
            f = form_from_roots(J1728, [3, 3, 3, 3], ["0", "1", "3", "inf"], p=7)
            _BUNDLES[tag] = zeta_bundle(f)
    return _BUNDLES[tag]


def _passline(n, elapsed, detail):
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_1_catalog_reproduction(capsys):
    started = time.perf_counter()
    assert enumerate_patterns(J0) == J0_EXPECTED
    rows = catalog(J0)
    assert len(rows) == 7
    assert [r.pattern for r in rows] == J0_EXPECTED[3:]
    for r in rows:
        assert r.torelli_failure_expected == (r.k > 3)
    assert len(catalog(J1728)) == 2

    code = main(["catalog", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["rows"]) == 7
    code = main(["catalog", "--jcase", "1728", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["rows"]) == 2

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passline(1, elapsed, "10 J0 patterns, 7 + 2 catalog rows, Torelli flags exact")


def test_criterion_2_supersingularity_small_case():
    started = time.perf_counter()
    f = form_from_roots(J0, [5, 5, 5, 3], ["0", "1", "inf", "2"], p=5)
    bundle = zeta_bundle(f)
    _BUNDLES["small"] = bundle

    assert bundle.new_factor.degree == 4
    # exact division, remainder zero: the product reassembles the numerator
    product = poly_mul(bundle.lpolys[1].coeffs, bundle.lpolys[2].coeffs)
    assert poly_mul(product, bundle.new_factor.coeffs) == bundle.lpolys[0].coeffs
    from fractions import Fraction

    assert newton_polygon(bundle.new_factor).segments == ((Fraction(1, 2), 4),)
    assert e_curve_trace(J0, 5) == 0
    v = verdict_from_bundle(bundle)
    assert v.theorem_applicable and v.curve_new_factor_pure
    assert v.e_supersingular and v.surface_artin_supersingular

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passline(2, elapsed, "(5,5,5,3)/F_5: new factor deg 4, pure slope 1/2, a_5 = 0")


def test_criterion_3_supersingularity_full_size():
    f = form_from_roots(J0, [5] * 6, ["0", "1", "2", "3", "4", "inf"], p=5)

    started = time.perf_counter()
    bundle = zeta_bundle(f)
    # the bundle predicts level 10 from low levels; sweep F_{5^10} directly
    ctx = make_field(5, 10)
    (serial_count,) = count_points(bundle.curves[:1], ctx)
    serial_elapsed = time.perf_counter() - started
    _BUNDLES["full"] = bundle

    full = bundle.series[0]
    assert bundle.curves[0].genus == 10
    assert len(full.counts) == 10
    assert serial_count == full.counts[9]
    assert bundle.new_factor.degree == 8
    assert is_pure_half(newton_polygon(bundle.new_factor))
    assert serial_elapsed < 600.0

    # a rerun from a cold table cache must match and stay in budget
    count_mod.power_class_table.cache_clear()
    started = time.perf_counter()
    rerun = zeta_bundle(f)
    (rerun_count,) = count_points(bundle.curves[:1], ctx)
    rerun_elapsed = time.perf_counter() - started
    assert rerun_elapsed < 120.0
    assert [s.counts for s in rerun.series] == [s.counts for s in bundle.series]
    assert rerun.new_factor.coeffs == bundle.new_factor.coeffs
    assert rerun_count == full.counts[9]

    _passline(
        3,
        serial_elapsed + rerun_elapsed,
        f"genus-10 cover, F_{{5^10}} swept against the predicted count: "
        f"first {serial_elapsed:.1f}s, cold rerun {rerun_elapsed:.1f}s, new factor deg 8 pure 1/2",
    )


def test_criterion_4_j1728_case():
    started = time.perf_counter()
    f = form_from_roots(J1728, [3, 3, 3, 3], ["0", "1", "3", "inf"], p=7)
    bundle = zeta_bundle(f)
    _BUNDLES["j1728"] = bundle

    assert bundle.new_factor.degree == 4
    assert poly_mul(bundle.lpolys[1].coeffs, bundle.new_factor.coeffs) == bundle.lpolys[0].coeffs
    assert is_pure_half(newton_polygon(bundle.new_factor))
    assert e_curve_trace(J1728, 7) == 0
    v = verdict_from_bundle(bundle)
    assert v.surface_artin_supersingular and v.theorem_applicable

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passline(4, elapsed, "(3,3,3,3)/F_7 (j=1728): L4/L2 exact, deg 4, pure 1/2, a_7 = 0")


def test_criterion_5_eigendimension_identities():
    started = time.perf_counter()
    for pattern in enumerate_patterns(J0):
        f = concrete_form(J0, pattern)
        k = f.k
        full, c2, c3 = covers(f)
        assert eigenspace_dims((full, c2, c3))[1] == k - 2, pattern
        assert full.genus == (k - 2) + c2.genus + c3.genus, pattern
        for c in (c2, c3, full):
            lhs = 2 - 2 * c.genus
            rhs = (2 * c.a - k * (c.a - 1)) + c.branch_correction
            assert lhs == c.chi_singular + c.branch_correction == rhs, (pattern, c.a)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passline(5, elapsed, "all 10 J0 patterns: dims[1] = k-2, genus additivity, "
                          "normalization identity for a in {2,3,6}")


def test_criterion_6_shioda_tate_ranks():
    started = time.perf_counter()
    for jcase in (J0, J1728):
        for row in catalog(jcase):
            f = concrete_form(jcase, row.pattern)
            g = f.complement()
            inv = invariants(f)
            assert inv.mw_rank_char0 == 0, row.pattern
            assert invariants(g).mw_rank_char0 == 2 * (f.n - 1), row.pattern
            assert inv.euler == 12 * f.n
            assert inv.p_g == f.k - 2
            assert ns_perp_check(inv, eigenspace_dims(covers(f))), row.pattern
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passline(6, elapsed, "every catalog pattern: MW ranks 0 / 2(n-1), e = 12n, "
                          "p_g = k-2, divisor-gap check")


def test_criterion_7_partner_count_equality():
    started = time.perf_counter()
    for row in catalog(J0):
        f = concrete_form(J0, row.pattern)
        g = f.complement()
        for i in (1, 2):
            ctx = make_field(5, i)
            assert count_points((CurveSpec(f, 6),), ctx) == count_points(
                (CurveSpec(g, 6),), ctx
            ), (
                row.pattern,
                ctx.q,
            )
    elapsed = time.perf_counter() - started
    _passline(7, elapsed, "N(C_f) = N(C_g) at q in {5, 25} for all 7 J0 catalog patterns")


def test_criterion_8_negative_control(capsys):
    started = time.perf_counter()
    code = main(["verify", "--p", "7", "--pattern", "5,5,5,3", "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["verdict"]["theorem_applicable"] is False
    assert report["verdict"]["e_trace"] != 0
    elapsed = time.perf_counter() - started
    _passline(8, elapsed, "(5,5,5,3) at p=7: congruence fails, E ordinary, exit 0")


def test_criterion_9_oracle_battery():
    started = time.perf_counter()

    # squarefree agreement, every field with q <= 343
    sextic_roots = {5: ["0", "1", "2", "3", "4", "inf"], 7: ["0", "1", "2", "3", "4", "5"],
                    11: ["0", "1", "2", "3", "4", "inf"]}
    checked = 0
    for p, levels in ((5, (1, 2, 3)), (7, (1, 2, 3)), (11, (1, 2))):
        f = form_from_roots(J0, [1] * 6, sextic_roots[p], p=p)
        for i in levels:
            ctx = make_field(p, i)
            assert ctx.q <= 343
            for a in (2, 3, 6):
                assert count_points((CurveSpec(f, a),), ctx) == (naive_count(f, a, ctx),)
                checked += 1
    f1728 = form_from_roots(J1728, [1] * 4, ["0", "1", "2", "inf"], p=7)
    for i in (1, 2, 3):
        ctx = make_field(7, i)
        for a in (2, 4):
            assert count_points((CurveSpec(f1728, a),), ctx) == (naive_count(f1728, a, ctx),)
            checked += 1

    # Weil bounds on every count produced by the headline bundles
    from math import gcd, isqrt

    n_counts = 0
    for tag in ("small", "full", "j1728"):
        for curve, series in zip(_bundle(tag).curves, _bundle(tag).series):
            for i, n_pts in enumerate(series.counts, 1):
                q = curve.f.p**i
                r_q = gcd(curve.components, q - 1)
                assert (n_pts - r_q * (q + 1)) ** 2 <= 4 * curve.total_genus**2 * q
                n_counts += 1

    # integrality of every zeta coefficient, and exact root moduli
    for tag in ("small", "full", "j1728"):
        for lp in (*_bundle(tag).lpolys, _bundle(tag).new_factor):
            assert all(isinstance(c, int) for c in lp.coeffs)
            assert functional_equation_holds(lp)
            lp.check_root_moduli()

    # functional-equation redundancy: one extra level for every curve of
    # total genus <= 4 (the series carry level g+1 by construction)
    redundant = 0
    for tag in ("small", "full", "j1728"):
        bundle = _bundle(tag)
        for curve, series, lp in zip(bundle.curves, bundle.series, bundle.lpolys):
            g_tot = curve.total_genus
            if 0 < g_tot <= 4:
                assert len(series.counts) >= g_tot + 1
                assert predicted_count(lp, curve.components, g_tot + 1) == series.counts[g_tot]
                redundant += 1
    assert redundant >= 5

    elapsed = time.perf_counter() - started
    _passline(
        9,
        elapsed,
        f"{checked} squarefree agreements (q <= 343), Weil bounds on {n_counts} counts, "
        f"integral coefficients, {redundant} redundancy checks, exact root moduli",
    )
