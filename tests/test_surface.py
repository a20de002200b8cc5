"""Kodaira fibers, Euler numbers, Shioda-Tate ranks, divisor-gap check."""

import pytest

from constj.curve import eigenspace_dims
from constj.forms import J0, J1728, abstract_pattern
from constj.surface import fiber_types, invariants, mw_rank_char0, ns_perp_check
from constj.taxonomy import catalog, enumerate_patterns


def symbols(pattern, jcase=J0):
    return [fb.symbol for fb in fiber_types(abstract_pattern(jcase, pattern))]


def test_fiber_types_j0():
    assert symbols((5, 5, 5, 3)) == ["II*", "II*", "II*", "I0*"]
    assert symbols((3, 1, 1, 1)) == ["I0*", "II", "II", "II"]


def test_fiber_types_j1728():
    assert symbols((3, 3, 2), J1728) == ["III*", "III*", "I0*"]


def test_fiber_table_is_additive():
    for jcase in (J0, J1728):
        for pattern in enumerate_patterns(jcase):
            for fb in fiber_types(abstract_pattern(jcase, pattern)):
                assert fb.euler == fb.components + 1  # all additive types


def test_invariants_5553():
    inv = invariants(abstract_pattern(J0, (5, 5, 5, 3)))
    assert (inv.euler, inv.p_g, inv.b2, inv.h11) == (36, 2, 34, 30)


def test_invariants_partner_1113():
    inv = invariants(abstract_pattern(J0, (3, 1, 1, 1)))
    assert (inv.euler, inv.p_g, inv.h11) == (12, 0, 10)


def test_invariants_j1728_3333():
    inv = invariants(abstract_pattern(J1728, (3, 3, 3, 3)))
    assert (inv.euler, inv.p_g) == (36, 2)


def test_mw_ranks_examples():
    assert mw_rank_char0(abstract_pattern(J0, (5, 5, 5, 3))) == 0
    assert mw_rank_char0(abstract_pattern(J0, (3, 1, 1, 1))) == 4
    assert mw_rank_char0(abstract_pattern(J1728, (2, 1, 1))) == 2


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_shioda_tate_on_every_catalog_pattern(jcase):
    for row in catalog(jcase):
        f = abstract_pattern(jcase, row.pattern)
        g = f.complement()
        assert mw_rank_char0(f) == 0, row.pattern
        assert mw_rank_char0(g) == 2 * (f.n - 1), row.pattern
        assert invariants(f).euler == 12 * f.n
        assert invariants(g).euler == 12 * g.n
        assert invariants(f).p_g == f.k - 2


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_ns_perp_check_on_every_catalog_pattern(jcase):
    for row in catalog(jcase):
        f = abstract_pattern(jcase, row.pattern)
        assert ns_perp_check(f), row.pattern
        inv = invariants(f)
        assert inv.ns_perp_dim == 2 * eigenspace_dims(f)[1]


def test_ns_perp_examples():
    f = abstract_pattern(J0, (5, 5, 5, 3))
    assert invariants(f).ns_perp_dim == 4  # 34 - 30
    assert ns_perp_check(abstract_pattern(J0, (5, 5, 5, 5, 5, 5)))
    assert ns_perp_check(abstract_pattern(J0, (5, 5, 2)))  # the K3 row, p_g = 1


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_torelli_flag_consistency(jcase):
    for row in catalog(jcase):
        f = abstract_pattern(jcase, row.pattern)
        assert (invariants(f).p_g > 1) == (f.k > 3) == row.torelli_failure_expected
