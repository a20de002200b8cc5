"""Kodaira fibers, Euler numbers, Shioda-Tate ranks, divisor-gap check."""

from itertools import combinations_with_replacement

import pytest

from constj.curve import covers, eigenspace_dims
from constj.forms import J0, J1728
from constj.surface import FIBERS, invariants, ns_perp_check
from constj.taxonomy import catalog, enumerate_patterns, is_partner_rational

from conftest import concrete_form


def symbols(pattern, jcase=J0):
    return invariants(concrete_form(jcase, pattern))["fibers"]


def test_fiber_types_j0():
    assert symbols((5, 5, 5, 3)) == ["II*", "II*", "II*", "I0*"]
    assert symbols((3, 1, 1, 1)) == ["I0*", "II", "II", "II"]


def test_fiber_types_j1728():
    assert symbols((3, 3, 2), J1728) == ["III*", "III*", "I0*"]


def test_fiber_table_is_additive():
    for jcase in (J0, J1728):
        for pattern in enumerate_patterns(jcase):
            for m in concrete_form(jcase, pattern).pattern:
                _, euler, components = FIBERS[jcase][m]
                assert euler == components + 1  # all additive types


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_fiber_table_has_euler_number_12m_over_N_for_each_multiplicity(jcase):
    # a zero of multiplicity m in [1, N-1] gives a fiber of Euler number 12m/N,
    # which is what makes e = 12n for a form of degree nN
    n_exp = jcase.exponent
    assert sorted(FIBERS[jcase]) == list(range(1, n_exp))
    for m, (_, euler, _) in FIBERS[jcase].items():
        assert euler * n_exp == 12 * m


def test_each_call_returns_its_own_section():
    f = concrete_form(J0, (5, 5, 5, 3))
    first = invariants(f)
    first["fibers"].append("I1")
    first["p_g"] = -1
    assert invariants(f)["fibers"] == ["II*", "II*", "II*", "I0*"]
    assert invariants(f)["p_g"] == 2


def test_invariants_5553():
    inv = invariants(concrete_form(J0, (5, 5, 5, 3)))
    assert (inv["euler"], inv["p_g"], inv["b2"], inv["h11"]) == (36, 2, 34, 30)


def test_invariants_partner_1113():
    inv = invariants(concrete_form(J0, (3, 1, 1, 1)))
    assert (inv["euler"], inv["p_g"], inv["h11"]) == (12, 0, 10)


def test_invariants_j1728_3333():
    inv = invariants(concrete_form(J1728, (3, 3, 3, 3)))
    assert (inv["euler"], inv["p_g"]) == (36, 2)


def mw_rank(f):
    return invariants(f)["mw_rank_char0"]


def test_mw_ranks_examples():
    assert mw_rank(concrete_form(J0, (5, 5, 5, 3))) == 0
    assert mw_rank(concrete_form(J0, (3, 1, 1, 1))) == 4
    assert mw_rank(concrete_form(J1728, (2, 1, 1))) == 2


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_shioda_tate_on_every_catalog_pattern(jcase):
    for row in catalog(jcase):
        f = concrete_form(jcase, row.pattern)
        g = f.complement()
        assert mw_rank(f) == 0, row.pattern
        assert mw_rank(g) == 2 * (f.n - 1), row.pattern
        assert invariants(f)["euler"] == 12 * f.n
        assert invariants(g)["euler"] == 12 * g.n
        assert invariants(f)["p_g"] == f.k - 2


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_ns_perp_check_on_every_catalog_pattern(jcase):
    for row in catalog(jcase):
        f = concrete_form(jcase, row.pattern)
        inv, dims = invariants(f), eigenspace_dims(covers(f))
        assert ns_perp_check(inv, dims), row.pattern
        assert inv["ns_perp_dim"] == 2 * dims[0]


def test_ns_perp_examples():
    f = concrete_form(J0, (5, 5, 5, 3))
    assert invariants(f)["ns_perp_dim"] == 4  # 34 - 30
    for g in (concrete_form(J0, (5, 5, 5, 5, 5, 5)), concrete_form(J0, (5, 5, 2))):  # p_g = 4, 1
        assert ns_perp_check(invariants(g), eigenspace_dims(covers(g)))


def form_patterns(jcase):
    # every multiset of k <= N + 1 multiplicities in [1, N-1] with a sum divisible by N
    n_exp = jcase.exponent
    return [pat for k in range(1, n_exp + 2)
            for pat in combinations_with_replacement(range(n_exp - 1, 0, -1), k)
            if sum(pat) % n_exp == 0]


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_ns_perp_check_holds_exactly_when_the_partner_is_rational(jcase):
    patterns = form_patterns(jcase)
    assert len(patterns) == {J0: 131, J1728: 13}[jcase]
    for pattern in patterns:
        f = concrete_form(jcase, pattern, p=7)  # k <= 7 roots: 0, 1, inf, 2..5
        verdict = ns_perp_check(invariants(f), eigenspace_dims(covers(f)))
        assert verdict == is_partner_rational(pattern, jcase), pattern


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_torelli_flag_consistency(jcase):
    for row in catalog(jcase):
        f = concrete_form(jcase, row.pattern)
        assert (invariants(f)["p_g"] > 1) == (f.k > 3) == row.torelli_failure_expected
