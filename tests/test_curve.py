"""Cover invariants: genus, singular Euler characteristic, eigenspace dims."""

from itertools import combinations_with_replacement
from math import gcd

import pytest

from constj.curve import CurveSpec, covers, eigenspace_dims
from constj.forms import J0, J1728, Place, parse_form
from constj.taxonomy import enumerate_patterns

from conftest import concrete_form


def riemann_hurwitz_oracle(pattern, a, n_exp):
    """Independent genus computation, summed zero by zero."""
    chi = 2 * a
    for m in pattern:
        d = gcd(a, m)
        ram = a // d
        chi -= d * (ram - 1)
    return (2 - chi) // 2


def test_genus_examples(f5553):
    assert CurveSpec(f5553, 6).genus == 4
    assert CurveSpec(f5553, 2).genus == 1
    assert CurveSpec(f5553, 3).genus == 1
    assert CurveSpec(concrete_form(J0, (5, 1)), 6).genus == 0


@pytest.mark.parametrize("a", [2, 3, 6])
def test_genus_matches_pointwise_riemann_hurwitz(a):
    for pattern in enumerate_patterns(J0):
        f = concrete_form(J0, pattern)
        assert CurveSpec(f, a).genus == riemann_hurwitz_oracle(pattern, a, 6)


def test_chi_singular_examples(f5553):
    assert CurveSpec(f5553, 6).chi_singular == -8  # 2a - k(a-1), k=4
    assert CurveSpec(f5553, 2).chi_singular == 0
    assert CurveSpec(concrete_form(J0, (5, 1)), 6).chi_singular == 2


def test_branch_correction_examples(f5553):
    assert CurveSpec(f5553, 6).branch_correction == 2  # gcds (1,1,1,3)
    assert CurveSpec(f5553, 2).branch_correction == 0  # all multiplicities odd
    assert CurveSpec(concrete_form(J0, (5, 5, 5, 5, 5, 5)), 2).branch_correction == 0


@pytest.mark.parametrize(
    "jcase,orders", [(J0, (2, 3, 6)), (J1728, (2, 4))]
)
def test_normalization_identity(jcase, orders):
    """2 - 2*genus = chi_singular + branch_correction, exactly, everywhere."""
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        for a in orders:
            c = CurveSpec(f, a)
            assert 2 - 2 * c.genus == c.chi_singular + c.branch_correction, (pattern, a)


def test_genus_additivity_j0():
    for pattern in enumerate_patterns(J0):
        f = concrete_form(J0, pattern)
        k = f.k
        assert CurveSpec(f, 6).genus == (
            (k - 2) + CurveSpec(f, 2).genus + CurveSpec(f, 3).genus
        ), pattern


def test_genus_additivity_j1728():
    for pattern in enumerate_patterns(J1728):
        f = concrete_form(J1728, pattern)
        assert CurveSpec(f, 4).genus == (f.k - 2) + CurveSpec(f, 2).genus, pattern


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_partner_has_equal_genus(jcase):
    n_exp = jcase.exponent
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        g = f.complement()
        assert CurveSpec(f, n_exp).genus == CurveSpec(g, n_exp).genus
        assert CurveSpec(f, n_exp).components == CurveSpec(g, n_exp).components


def test_components():
    assert CurveSpec(concrete_form(J0, (4, 4, 4)), 6).components == 2
    assert CurveSpec(concrete_form(J0, (4, 4, 4)), 2).components == 2
    assert CurveSpec(concrete_form(J0, (4, 4, 4)), 3).components == 1
    assert CurveSpec(concrete_form(J0, (3, 3)), 3).components == 3
    assert CurveSpec(concrete_form(J0, (5, 5, 5, 3)), 6).components == 1


def test_disconnected_cover_bookkeeping():
    """(4,4,4): the order-2 subcover is two rational curves; H^1 vanishes."""
    f = concrete_form(J0, (4, 4, 4))
    assert CurveSpec(f, 2).genus == -1  # Euler-characteristic value of two P^1s
    assert CurveSpec(f, 2).h1_dim == 0
    assert CurveSpec(f, 6).h1_dim == 4
    assert eigenspace_dims(covers(f)) == (1, 1, 0, 1, 1)


def test_eigenspace_dims_examples(f5553):
    dims = eigenspace_dims(covers(f5553))
    assert dims == (2, 1, 2, 1, 2)
    assert dims[0] == f5553.k - 2
    full = concrete_form(J0, (5, 5, 5, 5, 5, 5))
    assert eigenspace_dims(covers(full))[0] == 4

    f1728 = concrete_form(J1728, (3, 3, 3, 3))
    dims1728 = eigenspace_dims(covers(f1728))
    assert dims1728 == (2, 2, 2)
    assert dims1728[1] == 2 * CurveSpec(f1728, 2).genus
    assert sum(dims1728) == CurveSpec(f1728, 4).h1_dim == 6


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_eigenspace_dims_symmetric_and_consistent(jcase):
    n_exp = jcase.exponent
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        dims = eigenspace_dims(covers(f))
        for j in range(1, n_exp):
            assert dims[j - 1] == dims[n_exp - j - 1]
        assert dims[0] == f.k - 2
        assert sum(dims) == CurveSpec(f, n_exp).h1_dim


def h1_layout_oracle(f):
    """dim V_j read off the covers' h1 alone, a route apart from the closed
    form: k - 2 on the primitive j, h1(u^2 = f) on j = a/2, and, for the
    j-invariant 0 family, half of h1(u^3 = f) on each of j = 2, 4."""
    h1 = {c.a: c.h1_dim for c in covers(f)}
    d1 = f.k - 2
    return (d1, h1[3] // 2, h1[2], h1[3] // 2, d1) if f.jcase == J0 else (d1, h1[2], d1)


def _small_patterns():
    """Every multiset of multiplicities in [1, a-1] of size 2..8 whose sum
    a divides, for both j-cases: 258 patterns."""
    return [
        (jcase, pattern)
        for jcase in (J0, J1728)
        for k in range(2, 9)
        for pattern in combinations_with_replacement(range(jcase.max_mult, 0, -1), k)
        if sum(pattern) % jcase.exponent == 0
    ]


def test_eigenspace_dims_closed_form_matches_the_h1_layout():
    cases = _small_patterns()
    assert len(cases) == 258
    for jcase, pattern in cases:
        f = concrete_form(jcase, pattern, p=11)
        assert eigenspace_dims(covers(f)) == h1_layout_oracle(f), (jcase.tag, pattern)


@pytest.mark.parametrize(
    "jcase,places,p,dims",
    [
        (J1728, [(Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 3)], 7, (1, 0, 1)),
        (J0, [(Place.infinity(), 3), (Place.linear(4, 5), 1), (Place.from_poly((1, 4, 1), 5), 1)],
         5, (2, 1, 2, 1, 2)),
    ],
    ids=["j1728-332-quadratic3", "j0-3111-quadratic1"],
)
def test_eigenspace_dims_count_a_quadratic_place_twice(jcase, places, p, dims):
    f = parse_form(jcase, places, p=p)
    assert eigenspace_dims(covers(f)) == dims == h1_layout_oracle(f)


def test_curvespec_derived_values(f5553):
    spec = CurveSpec(f5553, 6)
    assert spec.genus == 4
    assert spec.components == 1
    assert spec.total_genus == 4
    assert spec.h1_dim == 8
    assert spec.key().endswith(":a=6")


def test_covers_are_the_full_cover_then_the_subcovers(f5553, f1728_3333):
    assert [c.a for c in covers(f5553)] == [6, 2, 3]
    assert [c.a for c in covers(f1728_3333)] == [4, 2]
    assert all(c.f is f5553 for c in covers(f5553))

