"""Cover invariants: genus, singular Euler characteristic, eigenspace dims."""

from math import gcd

import pytest

from constj.curve import (
    CurveSpec,
    branch_correction,
    chi_singular,
    eigenspace_dims,
    genus,
    geometric_components,
)
from constj.forms import J0, J1728
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
    assert genus(f5553, 6) == 4
    assert genus(f5553, 2) == 1
    assert genus(f5553, 3) == 1
    assert genus(concrete_form(J0, (5, 1)), 6) == 0


@pytest.mark.parametrize("a", [2, 3, 6])
def test_genus_matches_pointwise_riemann_hurwitz(a):
    for pattern in enumerate_patterns(J0):
        f = concrete_form(J0, pattern)
        assert genus(f, a) == riemann_hurwitz_oracle(pattern, a, 6)


def test_chi_singular_examples(f5553):
    assert chi_singular(f5553, 6) == -8  # 2a - k(a-1), k=4
    assert chi_singular(f5553, 2) == 0
    assert chi_singular(concrete_form(J0, (5, 1)), 6) == 2


def test_branch_correction_examples(f5553):
    assert branch_correction(f5553, 6) == 2  # gcds (1,1,1,3)
    assert branch_correction(f5553, 2) == 0  # all multiplicities odd
    assert branch_correction(concrete_form(J0, (5, 5, 5, 5, 5, 5)), 2) == 0


@pytest.mark.parametrize(
    "jcase,orders", [(J0, (2, 3, 6)), (J1728, (2, 4))]
)
def test_normalization_identity(jcase, orders):
    """2 - 2*genus = chi_singular + branch_correction, exactly, everywhere."""
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        for a in orders:
            assert 2 - 2 * genus(f, a) == chi_singular(f, a) + branch_correction(f, a), (
                pattern,
                a,
            )


def test_genus_additivity_j0():
    for pattern in enumerate_patterns(J0):
        f = concrete_form(J0, pattern)
        k = f.k
        assert genus(f, 6) == (k - 2) + genus(f, 2) + genus(f, 3), pattern


def test_genus_additivity_j1728():
    for pattern in enumerate_patterns(J1728):
        f = concrete_form(J1728, pattern)
        assert genus(f, 4) == (f.k - 2) + genus(f, 2), pattern


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_partner_has_equal_genus(jcase):
    n_exp = jcase.exponent
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        g = f.complement()
        assert genus(f, n_exp) == genus(g, n_exp)
        assert geometric_components(f, n_exp) == geometric_components(g, n_exp)


def test_components():
    assert geometric_components(concrete_form(J0, (4, 4, 4)), 6) == 2
    assert geometric_components(concrete_form(J0, (4, 4, 4)), 2) == 2
    assert geometric_components(concrete_form(J0, (4, 4, 4)), 3) == 1
    assert geometric_components(concrete_form(J0, (3, 3)), 3) == 3
    assert geometric_components(concrete_form(J0, (5, 5, 5, 3)), 6) == 1


def test_disconnected_cover_bookkeeping():
    """(4,4,4): the order-2 subcover is two rational curves; H^1 vanishes."""
    f = concrete_form(J0, (4, 4, 4))
    assert genus(f, 2) == -1  # Euler-characteristic value of two P^1s
    assert CurveSpec(f, 2).h1_dim == 0
    assert CurveSpec(f, 6).h1_dim == 4
    assert eigenspace_dims(f).dims == (1, 1, 0, 1, 1)


def test_eigenspace_dims_examples(f5553):
    dims = eigenspace_dims(f5553)
    assert dims.dims == (2, 1, 2, 1, 2)
    assert dims[1] == f5553.k - 2
    full = concrete_form(J0, (5, 5, 5, 5, 5, 5))
    assert eigenspace_dims(full)[1] == 4

    f1728 = concrete_form(J1728, (3, 3, 3, 3))
    dims1728 = eigenspace_dims(f1728)
    assert dims1728.dims == (2, 2, 2)
    assert dims1728[2] == 2 * genus(f1728, 2)
    assert sum(dims1728.dims) == CurveSpec(f1728, 4).h1_dim == 6


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_eigenspace_dims_symmetric_and_consistent(jcase):
    n_exp = jcase.exponent
    for pattern in enumerate_patterns(jcase):
        f = concrete_form(jcase, pattern)
        dims = eigenspace_dims(f)
        for j in range(1, n_exp):
            assert dims[j] == dims[n_exp - j]
        assert dims[1] == f.k - 2
        assert sum(dims.dims) == CurveSpec(f, n_exp).h1_dim


def test_curvespec_derived_values(f5553):
    spec = CurveSpec(f5553, 6)
    assert spec.genus == 4
    assert spec.components == 1
    assert spec.total_genus == 4
    assert spec.h1_dim == 8
    assert spec.key().endswith(":a=6")
