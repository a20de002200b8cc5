"""Pattern enumeration and surface classification tables."""

from itertools import combinations_with_replacement

import pytest

from constj.curve import hodge_number
from constj.forms import J0, J1728
from constj.taxonomy import (
    catalog,
    classify_Xf,
    enumerate_patterns,
    is_partner_rational,
)

J0_PATTERNS = [
    (5, 1), (4, 2), (3, 3),
    (5, 5, 2), (5, 4, 3), (4, 4, 4),
    (5, 5, 5, 3), (5, 5, 4, 4),
    (5, 5, 5, 5, 4),
    (5, 5, 5, 5, 5, 5),
]

J1728_PATTERNS = [(3, 1), (2, 2), (3, 3, 2), (3, 3, 3, 3)]


def brute_force_patterns(jcase):
    """Independent enumeration: all multisets with the complement-degree rule."""
    n_exp = jcase.exponent
    out = set()
    for k in range(2, n_exp + 1):
        for combo in combinations_with_replacement(range(1, n_exp), k):
            if sum(n_exp - m for m in combo) == n_exp:
                out.add(tuple(sorted(combo, reverse=True)))
    return out


def test_enumerate_j0_exact_list():
    assert enumerate_patterns(J0) == J0_PATTERNS


def test_enumerate_j1728_exact_list():
    assert enumerate_patterns(J1728) == J1728_PATTERNS


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_enumeration_matches_brute_force(jcase):
    assert set(enumerate_patterns(jcase)) == brute_force_patterns(jcase)


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_no_pattern_reaches_the_exponent(jcase):
    for pattern in enumerate_patterns(jcase):
        assert all(1 <= m <= jcase.exponent - 1 for m in pattern)


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_pattern_arithmetic(jcase):
    for pattern in enumerate_patterns(jcase):
        assert sum(pattern) % jcase.exponent == 0
        n = sum(pattern) // jcase.exponent
        assert len(pattern) == n + 1  # k = n + 1 in the rational-partner family


def test_classification():
    assert classify_Xf((5, 1)) == "rational"
    assert classify_Xf((5, 5, 2)) == "K3"
    assert classify_Xf((5, 5, 5, 3)) == "kodaira-dimension-1"


def test_classification_rational_iff_absent_from_catalog():
    rows = {row.pattern for row in catalog(J0)}
    for pattern in enumerate_patterns(J0):
        if classify_Xf(pattern) == "rational":
            assert pattern not in rows
        else:
            assert pattern in rows


def test_is_partner_rational():
    assert is_partner_rational((5, 5, 5, 3), J0)
    assert is_partner_rational((5, 5, 5, 5, 5, 5), J0)
    # (5,5,5,1) is not even a form of the right degree; as a bare pattern the
    # complement-degree rule fails
    assert not is_partner_rational((5, 5, 5, 1), J0)
    assert not is_partner_rational((3, 3, 3, 3), J0)


def test_catalog_row_counts_and_flags():
    rows = catalog(J0)
    assert len(rows) == 7
    assert [row.pattern for row in rows] == J0_PATTERNS[3:]
    for row in rows:
        assert row.torelli_failure_expected == (row.k > 3)
        assert row.supersingular_congruence == "p = 5 mod 6"
    by_pattern = {row.pattern: row for row in rows}
    assert by_pattern[(5, 5, 2)].torelli_failure_expected is False
    assert by_pattern[(5, 5, 5, 3)].torelli_failure_expected is True

    rows1728 = catalog(J1728)
    assert len(rows1728) == 2
    assert [row.pattern for row in rows1728] == [(3, 3, 2), (3, 3, 3, 3)]
    assert all(row.supersingular_congruence == "p = 3 mod 4" for row in rows1728)


def test_enumeration_is_stable():
    assert enumerate_patterns(J0) == enumerate_patterns(J0)


@pytest.mark.parametrize("jcase", [J0, J1728])
def test_f1_is_zero_exactly_for_a_rational_partner(jcase):
    # the pattern of every form with k <= N + 1 zeroes (multiplicities
    # 1..N-1 summing to a multiple of N): all the admissible patterns (k <= N)
    # and the rest, whose partner is not rational
    n_exp = jcase.exponent
    patterns = [combo for k in range(2, n_exp + 2)
                for combo in combinations_with_replacement(range(1, n_exp), k)
                if sum(combo) % n_exp == 0]
    assert brute_force_patterns(jcase) <= {tuple(sorted(c, reverse=True)) for c in patterns}
    for pattern in patterns:
        f_1 = hodge_number(pattern, n_exp, 1)
        assert (f_1 == 0) == is_partner_rational(pattern, jcase), pattern
