"""Field construction; the oracle's arithmetic, power-residue counts, P^1 enumeration."""

import random

import pytest

from constj.errors import ValidationError
from constj.gf import _PRIME_TEST_LIMIT, is_prime, make_field, poly_is_irreducible

from conftest import enumeration_power_count
from oracle import ProjPoint, enumerate_p1, nth_power_count, scalar_field


def test_make_field_prime_fields():
    assert make_field(5, 1).q == 5
    assert make_field(7, 1).q == 7
    assert make_field(5, 1).modulus == (0, 1)


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973, 75361, 101101,
     126217, 172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001],
)
def test_is_prime_rejects_carmichael_numbers(n):
    assert not _trial_division_is_prime(n)
    assert not is_prime(n)


def test_is_prime_on_large_numbers():
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(134217757)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    # the limit itself is a strong pseudoprime to every base 2..41: refused
    assert _PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    with pytest.raises(ValidationError, match="too large"):
        is_prime(_PRIME_TEST_LIMIT)


def test_make_field_f25():
    ctx = make_field(5, 2)
    assert ctx.q == 25
    assert len(ctx.modulus) == 3 and ctx.modulus[-1] == 1
    assert poly_is_irreducible(ctx.modulus, 5)
    # lexicographically smallest: x^2 + x + 1 over F_5
    assert ctx.modulus == (1, 1, 1)


@pytest.mark.parametrize(
    "p,i", [(5, 3), (7, 2), (11, 2), (7, 3), (5, 4), (5, 5), (5, 6), (7, 4), (13, 3)]
)
def test_make_field_modulus_is_smallest_irreducible(p, i):
    ctx = make_field(p, i)
    assert ctx.q == p**i
    assert poly_is_irreducible(ctx.modulus, p)
    # nothing lexicographically smaller is irreducible
    from itertools import product

    for tail in product(range(p), repeat=i):
        cand = tuple(tail) + (1,)
        if cand == ctx.modulus:
            break
        assert not poly_is_irreducible(cand, p)


@pytest.mark.parametrize(
    "p,i,modulus",
    [
        (5, 9, (1, 0, 0, 0, 0, 0, 0, 2, 3, 1)),
        (5, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1)),
        (7, 7, (1, 0, 0, 0, 0, 0, 6, 1)),
    ],
)
def test_make_field_flagship_moduli_frozen(p, i, modulus):
    # counts in the cache are keyed by level, so these must never move
    assert make_field(p, i).modulus == modulus


@pytest.mark.parametrize("bad", [4, 2, 3, 1, 0, -5, 6, 9])
def test_make_field_rejects_bad_p(bad):
    with pytest.raises(ValidationError):
        make_field(bad, 1)


def test_make_field_reproducible():
    a = make_field.__wrapped__(7, 4)
    b = make_field.__wrapped__(7, 4)
    assert a.modulus == b.modulus


def test_fermat_pow():
    ctx = scalar_field(5, 1)
    assert ctx.pow(ctx.el(2), 4) == ctx.one()


def test_inverse_in_f7():
    ctx = scalar_field(7, 1)
    assert ctx.inv(ctx.el(3)) == ctx.el(5)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero())


def test_extension_multiplication_reduces():
    ctx = scalar_field(5, 2)  # modulus x^2 + x + 1
    x = ctx.el(0, 1)
    assert x * x == ctx.el(4, 4)  # x^2 = -x - 1


def test_code_roundtrip():
    ctx = scalar_field(5, 3)
    for code in range(0, ctx.q, 7):
        assert ctx.code(ctx.from_code(code)) == code


@pytest.mark.parametrize("p,i", [(5, 1), (5, 2), (7, 3), (11, 2)])
def test_field_axioms_randomized(p, i):
    ctx = scalar_field(p, i)
    rng = random.Random(20240 + p * i)
    one = ctx.one()
    for _ in range(10_000):
        a = ctx.from_code(rng.randrange(ctx.q))
        b = ctx.from_code(rng.randrange(ctx.q))
        c = ctx.from_code(rng.randrange(ctx.q))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * ctx.inv(a) == one
        assert a + (-a) == ctx.zero()


@pytest.mark.parametrize("p,i", [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (11, 1), (11, 2)])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_power_count_sums_to_q(p, i, n):
    ctx = scalar_field(p, i)
    total = sum(nth_power_count(ctx, ctx.from_code(c), n) for c in range(ctx.q))
    assert total == ctx.q


def test_power_count_examples():
    f25 = scalar_field(5, 2)
    assert nth_power_count(f25, f25.zero(), 6) == 1
    f7 = scalar_field(7, 1)
    assert nth_power_count(f7, f7.one(), 6) == 6
    f5 = scalar_field(5, 1)
    # frozen from the enumeration oracle: u^6 = u^2 never hits 3 in F_5
    assert enumeration_power_count(f5, f5.el(3), 6) == 0
    assert nth_power_count(f5, f5.el(3), 6) == 0


@pytest.mark.parametrize("p,i", [(5, 1), (5, 2), (7, 1)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_power_count_matches_enumeration(p, i, n):
    ctx = scalar_field(p, i)
    for code in range(ctx.q):
        c = ctx.from_code(code)
        assert nth_power_count(ctx, c, n) == enumeration_power_count(ctx, c, n)


@pytest.mark.parametrize("p,i,expected", [(5, 1, 6), (5, 2, 26), (7, 2, 50)])
def test_enumerate_p1_counts(p, i, expected):
    ctx = scalar_field(p, i)
    points = list(enumerate_p1(ctx))
    assert len(points) == expected
    assert len(set((ctx.code(pt.s), ctx.code(pt.t)) for pt in points)) == expected
    assert points[-1].is_infinity
    for pt in points[:-1]:
        assert pt.t == ctx.one()


def test_enumerate_p1_deterministic():
    ctx = scalar_field(7, 1)
    a = [(ctx.code(pt.s), ctx.code(pt.t)) for pt in enumerate_p1(ctx)]
    b = [(ctx.code(pt.s), ctx.code(pt.t)) for pt in enumerate_p1(ctx)]
    assert a == b


def test_projpoint_canonicalization():
    ctx = scalar_field(5, 1)
    pt = ProjPoint.of_pair(ctx.el(3), ctx.el(2))
    assert pt.t == ctx.one() and pt.s == ctx.el(4)  # 3/2 = 4 mod 5
    inf = ProjPoint.of_pair(ctx.el(2), ctx.zero())
    assert inf.is_infinity and inf.s == ctx.one()
    with pytest.raises(ValidationError):
        ProjPoint.of_pair(ctx.zero(), ctx.zero())
