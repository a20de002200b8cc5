"""Point counting: brute-force oracles, partner equality, cache, chunking,
the power-class table with its multiply-by-h step, and the joint count of
all covers of a form against the smooth-model oracle."""

import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import constj.count as count_mod
from constj import __version__ as TOOL_VERSION
from constj.count import CountCache, count_points, count_series
from constj.curve import CurveSpec, covers
from constj.errors import InvariantViolation, ValidationError
from constj.forms import J0, J1728, FactoredForm, Place, form_from_roots, parse_form
from constj.gf import make_field
from constj.lfunc import zeta_bundle
from constj.taxonomy import catalog

from conftest import brute_force_count, concrete_form, naive_count, smooth_model_counts
from oracle import ProjPoint, evaluate, place_value, scalar_field


def x_cubed_plus_one_form():
    """u^2 = t^3 (s+t)(s^2+4st+t^2) dehomogenizes to y^2 = x^3 + 1 over F_5."""
    return parse_form(
        J0,
        [(Place.infinity(), 3), (Place.linear(4, 5), 1), (Place.from_poly((1, 4, 1), 5), 1)],
        p=5,
    )


@pytest.mark.parametrize("i", [1, 2, 3])
def test_rational_curve_counts(i):
    curve = CurveSpec(concrete_form(J0, (5, 1)), 6)
    ctx = make_field(5, i)
    assert count_points((curve,), ctx) == (ctx.q + 1,)


def test_elliptic_curve_counts_frozen():
    curve = CurveSpec(x_cubed_plus_one_form(), 2)
    assert count_points((curve,), make_field(5, 1)) == (6,)
    assert count_points((curve,), make_field(5, 2)) == (36,)


@pytest.mark.parametrize("i", [1, 2])
def test_elliptic_curve_counts_brute_force(i):
    curve = CurveSpec(x_cubed_plus_one_form(), 2)
    ctx = make_field(5, i)
    assert count_points((curve,), ctx) == (brute_force_count(curve.f, 2, ctx),)


@pytest.mark.parametrize(
    "pattern,a",
    [((5, 5, 5, 3), 2), ((5, 5, 2), 3), ((5, 5, 4, 4), 3)],
)
@pytest.mark.parametrize("i", [1, 2])
def test_subcover_counts_brute_force(pattern, a, i):
    # patterns chosen so gcd(a, m) = 1 at every zero: the singular model
    # is then a valid smooth-count oracle
    f = concrete_form(J0, pattern)
    ctx = make_field(5, i)
    assert count_points((CurveSpec(f, a),), ctx) == (brute_force_count(f, a, ctx),)


def test_full_cover_brute_force_on_squarefree():
    f = parse_form(
        J0,
        [(Place.infinity(), 1), (Place.linear(0, 5), 5), (Place.linear(1, 5), 5),
         (Place.linear(2, 5), 1)],
        p=5,
    )
    for i in (1, 2):
        ctx = make_field(5, i)
        assert count_points((CurveSpec(f, 6),), ctx) == (brute_force_count(f, 6, ctx),)


def test_disconnected_cover_counts_by_components():
    """(4,4,4): u^6 = f splits as u^3 = w and u^3 = -w; count each by brute force."""
    f = concrete_form(J0, (4, 4, 4))  # roots 0, 1, inf
    # w = s^2 (s-t)^2 t^2; each component has all gcd(3, m) = 1
    w_plus = parse_form(
        J0,
        [(Place.linear(0, 5), 2), (Place.linear(1, 5), 2), (Place.infinity(), 2)],
        p=5,
    )
    for i in (1, 2):
        ctx = scalar_field(5, i)
        n_plus = brute_force_count(w_plus, 3, ctx)
        # u^3 = -w: count pairs with u^3 = -w(x) directly
        n_minus = 0
        for code in range(ctx.q):
            val = -evaluate(w_plus, ProjPoint.finite(ctx.from_code(code)), ctx)
            n_minus += sum(
                1 for u in range(ctx.q) if ctx.pow(ctx.from_code(u), 3) == val
            )
        n_minus += 1  # above (1:0), w vanishes there
        assert count_points((CurveSpec(f, 6),), ctx) == (n_plus + n_minus,)


@pytest.mark.parametrize(
    "p,i_list,mults,roots",
    [
        (5, (1, 2, 3), [1] * 6, ["0", "1", "2", "3", "4", "inf"]),
        (7, (1, 2, 3), [1] * 6, ["0", "1", "2", "3", "4", "5"]),
        (11, (1, 2), [1] * 6, ["0", "1", "2", "3", "4", "inf"]),
    ],
)
def test_squarefree_agreement(p, i_list, mults, roots):
    """Branch-corrected counting equals the naive fiber-sum for squarefree f."""
    f = form_from_roots(J0, mults, roots, p=p)
    for a in (2, 3, 6):
        for i in i_list:
            ctx = make_field(p, i)
            assert count_points((CurveSpec(f, a),), ctx) == (naive_count(f, a, ctx),)


def test_squarefree_agreement_with_quadratic_place():
    places = [
        (Place.infinity(), 1),
        (Place.linear(0, 7), 1),
        (Place.linear(1, 7), 1),
        (Place.linear(2, 7), 1),
        (Place.from_poly((1, 0, 1), 7), 1),  # x^2 + 1, roots in F_49
    ]
    f = parse_form(J0, places, p=7)
    for i in (1, 2, 3):
        ctx = make_field(7, i)
        for a in (2, 6):
            assert count_points((CurveSpec(f, a),), ctx) == (naive_count(f, a, ctx),)


@pytest.mark.parametrize("row_idx", range(7))
def test_partner_equality_all_catalog_patterns(row_idx):
    row = catalog(J0)[row_idx]
    f = concrete_form(J0, row.pattern)
    g = f.complement()
    for i in (1, 2):
        ctx = make_field(5, i)
        assert count_points((CurveSpec(f, 6),), ctx) == count_points((CurveSpec(g, 6),), ctx)


def test_partner_equality_subcovers(f5553):
    g = f5553.complement()
    for a in (2, 3):
        for i in (1, 2):
            ctx = make_field(5, i)
            assert count_points((CurveSpec(f5553, a),), ctx) == count_points(
                (CurveSpec(g, a),), ctx
            )


def test_weil_bound_enforced(tmp_path, f5553):
    curve = CurveSpec(f5553, 6)
    (series,) = count_series((curve,), (3,), cache=CountCache(tmp_path, f5553))
    # tamper: a count far outside the Weil interval must be rejected, at
    # its own level, when count_series reads it back
    CountCache(tmp_path, f5553).put(2, {curve.key(): series.counts[1] + 10_000})
    with pytest.raises(InvariantViolation, match="Weil bound violated at level 2"):
        count_series((curve,), (3,), cache=CountCache(tmp_path, f5553))


def test_weil_check_names_level_and_counts(f5553):
    # count_series checks cached and fresh counts with this one check
    curve = CurveSpec(f5553, 6)
    count_mod._assert_weil(curve, 2, 26 + 2 * 4 * 5)  # on the bound
    with pytest.raises(InvariantViolation, match="Weil bound violated at level 2: N=67, q=25"):
        count_mod._assert_weil(curve, 2, 26 + 2 * 4 * 5 + 1)  # one past it
    with pytest.raises(InvariantViolation, match="Weil bound violated at level 2: N=10000, q=25"):
        count_mod._assert_weil(curve, 2, 10_000)


def test_many_chunk_sweep_matches_smooth_model(monkeypatch, f5553):
    monkeypatch.setattr(count_mod, "_CHUNK", 500)  # F_{5^5} in seven chunks
    orders = (6, 2, 3)
    ctx = make_field(5, 5)
    swept = count_points(tuple(CurveSpec(f5553, a) for a in orders), ctx)
    assert swept == smooth_model_counts(f5553, orders, ctx)


def test_only_prime_fields_have_rows_longer_than_a_chunk():
    # count_points steps by whole rows of p codes unless p > _CHUNK; then
    # q >= p^2 > _CHUNK^2 puts every extension of F_p past the field-size limit
    assert count_mod._CHUNK**2 > count_mod._MAX_FIELD_Q


@pytest.mark.parametrize("chunk", [8, 36, 37])
def test_prime_field_sweeps_in_pieces_shorter_than_p(monkeypatch, chunk):
    # F_37 in pieces of 8 (the last one 5 long), of 36, or whole: a piece
    # of the one row reads it rotated by its start plus the place's
    # constant, and a linear place's zero may sit in any piece
    monkeypatch.setattr(count_mod, "_CHUNK", chunk)
    places = [(Place.infinity(), 2), (Place.linear(0, 37), 5), (Place.linear(30, 37), 4),
              (Place.linear(12, 37), 3), (Place.from_poly((2, 0, 1), 37), 2)]
    f = parse_form(J0, places, p=37)
    ctx = make_field(37, 1)
    curves = covers(f)
    assert count_points(curves, ctx) == smooth_model_counts(f, [c.a for c in curves], ctx)


LINEAR_SWEEP_FIELDS = [(5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (13, 2)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_linear_places_sweep_as_rotations_matches_smooth_model(data):
    # a linear place adds the table's rows rotated by its constant; the
    # chunk sizes 48 and 500 are multiples of neither 7 nor 13 (nor is 48
    # of 5), so the sweep steps by a multiple of p below them, and every
    # root in F_p, 0 and p-1 included, is a zero in chunk 0
    p, level = data.draw(st.sampled_from(LINEAR_SWEEP_FIELDS), label="field")
    chunk = data.draw(st.sampled_from([48, 500, 1 << 20]), label="chunk")
    jcase = data.draw(st.sampled_from([J0, J1728]), label="jcase")
    ends = [r for r in (0, p - 1) if data.draw(st.booleans(), label=f"root {r}")]
    inner = data.draw(
        st.lists(st.integers(1, p - 2), unique=True, min_size=1, max_size=4), label="roots"
    )
    places = [Place.linear(r, p) for r in ends + inner]
    if data.draw(st.booleans(), label="infinity") or len(places) < 2:
        places.append(Place.infinity())
    mults = [data.draw(st.integers(1, jcase.max_mult), label="m") for _ in places]
    # the last multiplicity makes the degree divisible by the exponent, or
    # the last place is dropped when the others already do
    last = -sum(mults[:-1]) % jcase.exponent
    if last:
        mults[-1] = last
    else:
        places, mults = places[:-1], mults[:-1]
    f = parse_form(jcase, list(zip(places, mults)), p=p)
    ctx = make_field(p, level)
    curves = covers(f)
    with mock.patch.object(count_mod, "_CHUNK", chunk):
        swept = count_points(curves, ctx)
    assert swept == smooth_model_counts(f, [c.a for c in curves], ctx)


@pytest.mark.parametrize("chunk", [48, 500])
@pytest.mark.parametrize("level", [1, 2, 4])
def test_mixed_linear_and_quadratic_places_sweep_in_aligned_chunks(monkeypatch, chunk, level):
    # s^2 + 2 is irreducible over F_5: its roots lie in F_25 and F_625,
    # where the Horner path finds them by code, outside the linear places'
    # rotations; at _CHUNK = 48 the sweep steps by 45, so F_625 takes 14 chunks
    monkeypatch.setattr(count_mod, "_CHUNK", chunk)
    places = [(Place.infinity(), 1), (Place.linear(0, 5), 5), (Place.linear(4, 5), 2),
              (Place.from_poly((2, 0, 1), 5), 2)]
    f = parse_form(J0, places, p=5)
    ctx = make_field(5, level)
    curves = covers(f)
    swept = count_points(curves, ctx)
    assert swept == smooth_model_counts(f, [c.a for c in curves], ctx)


def test_zero_whose_class_sum_falls_inside_the_histogram_is_left_out():
    # D = 12 over F_13 and the multiplicities sum to 30, so the histogram
    # spans 12 * 31 sums; at the root 8 of the m = 1 place the sentinel 255
    # plus the other places' classes falls inside it, and only taking the
    # zeroes out of the histogram keeps that point from counting as a unit
    f = form_from_roots(
        J0, [1, 4, 5, 4, 4, 4, 3, 5], ["8", "10", "12", "2", "7", "6", "5", "4"], p=13
    )
    ctx = make_field(13, 1)
    curves = covers(f)
    swept = count_points(curves, ctx)
    assert swept == smooth_model_counts(f, [c.a for c in curves], ctx) == (27, 20, 19)


def test_count_series_and_cache(tmp_path, f5553):
    cache = CountCache(tmp_path, f5553)
    curve = CurveSpec(f5553, 6)
    (series,) = count_series((curve,), (4,), cache=cache)
    assert len(series.counts) == 4
    assert cache.path.exists()
    lines = cache.path.read_text().splitlines()
    assert len(lines) == 4 and all(len(line.split()) == 5 for line in lines)

    # second invocation: all cache hits, zero sweeps
    def boom(*args, **kwargs):
        raise AssertionError("sweep ran despite a warm cache")

    fresh = CountCache(tmp_path, f5553)
    monkey_target = count_mod.count_points
    count_mod.count_points = boom
    try:
        (again,) = count_series((curve,), (4,), cache=fresh)
    finally:
        count_mod.count_points = monkey_target
    assert again.counts == series.counts


def test_fresh_count_past_the_weil_bound_is_never_cached(tmp_path, monkeypatch, f5553):
    # a fresh count is checked before it is written: a bad count fails its
    # run as a count, not as a cache read, and no later run can read it back
    real_count_points = count_mod.count_points

    def bad_at_level_2(curves, ctx):
        counts = real_count_points(curves, ctx)
        return counts if ctx.degree == 1 else tuple(n + 10_000 for n in counts)

    monkeypatch.setattr(count_mod, "count_points", bad_at_level_2)
    curve = CurveSpec(f5553, 6)
    cache = CountCache(tmp_path, f5553)
    with pytest.raises(InvariantViolation, match="Weil bound violated at level 2") as err:
        count_series((curve,), (3,), cache=cache)
    assert "read from" not in str(err.value)
    assert [line.split()[1] for line in cache.path.read_text().splitlines()] == ["1"]
    assert CountCache(tmp_path, f5553).get(2, curve.key()) is None


def test_cache_corruption_recounts_with_warning(tmp_path, f5553):
    cache = CountCache(tmp_path, f5553)
    curve = CurveSpec(f5553, 2)
    (series,) = count_series((curve,), (2,), cache=cache)
    cache.path.write_text("garbage line\n5 x {key} 1 v\n".format(key=curve.key()))
    fresh = CountCache(tmp_path, f5553)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (again,) = count_series((curve,), (2,), cache=fresh)
    assert again.counts == series.counts
    # the prime's file is shared: only a line that names the form is this
    # run's to parse, and to warn about
    assert [str(w.message) for w in caught if "corrupt" in str(w.message)] == [
        f"{cache.path}:2: corrupt cache record; recounting"
    ]
    # the recount appended valid records: a third pass is pure cache hits,
    # and the corrupt line left in the file still warns a later reader
    final = CountCache(tmp_path, f5553)
    with pytest.warns(UserWarning, match="corrupt cache record"):
        assert final.get(1, curve.key()) == series.counts[0]


def test_cache_ignores_records_of_another_version(tmp_path, f5553):
    curve = CurveSpec(f5553, 2)
    (series,) = count_series((curve,), (1,))
    n = series.counts[0]
    cache = CountCache(tmp_path, f5553)
    cache.path.write_text(f"5 1 {curve.key()} {n + 1} 0.0.0-stale\n")
    assert cache.get(1, curve.key()) is None
    (again,) = count_series((curve,), (1,), cache=cache)
    assert again.counts == series.counts
    # recounted and appended under this version, which a fresh reader trusts
    assert cache.path.read_text().splitlines()[1] == f"5 1 {curve.key()} {n} {TOOL_VERSION}"
    assert CountCache(tmp_path, f5553).get(1, curve.key()) == n


def test_cache_ignores_records_of_another_prime(tmp_path, f5553):
    # the file is named for its prime, and each record still names it: a
    # record of another prime in p5.counts is a miss, as in a stray copy
    curve = CurveSpec(f5553, 2)
    cache = CountCache(tmp_path, f5553)
    cache.path.write_text(f"7 1 {curve.key()} 3 {TOOL_VERSION}\n")
    assert cache.get(1, curve.key()) is None
    cache.put(1, {curve.key(): 6})
    assert cache.path.read_text().splitlines()[1] == f"5 1 {curve.key()} 6 {TOOL_VERSION}"
    assert CountCache(tmp_path, f5553).get(1, curve.key()) == 6


def test_two_writers_interleave_and_the_last_record_wins(tmp_path, f5553):
    key6, key2 = CurveSpec(f5553, 6).key(), CurveSpec(f5553, 2).key()
    first, second = CountCache(tmp_path / "new", f5553), CountCache(tmp_path / "new", f5553)
    first.put(1, {key6: 10})
    second.put(1, {key2: 20})
    second.put(1, {key6: 11})
    first.put(2, {key6: 30})
    first.put(1, {key2: 21})
    reader = CountCache(tmp_path / "new", f5553)
    assert reader._load() == {(1, key6): 11, (1, key2): 21, (2, key6): 30}
    assert len(reader.path.read_text().splitlines()) == 5


def test_cold_count_series_appends_once_per_counted_level(tmp_path, monkeypatch):
    f = concrete_form(J0, (5, 5, 5, 3), p=7)
    curves = covers(f)
    cache = CountCache(tmp_path, f)
    opened = []
    real_open = Path.open

    def spy_open(path, *args, **kwargs):
        if path == cache.path:
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy_open)
    count_series(curves, (3, 2, 1), cache=cache)
    # levels 1..3 count 3, 2 and 1 covers: one append each, no read
    assert opened == ["a", "a", "a"]
    assert len(cache.path.read_text().splitlines()) == 6


def test_warm_read_opens_only_its_own_primes_file(tmp_path, monkeypatch, f5553):
    f552 = concrete_form(J0, (5, 5, 2))
    f7 = concrete_form(J0, (5, 5, 5, 3), p=7)
    forms_and_curves = {
        f: covers(f) for f in (f5553, f552, f7)
    }
    cold = {f: count_series(curves, (2, 2, 2), cache=CountCache(tmp_path, f))
            for f, curves in forms_and_curves.items()}
    p5, p7 = tmp_path / "p5.counts", tmp_path / "p7.counts"
    assert sorted(tmp_path.iterdir()) == [p5, p7]
    assert {f: CountCache(tmp_path, f).path for f in forms_and_curves} == {
        f5553: p5, f552: p5, f7: p7
    }
    # both forms at p = 5 append to one file, 3 covers x 2 levels each
    assert len(p5.read_text().splitlines()) == 12

    read = []
    real_read_text = Path.read_text

    def spy_read_text(path, *args, **kwargs):
        read.append(path)
        return real_read_text(path, *args, **kwargs)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a warm cache must serve every count")

    monkeypatch.setattr(Path, "read_text", spy_read_text)
    monkeypatch.setattr(count_mod, "count_points", no_sweep)
    reader = CountCache(tmp_path, f5553)
    warm = count_series(forms_and_curves[f5553], (2, 2, 2), cache=reader)
    assert warm == cold[f5553]
    assert read == [p5]
    # of the file's 12 records, the reader holds its form's 3 covers x 2
    # levels and nothing else
    records = reader._load()
    assert len(records) == 6
    assert {key for _, key in records} == {c.key() for c in forms_and_curves[f5553]}


def test_old_layout_cache_file_is_never_read(tmp_path, f5553):
    # neither the single counts.cache nor a per-form <form key>.counts file
    # of earlier versions is read: wrong counts and garbage in them change
    # nothing and raise no warning, and the counts go to the prime's file
    curve = CurveSpec(f5553, 6)
    (series,) = count_series((curve,), (2,))
    stale = "garbage line\n" + "".join(
        f"5 {i} {curve.key()} {n + 1} {TOOL_VERSION}\n" for i, n in enumerate(series.counts, 1)
    )
    old_files = [tmp_path / "counts.cache", tmp_path / f"{f5553.key()}.counts"]
    for old in old_files:
        old.write_text(stale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (again,) = count_series((curve,), (2,), cache=CountCache(tmp_path, f5553))
    assert again.counts == series.counts
    assert all(old.read_text() == stale for old in old_files)
    assert len((tmp_path / "p5.counts").read_text().splitlines()) == 2


def test_count_series_below_genus_is_fine_but_lfunc_rejects(f5553):
    # lpolynomial needs counts up to the new factor's genus, which
    # zeta_bundle's level plan supplies: only the count side is checked here
    (series,) = count_series((CurveSpec(f5553, 6),), (2,))
    assert len(series.counts) == 2


def test_small_q_infinity_handling():
    # no place at infinity: f(1:0) = 1 contributes gcd(a, q-1) points
    f = form_from_roots(J1728, [3, 1], ["0", "1"], p=7)
    ctx = make_field(7, 1)
    assert count_points((CurveSpec(f, 4),), ctx) == (brute_force_count(f, 4, ctx),)


# ---------------------------------------------------------------------------
# power-class table

# degree 1 is a 1 x 1 matrix; p = 257 puts sums of digit products near
# deg (p-1)^2; over degrees 2..5 gf reduces each column's c X^k mod the modulus
MULTIPLIER_FIELDS = [(5, 1), (5, 2), (5, 5), (7, 4), (17, 1), (17, 3), (257, 1), (257, 2), (13, 3)]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(MULTIPLIER_FIELDS), data=st.data())
def test_code_multiplier_matches_field_mul(field, data):
    ctx = scalar_field(*field)
    h_code = data.draw(st.integers(0, ctx.q - 1), label="h")
    xs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=40), label="x")
    h = ctx.from_code(h_code)
    h_mat = count_mod._matrix(h_code, ctx)
    digits = np.array(np.unravel_index(np.array(xs), (ctx.p,) * ctx.degree)[::-1])
    got = count_mod._codes_of(h_mat @ digits % ctx.p, ctx)
    assert got.tolist() == [ctx.code(ctx.mul(h, ctx.from_code(x))) for x in xs]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(MULTIPLIER_FIELDS), data=st.data())
def test_place_value_codes_match_field_horner(field, data):
    # the sweep's Horner step for places of degree > 1 against the oracle's place_value
    ctx = scalar_field(*field)
    degree = data.draw(st.integers(2, 3), label="degree")
    poly = data.draw(st.lists(st.integers(0, ctx.p - 1), min_size=degree, max_size=degree))
    pl = Place.from_poly(poly + [1], ctx.p)
    xs = np.array(data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=40)))
    got = count_mod._place_value_codes(pl, xs, ctx)
    assert got.tolist() == [
        ctx.code(place_value(pl, ProjPoint.finite(ctx.from_code(int(x))), ctx)) for x in xs
    ]


def scalar_power_classes(ctx, modulus):
    """Reference table: walk g^k one ctx.mul at a time and record k mod D,
    D = gcd(modulus, q-1)."""
    d_cls = np.gcd(modulus, ctx.q - 1)
    table = [255] * ctx.q
    g = ctx.from_code(count_mod.find_generator(ctx))
    x = ctx.one()
    for k in range(ctx.q - 1):
        table[ctx.code(x)] = k % d_cls
        x = ctx.mul(x, g)
    return table


@pytest.mark.parametrize("p,i", [(5, 1), (7, 1), (13, 1), (5, 2), (7, 2), (5, 3), (11, 3), (5, 4)])
@pytest.mark.parametrize("exponent", [6, 4])
@pytest.mark.parametrize("chunk", [1 << 20, 64, 32])
def test_power_class_table_matches_scalar_walk(monkeypatch, p, i, exponent, chunk):
    # a small chunk and walk block (a power of 2, as the walk shifts by its
    # last doubling step) make the walk double its block and then shift it
    # across several segments, the last one partial
    monkeypatch.setattr(count_mod, "_CHUNK", chunk)
    monkeypatch.setattr(count_mod, "_WALK_BLOCK", chunk)
    count_mod.power_class_table.cache_clear()
    ctx = scalar_field(p, i)
    cls, d_cls = count_mod.power_class_table(ctx)
    assert d_cls == np.gcd(12, ctx.q - 1)
    assert cls.tolist() == scalar_power_classes(ctx, 12)
    # the covers of the family with this exponent read the classes mod
    # gcd(exponent, q-1), which divides D
    d_e = np.gcd(exponent, ctx.q - 1)
    assert [c if c == 255 else c % d_e for c in cls.tolist()] == scalar_power_classes(
        ctx, exponent
    )


def multiplicative_order(ctx, x):
    """Order of x in F_q*, by multiplying until 1 comes back."""
    one, power, order = ctx.one(), x, 1
    while power != one:
        power, order = ctx.mul(power, x), order + 1
    return order


@pytest.mark.parametrize(
    "p,i", [(5, 1), (7, 1), (5, 2), (7, 2), (13, 2), (5, 3), (5, 4), (199, 2), (5, 5)]
)
def test_find_generator_is_the_smallest_code_of_full_order(p, i):
    ctx = scalar_field(p, i)
    smallest = next(
        code for code in range(1, ctx.q)
        if multiplicative_order(ctx, ctx.from_code(code)) == ctx.q - 1
    )
    generator = count_mod.find_generator(ctx)
    assert type(generator) is int and generator == smallest


@pytest.mark.parametrize(
    "p,i,code",
    [(5, 10, 6), (7, 9, 9), (13, 7, 15), (509, 3, 510), (11551, 2, 11556), (134217689, 1, 3)],
)
def test_find_generator_on_fields_too_large_for_the_scalar_walk(p, i, code):
    # the smallest generator codes of fields whose orders the scalar oracle
    # cannot walk, as found by a batched matrix search of candidates
    assert count_mod.find_generator(make_field(p, i)) == code


@pytest.mark.parametrize("p,i", [(1499, 2), (2003, 2), (50021, 1)])
def test_power_class_table_large_p_no_overflow(p, i):
    # products of digits near p overflowed int32 accumulators here once
    ctx = make_field(p, i)
    cls, d_cls = count_mod.power_class_table(ctx)
    sizes = np.bincount(cls, minlength=256)
    assert sizes[255] == 1
    assert sizes[:d_cls].tolist() == [(ctx.q - 1) // d_cls] * d_cls


def test_power_class_table_refuses_fields_past_the_limit(monkeypatch, f5553):
    # q = 5^12 and 5^16 are above 2^27: count_series refuses them before the
    # generator search or any allocation
    def no_work(ctx):
        raise AssertionError("work started on a field above the limit")

    monkeypatch.setattr(count_mod, "find_generator", no_work)
    for i in (12, 16):
        with pytest.raises(ValidationError, match="a=6 at level 12 .* field-size limit"):
            count_series((CurveSpec(f5553, 6),), (i,))


# ---------------------------------------------------------------------------
# all covers of a form in one sweep per field, one table per field

# levels with q <= 2500 at each prime
SMALL_LEVELS = {5: 4, 7: 4, 11: 3, 13: 3}
CATALOG_PATTERNS = [(jcase, row.pattern) for jcase in (J0, J1728) for row in catalog(jcase)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_joint_count_matches_smooth_model_oracle(data):
    # random multiplicities, including gcd(a, m) > 1 where neither the
    # singular model nor the brute-force count is a valid oracle
    jcase, pattern = data.draw(st.sampled_from(CATALOG_PATTERNS), label="pattern")
    p = data.draw(st.sampled_from(sorted(SMALL_LEVELS)), label="p")
    pool = [str(r) for r in range(p)] + ["inf"]
    roots = data.draw(
        st.lists(st.sampled_from(pool), min_size=len(pattern), max_size=len(pattern), unique=True),
        label="roots",
    )
    level = data.draw(st.integers(1, SMALL_LEVELS[p]), label="level")
    f = form_from_roots(jcase, list(pattern), roots, p=p)
    ctx = make_field(p, level)
    curves = covers(f)
    joint = count_points(curves, ctx)
    assert joint == smooth_model_counts(f, [c.a for c in curves], ctx)
    assert joint == tuple(count_points((c,), ctx)[0] for c in curves)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_partner_count_equality_at_random_roots(data):
    # u -> h^(N/a)/u maps the smooth model of u^a = f birationally onto that
    # of v^a = h^N/f, so every cover of the partner has the same count
    jcase, pattern = data.draw(st.sampled_from(CATALOG_PATTERNS), label="pattern")
    p = data.draw(st.sampled_from(sorted(SMALL_LEVELS)), label="p")
    pool = [str(r) for r in range(p)] + ["inf"]
    roots = data.draw(
        st.lists(st.sampled_from(pool), min_size=len(pattern), max_size=len(pattern), unique=True),
        label="roots",
    )
    level = data.draw(st.integers(1, SMALL_LEVELS[p]), label="level")
    f = form_from_roots(jcase, list(pattern), roots, p=p)
    g = f.complement()
    ctx = make_field(p, level)
    assert count_points(covers(f), ctx) == count_points(covers(g), ctx)


@pytest.mark.parametrize(
    "jcase,places",
    [
        (J0, [(Place.infinity(), 5), (Place.linear(0, 7), 3), (Place.from_poly((1, 0, 1), 7), 2)]),
        (J1728, [(Place.linear(0, 7), 2), (Place.from_poly((1, 0, 1), 7), 3)]),
    ],
    ids=["j0-t5-s3-quadratic2", "j1728-s2-quadratic3"],
)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_quadratic_place_with_multiplicity_matches_smooth_model(jcase, places, level):
    # s^2 + 1 has its two roots in F_49.  The oracle's local unit at each
    # one carries the sibling factor (x - x')^m; the sweep leaves it out, as
    # an m-th power is a d-th power for every d = gcd(a, m, q-1)
    f = parse_form(jcase, places, p=7)
    ctx = make_field(7, level)
    curves = covers(f)
    swept = count_points(curves, ctx)
    assert swept == smooth_model_counts(f, [c.a for c in curves], ctx)


def test_point_on_two_places_is_an_invariant_violation():
    # parse_form refuses a repeated place; built directly, the sweep must
    # not count such a form
    f = FactoredForm(J0, ((Place.linear(0, 5), 3), (Place.linear(0, 5), 3)), p=5)
    with pytest.raises(InvariantViolation, match="shares a root"):
        count_points((CurveSpec(f, 6),), make_field(5, 1))


def test_flagship_bundle_sweeps_once_and_builds_one_table_per_field(monkeypatch):
    f = form_from_roots(J0, [5] * 6, ["0", "1", "2", "3", "4", "inf"], p=5)
    calls = []
    sweep = count_mod.count_points

    def counted(curves, ctx):
        calls.append((ctx.q, tuple(c.a for c in curves)))
        return sweep(curves, ctx)

    monkeypatch.setattr(count_mod, "count_points", counted)
    count_mod.power_class_table.cache_clear()
    zeta_bundle(f)
    # the genus-2 and genus-4 subcovers are counted to levels 2 and 4, the
    # full cover to k-2 = 4: 5 + 25 + 125 + 625 = 780 points
    assert calls == [(5, (6, 2, 3)), (25, (6, 2, 3)), (125, (6, 3)), (625, (6, 3))]
    info = count_mod.power_class_table.cache_info()
    assert (info.misses, info.hits) == (4, 0)


def test_both_j_cases_share_one_table():
    ctx = make_field(7, 2)
    f0 = form_from_roots(J0, [5, 5, 5, 3], ["0", "1", "inf", "2"], p=7)
    f1728 = form_from_roots(J1728, [3, 3, 3, 3], ["0", "1", "3", "inf"], p=7)
    count_mod.power_class_table.cache_clear()
    for f in (f0, f1728):
        curves = covers(f)
        assert count_points(curves, ctx) == smooth_model_counts(f, [c.a for c in curves], ctx)
    info = count_mod.power_class_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert count_mod.power_class_table(ctx)[1] == 12
