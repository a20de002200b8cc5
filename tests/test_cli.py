"""Command-line behavior: rendering, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import constj.count as count_mod
import constj.curve as curve_mod
import constj.lfunc as lfunc_mod
import constj.surface as surface_mod
from constj.cli import _default_roots, build_parser, main, render_json
from constj.curve import CurveSpec
from constj.forms import JCASES, FactoredForm
from constj.taxonomy import catalog, enumerate_patterns


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_text(capsys):
    code, out, _ = run_cli(capsys, ["catalog"])
    assert code == 0
    assert "5,5,5,3" in out and "X_f rational - excluded" in out
    assert out.count("p = 5 mod 6") == 7
    assert out.count("X_f rational - excluded") == 3


def test_catalog_json_row_counts(capsys):
    code, out, _ = run_cli(capsys, ["catalog", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 7
    assert len(payload["excluded"]) == 3
    code, out, _ = run_cli(capsys, ["catalog", "--jcase", "1728", "--format", "json"])
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_catalog_csv_agrees_with_json(capsys):
    _, json_out, _ = run_cli(capsys, ["catalog", "--format", "json"])
    _, csv_out, _ = run_cli(capsys, ["catalog", "--format", "csv"])
    payload = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    assert lines[0] == "key,value"
    csv_map = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        csv_map[key] = value.strip('"')
    for idx, row in enumerate(payload["rows"]):
        assert csv_map[f"rows.{idx}.n"] == str(row["n"])
        assert csv_map[f"rows.{idx}.k"] == str(row["k"])
        assert csv_map[f"rows.{idx}.surface_class"] == str(row["surface_class"])
        for j, m in enumerate(row["pattern"]):
            assert csv_map[f"rows.{idx}.pattern.{j}"] == str(m)


def test_verify_small_case_exit_zero(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        ["verify", "--jcase", "0", "--p", "5", "--pattern", "5,5,5,3",
         "--roots", "0,1,inf,2", "--format", "json", "--cache-dir", str(tmp_path)],
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "config", "taxonomy", "curve", "surface", "counts", "lfunctions", "verdict", "meta",
    }
    assert report["verdict"]["surface_artin_supersingular"] is True
    assert report["verdict"]["theorem_applicable"] is True
    assert report["lfunctions"]["new_factor"] == [1, 0, 0, 0, 25]
    assert report["lfunctions"]["new_factor_polygon"] == [["1/2", "4"]]
    assert "elapsed_ms" in err


def test_verify_disconnected_catalog_row(capsys):
    # (4,4,4): the full cover and the order-2 subcover are disconnected,
    # yet the pipeline and verdict go through
    code, out, _ = run_cli(
        capsys, ["verify", "--p", "5", "--pattern", "4,4,4", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["surface_artin_supersingular"] is True
    assert report["lfunctions"]["new_factor_degree"] == 2
    assert report["curve"]["components"]["6"] == 2


def test_verify_negative_control_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--p", "7", "--pattern", "5,5,5,3", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["theorem_applicable"] is False
    assert report["verdict"]["e_trace"] != 0
    assert report["verdict"]["surface_artin_supersingular"] is False


def test_verify_duplicate_root_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        ["verify", "--p", "5", "--pattern", "5,5,5,3", "--roots", "0,1,inf,1"],
    )
    assert code == 1
    assert "distinct" in err


@pytest.mark.parametrize(
    "token", ["x", "1_0", "+3", "\u0663"], ids=["x", "underscore", "plus", "arabic-indic-digit"]
)
def test_verify_non_integer_root_exit_one(capsys, token):
    # int() would read 1_0, +3 and a non-ASCII digit, and config.roots would echo a
    # second spelling of one form into the report
    code, out, err = run_cli(
        capsys, ["verify", "--p", "11", "--pattern", "5,5,5,3", "--roots", f"0,1,{token},inf"]
    )
    assert code == 1 and out == ""
    assert f"error: root {token!r} is not an element of F_11 or inf" in err


def test_unusable_cache_dir_exits_one(capsys, tmp_path):
    argv = ["verify", "--p", "7", "--pattern", "5,5,5,3"]
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for cache_dir in (not_a_dir, not_a_dir / "x"):
        code, out, err = run_cli(capsys, [*argv, "--cache-dir", str(cache_dir)])
        assert code == 1 and out == ""
        assert f"error: count cache {cache_dir}/" in err and "is not writable" in err
    # the prime's count file is a directory: it cannot be read
    assert run_cli(capsys, [*argv, "--cache-dir", str(tmp_path / "c")])[0] == 0
    (count_file,) = (tmp_path / "c").iterdir()
    assert count_file.name == "p7.counts"
    count_file.unlink()
    count_file.mkdir()
    code, out, err = run_cli(capsys, [*argv, "--cache-dir", str(tmp_path / "c")])
    assert code == 1 and out == ""
    assert f"error: count cache {count_file} is not readable" in err


def test_count_file_that_vanishes_after_a_probe_is_a_miss(capsys, tmp_path, monkeypatch):
    # a file removed between an exists() probe and its read is a file that
    # was never written: the row counts and writes it
    count_file = tmp_path / "p7.counts"
    real_exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda path: path == count_file or real_exists(path))
    argv = ["verify", "--p", "7", "--pattern", "5,5,5,3", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert "5,5,5,3" in out
    assert count_file.read_text()


def test_mersenne_prime_past_the_field_size_limit_exits_one(capsys):
    # 2^61 - 1: its primality is decided at once, and F_p is past the limit
    code, out, err = run_cli(
        capsys, ["verify", "--p", str(2**61 - 1), "--pattern", "5,5,2"]
    )
    assert code == 1 and out == ""
    assert "field-size limit 134217728" in err


@pytest.mark.parametrize(
    "argv, e_trace",
    [
        (("verify", "--p", "1000000007", "--pattern", "5,1"), 0),
        (("verify", "--jcase", "1728", "--p", str(2**61 - 1), "--pattern", "3,1"), 0),
        (("report", "--p", "1000000009", "--pattern", "5,1"), 47798),
        (("report", "--jcase", "1728", "--p", "1000000009", "--pattern", "3,1"), -7494),
    ],
    ids=["j0-5,1-inert", "j1728-3,1-inert", "j0-5,1-split", "j1728-3,1-split"],
)
def test_genus_zero_row_past_the_field_size_limit_runs(argv, e_trace):
    # every cover has genus 0, so nothing is counted and no field is built:
    # only E's trace sees p, and its closed form makes no pass over F_p
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "constj.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert f" E_trace={e_trace} " in proc.stdout


def test_verify_bad_prime_exit_one(capsys):
    code, _, err = run_cli(capsys, ["verify", "--p", "9", "--pattern", "5,5,5,3"])
    assert code == 1
    assert "prime" in err


@pytest.mark.parametrize("p, pattern", [(-7, "5,5,5,3"), (0, "5,1"), (1, "5,1")])
def test_verify_prime_below_five_exits_one_before_the_roots(capsys, p, pattern):
    code, out, err = run_cli(capsys, ["verify", "--p", str(p), "--pattern", pattern])
    assert (code, out) == (1, "")
    assert err == "error: p must be prime > 3\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "5", "--pattern", "2,2,2,2,2,1,1"],
         "pattern needs 7 distinct roots but P^1(F_5) is too small"),
        (["--p", "5", "--pattern", ","], "form must have positive degree"),
        (["--p", "7", "--pattern", "5,5,2", "--roots", "0,1,7"], "root 7 out of range for F_7"),
        (["--p", "7", "--pattern", "5,x"], "bad pattern '5,x'"),
        (["--p", "7", "--pattern", "6,6"], "place s: multiplicity 6 > 5"),
        (["--p", "7", "--pattern", "5,5"], "degree 10 is not divisible by 6"),
        (["--p", "7", "--pattern", "5,5,2", "--roots", "0,1"], "3 multiplicities but 2 roots"),
        (["--p", "3317044064679887385961981", "--pattern", "5,5,2"],
         "3317044064679887385961981 is too large: "
         "primality is decided below 3317044064679887385961981"),
    ],
    ids=[
        "more-roots-than-points", "empty-pattern", "root-past-p", "bad-pattern",
        "multiplicity-past-exponent", "degree-not-divisible", "fewer-roots-than-places",
        "prime-past-the-primality-limit",
    ],
)
def test_refusal_exits_one_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, ["verify", *argv])
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"  # one line, no traceback


def test_verify_non_catalog_pattern_exit_one(capsys):
    code, _, err = run_cli(capsys, ["verify", "--p", "5", "--pattern", "3,3,3,3"])
    assert code == 1
    assert "rational partner" in err


def test_zeta_allows_non_catalog_patterns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["zeta", "--p", "5", "--pattern", "5,1", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is None
    assert report["lfunctions"]["new_factor_degree"] == 0
    assert report["counts"]["6"] == []  # rational cover: nothing to count


def test_zeta_counts_only_the_components_frobenius_fixes(capsys):
    # u^6 = w^3 splits into three components u^2 = zeta w; over F_5 only
    # zeta = 1 is rational (3 does not divide 5 - 1), over F_25 all three are
    code, out, _ = run_cli(
        capsys, ["zeta", "--p", "5", "--pattern", "3,3,3,3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["lfunctions"]["new_factor"] == [1, 0, 6, 0, 25]
    # over F_7 the components are rational and the division oracle still holds
    code, out, _ = run_cli(
        capsys, ["zeta", "--p", "7", "--pattern", "3,3,3,3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["lfunctions"]["new_factor_degree"] == 4


def test_report_command_includes_verdict_without_gating(capsys, monkeypatch):
    monkeypatch.setattr(lfunc_mod, "is_pure_half", lambda *a, **k: False)
    code, out, _ = run_cli(
        capsys,
        ["report", "--p", "5", "--pattern", "5,5,5,3", "--format", "json"],
    )
    assert code == 0  # report never gates
    assert json.loads(out)["verdict"]["curve_new_factor_pure"] is False


def _failure_lines(err):
    return [line for line in err.splitlines() if line.startswith("FAILURE")]


def test_verify_exit_two_on_falsification(capsys, monkeypatch):
    monkeypatch.setattr(lfunc_mod, "is_pure_half", lambda *a, **k: False)
    code, out, err = run_cli(
        capsys,
        ["verify", "--p", "5", "--pattern", "5,5,5,3", "--format", "json"],
    )
    assert code == 2
    assert _failure_lines(err) == [
        "FAILURE: supersingularity fails where the theorem applies: "
        "jcase=j0 pattern=5,5,5,3 p=5 pure_half=False E_trace=0"
    ]
    assert json.loads(out)["verdict"]["surface_artin_supersingular"] is False


def test_verify_failure_names_the_e_trace(capsys, monkeypatch):
    monkeypatch.setattr(lfunc_mod, "e_curve_trace", lambda jcase, p: 3)
    code, out, err = run_cli(capsys, ["verify", "--jcase", "1728", "--p", "7", "--pattern", "3,3,3,3"])
    assert code == 2
    assert _failure_lines(err) == [
        "FAILURE: supersingularity fails where the theorem applies: "
        "jcase=j1728 pattern=3,3,3,3 p=7 pure_half=True E_trace=3"
    ]
    assert "E_trace=3 supersingular=False" in out


def test_warm_cache_report_byte_identical_without_counting(capsys, tmp_path, monkeypatch):
    argv = ["zeta", "--p", "5", "--pattern", "5,5,5,3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run_cli(capsys, argv)
    assert code == 0

    def no_sweep(*args, **kwargs):
        raise AssertionError("a warm cache must serve every count")

    monkeypatch.setattr(count_mod, "count_points", no_sweep)
    code, warm, _ = run_cli(capsys, argv)
    assert code == 0
    assert warm == cold


def test_report_does_not_depend_on_the_cache_dir(capsys, tmp_path):
    argv = ["verify", "--p", "7", "--pattern", "5,5,5,3", "--format", "json"]
    code_a, out_a, _ = run_cli(capsys, [*argv, "--cache-dir", str(tmp_path / "a")])
    code_b, out_b, _ = run_cli(capsys, [*argv, "--cache-dir", str(tmp_path / "b")])
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5"],
        ["verify", "--p", "5", "--pattern", "5,5,5,3", "--jcase", "7"],
        ["verify", "--p", "5", "--pattern", "5,5,5,3", "--jobs", "2"],
        ["verify", "--p", "5", "--pattern", "5,5,5,3", "--imax", "5"],
    ],
    ids=["missing-pattern", "bad-jcase", "removed-jobs", "removed-imax"],
)
def test_usage_error_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == "" and "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert code == 0
    assert "--pattern" in out


def _tamper_cached_count(capsys, argv, cache_dir, p, level, delta):
    """Run argv to fill the count cache, then append a record that moves the
    full cover's count at level by delta (the last record wins)."""
    assert run_cli(capsys, argv)[0] == 0
    (cache_file,) = cache_dir.glob("*.counts")
    (record,) = [
        line for line in cache_file.read_text().splitlines()
        if line.startswith(f"{p} {level} ") and ":a=6 " in line
    ]
    p_col, i, key, value, version = record.split()
    with cache_file.open("a") as fh:
        fh.write(f"{p_col} {i} {key} {int(value) + delta} {version}\n")


@pytest.mark.parametrize(
    "level, delta, message, subject",
    [
        (1, 1, "coefficient 2 (levels 1..2) is not integral", "cover a=6 over F_5"),
        pytest.param(1, 2, "Newton polygon [0 x2, 1 x2] is not the mu-ordinary polygon [1/2 x4]",
                     "new factor over F_5", id="1-2-mu-ordinary"),
        (1, 8, "levels 1..2 give a factor with a reciprocal root off the sqrt(q) circle",
         "cover a=6 over F_5"),
    ],
)
def test_wrong_cached_full_cover_count_exits_two(
    capsys, tmp_path, level, delta, message, subject
):
    # (5,5,5,3)/F_5 has k = 4: the full cover is counted at levels 1..2,
    # which give the new factor; p = 5 is inert, so its polygon must be
    # the mu-ordinary one, pure slope 1/2
    argv = ["verify", "--p", "5", "--pattern", "5,5,5,3", "--cache-dir", str(tmp_path)]
    _tamper_cached_count(capsys, argv, tmp_path, 5, level, delta)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert f"{subject}: {message}" in err


@pytest.mark.parametrize(
    "command, p, message",
    [
        ("zeta", 5, "new factor over F_5: Newton polygon [0 x2, 1 x2] is not the mu-ordinary "
                    "polygon [1/2 x4] of the orbits {1, 5} (f_1 = 0, f_5 = 2)"),
        ("verify", 7, "new factor over F_7: mod p the counts give [1, 0, 5], the Hasse-Witt "
                      "matrices of the orbits {5} give [1, 0, 4]"),
    ],
    ids=["mu-ordinary", "hasse-witt"],
)
def test_wrong_count_at_the_last_level_read_exits_two(capsys, tmp_path, command, p, message):
    # 2 more at level 2 of (5,5,5,3) gives an integral Weil factor, and no
    # later level is counted to re-check it: the inert p = 5 row is caught
    # by its polygon, the split p = 7 row by the new factor mod p
    argv = [command, "--p", str(p), "--pattern", "5,5,5,3", "--cache-dir", str(tmp_path)]
    _tamper_cached_count(capsys, argv, tmp_path, p, 2, 2)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"HARD FAILURE: {message}\n"


def test_field_size_limit_exits_one(capsys, monkeypatch):
    # the new factor of (3,3,2,2,2) needs F_{2003^3} for the order-4 cover:
    # refused before anything is counted
    def no_count(*args, **kwargs):
        raise AssertionError("counted before the field-size limit was checked")

    monkeypatch.setattr(count_mod, "count_points", no_count)
    code, _, err = run_cli(
        capsys, ["zeta", "--jcase", "1728", "--p", "2003", "--pattern", "3,3,2,2,2"]
    )
    assert code == 1
    assert "a=4 at level 3" in err and "limit 134217728" in err


@pytest.mark.parametrize(
    "argv, new_factor, fields",
    [
        (["zeta", "--jcase", "1728", "--p", "2003", "--pattern", "3,3,3,3", "--roots", "0,1,3,inf"],
         [1, 0, 4006, 0, 4012009], [2003, 2003**2]),
        (["zeta", "--p", "23", "--pattern", "3,3,3,3,2,2,2"],
         [1, 0, 19, 0, 610, 0, 14030, 0, 231173, 0, 6436343], [23**i for i in range(1, 6)]),
        (["verify", "--p", "11551", "--pattern", "5,5,2"], [1, 148, 11551], [11551]),
    ],
    ids=["j1728-3333-p2003", "j0-3333222-p23", "j0-552-p11551"],
)
def test_rows_whose_level_k_minus_1_is_past_the_limit_answer(capsys, monkeypatch, argv,
                                                              new_factor, fields):
    # the full cover is counted to level k - 2 only; F_{p^(k-1)} is past
    # the field-size limit in each row, which exited 1 while level k - 1
    # was counted to re-check the numerator
    swept = []
    sweep = count_mod.count_points

    def counted(curves, ctx):
        swept.append(ctx.q)
        return sweep(curves, ctx)

    monkeypatch.setattr(count_mod, "count_points", counted)
    code, out, err = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["lfunctions"]["new_factor"] == new_factor
    assert swept == fields


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify_j0_555555_p5", ["--p", "5", "--pattern", "5,5,5,5,5,5"]),
        ("verify_j0_5553_p7", ["--p", "7", "--pattern", "5,5,5,3"]),
        ("verify_j1728_3333_p7", ["--jcase", "1728", "--p", "7", "--pattern", "3,3,3,3"]),
        ("verify_j0_444_p7", ["--p", "7", "--pattern", "4,4,4"]),
        ("verify_j0_5553_p7.txt", ["--p", "7", "--pattern", "5,5,5,3"]),
        ("verify_j0_5553_p7.csv", ["--p", "7", "--pattern", "5,5,5,3"]),
    ],
)
def test_reports_match_golden_files(capsys, name, args):
    # JSON reports written by the full-genus counting route, before the full
    # cover was counted only to level k-1; the text and CSV reports written
    # before each cover number became a property of its cover
    path = GOLDEN / (name if "." in name else f"{name}.json")
    fmt = {".json": "json", ".txt": "text", ".csv": "csv"}[path.suffix]
    code, out, _ = run_cli(capsys, ["verify", *args, "--format", fmt])
    assert code == 0
    assert out == path.read_text()


@pytest.mark.parametrize("jcase", ["0", "1728"])
def test_catalog_matches_golden_files(capsys, jcase):
    # written by the json.dumps renderer, before render_json wrote its own text
    code, out, _ = run_cli(capsys, ["catalog", "--jcase", jcase, "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / f"catalog_j{jcase}.json").read_text()


def test_one_parser_serves_every_call_in_a_process(capsys):
    assert build_parser() is build_parser()
    assert run_cli(capsys, ["verify", "--p", "5"])[0] == 1
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert code == 0 and "--pattern" in out
    code, out, _ = run_cli(
        capsys, ["verify", "--p", "5", "--pattern", "5,5,5,5,5,5", "--format", "json"]
    )
    assert code == 0
    assert out == (GOLDEN / "verify_j0_555555_p5.json").read_text()


def test_default_roots_are_canonical(capsys):
    code, out, _ = run_cli(
        capsys, ["zeta", "--p", "5", "--pattern", "5,5,5,3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["config"]["roots"] == ["0", "1", "inf", "2"]


def _report_bytes(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_form_gives_one_report_however_its_pairs_are_spelled(data, shared_cache):
    # permuted (multiplicity, root) pairs, leading zeros and the spellings of
    # infinity name one form, so every format renders the same bytes
    jcase = data.draw(st.sampled_from(["0", "1728"]), label="jcase")
    pattern = data.draw(
        st.sampled_from([row.pattern for row in catalog(JCASES[jcase])]), label="pattern"
    )
    p = data.draw(st.sampled_from([p for p in (5, 7, 11, 13) if len(pattern) <= p + 1]), label="p")
    names = data.draw(st.permutations(["inf", *map(str, range(p))]), label="roots")
    pairs = list(zip(pattern, names))
    respelled = [
        (m, data.draw(st.sampled_from(["inf", "INF", "oo"])) if r == "inf"
         else "0" * data.draw(st.integers(0, 2)) + r)
        for m, r in data.draw(st.permutations(pairs), label="order")
    ]
    for fmt in ("json", "text", "csv"):
        reports = {
            _report_bytes([
                "report", "--jcase", jcase, "--p", str(p),
                "--pattern", ",".join(str(m) for m, _ in spelling),
                "--roots", ",".join(r for _, r in spelling),
                "--format", fmt, "--cache-dir", str(shared_cache),
            ])
            for spelling in (pairs, respelled)
        }
        assert len(reports) == 1 and next(iter(reports))[0] == 0, reports


# the grammar's pieces: primes that are counted (so p^(k-1) is capped), and
# p, multiplicity and root tokens that are composite, huge, non-ASCII or malformed
_COUNTED_PRIMES = ["5", "7", "11", "13"]
_OTHER_PRIMES = ["0", "1", "2", "3", "4", "9", "25", "-7", "1000000007", "2305843009213693951",
                 str(10**30 + 57), "\u0667", "7.0", "0x7", "", "seven"]
_OTHER_MULTIPLICITIES = ["0", "6", "-1", "x", "\u0663", " "]
_OTHER_ROOT_TOKENS = ["x", "-1", "1_0", "\u0663", "", "13", "inf", "00", "INF", "oo", "1"]


def _spelled(draw, root: str) -> str:
    """One of the spellings of a point of P^1: leading zeros, or inf's case and aliases."""
    if root == "inf":
        return draw(st.sampled_from(["inf", "INF", "oo", "Infinity"]))
    return "0" * draw(st.integers(0, 2)) + root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_grammar_fuzz_exits_zero_or_one_with_an_error_line(data, shared_cache):
    # exit 2 is kept for a falsified claim or a tripped check: no argv the
    # grammar can spell reaches it, and a refusal is one error line.  Each
    # piece is well formed three times in four, so most runs reach a count
    draw = data.draw

    def spoil() -> bool:
        return draw(st.integers(0, 3), label="spoil") == 3

    command = draw(st.sampled_from(["verify", "zeta", "report", "catalog"]), label="command")
    jcase = draw(st.sampled_from(["0", "1728"]), label="jcase")
    argv = [command, "--jcase", "j" + jcase if spoil() else jcase]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if command != "catalog" or spoil():
        p = draw(st.sampled_from(_OTHER_PRIMES if spoil() else _COUNTED_PRIMES), label="p")
        k_max = 7  # p^(k-1) <= 30,000 where p is counted
        if p in _COUNTED_PRIMES:
            k_max = max(k for k in range(1, 8) if int(p) ** (k - 1) <= 30_000)
        if spoil():
            mults = st.sampled_from([str(m) for m in range(1, 6)] + _OTHER_MULTIPLICITIES)
            pattern = draw(st.lists(mults, min_size=1, max_size=k_max), label="pattern")
        else:
            patterns = [m for m in enumerate_patterns(JCASES[jcase]) if len(m) <= k_max]
            pattern = [str(m) for m in draw(st.sampled_from(patterns[::-1]), label="pattern")]
        argv += ["--p", p, "--pattern", ",".join(pattern), "--cache-dir", str(shared_cache)]
        if draw(st.booleans()):
            points = ["inf", *map(str, range(int(p) if p in _COUNTED_PRIMES else 13))]
            roots = [_spelled(draw, r) for r in draw(st.permutations(points))[: len(pattern)]]
            if spoil():  # a malformed or out-of-range token, or a second spelling of a root
                other = draw(st.sampled_from(_OTHER_ROOT_TOKENS))
                roots[draw(st.integers(0, len(roots) - 1))] = other
            if spoil():
                roots = roots[:-1]
            argv += ["--roots", ",".join(roots)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "error:" in err.getvalue(), argv


def test_default_roots_build_only_the_roots_they_return():
    tracemalloc.start()
    try:
        assert _default_roots(4, 1000003) == ["0", "1", "inf", "2"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_default_roots_at_a_prime_past_the_field_size_limit_exit_one(capsys, monkeypatch):
    # q = p is in (2^27, 2^28]: F_p itself is refused, at level 1, and a
    # limit loosened to twice its value would refuse only F_{p^2}
    def no_count(*args, **kwargs):
        raise AssertionError("counted a field past the field-size limit")

    monkeypatch.setattr(count_mod, "count_points", no_count)
    code, out, err = run_cli(
        capsys, ["zeta", "--jcase", "1728", "--p", "134217757", "--pattern", "3,3,3,3"]
    )
    assert code == 1 and out == ""
    assert err == (
        "error: counting cover a=4 at level 1 needs F_q with q = 134217757^1 = 134217757, "
        "above the field-size limit 134217728\n"
    )


def test_big_integers_become_strings():
    payload = {"small": 7, "big": 2**60, "neg": -(2**60), "nested": [2**54]}
    rendered = json.loads(render_json(payload))
    assert rendered["small"] == 7
    assert rendered["big"] == str(2**60)
    assert rendered["neg"] == str(-(2**60))
    assert rendered["nested"] == [str(2**54)]


def test_cached_count_past_weil_bound_names_cover_prime_and_file(capsys, tmp_path):
    argv = ["verify", "--p", "7", "--pattern", "5,5,5,3", "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, argv)[0] == 0
    (cache_file,) = tmp_path.glob("*.counts")
    (record,) = [
        line for line in cache_file.read_text().splitlines()
        if line.startswith("7 1 ") and ":a=6 " in line
    ]
    p, i, key, _, version = record.split()
    with cache_file.open("a") as fh:  # the last record wins
        fh.write(f"{p} {i} {key} 1009 {version}\n")
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert (
        "HARD FAILURE: cover a=6 over F_7: Weil bound violated at level 1: N=1009, q=7, "
        f"components=1, total genus=4; count read from {cache_file}"
    ) in err


@pytest.mark.parametrize(
    "argv, covers",
    [
        (["--p", "7", "--pattern", "5,5,5,3"], 3),
        (["--jcase", "1728", "--p", "7", "--pattern", "3,3,3,3", "--roots", "0,1,3,inf"], 2),
    ],
    ids=["j0", "j1728"],
)
def test_each_derived_number_is_computed_once_per_row(capsys, monkeypatch, tmp_path, argv, covers):
    calls: dict[str, int] = {}

    def count(name, *namespaces):
        original = getattr(namespaces[0], name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        for ns in namespaces:
            monkeypatch.setattr(ns, name, counted)

    def count_property(name):  # a cached property of every cover
        original = getattr(CurveSpec, name).func

        def counted(self):
            calls[name] = calls.get(name, 0) + 1
            return original(self)

        prop = cached_property(counted)
        prop.__set_name__(CurveSpec, name)
        monkeypatch.setattr(CurveSpec, name, prop)

    count_property("genus")  # a Riemann-Hurwitz sum
    count_property("components")
    count("eigenspace_dims", curve_mod, lfunc_mod)
    count("invariants", surface_mod)
    count("newton_polygon", lfunc_mod)
    count("serialize", FactoredForm)  # hashed into the form key
    once = {
        "genus": covers,
        "components": covers,
        "eigenspace_dims": 1,
        "invariants": 2,  # the form and its partner
        "newton_polygon": covers + 1,  # every cover numerator and the new factor
        "serialize": 1,
    }
    for run in ("cold", "warm"):
        calls.clear()
        argv_run = ["verify", *argv, "--cache-dir", str(tmp_path), "--format", "json"]
        assert run_cli(capsys, argv_run)[0] == 0
        assert calls == once, run
