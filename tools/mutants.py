"""Standing mutants: each check in src/ fails a test when it is broken.

Usage, from anywhere, with no flags:

    python tools/mutants.py

Standard library only.  Each mutant is (name, file, old text, new text,
test files).  The old text must occur exactly once in its file, or the run
stops with an error before any test runs: a refactor that moves the code
must move the mutant with it.  The clean tree's named tests run first and
must pass.  Then each mutant is written into a temporary copy of the tree
and its own test files run there (stopping at the first failure); they must
fail.  The exit status is 0 when every mutant is killed and 1 otherwise.

The raise audit.  Every raise of InvariantViolation or CountDataError left
in src/ (no RuntimeError is raised there) either (a) is reached by a test
through the CLI or the count cache, or (b) is the named target of a mutant
below.  exact_quotient's two InvariantViolation raises are outside the
audit: no code in src/ calls exact_quotient, and it stays only while the
benchmark's tracer wraps it.

    check (module: message)                       kind and what reaches it
    count: no generator found                     (b) generator-cofactor-of-one
    count: power-class table incomplete           (b) generator-not-of-full-order
                                                      (one cofactor test, not all),
                                                      walk-block-not-a-power-of-two
    count: place ... shares a root                (b) sweep-shared-root-unchecked
    count: place ... has N roots, expected d      (b) horner-zeroes-cut-to-one
    count: Weil bound violated                    (a) CACHED_WEIL
                                                  (b) weil-bound-refuses-its-edge,
                                                      weil-bound-loosened
    curve: cover a=...: eigenspaces give h1 = N,  (a) PATCHED_H1
           Riemann-Hurwitz M                      (b) h1-without-components-term,
                                                      eigenspace-dims-count-places
    lfunc: reciprocal root off the sqrt(q)        (a) WRONG_CACHED[1-8-...]
           circle, re-raised by lpolynomial       (b) root-check-counts-too-few
           as a CountDataError
    lfunc: coefficient j is not integral          (a) WRONG_CACHED[1-1-...]
    lfunc: new factor: Newton polygon ... is not  (a) WRONG_CACHED[1-2-mu-ordinary],
           (lies below) the mu-ordinary polygon       WRONG_READ[mu-ordinary]
                                                  (b) mu-ordinary-check-removed
    lfunc: new factor: mod p the counts give      (a) WRONG_READ[hasse-witt]
           ..., the Hasse-Witt matrices give ...  (b) hasse-witt-check-removed,
                                                      hasse-witt-orbit-of-c-one-only
    lfunc: Cornacchia finds no x^2 + d y^2 = p    (b) cornacchia-wrong-square-root
    cli: FAILURE, verify's supersingularity gate  (b) verify-gate-on-report-only
    count: field-size limit (exit 1)              (a) FIELD_LIMIT
                                                  (b) field-size-limit-loosened

CACHED_WEIL is tests/test_cli.py::
    test_cached_count_past_weil_bound_names_cover_prime_and_file
WRONG_CACHED is tests/test_cli.py::test_wrong_cached_full_cover_count_exits_two
WRONG_READ is tests/test_cli.py::test_wrong_count_at_the_last_level_read_exits_two
PATCHED_H1 is tests/test_lfunc.py::
    test_patched_h1_exits_2_with_the_eigenspace_message
FIELD_LIMIT is tests/test_cli.py::test_field_size_limit_exits_one.

The exit-1 refusals (ValidationError) each map to the test that reaches
them through the CLI, or to why they stay, in tests/test_package.py's
REFUSALS.  The field-size limit alone also has a mutant, as its bound is
a number no refusal text shows: at p = 134217757, in (2^27, 2^28], the
loosened limit refuses level 2 where F_p itself is past the limit, and
tests/test_cli.py::
    test_default_roots_at_a_prime_past_the_field_size_limit_exit_one
pins level 1.

The other mutants are regressions that earlier changes found by hand:
a wrong sweep rotation, an unaligned chunk step, a piece of F_p's row
rotated as if it began the row, the zeroes left in the histogram, a
pseudo-remainder that can flip Sturm signs, gcd(a, q-1) in place of
gcd(a, m, q-1) at a zero, a count cached before its Weil check,
non-ASCII digits read as a root, the genus recomputed on every read, a
Newton hull that keeps a point above its chord, the theorem's congruence
read as p = 1, the cache trusting another version's record, a JSON
integer past 2^53 written unquoted, and every component of a disconnected
cover counted as fixed by Frobenius.  hasse-witt-orbit-of-c-one-only
computes, at split p, only the orbit of the character c = 1: that passes
every catalog row, and fails a row whose two orbits both have a slope 0,
such as j = 0 (4,4,2,2) at p = 7.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")  # the package, its tests and their settings
TIMEOUT_S = 240  # per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: test files, or node ids


MUTANTS = [
    # the raise audit's (b) targets
    Mutant(
        "generator-cofactor-of-one", "src/constj/count.py",
        "    if n > 1:\n        out.append(n)\n    return out\n",
        "    out.append(n)\n    return out\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "generator-not-of-full-order", "src/constj/count.py",
        "        if all(_poly_powmod(digits, cf, modulus, p) != one for cf in cofactors):\n",
        "        if any(_poly_powmod(digits, cf, modulus, p) != one for cf in cofactors):\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "walk-block-not-a-power-of-two", "src/constj/count.py",
        "_WALK_BLOCK = 1 << 16\n",
        "_WALK_BLOCK = 3 << 14\n",
        ("tests/test_count.py::test_power_class_table_large_p_no_overflow",),
    ),
    Mutant(
        "sweep-shared-root-unchecked", "src/constj/count.py",
        "            if seen.intersection(at):\n",
        "            if False:\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "horner-zeroes-cut-to-one", "src/constj/count.py",
        "            at = np.flatnonzero(vals == 0).tolist()\n",
        "            at = np.flatnonzero(vals == 0).tolist()[:1]\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "weil-bound-refuses-its-edge", "src/constj/count.py",
        "    if (n_points - r_q * (q + 1)) ** 2 > 4 * g_tot * g_tot * q:\n",
        "    if (n_points - r_q * (q + 1)) ** 2 >= 4 * g_tot * g_tot * q:\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "weil-bound-loosened", "src/constj/count.py",
        "    if (n_points - r_q * (q + 1)) ** 2 > 4 * g_tot * g_tot * q:\n",
        "    if (n_points - r_q * (q + 1)) ** 2 > 5 * g_tot * g_tot * q:\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "h1-without-components-term", "src/constj/curve.py",
        "        return 2 * (self.components - 1 + self.genus)\n",
        "        return 2 * (self.components + self.genus)\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "eigenspace-dims-count-places", "src/constj/curve.py",
        "    dims = tuple(max(0, sum(pl.degree for pl, m in f.places if j * m % a) - 2)\n",
        "    dims = tuple(max(0, sum(1 for pl, m in f.places if j * m % a) - 2)\n",
        ("tests/test_curve.py", "tests/test_lfunc.py"),
    ),
    Mutant(
        "root-check-counts-too-few", "src/constj/lfunc.py",
        "        if _sign_changes(chain, 0) - _sign_changes(chain, 4 * q) != len(s) - len(chain[-1]):\n",
        "        if _sign_changes(chain, 0) - _sign_changes(chain, 4 * q) > len(s) - len(chain[-1]):\n",
        ("tests/test_lfunc.py",),
    ),
    Mutant(
        "cornacchia-wrong-square-root", "src/constj/lfunc.py",
        "    x, r = p, (2 * w + 1 if jcase == J0 else w)\n",
        "    x, r = p, (2 * w - 1 if jcase == J0 else w)\n",
        ("tests/test_lfunc.py",),
    ),
    Mutant(
        "field-size-limit-loosened", "src/constj/count.py",
        "    return p**i <= _MAX_FIELD_Q\n",
        "    return p**i <= 2 * _MAX_FIELD_Q\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "mu-ordinary-check-removed", "src/constj/lfunc.py",
        "    if polygon != mu if definite else not (above and y == sum(twice)):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_wrong_count_at_the_last_level_read_exits_two",),
    ),
    Mutant(
        "hasse-witt-check-removed", "src/constj/lfunc.py",
        "    if counted != route:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_wrong_count_at_the_last_level_read_exits_two",),
    ),
    Mutant(
        "hasse-witt-orbit-of-c-one-only", "src/constj/lfunc.py",
        "    slope_zero = [orb for orb in orbits if all(hodge[j] for j in orb)]\n",
        "    slope_zero = [orbits[-1]]\n",
        ("tests/test_hasse_witt.py",),
    ),
    Mutant(
        "verify-gate-on-report-only", "src/constj/cli.py",
        '    if command == "verify" and v.theorem_applicable and not v.surface_artin_supersingular:\n',
        '    if command == "report" and v.theorem_applicable and not v.surface_artin_supersingular:\n',
        ("tests/test_cli.py",),
    ),
    # regressions found by hand in earlier changes
    Mutant(
        "sweep-rotates-by-minus-c0", "src/constj/count.py",
        "            start = (lo + pl.poly[0]) % p\n",
        "            start = (lo - pl.poly[0]) % p\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "sweep-piece-offset-dropped", "src/constj/count.py",
        "            start = (lo + pl.poly[0]) % p\n",
        "            start = pl.poly[0] % p\n",
        ("tests/test_count.py::test_prime_field_sweeps_in_pieces_shorter_than_p",),
    ),
    Mutant(
        "sweep-chunk-unaligned", "src/constj/count.py",
        "    step = _CHUNK // ctx.p * ctx.p or _CHUNK\n",
        "    step = _CHUNK\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "zeroes-left-in-histogram", "src/constj/count.py",
        "    np.subtract.at(hist, flat[list(seen)], 1)\n",
        "",
        ("tests/test_count.py",),
    ),
    Mutant(
        "pseudo-remainder-signed-scale", "src/constj/lfunc.py",
        "    scale, sign = abs(lead), (1 if lead > 0 else -1)\n",
        "    scale, sign = lead, 1\n",
        ("tests/test_lfunc.py",),
    ),
    Mutant(
        "zero-class-test-without-m", "src/constj/count.py",
        "            d = gcd(curve.a, m, q - 1)\n",
        "            d = gcd(curve.a, q - 1)\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "count-cached-before-weil-check", "src/constj/count.py",
        "        for idx in due:\n"
        "            source = cache.path if idx not in missing else None  # only a cached count has a file\n"
        "            _assert_weil(curves[idx], i, found[idx], source)\n"
        "            counts[idx].append(found[idx])\n"
        "        if missing and cache is not None:\n"
        "            cache.put(i, {keys[idx]: found[idx] for idx in missing})\n",
        "        if missing and cache is not None:\n"
        "            cache.put(i, {keys[idx]: found[idx] for idx in missing})\n"
        "        for idx in due:\n"
        "            source = cache.path if idx not in missing else None  # only a cached count has a file\n"
        "            _assert_weil(curves[idx], i, found[idx], source)\n"
        "            counts[idx].append(found[idx])\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "root-token-non-ascii-digits", "src/constj/forms.py",
        "        elif not (token.isascii() and token.isdigit()):\n",
        "        elif not token.isdigit():\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "genus-plain-property", "src/constj/curve.py",
        "    @cached_property\n    def genus(self) -> int:\n",
        "    @property\n    def genus(self) -> int:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "newton-hull-keeps-points-above-chord", "src/constj/lfunc.py",
        "                hull.pop()\n",
        "                break\n",
        ("tests/test_lfunc.py", "tests/test_cli.py"),
    ),
    Mutant(
        "theorem-congruence-p-one", "src/constj/lfunc.py",
        "        theorem_applicable=f.p % f.jcase.exponent == f.jcase.exponent - 1,",
        "        theorem_applicable=f.p % f.jcase.exponent == 1,",
        ("tests/test_lfunc.py",),
    ),
    Mutant(
        "cache-ignores-version-column", "src/constj/count.py",
        "                if p == self.p and fields[4] == TOOL_VERSION:\n",
        "                if p == self.p:\n",
        ("tests/test_count.py",),
    ),
    Mutant(
        "json-ints-past-2-53-unquoted", "src/constj/cli.py",
        "        out(f'\"{obj}\"' if abs(obj) > _JSON_INT_LIMIT else int.__repr__(obj))\n",
        "        out(int.__repr__(obj))\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "rational-components-all-fixed", "src/constj/curve.py",
        "        return gcd(self.components, self.f.p**i - 1)\n",
        "        return self.components\n",
        ("tests/test_cli.py",),
    ),
]


def _mismatches() -> list[str]:
    """Mutants whose old text does not occur exactly once in their file."""
    bad = []
    for m in MUTANTS:
        found = (ROOT / m.file).read_text().count(m.old)
        if found != 1:
            bad.append(f"{m.name}: old text occurs {found} times in {m.file}")
    return bad


def _pytest(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status on the tests in tree, stopping at the first
    failure, or None on a timeout.  No bytecode is written: a mutated file
    can keep its size and its mtime's second."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def main() -> int:
    bad = _mismatches()
    if bad:
        print("error: a mutant no longer matches its code:", *bad, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory(prefix="constj-mutants-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / part)
        all_tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        started = time.perf_counter()
        if _pytest(tree, all_tests) != 0:
            print(f"error: the clean tree fails {' '.join(all_tests)}")
            return 1
        elapsed = time.perf_counter() - started
        print(f"clean tree passes {len(all_tests)} test files ({elapsed:.1f} s)")
        survivors = []
        for m in MUTANTS:
            path = tree / m.file
            clean = path.read_text()
            path.write_text(clean.replace(m.old, m.new))
            started = time.perf_counter()
            status = _pytest(tree, m.tests)
            path.write_text(clean)
            # pytest exits 1 when a test failed; 0 is a survivor, and any
            # other status (a timeout, a collection error) kills nothing
            elapsed = time.perf_counter() - started
            verdict = {1: "killed", 0: "SURVIVED"}.get(status, f"ERROR ({status})")
            print(f"{verdict:>10}  {m.name}  ({elapsed:.1f} s)")
            if status != 1:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
