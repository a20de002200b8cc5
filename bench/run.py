"""constj benchmark: run one workload, check every report, print the metrics.

    python3 bench/run.py --workload atlas --seed 3 --seconds 20 --trace 0
    python3 bench/run.py        # every workload in turn, with a summary table

Every row is one `constj verify` call through the public entry point
`constj.cli.main(argv)`, with no --jobs flag, so a pass uses one core.  Each
pass runs in a fresh worker process (bench/worker.py), because a CLI user
pays the cold start on every run; passes repeat until --seconds have been
measured and the metrics are medians over passes.

Workloads (the seed only chooses roots; seed 0 uses the CLI's default roots):
  flagship    j=0, pattern 5,5,5,5,5,5 at p=5: a genus-10 cover counted up to
              5^10.  One huge field, so gf and count do nearly all the work.
  atlas       every catalog pattern of both j-cases at every prime
              5 <= p < 200, in both congruence classes, whose largest field
              has at most 10^6 points (153 rows), grouped by prime, writing
              every count to one empty --cache-dir.  Many small fields that
              share (p, i) across rows, so the in-process caches matter.
  atlas_warm  the atlas rows again, reading counts from a cache filled by an
              untimed atlas pass.  count reads instead of sweeping, and
              lfunc and cli dominate.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (bench/tracer.py); the spans
of the last traced pass are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("flagship", "atlas", "atlas_warm")
ATLAS_PRIMES_BELOW = 200
ATLAS_POINT_BUDGET = 10**6
SETUP_PROBES = 7
PASS_TIMEOUT_S = 170
RUN_LIMIT_S = 150  # start no pass that would end the run after this

# Catalog patterns with the largest count level verify needs for them: the
# total genus of the full cover, plus one redundancy level when it is <= 4.
# Fixed here so the workload does not change when the program does.
CATALOG = {
    "0": {
        (5, 5, 2): 3,
        (5, 4, 3): 2,
        (4, 4, 4): 3,
        (5, 5, 5, 3): 5,
        (5, 5, 4, 4): 5,
        (5, 5, 5, 5, 4): 7,
        (5, 5, 5, 5, 5, 5): 10,
    },
    "1728": {(3, 3, 2): 2, (3, 3, 3, 3): 4},
}
FLAGSHIP = ("0", (5, 5, 5, 5, 5, 5), 5)

# New factors checked against values computed independently of the sweep.
GOLDEN_ANY_SEED = {FLAGSHIP: [1, 0, -20, 0, 150, 0, -500, 0, 625]}
GOLDEN_DEFAULT_ROOTS = {("0", (5, 5, 5, 3), 7): [1, 0, 11, 0, 49]}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs

def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _row(key: tuple, roots, cache_dir) -> dict:
    tag, pattern, p = key
    argv = ["verify", "--jcase", tag, "--p", str(p), "--pattern", ",".join(map(str, pattern))]
    if roots is not None:
        argv += ["--roots", ",".join(roots)]
    argv += ["--format", "json"]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    return {"key": key, "default_roots": roots is None, "argv": argv}


def make_rows(workload: str, seed: int, cache_dir: str) -> list[dict]:
    rng = random.Random(seed)
    if workload == "flagship":
        roots = ["0", "1", "2", "3", "4", "inf"]
        rng.shuffle(roots)
        return [_row(FLAGSHIP, None if seed == 0 else roots, None)]
    rows = []
    for p in filter(_is_prime, range(5, ATLAS_PRIMES_BELOW)):
        points = ["inf"] + [str(x) for x in range(p)]
        for tag, patterns in CATALOG.items():
            for pattern, level in patterns.items():
                if p**level > ATLAS_POINT_BUDGET:
                    continue
                roots = None if seed == 0 else rng.sample(points, len(pattern))
                rows.append(_row((tag, pattern, p), roots, cache_dir))
    return rows


# ---------------------------------------------------------------------------
# output checks

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_report(row: dict, code, text: str) -> str | None:
    """First problem with one row's report, or None when it is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
        verdict = report["verdict"]
        lf = report["lfunctions"]
        new = [int(c) for c in lf["new_factor"]]
        covers = {int(a): [int(c) for c in cs] for a, cs in lf["covers"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if verdict is None:
        return "no verdict"
    if verdict["theorem_applicable"] and not verdict["surface_artin_supersingular"]:
        return "applicable verdict is not supersingular"
    _, pattern, p = row["key"]
    g = len(pattern) - 2
    if len(new) != 2 * g + 1 or new[0] != 1 or any(
        new[2 * g - i] != p ** (g - i) * new[i] for i in range(g + 1)
    ):
        return f"new factor {new} is not a degree-{2 * g} Weil numerator"
    full = max(covers)
    product = new
    for a, coeffs in covers.items():
        if a != full:
            product = _poly_mul(product, coeffs)
    if product != covers[full]:
        return "full-cover numerator is not the new factor times the subcover numerators"
    golden = GOLDEN_ANY_SEED.get(row["key"])
    if golden is None and row["default_roots"]:
        golden = GOLDEN_DEFAULT_ROOTS.get(row["key"])
    if golden is not None and new != golden:
        return f"new factor {new} differs from the known {golden}"
    return None


def _sections(text: str) -> tuple:
    report = json.loads(text)
    return report["counts"], report["lfunctions"], report["verdict"]


def check_pass(rows: list[dict], result: dict, first, reference) -> list[str]:
    """Check every row of one pass; return one message per failed row.

    A pass must reproduce the run's first pass (``first``, its report texts)
    byte for byte, traced or not.  Given the reports of the atlas pass
    (``reference``), the counts, lfunctions and verdict sections must equal
    those of the same row there.  The reports are then replaced by their
    digest, so the run holds only two passes' reports at a time.
    """
    failures = []
    digest = hashlib.sha256()
    for i, (code, text, err) in enumerate(result.pop("rows")):
        digest.update(text.encode())
        problem = check_report(rows[i], code, text)
        if problem is None and first is not None and text != first[i]:
            problem = "report differs from the first pass"
        if problem is None and reference is not None:
            if _sections(text) != _sections(reference[i]):
                problem = "counts, lfunctions or verdict differ from the atlas pass"
        if problem is not None:
            failures.append(f"row {' '.join(rows[i]['argv'])}: {problem} {err.strip()[-300:]}")
    result["reports_sha256"] = digest.hexdigest()
    return failures


# ---------------------------------------------------------------------------
# passes

def spawn(rows: list[dict], traced: bool = False, spans_path: Path | None = None) -> dict:
    """Run one pass in a fresh worker process; set-up is timed from spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spec = json.dumps({
        "rows": [r["argv"] for r in rows],
        "trace": traced,
        "spans_path": str(spans_path) if spans_path else None,
    })
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=spec, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - start
    result["traced"] = traced
    return result


def _git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: int, trace: bool, max_rows) -> dict:
    work = OUT / f"work-{os.getpid()}"
    cache_dir = os.path.relpath(work / "cache", ROOT)
    rows = make_rows(workload, seed, None if workload == "flagship" else cache_dir)[:max_rows]
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        spawn([])  # compiles bytecode and warms the file cache; not timed
        setups = [spawn([])["setup_s"] for _ in range(SETUP_PROBES)]
        failures: list[str] = []
        reference = None
        if workload == "atlas_warm":
            prep = spawn(rows)
            reference = [row[1] for row in prep["rows"]]
            failures += check_pass(rows, prep, None, None)

        passes = []
        first = None
        started = time.monotonic()
        while True:
            if workload == "atlas":
                shutil.rmtree(work, ignore_errors=True)
            traced = trace and len(passes) % 2 == 1
            result = spawn(rows, traced, spans_path if traced else None)
            texts = [row[1] for row in result["rows"]]
            failures += check_pass(rows, result, first, reference)
            first = first or texts
            passes.append(result)
            elapsed = time.monotonic() - started
            if trace and not traced:
                continue
            pass_s = elapsed / len(passes)
            if elapsed >= seconds or elapsed + pass_s * (2 if trace else 1) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rows) * (len(passes) + (reference is not None))
    setups += [p["setup_s"] for p in passes]
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    if trace:
        absent = set().union(*(p["absent"] for p in traced_passes))
        metrics, missing = summarize(traced_passes, [p["wall_s"] for p in plain], absent)
    else:
        metrics = {
            "wall_s": median(p["wall_s"] for p in plain),
            "cpu_s": median(p["cpu_s"] for p in plain),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        missing = []

    provenance = {
        "workload": workload,
        "seed": seed,
        "rows": len(rows),
        "traced": trace,
        "passes": len(passes),
        "setup_samples": len(setups),
        "seconds": seconds,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "absent_layers": missing,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "provenance": provenance,
        "result": result,
        "failures": failures,
        "setup_s": setups,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
            | {"reports_sha256": p["reports_sha256"]}
            | ({"layers": p["layers"], "stats": p["stats"]} if p["traced"] else {})
            for p in passes
        ],
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None, help="keep only the first N rows")
    args = parser.parse_args(argv)

    if not (SRC / "constj" / "cli.py").is_file():
        print(f"error: no constj sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.rows)
            for failure in record["failures"]:
                print(f"FAILED {name}: {failure}", file=sys.stderr)
            print(json.dumps({"provenance": record["provenance"]}))
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) > 1:
        cols = list(records[0]["result"]["metrics"])
        print(f"{'workload':<12}" + "".join(f"{c:>22}" for c in cols) + f"{'fail_ratio':>12}")
        for name, rec in zip(names, records):
            res = rec["result"]
            cells = "".join(
                f"{res['metrics'][c]['value']:>16.4f} {res['metrics'][c]['unit']:<5}" for c in cols
            )
            print(f"{name:<12}{cells}{res['failed'] / res['attempted']:>12.4f}")
    for name, rec in zip(names, records):
        label = {"workload": name} if len(records) > 1 else {}
        print(json.dumps(label | rec["result"]))
    return 0 if all(rec["result"]["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
