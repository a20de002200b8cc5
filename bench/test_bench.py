"""Self-test of the benchmark: its checks, its inputs and cut-down runs.

    python3 -m pytest -q bench/test_bench.py

The cut-down runs use the first three rows of each workload and one pass of
each kind; the flagship keeps its single row, so the file takes about 30 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN_ROW = {"key": ("0", (5, 5, 5, 3), 7), "default_roots": True, "argv": []}


def _report(new, covers, applicable=True, supersingular=True) -> str:
    return json.dumps({
        "verdict": {"theorem_applicable": applicable, "surface_artin_supersingular": supersingular},
        "lfunctions": {"new_factor": new, "covers": covers},
    })


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd,
        timeout=600,
    )


# -- the output checks -------------------------------------------------------

def test_check_report_accepts_the_golden_row():
    new = [1, 0, 11, 0, 49]
    assert run.check_report(GOLDEN_ROW, 0, _report(new, {"2": [1], "3": [1], "6": new})) is None


@pytest.mark.parametrize(
    "code, text, problem",
    [
        (2, _report([1, 0, 11, 0, 49], {"2": [1], "6": [1, 0, 11, 0, 49]}), "exit code"),
        (0, _report([1, 0, 11, 0, 49], {"2": [1], "6": [1, 0, 11, 0, 49]}, supersingular=False),
         "not supersingular"),
        (0, _report([1, 0, 4, 0, 49], {"2": [1], "6": [1, 0, 4, 0, 49]}), "differs from the known"),
        (0, _report([1, 0, 11, 0, 48], {"2": [1], "6": [1, 0, 11, 0, 48]}), "Weil numerator"),
        (0, _report([1, 0, 11, 0, 49], {"2": [1, 1], "6": [1, 0, 11, 0, 49]}), "subcover"),
        (0, "not json", "unreadable"),
    ],
)
def test_check_report_flags_each_kind_of_bad_output(code, text, problem):
    assert problem in run.check_report(GOLDEN_ROW, code, text)


def test_a_falsified_verdict_outside_the_congruence_is_not_a_failure():
    new = [1, 0, 11, 0, 49]
    text = _report(new, {"2": [1], "6": new}, applicable=False, supersingular=False)
    assert run.check_report(GOLDEN_ROW, 0, text) is None


# -- the inputs ---------------------------------------------------------------

def test_rows_come_from_the_seed_alone():
    assert len(run.make_rows("atlas", 0, "c")) == 153
    assert run.make_rows("atlas", 7, "c") == run.make_rows("atlas", 7, "c")
    assert run.make_rows("atlas", 7, "c") != run.make_rows("atlas", 8, "c")
    assert all("--roots" not in r["argv"] for r in run.make_rows("atlas", 0, "c"))
    (flag,) = run.make_rows("flagship", 5, None)
    roots = flag["argv"][flag["argv"].index("--roots") + 1].split(",")
    assert sorted(roots) == ["0", "1", "2", "3", "4", "inf"]


# -- the tracer ---------------------------------------------------------------

def test_missing_layer_names_are_reported_absent():
    stub = SimpleNamespace(cli=SimpleNamespace(main=lambda argv: 0))
    t = tracer.Tracer()
    main = t.install(stub)
    assert main([]) == 0
    assert {name for _, _, name in tracer.SPANS} <= t.absent
    passes = [{"wall_s": 1.0, "layers": tracer.layer_values(t.stats, t.counts, {"wall_s": 1.0})}]
    metrics, missing = tracer.summarize(passes, [1.0], t.absent)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert "count.table_s" in missing and "cli.main_self_s" not in missing


# -- cut-down runs --------------------------------------------------------------

def _cut_down(workload: str, trace: int):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--rows", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    _, result = _cut_down(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_the_same_reports(workload):
    provenance, result = _cut_down(workload, 1)
    assert result["correct"] and provenance["absent_layers"] == []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    record = json.loads((run.OUT / f"{workload}-seed0-trace1.json").read_text())
    digests = {p["traced"]: p["reports_sha256"] for p in record["passes"]}
    assert set(digests) == {False, True} and digests[False] == digests[True]


def test_without_the_sources_the_run_fails_and_prints_no_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
