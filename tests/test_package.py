"""Package-wide checks: every definition in src/ has a caller in src/, the
README's library example runs and prints what it says, and numpy is loaded
only by a count that sweeps a field."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "constj"

# definitions with no caller in src/ that stay on purpose
ALLOWED_UNREFERENCED = {
    # the benchmark tracer wraps it as the lfunc.quotient layer; it moves to
    # the tests' oracle once the package reports its own spans
    "lfunc.exact_quotient": "wrapped by bench/tracer.py",
    # the only builder of a place of degree > 1, which the CLI does not reach yet
    "forms.Place.from_poly": "places of degree > 1 (ROADMAP item 7)",
}


def _unreferenced(src: Path) -> list[str]:
    """Module-level functions and classes, and the non-dunder methods of those
    classes, whose name no Name or Attribute node in src/ mentions."""
    defined: list[tuple[str, str]] = []
    mentioned: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
    return [dotted for dotted, name in defined if name not in mentioned]


def test_every_definition_in_src_has_a_caller_in_src():
    assert sorted(_unreferenced(SRC)) == sorted(ALLOWED_UNREFERENCED)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    expected = [line.split("#")[-1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


# runs constj.cli.main on argv in a fresh interpreter and reports, after the
# process's own output, whether numpy was loaded (this test process has it)
_CHILD = """
import sys
import constj.cli
code = constj.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("numpy-loaded", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _fresh_run(*argv: str) -> tuple[int, str, bool]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("numpy-loaded "), proc.stderr
    return proc.returncode, proc.stdout, last == "numpy-loaded True"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        ((), 0),  # import constj.cli alone
        (("catalog", "--format", "json"), 0),
        (("verify", "--p", "8", "--pattern", "5,5,5,3"), 1),
    ],
    ids=["import", "catalog", "bad-prime"],
)
def test_numpy_is_not_loaded_without_a_sweep(argv, exit_code):
    code, _, numpy_loaded = _fresh_run(*argv)
    assert code == exit_code
    assert not numpy_loaded


def test_only_a_cold_row_loads_numpy(tmp_path):
    argv = ("verify", "--p", "7", "--pattern", "5,5,5,3", "--format", "json",
            "--cache-dir", str(tmp_path))
    golden = (ROOT / "tests" / "data" / "verify_j0_5553_p7.json").read_text()
    code, cold, numpy_loaded = _fresh_run(*argv)
    assert (code, cold, numpy_loaded) == (0, golden, True)
    code, warm, numpy_loaded = _fresh_run(*argv)
    assert (code, warm, numpy_loaded) == (0, golden, False)
