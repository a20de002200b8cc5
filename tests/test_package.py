"""Package-wide checks: every definition in src/ has a caller in src/,
every refusal in src/ is reached from the CLI or kept for a named reason, no
function takes a prime beside a record that carries it, the README's
library example runs and prints what it says, every record is immutable,
numpy is loaded only by a count that sweeps a field, and no run loads
argparse, dataclasses or hashlib (or inspect, which numpy brings)."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from constj import count, curve, forms, gf, lfunc, surface, taxonomy

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


# every raise of ValidationError in src/, as "module.function: a piece of its
# message": the tier-1 test that reaches it through cli.main, or why it stays
# unreached.  A fuzz's draws do not count: a Hypothesis release can change them.
_REFUSAL_TEST = "test_cli.py::test_refusal_exits_one_with_one_error_line"
_USAGE_TEST = "test_cli.py::test_usage_error_exits_one"
_PLACE_TOKEN = "kept: checks places built in code; the place token of ROADMAP item 7 reaches it"
REFUSALS = {
    "cli._default_roots: distinct roots": f"{_REFUSAL_TEST}[more-roots-than-points]",
    "cli.parse_args: expected catalog": f"{_USAGE_TEST}[no-command]",
    "cli.parse_args: takes no": f"{_USAGE_TEST}[run-flag-on-catalog]",
    "cli.parse_args: needs a value": f"{_USAGE_TEST}[flag-without-value]",
    "cli.parse_args: is one of": f"{_USAGE_TEST}[bad-jcase]",
    "cli.parse_args: needs --p and --pattern": f"{_USAGE_TEST}[missing-pattern]",
    "cli._parse_run_config: not an integer": f"{_USAGE_TEST}[non-integer-prime]",
    "cli._parse_run_config: bad pattern": f"{_REFUSAL_TEST}[bad-pattern]",
    "cli.run_pipeline: no rational partner": "test_cli.py::test_verify_non_catalog_pattern_exit_one",
    "count.CountCache._load: not readable": "test_cli.py::test_unusable_cache_dir_exits_one",
    "count.CountCache.put: not writable": "test_cli.py::test_unusable_cache_dir_exits_one",
    "count.count_series: field-size limit": "test_cli.py::test_field_size_limit_exits_one",
    "forms.Place.from_poly: monic": _PLACE_TOKEN,
    "forms.parse_form: out of range": _PLACE_TOKEN,
    "forms.parse_form: reducible": _PLACE_TOKEN,
    "forms.parse_form: multiplicity": f"{_REFUSAL_TEST}[multiplicity-past-exponent]",
    "forms.parse_form: repeated place": _PLACE_TOKEN,
    "forms.parse_form: not divisible": f"{_REFUSAL_TEST}[degree-not-divisible]",
    "forms.parse_form: positive degree": f"{_REFUSAL_TEST}[empty-pattern]",
    "forms.form_from_roots: multiplicities but": f"{_REFUSAL_TEST}[fewer-roots-than-places]",
    "forms.form_from_roots: not an element": "test_cli.py::test_verify_non_integer_root_exit_one",
    "forms.form_from_roots: out of range": f"{_REFUSAL_TEST}[root-past-p]",
    "forms.form_from_roots: pairwise distinct": "test_cli.py::test_verify_duplicate_root_exit_one",
    "gf.is_prime: too large": f"{_REFUSAL_TEST}[prime-past-the-primality-limit]",
    "gf.make_field: prime > 3": "test_cli.py::test_verify_bad_prime_exit_one",
    "lfunc.exact_quotient: constant term 1": "kept: wrapped by bench/tracer.py",
}


def _refusals(src: Path) -> list[tuple[str, str]]:
    """(module.function, source of the message) of each raise ValidationError(...)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ValidationError"):
                found.append((owner, ast.unparse(child.exc.args[0])))
            visit(child, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_every_refusal_in_src_is_in_the_refusal_map():
    sites = _refusals(SRC)
    matches = {}
    for key in REFUSALS:
        owner, piece = key.split(": ", 1)
        matches[key] = [site for site in sites if site[0] == owner and piece in site[1]]
    assert {key: found for key, found in matches.items() if len(found) != 1} == {}
    assert sorted(site for found in matches.values() for site in found) == sorted(sites)


def test_every_refusal_test_runs_the_cli():
    for reached_by in {v for v in REFUSALS.values() if not v.startswith("kept: ")}:
        file, test = reached_by.split("::")
        name, _, case = test.partition("[")
        source = (ROOT / "tests" / file).read_text()
        (node,) = [n for n in ast.parse(source).body
                   if isinstance(n, ast.FunctionDef) and n.name == name]
        called = {n.func.id for n in ast.walk(node)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert called & {"main", "run_cli"}, reached_by
        if case:
            assert f'"{case[:-1]}"' in source, reached_by  # the case's id


# records that carry their prime, f.p: a function that takes one takes no p,
# and neither does a method of a class whose constructor takes one
CARRIES_P = {"FactoredForm", "CurveSpec", "ZetaBundle", "LPolynomial"}


def _params(node: ast.FunctionDef) -> list[ast.arg]:
    return [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]


def _records_taken(node: ast.FunctionDef) -> set[str]:
    """The records of CARRIES_P that a parameter annotation names."""
    return CARRIES_P & {
        word for arg in _params(node) if arg.annotation is not None
        for word in re.findall(r"\w+", ast.unparse(arg.annotation))
    }


def _p_beside_a_record(src: Path) -> list[str]:
    """Functions and methods with a parameter named p and a parameter whose
    annotation names a record of CARRIES_P, and methods with a parameter
    named p of a class whose __init__ or __new__ takes such a record."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        built_from: dict[ast.FunctionDef, set[str]] = {}  # method -> its class's records
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods = [sub for sub in cls.body if isinstance(sub, ast.FunctionDef)]
                records = set().union(
                    *(_records_taken(m) for m in methods if m.name in ("__init__", "__new__"))
                )
                built_from.update((m, records) for m in methods)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if "p" in {arg.arg for arg in _params(node)} and (
                _records_taken(node) | built_from.get(node, set())
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_no_function_takes_p_beside_a_record_that_carries_it():
    assert _p_beside_a_record(SRC) == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    expected = [line.split("#")[-1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


# the package's records, module.class: each one is a NamedTuple
RECORDS = [
    "gf.FieldContext",
    "forms.JCase",
    "forms.Place",
    "forms.FactoredForm",
    "curve.CurveSpec",
    "lfunc.LPolynomial",
    "lfunc.ZetaBundle",
    "lfunc.Verdict",
    "taxonomy.CatalogRow",
]


def test_the_record_list_names_every_public_record_in_src():
    found = [
        f"{module.__name__.split('.')[-1]}.{name}"
        for module in (count, curve, forms, gf, lfunc, surface, taxonomy)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__ and not name.startswith("_")
    ]
    assert sorted(found) == sorted(RECORDS)


@pytest.fixture(scope="module")
def one_of_each_record(f5553):
    bundle = lfunc.zeta_bundle(f5553)
    made = [
        gf.make_field(5, 2),
        f5553.jcase,
        f5553.places[0][0],
        f5553,
        bundle.curves[0],
        bundle.lpolys[0],
        bundle,
        lfunc.verdict_from_bundle(bundle),
        taxonomy.catalog_row(f5553.pattern, f5553.jcase),
    ]
    return {f"{type(r).__module__.split('.')[-1]}.{type(r).__name__}": r for r in made}


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_of_a_record_can_be_assigned(one_of_each_record, name):
    record = one_of_each_record[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# runs constj.cli.main on argv in a fresh interpreter and reports, after the
# process's own output, which of numpy, argparse, dataclasses, inspect and hashlib were
# loaded (this test process has them all)
_WATCHED = ("numpy", "argparse", "dataclasses", "inspect", "hashlib")
_CHILD = f"""
import sys
import constj.cli
code = constj.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("loaded:", *[m for m in {_WATCHED!r} if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


def _fresh_run(*argv: str) -> tuple[int, str, set[str]]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr
    return proc.returncode, proc.stdout, set(last.split()[1:])


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
    code, _, loaded = _fresh_run(*argv)
    assert code == exit_code
    assert loaded == set()


def test_only_a_cold_row_loads_numpy(tmp_path):
    argv = ("verify", "--p", "7", "--pattern", "5,5,5,3", "--format", "json",
            "--cache-dir", str(tmp_path))
    golden = (ROOT / "tests" / "data" / "verify_j0_5553_p7.json").read_text()
    code, cold, loaded = _fresh_run(*argv)
    assert (code, cold, "numpy" in loaded) == (0, golden, True)
    assert not {"argparse", "dataclasses", "hashlib"} & loaded  # inspect may come with numpy
    code, warm, loaded = _fresh_run(*argv)
    assert (code, warm, loaded) == (0, golden, set())
