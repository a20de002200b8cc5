"""Report sections and the JSON writer against the code they replaced.

The oracles are the earlier implementations kept verbatim: a two-pass
``json.dumps(..., indent=2, sort_keys=True)`` over a payload whose keys were
made str and whose ints past 2^53 were made strings, and sections built by
``dataclasses.asdict`` and a scan of the whole catalog.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from constj import surface, taxonomy
from constj.cli import _surface_section, _taxonomy_section, render_json
from constj.curve import eigenspace_dims
from constj.forms import J0, J1728, Place, form_from_roots, parse_form

from conftest import concrete_form

_JSON_INT_LIMIT = 1 << 53


def _json_safe(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _JSON_INT_LIMIT else obj
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def render_json_oracle(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"


def surface_section_oracle(f) -> dict:
    def one(g) -> dict:
        inv = dataclasses.asdict(surface.invariants(g))
        inv["fibers"] = [fb["symbol"] for fb in inv["fibers"]]
        return inv

    return {
        "f_side": one(f),
        "partner": one(f.complement()),
        "ns_perp_check": surface.ns_perp_check(f),
    }


def taxonomy_section_oracle(f) -> dict:
    row = next(
        (r for r in taxonomy.catalog(f.jcase) if r.pattern == f.pattern), None
    )
    if row is not None:
        data = dataclasses.asdict(row)
        data["surface_class"] = row.surface_class.value
        data["in_catalog"] = True
        return data
    return {
        "pattern": list(f.pattern),
        "n": f.n,
        "k": f.k,
        "surface_class": taxonomy.classify_Xf(f.pattern).value,
        "in_catalog": False,
    }


# ---------------------------------------------------------------------------
# the JSON writer

EDGE_INTS = [2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 0, -1, 2**80]

leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(EDGE_INTS)
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", " ", "😀", 'a"b\\c'])
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.dictionaries(st.integers(-(2**60), 2**60), children, max_size=4)
    )


payloads = st.recursive(leaves, _containers, max_leaves=40)


@given(payloads)
def test_render_json_matches_the_two_pass_oracle(payload):
    assert render_json(payload) == render_json_oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [{}, [], (), {"a": []}, {"a": {}}, [()], {1: "x", 10: "y", 2: "z"}, {"é": " "}],
)
def test_render_json_empty_and_edge_containers(payload):
    assert render_json(payload) == render_json_oracle(payload)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), {1, 2}, b"x", object()])
def test_render_json_refuses_unsupported_types(bad):
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_json({"ok": [1, {"bad": bad}]})


# ---------------------------------------------------------------------------
# the sections

def _catalog_forms():
    return [
        concrete_form(jcase, row.pattern, p=7)
        for jcase in (J0, J1728)
        for row in taxonomy.catalog(jcase)
    ]


def _other_forms():
    quadratic = Place.from_poly((1, 0, 1), 7)  # s^2 + 1, roots in F_49
    return [
        form_from_roots(J0, [5, 1], ["0", "1"], p=5),  # zeta-only, X_f rational
        form_from_roots(J0, [3, 3, 3, 3], ["0", "1", "inf", "2"], p=7),  # no rational partner
        parse_form(J0, [(Place.infinity(), 5), (Place.linear(0, 7), 3), (quadratic, 2)], p=7),
        parse_form(J1728, [(Place.linear(0, 7), 2), (quadratic, 3)], p=7),
    ]


@pytest.mark.parametrize("f", _catalog_forms() + _other_forms(), ids=lambda f: f.serialize())
def test_sections_equal_the_asdict_oracles(f):
    assert _surface_section(f, eigenspace_dims(f)) == surface_section_oracle(f)
    assert _taxonomy_section(f) == taxonomy_section_oracle(f)
    assert render_json(_taxonomy_section(f)) == render_json_oracle(taxonomy_section_oracle(f))


def test_section_inputs_cover_both_taxonomy_branches():
    assert all(_taxonomy_section(f)["in_catalog"] for f in _catalog_forms())
    flags = [_taxonomy_section(f)["in_catalog"] for f in _other_forms()]
    assert flags == [False, False, False, True]  # the j = 1728 one has pattern 3,3,2


# ---------------------------------------------------------------------------
# the BLAS thread default

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
def test_import_sets_one_blas_thread_unless_the_user_chose(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, constj; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == expected
