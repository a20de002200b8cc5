"""Outside-in tracer for the constj benchmark.

Each layer function is wrapped by rebinding the name its caller looks up at
call time (a module global or a class attribute), so the package runs
unchanged and only a traced benchmark process sees the wrappers.  Spans are
kept in memory; the worker writes them out when its pass ends.

A name that no longer exists is recorded as absent, and the per-layer
metrics that depend on it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import time
import weakref
from statistics import median

# (module attribute path, name, span).  The module path is the caller's
# namespace: e.g. count_series calls make_field through constj.count.
SPANS = [
    ("cli", "_curve_section", "cli.sections"),
    ("cli", "_surface_section", "cli.sections"),
    ("cli", "_taxonomy_section", "cli.sections"),
    ("cli", "render_json", "cli.render"),
    ("lfunc", "zeta_bundle", "lfunc.zeta_bundle"),
    ("lfunc", "count_series", "count.series"),
    ("lfunc", "lpolynomial", "lfunc.lpolynomial"),
    ("lfunc.LPolynomial", "check_root_moduli", "lfunc.root_check"),
    ("lfunc", "exact_quotient", "lfunc.quotient"),
    ("lfunc", "verdict_from_bundle", "lfunc.verdict"),
    ("forms", "make_field", "gf.make_field"),
    ("count", "make_field", "gf.make_field"),
    ("count", "count_points", "count.points"),
    ("count", "power_class_table", "count.table"),
    ("count", "find_generator", "count.generator"),
    ("count.CountCache", "get", "count.cache"),
    ("count.CountCache", "put", "count.cache"),
]
TOP_SPAN = "cli.main"

# per-layer metric -> (unit, names it needs: spans, or "attr:<path>" for a
# wrapped name that is counted but not timed)
LAYER_METRICS = {
    "gf.make_field_s": ("s", ["gf.make_field"]),
    "gf.fields_built": ("count", ["attr:gf.make_field.cache_info"]),
    "gf.irreducible_tests": ("count", ["attr:gf.poly_is_irreducible"]),
    "gf.modulus_yield": ("ratio", ["attr:gf.make_field.cache_info", "attr:gf.poly_is_irreducible"]),
    "count.generator_s": ("s", ["count.generator"]),
    "count.table_s": ("s", ["count.table"]),
    "count.table_calls": ("count", ["count.table"]),
    "count.table_builds": ("count", ["count.table"]),
    "count.table_reuse_ratio": ("ratio", ["count.table"]),
    "count.table_bytes_max": ("B", ["count.table"]),
    "count.sweep_s": ("s", ["count.points"]),
    "count.points_swept": ("count", ["count.points"]),
    "count.points_per_s": ("1/s", ["count.points"]),
    "count.cache_hits": ("count", ["count.cache"]),
    "count.cache_misses": ("count", ["count.cache"]),
    "count.cache_s": ("s", ["count.cache"]),
    "count.cache_records_parsed": ("count", ["attr:count.CountCache._load"]),
    "lfunc.lpolynomial_s": ("s", ["lfunc.lpolynomial"]),
    "lfunc.root_check_s": ("s", ["lfunc.root_check"]),
    "lfunc.quotient_s": ("s", ["lfunc.quotient"]),
    "lfunc.verdict_s": ("s", ["lfunc.verdict"]),
    "lfunc.bundle_self_s": ("s", ["lfunc.zeta_bundle"]),
    "cli.sections_s": ("s", ["cli.sections"]),
    "cli.render_s": ("s", ["cli.render"]),
    "cli.main_self_s": ("s", [TOP_SPAN]),
    "trace.coverage": ("ratio", [TOP_SPAN]),
    "trace.overhead_s": ("s", [TOP_SPAN]),
}


def _resolve(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Span stack with self time, plus the counts the layers report."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.absent: set[str] = set()
        self.counts = {
            "table_builds": 0,
            "table_bytes_max": 0,
            "points_swept": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_records_parsed": 0,
        }
        self.field_args: set[tuple[int, int]] = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, fn, name: str, on_return=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                self.spans.append((frame[0], parent[0] if parent else -1, name, start, end))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def install(self, constj):
        """Rebind every layer name; return the traced ``constj.cli.main``."""
        hooks = {
            "make_field": self._on_make_field,
            "count_points": self._on_count_points,
            "power_class_table": self._table_hook(),
            "get": self._on_cache_get,
        }
        for owner_path, attr, name in SPANS:
            owner = _resolve(constj, owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.add(name)
                continue
            setattr(owner, attr, self.wrap(fn, name, hooks.get(attr)))
        self._count_cache_loads(constj)
        return self.wrap(constj.cli.main, TOP_SPAN)

    # -- counts taken at the span boundaries --------------------------------

    def _on_make_field(self, args, kwargs, ctx) -> None:
        self.field_args.add((args[0], args[1] if len(args) > 1 else kwargs.get("i", 1)))

    def _on_count_points(self, args, kwargs, n_points) -> None:
        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        self.counts["points_swept"] += ctx.q

    def _on_cache_get(self, args, kwargs, value) -> None:
        self.counts["cache_misses" if value is None else "cache_hits"] += 1

    def _table_hook(self):
        # A table call that returns an array object already handed out is a
        # reuse; anything else was built by that call.  Weak references keep
        # the tracer from holding tables alive.
        handed_out: dict[int, weakref.ref] = {}

        def on_table(args, kwargs, result) -> None:
            table = result[0]
            ref = handed_out.get(id(table))
            if ref is None or ref() is not table:
                self.counts["table_builds"] += 1
                handed_out[id(table)] = weakref.ref(table)
            self.counts["table_bytes_max"] = max(self.counts["table_bytes_max"], int(table.nbytes))

        return on_table

    def _count_cache_loads(self, constj) -> None:
        cache_cls = _resolve(constj, "count.CountCache")
        load = getattr(cache_cls, "_load", None) if cache_cls is not None else None
        if load is None:
            self.absent.add("attr:count.CountCache._load")
            return
        loaded = weakref.WeakSet()

        def counted_load(cache):
            records = load(cache)
            if cache not in loaded:
                loaded.add(cache)
                self.counts["cache_records_parsed"] += len(records)
            return records

        cache_cls._load = counted_load

    def fields_built(self, constj) -> int | None:
        info = getattr(constj.gf.make_field, "cache_info", None)
        if info is None:
            self.absent.add("attr:gf.make_field.cache_info")
            return None
        return info().misses

    def count_irreducible_tests(self, constj) -> int | None:
        """Rerun the modulus search for every field the pass built, counting
        irreducibility tests.  Run after the timed rows: the test is called
        millions of times, and wrapping it during the pass would inflate
        the make_field span."""
        gf = constj.gf
        test = getattr(gf, "poly_is_irreducible", None)
        if test is None:
            self.absent.add("attr:gf.poly_is_irreducible")
            return None
        search = getattr(gf.make_field, "__wrapped__", gf.make_field)
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return test(*args, **kwargs)

        gf.poly_is_irreducible = counted
        try:
            for p, i in sorted(self.field_args):
                search(p, i)
        finally:
            gf.poly_is_irreducible = test
        return calls


def layer_values(stats: dict, counts: dict, extra: dict) -> dict:
    """Per-layer metric values of one traced pass (absent ones omitted)."""

    def stat(name, field):  # field 0: calls, 1: total seconds, 2: self seconds
        return stats.get(name, (0, 0.0, 0.0))[field]

    def total(name):
        return stat(name, 1)

    sweep_s = stat("count.points", 2)
    table_calls = stat("count.table", 0)
    tests = extra.get("irreducible_tests")
    fields = extra.get("fields_built")
    modulus_yield = None
    if fields is not None and tests is not None:
        modulus_yield = fields / tests if tests else 0.0
    values = {
        "gf.make_field_s": total("gf.make_field"),
        "gf.fields_built": fields,
        "gf.irreducible_tests": tests,
        "gf.modulus_yield": modulus_yield,
        "count.generator_s": total("count.generator"),
        "count.table_s": total("count.table"),
        "count.table_calls": table_calls,
        "count.table_builds": counts["table_builds"],
        "count.table_reuse_ratio": (
            (table_calls - counts["table_builds"]) / table_calls if table_calls else 0.0
        ),
        "count.table_bytes_max": counts["table_bytes_max"],
        "count.sweep_s": sweep_s,
        "count.points_swept": counts["points_swept"],
        "count.points_per_s": counts["points_swept"] / sweep_s if sweep_s else 0.0,
        "count.cache_hits": counts["cache_hits"],
        "count.cache_misses": counts["cache_misses"],
        "count.cache_s": total("count.cache"),
        "count.cache_records_parsed": counts["cache_records_parsed"],
        "lfunc.lpolynomial_s": total("lfunc.lpolynomial"),
        "lfunc.root_check_s": total("lfunc.root_check"),
        "lfunc.quotient_s": total("lfunc.quotient"),
        "lfunc.verdict_s": total("lfunc.verdict"),
        "lfunc.bundle_self_s": stat("lfunc.zeta_bundle", 2),
        "cli.sections_s": total("cli.sections"),
        "cli.render_s": total("cli.render"),
        "cli.main_self_s": stat(TOP_SPAN, 2),
        "trace.coverage": total(TOP_SPAN) / extra["wall_s"],
    }
    return {k: v for k, v in values.items() if v is not None}


def summarize(traced_passes: list[dict], untraced_walls: list[float], absent: set[str]):
    """Median per-layer metrics over traced passes, and the absent list."""
    per_pass = [p["layers"] for p in traced_passes]
    out = {}
    missing = []
    for name, (unit, needs) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = median(p["wall_s"] for p in traced_passes) - median(untraced_walls)
        elif any(n in absent for n in needs) or any(name not in v for v in per_pass):
            missing.append(name)
            value = 0
        else:
            value = median(v[name] for v in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out, missing
