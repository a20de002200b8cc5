"""Command-line front end: catalog, verify, zeta, report.

Exit codes: 0 success (including "congruence does not apply"), 1 usage or
validation error, 2 hard failure (a verdict that should hold came out false,
or an internal consistency check tripped).  Reports are deterministic for a
given config and tool version; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from . import __version__ as TOOL_VERSION
from . import count, forms, lfunc, surface, taxonomy
from .errors import InvariantViolation, ValidationError
from .gf import make_field

_JSON_INT_LIMIT = 1 << 53


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constj",
        description="Constant j-invariant elliptic surfaces: classification tables, "
        "superelliptic point counts, zeta factors, supersingularity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_cmd, with_run_flags: bool) -> None:
        p_cmd.add_argument("--jcase", choices=forms.JCASES, default="0",
                           help="constant j-invariant family (default 0)")
        p_cmd.add_argument("--format", choices=["text", "json", "csv"], default="text")
        if with_run_flags:
            p_cmd.add_argument("--p", type=int, required=True, help="prime > 3")
            p_cmd.add_argument("--pattern", required=True,
                               help="multiplicities, e.g. 5,5,5,3")
            p_cmd.add_argument("--roots", default=None,
                               help="root list matching the pattern, e.g. 0,1,inf,2 "
                                    "(default: 0,1,inf,2,3,...)")
            p_cmd.add_argument("--cache-dir", default=None,
                               help="directory for the point-count cache")

    common(sub.add_parser("catalog", help="reproduce the classification tables"), False)
    common(sub.add_parser("verify", help="run the full pipeline and gate on the verdict"), True)
    common(sub.add_parser("zeta", help="counts, zeta factors and Newton polygons only"), True)
    common(sub.add_parser("report", help="full report without verdict gating"), True)
    return parser


# ---------------------------------------------------------------------------
# rendering

def _write_json(obj, out, indent: str) -> None:
    """Pass to ``out``, piece by piece, the text of json.dumps(obj, indent=2,
    sort_keys=True) with dict keys made str and ints past 2^53 quoted."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(f'"{obj}"' if abs(obj) > _JSON_INT_LIMIT else int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            out("{}" if isinstance(obj, dict) else "[]")
            return
        inner = indent + "  "
        sep = "\n" + inner
        if isinstance(obj, dict):
            out("{")
            for key in sorted(obj, key=str):
                out(sep)
                out(encode_basestring_ascii(str(key)))
                out(": ")
                _write_json(obj[key], out, inner)
                sep = ",\n" + inner
            out("\n" + indent + "}")
        else:
            out("[")
            for item in obj:
                out(sep)
                _write_json(item, out, inner)
                sep = ",\n" + inner
            out("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    parts: list[str] = []
    _write_json(payload, parts.append, "")
    return "".join(parts) + "\n"


def _flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{idx}."))
    else:
        rows.append((prefix.rstrip("."), "" if obj is None else str(obj)))
    return rows


def render_csv(payload: dict) -> str:
    lines = ["key,value"]
    for key, value in _flatten(payload):
        value = value.replace('"', '""')
        lines.append(f'{key},"{value}"')
    return "\n".join(lines) + "\n"


def _write(payload: dict, fmt: str, render_text: Callable[[dict], str]) -> None:
    """Write payload to stdout as JSON, CSV or the command's own text."""
    render = render_json if fmt == "json" else render_csv if fmt == "csv" else render_text
    sys.stdout.write(render(payload))


# ---------------------------------------------------------------------------
# catalog

def _catalog_payload(jcase: forms.JCase) -> dict:
    rows = [row._asdict() for row in taxonomy.catalog(jcase)]
    excluded = [
        {"pattern": pat, "note": "X_f rational - excluded"}
        for pat in taxonomy.enumerate_patterns(jcase)
        if len(pat) == 2
    ]
    return {
        "jcase": jcase.tag,
        "rows": rows,
        "excluded": excluded,
        "meta": {"tool_version": TOOL_VERSION},
    }


def _catalog_text(payload: dict) -> str:
    out = [f"catalog for {payload['jcase']}"]
    header = f"{'pattern':>18} {'n':>2} {'k':>2} {'class':>22} {'torelli':>8}  congruence"
    out.append(header)
    for row in payload["rows"]:
        pat = ",".join(str(m) for m in row["pattern"])
        flag = "X" if row["torelli_failure_expected"] else "-"
        out.append(
            f"{pat:>18} {row['n']:>2} {row['k']:>2} {row['surface_class']:>22} "
            f"{flag:>8}  {row['supersingular_congruence']}"
        )
    for row in payload["excluded"]:
        pat = ",".join(str(m) for m in row["pattern"])
        out.append(f"{pat:>18}  {row['note']}")
    return "\n".join(out) + "\n"


def cmd_catalog(args) -> int:
    _write(_catalog_payload(forms.JCASES[args.jcase]), args.format, _catalog_text)
    return 0


# ---------------------------------------------------------------------------
# verify / zeta / report

def _default_roots(k: int, p: int) -> list[str]:
    """The first k of the points 0, 1, inf, 2, 3, ..., p-1 of P^1(F_p)."""
    if k > p + 1:
        raise ValidationError(f"pattern needs {k} distinct roots but P^1(F_{p}) is too small")
    return ["0", "1", "inf"][:k] + [str(v) for v in range(2, k - 1)]


def _parse_run_config(args, command: str) -> tuple[forms.FactoredForm, dict]:
    """The form and the config that echoes it: each root as the place it
    names, multiplicities descending, and equal ones in the default order
    0, 1, inf, 2, 3, ...; so however the pairs were typed, one form has one."""
    jcase = forms.JCASES[args.jcase]
    try:
        pattern = [int(tok) for tok in args.pattern.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad pattern {args.pattern!r}") from exc
    make_field(args.p)  # p prime > 3 before the roots are counted or read
    if args.roots is None:
        roots = _default_roots(len(pattern), args.p)
    else:
        roots = [tok.strip() for tok in args.roots.split(",") if tok.strip() != ""]
    f = forms.form_from_roots(jcase, pattern, roots, p=args.p)
    ranked = []  # (-m, rank in the default order, root); every place is linear
    for pl, m in f.places:
        r = None if pl.at_infinity else -pl.poly[0] % f.p
        ranked.append((-m, 2, "inf") if r is None else (-m, r + (r >= 2), str(r)))
    return f, {
        "command": command,
        "jcase": jcase.tag,
        "p": args.p,
        "pattern": list(f.pattern),
        "roots": [r for *_, r in sorted(ranked)],
        "format": args.format,
    }


def _curve_section(bundle: lfunc.ZetaBundle) -> dict:
    covers = bundle.curves
    return {
        "genus": {str(c.a): c.genus for c in covers},
        "components": {str(c.a): c.components for c in covers},
        "h1_dim": {str(c.a): c.h1_dim for c in covers},
        "chi_singular": {str(c.a): c.chi_singular for c in covers},
        "branch_correction": {str(c.a): c.branch_correction for c in covers},
        "eigenspace_dims": list(bundle.dims),
    }


def _surface_section(f: forms.FactoredForm, dims: tuple[int, ...]) -> dict:
    def one(inv: surface.SurfaceInvariants) -> dict:
        return dict(inv._asdict(), fibers=[fb.symbol for fb in inv.fibers])

    f_side = surface.invariants(f)
    return {
        "f_side": one(f_side),
        "partner": one(surface.invariants(f.complement())),
        "ns_perp_check": surface.ns_perp_check(f_side, dims),
    }


def _taxonomy_section(f: forms.FactoredForm) -> dict:
    row = taxonomy.catalog_row(f.pattern, f.jcase)
    if row is not None:
        return dict(row._asdict(), in_catalog=True)
    return {
        "pattern": list(f.pattern),
        "n": f.n,
        "k": f.k,
        "surface_class": taxonomy.classify_Xf(f.pattern),
        "in_catalog": False,
    }


def _polygon_json(poly: lfunc.Polygon) -> list[list[str]]:
    return [[str(slope), str(length)] for slope, length in poly]


def run_pipeline(
    f: forms.FactoredForm, cfg: dict, cache_dir: Optional[str], with_verdict: bool
) -> tuple[dict, Optional[lfunc.Verdict]]:
    cache = count.CountCache(cache_dir, f) if cache_dir else None

    if with_verdict and not taxonomy.is_partner_rational(f.pattern, f.jcase):
        raise ValidationError(
            f"pattern {list(f.pattern)} has no rational partner; use zeta instead"
        )

    bundle = lfunc.zeta_bundle(f, cache=cache)
    verdict_obj = lfunc.verdict_from_bundle(bundle) if with_verdict else None

    counts_section = {
        str(c.a): [[i, n] for i, n in enumerate(s.counts, 1)]
        for c, s in zip(bundle.curves, bundle.series)
    }
    lf_section = {
        "covers": {str(c.a): list(lp.coeffs) for c, lp in zip(bundle.curves, bundle.lpolys)},
        "new_factor": list(bundle.new_factor.coeffs),
        "new_factor_degree": bundle.new_factor.degree,
        "newton_polygons": {
            str(c.a): _polygon_json(poly) for c, poly in zip(bundle.curves, bundle.polygons)
        },
        "new_factor_polygon": _polygon_json(bundle.polygons[-1]),
    }

    verdict_section = None
    if verdict_obj is not None:
        verdict_section = dict(
            verdict_obj._asdict(),
            e_supersingular=verdict_obj.e_supersingular,
            surface_artin_supersingular=verdict_obj.surface_artin_supersingular,
        )

    report = {
        "config": cfg,
        "taxonomy": _taxonomy_section(f),
        "curve": _curve_section(bundle),
        "surface": _surface_section(f, bundle.dims),
        "counts": counts_section,
        "lfunctions": lf_section,
        "verdict": verdict_section,
        "meta": {"tool_version": TOOL_VERSION, "form_key": f.key()},
    }
    return report, verdict_obj


def _report_text(report: dict) -> str:
    out = []
    cfg = report["config"]
    out.append(f"{cfg['command']} jcase={cfg['jcase']} p={cfg['p']} "
               f"pattern={','.join(str(m) for m in cfg['pattern'])} "
               f"roots={','.join(cfg['roots'])}")
    tax = report["taxonomy"]
    out.append(f"surface class: {tax['surface_class']}; n={tax['n']} k={tax['k']}")
    cur = report["curve"]
    out.append(f"cover genera: " + " ".join(f"a={a}:{g}" for a, g in sorted(cur["genus"].items())))
    out.append(f"eigenspace dims: {cur['eigenspace_dims']}")
    srf = report["surface"]["f_side"]
    out.append(f"e={srf['euler']} p_g={srf['p_g']} h11={srf['h11']} "
               f"MW rank (char 0)={srf['mw_rank_char0']}; "
               f"partner MW rank={report['surface']['partner']['mw_rank_char0']}")
    for a, rows in sorted(report["counts"].items()):
        out.append(f"counts a={a}: " + " ".join(f"N(p^{i})={n}" for i, n in rows))
    lf = report["lfunctions"]
    for a, coeffs in sorted(lf["covers"].items()):
        out.append(f"L a={a}: {coeffs}")
    out.append(f"new factor (deg {lf['new_factor_degree']}): {lf['new_factor']}")
    out.append("new factor Newton polygon: "
               + (" ".join(f"slope {s} x{l}" for s, l in lf["new_factor_polygon"]) or "(empty)"))
    if report["verdict"] is not None:
        v = report["verdict"]
        out.append(
            f"verdict: applicable={v['theorem_applicable']} "
            f"pure_half={v['curve_new_factor_pure']} "
            f"E_trace={v['e_trace']} "
            f"supersingular={v['surface_artin_supersingular']}"
        )
    return "\n".join(out) + "\n"


def cmd_run(args, command: str) -> int:
    f, cfg = _parse_run_config(args, command)
    started = time.perf_counter()
    report, v = run_pipeline(f, cfg, args.cache_dir, with_verdict=command in ("verify", "report"))
    elapsed_ms = int(1000 * (time.perf_counter() - started))
    _write(report, args.format, _report_text)
    print(f"# elapsed_ms={elapsed_ms}", file=sys.stderr)
    if command == "verify" and v.theorem_applicable and not v.surface_artin_supersingular:
        pattern = ",".join(map(str, report["taxonomy"]["pattern"]))  # the form's, sorted
        print(f"FAILURE: supersingularity fails where the theorem applies: "
              f"jcase={cfg['jcase']} pattern={pattern} p={cfg['p']} "
              f"pure_half={v.curve_new_factor_pure} E_trace={v.e_trace}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is invalid input
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        return cmd_run(args, args.command)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"HARD FAILURE: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
