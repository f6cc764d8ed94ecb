"""Command-line front end.

Subcommands: roots, poset, antichains, classify, verify, sweep, figure,
catalan.  Exit codes: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass

from .classifier import (
    catalan_numbers,
    classify_all,
    classify_system,
    sweep_ratio,
)
from .exactfield import FIELD_TAGS, scalar_to_json
from .render import RankNotTwo, figure_svg, require_rank_two
from .rootposet import RootPoset
from .rootsystem import COXETER_TYPES, _resolve_ratio, build, parse_spec


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _members(antichain):
    return [i + 1 for i in antichain]  # 1-based root numbers in all output


def _certificate_json(cert):
    """An empty region's ``OrderCertificate``, with 1-based root numbers."""
    return {
        "kind": "order",
        "lower": [[i + 1, scalar_to_json(w)] for i, w in cert.lower],
        "upper": [[i + 1, scalar_to_json(w)] for i, w in cert.upper],
    }


def report_to_json(report):
    spec = report.spec
    antichains = []
    for v in report.verdicts:
        entry = {
            "members": _members(v.antichain),
            "status": v.status,
            "method": v.method,
        }
        if v.witness is not None:
            entry["witness"] = [scalar_to_json(x) for x in v.witness]
        if v.certificate is not None:
            entry["certificate"] = _certificate_json(v.certificate)
        if v.bounded is not None:
            entry["bounded"] = v.bounded
        antichains.append(entry)
    cat = report.catalan
    return {
        "spec": {
            "label": spec.label(),
            "family": spec.family,
            "m": spec.m,
        },
        "field_backend": report.field_backend,
        "antichains": antichains,
        "counts": {
            "antichains": report.antichain_total,
            "by_size": {str(k): v for k, v in sorted(report.by_size.items())},
            "maximal": report.maximal_total,
            "good": report.good_count,
            "bad": report.bad_count,
            "propagated": report.propagated_nonempty,
            "lp_resolved": report.lp_resolved,
            "regions": report.region_count,
            "bounded": report.bounded_count,
            "empty": len(report.empty_list),
            "catalan": {
                "exponents": cat.exponents,
                "coxeter_number": cat.coxeter_number,
                "cat": cat.cat,
                "cat_positive": cat.cat_positive,
            },
        },
        "bijection": {
            "holds": report.bijection_holds,
            "bad_witnesses": [_members(a) for a in report.bijection_bad_witnesses],
        },
        "degenerate": [
            {"members": _members(f["antichain"]), "where": f["where"]}
            for f in report.degenerate_flags
        ],
    }


def report_schema():
    """JSON schema for the classification report."""
    fields = {"enum": list(FIELD_TAGS)}
    scalar = {
        "type": "object",
        "properties": {
            "field": fields,
            "a": {"type": "string"},
            "b": {"type": "string"},
            "value": {"type": "string"},
        },
        "required": ["field"],
        "additionalProperties": False,
    }
    root = {"type": "integer", "minimum": 1}
    members = {"type": "array", "items": root}
    pairs = {"type": "array", "items": {  # [root number, convex weight]
        "type": "array", "items": [root, scalar], "minItems": 2,
        "additionalItems": False}}
    certificate = {"type": "object", "properties": {
        "kind": {"const": "order"}, "lower": pairs, "upper": pairs},
        "required": ["kind", "lower", "upper"], "additionalProperties": False}
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "properties": {
            "spec": {
                "type": "object",
                "properties": {
                    "label": {"type": "string"},
                    "family": {"enum": sorted(COXETER_TYPES)},
                    "m": {"type": ["integer", "null"]},
                },
                "required": ["label", "family"],
            },
            "field_backend": fields,
            "antichains": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "members": members,
                        "status": {"enum": ["NonEmpty", "Empty", "Degenerate"]},
                        "method": {"enum": ["Propagated", "LP"]},
                        "witness": {"type": "array", "items": scalar},
                        "certificate": certificate,
                        "bounded": {"type": "boolean"},
                    },
                    "required": ["members", "status", "method"],
                    "additionalProperties": False,
                },
            },
            "counts": {
                "type": "object",
                "properties": {
                    "antichains": {"type": "integer"},
                    "by_size": {"type": "object"},
                    "maximal": {"type": "integer"},
                    "good": {"type": "integer"},
                    "bad": {"type": "integer"},
                    "propagated": {"type": "integer"},
                    "lp_resolved": {"type": "integer"},
                    "regions": {"type": "integer"},
                    "bounded": {"type": "integer"},
                    "empty": {"type": "integer"},
                    "catalan": {"type": "object"},
                },
                "required": ["antichains", "regions", "bounded", "empty"],
            },
            "bijection": {
                "type": "object",
                "properties": {
                    "holds": {"type": "boolean"},
                    "bad_witnesses": {"type": "array", "items": members},
                },
                "required": ["holds", "bad_witnesses"],
            },
            "degenerate": {"type": "array"},
        },
        "required": ["spec", "field_backend", "antichains", "counts",
                     "bijection", "degenerate"],
        "additionalProperties": False,
    }


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verification catalog
# ---------------------------------------------------------------------------

@dataclass
class CatalogExpectation:
    antichains: int | None = None
    by_size: dict | None = None
    maximal: int | None = None
    good: int | None = None
    bad: int | None = None
    propagated: int | None = None
    regions: int | None = None
    bounded: int | None = None
    empty_sizes: dict | None = None
    bijection: bool | None = None


def expectation_for(spec):
    if spec.family == "H3":
        return CatalogExpectation(
            antichains=41, by_size={0: 1, 1: 15, 2: 21, 3: 4},
            maximal=16, good=16, bad=0,
            regions=41, bounded=29, empty_sizes={}, bijection=True)
    if spec.family == "H4":
        return CatalogExpectation(
            antichains=429, by_size={0: 1, 1: 60, 2: 206, 3: 142, 4: 20},
            maximal=152, good=139, bad=13, propagated=401,
            regions=413, bounded=355,
            empty_sizes={1: 1, 2: 11, 3: 4}, bijection=False)
    m = spec.m
    if m % 2 == 1:
        return CatalogExpectation(
            regions=(3 * m + 1) // 2, bounded=(3 * m + 1) // 2 - 3,
            empty_sizes={}, bijection=True)
    if _resolve_ratio(spec) == 1:
        return CatalogExpectation(
            regions=3 * m // 2 + 1, bounded=3 * m // 2 - 2,
            empty_sizes={}, bijection=True)
    return None  # non-unit even ratio: no published count to compare against


def verify_report(report, expect):
    """List of mismatch strings (empty when everything agrees)."""
    diffs = []

    def check(name, got, want):
        if want is not None and got != want:
            diffs.append(f"{name}: expected {want}, got {got}")

    check("antichains", report.antichain_total, expect.antichains)
    check("by_size", report.by_size, expect.by_size)
    check("maximal", report.maximal_total, expect.maximal)
    check("good", report.good_count, expect.good)
    check("bad", report.bad_count, expect.bad)
    check("propagated", report.propagated_nonempty, expect.propagated)
    check("regions", report.region_count, expect.regions)
    check("bounded", report.bounded_count, expect.bounded)
    check("empty sizes", dict(Counter(len(a) for a in report.empty_list)),
          expect.empty_sizes)
    check("bijection", report.bijection_holds, expect.bijection)
    return diffs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_roots(args):
    rs = build(parse_spec(args.spec))
    if args.format == "json":
        _emit(_dump({"spec": rs.spec.label(), "field_backend": rs.field,
                     "roots": rs.roots_to_json()}), args.out)
    else:
        lines = [f"{rs.spec.label()}  ({rs.field} backend, "
                 f"{len(rs.positives)} positive roots)"]
        for r in rs.positives:
            coeffs = ", ".join(str(c) for c in r.coeffs)
            lines.append(f"  {r.index + 1:3d}: ({coeffs})  orbit a{r.orbit + 1}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_poset(args):
    poset = RootPoset(build(parse_spec(args.spec)))
    if args.format == "dot":
        _emit(poset.to_dot() + "\n", args.out)
    elif args.format == "json":
        _emit(_dump({"covers": [[i + 1, j + 1, simple]
                                for i, j, simple in poset.hasse()]}), args.out)
    else:
        lines = [f"{i + 1} < {j + 1}" + ("" if simple else "  (non-reflection)")
                 for i, j, simple in poset.hasse()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_antichains(args):
    poset = RootPoset(build(parse_spec(args.spec)))
    ac = poset.antichains()
    if args.format == "json":
        _emit(_dump({"total": len(ac),
                     "antichains": [_members(a) for a in ac]}), args.out)
    else:
        hist = Counter(len(a) for a in ac)
        lines = [f"{len(ac)} antichains; by size "
                 + " ".join(f"{k}:{v}" for k, v in sorted(hist.items()))]
        lines += [",".join(map(str, _members(a))) if a else "(empty)" for a in ac]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _summary_lines(report):
    lines = [
        f"{report.spec.label()}  ({report.field_backend} backend)",
        f"  antichains {report.antichain_total}  maximal {report.maximal_total}"
        f"  good {report.good_count}  bad {report.bad_count}",
        f"  propagated {report.propagated_nonempty}  lp {report.lp_resolved}",
        f"  regions {report.region_count}  bounded {report.bounded_count}"
        f"  empty {len(report.empty_list)}",
        f"  bijection {'holds' if report.bijection_holds else 'fails'}"
        f"  cat {report.catalan.cat}  cat+ {report.catalan.cat_positive}",
    ]
    if report.degenerate_flags:
        lines.append(f"  DEGENERATE near-tie flags: {len(report.degenerate_flags)}")
    return lines


def _cmd_classify(args):
    if args.show_empty and args.format != "text":
        raise ValueError("--show-empty needs --format text")
    report = classify_system(parse_spec(args.spec))
    if args.format == "text":
        lines = _summary_lines(report)
        if args.show_empty:
            for a in report.empty_list:
                lines.append("  empty: " + ",".join(map(str, _members(a))))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump(report_to_json(report)), args.out)
    return 0


def _cmd_verify(args):
    spec = parse_spec(args.spec)
    expect = expectation_for(spec)
    if expect is None:
        print(f"no catalog entry for {spec.label()}", file=sys.stderr)
        return 2
    report = classify_system(spec)
    diffs = verify_report(report, expect)
    if diffs:
        print(f"{spec.label()}: MISMATCH")
        for d in diffs:
            print("  " + d)
        return 1
    print(f"{spec.label()}: ok "
          f"({report.region_count} regions, {report.bounded_count} bounded)")
    return 0


def _cmd_sweep(args):
    rows = sweep_ratio(args.m)
    if args.format == "json":
        _emit(_dump({"m": args.m, "rows": rows}), args.out)
    else:
        lines = [f"I2({args.m}) ratio sweep"]
        for row in rows:
            mark = " *" if row["count_change"] else ""
            flag = " degenerate" if row["degenerate"] else ""
            lines.append(f"  {row['ratio']:<16} regions {row['region_count']:3d}"
                         f"  bounded {row['bounded_count']:3d}{flag}{mark}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_figure(args):
    poset = RootPoset(build(parse_spec(args.spec)))
    require_rank_two(poset.system)  # before the census, which may be long
    report = classify_all(poset)
    svg = figure_svg(poset, report.verdicts) + "\n"
    if not (args.out and args.out.endswith(".svg")):
        _emit(svg, args.out)
        return 0
    # the .dot sidecar first: one that cannot be written leaves no SVG
    # behind, and an SVG that cannot be written takes the sidecar with it
    dot = args.out[:-4] + ".dot"
    _emit(poset.to_dot() + "\n", dot)
    try:
        _emit(svg, args.out)
    except OSError:
        os.remove(dot)
        raise
    return 0


def _cmd_catalan(args):
    spec = parse_spec(args.spec)
    cat = catalan_numbers(spec.family, spec.m)
    doc = {"spec": spec.label(), "exponents": cat.exponents,
           "coxeter_number": cat.coxeter_number,
           "cat": cat.cat, "cat_positive": cat.cat_positive}
    if args.format == "json":
        _emit(_dump(doc), args.out)
    else:
        _emit(f"{spec.label()}: exponents {cat.exponents}, "
              f"h = {cat.coxeter_number}, cat = {cat.cat}, "
              f"cat+ = {cat.cat_positive}\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="catalanregions",
        description="Dominant regions of Catalan-type hyperplane arrangements "
                    "for the noncrystallographic root systems H3, H4, I2(m).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, formats=None):
        """A spec subcommand; formats[0] is the default --format."""
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="H3 | H4 | I2:<m>[:r=<ratio>]")
        if formats:
            p.add_argument("--out", default=None)
            p.add_argument("--format", choices=formats, default=formats[0])
        return p

    command("roots", "list positive roots", ["text", "json"])
    command("poset", "emit the root poset", ["dot", "json", "text"])
    command("antichains", "enumerate antichains", ["text", "json"])
    p = command("classify", "full region census", ["json", "text"])
    p.add_argument("--show-empty", action="store_true",
                   help="print the antichains of the empty regions")
    command("verify", "compare census to known counts")
    p = sub.add_parser("sweep", help="ratio sweep for even I2(m)")
    p.add_argument("m", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "text"], default="text")
    command("figure", "SVG of a rank-2 arrangement", ["svg"])
    command("catalan", "generalized Catalan numbers", ["text", "json"])
    return parser


_HANDLERS = {
    "roots": _cmd_roots,
    "poset": _cmd_poset,
    "antichains": _cmd_antichains,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "catalan": _cmd_catalan,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, RankNotTwo, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
