"""Command-line surface: thin adapters over the library modules.

Every subcommand emits either a human-readable table (default on a
terminal) or a schema-versioned JSON document (default when piped);
``--format`` overrides.  Floating-point groups are checked with the
library's default integer-rounding tolerance (``invariants.TRACE_TOL``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, harmonics, hgpt, invariants, symgroups

SCHEMA_VERSION = 1

GOLDEN_DIMS = {
    "C2": {(1, 1): 4, (1, 2): 7, (1, 3): 11, (2, 2): 9},
    "C3": {(1, 1): 2, (1, 2): 5, (1, 3): 7, (2, 2): 5},
    "C4": {(1, 1): 2, (1, 2): 3, (1, 3): 5, (2, 2): 5},
    "C5": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3},
    "C6": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3},
}
TABLE_GROUPS = ["C2", "C3", "C4", "C5", "C6",
                "D2", "D3", "D4", "D5", "D6", "T", "O", "I"]
TABLE_CELLS = [(1, 1), (1, 2), (1, 3), (2, 2)]


def _float_json(x):
    if not math.isfinite(x):
        raise ValueError("a document holds only finite numbers, got %s" % x)
    return float.__repr__(x)


_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_json,
                 bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json(obj, indent="\n"):
    """``json.dumps(obj, sort_keys=True, indent=2)``, written directly: with
    ``indent`` set the stdlib encodes in pure Python, several times slower.
    A NaN or infinite float raises ``ValueError`` where json would write it."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{%s%s}" % (",".join([inner + encode_basestring_ascii(k) + ": " + _json(v, inner)
                                     for k, v in items]), indent) if items else "{}"
    if isinstance(obj, (list, tuple)):
        return "[%s%s]" % (",".join([inner + _json(v, inner) for v in obj]), indent) if obj else "[]"
    for t in (int, float, str):           # subclasses, encoded as json does
        if isinstance(obj, t):
            return _JSON_SCALARS[t](obj)
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _document(args, result):
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "format") and v is not None}
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
            "inputs": inputs, "result": result}


def _emit(args, result, table_lines):
    fmt = args.format
    if fmt is None:
        fmt = "table" if sys.stdout.isatty() else "json"
    if fmt == "json":
        print(_json(_document(args, result)))
    else:
        for line in table_lines:
            print(line)


def _poly_texts(polys):
    return [p.to_text() for p in polys]


def _pattern_dict(pat):
    return {
        "pairs": pat.pairs, "independent": pat.independent, "zero": pat.zero,
        "relations": [{"pair": k, "terms": [{"pair": pp, "coefficient": float(c)}
                                            for pp, c in v]}
                      for k, v in sorted(pat.relations.items())],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_group(args):
    g = symgroups.build_group(args.name)
    report = symgroups.verify_group(g)
    dets = [round(d) for d in np.linalg.det(g.stack).tolist()]
    result = {
        "name": g.name, "order": g.order, "rational": g.is_rational,
        "rotations": dets.count(1), "improper": dets.count(-1),
        "verified": report.passed,
        "max_orthogonality_residual": report.max_orthogonality_residual,
        "max_closure_residual": report.max_closure_residual,
        "elements": g.stack.tolist(),
    }
    lines = ["group %s  order %d  (%d rotations, %d improper)  %s arithmetic"
             % (g.name, g.order, dets.count(1), dets.count(-1),
                "exact" if g.is_rational else "float"),
             "verification: %s  (orthogonality %.2e, closure %.2e)"
             % ("passed" if report.passed else "FAILED",
                report.max_orthogonality_residual, report.max_closure_residual)]
    _emit(args, result, lines)
    return 0 if report.passed else 1


def cmd_harmonic_basis(args):
    basis = harmonics.real_basis(args.degree, args.style)
    result = {"degree": args.degree, "style": args.style,
              "polynomials": _poly_texts(basis.polynomials)}
    if basis.norms2 is not None:
        result["cores"] = _poly_texts(basis.cores)
        result["norm2"] = [str(s) for s in basis.norms2]
    lines = ["degree %d, style %s:" % (args.degree, args.style)]
    lines += ["  I^%d = %s" % (i - args.degree, t)
              for i, t in enumerate(result["polynomials"])]
    _emit(args, result, lines)
    return 0


def cmd_basis_change(args):
    bc = harmonics.basis_change(args.degree, args.style)
    A = bc.matrix
    result = {"degree": args.degree, "real_style": args.style,
              "matrix": [[[v.real, v.imag] for v in row] for row in A],
              "unitarity_residual": bc.unitarity_residual()}
    lines = ["basis change A (degree %d, %s real basis), row m, column l:"
             % (args.degree, args.style)]
    for row in A:
        lines.append("  " + "  ".join("%+.6f%+.6fi" % (v.real, v.imag) for v in row))
    lines.append("unitarity residual %.3e" % result["unitarity_residual"])
    _emit(args, result, lines)
    return 0


def cmd_invariant_harmonics(args):
    g = symgroups.build_group(args.group)
    inv = invariants.invariant_harmonics(g, args.degree, args.style)
    result = {"group": g.name, "degree": args.degree,
              "dimension": inv.dimension, "basis": _poly_texts(inv.basis)}
    lines = ["group %s, degree %d: dimension %d" % (g.name, args.degree, inv.dimension)]
    lines += ["  %s" % t for t in result["basis"]]
    _emit(args, result, lines)
    return 0


def cmd_invariants(args):
    g = symgroups.build_group(args.group)
    space = invariants.symmetric_product_space(args.p, args.q, args.style)
    inv = invariants.invariant_subspace(space, g)
    pat = invariants.coefficient_pattern(inv)
    result = {"group": g.name, "p": args.p, "q": args.q, "style": args.style,
              "dimension": inv.dimension, "basis": _poly_texts(inv.basis),
              "coefficient_pattern": _pattern_dict(pat)}
    lines = ["p  q  dim  basis"]
    lines.append("%d  %d  %-4d %s" % (args.p, args.q, inv.dimension,
                                      "; ".join(result["basis"]) or "(none)"))
    lines.append("independent coefficients: %s"
                 % (", ".join("M^H[%d,%d]" % tuple(t) for t in pat.independent) or "none"))
    if pat.relations:
        for k, v in sorted(pat.relations.items()):
            rhs = " + ".join("%g*M^H[%d,%d]" % (c, pp[0], pp[1]) for pp, c in v)
            lines.append("tied: M^H[%d,%d] = %s" % (k[0], k[1], rhs))
    if pat.zero:
        lines.append("zero: %s" % ", ".join("M^H[%d,%d]" % tuple(t) for t in pat.zero))
    _emit(args, result, lines)
    return 0


def cmd_molien(args):
    g = symgroups.build_group(args.group)
    ms = invariants.molien_series(g, args.max_degree)
    result = {"group": g.name, "max_degree": args.max_degree,
              "g": list(ms.g), "h": list(ms.h)}
    lines = ["group %s up to degree %d" % (g.name, args.max_degree),
             "g = %s" % (list(ms.g),), "h = %s" % (list(ms.h),)]
    _emit(args, result, lines)
    return 0


def _load_blocks(path):
    """The blocks of a JSON file: a list of block objects, or an object whose
    "blocks" is one.  A malformed block raises ``ValueError`` naming its index."""
    with open(path, encoding="utf-8") as f:     # JSON text is UTF-8 (RFC 8259)
        try:
            doc = json.load(f)
        except ValueError as exc:                # not JSON, or not UTF-8
            raise ValueError("%s: %s" % (path, exc)) from None
    items = doc.get("blocks") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise ValueError("%s: the blocks must be a JSON list of objects" % path)
    blocks = []
    for k, d in enumerate(items):
        try:
            blocks.append(hgpt.HgptMatrix.from_json_dict(d))
        except ValueError as exc:
            raise ValueError("%s: block %d: %s" % (path, k, exc)) from None
    return blocks


def _xyz(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z")
    return tuple(parts)


def cmd_forward(args):
    if args.nmax is not None and args.nmax < 0:
        raise ValueError("--nmax must be non-negative, got %d" % args.nmax)
    blocks = _load_blocks(args.blocks)
    if args.nmax is not None:
        blocks = [b for b in blocks if b.p <= args.nmax and b.q <= args.nmax]
    v = hgpt.forward_voltage(blocks, args.receiver, args.source)
    result = {"voltage": v, "blocks_used": len(blocks)}
    _emit(args, result, ["V_sr = %.12g  (%d blocks)" % (v, len(blocks))])
    return 0


def cmd_pattern_residual(args):
    g = symgroups.build_group(args.group)
    blocks = _load_blocks(args.blocks)
    rows = []
    for b in blocks:
        space = invariants.symmetric_product_space(b.p, b.q, b.basis_style)
        pat = invariants.coefficient_pattern(
            invariants.invariant_subspace(space, g))
        _, res = hgpt.apply_pattern(b, pat)
        rows.append({"p": b.p, "q": b.q, "residual": res})
    result = {"group": g.name, "residuals": rows}
    lines = ["p  q  residual"]
    lines += ["%d  %d  %.6e" % (r["p"], r["q"], r["residual"]) for r in rows]
    _emit(args, result, lines)
    return 0


def cmd_regenerate_tables(args):
    os.makedirs(args.out, exist_ok=True)
    failures = []
    index = []
    for name in TABLE_GROUPS:
        g = symgroups.build_group(name)
        for (p, q) in TABLE_CELLS:
            space = invariants.symmetric_product_space(p, q)
            inv = invariants.invariant_subspace(space, g)
            golden = GOLDEN_DIMS.get(name, {}).get((p, q))
            if golden is not None and inv.dimension != golden:
                failures.append("%s (%d,%d): computed %d, table says %d"
                                % (name, p, q, inv.dimension, golden))
            doc = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                   "group": name, "p": p, "q": q,
                   "dimension": inv.dimension, "basis": _poly_texts(inv.basis)}
            fname = os.path.join(args.out, "%s_S%d%d.json" % (name, p, q))
            with open(fname, "w") as f:
                f.write(_json(doc))
            index.append({"group": name, "p": p, "q": q,
                          "dimension": inv.dimension, "file": os.path.basename(fname)})
    if failures:
        raise RuntimeError("golden-dimension mismatch: %s" % "; ".join(failures))
    result = {"out": args.out, "cells": index}
    lines = ["group  p  q  dim"]
    lines += ["%-6s %d  %d  %d" % (c["group"], c["p"], c["q"], c["dimension"])
              for c in index]
    lines.append("wrote %d documents to %s" % (len(index), args.out))
    _emit(args, result, lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="hgptsym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=["json", "table"], default=None)
        p.set_defaults(func=func)
        return p

    p = add("group", cmd_group, help="build and verify a point group")
    p.add_argument("--name", required=True)

    p = add("harmonic-basis", cmd_harmonic_basis, help="real harmonic basis of a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--style", choices=harmonics.STYLES, default="integer")

    p = add("basis-change", cmd_basis_change,
            help="real-to-complex harmonic basis change matrix")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--style", choices=harmonics.STYLES, default="orthonormal")

    p = add("invariant-harmonics", cmd_invariant_harmonics,
            help="group-fixed harmonic polynomials of a degree")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--style", choices=harmonics.STYLES, default="integer")

    p = add("invariants", cmd_invariants,
            help="fixed subspace of S_pq and the HGPT coefficient pattern")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--style", choices=harmonics.STYLES, default="integer")

    p = add("molien", cmd_molien, help="Molien series g and harmonic series h")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = add("forward", cmd_forward, help="forward voltage from HGPT blocks")
    p.add_argument("--blocks", required=True)
    p.add_argument("--source", type=_xyz, required=True)
    p.add_argument("--receiver", type=_xyz, required=True)
    p.add_argument("--nmax", type=int, default=None)

    p = add("pattern-residual", cmd_pattern_residual,
            help="symmetry-violation residuals of HGPT blocks against a group")
    p.add_argument("--blocks", required=True)
    p.add_argument("--group", required=True)

    p = add("regenerate-tables", cmd_regenerate_tables,
            help="recompute the dimension/basis tables for the built-in groups")
    p.add_argument("--out", default="tables")

    return parser


_parser = cache(build_parser)   # one parser per process; parse_args keeps no state


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
