"""Command-line interface: parse designs, run analyses, emit text or JSON.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 verification
failure (an invariance deviation above tolerance, which a correct build
should never produce).  Human-readable diagnostics go to stderr; reports go
to stdout or to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import render
from .design import Design, margins, parse_design
from .errors import DesignParseError, InconsistentSpectrumError, ResourceLimitError
from .groups import AbelianStructure, enumerate_structures, parse_structure
from .invariance import (
    CROSS_ROUTE_TOL,
    compare_aberration,
    gwlp_margin,
    resolution_and_strength,
    table_norm,
    verify_invariance,
)
from .spectra import (
    INTERNAL_TOL,
    RECONSTRUCT_TOL,
    JCharVector,
    gwlp_char,
    j_characteristics,
    reconstruct,
)

USAGE_ERROR, DATA_ERROR, VERIFICATION_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wordlength",
        description="Wordlength patterns and J-characteristics of factorial designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, tol_default=None, tol_help=None):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--output", metavar="PATH", help="write the report to a file")
        if tol_help:
            p.add_argument("--tol", type=_tolerance, default=tol_default, help=tol_help)

    p = sub.add_parser("gwlp", help="generalized wordlength pattern of a design")
    p.add_argument("design", help="design file")
    p.add_argument("--groups", help="per-factor structure literals, e.g. 4,2x2,4")
    p.add_argument(
        "--algorithm",
        choices=["dense", "factorized", "margin"],
        help="margin (default without --groups) needs no group structures",
    )
    add_common(p, INTERNAL_TOL, "resolution tolerance (default 1e-9)")

    p = sub.add_parser("jchar", help="J-characteristics under a structure assignment")
    p.add_argument("design", help="design file")
    p.add_argument("--groups", required=True, help="per-factor structure literals")
    p.add_argument("--algorithm", choices=["dense", "factorized"], default="factorized")
    add_common(p)

    p = sub.add_parser("reconstruct", help="recover a design from a jchar JSON report")
    p.add_argument("spectrum", help="JSON file produced by `jchar --json`")
    p.add_argument("--groups", help="override the structure assignment")
    add_common(p, RECONSTRUCT_TOL, "max distance from integers (default 1e-6)")

    p = sub.add_parser("invariance", help="verify GWLP invariance across assignments")
    p.add_argument("design", help="design file")
    p.add_argument(
        "--groups",
        action="append",
        help="assignment literal (repeatable) or `all`; default all",
    )
    add_common(
        p,
        CROSS_ROUTE_TOL,
        "cross-route tolerance (default 1e-8); resolution and the witness use 1e-9",
    )

    p = sub.add_parser("margins", help="margin counts over a factor subset")
    p.add_argument("design", help="design file")
    p.add_argument("--subset", default="", help="1-based factor positions, e.g. 1,3")
    add_common(p)

    p = sub.add_parser("compare", help="rank two designs by aberration")
    p.add_argument("first", help="first design file")
    p.add_argument("second", help="second design file")
    p.add_argument("--groups", help="structure literals applied to both designs")
    add_common(p, INTERNAL_TOL, "comparison tolerance (default 1e-9)")

    p = sub.add_parser("enumerate-groups", help="abelian structures of a given order")
    p.add_argument("order", type=int)
    add_common(p)

    return parser


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"want a finite number >= 0, got {text!r}")
    return tol


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gwlp": _run_gwlp,
        "jchar": _run_jchar,
        "reconstruct": _run_reconstruct,
        "invariance": _run_invariance,
        "margins": _run_margins,
        "compare": _run_compare,
        "enumerate-groups": _run_enumerate,
    }[args.command]
    try:
        code, report = handler(args)
    except (DesignParseError, InconsistentSpectrumError, OSError, json.JSONDecodeError) as exc:
        print(f"wordlength: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ResourceLimitError, ValueError) as exc:
        print(f"wordlength: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if not args.output:
        sys.stdout.write(report)
        return code
    try:
        Path(args.output).write_text(report, encoding="utf-8")
    except OSError as exc:
        print(f"wordlength: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_ERROR
    return code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DesignParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_design(path: str) -> Design:
    return parse_design(_read_text(path))


def _design_summary(path: str, design: Design) -> dict:
    return {
        "path": path,
        "k": design.k,
        "sizes": list(design.sizes),
        "n_runs": design.n_runs,
    }


def _parse_assignment(literal: str) -> list[AbelianStructure]:
    return [parse_structure(chunk) for chunk in literal.split(",")]


def _assignment_literal(structures) -> str:
    return ",".join(st.literal() for st in structures)


def _run_gwlp(args) -> tuple[int, str]:
    design = _load_design(args.design)
    algorithm = args.algorithm or ("factorized" if args.groups else "margin")
    if algorithm == "margin":
        if args.groups:
            raise ValueError("the margin algorithm takes no --groups")
        pattern = gwlp_margin(design)
        groups = None
    else:
        if not args.groups:
            raise ValueError(f"--groups is required for the {algorithm} algorithm")
        jchar = j_characteristics(design, _parse_assignment(args.groups), algorithm)
        pattern = gwlp_char(jchar)
        groups = [st.literal() for st in jchar.structures]
    resolution, strength = resolution_and_strength(pattern, args.tol)
    if args.json:
        payload = {
            "design": _design_summary(args.design, design),
            "algorithm": algorithm,
            "groups": groups,
            "gwlp": [float(a) for a in pattern],
            "resolution": resolution,
            "strength": strength,
            "tolerance": args.tol,
        }
        return 0, render.dumps(payload) + "\n"
    lines = [
        f"A = {render.gwlp_text(pattern)}",
        f"resolution = {'none' if resolution is None else resolution}, strength = {strength}",
    ]
    return 0, "\n".join(lines) + "\n"


def _run_jchar(args) -> tuple[int, str]:
    design = _load_design(args.design)
    jchar = j_characteristics(design, _parse_assignment(args.groups), args.algorithm)
    if args.json:
        payload = {
            "design": {
                **_design_summary(args.design, design),
                "symbols": [list(a) for a in design.levels],
            },
            "groups": [st.literal() for st in jchar.structures],
            "algorithm": args.algorithm,
            "n_runs": jchar.n_runs,
            "values": render.Spectrum(design.levels, jchar.values),
        }
        return 0, render.dumps(payload) + "\n"
    lines = []
    for label, z in zip(render.element_labels(design.levels), jchar.values.tolist()):
        if abs(z) <= INTERNAL_TOL:
            continue  # zero entries are omitted, as spectrum tables usually are
        lines.append(f"{label} {render.fmt_complex(z)}")
    return 0, "\n".join(lines) + "\n"


def _run_reconstruct(args) -> tuple[int, str]:
    doc = json.loads(_read_text(args.spectrum))
    try:
        group_literals = doc["groups"]
        entries = doc["values"]
        raw_runs = doc["n_runs"]
        if isinstance(raw_runs, bool):  # before int(): bool is an int subclass
            raise TypeError(f"n_runs {raw_runs!r} is not a number")
        n_runs = int(raw_runs)
        if n_runs != raw_runs:
            raise ValueError(f"n_runs {raw_runs!r} is not an integer")
        symbols = doc.get("design", {}).get("symbols")
        values = _read_values(entries)
        structures = tuple(parse_structure(lit) for lit in group_literals)
        orders = [st.order for st in structures]
        if len(values) != math.prod(orders):
            raise ValueError(f"{len(values)} values for groups of order {orders}")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        levels = None if symbols is None else tuple(tuple(a) for a in symbols)
        if levels is not None and (
            [len(set(a)) for a in levels] != orders
            or not all(isinstance(sym, str) for a in levels for sym in a)
        ):
            raise ValueError("symbols do not fit the groups")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DesignParseError(f"{args.spectrum} is not a jchar report: {exc}") from exc
    jchar = JCharVector(values, n_runs, structures)
    override = _parse_assignment(args.groups) if args.groups else None
    if override is not None and levels is not None:
        orders = [st.order for st in override]
        sizes = [len(a) for a in levels]
        if orders != sizes:
            raise ValueError(
                f"--groups {args.groups} has orders {orders} and spans "
                f"{math.prod(orders)} elements, but the report's symbols have sizes {sizes}"
            )
    counts = reconstruct(jchar, override, tol=args.tol)
    if not counts:
        raise InconsistentSpectrumError("spectrum reconstructs to an empty design")
    used = override if override is not None else structures
    if levels is None:
        levels = tuple(tuple(str(j) for j in range(st.order)) for st in used)
    design = Design(levels, counts)
    if args.json:
        payload = {
            "groups": [st.literal() for st in used],
            "n_runs": design.n_runs,
            "counts": [
                {
                    "run": [design.levels[i][r] for i, r in enumerate(run)],
                    "multiplicity": mult,
                }
                for run, mult in design.runs()
            ],
        }
        return 0, render.dumps(payload) + "\n"
    return 0, design.serialize()


def _read_values(entries) -> np.ndarray:
    """The ``re`` and ``im`` of a report's entries as one complex array.

    JSON numbers load as int or float; true, false, null and strings are
    rejected with a TypeError.
    """
    res = [e["re"] for e in entries]
    ims = [e["im"] for e in entries]
    if not set(map(type, res)) | set(map(type, ims)) <= {int, float}:
        bad = next(x for x in res + ims if type(x) not in (int, float))
        raise TypeError(f"value {bad!r} is not a number")
    values = np.empty(len(res), dtype=np.complex128)
    values.real, values.imag = res, ims
    return values


def _run_invariance(args) -> tuple[int, str]:
    design = _load_design(args.design)
    specs = args.groups or ["all"]
    if "all" in specs:
        if len(specs) > 1:
            raise ValueError("--groups all cannot be combined with explicit assignments")
        assignments = "all"
    else:
        assignments = [_parse_assignment(lit) for lit in specs]
    report = verify_invariance(design, assignments, tol=args.tol)
    witness = report.witness
    witness_payload = None
    witness_text = f"J-characteristics agree across all assignments (within {render.fmt_float(INTERNAL_TOL)})"
    if witness is not None:
        label = render.element_label(design.levels, witness.components)
        witness_payload = {
            "g": label,
            "first_assignment": _assignment_literal(witness.first_assignment),
            "other_assignment": _assignment_literal(witness.other_assignment),
            "first_value": render.complex_json(witness.first_value),
            "other_value": render.complex_json(witness.other_value),
        }
        witness_text = (
            "J-characteristics differ (witness "
            f"{label}: {render.fmt_complex(witness.first_value)} vs "
            f"{render.fmt_complex(witness.other_value)})"
        )
    code = 0 if report.invariant else VERIFICATION_FAILURE
    if args.json:
        payload = {
            "design": _design_summary(args.design, design),
            "assignments": [_assignment_literal(a) for a in report.assignments],
            "gwlps": [[float(x) for x in g] for g in report.gwlps],
            "margin_gwlp": [float(x) for x in report.margin_gwlp],
            "max_deviation_by_j": [float(x) for x in report.max_deviation_by_j],
            "max_deviation": report.max_deviation,
            "tolerance": args.tol,
            "invariant": report.invariant,
            "witness": witness_payload,
            "resolution": report.resolution,
            "strength": report.strength,
        }
        return code, render.dumps(payload) + "\n"
    if report.invariant:
        deviation = f"max GWLP deviation < {render.fmt_float(args.tol)}"
    else:
        deviation = (
            f"max GWLP deviation {render.fmt_float(report.max_deviation)} "
            f"EXCEEDS {render.fmt_float(args.tol)}"
        )
    lines = [
        f"{len(report.assignments)} assignments + margin route, {deviation}; {witness_text}",
        f"A = {render.gwlp_text(report.margin_gwlp)}",
        f"resolution = {'none' if report.resolution is None else report.resolution}, "
        f"strength = {report.strength}",
    ]
    return code, "\n".join(lines) + "\n"


def _run_margins(args) -> tuple[int, str]:
    design = _load_design(args.design)
    if args.subset.strip():
        try:
            positions = [int(tok) - 1 for tok in args.subset.split(",")]
        except ValueError:
            raise ValueError(f"bad subset {args.subset!r}; want 1-based positions like 1,3")
        if any(p < 0 for p in positions):
            raise ValueError("subset positions are 1-based")
        if max(positions) >= design.k:
            raise ValueError(
                f"subset position {max(positions) + 1} out of range for {design.k} factors"
            )
    else:
        positions = []
    table = margins(design, positions)
    norm = table_norm(table, design.space_size)
    if args.json:
        payload = {
            "design": _design_summary(args.design, design),
            "subset": [i + 1 for i in table.subset],
            "cells": [
                {
                    "levels": [design.levels[i][r] for i, r in zip(table.subset, cell)],
                    "count": count,
                }
                for cell, count in table.items()
            ],
            "n_runs": table.n_runs,
            "subset_norm": norm.value,
        }
        return 0, render.dumps(payload) + "\n"
    lines = []
    for cell, count in table.items():
        symbols = [design.levels[i][r] for i, r in zip(table.subset, cell)]
        label = "()" if not symbols else " ".join(symbols)
        lines.append(f"{label} {count}")
    lines.append(f"subset_norm = {render.fmt_float(norm.value)}")
    return 0, "\n".join(lines) + "\n"


def _run_compare(args) -> tuple[int, str]:
    patterns = []
    for path in (args.first, args.second):
        design = _load_design(path)
        if args.groups:
            jchar = j_characteristics(design, _parse_assignment(args.groups))
            patterns.append(gwlp_char(jchar))
        else:
            patterns.append(gwlp_margin(design))
    verdict = compare_aberration(patterns[0], patterns[1], tol=args.tol)
    if args.json:
        payload = {
            "first": {"path": args.first, "gwlp": [float(a) for a in patterns[0]]},
            "second": {"path": args.second, "gwlp": [float(a) for a in patterns[1]]},
            "verdict": verdict.ordering,
            "index": verdict.index,
            "tolerance": args.tol,
        }
        return 0, render.dumps(payload) + "\n"
    lines = [
        f"A(first)  = {render.gwlp_text(patterns[0])}",
        f"A(second) = {render.gwlp_text(patterns[1])}",
        verdict.ordering
        + ("" if verdict.index is None else f" (first difference at A_{verdict.index})"),
    ]
    return 0, "\n".join(lines) + "\n"


def _run_enumerate(args) -> tuple[int, str]:
    structures = enumerate_structures(args.order)
    literals = [st.literal() for st in structures]
    if args.json:
        payload = {"order": args.order, "structures": literals}
        return 0, render.dumps(payload) + "\n"
    return 0, "; ".join(literals) + "\n"


if __name__ == "__main__":
    sys.exit(main())
