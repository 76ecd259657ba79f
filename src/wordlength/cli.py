"""Command-line interface: parse designs, run analyses, emit text or JSON.

Exit codes: 0 success, 1 usage error, 2 data/parse error or a failed write,
3 verification failure (an invariance deviation above tolerance, which a
correct build should never produce).  Human-readable diagnostics go to
stderr; reports go to stdout or to ``--output``.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import functools
import io
import math
import os
import sys
from pathlib import Path

from . import render
from .design import Design, margins, parse_design
from .errors import DesignParseError, InconsistentSpectrumError, ResourceLimitError
from .groups import enumerate_structures, parse_structure
from .invariance import (
    CROSS_ROUTE_TOL,
    compare_aberration,
    gwlp_margin,
    resolution_and_strength,
    table_norm,
    verify_invariance,
)
from .spectra import INTERNAL_TOL, JCharVector, gwlp_char, j_characteristics, reconstruct

USAGE_ERROR, DATA_ERROR, VERIFICATION_FAILURE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``wordlength`` command line."""
    parser = _Parser(
        prog="wordlength",
        description="Wordlength patterns and J-characteristics of factorial designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, run, tol_default=None, tol_help=None):
        p.set_defaults(run=run)  # the command's handler, which main calls
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
    add_common(p, _run_gwlp, INTERNAL_TOL, "resolution tolerance (default %(default)s)")

    p = sub.add_parser("jchar", help="J-characteristics under a structure assignment")
    p.add_argument("design", help="design file")
    p.add_argument("--groups", required=True, help="per-factor structure literals")
    p.add_argument("--algorithm", choices=["dense", "factorized"], default="factorized")
    add_common(p, _run_jchar)

    p = sub.add_parser("reconstruct", help="recover a design from a jchar JSON report")
    p.add_argument("spectrum", help="JSON file produced by `jchar --json`")
    p.add_argument("--groups", help="override the structure assignment")
    add_common(
        p, _run_reconstruct, None,
        "max distance from integers, below 0.5 (default max(1e-6, 1e-11*N) for N < 5e10, else 0)",
    )

    p = sub.add_parser("invariance", help="verify GWLP invariance across assignments")
    p.add_argument("design", help="design file")
    p.add_argument(
        "--groups",
        action="append",
        help="assignment literal (repeatable) or `all`; default all",
    )
    add_common(
        p,
        _run_invariance,
        CROSS_ROUTE_TOL,
        "cross-route tolerance (default %(default)s); resolution is exact; "
        "the witness scales with N",
    )

    p = sub.add_parser("margins", help="margin counts over a factor subset")
    p.add_argument("design", help="design file")
    p.add_argument("--subset", default="", help="1-based factor positions, e.g. 1,3")
    add_common(p, _run_margins)

    p = sub.add_parser("compare", help="rank two designs by aberration")
    p.add_argument("first", help="first design file")
    p.add_argument("second", help="second design file")
    p.add_argument("--groups", help="structure literals applied to both designs")
    add_common(p, _run_compare, INTERNAL_TOL, "comparison tolerance (default %(default)s)")

    p = sub.add_parser("enumerate-groups", help="abelian structures of a given order")
    p.add_argument("order", help="a group order in ASCII digits, e.g. 16")
    add_common(p, _run_enumerate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` uses, built on its first call.

    It is built lazily rather than at import, so importing the module builds
    none.  Sharing it is safe because parsing leaves no state on it: no
    default is mutable, ``--groups`` (append) starts from None, and
    ``_Parser.error`` only exits.
    """
    return build_parser()


def _whole_number(token: str, name: str) -> int:
    """``token`` as an int if it is ASCII digits, whitespace around them aside.

    The rule ``groups.parse_structure`` applies to cyclic orders: a sign,
    ``_`` or a non-ASCII digit, all of which ``int`` takes, is a ValueError
    naming ``name`` and the token.
    """
    digits = token.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {name} {token!r}; want ASCII digits")
    return int(digits)


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0, written in ASCII without ``_``."""
    try:  # float() also takes "_" between digits and non-ASCII digits
        tol = float(text) if text.isascii() and "_" not in text else math.nan
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"want a finite number >= 0, got {text!r}")
    return tol


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, report = args.run(args)
    except (DesignParseError, InconsistentSpectrumError, OSError) as exc:
        print(f"wordlength: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ResourceLimitError, ValueError, OverflowError) as exc:
        if isinstance(exc, OverflowError):  # as a cap: float64 cannot hold the value
            exc = f"a count, spectrum or norm passed the float range ({exc})"
        print(f"wordlength: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if isinstance(report, str):
        report = [report]
    try:  # every piece exists before the file is opened, so a data error leaves no file
        if args.output:
            with open(args.output, "w", encoding="utf-8") as file:
                file.writelines(report)
        elif sys.stdout is None:  # the process started with standard output closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        elif isinstance(raw := getattr(sys.stdout, "buffer", None), io.RawIOBase):
            for piece in report:  # unbuffered (-u): TextIOWrapper drops a short write's rest
                data = memoryview(piece.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[raw.write(data) :]
        else:
            sys.stdout.writelines(report)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output and sys.stdout is not None:
            # The flush at exit would write what stays buffered, and fail, again.
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        target = args.output or "standard output"
        print(f"wordlength: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return DATA_ERROR
    return code


def _read(path: str) -> bytes:
    """The file's text in UTF-8 bytes: one leading byte-order mark dropped, each
    ``\\r\\n`` and ``\\r`` read as ``\\n``, and a byte that is not UTF-8 a
    DesignParseError naming its offset.  Only bytes that are not all ASCII are
    decoded, to check them, and only bytes with a ``\\r`` are copied: no
    multi-byte UTF-8 character holds a ``\\r`` or ``\\n``.
    """
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode("utf-8")
            data = data.removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise DesignParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DesignParseError(
            f"cannot read {path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        ) from exc
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _design_summary(path: str, design: Design) -> dict:
    return {
        "path": path,
        "k": design.k,
        "sizes": design.sizes,
        "n_runs": design.n_runs,
    }


def _assignment_literal(structures) -> str:
    return ",".join(st.literal() for st in structures)


def _pattern(design: Design, groups: str | None, algorithm: str | None):
    """The pattern, the algorithm run (by default margin if ``groups`` is None,
    else factorized) and the structure literals used (None for margin)."""
    algorithm = algorithm or ("margin" if groups is None else "factorized")
    if algorithm == "margin":
        if groups is not None:
            raise ValueError("the margin algorithm takes no --groups")
        return gwlp_margin(design), algorithm, None
    if groups is None:
        raise ValueError(f"--groups is required for the {algorithm} algorithm")
    jchar = j_characteristics(design, groups.split(","), algorithm)
    return gwlp_char(jchar), algorithm, [st.literal() for st in jchar.structures]


def _run_gwlp(args) -> tuple[int, str]:
    design = parse_design(_read(args.design).decode("utf-8"))
    pattern, algorithm, groups = _pattern(design, args.groups, args.algorithm)
    resolution, strength = resolution_and_strength(pattern, args.tol)
    if args.json:
        payload = {
            "design": _design_summary(args.design, design),
            "algorithm": algorithm,
            "groups": groups,
            "gwlp": pattern,
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


def _run_jchar(args) -> tuple[int, str | list[str]]:
    design = parse_design(_read(args.design).decode("utf-8"))
    jchar = j_characteristics(design, args.groups.split(","), args.algorithm)
    if args.json:
        summary = _design_summary(args.design, design)
        return 0, render.jchar_report(summary, design.levels, jchar, args.algorithm)
    return 0, render.jchar_text(design.levels, jchar)


def _run_reconstruct(args) -> tuple[int, str]:
    # The report is bound to no name here, so the reader can free it once it is parsed.
    jchar, symbols = render.read_jchar_report(_read(args.spectrum), args.spectrum)
    if args.groups is not None:
        jchar = JCharVector(jchar.values, jchar.n_runs, args.groups.split(","))
        if symbols is not None:
            render.check_symbols(symbols, jchar.structures)
    counts = reconstruct(jchar, tol=args.tol)
    if symbols is None:
        symbols = [[str(j) for j in range(st.order)] for st in jchar.structures]
    if args.json:
        return 0, render.reconstruct_report(jchar, symbols, counts)
    design = Design(symbols, counts)
    try:
        return 0, design.serialize()
    except ValueError as exc:  # a symbol that JSON holds but a design file does not
        raise DesignParseError(f"{args.spectrum} is not a jchar report: {exc}") from exc


def _run_invariance(args) -> tuple[int, str]:
    design = parse_design(_read(args.design).decode("utf-8"))
    specs = args.groups or ["all"]
    if "all" in specs:
        if specs.count("all") > 1:
            raise ValueError(f"--groups all is given {specs.count('all')} times; give it once")
        if len(specs) > 1:
            raise ValueError("--groups all cannot be combined with explicit assignments")
        assignments = "all"
    else:
        assignments = [lit.split(",") for lit in specs]
    report = verify_invariance(design, assignments, tol=args.tol)
    witness = report.witness
    witness_payload = None
    bound = render.fmt_float(report.residue_bound)
    witness_text = f"J-characteristics agree across all assignments (within {bound})"
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
            "gwlps": report.gwlps,
            "margin_gwlp": report.margin_gwlp,
            "max_deviation_by_j": report.max_deviation_by_j,
            "max_deviation": report.max_deviation,
            "tolerance": args.tol,
            "invariant": report.invariant,
            "witness": witness_payload,
            "resolution": report.resolution,
            "strength": report.strength,
        }
        return code, render.dumps(payload) + "\n"
    if report.invariant:
        relation = "=" if report.max_deviation == args.tol else "<"
        deviation = f"max GWLP deviation {relation} {render.fmt_float(args.tol)}"
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
    design = parse_design(_read(args.design).decode("utf-8"))
    if args.subset.strip():
        positions = [_whole_number(tok, "subset position") - 1 for tok in args.subset.split(",")]
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
    cells = [
        ([design.levels[i][r] for i, r in zip(table.subset, cell)], count)
        for cell, count in table.items()
    ]
    if args.json:
        payload = {
            "design": _design_summary(args.design, design),
            "subset": [i + 1 for i in table.subset],
            "cells": [{"levels": symbols, "count": count} for symbols, count in cells],
            "n_runs": table.n_runs,
            "subset_norm": norm,
        }
        return 0, render.dumps(payload) + "\n"
    lines = [f"{' '.join(symbols) if symbols else '()'} {count}" for symbols, count in cells]
    lines.append(f"subset_norm = {render.fmt_float(norm)}")
    return 0, "\n".join(lines) + "\n"


def _naming(path: str, call, *args):
    """``call(*args)``, re-raising a ValueError from it with ``path: `` before its message."""
    try:
        return call(*args)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _run_compare(args) -> tuple[int, str]:
    paths = (args.first, args.second)
    first, second = designs = [
        _naming(path, parse_design, _read(path).decode("utf-8")) for path in paths
    ]
    if first.k != second.k:
        raise ValueError(
            f"{args.first} has {first.k} factors but {args.second} has {second.k}; "
            "only designs with the same number of factors compare"
        )
    # A read error names its path already, and a bad --groups literal or a cap met in
    # rating holds for both designs, so none of these is named.
    if args.groups is not None:
        for literal in args.groups.split(","):
            parse_structure(literal)
    patterns = [_naming(p, _pattern, d, args.groups, None)[0] for p, d in zip(paths, designs)]
    verdict = compare_aberration(patterns[0], patterns[1], tol=args.tol)
    if args.json:
        payload = {
            "first": {"path": args.first, "gwlp": patterns[0]},
            "second": {"path": args.second, "gwlp": patterns[1]},
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
    order = _whole_number(args.order, "order")
    literals = [st.literal() for st in enumerate_structures(order)]
    if args.json:
        payload = {"order": order, "structures": literals}
        return 0, render.dumps(payload) + "\n"
    return 0, "; ".join(literals) + "\n"


if __name__ == "__main__":
    sys.exit(main())
