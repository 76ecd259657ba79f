"""Multiset factorial designs: level alphabets, run multiplicities, margins.

Designs are immutable.  Runs are stored sparsely, as the level indices of the
distinct runs and their multiplicities, in arrays; the full-factorial cell count
s may be astronomically larger than the number of distinct runs, so nothing here
densifies unless explicitly asked to (and even then only below a cap).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DesignParseError, ResourceLimitError
from .groups import yates_strides

#: Largest dense array: a count vector, margin table, levels total or margin route's 2^k subsets.
DENSIFY_CAP = 2**20

# _tally's codes stay below the product of the sizes, so they fit intp while it does.
_MAX_CODE_CELLS = np.iinfo(np.intp).max

# Largest N whose square fits int64: the width rule of Design's multiplicities.
_MAX_INT64_ROOT = math.isqrt(np.iinfo(np.int64).max)

# _tally counts int64 multiplicities into a dense vector while it has at most
# this many cells per code, and sorts the codes past that.  At n = 5,000 codes
# on a 2-vCPU x86-64 Xeon: dense 120 against sort 136 us at 4 cells per code,
# 236 against 138 at 16.  Python-int totals always sort (dense: 571 against 173).
_DENSE_TALLY_CELLS_PER_CODE = 4

Run = tuple[int, ...]

_HEADER_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(.*)$")
_MULTIPLIER_RE = re.compile(r"^x([0-9]+)$")  # \d would take non-ASCII digits too


@dataclass(frozen=True, init=False, eq=False)
class Design:
    """A multiset of runs over per-factor level alphabets.

    ``levels[i]`` lists factor i's symbols in order; position 0 is the
    reference level (the group identity once a structure is assigned).
    ``Design(levels, counts)`` takes a map from runs, as tuples of level
    indices, to multiplicities >= 1; ``counts`` gives that map back.
    """

    levels: tuple[tuple[str, ...], ...]
    #: The runs' only stored form: the distinct runs as a C-contiguous (k, n)
    #: level-index array, factor-major so that a subset's rows are contiguous,
    #: and their multiplicities: int64 while N^2 fits int64, so no margin total,
    #: pair product or sum of squares can overflow; past that, Python ints.
    _run_matrix: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, levels: Iterable[Iterable[str]], counts: Mapping[Run, int]):
        levels = tuple(tuple(alphabet) for alphabet in levels)
        if not levels:
            raise ValueError("a design needs at least one factor")
        for i, alphabet in enumerate(levels, start=1):
            if not alphabet:
                raise ValueError(f"factor {i} has an empty level alphabet")
            if len(set(alphabet)) != len(alphabet):
                raise ValueError(f"factor {i} has duplicate level symbols")
        counts = dict(counts)
        if not counts:
            raise ValueError("a design needs at least one run")
        try:  # any integer, numpy's included, is stored as a Python int
            counts = {
                tuple(map(operator.index, run)): operator.index(mult)
                for run, mult in counts.items()
            }
        except TypeError:
            raise ValueError("runs and multiplicities must be integers") from None
        k, sizes = len(levels), tuple(map(len, levels))
        for run, mult in counts.items():  # the first invalid run in insertion order is named
            if len(run) != k:
                raise ValueError(f"run {run} does not have {k} coordinates")
            if min(run) < 0 or not all(map(operator.lt, run, sizes)):
                raise ValueError(f"run {run} has a level index out of range")
            if mult < 1:
                raise ValueError(f"run {run} has multiplicity {mult} < 1")
        runs = np.fromiter(itertools.chain.from_iterable(counts), np.intp, len(counts) * k)
        runs = runs.reshape(-1, k).T.copy()  # (k, n) and C-contiguous
        self.__dict__.update(levels=levels, _run_matrix=(runs, _multiplicities(counts.values())))

    @classmethod
    def _from_runs(cls, levels, runs: np.ndarray, mults: np.ndarray) -> Design:
        """A design from valid alphabets, distinct (k, n) runs and their multiplicities."""
        design = cls.__new__(cls)
        design.__dict__.update(levels=levels, _run_matrix=(np.ascontiguousarray(runs), mults))
        return design

    def __eq__(self, other):
        if not isinstance(other, Design):
            return NotImplemented
        return self.levels == other.levels and self.counts == other.counts

    @cached_property
    def counts(self) -> Mapping[Run, int]:
        """Read-only view of the runs, derived on first access; no pattern route reads it."""
        runs, mults = self._run_matrix
        return MappingProxyType(dict(zip(map(tuple, runs.T.tolist()), mults.tolist())))

    @property
    def k(self) -> int:
        """Number of factors."""
        return len(self.levels)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Per-factor level counts s_i."""
        return tuple(len(alphabet) for alphabet in self.levels)

    @cached_property
    def n_runs(self) -> int:
        """Total number of runs N, counting multiplicities."""
        return int(self._run_matrix[1].sum())

    @cached_property
    def space_size(self) -> int:
        """Full-factorial cell count s = prod(s_i)."""
        return math.prod(self.sizes)

    def dense_counts(self) -> np.ndarray:
        """Count vector O over all s cells in Yates order (refused above ``DENSIFY_CAP``), and
        an OverflowError if 2N, which a transform's partial sums reach (README), passes float64."""
        if 2 * self.n_runs > sys.float_info.max:
            raise OverflowError("a spectrum's partial sums reach 2N, past float64's largest value")
        runs, mults = self._run_matrix
        return _dense(runs.T, mults, self.sizes, "count vector of length")

    def serialize(self) -> str:
        """Canonical design-file text; parse(serialize(d)) reproduces d.

        A ValueError names the factor and symbol when no file can hold the
        design: a symbol that is empty or holds whitespace, ``#``, ``|`` or a
        lone surrogate, or one that makes the first run line read as a header.
        """
        for i, alphabet in enumerate(self.levels, start=1):
            for symbol in alphabet:
                # str.split splits at line breaks too; UTF-8 cannot encode a lone surrogate.
                if (
                    symbol.split() != [symbol]
                    or "#" in symbol
                    or "|" in symbol
                    or symbol.encode(errors="ignore").decode() != symbol
                ):
                    raise ValueError(
                        f"factor {i}'s symbol {symbol!r} cannot be written to a design file"
                    )
        lines = ["symbols: " + " | ".join(" ".join(a) for a in self.levels)]
        for run, mult in sorted(self.counts.items()):
            tokens = [self.levels[i][r] for i, r in enumerate(run)]
            if mult > 1:
                tokens.append(f"x{mult}")
            lines.append(" ".join(tokens))
        first = lines[1]
        if _HEADER_RE.match(first):  # the line's first colon ends the header name
            i = first[: first.index(":")].count(" ")
            raise ValueError(
                f"factor {i + 1}'s symbol {first.split(' ')[i]!r} makes the first run "
                f"line {first!r} read as a header"
            )
        return "\n".join(lines) + "\n"


def _multiplicities(values: Iterable[int]) -> np.ndarray:
    """Python-int multiplicities as an int64 array while N^2 fits int64, else objects."""
    values = list(values)
    return np.array(values, np.int64 if sum(values) <= _MAX_INT64_ROOT else object)


@dataclass(frozen=True, eq=False)
class MarginTable:
    """Run counts marginalized to a subset of factor positions (0-based).

    Only nonzero cells are stored, in Yates order: row j of ``cells`` holds
    the level indices of the factors in ``subset`` (ascending) and
    ``counts[j]`` its total, with the dtype of the design's multiplicities.
    The empty subset yields one empty cell holding N.
    """

    subset: tuple[int, ...]
    sizes: tuple[int, ...]
    cells: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    n_runs: int

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (cell, count) pairs in Yates order."""
        return zip(map(tuple, self.cells.tolist()), self.counts.tolist())

    def dense(self) -> np.ndarray:
        return _dense(self.cells, self.counts, self.sizes, "margin table of size")


def _dense(cells: np.ndarray, values, sizes: tuple[int, ...], what: str) -> np.ndarray:
    """Counts at (n, k) cells as a dense Yates-ordered vector (numpy C order)."""
    size = math.prod(sizes)
    if size > DENSIFY_CAP:
        raise ResourceLimitError(f"dense {what} {size} exceeds the cap {DENSIFY_CAP}")
    dense = np.zeros(size, dtype=np.float64)
    np.put(dense, cells @ np.array(yates_strides(sizes), np.intp), values)
    return dense


def margins(design: Design, subset: Iterable[int]) -> MarginTable:
    """Total multiplicity of runs agreeing with each level combination on ``subset``.

    ``subset`` holds 0-based factor positions; the empty subset gives the
    scalar N and the full set reproduces the counting function itself.
    """
    try:
        positions = tuple(sorted(set(map(operator.index, subset))))
    except TypeError:
        raise ValueError("subset positions must be integers") from None
    if positions and not (0 <= positions[0] and positions[-1] < design.k):
        raise ValueError(f"subset {positions} out of range for {design.k} factors")
    sizes = tuple(map(design.sizes.__getitem__, positions))
    runs, mults = design._run_matrix
    cells, totals = _tally(runs.take(positions, axis=0), mults, sizes)
    return MarginTable(positions, sizes, cells.T, totals, design.n_runs)


def _tally(rows: np.ndarray, mults: np.ndarray, sizes: tuple[int, ...]):
    """The distinct columns of the (k, n) level codes ``rows``, in Yates order,
    and the total multiplicity of each: a (k, m) array and m totals."""
    cells = math.prod(sizes)
    if cells > _MAX_CODE_CELLS:
        # Too many cells for one flat index: rank the distinct columns instead.
        codes = np.unique(rows.T, axis=0, return_inverse=True)[1].ravel()
    else:
        # Each column's code in Yates order: one call, and with the levels in
        # range already, no bounds pass.
        codes = np.array(yates_strides(sizes), np.intp) @ rows
        if cells <= _DENSE_TALLY_CELLS_PER_CODE * len(codes) and mults.dtype != object:
            totals = np.zeros(cells, mults.dtype)
            np.add.at(totals, codes, mults)
            column = np.empty(cells, np.intp)
            column[codes] = np.arange(len(codes))  # a column of each cell hit
            hit = totals.nonzero()[0]  # every multiplicity is >= 1
            return rows.take(column[hit], axis=1), totals[hit]
    # Sort the codes into Yates order; each stretch of one code is a cell.
    order = codes.argsort()
    codes = codes[order]
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return rows.take(order[starts], axis=1), np.add.reduceat(mults[order], starts)


def relabel_levels(design: Design, perms: Sequence[Sequence[int] | None]) -> Design:
    """Permute each factor's levels; ``perms[i][old] = new`` (None = identity).

    Bijections keep the runs distinct, so the multiset of multiplicities and N
    are preserved; symbols stay attached to their positions, runs are re-indexed.
    """
    if len(perms) != design.k:
        raise ValueError(f"need {design.k} permutations, got {len(perms)}")
    mappings: list[Sequence[int]] = []
    for i, perm in enumerate(perms):
        size = design.sizes[i]
        if perm is None:
            mappings.append(range(size))
            continue
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(size)):
            raise ValueError(f"perms[{i}] is not a bijection on {size} levels")
        mappings.append(perm)
    runs = [np.take(m, row) for m, row in zip(mappings, design._run_matrix[0])]
    return Design._from_runs(design.levels, runs, design._run_matrix[1])


def parse_design(text: str) -> Design:
    """Parse the design file format.

    Format: ``#`` comments; optional headers ``levels: s1 ... sk``,
    ``symbols: a0 a1 ... | b0 b1 ... | ...`` (first symbol per factor is the
    reference level) and ``layout: columns`` (runs are file columns, one line
    per factor), each at most once; then one run per line, whitespace-separated
    symbols with an optional trailing ``x<m>`` multiplier.  Without a
    ``symbols`` header the alphabets are the sorted distinct symbols per factor.

    Lines naming the same run add their multiplicities.  Identical row-layout
    lines are read once, so an error in one is reported at its first
    occurrence, the earliest bad line in the file.  Column layout reads every
    line, since two factors may have identical lines.  The symbols are coded
    factor by factor, and the runs are merged by their codes.
    """
    declared_sizes: list[int] | None = None
    declared_symbols: list[list[str]] | None = None
    columns = False
    header_lines: dict[str, int] = {}  # the line of each header name
    lines = text.splitlines()
    start = len(lines)  # index of the first data line

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if not header:
            start = lineno - 1
            break
        name, rest = header.group(1), header.group(2).strip()
        if name == "levels":
            tokens = rest.split()  # ASCII digits only: no sign, "_" or non-ASCII digit
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise DesignParseError("levels header must list integers", lineno)
            declared_sizes = list(map(int, tokens))
            if not declared_sizes or any(s < 1 for s in declared_sizes):
                raise DesignParseError("levels header must list positive sizes", lineno)
            total = sum(declared_sizes)
            if total > DENSIFY_CAP:  # before 0..s-1 alphabets are built
                message = f"levels header declares {total} levels, above the cap {DENSIFY_CAP}"
                raise DesignParseError(message, lineno)
        elif name == "symbols":
            declared_symbols = [chunk.split() for chunk in rest.split("|")]
            for i, alphabet in enumerate(declared_symbols):
                if not alphabet:
                    raise DesignParseError(f"factor {i + 1} has no symbols", lineno)
                if len(set(alphabet)) != len(alphabet):
                    raise DesignParseError(f"factor {i + 1} has duplicate symbols", lineno)
        elif name == "layout":
            if rest not in ("rows", "columns"):
                raise DesignParseError(f"unknown layout {rest!r}", lineno)
            columns = rest == "columns"
        else:
            raise DesignParseError(f"unknown header {name!r}", lineno)
        if name in header_lines:
            raise DesignParseError(f"repeated {name} header", lineno)
        header_lines[name] = lineno

    # Row layout reads each distinct line once, at its first occurrence, and
    # counts its repeats; identical factor lines are still distinct factors.
    body = lines[start:]
    if columns:
        raws, repeats = body, [1] * len(body)
    else:
        tally = Counter(body)
        raws, repeats = list(tally), list(tally.values())
    rows = [(raw.split("#", 1)[0] if "#" in raw else raw).split() for raw in raws]
    kept = range(len(rows))
    if [] in rows:  # blank and comment-only lines
        kept = [j for j in kept if rows[j]]
        rows, repeats = [rows[j] for j in kept], [repeats[j] for j in kept]

    def lineno(n: int) -> int:  # the line of data line n, looked up for errors only
        return start + 1 + (kept[n] if columns else body.index(raws[kept[n]]))

    if declared_symbols and declared_sizes and list(map(len, declared_symbols)) != declared_sizes:
        raise DesignParseError(
            "symbols header disagrees with levels header",
            max(header_lines["levels"], header_lines["symbols"]),
        )
    if not rows:
        raise DesignParseError("no runs found")

    declared = declared_symbols or declared_sizes  # neither is ever an empty list
    k = len(declared) if declared else None
    symbols, mults = (_runs_from_columns if columns else _runs_from_rows)(rows, repeats, k, lineno)

    if declared_symbols is not None:
        alphabets = declared_symbols
    elif declared_sizes is None:
        alphabets = [sorted(set(column)) for column in symbols]
    else:  # a levels header without symbols: the numeric alphabets 0..s-1
        alphabets = [[str(j) for j in range(size)] for size in declared_sizes]

    # One lookup pass per factor codes its symbols; the codes merge the runs.
    index = [{symbol: j for j, symbol in enumerate(a)} for a in alphabets]
    try:
        flat = itertools.chain.from_iterable(map(map, [ix.__getitem__ for ix in index], symbols))
        codes = np.fromiter(flat, np.intp, len(symbols) * len(mults)).reshape(len(symbols), -1)
    except KeyError:
        # The first unknown symbol in file order, on data line n: in column
        # layout the lines are the factors, in row layout the runs.
        n, i, symbol = next(
            (n, n if columns else j, symbol)
            for n, tokens in enumerate(symbols if columns else zip(*symbols))
            for j, symbol in enumerate(tokens)
            if symbol not in index[n if columns else j]
        )
        if declared_symbols is None:  # numeric alphabets
            message = f"factor {i + 1} uses symbols outside 0..{declared_sizes[i] - 1}"
            message += "; add a symbols header"
        else:
            message = f"symbol {symbol!r} not in factor {i + 1}'s alphabet"
        raise DesignParseError(message, lineno(n)) from None
    runs, mults = _tally(codes, _multiplicities(mults), tuple(map(len, alphabets)))
    return Design._from_runs(tuple(map(tuple, alphabets)), runs, mults)


def _runs_from_rows(rows, mults, k, lineno) -> tuple[list[tuple[str, ...]], list[int]]:
    """Row layout: each data line is one run, optionally ending in x<mult>,
    and a line that repeats counts once per repeat.  Returns the symbols
    factor by factor and the multiplicity of each line."""
    if k is None:  # the first line sets k; a trailing x<digits> there is a multiplier
        k = len(rows[0]) - bool(len(rows[0]) > 1 and _MULTIPLIER_RE.match(rows[0][-1]))
    for n in np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != k).tolist():
        m = _MULTIPLIER_RE.match(rows[n][-1]) if len(rows[n]) == k + 1 else None
        if not m:
            raise DesignParseError(f"expected {k} symbols, got {len(rows[n])}", lineno(n))
        if int(m.group(1)) < 1:
            raise DesignParseError("multiplier must be at least 1", lineno(n))
        mults[n] *= int(m.group(1))
    # zip stops at the shortest line; [:k] cuts the multipliers when every line has one.
    return list(zip(*rows))[:k], mults


def _runs_from_columns(rows, _, k, lineno) -> tuple[list[list[str]], list[int]]:
    """Column layout: one line per factor, runs are the columns, each counted once."""
    if k is not None and len(rows) != k:
        raise DesignParseError(f"expected {k} factor lines, got {len(rows)}", lineno(-1))
    for n, tokens in enumerate(rows[1:], start=1):
        if len(tokens) != len(rows[0]):
            raise DesignParseError(
                f"expected {len(rows[0])} columns, got {len(tokens)}", lineno(n)
            )
    return rows, [1] * len(rows[0])
