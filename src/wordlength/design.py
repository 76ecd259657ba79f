"""Multiset factorial designs: level alphabets, run multiplicities, margins.

Designs are immutable after construction.  Runs are stored sparsely as a map
from level-index tuples to multiplicities; the full-factorial cell count s may
be astronomically larger than the number of distinct runs, so nothing here
densifies unless explicitly asked to (and even then only below a cap).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DesignParseError, ResourceLimitError

#: Largest full-factorial size for which the count vector may be densified.
DENSIFY_CAP = 2**20

# np.ravel_multi_index takes at most 32 index arrays on numpy 1.x (64 on 2.x),
# and refuses a shape with more cells than the largest intp.
_MAX_RAVEL_DIMS = 32
_MAX_RAVEL_CELLS = np.iinfo(np.intp).max

# Largest N whose square fits int64: the width rule of Design's multiplicities.
_MAX_INT64_ROOT = math.isqrt(np.iinfo(np.int64).max)

Run = tuple[int, ...]

_HEADER_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(.*)$")
_MULTIPLIER_RE = re.compile(r"^x(\d+)$")


@dataclass(frozen=True)
class Design:
    """A multiset of runs over per-factor level alphabets.

    ``levels[i]`` lists factor i's symbols in order; position 0 is the
    reference level (the group identity once a structure is assigned).
    ``counts`` maps runs, as tuples of level indices, to multiplicities >= 1.
    """

    levels: tuple[tuple[str, ...], ...]
    counts: Mapping[Run, int] = field(repr=False)
    #: The distinct runs as a C-contiguous (k, n) level-index array, factor-major
    #: so that a subset's rows are contiguous, and their multiplicities: int64
    #: while N^2 fits int64, so no margin total, pair product or sum of squares
    #: can overflow; past that, Python ints in an object array.
    _run_matrix: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        levels = tuple(tuple(alphabet) for alphabet in self.levels)
        if not levels:
            raise ValueError("a design needs at least one factor")
        for i, alphabet in enumerate(levels):
            if not alphabet:
                raise ValueError(f"factor {i} has an empty level alphabet")
            if len(set(alphabet)) != len(alphabet):
                raise ValueError(f"factor {i} has duplicate level symbols")
        counts = dict(self.counts)
        if not counts:
            raise ValueError("a design needs at least one run")
        try:  # any integer, numpy's included, is stored as a Python int
            types = set(map(type, itertools.chain.from_iterable(counts)))
            if types | set(map(type, counts.values())) != {int}:
                counts = {
                    tuple(map(operator.index, run)): operator.index(mult)
                    for run, mult in counts.items()
                }
        except TypeError:
            raise ValueError("runs and multiplicities must be integers") from None
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "counts", MappingProxyType(counts))
        runs = _factor_major(counts, self.sizes)
        if runs is None or min(counts.values()) < 1:
            raise ValueError(_first_bad_run(counts, self.sizes))
        dtype = np.int64 if self.n_runs <= _MAX_INT64_ROOT else object
        mults = np.fromiter(counts.values(), dtype, len(counts))
        object.__setattr__(self, "_run_matrix", (runs, mults))

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
        return sum(self.counts.values())

    @cached_property
    def space_size(self) -> int:
        """Full-factorial cell count s = prod(s_i)."""
        return math.prod(self.sizes)

    def runs(self) -> Iterator[tuple[Run, int]]:
        """(run, multiplicity) pairs in Yates order of the run tuples."""
        for run in sorted(self.counts):
            yield run, self.counts[run]

    def dense_counts(self) -> np.ndarray:
        """Count vector O over all s cells in Yates order (refused above ``DENSIFY_CAP``)."""
        runs, mults = self._run_matrix
        return _dense(runs.T, mults, self.sizes, "count vector of length")

    def serialize(self) -> str:
        """Canonical design-file text; parse(serialize(d)) reproduces d."""
        lines = ["symbols: " + " | ".join(" ".join(a) for a in self.levels)]
        for run, mult in self.runs():
            tokens = [self.levels[i][r] for i, r in enumerate(run)]
            if mult > 1:
                tokens.append(f"x{mult}")
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"


def _factor_major(counts: Mapping[Run, int], sizes: tuple[int, ...]) -> np.ndarray | None:
    """The runs as a (k, n) array, or None unless each has k in-range indices."""
    k = len(sizes)
    if set(map(len, counts)) != {k}:
        return None
    try:
        flat = np.fromiter(itertools.chain.from_iterable(counts), np.intp, len(counts) * k)
    except OverflowError:  # an index past intp
        return None
    runs = flat.reshape(-1, k)
    if not ((runs >= 0).all() and (runs < sizes).all()):
        return None
    return np.ascontiguousarray(runs.T)


def _first_bad_run(counts: Mapping[Run, int], sizes: tuple[int, ...]) -> str:
    """What is wrong with the first invalid run, in insertion order."""
    for run, mult in counts.items():
        if len(run) != len(sizes):
            return f"run {run} does not have {len(sizes)} coordinates"
        if min(run) < 0 or not all(map(operator.lt, run, sizes)):
            return f"run {run} has a level index out of range"
        if mult < 1:
            return f"run {run} has multiplicity {mult} < 1"
    raise AssertionError("every run is valid")


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
    np.put(dense, np.ravel_multi_index(cells.T, sizes), values)
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
    if not positions:
        total = np.array([design.n_runs], dtype=mults.dtype)
        return MarginTable(positions, sizes, np.zeros((1, 0), np.intp), total, design.n_runs)
    rows = runs.take(positions, axis=0)
    if len(sizes) > _MAX_RAVEL_DIMS or math.prod(sizes) > _MAX_RAVEL_CELLS:
        # Too many cells for one flat index: count distinct rows instead.
        cells, inverse = np.unique(rows.T, axis=0, return_inverse=True)
        totals = np.zeros(len(cells), dtype=mults.dtype)
        np.add.at(totals, inverse, mults)
        return MarginTable(positions, sizes, cells, totals, design.n_runs)
    # Sort the flat cell codes into Yates order; each stretch of one code is a cell.
    codes = np.ravel_multi_index(rows, sizes)
    order = codes.argsort()
    codes = codes[order]
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = first.nonzero()[0]
    totals = np.add.reduceat(mults[order], starts)
    cells = rows[:, order[starts]].T  # each cell is read off its first run
    return MarginTable(positions, sizes, cells, totals, design.n_runs)


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
    return Design(
        design.levels,
        {tuple(m[r] for m, r in zip(mappings, run)): mult for run, mult in design.counts.items()},
    )


def parse_design(text: str) -> Design:
    """Parse the design file format.

    Format: ``#`` comments; optional headers ``levels: s1 ... sk``,
    ``symbols: a0 a1 ... | b0 b1 ... | ...`` (first symbol per factor is the
    reference level) and ``layout: columns`` (runs are file columns, one line
    per factor); then one run per line, whitespace-separated symbols with an
    optional trailing ``x<m>`` multiplier.  Without a ``symbols`` header the
    alphabets are the sorted distinct symbols per factor.

    Lines naming the same run add their multiplicities.  Identical row-layout
    lines are read once, so an error in one is reported at its first
    occurrence, the earliest bad line in the file.  Column layout reads every
    line, since two factors may have identical lines.
    """
    declared_sizes: list[int] | None = None
    declared_symbols: list[list[str]] | None = None
    columns = False
    header_lines: dict[str, int] = {}  # the last line of each header name
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
        header_lines[name] = lineno
        if name == "levels":
            try:
                declared_sizes = [int(tok) for tok in rest.split()]
            except ValueError:
                raise DesignParseError("levels header must list integers", lineno)
            if not declared_sizes or any(s < 1 for s in declared_sizes):
                raise DesignParseError("levels header must list positive sizes", lineno)
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

    # Row layout reads each distinct line once, at its first occurrence, and
    # counts its repeats; identical factor lines are still distinct factors.
    body = lines[start:]
    if columns:
        numbered = zip(body, range(start + 1, len(lines) + 1), itertools.repeat(1))
    else:
        first = dict(zip(reversed(body), range(len(lines), start, -1)))
        numbered = ((raw, first[raw], repeats) for raw, repeats in Counter(body).items())
    data = [  # (line number, tokens, repeats) per data line
        (lineno, tokens, repeats)
        for raw, lineno, repeats in numbered
        if (tokens := raw.split("#", 1)[0].split())
    ]

    if declared_symbols is not None and declared_sizes is not None:
        if [len(a) for a in declared_symbols] != declared_sizes:
            raise DesignParseError(
                "symbols header disagrees with levels header",
                max(header_lines["levels"], header_lines["symbols"]),
            )

    declared = declared_symbols or declared_sizes  # neither is ever an empty list
    k = len(declared) if declared else None
    layout = _runs_from_columns if columns else _runs_from_rows
    tallies: dict[tuple[str, ...], int] = {}
    for row, mult in layout(data, k):
        tallies[row] = tallies.get(row, 0) + mult
    if not tallies:
        raise DesignParseError("no runs found")

    if declared_symbols is not None:
        alphabets = declared_symbols
    else:
        seen = [set(column) for column in zip(*tallies)]
        if declared_sizes is None:
            alphabets = [sorted(symbols) for symbols in seen]
        else:  # a levels header without symbols: the numeric alphabets 0..s-1
            alphabets = [[str(j) for j in range(size)] for size in declared_sizes]
            for i, symbols in enumerate(seen):
                if not symbols <= set(alphabets[i]):
                    raise DesignParseError(
                        f"factor {i + 1} uses symbols outside 0..{declared_sizes[i] - 1}; "
                        "add a symbols header"
                    )

    # Distinct symbol rows are distinct runs: each is looked up once.
    index = [{symbol: j for j, symbol in enumerate(a)} for a in alphabets]
    try:
        runs = [tuple(map(operator.getitem, index, row)) for row in tallies]
    except KeyError:  # name the first unknown symbol in file order
        n, i, symbol = next(
            (n, i, symbol)
            for n, (row, _) in enumerate(layout(data, k))
            for i, symbol in enumerate(row)
            if symbol not in index[i]
        )
        # In column layout, factor i is data line i whichever run is read.
        raise DesignParseError(
            f"symbol {symbol!r} not in factor {i + 1}'s alphabet", data[i if columns else n][0]
        ) from None
    return Design(tuple(map(tuple, alphabets)), dict(zip(runs, tallies.values())))


def _runs_from_rows(data, k) -> Iterator[tuple[tuple[str, ...], int]]:
    """Row layout: each data line is one run, optionally ending in x<mult>,
    and a line that repeats counts once per repeat."""
    for lineno, tokens, repeats in data:
        mult = 1
        m = _MULTIPLIER_RE.match(tokens[-1]) if len(tokens) > 1 else None
        if m and (k is None or len(tokens) == k + 1):
            mult = int(m.group(1))
            if mult < 1:
                raise DesignParseError("multiplier must be at least 1", lineno)
            tokens = tokens[:-1]
        if k is None:
            k = len(tokens)
        if len(tokens) != k:
            raise DesignParseError(f"expected {k} symbols, got {len(tokens)}", lineno)
        yield tuple(tokens), mult * repeats


def _runs_from_columns(data, k) -> Iterator[tuple[tuple[str, ...], int]]:
    """Column layout: one line per factor, runs are the columns."""
    if k is not None and data and len(data) != k:
        raise DesignParseError(f"expected {k} factor lines, got {len(data)}", data[-1][0])
    for lineno, tokens, _ in data[1:]:
        if len(tokens) != len(data[0][1]):
            raise DesignParseError(
                f"expected {len(data[0][1])} columns, got {len(tokens)}", lineno
            )
    return zip(zip(*(tokens for _, tokens, _ in data)), itertools.repeat(1))
