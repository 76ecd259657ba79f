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
        sizes = [len(alphabet) for alphabet in levels]
        for run, mult in counts.items():
            if len(run) != len(levels):
                raise ValueError(f"run {run} does not have {len(levels)} coordinates")
            if min(run) < 0 or not all(map(operator.lt, run, sizes)):
                raise ValueError(f"run {run} has a level index out of range")
            if mult < 1:
                raise ValueError(f"run {run} has multiplicity {mult} < 1")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "counts", MappingProxyType(counts))

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

    @cached_property
    def _run_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct runs as an (n, k) level-index array, and their multiplicities.

        Multiplicities are int64, so no margin sum can overflow, unless N
        itself does not fit; then they are Python ints in an object array.
        """
        cells = np.array(list(self.counts), dtype=np.intp).reshape(-1, self.k)
        dtype = np.int64 if self.n_runs <= np.iinfo(np.int64).max else object
        return cells, np.array(list(self.counts.values()), dtype=dtype)

    def runs(self) -> Iterator[tuple[Run, int]]:
        """(run, multiplicity) pairs in Yates order of the run tuples."""
        for run in sorted(self.counts):
            yield run, self.counts[run]

    def dense_counts(self) -> np.ndarray:
        """Count vector O over all s cells in Yates order (refused above ``DENSIFY_CAP``)."""
        cells, mults = self._run_matrix
        return _dense(cells, mults, self.sizes, "count vector of length")

    def serialize(self) -> str:
        """Canonical design-file text; parse(serialize(d)) reproduces d."""
        lines = ["symbols: " + " | ".join(" ".join(a) for a in self.levels)]
        for run, mult in self.runs():
            tokens = [self.levels[i][r] for i, r in enumerate(run)]
            if mult > 1:
                tokens.append(f"x{mult}")
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MarginTable:
    """Run counts marginalized to a subset of factor positions (0-based).

    Only nonzero cells are stored; each cell is a tuple of level indices for
    the factors in ``subset`` (ascending).  The empty subset yields the single
    cell ``()`` holding N.
    """

    subset: tuple[int, ...]
    sizes: tuple[int, ...]
    counts: Mapping[tuple[int, ...], int] = field(repr=False)
    n_runs: int

    def __getitem__(self, cell: Sequence[int]) -> int:
        return self.counts.get(tuple(cell), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def cells(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (cell, count) pairs in Yates order."""
        for cell in sorted(self.counts):
            yield cell, self.counts[cell]

    def dense(self) -> np.ndarray:
        cells = np.array(list(self.counts), dtype=np.intp).reshape(-1, len(self.sizes))
        values = list(self.counts.values())
        return _dense(cells, values, self.sizes, "margin table of size")


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
    positions = tuple(sorted(set(int(i) for i in subset)))
    if positions and not (0 <= positions[0] and positions[-1] < design.k):
        raise ValueError(f"subset {positions} out of range for {design.k} factors")
    sizes = tuple(design.sizes[i] for i in positions)
    if not positions:
        return MarginTable(positions, sizes, {(): design.n_runs}, design.n_runs)
    runs, mults = design._run_matrix
    columns = runs[:, positions]
    if len(sizes) <= _MAX_RAVEL_DIMS and math.prod(sizes) <= _MAX_RAVEL_CELLS:
        distinct, inverse = np.unique(
            np.ravel_multi_index(columns.T, sizes), return_inverse=True
        )
        cells = zip(*(digits.tolist() for digits in np.unravel_index(distinct, sizes)))
    else:  # too many cells for one flat index: count distinct rows instead
        distinct, inverse = np.unique(columns, axis=0, return_inverse=True)
        cells = map(tuple, distinct.tolist())
    totals = np.zeros(len(distinct), dtype=mults.dtype)
    np.add.at(totals, inverse, mults)
    return MarginTable(positions, sizes, dict(zip(cells, totals.tolist())), design.n_runs)


def relabel_levels(design: Design, perms: Sequence[Sequence[int] | None]) -> Design:
    """Permute each factor's levels; ``perms[i][old] = new`` (None = identity).

    The multiset of multiplicities and N are preserved; symbols stay attached
    to their positions, runs are re-indexed.
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
    counts: dict[Run, int] = {}
    for run, mult in design.counts.items():
        new_run = tuple(mappings[i][r] for i, r in enumerate(run))
        counts[new_run] = counts.get(new_run, 0) + mult
    return Design(design.levels, counts)


def parse_design(text: str) -> Design:
    """Parse the design file format.

    Format: ``#`` comments; optional headers ``levels: s1 ... sk``,
    ``symbols: a0 a1 ... | b0 b1 ... | ...`` (first symbol per factor is the
    reference level) and ``layout: columns`` (runs are file columns, one line
    per factor); then one run per line, whitespace-separated symbols with an
    optional trailing ``x<m>`` multiplier.  Without a ``symbols`` header the
    alphabets are the sorted distinct symbols per factor.
    """
    declared_sizes: list[int] | None = None
    declared_symbols: list[list[str]] | None = None
    columns = False
    data: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line) if not data else None
        if header:
            name, rest = header.group(1), header.group(2).strip()
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
                        raise DesignParseError(
                            f"factor {i + 1} has duplicate symbols", lineno
                        )
            elif name == "layout":
                if rest not in ("rows", "columns"):
                    raise DesignParseError(f"unknown layout {rest!r}", lineno)
                columns = rest == "columns"
            else:
                raise DesignParseError(f"unknown header {name!r}", lineno)
            continue
        data.append((lineno, line.split()))

    if declared_symbols is not None and declared_sizes is not None:
        if [len(a) for a in declared_symbols] != declared_sizes:
            raise DesignParseError("symbols header disagrees with levels header")

    if columns:
        runs = _runs_from_columns(data, declared_sizes, declared_symbols)
    else:
        runs = _runs_from_rows(data, declared_sizes, declared_symbols)
    if not runs:
        raise DesignParseError("no runs found")

    k = len(runs[0][1])
    alphabets = _resolve_alphabets(runs, k, declared_sizes, declared_symbols)

    counts: dict[Run, int] = {}
    for lineno, symbols, mult in runs:
        run = []
        for i, symbol in enumerate(symbols):
            try:
                run.append(alphabets[i].index(symbol))
            except ValueError:
                # In column layout, factor i is data line i whichever run is read.
                raise DesignParseError(
                    f"symbol {symbol!r} not in factor {i + 1}'s alphabet",
                    data[i][0] if columns else lineno,
                ) from None
        run = tuple(run)
        counts[run] = counts.get(run, 0) + mult
    return Design(tuple(tuple(a) for a in alphabets), counts)


def _known_k(sizes: list[int] | None, symbols: list[list[str]] | None) -> int | None:
    if symbols is not None:
        return len(symbols)
    if sizes is not None:
        return len(sizes)
    return None


def _runs_from_rows(data, sizes, symbols) -> list[tuple[int, list[str], int]]:
    """Row layout: each data line is one run, optionally ending in x<mult>."""
    k = _known_k(sizes, symbols)
    runs = []
    for lineno, tokens in data:
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
            raise DesignParseError(
                f"expected {k} symbols, got {len(tokens)}", lineno
            )
        runs.append((lineno, tokens, mult))
    return runs


def _runs_from_columns(data, sizes, symbols) -> list[tuple[int, list[str], int]]:
    """Column layout: one line per factor, runs are the columns."""
    k = _known_k(sizes, symbols)
    if k is not None and data and len(data) != k:
        raise DesignParseError(
            f"expected {k} factor lines, got {len(data)}", data[-1][0]
        )
    width = None
    for lineno, tokens in data:
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise DesignParseError(
                f"expected {width} columns, got {len(tokens)}", lineno
            )
    if not data:
        return []
    first_line = data[0][0]
    return [
        (first_line, [tokens[j] for _, tokens in data], 1) for j in range(width)
    ]


def _resolve_alphabets(runs, k, sizes, symbols) -> list[list[str]]:
    if symbols is not None:
        if len(symbols) != k:
            raise DesignParseError(
                f"symbols header declares {len(symbols)} factors, runs have {k}"
            )
        return symbols
    seen: list[set[str]] = [set() for _ in range(k)]
    for _, tokens, _ in runs:
        for i, symbol in enumerate(tokens):
            seen[i].add(symbol)
    if sizes is None:
        return [sorted(s) for s in seen]
    # A levels header without symbols: factors use the numeric alphabet 0..s-1.
    if len(sizes) != k:
        raise DesignParseError(f"levels header declares {len(sizes)} factors, runs have {k}")
    alphabets = [[str(j) for j in range(size)] for size in sizes]
    for i, alphabet in enumerate(alphabets):
        if not seen[i] <= set(alphabet):
            raise DesignParseError(
                f"factor {i + 1} uses symbols outside 0..{sizes[i] - 1}; add a symbols header"
            )
    return alphabets
