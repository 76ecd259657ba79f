"""Character-free wordlength patterns, invariance verification, and ranking.

The margin route computes the wordlength pattern from run-count margins only:
for a factor subset K,

    B_K = (1 / prod_{i not in K} s_i) * sum of squared margin counts,

which never references a group structure.  An alternating subset sum (Moebius
inversion over the subset lattice) turns the B_K into the per-subset squared
projection norms whose weight-class totals are the A_j.  Agreement of this
route with the character route, for every structure assignment, is exactly
the invariance property this package exists to check.

The route is exact: it works on the integers s * B_K, so each N^2 * A_j is an
integer sum and the pattern needs one division per entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .design import Design, MarginTable, margins
from .errors import ResourceLimitError
from .groups import AbelianStructure, enumerate_structures
from .spectra import (
    INTERNAL_TOL,
    Assignment,
    GWLP,
    check_assignment,
    gwlp_char,
    j_characteristics,
)

#: Default tolerance when comparing the margin route against character routes.
CROSS_ROUTE_TOL = 1e-8

#: Largest number of assignments one invariance check may compare.
MAX_ASSIGNMENTS = 256


@dataclass(frozen=True)
class SubsetNorm:
    """B_K for a factor subset K: a squared projected-transform norm, group-free."""

    subset: tuple[int, ...]
    value: float


def subset_norm(design: Design, subset: Iterable[int]) -> SubsetNorm:
    """B_K from the K-margins alone: sum of squared counts over the off-K size."""
    return table_norm(margins(design, subset), design.space_size)


def table_norm(table: MarginTable, space_size: int) -> SubsetNorm:
    """``subset_norm`` from a K-margin table of a design with ``space_size`` cells."""
    return SubsetNorm(table.subset, _scaled_norm(table) / space_size)


def _scaled_norm(table: MarginTable) -> int:
    """s * B_K = prod(sizes_K) * sum of squared K-margin counts, an exact integer."""
    counts = table.counts.tolist()
    return math.prod(table.sizes) * sum(map(operator.mul, counts, counts))


def _mobius_alternating(values: Sequence[int], k: int) -> list[int]:
    """In-place subset-lattice Moebius transform: out[J] = sum_{K<=J} (-1)^|J\\K| in[K]."""
    out = list(values)
    for i in range(k):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def _scaled_projector_norms(design: Design) -> list[int]:
    """s * ||M_J U O||^2 for every factor subset J (bit i = factor i), as integers."""
    k = design.k
    scaled = [
        _scaled_norm(margins(design, [i for i in range(k) if mask >> i & 1]))
        for mask in range(1 << k)
    ]
    return _mobius_alternating(scaled, k)


def projector_norms(design: Design) -> list[float]:
    """Squared norms ||M_J U O||^2 for every factor subset J, indexed by bitmask.

    Bit i of the mask selects factor i.  Computed entirely from margins via
    the alternating subset sum; multiplying by s gives the total |chi_g|^2
    over the elements that are nonidentity exactly on J, under any structure
    assignment.
    """
    s = design.space_size
    return [value / s for value in _scaled_projector_norms(design)]


def gwlp_margin(design: Design) -> GWLP:
    """Wordlength pattern computed from margins only (no characters, no dense O).

    Exact: the integers N^2 * A_j are summed first and divided by N^2 once,
    so each entry is the correctly rounded float of the true A_j.
    """
    if design.n_runs <= 0:
        raise ValueError("design has no runs")
    scaled = [0] * (design.k + 1)
    for mask, value in enumerate(_scaled_projector_norms(design)):
        scaled[mask.bit_count()] += value
    n_squared = design.n_runs**2
    return GWLP([a / n_squared for a in scaled])


def resolution_and_strength(gwlp: GWLP, tol: float = INTERNAL_TOL) -> tuple[int | None, int]:
    """Resolution = smallest j >= 1 with A_j > tol (None if all vanish).

    Strength is reported as resolution - 1, or k when no A_j exceeds tol.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    for j in range(1, len(gwlp)):
        if gwlp[j] > tol:
            return j, j - 1
    return None, gwlp.k


@dataclass(frozen=True)
class AberrationVerdict:
    """Outcome of a lexicographic wordlength-pattern comparison.

    ``ordering`` is ``"first-better"``, ``"second-better"`` or ``"tie"``;
    ``index`` is the first j (1-based) where the patterns differ, if any.
    """

    ordering: str
    index: int | None


def compare_aberration(a: GWLP, b: GWLP, *, tol: float = INTERNAL_TOL) -> AberrationVerdict:
    """Lexicographic comparison of (A_1..A_k); the smaller first difference wins."""
    if not tol >= 0:
        raise ValueError("tolerance must be a number >= 0")
    if a.k != b.k:
        raise ValueError(f"patterns have different lengths ({a.k} vs {b.k})")
    for j in range(1, a.k + 1):
        if abs(a[j] - b[j]) > tol:
            better = "first-better" if a[j] < b[j] else "second-better"
            return AberrationVerdict(better, j)
    return AberrationVerdict("tie", None)


def expand_assignments(
    design: Design,
    assignments: str | Sequence[Sequence[AbelianStructure | str]] = "all",
) -> list[Assignment]:
    """Resolve an assignment list, or "all" = every per-factor structure choice."""
    if isinstance(assignments, str):
        if assignments != "all":
            raise ValueError(f"unknown assignment sweep {assignments!r}")
        per_factor = [enumerate_structures(size) for size in design.sizes]
        candidates = itertools.product(*per_factor)
        total = math.prod(len(choices) for choices in per_factor)
        excess = f"sweep expands to {total} assignments, above the cap"
    else:
        candidates = [check_assignment(design, a) for a in assignments]
        total = len(candidates)
        excess = f"{total} assignments exceed the cap"
    if total > MAX_ASSIGNMENTS:
        raise ResourceLimitError(f"{excess} {MAX_ASSIGNMENTS}")
    if not total:
        raise ValueError("need at least one assignment")
    return [tuple(combo) for combo in candidates]


@dataclass(frozen=True)
class JCharWitness:
    """Two assignments disagreeing on one spectrum entry (so chi is not invariant)."""

    element_index: int
    components: tuple[int, ...]
    first_assignment: Assignment
    other_assignment: Assignment
    first_value: complex
    other_value: complex


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of checking wordlength-pattern invariance across assignments."""

    design_sizes: tuple[int, ...]
    n_runs: int
    assignments: tuple[Assignment, ...]
    gwlps: tuple[GWLP, ...]
    margin_gwlp: GWLP
    max_deviation_by_j: tuple[float, ...]
    max_deviation: float
    tolerance: float
    invariant: bool
    witness: JCharWitness | None
    resolution: int | None
    strength: int


def verify_invariance(
    design: Design,
    assignments: str | Sequence[Sequence[AbelianStructure | str]] = "all",
    *,
    tol: float = CROSS_ROUTE_TOL,
) -> InvarianceReport:
    """Compare the wordlength pattern across structure assignments and routes.

    Computes the character-route pattern under every requested assignment plus
    the margin-route pattern once, and reports the largest pairwise deviation
    per weight class.  When spectra differ between the first assignment and a
    later one, the witness records the first Yates element where they do
    (taking, among later assignments, the one differing most there).  ``tol``
    decides only cross-route agreement; the witness and the resolution are
    decided at ``INTERNAL_TOL``.
    """
    if not tol >= 0:
        raise ValueError("tolerance must be a number >= 0")
    resolved = expand_assignments(design, assignments)
    margin = gwlp_margin(design)

    gwlps: list[GWLP] = []
    first_values = None
    best_witness: tuple[int, float, int] | None = None  # (element, -delta, assignment)
    for pos, assignment in enumerate(resolved):
        jchar = j_characteristics(design, assignment)
        gwlps.append(gwlp_char(jchar))
        if pos == 0:
            first_values = jchar.values.copy()
            continue
        deltas = abs(jchar.values - first_values)
        differing = (deltas > INTERNAL_TOL).nonzero()[0]
        if differing.size:
            element = int(differing[0])
            candidate = (element, -float(deltas[element]), pos)
            if best_witness is None or candidate < best_witness:
                best_witness = candidate

    witness = None
    if best_witness is not None:
        element, neg_delta, pos = best_witness
        jchar = j_characteristics(design, resolved[pos])
        witness = JCharWitness(
            element_index=element,
            components=tuple(int(r) for r in np.unravel_index(element, design.sizes)),
            first_assignment=resolved[0],
            other_assignment=resolved[pos],
            first_value=complex(first_values[element]),
            other_value=complex(jchar.values[element]),
        )

    patterns = [margin, *gwlps]
    k = design.k
    by_j = []
    for j in range(k + 1):
        column = [p[j] for p in patterns]
        by_j.append(max(column) - min(column))
    max_dev = max(by_j)
    resolution, strength = resolution_and_strength(margin)
    return InvarianceReport(
        design_sizes=design.sizes,
        n_runs=design.n_runs,
        assignments=tuple(resolved),
        gwlps=tuple(gwlps),
        margin_gwlp=margin,
        max_deviation_by_j=tuple(by_j),
        max_deviation=max_dev,
        tolerance=tol,
        invariant=max_dev <= tol,
        witness=witness,
        resolution=resolution,
        strength=strength,
    )
