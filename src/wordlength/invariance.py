"""Character-free wordlength patterns, invariance verification, and ranking.

The margin route computes the wordlength pattern from run counts only: for a
factor subset K,

    B_K = (1 / prod_{i not in K} s_i) * sum of squared K-margin counts,

which never references a group structure.  An alternating subset sum (Moebius
inversion over the subset lattice) turns the B_K into the per-subset squared
projection norms whose weight-class totals are the A_j.  Agreement of this
route with the character route, for every structure assignment, is exactly
the invariance property this package exists to check.

Two exact kernels give the agreement totals G[K], the sums of squared
K-margin counts, so that s * B_K = prod_{i in K} s_i * G[K].  The margin
kernel counts the 2^k margin tables.  The pair kernel uses the pair form of
the same sum (Xu and Wu, Ann. Statist. 29 (2001)): a squared K-margin total
counts the ordered run pairs (x, y) that agree on K, so

    G[K] = sum_{x, y agree on K} m_x * m_y = sum_{J >= K} h[J],

where h[J] totals m_x * m_y over the pairs that agree on exactly the factors
in J.  Its cost grows with the n^2 / 2 pairs of the n distinct runs, against
2^k sorts of n runs for the margins, so it runs when n <= 2 * 2^k; the margin
kernel runs otherwise.  The switch reads only n and k.  Both kernels work in
the dtype of the design's multiplicities, which is exact for these sums, and
give the same integers, so the kernel choice never shows in a result.

The route is exact: one integer step per factor scales the G[K] and inverts
them into s * ||M_J U O||^2, so each N^2 * A_j is an integer sum and the
pattern needs one division per entry.  Every value the step reaches, and every
weight-class sum, lies in [0, s * sum m^2], so both run in int64 while
s * N^2 fits it and in Python ints past that; the choice reads only s and N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .design import DENSIFY_CAP, Design, MarginTable, margins
from .errors import ResourceLimitError
from .groups import DENSE_BLOCK_ENTRIES, AbelianStructure, element_components, enumerate_structures
from .spectra import (
    INTERNAL_TOL,
    Assignment,
    GWLP,
    _PrefixWalk,
    _check_tolerance,
    _order_weights,
    _residue_bound,
    check_assignment,
    gwlp_char,
    j_characteristics,
)

#: Default tolerance when comparing the margin route against character routes.
CROSS_ROUTE_TOL = 1e-8

#: Largest number of assignments one invariance check may compare.
MAX_ASSIGNMENTS = 256

# The pair kernel runs when the distinct runs are at most this many per factor
# subset: at n = 2 * 2^k it took 0.2-0.5 of the margin kernel's time, and
# 0.6-1.1 of it at n = 4 * 2^k (k = 6-12, random designs).
_PAIR_RUNS_PER_SUBSET = 2

_INT64_MAX = np.iinfo(np.int64).max


def subset_norm(design: Design, subset: Iterable[int]) -> float:
    """B_K from the K-margins alone: sum of squared counts over the off-K size."""
    return table_norm(margins(design, subset), design.space_size)


def table_norm(table: MarginTable, space_size: int) -> float:
    """``subset_norm`` from a K-margin table of a design with ``space_size`` cells."""
    scaled = math.prod(table.sizes) * int(table.counts @ table.counts)  # s * B_K, exact
    return scaled / space_size


def _scale_and_invert(totals: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """s * ||M_J U O||^2 for every subset J from the agreement totals G[K].

    Scaling G[K] by prod(sizes_K) gives s * B_K, and the subset-lattice
    Moebius transform out[J] = sum_{K<=J} (-1)^|J\\K| s * B_K gives the
    projector norms.  Both act factor by factor on a (2,)*k copy of the
    totals, in their dtype, whose axis k-1-i is bit i: (a0, a1) -> (a0,
    s_i * a1 - a0).  Every value along the way is s times a squared
    projection norm of O, so it lies in [0, s * sum m^2].
    """
    out = totals.reshape((2,) * len(sizes)).copy()
    for axis, size in enumerate(reversed(sizes)):
        index = (slice(None),) * axis
        out[index + (1,)] *= size
        out[index + (1,)] -= out[index + (0,)]
    return out.ravel()


def _margin_subset_norms(design: Design) -> np.ndarray:
    """G[K], the sum of squared K-margin counts, for every subset K."""
    tables = (
        margins(design, [i for i in range(design.k) if mask >> i & 1])
        for mask in range(1 << design.k)
    )
    dtype = design._run_matrix[1].dtype
    return np.fromiter((t.counts @ t.counts for t in tables), dtype, 1 << design.k)


def _pair_subset_norms(design: Design) -> np.ndarray:
    """G[K] for every subset K, from the agreement masks of the run pairs.

    h[J] is the total m_x * m_y over the ordered pairs of distinct runs (x, y)
    that agree on exactly J; then G[K] = sum_{J >= K} h[J].  The upper
    triangle of pairs is read in blocks of whole rows, as many as fit in
    ``DENSE_BLOCK_ENTRIES`` pairs and at least one.  A pair past the block's
    own rows stands for both of its orders.  ``DENSIFY_CAP`` keeps k <= 20,
    so a mask fits int32.
    """
    runs, mults = design._run_matrix
    k, n = runs.shape
    agree = np.zeros(1 << k, mults.dtype)  # h sums to N^2, which the dtype holds
    start = 0
    while start < n:
        stop = min(n, start + max(1, DENSE_BLOCK_ENTRIES // (n - start)))
        masks = np.zeros((stop - start, n - start), np.int32)
        bit = np.empty_like(masks)
        for i in range(k):
            np.equal(runs[i, start:stop, None], runs[i, None, start:], out=bit)
            bit <<= i
            masks |= bit
        weights = mults[start:stop, None] * mults[None, start:]
        weights[:, stop - start :] *= 2  # x != y there, so 2 m_x m_y <= N^2 / 2
        np.add.at(agree, masks.ravel(), weights.ravel())
        start = stop
    # Superset sums, the mirror of the Moebius step; each stays <= N^2.
    sums = agree.reshape((2,) * k)
    for axis in range(k):
        index = (slice(None),) * axis
        sums[index + (0,)] += sums[index + (1,)]
    return sums.ravel()


def _scaled_projector_norms(design: Design) -> np.ndarray:
    """s * ||M_J U O||^2 for every factor subset J (bit i = factor i), as integers.

    They are int64 while s * N^2 fits int64, which bounds every value of the
    lattice step and their sum, and Python ints past that.
    """
    k = design.k
    if 1 << k > DENSIFY_CAP:
        raise ResourceLimitError(
            f"margin route over k = {k} factors needs 2^{k} subsets, above the cap {DENSIFY_CAP}"
        )
    pairs = design._run_matrix[0].shape[1] <= _PAIR_RUNS_PER_SUBSET << k
    kernel = _pair_subset_norms if pairs else _margin_subset_norms
    exact = np.int64 if design.space_size * design.n_runs**2 <= _INT64_MAX else object
    return _scale_and_invert(kernel(design).astype(exact, copy=False), design.sizes)


def projector_norms(design: Design) -> list[float]:
    """Squared norms ||M_J U O||^2 for every factor subset J, indexed by bitmask.

    Bit i of the mask selects factor i.  Computed from run counts alone: the
    margin or the pair kernel gives the agreement totals G[K] (pairs when
    n <= 2 * 2^k; see the module docstring), and one exact step per factor
    scales and inverts them.  Multiplying by s gives the total |chi_g|^2 over
    the elements that are nonidentity exactly on J, under any structure
    assignment.
    """
    s = design.space_size
    return [value / s for value in _scaled_projector_norms(design).tolist()]


def gwlp_margin(design: Design) -> GWLP:
    """Wordlength pattern from run counts only (no characters, no dense O).

    The agreement totals come from the margin tables, or from the run-pair
    agreement masks when n <= 2 * 2^k; both kernels give the same integers.
    Exact: the integers N^2 * A_j are summed first and divided by N^2 once,
    so each entry is the correctly rounded float of the true A_j.
    """
    values = _scaled_projector_norms(design)
    weights = _order_weights((2,) * design.k)  # the bit count of each mask
    scaled = np.zeros(design.k + 1, values.dtype)
    np.add.at(scaled, weights, values)
    n_squared = design.n_runs**2
    return GWLP([a / n_squared for a in scaled.tolist()])


def resolution_and_strength(gwlp: GWLP, tol: float = INTERNAL_TOL) -> tuple[int | None, int]:
    """Resolution = smallest j >= 1 with A_j > tol (None if all vanish).

    Strength is reported as resolution - 1, or k when no A_j exceeds tol.
    ``tol=0`` decides by A_j > 0, which is exact on a ``gwlp_margin`` pattern.
    A ValueError unless ``tol`` is a number >= 0.
    """
    _check_tolerance(tol)
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
    _check_tolerance(tol)
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

    components: tuple[int, ...]
    first_assignment: Assignment
    other_assignment: Assignment
    first_value: complex
    other_value: complex


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of checking wordlength-pattern invariance across assignments."""

    assignments: tuple[Assignment, ...]
    gwlps: tuple[GWLP, ...]
    margin_gwlp: GWLP
    max_deviation_by_j: tuple[float, ...]
    max_deviation: float
    invariant: bool
    witness: JCharWitness | None
    residue_bound: float  # the sweep's largest spectra._residue_bound
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
    per weight class.  When a later spectrum differs from the first one by more
    than the larger of their two ``spectra._residue_bound``s, the witness
    records the first Yates element where it does (taking, among later
    assignments, the one differing most there, and the earlier of two that
    differ equally).  ``tol`` decides only cross-route agreement; the
    resolution is read off the margin pattern exactly.

    Every spectrum, the witness's included, comes from one ``_PrefixWalk``
    passed to ``j_characteristics`` as ``walk``, so an assignment starts
    from the transform of the leading factors it shares with the previous
    one; the walk keeps at most (k - 1) * s complex values.
    """
    _check_tolerance(tol)
    resolved = expand_assignments(design, assignments)
    margin = gwlp_margin(design)

    gwlps: list[GWLP] = []
    first_values = None
    bounds: list[float] = []  # each assignment's spectra._residue_bound
    best_witness: tuple[int, float, int] | None = None  # (element, -delta, assignment)
    walk = _PrefixWalk(design)
    for pos, assignment in enumerate(resolved):
        jchar = j_characteristics(design, assignment, walk=walk)
        gwlps.append(gwlp_char(jchar))
        bounds.append(_residue_bound(assignment, design.n_runs))
        if pos == 0:
            first_values = jchar.values
            continue
        # Only elements up to the best witness so far can take its place.
        end = None if best_witness is None else best_witness[0] + 1
        deltas = abs(jchar.values[:end] - first_values[:end])
        differing = deltas > max(bounds[0], bounds[-1])
        element = int(differing.argmax())
        if differing[element]:
            candidate = (element, -float(deltas[element]), pos)
            if best_witness is None or candidate < best_witness:
                best_witness = candidate

    witness = None
    if best_witness is not None:
        element, neg_delta, pos = best_witness
        jchar = j_characteristics(design, resolved[pos], walk=walk)
        witness = JCharWitness(
            components=element_components(element, design.sizes),
            first_assignment=resolved[0],
            other_assignment=resolved[pos],
            first_value=complex(first_values[element]),
            other_value=complex(jchar.values[element]),
        )

    columns = zip(margin, *gwlps)
    by_j = [max(column) - min(column) for column in columns]
    max_dev = max(by_j)
    resolution, strength = resolution_and_strength(margin, 0)
    return InvarianceReport(
        assignments=tuple(resolved),
        gwlps=tuple(gwlps),
        margin_gwlp=margin,
        max_deviation_by_j=tuple(by_j),
        max_deviation=max_dev,
        invariant=max_dev <= tol,
        witness=witness,
        residue_bound=max(bounds),
        resolution=resolution,
        strength=strength,
    )
