"""J-characteristics and the character-route generalized wordlength pattern.

Assigning an abelian group structure to every factor turns a design's count
vector O into a spectrum chi = H O, where H is the character table of the
product group in Yates order.  The spectrum determines the design (O can be
recovered as H* chi / s) but depends on the chosen structures; the wordlength
pattern derived from it does not.  So a ``JCharVector`` carries its structures
and ``N`` and checks that they fit its values; its consumers trust it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .design import Design, Run
from .errors import InconsistentSpectrumError
from .groups import (
    AbelianStructure,
    _dense_product,
    _dense_table,
    cyclic_character_table,
    element_components,
    parse_structure,
    yates_strides,
)
from .kron import _contract_axis

Assignment = tuple[AbelianStructure, ...]

#: Default tolerance of the pattern verdicts, and the floor of ``_residue_bound``.
INTERNAL_TOL = 1e-9

#: Least default distance of a reconstructed cell from an integer.  Spectra
#: rendered at 12 significant digits put each cell within about 5e-12 * N of
#: its count, whatever s is, so ``reconstruct`` allows twice that for 10^5 < N < 5e10.
RECONSTRUCT_TOL = 1e-6


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # NaN too; every verdict's tolerance follows this one rule
        raise ValueError("tolerance must be a number >= 0")


def _assignment(structures: Sequence[AbelianStructure | str]) -> Assignment:
    """The structures as a tuple, structure literals (e.g. ``"2x2"``) parsed in place.

    A bare string is refused, and an entry that is neither a literal nor a
    structure is a TypeError.
    """
    if isinstance(structures, str):  # it would iterate by character
        raise ValueError(f'assignment {structures!r} is a str, not a list like ["4", "2x2", "4"]')
    resolved = tuple(parse_structure(st) if isinstance(st, str) else st for st in structures)
    for i, st in enumerate(resolved):
        if not isinstance(st, AbelianStructure):
            raise TypeError(
                f"assignment entry {i + 1} is {st!r}, not a structure literal "
                f'like "2x2" or an AbelianStructure'
            )
    return resolved


def check_assignment(design: Design, structures: Sequence[AbelianStructure | str]) -> Assignment:
    """Validate one structure or literal per factor with matching orders; returns the tuple."""
    resolved = _assignment(structures)
    if len(resolved) != design.k:
        raise ValueError(f"assignment has {len(resolved)} structures for {design.k} factors")
    for i, (st, size) in enumerate(zip(resolved, design.sizes)):
        if st.order != size:
            raise ValueError(
                f"factor {i + 1} has {size} levels but structure {st.literal()} "
                f"has order {st.order}"
            )
    return resolved


def weight(structures: Sequence[AbelianStructure], g: Sequence[int] | int) -> int:
    """Number of nonidentity components of g under the per-factor structures.

    ``g`` is a flat Yates index over the product group or a tuple of
    per-factor element indices.
    """
    components = element_components(g, [st.order for st in structures])
    return sum(1 for c in components if c != 0)


def element_weights(structures: Sequence[AbelianStructure]) -> np.ndarray:
    """Vector of nonidentity weights for all s Yates-ordered elements (read-only).

    The weights depend on the factor orders only, so one vector is kept per
    order tuple: every assignment of an invariance sweep shares it.
    """
    return _order_weights(tuple(st.order for st in structures))


# Two entries: a sweep's factor orders, and gwlp_margin's (2,) * k (subset bit counts).
@functools.lru_cache(maxsize=2)
def _order_weights(orders: tuple[int, ...]) -> np.ndarray:
    weights = np.zeros(math.prod(orders), dtype=np.int64)
    # Factor i's digit is the middle axis of each view; C order is Yates order.
    for d, stride in zip(orders, yates_strides(orders)):
        weights.reshape(-1, d, stride)[:, 1:] += 1
    weights.flags.writeable = False
    return weights


# gwlp_char's exact class sums: the Yates indices sorted stably by weight, and
# where each weight's run starts among their float64 parts (two per element).
# No weight exceeds the number of factors of order > 1, so the runs are those
# of the leading classes.
@functools.lru_cache(maxsize=2)
def _weight_runs(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    weights = _order_weights(orders)
    order = weights.argsort(kind="stable")
    return order, 2 * np.flatnonzero(np.diff(weights[order], prepend=-1))


@dataclass(frozen=True, eq=False)
class JCharVector:
    """Spectrum of a design: chi[g] for all s elements g in Yates order.

    Structure literals (e.g. ``"2x2"``) are parsed, and the structures kept as a
    tuple.  Raises ValueError unless there is a structure, one value per element
    and a run.  ``JCharVector(chi.values, chi.n_runs, other)`` re-pairs a spectrum.
    """

    values: np.ndarray = field(repr=False)
    n_runs: int
    structures: Assignment

    def __post_init__(self):
        object.__setattr__(self, "structures", _assignment(self.structures))
        if not self.structures:
            raise ValueError("a spectrum needs at least one structure")
        size = math.prod(st.order for st in self.structures)
        if np.ndim(self.values) != 1:
            raise ValueError(f"spectrum values have shape {np.shape(self.values)}, not one axis")
        if len(self.values) != size:
            raise ValueError(f"assignment spans {size} elements, spectrum has {len(self.values)}")
        if self.n_runs < 1:
            raise ValueError(f"a spectrum needs at least one run, not n_runs {self.n_runs}")

    @property
    def space_size(self) -> int:
        return len(self.values)


class GWLP(tuple):
    """Generalized wordlength pattern (A_0, A_1, ..., A_k) of a design: a tuple of floats.

    A plain value: every route computes it without a tolerance, A_0 comes out
    as exactly 1 and every entry is finite and not negative.  Tolerances belong to the
    decisions made from a pattern (resolution, aberration order, cross-route
    agreement), which take them as arguments.  ``values`` and ``raw`` are the
    plain tuple of its entries.
    """

    __slots__ = ()

    def __new__(cls, values) -> GWLP:
        values = tuple(float(a) for a in values)
        if any(a < 0 for a in values):
            raise ValueError(f"wordlength pattern has a negative entry: {values}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"wordlength pattern has a non-finite entry: {values}")
        return super().__new__(cls, values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self)

    raw = values

    @property
    def k(self) -> int:
        return len(self) - 1


def _parts(structures: Sequence[AbelianStructure]) -> list[int]:
    """The cyclic orders of every factor's group in factor order: the transform's parts."""
    return [d for st in structures for d in st.cyclic_orders]


def assignment_character_table(structures: Sequence[AbelianStructure]) -> np.ndarray:
    """Dense character table of the product group, Yates-ordered by factors."""
    return _dense_table(_parts(structures))


def _exact_parts(parts: Sequence[int], n_runs: int) -> int:
    """How many leading cyclic parts run as ``_quarter_step``s: those of order 2 or 4.

    Their character values are 1, i, -1 and -i, so while N <= 2**53 every
    partial sum over them is a Gaussian integer with parts at most N in
    magnitude, exact in any evaluation order: the steps and the table route
    give the same numbers.  In ``reconstruct``'s inverse each partial sum is
    a power of two times such an integer, so it is still exact while
    N <= 2**53.  The one rule of which parts run exact; ``gwlp_char`` asks it too.
    """
    if n_runs > 2**53:
        return 0
    return next((i for i, d in enumerate(parts) if d not in (2, 4)), len(parts))


def _residue_bound(structures: Sequence[AbelianStructure], n_runs: int) -> float:
    """Twice the float error of an N-run design's spectrum under ``structures``, so two equal
    in exact arithmetic lie within the larger of their bounds: max(INTERNAL_TOL, 7 u N D), u =
    2**-53, D the sum of table-step parts (README derives the 7); N is a design's, which
    ``Design.dense_counts`` keeps below half float64's maximum."""
    parts = _parts(structures)
    table = sum(parts[_exact_parts(parts, n_runs) :])
    return max(INTERNAL_TOL, 7 * 2.0**-53 * n_runs * table)


def _quarter_step(flat: np.ndarray, d: int) -> np.ndarray:
    """Z_d's table (d = 2 or 4) along the leading axis of ``flat`` in C order, moved last.

    Z_2's is an add and a subtract; Z_4's is one product with its table,
    whose entries are 1, i, -1 and -i, so each output is a sum of four exact
    terms: on Gaussian integers whose parts add up to at most 2**53 in
    magnitude, every partial sum is exact and the step gives the add/subtract
    butterfly's numbers (the sign of a zero is not promised).  After parts 0..m-1 the
    array holds parts m.., 0..m-1 in C order, so after the last part it is in
    Yates order with no transpose copy.
    """
    x = flat.reshape(d, -1)
    if d == 4:
        return (x.T @ cyclic_character_table(4)).reshape(-1)
    y = np.empty((x.shape[1], 2), dtype=np.complex128)
    np.add(x[0], x[1], out=y[:, 0])
    np.subtract(x[0], x[1], out=y[:, 1])
    return y.reshape(-1)


def _apply_parts(w: np.ndarray, parts: list[int], n_runs: int, start=0, stop=None) -> np.ndarray:
    """``w``, the transform after ``parts[:start]``, carried through ``parts[start:stop]``.

    The one factorized transform: the one-shot ``j_characteristics`` runs it
    once, a ``_PrefixWalk`` once per factor, and ``reconstruct`` on the
    conjugate spectrum.  The parts ``_exact_parts`` counts are ``_quarter_step``s
    on a contiguous rotated array; from there on ``w`` has one axis per part,
    and each part is ``_contract_axis``'s step with its cyclic table.
    """
    exact = _exact_parts(parts, n_runs)
    for axis in range(start, len(parts) if stop is None else stop):
        if axis < exact:
            w = _quarter_step(w, parts[axis])
            continue
        if axis == exact:  # the rotated array, viewed in part order
            rest = len(parts) - axis
            w = w.reshape([*parts[axis:], *parts[:axis]])
            w = w.transpose(*range(rest, len(parts)), *range(rest))
        w = _contract_axis(w, axis, cyclic_character_table(parts[axis]))
    return w


class _PrefixWalk:
    """The factorized transform of one design under a run of assignments.

    The transform contracts factor 0's cyclic parts first, then factor 1's,
    and so on, so assignments that give factors 0..i the same cyclic orders
    share the array left after factor i.  The walk keeps that array for each
    i below the last factor of the latest assignment, and the next one starts
    from the longest shared run.  That is at most (k - 1) * s complex values
    beside the count vector; the leaf is not kept, so a returned spectrum
    owns its memory.  Each factor's parts run through ``_apply_parts``, as in
    the one-shot ``j_characteristics``; a kept exact-phase array is a rotated
    one, which a later assignment resumes either way.
    """

    def __init__(self, design: Design):
        self.design = design
        self._counts = design.dense_counts().astype(np.complex128)
        self._prefixes: list[tuple] = []  # (factor i's cyclic orders, the array after 0..i)

    def spectrum(self, structures: Assignment) -> np.ndarray:
        orders = [st.cyclic_orders for st in structures]
        depth = 0
        while depth < len(self._prefixes) and self._prefixes[depth][0] == orders[depth]:
            depth += 1
        del self._prefixes[depth:]
        parts = [d for factor in orders for d in factor]
        # A kept table-phase array has the latest assignment's part axes; the
        # values in Yates order are all that later axes read.  An exact-phase
        # one is a contiguous rotated array, which the reshape only relabels.
        w = (self._prefixes[-1][1] if depth else self._counts).reshape(parts)
        axis = sum(map(len, orders[:depth]))
        for i in range(depth, len(orders)):
            w = _apply_parts(w, parts, self.design.n_runs, axis, axis + len(orders[i]))
            axis += len(orders[i])
            if i < len(orders) - 1:
                self._prefixes.append((orders[i], w))
        # A one-level last factor has no parts, so w is still a kept array.
        return w.reshape(-1) if orders[-1] else w.flatten()


def j_characteristics(
    design: Design,
    structures: Sequence[AbelianStructure | str],
    algorithm: str = "factorized",
    *,
    walk: _PrefixWalk | None = None,
) -> JCharVector:
    """Spectrum chi with chi[g] = sum_h O(h) chi_g(h).

    ``algorithm="dense"`` applies the full character table (capped at
    ``groups.DENSE_TABLE_CAP``) a block of rows at a time, bit for bit as one
    product (``groups._dense_product``); ``"factorized"`` applies the per-part tables,
    each under that cap, as a mixed-radix transform on the dense count vector
    (capped at ``design.DENSIFY_CAP``).  The leading parts ``_exact_parts``
    counts run as exact ``_quarter_step``s (order 2 an add and a subtract,
    order 4 one Z_4 table product), the rest as ``kron.factored_apply``'s
    table steps, so the values equal its product with the part tables as
    numbers (the sign of a zero is not promised).  A sweep passes one
    ``_PrefixWalk`` of the design as ``walk`` to every call, which starts
    each factorized transform from the arrays kept for the previous
    assignment, bit for bit the same; the default ``None`` keeps nothing.
    A walk with ``"dense"`` is a ValueError.
    """
    structures = check_assignment(design, structures)
    if walk is not None:
        if algorithm != "factorized":
            raise ValueError(f"a prefix walk runs the factorized transform, not {algorithm!r}")
        if walk.design is not design:
            raise ValueError("the prefix walk was made for another design")
        return JCharVector(walk.spectrum(structures), design.n_runs, structures)
    parts = _parts(structures)
    if algorithm == "dense":
        values = _dense_product(parts, design.dense_counts().astype(np.complex128))
    elif algorithm == "factorized":
        # No name keeps the count vector, so the first step frees it.
        values = _apply_parts(
            design.dense_counts().astype(np.complex128), parts, design.n_runs
        ).reshape(-1)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r} (want dense or factorized)")
    return JCharVector(values, design.n_runs, structures)


def reconstruct(jchar: JCharVector, *, tol: float | None = None) -> dict[Run, int]:
    """Recover run multiplicities from a spectrum: O = H* chi / s.

    The spectrum is read under its own ``jchar.structures``.  Returns a sparse
    map from runs (per-factor level indices) to multiplicities.  Raises
    InconsistentSpectrumError if any cell is farther than ``tol`` from a
    nonnegative integer, which happens when the values were computed under a
    different structure assignment than the one they are paired with, or if
    the multiplicities do not add up to ``jchar.n_runs``, or if N > 2**53, past
    which a float64 cell need not hold its count; a ValueError unless
    ``tol`` is None or in [0, 1/2), as a finite cell is always within 1/2 of an
    integer.  None means ``max(RECONSTRUCT_TOL, 1e-11 * N)`` for N < 5e10, else 0.

    The cells are ``conj(H conj(chi)) / s`` (every cyclic table is
    symmetric, so H* = conj(H)), by the part steps of ``j_characteristics``.
    So while N <= 2**53 the spectrum of a design whose parts all have order
    2 or 4 reconstructs exactly, even with ``tol=0``.
    """
    if tol is None:
        tol = max(RECONSTRUCT_TOL, 1e-11 * jchar.n_runs) if jchar.n_runs < 5 * 10**10 else 0.0
    _check_tolerance(tol)
    if tol >= 0.5:
        raise ValueError(f"tolerance {tol} passes every cell; it must be below 1/2")
    if jchar.n_runs > 2**53:  # _exact_parts' bound
        raise InconsistentSpectrumError(f"a spectrum of N = {jchar.n_runs} runs is past 2**53")
    orders = [st.order for st in jchar.structures]
    parts = _parts(jchar.structures)
    # A non-finite or huge spectrum makes NaN or infinite cells; they fail
    # the check below.
    with np.errstate(invalid="ignore", over="ignore"):
        cells = _apply_parts(np.conj(jchar.values), parts, jchar.n_runs).reshape(-1)
        np.conj(cells, out=cells)
        cells /= jchar.space_size
        mults = np.rint(cells.real)
        off = ~(np.abs(cells - mults) <= tol)  # true for non-finite cells too
    bad = np.flatnonzero(off | (mults < 0))
    if bad.size:
        index = int(bad[0])
        if off[index]:
            raise InconsistentSpectrumError(
                f"cell {index} reconstructs to {cells[index]}, not an integer within {tol}"
            )
        raise InconsistentSpectrumError(
            f"cell {index} reconstructs to negative multiplicity {int(mults[index])}"
        )
    nonzero = np.flatnonzero(mults)
    runs = map(tuple, (nonzero[:, None] // np.array(yates_strides(orders)) % orders).tolist())
    counts = list(map(int, mults[nonzero].tolist()))
    total = sum(counts)
    if total != jchar.n_runs:
        raise InconsistentSpectrumError(
            f"spectrum reconstructs to {total} runs, not its n_runs {jchar.n_runs}"
        )
    return dict(zip(runs, counts))


def gwlp_char(jchar: JCharVector) -> GWLP:
    """Wordlength pattern A_j = N^-2 * sum over weight-j elements of |chi_g|^2.

    Exact when ``_exact_parts`` runs every part exact and s * N^2 <= 2**53:
    the spectrum is Gaussian integers, so each re^2 + im^2 and each class
    total (at most s * N^2, a bound of its own) is a float64 integer in any
    summation order, divided once as ``gwlp_margin`` divides.  Those classes
    are summed by one gather into weight order and ``np.add.reduceat`` over
    the squared parts; other spectra by ``np.bincount`` of
    ``np.abs(values) ** 2``, whose float sums keep their order.  Where N^2 or
    a class sum passes the float range, each ``|chi_g|`` is divided by N
    before it is squared instead: each ratio is at most 1.
    """
    orders = tuple(st.order for st in jchar.structures)
    k, values, n_squared = len(orders), jchar.values, jchar.n_runs**2
    parts = _parts(jchar.structures)
    if _exact_parts(parts, jchar.n_runs) < len(parts) or jchar.space_size * n_squared > 2**53:
        weights = element_weights(jchar.structures)
        moduli = np.abs(values)
        with np.errstate(over="ignore"):
            sums = np.bincount(weights, moduli**2, minlength=k + 1)
        if n_squared <= sys.float_info.max and not np.isinf(sums).any():
            return GWLP(sums / n_squared)
        return GWLP(np.bincount(weights, (moduli / float(jchar.n_runs)) ** 2, minlength=k + 1))
    order, starts = _weight_runs(orders)
    squares = values.take(order).view(np.float64)  # re, im of each element in weight order
    squares *= squares
    sums = np.zeros(k + 1)
    sums[: len(starts)] = np.add.reduceat(squares, starts)
    return GWLP(sums / n_squared)
