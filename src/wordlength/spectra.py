"""J-characteristics and the character-route generalized wordlength pattern.

Assigning an abelian group structure to every factor turns a design's count
vector O into a spectrum chi = H O, where H is the character table of the
product group in Yates order.  The spectrum determines the design (O can be
recovered as H* chi / s) but depends on the chosen structures; the wordlength
pattern derived from it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .design import Design
from .errors import InconsistentSpectrumError
from .groups import (
    AbelianStructure,
    _dense_table,
    cyclic_character_table,
    element_components,
    parse_structure,
)
from .kron import factored_apply

Assignment = tuple[AbelianStructure, ...]

#: Default tolerance for internal numeric comparisons.
INTERNAL_TOL = 1e-9

#: Default largest distance of a reconstructed cell from an integer.  Spectra
#: rendered at 12 significant digits put each cell within about 5e-12 * N of
#: its count, whatever s is.
RECONSTRUCT_TOL = 1e-6


def check_assignment(
    design: Design, structures: Sequence[AbelianStructure | str]
) -> Assignment:
    """Validate one structure per factor with matching orders; returns the tuple.

    Structure literals (e.g. ``"2x2"``) are accepted and parsed in place.
    """
    resolved = _resolve(structures)
    if len(resolved) != design.k:
        raise ValueError(
            f"assignment has {len(resolved)} structures for {design.k} factors"
        )
    for i, (st, size) in enumerate(zip(resolved, design.sizes)):
        if st.order != size:
            raise ValueError(
                f"factor {i + 1} has {size} levels but structure {st.literal()} "
                f"has order {st.order}"
            )
    return resolved


def _resolve(structures: Sequence[AbelianStructure | str]) -> Assignment:
    return tuple(parse_structure(st) if isinstance(st, str) else st for st in structures)


def _spectrum_structures(
    jchar: JCharVector, structures: Sequence[AbelianStructure | str] | None
) -> Assignment:
    """The assignment to read a spectrum under: its own unless one is given."""
    resolved = jchar.structures if structures is None else _resolve(structures)
    s = math.prod(st.order for st in resolved)
    if s != jchar.space_size:
        raise ValueError(
            f"assignment spans {s} elements, spectrum has {jchar.space_size}"
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
    """Vector of nonidentity weights for all s Yates-ordered elements."""
    weights = np.zeros([st.order for st in structures], dtype=np.int64)
    # Factor i's digit varies along axis i; C order is Yates order.
    for digits in np.ix_(*(np.arange(st.order) for st in structures)):
        weights += digits != 0
    return weights.ravel()


@dataclass(frozen=True, eq=False)
class JCharVector:
    """Spectrum of a design: chi[g] for all s elements g in Yates order."""

    values: np.ndarray = field(repr=False)
    n_runs: int
    structures: Assignment

    @property
    def space_size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class GWLP:
    """Generalized wordlength pattern (A_0, A_1, ..., A_k) of a design.

    A plain value: every route computes it without a tolerance, A_0 comes out
    as exactly 1 and no entry is negative.  Tolerances belong to the
    decisions made from a pattern (resolution, aberration order, cross-route
    agreement), which take them as arguments.  ``raw`` is another name for
    ``values``.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(a) for a in self.values)
        if any(a < 0 for a in values):
            raise ValueError(f"wordlength pattern has a negative entry: {values}")
        object.__setattr__(self, "values", values)

    @property
    def raw(self) -> tuple[float, ...]:
        return self.values

    @property
    def k(self) -> int:
        return len(self.values) - 1

    @property
    def wordlengths(self) -> tuple[float, ...]:
        """(A_1, ..., A_k): the entries that aberration comparison uses."""
        return self.values[1:]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]

    def __iter__(self):
        return iter(self.values)


def _part_tables(structures: Sequence[AbelianStructure]) -> list[np.ndarray]:
    return [
        cyclic_character_table(d) for st in structures for d in st.cyclic_orders
    ]


def assignment_character_table(structures: Sequence[AbelianStructure]) -> np.ndarray:
    """Dense character table of the product group, Yates-ordered by factors."""
    return _dense_table([d for st in structures for d in st.cyclic_orders])


def j_characteristics(
    design: Design,
    structures: Sequence[AbelianStructure | str],
    algorithm: str = "factorized",
) -> JCharVector:
    """Spectrum chi with chi[g] = sum_h O(h) chi_g(h).

    ``algorithm="dense"`` materializes the full character table (capped at
    ``groups.DENSE_TABLE_CAP``); ``"factorized"`` applies the per-part tables
    as a mixed-radix transform and only needs the dense count vector (capped
    at ``design.DENSIFY_CAP``).
    """
    structures = check_assignment(design, structures)
    counts = design.dense_counts().astype(np.complex128)
    if algorithm == "dense":
        table = assignment_character_table(structures)
        values = table @ counts
    elif algorithm == "factorized":
        values = factored_apply(_part_tables(structures), counts)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r} (want dense or factorized)")
    return JCharVector(values, design.n_runs, structures)


def reconstruct(
    jchar: JCharVector,
    structures: Sequence[AbelianStructure | str] | None = None,
    *,
    tol: float = RECONSTRUCT_TOL,
) -> dict[tuple[int, ...], int]:
    """Recover run multiplicities from a spectrum: O = H* chi / s.

    Returns a sparse map from runs (per-factor level indices) to
    multiplicities.  Raises InconsistentSpectrumError if any cell is farther
    than ``tol`` from a nonnegative integer, which happens when the spectrum
    was computed under a different structure assignment than the one given
    here, or if the multiplicities do not add up to ``jchar.n_runs``.
    """
    resolved = _spectrum_structures(jchar, structures)
    adjoints = [t.conj().T for t in _part_tables(resolved)]
    # A non-finite spectrum makes NaN cells; they fail the check below.
    with np.errstate(invalid="ignore"):
        cells = factored_apply(adjoints, jchar.values) / jchar.space_size
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
    digits = np.unravel_index(nonzero, [st.order for st in resolved])
    runs = zip(*(d.tolist() for d in digits))
    counts = mults[nonzero].astype(np.int64).tolist()
    total = sum(counts)
    if total != jchar.n_runs:
        raise InconsistentSpectrumError(
            f"spectrum reconstructs to {total} runs, not its n_runs {jchar.n_runs}"
        )
    return dict(zip(runs, counts))


def gwlp_char(
    jchar: JCharVector,
    structures: Sequence[AbelianStructure | str] | None = None,
) -> GWLP:
    """Wordlength pattern A_j = N^-2 * sum over weight-j elements of |chi_g|^2."""
    resolved = _spectrum_structures(jchar, structures)
    if jchar.n_runs <= 0:
        raise ValueError("spectrum has no runs")
    weights = element_weights(resolved)
    k = len(resolved)
    power = np.abs(jchar.values) ** 2
    return GWLP(np.bincount(weights, weights=power, minlength=k + 1) / jchar.n_runs**2)
