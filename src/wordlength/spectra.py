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

from . import design as design_mod
from .design import Design
from .errors import InconsistentSpectrumError
from .groups import (
    DENSE_TABLE_CAP,
    AbelianStructure,
    _dense_table,
    cyclic_character_table,
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
    components = _components(structures, g)
    return sum(1 for c in components if c != 0)


def _components(
    structures: Sequence[AbelianStructure], g: Sequence[int] | int
) -> tuple[int, ...]:
    orders = [st.order for st in structures]
    if isinstance(g, (int, np.integer)):
        index = int(g)
        total = math.prod(orders)
        if not 0 <= index < total:
            raise ValueError(f"element index {index} out of range for order {total}")
        return tuple(int(r) for r in np.unravel_index(index, orders))
    g = tuple(int(c) for c in g)
    if len(g) != len(orders):
        raise ValueError(f"element {g} does not have {len(orders)} components")
    for c, order in zip(g, orders):
        if not 0 <= c < order:
            raise ValueError(f"component {c} out of range for order {order}")
    return g


def element_weights(structures: Sequence[AbelianStructure]) -> np.ndarray:
    """Vector of nonidentity weights for all s Yates-ordered elements."""
    orders = [st.order for st in structures]
    s = math.prod(orders)
    weights = np.zeros(s, dtype=np.int64)
    indices = np.arange(s)
    stride = s
    for order in orders:
        stride //= order
        weights += (indices // stride) % order != 0
    return weights


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
    """Generalized wordlength pattern (A_0, A_1, ..., A_k).

    A_0 is pinned to 1; tiny negative values from floating-point noise are
    clamped to 0 in ``values`` while ``raw`` keeps them as computed.
    """

    values: tuple[float, ...]
    raw: tuple[float, ...] = field(repr=False)
    tolerance: float = INTERNAL_TOL

    def __post_init__(self):
        if any(a < -self.tolerance for a in self.raw):
            raise ValueError(
                f"wordlength pattern has an entry below -{self.tolerance}: {self.raw}"
            )

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


def _finish_gwlp(raw, tol: float) -> GWLP:
    values = [1.0] + [max(float(a), 0.0) for a in raw[1:]]
    return GWLP(tuple(values), tuple(float(a) for a in raw), tol)


def _part_tables(structures: Sequence[AbelianStructure]) -> list[np.ndarray]:
    return [
        cyclic_character_table(d) for st in structures for d in st.cyclic_orders
    ]


def assignment_character_table(
    structures: Sequence[AbelianStructure], *, max_order: int = DENSE_TABLE_CAP
) -> np.ndarray:
    """Dense character table of the product group, Yates-ordered by factors."""
    return _dense_table([d for st in structures for d in st.cyclic_orders], max_order)


def j_characteristics(
    design: Design,
    structures: Sequence[AbelianStructure | str],
    algorithm: str = "factorized",
    *,
    max_dense_order: int = DENSE_TABLE_CAP,
    max_size: int = design_mod.DENSIFY_CAP,
) -> JCharVector:
    """Spectrum chi with chi[g] = sum_h O(h) chi_g(h).

    ``algorithm="dense"`` materializes the full character table (capped at
    ``max_dense_order``); ``"factorized"`` applies the per-part tables as a
    mixed-radix transform and only needs the dense count vector (capped at
    ``max_size``).
    """
    structures = check_assignment(design, structures)
    counts = design.dense_counts(max_size=max_size).astype(np.complex128)
    if algorithm == "dense":
        table = assignment_character_table(structures, max_order=max_dense_order)
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
    than ``tol`` from a nonnegative integer; that happens when the spectrum was
    computed under a different structure assignment than the one given here.
    """
    resolved = _spectrum_structures(jchar, structures)
    adjoints = [t.conj().T for t in _part_tables(resolved)]
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
    return dict(zip(runs, mults[nonzero].astype(np.int64).tolist()))


def gwlp_char(
    jchar: JCharVector,
    structures: Sequence[AbelianStructure | str] | None = None,
    *,
    tol: float = INTERNAL_TOL,
) -> GWLP:
    """Wordlength pattern A_j = N^-2 * sum over weight-j elements of |chi_g|^2."""
    resolved = _spectrum_structures(jchar, structures)
    if jchar.n_runs <= 0:
        raise ValueError("spectrum has no runs")
    weights = element_weights(resolved)
    k = len(resolved)
    power = np.abs(jchar.values) ** 2
    raw = np.bincount(weights, weights=power, minlength=k + 1) / jchar.n_runs**2
    return _finish_gwlp(raw, tol)
