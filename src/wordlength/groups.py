"""Finite abelian group structures, Yates-ordered elements, and character tables.

A structure is a list of cyclic orders in primary-decomposition form.  Elements
are addressed either by a flat index in ``[0, order)`` or by their mixed-radix
residues, with the first cyclic part most significant and index 0 the identity.
Characters are indexed by group elements; the element ``g`` names the character
``h -> prod_j exp(2*pi*i * g_j*h_j / d_j)``.  This fixes one of the many
isomorphisms between the group and its character group: per cyclic part of
order ``d`` the chosen primitive root of unity is ``exp(2*pi*i/d)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .kron import kron_all

#: Largest group order for which a dense character table may be materialized.
DENSE_TABLE_CAP = 2**12

Element = tuple[int, ...]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ascending {prime: exponent} map."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return dict(sorted(factors.items()))


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing partitions of n, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def canonical_cyclic_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """Primary decomposition of a product of cyclic groups.

    Each given order is split into prime-power parts; parts are grouped by
    prime (ascending) and sorted largest-first within a prime, so isomorphic
    structures canonicalize to the same tuple (e.g. ``[6, 4] -> (4, 2, 3)``).
    """
    by_prime: dict[int, list[int]] = {}
    for d in orders:
        if d < 1:
            raise ValueError(f"cyclic order must be a positive integer, got {d}")
        for p, e in _factorize(d).items():
            by_prime.setdefault(p, []).append(p**e)
    return tuple(
        part for p in sorted(by_prime) for part in sorted(by_prime[p], reverse=True)
    )


def root_of_unity(numerator: int, denominator: int) -> complex:
    """exp(2*pi*i * numerator/denominator), exact at quarter turns.

    Multiples of a quarter turn return exact 1, i, -1, -i so that tables over
    parts of order 1, 2 and 4 are exact and integer designs get integer
    spectra under them.
    """
    numerator %= denominator
    quarter, rem = divmod(4 * numerator, denominator)
    if rem == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter]
    angle = 2.0 * math.pi * numerator / denominator
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class AbelianStructure:
    """A finite abelian group as a tuple of cyclic orders in canonical form.

    The empty tuple is the trivial group of order 1.  Use :meth:`from_orders`
    (or :func:`parse_structure`) to canonicalize arbitrary cyclic orders;
    the constructor insists on already-canonical input so that equality of
    structures is equality of tuples.
    """

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        canonical = canonical_cyclic_orders(self.cyclic_orders)
        if tuple(self.cyclic_orders) != canonical:
            raise ValueError(
                f"{tuple(self.cyclic_orders)} is not canonical (expected {canonical}); "
                "build structures with AbelianStructure.from_orders"
            )
        object.__setattr__(self, "cyclic_orders", canonical)

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> "AbelianStructure":
        return cls(canonical_cyclic_orders(orders))

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    def literal(self) -> str:
        """Structure literal for CLI/config use, e.g. ``2x2``; ``1`` if trivial."""
        if not self.cyclic_orders:
            return "1"
        return "x".join(str(d) for d in self.cyclic_orders)

    def element_of_index(self, index: int) -> Element:
        """Mixed-radix residues of a flat index; first cyclic part most significant."""
        return element_components(int(index), self.cyclic_orders)

    def index_of_element(self, element: Sequence[int]) -> int:
        element = element_components(tuple(element), self.cyclic_orders)
        return int(np.ravel_multi_index(element, self.cyclic_orders))

    def add(self, g: Sequence[int] | int, h: Sequence[int] | int) -> Element:
        orders = self.cyclic_orders
        g, h = element_components(g, orders), element_components(h, orders)
        return tuple((a + b) % d for a, b, d in zip(g, h, orders))

    def inverse(self, g: Sequence[int] | int) -> Element:
        g = element_components(g, self.cyclic_orders)
        return tuple((-a) % d for a, d in zip(g, self.cyclic_orders))

    def character_value(self, g: Sequence[int] | int, h: Sequence[int] | int) -> complex:
        """Value of the character named by g at the element h (modulus 1)."""
        orders = self.cyclic_orders
        g, h = element_components(g, orders), element_components(h, orders)
        value = 1 + 0j
        for a, b, d in zip(g, h, orders):
            value *= root_of_unity(a * b, d)
        return value


def element_components(g: Sequence[int] | int, orders: Sequence[int]) -> Element:
    """Validated mixed-radix components of an element, first order most significant.

    ``g`` is a flat index in ``[0, prod(orders))`` or a tuple of components,
    one per order.
    """
    if isinstance(g, (int, np.integer)):
        total = math.prod(orders)
        if not 0 <= g < total:
            raise ValueError(f"element index {g} out of range for order {total}")
        return tuple(int(r) for r in np.unravel_index(int(g), orders))
    g = tuple(int(c) for c in g)
    if len(g) != len(orders):
        raise ValueError(f"element {g} has {len(g)} components, expected {len(orders)}")
    for c, order in zip(g, orders):
        if not 0 <= c < order:
            raise ValueError(f"component {c} out of range for order {order}")
    return g


def parse_structure(text: str) -> AbelianStructure:
    """Parse a structure literal: cyclic orders joined by ``x``, e.g. ``4x3``."""
    chunks = text.strip().split("x")
    try:
        orders = [int(c) for c in chunks]
    except ValueError:
        raise ValueError(f"bad structure literal {text!r}") from None
    if any(d < 1 for d in orders) or not orders:
        raise ValueError(f"bad structure literal {text!r}")
    return AbelianStructure.from_orders(orders)


def enumerate_structures(order: int) -> list[AbelianStructure]:
    """All abelian groups of the given order, one per isomorphism class.

    Returned in descending lexicographic order of their cyclic-order tuples,
    e.g. ``8 -> [(8,), (4, 2), (2, 2, 2)]``.
    """
    if order < 1:
        raise ValueError(f"group order must be a positive integer, got {order}")
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in _factorize(order).items():
        per_prime.append([tuple(p**part for part in la) for la in _partitions(e)])
    structures = [
        AbelianStructure(tuple(part for group in combo for part in group))
        for combo in itertools.product(*per_prime)
    ]
    structures.sort(key=lambda st: st.cyclic_orders, reverse=True)
    return structures


def cyclic_character_table(order: int) -> np.ndarray:
    """Character table of the cyclic group Z_order: entry (g, h) is exp(2*pi*i*g*h/order)."""
    roots = [root_of_unity(m, order) for m in range(order)]
    r = np.arange(order)
    return np.asarray(roots, dtype=np.complex128)[np.outer(r, r) % order]


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Dense character table H of a structure, plus its unitary normalization U = H/sqrt(s)."""

    structure: AbelianStructure
    entries: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)


def character_table(structure: AbelianStructure) -> CharacterTable:
    """Materialize the full character table (Kronecker product over cyclic parts).

    Refuses orders above ``DENSE_TABLE_CAP``; at larger sizes use the
    factorized transform instead of a dense table.
    """
    entries = _dense_table(structure.cyclic_orders)
    return CharacterTable(structure, entries, entries / math.sqrt(structure.order))


def _dense_table(cyclic_orders: Sequence[int]) -> np.ndarray:
    """Kronecker product of the cyclic tables, refused above the table cap."""
    s = math.prod(cyclic_orders)
    if s > DENSE_TABLE_CAP:
        raise ResourceLimitError(
            f"dense character table of order {s} exceeds the cap {DENSE_TABLE_CAP}"
        )
    return kron_all([cyclic_character_table(d) for d in cyclic_orders])  # s*s <= kron cap
