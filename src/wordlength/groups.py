"""Finite abelian group structures, Yates-ordered elements, and character tables.

A structure is a list of cyclic orders in primary-decomposition form.  Elements
are Yates indices: an element's index in ``[0, order)`` is the mixed-radix
number of its residues, first cyclic part most significant, so index 0 is the
identity.  Characters are indexed by group elements; the element ``g`` names
the character ``h -> prod_j exp(2*pi*i * g_j*h_j / d_j)``.  This fixes one of
the many isomorphisms between the group and its character group: per cyclic
part of order ``d`` the chosen primitive root of unity is ``exp(2*pi*i/d)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .kron import kron_all

#: Largest order of a dense character table, of a product group or of one cyclic part.
DENSE_TABLE_CAP = 2**12

#: Entries of a dense head or block (or D * s, if more), of the largest kept cyclic table,
#: and run pairs in a block of the pair kernel: 1 MiB of 16-byte cells in each.
DENSE_BLOCK_ENTRIES = 2**16

#: Largest group or cyclic order that may be factored (by trial division).
MAX_ORDER = 2**32

Element = tuple[int, ...]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ascending {prime: exponent} map."""
    if n > MAX_ORDER:
        raise ResourceLimitError(f"order {n} exceeds the cap {MAX_ORDER} on group orders")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors  # trial division finds the primes in ascending order


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

    The constructor canonicalizes the orders it is given, so
    ``AbelianStructure((2, 4)) == AbelianStructure((4, 2))`` and equality of
    structures is isomorphism.  The empty tuple is the trivial group of order
    1.  Elements are Yates indices in ``[0, order)``, index 0 the identity.
    """

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", canonical_cyclic_orders(self.cyclic_orders))

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    def literal(self) -> str:
        """Structure literal for CLI/config use, e.g. ``2x2``; ``1`` if trivial."""
        if not self.cyclic_orders:
            return "1"
        return "x".join(str(d) for d in self.cyclic_orders)


def yates_strides(orders: Sequence[int]) -> list[int]:
    """Place values of Yates indices, exact at any size: an element's index is
    its components times these, and its components are ``index // stride % order``."""
    return [math.prod(orders[i + 1 :]) for i in range(len(orders))]


def element_components(g: Sequence[int] | int, orders: Sequence[int]) -> Element:
    """Validated mixed-radix components of an element, first order most significant.

    ``g`` is a flat index in ``[0, prod(orders))`` or a tuple of components,
    one per order.
    """
    if isinstance(g, (int, np.integer)):
        g, total = int(g), math.prod(orders)
        if not 0 <= g < total:
            raise ValueError(f"element index {g} out of range for order {total}")
        return tuple(g // stride % order for stride, order in zip(yates_strides(orders), orders))
    g = tuple(int(c) for c in g)
    if len(g) != len(orders):
        raise ValueError(f"element {g} has {len(g)} components, expected {len(orders)}")
    for c, order in zip(g, orders):
        if not 0 <= c < order:
            raise ValueError(f"component {c} out of range for order {order}")
    return g


def parse_structure(text: str) -> AbelianStructure:
    """Parse a structure literal: cyclic orders joined by ``x``, e.g. ``4x3``.

    Each order is ASCII digits and at least 1 (``04`` is 4); whitespace
    around the literal is ignored, a sign, ``_`` or inner space is not.
    """
    chunks = text.strip().split("x")
    if not all(c.isascii() and c.isdigit() and c.strip("0") for c in chunks):
        raise ValueError(f"bad structure literal {text!r}")
    return AbelianStructure(tuple(map(int, chunks)))


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
    # Each prime's partitions come largest first, and no partition of an exponent
    # is a prefix of another, so the product is already in descending order.
    return [
        AbelianStructure(tuple(part for group in combo for part in group))
        for combo in itertools.product(*per_prime)
    ]


def cyclic_character_table(order: int) -> np.ndarray:
    """Character table of the cyclic group Z_order: entry (g, h) is exp(2*pi*i*g*h/order).

    Read-only and refused above ``DENSE_TABLE_CAP`` before anything is allocated;
    every route reads these.  One within ``DENSE_BLOCK_ENTRIES`` (order <= 256)
    is built once and shared, a larger one on each call, freed with its last reader.
    """
    if order * order <= DENSE_BLOCK_ENTRIES:
        return _shared_cyclic_table(order)
    return _cyclic_table(order)


def _cyclic_table(order: int) -> np.ndarray:
    if order > DENSE_TABLE_CAP:
        raise ResourceLimitError(f"character table of Z_{order} exceeds the cap {DENSE_TABLE_CAP}")
    roots = [root_of_unity(m, order) for m in range(order)]
    # One int32 exponent index, reduced in place: under the cap (order - 1)**2 < 2**31.
    r = np.arange(order, dtype=np.int32)
    exponents = np.multiply.outer(r, r)
    exponents %= order
    table = np.asarray(roots, dtype=np.complex128)[exponents]
    table.flags.writeable = False
    return table


_shared_cyclic_table = functools.lru_cache(maxsize=64)(_cyclic_table)


def character_table(structure: AbelianStructure) -> np.ndarray:
    """Kronecker product of the cyclic tables, refused above ``DENSE_TABLE_CAP`` as each is."""
    return _dense_table(structure.cyclic_orders)


def _dense_table(cyclic_orders: Sequence[int]) -> np.ndarray:
    """Kronecker product of the cyclic tables, refused above the table cap."""
    _check_dense_order(cyclic_orders)
    return kron_all([cyclic_character_table(d) for d in cyclic_orders])


def _check_dense_order(cyclic_orders: Sequence[int]) -> None:
    """Refuse a dense table of the product of these parts above ``DENSE_TABLE_CAP``."""
    s = math.prod(cyclic_orders)
    if s > DENSE_TABLE_CAP:
        raise ResourceLimitError(
            f"dense character table of order {s} exceeds the cap {DENSE_TABLE_CAP}"
        )
